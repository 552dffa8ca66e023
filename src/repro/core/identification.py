"""Identification of instruction-set-extension candidates.

Candidates are *convex cuts* of basic-block dataflow graphs containing only
fusable operations (no memory accesses, calls or control flow), bounded by
the register-file port constraints of the custom functional unit
(``max_inputs`` read ports, ``max_outputs`` write ports).  Enumeration is
the classic grow-from-seed search with convexity and I/O pruning, bounded
by ``max_size`` and a per-block candidate cap so that even large unrolled
blocks enumerate in reasonable time.

The cut predicates run on the block's bitset index
(:class:`~repro.ir.dataflow.BlockIndex`, built once per dataflow graph),
not on rescans of the block.  Each cut carries an integer mask with one
bit per instruction, which is also its deduplication key.  Convexity is
one test per successor leaving the cut (no descendant of it may lie
inside), and inputs and outputs come from a per-block def-use index and
a live-out set computed once, instead of rescanning the block and the
function for every cut (the fast-enumeration idea of Atasu, Pozzi &
Ienne, DAC 2003, and of Chen, Maskell & Sun, TCAD 2007).

The search order itself is kept on purpose.  ``Instruction`` hashes by
``id()``, so the order in which a cut's neighbour set is iterated follows
object addresses; that order fixes the order of the returned cuts, the
tie-breaks among equally ranked candidates and, in blocks that reach
``max_candidates_per_block``, which cuts are kept.  The index only makes
each step cheaper; it visits the same cuts in the same order.

Identical computations found at different sites (or in different programs)
are merged by the patterns' canonical signatures, and each candidate
accumulates its occurrence list with the execution frequency of the
containing block — the quantity the selection stage trades off against
area and opcode-space cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..arch.machine import MachineDescription
from ..arch.operations import classify
from ..ir import (
    BasicBlock, Constant, Function, Instruction, Module, build_dataflow_graph,
    estimate_block_frequencies,
)
from .patterns import Pattern, pattern_from_cut


@dataclass
class Occurrence:
    """One site where a candidate pattern appears."""

    function: str
    block: str
    instructions: List[Instruction]
    frequency: float
    input_values: List = field(default_factory=list)
    output_registers: List = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.instructions)


@dataclass
class Candidate:
    """A candidate ISA extension: a pattern plus everywhere it occurs."""

    pattern: Pattern
    occurrences: List[Occurrence] = field(default_factory=list)

    @property
    def signature(self) -> str:
        return self.pattern.signature()

    @property
    def static_count(self) -> int:
        return len(self.occurrences)

    @property
    def dynamic_count(self) -> float:
        return sum(occ.frequency for occ in self.occurrences)

    def cycles_saved_per_use(self, machine: MachineDescription) -> int:
        """Latency saved each time the fused operation replaces the cut."""
        software = self.pattern.software_latency(
            lambda opcode: machine.latency(classify(opcode))
        )
        hardware = self.pattern.hardware_latency()
        return max(0, software - hardware)

    def estimated_benefit(self, machine: MachineDescription) -> float:
        """Weighted cycle savings across all occurrences."""
        return self.cycles_saved_per_use(machine) * self.dynamic_count

    def area_cost(self) -> float:
        return self.pattern.hardware_area_kgates()


@dataclass
class EnumerationConfig:
    """Constraints on the candidate search."""

    max_inputs: int = 4
    max_outputs: int = 2
    max_size: int = 10
    min_size: int = 2
    max_candidates_per_block: int = 512
    #: ignore blocks executed fewer than this many times (profile-weighted).
    min_block_frequency: float = 0.0


def _fusable_nodes(dfg) -> List[Instruction]:
    return [inst for inst in dfg.nodes if inst.is_fusable() and inst.dest is not None]


def enumerate_block_cuts(block: BasicBlock,
                         config: EnumerationConfig) -> List[Tuple[Set[Instruction], object]]:
    """Enumerate convex, I/O-feasible cuts of one basic block.

    Returns ``(cut, dfg)`` tuples.  The search grows connected subgraphs
    from each seed node by repeatedly adding dataflow neighbours, pruning
    non-convex or port-infeasible subgraphs, and deduplicating by the
    cuts' bitmasks in the graph's :class:`~repro.ir.dataflow.BlockIndex`.
    """
    dfg = build_dataflow_graph(block)
    fusable = _fusable_nodes(dfg)
    if len(fusable) < config.min_size:
        return []
    fusable_set = set(fusable)
    index = dfg.index
    bit = index.bit
    # Fusable neighbours of each node: predecessors, then successors, in
    # the graph's adjacency order (the order the search adds them in).
    adjacent = {
        inst: [other for other in dfg.predecessors(inst) + dfg.successors(inst)
               if other in fusable_set]
        for inst in fusable
    }

    results: List[Tuple[Set[Instruction], object]] = []
    seen: Set[int] = set()

    def io_feasible(cut: Set[Instruction], mask: int) -> bool:
        inputs = index.inputs(cut, mask)
        outputs = index.outputs(cut, mask)
        return (len([v for v in inputs if not _is_constant(v)]) <= config.max_inputs
                and len(outputs) <= config.max_outputs and len(outputs) >= 1)

    def neighbours(cut: Set[Instruction], mask: int) -> Set[Instruction]:
        candidates: Set[Instruction] = set()
        for inst in cut:
            for other in adjacent[inst]:
                if not bit[other] & mask:
                    candidates.add(other)
        return candidates

    for seed in fusable:
        frontier: List[Tuple[Set[Instruction], int]] = [({seed}, bit[seed])]
        while frontier and len(results) < config.max_candidates_per_block:
            cut, mask = frontier.pop()
            if mask in seen:
                continue
            seen.add(mask)
            if len(cut) > config.max_size:
                continue
            if not index.is_convex(cut, mask):
                continue
            if len(cut) >= config.min_size and io_feasible(cut, mask):
                results.append((set(cut), dfg))
            if len(cut) < config.max_size:
                for extra in neighbours(cut, mask):
                    grown_mask = mask | bit[extra]
                    if grown_mask not in seen:
                        frontier.append((cut | {extra}, grown_mask))
        if len(results) >= config.max_candidates_per_block:
            break
    return results


def _is_constant(value) -> bool:
    return isinstance(value, Constant)


def identify_candidates(module: Module,
                        config: Optional[EnumerationConfig] = None,
                        functions: Optional[Sequence[str]] = None,
                        use_static_frequencies: bool = True) -> List[Candidate]:
    """Enumerate and merge ISE candidates across a module.

    When the module carries no measured profile (all block frequencies are
    the default 1.0) and ``use_static_frequencies`` is true, static loop-
    nesting estimates are computed first so inner-loop candidates dominate.
    """
    config = config or EnumerationConfig()
    by_signature: Dict[str, Candidate] = {}

    selected_functions: Iterable[Function]
    if functions is None:
        selected_functions = module.functions.values()
    else:
        selected_functions = [module.get_function(name) for name in functions]

    for function in selected_functions:
        if use_static_frequencies and all(b.frequency == 1.0 for b in function.blocks):
            estimate_block_frequencies(function)
        for block in function.blocks:
            if block.frequency < config.min_block_frequency:
                continue
            for cut, dfg in enumerate_block_cuts(block, config):
                pattern, inputs, outputs = pattern_from_cut(
                    [inst for inst in block.instructions if inst in cut], dfg
                )
                if pattern.size < config.min_size:
                    continue
                candidate = by_signature.get(pattern.signature())
                if candidate is None:
                    candidate = Candidate(pattern=pattern)
                    by_signature[pattern.signature()] = candidate
                candidate.occurrences.append(Occurrence(
                    function=function.name,
                    block=block.name,
                    instructions=[inst for inst in block.instructions if inst in cut],
                    frequency=block.frequency,
                    input_values=inputs,
                    output_registers=outputs,
                ))

    candidates = list(by_signature.values())
    candidates.sort(key=lambda c: -c.dynamic_count * max(1, c.pattern.size))
    return candidates


def filter_overlapping_occurrences(candidates: List[Candidate]) -> None:
    """Drop occurrences that share instructions with a better candidate.

    Selection assumes each occurrence can be rewritten independently; when
    two candidates claim the same IR instruction only the candidate that
    appears earlier in the (benefit-sorted) list keeps that site.
    """
    claimed: Set[int] = set()
    for candidate in candidates:
        kept: List[Occurrence] = []
        for occurrence in candidate.occurrences:
            ids = {id(inst) for inst in occurrence.instructions}
            if ids & claimed:
                continue
            kept.append(occurrence)
            claimed |= ids
        candidate.occurrences = kept
