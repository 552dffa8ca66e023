"""Differential tests: the indexed cut predicates and enumerator against
the per-cut scans they replaced.

The reference below is the pre-index implementation, kept verbatim in
behaviour: ``is_convex`` walked the graph from every outside successor,
``subgraph_inputs`` / ``subgraph_outputs`` rescanned the cut and the
whole block (and recomputed the function-wide live-out set) for every
cut, and ``enumerate_block_cuts`` deduplicated cuts by frozensets of
``id()``.  Both sides run in one process on the same IR objects, so the
``id()``-dependent push order of the search is the same for both and the
ordered cut lists must match exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

import pytest

from repro.core import EnumerationConfig, enumerate_block_cuts
from repro.core.identification import _fusable_nodes, _is_constant
from repro.core.patterns import pattern_from_cut
from repro.ir import Instruction, VirtualRegister, build_dataflow_graph
from repro.workloads import BUILTIN_KERNELS

from _shared import build_kernel_module

#: the kernels of the repository benchmark's customize workload.
CUSTOMIZE_KERNELS = ("crc32", "dot_product", "ip_checksum", "histogram",
                     "popcount_buffer", "sad16", "saturated_add")

#: (kernel, opt level) pairs compared cut list by cut list.  dct_stage at
#: O2 is left out: the reference scans alone take ~24 s on it.
CASES = ([(name, 3) for name in CUSTOMIZE_KERNELS]
         + [(name, 2) for name in sorted(BUILTIN_KERNELS) if name != "dct_stage"])

#: the default search, and the same search truncated by a small cap.
CONFIGS = {
    "default": EnumerationConfig(),
    "capped": EnumerationConfig(max_candidates_per_block=16),
}


# ----------------------------------------------------------------------
# Reference: the per-cut scans.
# ----------------------------------------------------------------------

def ref_is_convex(dfg, subset: Set[Instruction]) -> bool:
    if not subset:
        return True
    outside_reachable: Set[Instruction] = set()
    for node in subset:
        for succ in dfg.graph.successors(node):
            if succ not in subset:
                outside_reachable.add(succ)
    seen: Set[Instruction] = set()
    stack = list(outside_reachable)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node in subset:
            return False
        stack.extend(dfg.graph.successors(node))
    return True


def ref_subgraph_inputs(dfg, subset: Set[Instruction]) -> List:
    produced = {inst.dest for inst in subset if inst.dest is not None}
    inputs: List = []
    seen = set()
    for inst in subset:
        for op in inst.operands:
            if isinstance(op, VirtualRegister) and op in produced:
                continue
            key = op.id if isinstance(op, VirtualRegister) else (str(op), str(op.type))
            if key not in seen:
                seen.add(key)
                inputs.append(op)
    return inputs


def _ref_live_out_registers(dfg) -> Set[VirtualRegister]:
    defined = {inst.dest for inst in dfg.block.instructions if inst.dest is not None}
    function = dfg.block.function
    if function is None:
        return set()
    live: Set[VirtualRegister] = set()
    for block in function.blocks:
        if block is dfg.block:
            continue
        for inst in block.instructions:
            for reg in inst.uses():
                if reg in defined:
                    live.add(reg)
    term = dfg.block.terminator
    if term is not None:
        for reg in term.uses():
            if reg in defined:
                live.add(reg)
    return live


def ref_subgraph_outputs(dfg, subset: Set[Instruction]) -> List[VirtualRegister]:
    produced: Dict[VirtualRegister, Instruction] = {
        inst.dest: inst for inst in subset if inst.dest is not None}
    outputs: List[VirtualRegister] = []
    live_out = _ref_live_out_registers(dfg)
    for reg in produced:
        external_use = any(reg in other.uses() for other in dfg.block.instructions
                           if other not in subset)
        if external_use or reg in live_out:
            outputs.append(reg)
    return outputs


def ref_enumerate_block_cuts(block, config: EnumerationConfig):
    dfg = build_dataflow_graph(block)
    fusable = _fusable_nodes(dfg)
    if len(fusable) < config.min_size:
        return []
    fusable_set = set(fusable)
    results = []
    seen: Set[frozenset] = set()

    def io_feasible(cut):
        inputs = ref_subgraph_inputs(dfg, cut)
        outputs = ref_subgraph_outputs(dfg, cut)
        return (len([v for v in inputs if not _is_constant(v)]) <= config.max_inputs
                and len(outputs) <= config.max_outputs and len(outputs) >= 1)

    def neighbours(cut):
        candidates: Set[Instruction] = set()
        for inst in cut:
            for pred in dfg.predecessors(inst):
                if pred in fusable_set and pred not in cut:
                    candidates.add(pred)
            for succ in dfg.successors(inst):
                if succ in fusable_set and succ not in cut:
                    candidates.add(succ)
        return candidates

    for seed in fusable:
        frontier = [{seed}]
        while frontier and len(results) < config.max_candidates_per_block:
            cut = frontier.pop()
            key = frozenset(id(inst) for inst in cut)
            if key in seen:
                continue
            seen.add(key)
            if len(cut) > config.max_size:
                continue
            if not ref_is_convex(dfg, cut):
                continue
            if len(cut) >= config.min_size and io_feasible(cut):
                results.append((set(cut), dfg))
            if len(cut) < config.max_size:
                for extra in neighbours(cut):
                    grown = cut | {extra}
                    if frozenset(id(inst) for inst in grown) not in seen:
                        frontier.append(grown)
        if len(results) >= config.max_candidates_per_block:
            break
    return results


# ----------------------------------------------------------------------
# Comparison helpers.
# ----------------------------------------------------------------------

def _positions(block, cut) -> List[int]:
    return [i for i, inst in enumerate(block.instructions) if inst in cut]


def _ids(values) -> List:
    return [v.id if isinstance(v, VirtualRegister) else (str(v), str(v.type))
            for v in values]


def _blocks(name: str, opt_level: int):
    _kernel, module = build_kernel_module(name, opt_level)
    return [block for function in module.functions.values()
            for block in function.blocks]


# ----------------------------------------------------------------------
# Tests.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_ordered_cut_lists_match_reference(config_name):
    config = CONFIGS[config_name]
    compared = truncated = 0
    for name, opt_level in CASES:
        for block in _blocks(name, opt_level):
            expected = ref_enumerate_block_cuts(block, config)
            actual = enumerate_block_cuts(block, config)
            assert [_positions(block, cut) for cut, _ in actual] == \
                [_positions(block, cut) for cut, _ in expected], \
                (name, opt_level, block.name)
            compared += len(actual)
            truncated += len(actual) == config.max_candidates_per_block
            for cut, dfg in actual:
                ordered = [inst for inst in block.instructions if inst in cut]
                _pattern, _inputs, outputs = pattern_from_cut(ordered, dfg)
                reference = sorted(ref_subgraph_outputs(dfg, cut),
                                   key=lambda reg: next(
                                       i for i, inst in enumerate(ordered)
                                       if inst.dest is not None
                                       and inst.dest.id == reg.id))
                assert _ids(outputs) == _ids(reference)
    assert compared > 0
    if config_name == "capped":
        # The cap really truncates some blocks, so the truncating path of
        # the search is compared too.
        assert truncated > 0


@pytest.mark.parametrize("include_terminator", [False, True])
@pytest.mark.parametrize("name,opt_level", CASES)
def test_predicates_match_reference_on_random_subsets(name, opt_level,
                                                      include_terminator):
    rng = random.Random(f"{name}-O{opt_level}-{include_terminator}")
    for block in _blocks(name, opt_level):
        dfg = build_dataflow_graph(block, include_terminator=include_terminator)
        nodes = [inst for inst in block.instructions if inst in dfg.graph]
        for _ in range(12):
            if not nodes:
                break
            subset = set(rng.sample(nodes, rng.randint(1, min(len(nodes), 8))))
            assert dfg.is_convex(subset) == ref_is_convex(dfg, subset)
            assert _ids(dfg.subgraph_inputs(subset)) == \
                _ids(ref_subgraph_inputs(dfg, subset))
            assert _ids(dfg.subgraph_outputs(subset)) == \
                _ids(ref_subgraph_outputs(dfg, subset))
