"""Per-basic-block dataflow graphs (DFGs).

The DFG is the central data structure of the ISA-customization engine
(:mod:`repro.core`): instruction-set-extension candidates are convex
subgraphs of these graphs.  It is also used by the VLIW list scheduler,
which schedules the same graph against the machine's resource tables.

Nodes of the DFG are :class:`Instruction` objects of one basic block.
Edges are:

* true (flow) dependences through virtual registers,
* memory dependences (conservative: every pair of memory operations where
  at least one is a store is ordered, as is every call), and
* anti/output dependences through registers (needed because the IR is not
  in SSA form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from .block import BasicBlock
from .instructions import Instruction, Opcode
from .values import Value, VirtualRegister


@dataclass
class DataflowGraph:
    """The dependence graph of one basic block.

    The cut predicates (:meth:`is_convex`, :meth:`subgraph_inputs`,
    :meth:`subgraph_outputs`) run on :attr:`index`, which is built on first
    use from a snapshot of the block and of its function's other blocks
    (for live-out registers).  Do not reuse a graph after mutating its
    function: build a new one.
    """

    block: BasicBlock
    graph: nx.DiGraph = field(default_factory=nx.DiGraph)
    _index: Optional[BlockIndex] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def nodes(self) -> List[Instruction]:
        return list(self.graph.nodes)

    def predecessors(self, inst: Instruction) -> List[Instruction]:
        return list(self.graph.predecessors(inst))

    def successors(self, inst: Instruction) -> List[Instruction]:
        return list(self.graph.successors(inst))

    def flow_edges(self) -> List[tuple]:
        """Only the true (register flow) dependence edges."""
        return [
            (u, v) for u, v, kind in self.graph.edges(data="kind") if kind == "flow"
        ]

    @property
    def index(self) -> BlockIndex:
        """The bitset index of this graph's block, built on first use."""
        if self._index is None:
            self._index = BlockIndex(self)
        return self._index

    def is_convex(self, subset: Set[Instruction]) -> bool:
        """True if no path leaves ``subset`` and re-enters it.

        Convexity is the feasibility condition for collapsing a subgraph
        into a single custom operation: if a path escapes and returns, the
        fused operation would need its own result before it finished.
        """
        index = self.index
        return index.is_convex(subset, index.mask(subset))

    def subgraph_inputs(self, subset: Set[Instruction]) -> List[Value]:
        """Distinct values consumed by ``subset`` but produced outside it."""
        index = self.index
        return index.inputs(subset, index.mask(subset))

    def subgraph_outputs(self, subset: Set[Instruction]) -> List[VirtualRegister]:
        """Registers produced in ``subset`` that are used outside it (or live out)."""
        index = self.index
        return index.outputs(subset, index.mask(subset))

    def critical_path_length(self, latency_of) -> int:
        """Length (in cycles) of the longest dependence chain.

        ``latency_of`` maps an :class:`Instruction` to its latency in cycles.
        """
        order = list(nx.topological_sort(self.graph))
        finish: Dict[Instruction, int] = {}
        longest = 0
        for inst in order:
            start = 0
            for pred in self.graph.predecessors(inst):
                start = max(start, finish[pred])
            finish[inst] = start + latency_of(inst)
            longest = max(longest, finish[inst])
        return longest


class BlockIndex:
    """A bitset view of one block, built once from a snapshot of it.

    Every instruction of the block (terminator included) owns the bit
    ``1 << position``, so a cut is an ``int`` mask and each cut predicate
    becomes a few bitwise operations instead of a rescan of the block:

    * convexity: a cut is convex iff no successor outside it has a
      descendant inside it (``desc[s] & mask == 0``).  The strict
      descendant mask of every node is computed once, in reverse
      topological order.
    * outputs: a register defined in the cut leaves it iff a user outside
      the cut reads it (``users[reg.id] & ~mask``) or it is live out of
      the block.
    * inputs: an operand is internal iff the cut defines its register.

    The predicates iterate the caller's ``subset`` in its own order, as
    the per-cut scans they replace did, so results come in the same order.
    """

    __slots__ = ("bit", "succs", "desc", "users", "live_out", "operands")

    def __init__(self, dfg: DataflowGraph) -> None:
        block = dfg.block
        graph = dfg.graph
        self.bit: Dict[Instruction, int] = {
            inst: 1 << position for position, inst in enumerate(block.instructions)
        }
        bit = self.bit

        #: successor mask per graph node; strict-descendant mask per node bit.
        self.succs: Dict[Instruction, int] = {}
        self.desc: Dict[int, int] = {}
        for node in reversed(list(nx.topological_sort(graph))):
            succs = 0
            below = 0
            for succ in graph.successors(node):
                succs |= bit[succ]
                below |= self.desc[bit[succ]]
            self.succs[node] = succs
            self.desc[bit[node]] = succs | below

        #: reg.id -> mask of the block's instructions that read it.
        self.users: Dict[int, int] = {}
        defs: Dict[int, int] = {}
        for inst in block.instructions:
            for reg in inst.uses():
                self.users[reg.id] = self.users.get(reg.id, 0) | bit[inst]
            if inst.dest is not None:
                defs[inst.dest.id] = defs.get(inst.dest.id, 0) | bit[inst]

        #: per instruction: (operand, dedup key, mask of its in-block defs).
        self.operands: Dict[Instruction, Tuple[Tuple[Value, object, int], ...]] = {}
        for inst in block.instructions:
            entries = []
            for op in inst.operands:
                if isinstance(op, VirtualRegister):
                    entries.append((op, op.id, defs.get(op.id, 0)))
                else:
                    entries.append((op, (str(op), str(op.type)), 0))
            self.operands[inst] = tuple(entries)

        #: ids of registers defined here and possibly read by other blocks
        #: or by this block's own terminator.
        self.live_out: Set[int] = set()
        function = block.function
        if function is not None:
            readers = [inst for other in function.blocks if other is not block
                       for inst in other.instructions]
            if block.terminator is not None:
                readers.append(block.terminator)
            for inst in readers:
                for reg in inst.uses():
                    if reg.id in defs:
                        self.live_out.add(reg.id)

    def mask(self, subset: Iterable[Instruction]) -> int:
        """The bitmask of ``subset``."""
        bit = self.bit
        mask = 0
        for inst in subset:
            mask |= bit[inst]
        return mask

    def is_convex(self, subset: Iterable[Instruction], mask: int) -> bool:
        """:meth:`DataflowGraph.is_convex` of ``subset`` (whose mask is ``mask``)."""
        succs = self.succs
        outside = 0
        for inst in subset:
            outside |= succs[inst]
        outside &= ~mask
        desc = self.desc
        while outside:
            low = outside & -outside
            if desc[low] & mask:
                return False
            outside ^= low
        return True

    def inputs(self, subset: Iterable[Instruction], mask: int) -> List[Value]:
        """:meth:`DataflowGraph.subgraph_inputs` of ``subset``."""
        operands = self.operands
        inputs: List[Value] = []
        seen = set()
        for inst in subset:
            for op, key, defs in operands[inst]:
                if defs & mask or key in seen:
                    continue
                seen.add(key)
                inputs.append(op)
        return inputs

    def outputs(self, subset: Iterable[Instruction], mask: int) -> List[VirtualRegister]:
        """:meth:`DataflowGraph.subgraph_outputs` of ``subset``."""
        users = self.users
        live_out = self.live_out
        outside = ~mask
        outputs: List[VirtualRegister] = []
        seen = set()
        for inst in subset:
            reg = inst.dest
            if reg is None or reg.id in seen:
                continue
            seen.add(reg.id)
            if users.get(reg.id, 0) & outside or reg.id in live_out:
                outputs.append(reg)
        return outputs


def build_dataflow_graph(block: BasicBlock,
                         include_terminator: bool = False) -> DataflowGraph:
    """Construct the dependence graph of ``block``.

    ``include_terminator`` controls whether the block terminator appears in
    the graph (the scheduler wants it; the ISE enumerator does not).
    """
    dfg = DataflowGraph(block)
    graph = dfg.graph

    instructions = (
        list(block.instructions) if include_terminator
        else block.non_terminator_instructions()
    )

    last_def: Dict[int, Instruction] = {}
    uses_since_def: Dict[int, List[Instruction]] = {}
    last_store: Optional[Instruction] = None
    loads_since_store: List[Instruction] = []
    last_barrier: Optional[Instruction] = None

    for inst in instructions:
        graph.add_node(inst)

        # True dependences (register flow).
        for reg in inst.uses():
            producer = last_def.get(reg.id)
            if producer is not None and producer is not inst:
                graph.add_edge(producer, inst, kind="flow", reg=reg)
            uses_since_def.setdefault(reg.id, []).append(inst)

        # Anti dependences (write-after-read) and output dependences
        # (write-after-write) — required because the IR is not SSA.
        if inst.dest is not None:
            reg_id = inst.dest.id
            for reader in uses_since_def.get(reg_id, []):
                if reader is not inst and not graph.has_edge(reader, inst):
                    graph.add_edge(reader, inst, kind="anti")
            prev = last_def.get(reg_id)
            if prev is not None and prev is not inst and not graph.has_edge(prev, inst):
                graph.add_edge(prev, inst, kind="output")
            last_def[reg_id] = inst
            uses_since_def[reg_id] = []

        # Memory dependences: conservative store ordering.
        if inst.opcode is Opcode.LOAD:
            if last_store is not None:
                graph.add_edge(last_store, inst, kind="memory")
            loads_since_store.append(inst)
        elif inst.opcode is Opcode.STORE:
            if last_store is not None:
                graph.add_edge(last_store, inst, kind="memory")
            for load_inst in loads_since_store:
                graph.add_edge(load_inst, inst, kind="memory")
            last_store = inst
            loads_since_store = []

        # Calls are full barriers (memory + ordering).
        if inst.opcode is Opcode.CALL:
            if last_barrier is not None:
                graph.add_edge(last_barrier, inst, kind="barrier")
            if last_store is not None:
                graph.add_edge(last_store, inst, kind="memory")
            for load_inst in loads_since_store:
                graph.add_edge(load_inst, inst, kind="memory")
            last_store = inst
            loads_since_store = []
            last_barrier = inst

        # The terminator depends on everything with a side effect so it
        # schedules last.
        if inst.is_terminator():
            for other in instructions:
                if other is inst:
                    continue
                if other.has_side_effects() or other.opcode in (Opcode.CALL, Opcode.STORE):
                    if not graph.has_edge(other, inst):
                        graph.add_edge(other, inst, kind="order")

    return dfg
