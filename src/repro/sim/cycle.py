"""Cycle-level simulation of compiled (scheduled) VLIW code.

The simulator executes the bundles produced by the back end in order,
charging one cycle per bundle plus dynamic penalties for data/instruction
cache misses, taken branches and calls, and accumulating per-operation
energy.  Architectural values are tracked by virtual-register name (the
schedule respects all dependences, so executing operations in bundle
order is semantically exact); spill and inter-cluster copy operations are
timing/energy events only.

The combination of a semantically exact execution with a statically
scheduled timing model is what the paper calls *direct-execution
simulation* (§3.1 item 4): results can always be cross-checked against
the functional reference simulator, and timing comes from the same
machine tables the compiler used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..arch.machine import MachineDescription
from ..arch.operations import OperationClass
from ..arch.power import EnergyModel, EnergyReport
from ..backend.mcode import CompiledFunction, CompiledModule, MachineOp
from ..ir import Module, Opcode
from ..ir.types import I32, PointerType
from .cache import Cache, CacheStatistics, make_cache
from .functional import FunctionalSimulator, SimulationError, _Frame, _wrap
from .memory import Memory


@dataclass
class CycleStatistics:
    """Timing breakdown of one cycle-level run."""

    cycles: int = 0
    bundles_executed: int = 0
    operations_executed: int = 0
    nop_slots: int = 0
    branch_stall_cycles: int = 0
    icache_stall_cycles: int = 0
    dcache_stall_cycles: int = 0
    call_overhead_cycles: int = 0
    custom_ops_executed: int = 0
    spill_ops_executed: int = 0
    copy_ops_executed: int = 0

    @property
    def useful_operations(self) -> int:
        return (self.operations_executed - self.spill_ops_executed
                - self.copy_ops_executed)

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.useful_operations / self.cycles


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one run."""

    value: object
    stats: CycleStatistics
    energy: EnergyReport
    icache: Optional[CacheStatistics]
    dcache: Optional[CacheStatistics]
    machine_name: str
    clock_ns: float

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def time_us(self) -> float:
        return self.stats.cycles * self.clock_ns / 1000.0

    @property
    def energy_uj(self) -> float:
        return self.energy.total_uj


class CycleSimulator:
    """Executes a :class:`CompiledModule` with cycle accounting."""

    #: fixed overhead charged per call/return pair (save/restore, pipeline refill).
    CALL_OVERHEAD = 4

    def __init__(self, compiled: CompiledModule,
                 memory_size: int = 1 << 20,
                 max_steps: int = 50_000_000) -> None:
        if compiled.source is None:
            raise ValueError("compiled module has no source IR attached")
        self.compiled = compiled
        self.machine: MachineDescription = compiled.machine
        self.module: Module = compiled.source
        # The functional core provides operand evaluation, memory and the
        # per-instruction semantics; we drive control flow and timing.
        self.core = FunctionalSimulator(self.module, memory_size=memory_size,
                                        max_steps=max_steps)
        self.memory: Memory = self.core.memory
        self.stats = CycleStatistics()
        self.energy = EnergyModel(self.machine)
        self.icache: Optional[Cache] = make_cache(self.machine.icache)
        self.dcache: Optional[Cache] = make_cache(self.machine.dcache)
        self._code_addresses = self._layout_code()
        self._spill_area = self.memory.allocate(4096, 16)

    # ------------------------------------------------------------------
    # Code layout (for the i-cache model).
    # ------------------------------------------------------------------
    def _layout_code(self) -> Dict[str, Dict[str, int]]:
        addresses: Dict[str, Dict[str, int]] = {}
        cursor = 0x1000
        for function in self.compiled:
            per_block: Dict[str, int] = {}
            for block in function.blocks:
                per_block[block.name] = cursor
                cursor += max(1, sum(self._bundle_bytes(b) for b in block.bundles))
            addresses[function.name] = per_block
        return addresses

    def _bundle_bytes(self, bundle) -> int:
        """Bytes one bundle occupies in instruction memory.

        The compressed (stop-bit) encoding stores only real operations plus
        a template byte; the uncompressed encoding stores a full
        issue-width worth of syllables including NOP slots.
        """
        syllable_bytes = self.machine.syllable_bits // 8
        if self.machine.compressed_encoding:
            return len(bundle.ops) * syllable_bytes + 1
        return self.machine.issue_width * syllable_bytes

    # ------------------------------------------------------------------
    # Public API (mirrors the functional simulator).
    # ------------------------------------------------------------------
    def run(self, function_name: str, *args, copy_back: bool = True) -> SimulationResult:
        """Execute ``function_name`` and return timing, energy and the result."""
        compiled_function = self.compiled.get(function_name)
        source = compiled_function.source
        if source is None:
            raise SimulationError(f"compiled function {function_name} has no source IR")
        if len(args) != len(source.arguments):
            raise SimulationError(
                f"{function_name} expects {len(source.arguments)} arguments, "
                f"got {len(args)}"
            )

        lowered = []
        writebacks = []
        for formal, actual in zip(source.arguments, args):
            if isinstance(actual, (list, tuple)):
                element = I32
                if isinstance(formal.type, PointerType) and formal.type.pointee is not None:
                    element = formal.type.pointee
                address = self.memory.allocate(max(4, element.size * len(actual)),
                                               element.alignment)
                self.memory.write_array(address, list(actual), element)
                lowered.append(address)
                if copy_back and isinstance(actual, list):
                    writebacks.append((actual, address, len(actual), element))
            else:
                lowered.append(_wrap(actual, formal.type))

        value = self._call(compiled_function, lowered)

        for target, address, count, element in writebacks:
            target[:] = self.memory.read_array(address, count, element)

        self.energy.charge_cycles(self.stats.cycles)
        if self.icache is not None:
            self.energy.charge_cache(self.icache.stats.hits, self.icache.stats.misses)
        if self.dcache is not None:
            self.energy.charge_cache(self.dcache.stats.hits, self.dcache.stats.misses)

        return SimulationResult(
            value=value,
            stats=self.stats,
            energy=self.energy.report,
            icache=self.icache.stats if self.icache is not None else None,
            dcache=self.dcache.stats if self.dcache is not None else None,
            machine_name=self.machine.name,
            clock_ns=self.machine.clock_ns,
        )

    # ------------------------------------------------------------------
    # Execution core.
    # ------------------------------------------------------------------
    def _call(self, compiled_function: CompiledFunction, args: Sequence):
        source = compiled_function.source
        frame = _Frame(source)
        for formal, actual in zip(source.arguments, args):
            frame.registers[formal.id] = actual

        self.stats.call_overhead_cycles += self.CALL_OVERHEAD
        self.stats.cycles += self.CALL_OVERHEAD

        scheduled_by_name = {block.name: block for block in compiled_function.blocks}
        block_addresses = self._code_addresses[compiled_function.name]
        ir_block = source.entry

        while True:
            scheduled = scheduled_by_name[ir_block.name]
            self.core.profile.record_block(source.name, ir_block.name)

            # Instruction fetch: one i-cache access per bundle.
            fetch_address = block_addresses[ir_block.name]

            next_block = None
            return_value = None
            returned = False

            self.stats.cycles += scheduled.cycles
            self.stats.bundles_executed += scheduled.cycles

            for index, bundle in enumerate(scheduled.bundles):
                if self.icache is not None:
                    stall = self.icache.access(fetch_address)
                    self.stats.icache_stall_cycles += stall
                    self.stats.cycles += stall
                fetch_address += self._bundle_bytes(bundle)
                self.stats.nop_slots += self.machine.issue_width - len(bundle.ops)

                for op in bundle.ops:
                    outcome = self._execute_op(op, frame, compiled_function)
                    if op.inst.opcode is Opcode.RETURN:
                        return_value = outcome
                        returned = True
                    elif op.inst.is_terminator():
                        next_block = outcome

            if returned:
                return return_value
            if next_block is None:
                raise SimulationError(
                    f"block {ir_block.name} of {compiled_function.name} did not "
                    "transfer control"
                )
            ir_block = next_block

    def _execute_op(self, op: MachineOp, frame: _Frame,
                    compiled_function: CompiledFunction):
        self.stats.operations_executed += 1
        inst = op.inst

        # Timing/energy-only operations.
        if op.is_spill:
            self.stats.spill_ops_executed += 1
            self.energy.charge_operation(OperationClass.MEM)
            if self.dcache is not None:
                stall = self.dcache.access(self._spill_area)
                self.stats.dcache_stall_cycles += stall
                self.stats.cycles += stall
            return None
        if op.is_copy:
            self.stats.copy_ops_executed += 1
            self.energy.charge_operation(OperationClass.IALU)
            return None

        # Energy for real operations.
        if inst.opcode is Opcode.CUSTOM:
            self.stats.custom_ops_executed += 1
            fused = self.machine.custom_ops[inst.custom_op].fused_ops
            self.energy.charge_custom(fused, len(inst.operands))
        else:
            self.energy.charge_operation(op.op_class, len(inst.operands))

        # Memory timing.
        if inst.opcode in (Opcode.LOAD, Opcode.STORE) and self.dcache is not None:
            address_operand = inst.operands[0] if inst.opcode is Opcode.LOAD else inst.operands[1]
            address = self.core._value(address_operand, frame)
            stall = self.dcache.access(int(address))
            self.stats.dcache_stall_cycles += stall
            self.stats.cycles += stall

        # Branch timing.
        if inst.opcode in (Opcode.JUMP, Opcode.BRANCH, Opcode.CALL, Opcode.RETURN):
            taken = True
            if inst.opcode is Opcode.BRANCH:
                taken = bool(self.core._value(inst.operands[0], frame))
            if taken:
                self.stats.branch_stall_cycles += self.machine.branch_penalty
                self.stats.cycles += self.machine.branch_penalty

        # Calls transfer into compiled code, not the IR interpreter.
        if inst.opcode is Opcode.CALL:
            callee = self.compiled.get(inst.callee)
            arg_values = [self.core._value(a, frame) for a in inst.operands]
            result = self._call(callee, arg_values)
            if inst.dest is not None:
                frame.registers[inst.dest.id] = _wrap(
                    result if result is not None else 0, inst.dest.type
                )
            return None

        # Everything else: exact semantics from the functional core.
        self.core.profile.record_opcode(inst.opcode)
        return self.core._execute(inst, frame)


def simulate(compiled: CompiledModule, function_name: str, *args,
             memory_size: int = 1 << 20) -> SimulationResult:
    """Convenience wrapper: build a simulator and run one function."""
    simulator = CycleSimulator(compiled, memory_size=memory_size)
    return simulator.run(function_name, *args)
