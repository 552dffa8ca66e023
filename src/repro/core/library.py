"""The extension library: named custom operations and their semantics.

The library is the customizer's working set: it names the patterns the
customizer selects and derives their machine-level cost, which the
customized machine description records.  It is a plain value owned by
one :class:`~repro.core.customizer.IsaCustomizer` (or handed to
:func:`~repro.core.rewrite.rewrite_with_library`), never a process-wide
registry.  The simulators and engines do not read it: every rewrite
copies the pattern it fused into the rewritten module's
``Module.custom_ops``, so the semantics travel with the IR that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..arch.machine import CustomOperation
from .patterns import Pattern, PatternError


@dataclass
class ExtensionEntry:
    """One registered ISA extension: the pattern plus its machine-level cost."""

    pattern: Pattern
    operation: CustomOperation

    @property
    def name(self) -> str:
        return self.operation.name


class ExtensionLibrary:
    """A registry of custom operations keyed by name and by signature."""

    def __init__(self) -> None:
        self._by_name: Dict[str, ExtensionEntry] = {}
        self._by_signature: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------
    def register(self, pattern: Pattern,
                 operation: Optional[CustomOperation] = None) -> ExtensionEntry:
        """Register a pattern, deriving its machine-level cost if not given.

        Registering the same computation again is idempotent; a name
        already held by a different computation raises :class:`PatternError`.
        """
        name = operation.name if operation is not None else pattern.name
        held = self._by_name.get(name)
        if held is not None and held.pattern.signature() != pattern.signature():
            raise PatternError(
                f"custom op name {name} is already held by "
                f"{held.pattern.signature()}, not {pattern.signature()}")
        if operation is None:
            operation = CustomOperation(
                name=pattern.name,
                num_inputs=pattern.num_inputs,
                num_outputs=pattern.num_outputs,
                latency=pattern.hardware_latency(),
                area_kgates=pattern.hardware_area_kgates(),
                fused_ops=pattern.size,
            )
        entry = ExtensionEntry(pattern=pattern, operation=operation)
        self._by_name[operation.name] = entry
        self._by_signature[pattern.signature()] = operation.name
        return entry

    def register_all(self, patterns: List[Pattern]) -> List[ExtensionEntry]:
        return [self.register(p) for p in patterns]

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    def entry(self, name: str) -> Optional[ExtensionEntry]:
        return self._by_name.get(name)

    def find_by_signature(self, signature: str) -> Optional[ExtensionEntry]:
        name = self._by_signature.get(signature)
        return self._by_name.get(name) if name is not None else None

    def names(self) -> List[str]:
        return sorted(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self) -> Iterator[ExtensionEntry]:
        return iter(self._by_name.values())

    def total_area_kgates(self) -> float:
        return sum(entry.operation.area_kgates for entry in self)
