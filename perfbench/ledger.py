"""Outside-in per-layer ledger: wraps the program's layer functions from
the benchmark's own files and books each call's self time.

A wrapped call is a span.  Its self time is its duration minus the
durations of the wrapped calls it made (its children), so the self
times of one thread add up to the time that thread spent inside any
wrapped call.  Only *enrolled* threads (the benchmark's timed request
loops) book spans; calls made on other threads — the in-process service
daemon's runners, for instance — run unwrapped, so a layer's time is
never counted twice.

Each wrapper is installed where callers look the function up: a function
imported by name into another module is wrapped in *that* module, and a
``staticmethod`` or ``classmethod`` stays one once wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: called as ``hook(ledger, args, kwargs, result)`` after a wrapped call
#: returns, to book the layer's work counts.
Hook = Callable[["Ledger", tuple, dict, object], None]


class Ledger:
    """Self time, call counts and work counts per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Threads.
    # ------------------------------------------------------------------
    def enrol(self) -> None:
        """Book spans made on the calling thread from now on."""
        self._local.stack = []

    def retire(self) -> None:
        self._local.stack = None

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------------
    # Wrapping.
    # ------------------------------------------------------------------
    def wrap(self, module: str, owner: Optional[str], attr: str, layer: str,
             hook: Optional[Hook] = None) -> None:
        """Wrap ``module[.owner].attr`` as a span of ``layer``.

        A missing target raises: a ledger that silently skips a layer
        would report its time as some other layer's.
        """
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        raw = (inspect.getattr_static(target, attr) if isinstance(target, type)
               else target.__dict__[attr])
        binder = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        func = raw.__func__ if binder is not None else raw
        if not callable(func):
            raise TypeError(f"{module}.{owner}.{attr} is not callable")
        wrapper = self._wrapper(func, layer, hook)
        setattr(target, attr, binder(wrapper) if binder else wrapper)
        self._patches.append((target, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            target, attr, raw = self._patches.pop()
            setattr(target, attr, raw)

    def _wrapper(self, func, layer: str, hook: Optional[Hook]):
        ledger = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = getattr(ledger._local, "stack", None)
            if stack is None:
                return func(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with ledger._lock:
                    ledger.self_s[layer] += duration - frame[0]
                    ledger.calls[layer] += 1
            if hook is not None:
                hook(ledger, args, kwargs, result)
            return result

        return wrapper


# ----------------------------------------------------------------------
# The program's layers.
# ----------------------------------------------------------------------

def _count_candidates(ledger, args, kwargs, result):
    ledger.count("core.identify.candidates", len(result))


def _count_selection(ledger, args, kwargs, result):
    ledger.count("core.select.considered", len(args[0]))
    ledger.count("core.select.selected", len(result.selected))


def _count_sites(ledger, args, kwargs, result):
    ledger.count("core.rewrite.sites", sum(result.values()))


def _pipeline_hook(pick) -> Hook:
    def hook(ledger, args, kwargs, result):
        records = pick(result)
        ledger.count("pipeline.lookups", len(records))
        ledger.count("pipeline.hits", sum(1 for r in records if r.hit))
    return hook


def _count_ops(ledger, args, kwargs, result):
    ledger.count("sim.cycle.ops", result.stats.operations_executed)


def _count_feasible(ledger, args, kwargs, result):
    ledger.count("dse.feasible", 1 if result.feasible else 0)


#: (module, owner class or None, attribute, layer, hook).  Functions
#: imported by name are wrapped in the importing module: the customizer
#: calls ``identify_candidates``/``select``/``apply_selection`` through
#: its own globals, and the pipeline calls ``compile_c``/``optimize``/
#: ``compile_module`` through its own.
LAYERS = (
    ("repro.api.session", "Session", "execute", "api.execute", None),
    ("repro.api.requests", "Message", "to_dict", "api.codec", None),
    ("repro.api.requests", "Message", "from_dict", "api.codec", None),
    ("repro.api.requests", None, "request_from_dict", "api.codec", None),
    ("repro.api.requests", None, "response_from_dict", "api.codec", None),
    ("repro.service.client", "ServiceClient", "execute", "service.client",
     None),
    ("repro.toolchain.matrix", None, "run_matrix", "toolchain.matrix", None),
    ("repro.dse.objectives", "Evaluator", "evaluate", "dse.evaluate",
     _count_feasible),
    ("repro.core.customizer", None, "identify_candidates", "core.identify",
     _count_candidates),
    ("repro.core.customizer", None, "select", "core.select",
     _count_selection),
    ("repro.core.customizer", None, "apply_selection", "core.rewrite",
     _count_sites),
    ("repro.core.customizer", "IsaCustomizer", "profile", "core.profile",
     None),
    ("repro.pipeline.compile", None, "compile_c", "frontend", None),
    ("repro.pipeline.compile", None, "optimize", "opt", None),
    ("repro.pipeline.compile", None, "compile_module", "backend", None),
    ("repro.pipeline.compile", "CompilePipeline", "build", "pipeline", None),
    ("repro.pipeline.compile", "CompilePipeline", "front", "pipeline",
     _pipeline_hook(lambda result: result[1])),
    ("repro.pipeline.compile", "CompilePipeline", "backend", "pipeline",
     _pipeline_hook(lambda result: result[1].stages[-1:])),
    ("repro.pipeline.compile", "CompilePipeline", "trace", "pipeline",
     _pipeline_hook(lambda result: [result[1]])),
    ("repro.sim.cycle", "CycleSimulator", "run", "sim.cycle", _count_ops),
    ("repro.sim.functional", "FunctionalSimulator", "run", "sim.functional",
     None),
    ("repro.exec.engine", "CompiledSimulator", "run", "exec.run", None),
    ("repro.exec.cache", "CodeCache", "get_or_translate", "exec.translate",
     None),
    ("repro.model.trace", None, "capture_trace", "model.capture", None),
    ("repro.model.retime", "RetimingModel", "price", "model.price", None),
    ("repro.workloads.kernels", "Kernel", "arguments", "workloads.oracle",
     None),
    ("repro.workloads.kernels", "Kernel", "expected", "workloads.oracle",
     None),
)


def install(ledger: Ledger) -> None:
    for module, owner, attr, layer, hook in LAYERS:
        ledger.wrap(module, owner, attr, layer, hook)
