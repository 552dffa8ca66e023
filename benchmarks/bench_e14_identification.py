"""E14 — ISA identification: absolute speed and candidate identity.

Identification (:func:`repro.core.identify_candidates`) is the step the
paper's automatic customization centres on, and the one that dominates
a cold customize request.  This benchmark times it on every builtin
kernel compiled at O3 with the customizer's single-output search
(``EnumerationConfig(max_outputs=1)``) and records, per kernel:

* the absolute ``identify_candidates`` seconds (and their total);
* an exact sha256 digest of the kernel's sorted ``(signature,
  static_count)`` candidate multiset.

No builtin block reaches the per-block candidate cap under this search,
so each digest depends only on the IR, not on the process or on object
addresses: it must repeat across runs and ``PYTHONHASHSEED`` values.  A
speed-up of identification must leave every digest unchanged; the run
fails when a digest differs from the committed baseline (delete
``BENCH_identification.json`` to re-baseline an intended change of the
search).  ``--shrink`` times only the seven kernels of the repository
benchmark's customize workload.  Results go to
``BENCH_identification.json`` at the repository root.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro.core import EnumerationConfig, identify_candidates
from repro.frontend import compile_c
from repro.opt import optimize
from repro.workloads import BUILTIN_KERNELS, get_kernel

from conftest import bench_metric, print_table, run_once, write_baseline

#: the builtin kernels whose customize request is fast (the --shrink set).
FAST_KERNELS = ("crc32", "dot_product", "histogram", "ip_checksum",
                "popcount_buffer", "sad16", "saturated_add")

OPT_LEVEL = 3

#: a fresh total may be at most this many times the recorded one.
SECONDS_BAND = 3.0

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_identification.json"


def candidate_digest(candidates) -> str:
    """sha256 of the sorted ``(signature, static_count)`` multiset."""
    entries = sorted((c.signature, c.static_count) for c in candidates)
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


def _module(name: str):
    kernel = get_kernel(name)
    module = compile_c(kernel.source, module_name=kernel.name)
    optimize(module, level=OPT_LEVEL)
    return module


def test_e14_identification(benchmark, shrunk):
    names = list(FAST_KERNELS) if shrunk else sorted(BUILTIN_KERNELS)
    modules = {name: _module(name) for name in names}
    config = EnumerationConfig(max_outputs=1)

    def experiment():
        results = {}
        for name in names:
            start = time.perf_counter()
            candidates = identify_candidates(modules[name], config)
            results[name] = (time.perf_counter() - start, candidates)
        return results

    results = run_once(benchmark, experiment)

    kernels = {
        name: {
            "identify_seconds": round(seconds, 4),
            "candidates": len(candidates),
            "occurrences": sum(c.static_count for c in candidates),
            "digest": candidate_digest(candidates),
        }
        for name, (seconds, candidates) in results.items()
    }
    total = sum(seconds for seconds, _ in results.values())
    print_table("E14: identify_candidates per kernel "
                f"(O{OPT_LEVEL}, max_outputs=1)",
                [{"kernel": name, "seconds": row["identify_seconds"],
                  "candidates": row["candidates"],
                  "occurrences": row["occurrences"],
                  "digest": row["digest"][:16]}
                 for name, row in kernels.items()])
    print(f"\nE14 summary: {len(kernels)} kernels identified in "
          f"{total:.2f} s total.")

    if OUTPUT.exists():
        recorded = json.loads(OUTPUT.read_text(encoding="utf-8"))["kernels"]
        drifted = [name for name in kernels if name in recorded
                   and recorded[name]["digest"] != kernels[name]["digest"]]
        assert not drifted, (
            f"candidate multisets changed for {drifted}; delete "
            f"{OUTPUT.name} to re-baseline an intended change")

    write_baseline(OUTPUT, "e14_identification", {
        "opt_level": OPT_LEVEL,
        "max_outputs": config.max_outputs,
        "identify_seconds_total": round(total, 4),
        "kernels": kernels,
    }, metrics={
        "identify_seconds_total": bench_metric(
            round(total, 4), direction="lower", band=SECONDS_BAND),
    }, shrunk=shrunk)
