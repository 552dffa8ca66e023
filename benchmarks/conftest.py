"""Shared helpers for the experiment benchmarks (E1-E8).

Each benchmark file regenerates one table of EXPERIMENTS.md: it runs the
relevant pipeline once under pytest-benchmark (pedantic mode, single
round — the interesting output is the table, not the wall-clock of the
harness itself) and prints the rows in a fixed-width format so that
``pytest benchmarks/ --benchmark-only -s`` reproduces the experiment
tables directly.

Scale control is shared: ``pytest benchmarks/ --shrink`` runs every
benchmark at its CI smoke size (the option is declared in the repository
root conftest); :func:`shrink_knob` resolves one scale knob with the
precedence *env var override > --shrink smoke value > full value*, so
one flag shrinks the whole suite while a named variable can still pin a
single knob.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

import pytest


def shrink_knob(config, name: str, full, smoke, cast=int):
    """Resolve one benchmark scale knob.

    ``name`` is an environment variable that always wins (CI pinning a
    single knob); otherwise ``--shrink`` selects ``smoke`` and a normal
    run gets ``full``.
    """
    value = os.environ.get(name)
    if value is not None and value != "":
        return cast(value)
    return smoke if config.getoption("--shrink") else full


@pytest.fixture
def shrunk(pytestconfig) -> bool:
    """True when the suite runs at CI smoke scale (``--shrink``)."""
    return bool(pytestconfig.getoption("--shrink"))


def print_table(title: str, rows: Sequence[Dict[str, object]]) -> None:
    """Print a list of dict rows as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(r.get(c, ""))) for r in rows))
              for c in columns}
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


#: BENCH_*.json baseline format version (experiment manifest schema).
BENCH_SCHEMA_VERSION = 1


def bench_metric(value, *, kind="perf", direction="higher", band=None,
                 floor=None, ceiling=None, slack=None):
    """Declare one gated metric: its value plus the tolerance next to it."""
    from repro.replay import metric_spec

    return metric_spec(value, kind=kind, direction=direction, band=band,
                       floor=floor, ceiling=ceiling, slack=slack)


def write_baseline(output, experiment: str, payload: Dict[str, object], *,
                   metrics: Dict[str, Dict[str, object]] = None,
                   shrunk: bool = False) -> None:
    """Write one schema-versioned BENCH baseline with env provenance.

    ``metrics`` carries the gated values with their tolerance declared in
    place (:func:`bench_metric`); ``python -m repro gate`` compares a
    fresh run against these.  ``shrunk`` records the run scale so the
    gate never holds a smoke run to full-run relative bands.
    """
    import json

    from repro.replay import capture_env, git_revision

    document = {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "experiment": experiment,
        "env": capture_env(),
        "git_rev": git_revision(),
        "shrunk": bool(shrunk),
        "metrics": dict(metrics or {}),
    }
    document.update(payload)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline written to {os.path.basename(str(output))}")
