"""Repository benchmark: request workloads through the public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload customize --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's
wrappers off; ``--trace 1`` is the separate traced run that reports the
per-layer ledger.  Human-readable lines go first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--draw N`` (customize
only, not used by the timed runs) adds ``WorkloadPopulation.generate(N,
seed)`` to the customize plan, unfiltered.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 3
#: share of the traced wall that may fall outside the named layers
#: (the façade's own ``api.execute`` self time counts as outside).
UNTRACED_SHARE = 0.10
#: the layer predicted to dominate each workload's traced wall.
PREDICTED = {
    "customize": ("core.identify",),
    "matrix": ("sim.cycle", "sim.functional"),
    "explore": ("core.identify",),
    "serve": ("service.hop",),
}


@dataclass
class Record:
    latency: float
    ok: bool
    raised: bool = False
    cycles: int = 0
    hop: Optional[float] = None
    remote: Optional[float] = None


@dataclass
class Phase:
    records: List[Record] = field(default_factory=list)
    responses: List[object] = field(default_factory=list)
    #: phase wall, and the sum of the walls of its request threads.
    wall: float = 0.0
    thread_wall: float = 0.0
    passes: int = 0
    errors: List[str] = field(default_factory=list)
    oracle_errors: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)


def run_item(workload, index: int, state, phase: Phase) -> None:
    from workloads import OracleError

    item = workload.plan[index]
    start = time.perf_counter()
    try:
        response = workload.execute(item, state)
    except Exception as exc:  # noqa: BLE001 - a raised or refused request fails
        latency = time.perf_counter() - start
        with phase.lock:
            phase.records.append(Record(latency, ok=False, raised=True))
            phase.errors.append(f"{item.request.to_json()} raised "
                                f"{type(exc).__name__}: {exc}")
        return
    latency = time.perf_counter() - start
    record = Record(latency, ok=False)
    try:
        record.ok, outcome = workload.judge(item, response)
        with phase.lock:
            reference = workload.references.setdefault(index, outcome)
        if outcome.digest != reference.digest:
            raise OracleError(
                f"{item.request.to_json()} does not repeat: "
                f"{outcome.digest} then {reference.digest}")
        record.cycles = outcome.cycles
        if not record.ok:
            with phase.lock:
                phase.errors.append(f"{item.request.to_json()} failed: "
                                    f"the response reports correct == False")
    except OracleError as exc:
        record.ok = False
        with phase.lock:
            phase.oracle_errors.append(str(exc))
    hop = workload.hop(response, latency)
    if hop is not None:
        record.hop, record.remote = hop, latency - hop
    with phase.lock:
        phase.records.append(record)
        phase.responses.append(response)


def run_passes(workload, seconds: float) -> Phase:
    """Whole passes of the plan: ``seconds`` rounded to whole passes at
    the first pass's pace, and at least two, so that every request is
    seen to repeat its result."""
    phase = Phase()
    start = time.perf_counter()
    passes = 2
    while phase.passes < passes:
        for index in range(len(workload.plan)):
            run_item(workload, index, None, phase)
        phase.passes += 1
        if phase.passes == 1:
            passes = max(2, round(seconds / (time.perf_counter() - start)))
    phase.wall = phase.thread_wall = time.perf_counter() - start
    return phase


def run_closed_loop(workload, seconds: float, ledger=None) -> Phase:
    """``workload.clients`` threads, each sending its next request as
    soon as the previous one completes, until ``seconds`` have passed."""
    phase = Phase()
    cursor = itertools.count()
    walls: List[float] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        state = workload.client()
        if ledger is not None:
            ledger.enrol()
        began = time.perf_counter()
        try:
            while time.perf_counter() < deadline:
                with phase.lock:
                    index = next(cursor) % len(workload.plan)
                run_item(workload, index, state, phase)
        finally:
            with phase.lock:
                walls.append(time.perf_counter() - began)
            if ledger is not None:
                ledger.retire()
            workload.close_client(state)

    threads = [threading.Thread(target=client, name=f"client-{n}")
               for n in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall = time.perf_counter() - start
    phase.thread_wall = sum(walls)
    return phase


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------

def tail_latency(latencies: List[float]):
    """``(latency, percentile)`` at the highest percentile with at least
    ten samples beyond it."""
    ordered = sorted(latencies)
    kept = len(ordered) - 10
    return ordered[kept - 1], 100.0 * kept / len(ordered)


def end_to_end(workload, phase: Phase, setup_s: float):
    """``(metrics, report)``: the JSON metrics, and the report lines that
    also give the end-to-end figures defined on only some workloads."""
    references = workload.references
    latencies = [record.latency for record in phase.records]
    attempted = len(phase.records)
    failed = sum(not record.ok for record in phase.records)
    raised = sum(record.raised for record in phase.records)
    speedups = [s for outcome in references.values() for s in outcome.speedups]
    geomean = (math.exp(statistics.fmean(math.log(s) for s in speedups))
               if speedups else 1.0)
    wall = phase.wall
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (attempted / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "success_ratio": ((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "sim_cycles_per_s": (sum(record.cycles for record in phase.records)
                             / wall, "1/s"),
        "sim_cycles_total": (sum(outcome.cycles
                                 for outcome in references.values()),
                             "cycles"),
        "custom_speedup_geomean": (geomean, "ratio"),
    }
    notes = {
        "requests_per_s": f"{attempted} requests in {wall:.2f} s"
                          + (f", {phase.passes} pass(es)" if phase.passes
                             else f", {workload.clients} closed-loop clients"),
        "latency_p50_s": f"n={attempted}",
        "success_ratio": "1 - failed_ratio",
        "sim_cycles_total": f"{len(references)} of {len(workload.plan)} "
                            f"planned requests",
        "custom_speedup_geomean": f"{len(speedups)} customizations",
    }
    hops = [record.hop for record in phase.records if record.hop is not None]
    if hops:
        notes["latency_p50_s"] += (f"; service.hop_s p50 "
                                   f"{statistics.median(hops):.6g} s")
    report = [f"  {name:24s} {value:14.6g} {unit:9s} {notes.get(name, '')}"
              for name, (value, unit) in metrics.items()]

    def also(name: str, value, unit: str, note: str) -> None:
        shown = f"{value:14.6g}" if value is not None else f"{'n/a':>14s}"
        report.append(f"  {name:24s} {shown} {unit:9s} {note}")

    wrong = len(phase.oracle_errors)
    also("failed_ratio", failed / attempted, "fraction",
         f"{raised} raised or refused + {failed - raised - wrong} "
         f"correct == False + {wrong} oracle mismatches, of {attempted}")
    if attempted >= 100:
        tail, percentile = tail_latency(latencies)
        also("latency_tail_s", tail, "s", f"p{percentile:.1f} of n={attempted}")
    else:
        also("latency_tail_s", None, "s",
             f"reported on workloads with >= 100 requests (n={attempted})")
    points = [getattr(r, "points_evaluated", None) for r in phase.responses]
    points = [p for p in points if p is not None]
    also("explore_points_per_s", sum(points) / wall if points else None,
         "1/s", f"{sum(points)} design points" if points
         else "no explore responses")
    ops = [r.instructions for r in phase.responses
           if getattr(r, "instructions", None)]
    also("sim_ops_per_s", sum(ops) / wall if ops else None, "1/s",
         f"over {len(ops)} responses reporting operation counts" if ops
         else "responses report no operation counts")
    return metrics, report


def per_layer(ledger, traced: Phase, untraced: Phase, queue_wait_s: float):
    self_s = dict(ledger.self_s)
    calls, counts = ledger.calls, ledger.counts
    remote = sum(r.remote for r in traced.records if r.remote is not None)
    if "service.client" in self_s:
        # The client's round trip splits into the server's own time
        # (provenance.elapsed_s) and the hop around it.
        client = self_s.pop("service.client")
        self_s["service.remote"] = remote
        self_s["service.hop"] = client - remote
    wall = traced.thread_wall
    covered = sum(v for k, v in self_s.items() if k != "api.execute")
    untraced_s = wall - covered

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean_latency(phase: Phase) -> float:
        return statistics.fmean(r.latency for r in phase.records)

    hops = [r.hop for r in traced.records if r.hop is not None]
    remotes = [r.remote for r in traced.records if r.remote is not None]
    layer = self_s.get
    metrics = {
        "core.identify.self_s": (layer("core.identify", 0.0), "s"),
        "core.identify.calls": (calls.get("core.identify", 0), "count"),
        "core.identify.candidates": (counts.get("core.identify.candidates",
                                                0), "count"),
        "core.select.self_s": (layer("core.select", 0.0), "s"),
        "core.select.selected_ratio": (
            ratio(counts.get("core.select.selected", 0),
                  counts.get("core.select.considered", 0)), "ratio"),
        "core.rewrite.self_s": (layer("core.rewrite", 0.0), "s"),
        "core.rewrite.sites": (counts.get("core.rewrite.sites", 0), "count"),
        "core.profile.self_s": (layer("core.profile", 0.0), "s"),
        "frontend.self_s": (layer("frontend", 0.0), "s"),
        "opt.self_s": (layer("opt", 0.0), "s"),
        "backend.self_s": (layer("backend", 0.0), "s"),
        "pipeline.self_s": (layer("pipeline", 0.0), "s"),
        "pipeline.hit_ratio": (ratio(counts.get("pipeline.hits", 0),
                                     counts.get("pipeline.lookups", 0)),
                               "ratio"),
        "sim.cycle.self_s": (layer("sim.cycle", 0.0), "s"),
        "sim.cycle.ops": (counts.get("sim.cycle.ops", 0), "count"),
        "sim.cycle.ops_per_s": (ratio(counts.get("sim.cycle.ops", 0),
                                      layer("sim.cycle", 0.0)), "1/s"),
        "sim.functional.self_s": (layer("sim.functional", 0.0), "s"),
        "sim.functional.calls": (calls.get("sim.functional", 0), "count"),
        "exec.run.self_s": (layer("exec.run", 0.0), "s"),
        "exec.translate.self_s": (layer("exec.translate", 0.0), "s"),
        "model.capture.self_s": (layer("model.capture", 0.0), "s"),
        "model.price.self_s": (layer("model.price", 0.0), "s"),
        "model.price.calls": (calls.get("model.price", 0), "count"),
        "dse.evaluate.self_s": (layer("dse.evaluate", 0.0), "s"),
        "dse.evaluate.calls": (calls.get("dse.evaluate", 0), "count"),
        "dse.feasible_ratio": (ratio(counts.get("dse.feasible", 0),
                                     calls.get("dse.evaluate", 0)), "ratio"),
        "toolchain.matrix.self_s": (layer("toolchain.matrix", 0.0), "s"),
        "workloads.oracle.self_s": (layer("workloads.oracle", 0.0), "s"),
        "api.execute.self_s": (layer("api.execute", 0.0), "s"),
        "api.codec.self_s": (layer("api.codec", 0.0), "s"),
        "service.hop_s": (statistics.median(hops) if hops else 0.0, "s"),
        "service.remote_s": (statistics.median(remotes) if remotes else 0.0,
                             "s"),
        "service.queue_wait_s": (queue_wait_s, "s"),
        "untraced_s": (untraced_s, "s"),
        "trace_overhead_ratio": (mean_latency(traced) / mean_latency(untraced),
                                 "ratio"),
    }
    return metrics, self_s, wall, untraced_s


def queue_wait(workload) -> Optional[tuple]:
    """``(sum, count)`` of the daemon's queue-wait histogram, if any."""
    daemon = getattr(workload, "daemon", None)
    if daemon is None:
        return None
    client = workload.client()
    try:
        snapshot = client.stats()["metrics"]
    finally:
        client.close()
    from repro.obs.metrics import snapshot_series

    series = snapshot_series(snapshot, "queue_wait_seconds")
    return (sum(float(entry["sum"]) for entry in series),
            sum(int(entry["count"]) for entry in series))


# ----------------------------------------------------------------------
# Command line.
# ----------------------------------------------------------------------

def fresh_start() -> float:
    """Seconds for a fresh interpreter to start and import the program
    and the workloads — the part of set-up one process cannot repeat."""
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import workloads"],
        check=True)
    return time.perf_counter() - began


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--draw", type=int, default=0,
                        help="customize only: generated kernels to add")
    return parser.parse_args(argv)


def say(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; options: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.draw)
    hash_seed = os.environ.get("PYTHONHASHSEED", "unset (random per process)")
    say(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"plan {len(workload.plan)} requests")
    say(f"PYTHONHASHSEED={hash_seed}  hash probe "
        f"{hash('perfbench') & 0xffffffff:08x}")

    try:
        if args.trace:
            workload.setup()
            result = traced_run(workload, args.seconds)
        else:
            starts = [fresh_start() for _ in range(SETUPS)]
            setups = []
            for attempt in range(SETUPS):
                began = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - began)
                if attempt < SETUPS - 1:
                    workload.teardown()
            setup_s = statistics.median(starts) + statistics.median(setups)
            say(f"setup_s = median start-up {[round(s, 3) for s in starts]} "
                f"+ median set-up {[round(s, 3) for s in setups]}")
            phase = (run_closed_loop if workload.clients else run_passes)(
                workload, args.seconds)
            metrics, report = end_to_end(workload, phase, setup_s)
            result = (phase,), metrics, report
    finally:
        workload.teardown()

    phases, metrics, report = result
    for line in report:
        say(line)
    errors = [e for phase in phases for e in phase.errors]
    oracle_errors = [e for phase in phases for e in phase.oracle_errors]
    for error in errors:
        say(f"failed request: {error}")
    for error in oracle_errors:
        say(f"ORACLE MISMATCH: {error}")
    attempted = sum(len(phase.records) for phase in phases)
    failed = sum(not r.ok for phase in phases for r in phase.records)
    say(json.dumps({
        "correct": not oracle_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(workload, seconds: float):
    """The plan run untraced (the overhead baseline) and traced.

    In-process workloads run every request twice in a row, alternating
    which copy is traced, so neither side alone pays the process's lazy
    start-up; ``serve`` runs half its time untraced, then half traced.
    """
    from ledger import Ledger, install

    ledger = Ledger()
    install(ledger)
    before = queue_wait(workload)
    try:
        if workload.clients:
            untraced = run_closed_loop(workload, seconds / 2)
            traced = run_closed_loop(workload, seconds / 2, ledger)
        else:
            untraced, traced = Phase(passes=1), Phase(passes=1)
            for index in range(len(workload.plan)):
                order = [(untraced, False), (traced, True)]
                for phase, tracing in order[::-1] if index % 2 else order:
                    if tracing:
                        ledger.enrol()
                    began = time.perf_counter()
                    run_item(workload, index, None, phase)
                    phase.wall += time.perf_counter() - began
                    if tracing:
                        ledger.retire()
            traced.thread_wall = traced.wall
    finally:
        ledger.unwrap_all()
    after = queue_wait(workload)
    wait = 0.0
    if before is not None and after[1] > before[1]:
        wait = (after[0] - before[0]) / (after[1] - before[1])
    metrics, self_s, wall, untraced_s = per_layer(ledger, traced, untraced,
                                                  wait)
    say(f"ledger: traced wall {wall:.3f} s over "
        f"{len(traced.records)} requests")
    for layer, seconds_ in sorted(self_s.items(), key=lambda kv: -kv[1]):
        say(f"  {layer:22s} {seconds_:10.4f} s {100 * seconds_ / wall:6.1f} %")
    say(f"  {'(untraced)':22s} {untraced_s:10.4f} s "
        f"{100 * untraced_s / wall:6.1f} %")
    dominant = max(self_s, key=self_s.get)
    predicted = PREDICTED[workload.name]
    share = sum(self_s.get(layer, 0.0) for layer in predicted) / wall
    say(f"dominant layer {dominant}; predicted {'+'.join(predicted)} "
        f"holds {100 * share:.1f} % of the wall")
    if untraced_s > UNTRACED_SHARE * wall:
        raise SystemExit(
            f"perfbench: {untraced_s:.3f} s of the {wall:.3f} s traced wall "
            f"is outside the wrapped layers (limit "
            f"{100 * UNTRACED_SHARE:.0f} %): a wrapper misses its callers")
    report = [f"  {name:28s} {value:14.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    return (untraced, traced), metrics, report


if __name__ == "__main__":
    sys.exit(main())
