"""The benchmark's four request workloads.

Each workload turns ``--seed`` into a *plan*: a fixed list of requests
whose kernel inputs (and, for ``serve``, whose order) the seed chooses.
The timed phase replays the plan — whole passes for the in-process
workloads, a closed loop of two clients for ``serve`` — through the
public ``Session`` / ``ServiceClient`` API, and checks every response
against its oracle.  Why each workload exists, which layer it is
predicted to load and which it bypasses is written down in README.md
next to this file.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import (
    CompileRequest, CustomizeRequest, ExploreRequest, MatrixRequest,
    RunRequest, Session,
)
from repro.arch.presets import PRESETS
from repro.gen import WorkloadPopulation
from repro.service import ServiceClient, ServiceDaemon
from repro.workloads.kernels import BUILTIN_KERNELS, get_kernel

#: the program's default functional engine, pinned so that a host-wide
#: ``REPRO_ENGINE`` cannot switch the benchmark to another tier.
ENGINE = "interpreter"

#: scratch space for the service daemon (store, queue, socket), inside
#: the checkout the benchmark runs from.
WORK_DIR = ".perfbench"


@dataclass
class Item:
    """One planned request plus what its oracle needs."""

    request: object
    #: the kernel's Python-oracle value, where the response carries one.
    expected: object = None


@dataclass
class Outcome:
    """What the benchmark keeps from one response."""

    cycles: int
    #: base/custom cycle ratios of the customizations the response made.
    speedups: List[float] = field(default_factory=list)
    #: a value that must repeat exactly whenever the item runs again.
    digest: object = None


class Workload:
    """A plan of requests, how to run one, and how to check it."""

    name = ""
    #: closed-loop client threads; 0 runs the plan in whole passes.
    clients = 0

    def __init__(self, seed: int, draw: int = 0) -> None:
        if draw:
            raise ValueError("--draw applies to the customize workload only")
        self.rng = random.Random(seed)
        self.plan: List[Item] = []
        #: plan index -> the first outcome seen, which every later
        #: response to the same request must repeat exactly.
        self.references: Dict[int, Outcome] = {}

    def setup(self) -> None:
        """Build what the timed phase needs; may run several times."""

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def client(self):
        """Per-client state handed to :meth:`execute`."""
        return None

    def close_client(self, state) -> None:
        pass

    def execute(self, item: Item, state):
        raise NotImplementedError

    def judge(self, item: Item, response) -> Tuple[bool, Outcome]:
        """``(ok, outcome)``: ``ok`` is the response's own success flag."""
        raise NotImplementedError

    def hop(self, response, latency: float) -> Optional[float]:
        """Round trip minus the server-side time, for daemon workloads."""
        return None

    def input_seed(self) -> int:
        return self.rng.randrange(1 << 20)


# ----------------------------------------------------------------------
# customize
# ----------------------------------------------------------------------

#: the builtin kernels whose single customize request takes under ~3 s
#: on a 2-core host, so one pass of the plan fits a run.
CUSTOMIZE_KERNELS = ("crc32", "dot_product", "ip_checksum", "histogram",
                     "popcount_buffer", "sad16", "saturated_add")


class CustomizeWorkload(Workload):
    """One CustomizeRequest per kernel, each on a fresh, cold Session."""

    name = "customize"

    def __init__(self, seed: int, draw: int = 0) -> None:
        super().__init__(seed)
        self.population: Optional[WorkloadPopulation] = None
        names = list(CUSTOMIZE_KERNELS)
        if draw:
            # Every drawn kernel is requested and counted: no filtering.
            self.population = WorkloadPopulation.generate(draw, seed=seed)
            names += self.population.names()
        self.plan = [
            Item(CustomizeRequest(kernel=name, machine="vliw4",
                                  area_budget_kgates=40.0, opt_level=3,
                                  seed=self.input_seed()))
            for name in names]

    def setup(self) -> None:
        if self.population is not None:
            self.population.register()

    def teardown(self) -> None:
        if self.population is not None:
            self.population.unregister()

    def execute(self, item: Item, state):
        return Session(engine=ENGINE).execute(item.request)

    def judge(self, item: Item, response) -> Tuple[bool, Outcome]:
        request = item.request
        consistent = (
            response.kernel == request.kernel
            and response.base_cycles > 0 and response.custom_cycles > 0
            and abs(response.speedup
                    - response.base_cycles / response.custom_cycles) < 1e-9
            and response.area_added_kgates <= request.area_budget_kgates
            and len(response.selected_ops) <= request.max_operations)
        if not consistent:
            raise OracleError(f"inconsistent customize response for "
                              f"{request.kernel}: {response.summary}")
        return response.correct, Outcome(
            cycles=response.base_cycles + response.custom_cycles,
            speedups=[response.speedup],
            digest=(response.base_cycles, response.custom_cycles,
                    tuple(response.selected_ops)))


# ----------------------------------------------------------------------
# matrix
# ----------------------------------------------------------------------

class MatrixWorkload(Workload):
    """One single-cell cycle-fidelity MatrixRequest per preset × builtin
    kernel, on one Session warmed in set-up."""

    name = "matrix"

    def __init__(self, seed: int, draw: int = 0) -> None:
        super().__init__(seed, draw)
        kernels = sorted(BUILTIN_KERNELS)
        inputs = {kernel: self.input_seed() for kernel in kernels}
        self.plan = [
            Item(MatrixRequest(machines=[machine], kernels=[kernel],
                               seed=inputs[kernel], fidelity="cycle"))
            for machine in sorted(PRESETS) for kernel in kernels]
        self.session: Optional[Session] = None

    def setup(self) -> None:
        self.session = Session(engine=ENGINE)
        for item in self.plan:
            request = item.request
            self.session.execute(CompileRequest(
                kernel=request.kernels[0], machine=request.machines[0]))

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def execute(self, item: Item, state):
        return self.session.execute(item.request)

    def judge(self, item: Item, response) -> Tuple[bool, Outcome]:
        return _judge_matrix(item, response)


def _judge_matrix(item: Item, response) -> Tuple[bool, Outcome]:
    request = item.request
    rows = response.rows
    if len(rows) != len(request.machines) * len(request.kernels) \
            or sorted({row["kernel"] for row in rows}) != sorted(
                request.kernels):
        raise OracleError(f"matrix response does not cover its request: "
                          f"{[(r['machine'], r['kernel']) for r in rows]}")
    ok = response.all_correct and all(row["ok"] == "pass" for row in rows)
    cycles = tuple(row["cycles"] for row in rows)
    return ok, Outcome(cycles=sum(cycles), digest=cycles)


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------

#: the video mix is left out for run length only: its dct_stage takes
#: ~23 s per identification at O2 and would be re-identified at every
#: budgeted design point.
EXPLORE_MIXES = ("cellphone", "network", "imaging")


class ExploreWorkload(Workload):
    """Screen-then-rescore design-space exploration with ISA
    customization at every budgeted point, each mix on a fresh Session."""

    name = "explore"

    def __init__(self, seed: int, draw: int = 0) -> None:
        super().__init__(seed, draw)
        self.plan = [
            Item(ExploreRequest(mix=mix, fidelity="trace", rescore=True,
                                space={"custom_budgets": [0, 30]},
                                seed=self.input_seed()))
            for mix in EXPLORE_MIXES]

    def execute(self, item: Item, state):
        return Session(engine=ENGINE).execute(item.request)

    def judge(self, item: Item, response) -> Tuple[bool, Outcome]:
        rows = response.rows
        if response.mix != item.request.mix or not rows \
                or response.points_evaluated < len(rows) \
                or response.best is None:
            raise OracleError(f"explore response for {item.request.mix} "
                              f"has no evaluated frontier")
        ok = all(row["feasible"] for row in rows)
        # Pair every customized point ("<point>-x<budget>+x<budget>")
        # with its uncustomized twin ("<point>").
        base: Dict[str, int] = {}
        custom: Dict[str, int] = {}
        for row in rows:
            name = row["machine"]
            if "+" in name:
                custom[name.partition("+")[0].rpartition("-x")[0]] = \
                    row["cycles"]
            else:
                base[name] = row["cycles"]
        speedups = [base[point] / cycles for point, cycles in custom.items()
                    if point in base and cycles > 0]
        return ok, Outcome(
            cycles=sum(row["cycles"] for row in rows), speedups=speedups,
            digest=tuple((row["machine"], row["cycles"]) for row in rows))


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

#: kernels and machines of the serve mix: cheap at size 16.
SERVE_KERNELS = ("crc32", "dot_product", "fir_filter", "ip_checksum",
                 "popcount_buffer", "saturated_add")
SERVE_MACHINES = ("vliw4", "vliw2", "risc32", "dsp16")
SERVE_SIZE = 16


class ServeWorkload(Workload):
    """One ServiceDaemon with 2 process workers and 2 closed-loop clients.

    The mix is a fixed multiset — per kernel one warm compile, one
    compiled-engine run, one small cycle run and one single-machine
    matrix — so its cost does not depend on the seed; the seed chooses
    the order and the kernel inputs.
    """

    name = "serve"
    clients = 2

    def __init__(self, seed: int, draw: int = 0) -> None:
        super().__init__(seed, draw)
        for index, kernel in enumerate(SERVE_KERNELS):
            machine = SERVE_MACHINES[index % len(SERVE_MACHINES)]
            other = SERVE_MACHINES[(index + 1) % len(SERVE_MACHINES)]
            partner = SERVE_KERNELS[(index + 1) % len(SERVE_KERNELS)]
            self.plan += [
                Item(CompileRequest(kernel=kernel, machine=machine)),
                self._run(kernel, "vliw4", "compiled"),
                self._run(kernel, other, "cycle"),
                Item(MatrixRequest(machines=[machine],
                                   kernels=sorted((kernel, partner)),
                                   size=SERVE_SIZE, seed=self.input_seed(),
                                   fidelity="cycle")),
            ]
        self.rng.shuffle(self.plan)
        self.daemon: Optional[ServiceDaemon] = None
        self.root = ""
        self.setups = 0

    def _run(self, kernel: str, machine: str, engine: str) -> Item:
        seed = self.input_seed()
        spec = get_kernel(kernel)
        expected = spec.expected(spec.arguments(SERVE_SIZE, seed=seed))
        return Item(RunRequest(kernel=kernel, machine=machine, engine=engine,
                               size=SERVE_SIZE, seed=seed), expected=expected)

    def setup(self) -> None:
        self.setups += 1
        self.root = os.path.join(WORK_DIR, f"serve-{os.getpid()}-{self.setups}")
        shutil.rmtree(self.root, ignore_errors=True)
        # A relative socket path keeps it under the unix-socket length
        # limit wherever the checkout lives.
        self.daemon = ServiceDaemon(
            self.root, endpoint="unix:" + os.path.join(self.root, "sock"),
            workers=2, worker_mode="process",
            worker_env={"REPRO_ENGINE": ENGINE}).start()
        client = self.client()
        try:
            deadline = time.monotonic() + 60.0
            while len(client.describe()["live_workers"]) < 2:
                if time.monotonic() > deadline:
                    raise RuntimeError("service workers did not start")
                time.sleep(0.02)
            # The warm-up pass sets the references the timed phase checks.
            self.references = {}
            for index, item in enumerate(self.plan):
                response = client.execute(item.request, timeout=120.0)
                ok, outcome = self.judge(item, response)
                if not ok:
                    raise OracleError(f"warm-up request failed: "
                                      f"{item.request.to_json()}")
                self.references[index] = outcome
        finally:
            client.close()

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
            shutil.rmtree(self.root, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(WORK_DIR)

    def client(self):
        return ServiceClient(self.daemon.endpoint, timeout=60.0)

    def close_client(self, state) -> None:
        state.close()

    def execute(self, item: Item, state):
        return state.execute(item.request, timeout=120.0)

    def judge(self, item: Item, response) -> Tuple[bool, Outcome]:
        request = item.request
        if isinstance(request, MatrixRequest):
            return _judge_matrix(item, response)
        if isinstance(request, CompileRequest):
            if response.code_bytes <= 0 or not response.backend_key:
                raise OracleError(f"empty compile response for "
                                  f"{request.kernel} on {request.machine}")
            return True, Outcome(cycles=0, digest=response.backend_key)
        if response.correct and response.value != item.expected:
            raise OracleError(
                f"{request.kernel} on {request.machine} ({request.engine}) "
                f"returned {response.value}, oracle says {item.expected}")
        return response.correct, Outcome(
            cycles=response.cycles,
            digest=(response.value, response.cycles, response.instructions))

    def hop(self, response, latency: float) -> Optional[float]:
        return latency - response.provenance.elapsed_s


class OracleError(AssertionError):
    """A response that claims success disagrees with its oracle."""


WORKLOADS = {cls.name: cls for cls in (
    CustomizeWorkload, MatrixWorkload, ExploreWorkload, ServeWorkload)}
