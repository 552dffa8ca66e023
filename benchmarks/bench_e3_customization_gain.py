"""E3 — customization gains: ISA-customized machine vs. the generic baseline.

For each kernel, the customizer is given a 40-kgate custom-datapath budget
on top of the 4-issue VLIW; the table reports cycles, speedup, energy and
the area added.  This is the paper's central promise quantified: visible,
application-derived ISA changes buy performance at small incremental area.
"""

from __future__ import annotations

from repro.arch import estimate_area, vliw4
from repro.backend import compile_module
from repro.frontend import compile_c
from repro.opt import optimize
from repro.sim import CycleSimulator
from repro.toolchain import Toolchain
from repro.workloads import get_kernel

from conftest import print_table, run_once

KERNELS = ["saturated_add", "viterbi_acs", "alpha_blend", "rgb_to_gray",
           "fir_filter", "crc32"]
SIZE = 48
BUDGET_KGATES = 40.0
SEED = 1234  # explicit input seed: sweeps are bit-reproducible end to end


def run_kernel(kernel_name):
    kernel = get_kernel(kernel_name)
    args = kernel.arguments(SIZE, seed=SEED)
    run_args = lambda: tuple(list(a) if isinstance(a, list) else a for a in args)
    expected = kernel.expected(args)

    base_toolchain = Toolchain(vliw4(), opt_level=3)
    module = base_toolchain.frontend(kernel.source, kernel.name)

    base_artifacts = base_toolchain.build(module.clone())
    base = base_toolchain.run(base_artifacts, kernel.entry, *run_args())
    assert base.value == expected

    custom_toolchain = base_toolchain.customize(
        module, area_budget_kgates=BUDGET_KGATES,
        profile_entry=kernel.entry, profile_args=run_args())
    custom_artifacts = custom_toolchain.build(module)
    custom = custom_toolchain.run(custom_artifacts, kernel.entry, *run_args())
    assert custom.value == expected

    report = custom_toolchain.last_customization.report
    return {
        "kernel": kernel_name,
        "base cycles": base.cycles,
        "custom cycles": custom.cycles,
        "speedup": round(base.cycles / custom.cycles, 2),
        "custom ops": report.operations_selected,
        "area added (kgates)": round(report.area_added_kgates, 1),
        "base energy (uJ)": round(base.energy_uj, 1),
        "custom energy (uJ)": round(custom.energy_uj, 1),
    }


def test_e3_customization_gain(benchmark):
    rows = run_once(benchmark, lambda: [run_kernel(name) for name in KERNELS])
    print_table(f"E3: ISA customization on vliw4 (budget {BUDGET_KGATES:.0f} kgates)", rows)

    base_area = estimate_area(vliw4()).core
    speedups = [r["speedup"] for r in rows]
    mean_speedup = sum(speedups) / len(speedups)
    mean_area = sum(r["area added (kgates)"] for r in rows) / len(rows)
    print(f"\nE3 summary: mean speedup {mean_speedup:.2f}x (max {max(speedups):.2f}x) "
          f"for {mean_area:.1f} kgates added to a {base_area:.0f}-kgate core "
          f"({100 * mean_area / base_area:.1f}% area).")

    assert mean_speedup > 1.1
    assert all(r["speedup"] >= 0.99 for r in rows)
    assert all(r["area added (kgates)"] <= BUDGET_KGATES + 1e-6 for r in rows)
