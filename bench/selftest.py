#!/usr/bin/env python3
"""Self-test of the benchmark's tracer, reference and metric list.

Run from the repository root (about ten seconds):

    python3 bench/selftest.py

Checks, on a tiny grid, that two traced runs give the same counts, that
``solvers.oracle_calls_per_point`` equals the mean of the value points'
``diagnostics["oracle_calls"]``, that every ``*.self_s`` is >= 0, and that the
original functions are restored afterwards.  It also checks the independent
brute-force reference against the bracket recorded for seed 0, and that
BENCHMARK.json lists exactly the metrics the benchmark reports.  Exits 1 on
the first failed check group, printing every failure.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import heatctl  # noqa: E402
import heatctl.cli  # noqa: E402,F401
from tracer import DETERMINISTIC, PER_LAYER, Tracer  # noqa: E402
from workloads import BRUTE, BRUTE_SEED0_REFERENCE, reference_feasibility  # noqa: E402

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)


def traced_curve():
    g = heatctl.SpatialGrid.build(n=31, ell=1.0, omega=(0.3, 0.8))
    y0 = 2.0 * heatctl.dirichlet_eigs(g, 1).eigenvectors[0]
    f = heatctl.make_nonlinearity("scaled_tanh", 1.0)
    with Tracer() as tracer:
        curve = heatctl.solvers.minimal_time_curve(
            [0.0, 1.0, 5.0], y0, heatctl.TargetBall(0.5), f, g, nt=40)
    return tracer.metrics(), curve


def test_tracer():
    original = heatctl.pde.solve_forward
    first, curve = traced_curve()
    second, _ = traced_curve()
    check(heatctl.reach.solve_forward is original and heatctl.pde.solve_forward is original,
          "tracer did not restore the patched functions")
    for key in DETERMINISTIC:
        check(first[key] == second[key], f"{key} differs between traced runs: "
                                         f"{first[key]} vs {second[key]}")
    expected = np.mean([p.diagnostics["oracle_calls"] for p in curve.points])
    check(first["solvers.oracle_calls_per_point"] == expected,
          f"oracle_calls_per_point {first['solvers.oracle_calls_per_point']} "
          f"!= diagnostics mean {expected}")
    for key, value in first.items():
        if key.endswith("self_s"):
            check(value >= 0.0, f"{key} is negative: {value}")
    check(first["pde.forward.calls"] > 0 and first["reach.calls"] > 0,
          "no pde or reach spans recorded")
    check(first["oracle.evaluations"] == 0, "oracle spans recorded without a bracket call")
    check(0.0 < first["reach.accepted_ratio"] <= 1.0,
          f"reach.accepted_ratio out of (0, 1]: {first['reach.accepted_ratio']}")


def test_reference():
    strict, loose = reference_feasibility(BRUTE["amp"], np.linspace(
        BRUTE["amp_lo"], BRUTE["amp_hi"], BRUTE["amp_count"]))
    expected = tuple(BRUTE_SEED0_REFERENCE["feasible_by_level"])
    check(strict == loose == expected,
          f"reference feasibility {strict}/{loose} != recorded {expected}")


def test_metric_list():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    ours = [(name, unit, better) for name, unit, better, _ in PER_LAYER]
    check(listed == ours, "BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    check([m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb"],
          "BENCHMARK.json end_to_end differs from the metrics run.py reports")


def main() -> int:
    for test in (test_metric_list, test_tracer, test_reference):
        test()
        if failures:
            print(f"FAIL {test.__name__}:\n  " + "\n  ".join(failures))
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
