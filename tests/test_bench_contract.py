"""The benchmark's tracer patches heatctl functions by name and reads their
arguments and results (``solve_forward``'s control, ``solve_adjoint``'s run,
``min_terminal_norm``'s objective history).  Run its self-test's tracer and
metric-list checks here, so a change that breaks that contract fails in this
suite, not only when the benchmark runs.  The brute-force reference check
stays with ``python3 bench/selftest.py``."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_benchmark_tracer_and_metric_list_still_fit(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import selftest

    selftest.failures.clear()
    selftest.test_metric_list()
    selftest.test_tracer()
    assert selftest.failures == []
