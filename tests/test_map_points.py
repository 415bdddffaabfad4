"""Value points solved in forked workers against the same points solved in-process."""

import dataclasses
import json
import multiprocessing
import os
import re
import threading
import time
from functools import partial

import numpy as np
import pytest

from heatctl import (
    NoFeasibleBoundError,
    SpatialGrid,
    TargetBall,
    dirichlet_eigs,
    free_decay_time,
    make_nonlinearity,
    minimal_norm_curve,
    minimal_time_curve,
)
from heatctl.cli import EXIT_OK, main
from heatctl.solvers import _map_points

BALL = TargetBall(0.5)
NT = 60
INSTANCES = {
    "linear": (make_nonlinearity("zero"), SpatialGrid.build(n=31, ell=1.0)),
    "tanh-masked": (make_nonlinearity("scaled_tanh", 1.0),
                    SpatialGrid.build(n=31, ell=1.0, omega=(0.3, 0.8))),
}


def assert_same_curve(curve, ref):
    assert dataclasses.replace(curve, points=()) == dataclasses.replace(ref, points=())
    assert len(curve.points) == len(ref.points)
    for point, expected in zip(curve.points, ref.points):
        assert dataclasses.replace(point, control=None) == dataclasses.replace(expected,
                                                                              control=None)
        assert (point.control.dt, point.control.nt) == (expected.control.dt,
                                                        expected.control.nt)
        assert np.array_equal(point.control.values, expected.control.values)
        assert np.array_equal(point.control.grid.omega_mask, expected.control.grid.omega_mask)


def curves(f, g):
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, f, g, nt=NT)
    kwargs = dict(nt=NT, gamma_hint=gamma)
    return (minimal_time_curve([0.0, 1.0, 5.0], y0, BALL, f, g, **kwargs),
            minimal_norm_curve([0.3 * gamma, 0.6 * gamma, gamma], y0, BALL, f, g, **kwargs))


@pytest.mark.parametrize("instance", list(INSTANCES))
def test_pooled_curves_equal_serial_curves(use_cpus, instance):
    f, g = INSTANCES[instance]
    use_cpus(1)
    serial = curves(f, g)
    use_cpus(2)
    pooled = curves(f, g)
    for curve, ref in zip(pooled, serial):
        assert_same_curve(curve, ref)
        # only the pooled points crossed a process boundary, and their
        # arrays stayed read-only on the way
        assert all(p.control.grid is g for p in ref.points)
        for point in curve.points:
            assert point.control.grid is not g
            assert not point.control.values.flags.writeable
            assert not point.control.grid.omega_mask.flags.writeable
    assert multiprocessing.active_children() == []


def fail_on_odd(x):
    if x == 1:
        time.sleep(0.3)  # the first failure in order arrives last
    if x % 2:
        raise ValueError(f"odd parameter {x}")
    return x


def test_first_failure_in_order_is_raised(use_cpus):
    use_cpus(2)
    with pytest.raises(ValueError, match="^odd parameter 1$"):
        _map_points(fail_on_odd, [0, 1, 2, 3])
    assert multiprocessing.active_children() == []
    assert _map_points(fail_on_odd, [0, 2, 4]) == [0, 2, 4]
    assert multiprocessing.active_children() == []


def test_no_point_starts_after_a_failure(use_cpus, tmp_path):
    def fail_first(x):
        (tmp_path / str(x)).touch()
        if x == 0:
            raise ValueError("first")
        time.sleep(0.2)
        return x

    use_cpus(2)
    with pytest.raises(ValueError, match="^first$"):
        _map_points(fail_first, range(8))
    # the second worker finishes the point it holds, and nothing else starts
    assert sorted(path.name for path in tmp_path.iterdir()) == ["0", "1"]
    assert multiprocessing.active_children() == []


def exit_on_two(x):
    if x == 2:
        os._exit(1)
    return x


def test_worker_that_dies_is_an_error(use_cpus):
    use_cpus(2)
    with pytest.raises(RuntimeError, match="worker process exited"):
        _map_points(exit_on_two, [0, 1, 2, 3])
    assert multiprocessing.active_children() == []


def fail_with_local_class(x):
    class LocalError(Exception):
        pass

    if x == 1:
        raise LocalError(f"local failure at {x}")
    return x


def test_unpicklable_failure_is_raised_by_name(use_cpus):
    # an instance of a class defined inside fn cannot be pickled, so the
    # worker sends a stand-in naming its class and message instead of dying
    use_cpus(2)
    name = f"{__name__}.fail_with_local_class.<locals>.LocalError"
    with pytest.raises(RuntimeError, match=f"^{re.escape(name)}: local failure at 1$"):
        _map_points(fail_with_local_class, [0, 1, 2, 3])
    assert multiprocessing.active_children() == []


def failing_curve():
    """A linear minimal-norm curve whose points all fail, and its first
    horizon: on these short horizons control on (0.1, 0.4) cannot bring the
    state outside it into the ball at any bound, so each point's doubling
    gives up."""
    f, g = make_nonlinearity("zero"), SpatialGrid.build(n=31, ell=1.0, omega=(0.1, 0.4))
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, f, g, nt=NT)
    horizons = [0.05 * gamma, 0.1 * gamma]
    curve = partial(minimal_norm_curve, horizons, y0, BALL, f, g, nt=NT, gamma_hint=gamma)
    return curve, horizons[0]


@pytest.mark.parametrize("cpus", [1, 2])
def test_failing_curve_names_its_first_failing_point(use_cpus, cpus):
    curve, first = failing_curve()
    use_cpus(cpus)
    with pytest.raises(NoFeasibleBoundError, match=f"at T={re.escape(str(first))}$"):
        curve()
    assert multiprocessing.active_children() == []


def test_failed_pooled_curve_leaves_no_cycle(use_cpus, heatctl_frames_in_cycles):
    # the raised error's traceback holds _map_points' frame, which must not
    # hold the error in turn
    curve, _ = failing_curve()
    use_cpus(2)

    def run():
        try:
            curve()
        except NoFeasibleBoundError:
            return
        raise AssertionError("the curve did not fail")

    assert heatctl_frames_in_cycles(run) == []
    assert multiprocessing.active_children() == []


def report_pids(conn):
    conn.send((os.getpid(), _map_points(lambda x: (x, os.getpid()), [1, 2, 3])))
    conn.close()


def test_daemonic_process_maps_serially(use_cpus):
    use_cpus(2)
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=report_pids, args=(sender,), daemon=True)
    child.start()
    sender.close()
    pid, results = receiver.recv()
    child.join()
    assert child.exitcode == 0
    assert results == [(1, pid), (2, pid), (3, pid)]


def test_another_thread_maps_serially(use_cpus):
    use_cpus(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results = _map_points(lambda x: (x, os.getpid()), [1, 2, 3])
    finally:
        release.set()
        other.join()
    assert results == [(1, os.getpid()), (2, os.getpid()), (3, os.getpid())]


def test_patched_solver_maps_serially(use_cpus, solve_calls):
    # a call recorder patched into this process sees every solve of a curve
    # that would otherwise run in workers
    f, g = INSTANCES["tanh-masked"]
    use_cpus(2)
    time_curve, _ = curves(f, g)
    assert all(p.control.grid is g for p in time_curve.points)
    assert len(solve_calls.forward) >= sum(p.diagnostics["oracle_calls"]
                                           for p in time_curve.points) > 0


def cli_files(tmp_path, command, cfg, name):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    summary = json.loads(files.pop("summary.json"))
    summary.pop("wall_time_s")
    return summary, files


@pytest.mark.parametrize("command, cfg", [
    ("sweep", {"omega": [0.3, 0.8], "nonlinearity": {"kind": "scaled_tanh", "L": 1.0},
               "experiment": {"M_grid": [0.0, 1.0, 5.0], "T_grid": [0.05, 0.1]}}),
    ("equivalence", {"experiment": {"T_grid": [0.05, 0.1], "M_grid": [5.0, 20.0]}}),
], ids=["sweep", "equivalence"])
def test_pooled_cli_files_equal_serial_files(tmp_path, use_cpus, command, cfg):
    cfg = {"grid": {"n": 31}, "y0": {"modes": {"1": 2.0}}, "r": 0.5, "nt": NT, **cfg}
    use_cpus(1)
    serial = cli_files(tmp_path, command, cfg, "serial")
    use_cpus(2)
    pooled = cli_files(tmp_path, command, cfg, "pooled")
    assert pooled == serial
    assert multiprocessing.active_children() == []
