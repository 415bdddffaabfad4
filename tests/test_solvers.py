import dataclasses
import math

import numpy as np
import pytest

import heatctl.solvers as solvers
from heatctl import (
    ControlSignal,
    DegenerateCostateError,
    NoFeasibleBoundError,
    ReachOptions,
    ScalarInstance,
    SpatialGrid,
    TargetBall,
    ValuePoint,
    bangbang_report,
    dirichlet_eigs,
    extract_bangbang,
    free_decay_time,
    free_run,
    make_nonlinearity,
    min_terminal_norm,
    minimal_norm,
    minimal_norm_curve,
    minimal_time,
    minimal_time_curve,
    principal_eigenvalue,
    scalar_minimal_norm,
    scalar_minimal_time,
    solve_adjoint,
    solve_forward,
    verify_equivalence_bound,
    verify_equivalence_time,
)

GRID = SpatialGrid.build(n=127, ell=1.0)
BALL = TargetBall(0.5)
F_ZERO = make_nonlinearity("zero")
F_TANH = make_nonlinearity("scaled_tanh", 1.0)
E1 = dirichlet_eigs(GRID, 1).eigenvectors[0]
Y0 = 2.0 * E1
LAM1 = principal_eigenvalue(GRID)
INST = ScalarInstance(a0=2.0, r=0.5, lam=LAM1)


@pytest.fixture(scope="module")
def gamma_zero():
    return free_decay_time(Y0, BALL, F_ZERO, GRID)


# ---------------------------------------------------------------------------
# Free decay time

def test_free_decay_time_eigenmode(gamma_zero):
    # continuum value ln(4)/lam1; the implicit scheme adds an O(dt) delay
    assert gamma_zero == pytest.approx(math.log(4.0) / LAM1, rel=0.01)


def test_free_decay_immediate_crossing():
    y0 = 1.0001 * 0.5 * E1
    t = free_decay_time(y0, BALL, F_ZERO, GRID)
    assert 0.0 < t < 1e-3


def test_free_decay_inside_ball_is_zero():
    assert free_decay_time(0.3 * E1, BALL, F_ZERO, GRID) == 0.0


def test_reaction_term_accelerates_decay(gamma_zero):
    t_tanh = free_decay_time(Y0, BALL, F_TANH, GRID)
    assert t_tanh <= gamma_zero


def test_free_decay_horizon_cap():
    with pytest.raises(RuntimeError, match="did not enter"):
        free_decay_time(Y0, BALL, F_ZERO, GRID, horizon=1e-6, max_expand=3)


# ---------------------------------------------------------------------------
# Minimal norm

def test_minimal_norm_zero_at_free_decay_time(gamma_zero):
    point = minimal_norm(gamma_zero, Y0, BALL, F_ZERO, GRID, gamma_hint=gamma_zero)
    assert point.value == 0.0
    assert np.all(point.control.values == 0.0)


def test_minimal_norm_zero_past_free_decay_time(gamma_zero):
    point = minimal_norm(2.0 * gamma_zero, Y0, BALL, F_ZERO, GRID, gamma_hint=gamma_zero)
    assert point.value == 0.0


def test_minimal_norm_matches_closed_form(gamma_zero):
    point = minimal_norm(0.1, Y0, BALL, F_ZERO, GRID, gamma_hint=gamma_zero)
    target = scalar_minimal_norm(INST, 0.1)
    assert point.value == pytest.approx(target, rel=0.02)
    assert point.bracket_hi - point.bracket_lo <= 1e-3 * (1.0 + point.bracket_hi)
    assert point.bracket_lo <= point.value <= point.bracket_hi


def test_minimal_norm_control_is_certified(gamma_zero):
    point = minimal_norm(0.07, Y0, BALL, F_ZERO, GRID, gamma_hint=gamma_zero)
    traj = solve_forward(Y0, point.control, F_ZERO, GRID)
    assert traj.norms[-1] <= BALL.r * (1.0 + 1e-3)
    assert np.all(point.control.step_norms() <= point.bracket_hi * (1.0 + 1e-12))


# ---------------------------------------------------------------------------
# Minimal time

def test_minimal_norm_point_solves_the_free_run_once(gamma_zero, solve_calls):
    # With the tanh reaction the point makes many oracle calls, all at T.
    T, nt = 0.5 * gamma_zero, 300
    point = minimal_norm(T, Y0, BALL, F_TANH, GRID)
    assert point.diagnostics["oracle_calls"] > 1
    free = [traj for u, traj in solve_calls.forward
            if u.nt == nt and u.dt == T / nt and not u.values.any()]
    assert len(free) == 1
    assert sum(traj is free[0] for traj in solve_calls.adjoint) == 1


def test_minimal_time_zero_bound_is_free_decay(gamma_zero):
    point = minimal_time(0.0, Y0, BALL, F_ZERO, GRID, gamma_hint=gamma_zero)
    assert point.value == gamma_zero


def test_minimal_time_matches_closed_form(gamma_zero):
    point = minimal_time(10.0, Y0, BALL, F_ZERO, GRID, gamma_hint=gamma_zero)
    target = scalar_minimal_time(INST, 10.0)
    assert point.value == pytest.approx(target, rel=0.02)


def test_minimal_time_large_bound_goes_fast(gamma_zero):
    point = minimal_time(100.0, Y0, BALL, F_ZERO, GRID, gamma_hint=gamma_zero)
    assert point.value < 0.25 * gamma_zero
    assert point.value == pytest.approx(scalar_minimal_time(INST, 100.0), rel=0.02)


def test_minimal_time_stays_within_free_decay_range(gamma_zero):
    for M in (0.5, 5.0):
        point = minimal_time(M, Y0, BALL, F_ZERO, GRID, gamma_hint=gamma_zero)
        assert 0.0 < point.value <= gamma_zero


# ---------------------------------------------------------------------------
# Bang-bang

def test_extract_bangbang_zero_bound():
    traj = solve_forward(Y0, ControlSignal.zeros(40, 1e-3, GRID), F_ZERO, GRID)
    psi = solve_adjoint(traj, traj.states[-1], F_ZERO, GRID)
    u = extract_bangbang(psi, 0.0, GRID)
    assert np.all(u.values == 0.0)


def test_extract_bangbang_norms_exact():
    traj = solve_forward(Y0, ControlSignal.zeros(40, 1e-3, GRID), F_TANH, GRID)
    psi = solve_adjoint(traj, traj.states[-1], F_TANH, GRID)
    u = extract_bangbang(psi, 2.5, GRID)
    np.testing.assert_allclose(u.step_norms(), 2.5, rtol=1e-12)
    assert bangbang_report(u, 2.5, 1e-9) == 1.0


def test_extract_bangbang_direction_on_full_region():
    # with the control region covering everything, each step is M*psi/||psi||
    traj = solve_forward(Y0, ControlSignal.zeros(30, 1e-3, GRID), F_ZERO, GRID)
    psi = solve_adjoint(traj, traj.states[-1], F_ZERO, GRID)
    u = extract_bangbang(psi, 1.0, GRID)
    k = 7
    expected = psi.costates[k] / np.sqrt(GRID.h * psi.costates[k] @ psi.costates[k])
    np.testing.assert_allclose(u.values[k], expected, rtol=1e-12)


def test_extract_bangbang_degenerate_costate():
    traj = solve_forward(Y0, ControlSignal.zeros(20, 1e-3, GRID), F_ZERO, GRID)
    psi = solve_adjoint(traj, np.zeros(GRID.n), F_ZERO, GRID)
    with pytest.raises(DegenerateCostateError):
        extract_bangbang(psi, 1.0, GRID)


def test_bangbang_report_zero_control():
    u = ControlSignal.zeros(25, 1e-3, GRID)
    assert bangbang_report(u, 1.0, 0.05) == 0.0
    with pytest.raises(ValueError):
        bangbang_report(u, 0.0, 0.05)


def test_minimal_norm_control_is_bangbang(gamma_zero):
    point = minimal_norm(0.1, Y0, BALL, F_ZERO, GRID, gamma_hint=gamma_zero)
    assert bangbang_report(point.control, point.value, 0.05) >= 0.95


# ---------------------------------------------------------------------------
# Equivalence round trips

def test_equivalence_time_at_free_decay(gamma_zero):
    report = verify_equivalence_time(gamma_zero, Y0, BALL, F_ZERO, GRID,
                                     gamma_hint=gamma_zero)
    assert report.norm_value == 0.0
    assert report.residual <= 0.02 * gamma_zero
    assert report.extension_residual <= 0.02 * gamma_zero


def test_equivalence_time_linear_instance(gamma_zero):
    report = verify_equivalence_time(0.1, Y0, BALL, F_ZERO, GRID,
                                     gamma_hint=gamma_zero)
    assert report.residual / report.T <= 0.02
    assert report.extension_residual is not None
    assert report.extension_residual <= 0.02 * report.T


def test_equivalence_bound_zero(gamma_zero):
    report = verify_equivalence_bound(0.0, Y0, BALL, F_ZERO, GRID,
                                      gamma_hint=gamma_zero)
    assert report.relative_residual == 0.0
    assert report.norm_roundtrip == 0.0


def test_equivalence_bound_linear_instance(gamma_zero):
    report = verify_equivalence_bound(10.0, Y0, BALL, F_ZERO, GRID,
                                      gamma_hint=gamma_zero)
    assert report.relative_residual <= 0.02
    assert report.restriction_ok
    assert report.restricted_max_norm <= 10.0 * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# Curves

def test_minimal_time_curve_strictly_decreasing(gamma_zero):
    curve = minimal_time_curve([0.0, 1.0, 10.0, 100.0], Y0, BALL, F_ZERO, GRID)
    values = curve.values()
    assert curve.monotone
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= gamma_zero * (1.0 + 1e-12) for v in values)
    assert values[0] == pytest.approx(gamma_zero, rel=1e-9)


def test_minimal_norm_curve_non_increasing(gamma_zero):
    grid_t = [0.4 * gamma_zero, 0.6 * gamma_zero, 0.8 * gamma_zero, gamma_zero]
    curve = minimal_norm_curve(grid_t, Y0, BALL, F_ZERO, GRID)
    values = curve.values()
    assert curve.monotone
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_minimal_norm_curve_refuses_horizons_past_free_decay(gamma_zero):
    with pytest.raises(ValueError):
        minimal_norm_curve([0.5 * gamma_zero, 1.5 * gamma_zero], Y0, BALL,
                           F_ZERO, GRID)


def test_curves_require_increasing_grids():
    with pytest.raises(ValueError):
        minimal_time_curve([1.0, 1.0], Y0, BALL, F_ZERO, GRID)
    with pytest.raises(ValueError):
        minimal_norm_curve([0.1, 0.05], Y0, BALL, F_ZERO, GRID)
    with pytest.raises(ValueError):
        minimal_time_curve([], Y0, BALL, F_ZERO, GRID)
    with pytest.raises(ValueError):
        minimal_norm_curve([], Y0, BALL, F_ZERO, GRID)


# ---------------------------------------------------------------------------
# The bisection driver against the two loops it replaced

def reference_minimal_norm(T, y0, ball, f, g, tol_M=1e-3, opts=None, nt=300,
                           gamma_hint=None):
    y0 = np.asarray(y0, dtype=float)
    gamma = gamma_hint if gamma_hint is not None else free_decay_time(y0, ball, f, g, nt=nt)
    if T >= gamma:
        return ValuePoint(parameter=T, value=0.0, bracket_lo=0.0, bracket_hi=0.0,
                          iterations=0,
                          control=ControlSignal.zeros(nt, T / nt, g),
                          diagnostics={"free_decay_time": gamma, "oracle_calls": 0,
                                       "inconclusive": 0})

    calls = 0
    inconclusive = 0
    best_control = None
    free = free_run(y0, T, nt, f, g)

    def probe(M, warm):
        nonlocal calls, inconclusive
        res = min_terminal_norm(y0, T, M, ball, f, g, opts=opts, nt=nt, warm_start=warm,
                                free=free)
        calls += 1
        if res.inconclusive:
            inconclusive += 1
        return res

    lo, hi = 0.0, 1.0
    res = probe(hi, None)
    doublings = 0
    while not res.feasible:
        lo = hi
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise NoFeasibleBoundError(
                f"no feasible control found up to norm bound {hi:.3g} at T={T}"
            )
        res = probe(hi, res.control)
    best_control = res.control

    while hi - lo > tol_M * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        res = probe(mid, best_control)
        if res.feasible:
            hi = mid
            best_control = res.control
        else:
            lo = mid

    return ValuePoint(parameter=T, value=0.5 * (lo + hi), bracket_lo=lo, bracket_hi=hi,
                      iterations=calls, control=best_control,
                      diagnostics={"free_decay_time": gamma, "oracle_calls": calls,
                                   "inconclusive": inconclusive,
                                   "doublings": doublings})


def reference_minimal_time(M, y0, ball, f, g, tol_T=1e-3, opts=None, nt=300,
                           gamma_hint=None):
    y0 = np.asarray(y0, dtype=float)
    gamma = gamma_hint if gamma_hint is not None else free_decay_time(y0, ball, f, g, nt=nt)
    if M == 0.0:
        return ValuePoint(parameter=M, value=gamma, bracket_lo=gamma, bracket_hi=gamma,
                          iterations=0,
                          control=ControlSignal.zeros(nt, gamma / nt, g),
                          diagnostics={"free_decay_time": gamma, "oracle_calls": 0,
                                       "inconclusive": 0})

    calls = 0
    inconclusive = 0

    def probe(T, warm):
        nonlocal calls, inconclusive
        res = min_terminal_norm(y0, T, M, ball, f, g, opts=opts, nt=nt, warm_start=warm)
        calls += 1
        if res.inconclusive:
            inconclusive += 1
        return res

    lo, hi = 0.0, gamma
    res = probe(hi, None)
    expansions = 0
    while not res.feasible:
        expansions += 1
        if expansions > 4:
            raise RuntimeError(
                f"could not certify feasibility near the free-decay time {gamma:.6g} "
                f"for M={M}; oracle terminal norm {res.terminal_norm:.6g}"
            )
        lo, hi = hi, gamma * (1.0 + 0.02 * 2 ** (expansions - 1))
        res = probe(hi, res.control)
    best_control = res.control

    tol_abs = tol_T * gamma
    while hi - lo > tol_abs:
        mid = 0.5 * (lo + hi)
        res = probe(mid, best_control)
        if res.feasible:
            hi = mid
            best_control = res.control
        else:
            lo = mid

    return ValuePoint(parameter=M, value=0.5 * (lo + hi), bracket_lo=lo, bracket_hi=hi,
                      iterations=calls, control=best_control,
                      diagnostics={"free_decay_time": gamma, "oracle_calls": calls,
                                   "inconclusive": inconclusive,
                                   "upper_expansions": expansions})


SMALL = SpatialGrid.build(n=31, ell=1.0)
SMALL_MASKED = SpatialGrid.build(n=31, ell=1.0, omega=(0.3, 0.8))
SMALL_NT = 60


def assert_same_point(point, ref):
    assert dataclasses.replace(point, control=None) == dataclasses.replace(ref, control=None)
    assert (point.control.dt, point.control.nt) == (ref.control.dt, ref.control.nt)
    assert np.array_equal(point.control.values, ref.control.values)


@pytest.fixture
def oracle_probes(monkeypatch):
    """Record ``(T, M, result)`` of every oracle call the value functions make."""
    probes = []

    def recorded(y0, T, M, *args, **kwargs):
        res = min_terminal_norm(y0, T, M, *args, **kwargs)
        probes.append((T, M, res))
        return res

    monkeypatch.setattr(solvers, "min_terminal_norm", recorded)
    return probes


def assert_certified_point(point, ref, probes, width, conclusive=True):
    """A dual-seeded linear point against the cold reference loop's point.

    ``probes`` holds (parameter, result) of the point's oracle calls.  Both
    brackets are certified, so they intersect; the new one meets the same
    width rule.  Its upper end is a feasible probe whose control it returns,
    and its lower end is its recorded dual bound or an infeasible probe
    (conclusive unless the iteration budget is cut short).
    """
    bound = point.diagnostics["dual_lower_bound"]
    if ref.diagnostics["oracle_calls"] == 0:
        diagnostics = {k: v for k, v in point.diagnostics.items() if k != "dual_lower_bound"}
        assert_same_point(dataclasses.replace(point, diagnostics=diagnostics), ref)
        assert bound == 0.0
        return
    lo, hi = point.bracket_lo, point.bracket_hi
    assert max(lo, ref.bracket_lo) <= min(hi, ref.bracket_hi)
    assert hi - lo <= width(hi)
    assert point.value == 0.5 * (lo + hi)
    assert 0.0 <= bound <= lo
    assert any(x == hi and res.feasible
               and np.array_equal(res.control.values, point.control.values)
               for x, res in probes)
    assert lo == bound or any(x == lo and not res.feasible
                              and (res.converged or not conclusive) for x, res in probes)


@pytest.mark.parametrize("g", [SMALL, SMALL_MASKED], ids=["full", "masked"])
@pytest.mark.parametrize("f", [F_ZERO, F_TANH], ids=["zero", "tanh"])
def test_bisection_driver_matches_reference_loops(f, g, oracle_probes):
    # The tanh points keep the cold search bit for bit; the linear ones start
    # from the dual bound and stay certified.
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, f, g, nt=SMALL_NT)

    def norm_width(hi):
        return 1e-3 * (1.0 + hi)

    def time_width(hi):
        return 1e-3 * gamma

    def check(value_fn, x, reference, width, **kwargs):
        point = value_fn(x, y0, BALL, f, g, nt=SMALL_NT, **kwargs)
        ref = reference(x, y0, BALL, f, g, nt=SMALL_NT, **kwargs)
        if f is F_TANH:
            assert_same_point(point, ref)
        else:
            probes = [(M if value_fn is minimal_norm else T, res)
                      for T, M, res in oracle_probes]
            assert_certified_point(point, ref, probes, width,
                                   conclusive="opts" not in kwargs)
        del oracle_probes[:]
        return point

    doublings = [check(minimal_norm, T, reference_minimal_norm, norm_width,
                       gamma_hint=gamma).diagnostics.get("doublings", 0)
                 for T in (0.3 * gamma, 0.7 * gamma, gamma)]
    if f is F_TANH:
        assert doublings[0] > 0
    for M in (0.0, 1.0, 20.0):
        check(minimal_time, M, reference_minimal_time, time_width, gamma_hint=gamma)
    # a slightly short free-decay time makes the upper end widen before bisecting
    point = check(minimal_time, 0.01, reference_minimal_time,
                  lambda hi: 1e-3 * 0.97 * gamma, gamma_hint=0.97 * gamma)
    assert point.diagnostics["upper_expansions"] > 0
    # and each failed upper end becomes the lower end: the tanh point bisects
    # only above the failed probes (14 oracle calls when its lower end stayed 0)
    assert point.bracket_lo >= 0.97 * gamma
    if f is F_TANH:
        assert point.diagnostics["oracle_calls"] < 14
    # a short iteration budget leaves some probes inconclusive
    few = ReachOptions(max_iters=5)
    check(minimal_norm, 0.3 * gamma, reference_minimal_norm, norm_width, opts=few,
          gamma_hint=gamma)
    check(minimal_time, 5.0, reference_minimal_time, time_width, opts=few,
          gamma_hint=gamma)


def test_bisection_driver_exhaustion_errors_match_reference_loops():
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    args = (y0, BALL, F_TANH, SMALL_MASKED)
    one_step = ReachOptions(max_iters=1)
    with pytest.raises(NoFeasibleBoundError) as new:
        minimal_norm(0.002, *args, opts=one_step, nt=SMALL_NT)
    with pytest.raises(NoFeasibleBoundError) as ref:
        reference_minimal_norm(0.002, *args, opts=one_step, nt=SMALL_NT)
    assert str(new.value) == str(ref.value)
    assert "norm bound 2.31e+18" in str(new.value)

    # a free-decay time that is too short leaves the upper end infeasible
    short = 0.5 * free_decay_time(*args, nt=SMALL_NT)
    with pytest.raises(NoFeasibleBoundError) as new:
        minimal_time(0.01, *args, nt=SMALL_NT, gamma_hint=short)
    with pytest.raises(RuntimeError) as ref:
        reference_minimal_time(0.01, *args, nt=SMALL_NT, gamma_hint=short)
    assert str(new.value) == str(ref.value)
    assert "could not certify" in str(new.value)


def test_linear_minimal_time_refuses_a_free_decay_time_that_is_too_short():
    # the dual bound refutes every horizon up to the last nudge past it
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    args = (y0, BALL, F_ZERO, SMALL_MASKED)
    short = 0.5 * free_decay_time(*args, nt=SMALL_NT)
    with pytest.raises(NoFeasibleBoundError, match="could not certify"):
        minimal_time(0.01, *args, nt=SMALL_NT, gamma_hint=short)


@pytest.mark.parametrize("f", [F_ZERO, F_TANH], ids=["zero", "tanh"])
def test_dual_lower_bound_is_recorded_on_linear_points_only(f):
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    args = (y0, BALL, f, SMALL_MASKED)
    gamma = free_decay_time(*args, nt=SMALL_NT)
    kwargs = dict(nt=SMALL_NT, gamma_hint=gamma)
    trip = verify_equivalence_bound(5.0, *args, **kwargs)
    points = [minimal_norm(0.5 * gamma, *args, **kwargs), minimal_norm(gamma, *args, **kwargs),
              minimal_time(0.0, *args, **kwargs), trip.time_point, trip.norm_point,
              *minimal_time_curve([1.0, 20.0], *args, **kwargs).points,
              *minimal_norm_curve([0.3 * gamma], *args, **kwargs).points]
    if f is F_TANH:
        assert all("dual_lower_bound" not in p.diagnostics for p in points)
    else:
        bounds = [p.diagnostics["dual_lower_bound"] for p in points]
        assert all(0.0 <= b <= p.bracket_lo for b, p in zip(bounds, points))
        assert sum(b > 0.0 for b in bounds) == len(points) - 2
