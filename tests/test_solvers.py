import dataclasses
import math

import numpy as np
import pytest

import heatctl.reach as reach
import heatctl.solvers as solvers
from heatctl.core import step_l2_norms
from heatctl.reach import bangbang_values, is_linear, masked_costate
from heatctl import (
    ControlSignal,
    FreeRun,
    NoFeasibleBoundError,
    NonlinearitySpec,
    Problem,
    ScalarInstance,
    SpatialGrid,
    TargetBall,
    ValuePoint,
    bangbang_report,
    dirichlet_eigs,
    free_decay_time,
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
F_RATIONAL = make_nonlinearity("bounded_odd_rational", 1.0)
E1 = dirichlet_eigs(GRID, 1).eigenvectors[0]
Y0 = 2.0 * E1
LAM1 = principal_eigenvalue(GRID)
INST = ScalarInstance(a0=2.0, r=0.5, lam=LAM1)


@pytest.fixture(scope="module")
def gamma_zero():
    return free_decay_time(Y0, BALL, F_ZERO, GRID)


@pytest.fixture(scope="module")
def linear(gamma_zero):
    return Problem(Y0, BALL, F_ZERO, GRID, gamma=gamma_zero)


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


def test_free_decay_horizon_cap(monkeypatch):
    # With a growing reaction term (f = -0.9*lam1*y) the run decays at about
    # a tenth of lam1, so the envelope start is short and the horizon doubles
    # four times before the crossing appears.
    c = 0.9 * LAM1
    slow = NonlinearitySpec(kind="growth", L=c, f=lambda y: -c * y,
                            fprime=lambda y: np.full_like(y, -c))
    start = 1.2 * math.log(4.0) / LAM1
    assert 8.0 * start < free_decay_time(Y0, BALL, slow, GRID) < 16.0 * start
    monkeypatch.setattr(solvers, "FREE_DECAY_DOUBLINGS", 4)
    with pytest.raises(RuntimeError, match="did not enter"):
        free_decay_time(Y0, BALL, slow, GRID)


# ---------------------------------------------------------------------------
# Minimal norm

def test_minimal_norm_zero_at_free_decay_time(gamma_zero, linear):
    point = minimal_norm(linear, gamma_zero)
    assert point.value == 0.0
    assert np.all(point.control.values == 0.0)


def test_minimal_norm_zero_past_free_decay_time(gamma_zero, linear):
    point = minimal_norm(linear, 2.0 * gamma_zero)
    assert point.value == 0.0


def test_minimal_norm_matches_closed_form(linear):
    point = minimal_norm(linear, 0.1)
    target = scalar_minimal_norm(INST, 0.1)
    assert point.value == pytest.approx(target, rel=0.02)
    assert point.bracket_hi - point.bracket_lo <= 1e-3 * (1.0 + point.bracket_hi)
    assert point.bracket_lo <= point.value <= point.bracket_hi


def test_minimal_norm_control_is_certified(linear):
    point = minimal_norm(linear, 0.07)
    traj = solve_forward(Y0, point.control, F_ZERO, GRID)
    assert traj.norms[-1] <= BALL.r * (1.0 + 1e-3)
    assert np.all(point.control.step_norms() <= point.bracket_hi * (1.0 + 1e-12))


def test_free_run_at_the_free_decay_time_reaches_the_ball():
    # minimal_time rests on this: the zero control reaches the ball at the
    # free-decay time, on that horizon's own step grid.  Seeded draws over
    # grid sizes, step counts, the built-in reactions with L up to 10,
    # initial states on several modes, and radii from 1e-3 to 0.9 of the
    # initial norm.
    rng = np.random.default_rng(20121)
    kinds = ("zero", "scaled_tanh", "bounded_odd_rational")
    for case in range(24):
        g = SpatialGrid.build(n=int(rng.choice([15, 31, 63])), ell=1.0)
        nt = int(rng.choice([60, 200, 300]))
        f = make_nonlinearity(kinds[case % 3], float(rng.uniform(0.0, 10.0)))
        modes = dirichlet_eigs(g, 4).eigenvectors
        y0 = rng.normal(size=4) * rng.uniform(0.5, 20.0) @ modes
        ball = TargetBall(float(10.0 ** rng.uniform(-3.0, math.log10(0.9)))
                          * float(np.sqrt(g.h * y0 @ y0)))
        gamma = free_decay_time(y0, ball, f, g, nt=nt)
        terminal = float(FreeRun(y0, gamma, nt, f, g, ball).trajectory.norms[-1])
        assert ball.reaches(terminal), (case, terminal / ball.r)


# ---------------------------------------------------------------------------
# Minimal time

def test_minimal_norm_point_solves_the_free_run_once(gamma_zero, solve_calls):
    # With the tanh reaction the point makes many oracle calls, all at T.
    # It solves the dual bound's costate (zero reaction, over the FreeRun's
    # dt and nt) once, and along the free run the oracle's (tanh) once, on
    # the first oracle call's read.
    T, nt = 0.5 * gamma_zero, 300
    point = minimal_norm(Problem(Y0, BALL, F_TANH, GRID), T)
    assert point.diagnostics["oracle_calls"] > 1
    free = [traj for u, traj in solve_calls.forward
            if u.nt == nt and u.dt == T / nt and not u.values.any()]
    assert len(free) == 1
    (bound_run, bound_f), (oracle_run, oracle_f) = [
        (y, f) for y, f in zip(solve_calls.adjoint, solve_calls.adjoint_reaction)
        if y is free[0] or isinstance(y, FreeRun)]
    assert (bound_run.T, bound_run.nt) == (T, nt) and is_linear(bound_f)
    assert oracle_run is free[0] and oracle_f is F_TANH


def test_refuted_horizon_solves_no_reaction_adjoint(solve_calls, monkeypatch):
    # The dual bound's enclosure decides every horizon of this point without
    # an adjoint solve, so a refuted horizon costs its free run alone.  One
    # left open adds the tanh costate of its free run, the bang-bang ray's
    # first direction; the oracle call that confirms the lower end reuses
    # that run and costate.  At the free-decay time the free run reaches the
    # ball, so the point takes the zero control there without the ray and
    # solves no adjoint.  No zero-reaction adjoint is solved at all.
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, F_TANH, SMALL_MASKED, nt=SMALL_NT)
    rays = []
    monkeypatch.setattr(solvers, "bangbang_ray",
                        lambda *args: rays.append(args) or reach.bangbang_ray(*args))
    del solve_calls.forward[:]
    point = minimal_time(Problem(y0, BALL, F_TANH, SMALL_MASKED, nt=SMALL_NT, gamma=gamma), 5.0)
    assert point.diagnostics["oracle_calls"] == 1
    refuted = point.iterations - 2 - len(rays)
    assert refuted > 0 and point.diagnostics["dual_lower_bound"] > 0.0
    kinds = []
    for u, traj in solve_calls.forward:
        if not u.values.any():
            kinds.append(tuple("tanh" if f is F_TANH else "zero"
                               for t, f in zip(solve_calls.adjoint, solve_calls.adjoint_reaction)
                               if t is traj))
    assert sorted(kinds) == sorted([()] * (1 + refuted) + [("tanh",)] * len(rays))
    assert all(f is F_TANH for f in solve_calls.adjoint_reaction)


def test_minimal_time_zero_bound_is_free_decay(gamma_zero, linear):
    point = minimal_time(linear, 0.0)
    assert point.value == gamma_zero


def test_minimal_time_matches_closed_form(linear):
    point = minimal_time(linear, 10.0)
    target = scalar_minimal_time(INST, 10.0)
    assert point.value == pytest.approx(target, rel=0.02)


def test_minimal_time_large_bound_goes_fast(gamma_zero, linear):
    point = minimal_time(linear, 100.0)
    assert point.value < 0.25 * gamma_zero
    assert point.value == pytest.approx(scalar_minimal_time(INST, 100.0), rel=0.02)


def test_minimal_time_stays_within_free_decay_range(gamma_zero, linear):
    for M in (0.5, 5.0):
        point = minimal_time(linear, M)
        assert 0.0 < point.value <= gamma_zero


# ---------------------------------------------------------------------------
# The problem

@pytest.mark.parametrize("f", [F_ZERO, F_TANH], ids=["zero", "tanh"])
def test_one_problem_certifies_its_zero_control_once(f, solve_calls):
    # Each minimal time simulated the zero control at gamma again: six runs
    # for the points below.  The problem runs it once, when it is built, and
    # every point and round trip takes its zero control.
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, f, SMALL_MASKED, nt=SMALL_NT)
    del solve_calls.forward[:]
    problem = Problem(y0, BALL, f, SMALL_MASKED, nt=SMALL_NT, gamma=gamma)
    trips = [verify_equivalence_time(problem, 0.5 * gamma), verify_equivalence_bound(problem, 5.0)]
    points = [minimal_time(problem, M) for M in (0.0, 1.0, 20.0)]
    at_gamma = [u for u, _ in solve_calls.forward
                if (u.nt, u.dt) == (SMALL_NT, gamma / SMALL_NT) and not u.values.any()]
    assert len(at_gamma) == 1
    assert points[0].control is problem.zero and points[0].value == gamma
    assert all(p.diagnostics["free_decay_time"] == gamma
               for p in points + [trips[0].time_point, trips[1].time_point])


def test_problem_keeps_its_own_copy_of_y0():
    y0 = 2.0 * dirichlet_eigs(SMALL, 1).eigenvectors[0]
    kept = y0.copy()
    problem = Problem(y0, BALL, F_ZERO, SMALL, nt=SMALL_NT)
    before = minimal_time(problem, 5.0)
    y0 *= 10.0
    assert np.array_equal(problem.y0, kept) and not problem.y0.flags.writeable
    assert_same_point(minimal_time(problem, 5.0), before)
    assert problem.gamma == free_decay_time(kept, BALL, F_ZERO, SMALL, nt=SMALL_NT)


def test_problem_refuses_an_initial_state_in_the_ball(solve_calls):
    # minimal_time failed there with free_run's "horizon must be positive,
    # got 0.0", and minimal_norm returned 0
    with pytest.raises(ValueError, match="initial state is in the target ball"):
        Problem(0.3 * E1, BALL, F_ZERO, GRID)
    assert not solve_calls.forward


@pytest.fixture(scope="module")
def small():
    return Problem(2.0 * dirichlet_eigs(SMALL, 1).eigenvectors[0], BALL, F_ZERO, SMALL,
                   nt=SMALL_NT)


@pytest.mark.parametrize("T", [math.nan, math.inf], ids=["nan", "inf"])
def test_minimal_norm_refuses_a_non_finite_horizon(small, T, solve_calls):
    # diffusion_factor refused the non-finite step T/nt with "array must not
    # contain infs or NaNs" from inside a solve
    with pytest.raises(ValueError, match=f"horizon must be positive and finite, got {T}"):
        minimal_norm(small, T)
    assert not solve_calls.forward


@pytest.mark.parametrize("M", [math.nan, -math.inf, -1.0])
def test_minimal_time_refuses_a_bound_that_is_not_nonnegative(small, M, solve_calls):
    # M = nan raised SolverDivergenceError ("...reduce dt") from inside a solve
    with pytest.raises(ValueError, match=f"norm bound must be nonnegative, got {M}"):
        minimal_time(small, M)
    assert not solve_calls.forward


@pytest.mark.parametrize("gamma", [math.nan, math.inf], ids=["nan", "inf"])
def test_problem_refuses_a_non_finite_free_decay_time(gamma):
    with pytest.raises(ValueError,
                       match=f"free-decay time must be positive and finite, got {gamma}"):
        Problem(Y0, BALL, F_ZERO, GRID, gamma=gamma)


def test_minimal_time_at_an_infinite_bound_keeps_its_certified_bracket(small):
    point = minimal_time(small, math.inf)
    assert point.bracket_lo == 0.0 < point.bracket_hi <= 1e-3 * small.gamma
    assert BALL.reaches(float(solve_forward(small.y0, point.control, F_ZERO, SMALL).norms[-1]))


# ---------------------------------------------------------------------------
# Bang-bang

def bangbang_control(psi, level):
    masked = masked_costate(psi, GRID)
    values = bangbang_values(masked, step_l2_norms(masked, GRID.h), level)
    return ControlSignal(dt=psi.dt, nt=psi.nt, values=values, grid=GRID)


def test_bangbang_values_norms_exact():
    traj = solve_forward(Y0, ControlSignal.zeros(40, 1e-3, GRID), F_TANH, GRID)
    psi = solve_adjoint(traj, traj.states[-1], F_TANH, GRID)
    u = bangbang_control(psi, 2.5)
    np.testing.assert_allclose(u.step_norms(), 2.5, rtol=1e-12)
    assert bangbang_report(u, 2.5, 1e-9) == 1.0


def test_bangbang_values_direction_on_full_region():
    # with the control region covering everything, each step is M*psi/||psi||
    traj = solve_forward(Y0, ControlSignal.zeros(30, 1e-3, GRID), F_ZERO, GRID)
    psi = solve_adjoint(traj, traj.states[-1], F_ZERO, GRID)
    u = bangbang_control(psi, 1.0)
    k = 7
    expected = psi.costates[k] / np.sqrt(GRID.h * psi.costates[k] @ psi.costates[k])
    np.testing.assert_allclose(u.values[k], expected, rtol=1e-12)


def test_bangbang_report_zero_control():
    u = ControlSignal.zeros(25, 1e-3, GRID)
    assert bangbang_report(u, 1.0, 0.05) == 0.0
    with pytest.raises(ValueError):
        bangbang_report(u, 0.0, 0.05)


def test_minimal_norm_control_is_bangbang(linear):
    point = minimal_norm(linear, 0.1)
    assert bangbang_report(point.control, point.value, 0.05) >= 0.95


# ---------------------------------------------------------------------------
# Equivalence round trips

def test_equivalence_time_at_free_decay(gamma_zero, linear):
    report = verify_equivalence_time(linear, gamma_zero)
    assert report.alpha == 0.0
    assert report.residual <= 0.02 * gamma_zero
    assert report.extension_residual <= 0.02 * gamma_zero


def test_equivalence_time_linear_instance(linear):
    report = verify_equivalence_time(linear, 0.1)
    assert report.residual / report.T <= 0.02
    assert report.extension_residual is not None
    assert report.extension_residual <= 0.02 * report.T


def test_equivalence_bound_zero(linear):
    report = verify_equivalence_bound(linear, 0.0)
    assert report.relative_residual == 0.0
    assert report.roundtrip == 0.0


def test_equivalence_bound_linear_instance(linear):
    report = verify_equivalence_bound(linear, 10.0)
    assert report.relative_residual <= 0.02
    assert report.restriction_ok
    assert report.restricted_max_norm <= 10.0 * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# Curves

def test_minimal_time_curve_strictly_decreasing(gamma_zero):
    curve = minimal_time_curve([0.0, 1.0, 10.0, 100.0], Y0, BALL, F_ZERO, GRID)
    values = [p.value for p in curve.points]
    assert curve.monotone
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= gamma_zero * (1.0 + 1e-12) for v in values)
    assert values[0] == pytest.approx(gamma_zero, rel=1e-9)


def test_minimal_norm_curve_non_increasing(gamma_zero):
    grid_t = [0.4 * gamma_zero, 0.6 * gamma_zero, 0.8 * gamma_zero, gamma_zero]
    curve = minimal_norm_curve(grid_t, Y0, BALL, F_ZERO, GRID)
    values = [p.value for p in curve.points]
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

def reference_minimal_norm(T, y0, ball, f, g, tol_M=1e-3, max_iters=200, nt=300,
                           gamma_hint=None, record=None):
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
    free = FreeRun(y0, T, nt, f, g, ball)

    def probe(M, warm):
        nonlocal calls, inconclusive
        res = min_terminal_norm(free, M, max_iters, warm_start=warm)
        if record is not None:
            record.append((M, res))
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
            # the message names the largest bound probed, 2**60
            raise NoFeasibleBoundError(
                f"no feasible control found up to norm bound {lo:.3g} at T={T}"
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


def reference_minimal_time(M, y0, ball, f, g, tol_T=1e-3, max_iters=200, nt=300,
                           gamma_hint=None, record=None):
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
        res = min_terminal_norm(FreeRun(y0, T, nt, f, g, ball), M, max_iters, warm_start=warm)
        if record is not None:
            record.append((T, res))
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
    """Record ``(T, M, result)`` of every oracle call the value functions make,
    T the horizon of the call's free run."""
    probes = []

    def recorded(free, M, *args, **kwargs):
        res = min_terminal_norm(free, M, *args, **kwargs)
        probes.append((free.T, M, res))
        return res

    monkeypatch.setattr(solvers, "min_terminal_norm", recorded)
    return probes


def assert_certified_point(point, ref, probes, width, y0, f, g, conclusive=True):
    """A certified point against the cold reference loop's point: a linear
    one, settled by the dual pair, or a reaction-term minimal time, settled
    by the bang-bang ray and confirmed by the oracle.

    ``probes`` holds (parameter, result) of the point's oracle calls.  The
    brackets intersect, and the new one meets the same width rule.  Its
    control, simulated again with f, reaches the ball, over the point's
    horizon (a minimal norm) or the upper end (a minimal time), with step
    norms within the upper end (a minimal norm) or the bound (a minimal
    time).  The control is a feasible oracle probe's at the upper end, or
    else bang-bang: the dual pair's at the upper end of a minimal norm, the
    pair's or the ray's at its own level, or the zero control.  The lower
    end is the recorded dual bound or an infeasible probe (conclusive unless
    the iteration budget is cut short).
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
    u, is_norm = point.control, "doublings" in point.diagnostics
    assert BALL.reaches(float(solve_forward(y0, u, f, g).norms[-1]))
    assert u.nt * u.dt == pytest.approx(point.parameter if is_norm else hi, rel=1e-12)
    level = float(np.max(u.step_norms()))
    assert level <= (hi if is_norm else point.parameter) * (1.0 + 1e-12)
    if not any(x == hi and res.feasible and np.array_equal(res.control.values, u.values)
               for x, res in probes):
        assert level == 0.0 or bangbang_report(u, hi if is_norm else level, 1e-9) == 1.0
    assert lo == bound or any(x == lo and not res.feasible
                              and (res.converged or not conclusive) for x, res in probes)


def assert_refuted_cold_point(point, ref, probes, ref_probes):
    """A reaction-term minimal norm against the cold reference loop's point.

    ``probes`` and ``ref_probes`` hold (parameter, result) of the oracle calls
    of the point and of the reference.  The point makes the reference's
    probes, and calls the oracle on the same ones except those its dual
    bound refutes, each of which the reference's oracle found infeasible.
    Everything else is the reference's, bit for bit; ``inconclusive`` counts
    only the oracle calls made.
    """
    bound = point.diagnostics["dual_lower_bound"]
    called = [x for x, _ in probes]
    refuted = [(x, res) for x, res in ref_probes if x not in called]
    assert called == [x for x, _ in ref_probes if x in called]
    assert all(not res.feasible for _, res in refuted)
    assert [x for x, _ in refuted] == [x for x, _ in ref_probes if x < bound]
    assert 0.0 <= bound <= point.bracket_lo
    assert point.iterations == ref.iterations
    assert (point.diagnostics["oracle_calls"] == len(probes)
            == ref.diagnostics["oracle_calls"] - len(refuted))
    diagnostics = {**point.diagnostics, "oracle_calls": ref.diagnostics["oracle_calls"],
                   "inconclusive": ref.diagnostics["inconclusive"]}
    del diagnostics["dual_lower_bound"]
    assert_same_point(dataclasses.replace(point, diagnostics=diagnostics), ref)
    assert (point.diagnostics["inconclusive"]
            == ref.diagnostics["inconclusive"] - sum(res.inconclusive for _, res in refuted))
    return len(refuted)


@pytest.mark.parametrize("g", [SMALL, SMALL_MASKED], ids=["full", "masked"])
@pytest.mark.parametrize("f", [F_ZERO, F_TANH, F_RATIONAL], ids=["zero", "tanh", "rational"])
def test_bisection_driver_matches_reference_loops(f, g, oracle_probes):
    # The reaction-term minimal norms keep the cold search bit for bit, with
    # the probes the dual bound refutes left out of the oracle calls; the
    # linear points (settled by the dual pair) and the reaction-term minimal
    # times (settled by the bang-bang ray) stay certified.
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, f, g, nt=SMALL_NT)

    def norm_width(hi):
        return 1e-3 * (1.0 + hi)

    def time_width(hi):
        return 1e-3 * gamma

    refutations = []

    def check(value_fn, x, reference, width, **kwargs):
        point = value_fn(Problem(y0, BALL, f, g, nt=SMALL_NT, gamma=gamma, **kwargs), x)
        ref_probes = []
        ref = reference(x, y0, BALL, f, g, nt=SMALL_NT, gamma_hint=gamma, record=ref_probes,
                        **kwargs)
        probes = [(M if value_fn is minimal_norm else T, res)
                  for T, M, res in oracle_probes]
        if not is_linear(f) and value_fn is minimal_norm:
            refutations.append(assert_refuted_cold_point(point, ref, probes, ref_probes))
        else:
            assert_certified_point(point, ref, probes, width, y0, f, g,
                                   conclusive="max_iters" not in kwargs)
        del oracle_probes[:]
        return point

    doublings = [check(minimal_norm, T, reference_minimal_norm,
                       norm_width).diagnostics.get("doublings", 0)
                 for T in (0.3 * gamma, 0.7 * gamma, gamma)]
    if not is_linear(f):
        assert doublings[0] > 0
    for M in (0.0, 1.0, 20.0):
        check(minimal_time, M, reference_minimal_time, time_width)
    # a short iteration budget leaves some probes inconclusive
    check(minimal_norm, 0.3 * gamma, reference_minimal_norm, norm_width, max_iters=5)
    check(minimal_time, 5.0, reference_minimal_time, time_width, max_iters=5)
    if not is_linear(f):
        assert sum(refutations) > 0


def test_bisection_driver_exhaustion_errors_match_reference_loops():
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    args = (y0, BALL, F_TANH, SMALL_MASKED)
    with pytest.raises(NoFeasibleBoundError) as new:
        minimal_norm(Problem(*args, nt=SMALL_NT, max_iters=1), 0.002)
    with pytest.raises(NoFeasibleBoundError) as ref:
        reference_minimal_norm(0.002, *args, max_iters=1, nt=SMALL_NT)
    assert str(new.value) == str(ref.value)
    assert "norm bound 1.15e+18" in str(new.value)


@pytest.mark.parametrize("f, M", [(F_ZERO, 0.01), (F_TANH, 0.01), (F_ZERO, 0.0), (F_TANH, 0.0)],
                         ids=["zero", "tanh", "zero-M=0", "tanh-M=0"])
def test_minimal_time_refuses_a_free_decay_time_that_is_too_short(f, M, oracle_probes,
                                                                   solve_calls):
    # The search rests on the zero control reaching the ball at the given
    # free-decay time.  At half the true one the free run misses, so the
    # problem's zero control raises when the point first reads it, after that
    # one free run and before any oracle call.  So does M = 0, whose value is
    # that time (it returned it with that control).
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    args = (y0, BALL, f, SMALL_MASKED)
    short = 0.5 * free_decay_time(*args, nt=SMALL_NT)
    del solve_calls.forward[:]
    with pytest.raises(NoFeasibleBoundError) as err:
        minimal_time(Problem(*args, nt=SMALL_NT, gamma=short), M)
    assert oracle_probes == []
    (u, traj), = solve_calls.forward
    assert u.nt * u.dt == pytest.approx(short) and not u.values.any()
    assert str(err.value) == (
        f"could not certify feasibility near the free-decay time {short:.6g}; "
        f"the free run ends at norm {float(traj.norms[-1]):.6g} there")
    assert not BALL.reaches(float(traj.norms[-1]))


@pytest.mark.parametrize("f", [F_ZERO, F_TANH], ids=["zero", "tanh"])
@pytest.mark.parametrize("g", [SMALL, SMALL_MASKED], ids=["full", "masked"])
def test_every_returned_control_reaches_the_ball(f, g):
    # Each value point's control, simulated again on its own step grid,
    # reaches the ball: the minimal norm's at horizons on both sides of the
    # free-decay time, the minimal time's at M = 0 too.
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    args = (y0, BALL, f, g)
    gamma = free_decay_time(*args, nt=SMALL_NT)

    def check(u, horizon):
        assert (u.nt, u.dt) == (SMALL_NT, horizon / SMALL_NT)
        assert BALL.reaches(float(solve_forward(y0, u, f, g).norms[-1]))

    problem = Problem(*args, nt=SMALL_NT, gamma=gamma)
    for c in (0.5, 1.0, 1.5):
        check(minimal_norm(problem, c * gamma).control, c * gamma)
    for M in (0.0, 5.0, 20.0):
        point = minimal_time(problem, M)
        check(point.control, point.bracket_hi)


def test_minimal_norm_refuses_a_free_decay_time_that_is_too_short(oracle_probes, solve_calls):
    # Past the given free-decay time the value is 0 only when the zero
    # control reaches the ball.  With half the true one as the problem's, the
    # free run at 0.6 of the true one misses, so the point raises after that
    # one free run and before any oracle call (it returned 0 with that control).
    y0 = 2.0 * dirichlet_eigs(SMALL, 1).eigenvectors[0]
    args = (y0, BALL, F_ZERO, SMALL)
    gamma = free_decay_time(*args, nt=SMALL_NT)
    T, short = 0.6 * gamma, 0.5 * gamma
    del solve_calls.forward[:]
    with pytest.raises(NoFeasibleBoundError) as err:
        minimal_norm(Problem(*args, nt=SMALL_NT, gamma=short), T)
    assert oracle_probes == []
    (u, traj), = solve_calls.forward
    assert (u.nt, u.dt) == (SMALL_NT, T / SMALL_NT) and not u.values.any()
    terminal = float(traj.norms[-1])
    assert not BALL.reaches(terminal)
    assert str(err.value) == (
        f"the zero control does not reach the ball at T={T}, at or past the free-decay "
        f"time {short:.6g}; the free run ends at norm {terminal:.6g}")


def test_a_problem_solves_nothing_it_does_not_read(oracle_probes, solve_calls):
    # The zero control at the free-decay time is simulated only when a point
    # reads it: a minimal norm below that time does not, and one at that time
    # returns it (each simulated it again).  With a too-short free-decay time,
    # horizons below it are solved as before.
    y0 = 2.0 * dirichlet_eigs(SMALL, 1).eigenvectors[0]
    args = (y0, BALL, F_ZERO, SMALL)
    gamma = free_decay_time(*args, nt=SMALL_NT)
    problem = Problem(*args, nt=SMALL_NT, gamma=gamma)
    below = minimal_norm(Problem(*args, nt=SMALL_NT, gamma=0.5 * gamma), 0.25 * gamma)
    assert not any(u.nt * u.dt == pytest.approx(0.5 * gamma) for u, _ in solve_calls.forward)
    assert_same_point(dataclasses.replace(below, diagnostics={}),
                      dataclasses.replace(minimal_norm(problem, 0.25 * gamma), diagnostics={}))
    del solve_calls.forward[:], oracle_probes[:]
    point = minimal_norm(problem, gamma)
    assert point.value == 0.0 and point.control is problem.zero
    assert len(solve_calls.forward) == 1 and oracle_probes == []


def test_linear_minimal_time_refutes_with_the_pair_before_the_oracle(oracle_probes):
    # Past the free run's bound crossing, the dual pair's raised lower end
    # exceeds M on every horizon the pair does not reach, so each is refuted
    # without an oracle call (four such calls, each infeasible, before).
    g = SpatialGrid.build(n=127, ell=1.0, omega=(0.3, 0.8))
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    point = minimal_time(Problem(y0, BALL, F_ZERO, g), 50.0)
    assert oracle_probes == [] and point.diagnostics["oracle_calls"] == 0
    assert point.diagnostics["dual_lower_bound"] == point.bracket_lo
    assert BALL.reaches(float(solve_forward(y0, point.control, F_ZERO, g).norms[-1]))


def test_linear_minimal_time_counts_every_probe(solve_calls):
    # The dual bound's enclosure decides each probe of the crossing search
    # from the closed-form free run, and the dual pair settles the second
    # search's one probe, at the crossing, from the crossing's FreeRun: its
    # terminal state is closed-form and its zero-reaction costate reads only
    # dt and nt.  So the point simulates one free run, at gamma, the first
    # probe, and one control, the pair's, which it returns.
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, F_ZERO, SMALL_MASKED, nt=SMALL_NT)
    del solve_calls.forward[:]
    point = minimal_time(Problem(y0, BALL, F_ZERO, SMALL_MASKED, nt=SMALL_NT, gamma=gamma), 1.0)
    assert point.diagnostics["oracle_calls"] == 0
    assert point.iterations > 10
    (zero, free_run_at_gamma), (u, _) = solve_calls.forward
    assert not zero.values.any() and free_run_at_gamma.dt == gamma / SMALL_NT
    assert np.array_equal(u.values, point.control.values)
    assert u.dt == point.bracket_hi / SMALL_NT
    (run,), (f,) = solve_calls.adjoint, solve_calls.adjoint_reaction
    assert (run.T, run.nt) == (point.bracket_hi, SMALL_NT) and is_linear(f)


@pytest.mark.parametrize("f, omega, M", [(F_ZERO, None, 20.0), (F_ZERO, (0.3, 0.8), 50.0),
                                         (F_TANH, None, 50.0), (F_TANH, (0.3, 0.8), 50.0)],
                         ids=["zero-full", "zero-masked", "tanh-full", "tanh-masked"])
def test_straddled_horizons_solve_the_exact_bound(f, omega, M, monkeypatch):
    # Off the first mode the enclosure of the dual bound straddles M at some
    # horizons, which then solve the exact bound; the point is the one every
    # horizon's exact bound gives, bit for bit.
    g = SpatialGrid.build(n=31, ell=1.0, omega=omega)
    modes = dirichlet_eigs(g, 3).eigenvectors
    args = (2.0 * modes[0] + 1.5 * modes[2], BALL, f, g)
    gamma = free_decay_time(*args, nt=SMALL_NT)
    enclosed, exact = [], []
    monkeypatch.setattr(solvers, "dual_bound_enclosure",
                        lambda *a: enclosed.append(a) or reach.dual_bound_enclosure(*a))
    monkeypatch.setattr(solvers, "dual_lower_bound",
                        lambda *a: exact.append(a) or reach.dual_lower_bound(*a))
    problem = Problem(*args, nt=SMALL_NT, gamma=gamma)
    point = minimal_time(problem, M)
    assert 0 < len(exact) < len(enclosed)
    bounds = len(enclosed)
    del exact[:]
    monkeypatch.setattr(solvers, "dual_bound_enclosure", lambda *a: (0.0, math.inf))
    reference = minimal_time(problem, M)
    assert len(exact) == bounds
    assert dataclasses.replace(point, control=None) == dataclasses.replace(reference,
                                                                           control=None)
    np.testing.assert_array_equal(point.control.values, reference.control.values)


@pytest.mark.parametrize("omega", [None, (0.3, 0.8)], ids=["full", "masked"])
def test_linear_value_points_raise_no_floating_point_error(omega):
    # On n = 127 the closed forms' powers (1 + dt*lambda_i)^-m of high modes
    # underflow near the free-decay time; minimal_time(5) raised
    # FloatingPointError from linear_free_state under errstate(all="raise").
    g = SpatialGrid.build(n=127, ell=1.0, omega=omega)
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    with np.errstate(all="raise"):
        problem = Problem(y0, BALL, F_ZERO, g)
        time_point = minimal_time(problem, 5.0)
        norm_point = minimal_norm(problem, 0.5 * problem.gamma)
    for point in (time_point, norm_point):
        assert BALL.reaches(float(solve_forward(y0, point.control, F_ZERO, g).norms[-1]))


def test_linear_minimal_time_at_a_huge_bound_is_certified_near_zero():
    # The bound refutes no horizon, so the crossing search ends within
    # tol_T*gamma of 0, where the dual pair reaches the ball at a finite
    # level; the oracle's full-amplitude start at M = 1e300 overflowed.
    y0 = 2.0 * dirichlet_eigs(SMALL, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, F_ZERO, SMALL, nt=SMALL_NT)
    point = minimal_time(Problem(y0, BALL, F_ZERO, SMALL, nt=SMALL_NT, gamma=gamma), 1e300)
    assert point.bracket_lo == 0.0 < point.bracket_hi <= 1e-3 * gamma
    assert point.diagnostics["oracle_calls"] == 0
    u = point.control
    assert u.nt * u.dt == pytest.approx(point.bracket_hi, rel=1e-12)
    assert BALL.reaches(float(solve_forward(y0, u, F_ZERO, SMALL).norms[-1]))
    assert np.isfinite(u.step_norms()).all()


def test_linear_minimal_norm_climb_gives_up_before_it_overflows(oracle_probes):
    # On these short horizons, control on (0.1, 0.4) cannot bring the state
    # outside it into the ball at any bound, so the dual pair finds no level
    # along its ray and the doubling never finds a feasible probe.  It gives
    # up once its next upper end would pass MAX_NORM_BOUND, before its runs
    # overflow (they did past 1e36), and names the largest bound it probed.
    g = SpatialGrid.build(n=31, ell=1.0, omega=(0.1, 0.4))
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    problem = Problem(y0, BALL, F_ZERO, g, nt=SMALL_NT)
    for c in (0.05, 0.1):
        with pytest.raises(NoFeasibleBoundError, match="no feasible control") as err:
            minimal_norm(problem, c * problem.gamma)
        named = float(str(err.value).split("norm bound ")[1].split()[0])
        probed = [M for _, M, _ in oracle_probes]
        assert max(probed) == solvers.MAX_NORM_BOUND
        assert named == float(f"{solvers.MAX_NORM_BOUND:.3g}")
        assert all(res.terminal_norm < 2.0 for _, _, res in oracle_probes)
        del oracle_probes[:]


@pytest.mark.parametrize("f", [F_ZERO, F_TANH], ids=["zero", "tanh"])
def test_dual_lower_bound_is_recorded_on_every_point(f):
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    args = (y0, BALL, f, SMALL_MASKED)
    gamma = free_decay_time(*args, nt=SMALL_NT)
    kwargs = dict(nt=SMALL_NT, gamma_hint=gamma)
    problem = Problem(*args, nt=SMALL_NT, gamma=gamma)
    trip = verify_equivalence_bound(problem, 5.0)
    points = [minimal_norm(problem, 0.5 * gamma), minimal_norm(problem, gamma),
              minimal_time(problem, 0.0), trip.time_point, trip.norm_point,
              *minimal_time_curve([1.0, 20.0], *args, **kwargs).points,
              *minimal_norm_curve([0.3 * gamma], *args, **kwargs).points]
    bounds = [p.diagnostics["dual_lower_bound"] for p in points]
    assert all(0.0 <= b <= p.bracket_lo for b, p in zip(bounds, points))
    # the two points decided without the oracle record 0
    assert bounds[1] == bounds[2] == 0.0
    assert sum(b > 0.0 for b in bounds) == len(points) - 2
    # a minimal norm that searched also counts its doublings
    keys = {"free_decay_time", "dual_lower_bound", "oracle_calls", "inconclusive"}
    assert [set(p.diagnostics) for p in points] == [
        keys | {"doublings"}, keys, keys, keys, keys | {"doublings"}, keys, keys,
        keys | {"doublings"}]


@pytest.mark.parametrize("value_fn", ["minimal_time", "minimal_norm"])
@pytest.mark.parametrize("f", [F_ZERO, F_TANH], ids=["zero", "tanh"])
def test_a_width_below_the_float_spacing_ends_on_adjacent_floats(f, value_fn, monkeypatch):
    # A width rule of 1e-17 is below the float spacing at these values, so
    # each search halves until its midpoint rounds onto an end, and stops
    # there without probing an end again.  A search that went on would make
    # free runs or oracle calls without end; after 2000 of either it fails.
    for module, name in ((reach, "FreeRun"), (solvers, "min_terminal_norm")):
        calls = []

        def limited(*args, original=getattr(module, name), calls=calls, **kwargs):
            calls.append(None)
            if len(calls) > 2000:
                raise RuntimeError("the search did not end")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, limited)
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    args = (y0, BALL, f, SMALL_MASKED)
    gamma = free_decay_time(*args, nt=SMALL_NT)
    if value_fn == "minimal_time":
        point = minimal_time(Problem(*args, nt=SMALL_NT, tol_t=1e-17, gamma=gamma), 5.0)
    else:
        point = minimal_norm(Problem(*args, nt=SMALL_NT, tol_m=1e-17, gamma=gamma), 0.5 * gamma)
    assert point.bracket_hi == np.nextafter(point.bracket_lo, np.inf)


def test_a_missed_lower_end_takes_one_confirming_oracle_call(monkeypatch):
    # The bang-bang ray settles the upper end and misses the lower one.  A
    # miss proves nothing, so the oracle confirms it once, warm-started from
    # the ray's control, and finds it infeasible: the point stands.
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, F_TANH, SMALL_MASKED, nt=SMALL_NT)
    calls = []

    def recorded(free, M, *args, **kwargs):
        res = min_terminal_norm(free, M, *args, **kwargs)
        calls.append((free.T, kwargs["warm_start"], res))
        return res

    monkeypatch.setattr(solvers, "min_terminal_norm", recorded)
    point = minimal_time(Problem(y0, BALL, F_TANH, SMALL_MASKED, nt=SMALL_NT, gamma=gamma), 5.0)
    assert len(calls) == 1 == point.diagnostics["oracle_calls"]
    (T, warm, res), = calls
    assert T == point.bracket_lo and warm is point.control
    assert not res.feasible and res.converged
    assert point.bracket_hi - point.bracket_lo <= 1e-3 * gamma
    assert bangbang_report(point.control, 5.0, 1e-9) == 1.0


def test_a_feasible_confirmation_descends_to_a_certified_lower_end(oracle_probes):
    # With control on (0.1, 0.4) and M = 20 the ray misses every horizon
    # below the free-decay time that the bound leaves open, and the oracle
    # finds the missed lower end feasible.  So the search steps down from it
    # with oracle probes, the gap doubling after each feasible one, and
    # halves after the first that fails; both ends are oracle probes.
    g = SpatialGrid.build(n=31, ell=1.0, omega=(0.1, 0.4))
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, F_TANH, g, nt=SMALL_NT)
    point = minimal_time(Problem(y0, BALL, F_TANH, g, nt=SMALL_NT, gamma=gamma), 20.0)
    probes = [(T, res) for T, _, res in oracle_probes]
    steps = [T for T, _ in probes]
    assert len(probes) == point.diagnostics["oracle_calls"] >= 4
    assert probes[0][1].feasible and probes[1][1].feasible and not probes[2][1].feasible
    first = steps[0] - steps[1]
    assert steps[1] - steps[2] == pytest.approx(2.0 * first, rel=1e-9)
    assert point.bracket_hi < steps[0]
    ref = reference_minimal_time(20.0, y0, BALL, F_TANH, g, nt=SMALL_NT, gamma_hint=gamma)
    assert_certified_point(point, ref, probes, lambda hi: 1e-3 * gamma, y0, F_TANH, g)
    assert point.bracket_lo != point.diagnostics["dual_lower_bound"]


# ---------------------------------------------------------------------------
# Problem checks


def refused_problem(field, value, gamma):
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    settings = {"nt": SMALL_NT, "gamma": gamma}
    if field == "y0":
        y0[3] = value
    else:
        settings[field] = value
    return Problem(y0, BALL, F_ZERO, SMALL_MASKED, **settings)


@pytest.mark.parametrize("gamma", [None, 0.1], ids=["found", "given"])
@pytest.mark.parametrize("field, value", [
    ("tol_t", math.nan), ("tol_t", math.inf), ("tol_t", 0.0), ("tol_m", math.nan),
    ("tol_m", math.inf), ("tol_m", -1e-3), ("nt", 0), ("nt", -3), ("nt", 2.5), ("nt", True),
    ("max_iters", 0), ("max_iters", 2.5), ("max_iters", True), ("y0", math.nan),
    ("y0", math.inf)])
def test_problem_refuses_a_setting_before_any_solve(field, value, gamma, monkeypatch,
                                                     solve_calls):
    # Let through, tol_t nan or inf makes minimal_time(problem, 5.0) return
    # the bracket [0, 0.14236] after one probe (the value is 0.09315); nt 0,
    # -3 and 2.5 raise ZeroDivisionError, numpy's "negative dimensions" and a
    # TypeError; a NaN in y0 makes the free-decay horizon NaN, which FreeRun
    # refuses ("horizon must be positive and finite"), or with gamma given
    # raises "forward solve produced non-finite states".
    def no_free_decay(*args, **kwargs):
        raise AssertionError("free_decay_time ran")

    monkeypatch.setattr(solvers, "free_decay_time", no_free_decay)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        refused_problem(field, value, gamma)
    assert solve_calls.forward == [] and solve_calls.adjoint == []


@pytest.mark.parametrize("curve, grid, setting, field", [
    (minimal_time_curve, [1.0, 5.0], {"tol_T": math.nan}, "tol_t"),
    (minimal_norm_curve, [0.01, 0.02], {"tol_M": math.inf}, "tol_m"),
    (minimal_time_curve, [1.0, 5.0], {"nt": 0}, "nt"),
    (minimal_norm_curve, [0.01, 0.02], {"nt": 2.5}, "nt")],
    ids=["time-tol", "norm-tol", "time-nt", "norm-nt"])
def test_curves_refuse_a_setting_through_the_problem(curve, grid, setting, field, solve_calls):
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    with pytest.raises(ValueError, match=f"^{field} must be"):
        curve(grid, y0, BALL, F_ZERO, SMALL_MASKED, **{"nt": SMALL_NT, **setting})
    assert solve_calls.forward == [] and solve_calls.adjoint == []


# ---------------------------------------------------------------------------
# Large norm bounds.  The oracle's stagnation test once scaled with M, so at
# 1e6 it passed after one step; at 1e200 its bang-bang start overflowed and
# ended the point; and at inf the point kept the dual pair's control-less
# upper end.


@pytest.fixture(scope="module", params=[F_ZERO, F_TANH], ids=["zero", "tanh"])
def masked_small(request):
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    return Problem(y0, BALL, request.param, SMALL_MASKED, nt=SMALL_NT)


def test_a_larger_bound_gives_no_longer_minimal_time(masked_small):
    assert minimal_time(masked_small, 1e6).value <= minimal_time(masked_small, 1e4).value


def test_an_infinite_bound_returns_a_control():
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    point = minimal_time(Problem(y0, BALL, F_ZERO, SMALL_MASKED, nt=SMALL_NT), math.inf)
    assert isinstance(point.control, ControlSignal)


def test_a_huge_bound_returns_a_control_that_reaches_the_ball():
    y0 = 2.0 * dirichlet_eigs(SMALL_MASKED, 1).eigenvectors[0]
    point = minimal_time(Problem(y0, BALL, F_ZERO, SMALL_MASKED, nt=SMALL_NT), 1e200)
    assert BALL.reaches(float(solve_forward(y0, point.control, F_ZERO, SMALL_MASKED).norms[-1]))
