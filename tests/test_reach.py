import math
import warnings

import numpy as np
import pytest

import heatctl.reach as reach
from heatctl import (
    ControlSignal,
    DegenerateCostateError,
    DimensionMismatchError,
    NoFeasibleBoundError,
    Problem,
    ScalarInstance,
    SpatialGrid,
    TargetBall,
    dirichlet_eigs,
    dual_lower_bound,
    free_run,
    gradient_fd_check,
    make_nonlinearity,
    min_terminal_norm,
    minimal_norm,
    principal_eigenvalue,
    scalar_minimal_norm,
    solve_adjoint,
    solve_forward,
)
from heatctl.core import step_l2_norms
from heatctl.pde import diffusion_factor, diffusion_solve
from heatctl.reach import (
    DUAL_ROUNDING,
    ReachOptions,
    ReachResult,
    _project_values,
    _spectral_step,
    bangbang_ray,
    bangbang_values,
    dual_bound_enclosure,
    dual_pair,
    masked_costate,
    reaction_costate_bounds,
)
from heatctl.solvers import free_decay_time

GRID = SpatialGrid.build(n=127, ell=1.0)
MASKED = SpatialGrid.build(n=127, ell=1.0, omega=(0.3, 0.8))
BALL = TargetBall(0.5)
F_ZERO = make_nonlinearity("zero")
F_TANH = make_nonlinearity("scaled_tanh", 1.0)
F_RATIONAL = make_nonlinearity("bounded_odd_rational", 1.0)
Y0 = 2.0 * dirichlet_eigs(GRID, 1).eigenvectors[0]
Y0_MASKED = 2.0 * dirichlet_eigs(MASKED, 1).eigenvectors[0]


# ---------------------------------------------------------------------------
# Projection (``_project_values``, the projection the oracle applies)

def test_projection_is_identity_inside_ball():
    rng = np.random.default_rng(11)
    values = 0.01 * rng.standard_normal((10, GRID.n))
    np.testing.assert_array_equal(_project_values(values, 10.0, GRID.h), values)


def test_projection_rescales_single_step():
    e1 = dirichlet_eigs(GRID, 1).eigenvectors[0]
    vals = np.zeros((3, GRID.n))
    vals[1] = 4.0 * e1  # pointwise norm 4 = 2M
    projected = _project_values(vals, 2.0, GRID.h)
    norms = step_l2_norms(projected, GRID.h)
    assert norms[0] == 0.0 and norms[2] == 0.0
    assert norms[1] == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(projected[1], 2.0 * e1, rtol=1e-12)


def test_projection_zero_bound_gives_zero_control():
    rng = np.random.default_rng(12)
    values = rng.standard_normal((5, GRID.n))
    assert np.all(_project_values(values, 0.0, GRID.h) == 0.0)


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(13)
    values = 3.0 * rng.standard_normal((20, GRID.n))
    once = _project_values(values, 1.5, GRID.h)
    twice = _project_values(once, 1.5, GRID.h)
    np.testing.assert_allclose(twice, once, rtol=1e-14)
    once_norms = step_l2_norms(once, GRID.h)
    assert np.all(once_norms <= step_l2_norms(values, GRID.h) + 1e-14)
    assert np.all(once_norms <= 1.5 * (1.0 + 1e-12))


# ---------------------------------------------------------------------------
# Step rule

S = np.array([[1.0, 2.0], [0.0, -1.0]])  # <s,s> = 6


@pytest.mark.parametrize("delta, step, expected", [
    (0.5 * S, 0.25, 2.0),                                  # spectral: 6 / 3
    (np.array([[3.0, 0.0], [0.0, 0.0]]), 0.25, 2.0),       # spectral: 6 / 3
    (1e-6 * S, 0.25, 50.0),                                # 1e6, capped at 50
    (-S, 0.25, 0.5),                                       # <s,delta> < 0: doubled
    (np.array([[2.0, -1.0], [0.0, 0.0]]), 0.25, 0.5),      # <s,delta> = 0: doubled
    (-S, 40.0, 50.0),                                      # doubled, capped at 50
], ids=["spectral", "spectral-off-axis", "capped", "negative-curvature", "zero-curvature",
        "fallback-capped"])
def test_spectral_step_branches(delta, step, expected):
    assert _spectral_step(S, delta, step, 50.0) == expected


# ---------------------------------------------------------------------------
# Oracle

def test_zero_bound_reduces_to_free_run():
    gamma = free_decay_time(Y0, BALL, F_ZERO, GRID)
    res_short = min_terminal_norm(free_run(Y0, 0.5 * gamma, 300, F_ZERO, GRID), 0.0, BALL)
    free = solve_forward(Y0, ControlSignal.zeros(300, 0.5 * gamma / 300, GRID),
                         F_ZERO, GRID)
    assert res_short.terminal_norm == pytest.approx(free.norms[-1], rel=1e-12)
    assert not res_short.feasible
    assert res_short.converged
    assert np.all(res_short.control.values == 0.0)
    res_long = min_terminal_norm(free_run(Y0, 1.2 * gamma, 300, F_ZERO, GRID), 0.0, BALL)
    assert res_long.feasible


def test_feasibility_brackets_closed_form_bound():
    # alpha(0.1) is about 3.86 on this instance; 4.0 reaches, 3.5 does not
    assert min_terminal_norm(free_run(Y0, 0.1, 300, F_ZERO, GRID), 4.0, BALL).feasible
    assert not min_terminal_norm(free_run(Y0, 0.1, 300, F_ZERO, GRID), 3.5, BALL).feasible


def test_feasibility_boundary_matches_closed_form_within_2pct():
    inst = ScalarInstance(a0=2.0, r=0.5, lam=principal_eigenvalue(GRID))
    for T in (0.05, 0.1):
        alpha = scalar_minimal_norm(inst, T)
        free = free_run(Y0, T, 300, F_ZERO, GRID)
        assert min_terminal_norm(free, 1.02 * alpha, BALL).feasible
        assert not min_terminal_norm(free, 0.98 * alpha, BALL).feasible


def test_any_bound_feasible_past_free_decay_time():
    gamma = free_decay_time(Y0_MASKED, BALL, F_TANH, MASKED)
    for M in (0.0, 1.0, 25.0):
        assert min_terminal_norm(free_run(Y0_MASKED, gamma, 300, F_TANH, MASKED), M, BALL).feasible


def test_objective_history_non_increasing():
    res = min_terminal_norm(free_run(Y0_MASKED, 0.06, 300, F_TANH, MASKED), 5.0, BALL)
    hist = res.objective_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def test_result_control_respects_bound():
    M = 3.0
    res = min_terminal_norm(free_run(Y0_MASKED, 0.08, 300, F_TANH, MASKED), M, BALL)
    assert np.all(res.control.step_norms() <= M * (1.0 + 1e-12))


def test_feasibility_monotone_in_bound_and_horizon():
    gamma = free_decay_time(Y0_MASKED, BALL, F_TANH, MASKED)
    T = 0.6 * gamma
    flags = [min_terminal_norm(free_run(Y0_MASKED, T, 300, F_TANH, MASKED), M, BALL).feasible
             for M in (0.5, 2.0, 8.0, 32.0)]
    assert flags == sorted(flags)  # once feasible, stays feasible as M grows
    M = 2.0
    flags_t = [min_terminal_norm(free_run(Y0_MASKED, t, 300, F_TANH, MASKED), M, BALL).feasible
               for t in (0.3 * gamma, 0.7 * gamma, gamma)]
    assert flags_t == sorted(flags_t)


def test_min_terminal_norm_argument_checks():
    with pytest.raises(ValueError):
        free_run(Y0, -0.1, 300, F_ZERO, GRID)
    with pytest.raises(DimensionMismatchError):
        free_run(Y0[:-1], 0.1, 300, F_ZERO, GRID)
    with pytest.raises(ValueError):
        min_terminal_norm(free_run(Y0, 0.1, 300, F_ZERO, GRID), -1.0, BALL)
    with pytest.raises(ValueError):
        ReachOptions(max_iters=0)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0])
def test_free_run_refuses_a_horizon_outside_the_positive_floats(T):
    # nan and inf reached the solves: scipy refused a NaN array, or the
    # search diverged
    with pytest.raises(ValueError, match=f"horizon must be positive and finite, got {T}"):
        free_run(Y0, T, 300, F_ZERO, GRID)


# ---------------------------------------------------------------------------
# Gradient verification

def test_gradient_matches_fd_linear():
    # quadratic objective: central differences are truncation-free, so a wide
    # step just suppresses cancellation noise
    rng = np.random.default_rng(14)
    nt, T = 250, 0.1
    dt = T / nt
    for _ in range(5):
        v = ControlSignal(dt=dt, nt=nt, values=rng.standard_normal((nt, MASKED.n)),
                          grid=MASKED)
        d = ControlSignal(dt=dt, nt=nt, values=rng.standard_normal((nt, MASKED.n)),
                          grid=MASKED)
        err = gradient_fd_check(Y0_MASKED, T, v, d, F_ZERO, MASKED, fd_step=5e-2)
        assert err <= 1e-9


def test_gradient_matches_fd_nonlinear():
    rng = np.random.default_rng(15)
    nt, T = 250, 0.1
    dt = T / nt
    for _ in range(5):
        v = ControlSignal(dt=dt, nt=nt, values=rng.standard_normal((nt, MASKED.n)),
                          grid=MASKED)
        d = ControlSignal(dt=dt, nt=nt, values=rng.standard_normal((nt, MASKED.n)),
                          grid=MASKED)
        err = gradient_fd_check(Y0_MASKED, T, v, d, F_TANH, MASKED, fd_step=1e-3)
        assert err <= 1e-6


def test_gradient_fd_zero_direction():
    v = ControlSignal.zeros(50, 1e-3, MASKED)
    d = ControlSignal.zeros(50, 1e-3, MASKED)
    assert gradient_fd_check(Y0_MASKED, 0.05, v, d, F_TANH, MASKED) == 0.0


# ---------------------------------------------------------------------------
# Shared free run


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("g, y0", [(GRID, Y0), (MASKED, Y0_MASKED)], ids=["full", "masked"])
@pytest.mark.parametrize("f", [F_ZERO, F_TANH], ids=["zero", "tanh"])
def test_shared_free_run_keeps_every_bit(f, g, y0, warm):
    # A FreeRun that other readers and another oracle call have used gives
    # the same result as a fresh one, bit for bit.
    T, M, nt = 0.06, 3.0, 120
    ws = (ControlSignal(dt=T / nt, nt=nt, values=np.full((nt, g.n), -2.0), grid=g)
          if warm else None)
    alone = min_terminal_norm(free_run(y0, T, nt, f, g), M, BALL, warm_start=ws)
    free = free_run(y0, T, nt, f, g)
    free.norms  # read first, as the dual pair reads it
    min_terminal_norm(free, 2.0 * M, BALL, warm_start=ws)
    shared = min_terminal_norm(free, M, BALL, warm_start=ws)
    assert alone.iterations > 0
    assert np.array_equal(shared.control.values, alone.control.values)
    for attr in ("terminal_norm", "objective_history", "iterations", "feasible",
                 "converged"):
        assert getattr(shared, attr) == getattr(alone, attr)


def test_free_run_solves_nothing_until_read(solve_calls):
    free = free_run(Y0_MASKED, 0.06, 60, F_TANH, MASKED)
    assert solve_calls.forward == [] and solve_calls.adjoint == []
    traj = free.trajectory
    (u, solved), = solve_calls.forward
    assert solved is traj and solve_calls.adjoint == []
    assert (u.nt, u.dt) == (60, 0.06 / 60) and not u.values.any()
    free.masked
    assert len(solve_calls.adjoint) == 1 and solve_calls.adjoint[0] is traj
    assert solve_calls.adjoint_reaction == [F_TANH]
    free.norms, free.masked, free.trajectory  # nothing more is solved
    assert len(solve_calls.forward) == 1 and len(solve_calls.adjoint) == 1
    assert np.array_equal(free.terminal, traj.states[-1])


# ---------------------------------------------------------------------------
# Bang-bang ray

SMALL = SpatialGrid.build(n=31, ell=1.0)
SMALL_MASKED = SpatialGrid.build(n=31, ell=1.0, omega=(0.3, 0.8))


@pytest.mark.parametrize("g", [SMALL, SMALL_MASKED], ids=["full", "masked"])
@pytest.mark.parametrize("f", [F_TANH, F_RATIONAL], ids=["tanh", "rational"])
def test_bangbang_ray_reaches_the_ball_within_the_bound(f, g):
    # Every control the ray returns, simulated again with f on the free
    # run's grid, reaches the ball, and is bang-bang at a level between the
    # dual bound and M: at M itself on some horizons, and below M, at the
    # secant's level, where full thrust overshoots the ball.
    nt = 60
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, f, g, nt=nt)
    levels = []
    for c in (0.2, 0.5, 0.8):
        free = free_run(y0, c * gamma, nt, f, g)
        for M in (2.0, 10.0, 50.0):
            u = bangbang_ray(free, BALL, M)
            if u is None:
                continue
            assert (u.nt, u.dt) == (nt, c * gamma / nt)
            assert BALL.reaches(float(solve_forward(y0, u, f, g).norms[-1]))
            level = float(np.max(u.step_norms()))
            np.testing.assert_allclose(u.step_norms(), level, rtol=1e-12)
            assert dual_lower_bound(free, BALL) <= level <= M * (1.0 + 1e-12)
            levels.append(level / M)
    assert any(x == pytest.approx(1.0, rel=1e-12) for x in levels)
    assert any(x < 0.9 for x in levels)


def test_bangbang_ray_is_the_zero_control_when_the_free_run_reaches(solve_calls):
    y0 = 2.0 * dirichlet_eigs(SMALL, 1).eigenvectors[0]
    gamma = free_decay_time(y0, BALL, F_TANH, SMALL, nt=60)
    free = free_run(y0, 1.1 * gamma, 60, F_TANH, SMALL)
    free.trajectory  # solved here, before the calls are counted
    del solve_calls.forward[:], solve_calls.adjoint[:]
    u = bangbang_ray(free, BALL, 5.0)
    assert (u.nt, u.dt) == (60, 1.1 * gamma / 60) and not u.values.any()
    assert solve_calls.forward == [] and solve_calls.adjoint == []
    assert BALL.reaches(float(solve_forward(y0, u, F_TANH, SMALL).norms[-1]))


def test_warm_start_with_another_step_count_is_refused():
    ws = ControlSignal(dt=0.06 / 40, nt=40, values=np.full((40, GRID.n), -2.0), grid=GRID)
    with pytest.raises(ValueError, match="warm start has 40 steps, expected 120"):
        min_terminal_norm(free_run(Y0, 0.06, 120, F_ZERO, GRID), 3.0, BALL, warm_start=ws)


def test_degenerate_costate_skips_the_bangbang_start():
    # The control region holds only the grid point x = 0.5, where e2 vanishes,
    # so the masked costate of y0 = 2*e2 has no direction: the oracle skips
    # the full-amplitude start and still gives a conclusive answer.
    g = SpatialGrid.build(n=31, ell=1.0, omega=(0.49, 0.51))
    assert int(g.omega_mask.sum()) == 1
    y0 = 2.0 * dirichlet_eigs(g, 2).eigenvectors[1]
    T, nt = 0.01, 20
    free = free_run(y0, T, nt, F_ZERO, g)
    with pytest.raises(DegenerateCostateError):
        bangbang_values(free.masked, free.norms, -5.0)
    res = min_terminal_norm(free, 5.0, BALL)
    assert not res.feasible and res.converged
    assert res.terminal_norm == pytest.approx(float(free.trajectory.norms[-1]), rel=1e-9)
    # the dual pair and the bang-bang ray have no direction to follow either,
    # so a minimal-norm point falls back to doubling with the oracle, which
    # finds no bound that works
    assert dual_pair(free, BALL, never)[1:] == (math.inf, None)
    assert bangbang_ray(free, BALL, 5.0) is None
    with pytest.raises(NoFeasibleBoundError, match=r"norm bound 1\.15e\+18"):
        minimal_norm(Problem(y0, BALL, F_ZERO, g, nt=nt, gamma=1.0), T)


# ---------------------------------------------------------------------------
# Reference: the oracle before J, its gradient and the feasibility test each
# had one definition, and before the step rule became constants.  Its step
# rule is the spectral step in eager form: the gradient at an accepted iterate
# is solved right after acceptance and the next step taken from it at once.


def reference_min_terminal_norm(y0, T, M, ball, f, g, opts=ReachOptions(), nt=300,
                                warm_start=None, free=None):
    y0 = np.asarray(y0, dtype=float)
    dt = T / nt
    h = g.h
    r = ball.r
    eps_feas = ball.eps_feas_rel * r
    target_j = 0.5 * max(r - eps_feas, 0.0) ** 2

    def objective(traj):
        j = 0.5 * float(traj.norms[-1]) ** 2
        assert math.isfinite(j)
        return j, traj

    def run(values):
        return objective(solve_forward(y0, ControlSignal(dt=dt, nt=nt, values=values,
                                                         grid=g), f, g))

    if free is None and M > 0.0:
        free = free_run(y0, T, nt, f, g)
    v = np.zeros((nt, g.n))
    j, traj = run(v) if free is None else objective(free.trajectory)
    candidates = []
    if M > 0.0:
        try:
            candidates.append(bangbang_values(free.masked, free.norms, -M))
        except DegenerateCostateError:
            pass
        if warm_start is not None:
            ws = warm_start.values * g.omega_mask
            candidates.append(_project_values(ws, M, h))
    for cand in candidates:
        j_c, traj_c = run(cand)
        if j_c < j:
            v, j, traj = cand, j_c, traj_c
    history = [j]

    if M == 0.0:
        terminal = float(traj.norms[-1])
        return ReachResult(terminal_norm=terminal,
                           control=ControlSignal(dt=dt, nt=nt, values=v, grid=g),
                           iterations=0, feasible=terminal <= r + eps_feas,
                           converged=True, objective_history=tuple(history))

    step = 1.0 / principal_eigenvalue(g)
    step_cap = step * 1e4
    move_scale = M * math.sqrt(T)
    iterations = 0
    converged = False
    grad = None
    for _ in range(opts.max_iters):
        if j <= target_j:
            converged = True
            break
        if grad is None:
            psi = solve_adjoint(traj, traj.states[-1], f, g)
            grad = psi.costates[:nt] * g.omega_mask
        accepted = False
        for _ in range(45):
            trial = _project_values(v - step * grad, M, h)
            j_trial, traj_trial = run(trial)
            if j_trial <= j:
                accepted = True
                break
            step *= 0.5
        iterations += 1
        if not accepted:
            converged = True
            break
        move = math.sqrt(dt * h * float(np.sum((trial - v) ** 2)))
        psi = solve_adjoint(traj_trial, traj_trial.states[-1], f, g)
        grad_trial = psi.costates[:nt] * g.omega_mask
        s = trial - v
        curvature = float(np.sum(s * (grad_trial - grad)))
        if curvature > 0.0:
            step = min(float(np.sum(s * s)) / curvature, step_cap)
        else:
            step = min(step * 2.0, step_cap)
        v, j, traj, grad = trial, j_trial, traj_trial, grad_trial
        history.append(j)
        if move <= opts.eps_stag * move_scale:
            converged = True
            break
    else:
        converged = j <= target_j

    terminal = float(traj.norms[-1])
    return ReachResult(terminal_norm=terminal,
                       control=ControlSignal(dt=dt, nt=nt, values=v, grid=g),
                       iterations=iterations, feasible=terminal <= r + eps_feas,
                       converged=converged, objective_history=tuple(history))


def reference_gradient_fd_check(y0, T, v, direction, f, g, fd_step=1e-5):
    y0 = np.asarray(y0, dtype=float)
    nt = v.nt
    dt = T / nt

    def objective(values):
        traj = solve_forward(y0, ControlSignal(dt=dt, nt=nt, values=values, grid=g), f, g)
        return 0.5 * float(traj.norms[-1]) ** 2, traj

    j0, traj = objective(v.values)
    psi = solve_adjoint(traj, traj.states[-1], f, g)
    grad = psi.costates[:nt] * g.omega_mask
    adjoint_slope = dt * g.h * float(np.sum(grad * direction.values))
    j_plus, _ = objective(v.values + fd_step * direction.values)
    j_minus, _ = objective(v.values - fd_step * direction.values)
    fd_slope = (j_plus - j_minus) / (2.0 * fd_step)
    denom = max(abs(fd_slope), abs(adjoint_slope))
    if denom == 0.0:
        return 0.0
    return abs(adjoint_slope - fd_slope) / denom


def assert_same_result(res, ref):
    assert np.array_equal(res.control.values, ref.control.values)
    for attr in ("terminal_norm", "objective_history", "iterations", "feasible",
                 "converged"):
        assert getattr(res, attr) == getattr(ref, attr)


# At T=0.1 and M=30 the full-amplitude start overshoots, so the zero start wins.
ZERO_START_WINS = dict(T=0.1, M=30.0, nt=120)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("g, y0", [(GRID, Y0), (MASKED, Y0_MASKED)], ids=["full", "masked"])
@pytest.mark.parametrize("f", [F_ZERO, F_TANH], ids=["zero", "tanh"])
def test_oracle_matches_reference(f, g, y0, warm):
    T, M, nt = 0.06, 3.0, 120
    ws = (ControlSignal(dt=T / nt, nt=nt, values=np.full((nt, g.n), -2.0), grid=g)
          if warm else None)
    ref = reference_min_terminal_norm(y0, T, M, BALL, f, g, nt=nt, warm_start=ws)
    assert ref.iterations > 0
    assert_same_result(min_terminal_norm(free_run(y0, T, nt, f, g), M, BALL, warm_start=ws),
                       ref)


@pytest.mark.parametrize("case", [
    dict(ZERO_START_WINS),
    dict(ZERO_START_WINS, free=True),
    dict(ZERO_START_WINS, opts=ReachOptions(max_iters=1)),
], ids=["zero-start-wins", "zero-start-wins-shared", "out-of-iterations"])
def test_oracle_edge_cases_match_reference(case):
    case = dict(case)
    free = free_run(Y0, case["T"], case["nt"], F_ZERO, GRID)
    if case.pop("free", False):
        case["free"] = free
    ref = reference_min_terminal_norm(Y0, **case, ball=BALL, f=F_ZERO, g=GRID)
    res = min_terminal_norm(free, case["M"], BALL, case.get("opts", ReachOptions()))
    assert_same_result(res, ref)
    if "opts" in case:
        assert res.iterations == 1 and not res.converged


@pytest.mark.parametrize("shared", [False, True], ids=["own-free-run", "shared-free-run"])
def test_one_adjoint_per_descent_iteration(solve_calls, monkeypatch, shared):
    # The spectral step uses the gradient that the next iteration solves
    # anyway, so it adds no adjoint solve.
    T, M, nt = 0.06, 3.0, 120
    free = free_run(Y0_MASKED, T, nt, F_TANH, MASKED)
    if shared:
        free.masked  # read before the call, as the bang-bang ray reads it
    del solve_calls.adjoint[:]
    steps = []

    def recorded_step(*args):
        steps.append(_spectral_step(*args))
        return steps[-1]

    monkeypatch.setattr(reach, "_spectral_step", recorded_step)
    res = min_terminal_norm(free, M, BALL)
    accepted = len(res.objective_history) - 1
    assert accepted >= 3 and len(steps) == accepted - 1
    # the full-amplitude start wins, so the first iteration solves its gradient
    assert res.objective_history[0] < 0.5 * float(free.trajectory.norms[-1]) ** 2
    # the free run's costate is solved on first read: inside the call only
    # when no one read it before
    assert len(solve_calls.adjoint) == res.iterations + (not shared)
    assert (solve_calls.adjoint[0] is free.trajectory) == (not shared)


def test_one_adjoint_per_descent_iteration_when_the_zero_start_wins(solve_calls):
    # With control on (0.1, 0.4) the full-amplitude start at M = 100
    # overshoots, so the zero start wins.  Its first iteration still solves
    # its gradient, along the free run, after the free run's costate that
    # the full-amplitude start read (for f = 0 over the FreeRun's dt and nt
    # alone, from its closed-form terminal state); each later iteration
    # solves one.
    g = SpatialGrid.build(n=31, ell=1.0, omega=(0.1, 0.4))
    y0 = 2.0 * dirichlet_eigs(g, 1).eigenvectors[0]
    free = free_run(y0, 0.3 * free_decay_time(y0, BALL, F_ZERO, g, nt=60), 60, F_ZERO, g)
    res = min_terminal_norm(free, 100.0, BALL)
    assert res.objective_history[0] == 0.5 * float(free.trajectory.norms[-1]) ** 2
    assert res.iterations >= 2
    assert solve_calls.adjoint[0] is free
    along_free = [traj is free.trajectory for traj in solve_calls.adjoint[1:]]
    assert along_free == [True] + [False] * (res.iterations - 1)


def test_gradient_fd_check_matches_reference():
    rng = np.random.default_rng(16)
    nt, T = 100, 0.08
    for f in (F_ZERO, F_TANH):
        v = ControlSignal(dt=T / nt, nt=nt, values=rng.standard_normal((nt, MASKED.n)),
                          grid=MASKED)
        d = ControlSignal(dt=T / nt, nt=nt, values=rng.standard_normal((nt, MASKED.n)),
                          grid=MASKED)
        assert (gradient_fd_check(Y0_MASKED, T, v, d, f, MASKED, fd_step=1e-3)
                == reference_gradient_fd_check(Y0_MASKED, T, v, d, f, MASKED, fd_step=1e-3))


# ---------------------------------------------------------------------------
# Dual lower bound

@pytest.mark.parametrize("T", [0.03, 0.07, 0.1])
def test_dual_bound_of_the_free_run_is_the_discrete_one_mode_value(T):
    # One mode, full control, f = 0: the discrete optimum is constant full
    # thrust along e1, alpha_d = (q^nt a0 - r(1+eps)) / (dt * sum_{j=1..nt} q^j)
    # with q = 1 / (1 + dt*lambda_1h).
    nt, a0 = 300, 2.0
    dt = T / nt
    q = 1.0 / (1.0 + dt * principal_eigenvalue(GRID))
    rho = BALL.r * (1.0 + BALL.eps_feas_rel)
    alpha_d = (q ** nt * a0 - rho) / (dt * sum(q ** j for j in range(1, nt + 1)))
    bound = dual_lower_bound(free_run(Y0, T, nt, F_ZERO, GRID), BALL)
    assert bound <= alpha_d
    assert bound == pytest.approx(alpha_d, rel=1e-8)


def test_dual_bound_is_below_every_feasible_control():
    # Weak duality on the masked grid: no control the oracle returns as
    # feasible has a smaller largest step norm than LB(xi), for any xi, and
    # the terminal state of an infeasible one, simulated again from its
    # control, gives a bound above its M.
    rng = np.random.default_rng(8)
    nt = 60
    informative = 0
    for T in (0.03, 0.06, 0.1):
        free = free_run(Y0_MASKED, T, nt, F_ZERO, MASKED)
        y_free = free.trajectory.states[-1]
        feasible = []
        for M in (5.0, 10.0, 20.0, 40.0, 80.0):
            res = min_terminal_norm(free, M, BALL)
            if res.feasible:
                feasible.append(float(np.max(res.control.step_norms())))
            else:
                y_T = solve_forward(Y0_MASKED, res.control, F_ZERO, MASKED).states[-1]
                assert dual_lower_bound(free, BALL, xi=y_T) > M
        assert feasible
        data = [None, y_free, *(y_free + s * rng.standard_normal(MASKED.n)
                                for s in (0.01, 0.1, 1.0) for _ in range(3))]
        for xi in data:
            bound = dual_lower_bound(free, BALL, xi=xi)
            informative += bound > 0.0
            assert bound <= min(feasible)
    assert informative >= 15


def reference_dual_lower_bound(free, ball, f, g, xi=None):
    """The bound for f = 0 as it was before reaction terms, kept to check that
    the linear arithmetic did not change; y_free(T) is the closed-form
    ``free.terminal``, and the costates are solved along the simulated run."""
    traj, y_free = free.trajectory, free.terminal
    if xi is None:
        xi, norms = y_free, free.norms
    else:
        xi = np.asarray(xi, dtype=float)
        norms = step_l2_norms(masked_costate(solve_adjoint(traj, xi, f, g), g), g.h)
    rho = ball.r * (1.0 + ball.eps_feas_rel)
    pairing = g.h * float(y_free @ xi)
    slack = rho * math.sqrt(g.h * float(xi @ xi))
    total = traj.dt * float(np.sum(norms))
    numerator = pairing - slack - DUAL_ROUNDING * (abs(pairing) + slack)
    if numerator <= 0.0 or total <= 0.0:
        return 0.0
    return float(numerator / total)


@pytest.mark.parametrize("g, y0", [(GRID, Y0), (MASKED, Y0_MASKED)], ids=["full", "masked"])
def test_linear_dual_bound_keeps_every_bit(g, y0):
    rng = np.random.default_rng(9)
    for T in (0.03, 0.07, 0.1):
        free = free_run(y0, T, 60, F_ZERO, g)
        y_free = free.trajectory.states[-1]
        data = [None, *(y_free + s * rng.standard_normal(g.n) for s in (0.01, 1.0))]
        for xi in data:
            ref = reference_dual_lower_bound(free, BALL, F_ZERO, g, xi=xi)
            assert dual_lower_bound(free, BALL, xi=xi) == ref
        assert reference_dual_lower_bound(free, BALL, F_ZERO, g) > 0.0


def divided_difference_costate(free_traj, traj, xi, f, g):
    """psi_k = (I - dt*C_k) R psi_{k+1} from psi_nt = xi, where C_k holds the
    divided differences of f between the stages of ``traj`` and of the free
    run: the costate with which <y(T) - y_free(T), xi> = sum_k dt*<v_k, psi_k>."""
    z, z0 = traj.stage_states, free_traj.stage_states
    dz = z - z0
    moved = np.abs(dz) > 1e-12
    C = np.where(moved, (f.f(z) - f.f(z0)) / np.where(moved, dz, 1.0), f.fprime(z0))
    factor = diffusion_factor(g, traj.dt)
    costates = np.empty((traj.nt, g.n))
    psi = xi
    for k in range(traj.nt - 1, -1, -1):
        w = diffusion_solve(factor, psi)
        psi = w - traj.dt * C[k] * w
        costates[k] = psi
    return costates


@pytest.mark.parametrize("g, y0", [(GRID, Y0), (MASKED, Y0_MASKED)], ids=["full", "masked"])
@pytest.mark.parametrize("f", [F_TANH, F_RATIONAL], ids=["scaled_tanh", "bounded_odd_rational"])
def test_reaction_dual_bound_holds_for_random_admissible_controls(f, g, y0):
    # Weak duality with |f'| <= L: every control at level M satisfies
    # <y(T), xi> >= <y_free(T), xi> - M * sum_k dt*b_k, because b_k bounds
    # the costate along the divided differences of f between the two runs.
    rng = np.random.default_rng(21)
    nt = 60
    for T in (0.02, 0.05, 0.1):
        dt = T / nt
        free = solve_forward(y0, ControlSignal.zeros(nt, dt, g), f, g)
        xi = free.states[-1]
        psi0 = step_l2_norms(masked_costate(solve_adjoint(free, xi, F_ZERO, g), g), g.h)
        b = reaction_costate_bounds(psi0, math.sqrt(g.h * float(xi @ xi)), dt, f.L, g)
        assert np.all(b > psi0)
        total = dt * float(np.sum(b))
        free_pairing = g.h * float(xi @ xi)
        for M in (1.0, 10.0, 50.0):
            for _ in range(3):
                values = rng.standard_normal((nt, g.n)) * g.omega_mask
                values *= M * rng.uniform(0.5, 1.0, nt)[:, None] / step_l2_norms(values, g.h)[:, None]
                traj = solve_forward(y0, ControlSignal(dt=dt, nt=nt, values=values, grid=g), f, g)
                psi = divided_difference_costate(free, traj, xi, f, g)
                pairing = g.h * float(traj.states[-1] @ xi)
                assert pairing == pytest.approx(
                    free_pairing + dt * g.h * float(np.sum(values * psi)), rel=1e-9, abs=1e-12)
                assert np.all(step_l2_norms(psi * g.omega_mask, g.h) <= b)
                assert pairing >= free_pairing - M * total


@pytest.mark.parametrize("g, y0", [(GRID, Y0), (MASKED, Y0_MASKED)], ids=["full", "masked"])
@pytest.mark.parametrize("f", [F_TANH, F_RATIONAL], ids=["scaled_tanh", "bounded_odd_rational"])
def test_reaction_dual_bound_refutes_only_infeasible_bounds(f, g, y0):
    # No control the oracle returns as feasible is below the bound, and the
    # oracle finds every bound the dual bound refutes infeasible.
    nt = 60
    refuted = informative = 0
    for T in (0.03, 0.06, 0.1):
        free = free_run(y0, T, nt, f, g)
        bound = dual_lower_bound(free, BALL)
        # the bound solves a zero-reaction adjoint, not the run's own costate
        assert "masked" not in vars(free)
        informative += bound > 0.0
        for M in (0.5 * bound, 0.9 * bound, 20.0, 80.0):
            res = min_terminal_norm(free, M, BALL)
            if res.feasible:
                assert float(np.max(res.control.step_norms())) >= bound
            if M < bound:
                refuted += 1
                assert not res.feasible
    assert informative == 3 and refuted >= 6


def test_dual_bound_is_zero_when_the_costate_bound_overflows():
    # (q(1 + dt*L))^m overflows at L = 1e6; the bound is then 0, with no
    # floating-point warning or NaN on the way, also at a zero datum.
    f = make_nonlinearity("scaled_tanh", 1e6)
    nt = 300
    free = free_run(Y0, 0.1, nt, f, GRID)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert dual_lower_bound(free, BALL) == 0.0
        assert dual_lower_bound(free, BALL, xi=Y0) == 0.0
        assert dual_lower_bound(free, BALL, xi=np.zeros(GRID.n)) == 0.0


# ---------------------------------------------------------------------------
# Dual bound enclosure

ENCLOSURE_GRIDS = [SpatialGrid.build(n=31, ell=1.0, omega=omega)
                   for omega in (None, (0.3, 0.8), (0.1, 0.4))]


@pytest.mark.parametrize("g", ENCLOSURE_GRIDS, ids=["full", "masked", "narrow"])
@pytest.mark.parametrize("f", [F_ZERO, F_TANH, F_RATIONAL],
                         ids=["zero", "scaled_tanh", "bounded_odd_rational"])
def test_dual_bound_enclosure_holds_the_computed_bound(f, g):
    # Random initial states on the first four modes, horizons from 1e-3*gamma
    # to gamma: the enclosure holds the bound of the free run as computed,
    # both read from one FreeRun (for f = 0 its closed-form terminal state).
    rng = np.random.default_rng(18)
    modes = dirichlet_eigs(g, 4).eigenvectors
    positive_lo = finite_hi = 0
    for case in range(8):
        nt = (60, 300)[case % 2]
        y0 = rng.normal(size=4) @ modes
        y0 *= rng.uniform(1.0, 8.0) / math.sqrt(g.h * float(y0 @ y0))
        gamma = free_decay_time(y0, BALL, f, g, nt=nt)
        for T in (1e-3 * gamma, gamma * 10.0 ** rng.uniform(-3.0, 0.0), gamma):
            free = free_run(y0, T, nt, f, g)
            bound = dual_lower_bound(free, BALL)
            lo, hi = dual_bound_enclosure(free, BALL)
            assert lo <= bound <= hi, (case, T / gamma, lo, bound, hi)
            positive_lo += lo > 0.0
            finite_hi += hi < math.inf
    assert positive_lo >= 16 and finite_hi >= 9


@pytest.mark.parametrize("g", ENCLOSURE_GRIDS[:2], ids=["full", "masked"])
@pytest.mark.parametrize("f", [F_ZERO, F_TANH, F_RATIONAL],
                         ids=["zero", "scaled_tanh", "bounded_odd_rational"])
def test_dual_bound_enclosure_passes_its_step_norms_through_the_bound(monkeypatch, f, g):
    # Both ends are the bound's own N/D at a bracket of the step norms: at
    # the exact norms (zero spread) each end is the bound bit for bit, and
    # any bracket of them gives lo <= bound <= hi with no tolerance.
    rng = np.random.default_rng(23)
    modes = dirichlet_eigs(g, 3).eigenvectors
    bracket = []
    monkeypatch.setattr(reach, "_first_mode_bracket", lambda free: bracket[-1])
    checked = 0
    for case in range(4):
        y0 = rng.normal(size=3) @ modes
        y0 *= rng.uniform(2.0, 8.0) / math.sqrt(g.h * float(y0 @ y0))
        gamma = free_decay_time(y0, BALL, f, g, nt=60)
        for T in (0.01 * gamma, 0.3 * gamma):
            free = free_run(y0, T, 60, f, g)
            norms = step_l2_norms(
                masked_costate(solve_adjoint(free, free.terminal, F_ZERO, g), g), g.h)
            bound = dual_lower_bound(free, BALL, norms=norms)
            assert bound == dual_lower_bound(free, BALL) > 0.0
            bracket.append((norms, norms))
            assert dual_bound_enclosure(free, BALL) == (bound, bound)
            for spread in (1e-12, 1e-3, 0.5):
                lower = norms * (1.0 - spread * rng.uniform(size=norms.size))
                upper = norms * (1.0 + spread * rng.uniform(size=norms.size))
                bracket.append((lower, upper))
                lo, hi = dual_bound_enclosure(free, BALL)
                assert lo <= bound <= hi and lo < hi
                checked += 1
    assert checked == 24


def test_dual_bound_enclosure_is_tight_on_the_first_mode():
    # y0 = 2e1 on the full grid: xi has no component off e1, so the ends
    # differ only by the slack on the step norms.
    for T in (0.01, 0.05, 0.1):
        free = free_run(Y0, T, 300, F_ZERO, GRID)
        lo, hi = dual_bound_enclosure(free, BALL)
        assert 0.0 < lo <= dual_lower_bound(free, BALL) <= hi <= lo * (1.0 + 1e-4)


def test_dual_bound_enclosure_off_the_first_mode():
    # y0 = 2e2: a = 0, so the step norms have no positive lower end and hi
    # is infinite; on the full grid the costate is q2^m * xi exactly, which
    # the upper step norms hold up to the slack, so lo is nearly the bound.
    y0 = 2.0 * dirichlet_eigs(GRID, 2).eigenvectors[1]
    for T in (0.005, 0.02):
        free = free_run(y0, T, 300, F_ZERO, GRID)
        bound = dual_lower_bound(free, BALL)
        lo, hi = dual_bound_enclosure(free, BALL)
        assert bound * (1.0 - 1e-5) <= lo <= bound < hi == math.inf


def test_dual_bound_enclosure_is_zero_when_the_bound_is():
    # The costate bound overflows at L = 1e6; the numerator is negative from
    # inside the ball and at the free-decay time.  No floating-point warning.
    f = make_nonlinearity("scaled_tanh", 1e6)
    gamma = free_decay_time(Y0, BALL, F_ZERO, GRID)
    cases = [(Y0, 0.1, f), (0.4 * Y0 / 2.0, 0.1, F_ZERO), (Y0, gamma, F_ZERO)]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for y0, T, f in cases:
            free = free_run(y0, T, 300, f, GRID)
            assert dual_lower_bound(free, BALL) == 0.0
            assert dual_bound_enclosure(free, BALL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# Dual pair

def never(lo, hi):
    return False


@pytest.mark.parametrize("g, y0", [(GRID, Y0), (MASKED, Y0_MASKED)], ids=["full", "masked"])
def test_dual_pair_brackets_every_feasible_control(g, y0):
    # hi*w, simulated again, reaches the ball inside the DUAL_ROUNDING
    # margin with every step at norm hi; the oracle finds no control below
    # lo and none it finds feasible has a step norm below lo.  On the masked
    # grid the steps raise lo above the free run's bound and close the gap.
    nt = 60
    rho = BALL.r * (1.0 + BALL.eps_feas_rel)
    for T in (0.03, 0.06, 0.1):
        free = free_run(y0, T, nt, F_ZERO, g)
        lo, hi, u = dual_pair(free, BALL, never)
        assert (u.nt, u.dt) == (nt, T / nt)
        assert solve_forward(y0, u, F_ZERO, g).norms[-1] <= rho * (1.0 - 0.5 * DUAL_ROUNDING)
        np.testing.assert_allclose(u.step_norms(), hi, rtol=1e-12)
        assert 0.0 < hi - lo <= 1e-6 * hi
        bound = dual_lower_bound(free, BALL)
        if g is MASKED:
            assert lo > (1.0 + 1e-3) * bound
        else:
            assert lo == pytest.approx(bound, rel=1e-12)
        below = min_terminal_norm(free, 0.99 * lo, BALL)
        above = min_terminal_norm(free, 1.01 * hi, BALL)
        assert not below.feasible and above.feasible
        assert float(np.max(above.control.step_norms())) >= lo


def test_dual_pair_stops_once_done():
    # On the full grid the first step already closes the gap to the
    # rounding margins; done is consulted only with hi finite.
    free = free_run(Y0, 0.06, 60, F_ZERO, GRID)
    seen = []
    lo, hi, u = dual_pair(free, BALL,
                          lambda lo, hi: seen.append(hi) or hi - lo <= 1e-3 * hi)
    assert seen == [hi] and math.isfinite(hi) and u is not None


def test_dual_pair_keeps_only_a_control_that_reaches_the_ball(monkeypatch):
    # A negative rounding margin aims the level at a radius outside the
    # ball, so the run that certifies the control misses it.
    free = free_run(Y0_MASKED, 0.06, 60, F_ZERO, MASKED)
    assert dual_pair(free, BALL, never)[2] is not None
    monkeypatch.setattr(reach, "DUAL_ROUNDING", -1e-2)
    assert dual_pair(free, BALL, never)[1:] == (math.inf, None)


def test_dual_pair_with_a_reaction_term_is_the_bound_alone(solve_calls):
    free = free_run(Y0_MASKED, 0.06, 60, F_TANH, MASKED)
    free.trajectory  # solved here, before the calls are counted
    del solve_calls.forward[:]
    pair = dual_pair(free, BALL, never)
    assert solve_calls.forward == [] and len(solve_calls.adjoint) == 1
    assert pair == (dual_lower_bound(free, BALL), math.inf, None)


@pytest.mark.parametrize("g, y0", [(GRID, Y0), (MASKED, Y0_MASKED)], ids=["full", "masked"])
def test_linear_free_run_is_read_without_simulating_it(solve_calls, g, y0):
    # For f = 0 the terminal state is closed-form and the costate reads only
    # the run's dt and nt: the dual bound and the dual pair simulate no free
    # run, only the pair's control, once.  The run is simulated when read.
    free = free_run(y0, 0.06, 60, F_ZERO, g)
    assert not free.terminal.flags.writeable
    dual_lower_bound(free, BALL)
    u = dual_pair(free, BALL, never)[2]
    (simulated, _), = solve_calls.forward
    assert np.array_equal(simulated.values, u.values)
    assert solve_calls.adjoint and all(run is free for run in solve_calls.adjoint)
    traj = free.trajectory
    assert len(solve_calls.forward) == 2 and solve_calls.forward[1][1] is traj
