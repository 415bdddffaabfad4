"""Acceptance gate: end-to-end criteria at fixed tolerances.

Each test prints one [PASS]/[FAIL] line with the measured quantities and its
elapsed time (run pytest with -s to see them on success).  Shared instances:

* linear: no reaction term, control on the whole interval, initial data 2*e1,
  target radius 0.5 (the configuration with closed forms);
* nonlinear: tanh reaction with unit derivative bound, control supported on
  (0.3, 0.8), same initial data and radius.
"""

import math
import time

import numpy as np
import pytest

from heatctl import (
    ControlSignal,
    Problem,
    ScalarInstance,
    SpatialGrid,
    TargetBall,
    bangbang_report,
    bruteforce_minimal_norm_bracket,
    control_scaling_gap,
    dirichlet_eigs,
    free_decay_time,
    free_run,
    gradient_fd_check,
    make_nonlinearity,
    minimal_norm,
    minimal_time,
    minimal_time_curve,
    principal_eigenvalue,
    scalar_minimal_norm,
    scalar_minimal_time,
    solve_forward,
    verify_equivalence_bound,
    verify_equivalence_time,
)
from heatctl.reach import bangbang_ray

GRID = SpatialGrid.build(n=127, ell=1.0)
MASKED = SpatialGrid.build(n=127, ell=1.0, omega=(0.3, 0.8))
BALL = TargetBall(0.5)
F_ZERO = make_nonlinearity("zero")
F_TANH = make_nonlinearity("scaled_tanh", 1.0)
E1 = dirichlet_eigs(GRID, 1).eigenvectors[0]
E1_MASKED = dirichlet_eigs(MASKED, 1).eigenvectors[0]
Y0 = 2.0 * E1
Y0_MASKED = 2.0 * E1_MASKED
LAM1 = principal_eigenvalue(GRID)
INST = ScalarInstance(a0=2.0, r=0.5, lam=LAM1)


def report(criterion, ok, detail, elapsed, budget):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {criterion}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget:.0f}s budget"


@pytest.fixture(scope="module")
def gamma_linear():
    return free_decay_time(Y0, BALL, F_ZERO, GRID)


@pytest.fixture(scope="module")
def gamma_tanh():
    return free_decay_time(Y0_MASKED, BALL, F_TANH, MASKED)


@pytest.fixture(scope="module")
def roundtrips_linear(gamma_linear):
    gamma = gamma_linear
    problem = Problem(Y0, BALL, F_ZERO, GRID, gamma=gamma)
    times = [verify_equivalence_time(problem, c * gamma) for c in (0.3, 0.5, 0.7, 0.9)]
    bounds = [verify_equivalence_bound(problem, M) for M in (1.0, 3.0, 10.0, 30.0)]
    return times, bounds


@pytest.fixture(scope="module")
def roundtrips_tanh(gamma_tanh):
    gamma = gamma_tanh
    problem = Problem(Y0_MASKED, BALL, F_TANH, MASKED, gamma=gamma)
    times = [verify_equivalence_time(problem, c * gamma) for c in (0.3, 0.5, 0.7, 0.9)]
    bounds = [verify_equivalence_bound(problem, M) for M in (1.0, 3.0, 10.0, 30.0)]
    return times, bounds


def test_criterion_1_decay_envelope():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_ratio = 0.0
    nt, T = 400, 0.12
    dt = T / nt
    envelope_slack = 1.0 + 10.0 * dt
    bound_ok = True
    for f in (F_ZERO, F_TANH):
        for _ in range(10):
            y0 = rng.standard_normal(GRID.n)
            traj = solve_forward(y0, ControlSignal.zeros(nt, dt, GRID), f, GRID)
            envelope = traj.norms[0] * np.exp(-LAM1 * traj.times)
            ratio = float(np.max(traj.norms / np.maximum(envelope, 1e-300)))
            worst_ratio = max(worst_ratio, ratio)
            bound_ok = bound_ok and ratio <= envelope_slack

    nt_fine, T_fine = 2000, 0.1
    traj = solve_forward(E1, ControlSignal.zeros(nt_fine, T_fine / nt_fine, GRID),
                         F_ZERO, GRID)
    envelope = traj.norms[0] * np.exp(-LAM1 * traj.times)
    eig_rel_err = float(np.max(np.abs(traj.norms - envelope) / envelope))

    ok = bound_ok and eig_rel_err <= 1e-3
    report(1, ok,
           f"decay envelope: worst norm/envelope ratio {worst_ratio:.6f} "
           f"(allowed {envelope_slack:.6f}), eigenmode rel err {eig_rel_err:.2e} <= 1e-3",
           time.perf_counter() - started, 10.0)


def test_criterion_2_adjoint_gradient():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    nt, T = 250, 0.1
    dt = T / nt

    def pairs(f, fd_step):
        errs = []
        for _ in range(20):
            v = ControlSignal(dt=dt, nt=nt,
                              values=rng.standard_normal((nt, MASKED.n)), grid=MASKED)
            d = ControlSignal(dt=dt, nt=nt,
                              values=rng.standard_normal((nt, MASKED.n)), grid=MASKED)
            errs.append(gradient_fd_check(Y0_MASKED, T, v, d, f, MASKED,
                                          fd_step=fd_step))
        return max(errs)

    # the linear objective is exactly quadratic, so central differences carry
    # no truncation error and a wide step suppresses cancellation
    err_linear = pairs(F_ZERO, 5e-2)
    err_tanh = pairs(F_TANH, 1e-3)
    ok = err_linear <= 1e-9 and err_tanh <= 1e-6
    report(2, ok,
           f"adjoint gradient: max rel err linear {err_linear:.2e} <= 1e-9, "
           f"nonlinear {err_tanh:.2e} <= 1e-6",
           time.perf_counter() - started, 30.0)


def test_criterion_3_closed_form_agreement(gamma_linear):
    started = time.perf_counter()

    def dense_thrust_run(u, T, steps=20_000):
        dt = T / steps
        a = INST.a0
        for _ in range(steps):
            k1 = -INST.lam * a + u
            k2 = -INST.lam * (a + 0.5 * dt * k1) + u
            k3 = -INST.lam * (a + 0.5 * dt * k2) + u
            k4 = -INST.lam * (a + dt * k3) + u
            a += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return a

    gaps = []
    ok = True
    problem = Problem(Y0, BALL, F_ZERO, GRID, gamma=gamma_linear)
    for M in (1.0, 10.0, 100.0):
        target = scalar_minimal_time(INST, M)
        assert abs(dense_thrust_run(-M, target) - INST.r) < 1e-8
        point = minimal_time(problem, M)
        gap = abs(point.value - target) / target
        gaps.append(gap)
        ok = ok and gap <= 0.02
    for T in (0.03, 0.07, 0.1):
        target = scalar_minimal_norm(INST, T)
        assert abs(dense_thrust_run(-target, T) - INST.r) < 1e-8
        point = minimal_norm(problem, T)
        gap = abs(point.value - target) / target
        gaps.append(gap)
        ok = ok and gap <= 0.02
    report(3, ok,
           f"closed-form agreement: max rel gap {max(gaps):.2%} <= 2% "
           f"over 3 bounds and 3 horizons",
           time.perf_counter() - started, 300.0)


def test_criterion_4_equivalence_roundtrips(roundtrips_linear, roundtrips_tanh):
    started = time.perf_counter()
    worst_t = 0.0
    worst_m = 0.0
    for times, bounds in (roundtrips_linear, roundtrips_tanh):
        worst_t = max(worst_t, max(rep.residual / rep.T for rep in times))
        worst_m = max(worst_m, max(rep.relative_residual for rep in bounds))
    ok = worst_t <= 0.05 and worst_m <= 0.05
    report(4, ok,
           f"equivalence: max |roundtrip - T|/T {worst_t:.2%} and "
           f"max |roundtrip - M|/M {worst_m:.2%}, both <= 5% "
           f"(4 horizons + 4 bounds on each instance)",
           time.perf_counter() - started, 1200.0)


def test_criterion_5_monotonicity_and_limits():
    # Full control region here: with control on (0.3, 0.8) only, the energy
    # initially held outside the control region needs about 0.022 of the
    # free-decay time to drain by diffusion alone, so the 0.02 large-bound
    # target is out of reach for any solver on the masked instance.
    started = time.perf_counter()
    gamma = free_decay_time(Y0, BALL, F_TANH, GRID)
    curve = minimal_time_curve([0.0, 0.5, 1.0, 5.0, 10.0, 50.0],
                               Y0, BALL, F_TANH, GRID)
    values = [p.value for p in curve.points]
    strict = all(b < a for a, b in zip(values, values[1:]))
    problem = Problem(Y0, BALL, F_TANH, GRID, gamma=gamma)
    small = minimal_time(problem, 0.01)
    small_gap = abs(small.value - gamma) / gamma
    large = minimal_time(problem, 1000.0)
    ok = strict and small_gap <= 0.02 and large.value <= 0.02 * gamma
    report(5, ok,
           f"monotone limits: strictly decreasing {strict}, "
           f"value at bound 0.01 within {small_gap:.2%} of the free-decay time, "
           f"value at bound 1000 = {large.value / gamma:.4f} of it (<= 0.02)",
           time.perf_counter() - started, 1200.0)


def test_criterion_6_bangbang_controls(roundtrips_linear, roundtrips_tanh):
    started = time.perf_counter()
    fractions = []
    skipped = 0
    ok = True
    for times, _ in (roundtrips_linear, roundtrips_tanh):
        for rep in times:
            point = rep.norm_point
            if point.value <= 0.0 or point.control is None:
                continue
            if point.diagnostics.get("inconclusive", 0) > 0:
                skipped += 1  # not a converged control
                continue
            frac = bangbang_report(point.control, point.value, 0.05)
            fractions.append(frac)
            ok = ok and frac >= 0.95
    ok = ok and len(fractions) >= 6
    # Without a reaction term the control is the dual pair's, bang-bang at
    # exactly the upper end of the bracket.
    exact = [bangbang_report(rep.norm_point.control, rep.norm_point.bracket_hi, 1e-9)
             for rep in roundtrips_linear[0] if rep.norm_point.value > 0.0]
    ok = ok and len(exact) == 4 and min(exact) == 1.0
    # With the tanh reaction, a minimal-time control the bang-bang ray
    # settled at level M (the ray, run again at the upper end, returns it)
    # sits on |u(t)| = M: the paper's time-optimal property.
    times, bounds = roundtrips_tanh
    at_bound = []
    for point in [rep.time_point for rep in times] + [rep.time_point for rep in bounds]:
        u, M = point.control, point.parameter
        ray = bangbang_ray(free_run(Y0_MASKED, point.bracket_hi, u.nt, F_TANH, MASKED),
                           BALL, M)
        if (ray is not None and np.array_equal(ray.values, u.values)
                and np.max(u.step_norms()) == pytest.approx(M, rel=1e-12)):
            at_bound.append(bangbang_report(u, M, 1e-9))
    ok = ok and len(at_bound) >= 1 and min(at_bound) == 1.0
    report(6, ok,
           f"bang-bang: {len(fractions)} converged minimal-norm controls "
           f"({skipped} skipped after inconclusive probes), "
           f"worst in-band fraction {min(fractions):.3f} >= 0.95; "
           f"linear in-band fraction at 1e-9 around bracket_hi {min(exact):.3f} == 1; "
           f"{len(at_bound)} of 8 tanh minimal-time controls settled by the ray at M, "
           f"in-band fraction at 1e-9 around M {min(at_bound, default=0.0):.3f} == 1",
           time.perf_counter() - started, 60.0)


def test_criterion_7_bruteforce_brackets(gamma_linear):
    started = time.perf_counter()
    point_lin = minimal_norm(Problem(Y0, BALL, F_ZERO, GRID, gamma=gamma_linear), 0.1)
    bracket_lin = bruteforce_minimal_norm_bracket(
        Y0, 0.1, 1, 1, np.linspace(-4.5, 4.5, 19),
        [3.0, 3.5, 4.0, 4.5], F_ZERO, GRID, BALL)
    lin_ok = (bracket_lin.lower is not None and bracket_lin.upper is not None
              and bracket_lin.lower < point_lin.value <= bracket_lin.upper)

    point_tanh = minimal_norm(Problem(Y0, BALL, F_TANH, GRID), 0.1)
    bracket_tanh = bruteforce_minimal_norm_bracket(
        Y0, 0.1, 2, 2, np.arange(-4.0, 4.5, 0.5),
        [2.5, 3.0, 3.5, 4.0], F_TANH, GRID, BALL, n_steps=60)
    tanh_ok = (bracket_tanh.lower is not None and bracket_tanh.upper is not None
               and bracket_tanh.lower < point_tanh.value <= bracket_tanh.upper)

    ok = lin_ok and tanh_ok
    report(7, ok,
           f"brute-force brackets: linear value {point_lin.value:.4f} in "
           f"({bracket_lin.lower}, {bracket_lin.upper}], nonlinear value "
           f"{point_tanh.value:.4f} in ({bracket_tanh.lower}, {bracket_tanh.upper}]",
           time.perf_counter() - started, 600.0)


def test_criterion_8_scaling_gap_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(31415)
    nt, T, M = 300, 0.1, 2.0
    dt = T / nt
    worst = 0.0
    ok = True
    for _ in range(5):
        vals = rng.standard_normal((nt, MASKED.n))
        u = ControlSignal(dt=dt, nt=nt, values=vals, grid=MASKED)
        u = ControlSignal(dt=dt, nt=nt, values=vals * (M / u.step_norms().max()),
                          grid=MASKED)
        for theta in (0.5, 0.9):
            rep = control_scaling_gap(Y0_MASKED, u, theta, F_TANH, MASKED)
            ok = ok and rep.passed
            worst = max(worst, rep.sup_gap / rep.bound)
    report(8, ok,
           f"scaling gap: worst gap/bound ratio {worst:.3f} <= 1 over 5 controls "
           f"and two scale factors",
           time.perf_counter() - started, 120.0)
