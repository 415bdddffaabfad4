import math

import numpy as np
import pytest

from heatctl import (
    EnumerationBudgetError,
    NonlinearitySpec,
    ScalarInstance,
    SpatialGrid,
    TargetBall,
    bruteforce_minimal_norm_bracket,
    dirichlet_eigs,
    make_nonlinearity,
    minimal_norm,
    principal_eigenvalue,
    scalar_minimal_norm,
    scalar_minimal_time,
)

PI2 = math.pi ** 2
INST = ScalarInstance(a0=2.0, r=0.5, lam=PI2)


def simulate_constant_thrust(inst, u, T, steps=20_000):
    """Dense RK4 run of a' = -lam*a + u; independent check of the closed forms."""
    dt = T / steps
    a = inst.a0

    def rhs(x):
        return -inst.lam * x + u

    for _ in range(steps):
        k1 = rhs(a)
        k2 = rhs(a + 0.5 * dt * k1)
        k3 = rhs(a + 0.5 * dt * k2)
        k4 = rhs(a + dt * k3)
        a += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return a


def test_scalar_minimal_time_reference_value():
    # (1/lam) * log((a0 + M/lam)/(r + M/lam)) at M=10, lam=pi^2
    value = scalar_minimal_time(INST, 10.0)
    assert value == pytest.approx(0.0697872, abs=1e-6)
    # dense simulation with full thrust lands on the radius at that time
    assert simulate_constant_thrust(INST, -10.0, value) == pytest.approx(0.5, abs=1e-9)


def test_scalar_minimal_norm_reference_value():
    value = scalar_minimal_norm(INST, 0.1)
    assert value == pytest.approx(3.8612879, abs=1e-6)
    assert simulate_constant_thrust(INST, -value, 0.1) == pytest.approx(0.5, abs=1e-9)


def test_scalar_minimal_time_zero_thrust_is_free_decay():
    assert scalar_minimal_time(INST, 0.0) == pytest.approx(math.log(4.0) / PI2, rel=1e-14)
    assert INST.free_decay_time == pytest.approx(math.log(4.0) / PI2, rel=1e-14)


def test_scalar_minimal_time_vanishes_for_huge_thrust():
    assert scalar_minimal_time(INST, 1e9) < 1e-8


def test_scalar_values_monotone():
    times = [scalar_minimal_time(INST, m) for m in (0.0, 1.0, 5.0, 25.0, 125.0)]
    assert all(b < a for a, b in zip(times, times[1:]))
    norms = [scalar_minimal_norm(INST, t) for t in (0.02, 0.05, 0.09, 0.13)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_scalar_composition_identities():
    rng = np.random.default_rng(10)
    for _ in range(20):
        T = rng.uniform(0.005, INST.free_decay_time)
        M = rng.uniform(0.0, 50.0)
        assert scalar_minimal_time(INST, scalar_minimal_norm(INST, T)) == pytest.approx(
            T, rel=1e-12, abs=1e-12)
        assert scalar_minimal_norm(INST, scalar_minimal_time(INST, M)) == pytest.approx(
            M, rel=1e-10, abs=1e-10)


def test_scalar_minimal_norm_at_free_decay_time_is_zero():
    assert scalar_minimal_norm(INST, INST.free_decay_time) == pytest.approx(0.0, abs=1e-12)


def test_scalar_minimal_norm_domain():
    with pytest.raises(ValueError):
        scalar_minimal_norm(INST, INST.free_decay_time * 1.001)
    with pytest.raises(ValueError):
        scalar_minimal_norm(INST, 0.0)
    with pytest.raises(ValueError):
        scalar_minimal_time(INST, -1.0)


def test_scalar_instance_validation():
    with pytest.raises(ValueError):
        ScalarInstance(a0=0.4, r=0.5, lam=1.0)
    with pytest.raises(ValueError):
        ScalarInstance(a0=2.0, r=0.5, lam=0.0)


# ---------------------------------------------------------------------------
# Brute-force enumeration

GRID = SpatialGrid.build(n=127, ell=1.0)
BALL = TargetBall(0.5)
F_ZERO = make_nonlinearity("zero")
Y0 = 2.0 * dirichlet_eigs(GRID, 1).eigenvectors[0]
INST_H = ScalarInstance(a0=2.0, r=0.5, lam=principal_eigenvalue(GRID))


def test_bruteforce_bracket_contains_closed_form():
    levels = [3.0, 3.5, 4.0, 4.5]
    bracket = bruteforce_minimal_norm_bracket(
        Y0, 0.1, 1, 1, np.linspace(-4.5, 4.5, 19), levels, F_ZERO, GRID, BALL)
    target = scalar_minimal_norm(INST_H, 0.1)
    assert bracket.lower is not None and bracket.upper is not None
    assert bracket.lower < target <= bracket.upper
    assert bracket.candidates == 19


def test_bruteforce_bracket_contains_solver_value():
    levels = [3.0, 3.5, 4.0, 4.5]
    bracket = bruteforce_minimal_norm_bracket(
        Y0, 0.1, 1, 1, np.linspace(-4.5, 4.5, 19), levels, F_ZERO, GRID, BALL)
    point = minimal_norm(0.1, Y0, BALL, F_ZERO, GRID)
    assert bracket.lower < point.value <= bracket.upper


def test_bruteforce_all_levels_infeasible():
    bracket = bruteforce_minimal_norm_bracket(
        Y0, 0.1, 1, 1, np.linspace(-1.0, 1.0, 9), [0.5, 1.0], F_ZERO, GRID, BALL)
    assert bracket.upper is None
    assert bracket.lower == 1.0


def test_bruteforce_all_levels_feasible():
    bracket = bruteforce_minimal_norm_bracket(
        Y0, 0.1, 1, 1, np.linspace(-6.0, 6.0, 25), [5.0, 6.0], F_ZERO, GRID, BALL)
    assert bracket.lower is None
    assert bracket.upper == 5.0


def test_bruteforce_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        bruteforce_minimal_norm_bracket(
            Y0, 0.1, 3, 3, np.linspace(-1, 1, 21), [1.0], F_ZERO, GRID, BALL)


def test_bruteforce_two_mode_nonlinear_bracket():
    """Two modes, two time slices, mild reaction term: the enumerated family
    still brackets the PDE solver's minimal norm on the aligned level grid."""
    f_tanh = make_nonlinearity("scaled_tanh", 1.0)
    amp = np.arange(-4.0, 4.5, 1.0)
    levels = [2.0, 3.0, 4.0]
    bracket = bruteforce_minimal_norm_bracket(
        Y0, 0.1, 2, 2, amp, levels, f_tanh, GRID, BALL, n_steps=80)
    point = minimal_norm(0.1, Y0, BALL, f_tanh, GRID)
    assert bracket.lower is not None and bracket.upper is not None
    assert bracket.lower < point.value <= bracket.upper


def test_bruteforce_integrates_custom_reaction_of_zero_kind():
    """Only the built-in zero reaction skips the reaction term; a custom spec
    that merely says kind="zero" gets the bracket of its callables."""
    grid = SpatialGrid.build(n=31, ell=1.0)
    y0 = 2.0 * dirichlet_eigs(grid, 1).eigenvectors[0]
    f, fprime = (lambda y: 5.0 * np.tanh(y)), (lambda y: 5.0 / np.cosh(y) ** 2)
    amp = np.linspace(-32.0, 32.0, 9)
    levels = [2.0, 4.0, 8.0, 16.0, 32.0]
    brackets = [
        bruteforce_minimal_norm_bracket(
            y0, 0.05, 2, 2, amp, levels,
            NonlinearitySpec(kind=kind, L=5.0, f=f, fprime=fprime), grid, BALL)
        for kind in ("zero", "custom")
    ]
    assert [(b.lower, b.upper) for b in brackets] == [(8.0, 16.0)] * 2
