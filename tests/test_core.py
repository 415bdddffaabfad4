import math

import numpy as np
import pytest

from heatctl import (
    ControlSignal,
    DimensionMismatchError,
    NonlinearitySpec,
    SpatialGrid,
    TargetBall,
    l2_norm,
    make_nonlinearity,
    validate_initial_state,
    validate_nonlinearity,
)

BUILTIN_KINDS = ("zero", "scaled_tanh", "bounded_odd_rational")


def test_grid_build_basics():
    g = SpatialGrid.build(n=127, ell=1.0)
    assert g.h * (g.n + 1) == pytest.approx(1.0, rel=1e-15)
    assert g.omega_mask.shape == (127,)
    assert np.all(g.omega_mask == 1.0)
    assert g.nodes[0] == pytest.approx(g.h)


def test_grid_mask_from_interval():
    g = SpatialGrid.build(n=9, ell=1.0, omega=(0.25, 0.75))
    # nodes at 0.1, 0.2, ..., 0.9; strict interior of (0.25, 0.75)
    expected = np.array([0, 0, 1, 1, 1, 1, 1, 0, 0], dtype=float)
    np.testing.assert_array_equal(g.omega_mask, expected)
    assert set(np.unique(g.omega_mask)) <= {0.0, 1.0}


def test_grid_rejects_empty_control_region():
    with pytest.raises(ValueError, match="empty"):
        SpatialGrid.build(n=3, ell=1.0, omega=(0.41, 0.48))


def test_grid_rejects_bad_interval():
    with pytest.raises(ValueError):
        SpatialGrid.build(n=3, ell=1.0, omega=(0.8, 0.3))
    with pytest.raises(ValueError):
        SpatialGrid.build(n=3, ell=1.0, omega=(0.0, 1.5))


def test_l2_norm_zero_vector():
    g = SpatialGrid.build(n=5)
    assert l2_norm(np.zeros(5), g) == 0.0


def test_l2_norm_all_ones():
    # sqrt(h * n) with n=3, h=0.25: hand evaluation sqrt(0.75)
    g = SpatialGrid.build(n=3, ell=1.0)
    assert l2_norm(np.ones(3), g) == pytest.approx(math.sqrt(0.75), rel=1e-15)


def test_l2_norm_normalization_identity():
    g = SpatialGrid.build(n=31)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(31)
    assert l2_norm(v / l2_norm(v, g), g) == pytest.approx(1.0, rel=1e-13)


def test_l2_norm_dimension_mismatch():
    g = SpatialGrid.build(n=5)
    with pytest.raises(DimensionMismatchError):
        l2_norm(np.zeros(4), g)


def test_l2_norm_absolute_homogeneity():
    g = SpatialGrid.build(n=17)
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.standard_normal(17)
        c = rng.standard_normal() * 10.0
        assert l2_norm(c * v, g) == pytest.approx(abs(c) * l2_norm(v, g), rel=1e-12)


def test_validate_nonlinearity_zero_kind():
    report = validate_nonlinearity(make_nonlinearity("zero"), np.linspace(-20, 20, 1001))
    assert report.passed
    assert report.max_abs_derivative == 0.0


def test_validate_nonlinearity_tanh():
    report = validate_nonlinearity(make_nonlinearity("scaled_tanh", 1.0),
                                   np.linspace(-15, 15, 5001))
    assert report.passed
    assert report.max_abs_derivative <= 1.0 + 1e-12
    assert report.min_sign_product >= 0.0


def test_validate_nonlinearity_rejects_sign_violation():
    bad = NonlinearitySpec(kind="custom", L=1.0,
                           f=lambda y: -y, fprime=lambda y: -np.ones_like(y))
    report = validate_nonlinearity(bad, np.linspace(-12, 12, 101))
    assert not report.sign_ok
    assert not report.passed
    assert report.min_sign_product < 0.0


def test_validate_nonlinearity_requires_wide_samples():
    f = make_nonlinearity("zero")
    with pytest.raises(ValueError):
        validate_nonlinearity(f, np.linspace(-1, 1, 100))
    with pytest.raises(ValueError):
        validate_nonlinearity(f, np.array([]))


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
def test_builtin_nonlinearities_pass_on_dense_sample(kind):
    f = make_nonlinearity(kind, 1.7)
    report = validate_nonlinearity(f, np.linspace(-50.0, 50.0, 10_000))
    assert report.passed


def test_make_nonlinearity_unknown_kind():
    with pytest.raises(ValueError):
        make_nonlinearity("cubic")


def test_initial_state_outside():
    g = SpatialGrid.build(n=15)
    v = np.ones(15)
    v *= 2.0 / l2_norm(v, g)
    check = validate_initial_state(v, TargetBall(0.5), g)
    assert check.ok
    assert check.norm == pytest.approx(2.0, rel=1e-12)


def test_initial_state_inside_reports_norm():
    g = SpatialGrid.build(n=15)
    v = np.ones(15)
    v *= 0.4 / l2_norm(v, g)
    check = validate_initial_state(v, TargetBall(0.5), g)
    assert not check.ok
    assert check.norm == pytest.approx(0.4, rel=1e-12)
    assert check.radius == 0.5


def test_initial_state_boundary_is_violation():
    # the ball is closed: a state sitting exactly on the sphere is rejected
    g = SpatialGrid.build(n=3, ell=1.0)
    norm = l2_norm(np.ones(3), g)
    check = validate_initial_state(np.ones(3), TargetBall(norm), g)
    assert not check.ok


def test_target_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        TargetBall(0.0)
    with pytest.raises(ValueError):
        TargetBall(-1.0)


@pytest.mark.parametrize("eps", [0.0, 1.0, 1e300, math.nan])
def test_target_ball_refuses_a_feasibility_slack_outside_zero_and_one(eps):
    # r(1 - eps_feas_rel), the oracle's early-stop radius, is 0 from 1 on.
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
        TargetBall(0.5, eps_feas_rel=eps)


def test_target_ball_acceptance_radius():
    ball = TargetBall(0.5, eps_feas_rel=1e-2)
    assert ball.rho == 0.5 * (1.0 + 1e-2)
    assert ball.reaches(0.5 + 1e-2 * 0.5) and not ball.reaches(0.506)
    assert TargetBall(0.5).eps_feas_rel == 1e-3


def test_control_signal_masks_off_region():
    g = SpatialGrid.build(n=9, ell=1.0, omega=(0.3, 0.8))
    rng = np.random.default_rng(2)
    u = ControlSignal(dt=0.01, nt=4, values=rng.standard_normal((4, 9)), grid=g)
    off = g.omega_mask == 0.0
    assert np.all(u.values[:, off] == 0.0)
    assert u.step_norms().shape == (4,)


def test_control_signal_values_frozen():
    g = SpatialGrid.build(n=5)
    u = ControlSignal.zeros(3, 0.01, g)
    with pytest.raises(ValueError):
        u.values[0, 0] = 1.0


def test_control_signal_shape_check():
    g = SpatialGrid.build(n=5)
    with pytest.raises(DimensionMismatchError):
        ControlSignal(dt=0.01, nt=3, values=np.zeros((3, 4)), grid=g)
