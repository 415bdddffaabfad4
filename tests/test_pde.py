import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from heatctl import (
    ControlSignal,
    DimensionMismatchError,
    FreeRun,
    NonlinearitySpec,
    SolverDivergenceError,
    SpatialGrid,
    TargetBall,
    control_scaling_gap,
    decay_envelope_check,
    dirichlet_eigs,
    hitting_time,
    l2_norm,
    make_nonlinearity,
    principal_eigenvalue,
    solve_adjoint,
    solve_forward,
)
from heatctl.pde import (
    _sine_sums,
    diffusion_factor,
    diffusion_solve,
    linear_free_state,
    linear_response,
)

GRID = SpatialGrid.build(n=127, ell=1.0)
MASKED = SpatialGrid.build(n=63, ell=1.0, omega=(0.3, 0.8))
F_ZERO = make_nonlinearity("zero")
F_TANH = make_nonlinearity("scaled_tanh", 1.0)
F_RATIONAL = make_nonlinearity("bounded_odd_rational", 1.0)


def eigenmode(g, i=1):
    return dirichlet_eigs(g, i).eigenvectors[i - 1]


def laplacian_matrix(g):
    """Dense discrete negative Laplacian (for residual checks on small grids)."""
    a = np.zeros((g.n, g.n))
    idx = np.arange(g.n)
    a[idx, idx] = 2.0
    a[idx[:-1], idx[:-1] + 1] = -1.0
    a[idx[:-1] + 1, idx[:-1]] = -1.0
    return a / g.h ** 2


# ---------------------------------------------------------------------------
# Spectrum

def test_principal_eigenvalue_matches_tridiagonal_formula():
    # closed-form eigenvalue of the (1/h^2)[-1,2,-1] matrix
    h = GRID.h
    expected = (2.0 / h ** 2) * (1.0 - math.cos(math.pi * h))
    assert principal_eigenvalue(GRID) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(math.pi ** 2, rel=1e-4)  # within 0.01%


def test_eigenvalues_sorted_and_positive():
    spec = dirichlet_eigs(GRID, 10)
    assert spec.eigenvalues[0] > 0.0
    assert np.all(np.diff(spec.eigenvalues) > 0.0)


def test_eigenvectors_orthonormal():
    spec = dirichlet_eigs(GRID, 8)
    gram = GRID.h * spec.eigenvectors @ spec.eigenvectors.T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


def test_eigenpair_residuals():
    spec = dirichlet_eigs(MASKED, 12)
    a = laplacian_matrix(MASKED)
    for lam, vec in zip(spec.eigenvalues, spec.eigenvectors):
        residual = l2_norm(a @ vec - lam * vec, MASKED)
        assert residual <= 1e-10


def test_first_eigenvector_nonnegative():
    assert np.all(eigenmode(GRID) >= 0.0)


def test_too_many_eigenpairs_rejected():
    with pytest.raises(DimensionMismatchError):
        dirichlet_eigs(SpatialGrid.build(n=5), 6)


@pytest.mark.parametrize("n", [1, 2, 31, 127])
def test_leading_eigenpairs_do_not_depend_on_the_count(n):
    # The dual bound's enclosure takes two pairs and the linear minimal time
    # all n; the first two must agree bit for bit.
    g = SpatialGrid.build(n=n)
    k = min(2, n)
    few, every = dirichlet_eigs(g, k), dirichlet_eigs(g, n)
    assert np.array_equal(few.eigenvalues, every.eigenvalues[:k])
    assert np.array_equal(few.eigenvectors, every.eigenvectors[:k])


# ---------------------------------------------------------------------------
# Forward solve

def test_forward_eigenmode_matches_hand_recurrence():
    """Oracle: per-step scalar recurrence a_{k+1} = a_k / (1 + dt*lam1)."""
    lam1 = principal_eigenvalue(GRID)
    e1 = eigenmode(GRID)
    nt, T = 250, 0.1
    dt = T / nt
    traj = solve_forward(3.0 * e1, ControlSignal.zeros(nt, dt, GRID), F_ZERO, GRID)
    amp = 3.0
    for k in range(nt + 1):
        np.testing.assert_allclose(traj.states[k], amp * e1, atol=1e-12)
        amp /= 1.0 + dt * lam1


CLOSED_FORM_GRIDS = pytest.mark.parametrize(
    "n, omega", [(127, None), (127, (0.3, 0.8)), (63, (0.3, 0.8)), (100, (0.1, 0.4)),
                 (1, None)],
    ids=["full", "masked", "masked-63", "masked-100", "one-node"])


@CLOSED_FORM_GRIDS
def test_linear_free_state_matches_the_simulated_run(n, omega):
    # Random initial states on several modes, horizons from 1e-3 to 1 of the
    # time the first mode takes to decay fourfold, and step counts whose
    # high-mode powers underflow: the sine-transform closed form gives the
    # free run's last state to 1e-12 relative, with no floating-point
    # warning, and it is the terminal state of the f = 0 FreeRun, bit for bit.
    g = SpatialGrid.build(n=n, ell=1.0, omega=omega)
    rng = np.random.default_rng(18)
    modes = dirichlet_eigs(g, min(6, g.n)).eigenvectors
    tau = math.log(4.0) / principal_eigenvalue(g)
    for case in range(12):
        nt = (60, 300)[case % 2]
        y0 = (rng.normal(size=len(modes)) * [2.0, 1.0, 1.0, 0.5, 0.5, 0.5][:len(modes)]) @ modes
        T = tau * 10.0 ** rng.uniform(-3.0, 0.0)
        with np.errstate(all="raise"):
            closed = linear_free_state(y0, T / nt, nt, g)
            terminal = FreeRun(y0, T, nt, F_ZERO, g, TargetBall(0.5)).terminal
        run = solve_forward(y0, ControlSignal.zeros(nt, T / nt, g), F_ZERO, g).states[-1]
        assert l2_norm(closed - run, g) <= 1e-12 * l2_norm(run, g)
        assert np.array_equal(terminal, closed)


@CLOSED_FORM_GRIDS
def test_linear_response_matches_the_forward_solve(n, omega):
    # Random controls on the control region, horizons from 1e-3 to 1 of the
    # time the first mode takes to decay fourfold, and step counts whose
    # high-mode powers underflow: the sine-basis response from 0 is the
    # simulated run's last state to 1e-12 relative, with no floating-point
    # warning.
    g = SpatialGrid.build(n=n, ell=1.0, omega=omega)
    rng = np.random.default_rng(21)
    tau = math.log(4.0) / principal_eigenvalue(g)
    for case in range(8):
        nt = (60, 300)[case % 2]
        T = tau * 10.0 ** rng.uniform(-3.0, 0.0)
        u = ControlSignal(dt=T / nt, nt=nt, values=rng.normal(size=(nt, g.n)), grid=g)
        with np.errstate(all="raise"):
            closed = linear_response(u.values, u.dt, g)
        run = solve_forward(np.zeros(g.n), u, F_ZERO, g).states[-1]
        assert l2_norm(closed - run, g) <= 1e-12 * l2_norm(run, g)


@CLOSED_FORM_GRIDS
def test_linear_response_reads_the_eigenvalues_of_dirichlet_eigs(n, omega):
    # The response as it was computed from the eigenvalues of all n pairs of
    # dirichlet_eigs: the shared eigenvalue formula keeps it bit for bit.
    g = SpatialGrid.build(n=n, ell=1.0, omega=omega)
    rng = np.random.default_rng(22)
    lam = dirichlet_eigs(g, g.n).eigenvalues
    for nt, T in ((60, 0.01), (300, 0.2)):
        u = ControlSignal(dt=T / nt, nt=nt, values=rng.normal(size=(nt, g.n)), grid=g)
        steps = np.arange(nt, 0, -1, dtype=float)[:, None]
        with np.errstate(under="ignore"):
            weights = (1.0 + u.dt * lam) ** -steps
            coeffs = np.einsum("ki,ki->i", weights, _sine_sums(u.values))
            reference = (2.0 * u.dt * g.h / g.ell) * _sine_sums(coeffs)
        assert np.array_equal(linear_response(u.values, u.dt, g), reference)


def test_forward_zero_stays_zero():
    traj = solve_forward(np.zeros(GRID.n), ControlSignal.zeros(50, 1e-3, GRID),
                         F_TANH, GRID)
    assert np.all(traj.states == 0.0)


def test_forward_norms_cached_consistently():
    rng = np.random.default_rng(3)
    y0 = rng.standard_normal(GRID.n)
    traj = solve_forward(y0, ControlSignal.zeros(60, 1e-3, GRID), F_RATIONAL, GRID)
    recomputed = [l2_norm(s, GRID) for s in traj.states]
    np.testing.assert_allclose(traj.norms, recomputed, rtol=1e-13)
    np.testing.assert_array_equal(traj.states[0], y0)


@pytest.mark.parametrize("f", [F_ZERO, F_TANH, F_RATIONAL])
def test_uncontrolled_norms_never_grow(f):
    rng = np.random.default_rng(4)
    for _ in range(3):
        y0 = rng.standard_normal(GRID.n) * 2.0
        traj = solve_forward(y0, ControlSignal.zeros(200, 5e-4, GRID), f, GRID)
        assert np.all(traj.norms <= traj.norms[0] * (1.0 + 1e-12))


@pytest.mark.filterwarnings("ignore:overflow")
def test_forward_divergence_detected():
    # a reaction term far outside the dissipative class blows up the explicit step
    wild = NonlinearitySpec(kind="custom", L=1.0,
                            f=lambda y: -1e12 * y ** 3,
                            fprime=lambda y: -3e12 * y ** 2)
    with pytest.raises(SolverDivergenceError):
        with np.errstate(over="ignore", invalid="ignore"):
            solve_forward(2.0 * eigenmode(GRID), ControlSignal.zeros(40, 0.1, GRID),
                          wild, GRID)


def test_forward_dimension_check():
    with pytest.raises(DimensionMismatchError):
        solve_forward(np.zeros(3), ControlSignal.zeros(5, 1e-3, GRID), F_ZERO, GRID)


def test_grid_convergence_first_order():
    """Halving dt changes the terminal norm by O(dt): successive difference
    ratios sit around 2 across three refinements."""
    y0 = 2.0 * eigenmode(MASKED)
    profile = np.sin(3 * np.pi * MASKED.nodes) * MASKED.omega_mask
    T = 0.1
    norms = []
    for nt in (100, 200, 400, 800):
        u = ControlSignal(dt=T / nt, nt=nt, values=np.tile(profile, (nt, 1)),
                          grid=MASKED)
        norms.append(solve_forward(y0, u, F_TANH, MASKED).norms[-1])
    diffs = [norms[i] - norms[i + 1] for i in range(3)]
    for a, b in zip(diffs, diffs[1:]):
        assert 1.7 <= a / b <= 2.3


# ---------------------------------------------------------------------------
# Adjoint solve

def test_adjoint_eigenmode_closed_form():
    lam1 = principal_eigenvalue(GRID)
    e1 = eigenmode(GRID)
    nt, dt = 120, 1e-3
    traj = solve_forward(e1, ControlSignal.zeros(nt, dt, GRID), F_ZERO, GRID)
    psi = solve_adjoint(traj, e1, F_ZERO, GRID)
    for k in range(nt + 1):
        expected = (1.0 + dt * lam1) ** (-(nt - k)) * e1
        np.testing.assert_allclose(psi.costates[k], expected, atol=1e-13)


def test_adjoint_zero_datum():
    traj = solve_forward(eigenmode(GRID), ControlSignal.zeros(30, 1e-3, GRID),
                         F_TANH, GRID)
    psi = solve_adjoint(traj, np.zeros(GRID.n), F_TANH, GRID)
    assert np.all(psi.costates == 0.0)


def test_adjoint_linear_in_terminal_datum():
    rng = np.random.default_rng(5)
    traj = solve_forward(rng.standard_normal(MASKED.n),
                         ControlSignal(dt=1e-3, nt=40,
                                       values=rng.standard_normal((40, MASKED.n)),
                                       grid=MASKED),
                         F_TANH, MASKED)
    xi1 = rng.standard_normal(MASKED.n)
    xi2 = rng.standard_normal(MASKED.n)
    combo = solve_adjoint(traj, 2.0 * xi1 - 3.0 * xi2, F_TANH, MASKED)
    parts = (2.0 * solve_adjoint(traj, xi1, F_TANH, MASKED).costates
             - 3.0 * solve_adjoint(traj, xi2, F_TANH, MASKED).costates)
    np.testing.assert_allclose(combo.costates, parts, atol=1e-12)


@pytest.mark.parametrize("f", [F_ZERO, F_TANH, F_RATIONAL])
def test_adjoint_duality_identity(f):
    """Oracle: independent tangent propagation of the linearized step.

    <y_lin(T), xi> = <dy0, psi(0)> + sum_k dt <masked du_k, psi(t_k)>
    must hold to machine precision; this is the exactness of the discrete
    adjoint that the gradient layers rely on.
    """
    rng = np.random.default_rng(6)
    g = MASKED
    nt, dt = 90, 1.2e-3
    for _ in range(3):
        y0 = rng.standard_normal(g.n)
        u = ControlSignal(dt=dt, nt=nt, values=rng.standard_normal((nt, g.n)), grid=g)
        du = rng.standard_normal((nt, g.n)) * g.omega_mask
        dy0 = rng.standard_normal(g.n)
        xi = rng.standard_normal(g.n)

        traj = solve_forward(y0, u, f, g)
        psi = solve_adjoint(traj, xi, f, g)

        factor = diffusion_factor(g, dt)
        d = dy0.copy()
        for k in range(nt):
            dz = d + dt * du[k]
            d = diffusion_solve(factor, dz - dt * f.fprime(traj.stage_states[k]) * dz)
        lhs = g.h * float(d @ xi)
        rhs = g.h * float(dy0 @ psi.costates[0]) + dt * g.h * float(np.sum(du * psi.costates[:nt]))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# Bit identity of the integrators with the plain per-step formulas

def reference_forward(y0, u, f, g):
    """One scipy banded solve per step, written as the scheme reads."""
    factor = diffusion_factor(g, u.dt)
    dt = u.dt
    states = np.empty((u.nt + 1, g.n))
    stages = np.empty((u.nt, g.n))
    states[0] = y0
    y = y0
    for k in range(u.nt):
        z = y + dt * u.values[k]
        stages[k] = z
        y = cho_solve_banded((factor, False), z - dt * f.f(z), check_finite=False)
        states[k + 1] = y
    norms = np.sqrt(g.h * np.einsum("ij,ij->i", states, states))
    return states, stages, norms


def reference_adjoint(stages, xi, f, g, dt):
    factor = diffusion_factor(g, dt)
    nt = stages.shape[0]
    costates = np.empty((nt + 1, g.n))
    costates[nt] = xi
    psi = xi
    for k in range(nt - 1, -1, -1):
        w = cho_solve_banded((factor, False), psi, check_finite=False)
        psi = w - dt * f.fprime(stages[k]) * w
        costates[k] = psi
    return costates


def assert_bit_identical(y0, u, xi, f, g):
    states, stages, norms = reference_forward(y0, u, f, g)
    traj = solve_forward(y0, u, f, g)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.stage_states, stages)
    assert np.array_equal(traj.norms, norms)
    psi = solve_adjoint(traj, xi, f, g)
    assert np.array_equal(psi.costates, reference_adjoint(stages, xi, f, g, u.dt))


@pytest.mark.parametrize("f", [F_ZERO, F_TANH, F_RATIONAL], ids=lambda f: f.kind)
@pytest.mark.parametrize("g", [GRID, MASKED], ids=["full", "masked"])
def test_integrators_bit_identical_to_step_formula(f, g):
    rng = np.random.default_rng(11)
    nt, dt = 70, 1.3e-3
    y0 = 3.0 * rng.standard_normal(g.n)
    u = ControlSignal(dt=dt, nt=nt, values=5.0 * rng.standard_normal((nt, g.n)), grid=g)
    assert_bit_identical(y0, u, rng.standard_normal(g.n), f, g)


def test_custom_zero_kind_with_reaction_is_integrated():
    # only the built-in zero reaction is skipped, whatever the kind says
    fake = NonlinearitySpec(kind="zero", L=1.0, f=lambda y: np.tanh(y),
                            fprime=lambda y: 1.0 - np.tanh(y) ** 2)
    rng = np.random.default_rng(12)
    nt, dt = 40, 2e-3
    y0 = 3.0 * rng.standard_normal(MASKED.n)
    u = ControlSignal(dt=dt, nt=nt, values=rng.standard_normal((nt, MASKED.n)), grid=MASKED)
    xi = rng.standard_normal(MASKED.n)
    assert_bit_identical(y0, u, xi, fake, MASKED)
    assert not np.array_equal(solve_forward(y0, u, fake, MASKED).states,
                              solve_forward(y0, u, F_ZERO, MASKED).states)


@pytest.mark.parametrize("length", [GRID.n - 1, GRID.n + 1])
def test_diffusion_solve_rejects_wrong_length(length):
    factor = diffusion_factor(GRID, 1e-3)
    with pytest.raises(ValueError, match="length"):
        diffusion_solve(factor, np.ones(length))


def banded_operator(g, dt):
    """I + dt*A in the upper banded storage of ``cholesky_banded``."""
    r = dt / g.h ** 2
    ab = np.zeros((2, g.n))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    return ab


@pytest.mark.parametrize("g, dt", [(GRID, 1e-3), (GRID, 1.0 / 3.0), (MASKED, 3.3e-4),
                                   (SpatialGrid.build(n=1, ell=2.0), 0.07)])
def test_diffusion_factor_is_scipys_cholesky_banded(g, dt):
    assert np.array_equal(diffusion_factor(g, dt),
                          cholesky_banded(banded_operator(g, dt), lower=False))


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_diffusion_factor_refuses_a_non_finite_step(dt):
    with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
        diffusion_factor(GRID, dt)


def test_diffusion_factor_refuses_an_indefinite_operator():
    # dt = -h^2 makes the first diagonal entry 1 - 2 = -1
    dt = -GRID.h ** 2
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_banded(banded_operator(GRID, dt), lower=False)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        diffusion_factor(GRID, dt)


def test_importing_heatctl_leaves_scipy_linalg_out():
    # scipy.linalg's import took half the start of the CLI; pde takes its
    # two LAPACK routines from the extension module alone.
    code = ("import sys, heatctl, heatctl.cli; "
            "print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout.split() == ["False", "False"]


# ---------------------------------------------------------------------------
# Hitting times

def test_hitting_time_already_inside():
    e1 = eigenmode(GRID)
    traj = solve_forward(0.3 * e1, ControlSignal.zeros(20, 1e-3, GRID), F_ZERO, GRID)
    assert hitting_time(traj, TargetBall(0.5)) == 0.0


def test_hitting_time_eigenmode_decay():
    # continuum value ln(4)/lam1; backward Euler adds an O(dt) delay
    lam1 = principal_eigenvalue(GRID)
    target = math.log(4.0) / lam1
    nt = 400
    traj = solve_forward(2.0 * eigenmode(GRID),
                         ControlSignal.zeros(nt, 1.3 * target / nt, GRID),
                         F_ZERO, GRID)
    t = hitting_time(traj, TargetBall(0.5))
    assert t == pytest.approx(target, rel=0.01)


def test_hitting_time_interpolates_inside_bracket():
    traj = solve_forward(2.0 * eigenmode(GRID),
                         ControlSignal.zeros(300, 1e-3, GRID), F_ZERO, GRID)
    r = 0.9
    t = hitting_time(traj, TargetBall(r))
    k = int(t / traj.dt)
    assert traj.norms[k] > r >= traj.norms[k + 1]


def test_hitting_time_none_when_never_crossing():
    traj = solve_forward(2.0 * eigenmode(GRID),
                         ControlSignal.zeros(50, 1e-4, GRID), F_ZERO, GRID)
    assert hitting_time(traj, TargetBall(0.5)) is None


# ---------------------------------------------------------------------------
# Envelope and energy bounds

def test_envelope_tight_on_eigenmode():
    nt, T = 2000, 0.1
    traj = solve_forward(eigenmode(GRID), ControlSignal.zeros(nt, T / nt, GRID),
                         F_ZERO, GRID)
    report = decay_envelope_check(traj, GRID, tol=1e-3)
    assert report.passed
    assert report.max_gap >= 0.0  # backward Euler sits just above the envelope


def test_envelope_holds_for_tanh():
    nt, T = 400, 0.12
    traj = solve_forward(2.0 * eigenmode(GRID), ControlSignal.zeros(nt, T / nt, GRID),
                         F_TANH, GRID)
    assert decay_envelope_check(traj, GRID, tol=1e-3).passed


def test_envelope_trivial_for_zero_state():
    traj = solve_forward(np.zeros(GRID.n), ControlSignal.zeros(50, 1e-3, GRID),
                         F_TANH, GRID)
    assert decay_envelope_check(traj, GRID, tol=1e-3).passed


@pytest.mark.parametrize("f", [F_ZERO, F_TANH, F_RATIONAL])
def test_envelope_with_step_slack_on_random_data(f):
    nt, T = 400, 0.12
    dt = T / nt
    lam1 = principal_eigenvalue(GRID)
    rng = np.random.default_rng(7)
    for _ in range(3):
        y0 = rng.standard_normal(GRID.n)
        traj = solve_forward(y0, ControlSignal.zeros(nt, dt, GRID), f, GRID)
        envelope = traj.norms[0] * np.exp(-lam1 * traj.times)
        assert np.all(traj.norms <= (1.0 + 10.0 * dt) * envelope + 1e-15)


def test_scaling_gap_bound():
    rng = np.random.default_rng(9)
    nt, T = 200, 0.1
    dt = T / nt
    u = ControlSignal(dt=dt, nt=nt,
                      values=2.0 * rng.standard_normal((nt, MASKED.n)), grid=MASKED)
    for theta in (0.5, 0.9):
        report = control_scaling_gap(2.0 * eigenmode(MASKED), u, theta, F_TANH, MASKED)
        assert report.passed
        assert report.sup_gap <= report.bound


def test_ball_invariance_under_free_decay():
    # once inside with no control, the norm keeps shrinking
    traj = solve_forward(0.45 * eigenmode(GRID), ControlSignal.zeros(200, 1e-3, GRID),
                         F_TANH, GRID)
    assert np.all(np.diff(traj.norms) <= 1e-15)
    assert np.all(traj.norms <= 0.5)
