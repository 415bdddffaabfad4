"""Forward and adjoint integrators for the controlled 1D semilinear heat equation.

Space: standard second-order finite differences on the interior nodes of a
uniform Dirichlet grid.  Time: backward Euler for diffusion (unconditionally
stable and monotone), explicit evaluation of the reaction term.  Each forward
step is

    z_k   = y_k + dt * (masked control profile)
    y_k+1 = (I + dt*A)^{-1} (z_k - dt * f(z_k))

where A is the discrete negative Laplacian.  The reaction is evaluated at the
source-augmented stage z_k, and z_k is cached on the trajectory, so the
transposed step operators give a discrete adjoint whose duality identity
holds to machine precision (see :func:`solve_adjoint`).

The step loops are the hot path of every value computation, so they carry
no work that a step does not need, without changing any floating-point
operation or its order:

* :func:`diffusion_solve` calls LAPACK ``dpbtrs`` directly (looked up once at
  import) with the length and ``info`` checks that ``cho_solve_banded`` makes,
  instead of going through the scipy wrapper;
* :func:`solve_forward` forms ``dt * u.values`` once for all steps and adds
  each state into that row in place, which becomes the cached stage;
* :func:`solve_adjoint` forms ``dt * f'(z_k)`` once for all stages;
* both skip the reaction (resp. its derivative) when it is the built-in
  :func:`~heatctl.core.zero_reaction`.

States, stages, norms and costates are bit-identical to the plain per-step
formulas above (the tests keep that loop as the reference).  The one
exception is the adjoint with the zero reaction, whose skipped update
``w - 0*w`` would turn a ``-0.0`` entry into ``+0.0`` and an infinite one
into NaN.

LAPACK ``dpbtrf`` (the factor) and ``dpbtrs`` (the solve) are taken from
scipy's compiled extension ``scipy.linalg._flapack``, loaded from its file
without running the ``scipy.linalg`` package: importing that package costs
about 0.25 s and 18 MB (most of it numpy modules pulled in by scipy's
array-API layer) for two routines.  They are the same f2py objects that
``cholesky_banded`` and ``get_lapack_funcs`` return, so the steps do not
change; :func:`diffusion_factor` makes the checks ``cholesky_banded`` makes.
A test in ``tests/test_pde.py`` asserts that importing heatctl leaves
``scipy.linalg`` out of ``sys.modules``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from .core import (
    ControlSignal,
    DimensionMismatchError,
    NonlinearitySpec,
    SolverDivergenceError,
    SpatialGrid,
    StateTrajectory,
    TargetBall,
    step_l2_norms,
    zero_reaction,
)


def _load_flapack():
    """scipy's LAPACK extension module, executed without its package.

    The extension enters itself in ``sys.modules`` as it loads; that entry is
    taken out again, since its package is not there to hold it, and a later
    ``import scipy.linalg`` loads it as a submodule as usual.
    """
    name = "scipy.linalg._flapack"
    finder = importlib.machinery.FileFinder(
        f"{scipy.__path__[0]}/linalg",
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension {name} was not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


_flapack = _load_flapack()
_pbtrf, _pbtrs = _flapack.dpbtrf, _flapack.dpbtrs


@dataclass(frozen=True)
class DirichletSpectrum:
    """Leading eigenpairs of the discrete negative Laplacian.

    Eigenvalues are sorted increasingly; eigenvectors are rows, orthonormal in
    the h-weighted inner product, with a nonnegative first component.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class AdjointTrajectory:
    """Backward costate trajectory; costates[nt] is the terminal datum."""

    dt: float
    nt: int
    costates: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.costates, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "costates", arr)
        if self.costates.shape[0] != self.nt + 1:
            raise DimensionMismatchError("adjoint trajectory must hold nt+1 costates")


def _eigenvalues(g: SpatialGrid, k: int) -> np.ndarray:
    """lambda_i = (2/h^2)(1 - cos(i*pi*h/ell)) for i = 1..k."""
    return (2.0 / g.h ** 2) * (1.0 - np.cos(np.arange(1, k + 1) * np.pi * g.h / g.ell))


def dirichlet_eigs(g: SpatialGrid, k: int) -> DirichletSpectrum:
    """First k eigenpairs of the tridiagonal (1/h^2)[-1, 2, -1] operator.

    Closed forms on the uniform grid: lambda_i = (2/h^2)(1 - cos(i*pi*h/ell))
    and discretely normalized sine vectors.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > g.n:
        raise DimensionMismatchError(f"requested {k} eigenpairs on a grid with n={g.n}")
    vecs = np.array([_sine_vector(g, i) for i in range(1, k + 1)])
    return DirichletSpectrum(eigenvalues=_eigenvalues(g, k), eigenvectors=vecs)


def _sine_vector(g: SpatialGrid, i: int) -> np.ndarray:
    """The i-th discretely normalized sine vector sqrt(2/ell) sin(i*j*pi/(n+1)),
    j = 1..n: row i - 1 of :func:`dirichlet_eigs`, without the rows before it."""
    return np.sin(i * np.arange(1, g.n + 1) * np.pi / (g.n + 1)) * math.sqrt(2.0 / g.ell)


def _sine_sums(x: np.ndarray) -> np.ndarray:
    """sum_j x[..., j-1] * sin(pi*i*j/(n+1)) for i = 1..n along the last axis,
    of length n: the sine transform DST-I, less its factor 2, as the
    imaginary part of a zero-padded real FFT."""
    n = x.shape[-1]
    padded = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    padded[..., 1:n + 1] = x
    return -np.fft.rfft(padded)[..., 1:n + 1].imag


def linear_free_state(y0: np.ndarray, dt: float, nt: int, g: SpatialGrid) -> np.ndarray:
    """The state after nt uncontrolled steps of dt on g from y0 with the zero
    reaction.

    Each step of the scheme applies (I + dt*A)^{-1}, which scales the sine
    vector e_i of :func:`dirichlet_eigs` by 1/(1 + dt*lambda_i), so the state
    is sum_i (1 + dt*lambda_i)^(-nt) <y0, e_i>_h e_i: :func:`solve_forward`'s
    last state up to rounding.  Both products with the sine vectors are sine
    transforms (:func:`_sine_sums`), so no n x n matrix is built.  Powers of
    high modes may underflow; that raises no floating-point error, as what
    they round to is negligible in the sum.
    """
    with np.errstate(under="ignore"):
        weights = (1.0 + dt * _eigenvalues(g, g.n)) ** -float(nt)
        return (2.0 * g.h / g.ell) * _sine_sums(weights * _sine_sums(y0))


def linear_response(values: np.ndarray, dt: float, g: SpatialGrid) -> np.ndarray:
    """The state after len(values) steps of dt on g from 0 with the zero
    reaction, step k adding dt*values[k].

    In the sine basis e_i of :func:`dirichlet_eigs`, with
    q_i = 1/(1 + dt*lambda_i) and nt = len(values), the state is
    sum_i (dt * sum_k q_i^(nt-k) <values[k], e_i>_h) e_i: up to rounding the
    last state of :func:`solve_forward` from 0 with a control of these
    values, when they vanish off its control region (a
    :class:`~heatctl.core.ControlSignal` zeroes them there).  The products
    with the sine vectors are sine transforms (:func:`_sine_sums`), by FFT
    rather than as one nt x n by n x n matrix product, which a
    multi-threaded BLAS can make slower than the forward solve itself.
    Powers may underflow, as in :func:`linear_free_state`.
    """
    steps = np.arange(len(values), 0, -1, dtype=float)[:, None]
    with np.errstate(under="ignore"):
        weights = (1.0 + dt * _eigenvalues(g, g.n)) ** -steps
        coeffs = np.einsum("ki,ki->i", weights, _sine_sums(values))
        return (2.0 * dt * g.h / g.ell) * _sine_sums(coeffs)


def principal_eigenvalue(g: SpatialGrid) -> float:
    """Smallest eigenvalue of the discrete negative Laplacian."""
    return (2.0 / g.h ** 2) * (1.0 - math.cos(math.pi * g.h / g.ell))


def diffusion_factor(g: SpatialGrid, dt: float):
    """Banded Cholesky factor of (I + dt*A), reused across time steps.

    LAPACK ``dpbtrf`` with the checks of ``scipy.linalg.cholesky_banded``:
    ValueError on a non-finite entry, :class:`numpy.linalg.LinAlgError` when
    I + dt*A is not positive definite.
    """
    r = dt / g.h ** 2
    ab = np.zeros((2, g.n))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    factor, info = _pbtrf(ab)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpbtrf")
    return factor


def diffusion_solve(factor, b: np.ndarray) -> np.ndarray:
    """Apply (I + dt*A)^{-1}; the operator is symmetric.

    LAPACK does not check the length of ``b`` (a longer one comes back wrong
    with ``info = 0``, a shorter one only makes it print an error), so the
    length is checked here.
    """
    if len(b) != factor.shape[1]:
        raise ValueError(f"right-hand side has length {len(b)}, expected {factor.shape[1]}")
    x, info = _pbtrs(factor, b)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpbtrs")
    return x


def solve_forward(y0: np.ndarray, u: ControlSignal, f: NonlinearitySpec,
                  g: SpatialGrid) -> StateTrajectory:
    """Integrate the controlled equation over the control's time grid.

    Raises :class:`SolverDivergenceError` on non-finite states, which cannot
    occur for a dissipative reaction term unless dt is far too large.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (g.n,):
        raise DimensionMismatchError(f"initial state has shape {y0.shape}, expected ({g.n},)")
    if u.grid.n != g.n:
        raise DimensionMismatchError("control was built on a different grid")
    nt, dt = u.nt, u.dt
    factor = diffusion_factor(g, dt)
    states = np.empty((nt + 1, g.n))
    stages = dt * u.values
    states[0] = y0
    y = y0
    reacts = f.f is not zero_reaction
    for k in range(nt):
        z = np.add(y, stages[k], out=stages[k])
        y = diffusion_solve(factor, z - dt * f.f(z) if reacts else z)
        states[k + 1] = y
    if not np.isfinite(states).all():
        raise SolverDivergenceError("forward solve produced non-finite states; reduce dt")
    norms = step_l2_norms(states, g.h)
    return StateTrajectory(dt=dt, nt=nt, states=states, norms=norms, stage_states=stages)


def solve_adjoint(y: StateTrajectory, xi: np.ndarray, f: NonlinearitySpec,
                  g: SpatialGrid) -> AdjointTrajectory:
    """Exact discrete adjoint of the forward scheme linearized along y.

    Runs terminal-to-initial with the transposed step operators and the
    reaction derivative frozen at the cached stage states.  It is linear in
    the terminal datum and satisfies, for tangent perturbations (dy0, du) with
    linearized response y_lin,

        <y_lin(T), xi> = <dy0, psi(0)> + sum_k dt * <masked du(t_k), psi(t_k)>

    to machine precision; this identity is what the reachability gradients
    rely on.  With the zero reaction only y's dt and nt are read, so y may
    be anything that has them, such as a :class:`heatctl.reach.FreeRun`
    whose run was never simulated.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (g.n,):
        raise DimensionMismatchError(f"terminal datum has shape {xi.shape}, expected ({g.n},)")
    nt, dt = y.nt, y.dt
    factor = diffusion_factor(g, dt)
    costates = np.empty((nt + 1, g.n))
    costates[nt] = xi
    psi = xi
    if f.fprime is zero_reaction:
        for k in range(nt - 1, -1, -1):
            psi = diffusion_solve(factor, psi)
            costates[k] = psi
    else:
        dt_fprime = dt * f.fprime(y.stage_states)
        for k in range(nt - 1, -1, -1):
            w = diffusion_solve(factor, psi)
            psi = np.subtract(w, np.multiply(dt_fprime[k], w, out=dt_fprime[k]),
                              out=costates[k])
    return AdjointTrajectory(dt=dt, nt=nt, costates=costates)


def hitting_time(y: StateTrajectory, ball: TargetBall) -> float | None:
    """First time the cached norm trajectory crosses into the ball.

    Sub-step resolution by linear interpolation of the norm between the
    bracketing steps; None when there is no crossing on the horizon.
    """
    norms = y.norms
    r = ball.r
    if norms[0] <= r:
        return 0.0
    inside = np.nonzero(norms <= r)[0]
    if inside.size == 0:
        return None
    k = int(inside[0])
    n_prev, n_here = norms[k - 1], norms[k]
    frac = (n_prev - r) / (n_prev - n_here)
    return (k - 1 + frac) * y.dt


@dataclass(frozen=True)
class EnvelopeReport:
    """Gap between the norm trajectory and its exponential decay envelope."""

    max_gap: float
    limit: float
    initial_norm: float
    passed: bool


def decay_envelope_check(y: StateTrajectory, g: SpatialGrid, tol: float) -> EnvelopeReport:
    """max_k (||y(t_k)|| - e^{-lambda_1 t_k} ||y0||); passes iff <= tol*||y0||.

    Meaningful for uncontrolled runs with a dissipative reaction term, where
    the envelope bounds the continuum dynamics.
    """
    lam1 = principal_eigenvalue(g)
    envelope = y.norms[0] * np.exp(-lam1 * y.times)
    max_gap = float(np.max(y.norms - envelope))
    limit = tol * y.norms[0]
    return EnvelopeReport(max_gap=max_gap, limit=limit,
                          initial_norm=float(y.norms[0]), passed=max_gap <= limit)


@dataclass(frozen=True)
class ScalingGapReport:
    """Gap between trajectories driven by u and by theta*u, against the Gronwall bound."""

    sup_gap: float
    bound: float
    theta: float
    level: float
    passed: bool


def control_scaling_gap(y0: np.ndarray, u: ControlSignal, theta: float,
                        f: NonlinearitySpec, g: SpatialGrid) -> ScalingGapReport:
    """sup_k ||y(t_k; u) - y(t_k; theta*u)|| <= (1-theta)*M*sqrt(T)*e^{(2L+1)T/2}.

    M is the largest pointwise norm of u and T its horizon.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"scaling factor must lie in [0, 1], got {theta}")
    scaled = ControlSignal(dt=u.dt, nt=u.nt, values=theta * u.values, grid=u.grid)
    traj_full = solve_forward(y0, u, f, g)
    traj_scaled = solve_forward(y0, scaled, f, g)
    diff = traj_full.states - traj_scaled.states
    sup_gap = float(np.max(step_l2_norms(diff, g.h)))
    level = float(np.max(u.step_norms()))
    T = u.horizon
    bound = (1.0 - theta) * level * math.sqrt(T) * math.exp((2.0 * f.L + 1.0) * T / 2.0)
    return ScalingGapReport(sup_gap=sup_gap, bound=bound, theta=theta,
                            level=level, passed=sup_gap <= bound)
