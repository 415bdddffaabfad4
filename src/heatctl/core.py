"""Domain types, discrete L2 geometry, and standing-assumption validators.

Everything here is an immutable value: arrays are frozen after construction
and all operations are pure, so instances can be shared freely between
concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DimensionMismatchError(ValueError):
    """A spatial vector does not match the grid it is paired with."""


class SolverDivergenceError(RuntimeError):
    """A time-stepping run produced non-finite values (time step too large)."""


class DegenerateCostateError(RuntimeError):
    """The masked costate vanished numerically, so no control direction exists."""


class EnumerationBudgetError(RuntimeError):
    """A brute-force enumeration would exceed its evaluation budget."""


class NoFeasibleBoundError(RuntimeError):
    """No feasible end to bisect from: no bound, horizon or free decay reaches the ball."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid of n interior nodes on (0, ell), zero Dirichlet ends.

    Boundary values are identically zero and carry no quadrature mass, so only
    interior nodes are stored.  ``omega_mask`` is a 0/1 indicator of the nodes
    inside the open control interval.
    """

    n: int
    h: float
    ell: float
    omega_mask: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one interior node, got n={self.n}")
        if self.ell <= 0.0:
            raise ValueError(f"domain length must be positive, got {self.ell}")
        if not math.isclose(self.h * (self.n + 1), self.ell, rel_tol=1e-12):
            raise ValueError("spacing h must satisfy h*(n+1) = ell")
        mask = np.asarray(self.omega_mask, dtype=float)
        if mask.shape != (self.n,):
            raise DimensionMismatchError(
                f"omega_mask has shape {mask.shape}, expected ({self.n},)"
            )
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("omega_mask entries must be 0 or 1")
        if not mask.any():
            raise ValueError("control region is empty: no grid node falls inside omega")
        mask.setflags(write=False)
        object.__setattr__(self, "omega_mask", mask)

    def __reduce__(self):
        # Rebuild through __post_init__, so a copy that crossed a process
        # boundary keeps its mask read-only.
        return SpatialGrid, (self.n, self.h, self.ell, self.omega_mask)

    @staticmethod
    def build(n: int = 127, ell: float = 1.0,
              omega: tuple[float, float] | None = None) -> "SpatialGrid":
        """Grid with omega = (a, b); omega=None means the whole interval."""
        h = ell / (n + 1)
        x = h * np.arange(1, n + 1)
        if omega is None:
            a, b = 0.0, ell
        else:
            a, b = omega
            if not (0.0 <= a < b <= ell):
                raise ValueError(f"omega=({a}, {b}) is not an interval inside (0, {ell})")
        mask = ((x > a) & (x < b)).astype(float)
        return SpatialGrid(n=n, h=h, ell=ell, omega_mask=mask)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n + 1)


def step_l2_norms(values: np.ndarray, h: float) -> np.ndarray:
    """Discrete L2 norm sqrt(h * sum_i values[k, i]^2) of each row k."""
    return np.sqrt(h * np.einsum("ij,ij->i", values, values))


def l2_norm(v: np.ndarray, g: SpatialGrid) -> float:
    """Discrete L2 norm sqrt(h * sum v_i^2); zero iff v = 0."""
    v = np.asarray(v, dtype=float)
    if v.shape != (g.n,):
        raise DimensionMismatchError(f"vector has shape {v.shape}, expected ({g.n},)")
    return math.sqrt(g.h * float(v @ v))


@dataclass(frozen=True)
class TargetBall:
    """Closed ball of radius r around the origin in the discrete L2 space, and
    the feasibility slack ``eps_feas_rel`` relative to r, in (0, 1): from 1 on
    the oracle's early-stop radius r(1 - eps_feas_rel) would be 0."""

    r: float
    eps_feas_rel: float = 1e-3

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError(f"target radius must be positive, got {self.r}")
        if not 0.0 < self.eps_feas_rel < 1.0:
            raise ValueError("the feasibility slack eps_feas_rel must lie in (0, 1), "
                             f"got {self.eps_feas_rel}")

    def reaches(self, norm: float) -> bool:
        """Whether a terminal norm is at most r plus the slack eps_feas_rel*r."""
        return norm <= self.r + self.eps_feas_rel * self.r

    @property
    def rho(self) -> float:
        """r(1 + eps_feas_rel): what :meth:`reaches` accepts, unrounded."""
        return self.r * (1.0 + self.eps_feas_rel)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Reaction term f with certified derivative bound L.

    The built-in kinds all satisfy f(0)=0, |f'| <= L and f(y)*y >= 0; use
    :func:`make_nonlinearity` to construct them.  Custom callables may be
    supplied directly (e.g. for negative tests of the validator).
    """

    kind: str
    L: float
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]


def zero_reaction(y: np.ndarray) -> np.ndarray:
    """The built-in ``zero`` reaction term, which is also its own derivative.

    The integrators in :mod:`heatctl.pde` and the brute-force enumerator in
    :mod:`heatctl.oracle` recognise this function by identity and skip it, so
    a custom spec that merely has ``kind="zero"`` is still evaluated.
    """
    return np.zeros_like(y)


def make_nonlinearity(kind: str, L: float = 1.0) -> NonlinearitySpec:
    """Built-in reaction terms: ``zero``, ``scaled_tanh``, ``bounded_odd_rational``."""
    if L < 0.0:
        raise ValueError(f"derivative bound must be nonnegative, got {L}")
    if kind == "zero":
        return NonlinearitySpec(kind=kind, L=L, f=zero_reaction, fprime=zero_reaction)
    if kind == "scaled_tanh":
        # f' = L / cosh^2, peaks at L; y*tanh(y) >= 0.
        return NonlinearitySpec(
            kind=kind, L=L,
            f=lambda y: L * np.tanh(y),
            fprime=lambda y: L * (1.0 - np.tanh(y) ** 2),
        )
    if kind == "bounded_odd_rational":
        # d/dy [y/(1+y^2)] = (1-y^2)/(1+y^2)^2, bounded by 1 in absolute value.
        return NonlinearitySpec(
            kind=kind, L=L,
            f=lambda y: L * y / (1.0 + y ** 2),
            fprime=lambda y: L * (1.0 - y ** 2) / (1.0 + y ** 2) ** 2,
        )
    raise ValueError(f"unknown nonlinearity kind {kind!r}")


@dataclass(frozen=True)
class NonlinearityReport:
    """Sampled check of the derivative bound and the dissipative sign condition."""

    max_abs_derivative: float
    min_sign_product: float
    origin_value: float
    derivative_ok: bool
    sign_ok: bool
    origin_ok: bool

    @property
    def passed(self) -> bool:
        return self.derivative_ok and self.sign_ok and self.origin_ok


def validate_nonlinearity(f: NonlinearitySpec, samples: np.ndarray) -> NonlinearityReport:
    """Report max |f'| and min f(y)*y over the samples, pass/fail against L and 0.

    The sample set must be nonempty and span at least [-10, 10].
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("sample set is empty")
    if samples.min() > -10.0 or samples.max() < 10.0:
        raise ValueError("samples must span at least [-10, 10]")
    deriv = np.abs(np.asarray(f.fprime(samples), dtype=float))
    product = np.asarray(f.f(samples), dtype=float) * samples
    origin = float(np.asarray(f.f(np.zeros(1)))[0])
    max_d = float(deriv.max())
    min_p = float(product.min())
    return NonlinearityReport(
        max_abs_derivative=max_d,
        min_sign_product=min_p,
        origin_value=origin,
        derivative_ok=max_d <= f.L * (1.0 + 1e-12),
        sign_ok=min_p >= -1e-12,
        origin_ok=abs(origin) <= 1e-12,
    )


@dataclass(frozen=True)
class InitialStateCheck:
    """Whether the initial state lies strictly outside the closed target ball."""

    ok: bool
    norm: float
    radius: float


def validate_initial_state(y0: np.ndarray, ball: TargetBall, g: SpatialGrid) -> InitialStateCheck:
    """ok iff ||y0|| > r.  Boundary points count as violations (the ball is closed)."""
    norm = l2_norm(y0, g)
    return InitialStateCheck(ok=norm > ball.r, norm=norm, radius=ball.r)


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant-in-time control, one spatial profile per step.

    Profiles are supported on the control region: entries off the grid's
    omega mask are zeroed at construction.
    """

    dt: float
    nt: int
    values: np.ndarray
    grid: SpatialGrid

    def __post_init__(self):
        if self.dt <= 0.0 or self.nt < 1:
            raise ValueError(f"need dt > 0 and nt >= 1, got dt={self.dt}, nt={self.nt}")
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.nt, self.grid.n):
            raise DimensionMismatchError(
                f"control values have shape {vals.shape}, expected ({self.nt}, {self.grid.n})"
            )
        vals *= self.grid.omega_mask
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __reduce__(self):
        # As SpatialGrid.__reduce__: unpickled values stay read-only.
        return ControlSignal, (self.dt, self.nt, self.values, self.grid)

    @staticmethod
    def zeros(nt: int, dt: float, g: SpatialGrid) -> "ControlSignal":
        return ControlSignal(dt=dt, nt=nt, values=np.zeros((nt, g.n)), grid=g)

    def step_norms(self) -> np.ndarray:
        """Pointwise-in-time L2 norms, one per step."""
        return step_l2_norms(self.values, self.grid.h)

    @property
    def horizon(self) -> float:
        return self.dt * self.nt


@dataclass(frozen=True)
class StateTrajectory:
    """Time-sampled states (index 0 is the initial state) with cached L2 norms.

    ``stage_states`` holds the per-step linearization points used by the
    discrete adjoint: the state right after the source term is added.  For an
    uncontrolled run they coincide with the states themselves.
    """

    dt: float
    nt: int
    states: np.ndarray
    norms: np.ndarray
    stage_states: np.ndarray

    def __post_init__(self):
        for name in ("states", "norms", "stage_states"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.states.shape[0] != self.nt + 1:
            raise DimensionMismatchError("trajectory must hold nt+1 states")
        if self.norms.shape != (self.nt + 1,):
            raise DimensionMismatchError("trajectory must cache nt+1 norms")

    @property
    def horizon(self) -> float:
        return self.dt * self.nt

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt + 1)
