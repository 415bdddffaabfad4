"""Reachability oracle: can controls bounded pointwise by M reach the ball at T?

Decided by projected gradient descent on J(v) = 0.5*||y(T; v)||^2 over the set
{v : ||v(t_k)|| <= M for all k}.  The gradient of J is the masked costate from
the exact discrete adjoint, so the only sources of looseness are the iteration
budget and, for nonlinear reaction terms, nonconvexity.  Against the latter
the descent starts from the best of the zero control, a full-amplitude
control along the costate of the uncontrolled run, and the caller's warm
start.

A :class:`FreeRun` is a horizon with its ball, whose run, terminal state and
costate are solved on first read; the oracle and every certificate below read
y0, T, nt, f, g and the ball from it alone, so one FreeRun serves every call
at its horizon.  For f = 0 its terminal state y_free(T) is a closed form
(:func:`heatctl.pde.linear_free_state`) and the costate needs only the run's
dt and nt, so what reads only them (the dual bound, its enclosure and the
dual pair below) simulates no free run; the oracle's zero start does.  The
same FreeRun gives certificates that need no descent:

* :func:`dual_lower_bound`, from weak duality: a norm bound below which no
  control reaches the ball (the discrete dual problem of Wang & Zuazua, SIAM
  J. Control Optim. 50 (2012), for f = 0; widened by
  :func:`reaction_costate_bounds` for a reaction term, whose
  ``NonlinearitySpec.L`` it trusts), and :func:`dual_bound_enclosure`, which
  brackets that bound for the default datum y_free(T) without an adjoint
  solve: it passes a bracket of the costate's step norms, from the first
  sine mode of y_free(T) and the decay of the others, through the bound's
  own N(xi) and D(xi) (:func:`_dual_terms`), so that a caller comparing
  the bound with a given M solves it only when M falls inside the bracket;
* upper ends of the paper's bang-bang form, a control of constant pointwise
  norm along the masked costate: :func:`dual_pair` (f = 0) finds the smallest
  level that reaches the ball, from linearity, and :func:`bangbang_ray` (a
  reaction term) simulates level M or a secant level below it.  The two
  share the level rule (:func:`_smaller_root`) and the datum update
  (:func:`_next_datum`), and a control of either counts only once its run
  reaches the ball.

Each quantity has one definition here: ``_objective`` is J,
:func:`masked_costate` its gradient (also the direction of
:func:`bangbang_values`), and :func:`accept` the run and ``free.ball.reaches``
test of every control returned without the oracle.

The step rule is fixed.  The first step is 1/lambda_1, and a rejected step is
halved (at most ``MAX_BACKTRACKS`` times per iteration), so the objective
never increases.  After an accepted step s with gradient change Delta, the
next step is the spectral step <s,s>/<s,Delta>, capped at 1e4 times the
first, or the doubled step when <s,Delta> <= 0 (:func:`_spectral_step`;
Barzilai & Borwein, IMA J. Numer. Anal. 8 (1988), and for the projected form
Birgin, Martinez & Raydan, SIAM J. Optim. 10 (2000)).  The new gradient is
the one the next iteration solves anyway, so the rule costs no adjoint solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    ControlSignal,
    DegenerateCostateError,
    DimensionMismatchError,
    NonlinearitySpec,
    SolverDivergenceError,
    SpatialGrid,
    StateTrajectory,
    TargetBall,
    l2_norm,
    make_nonlinearity,
    step_l2_norms,
    zero_reaction,
)
from .pde import (
    AdjointTrajectory,
    dirichlet_eigs,
    linear_free_state,
    linear_response,
    principal_eigenvalue,
    solve_adjoint,
    solve_forward,
)


STEP_SHRINK = 0.5
STEP_GROWTH = 2.0
MAX_BACKTRACKS = 45


@dataclass(frozen=True)
class ReachOptions:
    """The oracle's budget, as a config sets it.

    ``max_iters`` bounds the descent iterations; ``eps_stag`` ends the descent
    once an accepted step moves the control by less than eps_stag*M*sqrt(T).
    The feasibility slack is the ball's.  The step rule is fixed: a spectral
    step with backtracking (module docstring).
    """

    max_iters: int = 200
    eps_stag: float = 1e-7

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("the iteration budget must be positive")
        if self.eps_stag <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ReachResult:
    """Outcome of one oracle call.

    ``feasible`` means the achieved terminal norm is within the feasibility
    slack of the ball; ``converged`` means the iteration ended at feasibility
    or stationarity rather than exhausting its budget, so an infeasible
    non-converged result is inconclusive rather than a certificate.
    """

    terminal_norm: float
    control: ControlSignal
    iterations: int
    feasible: bool
    converged: bool
    objective_history: tuple[float, ...]

    @property
    def inconclusive(self) -> bool:
        return not self.feasible and not self.converged


def _project_values(values: np.ndarray, M: float, h: float) -> np.ndarray:
    """Radially rescale every step whose pointwise norm exceeds M."""
    norms = step_l2_norms(values, h)
    scale = np.where(norms > M, np.divide(M, norms, out=np.ones_like(norms),
                                          where=norms > 0.0), 1.0)
    return values * scale[:, None]


def _spectral_step(s: np.ndarray, delta: np.ndarray, step: float, cap: float) -> float:
    """The step size after an accepted step ``s``, taken at step size ``step``,
    over which the gradient changed by ``delta``: <s,s>/<s,delta> capped at
    ``cap``, or the doubled step size (also capped) when <s,delta> <= 0."""
    s_delta = float(np.sum(s * delta))
    if s_delta <= 0.0:
        return min(step * STEP_GROWTH, cap)
    return min(float(np.sum(s * s)) / s_delta, cap)


def _objective(traj: StateTrajectory) -> float:
    """J = 0.5*||y(T)||^2 of a run; raises :class:`SolverDivergenceError` when
    it is not finite."""
    j = 0.5 * float(traj.norms[-1]) ** 2
    if not math.isfinite(j):
        raise SolverDivergenceError("terminal objective is not finite")
    return j


def _run(y0: np.ndarray, values: np.ndarray, dt: float, f: NonlinearitySpec,
         g: SpatialGrid) -> tuple[float, StateTrajectory]:
    """Solve the run of the control ``values`` on steps of dt; J and the run."""
    traj = solve_forward(y0, ControlSignal(dt=dt, nt=len(values), values=values, grid=g),
                         f, g)
    return _objective(traj), traj


def masked_costate(psi: AdjointTrajectory, g: SpatialGrid) -> np.ndarray:
    """The costate on the control region at each of psi's nt steps.

    For the adjoint with terminal datum y(T), this is the gradient of J with
    respect to the control values.
    """
    return psi.costates[: psi.nt] * g.omega_mask


def bangbang_values(masked: np.ndarray, norms: np.ndarray, level: float) -> np.ndarray:
    """``level * masked / norms`` step by step: pointwise norm |level| everywhere.

    Raises :class:`DegenerateCostateError` when some step norm is below 1e-14,
    which leaves the direction undefined.
    """
    if float(np.min(norms)) < 1e-14:
        raise DegenerateCostateError(
            "masked costate vanished at some step; cannot normalize a direction"
        )
    return level * masked / norms[:, None]


@dataclass(frozen=True)
class FreeRun:
    """The uncontrolled run from y0, kept as a read-only float copy of shape
    (g.n,), over (0, T], 0 < T < inf, in nt steps of dt = T/nt, with reaction
    ``f`` on grid ``g``, towards ``ball``.  ``trajectory`` is the run,
    ``terminal`` its last state, ``masked`` is :func:`masked_costate` for the
    adjoint with terminal datum y(T) and reaction f (the gradient of J at the
    zero control), and ``norms`` its pointwise norm at each step.  Each is
    read-only and solved on first read: at most one forward and one adjoint
    solve.  For f = 0 (:func:`is_linear`) ``terminal`` is the closed form
    :func:`heatctl.pde.linear_free_state`, and ``masked`` takes its adjoint
    over the run's dt and nt alone, so only a read of ``trajectory``
    simulates the run.
    """

    y0: np.ndarray
    T: float
    nt: int
    f: NonlinearitySpec
    g: SpatialGrid
    ball: TargetBall

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.T}")
        y0 = np.array(self.y0, dtype=float)
        if y0.shape != (self.g.n,):
            raise DimensionMismatchError(
                f"initial state has shape {y0.shape}, expected ({self.g.n},)")
        y0.setflags(write=False)
        self.__dict__["y0"] = y0  # frozen: bypass __setattr__

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @cached_property
    def trajectory(self) -> StateTrajectory:
        return solve_forward(self.y0, ControlSignal.zeros(self.nt, self.dt, self.g),
                             self.f, self.g)

    @cached_property
    def terminal(self) -> np.ndarray:
        if not is_linear(self.f):
            return self.trajectory.states[-1]
        terminal = linear_free_state(self.y0, self.dt, self.nt, self.g)
        terminal.setflags(write=False)
        return terminal

    @cached_property
    def masked(self) -> np.ndarray:
        # The zero-reaction adjoint reads only the run's dt and nt.
        run = self if is_linear(self.f) else self.trajectory
        masked = masked_costate(solve_adjoint(run, self.terminal, self.f, self.g), self.g)
        masked.setflags(write=False)
        return masked

    @cached_property
    def norms(self) -> np.ndarray:
        norms = step_l2_norms(self.masked, self.g.h)
        norms.setflags(write=False)
        return norms


def is_linear(f: NonlinearitySpec) -> bool:
    """Whether f is the built-in zero reaction, recognised by identity as in
    :mod:`heatctl.pde` (a custom spec that merely has ``kind="zero"`` is not)."""
    return f.f is zero_reaction and f.fprime is zero_reaction


def accept(free: FreeRun, values: np.ndarray | None = None
           ) -> tuple[StateTrajectory, ControlSignal | None]:
    """The run of the control ``values`` (zero when None: free's cached
    ``trajectory``) from free's y0 on free's step grid, and that control when
    ``free.ball.reaches`` accepts the run's terminal norm, else None.  Raises
    :class:`SolverDivergenceError` when that norm is not finite."""
    if values is None:
        control, run = ControlSignal.zeros(free.nt, free.dt, free.g), free.trajectory
    else:
        control = ControlSignal(dt=free.dt, nt=free.nt, values=values, grid=free.g)
        run = solve_forward(free.y0, control, free.f, free.g)
    _objective(run)
    return run, control if free.ball.reaches(float(run.norms[-1])) else None


# Relative margin, on the terms of the bound, for the rounding of the solves.
DUAL_ROUNDING = 1e-9

_ZERO = make_nonlinearity("zero")


def reaction_costate_bounds(norms: np.ndarray, xi_norm: float, dt: float, L: float,
                            g: SpatialGrid) -> np.ndarray:
    """Bounds b_k on ||chi_omega psi_k|| for a reaction with |f'| <= L.

    ``norms`` holds ||chi_omega psi0_k||, the zero-reaction costate of a
    terminal datum of norm ``xi_norm``, at each step k; with m = nt - k and
    q = 1/(1 + dt*lambda_1h),

        b_k = min(||chi_omega psi0_k|| + ((q(1+dt*L))^m - q^m)*||xi||,
                  (q(1+dt*L))^m * ||xi||).

    Each costate step applies (I - dt*C)R, where R = (I + dt*A)^-1 has norm q
    and C is diagonal with |C| <= L; expanding the product around R^m gives
    the first term, and the step norm q(1 + dt*L) the second.  When
    (q(1+dt*L))^m overflows, b_k is infinite, which makes the bound 0.
    """
    if xi_norm == 0.0:
        return norms  # a zero datum has a zero costate; 0*inf below would be NaN
    q = 1.0 / (1.0 + dt * principal_eigenvalue(g))
    m = np.arange(len(norms), 0, -1)
    with np.errstate(over="ignore", under="ignore"):
        grown = xi_norm * (q * (1.0 + dt * L)) ** m
        return np.minimum(norms + (grown - xi_norm * q ** m), grown)


def _dual_terms(free: FreeRun, xi: np.ndarray, norms: np.ndarray) -> tuple[float, float]:
    """N and D of the dual bound N/D at the datum xi, given the step norms of
    its zero-reaction costate: N = <y_free(T), xi> - rho*||xi||, rho free's
    ball's, less ``DUAL_ROUNDING`` times the size of its terms;
    D = sum_k dt*b_k, with b_k the norms, for a reaction term widened by
    :func:`reaction_costate_bounds` with ``f.L``."""
    g = free.g
    pairing = g.h * float(free.terminal @ xi)
    xi_norm = math.sqrt(g.h * float(xi @ xi))
    rho = free.ball.rho
    numerator = pairing - rho * xi_norm - DUAL_ROUNDING * (abs(pairing) + rho * xi_norm)
    if not is_linear(free.f):
        norms = reaction_costate_bounds(norms, xi_norm, free.dt, free.f.L, g)
    return numerator, free.dt * float(np.sum(norms))


def _dual_quotient(numerator: float, total: float, vanishing: float = 0.0) -> float:
    """N/D of :func:`_dual_terms`: 0 when N <= 0, else ``vanishing`` when D is 0."""
    if numerator <= 0.0:
        return 0.0
    return numerator / total if total > 0.0 else vanishing


def dual_lower_bound(free: FreeRun, xi: np.ndarray | None = None,
                     norms: np.ndarray | None = None) -> float:
    """A norm bound below which no control reaches free's ball at its horizon.

    Weak duality: let psi be the costate of the terminal datum xi along the
    run of a control v, and b_k >= ||chi_omega psi_k|| at each step.  Every
    control supported on omega whose steps have norm at most M and whose
    terminal norm is at most rho = ``free.ball.rho`` (what
    ``free.ball.reaches`` accepts) satisfies

        M >= LB(xi) = N(xi) / D(xi) = (<y_free(T), xi> - rho*||xi||) / sum_k dt*b_k,

    because the scheme gives <y(T), xi> = <y_free(T), xi> +
    sum_k dt*<v_k, psi_k>, with psi the costate along the divided
    differences of f between the two runs.  For f = 0 (:func:`is_linear`)
    psi is the zero-reaction costate psi0 and b_k = ||chi_omega psi0_k||: the
    discrete form of the dual problem of Wang & Zuazua, SIAM J. Control
    Optim. 50 (2012).  With a reaction term, b_k comes from
    :func:`reaction_costate_bounds` with ``f.L``.  The bound is rigorous only
    where |f'| <= f.L everywhere.  That holds by construction for the
    built-in kinds of :func:`heatctl.core.make_nonlinearity`;
    :func:`heatctl.core.validate_nonlinearity` only samples a finite range,
    and a custom spec is trusted.  N and D are :func:`_dual_terms`, whose
    margin of ``DUAL_ROUNDING`` times the terms of N keeps the bound valid
    despite rounding; it is 0 when N or D is not positive, or D overflows.

    f and the grid are the free run's own, and y_free(T) is ``free.terminal``
    (for f = 0 in closed form).  ``xi`` defaults to y_free(T).  The bound
    costs one zero-reaction adjoint solve, which reads only the run's dt and
    nt, unless ``norms`` gives its step norms ||chi_omega psi0_k||, or for
    f = 0 with the default datum, where it is the run's own costate
    (``free.norms``, solved on first read).  With a reaction term it also
    simulates the run, once per FreeRun.
    """
    g = free.g
    if xi is None and norms is None and is_linear(free.f):
        norms = free.norms
    xi = free.terminal if xi is None else np.asarray(xi, dtype=float)
    if norms is None:
        norms = step_l2_norms(masked_costate(solve_adjoint(free, xi, _ZERO, g), g), g.h)
    return _dual_quotient(*_dual_terms(free, xi, norms))


# Relative margin of :func:`dual_bound_enclosure` for the rounding of the
# adjoint solve, against which it decays the modes in closed form.
ENCLOSURE_SLACK = 1e-6


def _first_mode_bracket(free: FreeRun) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of the step norms ||chi_omega psi0_k|| of the
    zero-reaction costate of the datum y_free(T) (:func:`dual_bound_enclosure`)."""
    xi, dt, nt, g = free.terminal, free.dt, free.nt, free.g
    spectrum = dirichlet_eigs(g, min(2, g.n))
    e1 = spectrum.eigenvectors[0]
    a = g.h * float(e1 @ xi)
    q = 1.0 / (1.0 + dt * spectrum.eigenvalues)
    m = np.arange(nt, 0, -1)
    with np.errstate(under="ignore"):
        q1m = q[0] ** m
        centre = q1m * (abs(a) * l2_norm(g.omega_mask * e1, g))
        spread = q[-1] ** m * l2_norm(xi - a * e1, g) + ENCLOSURE_SLACK * q1m * l2_norm(xi, g)
    return np.maximum(centre - spread, 0.0), centre + spread


def dual_bound_enclosure(free: FreeRun) -> tuple[float, float]:
    """(lo, hi) with lo <= ``dual_lower_bound(free)`` <= hi,
    from free's terminal state xi = y_free(T) (``free.terminal``); solves
    nothing beyond that state, so for f = 0 nothing at all.

    Split xi = a*e_1 + xi_perp along the first eigenvector of free's grid,
    with the first two eigenpairs of :func:`heatctl.pde.dirichlet_eigs` (one
    when n = 1).  The zero-reaction costate m = nt - k steps before the end
    is R^m xi, with R = (I + dt*A)^-1; R^m e_1 = q_1^m e_1 and
    ||R^m xi_perp|| <= q_2^m ||xi_perp||, with q_i = 1/(1 + dt*lambda_i), so

        | ||chi_omega psi0_k|| - q_1^m |a| ||chi_omega e_1|| | <= q_2^m ||xi_perp||.

    ``ENCLOSURE_SLACK``, relative to q_1^m ||xi|| on each step, covers the
    bound's adjoint solve's rounding.  The bound's own :func:`_dual_terms` at
    the upper ends give lo, at the lower ends hi (infinite when their D is
    0): N is the bound's bit for bit, and N/D is monotone in each step norm
    in floating point, so the enclosure holds the bound as computed.
    """
    lower, upper = _first_mode_bracket(free)
    return (_dual_quotient(*_dual_terms(free, free.terminal, upper)),
            _dual_quotient(*_dual_terms(free, free.terminal, lower), math.inf))


# Most dual steps :func:`dual_pair` takes.
DUAL_STEPS = 8


def _smaller_root(free: FreeRun, s: np.ndarray) -> float | None:
    """The smaller root m of ||y_free(T) + m*s|| = rho(1 - DUAL_ROUNDING), with
    y_free(T) = ``free.terminal`` and rho free's ball's, floored at 0, or None
    when there is no real root."""
    y_free, g = free.terminal, free.g
    c = g.h * float(y_free @ y_free) - (free.ball.rho * (1.0 - DUAL_ROUNDING)) ** 2
    a, b = g.h * float(s @ s), g.h * float(y_free @ s)
    disc = b * b - a * c
    q = -b + math.sqrt(disc) if disc >= 0.0 else 0.0
    return max(c / q, 0.0) if q > 0.0 else None  # c/q: the smaller root, stably


def _next_datum(xi: np.ndarray, y: np.ndarray, g: SpatialGrid) -> np.ndarray:
    """xi/||xi|| + y/||y||: the datum moved towards the terminal state y (at
    the optimal datum y(T) points along xi: Wang & Zuazua 2012)."""
    return xi / l2_norm(xi, g) + y / l2_norm(y, g)


def dual_pair(free: FreeRun, done) -> tuple[float, float, ControlSignal | None]:
    """A certified bracket (lo, hi) on the minimal norm bound at free's
    horizon, with a control at level hi that reaches free's ball.

    lo starts at :func:`dual_lower_bound`; with a reaction term that is all
    (:func:`bangbang_ray` is its upper end there).
    For f = 0 each of at most ``DUAL_STEPS`` steps takes the unit bang-bang
    control w of the zero-reaction costate of a datum xi (first y_free(T))
    and its response s from 0; as y(T; m*w) = y_free(T) + m*s, hi drops to
    the smaller root of ||y_free(T) + m*s|| = ``free.ball.rho``(1 - DUAL_ROUNDING)
    (:func:`_smaller_root`).
    Until ``done(lo, hi)`` holds with hi finite, xi moves towards
    y = y_free(T) + m*s (lo*s without a root) by :func:`_next_datum`, and its
    adjoint gives the next w and raises lo.  hi*w is kept only if
    :func:`accept` accepts it; otherwise, or without a root or a direction,
    hi is inf.

    y_free(T) is ``free.terminal`` and s is
    :func:`heatctl.pde.linear_response`, both in closed form in the grid's
    sine basis, so for f = 0 the pair costs free's costate (unless already
    read), one zero-reaction adjoint solve per step after the first, and
    the one forward solve of hi*w.
    """
    lo = dual_lower_bound(free)
    if not is_linear(free.f):
        return lo, math.inf, None
    g, dt, y_free = free.g, free.dt, free.terminal
    xi, masked, norms, hi, ray = y_free, free.masked, free.norms, math.inf, None
    try:
        for _ in range(DUAL_STEPS):
            w = bangbang_values(masked, norms, -1.0)
            s = linear_response(w, dt, g)
            m = _smaller_root(free, s)
            if m is not None and m < hi:
                hi, ray = m, w
            if hi < math.inf and done(lo, hi):
                break
            xi = _next_datum(xi, y_free + (lo if m is None else m) * s, g)
            masked = masked_costate(solve_adjoint(free, xi, _ZERO, g), g)
            norms = step_l2_norms(masked, g.h)
            lo = max(lo, dual_lower_bound(free, xi, norms))
    except DegenerateCostateError:
        pass
    control = None if ray is None else accept(free, hi * ray)[1]
    return (lo, math.inf, None) if control is None else (lo, hi, control)


# Most steps :func:`bangbang_ray` takes.
RAY_STEPS = 2


def bangbang_ray(free: FreeRun, M: float) -> ControlSignal | None:
    """A bang-bang control at a level at most M that reaches free's ball at
    its horizon, with free's reaction term, or None when none was found.

    The zero control when the free run reaches the ball.  Otherwise each of
    at most ``RAY_STEPS`` steps takes the unit bang-bang control w of the
    costate of a datum xi (first y_free(T), whose costate is ``free.masked``)
    and simulates M*w.  If that misses, the secant s = (y(T; M*w) -
    y_free(T))/M (for f = 0 the response of :func:`dual_pair`) aims a level m
    at the same radius as there (:func:`_smaller_root`), and
    m*w is simulated when 0 < m < M: full thrust can drive y(T) through the
    ball and out, at long horizons and large M.  If both miss, xi moves
    towards the terminal state of the better run by :func:`_next_datum`, and
    its adjoint, with free's reaction term along that run, gives the next w.
    Every control, the zero one included, is returned by :func:`accept`, on
    free's step grid; its run is its certificate.  A miss proves nothing.
    None also when a costate has no direction.
    """
    if (control := accept(free)[1]) is not None:
        return control
    y_free, f, g = free.terminal, free.f, free.g
    xi, masked, norms = y_free, free.masked, free.norms
    try:
        for step in range(RAY_STEPS):
            w = bangbang_values(masked, norms, -1.0)
            best, control = accept(free, M * w)
            if control is None:
                m = _smaller_root(free, (best.states[-1] - y_free) / M)
                if m is not None and 0.0 < m < M:
                    run, control = accept(free, m * w)
                    best = min(best, run, key=lambda r: r.norms[-1])
            if control is not None:
                return control
            if step + 1 < RAY_STEPS:
                xi = _next_datum(xi, best.states[-1], g)
                masked = masked_costate(solve_adjoint(best, xi, f, g), g)
                norms = step_l2_norms(masked, g.h)
    except DegenerateCostateError:
        pass
    return None


def min_terminal_norm(free: FreeRun, M: float, opts: ReachOptions = ReachOptions(),
                      warm_start: ControlSignal | None = None) -> ReachResult:
    """Minimize the terminal norm over pointwise-bounded controls at free's
    horizon (its y0, T, nt, f and g), towards free's ball.

    Terminates early as feasible once J drops below 0.5*(r - eps_feas_rel*r)^2
    (free's ball's slack), otherwise on stagnation of the projected step or on
    the iteration budget.
    Backtracking enforces a non-increasing objective sequence, and every
    iteration starts with one adjoint solve, its gradient.

    ``warm_start`` must have free's nt steps (else :class:`ValueError`); its
    step length is not checked, so a control can be reused across horizons
    with the same nt.  M = 0 takes the same path as every other bound: the
    projection keeps every iterate at the zero control.
    """
    if M < 0.0:
        raise ValueError(f"norm bound must be nonnegative, got {M}")
    y0, f, g, nt = free.y0, free.f, free.g, free.nt
    if warm_start is not None and warm_start.nt != nt:
        raise ValueError(f"warm start has {warm_start.nt} steps, expected {nt}")

    dt = free.dt
    h = g.h
    r = free.ball.r
    target_j = 0.5 * max(r - free.ball.eps_feas_rel * r, 0.0) ** 2

    # Starts: zero control, bang-bang against the free costate, and the
    # caller's control (projected); keep the best.
    v = np.zeros((nt, g.n))
    j, traj = _objective(free.trajectory), free.trajectory
    candidates = []
    try:
        candidates.append(bangbang_values(free.masked, free.norms, -M))
    except DegenerateCostateError:
        pass
    if warm_start is not None:
        candidates.append(_project_values(warm_start.values * g.omega_mask, M, h))
    for cand in candidates:
        j_c, traj_c = _run(y0, cand, dt, f, g)
        if j_c < j:
            v, j, traj = cand, j_c, traj_c
    history = [j]

    step = 1.0 / principal_eigenvalue(g)
    step_cap = step * 1e4
    move_scale = M * math.sqrt(free.T)
    iterations = 0
    converged = False
    # After an accepted step: the step s and the gradient it was taken along,
    # for the spectral step once the new gradient is solved.
    s = grad_prev = None
    for _ in range(opts.max_iters):
        if j <= target_j:
            converged = True
            break
        grad = masked_costate(solve_adjoint(traj, traj.states[-1], f, g), g)
        if s is not None:
            step = _spectral_step(s, grad - grad_prev, step, step_cap)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = _project_values(v - step * grad, M, h)
            j_trial, traj_trial = _run(y0, trial, dt, f, g)
            if j_trial <= j:
                accepted = True
                break
            step *= STEP_SHRINK
        iterations += 1
        if not accepted:
            converged = True  # no descent at a vanishing step: stationary
            break
        s, grad_prev = trial - v, grad
        move = math.sqrt(dt * h * float(np.sum(s ** 2)))
        v, j, traj = trial, j_trial, traj_trial
        history.append(j)
        if move <= opts.eps_stag * move_scale:
            converged = True
            break
    else:
        converged = j <= target_j

    terminal = float(traj.norms[-1])
    return ReachResult(terminal_norm=terminal,
                       control=ControlSignal(dt=dt, nt=nt, values=v, grid=g),
                       iterations=iterations, feasible=free.ball.reaches(terminal),
                       converged=converged, objective_history=tuple(history))


def gradient_fd_check(y0: np.ndarray, T: float, v: ControlSignal,
                      direction: ControlSignal, f: NonlinearitySpec,
                      g: SpatialGrid, fd_step: float = 1e-5) -> float:
    """Relative error between the adjoint directional derivative and central FD.

    The direction must live on the same step grid as v; both are supported on
    the control region by construction.
    """
    if v.nt != direction.nt:
        raise DimensionMismatchError("control and direction use different step counts")
    y0 = np.asarray(y0, dtype=float)
    dt = T / v.nt

    _, traj = _run(y0, v.values, dt, f, g)
    grad = masked_costate(solve_adjoint(traj, traj.states[-1], f, g), g)
    adjoint_slope = dt * g.h * float(np.sum(grad * direction.values))

    j_plus, _ = _run(y0, v.values + fd_step * direction.values, dt, f, g)
    j_minus, _ = _run(y0, v.values - fd_step * direction.values, dt, f, g)
    fd_slope = (j_plus - j_minus) / (2.0 * fd_step)

    denom = max(abs(fd_slope), abs(adjoint_slope))
    if denom == 0.0:
        return 0.0
    return abs(adjoint_slope - fd_slope) / denom
