"""Value functions of the control problems, bang-bang tools, and round trips.

The minimal time for a given norm bound and the minimal norm bound for a given
horizon are both computed by bisection over the reachability oracle, which is
valid because feasibility is monotone: enlarging the admissible set (bigger M)
or the horizon (reach the ball, then coast) can only help.  Bisection is also
robust to the small oracle noise near the feasibility boundary, which rules
out Newton-type updates here.

Near-boundary oracle calls reuse the control from the previous feasible probe
as a warm start; this typically cuts oracle iterations by an order of
magnitude.  The minimal-norm bisection keeps its horizon fixed, so it solves
the uncontrolled run and its costate once per point
(:func:`heatctl.reach.free_run`) and hands them to every probe; the
minimal-time bisection moves the horizon on every probe, so each of its
oracle calls solves its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import (
    ControlSignal,
    NoFeasibleBoundError,
    NonlinearitySpec,
    SpatialGrid,
    TargetBall,
    l2_norm,
)
from .pde import (
    AdjointTrajectory,
    hitting_time,
    principal_eigenvalue,
    solve_forward,
)
from .reach import (
    ReachOptions,
    bangbang_values,
    free_run,
    masked_costate,
    min_terminal_norm,
)


@dataclass(frozen=True)
class ValuePoint:
    """One sampled point of a value function.

    ``bracket_lo``/``bracket_hi`` is the final bisection bracket (equal values
    for degenerate cases decided without bisection); ``control`` is the
    certified control from the feasible endpoint, when one was produced.
    """

    parameter: float
    value: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    control: ControlSignal | None = None
    oracle_value: float | None = None
    diagnostics: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ValueCurve:
    """Value points at strictly increasing parameters."""

    points: tuple[ValuePoint, ...]
    monotone: bool | None = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        params = [p.parameter for p in self.points]
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("curve parameters must be strictly increasing")

    def parameters(self) -> list[float]:
        return [p.parameter for p in self.points]

    def values(self) -> list[float]:
        return [p.value for p in self.points]


def free_decay_time(y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                    g: SpatialGrid, nt: int = 300, horizon: float | None = None,
                    max_expand: int = 60) -> float:
    """First time the uncontrolled run enters the target ball.

    Starts from a horizon suggested by the decay envelope and doubles it until
    the crossing appears, then re-runs on a horizon tight around the crossing
    so the reported time uses the same step resolution as downstream
    feasibility probes.
    """
    y0 = np.asarray(y0, dtype=float)
    norm0 = l2_norm(y0, g)
    if norm0 <= ball.r:
        return 0.0
    if horizon is None:
        lam1 = principal_eigenvalue(g)
        horizon = max(1.2 * math.log(norm0 / ball.r) / lam1, 1e-9)
    for _ in range(max_expand):
        traj = solve_forward(y0, ControlSignal.zeros(nt, horizon / nt, g), f, g)
        t_rough = hitting_time(traj, ball)
        if t_rough is not None:
            if t_rough <= 0.0:
                return 0.0
            refined_h = t_rough * (1.0 + 5.0 / nt)
            traj = solve_forward(y0, ControlSignal.zeros(nt, refined_h / nt, g), f, g)
            t = hitting_time(traj, ball)
            return t if t is not None else t_rough
        horizon *= 2.0
    raise RuntimeError(
        f"free decay did not enter the ball within horizon {horizon:.3g}; "
        "check the target radius against the initial norm"
    )


def minimal_norm(T: float, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                 g: SpatialGrid, tol_M: float = 1e-3,
                 opts: ReachOptions | None = None, nt: int = 300,
                 gamma_hint: float | None = None) -> ValuePoint:
    """Smallest pointwise norm bound whose controls reach the ball at time T.

    For T at or beyond the free-decay time the value is 0 with the zero
    control.  Otherwise the upper bound is found by doubling from 1, and
    bisection stops once the bracket width is below tol_M*(1 + upper).
    """
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {T}")
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


def minimal_time(M: float, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                 g: SpatialGrid, tol_T: float = 1e-3,
                 opts: ReachOptions | None = None, nt: int = 300,
                 gamma_hint: float | None = None) -> ValuePoint:
    """Smallest time at which controls bounded pointwise by M reach the ball.

    M = 0 degenerates to the free-decay time.  Otherwise bisect on the horizon
    over (0, free-decay time]; feasibility is monotone in the horizon because
    the ball is invariant under free decay.  tol_T is relative to the
    free-decay time.
    """
    if M < 0.0:
        raise ValueError(f"norm bound must be nonnegative, got {M}")
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

    # Certify the upper end: the free decay itself reaches the ball there, so
    # only discretization slop can make it fail; nudge up a little if it does.
    hi = gamma
    res = probe(hi, None)
    expansions = 0
    while not res.feasible:
        expansions += 1
        if expansions > 4:
            raise RuntimeError(
                f"could not certify feasibility near the free-decay time {gamma:.6g} "
                f"for M={M}; oracle terminal norm {res.terminal_norm:.6g}"
            )
        hi = gamma * (1.0 + 0.02 * 2 ** (expansions - 1))
        res = probe(hi, res.control)
    best_control = res.control
    lo = 0.0

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


def extract_bangbang(psi: AdjointTrajectory, M: float, g: SpatialGrid) -> ControlSignal:
    """Full-amplitude control aligned with the masked costate, step by step.

    Every step of the result has pointwise norm exactly M.  Raises
    :class:`DegenerateCostateError` when the masked costate drops below 1e-14
    somewhere, which leaves the direction undefined.
    """
    if M < 0.0:
        raise ValueError(f"norm bound must be nonnegative, got {M}")
    if M == 0.0:
        return ControlSignal.zeros(psi.nt, psi.dt, g)
    return ControlSignal(dt=psi.dt, nt=psi.nt,
                         values=bangbang_values(*masked_costate(psi, g), M), grid=g)


def bangbang_report(v: ControlSignal, level: float, delta: float) -> float:
    """Fraction of steps whose pointwise norm lies within delta of the level."""
    if level <= 0.0:
        raise ValueError(f"reference level must be positive, got {level}")
    norms = v.step_norms()
    inside = (norms >= (1.0 - delta) * level) & (norms <= (1.0 + delta) * level)
    return float(np.mean(inside))


@dataclass(frozen=True)
class EquivalenceTimeReport:
    """Round trip T -> minimal norm -> minimal time, plus the zero-extension check."""

    T: float
    norm_value: float
    time_roundtrip: float
    residual: float
    extension_hitting_time: float | None
    extension_residual: float | None
    norm_point: ValuePoint
    time_point: ValuePoint


def verify_equivalence_time(T: float, y0: np.ndarray, ball: TargetBall,
                            f: NonlinearitySpec, g: SpatialGrid,
                            tol_M: float = 1e-3, tol_T: float = 1e-3,
                            opts: ReachOptions | None = None, nt: int = 300,
                            gamma_hint: float | None = None) -> EquivalenceTimeReport:
    """|minimal_time(minimal_norm(T)) - T|, plus the hitting time of the
    minimal-norm control extended by zero past its horizon."""
    y0 = np.asarray(y0, dtype=float)
    gamma = gamma_hint if gamma_hint is not None else free_decay_time(y0, ball, f, g, nt=nt)
    np_point = minimal_norm(T, y0, ball, f, g, tol_M=tol_M, opts=opts, nt=nt,
                            gamma_hint=gamma)
    tp_point = minimal_time(np_point.value, y0, ball, f, g, tol_T=tol_T, opts=opts,
                            nt=nt, gamma_hint=gamma)
    residual = abs(tp_point.value - T)

    ext_hit = None
    ext_residual = None
    ctrl = np_point.control
    if ctrl is not None:
        extra = max(nt // 2, 1)
        extended = np.vstack([ctrl.values, np.zeros((extra, g.n))])
        traj = solve_forward(y0, ControlSignal(dt=ctrl.dt, nt=ctrl.nt + extra,
                                               values=extended, grid=g), f, g)
        ext_hit = hitting_time(traj, ball)
        if ext_hit is not None:
            ext_residual = abs(ext_hit - T)
    return EquivalenceTimeReport(T=T, norm_value=np_point.value,
                                 time_roundtrip=tp_point.value, residual=residual,
                                 extension_hitting_time=ext_hit,
                                 extension_residual=ext_residual,
                                 norm_point=np_point, time_point=tp_point)


@dataclass(frozen=True)
class EquivalenceBoundReport:
    """Round trip M -> minimal time -> minimal norm, plus the restriction check."""

    M: float
    time_value: float
    norm_roundtrip: float
    relative_residual: float
    restricted_max_norm: float
    restricted_terminal_norm: float
    restriction_ok: bool
    time_point: ValuePoint
    norm_point: ValuePoint


def verify_equivalence_bound(M: float, y0: np.ndarray, ball: TargetBall,
                             f: NonlinearitySpec, g: SpatialGrid,
                             tol_M: float = 1e-3, tol_T: float = 1e-3,
                             opts: ReachOptions | None = None, nt: int = 300,
                             gamma_hint: float | None = None) -> EquivalenceBoundReport:
    """|minimal_norm(minimal_time(M)) - M| / max(M, 1), plus a check that the
    time-optimal control, over its own horizon, is norm-feasible at level M."""
    y0 = np.asarray(y0, dtype=float)
    gamma = gamma_hint if gamma_hint is not None else free_decay_time(y0, ball, f, g, nt=nt)
    tp_point = minimal_time(M, y0, ball, f, g, tol_T=tol_T, opts=opts, nt=nt,
                            gamma_hint=gamma)
    np_point = minimal_norm(tp_point.value, y0, ball, f, g, tol_M=tol_M, opts=opts,
                            nt=nt, gamma_hint=gamma)
    residual = abs(np_point.value - M) / max(M, 1.0)

    ctrl = tp_point.control
    max_norm = float(np.max(ctrl.step_norms())) if ctrl is not None else 0.0
    if ctrl is not None and M > 0.0:
        traj = solve_forward(y0, ctrl, f, g)
        terminal = float(traj.norms[-1])
    else:
        terminal = float(solve_forward(y0, ControlSignal.zeros(nt, max(tp_point.value, 1e-12) / nt, g),
                                       f, g).norms[-1])
    opts_eff = opts if opts is not None else ReachOptions()
    restriction_ok = (max_norm <= M * (1.0 + 1e-6) + 1e-300
                      and terminal <= ball.r * (1.0 + opts_eff.eps_feas_rel))
    return EquivalenceBoundReport(M=M, time_value=tp_point.value,
                                  norm_roundtrip=np_point.value,
                                  relative_residual=residual,
                                  restricted_max_norm=max_norm,
                                  restricted_terminal_norm=terminal,
                                  restriction_ok=restriction_ok,
                                  time_point=tp_point, norm_point=np_point)


def minimal_time_curve(M_grid, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                       g: SpatialGrid, tol_T: float = 1e-3,
                       opts: ReachOptions | None = None, nt: int = 300) -> ValueCurve:
    """Minimal-time values over a strictly increasing grid of norm bounds."""
    M_grid = [float(m) for m in M_grid]
    if any(b <= a for a, b in zip(M_grid, M_grid[1:])):
        raise ValueError("norm-bound grid must be strictly increasing")
    y0 = np.asarray(y0, dtype=float)
    gamma = free_decay_time(y0, ball, f, g, nt=nt)
    points = tuple(minimal_time(M, y0, ball, f, g, tol_T=tol_T, opts=opts, nt=nt,
                                gamma_hint=gamma) for M in M_grid)
    values = [p.value for p in points]
    strictly_decreasing = all(b < a for a, b in zip(values, values[1:]))
    return ValueCurve(points=points, monotone=strictly_decreasing,
                      diagnostics={"free_decay_time": gamma,
                                   "first_value_over_free_decay": values[0] / gamma,
                                   "last_value_over_free_decay": values[-1] / gamma})


def minimal_norm_curve(T_grid, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                       g: SpatialGrid, tol_M: float = 1e-3,
                       opts: ReachOptions | None = None, nt: int = 300) -> ValueCurve:
    """Minimal-norm values over a strictly increasing grid of horizons.

    Horizons must stay within (0, free-decay time]; beyond that the value is
    identically zero and the sweep refuses the grid.
    """
    T_grid = [float(t) for t in T_grid]
    if any(b <= a for a, b in zip(T_grid, T_grid[1:])):
        raise ValueError("horizon grid must be strictly increasing")
    y0 = np.asarray(y0, dtype=float)
    gamma = free_decay_time(y0, ball, f, g, nt=nt)
    if T_grid and (T_grid[0] <= 0.0 or T_grid[-1] > gamma * (1.0 + 1e-9)):
        raise ValueError(
            f"horizon grid must lie in (0, {gamma:.6g}] (the free-decay time)"
        )
    points = tuple(minimal_norm(T, y0, ball, f, g, tol_M=tol_M, opts=opts, nt=nt,
                                gamma_hint=gamma) for T in T_grid)
    values = [p.value for p in points]
    non_increasing = all(b <= a for a, b in zip(values, values[1:]))
    return ValueCurve(points=points, monotone=non_increasing,
                      diagnostics={"free_decay_time": gamma})
