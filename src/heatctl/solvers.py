"""Value functions of the control problems, bang-bang tools, and round trips.

The minimal time for a given norm bound and the minimal norm bound for a given
horizon are the same search: one bisection driver, :func:`_bisect`, over the
reachability oracle.  Bisection is valid because feasibility is monotone:
enlarging the admissible set (bigger M) or the horizon (reach the ball, then
coast) can only help.  It is also robust to the small oracle noise near the
feasibility boundary, which rules out Newton-type updates here.  From a lower
end known to be infeasible, the driver probes the upper end, widens the
bracket while that end is infeasible, then halves it.  Near-boundary oracle
calls reuse the control from the previous feasible probe as a warm start;
this typically cuts oracle iterations by an order of magnitude.

With a reaction term the search starts cold: the lower end is 0, the minimal
norm doubles its upper end from 1, and the minimal time starts from the
free-decay time, which becomes the lower end if the probe there fails.
Without one, weak duality gives a certified lower end at no extra cost
(:func:`heatctl.reach.dual_lower_bound`, the discrete form of the dual
problem of Wang & Zuazua, SIAM J. Control Optim. 50 (2012)):

* the minimal norm starts from the bound of the free run that it solves
  anyway, and probes first an eighth of the width rule above it; after an
  infeasible probe it raises the lower end to the bound of that probe's
  terminal state (one adjoint solve) when that is higher than the probe,
  and doubles the gap to the next probe;
* the minimal time first finds, with free runs only and through the same
  driver, the horizon where the bound of the free run crosses M (a horizon
  whose bound exceeds M is certified infeasible), then confirms the upper end
  with the oracle, which reuses that horizon's free run.

Such a point records its dual bound in its diagnostics as
``dual_lower_bound`` (0 when none was certified); its ``bracket_lo`` is that
bound or an infeasible probe, and its ``bracket_hi`` a feasible probe whose
control it returns.

The minimal-norm search keeps its horizon fixed, so it solves the uncontrolled
run and its costate once per point (:func:`heatctl.reach.free_run`) and hands
them to every probe.

The points of a curve are independent of each other once the free-decay time
is known, so :func:`minimal_time_curve` and :func:`minimal_norm_curve` solve
them in forked worker processes (:func:`_map_points`): one worker per CPU
this process may run on, at most one per point, and none when that makes
fewer than two, when another thread is running, or when a function of the
point's modules has been patched in place (a call recorder or a tracer).
Each point runs the same code on the same inputs as in the serial loop, so
the results are identical; ``taskset -c 0`` forces a serial run.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, NamedTuple

import numpy as np

from . import core, pde, reach
from .core import (
    ControlSignal,
    NoFeasibleBoundError,
    NonlinearitySpec,
    SpatialGrid,
    TargetBall,
    l2_norm,
    step_l2_norms,
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
    dual_lower_bound,
    free_run,
    is_linear,
    masked_costate,
    min_terminal_norm,
    reaches_ball,
)


@dataclass(frozen=True)
class ValuePoint:
    """One sampled point of a value function.

    ``bracket_lo``/``bracket_hi`` is the final bisection bracket (equal values
    for degenerate cases decided without bisection); ``control`` is the
    certified control from the feasible endpoint, or the zero control when no
    bisection ran (None only for points parsed back from a curve CSV).
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


def _serve(fn, conn) -> None:
    """Worker loop of :func:`_map_points`: answer each ``(x,)`` received with
    ``(True, fn(x))``, or ``(False, exception)`` when fn(x) raises, until
    None arrives."""
    while (task := conn.recv()) is not None:
        try:
            conn.send((True, fn(task[0])))
        except Exception as exc:
            conn.send((False, exc))


def _map_points(fn, xs) -> list:
    """``[fn(x) for x in xs]``, computed in forked workers when it can be.

    Uses min(len(xs), CPUs this process may run on) worker processes, and
    runs serially when that is below 2, where ``fork`` is not available,
    inside a daemonic process (which may not start children), when another
    thread is running (a forked child gets only this thread, and any lock
    another one holds stays locked in it), or when a function of a module a
    point runs through has been replaced since import (a call recorder or
    tracer patched into this process would not see the workers' calls).
    fn reaches the workers through the fork, not through pickle, so it may
    close over lambdas; only each x and each result cross the process
    boundary.  When some fn(x) raises, no further x is handed out, and the
    exception of the first such x in order is raised, as the serial loop
    would raise it: the xs are handed out in order, so every earlier x has
    been solved by then.

    The main thread hands each worker its next x as soon as it answers and
    receives every result itself: a pool's result thread would unpickle the
    results into a malloc arena of its own, which holds on to that memory.
    """
    xs = list(xs)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    workers = min(len(xs), cpus)
    if workers >= 2:
        import multiprocessing
        import threading

        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon
                or threading.active_count() > 1 or _patched()):
            workers = 1
    if workers < 2:
        return [fn(x) for x in xs]

    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    outcomes = [None] * len(xs)
    tasks = iter(enumerate(xs))
    pending = {}  # connection -> index of the x its worker is solving
    started = []  # (process, connection)
    failed = False

    def hand_next(conn):
        task = None if failed else next(tasks, None)
        if task is None:
            conn.send(None)
        else:
            pending[conn] = task[0]
            conn.send(task[1:])

    try:
        for _ in range(workers):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(fn, child_conn), daemon=True)
            proc.start()
            child_conn.close()
            started.append((proc, conn))
            hand_next(conn)
        while pending:
            for conn in wait(list(pending)):
                try:
                    outcome = conn.recv()
                except EOFError:
                    raise RuntimeError("a worker process exited without an answer") from None
                outcomes[pending.pop(conn)] = outcome
                failed = failed or not outcome[0]
                hand_next(conn)
    except BaseException:
        for proc, _ in started:
            proc.terminate()
        raise
    finally:
        for proc, conn in started:
            proc.join()
            conn.close()
    for ok, value in filter(None, outcomes):
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _patched() -> bool:
    """Whether a function of core, pde, reach or this module differs from
    the one the module defined or imported (see :func:`_map_points`)."""
    return any(vars(module).get(name) is not fn for module, name, fn in _AS_IMPORTED)


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
    raise NoFeasibleBoundError(
        f"free decay did not enter the ball within horizon {horizon:.3g}; "
        "check the target radius against the initial norm"
    )


def _unbisected(parameter: float, value: float, horizon: float, gamma: float,
                nt: int, f: NonlinearitySpec, g: SpatialGrid) -> ValuePoint:
    """A point decided without the oracle: the zero control reaches the ball."""
    diagnostics = {"free_decay_time": gamma, "oracle_calls": 0, "inconclusive": 0}
    if is_linear(f):
        diagnostics["dual_lower_bound"] = 0.0
    return ValuePoint(parameter=parameter, value=value, bracket_lo=value, bracket_hi=value,
                      iterations=0, control=ControlSignal.zeros(nt, horizon / nt, g),
                      diagnostics=diagnostics)


def _bisect(oracle, parameter: float, hi: float, widen, width, widen_key: str,
            gamma: float, lo: float = 0.0) -> ValuePoint:
    """Smallest feasible x of a monotone oracle, called as ``oracle(x, warm_start=u)``.

    ``lo`` is a lower end known to be infeasible.  While the upper end ``hi``
    is infeasible, ``widen(k, lo, hi, res)`` gives the k-th wider bracket or
    raises :class:`NoFeasibleBoundError`.  Then [lo, hi] is halved until
    ``hi - lo <= width(hi)``, each probe warm-started from the last feasible
    control.
    """
    inconclusive = []  # one flag per oracle call

    def probe(x, warm):
        res = oracle(x, warm_start=warm)
        inconclusive.append(res.inconclusive)
        return res

    res = probe(hi, None)
    widenings = 0
    while not res.feasible:
        widenings += 1
        lo, hi = widen(widenings, lo, hi, res)
        res = probe(hi, res.control)
    best_control = res.control

    while hi - lo > width(hi):
        mid = 0.5 * (lo + hi)
        res = probe(mid, best_control)
        if res.feasible:
            hi = mid
            best_control = res.control
        else:
            lo = mid

    return ValuePoint(parameter=parameter, value=0.5 * (lo + hi), bracket_lo=lo,
                      bracket_hi=hi, iterations=len(inconclusive), control=best_control,
                      diagnostics={"free_decay_time": gamma, "oracle_calls": len(inconclusive),
                                   "inconclusive": sum(inconclusive), widen_key: widenings})


class _DualProbe(NamedTuple):
    """A horizon probed with the dual bound of its free run alone: infeasible
    when the bound exceeds M, otherwise left to the oracle."""

    feasible: bool
    terminal_norm: float
    control: None = None
    inconclusive: bool = False


def minimal_norm(T: float, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                 g: SpatialGrid, tol_M: float = 1e-3,
                 opts: ReachOptions | None = None, nt: int = 300,
                 gamma_hint: float | None = None) -> ValuePoint:
    """Smallest pointwise norm bound whose controls reach the ball at time T.

    For T at or beyond the free-decay time the value is 0 with the zero
    control.  Otherwise the upper bound is found by doubling from 1 or, when
    f is linear, by climbing from the dual bound (module docstring), and
    bisection stops once the bracket width is below tol_M*(1 + upper).
    """
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {T}")
    y0 = np.asarray(y0, dtype=float)
    gamma = gamma_hint if gamma_hint is not None else free_decay_time(y0, ball, f, g, nt=nt)
    if T >= gamma:
        return _unbisected(T, 0.0, T, gamma, nt, f, g)
    free = free_run(y0, T, nt, f, g)
    oracle = partial(min_terminal_norm, y0, T, ball=ball, f=f, g=g, opts=opts, nt=nt,
                     free=free)

    def width(hi):
        return tol_M * (1.0 + hi)

    def give_up(k, hi):
        if k > 60:
            raise NoFeasibleBoundError(
                f"no feasible control found up to norm bound {hi:.3g} at T={T}"
            )

    if not is_linear(f):
        def double(k, lo, hi, res):
            give_up(k, 2.0 * hi)
            return hi, 2.0 * hi

        return _bisect(oracle, T, 1.0, double, width, "doublings", gamma)

    bounds = [dual_lower_bound(free, ball, f, g, opts)]

    # The first probe sits an eighth of the width rule above the bound, so
    # when the bound is tight the value (the bracket's midpoint) lies within
    # a sixteenth of the rule of it.  A failed probe's terminal state gives
    # a dual bound that lies above the probe when the oracle solved it, and
    # the gap above the lower end doubles with each failure, so the climb
    # cannot creep.
    def above(lo, k):
        return lo + 2.0 ** k * width(lo) / 8.0

    def climb(k, lo, hi, res):
        give_up(k, hi)
        bounds.append(dual_lower_bound(free, ball, f, g, opts, xi=res.terminal_state))
        lo = max(hi, bounds[-1])
        return lo, above(lo, k - 1)

    point = _bisect(oracle, T, above(bounds[0], 0), climb, width, "doublings", gamma,
                    lo=bounds[0])
    return replace(point, diagnostics={**point.diagnostics,
                                       "dual_lower_bound": max(bounds)})


def minimal_time(M: float, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                 g: SpatialGrid, tol_T: float = 1e-3,
                 opts: ReachOptions | None = None, nt: int = 300,
                 gamma_hint: float | None = None) -> ValuePoint:
    """Smallest time at which controls bounded pointwise by M reach the ball.

    M = 0 degenerates to the free-decay time.  Otherwise bisect on the horizon
    over (0, free-decay time], or, when f is linear, from the dual crossing
    (module docstring); feasibility is monotone in the horizon because the
    ball is invariant under free decay.  tol_T is relative to the free-decay
    time.
    """
    if M < 0.0:
        raise ValueError(f"norm bound must be nonnegative, got {M}")
    y0 = np.asarray(y0, dtype=float)
    gamma = gamma_hint if gamma_hint is not None else free_decay_time(y0, ball, f, g, nt=nt)
    if M == 0.0:
        return _unbisected(M, gamma, gamma, gamma, nt, f, g)

    # The free decay itself reaches the ball at gamma, so only discretization
    # slop can make the upper end fail.  A failed upper end is infeasible, so
    # it becomes the lower end, and the upper end moves up a little, at most
    # to ``top``.
    top = gamma * (1.0 + 0.02 * 2 ** 3)

    def give_up(res):
        raise NoFeasibleBoundError(
            f"could not certify feasibility near the free-decay time {gamma:.6g} "
            f"for M={M}; oracle terminal norm {res.terminal_norm:.6g}"
        )

    def past_gamma(k, lo, hi, res):
        if k > 4:
            give_up(res)
        return hi, gamma * (1.0 + 0.02 * 2 ** (k - 1))

    tol_abs = tol_T * gamma

    def width(hi):
        return tol_abs

    if not is_linear(f):
        oracle = partial(min_terminal_norm, y0, M=M, ball=ball, f=f, g=g, opts=opts, nt=nt)
        return _bisect(oracle, M, gamma, past_gamma, width, "upper_expansions", gamma)

    # Free runs only: the last horizon the dual bound leaves open keeps its
    # free run for the oracle call that confirms it.
    kept = {}

    def refute(T, warm_start=None):
        free = free_run(y0, T, nt, f, g)
        feasible = dual_lower_bound(free, ball, f, g, opts) <= M
        if feasible:
            kept.clear()
            kept[T] = free
        return _DualProbe(feasible, float(free.trajectory.norms[-1]))

    crossing = _bisect(refute, M, gamma, past_gamma, width, "upper_expansions", gamma)

    def oracle(T, warm_start=None):
        return min_terminal_norm(y0, T, M, ball, f, g, opts=opts, nt=nt,
                                 warm_start=warm_start, free=kept.get(T))

    # When the oracle cannot reach the ball at the crossing, the gap above it
    # doubles with each failed probe, up to ``top``.
    def climb(k, lo, hi, res):
        if hi >= top:
            give_up(res)
        return hi, min(hi + 2.0 ** k * tol_abs, top)

    point = _bisect(oracle, M, crossing.bracket_hi, climb, width, "upper_expansions",
                    gamma, lo=crossing.bracket_lo)
    expansions = (crossing.diagnostics["upper_expansions"]
                  + point.diagnostics["upper_expansions"])
    return replace(point, diagnostics={**point.diagnostics, "upper_expansions": expansions,
                                       "dual_lower_bound": float(crossing.bracket_lo)})


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
    masked = masked_costate(psi, g)
    return ControlSignal(dt=psi.dt, nt=psi.nt,
                         values=bangbang_values(masked, step_l2_norms(masked, g.h), M),
                         grid=g)


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

    ctrl = np_point.control
    extra = max(nt // 2, 1)
    extended = np.vstack([ctrl.values, np.zeros((extra, g.n))])
    traj = solve_forward(y0, ControlSignal(dt=ctrl.dt, nt=ctrl.nt + extra,
                                           values=extended, grid=g), f, g)
    ext_hit = hitting_time(traj, ball)
    ext_residual = None if ext_hit is None else abs(ext_hit - T)
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

    max_norm = float(np.max(tp_point.control.step_norms()))
    terminal = float(solve_forward(y0, tp_point.control, f, g).norms[-1])
    restriction_ok = (max_norm <= M * (1.0 + 1e-6) + 1e-300
                      and reaches_ball(terminal, ball, opts))
    return EquivalenceBoundReport(M=M, time_value=tp_point.value,
                                  norm_roundtrip=np_point.value,
                                  relative_residual=residual,
                                  restricted_max_norm=max_norm,
                                  restricted_terminal_norm=terminal,
                                  restriction_ok=restriction_ok,
                                  time_point=tp_point, norm_point=np_point)


def minimal_time_curve(M_grid, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                       g: SpatialGrid, tol_T: float = 1e-3,
                       opts: ReachOptions | None = None, nt: int = 300,
                       gamma_hint: float | None = None) -> ValueCurve:
    """Minimal-time values over a strictly increasing grid of norm bounds.

    The points are solved in forked worker processes when more than one CPU
    is available (see :func:`_map_points`); the result is the same as a
    serial loop's.  The call runs serially when another thread is running.
    """
    M_grid = [float(m) for m in M_grid]
    if not M_grid or any(b <= a for a, b in zip(M_grid, M_grid[1:])):
        raise ValueError("norm-bound grid must be nonempty and strictly increasing")
    y0 = np.asarray(y0, dtype=float)
    gamma = gamma_hint if gamma_hint is not None else free_decay_time(y0, ball, f, g, nt=nt)
    points = tuple(_map_points(partial(minimal_time, y0=y0, ball=ball, f=f, g=g, tol_T=tol_T,
                                       opts=opts, nt=nt, gamma_hint=gamma), M_grid))
    values = [p.value for p in points]
    strictly_decreasing = all(b < a for a, b in zip(values, values[1:]))
    return ValueCurve(points=points, monotone=strictly_decreasing,
                      diagnostics={"free_decay_time": gamma,
                                   "first_value_over_free_decay": values[0] / gamma,
                                   "last_value_over_free_decay": values[-1] / gamma})


def minimal_norm_curve(T_grid, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                       g: SpatialGrid, tol_M: float = 1e-3,
                       opts: ReachOptions | None = None, nt: int = 300,
                       gamma_hint: float | None = None) -> ValueCurve:
    """Minimal-norm values over a strictly increasing grid of horizons.

    Horizons must stay within (0, free-decay time]; beyond that the value is
    identically zero and the sweep refuses the grid.  The points are solved
    as in :func:`minimal_time_curve`, in forked workers when it can be.
    """
    T_grid = [float(t) for t in T_grid]
    if not T_grid or any(b <= a for a, b in zip(T_grid, T_grid[1:])):
        raise ValueError("horizon grid must be nonempty and strictly increasing")
    y0 = np.asarray(y0, dtype=float)
    gamma = gamma_hint if gamma_hint is not None else free_decay_time(y0, ball, f, g, nt=nt)
    if T_grid[0] <= 0.0 or T_grid[-1] > gamma * (1.0 + 1e-9):
        raise ValueError(
            f"horizon grid must lie in (0, {gamma:.6g}] (the free-decay time)"
        )
    points = tuple(_map_points(partial(minimal_norm, y0=y0, ball=ball, f=f, g=g, tol_M=tol_M,
                                       opts=opts, nt=nt, gamma_hint=gamma), T_grid))
    values = [p.value for p in points]
    non_increasing = all(b <= a for a, b in zip(values, values[1:]))
    return ValueCurve(points=points, monotone=non_increasing,
                      diagnostics={"free_decay_time": gamma})


# The functions of the modules a value point runs through, as imported.
_AS_IMPORTED = [(module, name, fn)
                for module in (core, pde, reach, sys.modules[__name__])
                for name, fn in vars(module).items() if inspect.isfunction(fn)]
