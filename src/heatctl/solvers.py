"""Value functions of the control problems, bang-bang scoring, and round trips.

The minimal time for a given norm bound and the minimal norm bound for a given
horizon are the same search: one bisection driver, :func:`_bisect`, over the
reachability oracle.  Bisection is valid because feasibility is monotone (a
bigger M or a longer horizon can only help), and it is robust to the oracle's
small noise near the feasibility boundary.  Every search runs between a
certified lower end and an upper end that is feasible with its control, and
probes neither end; each value function certifies that upper end first.
Each probe is warm-started from the control of the last feasible one, and
the search stops once the bracket meets its width rule or its ends are
adjacent floats.

Probes are decided before the oracle is called wherever a certificate does
it.  Weak duality (:func:`heatctl.reach.dual_lower_bound`, the discrete dual
problem of Wang & Zuazua, SIAM J. Control Optim. 50 (2012), widened for a
reaction term with |f'| <= L) refutes every value below its bound.
Bang-bang controls along the masked costate give upper ends: for f = 0
:func:`heatctl.reach.dual_pair`, with a reaction term
:func:`heatctl.reach.bangbang_ray`, whose miss proves nothing.  All of them
and the oracle read a horizon's one :class:`heatctl.reach.FreeRun`, target
ball included, which :meth:`Problem.free_run` builds.  Every uncontrolled
run, the free decay's included, is a FreeRun's ``trajectory``.

* The minimal norm takes the dual pair of its free run: it refutes every M
  below the lower end and calls the oracle on the others.  It searches
  between the pair's two ends, the upper one with the pair's control, when
  the pair has a control (f = 0, as a rule); otherwise it first doubles from
  1 until the oracle finds a feasible bound, giving up, with the last upper
  end named, before the next would pass ``MAX_NORM_BOUND``.
* The minimal time searches (0, gamma], gamma the free-decay time, whose
  zero control the :class:`Problem` certifies once, which counts as its
  first probe.  A first search refutes each horizon whose free run's bound
  exceeds M; with a reaction term the ray decides the others, a miss
  counting as infeasible for this search only, and for f = 0 they stay open,
  so the search finds where the bound crosses M.  A second search then steps
  down from an upper end known to be feasible, probing one given horizon
  first, and halves; its probes are refuted by the bound, settled or refuted
  by the pair (f = 0), or else decided by the oracle.  For f = 0 it steps
  down from gamma with the zero control, the crossing first.  With a
  reaction term it runs only when the lower end is a miss, and steps down
  from the ray's upper end, the miss first, which the oracle confirms
  warm-started from the ray's control: one oracle call per point, as a rule.

  Each horizon's bound is first enclosed without a solve
  (:func:`heatctl.reach.dual_bound_enclosure`): the horizon is refuted when
  the enclosure's lower end exceeds M, open when its upper end does not, and
  only in between is the exact bound solved.  Both read y_free(T) from the
  horizon's free run (``FreeRun.terminal``), for f = 0 in closed form by two
  sine transforms (:func:`heatctl.pde.linear_free_state`), so for f = 0 no
  probe simulates its free run.  A probe costs:

  - decided by the enclosure: no solve for f = 0, its free run with a
    reaction term;
  - decided by the exact bound: on top, one zero-reaction adjoint;
  - decided by the ray: on top, the free run's costate with the reaction
    term and the ray's runs (:func:`heatctl.reach.bangbang_ray`);
  - settled in the second search, once its bound leaves it open in the same
    way: for f = 0 the pair's solves (an adjoint per datum and one forward
    solve, of its control: :func:`heatctl.reach.dual_pair`), with a
    reaction term an oracle call on the free run already simulated.

The minimal norm with a reaction term keeps its cold probe sequence (lower
end 0, doubling from 1).  A refuted probe would have been infeasible for the
oracle too, and its refuted doubling probes pass no failed control on as the
next warm start; on every point tried (both built-in reactions, full and
masked control) that control would not have won, so the points stay
bit-identical to the cold search: observed, not proven.

Every point records its dual bound in its diagnostics as ``dual_lower_bound``:
the pair's lower end for a minimal norm, the largest refuted horizon for
a minimal time, and 0 when none was certified.  ``oracle_calls`` counts the
oracle calls and ``iterations`` every probe of both searches, refuted and
ray-decided ones and the upper end's certificate included.  A point's
``bracket_lo`` is an infeasible oracle probe or its bound, never a ray's
miss, and its ``bracket_hi`` a feasible probe whose control it returns.

The value functions take one :class:`Problem`.  The points of a curve are
independent of each other given it, so :func:`minimal_time_curve` and
:func:`minimal_norm_curve` solve them in forked worker processes
(:func:`_map_points`): one worker per CPU this process may run on, at most
one per point, and none when that makes fewer than two, when another
thread is running, or when a function of the point's modules has been
patched in place (a call recorder or a tracer).
Each point runs the same code on the same inputs as in the serial loop, so
the results are identical; ``taskset -c 0`` forces a serial run.  The
brute-force bracket of :mod:`heatctl.oracle` maps its chunks of candidates
the same way.
"""

from __future__ import annotations

import inspect
import math
import os
import pickle
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
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
)
from .pde import hitting_time, principal_eigenvalue, solve_forward
from .reach import (
    MAX_ITERS,
    accept,
    bangbang_ray,
    dual_bound_enclosure,
    dual_lower_bound,
    dual_pair,
    is_linear,
    min_terminal_norm,
)


@dataclass(frozen=True)
class ValuePoint:
    """One sampled point of a value function.

    ``bracket_lo``/``bracket_hi`` is the final bisection bracket (equal values
    for degenerate cases decided without bisection); ``control`` is the
    certified control from the feasible endpoint, or the zero control when no
    bisection ran.
    """

    parameter: float
    value: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    control: ControlSignal
    diagnostics: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ValueCurve:
    """Value points at strictly increasing parameters."""

    points: tuple[ValuePoint, ...]
    monotone: bool
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        params = [p.parameter for p in self.points]
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("curve parameters must be strictly increasing")


def _serve(fn, conn) -> None:
    """Worker loop of :func:`_map_points`: answer each ``(x,)`` received with
    ``(True, fn(x))``, or ``(False, exception)`` when fn(x) raises, until
    None arrives.  An exception that does not survive pickling (a class
    defined inside fn, say) is sent as a RuntimeError naming its type and
    message."""
    while (task := conn.recv()) is not None:
        try:
            conn.send((True, fn(task[0])))
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}")
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
    been solved by then.  A raise is also how a caller stops the map early:
    :func:`heatctl.oracle.bruteforce_minimal_norm_bracket` raises from the
    first chunk of candidates that reaches the ball.

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
                index = pending.pop(conn)
                try:
                    outcomes[index] = conn.recv()
                except EOFError:
                    raise RuntimeError("a worker process exited without an answer") from None
                failed = failed or not outcomes[index][0]
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
            # The raised exception's traceback holds this frame, so no local
            # may hold the exception: the frame, fn and what fn closes over
            # would then live until a cyclic collection, not go with it.
            outcomes = None
            try:
                raise value
            finally:
                value = None
    return [value for _, value in outcomes]


def _patched() -> bool:
    """Whether a function of core, pde, reach or this module differs from
    the one the module defined or imported (see :func:`_map_points`)."""
    return any(vars(module).get(name) is not fn for module, name, fn in _AS_IMPORTED)


# How often :func:`free_decay_time` doubles its horizon before it gives up.
FREE_DECAY_DOUBLINGS = 60

# Time steps per solve when the caller gives no nt.
DEFAULT_NT = 300


def free_decay_time(y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                    g: SpatialGrid, nt: int = DEFAULT_NT) -> float:
    """First time the uncontrolled run enters the target ball.

    Starts from a horizon suggested by the decay envelope and doubles it until
    the crossing appears (at most ``FREE_DECAY_DOUBLINGS`` times), then
    re-runs on a horizon tight around the crossing so the reported time uses
    the same step resolution as downstream feasibility probes.
    """
    y0 = np.asarray(y0, dtype=float)
    norm0 = l2_norm(y0, g)
    if norm0 <= ball.r:
        return 0.0
    horizon = max(1.2 * math.log(norm0 / ball.r) / principal_eigenvalue(g), 1e-9)
    for _ in range(FREE_DECAY_DOUBLINGS):
        traj = reach.FreeRun(y0, horizon, nt, f, g, ball).trajectory
        t_rough = hitting_time(traj, ball)
        if t_rough is not None:
            if t_rough <= 0.0:
                return 0.0
            refined_h = t_rough * (1.0 + 5.0 / nt)
            traj = reach.FreeRun(y0, refined_h, nt, f, g, ball).trajectory
            t = hitting_time(traj, ball)
            return t if t is not None else t_rough
        horizon *= 2.0
    raise NoFeasibleBoundError(
        f"free decay did not enter the ball within horizon {horizon:.3g}; "
        "check the target radius against the initial norm"
    )


@dataclass(frozen=True, eq=False)
class Problem:
    """One control problem: y0, the ball, f and g, solved in nt steps with
    the value functions' tolerances and the oracle's budget ``max_iters``.
    It refuses (ValueError naming the field) a tolerance outside (0, inf),
    an nt or max_iters that is not a positive int, and a y0 that is not
    finite, then keeps a read-only copy of y0 and the free-decay time
    ``gamma``, found unless given (ValueError when 0 or not finite), and
    certifies ``zero`` lazily."""

    y0: np.ndarray
    ball: TargetBall
    f: NonlinearitySpec
    g: SpatialGrid
    nt: int = DEFAULT_NT
    tol_t: float = 1e-3
    tol_m: float = 1e-3
    max_iters: int = MAX_ITERS
    gamma: float | None = None

    def __post_init__(self):
        for name, tol in (("tol_t", self.tol_t), ("tol_m", self.tol_m)):
            if not 0.0 < tol < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {tol}")
        for name, count in (("nt", self.nt), ("max_iters", self.max_iters)):
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
                raise ValueError(f"{name} must be a positive integer, got {count!r}")
        y0 = np.array(self.y0, dtype=float)
        if not np.isfinite(y0).all():
            raise ValueError("y0 must be finite")
        y0.setflags(write=False)
        gamma = (free_decay_time(y0, self.ball, self.f, self.g, nt=self.nt)
                 if self.gamma is None else self.gamma)
        if not 0.0 < gamma < math.inf:
            raise ValueError("the initial state is in the target ball: gamma is 0" if gamma == 0
                             else f"free-decay time must be positive and finite, got {gamma}")
        self.__dict__.update(y0=y0, gamma=gamma)  # frozen: bypass __setattr__

    @cached_property
    def zero(self) -> ControlSignal:
        """The zero control, certified at gamma when first read, or NoFeasibleBoundError."""
        run, zero = accept(self.free_run(self.gamma))
        if zero is None:
            raise NoFeasibleBoundError(
                f"could not certify feasibility near the free-decay time {self.gamma:.6g}; "
                f"the free run ends at norm {run.norms[-1]:.6g} there")
        return zero

    def free_run(self, T: float) -> reach.FreeRun:
        """The :class:`heatctl.reach.FreeRun` over (0, T]; solves nothing."""
        return reach.FreeRun(self.y0, T, self.nt, self.f, self.g, self.ball)


def _bisect(probe, log: list, lo: float, hi: float, control: ControlSignal | None,
            width, first: float | None = None) -> tuple[float, float, ControlSignal | None]:
    """Narrow a certified bracket of a monotone probe, called as
    ``probe(x, warm_start=u)``, and return the last ``(lo, hi, control)``.

    ``lo`` is known to be infeasible and ``hi`` to be feasible with
    ``control``; neither is probed.  The bracket is halved until
    ``hi - lo <= width(hi)``, or until its midpoint is no longer strictly
    inside (the ends are adjacent floats), each probe warm-started from the
    last feasible control and its result appended to ``log``.  With
    ``first`` in (lo, hi), the search steps down from hi instead of halving:
    it probes ``first``, then steps down by twice the last step after each
    feasible probe, while that stays above lo and until a probe fails.
    """
    x = hi if first is None else first
    step = hi - x
    while hi - lo > width(hi):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        res = probe(x, warm_start=control)
        log.append(res)
        if res.feasible:
            hi, control, step = x, res.control, 2.0 * step
        else:
            lo, step = x, 0.0
        x = hi - step
    return lo, hi, control


def _point(parameter: float, lo: float, hi: float, control: ControlSignal, log: list,
           gamma: float, bound: float, **extra) -> ValuePoint:
    """The value point of the bracket (lo, hi], hi feasible with control,
    after the probes in ``log``; ``bound`` is the point's dual lower bound.
    ``oracle_calls`` counts the probes not decided without the oracle
    (:class:`_Decided`)."""
    return ValuePoint(parameter=parameter, value=0.5 * (lo + hi), bracket_lo=lo,
                      bracket_hi=hi, iterations=len(log), control=control,
                      diagnostics={"free_decay_time": gamma,
                                   "oracle_calls": sum(not isinstance(res, _Decided)
                                                       for res in log),
                                   "inconclusive": sum(res.inconclusive for res in log),
                                   **extra, "dual_lower_bound": bound})


class _Decided(NamedTuple):
    """A probe decided without the oracle: refuted by a dual bound, settled
    with a control (the dual pair's, the bang-bang ray's, or zero at the
    free-decay time), open on the linear crossing, or missed by the ray
    (infeasible for the search only)."""

    feasible: bool
    control: ControlSignal | None = None
    inconclusive: bool = False


# The largest norm bound a minimal-norm doubling probes.
MAX_NORM_BOUND = 2.0 ** 60


def minimal_norm(problem: Problem, T: float) -> ValuePoint:
    """Smallest pointwise norm bound whose controls reach the ball at time T.

    At or past the free-decay time it is 0 with the zero control, once the
    free run reaches the ball (else :class:`NoFeasibleBoundError`).
    Otherwise the search starts from the free run's dual pair, or doubles its
    upper end from 1 without the pair's control (module docstring), and
    bisection stops once the bracket width is below tol_m*(1 + upper).
    """
    free, gamma = problem.free_run(T), problem.gamma
    if T >= gamma:
        run, zero = (None, problem.zero) if T == gamma else accept(free)
        if zero is None:
            raise NoFeasibleBoundError(
                f"the zero control does not reach the ball at T={T}, at or past the "
                f"free-decay time {gamma:.6g}; the free run ends at norm {run.norms[-1]:.6g}")
        return _point(T, 0.0, 0.0, zero, [], gamma, 0.0)

    def width(hi):
        return problem.tol_m * (1.0 + hi)

    bound, level, control = dual_pair(free, lambda lo, hi: hi - lo <= width(hi))

    def probe(M, warm_start=None):
        if M < bound:
            return _Decided(False)
        return min_terminal_norm(free, M, problem.max_iters, warm_start=warm_start)

    doublings = 0
    if control is not None:
        lo, hi, log = bound, level, [_Decided(True, control)]
    else:
        lo, hi, log = 0.0, 1.0, [probe(1.0)]
        while not log[-1].feasible:
            if 2.0 * hi > MAX_NORM_BOUND:
                raise NoFeasibleBoundError(f"no feasible control found up to norm bound "
                                           f"{hi:.3g} at T={T}")
            lo, hi, doublings = hi, 2.0 * hi, doublings + 1
            log.append(probe(hi, warm_start=log[-1].control))
        control = log[-1].control
    lo, hi, control = _bisect(probe, log, lo, hi, control, width)
    return _point(T, lo, hi, control, log, gamma, bound, doublings=doublings)


def minimal_time(problem: Problem, M: float) -> ValuePoint:
    """Smallest time at which controls bounded pointwise by M >= 0 reach the ball.

    M = 0 gives the free-decay time with the problem's zero control.
    Otherwise bisect on the horizon over (0, free-decay time], whose upper
    end that control certifies, to a width of tol_t times the free-decay
    time.  The dual bound, enclosed without a solve where that decides,
    refutes horizons, and the bang-bang ray (a reaction term) or the dual
    pair at the crossing (f = 0) settles the others (module docstring);
    feasibility is monotone in the horizon because the ball is invariant
    under free decay.
    """
    if not M >= 0.0:
        raise ValueError(f"norm bound must be nonnegative, got {M}")
    f, gamma, zero = problem.f, problem.gamma, problem.zero
    if M == 0.0:
        return _point(M, gamma, gamma, zero, [], gamma, 0.0)

    def width(hi):
        return problem.tol_t * gamma

    refuted = [0.0]
    # The last horizon the bound left open and nothing settled, with its free
    # run: for f = 0 the crossing, with a reaction term the ray's last miss.
    left_open = {}

    def bounded(T):
        """Whether T's dual bound exceeds M, and T's free run, which for f = 0
        is never simulated here."""
        free = problem.free_run(T)
        lo, hi = dual_bound_enclosure(free)
        if lo <= M < hi:
            lo = dual_lower_bound(free)
        if lo > M:
            refuted.append(T)
        return lo > M, free

    def probe(T, warm_start=None):
        exceeds, free = bounded(T)
        if exceeds:
            return _Decided(False)
        if not is_linear(f):
            control = bangbang_ray(free, M)
            if control is not None:
                return _Decided(True, control)
        left_open.clear()
        left_open[T] = free
        # open on the f = 0 crossing; a miss of the ray proves nothing
        return _Decided(is_linear(f))

    def settle(T, warm_start=None):
        # A certified probe: refuted by the dual bound (for f = 0 the pair's,
        # which settles T when it reaches the ball within M), else the oracle.
        exceeds, free = (False, left_open[T]) if T in left_open else bounded(T)
        if exceeds:
            return _Decided(False)
        if is_linear(f):
            bound, level, control = dual_pair(free, lambda lo, hi: hi <= M or lo > M)
            if control is not None and level <= M:
                return _Decided(True, control)
            if bound > M:
                refuted.append(T)
                return _Decided(False)
        return min_terminal_norm(free, M, problem.max_iters, warm_start=warm_start)

    log = [_Decided(True, zero)]
    lo, hi, control = _bisect(probe, log, 0.0, gamma, zero, width)
    # The second search, with certified probes.
    if is_linear(f):
        # from gamma with the zero control, the crossing first
        lo, hi, control = _bisect(settle, log, max(refuted), gamma, zero, width, first=hi)
    elif lo in left_open:
        # from the ray's upper end, the missed lower end first: the oracle
        # confirms it, warm-started from the ray's control
        lo, hi, control = _bisect(settle, log, max(refuted), hi, control, width, first=lo)
    return _point(M, lo, hi, control, log, gamma, max(refuted))


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
    alpha: float
    roundtrip: float
    residual: float
    extension_hitting_time: float | None
    extension_residual: float | None
    norm_point: ValuePoint
    time_point: ValuePoint


def verify_equivalence_time(problem: Problem, T: float) -> EquivalenceTimeReport:
    """|minimal_time(minimal_norm(T)) - T|, plus the hitting time of the
    minimal-norm control extended by zero past its horizon."""
    np_point = minimal_norm(problem, T)
    tp_point = minimal_time(problem, np_point.value)
    residual = abs(tp_point.value - T)

    ctrl, g = np_point.control, problem.g
    extra = max(problem.nt // 2, 1)
    extended = np.vstack([ctrl.values, np.zeros((extra, g.n))])
    traj = solve_forward(problem.y0, ControlSignal(dt=ctrl.dt, nt=ctrl.nt + extra,
                                                   values=extended, grid=g), problem.f, g)
    ext_hit = hitting_time(traj, problem.ball)
    ext_residual = None if ext_hit is None else abs(ext_hit - T)
    return EquivalenceTimeReport(T=T, alpha=np_point.value,
                                 roundtrip=tp_point.value, residual=residual,
                                 extension_hitting_time=ext_hit,
                                 extension_residual=ext_residual,
                                 norm_point=np_point, time_point=tp_point)


@dataclass(frozen=True)
class EquivalenceBoundReport:
    """Round trip M -> minimal time -> minimal norm, plus the restriction check."""

    M: float
    tau: float
    roundtrip: float
    relative_residual: float
    restricted_max_norm: float
    restriction_ok: bool
    time_point: ValuePoint
    norm_point: ValuePoint


def verify_equivalence_bound(problem: Problem, M: float) -> EquivalenceBoundReport:
    """|minimal_norm(minimal_time(M)) - M| / max(M, 1), plus a check that the
    time-optimal control, over its own horizon, is norm-feasible at level M."""
    tp_point = minimal_time(problem, M)
    np_point = minimal_norm(problem, tp_point.value)
    residual = abs(np_point.value - M) / max(M, 1.0)

    max_norm = float(np.max(tp_point.control.step_norms()))
    terminal = float(solve_forward(problem.y0, tp_point.control, problem.f, problem.g).norms[-1])
    restriction_ok = max_norm <= M * (1.0 + 1e-6) + 1e-300 and problem.ball.reaches(terminal)
    return EquivalenceBoundReport(M=M, tau=tp_point.value, roundtrip=np_point.value,
                                  relative_residual=residual,
                                  restricted_max_norm=max_norm,
                                  restriction_ok=restriction_ok,
                                  time_point=tp_point, norm_point=np_point)


def minimal_time_curve(M_grid, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                       g: SpatialGrid, tol_T: float = 1e-3,
                       max_iters: int = MAX_ITERS, nt: int = DEFAULT_NT,
                       gamma_hint: float | None = None) -> ValueCurve:
    """Minimal-time values over a strictly increasing grid of norm bounds.

    The points are solved in forked worker processes when more than one CPU
    is available (see :func:`_map_points`); the result is the same as a
    serial loop's.  The call runs serially when another thread is running.
    """
    M_grid = [float(m) for m in M_grid]
    if not M_grid or any(b <= a for a, b in zip(M_grid, M_grid[1:])):
        raise ValueError("norm-bound grid must be nonempty and strictly increasing")
    problem = Problem(y0, ball, f, g, nt=nt, tol_t=tol_T, max_iters=max_iters, gamma=gamma_hint)
    problem.zero  # certified here once, not in each forked worker
    points = tuple(_map_points(partial(minimal_time, problem), M_grid))
    values = [p.value for p in points]
    strictly_decreasing = all(b < a for a, b in zip(values, values[1:]))
    return ValueCurve(points=points, monotone=strictly_decreasing,
                      diagnostics={"free_decay_time": problem.gamma,
                                   "first_value_over_free_decay": values[0] / problem.gamma,
                                   "last_value_over_free_decay": values[-1] / problem.gamma})


def minimal_norm_curve(T_grid, y0: np.ndarray, ball: TargetBall, f: NonlinearitySpec,
                       g: SpatialGrid, tol_M: float = 1e-3,
                       max_iters: int = MAX_ITERS, nt: int = DEFAULT_NT,
                       gamma_hint: float | None = None) -> ValueCurve:
    """Minimal-norm values over a strictly increasing grid of horizons.

    Horizons must stay within (0, free-decay time]; beyond that the value is
    identically zero and the sweep refuses the grid.  The points are solved
    as in :func:`minimal_time_curve`, in forked workers when it can be.
    """
    T_grid = [float(t) for t in T_grid]
    if not T_grid or any(b <= a for a, b in zip(T_grid, T_grid[1:])):
        raise ValueError("horizon grid must be nonempty and strictly increasing")
    problem = Problem(y0, ball, f, g, nt=nt, tol_m=tol_M, max_iters=max_iters, gamma=gamma_hint)
    if T_grid[0] <= 0.0 or T_grid[-1] > problem.gamma * (1.0 + 1e-9):
        raise ValueError(f"horizon grid must lie in (0, {problem.gamma:.6g}] "
                         "(the free-decay time)")
    points = tuple(_map_points(partial(minimal_norm, problem), T_grid))
    values = [p.value for p in points]
    non_increasing = all(b <= a for a, b in zip(values, values[1:]))
    return ValueCurve(points=points, monotone=non_increasing,
                      diagnostics={"free_decay_time": problem.gamma})


# The functions of the modules a value point runs through, as imported.
_AS_IMPORTED = [(module, name, fn)
                for module in (core, pde, reach, sys.modules[__name__])
                for name, fn in vars(module).items() if inspect.isfunction(fn)]
