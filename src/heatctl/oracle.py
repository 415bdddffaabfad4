"""Independent ground truth at desk scale.

Two routes whose numerics share nothing with the PDE solvers or the
bisection layer:

* closed forms for the one-mode reduction (full-interval control, no reaction
  term, initial data on the first eigenfunction), where the optimal control is
  constant full thrust and the minimal time / minimal norm are elementary;
* a brute-force enumerator over a finite family of low-mode controls,
  integrated with RK4 on the mode amplitudes, which brackets the minimal norm
  between the largest infeasible and the smallest feasible level of a grid.
  It visits the levels in ascending order and stops at the first level some
  candidate reaches, so it integrates only the candidates that decide the
  bracket.  Within a chunk of candidates it integrates each distinct control
  prefix (the coefficients of the slices so far) once per slice.

The enumerator shares one thing with the solvers: the forked workers of
:func:`heatctl.solvers._map_points`, over which it spreads its chunks of
candidates.  What runs in them is this module's own RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import (
    DimensionMismatchError,
    EnumerationBudgetError,
    NonlinearitySpec,
    SolverDivergenceError,
    SpatialGrid,
    TargetBall,
    zero_reaction,
)
from .pde import dirichlet_eigs
from .solvers import _map_points


@dataclass(frozen=True)
class ScalarInstance:
    """One-mode reduction: amplitude a0 decaying at rate lam toward radius r."""

    a0: float
    r: float
    lam: float

    def __post_init__(self):
        if not self.a0 > self.r > 0.0:
            raise ValueError(f"need a0 > r > 0, got a0={self.a0}, r={self.r}")
        if self.lam <= 0.0:
            raise ValueError(f"decay rate must be positive, got {self.lam}")

    @property
    def free_decay_time(self) -> float:
        return math.log(self.a0 / self.r) / self.lam


def scalar_minimal_time(inst: ScalarInstance, M: float) -> float:
    """Minimal time for a' = -lam*a + u, |u| <= M, from a0 down to r.

    Full thrust u = -M is optimal; integrating the resulting linear equation
    gives (1/lam) * log((a0 + M/lam) / (r + M/lam)), computed as
    log1p((a0 - r) / (r + M/lam)) so that a large M keeps its digits.
    """
    if M < 0.0:
        raise ValueError(f"norm bound must be nonnegative, got {M}")
    return math.log1p((inst.a0 - inst.r) / (inst.r + M / inst.lam)) / inst.lam


def scalar_minimal_norm(inst: ScalarInstance, T: float) -> float:
    """Algebraic inverse of :func:`scalar_minimal_time` on (0, free-decay time]."""
    if not 0.0 < T <= inst.free_decay_time:
        raise ValueError(
            f"horizon {T} outside (0, {inst.free_decay_time:.6g}]; "
            "the minimal norm is 0 or undefined there"
        )
    decay = math.exp(-inst.lam * T)
    # 1 - decay as -expm1(-lam*T), which keeps the digits of a short horizon
    return inst.lam * (inst.a0 * decay - inst.r) / -math.expm1(-inst.lam * T)


@dataclass(frozen=True)
class LevelBracket:
    """Bracket on the minimal norm from a level grid.

    ``lower`` is the largest level at which every enumerated control fails,
    ``upper`` the smallest at which one succeeds.  ``lower`` is None when even
    the smallest level succeeds; ``upper`` is None when every level fails
    (value above the grid).  ``candidates`` counts the enumerated family;
    ``evaluations`` counts RK4 steps over the candidates the serial loop
    integrates: those at or below ``lower``, then the band of ``upper``
    through its first chunk holding a reaching candidate.  It counts each
    candidate's steps on every slice, not the RK4 rows that run: a chunk
    integrates each distinct control prefix once per slice, so fewer rows
    run than it counts.  In forked workers up to one chunk per further
    worker may be integrated past it; those are not counted, so the count
    is the same however the chunks were run.
    """

    lower: float | None
    upper: float | None
    levels: tuple[float, ...]
    feasible_by_level: tuple[bool, ...]
    candidates: int
    evaluations: int


# Real-axis stability limit of classical RK4: |R(z)| <= 1 on [-2.7853, 0]
# for R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  Past it the fastest mode's
# amplitude grows instead of decaying.
RK4_REAL_STABILITY = 2.785293563405282

# Most candidate-level evaluations an enumeration may ask for.
ENUMERATION_BUDGET = 10_000_000


class _Reached(Exception):
    """Raised by the chunk of the level band ``args[0]`` that holds a
    candidate reaching the ball; ``args[1]`` counts the candidates in the
    order of the serial loop through that chunk."""


def bruteforce_minimal_norm_bracket(y0: np.ndarray, T: float, k_modes: int,
                                    m_intervals: int, amp_grid, levels,
                                    f: NonlinearitySpec, g: SpatialGrid,
                                    ball: TargetBall, n_steps: int = 160,
                                    chunk: int = 512) -> LevelBracket:
    """Enumerate low-mode piecewise-constant controls and bracket the minimal norm.

    Dynamics are projected on the first ``k_modes`` eigenfunctions, with the
    reaction term evaluated on the grid and reprojected each stage.  Controls
    are piecewise constant on ``m_intervals`` equal time slices with spatial
    profiles in the span of the masked eigenfunctions; the coefficient of each
    of the k*m degrees of freedom ranges over ``amp_grid``.  A candidate
    counts toward a level when its largest pointwise norm stays below it, so
    feasibility per level is monotone.  The levels are visited in ascending
    order: each level's band (the candidates it admits and the level below it
    does not) is integrated ``chunk`` candidates at a time, and the first
    chunk holding a candidate that reaches the ball makes that level and all
    above it feasible.  Every level below was fully integrated and is
    infeasible; candidates above the top level are never integrated.  The
    chunks, in that order, go to :func:`heatctl.solvers._map_points`, which
    runs them in forked workers when it can; a reaching chunk raises
    :class:`_Reached`, no chunk is handed out after it, and the first such
    chunk in order is the one caught, so the bracket is the serial loop's.

    A candidate's state at the end of a slice depends only on its
    coefficients up to that slice (its prefix).  A chunk integrates each
    distinct prefix once per slice, from its parent prefix's state at the
    end of the slice before, so candidates sharing their first slices share
    those slices' RK4 steps.  A chunk whose terminal amplitudes are not
    finite raises :class:`SolverDivergenceError` instead of counting them
    as misses.

    The bracket is exact for the enumerated family only: pick levels the
    amplitude grid can realize (e.g. a subset of its absolute values),
    otherwise the bracket is biased toward larger values.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (g.n,):
        raise DimensionMismatchError(f"initial state has shape {y0.shape}, expected ({g.n},)")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state y0 must be finite")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    for name, value in (("k_modes", k_modes), ("m_intervals", m_intervals),
                        ("n_steps", n_steps), ("chunk", chunk)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    amp_grid = np.asarray(sorted(float(a) for a in amp_grid))
    if amp_grid.size == 0 or not np.all(np.isfinite(amp_grid)):
        raise ValueError("amp_grid must hold at least one value, all finite")
    levels = tuple(sorted(float(l) for l in levels))
    if len(levels) == 0:
        raise ValueError("need at least one level to bracket")
    if not all(l >= 0.0 for l in levels):
        raise ValueError(f"levels must be nonnegative numbers, got {levels}")

    dof = k_modes * m_intervals
    n_candidates = len(amp_grid) ** dof
    if n_candidates * max(len(levels), 1) > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{len(amp_grid)}^{dof} candidates x {len(levels)} levels exceeds "
            f"the budget of {ENUMERATION_BUDGET} evaluations"
        )

    spec = dirichlet_eigs(g, k_modes)
    modes = spec.eigenvectors                     # (k, n)
    lam = spec.eigenvalues                        # (k,)

    steps_per_slice = max(1, -(-n_steps // m_intervals))
    dt = T / (steps_per_slice * m_intervals)
    if lam[-1] * dt > RK4_REAL_STABILITY:
        raise ValueError(
            f"n_steps={n_steps} gives RK4 step {dt:.4g} with lam_{k_modes}*dt = "
            f"{lam[-1] * dt:.4g} past the stability limit {RK4_REAL_STABILITY:.4f}; "
            f"use n_steps >= {math.ceil(lam[-1] * T / RK4_REAL_STABILITY)}"
        )

    masked_modes = modes * g.omega_mask           # control profile basis
    # Modal forcing of profile sum_j c_j * masked_mode_j, and its gram for norms.
    forcing_map = g.h * modes @ masked_modes.T    # (k, k): row i = <masked e_j, e_i>
    gram = g.h * masked_modes @ masked_modes.T    # (k, k)

    a0 = g.h * modes @ y0                         # initial mode amplitudes

    # All coefficient tuples, laid out as (n_candidates, m, k).
    grids = np.meshgrid(*([amp_grid] * dof), indexing="ij")
    coeffs = np.stack([q.ravel() for q in grids], axis=-1).reshape(n_candidates,
                                                                   m_intervals, k_modes)
    # Pointwise control norm on each slice, maximized over slices.
    slice_sq = np.einsum("cmi,ij,cmj->cm", coeffs, gram, coeffs)
    candidate_level = np.sqrt(np.maximum(slice_sq, 0.0).max(axis=1))
    # band[c] = first level admitting candidate c; len(levels) = above the top.
    band = np.searchsorted(np.asarray(levels) * (1.0 + 1e-12), candidate_level)

    if f.f is zero_reaction:
        def rhs(a, force):
            return -(a * lam) + force
    else:
        def rhs(a, force):
            # a: (c, k); reaction evaluated on the grid and reprojected.
            y = a @ modes
            fy = f.f(y)
            return -(a * lam) - g.h * (fy @ modes.T) + force

    # The chunks in the order the serial loop visits them: band by band in
    # ascending level, ``chunk`` candidates at a time.  ``through[i]`` counts
    # the candidates of the bands below band i.  Slice 0 is the most
    # significant digit of a candidate index, so ``c // per_slice**(m-1-s)``
    # numbers c's prefix through slice s.
    per_slice = len(amp_grid) ** k_modes
    bands = [np.flatnonzero(band == i) for i in range(len(levels))]
    through = list(accumulate((len(members) for members in bands), initial=0))
    chunks = [(i, s) for i, members in enumerate(bands) for s in range(0, len(members), chunk)]

    def integrate(task):
        """Integrate one chunk; raise :class:`_Reached` when a candidate of
        it reaches the ball."""
        i, s = task
        members = bands[i][s:s + chunk]
        forces = np.einsum("ij,cmj->cmi", forcing_map, coeffs[members])
        # a holds one row per distinct prefix; row[c] is member c's row.
        a, row = a0[None, :], np.zeros(len(members), dtype=np.intp)
        for m in range(m_intervals):
            _, first, inverse = np.unique(members // per_slice ** (m_intervals - 1 - m),
                                          return_index=True, return_inverse=True)
            a, force, row = a[row[first]], forces[first, m, :], inverse
            for _ in range(steps_per_slice):
                k1 = rhs(a, force)
                k2 = rhs(a + 0.5 * dt * k1, force)
                k3 = rhs(a + 0.5 * dt * k2, force)
                k4 = rhs(a + dt * k3, force)
                a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(a)):
            raise SolverDivergenceError(
                f"RK4 on the mode amplitudes gave non-finite terminal states at level {levels[i]}")
        if np.any(np.sqrt(np.einsum("ci,ci->c", a, a)) <= ball.r):
            raise _Reached(i, through[i] + s + len(members))

    try:
        _map_points(integrate, chunks)
        first_feasible, integrated = len(levels), through[-1]
    except _Reached as reached:
        first_feasible, integrated = reached.args

    feasible_by_level = tuple(i >= first_feasible for i in range(len(levels)))
    lower = levels[first_feasible - 1] if first_feasible > 0 else None
    upper = levels[first_feasible] if first_feasible < len(levels) else None
    return LevelBracket(lower=lower, upper=upper, levels=levels,
                        feasible_by_level=feasible_by_level,
                        candidates=n_candidates,
                        evaluations=integrated * steps_per_slice * m_intervals)
