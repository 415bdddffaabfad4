import itertools
import math
import multiprocessing
import os

import numpy as np
import pytest

from heatctl import (
    EnumerationBudgetError,
    NonlinearitySpec,
    ScalarInstance,
    SolverDivergenceError,
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
from heatctl.core import zero_reaction

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


@pytest.mark.parametrize("T", [1e-300, 1e-16])
def test_scalar_minimal_norm_keeps_its_digits_at_short_horizons(T):
    # 1 - exp(-lam*T) cancels to 0 below T ~ 1e-17 (a ZeroDivisionError) and
    # was 1.2% low at 1e-16; the value tends to (a0 - r)/T.
    target = (INST.a0 - INST.r) / T
    assert scalar_minimal_norm(INST, T) == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("M", [1e17, 1e300])
def test_scalar_minimal_time_keeps_its_digits_at_large_bounds(M):
    # log((a0 + M/lam)/(r + M/lam)) was 50% high at 1e17 and 0 at 1e300; the
    # value tends to (a0 - r)/M.
    target = (INST.a0 - INST.r) / M
    assert scalar_minimal_time(INST, M) == pytest.approx(target, rel=1e-12)


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


# ---------------------------------------------------------------------------
# Brute-force bracket against the integrate-everything loop it replaced

def reference_bracket(y0, T, k_modes, m_intervals, amp_grid, levels, f, g, ball,
                      n_steps=160, chunk=4096):
    """Integrate every candidate, then read each level off the terminal norms.

    The bracket loop as it was before it visited levels in ascending order,
    without input checks.  Returns (lower, upper, feasible_by_level, levels,
    candidates) with the candidates' levels and terminal norms.
    """
    amp_grid = np.asarray(sorted(float(a) for a in amp_grid))
    levels = tuple(sorted(float(l) for l in levels))
    dof = k_modes * m_intervals
    n_candidates = len(amp_grid) ** dof
    spec = dirichlet_eigs(g, k_modes)
    modes, lam = spec.eigenvectors, spec.eigenvalues
    masked_modes = modes * g.omega_mask
    forcing_map = g.h * modes @ masked_modes.T
    gram = g.h * masked_modes @ masked_modes.T
    a0 = g.h * modes @ y0
    grids = np.meshgrid(*([amp_grid] * dof), indexing="ij")
    coeffs = np.stack([q.ravel() for q in grids], axis=-1).reshape(n_candidates,
                                                                   m_intervals, k_modes)
    slice_sq = np.einsum("cmi,ij,cmj->cm", coeffs, gram, coeffs)
    candidate_level = np.sqrt(np.maximum(slice_sq, 0.0).max(axis=1))
    steps_per_slice = max(1, -(-n_steps // m_intervals))
    dt = T / (steps_per_slice * m_intervals)

    if f.f is zero_reaction:
        def rhs(a, force):
            return -(a * lam) + force
    else:
        def rhs(a, force):
            fy = f.f(a @ modes)
            return -(a * lam) - g.h * (fy @ modes.T) + force

    terminal = np.empty(n_candidates)
    for start in range(0, n_candidates, chunk):
        stop = min(start + chunk, n_candidates)
        a = np.tile(a0, (stop - start, 1))
        forces = np.einsum("ij,cmj->cmi", forcing_map, coeffs[start:stop])
        for m in range(m_intervals):
            force = forces[:, m, :]
            for _ in range(steps_per_slice):
                k1 = rhs(a, force)
                k2 = rhs(a + 0.5 * dt * k1, force)
                k3 = rhs(a + 0.5 * dt * k2, force)
                k4 = rhs(a + dt * k3, force)
                a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        terminal[start:stop] = np.sqrt(np.einsum("ci,ci->c", a, a))

    reaches = terminal <= ball.r
    feasible_by_level = tuple(
        bool(np.any(reaches & (candidate_level <= lvl * (1.0 + 1e-12))))
        for lvl in levels
    )
    lower = upper = None
    for lvl, ok in zip(levels, feasible_by_level):
        if ok:
            upper = lvl
            break
        lower = lvl
    return (lower, upper, feasible_by_level, levels, n_candidates), candidate_level, terminal


G31 = SpatialGrid.build(n=31, ell=1.0)
G31_MASKED = SpatialGrid.build(n=31, ell=1.0, omega=(0.3, 0.8))
Y0_31 = 2.0 * dirichlet_eigs(G31, 1).eigenvectors[0]
F_TANH = make_nonlinearity("scaled_tanh", 1.0)
F_TANH5_ZERO_KIND = NonlinearitySpec(kind="zero", L=5.0, f=lambda y: 5.0 * np.tanh(y),
                                     fprime=lambda y: 5.0 / np.cosh(y) ** 2)
AMP_2X2 = np.arange(-4.0, 4.5, 2.0)

# name -> (positional arguments, n_steps); all small enough for chunk=1.
BRACKET_CASES = {
    "criterion7_linear": ((Y0, 0.1, 1, 1, np.linspace(-4.5, 4.5, 19),
                           [3.0, 3.5, 4.0, 4.5], F_ZERO, GRID, BALL), 160),
    "tanh_2x2": ((Y0_31, 0.1, 2, 2, AMP_2X2, [2.0, 3.0, 4.0], F_TANH, G31, BALL), 40),
    "all_infeasible": ((Y0, 0.1, 1, 1, np.linspace(-1.0, 1.0, 9), [0.5, 0.75],
                        F_ZERO, GRID, BALL), 160),
    "all_feasible": ((Y0, 0.1, 1, 1, np.linspace(-6.0, 6.0, 25), [5.0, 6.0],
                      F_ZERO, GRID, BALL), 160),
    # Negative initial data: the reaching candidates sit late in their band.
    "late_hit": ((-Y0_31, 0.1, 2, 2, AMP_2X2, [2.0, 3.0, 4.0], F_TANH, G31, BALL), 40),
    "duplicated_levels": ((Y0_31, 0.1, 2, 2, AMP_2X2, [4.0, 2.0, 3.0, 3.0, 4.0, 2.0],
                           F_TANH, G31, BALL), 40),
    "masked_omega": ((Y0_31, 0.1, 2, 2, np.linspace(-12.0, 12.0, 5), [3.0, 6.0, 9.0, 12.0],
                      F_TANH, G31_MASKED, BALL), 40),
    "custom_zero_kind": ((Y0_31, 0.05, 2, 2, np.linspace(-32.0, 32.0, 5),
                          [2.0, 4.0, 8.0, 16.0, 32.0], F_TANH5_ZERO_KIND, G31, BALL), 40),
    # Three slices: prefixes of depth 1 and 2 are shared inside a chunk.
    "three_slices_one_mode": ((Y0_31, 0.1, 1, 3, np.linspace(-6.0, 6.0, 7), [2.0, 4.0, 6.0],
                               F_TANH, G31, BALL), 60),
    "three_slices_two_modes": ((-Y0_31, 0.1, 2, 3, np.linspace(-4.0, 4.0, 3), [2.0, 4.0, 6.0],
                                F_TANH, G31, BALL), 60),
}


@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("case", sorted(BRACKET_CASES))
def test_bruteforce_bracket_equals_integrate_everything_loop(case, chunk):
    args, n_steps = BRACKET_CASES[case]
    bracket = bruteforce_minimal_norm_bracket(*args, n_steps=n_steps, chunk=chunk)
    expected, _, _ = reference_bracket(*args, n_steps=n_steps)
    assert (bracket.lower, bracket.upper, bracket.feasible_by_level, bracket.levels,
            bracket.candidates) == expected


@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("case", sorted(BRACKET_CASES))
def test_bruteforce_integrates_only_the_deciding_candidates(case, chunk):
    """Every candidate at or below ``lower`` is integrated, then the band of
    ``upper`` chunk by chunk up to the first chunk holding a reaching
    candidate; nothing above ``upper`` is."""
    args, n_steps = BRACKET_CASES[case]
    bracket = bruteforce_minimal_norm_bracket(*args, n_steps=n_steps, chunk=chunk)
    (lower, upper, _, levels, _), level, terminal = reference_bracket(*args, n_steps=n_steps)
    m_intervals = args[3]
    integrated, rest = divmod(bracket.evaluations,
                              max(1, -(-n_steps // m_intervals)) * m_intervals)
    assert rest == 0

    def at_or_below(lvl):
        return level <= lvl * (1.0 + 1e-12)

    below = at_or_below(lower) if lower is not None else np.zeros(level.shape, bool)
    if upper is None:
        assert integrated == np.count_nonzero(at_or_below(levels[-1]))
        return
    band = np.flatnonzero(at_or_below(upper) & ~below)
    first_hit = int(np.flatnonzero(terminal[band] <= BALL.r)[0])
    expected = np.count_nonzero(below) + min(len(band), (first_hit // chunk + 1) * chunk)
    assert integrated == expected


# ---------------------------------------------------------------------------
# Brute-force chunks in forked workers

@pytest.mark.parametrize("chunk", [1, 7, 512])
@pytest.mark.parametrize("case", sorted(BRACKET_CASES))
def test_pooled_bracket_equals_serial_bracket(use_cpus, case, chunk):
    args, n_steps = BRACKET_CASES[case]
    use_cpus(1)
    serial = bruteforce_minimal_norm_bracket(*args, n_steps=n_steps, chunk=chunk)
    use_cpus(2)
    pooled = bruteforce_minimal_norm_bracket(*args, n_steps=n_steps, chunk=chunk)
    assert pooled == serial
    assert multiprocessing.active_children() == []


def with_reaction(case, f):
    """The positional arguments of ``BRACKET_CASES[case]`` with tanh
    replaced by ``f`` (1-Lipschitz), and its step count."""
    args, n_steps = BRACKET_CASES[case]
    spec = NonlinearitySpec(kind="custom", L=1.0, f=f, fprime=lambda y: 1.0 / np.cosh(y) ** 2)
    return (*args[:6], spec, *args[7:]), n_steps


def test_bracket_chunks_run_in_workers(use_cpus, tmp_path):
    log = tmp_path / "pids"
    seen = set()

    def tanh(y):
        # each process that evaluates the reaction logs its pid once
        if os.getpid() not in seen:
            seen.add(os.getpid())
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
        return np.tanh(y)

    args, n_steps = with_reaction("tanh_2x2", tanh)
    use_cpus(2)
    bruteforce_minimal_norm_bracket(*args, n_steps=n_steps, chunk=7)
    pids = log.read_text().split()
    assert len(set(pids)) == len(pids) == 2 and str(os.getpid()) not in pids
    assert multiprocessing.active_children() == []


def inside_the_ball(y):
    """Which of the grid states y lie inside the ball; on tanh_2x2 with
    chunk=7 only the first chunk of the band of ``upper``, the 13th chunk,
    reaches such states."""
    return np.sqrt(G31.h * np.einsum("ci,ci->c", y, y)) < BALL.r


def test_reaction_that_raises_in_a_worker_raises_as_in_serial(use_cpus):
    calls = []

    def refusing(y):
        # the states inside the ball are refused
        if np.any(inside_the_ball(y)):
            raise ValueError(f"reaction refused {len(y)} states")
        calls.append(len(y))
        return np.tanh(y)

    args, n_steps = with_reaction("tanh_2x2", refusing)
    messages = []
    for cpus in (1, 2):
        use_cpus(cpus)
        with pytest.raises(ValueError, match="^reaction refused") as failure:
            bruteforce_minimal_norm_bracket(*args, n_steps=n_steps, chunk=7)
        messages.append(str(failure.value))
        assert multiprocessing.active_children() == []
    # serially, every RK4 stage of the first chunk ran before the refusal
    assert len(calls) > 4 * n_steps
    assert messages[1] == messages[0]


def test_non_finite_terminal_states_raise_as_in_serial(use_cpus):
    """A reaction that turns the reaching states into NaN makes their chunk
    raise, instead of counting them as misses (which gave upper = None)."""
    def nan_inside_the_ball(y):
        return np.where(inside_the_ball(y)[:, None], np.nan, np.tanh(y))

    args, n_steps = with_reaction("tanh_2x2", nan_inside_the_ball)
    messages = []
    for cpus in (1, 2):
        use_cpus(cpus)
        with pytest.raises(SolverDivergenceError, match="non-finite") as failure:
            bruteforce_minimal_norm_bracket(*args, n_steps=n_steps, chunk=7)
        messages.append(str(failure.value))
        assert multiprocessing.active_children() == []
    assert messages[1] == messages[0]


def test_non_finite_y0_is_refused_as_in_serial(use_cpus):
    """y0 = inf gave NaN terminal norms, counted as misses: upper = None."""
    args, n_steps = BRACKET_CASES["tanh_2x2"]
    for cpus in (1, 2):
        use_cpus(cpus)
        with pytest.raises(ValueError, match="y0"):
            bruteforce_minimal_norm_bracket(np.full(31, np.inf), *args[1:], n_steps=n_steps)
        assert multiprocessing.active_children() == []


def test_bracket_integrates_each_distinct_prefix_once(use_cpus):
    """Serially, a chunk runs one RK4 row per distinct prefix (coefficients
    of slices 0..s) on slice s, so the reaction sees 4 * steps_per_slice rows
    per distinct prefix and slice, not per candidate and slice."""
    rows = []

    def tanh(y):
        rows.append(len(y))
        return np.tanh(y)

    args, n_steps = with_reaction("tanh_2x2", tanh)
    use_cpus(1)
    bracket = bruteforce_minimal_norm_bracket(*args, n_steps=n_steps, chunk=512)
    _, _, k_modes, m_intervals, amp_grid, levels = args[:6]
    (_, upper, *_), level, _ = reference_bracket(*BRACKET_CASES["tanh_2x2"][0],
                                                 n_steps=n_steps)
    band = np.searchsorted(np.asarray(levels) * (1.0 + 1e-12), level)
    coeffs = np.array(list(itertools.product(amp_grid, repeat=k_modes * m_intervals)))
    # each band is one chunk; the bands through that of upper are integrated
    prefixes = 0
    for i in range(levels.index(upper) + 1):
        members = coeffs[band == i]
        assert len(members) <= 512
        prefixes += sum(len(np.unique(members[:, :k_modes * (s + 1)], axis=0))
                        for s in range(m_intervals))
    steps_per_slice = n_steps // m_intervals
    assert sum(rows) == 4 * steps_per_slice * prefixes
    assert sum(rows) < 4 * bracket.evaluations


def test_pooled_bracket_that_hits_leaves_no_cycle(use_cpus, heatctl_frames_in_cycles):
    # the chunk that reaches the ball raises in a worker, and the bracket
    # catches the error that _map_points raises again
    args, n_steps = BRACKET_CASES["tanh_2x2"]
    brackets = []
    use_cpus(2)
    assert heatctl_frames_in_cycles(lambda: brackets.append(
        bruteforce_minimal_norm_bracket(*args, n_steps=n_steps, chunk=7))) == []
    assert brackets[0].upper is not None
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Brute-force input checks

BAD_BRACKET_INPUTS = [
    ({"T": math.nan}, "T"),
    ({"T": math.inf}, "T"),
    ({"levels": [2.0, math.nan]}, "levels"),
    ({"amp_grid": []}, "amp_grid"),
    ({"amp_grid": [0.0, math.nan]}, "amp_grid"),
    ({"m_intervals": 0}, "m_intervals"),
    ({"m_intervals": 2.0}, "m_intervals"),
    ({"k_modes": 0}, "k_modes"),
    ({"k_modes": 1.5}, "k_modes"),
    ({"n_steps": 0}, "n_steps"),
    ({"chunk": 0}, "chunk"),
    ({"y0": np.full(31, math.inf)}, "y0"),
]


BRACKET_KWARGS = dict(y0=Y0_31, T=0.1, k_modes=1, m_intervals=1,
                      amp_grid=np.linspace(-4.5, 4.5, 19), levels=[3.0, 3.5, 4.0, 4.5],
                      f=F_ZERO, g=G31, ball=BALL)


def test_bruteforce_input_check_baseline():
    bracket = bruteforce_minimal_norm_bracket(**BRACKET_KWARGS)
    assert (bracket.lower, bracket.upper) == (3.5, 4.0)


@pytest.mark.parametrize("bad, name", BAD_BRACKET_INPUTS)
def test_bruteforce_rejects_bad_input_by_name(bad, name):
    with pytest.raises(ValueError, match=name):
        bruteforce_minimal_norm_bracket(**{**BRACKET_KWARGS, **bad})


STIFF_MODES = dirichlet_eigs(G31, 3).eigenvectors
STIFF_ARGS = (2.0 * STIFF_MODES[0] + 0.5 * STIFF_MODES[2], 0.1, 3, 1,
              np.linspace(-6.0, 6.0, 13), [2.0, 3.0, 4.0, 5.0, 6.0], F_ZERO, G31, BALL)


@pytest.mark.parametrize("n_steps", [160, 8, 4])
def test_bruteforce_bracket_stable_steps(n_steps):
    bracket = bruteforce_minimal_norm_bracket(*STIFF_ARGS, n_steps=n_steps)
    assert (bracket.lower, bracket.upper) == (3.0, 4.0)


def test_bruteforce_refuses_steps_past_rk4_stability():
    """Two steps put lam_3*dt at 4.41, where RK4 amplifies the third mode and
    the bracket used to move to (6, None]."""
    with pytest.raises(ValueError, match="n_steps"):
        bruteforce_minimal_norm_bracket(*STIFF_ARGS, n_steps=2)
