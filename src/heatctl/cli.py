"""Command-line front end: config ingestion, experiment runs, result export.

Subcommands: simulate, gamma, minnorm, mintime, equivalence, sweep,
oracle-compare, gradcheck.  Each reads one JSON config, writes a summary JSON
plus CSV series into the output directory, and is deterministic: identical
configs produce byte-identical summaries apart from the wall-time field.
Every handler returns its CSV series as rows.  The CSVs and the summary
encode each number with one scalar encoder (17 significant digits) so results
can be diffed across machines and reimplementations; a curve's CSV rows are
the point records of its summary.

Exit codes: 0 success, 2 invalid config (field-level diagnostics on stderr)
or an unusable ``--out`` (one ``out:`` line), 3 initial state inside the
target ball, 4 failed computation (no feasible bound, a diverging solve or
an array too large to allocate; one ``failed:`` line on stderr).  Every
handler solves in the config's ``nt`` steps, which :func:`main` refuses
before the handler runs when they would not fit in the host's memory.  A
config field that no subcommand reads is a config error.  :func:`build_setup`
checks the ``experiment`` fields of the subcommand run (:data:`EXPERIMENT`)
with the rest of the config; ``experiment`` may hold the fields of every
subcommand (:data:`EXPERIMENT_FIELDS`), so one config serves them all.
``equivalence`` and ``oracle-compare`` solve their points through
``solvers._map_points`` (forked workers, identical outputs), and each worker
returns only the scalar record written for its point.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .core import (
    ControlSignal,
    NoFeasibleBoundError,
    SolverDivergenceError,
    SpatialGrid,
    TargetBall,
    l2_norm,
    make_nonlinearity,
    validate_initial_state,
    validate_nonlinearity,
)
from .oracle import ScalarInstance, scalar_minimal_norm, scalar_minimal_time
from .pde import _sine_vector, decay_envelope_check, hitting_time, principal_eigenvalue
from .reach import MAX_ITERS, FreeRun, gradient_fd_check, is_linear
from .solvers import (
    DEFAULT_NT,
    Problem,
    ValuePoint,
    _map_points,
    minimal_norm,
    minimal_norm_curve,
    minimal_time,
    minimal_time_curve,
    verify_equivalence_bound,
    verify_equivalence_time,
)

# Kinds of config values; each is also the noun of its error message.
INT, FLOAT, NONEMPTY_LIST, LIST = "integer", "finite number", "nonempty list", "list"
REQUIRED = object()  # the default of a field the subcommand cannot run without

# Each subcommand's experiment fields: key -> (kind, sign, default).  A sign is
# "positive" (> 0), "nonnegative" (>= 0) or None (any); a list's sign holds for
# each entry.  A default is not checked; None lets a handler see the field is absent.
EXPERIMENT = {
    "simulate": {"horizon": (FLOAT, "positive", REQUIRED),
                 "envelope_tol": (FLOAT, "nonnegative", 1e-3)},
    "gamma": {},
    "minnorm": {"T": (FLOAT, "positive", REQUIRED)},
    "mintime": {"M": (FLOAT, "nonnegative", REQUIRED)},
    "equivalence": {"T_grid": (LIST, "positive", REQUIRED),
                    "M_grid": (LIST, "nonnegative", REQUIRED)},
    "sweep": {"M_grid": (NONEMPTY_LIST, "nonnegative", None),
              "T_grid": (NONEMPTY_LIST, "positive", None)},
    "oracle-compare": {"M_values": (NONEMPTY_LIST, "nonnegative", ()),
                       "T_values": (NONEMPTY_LIST, "positive", ())},
    "gradcheck": {"T": (FLOAT, "positive", 0.1), "pairs": (INT, "positive", 8),
                  "seed": (INT, "nonnegative", 0), "fd_step": (FLOAT, "positive", 1e-5),
                  "amplitude": (FLOAT, None, 1.0)},
}
# The experiment fields of all subcommands together.
EXPERIMENT_FIELDS = frozenset(key for fields in EXPERIMENT.values() for key in fields)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INITIAL_STATE = 3
EXIT_FAILED = 4


class ConfigError(Exception):
    """Invalid configuration; carries one message per offending field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class RefusedRunError(Exception):
    """A structurally valid config that the experiment refuses to run."""


# ---------------------------------------------------------------------------
# Deterministic serialization: 17 significant digits everywhere.

def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _emit_json(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, key in enumerate(keys):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _emit_json(obj[key], indent + 1, out)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _emit_json(item, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(obj) -> str:
    """JSON text of one bool, None, int, float or string."""
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: list[str] = []
    _emit_json(obj, 0, out)
    return "".join(out) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def write_csv(path: Path, header: list[str], rows) -> None:
    """Cells as in summary.json, except that None is empty and strings are bare."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if cell is None else cell if isinstance(cell, str)
                              else _scalar(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Config parsing and validation.

@dataclasses.dataclass
class Setup:
    """Validated configuration with the built domain objects."""

    modes: tuple[tuple[int, float], ...] | None  # y0.modes parsed, sorted; None for a file
    grid: SpatialGrid
    f: object
    y0: np.ndarray
    ball: TargetBall
    nt: int
    tol_t: float
    tol_m: float
    max_iters: int
    experiment: dict  # the subcommand's EXPERIMENT fields, checked, defaults filled in

    def problem(self) -> Problem:
        """The control problem of this config."""
        return Problem(self.y0, self.ball, self.f, self.grid, nt=self.nt,
                       tol_t=self.tol_t, tol_m=self.tol_m, max_iters=self.max_iters)


def _is_number(value, integer: bool = False) -> bool:
    """A finite int or float (an int alone when ``integer``), never a bool."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def build_setup(cfg: dict, config_dir: Path, command: str) -> Setup:
    """Check the whole config and build its domain objects; :class:`ConfigError`
    lists every offending field.  Only ``command``'s experiment fields are
    checked by value, those of the other subcommands by name."""
    errors: list[str] = []

    def fail(field, msg):
        errors.append(f"{field}: {msg}")

    def number(field, value, kind=FLOAT, sign="positive"):
        """``value`` as an int (kind INT) or a float; None, with an error, unless
        it is a finite number of that kind and sign and not a bool."""
        if _is_number(value, kind == INT) and (
                sign is None or value > 0 or sign == "nonnegative" and value == 0):
            return value if kind == INT else float(value)
        fail(field, f"expected a {sign + ' ' if sign else ''}{kind}, got {value!r}")
        return None

    # Each field is popped from a copy of its section as it is read, so what
    # is left at the end is unknown; cfg itself stays as given (it is hashed).
    top = dict(cfg)

    def section(name):
        value = top.pop(name, None)
        if value is None:
            return {}
        if not isinstance(value, dict):
            fail(name, f"expected an object, got {value!r}")
            return {}
        return dict(value)

    grid_cfg = section("grid")
    n = number("grid.n", grid_cfg.pop("n", 127), INT)
    ell = number("grid.ell", grid_cfg.pop("ell", 1.0))
    if ell is None:
        ell = 1.0

    omega_cfg = top.pop("omega", None)
    omega = None
    if omega_cfg is not None:
        if (not isinstance(omega_cfg, (list, tuple)) or len(omega_cfg) != 2
                or not all(_is_number(v) for v in omega_cfg)):
            fail("omega", f"expected [a, b], got {omega_cfg!r}")
        elif not (0.0 <= omega_cfg[0] < omega_cfg[1] <= ell):
            fail("omega", f"interval ({omega_cfg[0]}, {omega_cfg[1]}) must sit inside (0, {ell})")
        else:
            omega = (float(omega_cfg[0]), float(omega_cfg[1]))

    # The Laplacian's eigenvalues, principal_eigenvalue(grid) to 4/h^2, must be
    # positive finite floats; n is checked before any array of n values is made.
    grid = None
    if not errors and math.cos(math.pi / (n + 1)) == 1.0:
        fail("grid.n", f"{n} nodes round the first eigenvalue's 1 - cos(pi/(n+1)) to 0")
    elif not errors:
        try:
            grid = SpatialGrid.build(n=n, ell=ell, omega=omega)
        except ValueError as exc:
            fail("omega", str(exc))
    if grid is not None:
        try:
            resolved = 0.0 < principal_eigenvalue(grid) <= 4.0 / grid.h ** 2 < math.inf
        except (OverflowError, ZeroDivisionError):
            resolved = False
        if not resolved:
            fail("grid.ell", f"the spacing ell/(n+1) = {grid.h:.3g} puts the Laplacian's "
                             "eigenvalues outside the positive finite floats")
            grid = None

    nl_cfg = section("nonlinearity")
    kind = nl_cfg.pop("kind", "zero")
    L = number("nonlinearity.L", nl_cfg.pop("L", 1.0), sign="nonnegative")
    f = None
    if L is not None:
        try:
            f = make_nonlinearity(kind, L)
        except ValueError as exc:
            fail("nonlinearity", str(exc))

    r = number("r", top.pop("r", None))
    if r is not None and r * r / ell < sys.float_info.min:  # h*sum(y_j^2) would underflow
        fail("r", f"{r!r} is too small: r*r/ell is below the smallest normal float")
        r = None

    y0 = modes = None
    y0_cfg = top.pop("y0", None)
    y0_cfg = dict(y0_cfg) if isinstance(y0_cfg, dict) else {}
    source = {key: y0_cfg.pop(key) for key in ("modes", "file") if key in y0_cfg}
    if len(source) != 1:
        fail("y0", "expected a 'modes' map or a 'file' path, not both" if source
             else "expected an object with a 'modes' map or a 'file' path")
    elif grid is not None:
        if "modes" in source:
            modes_map = source["modes"]
            try:
                pairs = sorted((int(k), v) for k, v in modes_map.items())
            except (AttributeError, TypeError, ValueError):
                pairs = []
            if not pairs or not all(_is_number(c) for _, c in pairs):
                fail("y0.modes", "expected a map of mode index to finite coefficient, "
                                 f"got {modes_map!r}")
            elif any(i < 1 or i > grid.n for i, _ in pairs):
                fail("y0.modes", f"mode indices must lie in [1, {grid.n}]")
            else:
                modes = tuple((i, float(c)) for i, c in pairs)
                y0 = np.zeros(grid.n)
                with np.errstate(over="ignore", invalid="ignore"):
                    for i, c in modes:
                        y0 += c * _sine_vector(grid, i)
        elif not isinstance(source["file"], str):
            fail("y0.file", f"expected a path string, got {source['file']!r}")
        else:
            path = Path(source["file"])
            if not path.is_absolute():
                path = config_dir / path
            try:
                vec = np.loadtxt(path, dtype=float).ravel()
                if vec.shape != (grid.n,):
                    fail("y0.file", f"{path} holds {vec.size} values, expected {grid.n}")
                elif not np.isfinite(vec).all():
                    fail("y0.file", f"{path} holds non-finite values")
                else:
                    y0 = vec
            except (OSError, ValueError) as exc:
                fail("y0.file", str(exc))
        with np.errstate(over="ignore", invalid="ignore"):
            if y0 is not None and not math.isfinite(l2_norm(y0, grid)):
                fail("y0", "the initial state's L2 norm is not finite")

    nt = number("nt", top.pop("nt", DEFAULT_NT), INT)

    sol = section("solver")
    tol_t = number("solver.tol_t", sol.pop("tol_t", 1e-3))
    tol_m = number("solver.tol_m", sol.pop("tol_m", 1e-3))
    max_iters = number("solver.max_iters", sol.pop("max_iters", MAX_ITERS), INT)
    eps_feas_given = sol.pop("eps_feas", 1e-3)
    eps_feas = number("solver.eps_feas", eps_feas_given)
    if eps_feas is not None and eps_feas >= 1.0:
        fail("solver.eps_feas",
             f"expected a positive finite number below 1, got {eps_feas_given!r}")

    # The subcommand's own experiment fields are checked by value, unless
    # experiment is not an object; a field no subcommand reads is unknown.
    before = len(errors)
    experiment = section("experiment")
    fields = EXPERIMENT[command] if len(errors) == before else {}
    checked = {}
    for key, (kind, sign, default) in fields.items():
        field, value = f"experiment.{key}", experiment.get(key, default)
        if value is REQUIRED:
            fail(field, "required by this subcommand")
        elif key not in experiment:
            checked[key] = default
        elif kind in (INT, FLOAT):
            checked[key] = number(field, value, kind, sign)
        elif not isinstance(value, (list, tuple)) or not (value or kind == LIST):
            fail(field, f"expected a {kind} of finite numbers")
        # all() stops at the first bad entry, the only one reported
        elif all(number(f"{field}[{i}]", v, sign=sign) is not None
                 for i, v in enumerate(value)):
            checked[key] = [float(v) for v in value]
    unread_experiment = [key for key in experiment if key not in EXPERIMENT_FIELDS]
    for prefix, unread in (("", top), ("grid.", grid_cfg), ("nonlinearity.", nl_cfg),
                           ("y0.", y0_cfg), ("solver.", sol),
                           ("experiment.", unread_experiment)):
        errors.extend(f"{prefix}{key}: unknown field" for key in unread)

    if errors:
        raise ConfigError(errors)
    return Setup(modes=modes, grid=grid, f=f, y0=y0, ball=TargetBall(r, eps_feas), nt=nt,
                 tol_t=tol_t, tol_m=tol_m, max_iters=max_iters, experiment=checked)


def _refuse_horizons_past(key: str, horizons, limit: float, what: str) -> None:
    """Refuse the run when some horizon exceeds ``limit`` (a free-decay time)."""
    beyond = [T for T in horizons if T > limit]
    if beyond:
        raise RefusedRunError(
            f"{key} entries {beyond} exceed {what} {limit:.17g}; "
            "minimal-norm horizons must stay within (0, gamma]"
        )


def scalar_instance_for(setup: Setup) -> ScalarInstance | None:
    """Closed-form oracle instance, when the config is in its scope.

    Requires control on the whole interval, no reaction term, and initial
    data on the first eigenfunction alone (the only mode whose parsed
    coefficients, summed per index as :func:`build_setup` sums them, are
    nonzero), of either sign: with f = 0 the problem is symmetric under
    y -> -y, so a0 is that coefficient's absolute value.
    """
    if not is_linear(setup.f):
        return None
    if not np.all(setup.grid.omega_mask == 1.0):
        return None
    summed: dict[int, float] = {}
    for i, c in setup.modes or ():
        summed[i] = summed.get(i, 0.0) + c
    nonzero = [(i, c) for i, c in summed.items() if c != 0.0]
    if [i for i, _ in nonzero] != [1]:
        return None
    a0 = abs(nonzero[0][1])
    if a0 <= setup.ball.r:
        return None
    return ScalarInstance(a0=a0, r=setup.ball.r, lam=principal_eigenvalue(setup.grid))


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (outputs, diagnostics, series) where
# series maps a CSV filename to (header, rows).

def _point_record(point: ValuePoint, oracle_value: float | None = None) -> dict:
    """The scalars of one value point, with its closed-form value (None when
    no closed form applies)."""
    return {
        "parameter": point.parameter,
        "value": point.value,
        "bracket_lo": point.bracket_lo,
        "bracket_hi": point.bracket_hi,
        "iterations": point.iterations,
        "oracle_value": oracle_value,
    }


def run_simulate(setup: Setup):
    T = setup.experiment["horizon"]
    traj = FreeRun(setup.y0, T, setup.nt, setup.f, setup.grid, setup.ball).trajectory
    report = decay_envelope_check(traj, setup.grid, setup.experiment["envelope_tol"])
    t_hit = hitting_time(traj, setup.ball)
    lam1 = principal_eigenvalue(setup.grid)
    envelope = report.initial_norm * np.exp(-lam1 * traj.times)
    rows = [[t, nrm, env] for t, nrm, env in zip(traj.times, traj.norms, envelope)]
    outputs = {
        "horizon": T,
        "initial_norm": report.initial_norm,
        "final_norm": float(traj.norms[-1]),
        "hitting_time": t_hit,
        "envelope_max_gap": report.max_gap,
        "envelope_limit": report.limit,
        "envelope_passed": bool(report.passed),
    }
    return outputs, {"nt": traj.nt}, {"norms.csv": (["t", "norm", "envelope"], rows)}


def run_gamma(setup: Setup):
    problem = setup.problem()
    traj = problem.free_run(problem.gamma * 1.05).trajectory
    rows = [[t, nrm] for t, nrm in zip(traj.times, traj.norms)]
    outputs = {"gamma": problem.gamma, "radius": setup.ball.r,
               "initial_norm": l2_norm(setup.y0, setup.grid)}
    return outputs, {"nt": problem.nt}, {"free_decay.csv": (["t", "norm"], rows)}


def _value_point_run(point: ValuePoint, parameter: str, value: str):
    """Outputs (parameter and value also under the given names), diagnostics and
    control-norm series of one value point."""
    rows = [[k * point.control.dt, norm] for k, norm in enumerate(point.control.step_norms())]
    outputs = {parameter: point.parameter, value: point.value, **_point_record(point)}
    return outputs, dict(point.diagnostics), {
        "control_norms.csv": (["t", "control_norm"], rows)}


def run_minnorm(setup: Setup):
    point = minimal_norm(setup.problem(), setup.experiment["T"])
    return _value_point_run(point, "T", "alpha")


def run_mintime(setup: Setup):
    point = minimal_time(setup.problem(), setup.experiment["M"])
    return _value_point_run(point, "M", "tau")


def run_equivalence(setup: Setup):
    T_grid, M_grid = setup.experiment["T_grid"], setup.experiment["M_grid"]
    problem = setup.problem()
    _refuse_horizons_past("T_grid", T_grid, problem.gamma, "the free-decay time")

    # Each round trip returns its report's fields but the two value points:
    # their names are the keys of the record written below.
    def round_trip(job):
        kind, x = job
        verify = verify_equivalence_time if kind == "time" else verify_equivalence_bound
        rep = verify(problem, x)
        return {key: value for key, value in vars(rep).items()
                if not isinstance(value, ValuePoint)}

    if T_grid or M_grid:
        problem.zero  # every round trip reads it: certified here once, not in each worker
    records = _map_points(round_trip, [("time", T) for T in T_grid]
                          + [("bound", M) for M in M_grid])
    time_reports, bound_reports = records[:len(T_grid)], records[len(T_grid):]
    rows = ([["time", r["T"], r["alpha"], r["roundtrip"], r["residual"]]
             for r in time_reports]
            + [["bound", r["M"], r["tau"], r["roundtrip"], r["relative_residual"]]
               for r in bound_reports])
    outputs = {
        "gamma": problem.gamma,
        "time_roundtrips": time_reports,
        "bound_roundtrips": bound_reports,
        "max_time_residual": max((r["residual"] for r in time_reports), default=0.0),
        "max_bound_residual": max((r["relative_residual"] for r in bound_reports),
                                  default=0.0),
    }
    header = ["kind", "param", "value", "roundtrip", "residual"]
    return outputs, {"nt": problem.nt}, {"equivalence.csv": (header, rows)}


def run_sweep(setup: Setup):
    M_grid, T_grid = setup.experiment["M_grid"], setup.experiment["T_grid"]
    if M_grid is None and T_grid is None:
        raise ConfigError(["experiment: sweep needs an M_grid and/or a T_grid"])
    for key, grid in (("M_grid", M_grid), ("T_grid", T_grid)):
        if grid is not None and any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError([f"experiment.{key}: expected a strictly increasing list"])
    inst = scalar_instance_for(setup)
    gamma = setup.problem().gamma
    if T_grid is not None:
        _refuse_horizons_past("T_grid", T_grid, gamma, "the free-decay time")
        if inst is not None:
            _refuse_horizons_past("T_grid", T_grid, inst.free_decay_time,
                                  "the closed-form free-decay time")
    outputs = {}
    series = {}
    specs = (("tau", M_grid, minimal_time_curve, setup.tol_t, scalar_minimal_time,
              "strictly_decreasing"),
             ("alpha", T_grid, minimal_norm_curve, setup.tol_m, scalar_minimal_norm,
              "non_increasing"))
    for name, grid, curve_of, tol, closed_form, monotone_key in specs:
        if grid is None:
            continue
        curve = curve_of(grid, setup.y0, setup.ball, setup.f, setup.grid, tol,
                         max_iters=setup.max_iters, nt=setup.nt, gamma_hint=gamma)
        records = [_point_record(p, None if inst is None else closed_form(inst, p.parameter))
                   for p in curve.points]
        series[f"{name}_curve.csv"] = (
            ["param", "value", "bracket_lo", "bracket_hi", "oracle_value", "iterations"],
            [[r["parameter"], r["value"], r["bracket_lo"], r["bracket_hi"], r["oracle_value"],
              r["iterations"]] for r in records])
        outputs[name] = {"points": records, monotone_key: curve.monotone,
                         **curve.diagnostics}
    return outputs, {"nt": setup.nt}, series


def run_oracle_compare(setup: Setup):
    inst = scalar_instance_for(setup)
    if inst is None:
        raise ConfigError([
            "experiment: oracle-compare needs the closed-form instance "
            "(omega covering the whole interval, zero nonlinearity, y0 on mode 1)"
        ])
    M_values, T_values = setup.experiment["M_values"], setup.experiment["T_values"]
    if not M_values and not T_values:
        raise ConfigError(["experiment: oracle-compare needs M_values and/or T_values"])
    _refuse_horizons_past("T_values", T_values, inst.free_decay_time,
                          "the closed-form free-decay time")
    problem = setup.problem()
    specs = {"minimal_time": (minimal_time, scalar_minimal_time),
             "minimal_norm": (minimal_norm, scalar_minimal_norm)}

    # Each point returns only the scalars written below, not its control.
    def compare(job):
        kind, x = job
        solve, closed_form = specs[kind]
        point = solve(problem, x)
        target = closed_form(inst, x)
        gap = abs(point.value - target) / max(abs(target), 1e-300)
        return {"kind": kind, "parameter": x,
                "solver": point.value, "oracle": target, "rel_gap": gap}

    if M_values:
        problem.zero  # every minimal time reads it: certified here once, not in each worker
    records = _map_points(compare, [("minimal_time", M) for M in M_values]
                          + [("minimal_norm", T) for T in T_values])
    rows = [[r["kind"], r["parameter"], r["solver"], r["oracle"], r["rel_gap"]]
            for r in records]
    outputs = {
        "rows": records,
        "max_rel_gap": max((r["rel_gap"] for r in records), default=0.0),
        "gamma": problem.gamma,
    }
    header = ["kind", "param", "solver", "oracle", "rel_gap"]
    return outputs, {"nt": problem.nt}, {"oracle_compare.csv": (header, rows)}


def run_gradcheck(setup: Setup):
    T, pairs, seed, fd_step, amplitude = (
        setup.experiment[key] for key in ("T", "pairs", "seed", "fd_step", "amplitude"))
    nt = setup.nt
    dt = T / nt
    rng = np.random.default_rng(seed)
    rows = []
    for idx in range(pairs):
        v = ControlSignal(dt=dt, nt=nt,
                          values=amplitude * rng.standard_normal((nt, setup.grid.n)),
                          grid=setup.grid)
        d = ControlSignal(dt=dt, nt=nt,
                          values=rng.standard_normal((nt, setup.grid.n)),
                          grid=setup.grid)
        err = gradient_fd_check(setup.y0, T, v, d, setup.f, setup.grid, fd_step=fd_step)
        rows.append([idx, err])
    errs = [row[1] for row in rows]
    outputs = {"T": T, "pairs": pairs, "seed": seed, "fd_step": fd_step,
               "max_rel_error": max(errs), "mean_rel_error": sum(errs) / len(errs)}
    return outputs, {"nt": nt}, {"gradcheck.csv": (["pair", "rel_error"], rows)}


HANDLERS = {
    "simulate": run_simulate,
    "gamma": run_gamma,
    "minnorm": run_minnorm,
    "mintime": run_mintime,
    "equivalence": run_equivalence,
    "sweep": run_sweep,
    "oracle-compare": run_oracle_compare,
    "gradcheck": run_gradcheck,
}


# ---------------------------------------------------------------------------
# Entry point.

def apply_override(cfg: dict, spec: str) -> None:
    """Apply ``--override dotted.key=value`` (value parsed as JSON, else string)."""
    if "=" not in spec:
        raise ConfigError([f"override: expected key=value, got {spec!r}"])
    key, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatctl",
        description="Minimal-time / minimal-norm control experiments for the "
                    "1D semilinear heat equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry (dotted keys)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config_path = Path(args.config)
    try:
        cfg = json.loads(config_path.read_text())
    except OSError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(cfg, dict):
        print("config: top level must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG

    try:
        for spec in args.override:
            apply_override(cfg, spec)
        setup = build_setup(cfg, config_path.parent, args.command)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config: {line}", file=sys.stderr)
        return EXIT_CONFIG

    report = validate_nonlinearity(setup.f, np.linspace(-50.0, 50.0, 10_001))
    if not report.passed:
        print(f"config: nonlinearity check failed "
              f"(max |f'| = {report.max_abs_derivative:.6g} vs bound {setup.f.L:.6g}, "
              f"min f(y)*y = {report.min_sign_product:.6g})", file=sys.stderr)
        return EXIT_CONFIG
    state_check = validate_initial_state(setup.y0, setup.ball, setup.grid)
    if not state_check.ok:
        print(f"initial state: norm {state_check.norm:.17g} is inside the closed "
              f"target ball of radius {state_check.radius:.17g}", file=sys.stderr)
        return EXIT_INITIAL_STATE
    # Refuse an --out that cannot become a directory before any solve; the
    # directory itself is made only once the run has succeeded.
    out_dir = Path(args.out)
    try:
        nearest = next((p for p in (out_dir, *out_dir.parents) if p.exists()), None)
    except OSError as exc:
        print(f"out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if nearest is not None and not nearest.is_dir():
        print(f"out: {nearest} exists and is not a directory", file=sys.stderr)
        return EXIT_CONFIG
    # Refuse a run whose 28 arrays of (nt+1)*n floats (one process held 25)
    # exceed the host's memory, where the host reports it.
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        memory = -1
    if 0 < memory < 28 * (setup.nt + 1) * setup.grid.n * 8:
        print(f"failed: grid.n={setup.grid.n} and nt={setup.nt} need more than the host's "
              "memory", file=sys.stderr)
        return EXIT_FAILED

    started = time.perf_counter()
    try:
        outputs, diagnostics, series = HANDLERS[args.command](setup)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except RefusedRunError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoFeasibleBoundError, SolverDivergenceError, MemoryError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    wall = time.perf_counter() - started

    summary = {
        "experiment": args.command,
        "config_hash": config_hash(cfg),
        "outputs": outputs,
        "diagnostics": diagnostics,
        "wall_time_s": wall,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in series.items():
            write_csv(out_dir / name, header, rows)
        (out_dir / "summary.json").write_text(canonical_json(summary))
    except OSError as exc:
        print(f"out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {out_dir / 'summary.json'}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
