"""Seeded workload inputs and their correctness gates.

Each workload turns a seed into inputs for the program, makes one call into
it, and checks the outputs.  Seed 0 gives the canonical inputs (the configs
under ``configs/`` and the criterion-7 brute-force family); every other seed
jitters the grid values by up to ``JITTER`` so a claim can be checked on
inputs that were not used while the claim was written.

How much work the oracle does on a CLI workload jumps with its inputs: at
one or three percent jitter alike, tanh_sweep's solve count spreads about 10%
(interquartile range over ten seeds).  So a run of a CLI workload gives call
i its own input, drawn from the stream (seed, i), and its median call time
averages over inputs as well as over noise.  Seed 0 repeats the canonical
input.  The brute-force bracket does the same work on every input, so it
keeps one input per run.

A gate counts value points (CLI workloads) or brackets (brute force): each
check unit is attempted once per call and either passes or fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

JITTER = 0.03

# Criterion-7 nonlinear family: tanh reaction, full-interval control,
# y0 = 2*e1, r = 0.5, T = 0.1, 2 modes x 2 slices, 60 RK4 steps.  The
# amplitude grid is coarser than the acceptance test's 17 points (13 on
# [-4, 4]) so that one call takes seconds; it still holds candidates above
# the top level, and still brackets the minimal norm in (3.0, 3.5].
BRUTE = {"n": 127, "ell": 1.0, "r": 0.5, "T": 0.1, "amp": 2.0, "k_modes": 2,
         "m_intervals": 2, "amp_lo": -4.0, "amp_hi": 4.0, "amp_count": 13,
         "levels": [2.5, 3.0, 3.5, 4.0], "n_steps": 60, "L": 1.0}
BRUTE_SEED0_REFERENCE = {"lower": 3.0, "upper": 3.5,
                         "feasible_by_level": [False, False, True, True]}

# Gates of the CLI workloads.
ROUNDTRIP_TOL = 0.05
CLOSED_FORM_TOL = 0.02


class Jitter:
    """Multiplicative factors 1 + U(-JITTER, JITTER); all 1 for seed 0."""

    def __init__(self, seed: int, member: int = 0):
        self.rng = None if seed == 0 else np.random.default_rng([seed, member])

    def factor(self) -> float:
        return 1.0 if self.rng is None else 1.0 + float(self.rng.uniform(-JITTER, JITTER))

    def scale(self, values):
        return [v * self.factor() for v in values]


def principal_eigenvalue(n: int, ell: float) -> float:
    """lambda_1 of the discrete Laplacian, computed here so that the
    closed-form gate shares no code with the solver it checks."""
    h = ell / (n + 1)
    return (2.0 / h ** 2) * (1.0 - math.cos(math.pi * h / ell))


def _digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else part.encode())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# CLI workloads: the program receives a generated config file.

class CliWorkload:
    """One ``heatctl`` subcommand on a config derived from ``configs/``."""

    subcommand: str
    config_name: str

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.canonical = (root / "configs" / self.config_name).read_text()
        self.seed = seed
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.prepare(0)

    def prepare(self, member: int) -> None:
        """Write the config of input ``member`` for the next call."""
        self.cfg = self.jitter(json.loads(self.canonical), Jitter(self.seed, member))
        config_path = self.workdir / f"config-{member}.json"
        config_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.argv = [self.subcommand, "--config", str(config_path),
                     "--out", str(self.out_dir)]

    def call(self, heatctl):
        with contextlib.redirect_stdout(io.StringIO()):
            return heatctl.cli.main(self.argv)

    def outputs(self, rc):
        """The call's config, summary and a digest of the summary (without its
        wall time) and the CSVs.

        Read right after each call, because the next call overwrites them.
        """
        out = {"cfg": self.cfg, "summary": None, "digest": None}
        if rc == 0:
            text = (self.out_dir / "summary.json").read_text()
            parts = [line for line in text.splitlines(keepends=True)
                     if '"wall_time_s"' not in line]
            for csv in sorted(self.out_dir.glob("*.csv")):
                parts += [csv.name, csv.read_bytes()]
            out.update(summary=json.loads(text), digest=_digest(parts))
        return out


class LinearEquivalence(CliWorkload):
    subcommand = "equivalence"
    config_name = "linear_equivalence.json"

    @staticmethod
    def jitter(cfg, jit):
        exp = cfg["experiment"]
        exp["T_grid"] = jit.scale(exp["T_grid"])
        exp["M_grid"] = jit.scale(exp["M_grid"])
        cfg["y0"]["modes"]["1"] *= jit.factor()
        return cfg

    def check(self, heatctl, out):
        """Round-trip residuals <= 5%, alpha and tau within 2% of closed forms."""
        cfg = out["cfg"]
        units = len(cfg["experiment"]["T_grid"]) + len(cfg["experiment"]["M_grid"])
        if out["summary"] is None:
            return units, units, None
        res = out["summary"]["outputs"]
        grid = cfg["grid"]
        inst = heatctl.oracle.ScalarInstance(
            a0=cfg["y0"]["modes"]["1"], r=cfg["r"],
            lam=principal_eigenvalue(grid["n"], grid["ell"]))
        failed = 0
        for row in res["time_roundtrips"]:
            target = heatctl.oracle.scalar_minimal_norm(inst, row["T"])
            ok = (row["residual"] <= ROUNDTRIP_TOL * row["T"]
                  and abs(row["alpha"] - target) <= CLOSED_FORM_TOL * target)
            failed += not ok
        for row in res["bound_roundtrips"]:
            target = heatctl.oracle.scalar_minimal_time(inst, row["M"])
            ok = (row["relative_residual"] <= ROUNDTRIP_TOL
                  and abs(row["tau"] - target) <= CLOSED_FORM_TOL * target)
            failed += not ok
        seen = len(res["time_roundtrips"]) + len(res["bound_roundtrips"])
        return units, failed + (units - seen), out["digest"]


class TanhSweep(CliWorkload):
    subcommand = "sweep"
    config_name = "tanh_sweep.json"

    @staticmethod
    def jitter(cfg, jit):
        cfg["experiment"]["M_grid"] = jit.scale(cfg["experiment"]["M_grid"])
        cfg["y0"]["modes"]["1"] *= jit.factor()
        return cfg

    def check(self, heatctl, out):
        """Strictly decreasing tau(M), and tau(0) equal to the free-decay time."""
        units = len(out["cfg"]["experiment"]["M_grid"])
        if out["summary"] is None:
            return units, units, None
        tau = out["summary"]["outputs"]["tau"]
        points = tau["points"]
        if len(points) != units or not tau["strictly_decreasing"]:
            return units, units, out["digest"]
        failed = 0
        previous = math.inf
        for p in points:
            if p["parameter"] == 0.0:
                ok = p["value"] == tau["free_decay_time"]
            else:
                ok = 0.0 < p["value"] < previous
            previous = p["value"]
            failed += not ok
        return units, failed, out["digest"]


# ---------------------------------------------------------------------------
# Brute-force bracket: a direct call into heatctl.oracle.

class BruteforceBracket:
    """``bruteforce_minimal_norm_bracket`` on the criterion-7 nonlinear family."""

    def __init__(self, root: Path, seed: int, workdir: Path):
        import heatctl

        jit = Jitter(seed)
        b = BRUTE
        self.amp = b["amp"] * jit.factor()
        self.amp_grid = np.linspace(b["amp_lo"], b["amp_hi"], b["amp_count"]) \
            + (jit.factor() - 1.0) * b["amp_hi"]
        self.seed = seed
        self.grid = heatctl.SpatialGrid.build(n=b["n"], ell=b["ell"])
        self.f = heatctl.make_nonlinearity("scaled_tanh", b["L"])
        self.ball = heatctl.TargetBall(b["r"])
        self.y0 = self.amp * heatctl.dirichlet_eigs(self.grid, 1).eigenvectors[0]
        self._reference = None

    def prepare(self, member: int) -> None:
        """Every call uses the one input: its work does not depend on it."""

    def call(self, heatctl):
        b = BRUTE
        return heatctl.oracle.bruteforce_minimal_norm_bracket(
            self.y0, b["T"], b["k_modes"], b["m_intervals"], self.amp_grid,
            b["levels"], self.f, self.grid, self.ball, n_steps=b["n_steps"])

    def outputs(self, bracket):
        return bracket

    def reference(self):
        if self._reference is None:
            self._reference = reference_feasibility(self.amp, self.amp_grid)
        return self._reference

    def check(self, heatctl, bracket):
        """lower, upper and feasible_by_level equal the independent reference."""
        strict, loose = self.reference()
        feas = list(bracket.feasible_by_level)
        ok = len(feas) == len(strict) and all(
            (f or not s) and (l or not f) for f, s, l in zip(feas, strict, loose))
        lower = upper = None
        for lvl, f in zip(BRUTE["levels"], feas):
            if f:
                upper = lvl
                break
            lower = lvl
        ok = ok and (bracket.lower, bracket.upper) == (lower, upper)
        if self.seed == 0:
            ok = ok and {"lower": bracket.lower, "upper": bracket.upper,
                         "feasible_by_level": feas} == BRUTE_SEED0_REFERENCE
        digest = _digest([repr((bracket.lower, bracket.upper, tuple(feas),
                                bracket.candidates, bracket.evaluations))])
        return 1, int(not ok), digest


def reference_feasibility(amp: float, amp_grid: np.ndarray):
    """Per-level feasibility of the brute-force family, computed independently.

    Its own sine basis, modal RK4 and level test, over only the candidates at
    or below the top level (the others cannot decide any level).  Returns two
    tuples: feasibility with the radius shrunk by 1e-9 (a True here must be
    True in the program) and grown by 1e-9 (a False here must be False), so
    rounding differences on a candidate that grazes the ball cannot fail the
    gate.
    """
    b = BRUTE
    n, ell, k, m = b["n"], b["ell"], b["k_modes"], b["m_intervals"]
    h = ell / (n + 1)
    i = np.arange(1, k + 1)
    lam = (2.0 / h ** 2) * (1.0 - np.cos(i * np.pi * h / ell))
    modes = np.sin(np.outer(i, np.arange(1, n + 1)) * np.pi / (n + 1)) * math.sqrt(2.0 / ell)
    a0 = np.zeros(k)
    a0[0] = amp
    L = b["L"]

    amps = np.asarray(sorted(amp_grid))
    coeffs = np.stack(np.meshgrid(*([amps] * (k * m)), indexing="ij"), axis=-1)
    coeffs = coeffs.reshape(-1, m, k)
    # Control acts on the whole interval, so the gram matrix of the control
    # profiles is also the map from coefficients to modal forcing.
    gram = h * modes @ modes.T
    level = np.sqrt(np.einsum("cmi,ij,cmj->cm", coeffs, gram, coeffs).max(axis=1))
    top = max(b["levels"])
    keep = level <= top * (1.0 + 1e-9)
    coeffs, level = coeffs[keep], level[keep]
    forces = np.einsum("ij,cmj->cmi", gram, coeffs)

    steps = -(-b["n_steps"] // m)
    dt = b["T"] / (steps * m)

    def rhs(a, force):
        return -(a * lam) - h * (L * np.tanh(a @ modes) @ modes.T) + force

    terminal = np.empty(len(coeffs))
    for start in range(0, len(coeffs), 4096):
        a = np.tile(a0, (min(4096, len(coeffs) - start), 1))
        for s in range(m):
            force = forces[start:start + len(a), s, :]
            for _ in range(steps):
                k1 = rhs(a, force)
                k2 = rhs(a + 0.5 * dt * k1, force)
                k3 = rhs(a + 0.5 * dt * k2, force)
                k4 = rhs(a + dt * k3, force)
                a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        terminal[start:start + len(a)] = np.sqrt(np.einsum("ci,ci->c", a, a))

    r = b["r"]

    def feasible(r_eff, lvl_slack):
        return tuple(bool(np.any((terminal <= r_eff) & (level <= lvl * (1.0 + lvl_slack))))
                     for lvl in b["levels"])

    return feasible(r * (1.0 - 1e-9), -1e-9), feasible(r * (1.0 + 1e-9), 1e-9)


WORKLOADS = {
    "linear_equivalence": LinearEquivalence,
    "tanh_sweep": TanhSweep,
    "bruteforce_bracket": BruteforceBracket,
}
