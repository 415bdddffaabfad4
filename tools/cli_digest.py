"""Digest every CLI run on ``configs/*.json``, to compare two checkouts byte for byte.

Runs each subcommand on each config in a fresh interpreter (``python -m
heatctl.cli``), adding only the experiment fields the config lacks, plus
step-count (``nt``), free-decay-edge, masked-control curve, second reaction
term (``bounded_odd_rational``), initial state off the first mode, other
spellings of the first mode, tolerance-below-float-spacing, failure,
large-bound, refused-config, huge-horizon, extreme closed-form,
negative-first-mode, unknown-field and experiment-field variants.  Prints one line per run:

    <label> <config> <subcommand> exit=<code> stderr=<sha256[:16]> out=<sha256[:16]>

where ``out`` hashes ``summary.json`` without ``wall_time_s`` and every CSV
the run wrote, and ends with one overall digest of those lines.  A run still
going after ``TIMEOUT_S`` seconds is killed and prints ``exit=timeout``.  Two
checkouts give the same digest exactly when they give the same exit codes,
stderr and outputs on every run.

    python tools/cli_digest.py [CHECKOUT]

CHECKOUT defaults to the one holding this script; its ``src`` and
``configs`` are used.  Standard library only, besides the heatctl under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Seconds a run may take before it is killed.
TIMEOUT_S = 120

SUBCOMMANDS = ("simulate", "gamma", "minnorm", "mintime", "equivalence",
               "sweep", "oracle-compare", "gradcheck")

# Experiment fields a subcommand needs; each is added only when the config
# does not set it.
NEEDS = {
    "simulate": {"horizon": 0.1},
    "minnorm": {"T": 0.05},
    "mintime": {"M": 5.0},
    "equivalence": {"T_grid": [0.05], "M_grid": [5.0]},
    "sweep": {"M_grid": [1.0, 10.0]},
    "oracle-compare": {"M_values": [10.0], "T_values": [0.07]},
    "gradcheck": {"pairs": 2},
}

# (label, config, subcommand, extra overrides) beyond the plain runs.
VARIANTS = [
    # step counts other than 300, from 200 to 2000
    *[(f"nt={nt}", "linear_equivalence", cmd, [f"nt={nt}"])
      for steps in (250, 2000)
      for cmd, nt in (("simulate", 200), ("gamma", steps), ("minnorm", 200),
                      ("mintime", steps), ("sweep", steps))],
    ("nt=250", "linear_equivalence", "equivalence",
     ["nt=250", "experiment.T_grid=[0.08]", "experiment.M_grid=[5]"]),
    ("nt=250", "oracle_compare", "oracle-compare", ["nt=250"]),
    ("nt=225", "linear_equivalence", "gradcheck", ["nt=225", "experiment.T=0.9"]),
    # free-decay edge: zero bound, horizon past the free-decay time
    ("edge", "tanh_sweep", "mintime", ["experiment.M=0"]),
    ("edge", "tanh_sweep", "minnorm", ["experiment.T=1"]),
    ("edge", "linear_equivalence", "equivalence",
     ["experiment.T_grid=[]", "experiment.M_grid=[0]"]),
    ("edge", "tanh_sweep", "sweep", ["experiment.M_grid=[0]"]),
    # curves with no closed form (masked control): empty oracle_value column
    ("masked", "linear_equivalence", "sweep",
     ["omega=[0.3,0.8]", "experiment.T_grid=[0.05,0.08]", "experiment.M_grid=[5]"]),
    # linear value points on masked control, where the dual pair iterates
    *[("masked", "linear_equivalence", cmd, ["omega=[0.3,0.8]"])
      for cmd in ("minnorm", "mintime")],
    # the pair refutes the crossing, so the minimal time halves above it
    ("masked", "linear_equivalence", "mintime", ["omega=[0.3,0.8]", "experiment.M=50"]),
    # the second built-in reaction term
    *[("rational", "tanh_sweep", cmd, ["nonlinearity.kind=bounded_odd_rational"])
      for cmd in ("mintime", "minnorm")],
    # initial states off the first mode, where the minimal time's dual-bound
    # enclosure is loose and falls back to the exact bound at some horizons:
    # f = 0 and tanh, on full and masked control
    *[("offmode", config, cmd, ['y0={"modes":{"1":2,"3":1.5}}', f"omega={omega}"])
      for config in ("linear_equivalence", "tanh_sweep")
      for omega in ("[0,1]", "[0.3,0.8]")
      for cmd in ("mintime", "equivalence")],
    # other spellings of y0 = 2e1, which the closed-form instance takes
    *[("spelling", "oracle_compare", cmd, [f'y0={{"modes":{modes}}}'])
      for modes in ('{"01":2.0}', '{"1":2.0,"2":0}')
      for cmd in ("oracle-compare", "sweep")],
    # mode 1 under two spellings, summed to y0 = 3e1
    ("spelling", "oracle_compare", "oracle-compare", ['y0={"modes":{"1":2.0,"01":1.0}}']),
    # width rules below the float spacing: the bracket ends on adjacent floats
    ("tiny", "linear_equivalence", "minnorm", ["solver.tol_m=1e-17"]),
    ("tiny", "linear_equivalence", "mintime", ["solver.tol_t=1e-17"]),
    # failures
    ("fail", "tanh_sweep", "mintime", ["experiment.M=5", "nonlinearity.L=1e6"]),
    ("fail", "linear_equivalence", "mintime", ["experiment.M=1e300"]),
    ("fail", "tanh_sweep", "mintime", ["experiment.M=1e300"]),
    ("fail", "tanh_sweep", "minnorm", ["experiment.T=0.01", "solver.max_iters=1"]),
    ("fail", "linear_equivalence", "minnorm", ["omega=[0.1,0.4]", "experiment.T=0.007"]),
    # a large bound, at which the oracle must run its descent as at a moderate one
    ("large", "tanh_sweep", "mintime", ["experiment.M=1e6"]),
    # grids whose Laplacian has no eigenvalues in the positive finite floats
    *[("refused", "linear_equivalence", cmd, [grid])
      for grid in ("grid.n=1000000000000", "grid.n=100000000000000000000",
                   "grid.ell=1e-300", "grid.ell=1e300")
      for cmd in ("gamma", "simulate", "minnorm")],
    # feasibility slacks outside (0, 1)
    ("slack", "linear_equivalence", "mintime", ["solver.eps_feas=1e200"]),
    ("slack", "linear_equivalence", "mintime", ["solver.eps_feas=1"]),
    # list entries of the wrong sign
    ("sign", "linear_equivalence", "equivalence", ["experiment.M_grid=[-1]"]),
    ("sign", "linear_equivalence", "equivalence", ["experiment.T_grid=[-0.01]"]),
    ("sign", "linear_equivalence", "equivalence", ["experiment.T_grid=[0]"]),
    ("sign", "oracle_compare", "oracle-compare", ["experiment.M_values=[-1]"]),
    ("sign", "oracle_compare", "oracle-compare", ["experiment.T_values=[-0.1]"]),
    ("sign", "tanh_sweep", "sweep", ["experiment.M_grid=[-1,5]"]),
    ("sign", "linear_equivalence", "sweep", ["experiment.T_grid=[0.0,0.05]"]),
    # initial states the config cannot take
    ("y0", "linear_equivalence", "gamma", ['y0={"file":5}']),
    ("y0", "linear_equivalence", "gamma", ['y0={"modes":{"1":1e308}}']),
    ("y0", "linear_equivalence", "gamma", ['y0={"modes":{"1":1e200,"2":1e200}}']),
    # grids a curve cannot take
    ("grid", "tanh_sweep", "sweep", ["experiment.M_grid=[5,1]"]),
    ("grid", "linear_equivalence", "sweep", ["experiment.T_grid=[0.05,0.5]"]),
    ("grid", "oracle_compare", "oracle-compare", ["experiment.T_values=[0.5]"]),
    # radii too small for the discrete norm: r*r/ell below the smallest normal float
    *[("refused", "linear_equivalence", cmd, [f"r={r}"])
      for r in ("5e-324", "1e-200")
      for cmd in ("gamma", "mintime")],
    # huge horizons in 2000 steps
    *[("nt=2000", "linear_equivalence", cmd, ["nt=2000", f"experiment.{key}=1e10"])
      for cmd, key in (("minnorm", "T"), ("simulate", "horizon"), ("gradcheck", "T"))],
    # closed forms at a vanishing horizon and a huge bound
    ("extreme", "linear_equivalence", "sweep", ["experiment.T_grid=[1e-300]"]),
    ("extreme", "oracle_compare", "oracle-compare", ["experiment.T_values=[1e-300]"]),
    ("extreme", "oracle_compare", "oracle-compare", ["experiment.M_values=[1e17]"]),
    # a negative first-mode coefficient, the mirror image of the closed-form instance
    *[("negative", "oracle_compare", cmd, ['y0={"modes":{"1":-2.0}}'])
      for cmd in ("oracle-compare", "sweep")],
    # config fields the parser does not read, and a step count that is not one
    ("unknown", "linear_equivalence", "mintime", ["dt=0.004"]),
    ("unknown", "tanh_sweep", "sweep", ["solver.tol_M=1e-9"]),
    ("refused", "linear_equivalence", "gamma", ["nt=null"]),
    # experiment fields of the wrong kind or sign
    ("field", "linear_equivalence", "gradcheck", ["experiment.seed=-1"]),
    ("field", "linear_equivalence", "gradcheck", ["experiment.pairs=2.5"]),
    ("field", "linear_equivalence", "simulate", ["experiment.envelope_tol=true"]),
    ("field", "linear_equivalence", "minnorm", ['experiment.T="abc"']),
    ("field", "linear_equivalence", "equivalence", ["experiment.T_grid=0.05"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _outputs_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    summary = out_dir / "summary.json"
    if summary.exists():
        data = json.loads(summary.read_text())
        data.pop("wall_time_s", None)
        h.update(json.dumps(data, sort_keys=True).encode())
    for csv in sorted(out_dir.glob("*.csv")):
        h.update(csv.name.encode() + b"\0" + csv.read_bytes())
    return h.hexdigest()[:16]


def run(root: Path, config: str, command: str, overrides: list[str]) -> str:
    """Run one subcommand and return its digest line (without the label)."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        argv = [sys.executable, "-m", "heatctl.cli", command,
                "--config", str(root / "configs" / f"{config}.json"), "--out", str(out_dir)]
        for spec in overrides:
            argv += ["--override", spec]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        try:
            proc = subprocess.run(argv, capture_output=True, env=env, cwd=tmp,
                                  timeout=TIMEOUT_S)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, stderr = "timeout", exc.stderr or b""
        return f"exit={code} stderr={_sha(stderr)} out={_outputs_digest(out_dir)}"


def plan(root: Path):
    """(label, config, subcommand, overrides) of every run, in order."""
    configs = sorted(path.stem for path in (root / "configs").glob("*.json"))
    runs = [("plain", config, command, []) for config in configs for command in SUBCOMMANDS]
    for label, config, command, extra in runs + VARIANTS:
        cfg = json.loads((root / "configs" / f"{config}.json").read_text())
        experiment = cfg.get("experiment") or {}
        needs = [f"experiment.{key}={json.dumps(value)}"
                 for key, value in NEEDS.get(command, {}).items() if key not in experiment]
        yield label, config, command, needs + extra


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    total = hashlib.sha256()
    for label, config, command, overrides in plan(root.resolve()):
        line = (f"{label:10s} {config:20s} {command:15s} "
                f"{run(root.resolve(), config, command, overrides)}")
        print(line, flush=True)
        total.update(line.encode() + b"\n")
    print(f"overall {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
