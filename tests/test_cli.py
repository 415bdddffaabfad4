import importlib.util
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from heatctl.cli import (
    EXIT_CONFIG,
    EXIT_FAILED,
    EXIT_INITIAL_STATE,
    EXIT_OK,
    EXPERIMENT_FIELDS,
    HANDLERS,
    build_setup,
    canonical_json,
    main,
)

LINEAR_CONFIG = {
    "grid": {"ell": 1.0, "n": 127},
    "nonlinearity": {"kind": "zero", "L": 1.0},
    "y0": {"modes": {"1": 2.0}},
    "r": 0.5,
    "nt": 300,
    "experiment": {},
}


def write_config(tmp_path, name="config.json", **updates):
    cfg = json.loads(json.dumps(LINEAR_CONFIG))
    for key, value in updates.items():
        cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


# ---------------------------------------------------------------------------
# Subcommands

def test_mintime_zero_bound_equals_gamma(tmp_path):
    cfg = write_config(tmp_path, experiment={"M": 0.0})
    out = tmp_path / "out"
    assert main(["mintime", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = read_summary(out)
    out2 = tmp_path / "out_gamma"
    cfg2 = write_config(tmp_path, name="config2.json", experiment={})
    assert main(["gamma", "--config", str(cfg2), "--out", str(out2)]) == EXIT_OK
    gamma = read_summary(out2)["outputs"]["gamma"]
    assert summary["outputs"]["tau"] == gamma
    assert (out / "control_norms.csv").exists()


def test_simulate_writes_norm_series(tmp_path):
    cfg = write_config(tmp_path, experiment={"horizon": 0.1})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = read_summary(out)
    assert summary["outputs"]["envelope_passed"] is True
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == "t,norm,envelope"
    assert len(lines) == 302  # header + nt + 1 samples


def test_minnorm_outputs_value_and_control(tmp_path):
    cfg = write_config(tmp_path, experiment={"T": 0.1})
    out = tmp_path / "out"
    assert main(["minnorm", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = read_summary(out)
    assert summary["outputs"]["alpha"] == pytest.approx(3.86, rel=0.02)
    assert summary["outputs"]["bracket_hi"] >= summary["outputs"]["alpha"]


def test_determinism_byte_identical_excluding_wall_time(tmp_path):
    cfg = write_config(tmp_path, experiment={"M_values": [1.0, 10.0],
                                             "T_values": [0.1]})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["oracle-compare", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["oracle-compare", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("wall_time_s"), s2.pop("wall_time_s")
    assert canonical_json(s1) == canonical_json(s2)
    assert (out1 / "oracle_compare.csv").read_bytes() == (out2 / "oracle_compare.csv").read_bytes()


def test_oracle_compare_gap_small(tmp_path):
    cfg = write_config(tmp_path, experiment={"M_values": [1.0, 10.0],
                                             "T_values": [0.07, 0.1]})
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = read_summary(out)
    assert summary["outputs"]["max_rel_gap"] <= 0.02
    lines = (out / "oracle_compare.csv").read_text().splitlines()
    assert lines[0] == "kind,param,solver,oracle,rel_gap"
    assert len(lines) == 5


def test_oracle_compare_refuses_out_of_scope_config(tmp_path):
    cfg = write_config(tmp_path, nonlinearity={"kind": "scaled_tanh", "L": 1.0},
                       experiment={"M_values": [1.0]})
    assert main(["oracle-compare", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_equivalence_refuses_horizons_past_gamma(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment={"T_grid": [0.1, 0.5], "M_grid": []})
    code = main(["equivalence", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "free-decay" in err and "0.14" in err


@pytest.mark.parametrize("command, experiment, field", [
    ("equivalence", {"T_grid": [], "M_grid": [-1]}, "experiment.M_grid[0]"),
    ("equivalence", {"T_grid": [-0.01], "M_grid": []}, "experiment.T_grid[0]"),
    ("equivalence", {"T_grid": [0], "M_grid": []}, "experiment.T_grid[0]"),
    ("oracle-compare", {"M_values": [-1]}, "experiment.M_values[0]"),
    ("oracle-compare", {"T_values": [-0.1]}, "experiment.T_values[0]"),
    ("sweep", {"M_grid": [-1, 5]}, "experiment.M_grid[0]"),
    ("sweep", {"T_grid": [0.0, 0.05]}, "experiment.T_grid[0]"),
])
def test_list_entries_are_checked_with_their_sign(tmp_path, capsys, command, experiment,
                                                  field):
    cfg = write_config(tmp_path, experiment=experiment)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config: {field}: expected a ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, updates, message", [
    ("sweep", {"experiment": {"M_grid": [5, 1]}},
     "config: experiment.M_grid: expected a strictly increasing list"),
    ("sweep", {"experiment": {"T_grid": [0.05, 0.5]}},
     "refused: T_grid entries [0.5] exceed the free-decay time 0.1407"),
    # past the closed form's free-decay time but not the numerical one (0.1408)
    ("sweep", {"experiment": {"T_grid": [0.1406]}},
     "refused: T_grid entries [0.1406] exceed the closed-form free-decay time 0.1404"),
    ("sweep", {"omega": [0.3, 0.8], "nonlinearity": {"kind": "scaled_tanh", "L": 1.0},
               "experiment": {"T_grid": [0.05, 0.5]}},
     "refused: T_grid entries [0.5] exceed the free-decay time 0.1"),
    ("oracle-compare", {"experiment": {"T_values": [0.5]}},
     "refused: T_values entries [0.5] exceed the closed-form free-decay time 0.1404"),
], ids=["sweep-decreasing-bounds", "sweep-horizon-past-gamma",
        "sweep-horizon-past-closed-form-gamma", "sweep-tanh-horizon-past-gamma",
        "oracle-compare-horizon-past-closed-form-gamma"])
def test_bad_grids_are_refused_before_any_oracle_call(tmp_path, capsys, solve_calls,
                                                      command, updates, message):
    cfg = write_config(tmp_path, **updates)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()
    assert not solve_calls.adjoint


def test_equivalence_runs_on_small_grids(tmp_path):
    cfg = write_config(tmp_path, experiment={"T_grid": [0.1], "M_grid": [10.0]})
    out = tmp_path / "out"
    assert main(["equivalence", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = read_summary(out)
    assert summary["outputs"]["max_time_residual"] <= 0.02 * 0.1
    assert summary["outputs"]["max_bound_residual"] <= 0.02
    lines = (out / "equivalence.csv").read_text().splitlines()
    assert lines[0] == "kind,param,value,roundtrip,residual"
    assert len(lines) == 3


@pytest.mark.parametrize("modes", [{"01": 2.0}, {" 1": 2.0}, {"1": 2.0, "2": 0}, {"1": -2.0}],
                         ids=["leading-zero", "leading-space", "zero-second-mode", "negative"])
@pytest.mark.parametrize("command, experiment, output", [
    ("oracle-compare", {"M_values": [10.0], "T_values": [0.07]}, "oracle_compare.csv"),
    ("sweep", {"M_grid": [10.0]}, "tau_curve.csv"),
], ids=["oracle-compare", "sweep"])
def test_closed_form_applies_to_every_spelling_of_the_first_mode(tmp_path, command,
                                                                 experiment, output, modes):
    # Each map reads as y0 = 2e1, the closed-form instance, or as -2e1, its
    # mirror image (with f = 0 the problem is symmetric under y -> -y):
    # oracle-compare runs and sweep fills its oracle_value column, with the
    # outputs of {"1": 2.0}.
    outputs = []
    for name, y0_modes in (("plain", {"1": 2.0}), ("spelled", modes)):
        cfg = write_config(tmp_path, name=f"{name}.json", grid={"ell": 1.0, "n": 31}, nt=60,
                           y0={"modes": y0_modes}, experiment=experiment)
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outputs.append((out / output).read_bytes())
    assert outputs[1] == outputs[0]
    if command == "sweep":
        assert all(p["oracle_value"] is not None for p in curve_points(tmp_path / "spelled", "tau"))


@pytest.mark.parametrize("command, experiment", [
    ("oracle-compare", {"M_values": [10.0], "T_values": [0.07]}),
    ("sweep", {"M_grid": [10.0]}),
], ids=["oracle-compare", "sweep"])
def test_closed_form_sums_a_mode_given_twice(tmp_path, command, experiment):
    # build_setup sums "1" and "01" into y0 = 3e1, and so does the
    # closed-form instance: every output equals that of {"1": 3.0}
    outputs = []
    for name, y0_modes in (("plain", {"1": 3.0}), ("twice", {"1": 2.0, "01": 1.0})):
        cfg = write_config(tmp_path, name=f"{name}.json", grid={"ell": 1.0, "n": 31}, nt=60,
                           y0={"modes": y0_modes}, experiment=experiment)
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = read_summary(out)
        del summary["wall_time_s"], summary["config_hash"]
        outputs.append((summary, {path.name: path.read_bytes()
                                  for path in sorted(out.glob("*.csv"))}))
    assert outputs[1] == outputs[0]
    assert outputs[0][1]


def curve_points(out, name):
    """The points of curve ``name`` in summary.json, after checking that each
    cell of ``<name>_curve.csv`` is the 17-digit text of the point's field
    (empty for None)."""
    points = read_summary(out)["outputs"][name]["points"]
    lines = (out / f"{name}_curve.csv").read_text().splitlines()
    keys = ["parameter", "value", "bracket_lo", "bracket_hi", "oracle_value", "iterations"]
    assert lines[0] == "param,value,bracket_lo,bracket_hi,oracle_value,iterations"
    assert len(lines) == len(points) + 1
    for line, point in zip(lines[1:], points):
        cells = line.split(",")
        assert len(cells) == len(keys)
        for cell, key in zip(cells, keys):
            if point[key] is None:
                assert cell == ""
            else:
                assert cell == format(point[key], ".17g")
                assert float(cell) == point[key]
    return points


def test_sweep_exports_curves_with_oracle_column(tmp_path):
    cfg = write_config(tmp_path, experiment={"M_grid": [0.0, 1.0, 10.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert read_summary(out)["outputs"]["tau"]["strictly_decreasing"] is True
    points = curve_points(out, "tau")
    assert [p["parameter"] for p in points] == [0.0, 1.0, 10.0]
    assert all(p["oracle_value"] is not None for p in points)
    for p in points:
        assert p["value"] == pytest.approx(p["oracle_value"], rel=0.02, abs=1e-6)


def test_sweep_masked_curves_have_empty_oracle_column(tmp_path):
    # control on (0.3, 0.8) only: no closed form applies to either curve
    cfg = write_config(tmp_path, omega=[0.3, 0.8], grid={"ell": 1.0, "n": 31},
                       experiment={"M_grid": [10.0], "T_grid": [0.05, 0.08]})
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    for name, params in (("tau", [10.0]), ("alpha", [0.05, 0.08])):
        points = curve_points(out, name)
        assert [p["parameter"] for p in points] == params
        assert all(p["oracle_value"] is None for p in points)
        assert all(p["bracket_lo"] <= p["value"] <= p["bracket_hi"] for p in points)


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "path-under-file"])
def test_unusable_out_is_one_line_exit_2(tmp_path, capsys, solve_calls, under_file):
    # checked before the handler runs: not a single forward or adjoint solve
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker / "out" if under_file else blocker
    cfg = write_config(tmp_path, experiment={"M_grid": [1.0]})
    for command in ("gamma", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("out: ") and err.count("\n") == 1
    assert blocker.read_text() == "keep"
    assert not solve_calls.forward and not solve_calls.adjoint


def test_digest_tool_runs_every_subcommand():
    spec = importlib.util.spec_from_file_location(
        "cli_digest", Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.SUBCOMMANDS == tuple(HANDLERS)
    assert set(digest.NEEDS) <= set(HANDLERS)


def test_gradcheck_errors_small(tmp_path):
    cfg = write_config(tmp_path, omega=[0.3, 0.8],
                       nonlinearity={"kind": "scaled_tanh", "L": 1.0},
                       experiment={"T": 0.1, "pairs": 3, "seed": 1, "fd_step": 1e-3})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert read_summary(out)["outputs"]["max_rel_error"] <= 1e-6


@pytest.mark.parametrize("command, experiment", [
    ("simulate", {"horizon": 0.3}),
    ("gamma", {}),
    ("minnorm", {"T": 0.05}),
    ("mintime", {"M": 5.0}),
    ("equivalence", {"T_grid": [], "M_grid": []}),
    ("sweep", {"M_grid": [0.0]}),
    ("oracle-compare", {"M_values": [0.0]}),
    ("gradcheck", {"T": 0.25, "pairs": 1}),
])
def test_every_subcommand_runs_the_configs_nt_steps(tmp_path, command, experiment):
    # nt is not the default 300, so a handler that falls back to it fails.
    cfg = write_config(tmp_path, grid={"ell": 1.0, "n": 15}, nt=37, experiment=experiment)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    if command in ("minnorm", "mintime"):
        nt = len((out / "control_norms.csv").read_text().splitlines()) - 1
    else:
        nt = read_summary(out)["diagnostics"]["nt"]
    assert nt == 37


@pytest.mark.parametrize("command, overrides, message", [
    ("mintime", ["nonlinearity.l=5"], "nonlinearity.l: unknown field"),
    ("mintime", ["grid.N=31"], "grid.N: unknown field"),
    ("mintime", ["solver.tol_M=1e-9"], "solver.tol_M: unknown field"),
    ("mintime", ["rr=0.4"], "rr: unknown field"),
    ("mintime", ['y0.mode={"1":3}'], "y0.mode: unknown field"),
    ("gamma", ['y0={"modes":{"1":2.0},"file":"does-not-exist.txt"}'],
     "y0: expected a 'modes' map or a 'file' path, not both"),
    ("mintime", ["dt=0.004"], "dt: unknown field"),
    ("mintime", ["nt=null"], "nt: expected a positive integer, got None"),
    ("simulate", ["experiment.horizon=0.1", "experiment.envelope_tl=0"],
     "experiment.envelope_tl: unknown field"),
    ("gradcheck", ["experiment.pairs=1", "experiment.Seed=5"], "experiment.Seed: unknown field"),
], ids=["nonlinearity.l", "grid.N", "solver.tol_M", "rr", "y0.mode", "y0-both", "dt",
        "nt-null", "experiment.envelope_tl", "experiment.Seed"])
def test_a_field_the_parser_does_not_read_is_refused(tmp_path, capsys, solve_calls, command,
                                                    overrides, message):
    # Each of these configs ran with exit 0 on the values it had without the
    # field, and the y0 with both a map and a file never opened the file:
    # simulate with the default envelope_tol (envelope_passed true, where
    # envelope_tol=0 gives false), gradcheck with seed 0.  The config's own
    # T_grid and M_grid, which other subcommands read, are not refused.
    config = Path(__file__).resolve().parents[1] / "configs" / "linear_equivalence.json"
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out), "--override", "experiment.M=5"]
    for spec in overrides:
        argv += ["--override", spec]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not out.exists() and not solve_calls.forward


def test_a_config_may_hold_the_experiment_fields_of_every_subcommand(tmp_path):
    experiment = {"horizon": 0.1, "envelope_tol": 1e-3, "T": 0.05, "M": 5.0,
                  "T_grid": [0.05], "M_grid": [5.0], "M_values": [5.0], "T_values": [0.05],
                  "pairs": 1, "seed": 0, "fd_step": 1e-5, "amplitude": 1.0}
    assert set(experiment) == EXPERIMENT_FIELDS
    cfg = write_config(tmp_path, grid={"ell": 1.0, "n": 15}, nt=37, experiment=experiment)
    assert main(["gamma", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("command, updates, message", [
    ("mintime", {"omega": [0.3, 0.8], "nonlinearity": {"kind": "scaled_tanh", "L": 1e6},
                 "experiment": {"M": 5.0}}, "free decay did not enter the ball"),
    ("mintime", {"nonlinearity": {"kind": "scaled_tanh", "L": 1.0},
                 "experiment": {"M": 1e300}}, "terminal objective is not finite"),
    ("minnorm", {"omega": [0.3, 0.8], "nonlinearity": {"kind": "scaled_tanh", "L": 1.0},
                 "experiment": {"T": 0.01}, "solver": {"max_iters": 1}},
     "no feasible control found up to norm bound 1.15e+18"),
    ("gradcheck", {"experiment": {"amplitude": 1e200, "pairs": 1}},
     "terminal objective is not finite"),
], ids=["free-decay-never-enters", "diverging-solve", "no-feasible-bound",
        "diverging-gradcheck"])
def test_failed_computation_exits_with_one_line(tmp_path, capsys, command, updates, message):
    cfg = write_config(tmp_path, grid={"ell": 1.0, "n": 31}, nt=60, **updates)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_FAILED
    err = capsys.readouterr().err
    assert err.startswith("failed: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_state_array_too_large_to_allocate_exits_with_one_line(tmp_path, capsys, monkeypatch):
    # numpy refuses the (nt, n) arrays of 10^12 steps (924 TiB) before
    # touching memory; that exited with a traceback.  Where sysconf reports
    # the host's memory (1 TiB here), the step count is refused before numpy
    # is asked.
    out = tmp_path / "out"
    config = Path(__file__).resolve().parents[1] / "configs" / "linear_equivalence.json"
    argv = ["equivalence", "--config", str(config), "--out", str(out),
            "--override", "nt=1000000000000"]
    host_memory(monkeypatch, 2 ** 40)
    assert main(argv) == EXIT_FAILED
    assert capsys.readouterr().err == (
        "failed: grid.n=127 and nt=1000000000000 need more than the host's memory\n")
    host_memory(monkeypatch, None)
    assert main(argv) == EXIT_FAILED
    err = capsys.readouterr().err
    assert err.startswith("failed: ") and "Unable to allocate" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_override_changes_result_and_hash(tmp_path):
    cfg = write_config(tmp_path, experiment={"M": 10.0})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mintime", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["mintime", "--config", str(cfg), "--out", str(out2),
                 "--override", "experiment.M=0"]) == EXIT_OK
    s1, s2 = read_summary(out1), read_summary(out2)
    assert s1["config_hash"] != s2["config_hash"]
    assert s2["outputs"]["M"] == 0.0
    assert s2["outputs"]["tau"] > s1["outputs"]["tau"]


# ---------------------------------------------------------------------------
# Config validation

def test_missing_radius_is_field_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(LINEAR_CONFIG))
    del cfg["r"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = main(["gamma", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "r:" in capsys.readouterr().err


def test_bad_omega_is_field_error(tmp_path, capsys):
    cfg = write_config(tmp_path, omega=[0.9, 0.2])
    code = main(["gamma", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "omega" in capsys.readouterr().err


def test_initial_state_inside_ball_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, y0={"modes": {"1": 0.4}})
    code = main(["gamma", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_INITIAL_STATE
    assert "inside" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    code = main(["gamma", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "JSON" in capsys.readouterr().err


def test_y0_from_vector_file(tmp_path):
    vec = 2.0 * np.sin(np.pi * np.arange(1, 128) / 128.0) * math.sqrt(2.0)
    vec_path = tmp_path / "y0.txt"
    vec_path.write_text(" ".join(format(float(v), ".17g") for v in vec))
    cfg = write_config(tmp_path, y0={"file": "y0.txt"}, experiment={})
    out = tmp_path / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert read_summary(out)["outputs"]["gamma"] == pytest.approx(0.14, abs=0.01)


def test_y0_file_that_is_not_a_string_is_field_error(tmp_path, capsys):
    # Path(5) raised TypeError, a traceback with exit 1
    cfg = write_config(tmp_path, y0={"file": 5})
    code = main(["gamma", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "config: y0.file: expected a path string, got 5" in capsys.readouterr().err


@pytest.mark.parametrize("y0", [
    {"modes": {"1": 1e308}},
    {"modes": {"1": 1e200, "2": 1e200}},
    {"file": "y0.txt"},
], ids=["one-mode", "two-modes", "file"])
def test_y0_whose_norm_overflows_is_field_error(tmp_path, capsys, y0):
    # finite entries whose L2 norm overflows reached the banded solver as
    # infs and ended in a traceback with exit 1
    (tmp_path / "y0.txt").write_text(" ".join(["1e200"] * 127))
    cfg = write_config(tmp_path, y0=y0, experiment={"M": 5.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        code = main(["mintime", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config: y0: the initial state's L2 norm is not finite\n"
    assert not (tmp_path / "out").exists()


def test_nonlinearity_failing_validation_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, nonlinearity={"kind": "unknown_kind"})
    code = main(["gamma", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "nonlinearity" in capsys.readouterr().err


def run_gamma_with(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main(["gamma", "--config", str(path), "--out", str(tmp_path / "out")])


def test_nan_radius_is_field_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(LINEAR_CONFIG))
    cfg["r"] = float("nan")
    assert run_gamma_with(tmp_path, cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "r:" in err
    assert "inside" not in err


def test_nan_time_tolerance_is_field_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(LINEAR_CONFIG))
    cfg["solver"] = {"tol_t": float("nan")}
    assert run_gamma_with(tmp_path, cfg) == EXIT_CONFIG
    assert "solver.tol_t" in capsys.readouterr().err


def test_bool_grid_size_is_field_error(tmp_path, capsys):
    cfg = json.loads(json.dumps(LINEAR_CONFIG))
    cfg["grid"]["n"] = True
    assert run_gamma_with(tmp_path, cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "grid.n" in err
    assert "y0.modes" not in err


@pytest.mark.parametrize("grid, message", [
    ({"n": 10 ** 12}, "config: grid.n: 1000000000000 nodes round the first eigenvalue's "
                      "1 - cos(pi/(n+1)) to 0\n"),
    ({"n": 10 ** 20}, "config: grid.n: 100000000000000000000 nodes round the first "
                      "eigenvalue's 1 - cos(pi/(n+1)) to 0\n"),
    ({"ell": 1e-300}, "config: grid.ell: the spacing ell/(n+1) = 7.81e-303 puts the "
                      "Laplacian's eigenvalues outside the positive finite floats\n"),
    ({"ell": 1e300}, "config: grid.ell: the spacing ell/(n+1) = 7.81e+297 puts the "
                     "Laplacian's eigenvalues outside the positive finite floats\n"),
], ids=["n=1e12", "n=1e20", "ell=1e-300", "ell=1e300"])
@pytest.mark.parametrize("y0", [{"modes": {"1": 2.0}}, {"file": "y0.txt"}],
                         ids=["modes", "file"])
@pytest.mark.parametrize("command", ["gamma", "simulate", "minnorm"])
def test_grids_that_break_the_laplacian_are_field_errors(tmp_path, capsys, solve_calls,
                                                         command, y0, grid, message):
    # n = 1e12 made SpatialGrid.build ask numpy for 7.28 TiB, n = 1e20 was
    # reported as an omega error, and ell = 1e-300 and 1e300 ended in a
    # ZeroDivisionError and an OverflowError from the eigenvalues: tracebacks
    # with exit 1, from a file y0 inside the handler.  Now each is one field
    # line from the config check, before any array of n values is made.
    (tmp_path / "y0.txt").write_text(" ".join(["1.0"] * 127))
    cfg = json.loads(json.dumps(LINEAR_CONFIG))
    cfg["grid"].update(grid)
    cfg["y0"], cfg["experiment"] = y0, {"horizon": 0.1, "T": 0.05}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == message
    assert not out.exists() and not solve_calls.forward


def test_gradcheck_non_numeric_horizon_is_field_error(tmp_path, capsys):
    cfg = write_config(tmp_path, experiment={"T": "abc"})
    code = main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "experiment.T" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("nonlinearity.L", float("nan")),
    ("r", float("inf")),
    ("nt", 300.0),
    ("solver.max_iters", True),
    ("solver.eps_feas", float("nan")),
    ("omega", [0.1, True]),
    ("y0.modes", {"1": float("nan")}),
])
def test_numeric_fields_reject_non_finite_and_bool(tmp_path, capsys, field, value):
    cfg = json.loads(json.dumps(LINEAR_CONFIG))
    node = cfg
    *parents, leaf = field.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    assert run_gamma_with(tmp_path, cfg) == EXIT_CONFIG
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("eps_feas", [1, 1e300])
def test_feasibility_slack_of_one_or_more_is_field_error(tmp_path, capsys, eps_feas):
    # From 1 on the oracle's early-stop radius r(1 - eps_feas) is 0, and a
    # huge slack overflowed the dual bound's radius into a traceback.
    cfg = write_config(tmp_path, solver={"eps_feas": eps_feas}, experiment={"M": 5.0})
    out = tmp_path / "out"
    assert main(["mintime", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config: solver.eps_feas: expected a positive finite number below 1" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("grid", [1]),
    ("nonlinearity", "scaled_tanh"),
    ("solver", 5),
])
def test_non_object_section_is_field_error(tmp_path, capsys, field, value):
    cfg = json.loads(json.dumps(LINEAR_CONFIG))
    cfg[field] = value
    assert run_gamma_with(tmp_path, cfg) == EXIT_CONFIG
    assert f"config: {field}: expected an object" in capsys.readouterr().err


def test_y0_mode_on_a_large_grid_builds_one_sine_vector():
    # y0 summed rows of the sine table up to the highest listed mode, here a
    # 182 TiB table that numpy refused with a traceback; each listed mode is
    # now one sine vector.  Only the config is built: a handler's state
    # arrays on this grid would take about 12 GB.
    n = 5_000_000
    cfg = json.loads(json.dumps(LINEAR_CONFIG))
    cfg["grid"]["n"], cfg["y0"] = n, {"modes": {str(n): 1.0}}
    setup = build_setup(cfg, Path("."))
    j = np.array([1, n // 2 + 1, n])
    np.testing.assert_array_equal(setup.y0[j - 1], np.sin(n * j * np.pi / (n + 1)) * math.sqrt(2.0))
    assert setup.modes == ((n, 1.0),)
    assert math.isclose(math.sqrt(setup.grid.h * float(setup.y0 @ setup.y0)), 1.0, rel_tol=1e-9)


@pytest.mark.parametrize("r", [5e-324, 1e-310, 1e-200, 1e-160])
@pytest.mark.parametrize("command", ["gamma", "mintime"])
def test_radius_too_small_for_the_discrete_norm_is_field_error(tmp_path, capsys, solve_calls,
                                                               command, r):
    # h*sum(y_j^2) underflows before a state reaches such a ball: subnormal
    # radii overflowed log(norm0/r) into a traceback, and r = 1e-300 gave a
    # shorter free-decay time than r = 1e-200.
    cfg = write_config(tmp_path, r=r, experiment={"M": 5.0})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config: r: {r!r} is too small") and err.count("\n") == 1
    assert not out.exists() and not solve_calls.forward


def test_smallest_radius_the_discrete_norm_resolves_still_runs(tmp_path):
    # and a smaller ball is reached later, down to it
    gammas = []
    for r in (1e-100, 1e-150, 2e-154):
        cfg = write_config(tmp_path, r=r)
        out = tmp_path / f"out{r}"
        assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        gammas.append(read_summary(out)["outputs"]["gamma"])
    assert gammas[0] < gammas[1] < gammas[2] < math.inf


def test_out_component_past_the_file_name_limit_is_one_line_exit_2(tmp_path, capsys):
    # Path.exists() re-raised ENAMETOOLONG: a traceback with exit 1
    cfg = write_config(tmp_path)
    out = tmp_path / ("x" * 300) / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("out: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, updates, argv, message", [
    ("gamma", {"r": 10 ** 400}, [], "config: r: expected a positive finite number, got 1000"),
    ("gamma", {"y0": [2.0]}, [], "config: y0: expected an object with a 'modes' map"),
    ("gamma", {"y0": {"modes": {"a": 2.0}}}, [], "config: y0.modes: expected a map of mode"),
    ("gamma", {"y0": {"modes": {"16": 2.0}}}, [],
     "config: y0.modes: mode indices must lie in [1, 15]"),
    ("gamma", {"y0": {"file": "short.txt"}}, [], "config: y0.file: "),
    ("gamma", {"y0": {"file": "nan.txt"}}, [], "config: y0.file: "),
    ("gamma", {"y0": {"file": "missing.txt"}}, [], "config: y0.file: "),
    ("minnorm", {}, [], "config: experiment.T: required by this subcommand"),
    ("equivalence", {"experiment": {"M_grid": [5.0]}}, [],
     "config: experiment.T_grid: required by this subcommand"),
    ("equivalence", {"experiment": {"T_grid": 0.05, "M_grid": []}}, [],
     "config: experiment.T_grid: expected a list of finite numbers"),
    ("sweep", {"experiment": {"M_grid": []}}, [],
     "config: experiment.M_grid: expected a nonempty list of finite numbers"),
    ("sweep", {}, [], "config: experiment: sweep needs an M_grid and/or a T_grid"),
    ("oracle-compare", {}, [], "config: experiment: oracle-compare needs M_values"),
    ("gamma", {}, ["--override", "nt"], "config: override: expected key=value, got 'nt'"),
    ("gamma", {}, ["--config", "{tmp}/missing.json"], "config: [Errno 2] "),
    ("gamma", {}, ["--config", "{tmp}/list.json"], "config: top level must be a JSON object"),
    ("gamma", {}, ["--out", "{tmp}/blocked"], "out: "),
], ids=["integer-past-float", "y0-not-object", "mode-not-integer", "mode-out-of-range",
        "file-short", "file-nan", "file-missing", "key-missing", "list-missing",
        "list-not-list", "list-empty", "sweep-no-grid", "compare-no-values",
        "override-without-equals", "config-unreadable", "config-not-object",
        "write-fails-after-run"])
def test_config_and_output_errors_are_one_line_exit_2(tmp_path, capsys, command, updates,
                                                      argv, message):
    # each fails before solving, or after a run on 15 nodes for the write
    (tmp_path / "short.txt").write_text(" ".join(["1.0"] * 14))
    (tmp_path / "nan.txt").write_text(" ".join(["1.0"] * 14 + ["nan"]))
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "blocked" / "summary.json").mkdir(parents=True)
    cfg = write_config(tmp_path, **{"grid": {"ell": 1.0, "n": 15}, **updates})
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"),
            *(arg.format(tmp=tmp_path) for arg in argv)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# 28 arrays of (nt+1)*n floats on LINEAR_CONFIG's grid: what one process is allowed.
PER_PROCESS = 28 * 301 * 127 * 8
EVERY_FIELD = {"horizon": 0.1, "T": 0.05, "M": 5.0, "T_grid": [0.05], "M_grid": [5.0],
               "M_values": [10.0], "T_values": [0.07], "pairs": 2}


def host_memory(monkeypatch, memory):
    """Make ``os.sysconf`` report ``memory`` bytes of physical memory, or
    lack the names when memory is None."""
    def sysconf(name):
        if memory is None:
            raise ValueError("unrecognized configuration name")
        return {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}[name]
    monkeypatch.setattr(os, "sysconf", sysconf)


@pytest.mark.parametrize("command", list(HANDLERS))
def test_a_run_too_large_for_the_host_is_refused_before_any_solve(tmp_path, capsys, monkeypatch,
                                                                   solve_calls, command):
    # gamma with grid.n = 1000000 was killed (exit 137, no stderr line): numpy
    # allocated arrays the host could not hold.  Each handler's step count now
    # checks the arrays of one process against the host.
    host_memory(monkeypatch, PER_PROCESS - 1)
    cfg = write_config(tmp_path, experiment=EVERY_FIELD)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_FAILED
    assert capsys.readouterr().err == (
        "failed: grid.n=127 and nt=300 need more than the host's memory\n")
    assert not out.exists() and not solve_calls.forward


@pytest.mark.parametrize("command", ["simulate", "gamma", "minnorm", "mintime", "gradcheck"])
def test_a_run_that_does_not_fork_fits_in_one_process_share(tmp_path, monkeypatch, use_cpus,
                                                           command):
    # These handlers never fork, so the CPUs they might fork to do not count.
    use_cpus(64)
    host_memory(monkeypatch, PER_PROCESS)
    cfg = write_config(tmp_path, experiment=EVERY_FIELD)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK


def test_the_memory_check_is_skipped_where_the_host_does_not_report_it(tmp_path, monkeypatch):
    host_memory(monkeypatch, None)
    cfg = write_config(tmp_path)
    assert main(["gamma", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
