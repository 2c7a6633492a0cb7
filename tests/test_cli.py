import dataclasses
import importlib
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mrbsde import cli, picard, scenarios
from mrbsde.cli import ConfigError, main, parse_config
from mrbsde.paths import make_grid
from mrbsde.reflect import ScalarSweeps
from mrbsde.stitch import plan_intervals, stitch_constants

A_LATTICE = {
    "scenario": "A_sine_constraint",
    "grid": {"n": 2},
    "backend": {"kind": "lattice"},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_solve_lattice_exact_reflection_column(tmp_path):
    cfg = write_config(tmp_path, A_LATTICE)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "results.csv")
    assert header == ["t", "mean_Y", "std_Y", "mean_Z_1", "K", "dK",
                      "constraint_value"]
    k_col = [float(r["K"]) for r in rows]
    assert np.allclose(k_col, [0.0, 0.0, 0.3], atol=1e-10)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"]
    assert abs(summary["flatness_residual"]) <= 1e-12
    assert summary["constants_report"]["shift_at_zero_max"] == pytest.approx(
        0.3, abs=1e-9)
    assert summary["scenario_hash"]


def test_solve_regression_reflection_close(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": "A_sine_constraint",
        "grid": {"n": 16},
        "ensemble": {"N": 4000, "seed": 5, "antithetic": True},
        "backend": {"kind": "regression", "degree": 3},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "results.csv")
    assert float(rows[-1]["K"]) == pytest.approx(0.3, abs=1e-2)


def test_invalid_mode_exits_3_without_files(tmp_path, capsys):
    # the scenario's driver fixes the mode: no config value may override it
    for mode in ("banana", "quadratic", "lipschitz"):
        _solve_fails(tmp_path, capsys, {**A_LATTICE, "mode": mode}, 3,
                     "unknown keys in config: ['mode']")


def test_removed_solver_keys_are_unknown(tmp_path, capsys):
    _solve_fails(tmp_path, capsys, {**A_LATTICE, "ensemble": {"d": 3}}, 3,
                 "unknown keys in ensemble: ['d']")
    _solve_fails(tmp_path, capsys, {**A_LATTICE, "tolerances": {"flat_slack": 2.0}},
                 3, "unknown keys in tolerances: ['flat_slack']")


@pytest.mark.parametrize("name,value", [("grid", 4), ("stitch", True),
                                        ("stitch", False)])
def test_non_object_section_exits_3(tmp_path, capsys, name, value):
    _solve_fails(tmp_path, capsys, {**A_LATTICE, name: value}, 3,
                 f"cli: config section {name} must be an object")


def test_unknown_config_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config({**A_LATTICE, "mystery": 1})
    with pytest.raises(ConfigError):
        parse_config({**A_LATTICE, "grid": {"n": 2, "zz": 3}})


def test_lattice_dimension_and_depth_guards():
    with pytest.raises(ConfigError, match="n <= 12"):
        parse_config({**A_LATTICE, "grid": {"n": 30}})
    with pytest.raises(ConfigError, match="even N"):
        parse_config({"scenario": "A_sine_constraint", "grid": {"n": 4},
                      "ensemble": {"N": 101, "antithetic": True}})


def test_missing_config_file():
    assert main(["solve", "--config", "/does/not/exist.json",
                 "--out", "/tmp/x"]) == 3


def test_verify_passes_and_reports_warning(tmp_path, capsys):
    # scenario B runs beyond its contraction horizon: advisory warning, no failure
    cfg = write_config(tmp_path, {
        "scenario": "B_meanfield_linear",
        "grid": {"n": 8},
        "backend": {"kind": "lattice"},
    })
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    assert any("contraction horizon" in w for w in report["warnings"])
    names = [c["name"] for c in report["checks"]]
    assert names == ["constraint_profile", "flatness", "k_monotone", "converged",
                     "contraction_ratio", "hl_probe", "assumptions"]


def _verify_failures(tmp_path, capsys, scenario, backend):
    cfg = {"scenario": scenario, "grid": {"n": 8 if backend == "lattice" else 16},
           "ensemble": {"N": 4000, "seed": 7}, "backend": {"kind": backend}}
    code = main(["verify", "--config", write_config(tmp_path, cfg)])
    report = json.loads(capsys.readouterr().out)
    return code, [c["name"] for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("backend", ["lattice", "regression"])
def test_constraint_far_below_the_terminal_passes_verify(tmp_path, capsys, backend):
    # l(T, xi) = xi + 1e9 is far above 0; rounding at that scale once failed
    # a randomized probe of the loss's own formulas
    scenario = {"T": 0.5, "terminal": {"kind": "brownian_shift", "params": {"c": 1.0}},
                "driver": {"kind": "linear_mean", "params": {"a": 0.5}},
                "loss": {"kind": "linear_shift", "params": {"c0": -1e9}}}
    assert _verify_failures(tmp_path, capsys, scenario, backend) == (0, [])


@pytest.mark.parametrize("backend", ["lattice", "regression"])
def test_terminal_constraint_violation_fails_verify(tmp_path, capsys, backend):
    # E[l(T, B_T)] = -0.5: the solver's profile and the terminal margin both fail
    scenario = {"T": 1.0, "terminal": {"kind": "brownian"}, "driver": {"kind": "zero"},
                "loss": {"kind": "linear_shift", "params": {"c0": 0.5}}}
    assert _verify_failures(tmp_path, capsys, scenario, backend) == (
        1, ["constraint_profile", "assumptions"])


def test_verify_negative_control_fails_flatness(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": "A_sine_constraint",
        "grid": {"n": 8},
        "backend": {"kind": "lattice"},
        "tolerances": {"flatness": 1e-3},
        "debug": {"inflate_k": 0.05},
    })
    assert main(["verify", "--config", cfg]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["flatness"]


@pytest.mark.parametrize("stitch", [None, {"intervals": 2}])
def test_verify_fails_a_stalled_solve(monkeypatch, tmp_path, capsys, stitch):
    # distances stuck at 0.5 stall the interval that ends at T, the only one
    # of an unstitched run and the first of two solved when stitched; B's
    # first sweep is `solve_interval` and its later ones are scalar sweeps
    sweep, later = picard.solve_interval, ScalarSweeps.sweep

    def stall_at_horizon(scenario, grid, backend, prev, *rest):
        sol, dist = sweep(scenario, grid, backend, prev, *rest)
        return sol, 0.5 if sol.hi == grid.n else dist

    def later_stall_at_horizon(self):
        dist = later(self)
        return 0.5 if self.first.hi == self.grid.n else dist

    monkeypatch.setattr(picard, "solve_interval", stall_at_horizon)
    monkeypatch.setattr(ScalarSweeps, "sweep", later_stall_at_horizon)
    cfg = {"scenario": "B_meanfield_linear", "grid": {"n": 8},
           "backend": {"kind": "lattice"}}
    if stitch is not None:
        cfg["stitch"] = stitch
    assert main(["verify", "--config", write_config(tmp_path, cfg)]) == 1
    report = json.loads(capsys.readouterr().out)
    gate = next(c for c in report["checks"] if c["name"] == "converged")
    assert gate == {"name": "converged", "value": 1, "threshold": 0, "passed": False}


BINDING_LINEAR_Y = {
    "T": 0.5, "terminal": {"kind": "brownian"},
    "driver": {"kind": "linear_y", "params": {"a": 0.8}},
    "loss": {"kind": "linear_shift", "params": {"c0": 0.2, "amp": -0.2, "omega": math.pi}}}


def _solve_history(tmp_path, cfg) -> dict:
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    return json.loads((tmp_path / "out" / "summary.json").read_text())["picard_history"][0]


@pytest.mark.parametrize("setup", [
    {"grid": {"n": 16}, "ensemble": {"N": 4000, "seed": 7}, "backend": {"kind": "regression"}},
    {"grid": {"n": 8}, "backend": {"kind": "lattice"}},
], ids=["regression", "lattice"])
def test_binding_solve_converges_below_1e_14(tmp_path, capsys, setup):
    # the minimal shift is exact to the float, so a binding solve contracts to
    # a tolerance far below any search tolerance
    cfg = write_config(tmp_path, {"scenario": BINDING_LINEAR_Y, **setup,
                                  "picard": {"tol": 1e-14}})
    history = _solve_history(tmp_path, cfg)
    assert history["stop_reason"] == "tolerance" and len(history["distances"]) <= 15
    capsys.readouterr()
    assert main(["verify", "--config", cfg]) == 0


def test_rounding_level_plateau_stalls_and_fails_verify(tmp_path, capsys):
    # a zero tolerance on the lattice: the distances settle at a few ulps of
    # the solution and repeat, which the stall rule stops
    cfg = write_config(tmp_path, {"scenario": BINDING_LINEAR_Y, "grid": {"n": 8},
                                  "backend": {"kind": "lattice"}, "picard": {"tol": 0.0}})
    history = _solve_history(tmp_path, cfg)
    assert history["stop_reason"] == "stalled" and len(history["distances"]) <= 25
    assert 0.0 < history["distances"][-1] < 1e-15
    capsys.readouterr()
    assert main(["verify", "--config", cfg]) == 1
    report = json.loads(capsys.readouterr().out)
    gate = next(c for c in report["checks"] if c["name"] == "converged")
    assert gate["value"] == 1 and not gate["passed"]


def test_verify_writes_report(tmp_path, capsys):
    cfg = write_config(tmp_path, A_LATTICE)
    out = tmp_path / "rep"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "verify_report.json").exists()


def test_console_script_entry_point_is_cli_main():
    tomllib = pytest.importorskip("tomllib")        # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["mrbsde"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_constants_command(capsys):
    assert main(["constants", "--C", "1", "--L", "1", "--lambda", "1",
                 "--alpha", "0", "--T", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delta_lipschitz"] == pytest.approx(1.0 / 1920.0, rel=1e-12)
    assert report["ball_floor"] == pytest.approx(7.0 + 8.0 * math.exp(9.0),
                                                 rel=1e-12)
    assert not {"reading", "delta_contraction_literal",
                "delta_contraction_reciprocal"} & set(report)
    assert report["y_bound"] is not None
    # the command line is what reaches the general formulas at alpha > 0
    assert main(["constants", "--C", "1", "--L", "1", "--lambda", "1",
                 "--alpha", "0.5", "--T", "1"]) == 0
    at_half = json.loads(capsys.readouterr().out)
    assert at_half == picard.constants_report(1.0, 1.0, 1.0, 0.5, horizon=1.0).to_dict()
    assert at_half["delta_stability"] != report["delta_stability"]


def test_constants_rejects_bad_input(capsys):
    valid = {"--C": "1", "--L": "1", "--lambda": "1"}
    bad = [{flag: value} for flag, value in (
        ("--lambda", "-2"), ("--C", "nan"), ("--L", "inf"), ("--lambda", "nan"),
        ("--T", "inf"), ("--A-tilde", "nan"), ("--C", "-1"), ("--L", "0"),
        ("--lambda", "0"), ("--alpha", "1"), ("--alpha", "-0.1"), ("--T", "0"),
        ("--A-tilde", "0"))]
    # finite flags whose ball floor, uniform bound or Lipschitz horizon
    # overflows; at lambda = 1e-300 the ball floor's square does
    bad += [{"--L": "100"}, {"--T": "500"}, {"--C": "1e200", "--lambda": "1e200"},
            {"--lambda": "1e-300"}]
    # the quadratic horizons' divisors, products of lambda^2 and L^2, underflow
    bad += [{"--L": "1e-300", "--lambda": "1e-300"}, {"--L": "1e-200", "--lambda": "1e-170"}]
    for extra in bad:
        flags = {**valid, **extra}
        assert main(["constants", *(x for kv in flags.items() for x in kv)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("picard: ")


def test_compare_oracle_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": "A_sine_constraint",
        "grid": {"n": 8},
        "ensemble": {"N": 8000, "seed": 3, "antithetic": True},
    })
    out = tmp_path / "cmp"
    assert main(["compare-oracle", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lattice"]["within"] and report["regression"]["within"]
    assert report["n"] == 8                    # the steps come from grid.n
    assert (out / "comparison.csv").exists()


def test_outputs_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": "A_sine_constraint",
        "grid": {"n": 8},
        "ensemble": {"N": 2000, "seed": 9, "antithetic": True},
        "backend": {"kind": "regression", "degree": 3},
    })
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    # wall-clock timing is the single non-reproducible field
    s1.pop("runtime_ms"), s2.pop("runtime_ms")
    assert s1 == s2


def test_nonconvergence_exits_2_without_files(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": {
            "name": "runaway", "T": 1.0, "d": 1,
            "terminal": {"kind": "brownian_shift", "params": {"c": 1.0}},
            "driver": {"kind": "linear_mean", "params": {"a": 6.0}},
            "resistance": {"kind": "zero"},
            "loss": {"kind": "linear_shift", "params": {}},
        },
        "grid": {"n": 12},
        "backend": {"kind": "lattice"},
        "picard": {"max_iter": 4},
    })
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_compare_oracle_budget_violation_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": "A_sine_constraint",
        "grid": {"n": 8},
        "ensemble": {"N": 2000, "seed": 3, "antithetic": False},
        "compare": {"mc_budget": 1e-18},
    })
    assert main(["compare-oracle", "--config", cfg]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["regression"]["within"]
    assert report["lattice"]["within"]


@pytest.mark.parametrize("extra,key", [
    ({"backend": {"kind": "lattice"}}, "backend.kind"),
    ({"backend": {"kind": "regression"}}, "backend.kind"),
    ({"picard": {"max_iter": 1}}, "picard.max_iter"),
    ({"tolerances": {"flatness": 1e-9}}, "tolerances"),
    ({"stitch": {"intervals": 2}}, "stitch"),
    ({"stitch": {}}, "stitch"),
    ({"debug": {"inflate_k": 0.1}}, "debug"),
])
def test_compare_oracle_refuses_keys_it_does_not_use(tmp_path, capsys, extra, key):
    cfg = write_config(tmp_path, {"scenario": "A_sine_constraint", "grid": {"n": 3},
                                  "ensemble": {"N": 2000, "seed": 3}, **extra})
    out = tmp_path / "never"
    assert main(["compare-oracle", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"cli: compare-oracle does not use {key}\n"
    assert captured.out == ""
    assert not out.exists()


def test_compare_oracle_refuses_before_sampling(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled an ensemble the oracle cannot use")

    monkeypatch.setattr(cli, "sample_ensemble", refuse)
    cfg = write_config(tmp_path, {"scenario": "A_sine_constraint", "grid": {"n": 13},
                                  "ensemble": {"N": 2000, "seed": 3}})
    out = tmp_path / "never"
    assert main(["compare-oracle", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "oracle: exact solve capped at n <= 12\n"
    assert captured.out == ""
    assert not out.exists()


def test_grid_horizon_override(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": "B_meanfield_linear",
        "grid": {"n": 8, "T": 0.25},
        "backend": {"kind": "lattice"},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "results.csv")
    assert float(rows[-1]["t"]) == 0.25
    # discrete mean recursion on the shortened horizon
    assert float(rows[0]["mean_Y"]) == pytest.approx(
        (1.0 - 0.5 * 0.25 / 8) ** -8, abs=1e-6)


def test_backend_override_flag(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": "A_sine_constraint",
        "grid": {"n": 8},
        "ensemble": {"N": 2000, "seed": 2, "antithetic": True},
        "backend": {"kind": "regression"},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--backend", "lattice"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["resolved_config"]["backend"]["kind"] == "lattice"
    assert main(["solve", "--config", write_config(tmp_path, {
        "scenario": "A_sine_constraint", "grid": {"n": 64}}, "big.json"),
        "--out", str(tmp_path / "x"), "--backend", "lattice"]) == 3


def test_stitched_solve_through_cli(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": "B_meanfield_linear",
        "grid": {"n": 16},
        "ensemble": {"N": 2000, "seed": 4, "antithetic": True},
        "backend": {"kind": "regression", "degree": 2},
        "stitch": {"intervals": 2},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stitch"]["breaks"] == [0, 8, 16]
    seams = summary["stitch"]["seam_constraints"]
    assert len(seams) == 1
    assert seams[0] >= -summary["default_tolerances"]["constraint"]


def test_stitch_plan_warning_reaches_the_outputs(tmp_path, capsys):
    # three intervals of 1/6 on B (T = 0.5) are far above its contraction
    # horizon: each interval's solve records it, in order
    cfg = write_config(tmp_path, {
        "scenario": "B_meanfield_linear",
        "grid": {"n": 9},
        "backend": {"kind": "lattice"},
        "stitch": {"intervals": 3},
    })
    interval_warning = ("horizon 0.166667 exceeds the contraction horizon "
                        "0.00208333 (advisory)")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["warnings"] == [interval_warning] * 3
    assert summary["warnings"] == [w for h in summary["picard_history"]
                                   for w in h["warnings"]]
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["warnings"] == summary["warnings"]


def test_stitched_contraction_ratio_covers_every_interval(tmp_path, capsys):
    # on stitched lattice B the intervals' largest ratios fall from the first
    # interval to the last; the reported ratio, and the verify gate that reads
    # it, take the largest over all of them
    cfg = write_config(tmp_path, {
        "scenario": "B_meanfield_linear",
        "grid": {"n": 9},
        "backend": {"kind": "lattice"},
        "stitch": {"intervals": 3},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    largest = [max(h["ratios"]) for h in summary["picard_history"]]
    assert len(largest) == 3 and largest[0] > largest[-1]
    assert summary["contraction_ratio"]["max_ratio"] == max(largest)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    gate = next(c for c in report["checks"] if c["name"] == "contraction_ratio")
    assert gate["value"] == max(largest)


def test_empty_stitch_section_plans_from_the_horizon(tmp_path):
    # the contraction horizon of B is about 0.0021: three steps of 0.000625
    spec = dataclasses.replace(scenarios.get("B_meanfield_linear").spec, horizon=0.005)
    grid = make_grid(spec.horizon, 8)
    expected = plan_intervals(spec, grid, stitch_constants(spec)).breaks
    assert expected == [0, 3, 6, 8]
    cfg = write_config(tmp_path, {
        "scenario": "B_meanfield_linear",
        "grid": {"n": 8, "T": 0.005},
        "backend": {"kind": "lattice"},
        "stitch": {},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stitch"]["breaks"] == expected
    assert len(summary["picard_history"]) == len(expected) - 1


def test_stitch_auto_key_is_unknown(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "B_meanfield_linear",
                                  "grid": {"n": 4}, "backend": {"kind": "lattice"},
                                  "stitch": {"auto": True}})
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown keys in stitch: ['auto']" in err
    assert not out.exists()


def test_integer_beyond_the_float_range_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": {"T": 1.0, "terminal": {"kind": "brownian"},
                     "driver": {"kind": "zero"},
                     "loss": {"kind": "linear_shift", "params": {"c0": 10 ** 400}}},
        "grid": {"n": 4}, "backend": {"kind": "lattice"}})
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "loss.params.c0 is beyond the float range" in err
    assert not out.exists()


def test_integer_past_the_digit_limit_exits_3(tmp_path, capsys):
    # json.loads raises a plain ValueError for more than 4,300 digits
    path = tmp_path / "config.json"
    path.write_text('{"scenario": "A_sine_constraint", "grid": {"n": 4}, '
                    '"ensemble": {"N": 1' + "0" * 5000 + '}}')
    out = tmp_path / "never"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("cli: ")
    assert not out.exists()


def test_feature_count_too_large_to_print_exits_3_at_once(tmp_path, capsys):
    # C(10**2500 + 2, 2) has 5,000 digits: compared with N, never printed
    cfg = {**A_REGRESSION, "scenario": {**_inline(), "d": 2},
           "backend": {"kind": "regression", "degree": 10 ** 2500}}
    start = time.perf_counter()
    _solve_fails(tmp_path, capsys, cfg, 3,
                 "cli: ensemble.N must exceed the regression features of backend.degree, "
                 "got N = 200")
    assert time.perf_counter() - start < 1.0


def test_step_size_error_exits_3_with_one_line(tmp_path, capsys):
    # linear_y with a = 20 at n = 8 puts lam * dt at 2.5: no per-node contraction
    cfg = write_config(tmp_path, {
        "scenario": {
            "name": "stiff", "T": 1.0, "d": 1,
            "terminal": {"kind": "brownian_shift", "params": {"c": 1.0}},
            "driver": {"kind": "linear_y", "params": {"a": 20.0}},
            "resistance": {"kind": "zero"},
            "loss": {"kind": "linear_shift", "params": {}},
        },
        "grid": {"n": 8},
        "backend": {"kind": "lattice"},
    })
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lam*dt = 2.5" in err
    assert not out.exists()


def test_rank_deficient_regression_exits_1_with_one_line(tmp_path, capsys):
    # degree 30 on 40 particles: the equilibrated design is numerically singular
    cfg = write_config(tmp_path, {
        "scenario": "B_meanfield_linear",
        "grid": {"n": 2},
        "ensemble": {"N": 40, "seed": 1, "antithetic": False},
        "backend": {"kind": "regression", "degree": 30},
    })
    out = tmp_path / "never"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "rank-deficient design matrix" in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"scenario": "A_sine_constraint", "grid": {"n": 4, "T": NaN}}',
    '{"scenario": "A_sine_constraint", "grid": {"n": 4, "T": Infinity}}',
    '{"scenario": "A_sine_constraint", "grid": {"n": 4, "T": 1e400}}',
    '{"scenario": "A_sine_constraint", "grid": {"n": 4},'
    ' "tolerances": {"flatness": -Infinity}}',
    '{"scenario": "A_sine_constraint", "grid": {"n": 4},'
    ' "tolerances": {"flatness": 1e400}}',
])
def test_non_finite_config_numbers_exit_3(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--out",
                 str(tmp_path / "never")]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "never").exists()


def test_parse_config_rejects_non_finite_horizon():
    # NaN <= 0 is false: the horizon needs an explicit finiteness check
    with pytest.raises(ConfigError, match="finite"):
        parse_config({"scenario": "A_sine_constraint",
                      "grid": {"n": 4, "T": float("nan")}})


def _inline(terminal_c=1.0, loss_params=None):
    return {"name": "inline", "T": 1.0, "d": 1,
            "terminal": {"kind": "brownian_shift", "params": {"c": terminal_c}},
            "driver": {"kind": "linear_mean", "params": {"a": 0.5}},
            "resistance": {"kind": "zero"},
            "loss": {"kind": "linear_shift", "params": loss_params or {}}}


def _solve_fails(tmp_path, capsys, cfg, code, text):
    out = tmp_path / "never"
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and text in err
    assert not out.exists()


def test_bracket_error_exits_2_with_one_line(tmp_path, capsys):
    # the shift needed, 1e30, is past the bracket cap of 2**60
    cfg = {"scenario": _inline(loss_params={"c0": 1e30}), "grid": {"n": 2},
           "backend": {"kind": "lattice"}}
    _solve_fails(tmp_path, capsys, cfg, 2, "no nonnegative expected loss")


def test_plan_error_exits_3_with_one_line(tmp_path, capsys):
    cfg = {"scenario": "C_resistance_lipschitz", "grid": {"n": 4},
           "backend": {"kind": "lattice"}, "stitch": {"intervals": 2}}
    _solve_fails(tmp_path, capsys, cfg, 3, "stitch: global stitching requires")


def test_unknown_builder_param_exits_3_with_one_line(tmp_path, capsys):
    scenario = {**_inline(), "driver": {"kind": "constant",
                                        "params": {"value": 1, "bogus": 3}}}
    cfg = {"scenario": scenario, "grid": {"n": 4}, "backend": {"kind": "lattice"}}
    _solve_fails(tmp_path, capsys, cfg, 3, "cli: bad scenario:")
    # quadratic_z's zbar term b |zbar| is Lipschitz: its exponent is 0, not a param
    scenario = {**_inline(loss_params={"c0": -0.5}), "T": 0.1,
                "terminal": {"kind": "scaled_tanh", "params": {"scale": 1}},
                "driver": {"kind": "quadratic_z", "params": {
                    "a": 0.05, "gamma": 0.1, "z_cap": 1000, "b": 0.02,
                    "zero_bound": 1, "alpha": 0}}}
    cfg = {"scenario": scenario, "grid": {"n": 8}, "backend": {"kind": "lattice"}}
    _solve_fails(tmp_path, capsys, cfg, 3, "unexpected keyword argument 'alpha'")


def test_non_number_scenario_value_exits_3_with_one_line(tmp_path, capsys):
    scenario = {**_inline(), "d": 1.5}
    cfg = {"scenario": scenario, "grid": {"n": 4}, "backend": {"kind": "lattice"}}
    _solve_fails(tmp_path, capsys, cfg, 3,
                 "cli: bad scenario: scenario.d must be an integer, got 1.5")


def test_quadratic_driver_with_zero_lam_exits_3(tmp_path, capsys):
    # a = gamma = b = 0 leaves the quadratic constants undefined
    scenario = {"name": "q0", "T": 0.5, "d": 1,
                "terminal": {"kind": "scaled_tanh", "params": {"scale": 1.0}},
                "driver": {"kind": "quadratic_z", "params": {
                    "a": 0.0, "gamma": 0.0, "z_cap": 10.0, "b": 0.0, "zero_bound": 0.0}},
                "resistance": {"kind": "zero"},
                "loss": {"kind": "linear_shift", "params": {}}}
    cfg = {"scenario": scenario, "grid": {"n": 4}, "backend": {"kind": "lattice"}}
    _solve_fails(tmp_path, capsys, cfg, 3, "cli: bad scenario: quadratic_z needs lam")


@pytest.mark.parametrize("key", ["z_cap", "zero_bound"])
def test_quadratic_driver_with_a_negative_cap_or_bound_exits_3(tmp_path, capsys, key):
    # with both nonnegative, f(t, 0, 0, 0, 0, 0) = 0 <= zero_bound by the formula
    params = {"a": 0.05, "gamma": 0.1, "z_cap": 1000.0, "b": 0.02, "zero_bound": 1.0}
    scenario = {**_inline(loss_params={"c0": -0.5}), "T": 0.1,
                "terminal": {"kind": "scaled_tanh", "params": {"scale": 1.0}},
                "driver": {"kind": "quadratic_z", "params": {**params, key: -1.0}}}
    cfg = {"scenario": scenario, "grid": {"n": 8}, "backend": {"kind": "lattice"}}
    _solve_fails(tmp_path, capsys, cfg, 3,
                 "cli: bad scenario: quadratic_z needs z_cap >= 0 and zero_bound >= 0")


def _overflow_fails(tmp_path, capsys, command, cfg=None):
    # finite inputs, but the squared norms of Y overflow to inf
    cfg = cfg or {"scenario": _inline(terminal_c=1e160), "grid": {"n": 4},
                  "backend": {"kind": "lattice"}}
    out = tmp_path / "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "no output written" in captured.err
    assert captured.out == ""
    assert not out.exists()
    return captured.err


_QUADRATIC_Z = {"kind": "quadratic_z", "params": {
    "a": 0, "gamma": 0.2, "z_cap": 100, "b": 0, "zero_bound": 200}}


_OVERFLOWS = "cli: a horizon or bound constant overflows"


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("cfg, message", [
    ({"scenario": "D_quadratic", "grid": {"T": 5}, "stitch": {}}, _OVERFLOWS),
    ({"scenario": "D_quadratic", "grid": {"T": 500}}, _OVERFLOWS),
    ({"scenario": {**_inline(), "T": 0.5,
                   "driver": {"kind": "linear_mean", "params": {"a": 1e200}}}}, _OVERFLOWS),
    ({"scenario": {**_inline(loss_params={"c0": -1}), "T": 0.5, "driver": _QUADRATIC_Z,
                   "terminal": {"kind": "scaled_tanh", "params": {"scale": 1}}}}, _OVERFLOWS),
    ({"scenario": {**_inline(loss_params={"c0": -1}), "T": 0.5,
                   "driver": {"kind": "quadratic_z", "params": {
                       **_QUADRATIC_Z["params"], "gamma": 0, "a": 1e-300}},
                   "terminal": {"kind": "scaled_tanh", "params": {"scale": 1}}}}, _OVERFLOWS),
    # lam = L = 1e-300: the horizons divide by products of lam^2, which round
    # to 0, while the ball floor stays near 4, far from overflow
    ({"scenario": {**_inline(loss_params={"c0": -1}), "T": 0.5,
                   "driver": {"kind": "quadratic_z", "params": {
                       **_QUADRATIC_Z["params"], "gamma": 0, "a": 1e-300,
                       "zero_bound": 1e-300}},
                   "terminal": {"kind": "scaled_tanh", "params": {"scale": 1e-300}}}},
     "cli: a horizon constant underflows"),
], ids=["D-T5-stitched", "D-T500", "linear_mean-huge-a", "quadratic_z-big-bound",
        "quadratic_z-tiny-a", "quadratic_z-tiny-a-and-bound"])
def test_overflowing_constants_exit_3_without_files(tmp_path, capsys, command, cfg,
                                                    message):
    cfg = {"grid": {}, **cfg, "backend": {"kind": "lattice"}}
    cfg["grid"] = {**cfg["grid"], "n": 8}
    out = tmp_path / "never"
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("a", [1e-170, 1e-300])
def test_tiny_lam_has_an_unbounded_lipschitz_horizon(tmp_path, a):
    # lam ** 2 underflows to 0; the horizon is beyond the float range
    cfg = {"scenario": {**_inline(), "T": 0.5,
                        "driver": {"kind": "linear_mean", "params": {"a": a}}},
           "grid": {"n": 8}, "backend": {"kind": "lattice"}}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["constants_report"]["delta_lipschitz"] is None


def test_overflowing_summary_exits_3_without_files(tmp_path, capsys):
    _overflow_fails(tmp_path, capsys, "solve")


def test_verify_overflowing_summary_exits_3_without_files(tmp_path, capsys):
    _overflow_fails(tmp_path, capsys, "verify")


# finite inputs whose deflated values overflow inside the sweep: the law the
# shift search reads has infinite atoms
SWEEP_OVERFLOW = {
    "scenario": {**_inline(terminal_c=1e308),
                 "driver": {"kind": "constant", "params": {"value": 1e308}}},
    "grid": {"n": 4}, "ensemble": {"N": 200}}


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("backend", ["lattice", "regression"])
def test_overflowing_sweep_exits_3_without_files(tmp_path, capsys, command, backend):
    cfg = {**SWEEP_OVERFLOW, "backend": {"kind": backend}}
    err = _overflow_fails(tmp_path, capsys, command, cfg)
    assert "law atoms must be finite" in err


def _scenario_hash(tmp_path, scenario, name):
    cfg = {"scenario": scenario, "grid": {"n": 4}, "backend": {"kind": "lattice"}}
    out = tmp_path / name
    assert main(["solve", "--config", write_config(tmp_path, cfg, f"{name}.json"),
                 "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())["scenario_hash"]


def test_scenario_hash_ignores_integer_spelling(tmp_path):
    # the spec constants are derived from the float-cast parameters, so a
    # number spelled 1 maps and hashes as 1.0
    def spelled(one, two):
        return {"name": "spelled", "T": 1.0, "d": 1,
                "terminal": {"kind": "scaled_tanh", "params": {"scale": one}},
                "driver": {"kind": "linear_y", "params": {"a": one}},
                "resistance": {"kind": "zero"},
                "loss": {"kind": "linear_shift",
                         "params": {"c0": two, "amp": one, "omega": 3.0}}}

    assert (_scenario_hash(tmp_path, spelled(1, 2), "int")
            == _scenario_hash(tmp_path, spelled(1.0, 2.0), "float"))


A_REGRESSION = {**A_LATTICE,
                "ensemble": {"N": 200, "seed": 1},
                "backend": {"kind": "regression", "degree": 3}}


@pytest.mark.parametrize("section,key,value,text", [
    ("ensemble", "N", "abc", "ensemble.N must be a number, got 'abc'"),
    ("backend", "degree", -1, "backend.degree must be >= 0"),
    ("ensemble", "N", 4,
     "ensemble.N must exceed the regression features of backend.degree, got N = 4"),
    pytest.param("ensemble", "N", 10 ** 400, "an ensemble of (grid.n + 1) * d * "
                 "ensemble.N states exceeds the largest array", id="ensemble-N-10**400"),
    pytest.param("grid", "n", 10 ** 400, "an ensemble of (grid.n + 1) * d * "
                 "ensemble.N states exceeds the largest array", id="grid-n-10**400"),
    pytest.param("backend", "degree", 10 ** 400,
                 "ensemble.N must exceed the regression features of backend.degree, got N = 200",
                 id="backend-degree-10**400"),
    ("picard", "max_iter", 0, "picard.max_iter must be >= 1"),
    ("picard", "tol", -1, "picard.tol must be >= 0"),
    ("grid", "n", 2.5, "grid.n must be an integer, got 2.5"),
    ("ensemble", "seed", 1.5, "ensemble.seed must be an integer, got 1.5"),
    ("ensemble", "antithetic", "no", "ensemble.antithetic must be true or false, got 'no'"),
    ("debug", "inflate_k", -0.05, "debug.inflate_k must be >= 0"),
])
def test_bad_config_values_exit_3_without_files(tmp_path, capsys, section, key,
                                                value, text):
    cfg = {**A_REGRESSION, section: {**A_REGRESSION.get(section, {}), key: value}}
    _solve_fails(tmp_path, capsys, cfg, 3, f"cli: {text}")


@pytest.mark.parametrize("command,section,key", [
    ("verify", "tolerances", "constraint"),
    ("verify", "tolerances", "flatness"),
    ("compare-oracle", "compare", "lattice_budget"),
    ("compare-oracle", "compare", "mc_budget"),
])
def test_negative_gate_exits_3_without_files(tmp_path, capsys, command, section, key):
    # no solution passes a negative gate: the config is at fault, not the solve
    cfg = {"scenario": "A_sine_constraint", "grid": {"n": 2},
           "ensemble": {"N": 200, "seed": 1}, section: {key: -1e-3}}
    out = tmp_path / "never"
    assert main([command, "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"cli: {section}.{key} must be >= 0\n"
    assert captured.out == ""
    assert not out.exists()


def test_nonconvergence_prints_one_line_with_one_prefix(tmp_path, capsys):
    scenario = {**_inline(), "driver": {"kind": "linear_mean", "params": {"a": 6.0}}}
    cfg = {"scenario": scenario, "grid": {"n": 12}, "backend": {"kind": "lattice"},
           "picard": {"max_iter": 4}}
    out = tmp_path / "never"
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("picard: no convergence after 4 sweeps (last distance ")
    assert not out.exists()
