import dataclasses
import importlib
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cli_cases import A_LATTICE, BINDING_LINEAR_Y, case, check, inline, make_tests
from mrbsde import cli, paths, picard, scenarios
from mrbsde.cli import ConfigError, main, parse_config
from mrbsde.paths import make_grid
from mrbsde.reflect import ScalarSweeps
from mrbsde.stitch import plan_intervals, stitch_constants


def run_main(argv, capsys):
    """`cli.main(argv)` as the console script runs it (pytest's
    filterwarnings makes any warning an error); returns (exit code, stdout,
    stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:           # argparse's --help
        code = exc.code
    return (code, *capsys.readouterr())


# every row of cli_cases.CASES, in process
globals().update(make_tests(run_main))


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
    assert [h["converged"] for h in summary["picard_history"]] == [True]
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
def test_inflate_k_leaves_the_refit_z_unchanged(tmp_path, stitch):
    # the control shifts y and the tail below the terminal node, and the
    # offsets of the steps into those nodes with them, so z_j, the z-fit of
    # y_(j+1) less its offset, does not move
    cfg = {"scenario": "A_sine_constraint", "grid": {"n": 16},
           "ensemble": {"N": 4000, "seed": 7}, "backend": {"kind": "regression"}}
    if stitch is not None:
        cfg["stitch"] = stitch
    results = [cli.execute(cli.load_config(write_config(tmp_path, c)))
               for c in (cfg, {**cfg, "debug": {"inflate_k": 0.05}})]
    assert all(np.allclose(a - b, 0.05) for a, b in zip(results[1].solution.y[:-1],
                                                        results[0].solution.y[:-1]))
    plain, inflated = (result.post_pass for result in results)
    z_scale = float(np.max(np.abs(plain["mean_z"])))
    assert np.max(np.abs(inflated["mean_z"] - plain["mean_z"])) <= 1e-12 * z_scale
    for key in ("h2", "bmo"):
        assert inflated["norms"][key] == pytest.approx(plain["norms"][key], rel=1e-12)


@pytest.mark.parametrize("cfg", [
    A_LATTICE, {"scenario": "A_sine_constraint", "grid": {"n": 8},
                "ensemble": {"N": 2000, "seed": 7}, "stitch": {"intervals": 2}}],
    ids=["lattice", "stitched-regression"])
def test_terminal_row_has_no_z(tmp_path, cfg):
    # the terminal node has no step, so no z to refit
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out / "results.csv")
    assert rows[-1]["mean_Z_1"] == "0.0"
    assert all(float(row["mean_Z_1"]) != 0.0 for row in rows[:-1])


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


def test_antithetic_backend_holds_the_sampled_paths_and_one_draw_buffer():
    # an antithetic backend stores the N/2 sampled paths only; building the
    # N interleaved states would add twice their bytes to the peak
    cfg = parse_config({"scenario": "A_sine_constraint", "grid": {"n": 16},
                        "ensemble": {"N": 6 * paths._BLOCK, "seed": 3}})
    grid = make_grid(cfg.scenario.horizon, cfg.n)
    cli.build_backend(cfg, grid)                       # the first draw imports modules
    tracemalloc.start()
    try:
        backend = cli.build_backend(cfg, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = backend.ensemble.paths.nbytes
    assert backend.ensemble.antithetic and stored == (cfg.n + 1) * cfg.N // 2 * 8
    draw_buffer = cfg.n * paths._BLOCK * 8
    assert peak <= stored + draw_buffer + 2 ** 16, f"{peak / stored:.2f} stored paths"


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


def test_seam_constraints_are_the_written_constraint_values(tmp_path):
    # the seams describe the answer written, here the inflated one: they are
    # results.csv's constraint values at the inner breaks
    cfg = write_config(tmp_path, {
        "scenario": "A_sine_constraint", "grid": {"n": 8}, "backend": {"kind": "lattice"},
        "stitch": {"intervals": 2}, "debug": {"inflate_k": 0.05}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    _, rows = read_csv(out / "results.csv")
    breaks = summary["stitch"]["breaks"]
    assert breaks == [0, 4, 8]
    assert summary["stitch"]["seam_constraints"] == [
        float(rows[b]["constraint_value"]) for b in breaks[1:-1]]


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
    assert [h["warnings"] for h in summary["picard_history"]] == [[interval_warning]] * 3
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["warnings"] == [interval_warning] * 3


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
    expected = plan_intervals(spec, grid, stitch_constants(spec))
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


@pytest.mark.parametrize("run", [
    {"grid": {"n": 8}, "backend": {"kind": "lattice"}},
    {"grid": {"n": 16}, "ensemble": {"N": 4000, "seed": 7}, "backend": {"kind": "regression"}}],
    ids=["lattice", "regression"])
def test_infinite_contraction_horizon_plans_one_interval(tmp_path, run):
    # A's zero driver has lam = 0, so its contraction horizon is infinite: an
    # empty stitch section plans [0, n] and solves as the unstitched run does
    cfg = {"scenario": "A_sine_constraint", **run}
    local, stitched = tmp_path / "local", tmp_path / "stitched"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(local)]) == 0
    assert main(["solve", "--config", write_config(tmp_path, {**cfg, "stitch": {}}),
                 "--out", str(stitched)]) == 0
    summary = json.loads((stitched / "summary.json").read_text())
    assert summary["stitch"] == {"breaks": [0, run["grid"]["n"]], "seam_constraints": []}
    assert (local / "results.csv").read_bytes() == (stitched / "results.csv").read_bytes()


def test_contraction_gate_without_two_sweeps(tmp_path, capsys):
    # picard.tol 1e9 stops the solve after its first sweep: no ratio to estimate
    cfg = write_config(tmp_path, {"scenario": "A_sine_constraint", "grid": {"n": 8},
                                  "backend": {"kind": "lattice"}, "picard": {"tol": 1e9}})
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    gate = next(c for c in report["checks"] if c["name"] == "contraction_ratio")
    assert gate == {"name": "contraction_ratio", "value": None, "threshold": None,
                    "passed": True, "detail": "not enough sweeps to estimate"}


def test_feature_count_too_large_to_print_exits_3_at_once(tmp_path, capsys):
    start = time.perf_counter()
    check(case("backend-degree-10**2500-d2"), tmp_path, capsys, run_main)
    assert time.perf_counter() - start < 1.0


def test_parse_config_rejects_non_finite_horizon():
    # NaN <= 0 is false: the horizon needs an explicit finiteness check
    with pytest.raises(ConfigError, match="finite"):
        parse_config({"scenario": "A_sine_constraint",
                      "grid": {"n": 4, "T": float("nan")}})


@pytest.mark.parametrize("a", [1e-170, 1e-300])
def test_tiny_lam_has_an_unbounded_lipschitz_horizon(tmp_path, a):
    # lam ** 2 underflows to 0; the horizon is beyond the float range
    cfg = {"scenario": {**inline(), "T": 0.5,
                        "driver": {"kind": "linear_mean", "params": {"a": a}}},
           "grid": {"n": 8}, "backend": {"kind": "lattice"}}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["constants_report"]["delta_lipschitz"] is None


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


