"""The command line's exit-code and rerun cases, one row each.

Exit codes: 0 success, 1 a failed check, 2 no convergence, 3 inadmissible
data (a bad config or command line). Every row is run twice: in process
through `cli.main` (test_cli.py) and through the `mrbsde` console script on
PATH (test_cli_script.py). A new case is one more row; `make_tests` makes the
pytest function of each `Case.test`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import pytest


@dataclass(frozen=True)
class Case:
    test: str                  # the pytest function that runs the row
    argv: tuple                # "{config}" and "{out}" are paths under tmp_path
    code: int
    starts: str = ""           # stderr is one line that starts with this
    has: str = ""              # ... and contains this; both empty: no stderr
    config: dict | str | None = None   # written as JSON, or as raw text
    quiet: bool = True         # stdout is empty
    wrote: bool = False        # the --out directory exists afterwards
    same: tuple = ()           # run twice: these outputs are byte-identical
    id: str | None = None      # the row's parameter id within its test


def configured(test, command, config, code=0, out=True, id=None, **fields) -> Case:
    """`command --config <config> [--out <out>]`; a run that exits 0 with
    --out writes its directory, any other run leaves none."""
    argv = (command, "--config", "{config}") + (("--out", "{out}") if out else ())
    return Case(test, argv, code, config=config, wrote=out and code == 0, id=id, **fields)


def constants(test, code, id=None, **flags) -> Case:
    argv = ("constants", *(x for kv in flags.items() for x in kv))
    return Case(test, argv, code, starts="picard: " if code else "",
                quiet=code != 0, id=id)


def check(case: Case, tmp, capsys, run_argv):
    """Run `case` with `run_argv(argv, capsys) -> (code, stdout, stderr)` in
    the directory `tmp` and assert its row."""
    tmp.mkdir(exist_ok=True)
    config = tmp / "config.json"
    if case.config is not None:
        text = case.config
        config.write_text(text if isinstance(text, str) else json.dumps(text))
    outs = [tmp / "out1", tmp / "out2"] if case.same else [tmp / "out"]
    for out in outs:
        code, stdout, stderr = run_argv(
            [a.format(config=config, out=out) for a in case.argv], capsys)
        assert code == case.code, stderr
        if case.starts or case.has:
            assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
            assert stderr.startswith(case.starts) and case.has in stderr, stderr
        else:
            assert stderr == ""
        if case.quiet:
            assert stdout == ""
        if "{out}" in case.argv:
            assert out.exists() == case.wrote
    for name in case.same:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def make_tests(run_argv) -> dict:
    """One pytest function per `Case.test`, named so: rows with ids are its
    parameters, rows without run in turn in one test."""
    found = {}
    for name in dict.fromkeys(c.test for c in CASES):
        rows = [c for c in CASES if c.test == name]
        found[name] = _test(name, rows, run_argv)
    return found


def _test(name, rows, run_argv):
    if rows[0].id is None:
        def test(tmp_path, capsys):
            for k, case in enumerate(rows):
                check(case, tmp_path / str(k), capsys, run_argv)
    else:
        @pytest.mark.parametrize("case", rows, ids=[c.id for c in rows])
        def test(tmp_path, capsys, case):
            check(case, tmp_path, capsys, run_argv)
    test.__name__ = test.__qualname__ = name
    return test


def case(id: str) -> Case:
    return next(c for c in CASES if c.id == id)


A_LATTICE = {"scenario": "A_sine_constraint", "grid": {"n": 2},
             "backend": {"kind": "lattice"}}
A_REGRESSION = {**A_LATTICE, "ensemble": {"N": 200, "seed": 1},
                "backend": {"kind": "regression", "degree": 3}}
LATTICE = {"kind": "lattice"}

BINDING_LINEAR_Y = {
    "T": 0.5, "terminal": {"kind": "brownian"},
    "driver": {"kind": "linear_y", "params": {"a": 0.8}},
    "loss": {"kind": "linear_shift", "params": {"c0": 0.2, "amp": -0.2, "omega": math.pi}}}
# a quadratic driver, whose sweeps all run per particle: at a zero tolerance
# on the lattice its distances settle at a few ulps of the solution and repeat
ROUNDING_PLATEAU = {
    **BINDING_LINEAR_Y, "terminal": {"kind": "scaled_tanh", "params": {"scale": 1.0}},
    "driver": {"kind": "quadratic_z", "params": {
        "a": 0.8, "gamma": 0.4, "z_cap": 4.0, "b": 0.0, "zero_bound": 0.0}}}


def inline(terminal_c=1.0, loss_params=None):
    return {"name": "inline", "T": 1.0, "d": 1,
            "terminal": {"kind": "brownian_shift", "params": {"c": terminal_c}},
            "driver": {"kind": "linear_mean", "params": {"a": 0.5}},
            "resistance": {"kind": "zero"},
            "loss": {"kind": "linear_shift", "params": loss_params or {}}}


def _quadratic_z(**params):
    return {**inline(loss_params={"c0": -0.5}), "T": 0.1,
            "terminal": {"kind": "scaled_tanh", "params": {"scale": 1.0}},
            "driver": {"kind": "quadratic_z", "params": {
                "a": 0.05, "gamma": 0.1, "z_cap": 1000.0, "b": 0.02, "zero_bound": 1.0,
                **params}}}


_QUADRATIC_Z = {"kind": "quadratic_z", "params": {
    "a": 0, "gamma": 0.2, "z_cap": 100, "b": 0, "zero_bound": 200}}
_OVERFLOWS = "cli: a horizon or bound constant overflows"
# finite constants whose horizon or bound overflows, or underflows
_OVERFLOWING_CONSTANTS = [
    ("D-T5-stitched", {"scenario": "D_quadratic", "grid": {"T": 5}, "stitch": {}}, _OVERFLOWS),
    ("D-T500", {"scenario": "D_quadratic", "grid": {"T": 500}}, _OVERFLOWS),
    ("linear_mean-huge-a", {"scenario": {**inline(), "T": 0.5, "driver": {
        "kind": "linear_mean", "params": {"a": 1e200}}}}, _OVERFLOWS),
    ("quadratic_z-big-bound", {"scenario": {
        **inline(loss_params={"c0": -1}), "T": 0.5, "driver": _QUADRATIC_Z,
        "terminal": {"kind": "scaled_tanh", "params": {"scale": 1}}}}, _OVERFLOWS),
    ("quadratic_z-tiny-a", {"scenario": {
        **inline(loss_params={"c0": -1}), "T": 0.5,
        "driver": {"kind": "quadratic_z", "params": {
            **_QUADRATIC_Z["params"], "gamma": 0, "a": 1e-300}},
        "terminal": {"kind": "scaled_tanh", "params": {"scale": 1}}}}, _OVERFLOWS),
    # lam = L = 1e-300: the horizons divide by products of lam^2, which round
    # to 0, while the ball floor stays near 4, far from overflow
    ("quadratic_z-tiny-a-and-bound", {"scenario": {
        **inline(loss_params={"c0": -1}), "T": 0.5,
        "driver": {"kind": "quadratic_z", "params": {
            **_QUADRATIC_Z["params"], "gamma": 0, "a": 1e-300, "zero_bound": 1e-300}},
        "terminal": {"kind": "scaled_tanh", "params": {"scale": 1e-300}}}},
     "cli: a horizon constant underflows"),
]
# finite inputs whose deflated values overflow inside the sweep: the law the
# shift search reads has infinite atoms
_SWEEP_OVERFLOW = {
    "scenario": {**inline(terminal_c=1e308),
                 "driver": {"kind": "constant", "params": {"value": 1e308}}},
    "grid": {"n": 4}, "ensemble": {"N": 200}}
_ARRAY_LIMIT = "an ensemble of (grid.n + 1) * d * ensemble.N states exceeds the largest array"
_FEATURES = "ensemble.N must exceed the regression features of backend.degree, got N = "
_BAD_VALUES = [
    ("ensemble", "N", "abc", "ensemble.N must be a number, got 'abc'"),
    ("backend", "degree", -1, "backend.degree must be >= 0"),
    ("ensemble", "N", 4, _FEATURES + "4"),
    ("ensemble", "N", 10 ** 400, _ARRAY_LIMIT),
    ("grid", "n", 10 ** 400, _ARRAY_LIMIT),
    ("backend", "degree", 10 ** 400, _FEATURES + "200"),
    ("picard", "max_iter", 0, "picard.max_iter must be >= 1"),
    ("picard", "tol", -1, "picard.tol must be >= 0"),
    ("grid", "n", 2.5, "grid.n must be an integer, got 2.5"),
    ("ensemble", "seed", 1.5, "ensemble.seed must be an integer, got 1.5"),
    ("ensemble", "antithetic", "no", "ensemble.antithetic must be true or false, got 'no'"),
    ("debug", "inflate_k", -0.05, "debug.inflate_k must be >= 0"),
]
_NON_FINITE = [
    '{"scenario": "A_sine_constraint", "grid": {"n": 4, "T": NaN}}',
    '{"scenario": "A_sine_constraint", "grid": {"n": 4, "T": Infinity}}',
    '{"scenario": "A_sine_constraint", "grid": {"n": 4, "T": 1e400}}',
    '{"scenario": "A_sine_constraint", "grid": {"n": 4}, "tolerances": {"flatness": -Infinity}}',
    '{"scenario": "A_sine_constraint", "grid": {"n": 4}, "tolerances": {"flatness": 1e400}}',
]
_ORACLE_UNUSED = [({"backend": {"kind": "lattice"}}, "backend.kind"),
                  ({"backend": {"kind": "regression"}}, "backend.kind"),
                  ({"picard": {"max_iter": 1}}, "picard.max_iter"),
                  ({"tolerances": {"flatness": 1e-9}}, "tolerances"),
                  ({"stitch": {"intervals": 2}}, "stitch"),
                  ({"stitch": {}}, "stitch"),
                  ({"debug": {"inflate_k": 0.1}}, "debug")]
_CONSTANTS = {"--C": "1", "--L": "1", "--lambda": "1"}
# flags outside the domain; finite flags whose ball floor, uniform bound or
# Lipschitz horizon overflows (at lambda = 1e-300 the ball floor's square
# does); and the quadratic horizons' divisors, products of lambda^2 and L^2,
# that underflow
_BAD_CONSTANTS = [{flag: value} for flag, value in (
    ("--lambda", "-2"), ("--C", "nan"), ("--L", "inf"), ("--lambda", "nan"),
    ("--T", "inf"), ("--A-tilde", "nan"), ("--C", "-1"), ("--L", "0"),
    ("--lambda", "0"), ("--alpha", "1"), ("--alpha", "-0.1"), ("--T", "0"),
    ("--A-tilde", "0"))] + [
    {"--L": "100"}, {"--T": "500"}, {"--C": "1e200", "--lambda": "1e200"},
    {"--lambda": "1e-300"},
    {"--L": "1e-300", "--lambda": "1e-300"}, {"--L": "1e-200", "--lambda": "1e-170"}]
_REGRESSION_16 = {"grid": {"n": 16}, "ensemble": {"N": 4000, "seed": 7},
                  "backend": {"kind": "regression"}}
# a = 6 on the lattice at n = 12 does not converge in 4 sweeps: exit 2 if solved
_NO_CONVERGENCE = {
    "scenario": {**inline(), "driver": {"kind": "linear_mean", "params": {"a": 6.0}}},
    "grid": {"n": 12}, "backend": LATTICE, "picard": {"max_iter": 4}}
_SCENARIO_TYPE = "cli: scenario must be a name or an inline object"
_INTERVALS = "stitch: interval count must lie in [1, n]"
# one row for each refusal that no other row reaches
_REFUSALS = [
    ("array", [A_LATTICE], "cli: config must be a JSON object"),
    ("no-scenario", {"grid": {"n": 2}, "backend": LATTICE}, _SCENARIO_TYPE),
    ("scenario-3", {**A_LATTICE, "scenario": 3}, _SCENARIO_TYPE),
    ("no-grid-n", {**A_LATTICE, "grid": {}}, "cli: grid.n is required"),
    ("grid-n-0", {**A_LATTICE, "grid": {"n": 0}}, "cli: grid.n must be >= 1"),
    ("grid-T--1", {**A_LATTICE, "grid": {"n": 2, "T": -1}},
     "cli: grid.T must be positive and finite"),
    ("backend-gpu", {**A_LATTICE, "backend": {"kind": "gpu"}},
     "cli: unknown backend kind 'gpu'"),
    ("lattice-d2", {**A_LATTICE, "scenario": {**inline(), "d": 2}},
     "cli: the lattice backend is one-dimensional"),
    ("lattice-n13", {**A_LATTICE, "grid": {"n": 13}},
     "cli: the lattice backend supports n <= 12"),
    ("ensemble-N-1", {**A_REGRESSION, "ensemble": {"N": 1}}, "cli: ensemble.N must be >= 2"),
    ("ensemble-N-odd", {**A_REGRESSION, "ensemble": {"N": 201}},
     "cli: antithetic ensembles need an even N"),
    ("stitch-intervals-0", {**A_LATTICE, "stitch": {"intervals": 0}}, _INTERVALS),
    ("stitch-intervals-n+1", {**A_LATTICE, "stitch": {"intervals": 3}}, _INTERVALS),
    # B's contraction horizon is about 0.0021, below its step of 0.125
    ("stitch-planned-below-one-step", {
        "scenario": "B_meanfield_linear", "grid": {"n": 4}, "backend": LATTICE, "stitch": {}},
     "stitch: contraction horizon 0.00208333 is below one grid step 0.125; "
     "use a finer grid"),
    ("terminal-unknown-key", {**A_LATTICE, "scenario": {**inline(), "terminal": {
        "kind": "brownian", "bogus": 1}}},
     "cli: bad scenario: terminal: unknown keys ['bogus']"),
    ("resistance-unknown-key", {**A_LATTICE, "scenario": {**inline(), "resistance": {
        "kind": "zero", "bogus": 1}}},
     "cli: bad scenario: resistance: unknown keys ['bogus']"),
    ("resistance-unknown-kind", {**A_LATTICE, "scenario": {**inline(), "resistance": {
        "kind": "bogus"}}},
     "cli: bad scenario: unknown resistance kind 'bogus'"),
    ("inline-without-T", {**A_LATTICE, "scenario": {
        k: v for k, v in inline().items() if k != "T"}},
     "cli: bad scenario: scenario config missing key 'T'"),
]
# each command checks --out before its solve, which would exit 2 or 1 here
_OUT_COMMANDS = (("solve", _NO_CONVERGENCE), ("verify", _NO_CONVERGENCE),
                 ("compare-oracle", {"scenario": "A_sine_constraint", "grid": {"n": 3},
                                     "ensemble": {"N": 2000, "seed": 3},
                                     "compare": {"mc_budget": 1e-18}}))

CASES = [
    # -- exit 0 ------------------------------------------------------------------
    Case("test_command_exits_0", ("--help",), 0, quiet=False, id="help"),
    constants("test_command_exits_0", 0, id="constants", **_CONSTANTS),
    configured("test_command_exits_0", "compare-oracle", {
        "scenario": "A_sine_constraint", "grid": {"n": 6},
        "ensemble": {"N": 2000, "seed": 7}}, out=False, quiet=False, id="compare-oracle-A"),
    configured("test_command_exits_0", "compare-oracle", {
        "scenario": BINDING_LINEAR_Y, "grid": {"n": 8},
        "ensemble": {"N": 2000, "seed": 7}}, out=False, quiet=False,
        id="compare-oracle-linear-y"),
    configured("test_command_exits_0", "verify", {
        "scenario": "A_sine_constraint", "grid": {"n": 9}, "backend": LATTICE,
        "stitch": {"intervals": 3}}, out=False, quiet=False, id="verify-stitched-A"),
    configured("test_command_exits_0", "solve", {
        "scenario": "D_quadratic", "grid": {"n": 8}, "backend": LATTICE,
        "stitch": {"intervals": 2}}, id="solve-stitched-D"),
    configured("test_command_exits_0", "verify", {
        "scenario": BINDING_LINEAR_Y, **_REGRESSION_16, "picard": {"tol": 1e-14}},
        out=False, quiet=False, id="verify-binding-linear-y-1e-14"),
    configured("test_command_exits_0", "verify", {"scenario": {
        "T": 0.5, "terminal": {"kind": "brownian_shift", "params": {"c": 1.0}},
        "driver": {"kind": "linear_mean", "params": {"a": 0.5}},
        "loss": {"kind": "linear_shift", "params": {"c0": -1e9}}},
        "grid": {"n": 8}, "backend": LATTICE}, out=False, quiet=False,
        id="verify-constraint-far-below"),
    configured("test_command_exits_0", "solve", {"scenario": {
        "T": 0.5, "terminal": {"kind": "brownian_shift", "params": {"c": 1.0}},
        "driver": {"kind": "linear_mean", "params": {"a": 1e-300}},
        "loss": {"kind": "linear_shift"}}, "grid": {"n": 8}, "backend": LATTICE},
        id="solve-tiny-lambda"),
    # A meets its terminal constraint with equality: the assumption check's
    # antithetic draws read that mean at every seed
    configured("test_command_exits_0", "verify", {
        "scenario": "A_sine_constraint", **_REGRESSION_16,
        "ensemble": {"N": 4000, "seed": 565}}, out=False, quiet=False,
        id="verify-regression-A-seed-565"),
    # delta / dt overflows to inf on a finite horizon: one interval, as for
    # every ratio of at least n
    configured("test_command_exits_0", "solve", {
        "scenario": {**inline(), "T": 1e-160,
                     "driver": {"kind": "linear_mean", "params": {"a": 1e-154}}},
        "grid": {"n": 4}, "backend": LATTICE, "stitch": {}},
        id="solve-stitched-horizon-ratio-overflows"),
    # one sampled path and its negation: the default antithetic pairing at N = 2
    configured("test_command_exits_0", "solve", {
        **A_REGRESSION, "ensemble": {"N": 2, "seed": 1},
        "backend": {"kind": "regression", "degree": 0}}, id="solve-antithetic-N2-degree0"),
    # -- exit 0, and a second run writes the same bytes --------------------------
    configured("test_rerun_is_byte_identical", "solve", {
        "scenario": "A_sine_constraint", "grid": {"n": 8}, "backend": LATTICE},
        same=("results.csv",), id="solve-lattice-A"),
    configured("test_rerun_is_byte_identical", "solve", {
        "scenario": "A_sine_constraint", **_REGRESSION_16},
        same=("results.csv",), id="solve-regression-A"),
    # the implicit linear_y node step
    configured("test_rerun_is_byte_identical", "solve", {
        "scenario": BINDING_LINEAR_Y, "grid": {"n": 8}, "backend": LATTICE},
        same=("results.csv",), id="solve-lattice-linear-y"),
    # quadratic sweeps over one iterate
    configured("test_rerun_is_byte_identical", "solve", {
        "scenario": "D_quadratic", "grid": {"n": 8}, "backend": LATTICE},
        same=("results.csv",), id="solve-lattice-D"),
    configured("test_rerun_is_byte_identical", "verify", {
        "scenario": "A_sine_constraint", **_REGRESSION_16, "stitch": {"intervals": 2}},
        quiet=False, same=("verify_report.json",), id="verify-stitched-regression-A"),
    # -- exit 1: a check fails ---------------------------------------------------
    # a zero tolerance on the lattice stalls at the rounding level
    configured("test_failed_check_exits_1", "verify", {
        "scenario": ROUNDING_PLATEAU, "grid": {"n": 8}, "backend": LATTICE,
        "picard": {"tol": 0}}, 1, out=False, quiet=False, id="verify-rounding-plateau"),
    configured("test_failed_check_exits_1", "verify", {"scenario": {
        "T": 1.0, "terminal": {"kind": "brownian"}, "driver": {"kind": "zero"},
        "loss": {"kind": "linear_shift", "params": {"c0": 0.5}}},
        "grid": {"n": 8}, "backend": LATTICE}, 1, out=False, quiet=False,
        id="verify-terminal-violation"),
    # degree 30 on 40 particles: the equilibrated design is numerically singular
    configured("test_rank_deficient_regression_exits_1_with_one_line", "solve", {
        "scenario": "B_meanfield_linear", "grid": {"n": 2},
        "ensemble": {"N": 40, "seed": 1, "antithetic": False},
        "backend": {"kind": "regression", "degree": 30}}, 1,
        has="rank-deficient design matrix"),
    # -- exit 2: no convergence --------------------------------------------------
    *(configured(test, "solve", _NO_CONVERGENCE, 2,
                 starts="picard: no convergence after 4 sweeps (last distance ")
      for test in ("test_nonconvergence_exits_2_without_files",
                   "test_nonconvergence_prints_one_line_with_one_prefix")),
    # the shift needed, 1e30, is past the bracket cap of 2**60
    configured("test_bracket_error_exits_2_with_one_line", "solve", {
        "scenario": inline(loss_params={"c0": 1e30}), "grid": {"n": 2},
        "backend": LATTICE}, 2, has="no nonnegative expected loss"),
    # -- exit 3: the command line ------------------------------------------------
    Case("test_usage_error_exits_3_with_one_line", (), 3,
         starts="cli: mrbsde: the following arguments are required: command\n",
         id="no-command"),
    Case("test_usage_error_exits_3_with_one_line", ("frob",), 3,
         starts="cli: mrbsde: argument command: invalid choice: 'frob'", id="unknown-command"),
    Case("test_usage_error_exits_3_with_one_line", ("solve", "--config", "{config}"), 3,
         starts="cli: mrbsde solve: the following arguments are required: --out\n",
         id="solve-without-out"),
    Case("test_usage_error_exits_3_with_one_line", (
        "constants", "--C", "abc", "--L", "1", "--lambda", "1"), 3,
         starts="cli: mrbsde constants: argument --C: invalid float value: 'abc'\n",
         id="constants-non-number"),
    *(constants("test_constants_rejects_bad_input", 3, **{**_CONSTANTS, **bad})
      for bad in _BAD_CONSTANTS),
    # -- exit 3: the config ------------------------------------------------------
    configured("test_missing_config_file", "solve", None, 3,
               starts="cli: cannot read config: "),
    # an existing file at --out, or above it, cannot be made the directory
    *(Case("test_unwritable_out_exits_3_before_the_solve",
           (command, "--config", "{config}", "--out", out), 3,
           starts="cli: cannot write --out ", has="config.json is not a directory",
           config=cfg, id=f"{command}-{shape}")
      for command, cfg in _OUT_COMMANDS
      for shape, out in (("file", "{config}"), ("under-a-file", "{config}/out"))),
    # an empty --out names no directory: `solve` would write into the working one
    *(Case("test_empty_out_exits_3_before_the_solve",
           (command, "--config", "{config}", "--out", ""), 3,
           starts="cli: --out must name a directory, not an empty string\n",
           config=cfg, id=command)
      for command, cfg in _OUT_COMMANDS),
    *(configured("test_config_refusal_exits_3_with_one_line", "solve", cfg, 3,
                 starts=message + "\n", id=tag)
      for tag, cfg, message in _REFUSALS),
    # the scenario's driver fixes the mode: no config value may override it
    *(configured("test_invalid_mode_exits_3_without_files", "solve", {**A_LATTICE, "mode": mode},
                 3, has="unknown keys in config: ['mode']")
      for mode in ("banana", "quadratic", "lipschitz")),
    configured("test_removed_solver_keys_are_unknown", "solve", {
        **A_LATTICE, "ensemble": {"d": 3}}, 3, has="unknown keys in ensemble: ['d']"),
    configured("test_removed_solver_keys_are_unknown", "solve", {
        **A_LATTICE, "tolerances": {"flat_slack": 2.0}}, 3,
        has="unknown keys in tolerances: ['flat_slack']"),
    configured("test_stitch_auto_key_is_unknown", "solve", {
        "scenario": "B_meanfield_linear", "grid": {"n": 4}, "backend": LATTICE,
        "stitch": {"auto": True}}, 3, has="unknown keys in stitch: ['auto']"),
    *(configured("test_non_object_section_exits_3", "solve", {**A_LATTICE, name: value}, 3,
                 has=f"cli: config section {name} must be an object", id=f"{name}-{value}")
      for name, value in (("grid", 4), ("stitch", True), ("stitch", False))),
    *(configured("test_bad_config_values_exit_3_without_files", "solve",
                 {**A_REGRESSION, section: {**A_REGRESSION.get(section, {}), key: value}}, 3,
                 has=f"cli: {text}", id=f"{section}-{key}-" + (
                     "10**400" if value == 10 ** 400 else f"{value}-{text}"))
      for section, key, value, text in _BAD_VALUES),
    # T / n rounds to 0: no grid has that step, stitched or not
    *(configured("test_zero_grid_step_exits_3_without_files", "solve", {
        "scenario": {**inline(), "T": 5e-324}, "grid": {"n": 2}, "backend": LATTICE,
        **extra}, 3, starts="cli: the grid step T / grid.n underflows to 0\n", id=tag)
      for tag, extra in (("local", {}), ("stitched", {"stitch": {}}))),
    # C(10**2500 + 2, 2) has 5,000 digits: compared with N, never printed
    configured("test_bad_config_values_exit_3_without_files", "solve", {
        **A_REGRESSION, "scenario": {**inline(), "d": 2},
        "backend": {"kind": "regression", "degree": 10 ** 2500}}, 3,
        has="cli: " + _FEATURES + "200", id="backend-degree-10**2500-d2"),
    # the Philox key is 64 bits: a wider seed would alias, a negative one is no key
    *(configured("test_seed_out_of_range_exits_3_without_files", command, {
        **A_REGRESSION, "ensemble": {"N": 200, "seed": seed}}, 3,
        starts="cli: ensemble.seed must be in [0, 2**64)\n", id=f"{command}-{seed}")
      for command in ("solve", "verify") for seed in (-1, 2 ** 64)),
    configured("test_integer_beyond_the_float_range_exits_3", "solve", {"scenario": {
        "T": 1.0, "terminal": {"kind": "brownian"}, "driver": {"kind": "zero"},
        "loss": {"kind": "linear_shift", "params": {"c0": 10 ** 400}}},
        "grid": {"n": 4}, "backend": LATTICE}, 3,
        has="loss.params.c0 is beyond the float range"),
    # json.loads raises a plain ValueError for more than 4,300 digits
    configured("test_integer_past_the_digit_limit_exits_3", "solve",
               '{"scenario": "A_sine_constraint", "grid": {"n": 4}, '
               '"ensemble": {"N": 1' + "0" * 5000 + '}}', 3,
               starts="cli: cannot read config as JSON: "),
    *(configured("test_non_finite_config_numbers_exit_3", "solve", text, 3,
                 starts="cli: config holds the non-finite number ", id=text)
      for text in _NON_FINITE),
    *(configured("test_negative_gate_exits_3_without_files", command, {
        "scenario": "A_sine_constraint", "grid": {"n": 2},
        "ensemble": {"N": 200, "seed": 1}, section: {key: -1e-3}}, 3,
        starts=f"cli: {section}.{key} must be >= 0\n", id=f"{command}-{section}-{key}")
      for command, section, key in (("verify", "tolerances", "constraint"),
                                    ("verify", "tolerances", "flatness"),
                                    ("compare-oracle", "compare", "lattice_budget"),
                                    ("compare-oracle", "compare", "mc_budget"))),
    *(configured("test_compare_oracle_refuses_keys_it_does_not_use", "compare-oracle", {
        "scenario": "A_sine_constraint", "grid": {"n": 3},
        "ensemble": {"N": 2000, "seed": 3}, **extra}, 3,
        starts=f"cli: compare-oracle does not use {key}\n", id=f"extra{k}-{key}")
      for k, (extra, key) in enumerate(_ORACLE_UNUSED)),
    # -- exit 3: the scenario ----------------------------------------------------
    # linear_y with a = 20 at n = 8 puts lam * dt at 2.5: no per-node contraction
    configured("test_step_size_error_exits_3_with_one_line", "solve", {
        "scenario": {**inline(), "driver": {"kind": "linear_y", "params": {"a": 20.0}}},
        "grid": {"n": 8}, "backend": LATTICE}, 3, has="lam*dt = 2.5"),
    configured("test_plan_error_exits_3_with_one_line", "solve", {
        "scenario": "C_resistance_lipschitz", "grid": {"n": 4}, "backend": LATTICE,
        "stitch": {"intervals": 2}}, 3,
        starts="stitch: global stitching requires a resistance-free generator "
               "(the local solver remains available)\n"),
    configured("test_unknown_builder_param_exits_3_with_one_line", "solve", {
        "scenario": {**inline(), "driver": {"kind": "constant", "params": {
            "value": 1, "bogus": 3}}}, "grid": {"n": 4}, "backend": LATTICE}, 3,
        has="cli: bad scenario:"),
    # quadratic_z's zbar term b |zbar| is Lipschitz: its exponent is 0, not a
    # param, and the driver has no bound of its own on z
    *(configured("test_unknown_builder_param_exits_3_with_one_line", "solve", {
        "scenario": _quadratic_z(**{key: 0}), "grid": {"n": 8}, "backend": LATTICE}, 3,
        has=f"unexpected keyword argument '{key}'") for key in ("alpha", "zero_z_bound")),
    configured("test_non_number_scenario_value_exits_3_with_one_line", "solve", {
        "scenario": {**inline(), "d": 1.5}, "grid": {"n": 4}, "backend": LATTICE}, 3,
        has="cli: bad scenario: scenario.d must be an integer, got 1.5"),
    # a = gamma = b = 0 leaves the quadratic constants undefined
    configured("test_quadratic_driver_with_zero_lam_exits_3", "solve", {
        "scenario": {**_quadratic_z(a=0.0, gamma=0.0, z_cap=10.0, b=0.0, zero_bound=0.0),
                     "T": 0.5}, "grid": {"n": 4}, "backend": LATTICE}, 3,
        has="cli: bad scenario: quadratic_z needs lam"),
    # with both nonnegative, f(t, 0, 0, 0, 0, 0) = 0 <= zero_bound by the formula
    *(configured("test_quadratic_driver_with_a_negative_cap_or_bound_exits_3", "solve", {
        "scenario": _quadratic_z(**{key: -1.0}), "grid": {"n": 8}, "backend": LATTICE}, 3,
        has="cli: bad scenario: quadratic_z needs z_cap >= 0 and zero_bound >= 0", id=key)
      for key in ("z_cap", "zero_bound")),
    *(configured("test_overflowing_constants_exit_3_without_files", command, {
        **cfg, "grid": {**cfg.get("grid", {}), "n": 8}, "backend": LATTICE}, 3,
        starts=message, id=f"{name}-{command}")
      for name, cfg, message in _OVERFLOWING_CONSTANTS for command in ("solve", "verify")),
    # finite inputs, but the squared norms of Y overflow to inf
    *(configured(test, command, {
        "scenario": inline(terminal_c=1e160), "grid": {"n": 4}, "backend": LATTICE}, 3,
        starts="cli: the solution overflows (", has="; no output written")
      for test, command in (("test_overflowing_summary_exits_3_without_files", "solve"),
                            ("test_verify_overflowing_summary_exits_3_without_files",
                             "verify"))),
    *(configured("test_overflowing_sweep_exits_3_without_files", command, {
        **_SWEEP_OVERFLOW, "backend": {"kind": backend}}, 3,
        starts="cli: the solution overflows (law atoms must be finite); no output written\n",
        id=f"{backend}-{command}")
      for backend in ("lattice", "regression") for command in ("solve", "verify")),
]
