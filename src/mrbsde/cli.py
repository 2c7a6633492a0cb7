"""Experiment runner: load a JSON scenario config, execute solve / verify /
constants / compare-oracle workflows, write CSV time series and JSON summaries.

Exit codes: 0 success, 1 verification failed or a rank-deficient regression
(`SolverError.exit_code`), 2 no convergence, 3 configuration error (including
a command-line usage error, a step too coarse for the implicit node step,
lam * dt >= 1, an inadmissible stitching plan, a solution that overflows
the summary, and an `--out` that cannot be written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import lossop, scenarios
from .condexp import (LATTICE_MAX_STEPS, LatticeBackend, RegressionBackend,
                      RegressionBasis)
from .model import PASS_RATIO, ScenarioSpec, SolverError, validate_assumptions
from .paths import antithetic as make_antithetic
from .paths import make_grid, sample_ensemble
from .picard import (DEFAULT_MAX_ITER, contraction_estimate, picard_solve,
                     scenario_constants)
from .reflect import (ReflectedSolution, complete_record, default_tolerances,
                      empirical_norms, no_stats)
from .stitch import plan_intervals, solve_global, stitch_constants

HL_PROBE_PASS = 1.0 + 1e-6
CONTRACTION_SLACK = 0.1


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A command-line usage error is a configuration error: exit 3 with one
    line, not argparse's exit 2 (the code of no convergence) with the usage."""

    def error(self, message):
        raise ConfigError(f"cli: {self.prog}: {message}")


def _require_keys(section: str, cfg: dict, allowed: set[str]):
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"cli: unknown keys in {section}: {sorted(unknown)}")


def _section(raw: dict, name: str, allowed: set[str]) -> dict:
    """The config section `name` as a dict: absent or null reads as empty."""
    cfg = {} if raw.get(name) is None else raw[name]
    if not isinstance(cfg, dict):
        raise ConfigError(f"cli: config section {name} must be an object")
    _require_keys(name, cfg, allowed)
    return cfg


@dataclass(eq=False)
class RunConfig:
    """A parsed run configuration; `parse_config` builds it and owns every
    default."""

    scenario: ScenarioSpec
    n: int
    N: int
    seed: int
    antithetic: bool
    backend_kind: str
    degree: int
    picard_tol: float | None
    picard_max_iter: int
    tol_constraint: float | None
    tol_flatness: float | None
    stitched: bool
    stitch_intervals: int | None
    inflate_k: float
    lattice_budget: float
    mc_budget: float
    raw: dict


def _number(section: str, cfg: dict, key: str, default=None, integer: bool = False):
    """The number `section.key` under `scenarios.config_number`'s rule, or
    `default` when it is absent or null."""
    value = cfg.get(key)
    if value is None:
        return default
    try:
        return scenarios.config_number(f"{section}.{key}", value, integer)
    except ValueError as exc:
        raise ConfigError(f"cli: {exc}") from exc


def _reject_constant(name: str):
    raise ConfigError(f"cli: config holds the non-finite number {name}")


def _finite_float(text: str) -> float:
    """JSON number to float, refusing literals such as 1e400 that overflow."""
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


def load_config(path: str | Path, backend_override: str | None = None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(), parse_constant=_reject_constant,
                         parse_float=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cli: cannot read config: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:   # bad syntax, or an integer past Python's digit limit
        raise ConfigError(f"cli: cannot read config as JSON: {exc}") from exc
    return parse_config(raw, backend_override)


def parse_config(raw: dict, backend_override: str | None = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("cli: config must be a JSON object")
    _require_keys("config", raw, {"scenario", "grid", "ensemble", "backend",
                                  "picard", "tolerances", "stitch", "debug",
                                  "compare"})
    sc = raw.get("scenario")
    if not isinstance(sc, (str, dict)):
        raise ConfigError("cli: scenario must be a name or an inline object")
    try:
        spec = (scenarios.get(sc).spec if isinstance(sc, str)
                else scenarios.scenario_from_dict(sc))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"cli: bad scenario: {exc}") from exc

    grid_cfg = _section(raw, "grid", {"n", "T"})
    n = _number("grid", grid_cfg, "n", integer=True)
    if n is None:
        raise ConfigError("cli: grid.n is required")
    if n < 1:
        raise ConfigError("cli: grid.n must be >= 1")
    horizon = _number("grid", grid_cfg, "T")
    if horizon is not None:
        if not math.isfinite(horizon) or horizon <= 0:
            raise ConfigError("cli: grid.T must be positive and finite")
        spec = replace(spec, horizon=horizon)

    ens_cfg = _section(raw, "ensemble", {"N", "seed", "antithetic"})
    backend_cfg = _section(raw, "backend", {"kind", "degree"})
    backend_kind = backend_override or backend_cfg.get("kind", "regression")
    if backend_kind not in ("regression", "lattice"):
        raise ConfigError(f"cli: unknown backend kind {backend_kind!r}")

    pic_cfg = _section(raw, "picard", {"tol", "max_iter"})
    tol_cfg = _section(raw, "tolerances", {"constraint", "flatness"})
    stitch_cfg = _section(raw, "stitch", {"intervals"})
    debug_cfg = _section(raw, "debug", {"inflate_k"})
    compare_cfg = _section(raw, "compare", {"lattice_budget", "mc_budget"})

    cfg = RunConfig(
        scenario=spec,
        n=n,
        N=_number("ensemble", ens_cfg, "N", 20000, integer=True),
        seed=_number("ensemble", ens_cfg, "seed", 0, integer=True),
        antithetic=ens_cfg.get("antithetic", True),
        backend_kind=backend_kind,
        degree=_number("backend", backend_cfg, "degree", 3, integer=True),
        picard_tol=_number("picard", pic_cfg, "tol"),
        picard_max_iter=_number("picard", pic_cfg, "max_iter", DEFAULT_MAX_ITER,
                                integer=True),
        tol_constraint=_number("tolerances", tol_cfg, "constraint"),
        tol_flatness=_number("tolerances", tol_cfg, "flatness"),
        stitched=raw.get("stitch") is not None,
        stitch_intervals=_number("stitch", stitch_cfg, "intervals", integer=True),
        inflate_k=_number("debug", debug_cfg, "inflate_k", 0.0),
        lattice_budget=_number("compare", compare_cfg, "lattice_budget", 1e-10),
        mc_budget=_number("compare", compare_cfg, "mc_budget", 1e-2),
        raw=raw,
    )
    if not isinstance(cfg.antithetic, bool):
        raise ConfigError("cli: ensemble.antithetic must be true or false, "
                          f"got {cfg.antithetic!r}")
    if not 0 <= cfg.seed < 2 ** 64:   # the Philox key and the terminal draws' seed
        raise ConfigError("cli: ensemble.seed must be in [0, 2**64)")
    if cfg.degree < 0:
        raise ConfigError("cli: backend.degree must be >= 0")
    if cfg.picard_max_iter < 1:
        raise ConfigError("cli: picard.max_iter must be >= 1")
    # no solution passes a negative gate, a negative tolerance never stops,
    # and a negative jump would make the reflection decrease
    for name, value in (("picard.tol", cfg.picard_tol),
                        ("tolerances.constraint", cfg.tol_constraint),
                        ("tolerances.flatness", cfg.tol_flatness),
                        ("compare.lattice_budget", cfg.lattice_budget),
                        ("compare.mc_budget", cfg.mc_budget),
                        ("debug.inflate_k", cfg.inflate_k)):
        if value is not None and value < 0:
            raise ConfigError(f"cli: {name} must be >= 0")
    if cfg.backend_kind == "lattice":
        if spec.brownian_dim != 1:
            raise ConfigError("cli: the lattice backend is one-dimensional")
        if n > LATTICE_MAX_STEPS:
            raise ConfigError(f"cli: the lattice backend supports n <= {LATTICE_MAX_STEPS}")
    else:
        if cfg.N < 2:
            raise ConfigError("cli: ensemble.N must be >= 2")
        if cfg.antithetic and cfg.N % 2:
            raise ConfigError("cli: antithetic ensembles need an even N")
        states = (n + 1) * spec.brownian_dim * cfg.N
        if states * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise ConfigError("cli: an ensemble of (grid.n + 1) * d * ensemble.N "
                              "states exceeds the largest array")
        features = RegressionBasis(cfg.degree, spec.brownian_dim).features_up_to(cfg.N)
        if features >= cfg.N:
            raise ConfigError("cli: ensemble.N must exceed the regression features "
                              f"of backend.degree, got N = {cfg.N}")
    # after the size refusals: T / n overflows for an n past the float range
    if spec.horizon / n == 0.0:
        raise ConfigError("cli: the grid step T / grid.n underflows to 0")
    return cfg


def build_backend(cfg: RunConfig, grid):
    if cfg.backend_kind == "lattice":
        return LatticeBackend(grid)
    half = cfg.N // 2 if cfg.antithetic else cfg.N
    ens = sample_ensemble(grid, half, cfg.scenario.brownian_dim, cfg.seed)
    if cfg.antithetic:
        ens = make_antithetic(ens)
    return RegressionBackend(ens, degree=cfg.degree)


def _inflate(solution: ReflectedSolution, amount: float, backend) -> ReflectedSolution:
    """Negative control: add a spurious terminal jump to the reflection, which
    shifts every non-terminal value up and raises the flatness residual; the
    default flatness threshold can still admit it. It is a block, unrecorded."""
    k, tail, offsets = solution.k.copy(), solution.tail.copy(), solution.step_offsets.copy()
    k[-1] += amount
    tail[:-1] += amount
    offsets[:-1] += amount   # the steps into the shifted nodes: z is unchanged
    *y, y_m = solution.values(backend)
    return ReflectedSolution(lo=solution.lo, hi=solution.hi, y=[v + amount for v in y] + [y_m],
                             k=k, tail=tail, step_offsets=offsets, z_record=solution.z_record,
                             stats=no_stats(len(y)))


@dataclass(eq=False)
class RunResult:
    cfg: RunConfig
    grid: object
    backend: object
    solution: ReflectedSolution
    histories: list
    constants: object
    breaks: list[int] | None = None     # a stitched run's interval breakpoints
    runtime_ms: float = 0.0

    @cached_property
    def post_pass(self) -> dict:
        """The norms and the means of z that `summarize` and
        `write_results_csv` share, off the answer's records with no pass over
        Y and no projection, and in quadratic mode the BMO proxy's refit."""
        return empirical_norms(self.solution, self.grid, self.backend, self.cfg.scenario.mode)


def execute(cfg: RunConfig) -> RunResult:
    start = time.perf_counter()
    try:
        constants = (stitch_constants if cfg.stitched else scenario_constants)(cfg.scenario)
    except ValueError as exc:
        raise ConfigError(f"cli: {exc}") from exc
    grid = make_grid(cfg.scenario.horizon, cfg.n)
    backend = build_backend(cfg, grid)
    breaks = None
    if cfg.stitched:
        breaks = plan_intervals(cfg.scenario, grid, constants,
                                intervals=cfg.stitch_intervals)
        solution, histories = solve_global(cfg.scenario, grid, backend, breaks,
                                           constants, tol=cfg.picard_tol,
                                           max_iter=cfg.picard_max_iter)
    else:
        solution, history = picard_solve(cfg.scenario, grid, backend,
                                         tol=cfg.picard_tol,
                                         max_iter=cfg.picard_max_iter,
                                         constants=constants)
        histories = [history]
    if cfg.inflate_k:
        solution = _inflate(solution, cfg.inflate_k, backend)
        complete_record(cfg.scenario.loss, grid, backend, solution)
    runtime_ms = (time.perf_counter() - start) * 1e3
    return RunResult(cfg=cfg, grid=grid, backend=backend, solution=solution,
                     histories=histories, constants=constants,
                     breaks=breaks, runtime_ms=runtime_ms)


def shift_at_zero_max(scenario, grid) -> float:
    law = lossop.EmpiricalLaw(np.array([0.0]), np.array([1.0]))
    return max(lossop.loss_operator(scenario.loss, float(t), law)
               for t in grid.nodes)


def _fmt(v: float) -> str:
    return repr(float(v))


def write_results_csv(path: Path, result: RunResult):
    sol, stats, mean_z = result.solution, result.solution.stats, result.post_pass["mean_z"]
    cols = (["t", "mean_Y", "std_Y"] + [f"mean_Z_{j + 1}" for j in range(result.backend.d)]
            + ["K", "dK", "constraint_value"])
    lines = [",".join(cols)]
    for j in range(len(sol.y)):
        dk = sol.k[j] - sol.k[j - 1] if j else 0.0
        row = [result.grid.nodes[sol.lo + j], stats["mean_y"][j], stats["std_y"][j], *mean_z[j],
               sol.k[j], dk, stats["constraint"][j]]
        lines.append(",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n")


def summarize(result: RunResult) -> dict:
    sol = result.solution
    defaults = default_tolerances(sol, result.grid)
    scenario_cfg = scenarios.scenario_to_dict(result.cfg.scenario)
    resolved = {
        "scenario": scenario_cfg,
        "grid": {"T": result.grid.T, "n": result.grid.n},
        "ensemble": {"N": result.cfg.N, "seed": result.cfg.seed,
                     "antithetic": result.cfg.antithetic},
        "backend": {"kind": result.cfg.backend_kind, "degree": result.cfg.degree},
        "picard": {"tol": result.cfg.picard_tol,
                   "max_iter": result.cfg.picard_max_iter},
    }
    summary = {
        "config": result.cfg.raw,
        "resolved_config": resolved,
        "scenario_hash": hashlib.sha256(json.dumps(
            scenario_cfg, sort_keys=True).encode()).hexdigest(),
        "flatness_residual": sol.diagnostics["flatness_right"],
        "flatness_residual_left": sol.diagnostics["flatness_left"],
        "min_constraint": sol.diagnostics["min_constraint"],
        "picard_history": [h.to_dict() for h in result.histories],
        "contraction_ratio": contraction_estimate(result.histories),
        "norms": result.post_pass["norms"],
        "constants_report": {
            **result.constants.to_dict(),
            "shift_at_zero_max": shift_at_zero_max(result.cfg.scenario, result.grid),
        },
        "default_tolerances": defaults,
        "sweeps": sum(len(h.distances) for h in result.histories),
        "runtime_ms": result.runtime_ms,
    }
    if result.breaks is not None:
        summary["stitch"] = {
            "breaks": result.breaks,
            "seam_constraints": [float(sol.diagnostics["constraint"][b])
                                 for b in result.breaks[1:-1]],
        }
    return summary


def summary_text(summary: dict) -> str:
    """The summary as JSON text; raises ValueError on a non-finite number."""
    return json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"


def solve_and_summarize(cfg: RunConfig) -> tuple[RunResult, dict, str]:
    """Run the solve, then build the summary and its JSON text.

    A solution that overflows either leaves the sweep a law with non-finite
    atoms, or carries a non-finite Picard distance or norm into the summary,
    whose encoding refuses it. Either is reported once, as a configuration
    error, so numpy's overflow warnings on the way are muted.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            result = execute(cfg)
        except lossop.NonFiniteLawError as exc:
            raise _overflows(exc) from exc
        summary = summarize(result)
    try:
        return result, summary, summary_text(summary)
    except ValueError as exc:
        raise _overflows(exc) from exc


def _overflows(exc: Exception) -> ConfigError:
    return ConfigError(f"cli: the solution overflows ({exc}); no output written")


def write_summary(path: Path, summary: dict):
    path.write_text(summary_text(summary))


def _out_dir(path: str) -> Path:
    """The `--out` directory, refused before the solve when it is empty or an
    existing file is at or above it. Only `_write_outputs` makes it, so a run
    refused on the way leaves none."""
    if not path:
        raise ConfigError("cli: --out must name a directory, not an empty string")
    out = Path(path)
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise _unwritable(out, f"{found} is not a directory")
    return out


def _write_outputs(out: Path, write):
    """Make `out` and run `write(out)`; an OSError on the way is a
    configuration error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        write(out)
    except OSError as exc:
        raise _unwritable(out, exc) from exc


def _unwritable(out: Path, reason) -> ConfigError:
    return ConfigError(f"cli: cannot write --out {out}: {reason}")


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args.backend)
    out = _out_dir(args.out)
    result, _, text = solve_and_summarize(cfg)

    def write(d: Path):
        write_results_csv(d / "results.csv", result)
        (d / "summary.json").write_text(text)
    _write_outputs(out, write)
    return 0


def verify_checks(result: RunResult, summary: dict) -> list[dict]:
    """The verify gates on a solve and the summary built from it."""
    sol, cfg = result.solution, result.cfg
    defaults = summary["default_tolerances"]
    eps_c = cfg.tol_constraint if cfg.tol_constraint is not None else defaults["constraint"]
    eps_f = cfg.tol_flatness if cfg.tol_flatness is not None else defaults["flatness"]
    stalled = sum(h.stop_reason == "stalled" for h in result.histories)

    checks = [
        {"name": "constraint_profile", "value": sol.diagnostics["min_constraint"],
         "threshold": -eps_c, "passed": bool(sol.diagnostics["min_constraint"] >= -eps_c)},
        {"name": "flatness", "value": sol.diagnostics["flatness_right"],
         "threshold": eps_f,
         "passed": bool(abs(sol.diagnostics["flatness_right"]) <= eps_f)},
        {"name": "converged", "value": stalled, "threshold": 0, "passed": stalled == 0},
    ]

    contraction = summary["contraction_ratio"]
    if contraction is not None:
        max_ratio, bound = contraction["max_ratio"], contraction["bound"]
        checks.append({"name": "contraction_ratio", "value": max_ratio,
                       "threshold": bound + CONTRACTION_SLACK,
                       "passed": bool(max_ratio <= bound + CONTRACTION_SLACK)})
    else:
        checks.append({"name": "contraction_ratio", "value": None,
                       "threshold": None, "passed": True,
                       "detail": "not enough sweeps to estimate"})

    worst = hl_probe_worst(result)
    checks.append({"name": "hl_probe", "value": worst, "threshold": HL_PROBE_PASS,
                   "passed": bool(worst <= HL_PROBE_PASS)})

    margin = validate_assumptions(cfg.scenario, seed=cfg.seed + 1)
    checks.append({"name": "assumptions", "value": margin, "threshold": PASS_RATIO,
                   "passed": margin <= PASS_RATIO})
    return checks


def hl_probe_worst(result: RunResult) -> float:
    """Probe the shift operator's mean-Lipschitz bound on coupled perturbations
    of the solved deflated-process laws (y less its offset), the laws the
    reflection is read off (node m // 2 formed again unless kept)."""
    sol, backend = result.solution, result.backend
    loss = result.cfg.scenario.loss
    m = sol.hi - sol.lo
    worst = 0.0
    for j in (0, m // 2, m):
        law = backend.law(sol.lo + j, sol.node(j, backend) - sol.tail[j])
        atoms = law.atoms
        pairs = [
            (law, lossop.EmpiricalLaw(atoms + 0.25, law.weights)),
            (law, lossop.EmpiricalLaw(atoms * 1.1, law.weights)),
            (law, lossop.EmpiricalLaw(atoms + 0.1 * np.sin(atoms), law.weights)),
        ]
        t_j = float(result.grid.nodes[sol.lo + j])
        worst = max(worst, lossop.hl_lipschitz_probe(loss, t_j, pairs))
    return worst


def cmd_verify(args) -> int:
    cfg = load_config(args.config, args.backend)
    out = _out_dir(args.out) if args.out is not None else None
    result, summary, _ = solve_and_summarize(cfg)
    checks = verify_checks(result, summary)
    report = {
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "warnings": [w for h in result.histories for w in h.warnings],
        "scenario_hash": summary["scenario_hash"],
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is not None:
        _write_outputs(out, lambda d: (d / "verify_report.json").write_text(text + "\n"))
    print(text)
    return 0 if report["passed"] else 1


def cmd_constants(args) -> int:
    from .picard import constants_report

    try:
        report = constants_report(hl_const=args.C, bound=args.L, lam=args.lam,
                                  alpha=args.alpha, horizon=args.T,
                                  radius=args.A_tilde)
    except ValueError as exc:
        print(f"picard: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_compare_oracle(args) -> int:
    from .oracle import oracle_compare, require_exact

    cfg = load_config(args.config)
    # both backends run unstitched to convergence and gate on the budgets only
    unused = [f"{name}.{key}" for name, key in (("backend", "kind"), ("picard", "max_iter"))
              if key in (cfg.raw.get(name) or {})]
    unused += [name for name in ("tolerances", "stitch", "debug")
               if cfg.raw.get(name) is not None]
    if unused:
        raise ConfigError(f"cli: compare-oracle does not use {', '.join(unused)}")
    # refuse before sampling the ensemble the comparison would need
    require_exact(cfg.scenario, cfg.n)
    out = _out_dir(args.out) if args.out is not None else None
    backend = build_backend(cfg, make_grid(cfg.scenario.horizon, cfg.n))
    report = oracle_compare(cfg.scenario, backend, cfg.picard_tol,
                            cfg.lattice_budget, cfg.mc_budget)
    if out is not None:
        _write_outputs(out, lambda d: _write_comparison_csv(d / "comparison.csv", report))
    print(json.dumps(report, indent=2, sort_keys=True))
    ok = report["lattice"]["within"] and report["regression"]["within"]
    return 0 if ok else 1


def _write_comparison_csv(path: Path, report: dict):
    lines = ["node,exact_mean_y,exact_k"]
    for i, (my, k) in enumerate(zip(report["exact"]["mean_y"], report["exact"]["k"])):
        lines.append(f"{i},{_fmt(my)},{_fmt(k)}")
    lines.append("")
    lines.append("backend,max_dev_mean_y,max_dev_k,dev_flatness,within")
    for kind in ("lattice", "regression"):
        r = report[kind]
        lines.append(f"{kind},{_fmt(r['mean_y'])},{_fmt(r['k'])},"
                     f"{_fmt(r['flatness'])},{r['within']}")
    path.write_text("\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mrbsde",
        description="Mean-reflected BSDE solver and verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a solve and write CSV/JSON results")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--backend", choices=["lattice", "regression"])
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run a solve and assert its contracts")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out")
    p_verify.add_argument("--backend", choices=["lattice", "regression"])
    p_verify.set_defaults(func=cmd_verify)

    p_const = sub.add_parser("constants", help="print the horizon/bound constants")
    p_const.add_argument("--C", type=float, required=True)
    p_const.add_argument("--L", type=float, required=True)
    p_const.add_argument("--lambda", dest="lam", type=float, required=True)
    p_const.add_argument("--alpha", type=float, default=0.0)
    p_const.add_argument("--T", type=float)
    p_const.add_argument("--A-tilde", dest="A_tilde", type=float)
    p_const.set_defaults(func=cmd_constants)

    p_cmp = sub.add_parser("compare-oracle",
                           help="compare both backends against the exact solver")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out")
    p_cmp.set_defaults(func=cmd_compare_oracle)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except SolverError as exc:
        layer = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"{layer}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
