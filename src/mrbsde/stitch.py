"""Global solver for resistance-free drivers: partition the horizon into
sub-intervals within the contraction horizon, solve backward interval by
interval with the pasted terminal value, and concatenate with reflection
offsets that keep the global path continuous."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import QUADRATIC, ScenarioSpec, SolverError
from .paths import TimeGrid
from .picard import (ConstantsReport, PicardHistory, constants_report,
                     contraction_horizon, picard_solve, scenario_constants)
from .reflect import ReflectedSolution, flatness_residual


class PlanError(SolverError):
    """The requested partition is not admissible."""

    exit_code = 3


@dataclass(eq=False)
class IntervalPlan:
    """Breakpoints as grid-node indices, ascending from 0 to n."""

    breaks: list[int]
    delta_star: float
    constants: ConstantsReport
    warnings: list[str] = field(default_factory=list)

    @property
    def n_intervals(self) -> int:
        return len(self.breaks) - 1

    def lengths(self, grid: TimeGrid) -> list[float]:
        return [(b - a) * grid.dt for a, b in zip(self.breaks, self.breaks[1:])]


def stitch_constants(scenario: ScenarioSpec, radius: float | None = None) -> ConstantsReport:
    """Constants governing the interval length.

    In quadratic mode the per-interval ball radius is rebuilt from the
    horizon-uniform bound on the constrained component, so every interval of
    the backward induction stays admissible.
    """
    if scenario.mode != QUADRATIC:
        return scenario_constants(scenario, radius=radius)
    base = scenario_constants(scenario)
    if base.y_bound is None:
        raise PlanError("quadratic stitching needs the uniform bound, which "
                        "requires a declared zero-z bound and horizon")
    return constants_report(base.hl_const, base.y_bound, base.lam, base.alpha,
                            horizon=scenario.horizon, radius=radius)


def plan_intervals(scenario: ScenarioSpec, grid: TimeGrid,
                   constants: ConstantsReport,
                   intervals: int | None = None) -> IntervalPlan:
    """Partition [0, T] into sub-intervals snapped to grid nodes.

    Without an explicit count the partition is the balanced one with every
    length at most the contraction horizon; an explicit count overrides the
    horizon with a recorded warning (the horizon is sufficient, not necessary).
    """
    if scenario.resistance.kind != "zero":
        raise PlanError("global stitching requires a resistance-free generator "
                        "(the local solver remains available)")
    delta = contraction_horizon(constants, scenario.mode)
    if delta is None:
        raise PlanError("constants report lacks the applicable horizon")
    warnings = []
    if intervals is None:
        if not math.isfinite(delta):
            m = 1
        else:
            max_steps = int(math.floor(delta / grid.dt * (1.0 + 1e-12)))
            if max_steps < 1:
                raise PlanError(
                    f"contraction horizon {delta:g} is below one grid step "
                    f"{grid.dt:g}; use a finer grid")
            m = int(math.ceil(grid.n / max_steps))
    else:
        if not 1 <= intervals <= grid.n:
            raise PlanError("interval count must lie in [1, n]")
        m = intervals
    base, extra = divmod(grid.n, m)
    sizes = [base + (1 if j < extra else 0) for j in range(m)]
    breaks = [0]
    for s in sizes:
        breaks.append(breaks[-1] + s)
    lengths = [s * grid.dt for s in sizes]
    if math.isfinite(delta) and max(lengths) > delta * (1.0 + 1e-12):
        warnings.append(
            f"interval length {max(lengths):g} exceeds the contraction "
            f"horizon {delta:g} (advisory)")
    return IntervalPlan(breaks=breaks, delta_star=delta,
                        constants=constants, warnings=warnings)


@dataclass(eq=False)
class StitchReport:
    plan: IntervalPlan
    histories: list[PicardHistory]
    seam_constraints: list[float]

    @property
    def warnings(self) -> list[str]:
        out = list(self.plan.warnings)
        for h in self.histories:
            out.extend(h.warnings)
        return out


def solve_global(scenario: ScenarioSpec, grid: TimeGrid, backend,
                 plan: IntervalPlan, tol: float | None = None,
                 max_iter: int = 50) -> tuple[ReflectedSolution, StitchReport]:
    """Solve right-to-left and paste.

    Each interval's terminal condition is the pasted solution value at its
    right edge (the same random variable on the shared ensemble); the
    reflection offsets accumulate so the global path is continuous,
    starts at zero, and stays nondecreasing.
    """
    if scenario.resistance.kind != "zero":
        raise PlanError("global stitching requires a resistance-free generator")
    breaks = plan.breaks
    if breaks[0] != 0 or breaks[-1] != grid.n or any(
            b >= c for b, c in zip(breaks, breaks[1:])):
        raise PlanError("plan breakpoints must ascend from 0 to n")

    pieces: list[ReflectedSolution] = []
    histories: list[PicardHistory] = []
    terminal = None
    for j in range(plan.n_intervals - 1, -1, -1):
        lo, hi = breaks[j], breaks[j + 1]
        sol, hist = picard_solve(scenario, grid, backend, tol=tol,
                                 max_iter=max_iter, lo=lo, hi=hi,
                                 terminal_values=terminal, constants=plan.constants)
        pieces.append(sol)
        histories.append(hist)
        terminal = sol.y[0]
    pieces.reverse()
    histories.reverse()

    n = grid.n
    y = [None] * (n + 1)
    z = [None] * (n + 1)
    ybar = [None] * (n + 1)
    k = np.zeros(n + 1)
    rho = np.zeros(n + 1)
    constraint = np.empty(n + 1)
    constraint_se = np.empty(n + 1)
    offset = 0.0
    for j, piece in enumerate(pieces):
        lo, hi = breaks[j], breaks[j + 1]
        own_hi = hi + 1 if j == len(pieces) - 1 else hi
        for i in range(lo, own_hi):
            idx = i - lo
            y[i] = piece.y[idx]
            z[i] = piece.z[idx]
            ybar[i] = piece.y_deflated[idx]
            rho[i] = piece.rho[idx]
            # the pieces evaluated the loss on these same node values
            constraint[i] = piece.diagnostics["constraint"][idx]
            constraint_se[i] = piece.diagnostics["constraint_se"][idx]
        k[lo:hi + 1] = piece.k + offset
        offset += piece.k[-1]

    flat_right, flat_left = flatness_residual(constraint, k)
    solution = ReflectedSolution(
        lo=0, hi=n, y=y, z=z, k=k, y_deflated=ybar, rho=rho,
        diagnostics={
            "constraint": constraint,
            "constraint_se": constraint_se,
            "min_constraint": float(np.min(constraint)),
            "flatness_right": flat_right,
            "flatness_left": flat_left,
            "loss_tol": backend.loss_tol,
        })
    seam_constraints = [float(constraint[b]) for b in breaks[1:-1]]
    report = StitchReport(plan=plan, histories=histories,
                          seam_constraints=seam_constraints)
    return solution, report


def uniform_bound_check(solution: ReflectedSolution, constants: ConstantsReport,
                        scenario: ScenarioSpec, plan: IntervalPlan | None = None) -> dict:
    """Check the horizon-uniform bound on the constrained component.

    Applies in quadratic mode when the scenario declares the zero-z bound; the
    check reports violations rather than aborting.
    """
    applies = (scenario.mode == QUADRATIC
               and scenario.driver.zero_z_bound is not None
               and constants.y_bound is not None)
    s_inf = max(float(np.max(np.abs(v))) for v in solution.y)
    report = {"applies": applies, "s_inf": s_inf, "bound": constants.y_bound}
    if not applies:
        report["ok"] = None
        return report
    report["ok"] = bool(s_inf <= constants.y_bound)
    if plan is not None:
        per_interval = []
        for a, b in zip(plan.breaks, plan.breaks[1:]):
            local = max(float(np.max(np.abs(solution.y[i])))
                        for i in range(a, b + 1))
            per_interval.append({"nodes": [a, b], "s_inf": local,
                                 "ok": bool(local <= constants.y_bound)})
        report["per_interval"] = per_interval
        report["ok"] = report["ok"] and all(p["ok"] for p in per_interval)
    return report
