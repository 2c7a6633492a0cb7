"""Global solver for resistance-free drivers: partition the horizon into
sub-intervals within the contraction horizon, solve backward interval by
interval with the pasted terminal value, and concatenate with reflection
offsets that keep the global path continuous."""

from __future__ import annotations

import math

import numpy as np

from .model import QUADRATIC, ScenarioSpec, SolverError
from .paths import TimeGrid
from .picard import (DEFAULT_MAX_ITER, ConstantsReport, PicardHistory,
                     constants_report, contraction_horizon, picard_solve,
                     scenario_constants)
from .reflect import ReflectedSolution, diagnostics_record, flatness_residual


class PlanError(SolverError):
    """The requested partition is not admissible."""

    exit_code = 3


def stitch_constants(scenario: ScenarioSpec) -> ConstantsReport:
    """Constants governing the interval length.

    In quadratic mode the per-interval ball radius is rebuilt from the
    horizon-uniform bound on the constrained component, so every interval of
    the backward induction stays admissible. Every quadratic scenario has that
    bound: building its driver checks that the parameters give `lam > 0` and
    that a `zero_bound` is set. Both reports take the driver's exponent
    alpha = 0.
    """
    base = scenario_constants(scenario)
    if scenario.mode != QUADRATIC:
        return base
    return constants_report(base.hl_const, base.y_bound, base.lam,
                            horizon=scenario.horizon)


def plan_intervals(scenario: ScenarioSpec, grid: TimeGrid,
                   constants: ConstantsReport,
                   intervals: int | None = None) -> list[int]:
    """Partition [0, T] into sub-intervals snapped to grid nodes: the
    breakpoints as grid-node indices, ascending from 0 to n.

    Without an explicit count the partition is the balanced one with every
    length at most the contraction horizon. An explicit count overrides the
    horizon (it is sufficient, not necessary); each interval longer than it
    records the warning of its own `picard_solve`.
    """
    if scenario.resistance.kind != "zero":
        raise PlanError("global stitching requires a resistance-free generator "
                        "(the local solver remains available)")
    delta = contraction_horizon(constants, scenario.mode)
    if delta is None:
        raise PlanError("constants report lacks the applicable horizon")
    if intervals is None:
        steps = delta / grid.dt * (1.0 + 1e-12)   # inf for an infinite or huge horizon
        if steps >= grid.n:
            m = 1
        elif steps < 1.0:
            raise PlanError(
                f"contraction horizon {delta:g} is below one grid step "
                f"{grid.dt:g}; use a finer grid")
        else:
            m = int(math.ceil(grid.n / math.floor(steps)))
    else:
        if not 1 <= intervals <= grid.n:
            raise PlanError("interval count must lie in [1, n]")
        m = intervals
    base, extra = divmod(grid.n, m)
    return [j * base + min(j, extra) for j in range(m + 1)]


def solve_global(scenario: ScenarioSpec, grid: TimeGrid, backend, breaks: list[int],
                 constants: ConstantsReport, tol: float | None = None,
                 max_iter: int = DEFAULT_MAX_ITER
                 ) -> tuple[ReflectedSolution, list[PicardHistory]]:
    """Solve right-to-left over the intervals between `breaks` and paste;
    returns the global solution and each interval's history, left to right.

    Each interval's terminal condition is the pasted solution value at its
    right edge (the same random variable on the shared ensemble); the
    reflection offsets accumulate so the global path is continuous,
    starts at zero, and stays nondecreasing.
    """
    if scenario.resistance.kind != "zero":
        raise PlanError("global stitching requires a resistance-free generator")
    if breaks[0] != 0 or breaks[-1] != grid.n or any(
            b >= c for b, c in zip(breaks, breaks[1:])):
        raise PlanError("plan breakpoints must ascend from 0 to n")

    pieces: list[ReflectedSolution] = []
    histories: list[PicardHistory] = []
    terminal = None
    for j in range(len(breaks) - 2, -1, -1):
        lo, hi = breaks[j], breaks[j + 1]
        sol, hist = picard_solve(scenario, grid, backend, tol=tol,
                                 max_iter=max_iter, lo=lo, hi=hi,
                                 terminal_values=terminal, constants=constants)
        pieces.append(sol)
        histories.append(hist)
        terminal = sol.y[0]
    pieces.reverse()
    histories.reverse()

    n = grid.n
    y = [None] * (n + 1)
    tail, offsets = np.zeros(n + 1), np.zeros(n)
    k = np.zeros(n + 1)
    constraint = np.empty(n + 1)
    constraint_se = np.empty(n + 1)
    offset = 0.0
    for j, piece in enumerate(pieces):
        lo, hi = breaks[j], breaks[j + 1]
        own_hi = hi + 1 if j == len(pieces) - 1 else hi
        for i in range(lo, own_hi):
            idx = i - lo
            y[i] = piece.y[idx]
            # the piece's own tail: its y already holds the later reflection
            tail[i] = piece.tail[idx]
            # the pieces evaluated the loss on these same node values
            constraint[i] = piece.diagnostics["constraint"][idx]
            constraint_se[i] = piece.diagnostics["constraint_se"][idx]
        # the piece's own step offsets: its last step projected the seam
        # value itself, at offset 0, whatever the global tail there
        offsets[lo:hi] = piece.step_offsets
        k[lo:hi + 1] = piece.k + offset
        offset += piece.k[-1]

    solution = ReflectedSolution(
        lo=0, hi=n, y=y, k=k, tail=tail, step_offsets=offsets,
        diagnostics=diagnostics_record(constraint, constraint_se,
                                       flatness_residual(constraint, k)))
    return solution, histories
