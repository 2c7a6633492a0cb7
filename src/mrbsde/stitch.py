"""Global solver for resistance-free drivers: partition the horizon into
sub-intervals within the contraction horizon, solve backward interval by
interval, each from the later one's node 0, paste each as it returns, so a
solve holds one interval at a time, and add the reflection offsets that keep
the global path continuous."""

from __future__ import annotations

import math

import numpy as np

from .model import QUADRATIC, ScenarioSpec, SolverError
from .paths import TimeGrid
from .picard import (DEFAULT_MAX_ITER, ConstantsReport, PicardHistory,
                     constants_report, contraction_horizon, picard_solve,
                     scenario_constants)
from .reflect import ReflectedSolution, diagnostics_record, flatness_residual, no_stats


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

    Each interval's terminal condition is the later interval's node 0, kept
    or replayed from its record (the same random variable on the shared
    ensemble). Each interval's nodes, records and per-particle sup are
    pasted as it returns, and it is dropped before the next one solves; its
    K, m + 1 floats, is kept, and the reflection offsets accumulate over
    them at the end, left to right, so the global path is continuous, starts
    at zero, and stays nondecreasing.
    """
    if scenario.resistance.kind != "zero":
        raise PlanError("global stitching requires a resistance-free generator")
    if breaks[0] != 0 or breaks[-1] != grid.n or any(
            b >= c for b, c in zip(breaks, breaks[1:])):
        raise PlanError("plan breakpoints must ascend from 0 to n")

    n = grid.n
    y, z_record = [None] * (n + 1), [None] * n
    tail, offsets, k = np.zeros(n + 1), np.zeros(n), np.zeros(n + 1)
    stats = no_stats(n)
    histories: list[PicardHistory] = []
    ks, sup, terminal = [], None, None
    for j in range(len(breaks) - 2, -1, -1):
        lo, hi = breaks[j], breaks[j + 1]
        piece, hist = picard_solve(scenario, grid, backend, tol=tol,
                                   max_iter=max_iter, lo=lo, hi=hi,
                                   terminal_values=terminal, constants=constants)
        histories.append(hist)
        own = hi + 1 - lo if hi == n else hi - lo
        # the piece's own values, records and tail: its y already holds the
        # later reflection, and its record is of these same node values
        y[lo:lo + own] = piece.y[:own]
        tail[lo:lo + own] = piece.tail[:own]
        for key, values in stats.items():
            values[lo:lo + own] = piece.stats[key][:own]
        # the piece's own step offsets: its last step projected the seam
        # value itself, at offset 0, whatever the global tail there
        offsets[lo:hi] = piece.step_offsets
        z_record[lo:hi] = piece.z_record
        ks.append(piece.k)
        sup = piece.sup if sup is None else np.maximum(sup, piece.sup, out=sup)
        terminal = piece.node(0, backend)
        piece = None   # released before the next window solves
    histories.reverse()

    offset = 0.0
    for lo, hi, piece_k in zip(breaks, breaks[1:], reversed(ks)):
        k[lo:hi + 1] = piece_k + offset
        offset += piece_k[-1]

    constraint = stats["constraint"]
    solution = ReflectedSolution(
        lo=0, hi=n, y=y, k=k, tail=tail, step_offsets=offsets, z_record=z_record,
        stats=stats, sup=sup,
        diagnostics=diagnostics_record(constraint, stats["constraint_se"],
                                       flatness_residual(constraint, k)))
    return solution, histories
