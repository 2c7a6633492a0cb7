"""Fixed-point layer: closed-form horizon/bound constants, the iteration over
(y, z, k) triples, convergence monitoring, and the contraction estimator."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .model import (LIPSCHITZ, QUADRATIC, ScenarioSpec, SolverError, _require_finite,
                    hl_constant)
from .paths import TimeGrid
from .reflect import (ReflectedSolution, ScalarSweeps, bmo_proxy, complete_record,
                      solve_interval, sq_norms, sup_norm, zero_solution)

DEFAULT_MAX_ITER = 50
STALL_WINDOW = 3
STALL_REL = 1e-3
LIPSCHITZ_RATIO_BOUND = 1.0 / math.sqrt(2.0)
QUADRATIC_RATIO_BOUND = 0.5


class ConvergenceError(SolverError):
    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


# ---------------------------------------------------------------------------
# Horizon and bound constants
# ---------------------------------------------------------------------------


def lipschitz_horizon(hl_const: float, lam: float) -> float:
    """Interval length below which the Lipschitz-case solution map contracts."""
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if hl_const < 0.0:
        raise ValueError("hl_const must be nonnegative")
    coeff = 40.0 * (38.0 + 10.0 * hl_const ** 2)
    # below the normal range lam ** 2 loses its bits or underflows to 0
    if lam ** 2 >= sys.float_info.min:
        base = 1.0 / (coeff * lam ** 2)
    else:
        base = 1.0 / lam / (coeff * lam)
    return min(math.sqrt(base), base)


def quadratic_ball_floor(hl_const: float, bound: float, lam: float) -> float:
    """Smallest admissible radius of the invariant ball in the quadratic case."""
    _require_positive(bound=bound, lam=lam)
    return ((4.0 + 3.0 * hl_const) * bound
            + (1.0 + hl_const * lam) * (1.0 + 3.0 * bound / lam)
            * math.exp(9.0 * lam * bound))


def quadratic_stability_horizon(radius: float, bound: float, lam: float,
                                alpha: float) -> float:
    """Interval length keeping the solution map inside the radius-ball."""
    _require_positive(radius=radius, bound=bound, lam=lam)
    _require_alpha(alpha)
    return min(bound / (9.0 * lam * radius),
               bound ** 2 / (9.0 * lam ** 2 * radius ** 2),
               (bound / (3.0 * lam * radius ** (1.0 + alpha))) ** (2.0 / (1.0 - alpha)))


def quadratic_contraction_coeff(hl_const: float, lam: float, radius: float) -> float:
    """Aggregate constant multiplying the input distances in the quadratic case."""
    _require_positive(lam=lam, radius=radius)
    return (4.0 + 3.0 * hl_const
            + 2.0 * math.sqrt(1.0 + 12.0 * lam ** 2 + 24.0 * lam ** 2 * radius ** 2)
            * (1.0 + (1.0 + 3.0 * hl_const) * lam * math.sqrt(3.0 + 6.0 * radius ** 2)))


def quadratic_contraction_horizon(radius: float, hl_const: float, bound: float,
                                  lam: float, alpha: float) -> float:
    """Interval length below which the quadratic-case map halves distances.

    The printed third argument is read as the reciprocal of
    24 A^(2 alpha) c^2 lam^2, raised to 1/(1-alpha): read literally it grows
    with the coefficient c and cannot bound a small horizon.
    """
    _require_alpha(alpha)
    coeff = quadratic_contraction_coeff(hl_const, lam, radius)
    third = ((1.0 / (24.0 * radius ** (2.0 * alpha) * coeff ** 2 * lam ** 2))
             ** (1.0 / (1.0 - alpha)))
    return min(1.0 / (4.0 * coeff * lam), 1.0 / (12.0 * coeff ** 2 * lam ** 2), third,
               quadratic_stability_horizon(radius, bound, lam, alpha))


def uniform_y_bound(hl_const: float, bound: float, lam: float,
                    horizon: float) -> tuple[float, float, float]:
    """Horizon-dependent uniform bounds (deflated, quadratic-variation, full)."""
    _require_positive(bound=bound, lam=lam, horizon=horizon)
    b1 = bound * (horizon + 1.0) * math.exp(lam * horizon)
    b2 = (max(1.0, horizon) / 3.0
          * (1.0 + 4.0 * bound / lam + 2.0 * b1) * math.exp(3.0 * lam * b1))
    b = (b1 + (hl_const + 1.0) * bound
         + hl_const * (bound + 0.5 * lam) * horizon + 1.5 * hl_const * b2)
    return b1, b2, b


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if value <= 0.0:
            raise ValueError(f"{name} must be positive")


def _require_alpha(alpha: float):
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")


@dataclass(frozen=True)
class ConstantsReport:
    """All horizon/bound constants for one parameter set, inputs echoed."""

    hl_const: float
    lam: float
    alpha: float = 0.0
    bound: float | None = None
    horizon: float | None = None
    radius: float | None = None
    delta_lipschitz: float | None = None
    ball_floor: float | None = None
    delta_stability: float | None = None
    contraction_coeff: float | None = None
    delta_contraction: float | None = None
    y_bound_first: float | None = None
    y_bound_second: float | None = None
    y_bound: float | None = None

    def to_dict(self) -> dict:
        def clean(v):
            if v is None or (isinstance(v, float) and not math.isfinite(v)):
                return None
            return v
        return {k: clean(getattr(self, k)) for k in self.__dataclass_fields__}


def constants_report(hl_const: float, bound: float | None, lam: float,
                     alpha: float = 0.0, horizon: float | None = None,
                     radius: float | None = None) -> ConstantsReport:
    """Evaluate every constant that the inputs allow; a `bound` adds the
    quadratic ones, which need `lam > 0`, with the radius defaulting to the
    ball floor. Raises ValueError on a non-finite input, on overflow, or on a
    divisor that underflows to 0."""
    _require_finite("constants_report", hl_const, bound, lam, alpha, horizon, radius)
    try:
        delta_lip = lipschitz_horizon(hl_const, lam) if lam > 0.0 else math.inf
        fields = dict(hl_const=hl_const, lam=lam, alpha=alpha, bound=bound,
                      horizon=horizon, delta_lipschitz=delta_lip)
        if bound is not None:
            floor = quadratic_ball_floor(hl_const, bound, lam)
            radius = floor if radius is None else radius
            if radius < floor:
                raise ValueError(f"radius {radius:g} below the admissible floor {floor:g}")
            fields.update(
                radius=radius,
                ball_floor=floor,
                delta_contraction=quadratic_contraction_horizon(
                    radius, hl_const, bound, lam, alpha),
                delta_stability=quadratic_stability_horizon(radius, bound, lam, alpha),
                contraction_coeff=quadratic_contraction_coeff(hl_const, lam, radius),
            )
            if horizon is not None:
                b1, b2, b = uniform_y_bound(hl_const, bound, lam, horizon)
                fields.update(y_bound_first=b1, y_bound_second=b2, y_bound=b)
    except OverflowError as exc:
        raise ValueError(f"a horizon or bound constant overflows: {exc}") from exc
    except ZeroDivisionError as exc:
        raise ValueError("a horizon constant underflows: its divisor rounds "
                         "to 0") from exc
    return ConstantsReport(**fields)


def scenario_constants(scenario: ScenarioSpec) -> ConstantsReport:
    return constants_report(hl_constant(scenario.loss), scenario.effective_bound(),
                            scenario.driver.lam, horizon=scenario.horizon)


def contraction_horizon(constants: ConstantsReport, mode: str) -> float | None:
    """Interval length below which the mode's solution map contracts."""
    return constants.delta_contraction if mode == QUADRATIC else constants.delta_lipschitz


# ---------------------------------------------------------------------------
# The fixed-point iteration
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PicardHistory:
    mode: str
    tolerance: float
    distances: list[float] = field(default_factory=list)
    stop_reason: str = ""
    warnings: list[str] = field(default_factory=list)
    ball_records: list[dict] = field(default_factory=list)

    @property
    def metric(self) -> str:
        return "rss(S2,H2,supK)" if self.mode == LIPSCHITZ else "sum(Sinf,BMO,supK)"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"

    @property
    def ratios(self) -> list[float]:
        out = []
        for prev, cur in zip(self.distances, self.distances[1:]):
            out.append(cur / prev if prev > 0.0 else math.nan)
        return out

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "metric": self.metric, "tolerance": self.tolerance,
            "distances": self.distances,
            "ratios": [None if math.isnan(r) else r for r in self.ratios],
            "converged": self.converged, "stop_reason": self.stop_reason,
            "warnings": self.warnings, "ball_records": self.ball_records,
        }


def iterate_distance(prev: ReflectedSolution, new: ReflectedSolution,
                     grid: TimeGrid, backend, mode: str) -> float:
    """Distance between two complete iterates on the shared ensemble.

    Lipschitz mode uses the root-sum-square of (sample S2, sample H2, sup-k);
    quadratic mode sums (sample S-inf, BMO proxy, sup-k). Both y terms reduce
    the differences node by node. dz_j is refit, as the z-fit of the change
    in the value step j projected. The sweep finds the same distance inside
    its backward pass (`solve_interval`); this is the distance pass of the
    two-pass reference the tests compare it with.
    """
    lo, m = new.lo, len(new.y) - 1
    dy = (new.y[j] - prev.y[j] for j in range(m + 1))
    dk = float(np.max(np.abs(new.k - prev.k)))
    if mode == LIPSCHITZ:
        s2_sq = backend.sup_sq_mean(enumerate(dy, lo))[0]
        moved = ((new.y[j + 1] - new.step_offsets[j]) - (prev.y[j + 1] - prev.step_offsets[j])
                 for j in range(m))
        dz_sq = sum(backend.mean(lo + j, sq_norms(backend.condexp_and_z(lo + j, v)[1]))
                    for j, v in enumerate(moved)) * grid.dt
        return math.sqrt(s2_sq + dz_sq + dk * dk)
    dy = list(dy)
    dc = new.step_offsets - prev.step_offsets
    return sup_norm(dy) + bmo_proxy(dy, dc, grid, backend, lo) + dk


def picard_solve(scenario: ScenarioSpec, grid: TimeGrid, backend,
                 tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER,
                 lo: int = 0, hi: int | None = None, terminal_values=None,
                 constants: ConstantsReport | None = None
                 ) -> tuple[ReflectedSolution, PicardHistory]:
    """Iterate the reflected solve from the zero triple until the inter-iterate
    distance falls below `tol` (default `backend.picard_tol`) or stalls.

    Each sweep is one backward pass written over the previous iterate, so a
    solve holds at most one iterate's y: a Lipschitz driver's first sweep
    keeps node records at lam = 0 and node values at lam > 0, and its later
    sweeps run on per-node scalars (`ScalarSweeps`), which add offsets to
    those values. A stall returns the last iterate with
    `stop_reason="stalled"`, so `converged` is False; running out of
    `max_iter` raises `ConvergenceError`. The returned iterate carries its
    whole record and the diagnostics: `complete_record` records from its
    values an answer no sweep recorded.

    The scenario's driver fixes the mode. `constants` (default: the scenario's)
    gives the quadratic ball radius and the contraction horizon, which is
    advisory: exceeding it records a warning but does not refuse the solve.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    mode = scenario.mode
    hi = grid.n if hi is None else hi
    tol = backend.picard_tol if tol is None else tol
    constants = scenario_constants(scenario) if constants is None else constants
    history = PicardHistory(mode=mode, tolerance=tol)

    window_T = (hi - lo) * grid.dt
    delta = contraction_horizon(constants, mode)
    if window_T > delta:
        history.warnings.append(
            f"horizon {window_T:g} exceeds the contraction horizon {delta:g} "
            "(advisory)")

    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))

    prev = zero_solution(backend, lo, hi, block=mode == QUADRATIC)
    solution = later = None
    for sweep in range(1, max_iter + 1):
        if later is None:
            solution, dist = solve_interval(scenario, grid, backend, prev, terminal_values)
        else:
            dist = later.sweep()
        history.distances.append(dist)
        if mode == QUADRATIC:
            record = {**solution.ball,
                      "inside": all(v <= constants.radius for v in solution.ball.values())}
            history.ball_records.append(record)
            if not record["inside"]:
                history.warnings.append(
                    f"iterate {sweep} left the radius-{constants.radius:g} ball: {record}")
        if dist <= tol:
            history.stop_reason = "tolerance"
            break
        # stalled: the last STALL_WINDOW sweeps all failed to improve on the
        # best earlier distance by STALL_REL, and the last is no new maximum
        # (a diverging run stays a ConvergenceError)
        d = history.distances
        if (len(d) > STALL_WINDOW and d[-1] <= max(d[:-1])
                and min(d[-STALL_WINDOW:]) > (1.0 - STALL_REL) * min(d[:-STALL_WINDOW])):
            history.stop_reason = "stalled"
            break
        if later is None and mode == LIPSCHITZ:
            later = ScalarSweeps(scenario, grid, backend, solution)
        prev = solution
    if not history.stop_reason:
        raise ConvergenceError(
            f"no convergence after {max_iter} sweeps "
            f"(last distance {history.distances[-1]:.3g})", history=history)
    if later is not None:
        solution = later.write_back()
    complete_record(scenario.loss, grid, backend, solution)
    return solution, history


def contraction_estimate(histories: list[PicardHistory]) -> dict | None:
    """The largest consecutive-distance ratio over every history's sweeps,
    with the mode's bound and metric; None when no history has a ratio. The
    histories are one scenario's intervals, so they share its mode."""
    ratios = [r for h in histories for r in h.ratios if not math.isnan(r)]
    if not ratios:
        return None
    first = histories[0]
    bound = LIPSCHITZ_RATIO_BOUND if first.mode == LIPSCHITZ else QUADRATIC_RATIO_BOUND
    return {"max_ratio": max(ratios), "bound": bound, "metric": first.metric}
