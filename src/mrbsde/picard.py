"""Fixed-point layer: closed-form horizon/bound constants, the iteration over
(y, z, k) triples, convergence monitoring, and the contraction estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import LIPSCHITZ, QUADRATIC, ScenarioSpec, SolverError, hl_constant
from .paths import TimeGrid
from .reflect import (FrozenInputs, ReflectedSolution, bmo_proxy, solve_interval,
                      window_grid, zero_solution)

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
    base = 1.0 / (40.0 * (38.0 + 10.0 * hl_const ** 2) * lam ** 2)
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
                                  lam: float, alpha: float,
                                  reading: str = "reciprocal"):
    """Interval length below which the quadratic-case map halves distances.

    The printed source of the third argument admits two readings; both are
    computed and the selected one enters the min (the literal reading grows
    with the coefficient and cannot bound a small horizon, so the reciprocal
    is the default).  Returns (selected, literal, reciprocal).
    """
    if reading not in ("literal", "reciprocal"):
        raise ValueError("reading must be 'literal' or 'reciprocal'")
    _require_alpha(alpha)
    coeff = quadratic_contraction_coeff(hl_const, lam, radius)
    stability = quadratic_stability_horizon(radius, bound, lam, alpha)
    expo = 1.0 / (1.0 - alpha)
    third_literal = (coeff ** 2 * lam ** 2 / (24.0 * radius ** (2.0 * alpha))) ** expo
    third_reciprocal = (1.0 / (24.0 * radius ** (2.0 * alpha) * coeff ** 2 * lam ** 2)) ** expo
    head = min(1.0 / (4.0 * coeff * lam), 1.0 / (12.0 * coeff ** 2 * lam ** 2))
    literal = min(head, third_literal, stability)
    reciprocal = min(head, third_reciprocal, stability)
    selected = reciprocal if reading == "reciprocal" else literal
    return selected, literal, reciprocal


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
    reading: str = "reciprocal"
    delta_lipschitz: float | None = None
    ball_floor: float | None = None
    delta_stability: float | None = None
    contraction_coeff: float | None = None
    delta_contraction: float | None = None
    delta_contraction_literal: float | None = None
    delta_contraction_reciprocal: float | None = None
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
                     radius: float | None = None,
                     reading: str = "reciprocal") -> ConstantsReport:
    """Evaluate every constant that the inputs allow; radius defaults to the
    ball floor."""
    delta_lip = lipschitz_horizon(hl_const, lam) if lam > 0.0 else math.inf
    fields = dict(hl_const=hl_const, lam=lam, alpha=alpha, bound=bound,
                  horizon=horizon, reading=reading, delta_lipschitz=delta_lip)
    if bound is not None and lam > 0.0:
        floor = quadratic_ball_floor(hl_const, bound, lam)
        radius = floor if radius is None else radius
        if radius < floor:
            raise ValueError(f"radius {radius:g} below the admissible floor {floor:g}")
        selected, literal, reciprocal = quadratic_contraction_horizon(
            radius, hl_const, bound, lam, alpha, reading)
        fields.update(
            radius=radius,
            ball_floor=floor,
            delta_stability=quadratic_stability_horizon(radius, bound, lam, alpha),
            contraction_coeff=quadratic_contraction_coeff(hl_const, lam, radius),
            delta_contraction=selected,
            delta_contraction_literal=literal,
            delta_contraction_reciprocal=reciprocal,
        )
        if horizon is not None:
            b1, b2, b = uniform_y_bound(hl_const, bound, lam, horizon)
            fields.update(y_bound_first=b1, y_bound_second=b2, y_bound=b)
    return ConstantsReport(**fields)


def scenario_constants(scenario: ScenarioSpec, radius: float | None = None,
                       reading: str = "reciprocal") -> ConstantsReport:
    return constants_report(hl_constant(scenario.loss), scenario.effective_bound(),
                            scenario.driver.lam, scenario.driver.alpha,
                            horizon=scenario.horizon, radius=radius,
                            reading=reading)


def contraction_horizon(constants: ConstantsReport, mode: str) -> float | None:
    """Interval length below which the mode's solution map contracts."""
    return constants.delta_contraction if mode == QUADRATIC else constants.delta_lipschitz


# ---------------------------------------------------------------------------
# The fixed-point iteration
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PicardHistory:
    mode: str
    metric: str
    tolerance: float
    distances: list[float] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    warnings: list[str] = field(default_factory=list)
    ball_radius: float | None = None
    ball_records: list[dict] = field(default_factory=list)

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
            "warnings": self.warnings, "ball_radius": self.ball_radius,
            "ball_records": self.ball_records,
        }


@dataclass(frozen=True)
class ContractionEstimate:
    max_ratio: float
    bound: float
    metric: str
    n_ratios: int


def iterate_distance(prev: ReflectedSolution, new: ReflectedSolution,
                     grid: TimeGrid, backend, mode: str) -> float:
    """Distance between consecutive iterates on the shared ensemble.

    Lipschitz mode uses the root-sum-square of (sample S2, sample H2, sup-k);
    quadratic mode sums (sample S-inf, BMO proxy, sup-k).
    """
    lo = new.lo
    dy = [a - b for a, b in zip(new.y, prev.y)]
    dz = [a - b for a, b in zip(new.z, prev.z)]
    dk = float(np.max(np.abs(new.k - prev.k)))
    if mode == LIPSCHITZ:
        s2_sq = backend.sup_sq_mean(dy, lo)
        h2_sq = sum(backend.mean(lo + j, np.sum(dz[j] ** 2, axis=-1))
                    for j in range(len(dz) - 1)) * grid.dt
        return math.sqrt(s2_sq + h2_sq + dk * dk)
    s_inf = max(float(np.max(np.abs(v))) for v in dy)
    return s_inf + bmo_proxy(dz, grid, backend, lo) + dk


def _frozen_from(scenario, grid, backend,
                 prev: ReflectedSolution) -> tuple[FrozenInputs, bool]:
    lo, hi = prev.lo, prev.hi
    m = hi - lo
    mean_y = np.array([float(backend.mean(lo + j, prev.y[j])) for j in range(m + 1)])
    mean_z = np.vstack([np.atleast_1d(backend.mean(lo + j, prev.z[j]))
                        for j in range(m + 1)])
    resistance = scenario.resistance.apply(window_grid(grid, lo, hi), prev.k)
    k_tail = prev.k[-1] - prev.k
    if scenario.mode == QUADRATIC:
        return FrozenInputs(mean_y, mean_z, resistance, k_tail,
                            y_ensemble=prev.y), False
    return FrozenInputs(mean_y, mean_z, resistance, k_tail), True


def _ball_record(sol: ReflectedSolution, grid, backend, radius: float) -> dict:
    s_inf = max(float(np.max(np.abs(v))) for v in sol.y)
    bmo = bmo_proxy(sol.z, grid, backend, sol.lo)
    k_sup = float(np.max(np.abs(sol.k)))
    return {"s_inf": s_inf, "bmo": bmo, "k_sup": k_sup,
            "inside": bool(s_inf <= radius and bmo <= radius and k_sup <= radius)}


def picard_solve(scenario: ScenarioSpec, grid: TimeGrid, backend,
                 tol: float | None = None, max_iter: int = DEFAULT_MAX_ITER,
                 lo: int = 0, hi: int | None = None, terminal_values=None,
                 constants: ConstantsReport | None = None
                 ) -> tuple[ReflectedSolution, PicardHistory]:
    """Iterate the reflected solve from the zero triple until the inter-iterate
    distance falls below `tol` (default `backend.picard_tol`) or stalls.

    The scenario's driver fixes the mode. `constants` (default: the scenario's)
    gives the quadratic ball radius and the contraction horizon, which is
    advisory: exceeding it records a warning but does not refuse the solve.
    """
    mode = scenario.mode
    hi = grid.n if hi is None else hi
    tol = backend.picard_tol if tol is None else tol
    constants = scenario_constants(scenario) if constants is None else constants
    metric = "rss(S2,H2,supK)" if mode == LIPSCHITZ else "sum(Sinf,BMO,supK)"
    history = PicardHistory(mode=mode, metric=metric, tolerance=tol)
    if mode == QUADRATIC:
        history.ball_radius = constants.radius

    window_T = (hi - lo) * grid.dt
    delta = contraction_horizon(constants, mode)
    if window_T > delta:
        history.warnings.append(
            f"horizon {window_T:g} exceeds the contraction horizon {delta:g} "
            "(advisory)")

    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))

    prev = zero_solution(backend, lo, hi)
    solution = None
    for sweep in range(1, max_iter + 1):
        frozen, implicit = _frozen_from(scenario, grid, backend, prev)
        solution = solve_interval(scenario, grid, backend, frozen, implicit,
                                  lo, hi, terminal_values)
        dist = iterate_distance(prev, solution, grid, backend, mode)
        history.distances.append(dist)
        if mode == QUADRATIC:
            record = _ball_record(solution, grid, backend, constants.radius)
            history.ball_records.append(record)
            if not record["inside"]:
                history.warnings.append(
                    f"iterate {sweep} left the radius-{constants.radius:g} ball: {record}")
        if dist <= tol:
            history.converged = True
            history.stop_reason = "tolerance"
            break
        d = history.distances
        if (len(d) > STALL_WINDOW and d[-1 - STALL_WINDOW] > 0.0
                and d[-1] <= d[-1 - STALL_WINDOW]
                and (d[-1 - STALL_WINDOW] - d[-1]) < STALL_REL * d[-1 - STALL_WINDOW]):
            history.converged = True
            history.stop_reason = "stalled"
            break
        prev = solution
    if not history.converged:
        raise ConvergenceError(
            f"picard: no convergence after {max_iter} sweeps "
            f"(last distance {history.distances[-1]:.3g})", history=history)
    return solution, history


def contraction_estimate(history: PicardHistory) -> ContractionEstimate:
    """Largest consecutive-distance ratio, labeled with the mode's bound."""
    if len(history.distances) < 2:
        raise ValueError("need at least two sweeps to estimate contraction")
    ratios = [r for r in history.ratios if not math.isnan(r)]
    if not ratios:
        raise ValueError("no nonzero distances to form ratios")
    bound = (LIPSCHITZ_RATIO_BOUND if history.mode == LIPSCHITZ
             else QUADRATIC_RATIO_BOUND)
    return ContractionEstimate(max_ratio=max(ratios), bound=bound,
                               metric=history.metric, n_ratios=len(ratios))
