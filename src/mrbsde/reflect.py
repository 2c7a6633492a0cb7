"""Single-interval reflected solve with frozen (or per-step implicit) generator
inputs: deflated backward induction, the reflection path built as a backward
running supremum of minimal shifts of the deflated process's laws, and the
flatness / constraint diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lossop import loss_operator, DEFAULT_TOL
from .model import LossSpec, ScenarioSpec, SolverError
from .paths import TimeGrid

IMPLICIT_MAX_ITER = 50
IMPLICIT_TOL = 1e-12


class StepSizeError(SolverError):
    """The per-node fixed point cannot contract; the grid is too coarse."""

    exit_code = 3


class FixedPointError(SolverError):
    """The per-node fixed point failed to reach tolerance."""


def window_grid(grid: TimeGrid, lo: int, hi: int) -> TimeGrid:
    """Sub-grid spanning nodes lo..hi with the same step size."""
    m = hi - lo
    return TimeGrid(T=m * grid.dt, n=m, nodes=np.arange(m + 1) * grid.dt, dt=grid.dt)


@dataclass(eq=False)
class FrozenInputs:
    """Generator inputs frozen from the previous fixed-point iterate.

    All paths are window-local: index j corresponds to grid node lo + j.
    `y_ensemble` carries the pathwise frozen y slot of the explicit solve;
    `k_tail` is the frozen reflection tail entering the y slot of the implicit
    solve.
    """

    mean_y: np.ndarray
    mean_z: np.ndarray
    resistance: np.ndarray
    k_tail: np.ndarray
    y_ensemble: list | None = None


def zero_frozen(backend, lo: int, hi: int) -> FrozenInputs:
    m = hi - lo
    return FrozenInputs(mean_y=np.zeros(m + 1), mean_z=np.zeros((m + 1, backend.d)),
                        resistance=np.zeros(m + 1), k_tail=np.zeros(m + 1),
                        y_ensemble=[np.zeros(backend.count(i)) for i in range(lo, hi + 1)])


@dataclass(eq=False)
class DeflatedSweep:
    ybar: list
    z: list
    realized_f: list


def solve_deflated(scenario: ScenarioSpec, grid: TimeGrid, backend,
                   frozen: FrozenInputs, implicit_y: bool = False,
                   lo: int = 0, hi: int | None = None,
                   terminal_values=None) -> DeflatedSweep:
    """Backward Euler for the deflated (unconstrained) equation.

    The explicit solve takes the generator's y slot from the frozen ensemble
    and its z slot from the current integrand estimate. With `implicit_y` the
    y slot is the current unknown plus the frozen reflection tail, resolved by
    a per-node fixed point; this needs lam * dt < 1.
    """
    hi = grid.n if hi is None else hi
    m = hi - lo
    drv = scenario.driver
    dt = grid.dt
    if implicit_y and drv.lam * dt >= 1.0:
        raise StepSizeError(
            f"lam*dt = {drv.lam * dt:.3g} >= 1: per-node fixed point cannot "
            "contract; use a finer grid")

    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))
    ybar = [None] * (m + 1)
    zs = [None] * (m + 1)
    fvals = [None] * (m + 1)
    ybar[m] = np.asarray(terminal_values, dtype=float)
    zs[m] = np.zeros((backend.count(hi), backend.d))
    fvals[m] = np.zeros(backend.count(hi))

    for j in range(m - 1, -1, -1):
        i = lo + j
        t_i = grid.nodes[i]
        base, z_i = backend.condexp_and_z(i, ybar[j + 1])
        g_i = float(frozen.resistance[j])
        my = float(frozen.mean_y[j])
        mz = frozen.mean_z[j]
        if implicit_y:
            tail = float(frozen.k_tail[j])
            v = base
            f_v = None
            for _ in range(IMPLICIT_MAX_ITER):
                f_v = drv.evaluate(t_i, v + tail, my, z_i, mz, g_i)
                v_new = base + f_v * dt
                done = float(np.max(np.abs(v_new - v))) <= IMPLICIT_TOL
                v = v_new
                if done:
                    break
            else:
                raise FixedPointError(f"implicit node solve stalled at step {i}")
            ybar[j] = v
            fvals[j] = f_v
        else:
            if frozen.y_ensemble is None:
                raise ValueError("explicit solve needs a frozen y ensemble")
            f_j = drv.evaluate(t_i, frozen.y_ensemble[j], my, z_i, mz, g_i)
            ybar[j] = base + f_j * dt
            fvals[j] = f_j
        zs[j] = z_i
    return DeflatedSweep(ybar=ybar, z=zs, realized_f=fvals)


def x_process(grid: TimeGrid, backend, terminal_values, realized_f,
              lo: int = 0) -> list:
    """Conditional expectation of terminal value plus remaining generator cost.

    This is the target process of the reflection. On the realized generator
    values of a sweep it runs the deflated recursion again, so it equals
    `DeflatedSweep.ybar`; the solve reads the reflection off that process and
    this function remains as the reference the identity tests compare with.
    """
    m = len(realized_f) - 1
    x = [None] * (m + 1)
    x[m] = np.asarray(terminal_values, dtype=float)
    for j in range(m - 1, -1, -1):
        x[j] = backend.condexp(lo + j, x[j + 1]) + realized_f[j] * grid.dt
    return x


def build_k(loss: LossSpec, grid: TimeGrid, backend, x_values,
            lo: int = 0, tol: float = DEFAULT_TOL):
    """Reflection path from the laws of the target (deflated) process at the
    grid nodes.

    rho_j is the minimal shift at node j; the backward running maximum s gives
    k_j = s_0 - s_j, so k starts at zero and is nondecreasing.
    """
    m = len(x_values) - 1
    rho = np.empty(m + 1)
    for j in range(m + 1):
        t_j = grid.nodes[lo + j]
        rho[j] = loss_operator(loss, t_j, backend.law(lo + j, x_values[j]), tol)
    s = np.maximum.accumulate(rho[::-1])[::-1]
    k = s[0] - s
    return k, rho


def compose_solution(ybar, k):
    """Recover the constrained component: y_j = ybar_j + (k_end - k_j)."""
    tail = k[-1] - k
    return [yb + tail[j] for j, yb in enumerate(ybar)]


def flatness_residual(constraint, k) -> tuple[float, float]:
    """Grid quadrature of the per-node constraint values against the reflection
    increments.

    Returns (right, left) endpoint rules; the right-endpoint value is the one
    verification gates on, the left is reported alongside.
    """
    dk = np.diff(k)
    return float(np.dot(constraint[1:], dk)), float(np.dot(constraint[:-1], dk))


def constraint_diagnostics(loss: LossSpec, grid: TimeGrid, backend, y_values, k,
                           lo: int = 0) -> dict:
    """One pass of the loss over the nodes: the mean and standard error of
    l(t_j, y_j) at each node, their minimum, and the flatness residuals."""
    m = len(y_values) - 1
    constraint = np.empty(m + 1)
    constraint_se = np.empty(m + 1)
    for j in range(m + 1):
        vals = loss.evaluate(grid.nodes[lo + j], y_values[j])
        constraint[j], constraint_se[j] = backend.mean_se(lo + j, vals)
    flat_right, flat_left = flatness_residual(constraint, k)
    return {
        "constraint": constraint,
        "constraint_se": constraint_se,
        "min_constraint": float(np.min(constraint)),
        "flatness_right": flat_right,
        "flatness_left": flat_left,
    }


def bmo_proxy(zs, grid: TimeGrid, backend, lo: int = 0) -> float:
    """Crude BMO estimate: the largest conditional remaining quadratic
    variation of z over all nodes and particles, square-rooted."""
    m = len(zs) - 1
    r = np.zeros(backend.count(lo + m))
    worst = 0.0
    for j in range(m - 1, -1, -1):
        zsq = np.sum(np.asarray(zs[j]) ** 2, axis=-1)
        r = backend.condexp(lo + j, r) + zsq * grid.dt
        worst = max(worst, float(np.max(r)))
    return float(np.sqrt(max(worst, 0.0)))


def empirical_norms(y_values, zs, k, grid: TimeGrid, backend, lo: int = 0) -> dict:
    """Sample versions of the solution norms used by the fixed-point analysis."""
    m = len(y_values) - 1
    h2_sq = sum(backend.mean(lo + j, np.sum(np.asarray(zs[j]) ** 2, axis=-1))
                for j in range(m)) * grid.dt
    return {
        "s2": float(np.sqrt(backend.sup_sq_mean(y_values, lo))),
        "h2": float(np.sqrt(h2_sq)),
        "s_inf": max(float(np.max(np.abs(v))) for v in y_values),
        "k_sup": float(np.max(np.abs(k))),
        "bmo": bmo_proxy(zs, grid, backend, lo),
    }


@dataclass(eq=False)
class ReflectedSolution:
    """Constrained triple on a node window plus the deflated process."""

    lo: int
    hi: int
    y: list
    z: list
    k: np.ndarray
    y_deflated: list
    rho: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def mean_y_path(self, backend) -> np.ndarray:
        return np.array([backend.mean(self.lo + j, v) for j, v in enumerate(self.y)])


def zero_solution(backend, lo: int, hi: int) -> ReflectedSolution:
    """The (0, 0, 0) starting triple of the fixed-point iteration."""
    m = hi - lo
    y = [np.zeros(backend.count(lo + j)) for j in range(m + 1)]
    z = [np.zeros((backend.count(lo + j), backend.d)) for j in range(m + 1)]
    return ReflectedSolution(lo=lo, hi=hi, y=y, z=z, k=np.zeros(m + 1),
                             y_deflated=y, rho=np.zeros(m + 1))


def solve_interval(scenario: ScenarioSpec, grid: TimeGrid, backend,
                   frozen: FrozenInputs, implicit_y: bool = False,
                   lo: int = 0, hi: int | None = None,
                   terminal_values=None) -> ReflectedSolution:
    """One full reflected solve for fixed frozen inputs: deflate, extract the
    reflection from the deflated process, recompose, and attach diagnostics."""
    hi = grid.n if hi is None else hi
    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))
    sweep = solve_deflated(scenario, grid, backend, frozen, implicit_y,
                           lo, hi, terminal_values)
    k, rho = build_k(scenario.loss, grid, backend, sweep.ybar, lo, backend.loss_tol)
    y = compose_solution(sweep.ybar, k)

    diagnostics = {
        **constraint_diagnostics(scenario.loss, grid, backend, y, k, lo),
        "loss_tol": backend.loss_tol,
    }
    return ReflectedSolution(lo=lo, hi=hi, y=y, z=sweep.z, k=k,
                             y_deflated=sweep.ybar, rho=rho,
                             diagnostics=diagnostics)


def default_tolerances(solution: ReflectedSolution, grid: TimeGrid) -> dict:
    """Suggested acceptance tolerances: statistical error plus quadrature slack."""
    se_max = float(np.max(solution.diagnostics["constraint_se"]))
    loss_tol = solution.diagnostics["loss_tol"]
    k_total = float(solution.k[-1])
    return {
        "constraint": 3.0 * se_max + loss_tol + 1e-12,
        "flatness": 3.0 * se_max * k_total + k_total * grid.dt
        + loss_tol * (len(solution.y)) + 1e-12,
    }
