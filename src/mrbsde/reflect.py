"""Single-interval reflected solve with frozen generator inputs (the Lipschitz
mode y slot implicit, solved per node in closed form): deflated backward
induction, the reflection path built as a backward running supremum of minimal
shifts of the deflated process's laws, the flatness / constraint diagnostics,
and the sample norms."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .lossop import loss_operator, DEFAULT_TOL
from .model import LIPSCHITZ, LossSpec, ScenarioSpec, SolverError
from .paths import TimeGrid


class StepSizeError(SolverError):
    """lam * dt >= 1: the implicit node step is not guaranteed solvable; the
    grid is too coarse."""

    exit_code = 3


def window_grid(grid: TimeGrid, lo: int, hi: int) -> TimeGrid:
    """Sub-grid spanning nodes lo..hi with the same step size."""
    m = hi - lo
    return TimeGrid(T=m * grid.dt, n=m, nodes=np.arange(m + 1) * grid.dt, dt=grid.dt)


@dataclass(eq=False)
class FrozenInputs:
    """Generator inputs frozen from the previous fixed-point iterate.

    All paths are window-local: index j corresponds to grid node lo + j.
    `y_ensemble` carries the pathwise frozen y slot of the explicit (quadratic
    mode) solve; `k_tail` is the frozen reflection tail added to the current
    unknown in the y slot of the implicit (Lipschitz mode) node step.
    """

    mean_y: np.ndarray
    mean_z: np.ndarray
    resistance: np.ndarray
    k_tail: np.ndarray
    y_ensemble: Sequence | None = None


def solve_deflated(scenario: ScenarioSpec, grid: TimeGrid, backend,
                   frozen: FrozenInputs, lo: int = 0, hi: int | None = None,
                   terminal_values=None) -> tuple[list, list]:
    """Backward Euler for the deflated (unconstrained) equation; returns the
    per-node `ybar` and `z`, each node's row a view of one block per field.

    The scenario's mode picks the generator's y slot. In Lipschitz mode it is
    the current unknown plus the frozen reflection tail: the node equation
    v = base + f(t, v + tail, ...) * dt is linear in v, because f is affine in
    y, so one evaluation at v = base divided by 1 - y_slope * dt solves it
    (needs lam * dt < 1). In quadratic mode the y slot is the frozen ensemble,
    and the z slot is the current integrand estimate.
    """
    hi = grid.n if hi is None else hi
    m = hi - lo
    drv = scenario.driver
    dt = grid.dt
    implicit = scenario.mode == LIPSCHITZ
    if implicit and drv.lam * dt >= 1.0:
        raise StepSizeError(
            f"lam*dt = {drv.lam * dt:.3g} >= 1: the implicit node step is not "
            "guaranteed solvable; use a finer grid")
    if not implicit and frozen.y_ensemble is None:
        raise ValueError("explicit solve needs a frozen y ensemble")
    # division by 1.0 is exact, so drivers without a y term step explicitly
    denom = 1.0 - drv.y_slope * dt if implicit else 1.0

    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))
    # one block per field, node j its first count(lo + j) entries; z keeps its
    # zeros at the terminal node
    width = backend.count(hi)
    counts = [backend.count(lo + j) for j in range(m + 1)]
    ybar = [row[:c] for row, c in zip(np.empty((m + 1, width)), counts)]
    zs = [row[:, :c].T for row, c in zip(np.zeros((m + 1, backend.d, width)), counts)]
    ybar[m][...] = terminal_values

    for j in range(m - 1, -1, -1):
        i = lo + j
        base, z_i = backend.condexp_and_z(i, ybar[j + 1])
        y_slot = base + float(frozen.k_tail[j]) if implicit else frozen.y_ensemble[j]
        f = drv.evaluate(grid.nodes[i], y_slot, float(frozen.mean_y[j]), z_i,
                         frozen.mean_z[j], float(frozen.resistance[j]))
        np.add(base, (f / denom) * dt, out=ybar[j])
        zs[j][...] = z_i
    return ybar, zs


def x_process(grid: TimeGrid, backend, terminal_values, f_values,
              lo: int = 0) -> list:
    """Conditional expectation of terminal value plus remaining generator cost.

    This is the target process of the reflection. With `f_values[j]` the
    generator values a sweep realized at node j (the last entry, at the
    terminal node, is not read) it runs the deflated recursion again, so it
    equals that sweep's `ybar`; the solve reads the reflection off the deflated
    process and this function remains as the reference the identity tests
    compare with.
    """
    m = len(f_values) - 1
    x = [None] * (m + 1)
    x[m] = np.asarray(terminal_values, dtype=float)
    for j in range(m - 1, -1, -1):
        x[j] = backend.condexp(lo + j, x[j + 1]) + f_values[j] * grid.dt
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
    l(t_j, y_j) at each node, their minimum, the flatness residuals, and the
    shift tolerance the reflection was built with."""
    m = len(y_values) - 1
    constraint = np.empty(m + 1)
    constraint_se = np.empty(m + 1)
    for j in range(m + 1):
        vals = loss.evaluate(grid.nodes[lo + j], y_values[j])
        constraint[j], constraint_se[j] = backend.mean_se(lo + j, vals)
    return diagnostics_record(constraint, constraint_se,
                              flatness_residual(constraint, k), backend.loss_tol)


def diagnostics_record(constraint, constraint_se, flatness, loss_tol: float) -> dict:
    """An answer's diagnostics from its per-node constraint means and standard
    errors, its (right, left) flatness residuals and the shift tolerance."""
    flat_right, flat_left = flatness
    return {
        "constraint": constraint,
        "constraint_se": constraint_se,
        "min_constraint": float(np.min(constraint)),
        "flatness_right": flat_right,
        "flatness_left": flat_left,
        "loss_tol": loss_tol,
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


def sup_norm(values) -> float:
    """Largest |entry| over an iterable of per-node values, one node at a time."""
    return max(float(np.max(np.abs(v))) for v in values)


def h2_sq(zs, grid: TimeGrid, backend, lo: int = 0) -> float:
    """Sample H2 square dt * sum_j E|z_j|^2 over an iterable of per-node z
    values, the j-th at grid node lo + j, one node at a time. The sum runs
    over steps, so callers pass every node but the terminal one."""
    return sum(backend.mean(lo + j, np.sum(np.asarray(z) ** 2, axis=-1))
               for j, z in enumerate(zs)) * grid.dt


def empirical_norms(y_values, zs, k, grid: TimeGrid, backend, lo: int = 0) -> dict:
    """Sample versions of the solution norms used by the fixed-point analysis."""
    return {
        "s2": float(np.sqrt(backend.sup_sq_mean(y_values, lo))),
        "h2": float(np.sqrt(h2_sq(zs[:-1], grid, backend, lo))),
        "s_inf": sup_norm(y_values),
        "k_sup": float(np.max(np.abs(k))),
        "bmo": bmo_proxy(zs, grid, backend, lo),
    }


class NodeSum(Sequence):
    """Read-only per-node values base[j] + offset[j], formed when read."""

    def __init__(self, base, offset):
        self.base, self.offset = base, offset

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return NodeSum(self.base[j], self.offset[j])
        return self.base[j] + self.offset[j]


@dataclass(eq=False)
class ReflectedSolution:
    """Constrained triple on a node window; y_j = y_deflated_j + tail_j on read."""

    lo: int
    hi: int
    z: list
    k: np.ndarray
    y_deflated: list
    tail: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def y(self) -> NodeSum:
        return NodeSum(self.y_deflated, self.tail)

    def mean_y_path(self, backend) -> np.ndarray:
        return np.array([backend.mean(self.lo + j, v) for j, v in enumerate(self.y)])


def zero_solution(backend, lo: int, hi: int) -> ReflectedSolution:
    """The (0, 0, 0) starting triple of the fixed-point iteration."""
    m = hi - lo
    ybar = [np.zeros(backend.count(lo + j)) for j in range(m + 1)]
    z = [np.zeros((backend.count(lo + j), backend.d)) for j in range(m + 1)]
    return ReflectedSolution(lo=lo, hi=hi, z=z, k=np.zeros(m + 1), y_deflated=ybar,
                             tail=np.zeros(m + 1))


def solve_interval(scenario: ScenarioSpec, grid: TimeGrid, backend,
                   frozen: FrozenInputs, lo: int = 0, hi: int | None = None,
                   terminal_values=None) -> ReflectedSolution:
    """One full reflected solve for fixed frozen inputs: deflate, extract the
    reflection from the deflated process, and recompose. The iterate carries
    no diagnostics; the solver attaches them to the answer it returns."""
    hi = grid.n if hi is None else hi
    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))
    ybar, z = solve_deflated(scenario, grid, backend, frozen, lo, hi, terminal_values)
    k, _ = build_k(scenario.loss, grid, backend, ybar, lo, backend.loss_tol)
    return ReflectedSolution(lo=lo, hi=hi, z=z, k=k, y_deflated=ybar, tail=k[-1] - k)


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
