"""Single-interval reflected solve with frozen generator inputs (the Lipschitz
mode y slot implicit, solved per node in closed form): one backward pass that
deflates, builds the reflection path as a backward running supremum of minimal
shifts of the deflated process's laws, and measures the distance from the
previous iterate while writing over it; the flatness / constraint
diagnostics, and the sample norms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lossop import loss_operator
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


def _node_blocks(backend, lo: int, hi: int) -> tuple[list, list]:
    """Zeroed per-node rows of one block per field: node j of the window owns
    the first count(lo + j) entries of row j of an (m+1, width) block for y
    and of an (m+1, d, width) block for z."""
    width = backend.count(hi)
    counts = [backend.count(lo + j) for j in range(hi - lo + 1)]
    ys = [row[:c] for row, c in zip(np.zeros((len(counts), width)), counts)]
    zs = [row[:, :c].T for row, c in zip(np.zeros((len(counts), backend.d, width)), counts)]
    return ys, zs


def _deflated_nodes(scenario: ScenarioSpec, grid: TimeGrid, backend,
                    prev: ReflectedSolution, terminal_values):
    """Backward Euler for the deflated (unconstrained) equation on `prev`'s
    window, one node at a time: yields (j, ybar_j, z_j) for j = m, m-1, ..., 0,
    each a fresh array, with z_m None at the terminal node.

    The generator's frozen inputs come from the previous iterate `prev`: the
    mean of its y (and of its z in quadratic mode), the resistance of its k,
    and its reflection tail, all read before the first node is yielded. The scenario's mode picks the
    generator's y slot. In Lipschitz mode it is the current unknown plus
    `prev`'s tail: the node equation v = base + f(t, v + tail, ...) * dt is
    linear in v, because f is affine in y, so one evaluation at v = base
    divided by 1 - y_slope * dt solves it (needs lam * dt < 1). In quadratic
    mode the y slot is `prev.y[j]`, read before node j is yielded, and the z
    slot is the current integrand estimate.
    """
    lo, hi = prev.lo, prev.hi
    m = hi - lo
    drv = scenario.driver
    dt = grid.dt
    implicit = scenario.mode == LIPSCHITZ
    if implicit and drv.lam * dt >= 1.0:
        raise StepSizeError(
            f"lam*dt = {drv.lam * dt:.3g} >= 1: the implicit node step is not "
            "guaranteed solvable; use a finer grid")
    # division by 1.0 is exact, so drivers without a y term step explicitly
    denom = 1.0 - drv.y_slope * dt if implicit else 1.0
    mean_y = prev.mean_y_path(backend)
    # zbar is read by quadratic_z only, the one quadratic-mode driver
    mean_z = [None if implicit else np.atleast_1d(backend.mean(lo + j, z))
              for j, z in enumerate(prev.z)]
    resistance = scenario.resistance.apply(window_grid(grid, lo, hi), prev.k)

    def step(j, ybar_next):
        # the step's temporaries die on return, before the next projection
        i = lo + j
        base, z_i = backend.condexp_and_z(i, ybar_next)
        if drv.particle_free:
            f = drv.scalar(grid.nodes[i], float(mean_y[j]), float(resistance[j]))
        else:
            y_slot = base + float(prev.tail[j]) if implicit else prev.y[j]
            f = drv.evaluate(grid.nodes[i], y_slot, float(mean_y[j]), z_i,
                             mean_z[j], float(resistance[j]))
        return base + (f / denom) * dt, z_i

    ybar = np.asarray(terminal_values, dtype=float)
    yield m, ybar, None
    for j in range(m - 1, -1, -1):
        ybar, z = step(j, ybar)
        yield j, ybar, z


def solve_deflated(scenario: ScenarioSpec, grid: TimeGrid, backend,
                   prev: ReflectedSolution, terminal_values=None) -> tuple[list, list]:
    """The deflated process of one sweep from the previous iterate `prev`, on
    its window, with no reflection; returns the per-node `ybar` and `z`, each
    node's row a view of one block per field (z keeps its zeros at the
    terminal node), and leaves `prev` as it was. The sweep itself
    (`solve_interval`) runs the same node steps; this is the deflate pass of
    the two-pass reference the tests compare it with."""
    lo, hi = prev.lo, prev.hi
    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))
    ybar, zs = _node_blocks(backend, lo, hi)
    for j, y, z in _deflated_nodes(scenario, grid, backend, prev, terminal_values):
        ybar[j][...] = y
        if z is not None:
            zs[j][...] = z
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


def build_k(loss: LossSpec, grid: TimeGrid, backend, x_values, lo: int = 0):
    """Reflection path from the laws of the target (deflated) process at the
    grid nodes.

    rho_j is the minimal shift at node j, the smallest float with a nonnegative
    expected loss; the backward running maximum s gives k_j = s_0 - s_j, so k
    starts at zero and is nondecreasing. The sweep finds the same shifts node
    by node inside its backward pass; this is the shift pass of the two-pass
    reference the tests compare it with.
    """
    m = len(x_values) - 1
    rho = np.empty(m + 1)
    for j in range(m + 1):
        t_j = grid.nodes[lo + j]
        rho[j] = loss_operator(loss, t_j, backend.law(lo + j, x_values[j]))
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
    l(t_j, y_j) at each node, their minimum and the flatness residuals."""
    m = len(y_values) - 1
    constraint = np.empty(m + 1)
    constraint_se = np.empty(m + 1)
    for j in range(m + 1):
        vals = loss.evaluate(grid.nodes[lo + j], y_values[j])
        constraint[j], constraint_se[j] = backend.mean_se(lo + j, vals)
    return diagnostics_record(constraint, constraint_se, flatness_residual(constraint, k))


def diagnostics_record(constraint, constraint_se, flatness) -> dict:
    """An answer's diagnostics from its per-node constraint means and standard
    errors and its (right, left) flatness residuals."""
    flat_right, flat_left = flatness
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
        "s2": float(np.sqrt(backend.sup_sq_mean(enumerate(y_values, lo)))),
        "h2": float(np.sqrt(h2_sq(zs[:-1], grid, backend, lo))),
        "s_inf": sup_norm(y_values),
        "k_sup": float(np.max(np.abs(k))),
        "bmo": bmo_proxy(zs, grid, backend, lo),
    }


@dataclass(eq=False)
class ReflectedSolution:
    """Constrained triple on a node window, with the reflection offset tail_j
    that node j's y holds over the deflated value (on one interval the
    remaining reflection k_m - k_j), and the sweep's minimal shifts, if any."""

    lo: int
    hi: int
    y: list
    z: list
    k: np.ndarray
    tail: np.ndarray
    shifts: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def mean_y_path(self, backend) -> np.ndarray:
        return np.array([backend.mean(self.lo + j, v) for j, v in enumerate(self.y)])


def zero_solution(backend, lo: int, hi: int) -> ReflectedSolution:
    """The (0, 0, 0) starting triple of the fixed-point iteration. Its blocks
    are the only iterate blocks of a solve: every sweep writes over them."""
    m = hi - lo
    y, z = _node_blocks(backend, lo, hi)
    return ReflectedSolution(lo=lo, hi=hi, y=y, z=z, k=np.zeros(m + 1),
                             tail=np.zeros(m + 1))


def solve_interval(scenario: ScenarioSpec, grid: TimeGrid, backend,
                   prev: ReflectedSolution,
                   terminal_values=None) -> tuple[ReflectedSolution, float]:
    """One sweep of the solution map from the previous iterate `prev`, in one
    backward pass written over it.

    At node j the pass deflates, finds the minimal shift rho_j of the law of
    ybar_j and the backward running maximum s_j = max(rho_j, s_(j+1)), so the
    remaining reflection tail_j = s_j - s_m and y_j = ybar_j + tail_j are
    known there. It then adds node j's distance terms against `prev`'s node
    j, and only then writes node j over `prev`'s blocks, so `prev` must not
    be read afterwards. The reflection is k = s_0 - s. `picard_solve` runs
    this sweep for the first sweep of a particle-free driver, and for every
    sweep of the others.

    Returns the new iterate, which carries its shifts but no diagnostics, and
    its distance from `prev`: in Lipschitz mode the root-sum-square of
    (sample S2, sample H2, sup-k), with a per-particle running sup of |dy| and
    the per-node H2 means summed forward at the end; in quadratic mode the
    sum of (sample S-inf, BMO proxy, sup-k), the BMO recursion run on dz node
    by node.
    """
    lo, hi = prev.lo, prev.hi
    m = hi - lo
    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))
    lipschitz = scenario.mode == LIPSCHITZ
    rho, s, tail = np.empty(m + 1), np.empty(m + 1), np.empty(m + 1)
    # per step: E|dz_j|^2 (Lipschitz), or the largest remaining quadratic
    # variation of dz from node j on (quadratic)
    z_terms = [0.0] * m

    def node_differences():
        r = None if lipschitz else np.zeros(backend.count(hi))   # BMO recursion on dz
        for j, ybar_j, z_j in _deflated_nodes(scenario, grid, backend, prev,
                                              terminal_values):
            i = lo + j
            rho[j] = loss_operator(scenario.loss, grid.nodes[i], backend.law(i, ybar_j))
            s[j] = rho[j] if j == m else np.maximum(rho[j], s[j + 1])
            tail[j] = s[j] - s[m]
            # one temporary: y_j is formed again straight into the block
            dy = ybar_j + tail[j]
            dy -= prev.y[j]
            if j < m:
                dz_sq = np.sum((z_j - prev.z[j]) ** 2, axis=-1)
                if lipschitz:
                    z_terms[j] = backend.mean(i, dz_sq)
                else:
                    r = backend.condexp(i, r) + dz_sq * grid.dt
                    z_terms[j] = float(np.max(r))
                prev.z[j][...] = z_j
            np.add(ybar_j, tail[j], out=prev.y[j])
            yield i, dy

    nodes = node_differences()
    y_term = backend.sup_sq_mean(nodes) if lipschitz else sup_norm(dy for _, dy in nodes)
    k = s[0] - s
    dk = float(np.max(np.abs(k - prev.k)))
    if lipschitz:
        dist = math.sqrt(y_term + sum(z_terms) * grid.dt + dk * dk)
    else:
        dist = y_term + float(np.sqrt(max([0.0, *z_terms]))) + dk
    return ReflectedSolution(lo=lo, hi=hi, y=prev.y, z=prev.z, k=k, tail=tail,
                             shifts=rho), dist


class ScalarSweeps:
    """Every sweep after the first of a particle-free driver, on per-node
    scalars. A projection maps constants to themselves, so a later sweep's
    deflated value is the first one's plus the offset delta_j =
    sum_(l>=j) (f_l - f1_l) dt, and its z the first one's plus delta_(j+1)
    zeta_j, with zeta_j the z-fit of the constant 1 (0 on the lattice). The
    blocks of `first`, the first sweep's iterate, hold its y and z until
    `write_back` adds the last sweep's offsets to them."""

    def __init__(self, scenario: ScenarioSpec, grid: TimeGrid, backend,
                 first: ReflectedSolution):
        self.scenario, self.grid, self.backend, self.first = scenario, grid, backend, first
        self.window = window_grid(grid, first.lo, first.hi)
        self.times = grid.nodes[first.lo:first.hi + 1]
        # the first sweep read the zero triple, whose mean and resistance are 0
        self.f1 = [scenario.driver.scalar(t, 0.0, 0.0) for t in self.times]
        self.mean_y1 = first.mean_y_path(backend)
        self.last, self.delta = first, np.zeros(len(self.times))
        self.laws, self.zeta_sq = [None] * len(self.times), None

    def _zeta(self, j: int) -> np.ndarray:
        i = self.first.lo + j
        return self.backend.condexp_and_z(i, np.ones(self.backend.count(i + 1)))[1]

    def sweep(self) -> float:
        """One sweep; returns its distance from the last, the Lipschitz metric
        of `solve_interval` on dy_j and dz_j / zeta_j, the same on every particle."""
        first, last, m, dt = self.first, self.last, len(self.times) - 1, self.grid.dt
        g = self.scenario.resistance.apply(self.window, last.k)
        mean_y = self.mean_y1 + ((self.delta + last.tail) - first.tail)
        delta, rho, s = np.zeros(m + 1), np.empty(m + 1), np.empty(m + 1)
        for j in range(m, -1, -1):
            if j < m:
                f = self.scenario.driver.scalar(self.times[j], float(mean_y[j]), float(g[j]))
                delta[j] = delta[j + 1] + (f - self.f1[j]) * dt
            if delta[j] != 0.0 and self.laws[j] is None:
                self.laws[j] = self.backend.law(first.lo + j, first.y[j])
            # ybar1_j + delta_j is the block row y1_j plus delta_j - tail1_j
            rho[j] = first.shifts[j] if delta[j] == 0.0 else loss_operator(
                self.scenario.loss, self.times[j], self.laws[j], delta[j] - first.tail[j])
            s[j] = rho[j] if j == m else np.maximum(rho[j], s[j + 1])
        new = ReflectedSolution(lo=first.lo, hi=first.hi, y=first.y, z=first.z,
                                k=s[0] - s, tail=s - s[m], shifts=rho)
        dy = (delta + new.tail) - (self.delta + last.tail)
        moved = (delta - self.delta)[1:]
        if self.zeta_sq is None and np.any(moved != 0.0):
            self.zeta_sq = np.array([self.backend.mean(first.lo + j, np.sum(
                self._zeta(j) ** 2, axis=-1)) for j in range(m)])
        z_term = 0.0 if self.zeta_sq is None else float(np.sum(moved * moved * self.zeta_sq))
        dk = float(np.max(np.abs(new.k - last.k)))
        self.last, self.delta = new, delta
        return math.sqrt(float(np.max(dy * dy)) + z_term * dt + dk * dk)

    def write_back(self) -> ReflectedSolution:
        """The last sweep's iterate, its y and z written into the blocks."""
        first, delta = self.first, self.delta
        for j, y in enumerate(first.y):
            y += (delta[j] + self.last.tail[j]) - first.tail[j]
            if j < len(delta) - 1 and delta[j + 1] != 0.0:
                first.z[j] += delta[j + 1] * self._zeta(j)
        return self.last


def default_tolerances(solution: ReflectedSolution, grid: TimeGrid) -> dict:
    """Suggested acceptance tolerances: statistical error plus quadrature slack."""
    se_max = float(np.max(solution.diagnostics["constraint_se"]))
    k_total = float(solution.k[-1])
    return {
        "constraint": 3.0 * se_max + 1e-12,
        "flatness": 3.0 * se_max * k_total + k_total * grid.dt + 1e-12,
    }
