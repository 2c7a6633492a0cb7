"""Single-interval reflected solve with frozen generator inputs (the Lipschitz
mode y slot implicit, solved per node in closed form): one backward pass that
deflates, builds the reflection path as a backward running supremum of minimal
shifts of the deflated process's laws, and measures the distance from the
previous iterate while writing over it; the flatness / constraint
diagnostics, and the sample norms. An iterate stores per-node records: of
its z (E[z_j] and projection coefficients) and of its y (E[y_j], std(y_j),
the constraint's mean and standard error, and the per-particle sup), so no
pass over y and no projection runs after a Lipschitz solve."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lossop import loss_operator, release_loss
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


def _node_blocks(backend, lo: int, hi: int, *inner) -> list:
    """Zeroed per-node rows of one block: node j of the window owns the first
    count(lo + j) entries of row j of an (m+1, *inner, width) block, read as
    (count, d) when `inner` is (d,)."""
    width = backend.count(hi)
    counts = [backend.count(lo + j) for j in range(hi - lo + 1)]
    return [row[..., :c].T for row, c in zip(np.zeros((len(counts), *inner, width)), counts)]


def _deflated_nodes(scenario: ScenarioSpec, grid: TimeGrid, backend,
                    prev: ReflectedSolution, terminal_values):
    """Backward Euler for the deflated (unconstrained) equation on `prev`'s
    window, one node at a time: yields (j, ybar_j, terms, node) for j = m, ...,
    0, terms None at the terminal node, node (fit record, constant added) at
    a step of a driver with lam = 0, else None. Step j projects ybar_(j+1)
    and, in the same projection, dz_j, the z of ybar_(j+1) less the value
    `prev`'s step j projected, which is read before node j+1 is yielded, so
    the caller may then write over it: terms is (E|dz_j|^2, dz_j's record).
    Quadratic mode also fits z_j, the z of ybar_(j+1) that its driver reads,
    and the value rows of two BMO recursions r_j = E_j[r_(j+1)] + |w_j|^2 dt
    (r_m = 0), for w = dz and w = z: terms is (z_j's record, max r^dz_j,
    max r^z_j).

    The generator's frozen inputs come from the previous iterate `prev`: the
    mean of its y (and of its z in quadratic mode), the resistance of its
    k, and its reflection tail, all read before the first node is yielded
    (no block reads as y = 0, and y - 0.0 is y). The scenario's mode picks
    the generator's y slot. In Lipschitz mode it is the current unknown plus
    `prev`'s tail: the node equation v = base + f(t, v + tail, ...) * dt is
    linear in v, because f is affine in y, so one evaluation at v = base
    divided by 1 - y_slope * dt solves it (needs lam * dt < 1). In quadratic
    mode the y slot is `prev.y[j]`, read before node j is yielded, and the z
    slot is z_j.
    """
    lo, hi = prev.lo, prev.hi
    m = hi - lo
    drv, lam = scenario.driver, scenario.driver.lam
    dt = grid.dt
    implicit = scenario.mode == LIPSCHITZ
    if implicit and lam * dt >= 1.0:
        raise StepSizeError(
            f"lam*dt = {lam * dt:.3g} >= 1: the implicit node step is not "
            "guaranteed solvable; use a finer grid")
    # division by 1.0 is exact, so drivers without a y term step explicitly
    denom = 1.0 - drv.y_slope * dt if implicit else 1.0
    mean_y = prev.stats["mean_y"]
    resistance = scenario.resistance.apply(window_grid(grid, lo, hi), prev.k)

    def step(j, ybar_next, dybar_next, r):
        # the step's temporaries die on return, before the next projection
        i = lo + j
        if implicit:
            base, rec, sq, record = backend.condexp_and_z(i, ybar_next, dybar_next, fit=1)
            z_i, terms = None, (float(sq[-1]), rec[-1])
        else:
            fits, z_i, dz_i, rec, *_ = backend.condexp_and_z(
                i, (ybar_next, *r), ybar_next, dybar_next, fit=3)
            base, r = fits[0], fits[1:]
            r[0] += sq_norms(dz_i) * dt
            r[1] += sq_norms(z_i) * dt
            terms = (rec[0], float(np.max(r[0])), float(np.max(r[1])))
        if implicit and not drv.y_slope:
            f = drv.scalar(grid.nodes[i], float(mean_y[j]), float(resistance[j]))
        else:
            # zbar is read by quadratic_z only, the one quadratic-mode driver
            y_slot, zbar = (base + float(prev.tail[j]), None) if implicit else (
                prev.y[j], prev.z_record[j][0])
            f = drv.evaluate(grid.nodes[i], y_slot, float(mean_y[j]), z_i, zbar,
                             float(resistance[j]))
        shift = (f / denom) * dt
        return base + shift, r, terms, None if lam else (record, shift)

    ybar, terms, node = np.asarray(terminal_values, dtype=float), None, None
    r = None if implicit else np.zeros((2, backend.count(hi)))   # [r^dz; r^z]
    for j in range(m, -1, -1):
        if j < m:
            ybar, r, terms, node = step(j, ybar, dybar, r)
        if j > 0 and prev.y is None:
            dybar = ybar
        elif j > 0:   # what step j - 1 fits dz from
            dybar = prev.y[j] - prev.step_offsets[j - 1]
            np.subtract(ybar, dybar, out=dybar)
        yield j, ybar, terms, node


def solve_deflated(scenario: ScenarioSpec, grid: TimeGrid, backend,
                   prev: ReflectedSolution, terminal_values=None) -> tuple[list, list]:
    """The deflated process of one sweep from the previous iterate `prev`, on
    its window, with no reflection; returns the per-node `ybar` and `z` (z_j
    the z-fit of ybar_(j+1), fitted after the pass; zeros at the terminal
    node), each node's row a view of one block per field, and leaves `prev`
    as it was. The sweep itself
    (`solve_interval`) runs the same node steps; this is the deflate pass of
    the two-pass reference the tests compare it with."""
    lo, hi = prev.lo, prev.hi
    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))
    ybar, zs = _node_blocks(backend, lo, hi), _node_blocks(backend, lo, hi, backend.d)
    for j, y, *_ in _deflated_nodes(scenario, grid, backend, prev, terminal_values):
        ybar[j][...] = y
    for j, z in enumerate(zs[:-1]):
        z[...] = backend.condexp_and_z(lo + j, ybar[j + 1])[1]
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
    constraint, constraint_se = np.empty((2, len(y_values)))
    for j, y in enumerate(y_values):
        vals = loss.evaluate(grid.nodes[lo + j], y)
        constraint[j], constraint_se[j] = backend.mean_se(lo + j, vals)
    return diagnostics_record(constraint, constraint_se, flatness_residual(constraint, k))


def _record_node(stats: dict, j: int, backend, i: int, y, loss: LossSpec, t, out=None):
    """Node j's std(y_j) about its recorded E[y_j] and, where none is
    recorded, its constraint, from its values y at grid node i; the
    deviations go into `out`, which may be y, if given."""
    if np.isnan(stats["constraint"][j]):
        vals = loss.evaluate(t, y)
        stats["constraint"][j], stats["constraint_se"][j] = backend.mean_se(i, vals)
        out = vals if out is None else out
    dev = np.subtract(y, stats["mean_y"][j], out=out)
    dev *= dev
    stats["std_y"][j] = math.sqrt(max(backend.mean(i, dev), 0.0))


def complete_record(loss: LossSpec, grid: TimeGrid, backend, sol: ReflectedSolution):
    """Record from its values every node, and the per-particle sup, of an
    answer that kept no sup (quadratic, lam > 0, `inflate_k`); then attach
    the diagnostics."""
    stats = sol.stats
    if sol.sup is None:
        for j, y in enumerate(sol.y):
            stats["mean_y"][j] = backend.mean(sol.lo + j, y)
            _record_node(stats, j, backend, sol.lo + j, y, loss, grid.nodes[sol.lo + j])
        sol.sup = backend.sup_sq_mean(enumerate(sol.y, sol.lo))[1]
    sol.diagnostics = diagnostics_record(stats["constraint"], stats["constraint_se"],
                                         flatness_residual(stats["constraint"], sol.k))


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


def sq_norms(z) -> np.ndarray:
    """|z|^2 per particle of an (N, d) z, the columns' squares added in order,
    without np.sum's slow reduction over a short strided axis."""
    out = z[:, 0] * z[:, 0]
    for col in z.T[1:]:
        out += col * col
    return out


def bmo_proxy(y_values, offsets, grid: TimeGrid, backend, lo: int = 0) -> float:
    """Crude BMO estimate: the largest conditional remaining quadratic
    variation r_j = E_j[r_(j+1)] + |z_j|^2 dt (r_m = 0) over all nodes and
    particles, square-rooted, with z_j refit as the z-fit of y_(j+1) -
    offsets[j]: one projection per step forms [r_j; z_j]."""
    m, worst = len(y_values) - 1, 0.0
    r = np.zeros(backend.count(lo + m))
    for j in range(m - 1, -1, -1):
        # y - 0.0 is y: the subtraction is skipped, not changed
        u = y_values[j + 1] - offsets[j] if offsets[j] else y_values[j + 1]
        r, z = backend.condexp_and_z(lo + j, r, u)
        zsq_dt = sq_norms(z)
        zsq_dt *= grid.dt
        r += zsq_dt
        worst = max(worst, float(np.max(r)))
    return float(np.sqrt(worst))


def sup_norm(values) -> float:
    """Largest |entry| over an iterable of per-node values, one node at a time."""
    return max(float(np.max(np.abs(v))) for v in values)


def empirical_norms(sol: ReflectedSolution, grid: TimeGrid, backend, mode: str) -> dict:
    """The sample norms used by the fixed-point analysis ("norms") and the
    per-node means of z, "mean_z" (0 at the terminal node, which has no
    step). S2 and S-inf, its largest sup, come from the answer's recorded
    per-particle sup; E[z_j] and E|z_j|^2, for H2, are read off the z
    record, with no pass over y and no projection. Quadratic mode adds its
    own norm, `bmo_proxy`'s BMO estimate, which refits z per particle."""
    s2_sq, sup = backend.sup_sq_mean((), sol.sup)
    h2_sq = sum(float(np.sum(rec[1:] * rec[1:])) * grid.dt for rec in sol.z_record)
    norms = {"s2": float(np.sqrt(s2_sq)), "h2": math.sqrt(h2_sq), "s_inf": float(np.max(sup)),
             "k_sup": float(np.max(np.abs(sol.k)))}
    if mode != LIPSCHITZ:
        norms["bmo"] = bmo_proxy(sol.y, sol.step_offsets, grid, backend, sol.lo)
    return {"norms": norms, "mean_z": np.array([*(rec[0] for rec in sol.z_record),
                                                 np.zeros(backend.d)])}


@dataclass(eq=False)
class ReflectedSolution:
    """Constrained triple on a node window, with the reflection offset tail_j
    that node j's y holds over the deflated value (on one interval the
    remaining reflection k_m - k_j). z_j, the z-fit of y_(j+1) -
    step_offsets[j], the value step j projected (on one window tail[1:]), is
    kept as its record z_record[j]: row 0 is E[z_j], the rest its
    coefficients over an orthonormal basis of step j (√prob-weighted slopes
    on the lattice), whose sum of squares is E|z_j|^2; a quadratic driver
    reads E[z_j] next. y_j is kept, or as (fit record, constant, tail_j) at an
    interior node of a first sweep at lam = 0, whose solution map is constant,
    so that later sweeps move no node. `stats` holds E[y_j] ("mean_y"),
    std(y_j), "constraint" and "constraint_se", NaN where not recorded, and
    `sup` the per-particle sup_j |y_j|. Also kept: the sweep's minimal shifts,
    if any, in quadratic mode its ball record, and `diagnostics`."""

    lo: int
    hi: int
    y: list | None
    k: np.ndarray
    tail: np.ndarray
    step_offsets: np.ndarray
    z_record: list | None = None
    shifts: np.ndarray | None = None
    ball: dict | None = None
    diagnostics: dict = field(default_factory=dict)
    stats: dict | None = None
    sup: np.ndarray | None = None

    def node(self, j: int, backend) -> np.ndarray:
        """Node j's values, kept or formed again from the record bit for bit."""
        if type(self.y[j]) is not tuple:
            return self.y[j]
        record, shift, tail = self.y[j]
        return (backend.replay(self.lo + j, record)[0] + shift) + tail

    def values(self, backend) -> list:
        """Every node's values, the recorded ones formed again."""
        return [self.node(j, backend) for j in range(len(self.y))]


def no_stats(m: int) -> dict:
    """A record of m + 1 nodes holding none."""
    keys = ("mean_y", "std_y", "constraint", "constraint_se")
    return dict(zip(keys, np.full((len(keys), m + 1), np.nan)))


def zero_solution(backend, lo: int, hi: int, block: bool = True) -> ReflectedSolution:
    """The (0, 0, 0) starting triple of the fixed-point iteration. Its y block,
    if any, is the only iterate block of a solve: every sweep writes over it."""
    m = hi - lo
    return ReflectedSolution(lo=lo, hi=hi, y=_node_blocks(backend, lo, hi) if block else None,
                             k=np.zeros(m + 1), tail=np.zeros(m + 1), step_offsets=np.zeros(m),
                             z_record=list(np.zeros((m, 1, backend.d))),
                             stats={"mean_y": np.zeros(m + 1)})


def solve_interval(scenario: ScenarioSpec, grid: TimeGrid, backend,
                   prev: ReflectedSolution,
                   terminal_values=None) -> tuple[ReflectedSolution, float]:
    """One sweep of the solution map from the previous iterate `prev`, in one
    backward pass written over it.

    At node j the pass deflates, finds the minimal shift rho_j of the law of
    ybar_j and the backward running maximum s_j = max(rho_j, s_(j+1)), so the
    remaining reflection tail_j = s_j - s_m and y_j = ybar_j + tail_j are
    known there. It then adds node j's distance terms against `prev`'s node
    j, and only then writes node j over `prev`'s block, so `prev` must not
    be read afterwards. The reflection is k = s_0 - s. `picard_solve` runs
    this sweep for every sweep of a quadratic driver, and for a Lipschitz
    window's first sweep only, so a Lipschitz sweep runs from the zero triple.

    Returns the new iterate, which carries its shifts, its z record (in
    Lipschitz mode `prev`'s plus dz's, since z_j = prev's z_j + dz_j; in
    quadratic mode z_j's own) and E[y_j]. From a `prev` with no block, whose
    y is 0.0, it keeps y_j as formed at lam > 0; at lam = 0 as in
    `ReflectedSolution`, with each node's whole record (l(t_j, y_j) off the
    search's np.sin and np.cos arrays where it formed them) and its sup of
    |dy| as `sup`. It also returns its distance from `prev`: in Lipschitz
    mode the root-sum-square of (sample S2, sample H2, sup-k), with a
    per-particle running sup of |dy| and the per-node H2 means, read off the
    projections, summed at the end; in quadratic mode the sum of (sample
    S-inf, BMO proxy, sup-k), and the new iterate carries its ball record:
    max |y_j| as node j is written, the BMO proxy of its z and sup|k|, both
    BMO recursions run in the steps' projections.
    """
    lo, hi = prev.lo, prev.hi
    m = hi - lo
    if terminal_values is None:
        terminal_values = scenario.terminal.evaluate(backend.state(hi))
    lipschitz = scenario.mode == LIPSCHITZ
    recording = prev.y is None and not scenario.driver.lam
    rho, s, tail = np.empty((3, m + 1))
    stats, y = no_stats(m), [None] * (m + 1) if prev.y is None else prev.y
    # per step: E|dz_j|^2 (Lipschitz), or the largest remaining quadratic
    # variation of dz from node j on (quadratic), and of z for the ball record
    z_terms, bmo_terms, y_sup, z_record = [0.0] * m, [0.0] * m, [0.0] * (m + 1), [None] * m

    def node_differences():
        for j, ybar_j, terms, node in _deflated_nodes(scenario, grid, backend, prev,
                                                      terminal_values):
            i, t = lo + j, grid.nodes[lo + j]
            law = backend.law(i, ybar_j)
            rho[j] = loss_operator(scenario.loss, t, law.hold() if recording else law)
            s[j] = rho[j] if j == m else np.maximum(rho[j], s[j + 1])
            tail[j] = s[j] - s[m]
            # l(t_i, y_j) from the search's arrays, which die before dy
            vals = release_loss(scenario.loss, t, law, tail[j]) if recording else None
            if vals is not None:
                stats["constraint"][j], stats["constraint_se"][j] = backend.mean_se(i, vals)
            vals = None
            # one temporary: y_j is formed again straight into a block, or it is dy
            y_j = dy = ybar_j + tail[j]
            if prev.y is None:
                y[j] = dy if node is None or j == 0 else (*node, tail[j])
            else:
                dy -= prev.y[j]
                y_j = np.add(ybar_j, tail[j], out=prev.y[j])
            if j < m and lipschitz:
                z_terms[j], rec = terms
                z_record[j] = prev.z_record[j] + rec
            elif j < m:
                z_record[j], z_terms[j], bmo_terms[j] = terms
            stats["mean_y"][j] = backend.mean(i, y_j)
            if not lipschitz:
                y_sup[j] = float(np.max(np.abs(y_j)))
            yield i, dy
            if recording:   # past the sup pass, dy is spare unless it is y_j, kept
                _record_node(stats, j, backend, i, y_j, scenario.loss, t,
                             None if y[j] is dy else dy)
            y_j = dy = None   # freed before the next projection

    nodes = node_differences()
    y_term, sup = backend.sup_sq_mean(nodes) if lipschitz else (
        sup_norm(dy for _, dy in nodes), None)
    k = s[0] - s
    dk = float(np.max(np.abs(k - prev.k)))
    if lipschitz:
        dist, ball = math.sqrt(y_term + sum(z_terms) * grid.dt + dk * dk), None
    else:
        dist = y_term + float(np.sqrt(max([0.0, *z_terms]))) + dk
        ball = {"s_inf": max(y_sup), "bmo": float(np.sqrt(max([0.0, *bmo_terms]))),
                "k_sup": float(np.max(np.abs(k)))}
    return ReflectedSolution(lo=lo, hi=hi, y=y, k=k, tail=tail, step_offsets=tail[1:],
                             z_record=z_record, shifts=rho, ball=ball, stats=stats,
                             sup=sup if recording else None), dist


class ScalarSweeps:
    """Every sweep after the first of a Lipschitz driver, on per-node scalars.
    f = s y + F is affine in y and a projection maps constants to themselves,
    so a later sweep's deflated value is the first one's plus the offset
    delta_j = (delta_(j+1) + (s tail_j + F_j - F1_j) dt) / (1 - s dt), tail
    the last iterate's and F1 the first sweep's F, and its z the first one's
    plus delta_(j+1) zeta_j, with zeta_j the z-fit of the constant 1 (0 on
    the lattice). At lam = 0 every offset is 0.0 and no node moves. A node's
    first search reads its law off the values that `first`, the first
    sweep's iterate, keeps at lam > 0, and the first of them runs one pass
    that reads zeta_j's record and E|zeta_j|^2 off projection coefficients,
    fitting no row. `write_back` adds the last sweep's offsets to first's
    values: y_(j+1) - tail_(j+1) is then ybar1_(j+1) + delta_(j+1), and the
    z record, linear in it, becomes first's plus delta_(j+1) times zeta_j's."""

    def __init__(self, scenario: ScenarioSpec, grid: TimeGrid, backend,
                 first: ReflectedSolution):
        self.scenario, self.grid, self.backend, self.first = scenario, grid, backend, first
        self.window = window_grid(grid, first.lo, first.hi)
        self.times = grid.nodes[first.lo:first.hi + 1]
        # the first sweep read the zero triple, whose tail, mean and resistance are 0
        self.f1 = [scenario.driver.scalar(t, 0.0, 0.0) for t in self.times]
        self.slope = scenario.driver.y_slope
        self.denom = 1.0 - self.slope * grid.dt   # 1.0 at slope 0, where / is exact
        self.last, self.delta = first, np.zeros(len(self.times))
        self.laws, self.zeta, self.zeta_sq = [None] * len(self.times), None, None

    def sweep(self) -> float:
        """One sweep; returns its distance from the last, the Lipschitz metric
        of `solve_interval` on dy_j and dz_j / zeta_j, the same on every particle."""
        first, last, m, dt = self.first, self.last, len(self.times) - 1, self.grid.dt
        g = self.scenario.resistance.apply(self.window, last.k)
        mean_y = first.stats["mean_y"] + ((self.delta + last.tail) - first.tail)
        delta, rho, s = np.zeros(m + 1), np.empty(m + 1), np.empty(m + 1)
        for j in range(m, -1, -1):
            if j < m:
                f = self.slope * last.tail[j] + self.scenario.driver.scalar(
                    self.times[j], float(mean_y[j]), float(g[j]))
                delta[j] = (delta[j + 1] + (f - self.f1[j]) * dt) / self.denom
            if delta[j] != 0.0 and self.laws[j] is None:
                self._zeta_pass()
                self.laws[j] = self.backend.law(first.lo + j, first.y[j])
            # ybar1_j + delta_j is the kept y1_j plus delta_j - tail1_j
            rho[j] = first.shifts[j] if delta[j] == 0.0 else loss_operator(
                self.scenario.loss, self.times[j], self.laws[j], delta[j] - first.tail[j])
            s[j] = rho[j] if j == m else np.maximum(rho[j], s[j + 1])
        tail = s - s[m]
        new = ReflectedSolution(lo=first.lo, hi=first.hi, y=first.y, k=s[0] - s, tail=tail,
                                step_offsets=tail[1:], shifts=rho)
        dy = (delta + new.tail) - (self.delta + last.tail)
        moved = (delta - self.delta)[1:]   # nonzero only once `_zeta_pass` ran
        z_term = 0.0 if self.zeta_sq is None else float(np.sum(moved * moved * self.zeta_sq))
        dk = float(np.max(np.abs(new.k - last.k)))
        self.last, self.delta = new, delta
        return math.sqrt(float(np.max(dy * dy)) + z_term * dt + dk * dk)

    def _zeta_pass(self):
        """zeta's records and E|zeta_j|^2, read on the first call."""
        if self.zeta is None:
            backend = self.backend
            self.zeta, sq = zip(*(backend.condexp_and_z(i, np.ones(backend.count(i + 1)), fit=0)
                                  for i in range(self.first.lo, self.first.hi)))
            self.zeta_sq = np.array([q[0] for q in sq])

    def write_back(self) -> ReflectedSolution:
        """The last sweep's iterate: its offsets added to first's values, its
        z record formed, and first's records, which at lam > 0 leave the rest
        to `complete_record`. A node whose shift is 0.0 is skipped, not
        changed: y_j = ybar_j + tail_j and tail_j = s_j - s_m is never -0.0,
        so y + 0.0 is y. A step whose delta_(j+1) is 0.0 keeps its z record."""
        first, delta, last = self.first, self.delta, self.last
        last.stats, last.sup = first.stats, first.sup
        for j, y in enumerate(first.y):
            shift = (delta[j] + last.tail[j]) - first.tail[j]
            if shift != 0.0:
                y += shift
        last.z_record = [rec if dj == 0.0 else rec + dj * self.zeta[j][0]
                         for j, (rec, dj) in enumerate(zip(first.z_record, delta[1:]))]
        return last


def default_tolerances(solution: ReflectedSolution, grid: TimeGrid) -> dict:
    """Suggested acceptance tolerances: statistical error plus quadrature slack."""
    se_max = float(np.max(solution.diagnostics["constraint_se"]))
    k_total = float(solution.k[-1])
    return {
        "constraint": 3.0 * se_max + 1e-12,
        "flatness": 3.0 * se_max * k_total + k_total * grid.dt + 1e-12,
    }
