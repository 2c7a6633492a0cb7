import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest

from mrbsde.condexp import LatticeBackend, RegressionBackend
from mrbsde.model import (LIPSCHITZ, QUADRATIC, DriverSpec, ResistanceSpec, ScenarioSpec,
                          brownian_shift_terminal, brownian_terminal,
                          constant_driver, linear_mean_driver, linear_shift_loss,
                          linear_y_driver, zero_driver)
from mrbsde.paths import antithetic, make_grid, sample_ensemble
from mrbsde.picard import picard_solve
from mrbsde.reflect import (ReflectedSolution, StepSizeError, build_k, complete_record,
                            empirical_norms, flatness_residual, solve_deflated,
                            solve_interval, x_process, zero_solution)
from mrbsde.scenarios import get
from two_pass import constraint_diagnostics


def lattice(T, n):
    grid = make_grid(T, n)
    return grid, LatticeBackend(grid)


def scenario(driver, loss=None, terminal=None, T=1.0):
    return ScenarioSpec(name="t", horizon=T, brownian_dim=1,
                        terminal=terminal or brownian_terminal(), driver=driver,
                        resistance=ResistanceSpec("zero"),
                        loss=loss or linear_shift_loss())


def first_prev(grid, backend, lo=0, hi=None, block=True):
    """The previous iterate of the first sweep: the zero triple."""
    return zero_solution(backend, lo, grid.n if hi is None else hi, block)


def first_sweep(spec, grid, backend, lo=0, hi=None, block=True):
    """The first sweep's iterate, written over a zero triple, or with no
    block its records and terminal node."""
    sol, _ = solve_interval(spec, grid, backend, first_prev(grid, backend, lo, hi, block))
    return sol


def deflate_with_generator(spec, grid, backend, prev):
    """The deflated process of one sweep and the generator values it
    realized: at each step, the step's one driver evaluation (of the scalar
    formula for a Lipschitz driver with no y term), divided in Lipschitz mode
    by 1 - y_slope * dt (the implicit node step solved in closed form)."""
    evals = {}
    name = "scalar" if spec.mode == LIPSCHITZ and not spec.driver.y_slope else "evaluate"
    evaluate = getattr(DriverSpec, name)

    def spy(self, t, *args):
        assert t not in evals, "one driver evaluation per step"
        evals[t] = evaluate(self, t, *args)
        return evals[t]

    with mock.patch.object(DriverSpec, name, spy):
        ybar, _ = solve_deflated(spec, grid, backend, prev)
    n = grid.n
    denom = 1.0 - spec.driver.y_slope * grid.dt if spec.mode == LIPSCHITZ else 1.0
    realized_f = ([evals[grid.nodes[i]] / denom for i in range(n)]
                  + [np.zeros(backend.count(n))])
    return ybar, realized_f


def test_deflated_zero_driver_is_martingale():
    grid, backend = lattice(1.0, 4)
    spec = scenario(zero_driver())
    ybar, z = solve_deflated(spec, grid, backend, first_prev(grid, backend))
    for i in range(5):
        assert np.allclose(ybar[i], backend.state(i)[:, 0], atol=1e-14)
    for i in range(4):
        assert np.allclose(z[i], 1.0, atol=1e-14)


def test_deflated_constant_driver_exact():
    grid, backend = lattice(1.0, 4)
    spec = scenario(constant_driver(0.7))
    ybar, _ = solve_deflated(spec, grid, backend, first_prev(grid, backend))
    for i in range(5):
        expected = backend.state(i)[:, 0] + 0.7 * (1.0 - grid.nodes[i])
        assert np.allclose(ybar[i], expected, atol=1e-13)


def test_deflated_frozen_mean_tracks_ode():
    # generator reads the previous iterate's mean path e^{a(T-t)}; Euler error
    # is O(dt)
    a, T, n = 0.5, 0.5, 8
    grid, backend = lattice(T, n)
    spec = scenario(linear_mean_driver(a), terminal=brownian_shift_terminal(1.0),
                    T=T)
    prev = first_prev(grid, backend)
    for j, row in enumerate(prev.y):
        row[...] = math.exp(a * (T - grid.nodes[j]))
    prev.stats["mean_y"] = np.exp(a * (T - grid.nodes))   # the mean a sweep records
    ybar, _ = solve_deflated(spec, grid, backend, prev)
    for i in range(n + 1):
        expected = backend.state(i)[:, 0] + math.exp(a * (T - grid.nodes[i]))
        assert np.max(np.abs(ybar[i] - expected)) <= 0.02


def test_implicit_rejects_coarse_grid():
    grid, backend = lattice(1.0, 2)
    spec = scenario(linear_y_driver(2.5))   # lam*dt = 1.25
    with pytest.raises(StepSizeError, match="finer grid"):
        solve_deflated(spec, grid, backend, first_prev(grid, backend))


def test_x_process_zero_driver():
    grid, backend = lattice(1.0, 4)
    spec = scenario(zero_driver())
    _, realized_f = deflate_with_generator(spec, grid, backend,
                                           first_prev(grid, backend))
    xi = spec.terminal.evaluate(backend.state(4))
    x = x_process(grid, backend, xi, realized_f)
    for i in range(5):
        assert np.allclose(x[i], backend.state(i)[:, 0], atol=1e-14)


def _x_and_ybar_after_one_sweep(backend_kind, style):
    """The target process and the deflated process of one sweep from the
    first iterate, in the given sweep style."""
    if style == "quadratic":
        spec = get("D_quadratic").spec
    else:
        spec = scenario(linear_y_driver(0.8), loss=get("A_sine_constraint").spec.loss,
                        terminal=brownian_shift_terminal(0.2), T=0.5)
    n = 6
    grid = make_grid(spec.horizon, n)
    if backend_kind == "lattice":
        backend = LatticeBackend(grid)
    else:
        backend = RegressionBackend(antithetic(sample_ensemble(grid, 1000, 1, 3)))
    prev, _ = picard_solve(spec, grid, backend, max_iter=1, tol=np.inf)
    ybar, realized_f = deflate_with_generator(spec, grid, backend, prev)
    xi = spec.terminal.evaluate(backend.state(n))
    return x_process(grid, backend, xi, realized_f), ybar


def test_x_equals_deflated_under_full_freeze():
    # the solve reads the reflection off the deflated process: the target
    # process recomputed on the sweep's realized generator values matches it
    # in every sweep style, bit for bit on the lattice
    for style in ("quadratic", "implicit"):
        x, ybar = _x_and_ybar_after_one_sweep("lattice", style)
        assert all(np.array_equal(xv, yv) for xv, yv in zip(x, ybar)), style
        x, ybar = _x_and_ybar_after_one_sweep("regression", style)
        gap = max(float(np.max(np.abs(xv - yv))) for xv, yv in zip(x, ybar))
        assert gap <= 1e-12, style


def test_x_process_mean_small_monte_carlo():
    grid = make_grid(1.0, 8)
    ens = sample_ensemble(grid, 2000, 1, seed=12)
    backend = RegressionBackend(ens, degree=3)
    spec = get("A_sine_constraint").spec
    _, realized_f = deflate_with_generator(spec, grid, backend,
                                           first_prev(grid, backend))
    xi = spec.terminal.evaluate(backend.state(8))
    x = x_process(grid, backend, xi, realized_f)
    for i in range(9):
        assert abs(backend.mean(i, x[i])) <= 5.0 / math.sqrt(2000)


def test_build_k_inactive_constraint():
    grid, backend = lattice(1.0, 4)
    loss = linear_shift_loss(c0=-0.5)          # l(t, y) = y + 0.5
    x = [backend.state(i)[:, 0] for i in range(5)]
    k, rho = build_k(loss, grid, backend, x)
    assert np.array_equal(k, np.zeros(5))
    assert np.array_equal(rho, np.zeros(5))


def test_build_k_scenario_a_hand_values():
    grid, backend = lattice(1.0, 2)
    spec = get("A_sine_constraint").spec
    x = [backend.state(i)[:, 0] for i in range(3)]
    k, rho = build_k(spec.loss, grid, backend, x)
    assert np.allclose(rho, [0.0, 0.3, 0.0], atol=1e-12)
    assert np.allclose(k, [0.0, 0.0, 0.3], atol=1e-12)


def test_build_k_monotone_rho_collapses():
    # decreasing shift profile: k_j = rho_0 - rho_j
    T = 1.0
    loss = linear_shift_loss(c0=0.2, amp=-0.2, omega=math.pi / (2 * T))
    grid, backend = lattice(T, 4)
    x = [np.zeros(i + 1) for i in range(5)]
    k, rho = build_k(loss, grid, backend, x)
    assert np.all(np.diff(rho) < 0)
    assert np.allclose(k, rho[0] - rho, atol=1e-15)


def test_build_k_structural_guarantees_random_targets():
    # whatever the target-process values, the running-supremum construction
    # starts at zero and never decreases
    grid, backend = lattice(1.0, 6)
    loss = get("A_sine_constraint").spec.loss
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = [rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 2), i + 1)
             for i in range(7)]
        k, rho = build_k(loss, grid, backend, x)
        assert k[0] == 0.0
        assert np.all(np.diff(k) >= 0.0)
        assert np.all(rho >= 0.0)
        # the remaining tail dominates every future shift up to the terminal one
        tails = k[-1] - k
        assert np.all(tails + rho[-1] >= rho - 1e-12)


def test_compose_and_negative_control():
    grid, backend = lattice(1.0, 8)
    spec = get("A_sine_constraint").spec
    sol = first_sweep(spec, grid, backend)
    # the minimal-shift search runs at the lattice's 1e-13 tolerance
    assert sol.y[0][0] == pytest.approx(0.3, abs=1e-9)
    diagnostics = constraint_diagnostics(spec.loss, grid, backend, sol.y, sol.k)
    assert abs(diagnostics["flatness_right"]) <= 1e-9

    # spurious extra reflection shifts values up and breaks flatness at the
    # interior increments
    k_bad = sol.k.copy()
    k_bad[-1] += 0.1
    y_bad = [v + 0.1 for v in sol.y[:-1]] + [sol.y[-1]]
    constraint = constraint_diagnostics(spec.loss, grid, backend, y_bad,
                                        k_bad)["constraint"]
    right, _ = flatness_residual(constraint, k_bad)
    assert right > 0.01


@pytest.mark.parametrize("kind", ["lattice", "regression"])
def test_y_view_recomposes_deflated_plus_tail(kind):
    # the sweep stores y_j = ybar_j + tail_j, with ybar the deflate pass's
    # values, in rows of one block that read back as stored
    if kind == "lattice":
        grid, backend = lattice(1.0, 8)
    else:
        grid = make_grid(1.0, 8)
        backend = RegressionBackend(antithetic(sample_ensemble(grid, 500, 1, seed=4)))
    spec = get("A_sine_constraint").spec
    ybar, _ = solve_deflated(spec, grid, backend, first_prev(grid, backend))
    sol = first_sweep(spec, grid, backend)
    assert sol.k[-1] > 0.0
    for j in range(9):
        assert np.array_equal(sol.y[j], ybar[j] + sol.tail[j])
    base = sol.y[0].base
    assert base is not None and all(row.base is base for row in sol.y)
    assert all(sol.y[j] is sol.y[j] for j in range(9))


def test_flatness_zero_when_reflection_flat():
    grid, backend = lattice(1.0, 4)
    loss = linear_shift_loss()
    y = [np.full(i + 1, 2.0) for i in range(5)]
    constraint = constraint_diagnostics(loss, grid, backend, y,
                                        np.zeros(5))["constraint"]
    right, left = flatness_residual(constraint, np.zeros(5))
    assert right == 0.0 and left == 0.0


def _with_z_record(grid, backend, y, **fields):
    """A hand-built solution whose z record is each step's fit of y_(j+1) less
    its step offset, as a sweep would write it."""
    offsets = fields["step_offsets"]
    return ReflectedSolution(0, grid.n, y=y, **fields, z_record=[
        backend.condexp_and_z(j, y[j + 1] - offsets[j], fit=0)[0][0] for j in range(grid.n)],
        sup=backend.sup_sq_mean(enumerate(y))[1])


def test_empirical_norms_examples():
    grid, backend = lattice(1.0, 4)
    zeros = np.zeros(5)
    # a constant y: its z is 0; the BMO proxy only in quadratic mode
    y = [np.full(i + 1, -2.0) for i in range(5)]
    sol = _with_z_record(grid, backend, y, k=zeros, tail=zeros, step_offsets=zeros[1:])
    post = empirical_norms(sol, grid, backend, LIPSCHITZ)
    assert post["norms"] == {"s2": 2.0, "h2": 0.0, "s_inf": 2.0, "k_sup": 0.0}
    assert np.array_equal(post["mean_z"], np.zeros((5, 1)))
    assert empirical_norms(sol, grid, backend, QUADRATIC)["norms"]["bmo"] == 0.0
    # y = B + 1 less step offsets of 1: z = 1 at every step, so H2 and the
    # BMO proxy are sqrt(T) = 1; sup |B + 1| over the 16 paths of the walk
    y = [backend.state(i)[:, 0] + 1.0 for i in range(5)]
    sol = _with_z_record(grid, backend, y, k=np.arange(5.0), tail=zeros,
                         step_offsets=np.ones(4))
    post = empirical_norms(sol, grid, backend, QUADRATIC)
    sups = [max(abs(1.0 + 0.5 * sum(steps[:i])) for i in range(5))
            for steps in itertools.product((-1, 1), repeat=4)]
    assert post["norms"]["s2"] == pytest.approx(math.sqrt(np.mean(np.square(sups))), rel=1e-15)
    assert post["norms"]["s_inf"] == 3.0 and post["norms"]["k_sup"] == 4.0
    assert post["norms"]["h2"] == pytest.approx(1.0, rel=1e-15)
    assert post["norms"]["bmo"] == pytest.approx(1.0, rel=1e-15)
    assert np.array_equal(post["mean_z"][:, 0], [1.0, 1.0, 1.0, 1.0, 0.0])


@pytest.mark.parametrize("kind", ["lattice", "regression"])
def test_s_inf_is_the_largest_sup_of_the_s2_pass(kind, regression_backend):
    # the largest per-particle (per-path) sup, which the first sweep takes in
    # its distance pass, is the largest |y| at any node, bitwise: every
    # lattice node lies on some path
    grid, backend = lattice(1.0, 8) if kind == "lattice" else regression_backend(
        1.0, 8, N=2000, seed=5)
    sol = first_sweep(get("A_sine_constraint").spec, grid, backend, block=False)
    s_inf = empirical_norms(sol, grid, backend, LIPSCHITZ)["norms"]["s_inf"]
    y = sol.values(backend)
    assert s_inf == max(max(float(np.max(v)), -float(np.min(v))) for v in y)
    assert np.array_equal(sol.sup, backend.sup_sq_mean(enumerate(y))[1])


def test_norms_scenario_a_reflection_sup():
    grid, backend = lattice(1.0, 8)
    spec = get("A_sine_constraint").spec
    sol = first_sweep(spec, grid, backend, block=False)
    norms = empirical_norms(sol, grid, backend, LIPSCHITZ)["norms"]
    assert norms["k_sup"] == pytest.approx(0.3, abs=1e-10)


def test_solution_constraint_profile_nonnegative():
    grid, backend = lattice(1.0, 8)
    spec = get("A_sine_constraint").spec
    sol = first_sweep(spec, grid, backend)
    diagnostics = constraint_diagnostics(spec.loss, grid, backend, sol.y, sol.k)
    assert diagnostics["min_constraint"] >= -1e-10
    assert sol.k[0] == 0.0
    assert np.all(np.diff(sol.k) >= 0.0)


def test_solve_interval_window_offsets():
    # a window solve indexes state, time, and laws by global node
    grid, backend = lattice(1.0, 8)
    spec = get("A_sine_constraint").spec
    sol = first_sweep(spec, grid, backend, 4, 8)
    assert len(sol.y) == 5
    assert sol.k[0] == 0.0
    # on [T/2, T] the shift profile decreases: k_j = rho_0 - rho_j
    ybar, _ = solve_deflated(spec, grid, backend, first_prev(grid, backend, 4, 8))
    _, rho = build_k(spec.loss, grid, backend, ybar, 4)
    assert np.allclose(sol.k, rho[0] - rho, atol=1e-12)


def test_regression_sweep_rows_share_one_block_per_field():
    grid = make_grid(1.0, 8)
    backend = RegressionBackend(antithetic(sample_ensemble(grid, 500, 2, seed=4)), degree=2)
    spec = get("A_sine_constraint").spec
    sweep = solve_deflated(spec, grid, backend, first_prev(grid, backend))
    for name, rows in zip(("ybar", "z"), sweep):
        base = rows[0].base
        assert base is not None and base.shape[0] == 9, name
        assert all(row.base is base and len(row) == 1000 for row in rows), name


def test_lattice_sweep_row_j_holds_the_window_nodes():
    grid, backend = lattice(1.0, 8)
    spec = get("B_meanfield_linear").spec
    lo, hi = 2, 6
    sweep = solve_deflated(spec, grid, backend, first_prev(grid, backend, lo, hi))
    for name, rows in zip(("ybar", "z"), sweep):
        assert [len(row) for row in rows] == [lo + j + 1 for j in range(hi - lo + 1)], name
        assert all(row.base is rows[0].base for row in rows), name
    assert all(z.shape == (lo + j + 1, 1) for j, z in enumerate(sweep[1]))


@pytest.mark.parametrize("d, degree", [(1, 0), (1, 1), (1, 3), (3, 3)])
def test_first_sweep_nodes_replay_bit_for_bit(d, degree, regression_backend):
    # a first sweep at lam = 0 from a zero triple with no block keeps every
    # node with a step as its fit's record and the node step's constant, and
    # reads its tail off the answer; formed again, the nodes are the values a
    # sweep over a zero block writes, byte for byte, node 0 included: on the
    # whole grid the particle mean at step 0, on a window at lo > 0 a fit
    # on the design refilled at a seam step. The records it takes as it
    # forms each node are the ones the closing pass takes from that block
    spec = dataclasses.replace(get("A_sine_constraint").spec, brownian_dim=d)
    grid, backend = regression_backend(spec.horizon, 8, N=4000, seed=7, degree=degree, d=d)
    for lo in (0, 3):
        free = first_sweep(spec, grid, backend, lo, block=False)
        block = first_sweep(spec, grid, backend, lo)
        assert free.k[-1] > 0.0 and all(type(y) is tuple for y in free.y[:-1])
        for a, b in zip(free.values(backend), block.y, strict=True):
            assert a.tobytes() == b.tobytes()
        assert block.sup is None and np.all(np.isnan(block.stats["std_y"]))
        complete_record(spec.loss, grid, backend, block)
        assert free.sup.tobytes() == block.sup.tobytes()
        for key, values in free.stats.items():
            assert values.tobytes() == block.stats[key].tobytes(), key
