import math

import numpy as np
import pytest

from mrbsde.condexp import LatticeBackend, RegressionBackend
from mrbsde.model import (ResistanceSpec, ScenarioSpec,
                          brownian_shift_terminal, brownian_terminal,
                          constant_driver, linear_mean_driver, linear_shift_loss,
                          linear_y_driver, zero_driver)
from mrbsde.paths import antithetic, make_grid, sample_ensemble
from mrbsde.picard import _frozen_from, picard_solve
from mrbsde.reflect import (StepSizeError, build_k, compose_solution,
                            constraint_diagnostics, empirical_norms,
                            flatness_residual,
                            solve_deflated, solve_interval, x_process,
                            zero_frozen, zero_solution)
from mrbsde.scenarios import get


def lattice(T, n):
    grid = make_grid(T, n)
    return grid, LatticeBackend(grid)


def scenario(driver, loss=None, terminal=None, T=1.0):
    return ScenarioSpec(name="t", horizon=T, brownian_dim=1,
                        terminal=terminal or brownian_terminal(), driver=driver,
                        resistance=ResistanceSpec("zero"),
                        loss=loss or linear_shift_loss())


def test_deflated_zero_driver_is_martingale():
    grid, backend = lattice(1.0, 4)
    spec = scenario(zero_driver())
    sweep = solve_deflated(spec, grid, backend, zero_frozen(backend, 0, 4))
    for i in range(5):
        assert np.allclose(sweep.ybar[i], backend.state(i)[:, 0], atol=1e-14)
    for i in range(4):
        assert np.allclose(sweep.z[i], 1.0, atol=1e-14)


def test_deflated_constant_driver_exact():
    grid, backend = lattice(1.0, 4)
    spec = scenario(constant_driver(0.7))
    sweep = solve_deflated(spec, grid, backend, zero_frozen(backend, 0, 4))
    for i in range(5):
        expected = backend.state(i)[:, 0] + 0.7 * (1.0 - grid.nodes[i])
        assert np.allclose(sweep.ybar[i], expected, atol=1e-13)


def test_deflated_frozen_mean_tracks_ode():
    # generator reads the frozen mean path e^{a(T-t)}; Euler error is O(dt)
    a, T, n = 0.5, 0.5, 8
    grid, backend = lattice(T, n)
    spec = scenario(linear_mean_driver(a), terminal=brownian_shift_terminal(1.0),
                    T=T)
    frozen = zero_frozen(backend, 0, n)
    frozen.mean_y[:] = np.exp(a * (T - grid.nodes))
    sweep = solve_deflated(spec, grid, backend, frozen)
    for i in range(n + 1):
        expected = backend.state(i)[:, 0] + math.exp(a * (T - grid.nodes[i]))
        assert np.max(np.abs(sweep.ybar[i] - expected)) <= 0.02


def test_implicit_rejects_coarse_grid():
    grid, backend = lattice(1.0, 2)
    spec = scenario(linear_y_driver(2.5))   # lam*dt = 1.25
    with pytest.raises(StepSizeError, match="finer grid"):
        solve_deflated(spec, grid, backend, zero_frozen(backend, 0, 2),
                       implicit_y=True)


def test_x_process_zero_driver():
    grid, backend = lattice(1.0, 4)
    spec = scenario(zero_driver())
    sweep = solve_deflated(spec, grid, backend, zero_frozen(backend, 0, 4))
    xi = spec.terminal.evaluate(backend.state(4))
    x = x_process(grid, backend, xi, sweep.realized_f)
    for i in range(5):
        assert np.allclose(x[i], backend.state(i)[:, 0], atol=1e-14)


def _x_and_ybar_after_one_sweep(backend_kind, style):
    """The target process and the deflated process of one sweep from the
    frozen inputs of a first iterate, in the given sweep style."""
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
    frozen, implicit = _frozen_from(spec, grid, backend, prev)
    sweep = solve_deflated(spec, grid, backend, frozen, implicit)
    xi = spec.terminal.evaluate(backend.state(n))
    return x_process(grid, backend, xi, sweep.realized_f), sweep.ybar


def test_x_equals_deflated_under_full_freeze():
    # the solve reads the reflection off the deflated process: the target
    # process recomputed on the sweep's realized generator values matches it
    # in every sweep style, bit for bit on the lattice
    for style in ("quadratic", "implicit_y"):
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
    sweep = solve_deflated(spec, grid, backend, zero_frozen(backend, 0, 8))
    xi = spec.terminal.evaluate(backend.state(8))
    x = x_process(grid, backend, xi, sweep.realized_f)
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
    frozen = zero_frozen(backend, 0, 8)
    sol = solve_interval(spec, grid, backend, frozen)
    # the minimal-shift search runs at the lattice's 1e-13 tolerance
    assert sol.y[0][0] == pytest.approx(0.3, abs=1e-9)
    assert abs(sol.diagnostics["flatness_right"]) <= 1e-9

    # spurious extra reflection shifts values up and breaks flatness at the
    # interior increments
    k_bad = sol.k.copy()
    k_bad[-1] += 0.1
    y_bad = [v + 0.1 for v in sol.y[:-1]] + [sol.y[-1]]
    constraint = constraint_diagnostics(spec.loss, grid, backend, y_bad,
                                        k_bad)["constraint"]
    right, _ = flatness_residual(constraint, k_bad)
    assert right > 0.01


def test_compose_zero_reflection_identity():
    ybar = [np.array([1.0]), np.array([2.0, 3.0])]
    y = compose_solution(ybar, np.zeros(2))
    assert all(np.array_equal(a, b) for a, b in zip(y, ybar))


def test_flatness_zero_when_reflection_flat():
    grid, backend = lattice(1.0, 4)
    loss = linear_shift_loss()
    y = [np.full(i + 1, 2.0) for i in range(5)]
    constraint = constraint_diagnostics(loss, grid, backend, y,
                                        np.zeros(5))["constraint"]
    right, left = flatness_residual(constraint, np.zeros(5))
    assert right == 0.0 and left == 0.0


def test_empirical_norms_examples():
    grid, backend = lattice(1.0, 4)
    y = [np.full(i + 1, -2.0) for i in range(5)]
    z = [np.ones((i + 1, 1)) for i in range(5)]
    norms = empirical_norms(y, z, np.zeros(5), grid, backend)
    assert norms["s2"] == pytest.approx(2.0, abs=1e-12)
    assert norms["s_inf"] == pytest.approx(2.0, abs=1e-12)
    assert norms["h2"] == pytest.approx(1.0, abs=1e-12)
    assert norms["bmo"] == pytest.approx(1.0, abs=1e-12)


def test_norms_scenario_a_reflection_sup():
    grid, backend = lattice(1.0, 8)
    spec = get("A_sine_constraint").spec
    sol = solve_interval(spec, grid, backend, zero_frozen(backend, 0, 8))
    norms = empirical_norms(sol.y, sol.z, sol.k, grid, backend)
    assert norms["k_sup"] == pytest.approx(0.3, abs=1e-10)


def test_solution_constraint_profile_nonnegative():
    grid, backend = lattice(1.0, 8)
    spec = get("A_sine_constraint").spec
    sol = solve_interval(spec, grid, backend, zero_frozen(backend, 0, 8))
    assert sol.diagnostics["min_constraint"] >= -1e-10
    assert sol.k[0] == 0.0
    assert np.all(np.diff(sol.k) >= 0.0)


def test_solve_interval_window_offsets():
    # a window solve indexes state, time, and laws by global node
    grid, backend = lattice(1.0, 8)
    spec = get("A_sine_constraint").spec
    sol = solve_interval(spec, grid, backend, zero_frozen(backend, 4, 8),
                         lo=4, hi=8)
    assert len(sol.y) == 5
    assert sol.k[0] == 0.0
    # on [T/2, T] the shift profile decreases: k_j = rho_0 - rho_j
    assert np.allclose(sol.k, sol.rho[0] - sol.rho, atol=1e-12)
