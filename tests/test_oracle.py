import dataclasses
import math

import numpy as np
import pytest

from mrbsde.condexp import LatticeBackend
from mrbsde.model import (ResistanceSpec, ScenarioSpec, brownian_terminal,
                          linear_shift_loss, linear_y_driver, mean_resist_driver,
                          zero_driver)
from mrbsde.oracle import OracleError, exact_solve, oracle_compare
from mrbsde.paths import make_grid
from mrbsde.picard import picard_solve
from mrbsde.scenarios import get, registry


def test_exact_scenario_a_hand_enumeration():
    sol = exact_solve(get("A_sine_constraint").spec, 2)
    assert np.allclose(sol.k, [0.0, 0.0, 0.3], atol=1e-12)
    assert sol.y[0][0] == pytest.approx(0.3, abs=1e-12)
    assert abs(sol.flatness_right) <= 1e-12


def test_exact_inactive_constraint_is_martingale():
    spec = ScenarioSpec(name="slack", horizon=1.0, brownian_dim=1,
                        terminal=brownian_terminal(), driver=zero_driver(),
                        resistance=ResistanceSpec("zero"),
                        loss=linear_shift_loss(c0=-0.5))   # l(t,y) = y + 0.5
    sol = exact_solve(spec, 4)
    assert np.array_equal(sol.k, np.zeros(5))
    root = math.sqrt(sol.dt)
    for i in range(5):
        states = np.array([(2 * j - i) * root for j in range(i + 1)])
        assert np.allclose(sol.y[i], states, atol=1e-13)


def test_exact_scenario_b_euler_error():
    sol = exact_solve(get("B_meanfield_linear").spec, 8)
    assert abs(sol.mean_y[0] - math.exp(0.25)) <= 0.02
    assert np.array_equal(sol.k, np.zeros(9))


def test_exact_scenario_d_quadratic():
    spec = get("D_quadratic").spec
    sol = exact_solve(spec, 8)
    assert sol.min_constraint >= 0.4          # slack constraint, l = y + 0.5
    assert np.array_equal(sol.k, np.zeros(9))
    assert max(np.max(np.abs(v)) for v in sol.y) <= 1.0


def test_exact_solve_guards():
    spec = get("A_sine_constraint").spec
    with pytest.raises(OracleError):
        exact_solve(spec, 13)
    wide = dataclasses.replace(spec, brownian_dim=2)
    with pytest.raises(OracleError):
        exact_solve(wide, 4)


def test_exact_solve_deterministic():
    a = exact_solve(get("C_resistance_lipschitz").spec, 6)
    b = exact_solve(get("C_resistance_lipschitz").spec, 6)
    assert np.array_equal(a.k, b.k)
    assert np.array_equal(a.mean_y, b.mean_y)
    assert a.flatness_right == b.flatness_right


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
def test_lattice_backend_matches_oracle(entry, regression_backend):
    spec = entry.spec
    _, backend = regression_backend(spec.horizon, 8, 4000, 3)
    report = oracle_compare(spec, backend)
    assert report["lattice"]["within"]
    assert report["lattice"]["mean_y"] <= 1e-10
    assert report["lattice"]["k"] <= 1e-10
    assert report["lattice"]["flatness"] <= 1e-10


BIND_T = 0.5


def _binding_resistance():
    # f = -G(k) under evaluation resistance with a decreasing shift profile
    # c(t) = 0.2 - 0.2 sin(omega t): K binds and feeds back into the generator
    omega = math.pi / (2 * BIND_T)
    spec = ScenarioSpec(name="bind", horizon=BIND_T, brownian_dim=1,
                        terminal=brownian_terminal(),
                        driver=mean_resist_driver(0.0, -1.0),
                        resistance=ResistanceSpec("evaluation"),
                        loss=linear_shift_loss(c0=0.2, amp=-0.2, omega=omega))
    return spec, lambda t: 0.2 - 0.2 * math.sin(omega * t)


@pytest.mark.parametrize("n", [6, 8, 12])
def test_exact_binding_resistance_matches_recursion(n):
    # the generator is deterministic, so K_i = (c(0) - c(t_i)) + dt sum_{j<i} K_j
    spec, c = _binding_resistance()
    sol = exact_solve(spec, n)
    ref = [0.0]
    for i in range(1, n + 1):
        ref.append((c(0.0) - c(sol.times[i])) + sol.dt * sum(ref[:i]))
    assert np.max(np.abs(sol.k - np.array(ref))) <= 1e-12
    assert sol.k[-1] > 0.0


@pytest.mark.parametrize("n", [6, 8, 12])
def test_lattice_backend_matches_oracle_under_binding_resistance(n):
    spec, _ = _binding_resistance()
    exact = exact_solve(spec, n)
    backend = LatticeBackend(make_grid(BIND_T, n))
    sol, _ = picard_solve(spec, backend.grid, backend, tol=1e-12)
    assert np.max(np.abs(sol.stats["mean_y"] - exact.mean_y)) <= 1e-10
    assert np.max(np.abs(sol.k - exact.k)) <= 1e-10
    assert abs(sol.diagnostics["flatness_right"] - exact.flatness_right) <= 1e-10


@pytest.mark.parametrize("n", [6, 8, 12])
def test_lattice_backend_matches_oracle_linear_y(n):
    # f = 0.8 y reads the current value: the solver's closed-form implicit
    # node step against the oracle's own per-node fixed point, with K binding
    spec = dataclasses.replace(_binding_resistance()[0], name="linear_y",
                               driver=linear_y_driver(0.8),
                               resistance=ResistanceSpec("zero"))
    exact = exact_solve(spec, n)
    backend = LatticeBackend(make_grid(BIND_T, n))
    sol, _ = picard_solve(spec, backend.grid, backend, tol=1e-12)
    assert np.max(np.abs(sol.stats["mean_y"] - exact.mean_y)) <= 1e-10
    assert np.max(np.abs(sol.k - exact.k)) <= 1e-10
    assert sol.k[-1] > 0.0


def test_regression_backend_within_monte_carlo_budget(regression_backend):
    spec = get("A_sine_constraint").spec
    _, backend = regression_backend(spec.horizon, 8, 20000, 3)
    report = oracle_compare(spec, backend)
    assert report["regression"]["settings"] == {
        "N": 20000, "seed": 3, "degree": 3, "antithetic": True, "tol": None}
    assert report["regression"]["within"]
    assert report["regression"]["k"] <= 1e-2


def test_regression_deviation_shrinks_with_ensemble_size(regression_backend):
    # without antithetic pairing the mean-path deviation is statistical,
    # ~ N^{-1/2}; sixteenfold particles should cut it at least in half
    # (the reflection path is not used here: a uniform mean shift cancels
    # in its running maximum, so its error is not monotone in N)
    spec = get("A_sine_constraint").spec
    small = oracle_compare(spec, regression_backend(spec.horizon, 8, 2000, 17, False)[1])
    large = oracle_compare(spec, regression_backend(spec.horizon, 8, 32000, 17, False)[1])
    assert large["regression"]["mean_y"] <= 0.5 * small["regression"]["mean_y"]


def test_reflection_refines_with_grid():
    # node-sampled reflection converges to the closed form as the grid refines;
    # odd step counts keep the constraint peak off the grid so the error is
    # the genuine sampling gap of the backward running supremum
    entry = get("A_sine_constraint")
    errors = []
    for n in (5, 7, 9, 11):
        sol = exact_solve(entry.spec, n)
        nodes = sol.times
        k_exact = np.array([entry.closed_form["k"](t) for t in nodes])
        errors.append(float(np.max(np.abs(sol.k - k_exact))))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 4e-3


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
def test_exact_flatness_on_every_builtin(entry):
    sol = exact_solve(entry.spec, 6)
    assert abs(sol.flatness_right) <= 1e-12
    assert sol.k[0] == 0.0
    assert np.all(np.diff(sol.k) >= 0.0)
