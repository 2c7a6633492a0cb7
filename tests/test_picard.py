import math

import numpy as np
import pytest

from mrbsde.condexp import LatticeBackend
from mrbsde.model import (ResistanceSpec, ScenarioSpec, brownian_shift_terminal,
                          brownian_terminal, linear_mean_driver,
                          linear_shift_loss, linear_y_driver, mean_resist_driver,
                          zero_driver)
from mrbsde.paths import make_grid
from mrbsde.picard import (ConvergenceError, PicardHistory, constants_report,
                           contraction_estimate, lipschitz_horizon, picard_solve,
                           quadratic_ball_floor, quadratic_contraction_coeff,
                           quadratic_contraction_horizon,
                           quadratic_stability_horizon, uniform_y_bound)
from mrbsde.scenarios import get


def lattice(T, n):
    grid = make_grid(T, n)
    return grid, LatticeBackend(grid)


# ---------------------------------------------------------------------------
# Constants: values locked against independent hand evaluation
# ---------------------------------------------------------------------------


def test_lipschitz_horizon_values():
    assert lipschitz_horizon(1.0, 1.0) == pytest.approx(1.0 / 1920.0, rel=1e-12)
    assert lipschitz_horizon(3.0, 0.05) == pytest.approx(0.078125, rel=1e-9)
    # nonincreasing in both arguments
    assert lipschitz_horizon(2.0, 1.0) < lipschitz_horizon(1.0, 1.0)
    assert lipschitz_horizon(1.0, 2.0) < lipschitz_horizon(1.0, 1.0)
    with pytest.raises(ValueError):
        lipschitz_horizon(1.0, 0.0)


def test_ball_floor_values():
    assert quadratic_ball_floor(1.0, 1.0, 1.0) == pytest.approx(
        7.0 + 8.0 * math.exp(9.0), rel=1e-12)
    # bound -> 0 limit collapses to 1 + hl*lam
    assert quadratic_ball_floor(1.0, 1e-14, 1.0) == pytest.approx(2.0, abs=1e-10)
    assert quadratic_ball_floor(1.0, 2.0, 1.0) > quadratic_ball_floor(1.0, 1.0, 1.0)


def test_stability_horizon_values():
    # min(L/(9 lam A), L^2/(9 lam^2 A^2), (L/(3 lam A^(1+a)))^(2/(1-a)))
    got = quadratic_stability_horizon(10.0, 1.0, 1.0, 0.0)
    assert got == pytest.approx(1.0 / 900.0, rel=1e-12)
    # at alpha = 0 the third argument reduces to (L/(3 lam A))^2 = second argument
    third = (1.0 / 30.0) ** 2
    assert got == pytest.approx(third, rel=1e-12)
    assert quadratic_stability_horizon(20.0, 1.0, 1.0, 0.0) < got
    with pytest.raises(ValueError):
        quadratic_stability_horizon(10.0, 1.0, 1.0, 1.0)


def test_contraction_coeff_values():
    assert quadratic_contraction_coeff(1.0, 1.0, 1.0) == pytest.approx(
        7.0 + 26.0 * math.sqrt(37.0), rel=1e-12)
    # vanishing hl and lam limit: 4 + 2*1*1
    assert quadratic_contraction_coeff(0.0, 1e-12, 1.0) == pytest.approx(6.0, abs=1e-9)
    assert (quadratic_contraction_coeff(1.0, 1.0, 2.0)
            > quadratic_contraction_coeff(1.0, 1.0, 1.0))


def test_contraction_horizon_readings():
    sel, literal, reciprocal = quadratic_contraction_horizon(
        10.0, 1.0, 1.0, 1.0, 0.0, reading="reciprocal")
    coeff = quadratic_contraction_coeff(1.0, 1.0, 10.0)
    stability = quadratic_stability_horizon(10.0, 1.0, 1.0, 0.0)
    expected = min(1.0 / (4.0 * coeff), 1.0 / (12.0 * coeff ** 2),
                   1.0 / (24.0 * coeff ** 2), stability)
    assert sel == pytest.approx(expected, rel=1e-12)
    assert sel == reciprocal
    assert literal >= reciprocal
    assert sel <= stability                      # min always includes it
    with pytest.raises(ValueError):
        quadratic_contraction_horizon(10.0, 1.0, 1.0, 1.0, 0.0, reading="other")


def test_uniform_bound_values():
    b1, b2, b = uniform_y_bound(0.0, 1.0, 1.0, 1.0)
    assert b1 == pytest.approx(2.0 * math.e, rel=1e-12)
    assert b2 == pytest.approx((1.0 / 3.0) * (5.0 + 4.0 * math.e)
                               * math.exp(6.0 * math.e), rel=1e-12)
    assert b == pytest.approx(2.0 * math.e + 1.0, rel=1e-12)
    # T -> 0 limit of the first bound is the input bound
    t1, _, _ = uniform_y_bound(1.0, 1.0, 1.0, 1e-14)
    assert t1 == pytest.approx(1.0, abs=1e-10)
    assert b >= b1


def test_constants_report_roundtrip():
    rep = constants_report(1.0, 1.0, 1.0, 0.0, horizon=1.0)
    d = rep.to_dict()
    assert d["delta_lipschitz"] == pytest.approx(1.0 / 1920.0, rel=1e-12)
    assert d["ball_floor"] == pytest.approx(7.0 + 8.0 * math.exp(9.0), rel=1e-12)
    assert d["delta_contraction"] <= d["delta_stability"]
    assert d["delta_contraction_literal"] is not None
    assert d["delta_contraction_reciprocal"] is not None
    with pytest.raises(ValueError):
        constants_report(1.0, 1.0, 1.0, radius=1.0)   # below the floor


# ---------------------------------------------------------------------------
# The iteration
# ---------------------------------------------------------------------------


def test_driver_ignoring_iterate_fixes_in_one_sweep():
    grid, backend = lattice(1.0, 4)
    spec = get("A_sine_constraint").spec
    sol, hist = picard_solve(spec, grid, backend)
    assert hist.distances[1] == 0.0
    est = contraction_estimate(hist)
    assert est.max_ratio == 0.0


def test_scenario_b_matches_scalar_recursion():
    # the discrete fixed-point mean follows m_i = m_{i+1} / (1 - a dt)
    b = get("B_meanfield_linear").spec
    grid, backend = lattice(b.horizon, 8)
    sol, hist = picard_solve(b, grid, backend, tol=1e-12)
    ref = (1.0 - 0.5 * grid.dt) ** -8
    assert sol.mean_y_path(backend)[0] == pytest.approx(ref, abs=1e-10)
    assert np.array_equal(sol.k, np.zeros(9))
    assert any("exceeds the contraction horizon" in w for w in hist.warnings)


def test_binding_resistance_fixed_point_vs_recursion():
    # f = -G(k) with a decreasing shift profile: the reflection satisfies
    # K_i = (c(0) - c(t_i)) + dt * sum_{j<i} K_j, solvable forward exactly
    T, n = 0.05, 8
    omega = math.pi / (2 * T)
    spec = ScenarioSpec(name="bind", horizon=T, brownian_dim=1,
                        terminal=brownian_terminal(),
                        driver=mean_resist_driver(0.0, -1.0),
                        resistance=ResistanceSpec("evaluation"),
                        loss=linear_shift_loss(c0=0.2, amp=-0.2, omega=omega))
    grid, backend = lattice(T, n)
    sol, _ = picard_solve(spec, grid, backend, tol=1e-12)

    def c(t):
        return 0.2 - 0.2 * math.sin(omega * t)

    ref = [0.0]
    for i in range(1, n + 1):
        ref.append((c(0.0) - c(grid.nodes[i])) + grid.dt * sum(ref[:i]))
    assert np.max(np.abs(sol.k - np.array(ref))) <= 1e-10
    assert sol.diagnostics["min_constraint"] >= -1e-10


def test_implicit_y_fixed_point_matches_closed_form():
    # the implicit node solve of f = 0.3 y gives E[Y_0] = E[xi] (1 - 0.3 dt)^-n
    spec = ScenarioSpec(name="ylin", horizon=0.25, brownian_dim=1,
                        terminal=brownian_shift_terminal(1.0),
                        driver=linear_y_driver(0.3),
                        resistance=ResistanceSpec("zero"),
                        loss=linear_shift_loss())
    grid, backend = lattice(0.25, 8)
    imp, _ = picard_solve(spec, grid, backend, tol=1e-12)
    ref = (1.0 - 0.3 * grid.dt) ** -8
    assert imp.mean_y_path(backend)[0] == pytest.approx(ref, abs=1e-10)


def test_divergent_iteration_raises_with_history():
    spec = ScenarioSpec(name="wild", horizon=1.0, brownian_dim=1,
                        terminal=brownian_shift_terminal(1.0),
                        driver=linear_mean_driver(6.0),
                        resistance=ResistanceSpec("zero"),
                        loss=linear_shift_loss())
    grid, backend = lattice(1.0, 12)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(spec, grid, backend, max_iter=4)
    assert isinstance(err.value.history, PicardHistory)
    assert len(err.value.history.distances) == 4


def test_quadratic_iterates_stay_in_ball():
    d = get("D_quadratic").spec
    grid, backend = lattice(d.horizon, 8)
    sol, hist = picard_solve(d, grid, backend)
    assert hist.ball_radius is not None
    assert hist.ball_records
    assert all(rec["inside"] for rec in hist.ball_records)


def test_picard_deterministic():
    b = get("B_meanfield_linear").spec
    grid, backend = lattice(b.horizon, 8)
    s1, h1 = picard_solve(b, grid, backend)
    s2, h2 = picard_solve(b, grid, backend)
    assert h1.distances == h2.distances
    assert np.array_equal(s1.k, s2.k)
    for a, c in zip(s1.y, s2.y):
        assert np.array_equal(a, c)


def test_contraction_estimate_guards():
    hist = PicardHistory(mode="lipschitz", metric="m", tolerance=1e-8)
    hist.distances = [1.0]
    with pytest.raises(ValueError):
        contraction_estimate(hist)
    hist.distances = [0.0, 0.0]
    with pytest.raises(ValueError):
        contraction_estimate(hist)
    hist.distances = [1.0, 0.25, 0.05]
    est = contraction_estimate(hist)
    assert est.max_ratio == pytest.approx(0.25)
    assert est.bound == pytest.approx(1.0 / math.sqrt(2.0))
