import dataclasses

import numpy as np
import pytest

from mrbsde.condexp import LatticeBackend, RegressionBackend
from mrbsde.model import (QUADRATIC, DriverSpec, ResistanceSpec, ScenarioSpec,
                          linear_shift_loss, scaled_tanh_terminal)
from mrbsde.paths import antithetic, make_grid, sample_ensemble
from mrbsde.picard import ConstantsReport, constants_report, picard_solve
from mrbsde.scenarios import get
from mrbsde.stitch import (PlanError, plan_intervals, solve_global,
                           stitch_constants, uniform_bound_check)


def lattice(T, n):
    grid = make_grid(T, n)
    return grid, LatticeBackend(grid)


def fake_constants(delta: float) -> ConstantsReport:
    return ConstantsReport(hl_const=1.0, lam=1.0, delta_lipschitz=delta)


def test_plan_single_interval_when_horizon_ample():
    spec = get("A_sine_constraint").spec
    grid = make_grid(1.0, 10)
    plan = plan_intervals(spec, grid, fake_constants(2.0))
    assert plan.breaks == [0, 10]


def test_plan_ceiling_arithmetic():
    # T = 0.5, delta* = 0.2 -> ceil(2.5) = 3 balanced intervals
    spec = get("A_sine_constraint").spec
    grid = make_grid(0.5, 10)
    plan = plan_intervals(spec, grid, fake_constants(0.2))
    assert plan.n_intervals == 3
    assert plan.breaks == [0, 4, 7, 10]
    assert max(plan.lengths(grid)) <= 0.2 + 1e-15


def test_plan_from_derived_horizon():
    # delta*(hl=3, lam=0.05) = 0.078125, so T=0.5 on n=64 splits into 7
    spec = get("B_meanfield_linear").spec
    grid = make_grid(0.5, 64)
    constants = constants_report(3.0, None, 0.05)
    plan = plan_intervals(spec, grid, constants)
    assert plan.n_intervals == 7
    assert max(plan.lengths(grid)) <= 0.078125 + 1e-15
    assert not plan.warnings


def test_plan_refuses_resistance():
    spec = get("C_resistance_lipschitz").spec
    grid = make_grid(spec.horizon, 8)
    with pytest.raises(PlanError, match="resistance-free"):
        plan_intervals(spec, grid, fake_constants(1.0))


def test_plan_refuses_subgrid_horizon():
    spec = get("A_sine_constraint").spec
    grid = make_grid(1.0, 10)       # dt = 0.1
    with pytest.raises(PlanError, match="finer grid"):
        plan_intervals(spec, grid, fake_constants(0.05))


def test_plan_explicit_count_warns_past_horizon():
    spec = get("B_meanfield_linear").spec
    grid = make_grid(0.5, 64)
    constants = stitch_constants(spec)
    plan = plan_intervals(spec, grid, constants, intervals=4)
    assert plan.breaks == [0, 16, 32, 48, 64]
    assert any("advisory" in w for w in plan.warnings)


def test_single_interval_plan_equals_local_solve():
    spec = get("A_sine_constraint").spec
    grid, backend = lattice(1.0, 8)
    plan = plan_intervals(spec, grid, fake_constants(2.0))
    stitched, report = solve_global(spec, grid, backend, plan, tol=1e-12)
    local, _ = picard_solve(spec, grid, backend, tol=1e-12)
    assert np.array_equal(stitched.k, local.k)
    for a, b in zip(stitched.y, local.y):
        assert np.array_equal(a, b)
    assert report.seam_constraints == []


def test_lattice_two_interval_reflection_unique():
    spec = get("A_sine_constraint").spec
    grid, backend = lattice(1.0, 8)
    plan1 = plan_intervals(spec, grid, fake_constants(2.0), intervals=1)
    plan2 = plan_intervals(spec, grid, fake_constants(2.0), intervals=2)
    s1, _ = solve_global(spec, grid, backend, plan1, tol=1e-12)
    s2, r2 = solve_global(spec, grid, backend, plan2, tol=1e-12)
    assert np.max(np.abs(s1.k - s2.k)) <= 1e-10
    assert all(c >= -1e-10 for c in r2.seam_constraints)
    # the seam constraint is the one-interval solve's constraint at that node
    assert len(r2.seam_constraints) == 1
    assert abs(r2.seam_constraints[0] - s1.diagnostics["constraint"][4]) <= 1e-10
    # so is Y at the seam node, the terminal value of the left interval
    assert np.max(np.abs(s2.y[4] - s1.y[4])) <= 1e-10


def test_global_reflection_contract():
    spec = get("B_meanfield_linear").spec
    grid = make_grid(spec.horizon, 32)
    ens = antithetic(sample_ensemble(grid, 2000, 1, seed=1))
    backend = RegressionBackend(ens, degree=2)
    plan = plan_intervals(spec, grid, stitch_constants(spec), intervals=4)
    sol, report = solve_global(spec, grid, backend, plan, tol=1e-6)
    assert sol.k[0] == 0.0
    assert np.all(np.diff(sol.k) >= 0.0)
    assert sol.diagnostics["min_constraint"] >= 0.0    # slack constraint
    assert len(report.histories) == 4


def test_solve_global_rejects_bad_plan():
    spec = get("A_sine_constraint").spec
    grid, backend = lattice(1.0, 8)
    plan = plan_intervals(spec, grid, fake_constants(2.0))
    bad = dataclasses.replace(plan, breaks=[0, 3, 2, 8])
    with pytest.raises(PlanError):
        solve_global(spec, grid, backend, bad)


def bounded_zero_scenario():
    driver = DriverSpec(kind="zero", mode=QUADRATIC, lam=0.1, zero_bound=1.0,
                        zero_z_bound=1.0)
    return ScenarioSpec(name="bounded_zero", horizon=1.0, brownian_dim=1,
                        terminal=scaled_tanh_terminal(1.0), driver=driver,
                        resistance=ResistanceSpec("zero"),
                        loss=linear_shift_loss(c0=-1.0))


def test_uniform_bound_check_martingale_case():
    # f = 0 and |xi| <= L: the solution is the conditional expectation of xi,
    # so its sup norm stays below L and far below the horizon-uniform bound
    spec = bounded_zero_scenario()
    grid, backend = lattice(1.0, 8)
    constants = stitch_constants(spec)
    # the derived quadratic horizon is far below desk-scale grids; an explicit
    # interval count exercises the pasting with the horizon warning recorded
    plan = plan_intervals(spec, grid, constants, intervals=2)
    sol, _ = solve_global(spec, grid, backend, plan)
    report = uniform_bound_check(sol, constants, spec, plan)
    assert report["applies"]
    assert report["s_inf"] <= 1.0 + 1e-12
    assert report["ok"]
    assert all(p["ok"] for p in report["per_interval"])


def test_uniform_bound_check_not_applicable_for_lipschitz():
    spec = get("A_sine_constraint").spec
    grid, backend = lattice(1.0, 4)
    sol, _ = picard_solve(spec, grid, backend)
    constants = constants_report(1.0, None, 1.0)
    report = uniform_bound_check(sol, constants, spec)
    assert not report["applies"]
    assert report["ok"] is None
