import dataclasses

import numpy as np
import pytest

from mrbsde import stitch
from mrbsde.condexp import LatticeBackend, RegressionBackend
from mrbsde.model import (ResistanceSpec, ScenarioSpec, linear_shift_loss,
                          quadratic_z_driver, scaled_tanh_terminal)
from mrbsde.paths import antithetic, make_grid, sample_ensemble
from mrbsde.picard import ConstantsReport, constants_report, picard_solve
from mrbsde.reflect import constraint_diagnostics, solve_deflated, sup_norm, zero_solution
from mrbsde.scenarios import get
from mrbsde.stitch import PlanError, plan_intervals, solve_global, stitch_constants


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
    constants = stitch_constants(spec)
    plan = plan_intervals(spec, make_grid(0.5, 64), constants, intervals=4)
    assert plan.breaks == [0, 16, 32, 48, 64]
    # each interval of 1/8 is past the horizon 1/480, and its solve says so
    grid, backend = lattice(0.5, 8)
    plan = plan_intervals(spec, grid, constants, intervals=4)
    _, report = solve_global(spec, grid, backend, plan)
    assert [h.warnings for h in report.histories] == [[
        "horizon 0.125 exceeds the contraction horizon 0.00208333 (advisory)"]] * 4


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
    # f = 0 in quadratic mode with lam = |gamma|/2 = 0.1: quadratic stitching
    # needs lam > 0 and zero_bound
    driver = quadratic_z_driver(a=0, gamma=0.2, z_cap=0, b=0, zero_bound=1)
    return ScenarioSpec(name="bounded_zero", horizon=1.0, brownian_dim=1,
                        terminal=scaled_tanh_terminal(1.0), driver=driver,
                        resistance=ResistanceSpec("zero"),
                        loss=linear_shift_loss(c0=-1.0))


def test_stitched_quadratic_martingale_stays_bounded():
    # f = 0 and |xi| <= L: the solution is the conditional expectation of xi,
    # so its sup norm stays below L and far below the horizon-uniform bound
    spec = bounded_zero_scenario()
    grid, backend = lattice(1.0, 8)
    constants = stitch_constants(spec)
    # the derived quadratic horizon is far below desk-scale grids; an explicit
    # interval count exercises the pasting with the horizon warning recorded
    plan = plan_intervals(spec, grid, constants, intervals=2)
    sol, _ = solve_global(spec, grid, backend, plan)
    assert sup_norm(sol.y) <= 1.0 + 1e-12 < constants.y_bound


def test_stitched_y_is_each_pieces_y(monkeypatch):
    pieces = []

    def keep(*args, **kwargs):
        sol, history = picard_solve(*args, **kwargs)
        pieces.append(sol)
        return sol, history

    monkeypatch.setattr(stitch, "picard_solve", keep)
    grid, backend = lattice(1.0, 9)
    spec = get("A_sine_constraint").spec
    plan = plan_intervals(spec, grid, stitch_constants(spec), intervals=3)
    sol, _ = solve_global(spec, grid, backend, plan)
    assert [(p.lo, p.hi) for p in pieces] == [(6, 9), (3, 6), (0, 3)]
    # every node of every piece, both sides of each seam included
    for piece in pieces:
        for idx in range(piece.hi - piece.lo + 1):
            assert np.array_equal(sol.y[piece.lo + idx], piece.y[idx])
    # the later intervals' reflection is already inside each piece's y, so the
    # pasted tail is each piece's own, not one recomputed from the global k
    assert not np.array_equal(sol.tail, sol.k[-1] - sol.k)


@pytest.mark.parametrize("intervals", [2, 4])
def test_stitched_refit_z_matches_the_stored_z(intervals, regression_backend):
    # A's zero driver makes every sweep's deflated process the first one's, so
    # `solve_deflated` on each piece, from the pasted value at its right edge,
    # stores the z that the pieces' sweeps fitted. The refit z_j reads step
    # j's own offset: at a seam the earlier piece's last step projected the
    # seam value itself, whatever the global tail there
    spec = get("A_sine_constraint").spec
    grid, backend = regression_backend(spec.horizon, 16, N=2000, seed=7)
    plan = plan_intervals(spec, grid, stitch_constants(spec), intervals=intervals)
    sol, _ = solve_global(spec, grid, backend, plan)
    stored = []
    for lo, hi in zip(plan.breaks, plan.breaks[1:]):
        _, z = solve_deflated(spec, grid, backend, zero_solution(backend, lo, hi), sol.y[hi])
        stored += z[:-1]
    refit = [backend.condexp_and_z(i, sol.y[i + 1] - c)[1]
             for i, c in enumerate(sol.step_offsets)]
    assert len(refit) == len(stored) == grid.n
    scale = max(float(np.max(np.abs(z))) for z in stored)
    for i, (got, want) in enumerate(zip(refit, stored)):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, f"step {i}"
    # K binds after a seam, so the global tail there is not the step's offset
    assert max(sol.tail[b] for b in plan.breaks[1:-1]) > 0.05


@pytest.mark.parametrize("name,kind,n", [
    ("A_sine_constraint", "lattice", 9), ("A_sine_constraint", "regression", 12),
    ("D_quadratic", "lattice", 8), ("B_meanfield_linear", "regression", 10)])
def test_stitched_diagnostics_equal_a_fresh_pass(name, kind, n):
    # the pasted per-node values, and the record built from them, are what one
    # loss pass over the stitched answer gives, bit for bit
    spec = get(name).spec
    grid = make_grid(spec.horizon, n)
    if kind == "lattice":
        backend = LatticeBackend(grid)
    else:
        backend = RegressionBackend(antithetic(sample_ensemble(grid, 500, 1, seed=5)))
    plan = plan_intervals(spec, grid, stitch_constants(spec), intervals=3)
    sol, _ = solve_global(spec, grid, backend, plan)
    fresh = constraint_diagnostics(spec.loss, grid, backend, sol.y, sol.k)
    assert sol.diagnostics.keys() == fresh.keys()
    for key, value in fresh.items():
        assert np.array_equal(sol.diagnostics[key], value), key


def test_one_constraint_pass_per_solve(monkeypatch):
    # the diagnostics describe the answer, so a solve makes one loss pass over
    # the nodes however many sweeps it takes, and a stitched solve one per interval
    from mrbsde import cli, picard, reflect

    original = reflect.constraint_diagnostics
    calls = []

    def count(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (reflect, picard, stitch, cli):
        if getattr(module, "constraint_diagnostics", None) is original:
            monkeypatch.setattr(module, "constraint_diagnostics", count)
    spec = get("A_sine_constraint").spec
    grid, backend = lattice(1.0, 9)

    sol, history = picard_solve(spec, grid, backend)
    assert len(history.distances) > 1 and len(calls) == 1
    assert calls[0][4] is sol.k        # the pass ran on the returned iterate

    calls.clear()
    plan = plan_intervals(spec, grid, stitch_constants(spec), intervals=3)
    sol, report = solve_global(spec, grid, backend, plan)
    assert sum(len(h.distances) for h in report.histories) > 3 and len(calls) == 3
