import math
import sys

import numpy as np
import pytest

from mrbsde import stitch
from mrbsde.condexp import LatticeBackend, RegressionBackend
from mrbsde.model import (LIPSCHITZ, LossSpec, ResistanceSpec, ScenarioSpec, brownian_terminal,
                          linear_shift_loss, linear_y_driver, quadratic_z_driver,
                          scaled_tanh_terminal)
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


def lengths(breaks, grid) -> list[float]:
    return [(b - a) * grid.dt for a, b in zip(breaks, breaks[1:])]


def test_plan_single_interval_when_horizon_ample():
    spec = get("A_sine_constraint").spec
    grid = make_grid(1.0, 10)
    assert plan_intervals(spec, grid, fake_constants(2.0)) == [0, 10]
    # a finite horizon whose ratio to the step overflows to inf is ample too
    tiny = make_grid(1e-160, 4)
    assert plan_intervals(spec, tiny, fake_constants(8e152)) == [0, 4]


def test_plan_ceiling_arithmetic():
    # T = 0.5, delta* = 0.2 -> ceil(2.5) = 3 balanced intervals
    spec = get("A_sine_constraint").spec
    grid = make_grid(0.5, 10)
    breaks = plan_intervals(spec, grid, fake_constants(0.2))
    assert breaks == [0, 4, 7, 10]
    assert max(lengths(breaks, grid)) <= 0.2 + 1e-15


def test_plan_from_derived_horizon():
    # delta*(hl=3, lam=0.05) = 0.078125, so T=0.5 on n=64 splits into 7
    spec = get("B_meanfield_linear").spec
    grid = make_grid(0.5, 64)
    constants = constants_report(3.0, None, 0.05)
    breaks = plan_intervals(spec, grid, constants)
    assert len(breaks) - 1 == 7
    assert max(lengths(breaks, grid)) <= 0.078125 + 1e-15


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
    assert plan_intervals(spec, make_grid(0.5, 64), constants,
                          intervals=4) == [0, 16, 32, 48, 64]
    # each interval of 1/8 is past the horizon 1/480, and its solve says so
    grid, backend = lattice(0.5, 8)
    breaks = plan_intervals(spec, grid, constants, intervals=4)
    _, histories = solve_global(spec, grid, backend, breaks, constants)
    assert [h.warnings for h in histories] == [[
        "horizon 0.125 exceeds the contraction horizon 0.00208333 (advisory)"]] * 4


def test_single_interval_plan_equals_local_solve():
    spec = get("A_sine_constraint").spec
    grid, backend = lattice(1.0, 8)
    constants = fake_constants(2.0)
    breaks = plan_intervals(spec, grid, constants)
    stitched, _ = solve_global(spec, grid, backend, breaks, constants, tol=1e-12)
    local, _ = picard_solve(spec, grid, backend, tol=1e-12)
    assert np.array_equal(stitched.k, local.k)
    for a, b in zip(stitched.values(backend), local.values(backend), strict=True):
        assert np.array_equal(a, b)
    assert breaks == [0, 8]     # no seam


def test_lattice_two_interval_reflection_unique():
    spec = get("A_sine_constraint").spec
    grid, backend = lattice(1.0, 8)
    constants = fake_constants(2.0)
    breaks1 = plan_intervals(spec, grid, constants, intervals=1)
    breaks2 = plan_intervals(spec, grid, constants, intervals=2)
    s1, _ = solve_global(spec, grid, backend, breaks1, constants, tol=1e-12)
    s2, _ = solve_global(spec, grid, backend, breaks2, constants, tol=1e-12)
    assert np.max(np.abs(s1.k - s2.k)) <= 1e-10
    seams = [s2.diagnostics["constraint"][b] for b in breaks2[1:-1]]
    assert all(c >= -1e-10 for c in seams)
    # the seam constraint is the one-interval solve's constraint at that node
    assert len(seams) == 1
    assert abs(seams[0] - s1.diagnostics["constraint"][4]) <= 1e-10
    # so is Y at the seam node, the terminal value of the left interval
    assert np.max(np.abs(s2.node(4, backend) - s1.node(4, backend))) <= 1e-10


def test_global_reflection_contract():
    spec = get("B_meanfield_linear").spec
    grid = make_grid(spec.horizon, 32)
    ens = antithetic(sample_ensemble(grid, 2000, 1, seed=1))
    backend = RegressionBackend(ens, degree=2)
    constants = stitch_constants(spec)
    breaks = plan_intervals(spec, grid, constants, intervals=4)
    sol, histories = solve_global(spec, grid, backend, breaks, constants, tol=1e-6)
    assert sol.k[0] == 0.0
    assert np.all(np.diff(sol.k) >= 0.0)
    assert sol.diagnostics["min_constraint"] >= 0.0    # slack constraint
    assert len(histories) == 4


def test_solve_global_rejects_bad_plan():
    spec = get("A_sine_constraint").spec
    grid, backend = lattice(1.0, 8)
    with pytest.raises(PlanError):
        solve_global(spec, grid, backend, [0, 3, 2, 8], fake_constants(2.0))


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
    breaks = plan_intervals(spec, grid, constants, intervals=2)
    sol, _ = solve_global(spec, grid, backend, breaks, constants)
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
    constants = stitch_constants(spec)
    sol, _ = solve_global(spec, grid, backend,
                          plan_intervals(spec, grid, constants, intervals=3), constants)
    assert [(p.lo, p.hi) for p in pieces] == [(6, 9), (3, 6), (0, 3)]
    # every node of every piece, both sides of each seam included
    for piece in pieces:
        for idx in range(piece.hi - piece.lo + 1):
            assert np.array_equal(sol.node(piece.lo + idx, backend), piece.node(idx, backend))
    # and of every piece's record, with one sup over the pieces' sups
    for key, values in sol.stats.items():
        assert np.array_equal(values, np.concatenate([p.stats[key][:-1] for p in pieces[::-1]]
                                                     + [pieces[0].stats[key][-1:]])), key
    assert np.array_equal(sol.sup, np.maximum.reduce([p.sup for p in pieces]))
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
    constants = stitch_constants(spec)
    breaks = plan_intervals(spec, grid, constants, intervals=intervals)
    sol, _ = solve_global(spec, grid, backend, breaks, constants)
    stored = []
    for lo, hi in zip(breaks, breaks[1:]):
        _, z = solve_deflated(spec, grid, backend, zero_solution(backend, lo, hi),
                              sol.node(hi, backend))
        stored += z[:-1]
    refit = [backend.condexp_and_z(i, sol.node(i + 1, backend) - c)[1]
             for i, c in enumerate(sol.step_offsets)]
    assert len(refit) == len(stored) == grid.n
    scale = max(float(np.max(np.abs(z))) for z in stored)
    for i, (got, want) in enumerate(zip(refit, stored)):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, f"step {i}"
    # K binds after a seam, so the global tail there is not the step's offset
    assert max(sol.tail[b] for b in breaks[1:-1]) > 0.05


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
    constants = stitch_constants(spec)
    sol, _ = solve_global(spec, grid, backend,
                          plan_intervals(spec, grid, constants, intervals=3), constants)
    fresh = constraint_diagnostics(spec.loss, grid, backend, sol.values(backend), sol.k)
    assert sol.diagnostics.keys() == fresh.keys()
    for key, value in fresh.items():
        assert np.array_equal(sol.diagnostics[key], value), key


def test_one_constraint_pass_per_solve(monkeypatch):
    # a Lipschitz solve records each node's constraint once per window: a
    # driver with lam = 0 (A) as its first sweep forms the node, where the
    # linear family evaluates the loss beside its search's pass at x = 0, and
    # one with lam > 0 (`linear_y`) in the closing pass. Its later sweeps
    # search only the laws of nodes that moved, none of A's, and read each
    # law's loss at x + offset = 0 once, its kept moments otherwise: at most
    # one evaluation per law they build (8 for 9 laws in one window here,
    # where a full pass at every such probe made 39). A quadratic solve
    # makes one closing pass per window, which evaluates every node, and its
    # sweeps evaluate the loss once per node, at x = 0
    from mrbsde import cli, picard, reflect

    original = reflect.complete_record
    calls, evaluations, laws = [], [], []

    def count(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (reflect, picard, stitch, cli):
        if getattr(module, "complete_record", None) is original:
            monkeypatch.setattr(module, "complete_record", count)
    write_back = reflect.ScalarSweeps.write_back

    def built(self):
        laws.append(sum(law is not None for law in self.laws))
        return write_back(self)

    monkeypatch.setattr(reflect.ScalarSweeps, "write_back", built)
    evaluate = LossSpec.evaluate

    def spy(*args, **kw):
        # the caller, and for a search the sweep that runs it
        evaluations.append((sys._getframe(1).f_code.co_name, sys._getframe(3).f_code.co_name))
        return evaluate(*args, **kw)

    monkeypatch.setattr(LossSpec, "evaluate", spy)
    linear_y = ScenarioSpec(name="ylin", horizon=0.5, brownian_dim=1,
                            terminal=brownian_terminal(), driver=linear_y_driver(0.8),
                            resistance=ResistanceSpec("zero"),
                            loss=linear_shift_loss(c0=0.2, amp=-0.2, omega=math.pi))
    for spec in (get("A_sine_constraint").spec, linear_y, get("D_quadratic").spec):
        grid, backend = lattice(spec.horizon, 9)
        constants = stitch_constants(spec)
        for breaks in ([0, grid.n], plan_intervals(spec, grid, constants, intervals=3)):
            calls.clear()
            evaluations.clear()
            laws.clear()
            if len(breaks) == 2:
                sol, history = picard_solve(spec, grid, backend)
                histories = [history]
            else:
                sol, histories = solve_global(spec, grid, backend, breaks, constants)
            nodes = np.diff(breaks) + 1
            sweeps = np.array([len(h.distances) for h in histories])
            assert np.all(sweeps > 1)
            assert len(calls) == len(histories)
            searched = [sweep for caller, sweep in evaluations if caller == "expected_loss"]
            if spec.mode == LIPSCHITZ:
                assert len(evaluations) - len(searched) == nodes.sum()
                assert searched.count("node_differences") == nodes.sum()
                assert len(searched) - nodes.sum() == searched.count("sweep") <= sum(laws)
                assert (sum(laws) > 0) == (spec is linear_y)   # its later sweeps move nodes
                if len(breaks) == 2 and spec is linear_y:
                    assert (searched.count("sweep"), sum(laws)) == (8, 9)
            else:
                assert len(evaluations) == np.sum((sweeps + 1) * nodes)
            if len(breaks) == 2:
                assert sol.diagnostics["constraint"].shape == (grid.n + 1,)
                assert calls[0][3] is sol      # the pass ran on the returned iterate
