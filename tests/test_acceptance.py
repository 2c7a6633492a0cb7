"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values once its assertions hold, at the stated tolerances."""

import math
import time

import numpy as np
import pytest

from mrbsde.condexp import LatticeBackend, RegressionBackend
from mrbsde.lossop import EmpiricalLaw, hl_lipschitz_probe
from mrbsde.model import (ResistanceSpec, ScenarioSpec, brownian_shift_terminal,
                          linear_mean_driver, mean_resist_driver,
                          sine_perturbed_loss)
from mrbsde.oracle import exact_solve
from mrbsde.paths import antithetic, make_grid, sample_ensemble
from mrbsde.picard import (contraction_estimate, lipschitz_horizon, picard_solve,
                           quadratic_ball_floor, scenario_constants,
                           uniform_y_bound)
from mrbsde.reflect import default_tolerances
from mrbsde.scenarios import get, registry
from mrbsde.stitch import plan_intervals, solve_global, stitch_constants

SEED = 20240808


def report(criterion: str, ok: bool, detail: str):
    """One pass/fail line per criterion, printed before the assertion."""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def mc_backend(spec, n, N, seed=SEED, degree=3, use_antithetic=True):
    grid = make_grid(spec.horizon, n)
    ens = sample_ensemble(grid, N // 2 if use_antithetic else N,
                          spec.brownian_dim, seed)
    if use_antithetic:
        ens = antithetic(ens)
    return grid, RegressionBackend(ens, degree=degree)


def lat_backend(spec, n):
    grid = make_grid(spec.horizon, n)
    return grid, LatticeBackend(grid)


def test_criterion_1_closed_form_reproduction():
    entry = get("A_sine_constraint")
    grid, backend = mc_backend(entry.spec, n=64, N=100_000)
    start = time.perf_counter()
    sol, _ = picard_solve(entry.spec, grid, backend)
    runtime = time.perf_counter() - start
    k_exact = np.array([entry.closed_form["k"](t) for t in grid.nodes])
    k_dev = float(np.max(np.abs(sol.k - k_exact)))
    flat = sol.diagnostics["flatness_right"]
    ok = k_dev <= 1e-2 and abs(flat) <= 1e-3 and runtime <= 60.0
    report("1", ok, f"sup|K-K*|={k_dev:.3g} (tol 1e-2), "
           f"|flatness|={abs(flat):.3g} (tol 1e-3), runtime={runtime:.1f}s (max 60s)")


def test_criterion_2_meanfield_fixed_point():
    entry = get("B_meanfield_linear")
    grid, backend = mc_backend(entry.spec, n=64, N=100_000)
    sol, hist = picard_solve(entry.spec, grid, backend)
    mean_err = abs(sol.stats["mean_y"][0] - math.exp(0.25))
    sup_k = float(np.max(sol.k))
    sweeps = len(hist.distances)
    ok = mean_err <= 5e-3 and sup_k <= 1e-3 and sweeps <= 10
    report("2", ok, f"|EY0-e^0.25|={mean_err:.3g} (tol 5e-3), "
           f"supK={sup_k:.3g} (tol 1e-3), sweeps={sweeps} (max 10)")


@pytest.mark.parametrize("name", ["A_sine_constraint", "C_resistance_lipschitz"])
def test_criterion_3_oracle_equivalence(name):
    spec = get(name).spec
    exact = exact_solve(spec, 8)
    grid, backend = lat_backend(spec, 8)
    sol, _ = picard_solve(spec, grid, backend, tol=1e-12)
    mean_dev = float(np.max(np.abs(sol.stats["mean_y"] - exact.mean_y)))
    k_dev = float(np.max(np.abs(sol.k - exact.k)))
    flat_dev = abs(sol.diagnostics["flatness_right"] - exact.flatness_right)
    ok = mean_dev <= 1e-10 and k_dev <= 1e-10 and flat_dev <= 1e-10
    report(f"3 ({name})", ok, f"|EY|={mean_dev:.2g}, |K|={k_dev:.2g}, "
           f"|flat|={flat_dev:.2g} (tol 1e-10 each)")


def _criterion_4_variant(kind):
    horizon = lipschitz_horizon(3.0, 0.05)
    loss = sine_perturbed_loss(0.5)              # bi-Lipschitz ratio 3
    if kind == "B":
        driver = linear_mean_driver(0.05)
        resistance = ResistanceSpec("zero")
    else:
        driver = mean_resist_driver(0.05, -0.05)
        resistance = ResistanceSpec("evaluation")
    return ScenarioSpec(name=f"{kind}_contraction", horizon=horizon,
                        brownian_dim=1, terminal=brownian_shift_terminal(1.0),
                        driver=driver, resistance=resistance, loss=loss)


@pytest.mark.parametrize("kind", ["B", "C"])
def test_criterion_4_contraction_bound(kind):
    horizon = lipschitz_horizon(3.0, 0.05)
    assert horizon == pytest.approx(0.078125, rel=1e-9)
    spec = _criterion_4_variant(kind)
    grid, backend = lat_backend(spec, 8)
    sol, hist = picard_solve(spec, grid, backend, tol=1e-12)
    max_ratio = contraction_estimate([hist])["max_ratio"]
    bound = 1.0 / math.sqrt(2.0) + 0.1
    report(f"4 ({kind})", max_ratio <= bound,
           f"T={horizon}: max ratio {max_ratio:.3g} "
           f"(bound 1/sqrt(2)+0.1={bound:.4f}) over {len(hist.distances)} sweeps")


def test_criterion_5_constants_regression():
    from mrbsde.picard import (quadratic_contraction_coeff,
                               quadratic_stability_horizon)

    # hand evaluations, written out independently of the library formulas
    hand_delta = min(math.sqrt(1.0 / (40.0 * 48.0)), 1.0 / (40.0 * 48.0))
    assert abs(lipschitz_horizon(1.0, 1.0) - hand_delta) <= 1e-9 * hand_delta
    assert abs(lipschitz_horizon(1.0, 1.0) - 1.0 / 1920.0) <= 1e-9

    hand_floor = 7.0 + 8.0 * math.exp(9.0)
    assert abs(quadratic_ball_floor(1.0, 1.0, 1.0) - hand_floor) <= 1e-9 * hand_floor

    hand_coeff = 7.0 + 2.0 * math.sqrt(37.0) * 13.0
    got_coeff = quadratic_contraction_coeff(1.0, 1.0, 1.0)
    assert abs(got_coeff - hand_coeff) <= 1e-9 * hand_coeff

    b1, b2, b = uniform_y_bound(0.0, 1.0, 1.0, 1.0)
    hand_b1 = 2.0 * math.e
    hand_b2 = (1.0 / 3.0) * (1.0 + 4.0 + 4.0 * math.e) * math.exp(6.0 * math.e)
    hand_b = 2.0 * math.e + 1.0
    ok = (abs(b1 - hand_b1) <= 1e-9 * hand_b1
          and abs(b2 - hand_b2) <= 1e-9 * hand_b2
          and abs(b - hand_b) <= 1e-9 * hand_b)
    report("5", ok, "delta_lip(1,1)=1/1920, floor(1,1,1)=7+8e^9, "
           "coeff(1,1,1)=7+26*sqrt(37), uniform bounds for (0,1,1,1), all to 1e-9")


def test_criterion_6_quadratic_ball_and_bound():
    spec = get("D_quadratic").spec
    constants = scenario_constants(spec)
    assert spec.horizon <= constants.delta_contraction
    grid, backend = mc_backend(spec, n=32, N=20_000)
    sol, hist = picard_solve(spec, grid, backend)
    radius = constants.radius
    inside = all(rec["inside"] for rec in hist.ball_records)
    s_inf = max(float(np.max(np.abs(v))) for v in sol.y)
    _, _, y_bound = uniform_y_bound(constants.hl_const, constants.bound,
                                    constants.lam, spec.horizon)
    ok = (inside and s_inf <= y_bound
          and sol.diagnostics["min_constraint"] >= -1e-3
          and abs(sol.diagnostics["flatness_right"]) <= 1e-3)
    report("6", ok, f"iterates inside radius {radius:.4g}: {inside}, "
           f"final |Y|_inf={s_inf:.3g} (uniform bound {y_bound:.4g}), "
           f"constraint/flatness within the criterion-1 tolerances")


def test_criterion_7_stitching_consistency():
    spec = get("B_meanfield_linear").spec
    grid, backend = mc_backend(spec, n=64, N=40_000)
    constants = stitch_constants(spec)
    breaks1 = plan_intervals(spec, grid, constants, intervals=1)
    breaks4 = plan_intervals(spec, grid, constants, intervals=4)
    s1, _ = solve_global(spec, grid, backend, breaks1, constants, tol=1e-6)
    s4, _ = solve_global(spec, grid, backend, breaks4, constants, tol=1e-6)
    mean_dev = float(np.max(np.abs(s1.stats["mean_y"] - s4.stats["mean_y"])))
    k_dev = float(np.max(np.abs(s1.k - s4.k)))
    eps = default_tolerances(s4, grid)["constraint"]
    seam_min = min(s4.diagnostics["constraint"][b] for b in breaks4[1:-1])
    ok = mean_dev <= 1e-3 and k_dev <= 1e-3 and seam_min >= -eps
    report("7", ok, f"1 vs 4 intervals: sup|dEY|={mean_dev:.3g} (tol 1e-3), "
           f"sup|dK|={k_dev:.3g} (tol 1e-3), min seam constraint "
           f"{seam_min:.3g} >= -{eps:.2g}")


def _hl_worst(sol, backend, grid, loss):
    worst = 0.0
    m = sol.hi - sol.lo
    for j in (0, m // 2, m):
        law = backend.law(sol.lo + j, sol.node(j, backend) - sol.tail[j])
        pairs = [(law, EmpiricalLaw(law.atoms + 0.3, law.weights)),
                 (law, EmpiricalLaw(law.atoms * 1.1, law.weights)),
                 (law, EmpiricalLaw(law.atoms + 0.1 * np.sin(law.atoms),
                                    law.weights))]
        worst = max(worst, hl_lipschitz_probe(
            loss, float(grid.nodes[sol.lo + j]), pairs))
    return worst


@pytest.mark.parametrize("entry", registry(), ids=lambda e: e.name)
@pytest.mark.parametrize("backend_kind", ["lattice", "regression"])
def test_criterion_8_invariant_suite(entry, backend_kind):
    spec = entry.spec
    if backend_kind == "lattice":
        grid, backend = lat_backend(spec, 8)
    else:
        grid, backend = mc_backend(spec, n=16, N=4000)

    def run():
        return picard_solve(spec, grid, backend)

    sol, hist = run()
    eps = default_tolerances(sol, grid)["constraint"]
    worst = _hl_worst(sol, backend, grid, spec.loss)
    # bit-exact reproducibility of a repeated run (single deterministic
    # reduction order; there is no worker-count knob to vary)
    sol2, hist2 = run()
    identical = (np.array_equal(sol.k, sol2.k)
                 and all(np.array_equal(a, b)
                         for a, b in zip(sol.values(backend), sol2.values(backend)))
                 and hist.distances == hist2.distances)
    ok = (sol.k[0] == 0.0 and bool(np.all(np.diff(sol.k) >= 0.0))
          and sol.diagnostics["min_constraint"] >= -eps
          and worst <= 1.0 + 1e-6 and identical)
    report(f"8 ({entry.name}, {backend_kind})", ok,
           f"K0=0, K monotone, min constraint >= -{eps:.2g}, "
           f"HL probe {worst:.4f} (bound 1+1e-6), reruns bit-identical: {identical}")
