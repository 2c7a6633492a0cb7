import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from mrbsde.condexp import LatticeBackend, RegressionBackend
from mrbsde.model import (LIPSCHITZ, RESISTANCE_KINDS, DriverSpec, ResistanceSpec,
                          ScenarioSpec, brownian_shift_terminal, brownian_terminal,
                          constant_driver, linear_mean_driver, linear_shift_loss,
                          linear_y_driver, mean_resist_driver, sine_perturbed_loss,
                          zero_driver)
from mrbsde.paths import antithetic, make_grid, particle_mean, sample_ensemble
from mrbsde import cli, picard
from mrbsde.cli import main
from mrbsde.picard import (STALL_WINDOW, ConvergenceError, PicardHistory,
                           constants_report, contraction_estimate,
                           iterate_distance, lipschitz_horizon, picard_solve,
                           quadratic_ball_floor, quadratic_contraction_coeff,
                           quadratic_contraction_horizon,
                           quadratic_stability_horizon, scenario_constants,
                           uniform_y_bound)
from mrbsde.reflect import (ReflectedSolution, ScalarSweeps, bmo_proxy, build_k,
                            solve_deflated, solve_interval, sup_norm, zero_solution)
from mrbsde.scenarios import get
from mrbsde.stitch import plan_intervals, solve_global, stitch_constants


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
    # lam ** 2 leaves the normal range: the horizon is
    # 1 / (lam sqrt(40 (38 + 10 C^2))) where that is finite, inf otherwise
    assert lipschitz_horizon(1e100, 1e-250) == pytest.approx(5e148, rel=1e-12)
    assert lipschitz_horizon(1e10, 1e-160) == pytest.approx(5e148, rel=1e-12)
    assert lipschitz_horizon(1.0, 1e-300) == math.inf
    assert lipschitz_horizon(1.0, 5e-324) == math.inf


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
    sel = quadratic_contraction_horizon(10.0, 1.0, 1.0, 1.0, 0.0)
    coeff = quadratic_contraction_coeff(1.0, 1.0, 10.0)
    stability = quadratic_stability_horizon(10.0, 1.0, 1.0, 0.0)
    expected = min(1.0 / (4.0 * coeff), 1.0 / (12.0 * coeff ** 2),
                   1.0 / (24.0 * coeff ** 2), stability)
    assert sel == pytest.approx(expected, rel=1e-12)
    assert sel <= stability                      # min always includes it


@pytest.mark.parametrize("radius, bound, expected", [
    (0.01, 0.03, 1.0 / 3.0),       # L/(9 lam A) = 0.03/0.09
    (0.01, 0.003, 0.01),           # L^2/(9 lam^2 A^2) = 9e-6/9e-4
    (10.0, 1.0, 1.0 / 81e6),       # (L/(3 lam A^1.5))^4 = (1/(30 sqrt 10))^4
], ids=["first", "second", "third"])
def test_stability_horizon_terms_at_alpha_half(radius, bound, expected):
    # lam = 1 and alpha = 0.5: each (A, L) makes one term the minimum
    assert quadratic_stability_horizon(radius, bound, 1.0, 0.5) == pytest.approx(
        expected, rel=1e-12)


@pytest.mark.parametrize("radius, bound, lam, term", [
    (1.0, 1.0, 0.01, 0),           # u = c lam < 1/3
    (0.01, 1.0, 0.1, 1),           # u > 1/3 and u A small
    (0.1, 1.0, 1.0, 2),            # u A large
    (1.0, 1e-3, 0.01, 3),          # a small bound: the stability horizon
], ids=["first", "second", "third", "stability"])
def test_contraction_horizon_terms_at_alpha_half(radius, bound, lam, term):
    # hl = 0 and alpha = 0.5: with u = c lam the terms are 1/(4u), 1/(12u^2),
    # (1/(24 A u^2))^2 and the stability horizon; each row makes one the minimum
    u = quadratic_contraction_coeff(0.0, lam, radius) * lam
    terms = [1.0 / (4.0 * u), 1.0 / (12.0 * u ** 2), 1.0 / (24.0 * radius * u ** 2) ** 2,
             quadratic_stability_horizon(radius, bound, lam, 0.5)]
    assert min(range(4), key=terms.__getitem__) == term
    assert quadratic_contraction_horizon(radius, 0.0, bound, lam, 0.5) == pytest.approx(
        terms[term], rel=1e-12)


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
    assert d["delta_contraction"] == quadratic_contraction_horizon(
        d["radius"], 1.0, 1.0, 1.0, 0.0)
    assert not {"reading", "delta_contraction_literal",
                "delta_contraction_reciprocal"} & set(d)
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


@pytest.mark.parametrize("kind", ["lattice", "regression"])
def test_binding_resistance_fixed_point_vs_recursion(kind, regression_backend):
    # f = -G(k) with a decreasing shift profile: the reflection satisfies
    # K_i = (c(0) - c(t_i)) + dt * sum_{j<i} K_j, solvable forward exactly; the
    # generator is deterministic, so a degree-1 regression reproduces it
    T, n = 0.05, 8
    omega = math.pi / (2 * T)
    spec = ScenarioSpec(name="bind", horizon=T, brownian_dim=1,
                        terminal=brownian_terminal(),
                        driver=mean_resist_driver(0.0, -1.0),
                        resistance=ResistanceSpec("evaluation"),
                        loss=linear_shift_loss(c0=0.2, amp=-0.2, omega=omega))
    if kind == "lattice":
        grid, backend = lattice(T, n)
        sol, _ = picard_solve(spec, grid, backend, tol=1e-12)
    else:
        grid, backend = regression_backend(T, n, N=1000, seed=7, degree=1)
        sol, _ = picard_solve(spec, grid, backend, tol=1e-10)
    assert sol.k[-1] > 0.0

    def c(t):
        return 0.2 - 0.2 * math.sin(omega * t)

    ref = [0.0]
    for i in range(1, n + 1):
        ref.append((c(0.0) - c(grid.nodes[i])) + grid.dt * sum(ref[:i]))
    assert np.max(np.abs(sol.k - np.array(ref))) <= 1e-10
    assert sol.diagnostics["min_constraint"] >= -1e-10


def test_implicit_y_fixed_point_matches_closed_form():
    # the implicit node step of f = 0.3 y gives, at every node,
    # E[Y_i] = E[xi] (1 - 0.3 dt)^-(n - i) with E[xi] = 1
    spec = ScenarioSpec(name="ylin", horizon=0.25, brownian_dim=1,
                        terminal=brownian_shift_terminal(1.0),
                        driver=linear_y_driver(0.3),
                        resistance=ResistanceSpec("zero"),
                        loss=linear_shift_loss())
    n = 8
    grid, backend = lattice(0.25, n)
    imp, _ = picard_solve(spec, grid, backend, tol=1e-12)
    ref = (1.0 - 0.3 * grid.dt) ** -(n - np.arange(n + 1))
    assert np.max(np.abs(imp.mean_y_path(backend) - ref)) <= 1e-15


def test_stall_returns_unconverged(monkeypatch, tmp_path):
    # distances that stop falling end the iteration as a stall, not as
    # convergence; running out of sweeps still raises. B's first sweep is
    # `solve_interval` and its later ones are scalar sweeps: both read 0.5
    sweep, later = picard.solve_interval, ScalarSweeps.sweep
    monkeypatch.setattr(picard, "solve_interval", lambda *args: (sweep(*args)[0], 0.5))
    monkeypatch.setattr(ScalarSweeps, "sweep", lambda self: (later(self), 0.5)[1])
    b = get("B_meanfield_linear").spec
    grid, backend = lattice(b.horizon, 4)
    sol, hist = picard_solve(b, grid, backend, tol=1e-12)
    assert not hist.converged
    assert hist.stop_reason == "stalled"
    assert hist.distances == [0.5] * (STALL_WINDOW + 1)
    with pytest.raises(ConvergenceError):
        picard_solve(b, grid, backend, tol=1e-12, max_iter=STALL_WINDOW)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "B_meanfield_linear", "grid": {"n": 4},
                               "backend": {"kind": "lattice"}}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [h["converged"] for h in summary["picard_history"]] == [False]
    assert summary["picard_history"][0]["stop_reason"] == "stalled"


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
    assert scenario_constants(d).radius is not None
    assert hist.ball_records
    assert all(rec["inside"] for rec in hist.ball_records)


@pytest.mark.parametrize("kind", ["lattice", "regression"])
def test_iterates_outside_a_smaller_ball_are_flagged(kind, regression_backend):
    # a radius below S-inf and the BMO proxy of every iterate, then one
    # between the two: every record is outside, with one warning per sweep
    d = get("D_quadratic").spec
    if kind == "lattice":
        grid, backend = lattice(d.horizon, 8)
    else:
        grid, backend = regression_backend(d.horizon, 8, N=2000, seed=7, degree=2)
    _, hist = picard_solve(d, grid, backend)
    records = hist.ball_records
    s_inf, bmo = min(r["s_inf"] for r in records), max(r["bmo"] for r in records)
    low = 0.5 * min(r["bmo"] for r in records)
    assert 0.0 < low and bmo < s_inf
    for radius in (low, 0.5 * (bmo + s_inf)):
        constants = dataclasses.replace(scenario_constants(d), radius=radius)
        _, small = picard_solve(d, grid, backend, constants=constants)
        assert small.distances == hist.distances
        assert [{**r, "inside": False} for r in records] == small.ball_records
        left = [w for w in small.warnings if "left the radius" in w]
        assert len(left) == len(records)
        assert all(f"radius-{radius:g} ball" in w for w in left)


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
    hist = PicardHistory(mode="lipschitz", tolerance=1e-8)
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


def _projection_bytes(ensemble, i) -> int:
    """The traced peak of one projection on a step not factored yet: design,
    factor and fit."""
    tracemalloc.start()
    try:
        RegressionBackend(ensemble).condexp_and_z(i, np.ones(ensemble.N))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_iterate_distance_streams_within_eight_node_vectors():
    # beyond the working set of the projection that refits dz_j
    n, N = 32, 20000
    grid = make_grid(1.0, n)
    ensemble = antithetic(sample_ensemble(grid, N // 2, 1, seed=11))
    backend = RegressionBackend(ensemble)
    spec = get("A_sine_constraint").spec
    # the sweep writes over its zero triple, so the reference reads another
    prev, kept = zero_solution(backend, 0, n), zero_solution(backend, 0, n)
    new, swept = solve_interval(spec, grid, backend, prev)
    projection = _projection_bytes(ensemble, n // 2)

    tracemalloc.start()
    try:
        dist = iterate_distance(kept, new, grid, backend, LIPSCHITZ)
        extra = tracemalloc.get_traced_memory()[1] - projection
    finally:
        tracemalloc.stop()
    assert extra <= 8 * N * 8, f"{extra / (N * 8):.1f} node vectors"

    # the list-based formula the streamed distance replaces, dz_j refit from
    # the change in the value step j projected
    dy = [a - b for a, b in zip(new.y, kept.y)]
    dz = [backend.condexp_and_z(j, (new.y[j + 1] - new.step_offsets[j])
                                - (kept.y[j + 1] - kept.step_offsets[j]))[1] for j in range(n)]
    sup = np.abs(np.stack(dy, axis=1)).max(axis=1)
    s2_sq = float(particle_mean(sup * sup, antithetic=True))
    h2_sq = sum(backend.mean(j, np.sum(dz[j] ** 2, axis=-1)) for j in range(n)) * grid.dt
    dk = float(np.max(np.abs(new.k - kept.k)))
    assert dist > 0.0 and dist == math.sqrt(s2_sq + h2_sq + dk * dk)
    # the sweep fits dz_j from its fresh ybar_(j+1), the reference from the
    # stored y_(j+1) less its offset: they round apart
    assert dist == pytest.approx(swept, rel=1e-12, abs=0.0)


def test_picard_solve_holds_one_iterate():
    # every sweep writes over the zero triple's y block, so a whole solve
    # holds one iterate of (n + 1) node vectors, one projection's working set
    # and a few node vectors; two iterates alive together would add n + 1
    # node vectors, and a z block d (n + 1). On B (linear_mean) the offsets
    # move, so the scalar sweeps' zeta pass and the y write-back run
    n, N = 32, 20000
    node = N * 8
    grid = make_grid(1.0, n)
    ensemble = antithetic(sample_ensemble(grid, N // 2, 1, seed=11))
    projection = _projection_bytes(ensemble, n // 2)

    for name in ("A_sine_constraint", "B_meanfield_linear"):
        backend = RegressionBackend(ensemble)
        calls = _count_projections(backend)
        tracemalloc.start()
        try:
            _, hist = picard_solve(get(name).spec, grid, backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hist.distances) >= 2
        if name == "B_meanfield_linear":   # the first sweep and the zeta pass
            assert len(calls) == 2 * n
        iterate = (n + 1) * node
        extra = (peak - iterate - projection) / node
        assert extra <= 12, f"{name}: {extra:.1f} node vectors beyond one iterate and one projection"


def test_post_pass_holds_no_z_list(tmp_path):
    # `summarize` and `write_results_csv` share one backward pass that refits
    # z_j step by step: beyond one projection's working set it holds a few
    # node vectors, where a list of z would hold n of them
    n, N = 32, 20000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "A_sine_constraint", "grid": {"n": n},
                               "ensemble": {"N": N, "seed": 11}}))
    result = cli.execute(cli.load_config(str(cfg)))
    projection = _projection_bytes(result.backend.ensemble, n // 2)
    tracemalloc.start()
    try:
        cli.summarize(result)
        cli.write_results_csv(tmp_path / "results.csv", result)
        extra = (tracemalloc.get_traced_memory()[1] - projection) / (N * 8)
    finally:
        tracemalloc.stop()
    assert extra <= 8, f"{extra:.1f} node vectors beyond one projection"


def _kept_copy(sol: ReflectedSolution) -> ReflectedSolution:
    return ReflectedSolution(lo=sol.lo, hi=sol.hi, y=[y.copy() for y in sol.y],
                             k=sol.k.copy(), tail=sol.tail.copy(),
                             step_offsets=sol.step_offsets.copy(),
                             mean_z=None if sol.mean_z is None else sol.mean_z.copy())


def _two_pass_sweep(scenario, grid, backend, prev, terminal_values=None):
    """The sweep as three passes over two iterates: deflate, build_k on the
    deflated values, then iterate_distance; `prev` is left as it was. The
    means E[z_j] that a quadratic driver reads next come from the deflate
    pass's z block, and a quadratic iterate's ball record from passes over
    the new iterate: `sup_norm`, `bmo_proxy` and sup|k|."""
    lo, hi = prev.lo, prev.hi
    ybar, z = solve_deflated(scenario, grid, backend, prev, terminal_values)
    k, rho = build_k(scenario.loss, grid, backend, ybar, lo)
    tail = k[-1] - k
    mean_z = np.array([backend.mean(lo + j, z[j]) for j in range(hi - lo)])
    new = ReflectedSolution(lo=lo, hi=hi, y=[yb + t for yb, t in zip(ybar, tail)], k=k,
                            tail=tail, step_offsets=tail[1:], shifts=rho, mean_z=mean_z)
    if scenario.mode != LIPSCHITZ:
        new.ball = {"s_inf": sup_norm(new.y),
                    "bmo": bmo_proxy(new.y, new.step_offsets, grid, backend, lo),
                    "k_sup": float(np.max(np.abs(k)))}
    return new, iterate_distance(prev, new, grid, backend, scenario.mode)


def _binding_linear_y():
    return ScenarioSpec(name="ylin-bind", horizon=0.5, brownian_dim=1,
                        terminal=brownian_terminal(), driver=linear_y_driver(0.8),
                        resistance=ResistanceSpec("zero"),
                        loss=linear_shift_loss(c0=0.2, amp=-0.2, omega=math.pi))


def _binding_resistance():
    T = 0.05
    return ScenarioSpec(name="bind", horizon=T, brownian_dim=1,
                        terminal=brownian_terminal(),
                        driver=mean_resist_driver(0.0, -1.0),
                        resistance=ResistanceSpec("evaluation"),
                        loss=linear_shift_loss(c0=0.2, amp=-0.2, omega=math.pi / (2 * T)))


def _quadratic_d2():
    # D's driver, terminal and loss on two-dimensional noise: each z block of
    # the quadratic step's projection has two rows
    return dataclasses.replace(get("D_quadratic").spec, name="D-d2", brownian_dim=2)


SWEEP_SPECS = {"A": lambda: get("A_sine_constraint").spec, "resistance": _binding_resistance,
               "linear_y": _binding_linear_y, "D": lambda: get("D_quadratic").spec,
               "D-d2": _quadratic_d2}


@pytest.mark.parametrize("name, kind", [
    pytest.param(name, kind, id=f"{name}-{kind}") for name in SWEEP_SPECS
    for kind in ("lattice", "regression") if name != "D-d2" or kind == "regression"])
def test_sweep_matches_two_pass_reference(name, kind, monkeypatch, regression_backend):
    # every `solve_interval` sweep of a solve, run also as the two-pass
    # reference on a kept copy of the previous iterate: the first sweep of a
    # particle-free driver (A, resistance), every sweep of the others
    spec = SWEEP_SPECS[name]()
    n = 8

    def setup():
        if kind == "lattice":
            grid, backend = lattice(spec.horizon, n)
            return grid, backend, 1e-12
        grid, backend = regression_backend(spec.horizon, n, N=2000, seed=7, degree=2,
                                           d=spec.brownian_dim)
        return grid, backend, 1e-9

    sweeps = []
    fused = picard.solve_interval

    def compared(scenario, grid, backend, prev, terminal_values=None):
        ref, ref_dist = _two_pass_sweep(scenario, grid, backend, _kept_copy(prev),
                                        terminal_values)
        new, dist = fused(scenario, grid, backend, prev, terminal_values)
        assert np.array_equal(new.k, ref.k)
        y_scale = max(float(np.max(np.abs(y))) for y in ref.y)
        assert max(float(np.max(np.abs(a - b))) for a, b in zip(new.y, ref.y)) <= 1e-15
        # the tail s_j - s_m and the reference's k_m - k_j round apart by up
        # to one ulp of Y, which a distance near the stopping floor can see
        assert abs(dist - ref_dist) <= 1e-12 * ref_dist + np.spacing(y_scale)
        if scenario.mode != LIPSCHITZ:
            assert list(new.ball) == list(ref.ball) == ["s_inf", "bmo", "k_sup"]
            for key, value in ref.ball.items():
                assert new.ball[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
            z_scale = float(np.max(np.abs(ref.mean_z)))
            assert np.max(np.abs(new.mean_z - ref.mean_z)) <= 1e-12 * z_scale
        sweeps.append(dist)
        return new, dist

    grid, backend, tol = setup()
    monkeypatch.setattr(picard, "solve_interval", compared)
    _, hist = picard_solve(spec, grid, backend, tol=tol)
    assert len(hist.distances) >= 2
    assert sweeps == (hist.distances[:1] if spec.driver.particle_free else hist.distances)

    # a whole solve of the two-pass reference stops where the sweep does
    grid, backend, tol = setup()
    monkeypatch.setattr(picard, "solve_interval", _two_pass_sweep)
    _, ref_hist = picard_solve(spec, grid, backend, tol=tol)
    assert len(ref_hist.distances) == len(hist.distances)
    assert ref_hist.stop_reason == hist.stop_reason


PARTICLE_FREE = {"zero": zero_driver(), "constant": constant_driver(-0.5),
                 "linear_mean": linear_mean_driver(0.7),
                 "mean_resist": mean_resist_driver(0.5, -1.0)}
# the terminal E[xi] = -0.1 violates both losses' constraints, so both
# searches run on positive shifts
LOSSES = {"linear": linear_shift_loss(c0=0.2, amp=-0.2, omega=math.pi),
          "sine": sine_perturbed_loss(0.5)}


def _particle_free_spec(driver, resistance, loss):
    return ScenarioSpec(name="pf", horizon=0.5, brownian_dim=1,
                        terminal=brownian_shift_terminal(-0.1),
                        driver=PARTICLE_FREE[driver],
                        resistance=ResistanceSpec(resistance), loss=LOSSES[loss])


def _refit_z(sol, backend) -> list:
    """z_j of a solution, the z-fit of y_(j+1) less step j's offset."""
    return [backend.condexp_and_z(sol.lo + j, sol.y[j + 1] - c)[1]
            for j, c in enumerate(sol.step_offsets)]


def _assert_same_solve(got, ref, backend):
    (sol, hist), (ref_sol, ref_hist) = got, ref
    assert len(hist.distances) == len(ref_hist.distances)
    assert hist.stop_reason == ref_hist.stop_reason
    assert np.max(np.abs(np.subtract(hist.distances, ref_hist.distances))) <= 1e-12
    assert np.max(np.abs(sol.k - ref_sol.k)) <= 1e-12
    assert np.max(np.abs(sol.mean_y_path(backend) - ref_sol.mean_y_path(backend))) <= 1e-12
    for new, old in ((sol.y, ref_sol.y), (_refit_z(sol, backend), _refit_z(ref_sol, backend))):
        scale = max(float(np.max(np.abs(v))) for v in old)
        assert max(float(np.max(np.abs(a - b))) for a, b in zip(new, old)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["lattice", "regression"])
@pytest.mark.parametrize("driver", PARTICLE_FREE)
def test_scalar_sweeps_match_the_general_sweep(kind, driver, monkeypatch, regression_backend):
    # every resistance and loss: the solve against one that runs every sweep
    # through `solve_interval`, reached by reading no driver as particle-free
    if kind == "lattice":
        grid, backend = lattice(0.5, 8)
    else:
        grid, backend = regression_backend(0.5, 16, N=2000, seed=7, degree=2)
    for resistance in RESISTANCE_KINDS:
        for loss in LOSSES:
            spec = _particle_free_spec(driver, resistance, loss)
            got = picard_solve(spec, grid, backend)
            with monkeypatch.context() as m:
                m.setattr(DriverSpec, "particle_free", False)
                ref = picard_solve(spec, grid, backend)
            _assert_same_solve(got, ref, backend)
            if (driver, resistance) == ("mean_resist", "evaluation"):
                # K binds and feeds back, so the offsets move
                assert got[0].k[-1] > 0.0 and got[1].distances[1] > 0.0


@pytest.mark.parametrize("loss", LOSSES)
def test_stitched_scalar_sweeps_match_the_general_sweep(loss, monkeypatch,
                                                         regression_backend):
    grid, backend = regression_backend(0.5, 16, N=2000, seed=7, degree=2)
    spec = _particle_free_spec("linear_mean", "zero", loss)
    constants = stitch_constants(spec)
    breaks = plan_intervals(spec, grid, constants, intervals=2)
    got_sol, got = solve_global(spec, grid, backend, breaks, constants)
    monkeypatch.setattr(DriverSpec, "particle_free", False)
    ref_sol, ref = solve_global(spec, grid, backend, breaks, constants)
    for hist, ref_hist in zip(got, ref):
        _assert_same_solve((got_sol, hist), (ref_sol, ref_hist), backend)


def _count_projections(backend) -> list:
    """The steps of every projection the backend makes, whatever its rows: a
    regression `_project`, or a lattice `condexp_and_z`, which `condexp` calls."""
    calls = []
    name = "_project" if isinstance(backend, RegressionBackend) else "condexp_and_z"
    project = getattr(backend, name)
    setattr(backend, name, lambda i, *args, **kw: (calls.append(i), project(i, *args, **kw))[1])
    return calls


@pytest.mark.parametrize("name", ["B_meanfield_linear", "linear_y", "D_quadratic",
                                  "D_quadratic-lattice"])
def test_projections_per_window(name, regression_backend):
    # a particle-free solve projects in its first sweep and in one pass for
    # E|zeta|^2, at most 2m whatever its sweep count (the write-back adds to
    # y only); a driver that reads particles projects m times in every sweep,
    # in quadratic mode too, whose BMO recursions on dz and on z (the ball
    # record's) are rows of the step projections
    spec = _binding_linear_y() if name == "linear_y" else get(name.split("-")[0]).spec
    if name.endswith("-lattice"):
        m = 8
        grid, backend = lattice(spec.horizon, m)
    else:
        m = 16
        grid, backend = regression_backend(spec.horizon, m, N=4000, seed=7)
    calls = _count_projections(backend)
    _, hist = picard_solve(spec, grid, backend)
    if spec.driver.particle_free:
        assert len(hist.distances) == 6 and m < len(calls) <= 2 * m
    else:
        assert len(hist.distances) >= 2 and len(calls) == m * len(hist.distances)


def test_picard_solve_needs_one_sweep():
    grid, backend = lattice(1.0, 4)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        picard_solve(get("A_sine_constraint").spec, grid, backend, max_iter=0)
