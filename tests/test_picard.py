import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from mrbsde.condexp import LatticeBackend, RegressionBackend
from mrbsde.model import (LIPSCHITZ, RESISTANCE_KINDS, LossSpec, ResistanceSpec,
                          ScenarioSpec, brownian_shift_terminal, brownian_terminal,
                          constant_driver, linear_mean_driver, linear_shift_loss,
                          linear_y_driver, mean_resist_driver, sine_perturbed_loss,
                          zero_driver)
from mrbsde.paths import antithetic, make_grid, particle_mean, sample_ensemble
from mrbsde import cli, picard, reflect
from mrbsde.cli import main
from mrbsde.picard import (STALL_WINDOW, ConvergenceError, PicardHistory,
                           constants_report, contraction_estimate,
                           iterate_distance, lipschitz_horizon, picard_solve,
                           quadratic_ball_floor, quadratic_contraction_coeff,
                           quadratic_contraction_horizon,
                           quadratic_stability_horizon, scenario_constants,
                           uniform_y_bound)
from mrbsde.reflect import (ReflectedSolution, ScalarSweeps, bmo_proxy, build_k,
                            complete_record, no_stats, solve_deflated, solve_interval,
                            sup_norm, zero_solution)
from mrbsde.scenarios import get
from mrbsde.stitch import plan_intervals, solve_global, stitch_constants
from two_pass import constraint_diagnostics


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
    assert contraction_estimate([hist])["max_ratio"] == 0.0


def test_scenario_b_matches_scalar_recursion():
    # the discrete fixed-point mean follows m_i = m_{i+1} / (1 - a dt)
    b = get("B_meanfield_linear").spec
    grid, backend = lattice(b.horizon, 8)
    sol, hist = picard_solve(b, grid, backend, tol=1e-12)
    ref = (1.0 - 0.5 * grid.dt) ** -8
    assert sol.stats["mean_y"][0] == pytest.approx(ref, abs=1e-10)
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
    assert np.max(np.abs(imp.stats["mean_y"] - ref)) <= 1e-15


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
    # one sweep, or only zero distances, leave no ratio to estimate
    hist = PicardHistory(mode="lipschitz", tolerance=1e-8)
    hist.distances = [1.0]
    assert contraction_estimate([hist]) is None
    hist.distances = [0.0, 0.0]
    assert contraction_estimate([hist]) is None
    assert contraction_estimate([]) is None
    hist.distances = [1.0, 0.25, 0.05]
    assert contraction_estimate([hist]) == {
        "max_ratio": 0.25, "bound": 1.0 / math.sqrt(2.0), "metric": "rss(S2,H2,supK)"}
    # intervals without a ratio are passed over; the largest over the rest counts
    later = PicardHistory(mode="lipschitz", tolerance=1e-8, distances=[1.0, 0.5])
    none = PicardHistory(mode="lipschitz", tolerance=1e-8, distances=[2.0])
    assert contraction_estimate([none, hist, later])["max_ratio"] == 0.5
    quadratic = PicardHistory(mode="quadratic", tolerance=1e-8, distances=[1.0, 0.1])
    assert contraction_estimate([quadratic]) == {
        "max_ratio": 0.1, "bound": 0.5, "metric": "sum(Sinf,BMO,supK)"}


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
    # A's first sweep keeps node records and its terminal node, and no later
    # sweep moves a node, so the solve holds no y block: one projection's
    # working set and at most 12 node vectors (6.26 here), where a block
    # would add n + 1. On B (linear_mean) the offsets move, so the scalar
    # sweeps' zeta pass replays one block of (n + 1) node vectors, which the
    # y write-back and the closing pass read; a second block alive with it
    # would add n + 1 more, and a z block d (n + 1)
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
        iterate = (n + 1) * node if name == "B_meanfield_linear" else 0
        extra = (peak - iterate - projection) / node
        assert extra <= 12, f"{name}: {extra:.1f} node vectors beyond its block and one projection"


def test_post_pass_holds_no_z_list(tmp_path):
    # `summarize` and `write_results_csv` read y's and z's records only, with
    # no pass over y and no projection: their peak is 2.01 node vectors, the
    # square of the recorded sup and its antithetic pair means for S2. A sup
    # pass over y with `write_results_csv`'s deviations read 3.02, and a list
    # of z would hold n node vectors
    n, N = 32, 20000
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "A_sine_constraint", "grid": {"n": n},
                               "ensemble": {"N": N, "seed": 11}}))
    result = cli.execute(cli.load_config(str(cfg)))
    tracemalloc.start()
    try:
        cli.summarize(result)
        cli.write_results_csv(tmp_path / "results.csv", result)
        peak = tracemalloc.get_traced_memory()[1] / (N * 8)
    finally:
        tracemalloc.stop()
    assert peak <= 2.25, f"{peak:.2f} node vectors"


def _meanfield_d3():
    # three-dimensional noise, a linear_mean driver: every later sweep moves
    # each node by delta_j and z_j by delta_(j+1) zeta_j, with zeta_j the
    # z-fit of the constant 1, which regression noise makes nonzero
    return ScenarioSpec(name="meanfield_d3", horizon=0.5, brownian_dim=3,
                        terminal=brownian_shift_terminal(1.0), driver=linear_mean_driver(0.5),
                        resistance=ResistanceSpec("zero"), loss=linear_shift_loss())


POST_PASS_SPECS = {
    "A": lambda: get("A_sine_constraint").spec, "B": lambda: get("B_meanfield_linear").spec,
    "C": lambda: get("C_resistance_lipschitz").spec, "D": lambda: get("D_quadratic").spec,
    "d3": _meanfield_d3, "linear_y": lambda: dataclasses.replace(
        get("A_sine_constraint").spec, driver=linear_y_driver(0.3)),
    "linear_y-binding": lambda: _binding_linear_y(),
    "resistance-binding": lambda: _binding_resistance(),
    "A-stitched": lambda: get("A_sine_constraint").spec,
    "B-stitched": lambda: get("B_meanfield_linear").spec,
    "D-stitched": lambda: get("D_quadratic").spec,
}
POST_PASS_CASES = [pytest.param(name, kind, id=f"{name}-{kind}") for name in POST_PASS_SPECS
                   for kind in ("lattice", "regression") if name != "d3" or kind == "regression"]


def _post_pass_run(name, kind):
    """`cli.execute` on one post-pass case: n = 8 on the lattice, n = 16 and
    N = 4000 at seed 7 on regression, two intervals when stitched."""
    raw = {"scenario": "A_sine_constraint", "grid": {"n": 8}, "backend": {"kind": "lattice"}}
    if kind == "regression":
        raw = {**raw, "grid": {"n": 16}, "ensemble": {"N": 4000, "seed": 7},
               "backend": {"kind": "regression"}}
    if name.endswith("-stitched"):
        raw["stitch"] = {"intervals": 2}
    cfg = dataclasses.replace(cli.parse_config(raw), scenario=POST_PASS_SPECS[name]())
    return cli.execute(cfg)


@pytest.mark.parametrize("name, kind", POST_PASS_CASES)
def test_no_projection_after_the_solve(name, kind, tmp_path, monkeypatch):
    # the norms and mean_Z come off the answer's z record: a Lipschitz
    # answer is written out with no projection, and a quadratic one with
    # one per step, all of them the BMO proxy's refit
    result = _post_pass_run(name, kind)
    calls, inside = _count_projections(result.backend), []
    bmo_proxy = reflect.bmo_proxy

    def counted(*args, **kwargs):
        inside.append(len(calls))
        value = bmo_proxy(*args, **kwargs)
        inside.append(len(calls))
        return value

    monkeypatch.setattr(reflect, "bmo_proxy", counted)
    cli.summarize(result)
    cli.write_results_csv(tmp_path / "results.csv", result)
    if result.cfg.scenario.mode == LIPSCHITZ:
        assert calls == [] and inside == []
    else:
        assert len(calls) == result.grid.n and inside == [0, result.grid.n]


@pytest.mark.parametrize("name, kind", POST_PASS_CASES)
def test_z_record_matches_a_refit(name, kind, refit_moments):
    # mean_Z and h2 read off the z record that the sweeps chain (dz's
    # coefficients added to the previous iterate's, delta_(j+1) times
    # zeta_j's added by the scalar sweeps' write-back, the pieces' pasted)
    # against z_j refit from the answer's y at every step
    result = _post_pass_run(name, kind)
    got, ref = result.post_pass, refit_moments(result.solution, result.grid, result.backend)
    tol = np.maximum(1e-12 * np.abs(ref["mean_z"]), 1e-15)
    assert np.all(np.abs(got["mean_z"] - ref["mean_z"]) <= tol)
    assert abs(got["norms"]["h2"] - ref["h2"]) <= max(1e-12 * ref["h2"], 1e-15)
    if name == "d3":
        # the scalar sweeps' delta zeta term moves h2 well past rounding here
        first, _ = solve_interval(result.cfg.scenario, result.grid, result.backend,
                                  zero_solution(result.backend, 0, result.grid.n))
        h2_first = math.sqrt(sum(float(np.sum(r[1:] * r[1:])) for r in first.z_record)
                             * result.grid.dt)
        assert abs(h2_first - ref["h2"]) > 1e-4 * ref["h2"]


@pytest.mark.parametrize("name, kind", POST_PASS_CASES)
def test_records_equal_a_direct_pass(name, kind):
    # every per-node record (mean_Y, std_Y, the constraint's mean and
    # standard error) and the sup that S2 and S_inf come from, as the sweeps
    # and the closing pass left them, against one direct pass over the
    # materialized answer, byte for byte: the first sweep's records where no
    # node moves (A, stitched A), the closing pass's where scalar sweeps
    # moved nodes (B, C, the d = 3 config, the binding resistance config,
    # stitched B) or a driver reads particles (linear_y, D)
    result = _post_pass_run(name, kind)
    sol, backend = result.solution, result.backend
    y = sol.values(backend)
    mean = np.array([backend.mean(sol.lo + j, v) for j, v in enumerate(y)])
    std = np.array([math.sqrt(max(backend.mean(sol.lo + j, (v - m) ** 2), 0.0))
                    for j, (v, m) in enumerate(zip(y, mean))])
    fresh = constraint_diagnostics(result.cfg.scenario.loss, result.grid, backend, y, sol.k,
                                   sol.lo)
    s2_sq, sup = backend.sup_sq_mean(enumerate(y, sol.lo))
    direct = {"mean_y": mean, "std_y": std, "constraint": fresh["constraint"],
              "constraint_se": fresh["constraint_se"]}
    for key, values in direct.items():
        assert sol.stats[key].tobytes() == values.tobytes(), key
    assert sol.sup.tobytes() == sup.tobytes()
    norms = result.post_pass["norms"]
    assert (norms["s2"], norms["s_inf"]) == (float(np.sqrt(s2_sq)), float(np.max(sup)))
    assert sol.diagnostics.keys() == fresh.keys()
    assert all(np.array_equal(sol.diagnostics[key], value) for key, value in fresh.items())


def _kept_copy(sol: ReflectedSolution, backend) -> ReflectedSolution:
    # a zero triple with no block is copied as one with a zero block
    y = zero_solution(backend, sol.lo, sol.hi).y if sol.y is None else sol.values(backend)
    return ReflectedSolution(lo=sol.lo, hi=sol.hi, y=[v.copy() for v in y],
                             k=sol.k.copy(), tail=sol.tail.copy(),
                             step_offsets=sol.step_offsets.copy(), z_record=sol.z_record,
                             stats={"mean_y": sol.stats["mean_y"].copy()})


def _two_pass_sweep(scenario, grid, backend, prev, terminal_values=None):
    """The sweep as three passes over two iterates: deflate, build_k on the
    deflated values, then iterate_distance; `prev` is left as it was. The z
    record, whose means E[z_j] a quadratic driver reads next, comes from a
    projection of each deflated value, E[y_j], which the next sweep reads,
    from a pass over the new iterate, and a quadratic iterate's ball record
    from passes over it too: `sup_norm`, `bmo_proxy` and sup|k|."""
    if prev.y is None:   # a zero triple with no block reads as the zero block
        prev = _kept_copy(prev, backend)
    lo, hi = prev.lo, prev.hi
    ybar, _ = solve_deflated(scenario, grid, backend, prev, terminal_values)
    k, rho = build_k(scenario.loss, grid, backend, ybar, lo)
    tail = k[-1] - k
    z_record = [backend.condexp_and_z(lo + j, ybar[j + 1], fit=0)[0][0] for j in range(hi - lo)]
    y = [yb + t for yb, t in zip(ybar, tail)]
    stats = {**no_stats(hi - lo), "mean_y": np.array([backend.mean(lo + j, v)
                                                      for j, v in enumerate(y)])}
    new = ReflectedSolution(lo=lo, hi=hi, y=y, k=k, tail=tail, step_offsets=tail[1:],
                            z_record=z_record, shifts=rho, stats=stats)
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
    # Lipschitz driver (A, resistance, linear_y), every sweep of a quadratic one
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
        ref, ref_dist = _two_pass_sweep(scenario, grid, backend, _kept_copy(prev, backend),
                                        terminal_values)
        new, dist = fused(scenario, grid, backend, prev, terminal_values)
        assert np.array_equal(new.k, ref.k)
        y_scale = max(float(np.max(np.abs(y))) for y in ref.y)
        assert max(float(np.max(np.abs(a - b)))
                   for a, b in zip(new.values(backend), ref.y)) <= 1e-15
        assert np.max(np.abs(new.stats["mean_y"] - ref.stats["mean_y"])) <= 1e-15
        # the tail s_j - s_m and the reference's k_m - k_j round apart by up
        # to one ulp of Y, which a distance near the stopping floor can see
        assert abs(dist - ref_dist) <= 1e-12 * ref_dist + np.spacing(y_scale)
        # the z records agree to rounding, their means too in quadratic mode,
        # where the driver reads them next
        z_scale = max(float(np.max(np.abs(rec))) for rec in ref.z_record)
        for got, want in zip(new.z_record, ref.z_record, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-12 * z_scale
        if scenario.mode != LIPSCHITZ:
            assert list(new.ball) == list(ref.ball) == ["s_inf", "bmo", "k_sup"]
            for key, value in ref.ball.items():
                assert new.ball[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        sweeps.append(dist)
        return new, dist

    grid, backend, tol = setup()
    monkeypatch.setattr(picard, "solve_interval", compared)
    _, hist = picard_solve(spec, grid, backend, tol=tol)
    assert len(hist.distances) >= 2
    assert sweeps == (hist.distances[:1] if spec.mode == LIPSCHITZ else hist.distances)

    # a whole solve of the two-pass reference stops where the sweep does
    grid, backend, tol = setup()
    monkeypatch.setattr(picard, "solve_interval", _two_pass_sweep)
    _, ref_hist = picard_solve(spec, grid, backend, tol=tol)
    assert len(ref_hist.distances) == len(hist.distances)
    assert ref_hist.stop_reason == hist.stop_reason


LIPSCHITZ_DRIVERS = {"zero": zero_driver(), "constant": constant_driver(-0.5),
                     "linear_mean": linear_mean_driver(0.7),
                     "mean_resist": mean_resist_driver(0.5, -1.0),
                     "linear_y_0.8": linear_y_driver(0.8), "linear_y_-0.6": linear_y_driver(-0.6)}
# the terminal E[xi] = -0.1 violates both losses' constraints, so both
# searches run on positive shifts
LOSSES = {"linear": linear_shift_loss(c0=0.2, amp=-0.2, omega=math.pi),
          "sine": sine_perturbed_loss(0.5)}


def _lipschitz_spec(driver, resistance, loss):
    return ScenarioSpec(name="lip", horizon=0.5, brownian_dim=1,
                        terminal=brownian_shift_terminal(-0.1),
                        driver=LIPSCHITZ_DRIVERS[driver],
                        resistance=ResistanceSpec(resistance), loss=LOSSES[loss])


def _refit_z(sol, backend) -> list:
    """z_j of a solution, the z-fit of y_(j+1) less step j's offset."""
    return [backend.condexp_and_z(sol.lo + j, sol.node(j + 1, backend) - c)[1]
            for j, c in enumerate(sol.step_offsets)]


def _general_solve(spec, grid, backend, lo=0, hi=None, terminal_values=None):
    """The reference of a solve whose later sweeps run on scalars: every
    sweep through `solve_interval`, from the last one's block, until the
    backend's tolerance; returns the answer and its distances."""
    prev, distances = zero_solution(backend, lo, grid.n if hi is None else hi), []
    while not distances or distances[-1] > backend.picard_tol:
        assert len(distances) < 50
        prev, dist = solve_interval(spec, grid, backend, prev, terminal_values)
        distances.append(dist)
    return prev, distances


def _window(sol, backend, lo, hi) -> dict:
    """k from node lo on, E[y], the node values and the refit z of `sol` on
    nodes lo..hi."""
    a, b = lo - sol.lo, hi - sol.lo
    return {"k": sol.k[a:b + 1] - sol.k[a], "mean_y": sol.stats["mean_y"][a:b + 1],
            "y": sol.values(backend)[a:b + 1], "z": _refit_z(sol, backend)[a:b]}


def _assert_same_solve(got, ref, backend, lo, hi):
    (sol, hist), (ref_sol, ref_distances) = got, ref
    assert len(hist.distances) == len(ref_distances)
    assert hist.stop_reason == "tolerance"
    assert np.max(np.abs(np.subtract(hist.distances, ref_distances))) <= 1e-12
    new, old = _window(sol, backend, lo, hi), _window(ref_sol, backend, lo, hi)
    assert np.max(np.abs(new["k"] - old["k"])) <= 1e-12
    assert np.max(np.abs(new["mean_y"] - old["mean_y"])) <= 1e-12
    for key in ("y", "z"):
        scale = max(float(np.max(np.abs(v))) for v in old[key])
        assert max(float(np.max(np.abs(a - b)))
                   for a, b in zip(new[key], old[key])) <= 1e-12 * scale, key


@pytest.mark.parametrize("kind", ["lattice", "regression"])
@pytest.mark.parametrize("driver", LIPSCHITZ_DRIVERS)
def test_scalar_sweeps_match_the_general_sweep(kind, driver, regression_backend):
    # every resistance and loss: the solve against one that runs every sweep
    # through `solve_interval`
    if kind == "lattice":
        grid, backend = lattice(0.5, 8)
    else:
        grid, backend = regression_backend(0.5, 16, N=2000, seed=7, degree=2)
    for resistance in RESISTANCE_KINDS:
        for loss in LOSSES:
            spec = _lipschitz_spec(driver, resistance, loss)
            got = picard_solve(spec, grid, backend)
            _assert_same_solve(got, _general_solve(spec, grid, backend), backend, 0, grid.n)
            if (driver, resistance) == ("mean_resist", "evaluation") or (
                    spec.driver.y_slope and loss == "linear"):
                # K binds and feeds back, so the offsets move
                assert got[0].k[-1] > 0.0 and got[1].distances[1] > 0.0


@pytest.mark.parametrize("loss", LOSSES)
def test_stitched_scalar_sweeps_match_the_general_sweep(loss, regression_backend):
    # each window against the general solve of it from the reference's own seam
    grid, backend = regression_backend(0.5, 16, N=2000, seed=7, degree=2)
    for driver in ("linear_mean", "linear_y_0.8", "linear_y_-0.6"):
        spec = _lipschitz_spec(driver, "zero", loss)
        constants = stitch_constants(spec)
        breaks = plan_intervals(spec, grid, constants, intervals=2)
        got_sol, got = solve_global(spec, grid, backend, breaks, constants)
        terminal = None
        for j in range(len(got) - 1, -1, -1):
            lo, hi = breaks[j], breaks[j + 1]
            ref = _general_solve(spec, grid, backend, lo, hi, terminal)
            _assert_same_solve((got_sol, got[j]), ref, backend, lo, hi)
            terminal = ref[0].y[0]


# every Lipschitz kind, at params giving lam = 0 and, where a kind has a
# slope, lam > 0
STORAGE_DRIVERS = [zero_driver(), constant_driver(-0.5), linear_y_driver(0.0),
                   linear_y_driver(0.8), linear_mean_driver(0.0), linear_mean_driver(0.7),
                   mean_resist_driver(0.0, 0.0), mean_resist_driver(0.5, -1.0)]


@pytest.mark.parametrize("kind", ["lattice", "regression"])
def test_lam_decides_how_a_first_sweep_keeps_y(kind, regression_backend, monkeypatch):
    # at lam = 0 the solution map is constant: the first sweep keeps every
    # node with a step, node 0 included, as its record (the terminal node
    # keeps its values) and records each node as it forms it, and the
    # scalar sweeps move no node, so they build no law and run no zeta pass;
    # at lam > 0 the first sweep keeps every node's values, and the closing
    # pass records each node once
    if kind == "lattice":
        grid, backend = lattice(0.5, 8)
    else:
        grid, backend = regression_backend(0.5, 16, N=2000, seed=7, degree=2)
    windows, closing = [], []
    write_back = ScalarSweeps.write_back
    monkeypatch.setattr(ScalarSweeps, "write_back",
                        lambda self: (windows.append(self), write_back(self))[1])
    evaluate = LossSpec.evaluate

    def spy(*args, **kw):
        closing.append(sys._getframe(2).f_code.co_name == "complete_record")
        return evaluate(*args, **kw)

    monkeypatch.setattr(LossSpec, "evaluate", spy)
    cases = [(driver, False) for driver in STORAGE_DRIVERS] + [(constant_driver(-0.5), True)]
    for driver, stitched in cases:
        spec = ScenarioSpec(name="lam", horizon=0.5, brownian_dim=1,
                            terminal=brownian_shift_terminal(-0.1), driver=driver,
                            resistance=ResistanceSpec("zero" if stitched else "evaluation"),
                            loss=LOSSES["linear"])
        windows.clear()
        closing.clear()
        if stitched:
            constants = stitch_constants(spec)
            breaks = plan_intervals(spec, grid, constants, intervals=2)
            sol, _ = solve_global(spec, grid, backend, breaks, constants)
        else:
            breaks = [0, grid.n]
            sol, _ = picard_solve(spec, grid, backend)
        assert len(windows) == len(breaks) - 1, driver.kind
        for window in windows:
            stepped = [type(y) is tuple for y in window.first.y[:-1]]
            assert stepped == [not driver.lam] * len(stepped), driver
            assert type(window.first.y[-1]) is not tuple, driver
            if not driver.lam:
                assert window.laws == [None] * len(window.laws) and window.zeta is None
        assert sum(closing) == (0 if not driver.lam else grid.n + 1), driver
        assert not np.any(np.isnan(sol.stats["std_y"])) and sol.sup is not None


def _record_case(name, kind, regression_backend):
    """(answer, spec, grid, backend) of one carried-record case, n = 8."""
    if name == "sine-direct":
        spec = ScenarioSpec(name="dip", horizon=0.5, brownian_dim=1,
                            terminal=brownian_terminal(), driver=constant_driver(0.5),
                            resistance=ResistanceSpec("zero"), loss=sine_perturbed_loss(0.5))
    elif name == "sine-binding":     # K > 0: the reflection absorbs the later sweeps' offsets
        spec = _lipschitz_spec("linear_mean", "zero", "sine")
    elif name == "sine-moving":      # K = 0: the later sweeps move y_0, ..., y_7 by up to 0.03
        spec = dataclasses.replace(_lipschitz_spec("linear_mean", "zero", "sine"),
                                   driver=linear_mean_driver(-0.7))
    else:
        spec = get(name.split("-")[0]).spec
    if kind == "lattice":
        grid, backend = lattice(spec.horizon, 8)
    else:
        grid, backend = regression_backend(spec.horizon, 8, N=2000, seed=7, degree=2)
    if name == "sine-direct":
        # a first sweep at lam = 0, which records each node as it forms it,
        # on terminal values -0.1 + pi/2 less 2 pi on a quarter of the atoms:
        # every sin is cos(-0.1), so node m meets its constraint, while the
        # earlier laws read E[sin] near sin of their mean, -0.1 + 0.5 (T - t),
        # so nodes 5-7 bind and nodes 0-4 bind nowhere (shift 0) and still
        # carry a tail
        atoms = np.arange(backend.count(grid.n))
        laps = np.isin(atoms, (1, 3)) if kind == "lattice" else atoms % 4 == 0
        terminal = -0.1 + math.pi / 2 - 2 * math.pi * laps
        sol, _ = solve_interval(spec, grid, backend, zero_solution(backend, 0, grid.n, False),
                                terminal)
        assert np.all((sol.shifts[:5] == 0.0) & (sol.tail[:5] > 0.0))
        assert np.all(sol.shifts[5:8] > 0.0)
        # their searches formed no np.cos: the sweep evaluates them from y_j,
        # and `picard_solve`'s closing pass reads every node off the record
        assert sol.diagnostics == {} and not np.any(np.isnan(sol.stats["constraint"]))
        complete_record(spec.loss, grid, backend, sol)
    elif name.endswith("-stitched"):
        constants = stitch_constants(spec)
        sol, _ = solve_global(spec, grid, backend,
                              plan_intervals(spec, grid, constants, intervals=3), constants)
    else:
        sol, hist = picard_solve(spec, grid, backend)
        if name.startswith("sine-"):     # scalar sweeps ran, and moved nodes or not
            assert len(hist.distances) > 2 and (sol.k[-1] > 0.0) == (name == "sine-binding")
    return sol, spec, grid, backend


@pytest.mark.parametrize("kind", ["lattice", "regression"])
@pytest.mark.parametrize("name", ["A_sine_constraint", "B_meanfield_linear",
                                  "C_resistance_lipschitz", "D_quadratic",
                                  "A_sine_constraint-stitched", "sine-direct",
                                  "sine-binding", "sine-moving"])
def test_carried_record_matches_a_fresh_pass(name, kind, regression_backend):
    # the record a first sweep at lam = 0 reads off each node's shift search
    # where it formed np.sin and np.cos arrays (it evaluates the others from
    # y_j, and the closing pass records a lam > 0 answer from its values)
    # against one loss pass over the answer: the same bits where the loss is
    # linear or y_j is ybar_j (tail 0.0); within 1e-15 where the sine
    # family's addition formula forms l(t, ybar_j + tail_j) from sin and cos
    # of ybar_j
    sol, spec, grid, backend = _record_case(name, kind, regression_backend)
    fresh = constraint_diagnostics(spec.loss, grid, backend, sol.values(backend), sol.k, sol.lo)
    assert sol.diagnostics.keys() == fresh.keys()
    exact = sol.tail == 0.0 if spec.loss.kind == "sine_perturbed" else np.full(len(sol.y), True)
    for key in ("constraint", "constraint_se"):
        got, want = sol.diagnostics[key], fresh[key]
        assert np.array_equal(got[exact], want[exact]), key
        assert np.max(np.abs(got - want)) <= 1e-15, key
    if name in ("sine-direct", "sine-binding"):
        assert np.any(sol.tail == 0.0) and np.any(sol.tail > 0.0)


def test_sweep_drops_the_search_arrays_before_dy():
    # a first sweep at lam = 0, from a zero triple with no block, records
    # l(t_j, y_j) in the np.sin and np.cos arrays of node j's search and drops
    # them before it forms y_j (which is dy_j), and forms y_j's deviations for
    # std(y_j) in dy_j once the sup pass has read it. Beside node m's values,
    # which the answer keeps, its peak beyond one projection's working set is
    # the search's own two node vectors beside ybar_j and the sweep's running
    # sup: 4.14 node vectors here; deviations in a fresh array add one. A
    # first sweep at lam > 0 keeps every node's values as it forms them and
    # holds no block beside them: 18.11 node vectors here, its n nodes
    # before node m, ybar_j and the running sup (a zero block adds n + 1).
    # The laws the scalar sweeps read off them hold their atoms and, beside
    # their moments, a float per exact search at x + offset = 0
    n, N = 16, 20000
    node = N * 8
    grid = make_grid(0.5, n)
    ensemble = antithetic(sample_ensemble(grid, N // 2, 1, seed=11))
    projection = _projection_bytes(ensemble, n // 2)
    for driver, bound in (("constant", 4.5), ("linear_mean", n + 2.5)):
        spec, backend = _lipschitz_spec(driver, "zero", "sine"), RegressionBackend(ensemble)
        prev = zero_solution(backend, 0, n, block=False)
        terminal = spec.terminal.evaluate(backend.state(n))
        tracemalloc.start()
        try:
            first, _ = solve_interval(spec, grid, backend, prev, terminal)
            extra = (tracemalloc.get_traced_memory()[1] - projection) / node - 1
        finally:
            tracemalloc.stop()
        assert np.all(first.shifts > 0.0)          # every node searched past x = 0
        kept = [type(y) is not tuple for y in first.y]
        assert kept == [True] * (n + 1) if spec.driver.lam else kept[1:-1] == [False] * (n - 1)
        assert extra <= bound, f"{driver}: {extra:.2f} node vectors beyond one projection"

    later = ScalarSweeps(spec, grid, backend, first)
    for _ in range(3):
        later.sweep()
    kept = [law for law in later.laws if law is not None]
    assert kept and all("mean_cos" in vars(law) for law in kept)
    for law in kept:
        arrays = [key for key, value in vars(law).items() if isinstance(value, np.ndarray)]
        assert arrays == ["atoms"] and "held" not in vars(law), arrays
        assert all(type(v) is float for v in vars(law).get("at_zero", {}).values())


def _count_projections(backend) -> list:
    """The steps of every projection the backend makes, whatever its rows: a
    regression `_project`, or a lattice `condexp_and_z`, which `condexp` calls."""
    calls = []
    name = "_project" if isinstance(backend, RegressionBackend) else "condexp_and_z"
    project = getattr(backend, name)
    setattr(backend, name, lambda i, *args, **kw: (calls.append(i), project(i, *args, **kw))[1])
    return calls


SWEEPS = {"B_meanfield_linear": 6, "linear_y": 5, "linear_y-lattice": 9}


@pytest.mark.parametrize("name", ["B_meanfield_linear", "linear_y", "linear_y-lattice",
                                  "D_quadratic", "D_quadratic-lattice"])
def test_projections_per_window(name, regression_backend):
    # a Lipschitz solve projects in its first sweep and in one pass for
    # E|zeta|^2, at most 2m whatever its sweep count (the write-back adds to
    # y only); a quadratic solve projects m times in every sweep, whose BMO
    # recursions on dz and on z (the ball record's) are rows of the step
    # projections
    spec = _binding_linear_y() if name.startswith("linear_y") else get(name.split("-")[0]).spec
    if name.endswith("-lattice"):
        m = 8
        grid, backend = lattice(spec.horizon, m)
    else:
        m = 16
        grid, backend = regression_backend(spec.horizon, m, N=4000, seed=7)
    calls = _count_projections(backend)
    _, hist = picard_solve(spec, grid, backend)
    if spec.mode == LIPSCHITZ:
        assert len(hist.distances) == SWEEPS[name] and m < len(calls) <= 2 * m
    else:
        assert len(hist.distances) >= 2 and len(calls) == m * len(hist.distances)


def test_picard_solve_needs_one_sweep():
    grid, backend = lattice(1.0, 4)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        picard_solve(get("A_sine_constraint").spec, grid, backend, max_iter=0)
