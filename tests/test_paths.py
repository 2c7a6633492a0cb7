import math

import numpy as np
import pytest

from mrbsde import paths
from mrbsde.paths import antithetic, make_grid, particle_mean, sample_ensemble


def test_make_grid_basic():
    g = make_grid(1.0, 2)
    assert np.array_equal(g.nodes, [0.0, 0.5, 1.0])
    assert g.dt == 0.5

    g2 = make_grid(0.5, 1)
    assert np.array_equal(g2.nodes, [0.0, 0.5])


def test_make_grid_endpoint_exact():
    # construction via t_i = i*T/n pins the last node to T in floating arithmetic
    for T, n in [(1.0, 7), (0.3, 13), (2.5, 64)]:
        g = make_grid(T, n)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == T
        assert np.all(np.diff(g.nodes) > 0)


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(0.0, 4)
    with pytest.raises(ValueError):
        make_grid(1.0, 0)
    for T in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            make_grid(T, 4)


def test_ensemble_deterministic():
    g = make_grid(1.0, 8)
    a = sample_ensemble(g, 1000, 2, seed=123)
    b = sample_ensemble(g, 1000, 2, seed=123)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.states, b.states)


def test_ensemble_streams_are_count_independent():
    # particle p's increments do not depend on how many particles are drawn
    g = make_grid(1.0, 4)
    small = sample_ensemble(g, 100, 1, seed=9)
    large = sample_ensemble(g, 5000, 1, seed=9)
    assert np.array_equal(small.increments, large.increments[:100])


def test_ensemble_rejects_tiny():
    g = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        sample_ensemble(g, 1, 1, seed=0)


def test_terminal_moments_large_ensemble():
    g = make_grid(1.0, 16)
    ens = sample_ensemble(g, 100_000, 1, seed=2024)
    b_T = ens.states[:, -1, 0]
    assert abs(b_T.mean()) <= 4.0 / math.sqrt(ens.N)
    assert abs(b_T.var() - g.T) <= 0.05 * g.T


def test_antithetic_pairs_cancel_exactly():
    g = make_grid(1.0, 8)
    ens = antithetic(sample_ensemble(g, 500, 1, seed=7))
    assert ens.N == 1000
    b_T = ens.states[:, -1, 0]
    assert particle_mean(b_T, ens.antithetic) == 0.0
    # even functionals are exactly unchanged versus the source ensemble
    src = sample_ensemble(g, 500, 1, seed=7)
    assert (particle_mean(b_T ** 2, True)
            == particle_mean(src.states[:, -1, 0] ** 2, False))


def test_antithetic_reduces_flatness_noise():
    from mrbsde.condexp import RegressionBackend
    from mrbsde.picard import picard_solve
    from mrbsde.scenarios import get

    spec = get("A_sine_constraint").spec
    g = make_grid(spec.horizon, 8)
    residuals = {True: [], False: []}
    for seed in range(8):
        for use_anti in (True, False):
            ens = sample_ensemble(g, 256 if use_anti else 512, 1, seed)
            if use_anti:
                ens = antithetic(ens)
            backend = RegressionBackend(ens, degree=2)
            sol, _ = picard_solve(spec, g, backend)
            residuals[use_anti].append(sol.diagnostics["flatness_right"])
    assert np.var(residuals[True]) < 0.1 * np.var(residuals[False])


def particle_major_reference(grid, N, d, seed):
    """The (N, n, d) draws of the same Philox blocks and their running sums."""
    inc = np.empty((N, grid.n, d))
    for block in range(0, N, paths._BLOCK):
        size = min(paths._BLOCK, N - block)
        key = np.array([seed, block // paths._BLOCK], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        inc[block:block + size] = gen.standard_normal((size, grid.n, d)) * math.sqrt(grid.dt)
    states = np.zeros((N, grid.n + 1, d))
    np.cumsum(inc, axis=1, out=states[:, 1:, :])
    return inc, states


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()


def test_step_major_ensemble_matches_particle_major_reference():
    g = make_grid(1.0, 5)
    N = paths._BLOCK + 904                              # two Philox blocks
    inc, states = particle_major_reference(g, N, 2, seed=31)
    ens = sample_ensemble(g, N, 2, seed=31)
    assert same_bits(ens.increments, inc) and same_bits(ens.states, states)
    # the interleaved pairing, with the negated paths' start node left at +0.0
    anti_inc = np.empty((2 * N,) + inc.shape[1:])
    anti_inc[0::2], anti_inc[1::2] = inc, -inc
    anti_states = np.zeros((2 * N,) + states.shape[1:])
    anti_states[0::2, 1:], anti_states[1::2, 1:] = states[:, 1:], -states[:, 1:]
    anti = antithetic(ens)
    assert same_bits(anti.increments, anti_inc) and same_bits(anti.states, anti_states)
