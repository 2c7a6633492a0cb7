import math
import re
import tracemalloc
from pathlib import Path

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
    with pytest.raises(ValueError, match="underflows to 0"):
        make_grid(5e-324, 2)            # the step T / n rounds to 0


def test_time_grid_built_directly_refuses_an_empty_grid():
    # make_grid refuses first on every CLI path; a library caller can reach it
    with pytest.raises(ValueError, match=r"need T > 0 and n >= 1"):
        paths.TimeGrid(T=0.0, n=4, nodes=np.zeros(5), dt=0.0)


def test_ensemble_deterministic():
    g = make_grid(1.0, 8)
    a = sample_ensemble(g, 1000, 2, seed=123)
    b = sample_ensemble(g, 1000, 2, seed=123)
    assert same_bits(a.states, b.states)


def test_ensemble_streams_are_count_independent():
    # particle p's path does not depend on how many particles are drawn
    g = make_grid(1.0, 4)
    small = sample_ensemble(g, 100, 1, seed=9)
    large = sample_ensemble(g, 5000, 1, seed=9)
    assert same_bits(small.states, large.states[:100])


def test_ensemble_rejects_tiny():
    # one path is an ensemble: paired with its negation it makes two particles
    g = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        sample_ensemble(g, 0, 1, seed=0)
    assert antithetic(sample_ensemble(g, 1, 1, seed=0)).N == 2


def test_ensemble_refuses_no_brownian_dimension():
    with pytest.raises(ValueError, match="d must be >= 1"):
        sample_ensemble(make_grid(1.0, 4), 10, 0, seed=0)


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
    """The running sums of the same Philox blocks' (N, n, d) draws."""
    inc = np.empty((N, grid.n, d))
    for block in range(0, N, paths._BLOCK):
        size = min(paths._BLOCK, N - block)
        key = np.array([seed, block // paths._BLOCK], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        inc[block:block + size] = gen.standard_normal((size, grid.n, d)) * math.sqrt(grid.dt)
    states = np.zeros((N, grid.n + 1, d))
    np.cumsum(inc, axis=1, out=states[:, 1:, :])
    return states


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()


def test_step_major_ensemble_matches_particle_major_reference():
    g = make_grid(1.0, 5)
    N = paths._BLOCK + 904                              # two Philox blocks
    states = particle_major_reference(g, N, 2, seed=31)
    ens = sample_ensemble(g, N, 2, seed=31)
    assert same_bits(ens.states, states)
    # the interleaved pairing, with the negated paths' start node left at +0.0
    anti_states = np.zeros((2 * N,) + states.shape[1:])
    anti_states[0::2, 1:], anti_states[1::2, 1:] = states[:, 1:], -states[:, 1:]
    anti = antithetic(ens)
    assert same_bits(anti.states, anti_states)


def test_antithetic_sampling_holds_only_the_states_and_one_block():
    # no increments array and no negated copy: the peak is the sampled paths
    # plus one block of draws, where an (n, d, N/2) increments array is 3
    # blocks and the interleaved states 2 times the paths
    g = make_grid(1.0, 16)
    half, d = 3 * paths._BLOCK, 1
    state_bytes = (g.n + 1) * d * half * 8
    block_bytes = g.n * d * paths._BLOCK * 8
    antithetic(sample_ensemble(g, 2, d, seed=3))       # the first draw imports modules
    tracemalloc.start()
    try:
        ens = antithetic(sample_ensemble(g, half, d, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.N == 2 * half
    assert peak <= state_bytes + block_bytes + 2 ** 16, f"{peak / block_bytes:.2f} blocks"


def test_no_src_module_reads_the_derived_increments():
    src = Path(paths.__file__).parent
    readers = [f.name for f in sorted(src.glob("*.py"))
               if re.search(r"\.increments\b", f.read_text())]
    assert readers == []


def test_antithetic_stores_only_the_sampled_paths():
    g = make_grid(1.0, 6)
    src = sample_ensemble(g, 250, 3, seed=4)
    anti = antithetic(src)
    assert anti.N == 500 and anti.paths.size == (g.n + 1) * 3 * anti.N // 2
    assert anti.paths is src.paths


def test_antithetic_refuses_an_antithetic_ensemble():
    # pairing twice would double N with no new paths
    ens = antithetic(sample_ensemble(make_grid(1.0, 4), 10, 1, seed=1))
    with pytest.raises(ValueError, match="antithetic already"):
        antithetic(ens)
