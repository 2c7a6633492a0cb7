import math
import tracemalloc

import numpy as np
import pytest

from mrbsde import condexp
from mrbsde.condexp import (LatticeBackend, RegressionBackend, RegressionBasis,
                            RegressionError)
from mrbsde.paths import (ParticleEnsemble, antithetic, make_grid, particle_mean,
                          sample_ensemble)


@pytest.fixture
def lattice():
    return LatticeBackend(make_grid(1.0, 4))


def test_lattice_condexp_constants(lattice):
    out = lattice.condexp(1, np.full(3, 2.5))
    assert np.array_equal(out, np.full(2, 2.5))


def test_lattice_condexp_martingale(lattice):
    for i in range(3):
        out = lattice.condexp(i, lattice.state(i + 1)[:, 0])
        assert np.allclose(out, lattice.state(i)[:, 0], atol=1e-15)


def test_lattice_condexp_square(lattice):
    dt = lattice.grid.dt
    for i in range(3):
        out = lattice.condexp(i, lattice.state(i + 1)[:, 0] ** 2)
        assert np.allclose(out, lattice.state(i)[:, 0] ** 2 + dt, atol=1e-15)


def test_lattice_condexp_shape_guard(lattice):
    with pytest.raises(ValueError):
        lattice.condexp(1, np.zeros(5))


def test_lattice_tower_property(lattice):
    rng = np.random.default_rng(0)
    values = rng.normal(size=5)
    v = values
    for i in range(3, -1, -1):
        v = lattice.condexp(i, v)
    direct = float(np.dot(lattice.probs(4), values))
    assert v[0] == pytest.approx(direct, abs=1e-15)


def test_lattice_probabilities_exact(lattice):
    for i in range(5):
        assert math.fsum(lattice.probs(i)) == 1.0
        assert len(lattice.state(i)[:, 0]) == i + 1


def test_lattice_z_examples(lattice):
    z = lattice.condexp_and_z(1, lattice.state(2)[:, 0])[1]
    assert np.allclose(z, 1.0, atol=1e-14)                 # V = B
    z0 = lattice.condexp_and_z(1, np.full(3, 3.3))[1]
    assert np.allclose(z0, 0.0, atol=1e-15)                # constants
    zsq = lattice.condexp_and_z(1, lattice.state(2)[:, 0] ** 2)[1]
    assert np.allclose(zsq[:, 0], 2.0 * lattice.state(1)[:, 0], atol=1e-14)


def test_lattice_cap():
    with pytest.raises(ValueError):
        LatticeBackend(make_grid(1.0, 13))


def test_basis_feature_count():
    assert RegressionBasis(3, 1).n_features == 4
    assert RegressionBasis(3, 2).n_features == 10   # C(3+2, 2)
    assert RegressionBasis(0, 3).n_features == 1
    # counted without the table, so a huge degree is refused before it is built
    for degree in range(9):
        for dim in range(1, 5):
            basis = RegressionBasis(degree, dim)
            assert basis.n_features == len(basis.exponents)
            for cap in range(1, 60):
                assert basis.features_up_to(cap) == min(basis.n_features, cap + 1)
    with pytest.raises(ValueError):
        RegressionBasis(-1, 1)


def test_regression_constant_samples():
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 500, 1, seed=1)
    backend = RegressionBackend(ens, degree=3)
    fit = backend.condexp(2, np.full(500, 4.2))
    assert np.allclose(fit, 4.2, atol=1e-10)


def test_regression_martingale_fit():
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 50_000, 1, seed=3)
    backend = RegressionBackend(ens, degree=3)
    target = ens.states[:, 3, 0]
    fit = backend.condexp(2, target)
    ref = ens.states[:, 2, 0]
    rel = np.linalg.norm(fit - ref) / np.linalg.norm(ref)
    assert rel <= 0.02


def test_regression_cubic_closed_form():
    # E[B_{i+1}^3 | B_i] = B_i^3 + 3 dt B_i; degree-3 basis nails it up to noise
    grid = make_grid(1.0, 16)
    ens = sample_ensemble(grid, 100_000, 1, seed=5)
    backend = RegressionBackend(ens, degree=3)
    i = 8
    fit = backend.condexp(i, ens.states[:, i + 1, 0] ** 3)
    b = ens.states[:, i, 0]
    ref = b ** 3 + 3.0 * grid.dt * b
    rel = np.linalg.norm(fit - ref) / np.linalg.norm(ref)
    assert rel <= 0.02


def test_regression_mean_preservation():
    # basis contains the constant, so the fit mean equals the sample mean
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 2000, 1, seed=8)
    backend = RegressionBackend(ens, degree=3)
    samples = np.sin(ens.states[:, 3, 0]) + 0.7
    fit = backend.condexp(2, samples)
    assert fit.mean() == pytest.approx(samples.mean(), abs=1e-12)


def test_regression_constant_basis_is_plain_average():
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 400, 1, seed=2)
    backend = RegressionBackend(ens, degree=0)
    samples = np.cos(ens.states[:, 2, 0])
    fit = backend.condexp(1, samples)
    assert np.allclose(fit, samples.mean(), atol=1e-12)


def test_regression_step_zero_is_unconditional_mean():
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 400, 1, seed=2)
    backend = RegressionBackend(ens, degree=3)
    samples = ens.states[:, 1, 0] ** 2
    fit = backend.condexp(0, samples)
    assert np.allclose(fit, samples.mean(), atol=1e-14)


def test_regression_rank_deficiency_reported():
    grid = make_grid(1.0, 4)
    base = sample_ensemble(grid, 100, 1, seed=4)
    frozen = ParticleEnsemble(grid=grid, N=100, d=1, seed=4,
                              states=np.zeros_like(base.states))
    backend = RegressionBackend(frozen, degree=3)
    with pytest.raises(RegressionError, match="step 2.*degree 3"):
        backend.condexp(2, np.ones(100))


def test_regression_z_martingale_representation():
    # xi = B_T has integrand 1: the product regression recovers it
    grid = make_grid(1.0, 8)
    ens = antithetic(sample_ensemble(grid, 20_000, 1, seed=6))
    backend = RegressionBackend(ens, degree=3)
    z = backend.condexp_and_z(4, ens.states[:, 5, 0])[1]
    assert abs(z.mean() - 1.0) <= 2e-2


@pytest.mark.parametrize("d", [1, 2])
def test_z_fit_from_state_differences_matches_drawn_increments(d):
    # one Philox block: the drawn increments are its scaled standard normals
    grid = make_grid(1.0, 8)
    N = 3000
    ens = sample_ensemble(grid, N, d, seed=17)
    gen = np.random.Generator(np.random.Philox(key=np.array([17, 0], dtype=np.uint64)))
    drawn = gen.standard_normal((N, grid.n, d)) * math.sqrt(grid.dt)
    backend = RegressionBackend(ens, degree=3)
    for i in range(grid.n):
        v = np.sin(ens.states[:, i + 1, 0]) + ens.states[:, i + 1, -1] ** 2
        z = backend.condexp_and_z(i, v)[1]
        want = backend._project(i, v * drawn[:, i, :].T).T / grid.dt
        assert np.linalg.norm(z - want) <= 1e-14 * np.linalg.norm(want)


def test_regression_two_dimensional_state():
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 30_000, 2, seed=9)
    backend = RegressionBackend(ens, degree=2)
    target = ens.states[:, 3, 0] + 2.0 * ens.states[:, 3, 1]
    fit = backend.condexp(2, target)
    ref = ens.states[:, 2, 0] + 2.0 * ens.states[:, 2, 1]
    rel = np.linalg.norm(fit - ref) / max(np.linalg.norm(ref), 1e-12)
    assert rel <= 0.03


def test_backends_agree_on_lattice_expressible_mean():
    # swapping engines moves the unconditional mean path only within noise
    grid = make_grid(1.0, 8)
    lat = LatticeBackend(grid)
    ens = antithetic(sample_ensemble(grid, 20_000, 1, seed=10))
    reg = RegressionBackend(ens, degree=3)
    xi_lat = lat.state(8)[:, 0]
    xi_reg = reg.state(8)[:, 0]
    m_lat = lat.mean(8, xi_lat ** 2)
    m_reg = reg.mean(8, xi_reg ** 2)
    assert abs(m_lat - m_reg) <= 0.05   # both estimate E[B_T^2] = 1


def reference_design(basis, states):
    """Column-by-column powers: the direct form of the monomial features."""
    return np.column_stack([np.prod(states ** np.asarray(e), axis=-1)
                            for e in basis.exponents])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_incremental_design_matches_powers(dim, degree):
    basis = RegressionBasis(degree, dim)
    assert basis.exponents is basis.exponents          # tabled once per basis
    states = np.random.default_rng(dim).normal(0.0, 2.0, size=(500, dim))
    # each product adds at most one rounding, so degree k stays within k ulps
    np.testing.assert_allclose(basis.design(states),
                               reference_design(basis, states),
                               rtol=degree * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("dim", [1, 3])
def test_projection_matches_lstsq(dim):
    grid = make_grid(1.0, 6)
    ens = antithetic(sample_ensemble(grid, 5000, dim, seed=11))
    backend = RegressionBackend(ens, degree=3)
    for i in range(1, grid.n):
        nxt = ens.states[:, i + 1, :]
        v = np.sin(nxt[:, 0]) + nxt[:, -1] ** 2
        dB = np.diff(ens.states, axis=1)[:, i, :]
        targets = np.column_stack([v, v[:, None] * dB])
        phi = reference_design(backend.basis, ens.states[:, i, :])
        phi /= np.max(np.abs(phi), axis=0)
        ref = phi @ np.linalg.lstsq(phi, targets, rcond=None)[0]
        y, z = backend.condexp_and_z(i, v)
        fits = [(backend.condexp(i, v), ref[:, 0]), (y, ref[:, 0]),
                (z * grid.dt, ref[:, 1:])]
        for got, want in fits:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.fixture
def factors(monkeypatch):
    """The factorisations run, in order: "cholesky" of a step's Gram matrix
    or "qr" of its design."""
    calls = []
    for name in ("cholesky", "qr"):
        def spy(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_each_step_factored_once(monkeypatch, factors):
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 2000, 2, seed=12)
    for path, gram_cond_max in (("cholesky", condexp.GRAM_COND_MAX), ("qr", 0.0)):
        monkeypatch.setattr(condexp, "GRAM_COND_MAX", gram_cond_max)
        factors.clear()
        backend = RegressionBackend(ens, degree=2)
        assert not factors                             # factoring is lazy
        v = ens.states[:, 3, 0]
        first = backend.condexp(2, v)
        backend.condexp_and_z(2, v)
        assert np.array_equal(backend.condexp(2, v), first)
        assert factors == [path]
        backend.condexp(1, ens.states[:, 2, 1])
        backend.condexp(0, ens.states[:, 1, 1])        # plain average, no factor
        assert factors == [path] * 2


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_gram_factor_matches_qr_and_lstsq(monkeypatch, factors, dim, degree):
    grid = make_grid(1.0, 4)
    ens = antithetic(sample_ensemble(grid, 2000, dim, seed=15))
    gram, qr = RegressionBackend(ens, degree), RegressionBackend(ens, degree)
    for i in range(1, grid.n):
        nxt = ens.states[:, i + 1, :]
        v = np.sin(nxt[:, 0]) + nxt[:, -1] ** 2
        phi = reference_design(gram.basis, ens.states[:, i, :])
        want = phi @ np.linalg.lstsq(phi, v, rcond=None)[0]
        got = gram.condexp(i, v)
        with monkeypatch.context() as m:
            m.setattr(condexp, "GRAM_COND_MAX", 0.0)
            by_qr = qr.condexp(i, v)
        for ref in (by_qr, want):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert factors == ["cholesky", "qr"] * (grid.n - 1)


def test_ill_conditioned_design_takes_qr_and_overflow_is_refused(factors):
    grid = make_grid(1.0, 4)
    base = sample_ensemble(grid, 2000, 1, seed=14)

    def backend(states, degree):
        return RegressionBackend(ParticleEnsemble(
            grid=grid, N=2000, d=1, seed=14, states=states), degree)

    # offset 10 at degree 3: the equilibrated Gram matrix reads cond 8e7,
    # past GRAM_COND_MAX, and the design 9e3, which QR resolves
    shifted = backend(base.states + 10.0, 3)
    v = np.sin(shifted.state(3)[:, 0])
    phi = reference_design(shifted.basis, shifted.state(2))
    phi /= np.max(np.abs(phi), axis=0)
    want = phi @ np.linalg.lstsq(phi, v, rcond=None)[0]
    got = shifted.condexp(2, v)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert factors == ["qr"]
    # powers that overflow, in the Gram matrix (1e80 squared at degree 2) or
    # in the design itself (1e100 at degree 4), are refused before a factor
    for scale, degree in ((1e80, 2), (1e100, 4)):
        huge = backend(base.states * scale, degree)
        with np.errstate(over="ignore"), pytest.raises(
                RegressionError, match="non-finite design matrix at step 2"):
            huge.condexp(2, np.ones(2000))
    assert factors == ["qr"]


def test_regression_ill_conditioning_warns(monkeypatch, factors):
    monkeypatch.setattr(condexp, "COND_WARN", 1.0)
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 500, 1, seed=13)
    messages = []
    for gram_cond_max in (condexp.GRAM_COND_MAX, 0.0):    # Gram path, then QR
        monkeypatch.setattr(condexp, "GRAM_COND_MAX", gram_cond_max)
        backend = RegressionBackend(ens, degree=3)
        with pytest.warns(RuntimeWarning,
                          match="ill-conditioned regression at step 2") as record:
            backend.condexp(2, np.ones(500))
        messages.append(str(record[0].message))
    assert factors == ["cholesky", "qr"]
    assert messages[0] == messages[1]   # both read the design's condition number


def _stacked_sup_sq(columns):
    # the stacked reduction that sup_sq_mean streams
    sup = np.abs(np.stack(columns, axis=1)).max(axis=1)
    return sup * sup


def test_regression_sup_sq_mean_streams_bit_for_bit():
    grid = make_grid(1.0, 6)
    ens = antithetic(sample_ensemble(grid, 500, 1, seed=3))
    backend = RegressionBackend(ens)
    rng = np.random.default_rng(1)
    cols = [rng.normal(size=ens.N) for _ in range(7)]
    copies = [c.copy() for c in cols]
    ref = float(particle_mean(_stacked_sup_sq(cols), antithetic=True))
    assert backend.sup_sq_mean(enumerate(cols)) == ref
    # the sweep passes its nodes backward
    assert backend.sup_sq_mean(reversed(list(enumerate(cols)))) == ref
    # the running max never writes into the caller's values
    assert all(np.array_equal(a, b) for a, b in zip(cols, copies))


def test_lattice_sup_sq_mean_streams_bit_for_bit():
    backend = LatticeBackend(make_grid(1.0, 6))
    lo = 2
    rng = np.random.default_rng(2)
    cols = [rng.normal(size=lo + j + 1) for j in range(5)]
    gathered = [c[backend._paths[:, lo + j]] for j, c in enumerate(cols)]
    ref = float(np.mean(_stacked_sup_sq(gathered)))
    assert backend.sup_sq_mean(enumerate(cols, lo)) == ref
    # the sweep passes its nodes backward; each path still reads node lo + j
    assert backend.sup_sq_mean(reversed(list(enumerate(cols, lo)))) == ref


def test_step_rows_are_contiguous_views():
    grid = make_grid(1.0, 5)
    ens = antithetic(sample_ensemble(grid, 300, 3, seed=5))
    backend = RegressionBackend(ens, degree=2)
    for i in range(grid.n + 1):
        rows = backend.state(i).T
        assert rows.flags.c_contiguous and np.shares_memory(rows, ens.states)


def test_projection_holds_only_design_targets_and_fit():
    # the coefficient form never builds an N x p orthonormal basis
    N, d = 20000, 3
    grid = make_grid(1.0, 8)
    ens = antithetic(sample_ensemble(grid, N // 2, d, seed=21))
    backend = RegressionBackend(ens, degree=2)
    p = backend.basis.n_features
    assert p == 10
    v = np.sin(ens.states[:, 5, 0]) * ens.states[:, 5, 2]
    backend.condexp_and_z(4, v)                        # factor step 4 first
    tracemalloc.start()
    try:
        backend.condexp_and_z(4, v)
        extra = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert extra <= (p + 2 * (1 + d) + 2) * N * 8, f"{extra / (N * 8):.1f} node vectors"
