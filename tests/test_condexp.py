import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_regression_backend_refuses_no_more_particles_than_features():
    # parse_config refuses first on every CLI path: 4 particles, 4 cubic features
    ens = sample_ensemble(make_grid(1.0, 4), 4, 1, seed=0)
    with pytest.raises(ValueError, match="need more particles than basis features"):
        RegressionBackend(ens, degree=3)


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
                              paths=np.zeros_like(base.paths))
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
        want = backend._project(i, v * drawn[:, i, :].T)[0].T / grid.dt
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


@pytest.mark.parametrize("dim", [1, 3])
def test_z_rows_from_other_targets(dim):
    # one projection fits the value row of V and the z rows of each U: the
    # fits of V and U alone, to rounding, and exactly on the lattice
    grid = make_grid(1.0, 6)
    ens = antithetic(sample_ensemble(grid, 2000, dim, seed=11))
    backend = RegressionBackend(ens, degree=2)
    for i in (0, 3):
        nxt = ens.states[:, i + 1, :]
        v, u1, u2 = np.cos(nxt[:, 0]), nxt[:, -1] ** 2, np.sin(nxt[:, 0]) + 1.0
        y, z1, z2 = backend.condexp_and_z(i, v, u1, u2)
        for got, want in ((y, backend.condexp(i, v)), (z1, backend.condexp_and_z(i, u1)[1]),
                          (z2, backend.condexp_and_z(i, u2)[1])):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        y, z = backend.condexp_and_z(i, v, v)
        assert np.array_equal(y, backend.condexp_and_z(i, v)[0])
        assert np.array_equal(z, backend.condexp_and_z(i, v)[1])
    lattice = LatticeBackend(make_grid(1.0, 4))
    v, u = lattice.state(3)[:, 0], lattice.state(3)[:, 0] ** 3
    y, zv, zu = lattice.condexp_and_z(2, v, v, u)
    assert np.array_equal(y, lattice.condexp(2, v))
    assert np.array_equal(zv, lattice.condexp_and_z(2, v)[1])
    assert np.array_equal(zu, lattice.condexp_and_z(2, u)[1])


@given(anti=st.booleans(), dim=st.sampled_from([1, 3]), qr=st.booleans(),
       step=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       sizes=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       scale=st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_coefficient_moments_match_the_fitted_rows(anti, dim, qr, step, seed, sizes, scale):
    # b_0/N and |W^T b|^2/N are the mean and mean square of the fitted row,
    # the latter also the sum of squares of the coefficients a/sqrt(N), for
    # any targets: a smooth function, pure noise and a square of the
    # state, each at a random magnitude, on antithetic or plain ensembles, at
    # step 0, where the fit is the mean, and on a design past GRAM_COND_MAX,
    # which takes the QR branch: plain states shifted by 1.5, whose Gram
    # condition numbers are about 1e2 to 1e4, against the threshold lowered to
    # 10 (both sides lose rounding with the condition: at 1e5 to 3e7, states
    # shifted by 10, they agree to 4e-12 of the row's scale), and antithetic
    # states, which a shift would unpair, against the threshold lowered to 1
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 300 if anti else 600, dim, seed)
    ens = antithetic(ens) if anti else ens
    if qr and not anti:
        ens = replace(ens, paths=ens.paths + 1.5)
    gram_cond_max = (1.0 if anti else 10.0) if qr else condexp.GRAM_COND_MAX
    backend = RegressionBackend(ens, degree=2)
    nxt, rng = backend.state(step + 1), np.random.default_rng(seed)
    targets = np.vstack([np.sin(3.0 * nxt[:, 0]) + 1.0, rng.normal(size=ens.N),
                         nxt[:, -1] ** 2]) * (10.0 ** np.array(sizes))[:, None]
    row_scale = np.array([1.0, scale, 1.0 / scale])
    with mock.patch.object(condexp, "GRAM_COND_MAX", gram_cond_max), \
            mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr_calls:
        fit, mean, sq, coef, record = backend._project(step, targets, row_scale)
        assert np.array_equal(backend.replay(step, record), fit)
        assert qr_calls.called == (qr and step > 0)
    # 1e-12 relative, with a floor of 1e-12 of the row's largest |entry|
    for f, m, q, c in zip(fit, mean, sq, coef.T, strict=True):
        m_ref, q_ref, top = backend.mean(step, f), backend.mean(step, f * f), np.max(np.abs(f))
        assert abs(m - m_ref) <= 1e-12 * (abs(m_ref) + top)
        assert abs(q - q_ref) <= 1e-12 * (q_ref + top * top)
        assert abs(np.sum(c * c) - q) <= 1e-12 * q
    # through condexp_and_z: each z's record (E[z], then coefficients whose
    # squares sum to E|z|^2) and E|z|^2, the d z rows summed
    v, u = targets[0], targets[2]
    y, z_v, z_u, rec, sq_z, _ = backend.condexp_and_z(step, v, v, u, fit=3)
    for zr, zq, z in zip(rec, sq_z, (z_v, z_u), strict=True):
        cols = np.max(np.abs(z), axis=0)
        for m, m_ref, col in zip(zr[0], backend.mean(step, z), cols, strict=True):
            assert abs(m - m_ref) <= 1e-12 * (abs(m_ref) + col)
        sq_ref = backend.mean(step, np.sum(z * z, axis=1))
        assert abs(zq - sq_ref) <= 1e-12 * (sq_ref + np.sum(cols * cols))
        assert abs(np.sum(zr[1:] * zr[1:]) - zq) <= 1e-12 * zq
    # fitting the value row only moves it by rounding, and the moments not at all
    y1, rec_1, sq_1, _ = backend.condexp_and_z(step, v, v, u, fit=1)
    assert np.max(np.abs(y1 - y)) <= 1e-12 * np.max(np.abs(y))
    assert np.array_equal(rec_1, rec) and np.array_equal(sq_1, sq_z)


def test_lattice_moments_are_the_means_of_the_slopes():
    lattice = LatticeBackend(make_grid(1.0, 6))
    for i in range(6):
        v, u = np.cos(lattice.state(i + 1)[:, 0]), lattice.state(i + 1)[:, 0] ** 3
        y, z_v, z_u, rec, sq_z, record = lattice.condexp_and_z(i, v, v, u, fit=3)
        assert np.array_equal(y, lattice.condexp(i, v))
        assert np.array_equal(lattice.replay(i, record)[0], y)
        for z, r, q in zip((z_v, z_u), rec, sq_z, strict=True):
            assert np.array_equal(r[0], lattice.mean(i, z))
            assert np.array_equal(r[1:], np.sqrt(lattice.probs(i))[:, None] * z)
            assert q == lattice.mean(i, z[:, 0] * z[:, 0])
            assert abs(np.sum(r[1:] * r[1:]) - q) <= 1e-15 * q
        rec_u, sq_u = lattice.condexp_and_z(i, v, u, fit=0)
        assert np.array_equal(rec_u, rec[1:])
        assert sq_u[0] == lattice.mean(i, z_u[:, 0] * z_u[:, 0])


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

    def backend(paths, degree):
        return RegressionBackend(ParticleEnsemble(
            grid=grid, N=2000, d=1, seed=14, paths=paths), degree)

    # offset 10 at degree 3: the equilibrated Gram matrix reads cond 8e7,
    # past GRAM_COND_MAX, and the design 9e3, which QR resolves
    shifted = backend(base.paths + 10.0, 3)
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
        huge = backend(base.paths * scale, degree)
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
    mean, sup = backend.sup_sq_mean(enumerate(cols))
    assert mean == ref
    # the sweep passes its nodes backward
    assert backend.sup_sq_mean(reversed(list(enumerate(cols))))[0] == ref
    # a kept per-particle sup gives the same mean
    assert backend.sup_sq_mean((), sup)[0] == ref
    # the running max never writes into the caller's values
    assert all(np.array_equal(a, b) for a, b in zip(cols, copies))


def test_lattice_sup_sq_mean_streams_bit_for_bit():
    backend = LatticeBackend(make_grid(1.0, 6))
    lo = 2
    rng = np.random.default_rng(2)
    cols = [rng.normal(size=lo + j + 1) for j in range(5)]
    gathered = [c[backend._paths[:, lo + j]] for j, c in enumerate(cols)]
    ref = float(np.mean(_stacked_sup_sq(gathered)))
    mean, sup = backend.sup_sq_mean(enumerate(cols, lo))
    assert mean == ref and len(sup) == 2 ** 6
    # the sweep passes its nodes backward; each path still reads node lo + j
    assert backend.sup_sq_mean(reversed(list(enumerate(cols, lo))))[0] == ref
    # a kept per-path sup gives the same mean
    assert backend.sup_sq_mean((), sup)[0] == ref


def interleaved_reference(ens):
    """The (n+1, d, N) states of an antithetic ensemble as they were stored:
    the sampled paths in the even slots and `0.0 - x` in the odd ones."""
    src = ens.paths
    ref = np.empty(src.shape[:2] + (2 * src.shape[2],))
    ref[..., 0::2] = src
    np.subtract(0.0, src, out=ref[..., 1::2])
    return ref


def test_step_rows_are_contiguous_views():
    # a plain ensemble's step rows are views of its paths; an antithetic
    # ensemble's are built on read, contiguous and equal to the interleaved rows
    grid = make_grid(1.0, 5)
    plain = sample_ensemble(grid, 300, 3, seed=5)
    anti = antithetic(plain)
    ref = interleaved_reference(anti)
    for ens in (plain, anti):
        backend = RegressionBackend(ens, degree=2)
        for i in range(grid.n + 1):
            rows = backend.state(i).T
            assert rows.flags.c_contiguous
            assert np.shares_memory(rows, ens.paths) == (ens is plain)
            if ens is anti:
                assert rows.tobytes() == ref[i].tobytes()


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [1, 3])
def test_step_reads_match_the_interleaved_reference(d, degree, anti):
    # state(i), the design and the dB rows that condexp_and_z forms are
    # bitwise those of the stored interleaved states, at the first and last
    # steps; the dB rows' odd slots are h_i - h_{i+1}, +0.0 where equal. So
    # is the design filled in place, the step's rows written into the
    # degree-1 rows of a design whose row 0 holds ones and the higher
    # monomials formed over them, also as a projection leaves it in the
    # backend; at degree 0, with no state rows, a projection reads no step
    grid = make_grid(1.0, 4)
    ens = sample_ensemble(grid, 150, d, seed=23 + d)
    ens = replace(ens, paths=ens.paths.copy())
    ens.paths[2:, :, 7] = ens.paths[1, :, 7]            # zero increments at i >= 1
    ens = antithetic(ens) if anti else ens
    ref = interleaved_reference(ens) if anti else ens.paths
    backend = RegressionBackend(ens, degree=degree)
    basis = backend.basis
    for i in (0, grid.n):
        fresh = basis.design(ref[i].T).tobytes()
        assert backend.state(i).tobytes() == ref[i].T.tobytes()
        assert basis.design(backend.state(i)).tobytes() == fresh
        phi = np.ones((basis.n_features, ens.N))
        if degree:
            ens.step(i, out=phi[1:1 + d])
        assert basis.design(phi[1:1 + d].T, out=phi).tobytes() == fresh
    for i in (1, grid.n):
        with mock.patch.object(ParticleEnsemble, "step", autospec=True,
                               side_effect=ParticleEnsemble.step) as step:
            backend._project(i, np.ones((1, ens.N)))
        assert step.call_count == (1 if degree else 0)
        assert backend._design.T.tobytes() == basis.design(ref[i].T).tobytes()
    with mock.patch.object(backend, "_project", wraps=backend._project) as project:
        for i in (0, grid.n - 1):
            backend.condexp_and_z(i, np.ones(ens.N), np.ones(ens.N))
            targets = project.call_args.args[1]
            assert targets[1:].tobytes() == (ref[i + 1] - ref[i]).tobytes()
    assert ens.states.tobytes() == ref.transpose(2, 0, 1).tobytes()
    assert ens.increments.tobytes() == np.diff(ref.transpose(2, 0, 1), axis=1).tobytes()


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


def test_projection_outputs_own_their_memory():
    # no output of a projection is a view of the backend's design or targets:
    # each keeps its bytes through later projections at other steps and other
    # row counts, and two backends on one ensemble share no buffer; state(i),
    # which terminal evaluation reads, is the caller's too
    grid = make_grid(1.0, 4)
    ens = antithetic(sample_ensemble(grid, 300, 2, seed=41))
    backend, other = RegressionBackend(ens, degree=2), RegressionBackend(ens, degree=2)
    v, u = np.sin(ens.states[:, 3, 0]), ens.states[:, 3, 1] ** 2
    outputs = [backend.condexp(2, v), *backend.condexp_and_z(2, v),
               *backend.condexp_and_z(2, v, v, u, fit=2), *backend.condexp_and_z(2, v, u, fit=0),
               backend.state(4)]
    kept = [x.tobytes() for x in outputs]
    w = np.cos(ens.states[:, 2, 1])
    backend.condexp_and_z(1, w, w, u)                   # as wide as the widest yet
    backend.condexp_and_z(3, np.ones(ens.N))
    backend.condexp(1, w)
    backend.condexp_and_z(1, w, w, w, w)                # wider targets
    backend.condexp_and_z(3, w, w, w, w)
    other.condexp_and_z(2, v, v, u)
    assert [x.tobytes() for x in outputs] == kept
    buffers = (backend._design, backend._targets, other._design, other._targets)
    for x in outputs:
        assert not any(np.shares_memory(x, buf) for buf in buffers)
    assert not any(np.shares_memory(a, b) for a in buffers[:2] for b in buffers[2:])


def test_repeated_projections_allocate_only_their_fit():
    # after one call has factored the step and made the workspace, a call
    # allocates its fit, the (1 + d) rows of y and z, and no design or targets
    N, d = 20000, 3
    grid = make_grid(1.0, 8)
    ens = antithetic(sample_ensemble(grid, N // 2, d, seed=21))
    backend = RegressionBackend(ens, degree=2)
    v = np.sin(ens.states[:, 5, 0]) * ens.states[:, 5, 2]
    backend.condexp_and_z(4, v)
    tracemalloc.start()
    try:
        for _ in range(10):
            backend.condexp_and_z(4, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 + d + 1) * N * 8, f"{peak / (N * 8):.2f} node vectors"


@pytest.mark.parametrize("d, degree", [(1, 0), (1, 1), (1, 3), (3, 3)])
def test_replay_is_bit_for_bit(d, degree):
    # a step's value fit formed again from its record W a equals the fit the
    # projection formed, byte for byte: on the kept design, which still
    # holds the step, and on one rebuilt after a projection at another step;
    # step 0, whose fit is the particle mean, included. Tier-1 runs this at
    # the default BLAS thread count, and CI again at one thread
    grid = make_grid(1.0, 4)
    ens = antithetic(sample_ensemble(grid, 10_000, d, seed=3))
    backend = RegressionBackend(ens, degree=degree)
    for i in range(grid.n):
        x = backend.state(i + 1)
        v = np.sin(x[:, 0]) + x[:, -1] ** 2
        fit, _, _, record = backend.condexp_and_z(i, v, v - 1.0, fit=1)
        assert backend.replay(i, record)[0].tobytes() == fit.tobytes()
        backend.condexp(2 if i == 1 else 1, v)        # the kept design: another step's
        assert backend.replay(i, record)[0].tobytes() == fit.tobytes()
    lattice = LatticeBackend(grid)
    for i in range(grid.n):
        fit, _, _, record = lattice.condexp_and_z(i, lattice.state(i + 1)[:, 0] ** 3, fit=1)
        assert np.array_equal(lattice.replay(i, record)[0], fit)
