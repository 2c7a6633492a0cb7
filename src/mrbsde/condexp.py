"""Conditional-expectation engines for the backward induction: an exact
recombining binomial lattice (d = 1, the brute-force substrate) and
least-squares regression Monte Carlo (any d)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations_with_replacement

import numpy as np

from .lossop import EmpiricalLaw
from .model import SolverError
from .paths import ParticleEnsemble, TimeGrid, particle_mean, particle_mean_se

LATTICE_MAX_STEPS = 12
COND_WARN = 1e10
GRAM_COND_MAX = 1e6


class RegressionError(SolverError):
    """Rank-deficient design matrix in a per-step regression."""

    exit_code = 1


def _monomial_table(degree: int, dim: int):
    """Exponents of every monomial up to total degree, ordered by degree, and
    for each non-constant monomial its parent (the same monomial with the last
    factor removed) and that factor's coordinate."""
    exps = [(0,) * dim]
    parents = []
    index = {(): 0}
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(dim), deg):
            parents.append((index[combo[:-1]], combo[-1]))
            index[combo] = len(exps)
            e = [0] * dim
            for j in combo:
                e[j] += 1
            exps.append(tuple(e))
    return tuple(exps), tuple(parents)


def _sup_abs(columns) -> np.ndarray:
    """Running per-particle max of |column| over aligned columns, one at a time."""
    return reduce(lambda sup, a: np.maximum(sup, a, out=sup), map(np.abs, columns))


@dataclass(frozen=True, eq=False)
class RegressionBasis:
    """Polynomial features of the current Brownian state up to total degree."""

    degree: int
    dim: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    @cached_property
    def _table(self):
        return _monomial_table(self.degree, self.dim)

    @property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return self._table[0]

    @property
    def n_features(self) -> int:
        return len(self.exponents)

    def features_up_to(self, cap: int) -> int:
        """C(degree + dim, dim), the monomial count, or `cap + 1` once its
        running products C(m + k, k), which at least double, pass `cap`."""
        m, count = max(self.degree, self.dim), 1
        for k in range(1, min(self.degree, self.dim) + 1):
            count = count * (m + k) // k
            if count > cap:
                return cap + 1
        return count

    def design(self, states, out=None) -> np.ndarray:
        """(N, p) features of (N, d) states; each monomial is its parent times
        one coordinate. Built feature-major from the coordinate rows of
        `states.T`, which on a step-major ensemble are contiguous and read
        without a copy, and returned as its (N, p) transpose.

        With `out`, a (p, N) design whose row 0 holds ones and whose degree-1
        rows are `states.T` already, only the monomials of degree >= 2 are
        written: a degree-1 monomial is `1.0 * x`, which is `x` bitwise."""
        x = np.asarray(states, dtype=float).T
        first = 0 if out is None else self.dim
        if out is None:
            out = np.empty((self.n_features, x.shape[1]))
            out[0] = 1.0
        for row, (parent, j) in enumerate(self._table[1][first:], start=first + 1):
            np.multiply(out[parent], x[j], out=out[row])
        return out.T


# ---------------------------------------------------------------------------
# Regression (Monte Carlo) backend
# ---------------------------------------------------------------------------


class RegressionBackend:
    """Projection-based E_{t_i}[.] on a particle ensemble.

    Step 0 has a deterministic state, so every projection there degenerates to
    the plain ensemble average.
    """

    picard_tol = 1e-4   # default Picard stopping distance

    def __init__(self, ensemble: ParticleEnsemble, degree: int = 3):
        self.ensemble = ensemble
        self.grid = ensemble.grid
        self.basis = RegressionBasis(degree=degree, dim=ensemble.d)
        self._factors: dict[int, np.ndarray] = {}
        if ensemble.N <= self.basis.features_up_to(ensemble.N):
            raise ValueError("need more particles than basis features")
        self._targets = np.empty((0, ensemble.N))   # the widest (k, N) targets yet

    @cached_property
    def _design(self) -> np.ndarray:
        """The (p, N) feature-major design every projection refills; row 0 is ones."""
        return np.ones((self.basis.n_features, self.ensemble.N))

    @property
    def d(self) -> int:
        return self.ensemble.d

    def count(self, i: int) -> int:
        return self.ensemble.N

    def state(self, i: int) -> np.ndarray:
        """(N, d) states at step i, the transpose of the ensemble's rows."""
        return self.ensemble.step(i).T

    def _orthonormalizer(self, i: int, phi: np.ndarray) -> np.ndarray:
        """The p x p map W = R⁻¹/s with phi @ W orthonormal, factored once per
        step; s holds phi's column norms and phi/s = QR.

        R is the Cholesky factor of the Gram matrix equilibrated by s while its
        condition number is at most GRAM_COND_MAX (the normal equations lose
        cond(G)·eps), and past it comes from a thin QR of phi/s with a rank
        test. COND_WARN is checked against the design's condition number.
        """
        w = self._factors.get(i)
        if w is not None:
            return w
        with np.errstate(over="ignore", invalid="ignore"):
            gram = phi.T @ phi
        s = np.sqrt(gram.diagonal())
        if not np.isfinite(s).all():
            raise RegressionError(f"non-finite design matrix at step {i}")
        s[s == 0.0] = 1.0
        gram /= np.outer(s, s)
        ev = np.linalg.eigvalsh(gram)
        if ev[0] > 0 and ev[-1] <= GRAM_COND_MAX * ev[0]:
            r, cond = np.linalg.cholesky(gram).T, math.sqrt(ev[-1] / ev[0])
        else:
            r = np.linalg.qr(phi / s, mode="r")
            sv = np.linalg.svd(r, compute_uv=False)
            rank = int(np.sum(sv > np.finfo(float).eps * max(phi.shape) * sv[0]))
            if rank < self.basis.n_features:
                raise RegressionError(
                    f"rank-deficient design matrix at step {i} "
                    f"(degree {self.basis.degree}, rank {rank}/{self.basis.n_features})")
            cond = sv[0] / sv[-1]
        if cond > COND_WARN:
            warnings.warn(f"ill-conditioned regression at step {i}: "
                          f"cond={cond:.3g}", RuntimeWarning)
        w = np.linalg.inv(r) / s[:, None]
        self._factors[i] = w
        return w

    def _design_at(self, i: int) -> np.ndarray:
        """The kept design refilled with step i's features."""
        phi_fm = self._design
        x = phi_fm[1:1 + self.d]   # the degree-1 rows: (0, N) at degree 0
        if self.basis.degree:
            self.ensemble.step(i, out=x)
        self.basis.design(x.T, out=phi_fm)
        return phi_fm

    def _project(self, i: int, targets: np.ndarray, scale=1.0, rows=None):
        """Fit the first `rows` (default all) of the (k, N) targets, each row
        times its `scale`, on the step-i features; returns that fit, every
        scaled row's fitted mean and fitted mean square, (k,) each, its
        coefficients `a/√N`, whose squares sum to the mean square, and `W a`.

        In coefficient form, `b = phi_fm targetsᵀ`, `a = Wᵀ b` (scaled) and
        `fit = (W a)ᵀ phi_fm`, with `phi_fm` the (p, N) feature-major design:
        two passes over the design, and no N x p orthonormal basis; only the
        p x p factor W is kept per step. The backend keeps one design and
        refills it on each call: the step's states go straight into its
        degree-1 rows (degree 0 has none and reads no step), then `design`
        forms the higher monomials, so a call allocates only its fit. phi's
        first feature is the constant and phi W is orthonormal, so a fit's
        mean is b_0/N and its mean square |a|^2/N. At step 0 the fit is the
        particle mean m: the moments are (m, m^2, m), and m replaces `W a`.
        """
        n = targets.shape[1]
        if i == 0:
            means = particle_mean(targets.T, self.ensemble.antithetic) * scale
            c = means[None, :rows]
            return self.replay(0, c), means, means * means, means[None], c
        phi_fm = self._design_at(i)
        w = self._orthonormalizer(i, phi_fm.T)
        b = phi_fm @ targets.T
        a = (w.T @ b) * scale
        c = w @ a[:, :rows]
        return c.T @ phi_fm, b[0] * scale / n, np.sum(a * a, axis=0) / n, a / math.sqrt(n), c

    def replay(self, i: int, record) -> np.ndarray:
        """A step-i fit again, bit for bit, from its record `W a` on the refilled design."""
        if i == 0:
            return np.repeat(record.T, self.ensemble.N, axis=1)
        return record.T @ self._design_at(i)

    def condexp(self, i: int, next_values) -> np.ndarray:
        v = np.asarray(next_values, dtype=float)
        return self._project(i, v[None, :])[0][0]

    def condexp_and_z(self, i: int, next_values, *z_of, fit=None) -> tuple:
        """One decomposition for E_{t_i}[V], V one row or, with `z_of`, a (k, N)
        stack (an array, or a tuple of rows written straight into the kept
        targets), and for U = V or each U of `z_of`, z_U = E_{t_i}[U dB_i]/dt
        (N x d); the targets are [V; U dB_i; ...], with dB_i = B_{i+1} - B_i
        formed in their rows and 1/dt in the coefficients. With `fit` set, only
        the first `fit` outputs are formed, followed by two moments off the
        coefficients, a row per U: z_U's record (E[z_U], then its coefficients
        `a/√N`, whose squares sum to E|z_U|^2; linear in U) and E|z_U|^2, and
        at `fit` >= 1 the formed rows' record, which `replay` forms again."""
        v = next_values if type(next_values) is tuple else np.asarray(next_values, dtype=float)
        vs = v if type(v) is tuple or v.ndim > 1 else (v,)   # V's rows
        us, d, n, k = z_of or (v,), self.d, self.ensemble.N, len(vs)
        width = k + d * len(us)
        if len(self._targets) < width:
            self._targets = np.empty((width, n))
        targets = self._targets[:width]   # contiguous, as a fresh array would be
        for row, x in zip(targets, vs):
            row[...] = x
        blocks = targets[k:].reshape(len(us), d, -1)
        self.ensemble.increment(i, blocks)
        for block, u in zip(blocks, us):
            block *= u
        scale = np.repeat([1.0, 1.0 / self.grid.dt], [k, d * len(us)])
        rows = None if fit is None else k + d * (fit - 1) if fit else 0
        out, mean, sq, coef, record = self._project(i, targets, scale, rows)
        moments = () if fit is None else (
            np.concatenate([mean[k:].reshape(-1, 1, d),
                            coef[:, k:].reshape(len(coef), -1, d).swapaxes(0, 1)], axis=1),
            sq[k:].reshape(-1, d).sum(axis=1), record)[:3 if fit else 2]
        fits = out[:k].reshape(-1, *((k,) if vs is v else ()), n)   # V's fit, if formed
        return (*fits, *(block.T for block in out[k:].reshape(-1, d, n)), *moments)

    def mean(self, i: int, values):
        res = particle_mean(values, self.ensemble.antithetic)
        return float(res) if np.ndim(res) == 0 else res

    def mean_se(self, i: int, values) -> tuple[float, float]:
        return particle_mean_se(values, self.ensemble.antithetic)

    def law(self, i: int, values) -> EmpiricalLaw:
        return EmpiricalLaw(atoms=np.asarray(values, dtype=float))

    def sup_sq_mean(self, nodes, sup=None) -> tuple[float, np.ndarray]:
        """E[ sup_i |V_i|^2 ] and the per-particle sup, over an iterable of
        (grid node i, particle values V_i) pairs, in any node order, or of a
        per-particle `sup` already taken."""
        sup = _sup_abs(v for _, v in nodes) if sup is None else sup
        return float(particle_mean(sup * sup, self.ensemble.antithetic)), sup


# ---------------------------------------------------------------------------
# Exact binomial lattice backend (d = 1)
# ---------------------------------------------------------------------------


class LatticeBackend:
    """Exact conditional expectations on the recombining +/-sqrt(dt) walk:
    step i holds i+1 nodes with exact dyadic probabilities; node j carries
    the state (2j - i) * sqrt(dt)."""

    d = 1
    picard_tol = 1e-8   # default Picard stopping distance

    def __init__(self, grid: TimeGrid):
        if grid.n > LATTICE_MAX_STEPS:
            raise ValueError(f"lattice supports n <= {LATTICE_MAX_STEPS}")
        self.grid = grid

    def count(self, i: int) -> int:
        return i + 1

    def state(self, i: int) -> np.ndarray:
        j = np.arange(i + 1, dtype=float)
        return ((2.0 * j - i) * math.sqrt(self.grid.dt))[:, None]

    def probs(self, i: int) -> np.ndarray:
        return np.array([math.comb(i, j) for j in range(i + 1)], dtype=float) / 2.0 ** i

    @cached_property
    def _paths(self) -> np.ndarray:
        """(2^n, n+1) matrix of node indices along every up/down path."""
        n = self.grid.n
        paths = np.zeros((2 ** n, n + 1), dtype=np.int64)
        for i in range(n):
            bit = (np.arange(2 ** n) >> i) & 1
            paths[:, i + 1] = paths[:, i] + bit
        return paths

    def condexp(self, i: int, next_values) -> np.ndarray:
        return self.condexp_and_z(i, next_values)[0]

    def condexp_and_z(self, i: int, next_values, *z_of, fit=None) -> tuple:
        """Exact one-step E_{t_i}[V] and, for U = V or each U of `z_of`,
        E_{t_i}[U dB_i]/dt: the average of V's two successor nodes
        (probabilities 1/2, 1/2), row by row of a stack, and the slope of U's.
        `fit` is as in `RegressionBackend.condexp_and_z`: each slope's record
        is its `mean`, then the slope times √prob, E|z|^2 its squares' `mean`,
        and V's fit its own record."""
        v = np.asarray(next_values, dtype=float)
        if v.shape[-1] != i + 2:
            raise ValueError(f"expected {i + 2} node values at step {i + 1}, got {v.shape[-1]}")
        us = [np.asarray(u, dtype=float) for u in z_of] or [v]
        slopes = [((u[1:] - u[:-1]) / (2.0 * math.sqrt(self.grid.dt)))[:, None] for u in us]
        fits = (0.5 * (v[..., :-1] + v[..., 1:]), *slopes)
        moments = () if fit is None else (
            np.array([np.vstack([self.mean(i, z), np.sqrt(self.probs(i))[:, None] * z])
                      for z in slopes]),
            np.array([self.mean(i, z[:, 0] * z[:, 0]) for z in slopes]),
            np.atleast_2d(fits[0]))[:3 if fit else 2]
        return fits[:fit] + moments

    def replay(self, i: int, record) -> np.ndarray:
        return record

    def mean(self, i: int, values):
        res = np.dot(self.probs(i), values)
        return float(res) if np.ndim(res) == 0 else res

    def mean_se(self, i: int, values) -> tuple[float, float]:
        return self.mean(i, values), 0.0

    def law(self, i: int, values) -> EmpiricalLaw:
        return EmpiricalLaw(atoms=np.asarray(values, dtype=float),
                            weights=self.probs(i))

    def sup_sq_mean(self, nodes, sup=None) -> tuple[float, np.ndarray]:
        """Exact E[ sup |V|^2 ] by enumerating all 2^n equally likely paths,
        and the per-path sup, as `RegressionBackend.sup_sq_mean`; each path
        reads V_i at its node index at step i, and every node lies on one."""
        if sup is None:
            sup = _sup_abs(np.asarray(v, dtype=float)[self._paths[:, i]] for i, v in nodes)
        return float(np.mean(sup * sup)), sup
