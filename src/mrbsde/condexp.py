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

    def design(self, states) -> np.ndarray:
        """(N, p) features of (N, d) states; each monomial is its parent times
        one coordinate. Built feature-major from the coordinate rows of
        `states.T`, which on a step-major ensemble are contiguous and read
        without a copy, and returned as its (N, p) transpose."""
        x = np.asarray(states, dtype=float).T
        phi = np.empty((self.n_features, x.shape[1]))
        phi[0] = 1.0
        for row, (parent, j) in enumerate(self._table[1], start=1):
            np.multiply(phi[parent], x[j], out=phi[row])
        return phi.T


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

    @property
    def d(self) -> int:
        return self.ensemble.d

    def count(self, i: int) -> int:
        return self.ensemble.N

    def state(self, i: int) -> np.ndarray:
        return self.ensemble.states[:, i, :]

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

    def _project(self, i: int, targets: np.ndarray) -> np.ndarray:
        """Fit the rows of the (k, N) targets on the step-i features.

        The fit is computed in coefficient form, `c = W Wᵀ (phi_fm targetsᵀ)`
        and `fit = cᵀ phi_fm`, with `phi_fm` the (p, N) feature-major design:
        two passes over the design, which is rebuilt on each call (storing it
        would cost N x p per step), and no N x p orthonormal basis. Only the
        p x p factor W is kept per step.
        """
        if i == 0:
            means = particle_mean(targets.T, self.ensemble.antithetic)
            return np.broadcast_to(means[:, None], targets.shape).copy()
        phi = self.basis.design(self.state(i))
        w = self._orthonormalizer(i, phi)
        phi_fm = phi.T
        return (w @ (w.T @ (phi_fm @ targets.T))).T @ phi_fm

    def condexp(self, i: int, next_values) -> np.ndarray:
        v = np.asarray(next_values, dtype=float)
        return self._project(i, v[None, :])[0]

    def condexp_and_z(self, i: int, next_values) -> tuple[np.ndarray, np.ndarray]:
        """One decomposition for E_{t_i}[V] and E_{t_i}[V dB_i]/dt together;
        the targets are [V; V dB_i], dB_i = B_{i+1} - B_i formed in their rows."""
        v = np.asarray(next_values, dtype=float)
        targets = np.empty((1 + self.d, v.shape[0]))
        targets[0] = v
        np.subtract(self.state(i + 1).T, self.state(i).T, out=targets[1:])
        targets[1:] *= v
        fit = self._project(i, targets)
        fit[1:] /= self.grid.dt
        return fit[0], fit[1:].T

    def mean(self, i: int, values):
        res = particle_mean(values, self.ensemble.antithetic)
        return float(res) if np.ndim(res) == 0 else res

    def mean_se(self, i: int, values) -> tuple[float, float]:
        return particle_mean_se(values, self.ensemble.antithetic)

    def law(self, i: int, values) -> EmpiricalLaw:
        return EmpiricalLaw(atoms=np.asarray(values, dtype=float))

    def sup_sq_mean(self, nodes) -> float:
        """E[ sup_i |V_i|^2 ] over an iterable of (grid node i, particle values
        V_i) pairs, in any node order."""
        sup = _sup_abs(v for _, v in nodes)
        return float(particle_mean(sup * sup, self.ensemble.antithetic))


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

    def condexp_and_z(self, i: int, next_values) -> tuple[np.ndarray, np.ndarray]:
        """Exact one-step E_{t_i}[V] and E_{t_i}[V dB_i]/dt: the average of the
        two successor nodes (probabilities 1/2, 1/2) and their slope."""
        v = np.asarray(next_values, dtype=float)
        if v.shape[0] != i + 2:
            raise ValueError(f"expected {i + 2} node values at step {i + 1}, got {v.shape[0]}")
        down, up = v[:-1], v[1:]
        return 0.5 * (down + up), ((up - down) / (2.0 * math.sqrt(self.grid.dt)))[:, None]

    def mean(self, i: int, values):
        res = np.dot(self.probs(i), values)
        return float(res) if np.ndim(res) == 0 else res

    def mean_se(self, i: int, values) -> tuple[float, float]:
        return self.mean(i, values), 0.0

    def law(self, i: int, values) -> EmpiricalLaw:
        return EmpiricalLaw(atoms=np.asarray(values, dtype=float),
                            weights=self.probs(i))

    def sup_sq_mean(self, nodes) -> float:
        """Exact E[ sup |V|^2 ] by enumerating all 2^n equally likely paths,
        over an iterable of (grid node i, node values V_i) pairs in any node
        order; each path reads V_i at its node index at step i."""
        sup = _sup_abs(np.asarray(v, dtype=float)[self._paths[:, i]]
                       for i, v in nodes)
        return float(np.mean(sup * sup))
