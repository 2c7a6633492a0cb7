"""Uniform time grid and the Monte Carlo ensemble of Brownian paths.

Randomness is counter-based: particles are grouped into fixed-size blocks and
each block draws from its own Philox stream keyed by (seed, block index), so
the path of particle p up to step i is a pure function of (seed, p, i) --
independent of the total particle count and of any parallel generation order.

The ensemble stores only its sampled paths, step-major as one `(n+1, d, M)`
array, so a step's rows are contiguous; each block's draws are summed straight
into them, and increments are read back as the difference of two rows. An
antithetic ensemble (N = 2M) stores no negated copy: particle 2k is path k and
2k+1 its negation `0.0 - x`, formed only where a step is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_BLOCK = 4096  # particles per keyed stream; fixed so streams never shift


@dataclass(frozen=True, eq=False)
class TimeGrid:
    T: float
    n: int
    nodes: np.ndarray
    dt: float

    def __post_init__(self):
        if self.T <= 0.0 or self.n < 1:
            raise ValueError("need T > 0 and n >= 1")


def make_grid(T: float, n: int) -> TimeGrid:
    """Uniform grid t_i = i*T/n, i = 0..n."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError("T must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    if T / n == 0.0:
        raise ValueError("the grid step T / n underflows to 0")
    nodes = np.arange(n + 1) * (T / n)
    nodes[-1] = T
    return TimeGrid(T=float(T), n=int(n), nodes=nodes, dt=T / n)


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    """N particles; `paths` holds the sampled ones: all N, or N/2 on an
    antithetic ensemble, whose odd particles negate its even ones."""
    grid: TimeGrid
    N: int
    d: int
    seed: int
    paths: np.ndarray       # (n+1, d, M) step-major sampled paths, starting at 0
    antithetic: bool = False

    def _pairs(self, a, b=0.0, out=None) -> np.ndarray:
        """a - b over the last (particle) axis, widened to N on an antithetic
        ensemble with b - a in the odd slots: exact, and +0.0 (not the
        negation's -0.0) where a == b."""
        if not self.antithetic:
            return np.subtract(a, b, out=out)
        out = np.empty(a.shape[:-1] + (self.N,)) if out is None else out
        np.subtract(a, b, out=out[..., 0::2])
        np.subtract(b, a, out=out[..., 1::2])
        return out

    def step(self, i: int, out=None) -> np.ndarray:
        """(d, N) rows at step i, written into `out` if given (x - 0.0 is x);
        without it a view of the paths unless antithetic."""
        if self.antithetic or out is not None:
            return self._pairs(self.paths[i], out=out)
        return self.paths[i]

    def increment(self, i: int, out) -> np.ndarray:
        """dB_i = B_{i+1} - B_i written into `out`'s (..., d, N) rows."""
        return self._pairs(self.paths[i + 1], self.paths[i], out)

    @property
    def states(self) -> np.ndarray:
        """(N, n+1, d) states, a view unless antithetic; no solve reads them."""
        return (self._pairs(self.paths) if self.antithetic else self.paths).transpose(2, 0, 1)

    @property
    def increments(self) -> np.ndarray:
        """(N, n, d) state differences, new on each read; no solve reads them."""
        return np.diff(self.states, axis=1)


def sample_ensemble(grid: TimeGrid, N: int, d: int, seed: int) -> ParticleEnsemble:
    """Draw N Brownian paths on the grid with per-block Philox streams; each
    block's Normal(0, dt) draws are summed into the path rows step by step."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    paths = np.zeros((grid.n + 1, d, N))
    buf = np.empty((min(_BLOCK, N), grid.n, d))
    for block in range(0, N, _BLOCK):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block // _BLOCK], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        draw = gen.standard_normal(out=buf[:N - block]).transpose(1, 2, 0)
        draw *= math.sqrt(grid.dt)
        rows = paths[:, :, block:block + _BLOCK]
        for i in range(grid.n):
            np.add(rows[i], draw[i], out=rows[i + 1])
    return ParticleEnsemble(grid=grid, N=N, d=d, seed=int(seed), paths=paths)


def antithetic(ensemble: ParticleEnsemble) -> ParticleEnsemble:
    """Double the ensemble, pairing every path with its negation (interleaved),
    without a copy: the pairs share the sampled paths and are formed where a
    step is read."""
    if ensemble.antithetic:
        raise ValueError("the ensemble is antithetic already")
    return replace(ensemble, N=2 * ensemble.N, antithetic=True)


def particle_mean(values, antithetic: bool = False):
    """Mean over the particle axis (axis 0), deterministic reduction order.

    On antithetic ensembles the +/- pairs are collapsed first, so odd
    functionals of the paths average to exactly zero.
    """
    v = np.asarray(values, dtype=float)
    if antithetic:
        v = 0.5 * (v[0::2] + v[1::2])
    return v.mean(axis=0)


def particle_mean_se(values, antithetic: bool = False) -> tuple[float, float]:
    """Mean and standard error of a scalar-per-particle sample."""
    v = np.asarray(values, dtype=float)
    if antithetic:
        v = 0.5 * (v[0::2] + v[1::2])
    m = float(v.mean())
    se = float(v.std()) / math.sqrt(v.shape[0])
    return m, se
