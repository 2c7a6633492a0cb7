"""Uniform time grid and the Monte Carlo ensemble of Brownian paths.

Randomness is counter-based: particles are grouped into fixed-size blocks and
each block draws from its own Philox stream keyed by (seed, block index), so
the path of particle p up to step i is a pure function of (seed, p, i) --
independent of the total particle count and of any parallel generation order.

The ensemble stores only its states, step-major as one `(n+1, d, N)` array, so
the rows that one regression step reads are contiguous; the `states` field is
its `(N, n+1, d)` transposed view. Each block's draws are scaled and summed
straight into the state rows, and a step's increments are read back as the
difference of two state rows.
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
    nodes = np.arange(n + 1) * (T / n)
    nodes[-1] = T
    return TimeGrid(T=float(T), n=int(n), nodes=nodes, dt=T / n)


@dataclass(frozen=True, eq=False)
class ParticleEnsemble:
    grid: TimeGrid
    N: int
    d: int
    seed: int
    states: np.ndarray      # (N, n+1, d) view of an (n+1, d, N) array, starting at 0
    antithetic: bool = False

    @property
    def increments(self) -> np.ndarray:
        """(N, n, d) state differences, new on each read; no solve reads them."""
        return np.diff(self.states, axis=1)


def sample_ensemble(grid: TimeGrid, N: int, d: int, seed: int) -> ParticleEnsemble:
    """Draw N Brownian paths on the grid with per-block Philox streams; each
    block's Normal(0, dt) draws are summed into the state rows step by step."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if d < 1:
        raise ValueError("d must be >= 1")
    states = np.zeros((grid.n + 1, d, N))
    buf = np.empty((min(_BLOCK, N), grid.n, d))
    for block in range(0, N, _BLOCK):
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block // _BLOCK], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        draw = gen.standard_normal(out=buf[:N - block]).transpose(1, 2, 0)
        draw *= math.sqrt(grid.dt)
        rows = states[:, :, block:block + _BLOCK]
        for i in range(grid.n):
            np.add(rows[i], draw[i], out=rows[i + 1])
    return ParticleEnsemble(grid=grid, N=N, d=d, seed=int(seed),
                            states=states.transpose(2, 0, 1))


def antithetic(ensemble: ParticleEnsemble) -> ParticleEnsemble:
    """Double the ensemble, pairing every path with its negation (interleaved).
    The negation `0.0 - states` is exact and +0.0 at zero, as the running sums
    of the negated increments are."""
    src = ensemble.states.transpose(1, 2, 0)
    states = np.empty(src.shape[:2] + (2 * ensemble.N,))
    states[..., 0::2] = src
    np.subtract(0.0, src, out=states[..., 1::2])
    return replace(ensemble, N=2 * ensemble.N, states=states.transpose(2, 0, 1),
                   antithetic=True)


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
