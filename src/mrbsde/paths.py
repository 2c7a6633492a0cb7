"""Uniform time grid and the Monte Carlo ensemble of Brownian paths.

Randomness is counter-based: particles are grouped into fixed-size blocks and
each block draws from its own Philox stream keyed by (seed, block index), so
the increments of particle p at step i are a pure function of (seed, p, i) --
independent of the total particle count and of any parallel generation order.

The draws are stored step-major, `(n, d, N)` and `(n+1, d, N)`, so the rows
that one regression step reads are contiguous; the `increments` and `states`
fields are `(N, ., d)` transposed views of those arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    increments: np.ndarray  # (N, n, d) view of an (n, d, N) array, Normal(0, dt)
    states: np.ndarray      # (N, n+1, d) view of an (n+1, d, N) array, starting at 0
    antithetic: bool = False


def _block_key(seed: int, block: int) -> np.ndarray:
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)


def sample_ensemble(grid: TimeGrid, N: int, d: int, seed: int) -> ParticleEnsemble:
    """Draw N Brownian paths on the grid with per-block Philox streams."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if d < 1:
        raise ValueError("d must be >= 1")
    scale = math.sqrt(grid.dt)
    inc = np.empty((grid.n, d, N))
    for block in range(0, N, _BLOCK):
        size = min(_BLOCK, N - block)
        gen = np.random.Generator(np.random.Philox(key=_block_key(seed, block // _BLOCK)))
        draw = gen.standard_normal((size, grid.n, d)).transpose(1, 2, 0)
        np.multiply(draw, scale, out=inc[:, :, block:block + size])
    return _step_major(grid, seed, inc)


def _step_major(grid: TimeGrid, seed: int, inc: np.ndarray,
                anti: bool = False) -> ParticleEnsemble:
    """The ensemble of (n, d, N) increments, with their running sums as states
    (the sequential cumulative sum, one contiguous row at a time)."""
    n, d, N = inc.shape
    states = np.empty((n + 1, d, N))
    states[0] = 0.0
    for i in range(n):
        np.add(states[i], inc[i], out=states[i + 1])
    return ParticleEnsemble(grid=grid, N=N, d=d, seed=int(seed),
                            increments=inc.transpose(2, 0, 1),
                            states=states.transpose(2, 0, 1), antithetic=anti)


def antithetic(ensemble: ParticleEnsemble) -> ParticleEnsemble:
    """Double the ensemble, pairing every path with its negation (interleaved)."""
    src = ensemble.increments.transpose(1, 2, 0)
    inc = np.empty(src.shape[:2] + (2 * ensemble.N,))
    inc[..., 0::2] = src
    np.negative(src, out=inc[..., 1::2])
    return _step_major(ensemble.grid, ensemble.seed, inc, anti=True)


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
