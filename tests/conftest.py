import math

import numpy as np
import pytest

from mrbsde.condexp import LatticeBackend, RegressionBackend
from mrbsde.paths import antithetic, make_grid, sample_ensemble


@pytest.fixture
def lattice_backend():
    def build(T, n):
        return make_grid(T, n), LatticeBackend(make_grid(T, n))
    return build


def mc_backend(T, n, N, seed, use_antithetic=True, degree=3, d=1):
    grid = make_grid(T, n)
    ens = sample_ensemble(grid, N // 2 if use_antithetic else N, d, seed)
    if use_antithetic:
        ens = antithetic(ens)
    return grid, RegressionBackend(ens, degree=degree)


@pytest.fixture
def regression_backend():
    return mc_backend


def _refit_moments(sol, grid, backend):
    """The reference for a solution's z record: z_j refit from its y at every
    step, as the z-fit of y_(j+1) - step_offsets[j], with E[z_j] ("mean_z",
    0 at the terminal node) and sqrt(sum_j E|z_j|^2 dt) ("h2") read off each
    projection's coefficients. A node kept as a record is formed again."""
    mean_z, h2_sq = np.zeros((len(sol.y), backend.d)), 0.0
    for j, offset in enumerate(sol.step_offsets):
        # y - 0.0 is y: the subtraction is skipped, not changed
        y = sol.node(j + 1, backend)
        u = y - offset if offset else y
        rec, sq = backend.condexp_and_z(sol.lo + j, u, fit=0)
        mean_z[j], h2_sq = rec[0][0], h2_sq + sq[0] * grid.dt
    return {"mean_z": mean_z, "h2": math.sqrt(h2_sq)}


@pytest.fixture
def refit_moments():
    return _refit_moments


def assert_close(a, b, tol, msg=""):
    a, b = np.asarray(a), np.asarray(b)
    dev = float(np.max(np.abs(a - b)))
    assert dev <= tol, f"{msg} deviation {dev:.3g} > {tol:.3g}"
