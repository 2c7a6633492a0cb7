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


def assert_close(a, b, tol, msg=""):
    a, b = np.asarray(a), np.asarray(b)
    dev = float(np.max(np.abs(a - b)))
    assert dev <= tol, f"{msg} deviation {dev:.3g} > {tol:.3g}"
