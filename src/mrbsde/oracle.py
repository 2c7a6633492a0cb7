"""Exact brute-force solver on small binomial lattices: plain per-node loops,
exact dyadic probabilities, fsum reductions, fixed point run to machine
precision. Ground truth for derived values and backend-equivalence tests.

Shares only the problem definition (loss/driver/resistance evaluation) with
the solver stack; all conditional expectations, the backward induction, the
minimal-shift search and the reflection assembly are implemented here
independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import LIPSCHITZ, ScenarioSpec, SolverError
from .paths import make_grid

ORACLE_MAX_STEPS = 12
ORACLE_TOL = 1e-12
ORACLE_MAX_ITER = 400
ORACLE_LOSS_TOL = 1e-13
_IMPLICIT_TOL = 1e-12
_IMPLICIT_MAX_ITER = 50


class OracleError(SolverError):
    """Scenario cannot be represented exactly on the small lattice."""

    exit_code = 3


@dataclass(eq=False)
class LatticeSolution:
    n: int
    dt: float
    times: np.ndarray
    y: list
    k: np.ndarray
    mean_y: np.ndarray
    flatness_right: float
    min_constraint: float


def _probs(i: int) -> list[float]:
    scale = 2.0 ** i
    return [math.comb(i, j) / scale for j in range(i + 1)]


def _wmean(probs, values) -> float:
    return math.fsum(p * v for p, v in zip(probs, values))


def _min_shift(loss, t: float, probs, values) -> float:
    """Smallest x >= 0 with E[l(t, x + X)] >= 0, to within ORACLE_LOSS_TOL, by
    plain bisection on the fsum mean of the loss at the shifted atoms."""
    atoms = np.array(values)

    def g(x: float) -> float:
        return _wmean(probs, loss.evaluate(t, x + atoms))

    if g(0.0) >= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while g(hi) < 0.0:
        if hi >= 2.0 ** 60:
            raise SolverError(f"no nonnegative expected loss below shift 2^60 at t={t}")
        lo, hi = hi, 2.0 * hi
    while hi - lo > ORACLE_LOSS_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # past 1024 adjacent floats are wider than the tolerance
            break
        lo, hi = (lo, mid) if g(mid) >= 0.0 else (mid, hi)
    return hi


def require_exact(scenario: ScenarioSpec, n: int):
    """Raise OracleError unless the exact lattice solver can take the scenario
    on n steps."""
    if scenario.brownian_dim != 1:
        raise OracleError("the exact lattice solver is one-dimensional")
    if n > ORACLE_MAX_STEPS:
        raise OracleError(f"exact solve capped at n <= {ORACLE_MAX_STEPS}")
    dt = make_grid(scenario.horizon, n).dt
    if scenario.mode == LIPSCHITZ and scenario.driver.lam * dt >= 1.0:
        raise OracleError("lam*dt >= 1: refine the grid")


def exact_solve(scenario: ScenarioSpec, n: int) -> LatticeSolution:
    """Fixed point of the reflected solve, computed exactly on the lattice.

    Each sweep makes one backward pass for the deflated values. On the
    lattice they equal the target process X_t = E_t[xi + int_t^T f], so K is
    read off their minimal shifts through the backward running supremum.
    """
    require_exact(scenario, n)
    grid = make_grid(scenario.horizon, n)
    dt = grid.dt
    root = math.sqrt(dt)
    times = grid.nodes
    drv, loss = scenario.driver, scenario.loss
    implicit = scenario.mode == LIPSCHITZ

    probs = [_probs(i) for i in range(n + 1)]
    xi = [float(scenario.terminal.evaluate(np.array([[(2 * j - n) * root]]))[0])
          for j in range(n + 1)]

    def f_eval(t, y_val, my, z_val, mz, g) -> float:
        out = drv.evaluate(t, np.array([y_val]), my,
                           np.array([[z_val]]), np.array([mz]), g)
        return float(out[0])

    y_prev = [[0.0] * (i + 1) for i in range(n + 1)]
    z_prev = [[0.0] * (i + 1) for i in range(n + 1)]
    k_prev = [0.0] * (n + 1)

    for _ in range(ORACLE_MAX_ITER):
        mean_y = [_wmean(probs[i], y_prev[i]) for i in range(n + 1)]
        mean_z = [_wmean(probs[i], z_prev[i]) for i in range(n + 1)]
        g_path = scenario.resistance.apply(grid, np.array(k_prev))
        tail_prev = [k_prev[n] - k_prev[i] for i in range(n + 1)]

        ybar = [None] * (n + 1)
        zs = [None] * (n + 1)
        ybar[n] = list(xi)
        zs[n] = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            t_i = float(times[i])
            row_y, row_z = [], []
            for j in range(i + 1):
                down, up = ybar[i + 1][j], ybar[i + 1][j + 1]
                base = 0.5 * (down + up)
                z_ij = (up - down) / (2.0 * root)
                if implicit:
                    v = base
                    for _ in range(_IMPLICIT_MAX_ITER):
                        f_v = f_eval(t_i, v + tail_prev[i], mean_y[i], z_ij,
                                     mean_z[i], float(g_path[i]))
                        v_new = base + f_v * dt
                        done = abs(v_new - v) <= _IMPLICIT_TOL
                        v = v_new
                        if done:
                            break
                    else:
                        raise OracleError(f"node fixed point stalled at step {i}")
                    row_y.append(v)
                else:
                    f_j = f_eval(t_i, y_prev[i][j], mean_y[i], z_ij, mean_z[i],
                                 float(g_path[i]))
                    row_y.append(base + f_j * dt)
                row_z.append(z_ij)
            ybar[i] = row_y
            zs[i] = row_z

        rho = [_min_shift(loss, float(times[i]), probs[i], ybar[i])
               for i in range(n + 1)]
        s = [0.0] * (n + 1)
        s[n] = rho[n]
        for i in range(n - 1, -1, -1):
            s[i] = max(rho[i], s[i + 1])
        k = [s[0] - s[i] for i in range(n + 1)]
        y = [[ybar[i][j] + (k[n] - k[i]) for j in range(i + 1)]
             for i in range(n + 1)]

        dist = max(
            max(abs(y[i][j] - y_prev[i][j]) for i in range(n + 1)
                for j in range(i + 1)),
            max(abs(zs[i][j] - z_prev[i][j]) for i in range(n + 1)
                for j in range(i + 1)),
            max(abs(k[i] - k_prev[i]) for i in range(n + 1)),
        )
        y_prev, z_prev, k_prev = y, zs, k
        if dist <= ORACLE_TOL:
            break
    else:
        raise OracleError(f"exact solve did not reach {ORACLE_TOL:g} "
                          f"in {ORACLE_MAX_ITER} sweeps")

    constraint = [_wmean(probs[i],
                         loss.evaluate(float(times[i]), np.array(y_prev[i])))
                  for i in range(n + 1)]
    dk = [k_prev[i] - k_prev[i - 1] for i in range(1, n + 1)]
    flat_right = math.fsum(constraint[i] * dk[i - 1] for i in range(1, n + 1))

    return LatticeSolution(
        n=n, dt=dt, times=times,
        y=[np.array(r) for r in y_prev], k=np.array(k_prev),
        mean_y=np.array([_wmean(probs[i], y_prev[i]) for i in range(n + 1)]),
        flatness_right=flat_right, min_constraint=min(constraint))


def oracle_compare(scenario: ScenarioSpec, backend, tol: float | None = None,
                   lattice_budget: float = 1e-10,
                   mc_budget: float = 1e-2) -> dict:
    """Run the solver on the lattice and on the given regression backend, on
    that backend's grid, against the oracle.

    Reports the worst deviations of the mean path, the reflection path, and the
    flatness residual, with pass flags against the given budgets. `tol` is the
    regression solve's Picard tolerance (default: the backend's).
    """
    from .condexp import LatticeBackend
    from .picard import picard_solve

    grid = backend.grid
    exact = exact_solve(scenario, grid.n)

    def deviations(solution) -> dict:
        return {
            "mean_y": float(np.max(np.abs(solution.stats["mean_y"] - exact.mean_y))),
            "k": float(np.max(np.abs(solution.k - exact.k))),
            "flatness": abs(solution.diagnostics["flatness_right"]
                            - exact.flatness_right),
        }

    lat_backend = LatticeBackend(grid)
    lat_sol, _ = picard_solve(scenario, grid, lat_backend, tol=1e-12)
    lat_dev = deviations(lat_sol)

    ens = backend.ensemble
    settings = {"N": ens.N, "seed": ens.seed, "degree": backend.basis.degree,
                "antithetic": ens.antithetic, "tol": tol}
    reg_sol, _ = picard_solve(scenario, grid, backend, tol=tol)
    reg_dev = deviations(reg_sol)

    return {
        "n": grid.n,
        "exact": {"mean_y": exact.mean_y.tolist(), "k": exact.k.tolist(),
                  "flatness": exact.flatness_right},
        "lattice": {**lat_dev, "budget": lattice_budget,
                    "within": all(v <= lattice_budget for v in lat_dev.values())},
        "regression": {**reg_dev, "budget": mc_budget, "settings": settings,
                       "within": all(v <= mc_budget for v in reg_dev.values())},
    }
