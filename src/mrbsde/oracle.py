"""Exact brute-force solver on small binomial lattices: plain per-node loops,
exact dyadic probabilities, fsum reductions, fixed point run to machine
precision. Ground truth for derived values and backend-equivalence tests.

Shares only the problem definition (loss/driver/resistance evaluation and the
minimal-shift search) with the solver stack; all conditional expectations,
the backward induction, and the reflection assembly are implemented here
independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lossop import EmpiricalLaw, loss_operator
from .model import LIPSCHITZ, ScenarioSpec
from .paths import make_grid

ORACLE_MAX_STEPS = 12
ORACLE_TOL = 1e-12
ORACLE_MAX_ITER = 400
ORACLE_LOSS_TOL = 1e-13
_IMPLICIT_TOL = 1e-12
_IMPLICIT_MAX_ITER = 50


class OracleError(ValueError):
    """Scenario cannot be represented exactly on the small lattice."""


@dataclass(eq=False)
class LatticeSolution:
    n: int
    dt: float
    times: np.ndarray
    y: list
    z: list
    y_deflated: list
    x: list
    k: np.ndarray
    rho: np.ndarray
    mean_y: np.ndarray
    flatness_right: float
    flatness_left: float
    min_constraint: float
    distances: list = field(default_factory=list)
    converged: bool = False


def _states(i: int, dt: float) -> list[float]:
    root = math.sqrt(dt)
    return [(2 * j - i) * root for j in range(i + 1)]


def _probs(i: int) -> list[float]:
    scale = 2.0 ** i
    return [math.comb(i, j) / scale for j in range(i + 1)]


def _wmean(probs, values) -> float:
    return math.fsum(p * v for p, v in zip(probs, values))


def exact_solve(scenario: ScenarioSpec, n: int) -> LatticeSolution:
    """Fixed point of the reflected solve, computed exactly on the lattice."""
    if scenario.brownian_dim != 1:
        raise OracleError("the exact lattice solver is one-dimensional")
    if n > ORACLE_MAX_STEPS:
        raise OracleError(f"exact solve capped at n <= {ORACLE_MAX_STEPS}")
    grid = make_grid(scenario.horizon, n)
    dt = grid.dt
    root = math.sqrt(dt)
    times = grid.nodes
    drv, loss = scenario.driver, scenario.loss
    implicit = scenario.mode == LIPSCHITZ
    if implicit and drv.lam * dt >= 1.0:
        raise OracleError("lam*dt >= 1: refine the grid")

    states = [_states(i, dt) for i in range(n + 1)]
    probs = [_probs(i) for i in range(n + 1)]
    xi = [float(scenario.terminal.evaluate(np.array([[s]]))[0]) for s in states[n]]

    def f_eval(t, y_val, my, z_val, mz, g) -> float:
        out = drv.evaluate(t, np.array([y_val]), my,
                           np.array([[z_val]]), np.array([mz]), g)
        return float(out[0])

    y_prev = [[0.0] * (i + 1) for i in range(n + 1)]
    z_prev = [[0.0] * (i + 1) for i in range(n + 1)]
    k_prev = [0.0] * (n + 1)

    distances: list[float] = []
    ybar = zs = fval = x = k = rho = None
    for _ in range(ORACLE_MAX_ITER):
        mean_y = [_wmean(probs[i], y_prev[i]) for i in range(n + 1)]
        mean_z = [_wmean(probs[i], z_prev[i]) for i in range(n + 1)]
        g_path = scenario.resistance.apply(grid, np.array(k_prev))
        tail_prev = [k_prev[n] - k_prev[i] for i in range(n + 1)]

        ybar = [None] * (n + 1)
        zs = [None] * (n + 1)
        fval = [None] * (n + 1)
        ybar[n] = list(xi)
        zs[n] = [0.0] * (n + 1)
        fval[n] = [0.0] * (n + 1)
        for i in range(n - 1, -1, -1):
            t_i = float(times[i])
            row_y, row_z, row_f = [], [], []
            for j in range(i + 1):
                down, up = ybar[i + 1][j], ybar[i + 1][j + 1]
                base = 0.5 * (down + up)
                z_ij = (up - down) / (2.0 * root)
                if implicit:
                    v = base
                    f_v = None
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
                    row_f.append(f_v)
                else:
                    f_j = f_eval(t_i, y_prev[i][j], mean_y[i], z_ij, mean_z[i],
                                 float(g_path[i]))
                    row_y.append(base + f_j * dt)
                    row_f.append(f_j)
                row_z.append(z_ij)
            ybar[i] = row_y
            zs[i] = row_z
            fval[i] = row_f

        x = [None] * (n + 1)
        x[n] = list(xi)
        for i in range(n - 1, -1, -1):
            x[i] = [0.5 * (x[i + 1][j] + x[i + 1][j + 1]) + fval[i][j] * dt
                    for j in range(i + 1)]

        rho = [loss_operator(loss, float(times[i]),
                             EmpiricalLaw(np.array(x[i]), np.array(probs[i])),
                             tol=ORACLE_LOSS_TOL)
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
        distances.append(dist)
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
    flat_left = math.fsum(constraint[i - 1] * dk[i - 1] for i in range(1, n + 1))

    return LatticeSolution(
        n=n, dt=dt, times=times,
        y=[np.array(r) for r in y_prev],
        z=[np.array(r) for r in z_prev],
        y_deflated=[np.array(r) for r in ybar],
        x=[np.array(r) for r in x],
        k=np.array(k_prev), rho=np.array(rho),
        mean_y=np.array([_wmean(probs[i], y_prev[i]) for i in range(n + 1)]),
        flatness_right=flat_right, flatness_left=flat_left,
        min_constraint=min(constraint),
        distances=distances, converged=True)


def oracle_compare(scenario: ScenarioSpec, n: int, mc: dict | None = None,
                   lattice_budget: float = 1e-10,
                   mc_budget: float = 1e-2) -> dict:
    """Run the solver with both backends on a matched grid against the oracle.

    Reports the worst deviations of the mean path, the reflection path, and the
    flatness residual, with pass flags against the given budgets.
    """
    from .condexp import LatticeBackend, RegressionBackend
    from .picard import picard_solve
    from .paths import antithetic as make_antithetic
    from .paths import sample_ensemble

    exact = exact_solve(scenario, n)
    grid = make_grid(scenario.horizon, n)

    def deviations(solution, backend) -> dict:
        mean = solution.mean_y_path(backend)
        return {
            "mean_y": float(np.max(np.abs(mean - exact.mean_y))),
            "k": float(np.max(np.abs(solution.k - exact.k))),
            "flatness": abs(solution.diagnostics["flatness_right"]
                            - exact.flatness_right),
        }

    lat_backend = LatticeBackend(grid)
    lat_sol, _ = picard_solve(scenario, grid, lat_backend, tol=1e-12)
    lat_dev = deviations(lat_sol, lat_backend)

    mc = dict(mc or {})
    settings = {"N": mc.pop("N", 20000), "seed": mc.pop("seed", 2024),
                "degree": mc.pop("degree", 3),
                "antithetic": mc.pop("antithetic", True),
                "tol": mc.pop("tol", None)}
    if mc:
        raise ValueError(f"unknown monte carlo settings {sorted(mc)}")
    half = settings["N"] // 2 if settings["antithetic"] else settings["N"]
    ens = sample_ensemble(grid, half, scenario.brownian_dim, settings["seed"])
    if settings["antithetic"]:
        ens = make_antithetic(ens)
    reg_backend = RegressionBackend(ens, degree=settings["degree"])
    reg_sol, _ = picard_solve(scenario, grid, reg_backend, tol=settings["tol"])
    reg_dev = deviations(reg_sol, reg_backend)

    return {
        "n": n,
        "exact": {"mean_y": exact.mean_y.tolist(), "k": exact.k.tolist(),
                  "flatness": exact.flatness_right},
        "lattice": {**lat_dev, "budget": lattice_budget,
                    "within": all(v <= lattice_budget for v in lat_dev.values())},
        "regression": {**reg_dev, "budget": mc_budget, "settings": settings,
                       "within": all(v <= mc_budget for v in reg_dev.values())},
    }
