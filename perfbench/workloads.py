"""The benchmark's workloads.

Each workload is one CLI job (`solve` or `verify`) on a config generated from
the benchmark seed, plus the closed form that the job's `results.csv` is
checked against. Sizes were chosen so that each planned optimisation has a
workload where it does most of the work and one where it should change
nothing; `why` records which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

EXACT_TOL = 1e-8  # closed forms reproduced up to the 1e-10 shift-search tolerance


@dataclass(frozen=True)
class Workload:
    name: str
    job: str                 # CLI subcommand: "solve" or "verify"
    why: str
    scenario: str | dict     # registry name or inline scenario object
    T: float
    n: int
    N: int                   # particles, antithetic pairs included
    degree: int
    mean_y: Callable[[float], float]   # closed form of E[Y_t]
    k: Callable[[float], float]        # closed form of K_t
    tolerance: Callable[[float], float]  # allowed max deviation, given dt
    intervals: int | None = None       # stitched solve when set

    def config(self, seed: int) -> dict:
        cfg = {"scenario": self.scenario,
               "grid": {"n": self.n, "T": self.T},
               "ensemble": {"N": self.N, "seed": seed, "antithetic": True},
               "backend": {"kind": "regression", "degree": self.degree}}
        if self.intervals is not None:
            cfg["stitch"] = {"intervals": self.intervals}
        return cfg


def _sine_k(t: float) -> float:
    return 0.3 * (1.0 - math.sin(math.pi * t)) if t > 0.5 else 0.0


def _sine_mean_y(t: float) -> float:
    # E[Y_t] is the remaining reflection K_1 - K_t.
    return 0.3 * math.sin(math.pi * t) if t > 0.5 else 0.3


MF_A, MF_T = 0.5, 0.5


def _meanfield_tolerance(dt: float) -> float:
    # The scheme resolves m' = -a m by implicit Euler, whose bias on
    # m_0 = e^{aT} is about a^2 T dt e^{aT} / 2; allow twice that plus the
    # Picard stopping slack.
    return MF_A * MF_A * MF_T * dt * math.exp(MF_A * MF_T) + 1e-3


# stitch-sine-verify: terminal 0.2 + B_T, driver f = -0.5, loss y + 0.5 sin y.
# - Degree 1 reproduces the affine target X_t = B_t + t/2 - 0.3 exactly.
# - With u = x + t/2 - 0.3, E[l(x + X_t)] = u + 0.5 e^{-t/2} sin u on the
#   Gaussian law (and u + 0.5 E[cos B_t] sin u on the antithetic ensemble);
#   either way its only root is u = 0, so rho_t = max(0, 0.3 - t/2), which
#   is nonincreasing and equals its backward running maximum.
# - Hence K_t = rho_0 - rho_t = min(t/2, 0.3) and
#   E[Y_t] = E[X_t] + K_1 - K_t = max(0, t/2 - 0.3).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="reg-sine-1d", job="solve",
        why="Large-N 1-d solve with 2 sweeps: projection dominates, the "
            "target pass makes ~40% of projections and little reuse shows "
            "the memory cost of any per-ensemble cache",
        scenario="A_sine_constraint", T=1.0, n=64, N=100_000, degree=3,
        mean_y=_sine_mean_y, k=_sine_k, tolerance=lambda dt: EXACT_TOL),
    Workload(
        name="reg-meanfield-d3", job="solve",
        why="d=3 mean-field solve with 6 sweeps: design-matrix build "
            "dominates; the constraint is slack, so shift-search changes "
            "must not move it",
        scenario={"name": "meanfield_d3", "T": MF_T, "d": 3,
                  "terminal": {"kind": "brownian_shift", "params": {"c": 1.0}},
                  "driver": {"kind": "linear_mean", "params": {"a": MF_A}},
                  "resistance": {"kind": "zero"},
                  "loss": {"kind": "linear_shift", "params": {"c0": 0.0}}},
        T=MF_T, n=16, N=10_000, degree=3,
        # The terminal reads the first coordinate only.
        mean_y=lambda t: math.exp(MF_A * (MF_T - t)), k=lambda t: 0.0,
        tolerance=_meanfield_tolerance),
    Workload(
        name="stitch-sine-verify", job="verify",
        why="Stitched solve over 4 intervals then the verify gate: sine-loss "
            "shift search dominates, design is cheap at degree 1; covers "
            "stitch, probes and assumption checks",
        scenario={"name": "stitch_sine", "T": 1.0, "d": 1,
                  "terminal": {"kind": "brownian_shift", "params": {"c": 0.2}},
                  "driver": {"kind": "constant", "params": {"value": -0.5}},
                  "resistance": {"kind": "zero"},
                  "loss": {"kind": "sine_perturbed", "params": {"beta": 0.5}}},
        T=1.0, n=64, N=100_000, degree=1, intervals=4,
        mean_y=lambda t: max(0.0, t / 2.0 - 0.3), k=lambda t: min(t / 2.0, 0.3),
        tolerance=lambda dt: EXACT_TOL),
)}
