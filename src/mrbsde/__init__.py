"""Numerical solver and verification harness for mean-field BSDEs with mean
reflection and nonlinear resistance.

The solution of the constrained terminal-value problem is built as the fixed
point of interval solves: deflate the equation, read the reflection off a
backward running supremum of minimal shifts of the target-process laws, and
recompose. Short intervals contract; a resistance-free global solve stitches
them backward across the whole horizon.
"""

from .condexp import LatticeBackend, RegressionBackend, RegressionBasis
from .lossop import EmpiricalLaw, expected_loss, hl_lipschitz_probe, loss_operator
from .model import (DriverSpec, LossSpec, ResistanceSpec, ScenarioSpec,
                    TerminalSpec, hl_constant, validate_assumptions)
from .oracle import LatticeSolution, exact_solve, oracle_compare
from .paths import (ParticleEnsemble, TimeGrid, antithetic, make_grid,
                    particle_mean, sample_ensemble)
from .picard import (ConstantsReport, ConvergenceError, PicardHistory,
                     constants_report, contraction_estimate, contraction_horizon,
                     lipschitz_horizon, picard_solve, quadratic_ball_floor,
                     quadratic_contraction_coeff, quadratic_contraction_horizon,
                     quadratic_stability_horizon, scenario_constants, uniform_y_bound)
from .reflect import (ReflectedSolution, build_k, constraint_diagnostics, empirical_norms,
                      flatness_residual, solve_deflated, solve_interval, x_process)
from .scenarios import NamedScenario, get, registry, scenario_from_dict
from .stitch import plan_intervals, solve_global, stitch_constants

__version__ = "0.1.0"
