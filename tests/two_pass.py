"""Reference passes that no solve runs: each forms in a pass of its own what
a sweep finds inside its backward pass, for the tests to compare with."""

import numpy as np

from mrbsde.model import LossSpec
from mrbsde.paths import TimeGrid
from mrbsde.reflect import diagnostics_record, flatness_residual


def constraint_diagnostics(loss: LossSpec, grid: TimeGrid, backend, y_values, k,
                           lo: int = 0) -> dict:
    """One pass of the loss over the nodes: the mean and standard error of
    l(t_j, y_j) at each node, their minimum and the flatness residuals."""
    constraint, constraint_se = np.empty((2, len(y_values)))
    for j, y in enumerate(y_values):
        vals = loss.evaluate(grid.nodes[lo + j], y)
        constraint[j], constraint_se[j] = backend.mean_se(lo + j, vals)
    return diagnostics_record(constraint, constraint_se, flatness_residual(constraint, k))
