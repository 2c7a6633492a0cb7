"""The names the benchmark harness in `perfbench/` binds in the program.

The harness wraps program functions from outside `src/`, so deleting or
renaming one of them breaks the benchmark without failing any other test.
"""

import contextlib
import importlib
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import mrbsde.cli as cli
from mrbsde.condexp import RegressionBackend, RegressionBasis
from mrbsde.paths import antithetic, make_grid, sample_ensemble

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the `cli` names perfbench/worker.py calls
WORKER_CLI_NAMES = ("make_grid", "load_config", "write_results_csv",
                    "write_summary", "main")


def _wrapped_module_attributes() -> list[str]:
    return [f"{key}.{name}" for key, mod in list(sys.modules.items())
            if key.startswith("mrbsde")
            for name, value in vars(mod).items() if hasattr(value, "__wrapped__")]


@contextlib.contextmanager
def _perfbench():
    """`perfbench/` importable, and its modules unloaded afterwards."""
    path, modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]


def test_benchmark_bindings_resolve():
    with _perfbench():
        tracer = importlib.import_module("tracer")
        smoke = importlib.import_module("smoke")
        for probe in (tracer.Tracer(), tracer.Phases()):
            try:
                # resolves every SPANS and COUNTS key, and the cli names Phases wraps
                probe.install()
            finally:
                tracer.restore(probe.undo)
        smoke.check_sites()
        missing = [name for name in WORKER_CLI_NAMES if not callable(getattr(cli, name, None))]
        assert not missing, f"cli lacks {missing}"
    assert _wrapped_module_attributes() == []


def test_each_projection_makes_one_design_span():
    # condexp.design_s and condexp.design_mb time and size the calls of
    # RegressionBasis.design: each regression projection makes one, with its
    # (N, d) states, or both metrics would read 0
    ens = antithetic(sample_ensemble(make_grid(1.0, 4), 500, 2, seed=3))
    backend = RegressionBackend(ens, degree=2)
    v, p = np.ones(ens.N), backend.basis.n_features
    with mock.patch.object(RegressionBasis, "design", autospec=True,
                           side_effect=RegressionBasis.design) as design:
        for project in (backend.condexp, backend.condexp_and_z):
            design.reset_mock()
            project(2, v)
            assert design.call_count == 1
            assert design.call_args.args[1].shape == (ens.N, ens.d)
    with _perfbench():
        tracer = importlib.import_module("tracer")
        probe = tracer.Tracer()
        try:
            probe.install()
            backend.condexp(1, v)
            backend.condexp_and_z(3, v, fit=1)
        finally:
            tracer.restore(probe.undo)
        metrics = probe.layer_metrics(wall_s=1.0, import_s=0.0)
    assert [name for name, *_ in probe.spans].count("condexp.RegressionBasis.design") == 2
    assert metrics["condexp.design_s"] > 0.0
    assert metrics["condexp.design_mb"] == 2 * ens.N * p * 8 / tracer.MIB
    assert _wrapped_module_attributes() == []
