"""The names the benchmark harness in `perfbench/` binds in the program.

The harness wraps program functions from outside `src/`, so deleting or
renaming one of them breaks the benchmark without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import mrbsde.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the `cli` names perfbench/worker.py calls
WORKER_CLI_NAMES = ("make_grid", "load_config", "write_results_csv",
                    "write_summary", "main")


def _wrapped_module_attributes() -> list[str]:
    return [f"{key}.{name}" for key, mod in list(sys.modules.items())
            if key.startswith("mrbsde")
            for name, value in vars(mod).items() if hasattr(value, "__wrapped__")]


def test_benchmark_bindings_resolve():
    path, modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
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
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]
    assert _wrapped_module_attributes() == []
