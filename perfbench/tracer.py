"""Instrumentation installed from outside the program, inside a worker.

`Phases` wraps the few CLI call sites that bound set-up and solve; it is the
only instrumentation of an end-to-end (untraced) job. `Tracer`
wraps the public functions of every module and records one span per call,
kept in memory until the job ends. A function imported by name into another
module is a separate binding, so every binding of the original in every
loaded `mrbsde` module is replaced, not only the defining one.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) of every traced function, mapped to the per-layer
# metric its self time is charged to. Class methods are "Class.method".
SPANS = {
    ("paths", "sample_ensemble"): "paths.sample_s",
    ("paths", "antithetic"): "paths.sample_s",
    ("condexp", "RegressionBasis.design"): "condexp.design_s",
    ("condexp", "RegressionBackend.condexp_and_z"): "condexp.fit_s",
    ("condexp", "RegressionBackend.condexp"): "condexp.fit_s",
    ("lossop", "loss_operator"): "lossop.shift_s",  # lossop.probe_s under a probe
    ("lossop", "hl_lipschitz_probe"): "lossop.probe_s",
    ("reflect", "solve_deflated"): "reflect.deflate_s",
    ("reflect", "x_process"): "reflect.target_s",
    ("reflect", "build_k"): "reflect.build_k_s",
    ("reflect", "solve_interval"): "reflect.interval_s",
    ("reflect", "flatness_residual"): "reflect.flatness_s",
    ("reflect", "empirical_norms"): "reflect.norms_s",
    ("reflect", "bmo_proxy"): "reflect.norms_s",
    ("picard", "picard_solve"): "picard.self_s",
    ("picard", "iterate_distance"): "picard.distance_s",
    ("stitch", "solve_global"): "stitch.paste_s",
    ("model", "validate_assumptions"): "model.assumptions_s",
    ("cli", "load_config"): "cli.setup_s",
    ("cli", "build_backend"): "cli.setup_s",
    ("cli", "summarize"): "cli.summarize_s",
    ("cli", "write_results_csv"): "cli.write_s",
    ("cli", "write_summary"): "cli.write_s",
    ("cli", "verify_checks"): "cli.verify_s",
    ("cli", "hl_probe_worst"): "cli.verify_s",
}
# Hot inner calls that are counted, not timed: their time stays in the caller.
COUNTS = (("lossop", "expected_loss"), ("model", "DriverSpec.evaluate"))

SHIFT = "lossop.loss_operator"
PROBE = "lossop.hl_lipschitz_probe"
PROJECTIONS = ("condexp.RegressionBackend.condexp_and_z",
               "condexp.RegressionBackend.condexp")
PROJECTION_CALLERS = {"reflect.solve_deflated": "condexp.calls_deflate",
                      "reflect.x_process": "condexp.calls_target",
                      "reflect.bmo_proxy": "condexp.calls_norms",
                      "reflect.empirical_norms": "condexp.calls_norms"}
MIB = float(2 ** 20)


def _resolve(module: str, attr: str):
    """The owner (module or class) of `module.attr` and the original object."""
    owner = sys.modules[f"mrbsde.{module}"]
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name, getattr(owner, name)


def _replace_everywhere(module: str, attr: str, make_wrapper, undo: list):
    """Rebind every reference to the original, in its owner and in every
    `mrbsde` module that imported it by name."""
    owner, name, original = _resolve(module, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        sites = [(owner, name)]
    else:  # also catches renaming imports such as `antithetic as make_antithetic`
        sites = [(mod, alias) for key, mod in list(sys.modules.items())
                 if key == "mrbsde" or key.startswith("mrbsde.")
                 for alias, value in list(vars(mod).items()) if value is original]
    for site, alias in sites:
        undo.append((site, alias, original))
        setattr(site, alias, wrapper)


def restore(undo: list):
    for site, name, original in reversed(undo):
        setattr(site, name, original)
    undo.clear()


class Phases:
    """Set-up end and solve time of one CLI job, plus the objects that a
    `verify` job computes but does not write."""

    def __init__(self):
        self.setup_end = None
        self.solve_s = 0.0
        self.result = None
        self.summary = None
        self.undo: list = []

    def install(self):
        import mrbsde.cli as cli

        def after_backend(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.setup_end = perf_counter()
                return out
            return wrapper

        def timed_solve(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                out = fn(*args, **kwargs)
                self.solve_s += perf_counter() - start
                return out
            return wrapper

        def capture(slot):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    setattr(self, slot, out)
                    return out
                return wrapper
            return make

        for name, make in (("build_backend", after_backend),
                           ("picard_solve", timed_solve),
                           ("solve_global", timed_solve),
                           ("execute", capture("result")),
                           ("summarize", capture("summary"))):
            original = getattr(cli, name)
            self.undo.append((cli, name, original))
            setattr(cli, name, make(original))


class Tracer:
    """Spans `[name, parent index, start, end]` and counted calls, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.events: dict[str, list[int]] = defaultdict(list)  # name -> parent
        self.bytes: dict[str, int] = defaultdict(int)
        self.undo: list = []

    def _span(self, name: str, measure=None):
        spans, stack = self.spans, self.stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[3] = perf_counter()
                    stack.pop()
                if measure is not None:
                    measure(args, out)
                return out
            return wrapper
        return make

    def _count(self, name: str):
        events, stack = self.events[name], self.stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                events.append(stack[-1] if stack else -1)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _ensemble_bytes(self, args, ens):
        self.bytes["ensemble"] += ens.increments.nbytes + ens.states.nbytes

    def _design_bytes(self, args, phi):
        basis, states = args[0], args[1]
        self.bytes["design"] += len(states) * basis.n_features * 8

    def install(self):
        measures = {("paths", "sample_ensemble"): self._ensemble_bytes,
                    ("paths", "antithetic"): self._ensemble_bytes,
                    ("condexp", "RegressionBasis.design"): self._design_bytes}
        for key in SPANS:
            _replace_everywhere(*key, self._span(".".join(key), measures.get(key)),
                                self.undo)
        for key in COUNTS:
            _replace_everywhere(*key, self._count(".".join(key)), self.undo)

    def layer_metrics(self, wall_s: float, import_s: float) -> dict:
        """Per-layer self times, which with `cli.import_s` and `other_s` sum
        to `wall_s`, and the per-layer counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_probe = [False] * len(spans)
        for i, (name, parent, start, end) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_probe[i] = in_probe[parent]
            in_probe[i] = in_probe[i] or name == PROBE

        out = {metric: 0.0 for metric in SPANS.values()}
        counts = {"condexp.calls": 0, "condexp.calls_deflate": 0,
                  "condexp.calls_target": 0, "condexp.calls_norms": 0,
                  "lossop.shift_calls": 0}
        top = 0.0
        for i, (name, parent, start, end) in enumerate(spans):
            metric = SPANS[tuple(name.split(".", 1))]
            if name == SHIFT:
                if in_probe[i]:
                    metric = "lossop.probe_s"
                else:
                    counts["lossop.shift_calls"] += 1
            elif name in PROJECTIONS:
                counts["condexp.calls"] += 1
                caller = PROJECTION_CALLERS.get(spans[parent][0]) if parent >= 0 else None
                if caller:
                    counts[caller] += 1
            out[metric] += (end - start) - child[i]
            if parent < 0:
                top += end - start

        evals = sum(1 for p in self.events["lossop.expected_loss"]
                    if p >= 0 and spans[p][0] == SHIFT and not in_probe[p])
        out.update(counts)
        out.update({
            "cli.import_s": import_s,
            "other_s": wall_s - import_s - top,
            "lossop.evals": evals,
            "lossop.evals_per_shift": evals / max(counts["lossop.shift_calls"], 1),
            "reflect.driver_evals": len(self.events["model.DriverSpec.evaluate"]),
            "paths.ensemble_mb": self.bytes["ensemble"] / MIB,
            "condexp.design_mb": self.bytes["design"] / MIB,
        })
        return out
