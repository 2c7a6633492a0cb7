"""Smoke test of the benchmark at tiny sizes (about half a minute):

    python3 perfbench/smoke.py

Checks, for every workload in both modes, that exactly the metrics of
BENCHMARK.json are emitted with their units and that no job fails; that a
traced job's self times, `cli.import_s` and `other_s` add up to its wall
time; that the trace wraps every site that imports a traced function by
name; and that a wrong closed form is counted as a failure. Exits nonzero
on the first failed check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import run
import tracer
from workloads import WORKLOADS

TINY = {"reg-sine-1d": dict(n=8, N=2000), "reg-meanfield-d3": dict(n=4, N=2000),
        "stitch-sine-verify": dict(n=8, N=2000)}
# Sites that bind a traced function under their own name; a call through an
# unwrapped one would escape its span.
IMPORTED_SITES = ("reflect.loss_operator", "picard.solve_interval",
                  "picard.bmo_proxy", "stitch.picard_solve",
                  "stitch.flatness_residual", "cli.picard_solve",
                  "cli.solve_global", "cli.build_backend", "cli.sample_ensemble",
                  "cli.make_antithetic", "cli.validate_assumptions",
                  "condexp.RegressionBackend.condexp_and_z",
                  "condexp.RegressionBackend.condexp",
                  "condexp.RegressionBasis.design", "model.DriverSpec.evaluate",
                  "lossop.expected_loss")


def check(cond: bool, what: str):
    if not cond:
        raise AssertionError(what)


def check_sites():
    sys.path.insert(0, str(run.ROOT / "src"))
    import mrbsde.cli  # noqa: F401  (loads every module)

    trace = tracer.Tracer()
    trace.install()
    try:
        for site in IMPORTED_SITES:
            module, attr = site.split(".", 1)
            owner, name, value = tracer._resolve(module, attr)
            check(hasattr(value, "__wrapped__"), f"{site} is not traced")
    finally:
        tracer.restore(trace.undo)


def check_result(result: dict, contract: dict, section: str, label: str):
    expected = {m["name"]: m["unit"] for m in contract[section]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    check(emitted == expected, f"{label}: metrics {sorted(set(expected) ^ set(emitted))}")
    check(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
          f"{label}: non-finite metric")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS,
          f"{label}: {result}")


def check_self_times(values: dict, label: str):
    times = set(tracer.SPANS.values()) | {"cli.import_s", "other_s"}
    total = sum(values[k]["value"] for k in times)
    wall = values["trace.wall_s"]["value"]
    check(abs(total - wall) <= 1e-9 * max(wall, 1.0),
          f"{label}: self times sum to {total}, wall is {wall}")
    check(values["other_s"]["value"] >= 0.0, f"{label}: negative other_s")


def main() -> int:
    contract = run.load_contract()
    run.warm_up()
    check_sites()
    with run.temp_dir() as tmp:
        for name, size in TINY.items():
            workload = replace(WORKLOADS[name], **size)
            for trace in (False, True):
                label = f"{name} trace={int(trace)}"
                result = run.run(workload, run.DEV_SEED, 0.0, trace, contract, tmp)
                check_result(result, contract,
                             "per_layer" if trace else "end_to_end", label)
                if trace:
                    check_self_times(result["metrics"], label)
                print(f"ok  {label}")
        workload = replace(WORKLOADS["reg-sine-1d"], **TINY["reg-sine-1d"])
        wrong = replace(workload, mean_y=lambda t: workload.mean_y(t) + 1e-3)
        result = run.run(wrong, run.DEV_SEED, 0.0, False, contract, tmp)
        solves = result["attempted"] - run.SETUP_PROBES
        check(not result["correct"] and result["failed"] == solves >= run.MIN_JOBS,
              f"a wrong reference was not counted as failed: {result}")
        print("ok  wrong reference counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
