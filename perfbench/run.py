"""Benchmark of the mrbsde solver, driven through its command line.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 36] [--trace 0|1]

Closed loop: one job at a time, each in a fresh worker process with BLAS and
OpenMP pinned to one thread, repeated until `--seconds` is used (at least
two jobs). The config is generated from the seed into a temporary
directory inside the checkout, which is removed at the end. Every job's
`results.csv` is checked against the workload's closed form, and the
deterministic outputs of all jobs must be byte-identical; a job that exits
nonzero, fails verification, misses its reference or differs counts as
failed.

With `--trace 0` the end-to-end metrics are medians over the jobs, and
`setup_s` also over a few workers that only set up. With
`--trace 1` every second job runs with every public function of the program
wrapped in spans, and the per-layer metrics come from the traced job with the
median wall time. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEV_SEED = 7
MIN_JOBS = 2          # a second job for the byte-identity check
SETUP_PROBES = 6      # set-up-only workers per untraced run, for a steadier setup_s
RUN_LIMIT_S = 165.0   # no job may end after this; a run must exit within 180 s
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
PER_JOB = ("wall_s", "solve_s", "post_s", "peak_rss_mb", "sweeps",
           "particle_steps_per_s")


class BenchError(RuntimeError):
    """The benchmark cannot run here: no program, or no contract."""


def load_contract(root: Path = ROOT) -> dict:
    try:
        return json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def check_outputs(workload: Workload, out: Path) -> tuple[dict, str]:
    """Deviations from the closed form, and the digest of the deterministic
    outputs (`summary.json` without its wall-clock field `runtime_ms`)."""
    csv_bytes = (out / "results.csv").read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    err_y = max(abs(float(r["mean_Y"]) - workload.mean_y(float(r["t"]))) for r in rows)
    err_k = max(abs(float(r["K"]) - workload.k(float(r["t"]))) for r in rows)
    del summary["runtime_ms"]
    digest = hashlib.sha256(csv_bytes)
    digest.update(json.dumps(summary, sort_keys=True).encode())
    report = out / "verify_report.json"
    if report.exists():
        digest.update(report.read_bytes())
    return {"accuracy.err_mean_y": err_y, "accuracy.err_k": err_k,
            "accuracy.constraint_violation": max(0.0, -summary["min_constraint"]),
            "accuracy.flatness_abs": abs(summary["flatness_residual"]),
            "sweeps": summary["sweeps"]}, digest.hexdigest()


def run_job(workload: Workload, config: Path, tmp: Path, index: int,
            mode: str, timeout: float) -> dict:
    """One worker; `mode` is "", "--trace" or "--setup-only"."""
    out, result = tmp / f"job{index}", tmp / f"job{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"),
           "--job", workload.job, "--config", str(config), "--out", str(out),
           "--result", str(result)] + ([mode] if mode else [])
    env = {**os.environ, **WORKER_ENV}
    shutil.rmtree(out, ignore_errors=True)  # left by an earlier run in `tmp`
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    rec = json.loads(result.read_text())
    if mode == "--setup-only":
        return rec
    if rec["rc"] != 0:
        return {"error": f"{workload.job} exited {rec['rc']}"}
    try:
        accuracy, rec["digest"] = check_outputs(workload, out)
    except (OSError, ValueError, KeyError) as exc:
        return {"error": f"unreadable outputs: {exc!r}"}
    rec.update(accuracy)
    tol = workload.tolerance(workload.T / workload.n)
    if max(accuracy["accuracy.err_mean_y"], accuracy["accuracy.err_k"]) > tol:
        rec["error"] = f"reference missed by more than {tol:g}"
    rec["particle_steps_per_s"] = (workload.N * workload.n * rec["sweeps"]
                                   / rec["solve_s"])
    shutil.rmtree(out)
    return rec


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        contract: dict, tmp: Path, log=None) -> dict:
    """Run jobs for about `seconds` and return the result object."""
    config = tmp / "config.json"
    config.write_text(json.dumps(workload.config(seed)))
    jobs: list[dict] = []
    start = perf_counter()

    def launch(mode: str, timeout: float):
        began = perf_counter()
        rec = run_job(workload, config, tmp, len(jobs), mode, timeout)
        rec.update(elapsed=perf_counter() - began, mode=mode)
        jobs.append(rec)
        if log:
            log(f"job {len(jobs)} {mode or 'timed'}: "
                f"{rec.get('error') or '%.2f s' % rec['elapsed']}")

    while True:
        elapsed = perf_counter() - start
        expected = median(j["elapsed"] for j in jobs) if jobs else 0.0
        if jobs and (elapsed + expected > RUN_LIMIT_S
                     or (len(jobs) >= MIN_JOBS and elapsed + expected > seconds)):
            break
        launch("--trace" if trace and len(jobs) % 2 else "",
               timeout=RUN_LIMIT_S + 10.0 - elapsed)
    for _ in range(0 if trace else SETUP_PROBES):
        if perf_counter() - start > RUN_LIMIT_S - 10.0:
            break
        launch("--setup-only", timeout=10.0)

    digests = [j["digest"] for j in jobs if "digest" in j]
    for j in jobs:
        if "error" not in j and "digest" in j and j["digest"] != digests[0]:
            j["error"] = "outputs differ from the first job's"
    ok = [j for j in jobs if "error" not in j]
    plain = [j for j in ok if j["mode"] == ""]
    values: dict = {}
    if plain:
        for name in PER_JOB:
            values[name] = median(j[name] for j in plain)
        values["setup_s"] = median(j["setup_s"] for j in ok
                                   if j["mode"] in ("", "--setup-only"))
    checked = [j for j in ok if "digest" in j]
    if checked:
        for name in checked[0]:
            if name.startswith("accuracy."):
                values[name] = median(j[name] for j in checked)
    traced = sorted((j for j in ok if j["mode"] == "--trace"),
                    key=lambda j: j["wall_s"])
    if traced and plain:
        # One whole job, so its self times still add up to its wall time.
        chosen = traced[(len(traced) - 1) // 2]
        values.update(chosen["layers"])
        values["trace.wall_s"] = chosen["wall_s"]
        values["trace.overhead_s"] = chosen["wall_s"] - values["wall_s"]
    failed = len(jobs) - len(ok)
    values["fail_frac"] = failed / len(jobs)

    section = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in contract[section] if m["name"] in values}
    return {"correct": failed == 0 and len(metrics) == len(contract[section]),
            "attempted": len(jobs), "failed": failed, "metrics": metrics}


@contextlib.contextmanager
def temp_dir():
    """A fresh directory for configs and outputs, inside the checkout."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by another run
            scratch.rmdir()


def warm_up():
    """Import the program once, untimed, so that no job compiles bytecode."""
    if not (ROOT / "src" / "mrbsde" / "cli.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import mrbsde.cli"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, **WORKER_ENV},
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"cannot import the program: {proc.stderr.strip()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        contract = load_contract()
        warm_up()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with temp_dir() as tmp:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), contract, tmp,
                     log=lambda msg: print(msg, file=sys.stderr, flush=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
