"""Run one benchmark job in a fresh process and write its timings as JSON.

    python3 perfbench/worker.py --src SRC --job solve|verify --config CFG \
        --out DIR --result FILE [--trace | --setup-only]

A fresh process per job keeps `ru_maxrss` a per-job peak. The job goes
through the public CLI entry point, `mrbsde.cli.main`. A `verify` job writes
no results; its solution and summary are written to DIR after the clock
stops, so every job leaves `results.csv` and `summary.json` to check.
`--setup-only` does only what a job does before its solve: import, config
parse and `cli.build_backend`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--job", required=True, choices=["solve", "verify"])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    sys.path.insert(0, args.src)
    import mrbsde.cli as cli
    import_s = perf_counter() - t0
    if args.setup_only:
        cfg = cli.load_config(args.config)
        cli.build_backend(cfg, cli.make_grid(cfg.scenario.horizon, cfg.n))
        Path(args.result).write_text(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    import tracer
    phases = tracer.Phases()
    trace = tracer.Tracer() if args.trace else None
    if trace is not None:
        trace.install()
    phases.install()  # outermost, so its own cost stays out of every span

    with contextlib.redirect_stdout(io.StringIO()):  # the verify report
        rc = cli.main([args.job, "--config", args.config, "--out", args.out])
    wall_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer.restore(phases.undo)
    if trace is not None:
        tracer.restore(trace.undo)
    if rc != 0:
        Path(args.result).write_text(json.dumps({"rc": rc}))
        return 0
    if args.job == "verify":
        out = Path(args.out)
        cli.write_results_csv(out / "results.csv", phases.result)
        cli.write_summary(out / "summary.json", phases.summary)

    setup_s = phases.setup_end - t0
    record = {"rc": rc, "wall_s": wall_s, "setup_s": setup_s,
              "solve_s": phases.solve_s,
              "post_s": wall_s - setup_s - phases.solve_s,
              "peak_rss_mb": peak_rss_mb}
    if trace is not None:
        record["layers"] = trace.layer_metrics(wall_s, import_s)
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
