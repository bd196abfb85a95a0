"""Benchmark of the mixrec rolling backtest.

    python3 mixbench/run.py --workload {rolling,refresh,serve} --seed N \
        --seconds S --trace {0,1}

Draws four data sets from the seed and builds the workload's set-up for
each (the median build, without the generator, is ``setup_s``), then times
repeated single-process ``mixrec.backtest.backtest`` calls, cycling over the
data sets, for about S seconds in a child process (the median call is
``wall_s``). Both times are
rescaled to a fixed machine speed with the calibration kernel of calib.py,
run between builds and calls; the raw samples are in the record. Quality
is the mean over the four data sets, so it repeats exactly at a seed.
``--trace 1`` uses the first data set only, alternates untraced and traced
calls and reports the per-layer metrics (raw seconds) of the traced ones.
Every call's outputs are checked; the last stdout line is the JSON result,
the line before it the run's record (generator settings, measured data
properties, provenance). Work files go under ``.bench_work/`` in the
checkout; span events of the last traced call are kept in
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import boot

DATA_SETS = 4  # seeds (seed, 0..3): set-up is timed once per data set
MIN_REPS = DATA_SETS
MIN_TRACED_REPS = 4  # two untraced, two traced
CHILD_TIMEOUT_S = 170  # a run must end within 180 s


def _provenance(seed: int) -> dict:
    import numpy
    import scipy

    src = boot.CHECKOUT / "src" / "mixrec"
    digest = hashlib.sha256()
    for p in sorted(src.glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(boot.CHECKOUT.parent)}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=boot.CHECKOUT, env=env, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": boot.thread_settings(),
        "workers": 1,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="seconds-long sizes for the benchmark's own tests")
    args = ap.parse_args(argv)

    boot.start()
    from calib import Calibrator, at_reference_speed
    from datagen import generate
    from harness import build_setup
    from spans import Tracer, layer_metrics, summarize
    from workloads import WORKLOADS, tiny

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    base = boot.CHECKOUT / ".bench_work"
    work = base / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # set-up: seed -> edge lists -> prebuilt artifacts, one per data set;
        # a traced run uses the first data set only and traces its set-up.
        # The generator is not timed: set-up time is the edge-list write
        # plus the program's stage builds (on rolling, the write alone)
        setup_times, setup_kernels, setup_trace, templates, props = [], [], None, [], []
        calibrator = Calibrator()
        for r in range(1 if args.trace else DATA_SETS):
            root = work / f"setup{r}"
            edges = generate(w.gen, (args.seed, r))
            if args.trace:
                tracer = Tracer()
                with tracer.installed(), tracer.root("setup"):
                    build_setup(w, edges, root)
                setup_trace = summarize(tracer, root="setup")
            else:
                setup_kernels.append(calibrator.run())
                t0 = time.perf_counter()
                build_setup(w, edges, root)
                setup_times.append(time.perf_counter() - t0)
            templates.append(str(root))
            props.append(edges.properties())

        job = {
            "workload": w.name,
            "tiny": args.tiny,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "min_reps": MIN_TRACED_REPS if args.trace else MIN_REPS,
            "templates": templates,
            "work": str(work),
            "result": str(work / "result.json"),
        }
        (work / "job.json").write_text(json.dumps(job))
        child = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("child.py")), str(work / "job.json")], timeout=CHILD_TIMEOUT_S
        )
        if child.returncode != 0:
            print(f"timed phase exited with status {child.returncode}", file=sys.stderr)
            return 1
        res = json.loads((work / "result.json").read_text())

        measured = dict(res["quality"])
        if args.trace:
            epochs = w.run["embed"]["epochs"]
            per_rep = [layer_metrics(s, setup_trace, epochs) for s in res["traced"]]
            if per_rep:
                measured.update({k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]})
            pairs = list(zip(res["walls"], res["traced"]))  # repetitions alternate untraced, traced
            if pairs:
                measured["backtest.tracing_overhead_s"] = statistics.median(s["wall"] - u for u, s in pairs)
            trace_dir = base / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            if res["traced"]:
                (trace_dir / f"{w.name}-seed{args.seed}.json").write_text(
                    json.dumps({"setup": setup_trace["events"], "backtest": res["traced"][-1]["events"]})
                )
        elif res["walls"]:
            measured.update({
                "setup_s": at_reference_speed(statistics.median(setup_times), statistics.median(setup_kernels)),
                "wall_s": at_reference_speed(statistics.median(res["walls"]), statistics.median(res["kernels"])),
                "peak_rss_mb": res["peak_rss_mb"],
                "ok_query_share": 1.0 - res["failed"] / res["attempted"],
            })
        spec = json.loads((boot.CHECKOUT / "BENCHMARK.json").read_text())
        unit = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        for problem in res["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        missing = sorted(set(unit) - set(measured))
        if missing:
            print(f"no value for declared metrics {missing}", file=sys.stderr)
            return 1
        record = {
            "workload": w.name,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "generator": dataclasses.asdict(w.gen),
            "properties": props,
            "run_config": w.run,
            "prebuilt": list(w.prebuilt),
            "setup_samples_s": setup_times,
            "wall_samples_s": res["walls"],
            "kernel_samples_s": {"setup": setup_kernels, "timed": res["kernels"]},
            "traced_reps": len(res["traced"]),
            "provenance": _provenance(args.seed),
        }
        print(json.dumps({"record": record}))
        print(json.dumps({
            "correct": not res["problems"] and res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": measured[k], "unit": u} for k, u in unit.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
