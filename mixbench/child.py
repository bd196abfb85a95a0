"""The timed phase of one benchmark run, in a process of its own.

run.py builds one set-up per data set and then starts ``python3 child.py
JOB.json``, so the peak RSS read here is that of the ``backtest`` calls,
not of data generation or set-up. Repetition i copies set-up i mod n into
a fresh directory, calls ``mixrec.backtest.backtest`` once and checks what
it wrote; untraced repetitions are preceded by a run of the calibration
kernel, so wall times can be rescaled to a fixed machine speed. With
tracing on, repetitions alternate untraced and traced; the
median difference within those pairs is the tracing overhead.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import boot

boot.start()

import mixrec.backtest as bt  # noqa: E402

import harness  # noqa: E402
from calib import Calibrator  # noqa: E402
from datagen import generate  # noqa: E402
from spans import CandidateChecker, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402


def _peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM). Unlike ``ru_maxrss``, it
    does not count the parent's pages, which survive fork and exec there."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _check_calls(s: dict, expect_calls: dict[str, int]) -> list[str]:
    """Stage guard from the spans: each stage function ran as often as the
    workload's set-up depth implies."""
    return [
        f"{name} called {s['calls'].get(name, 0)} times, expected {n}"
        for name, n in expect_calls.items()
        if s["calls"].get(name, 0) != n
    ]


def run(job: dict) -> dict:
    w = WORKLOADS[job["workload"]]
    if job["tiny"]:
        w = tiny(w)
    templates = [Path(t) for t in job["templates"]]
    edges = [generate(w.gen, (job["seed"], r)) for r in range(len(templates))]
    lists_per_query = len(w.run.get("methods", bt.METHODS)) * len(w.run["m_values"])
    expect_calls = harness.expected_calls(w, w.run["test_chunks"])
    work = Path(job["work"])

    calibrator = None if job["trace"] else Calibrator()
    walls, kernels, traced = [], [], []
    quality: dict[int, dict] = {}
    reference: dict[int, dict] = {}
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < job["min_reps"] or time.perf_counter() - start < job["seconds"]:
        r = i % len(templates)
        queries = edges[r].query_count()
        rep = work / f"rep{i}"
        shutil.copytree(templates[r], rep)
        cfg = harness.run_config(w, rep)
        before = harness.artifact_stamps(rep / "out")
        tracer = Tracer(CandidateChecker(edges[r])) if job["trace"] and i % 2 else None
        lists = queries * lists_per_query
        attempted += lists
        if calibrator is not None:
            kernels.append(calibrator.run())
        # a repetition whose outputs fail a check fails all its lists; in a
        # traced one without such a problem, each invalid list fails alone
        found: list[str] = []
        invalid = 0
        try:
            if tracer is None:
                t0 = time.perf_counter()
                bt.backtest(cfg)
                walls.append(time.perf_counter() - t0)
            else:
                with tracer.installed(), tracer.root():
                    bt.backtest(cfg)
        except Exception:
            found.append(f"backtest raised\n{traceback.format_exc()}")
        else:
            out = rep / "out"
            found += harness.stage_guard(w, before, harness.artifact_stamps(out))
            q, bad = harness.check_outputs(w, out, queries)
            found += bad
            quality.setdefault(r, q)
            written = harness.metrics_bytes(out)
            if reference.setdefault(r, written) != written:
                found.append("metrics/*.tsv differ from an earlier repetition on the same data")
            if tracer is not None:
                s = summarize(tracer)
                found += _check_calls(s, expect_calls)
                invalid = s["invalid"]
                problems += [f"traced rep {i}: {p}" for p in s["problems"]]
                traced.append(s)
        failed += lists if found else invalid
        problems += [f"rep {i}: {p}" for p in found]
        shutil.rmtree(rep)
        i += 1
    # quality is the mean over the data sets, so it repeats exactly at a seed
    names = sorted({k for q in quality.values() for k in q})
    mean_quality = {k: sum(q[k] for q in quality.values()) / len(quality) for k in names} if len(quality) == len(templates) else {}
    return {
        "walls": walls,
        "kernels": kernels,
        "traced": traced,
        "quality": mean_quality,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": _peak_rss_mb(),
    }


if __name__ == "__main__":
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text())
    Path(job["result"]).write_text(json.dumps(run(job)))
