"""The benchmark's own tests: tiny smoke runs and the tracing invariants.

Run with ``python3 -m pytest mixbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import boot

boot.start()

import mixrec.backtest as bt  # noqa: E402

import harness  # noqa: E402
from datagen import generate  # noqa: E402
from spans import CandidateChecker, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

RUN = Path(__file__).with_name("run.py")
SPEC = json.loads((boot.CHECKOUT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=None, run=RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["provenance"]["seed"] == 3 and all(p["queries"] > 0 for p in record["properties"])


def test_traced_and_untraced_runs_write_identical_reports(tmp_path):
    w = tiny(WORKLOADS["rolling"])
    edges = generate(w.gen, 5)
    written = {}
    for traced in (False, True):
        root = tmp_path / ("traced" if traced else "plain")
        harness.build_setup(w, edges, root)
        cfg = harness.run_config(w, root)
        if traced:
            tracer = Tracer(CandidateChecker(edges))
            with tracer.installed(), tracer.root():
                bt.backtest(cfg)
            s = summarize(tracer)
            assert s["invalid"] == 0, s["problems"]
            assert sum(s["lists"].values()) > 0
        else:
            bt.backtest(cfg)
        written[traced] = harness.metrics_bytes(Path(cfg.out_dir))
    assert written[False] and written[False] == written[True]
    # the wrappers are gone again once the context ends
    assert bt.fit_chunk.__module__ == "mixrec.sampler"


def test_stage_guard_flags_stale_reuse(tmp_path):
    w = tiny(WORKLOADS["refresh"])
    harness.build_setup(w, generate(w.gen, 5), tmp_path / "s")
    cfg = harness.run_config(w, tmp_path / "s")
    bt.backtest(cfg)  # leaves fitted chunk models behind
    out = Path(cfg.out_dir)
    before = harness.artifact_stamps(out)
    bt.backtest(cfg)
    problems = harness.stage_guard(w, before, harness.artifact_stamps(out))
    assert problems and "expected ['chunks']" in problems[0]


def test_fails_without_program_source(tmp_path):
    shutil.copy(boot.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "mixbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("rolling", 0, cwd=tmp_path, run=tmp_path / "mixbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
