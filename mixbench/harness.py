"""Set-up, the stage guard and the output checks shared by run.py and child.py."""

from __future__ import annotations

from pathlib import Path

import mixrec.backtest as bt
from mixrec.graph import SplitSpec
from mixrec.metrics import MetricsReport

from workloads import STAGES, Workload


def run_config(w: Workload, root: Path) -> bt.RunConfig:
    return bt.RunConfig(data_path=str(root / "edges.tsv"), out_dir=str(root / "out"), workers=1, **w.run)


def build_setup(w: Workload, edges, root: Path) -> None:
    """Write the edge list and build the workload's prebuilt artifacts with
    the same stage functions, and the same config, that ``backtest`` uses."""
    root.mkdir(parents=True)
    edges.write(root / "edges.tsv")
    if not w.prebuilt:
        return
    cfg = run_config(w, root)
    Path(cfg.out_dir).mkdir()
    g = bt.ensure_graph(cfg)
    train, test = bt.split(g, SplitSpec(t_split=g.num_chunks - cfg.test_chunks))
    emb = bt.ensure_embeddings(cfg, train)
    init = bt.ensure_init(cfg, train, bt.ensure_clusters(cfg, emb))
    if "chunks" in w.prebuilt:
        if cfg.user_count_mode != "reset":
            raise ValueError("prebuilt chunk models need user_count_mode=reset")
        for j, slc in enumerate(test):
            bt._fit_or_load(cfg, slc, init, j, None)


def _stage_of(rel: str) -> str | None:
    if rel.startswith("chunks/") and rel.endswith(".npz"):
        return "chunks"
    stem = rel[: -len(".npz")] if rel.endswith(".npz") and "/" not in rel else None
    return stem if stem in STAGES else None


def artifact_stamps(out: Path) -> dict[str, tuple[str, int, int]]:
    """(stage, inode, mtime) of every cached artifact under ``out``."""
    stamps = {}
    for p in out.rglob("*.npz"):
        rel = p.relative_to(out).as_posix()
        stage = _stage_of(rel)
        if stage is not None:
            st = p.stat()
            stamps[rel] = (stage, st.st_ino, st.st_mtime_ns)
    return stamps


def stage_guard(w: Workload, before: dict, after: dict) -> list[str]:
    """Every stage not prebuilt must write its artifacts; prebuilt ones must
    be reused untouched. Catches a run that silently reuses stale work."""
    written = {v[0] for k, v in after.items() if before.get(k) != v}
    expect = set(STAGES) - set(w.prebuilt)
    problems = []
    if written != expect:
        problems.append(f"stages written {sorted(written)}, expected {sorted(expect)}")
    missing = {v[0] for k, v in before.items() if k not in after}
    if missing:
        problems.append(f"artifacts removed: {sorted(missing)}")
    return problems


def expected_calls(w: Workload, test_chunks: int) -> dict[str, int]:
    """Calls the traced run must make, from which stages are prebuilt."""
    fits = 0 if "chunks" in w.prebuilt else test_chunks
    return {
        "load_edge_list": int("graph" not in w.prebuilt),
        "train_embeddings": int("embeddings" not in w.prebuilt),
        "cluster_items": int("clusters" not in w.prebuilt),
        "build_init": int("init" not in w.prebuilt),
        "fit_chunk": fits,
        "load_chunk_model": test_chunks - fits,
    }


def check_outputs(w: Workload, out: Path, queries: int) -> tuple[dict[str, float], list[str]]:
    """Quality at the largest M, plus every problem found in the reports."""
    problems = []
    reports: dict[tuple[str, int], MetricsReport] = bt.read_reports(out / "metrics")
    want = {(meth, m) for meth in w.run.get("methods", bt.METHODS) for m in w.run["m_values"]}
    if set(reports) != want:
        problems.append(f"reports for {sorted(reports)}, expected {sorted(want)}")
    for key, rep in reports.items():
        if rep.overall.n_queries != queries:
            problems.append(f"{key}: {rep.overall.n_queries} queries, the generator implies {queries}")
        try:
            rep.check_consistency()
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
    quality = {}
    for meth in bt.METHODS:
        rep = reports.get((meth, w.max_m))
        if rep is not None:
            quality[f"recall.{meth}"] = rep.overall.recall
            quality[f"mrr.{meth}"] = rep.overall.mrr
    if quality.get("recall.micro", 0.0) <= quality.get("recall.popularity", 1.0):
        problems.append("recall.micro does not beat recall.popularity on planted data")
    return quality, problems


def metrics_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((out / "metrics").glob("*.tsv"))}
