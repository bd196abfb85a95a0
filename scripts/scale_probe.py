#!/usr/bin/env python3
"""Time one rolling backtest at the paper's interest count (K=5000).

Draws a planted-interest edge list with the benchmark's generator
(``mixbench/datagen.py``): by default 4000 warm users, 20k items and about
416k engagements over 3 train and 3 test chunks. It then runs every stage
of ``mixrec.backtest`` once at K=5000, M=100 in accumulate mode, and prints
one JSON line: the seconds of each stage, the peak RSS of the process and
``outputs_sha256``. That is one SHA-256 over the relative path, size and
bytes of every file the run wrote but ``config.json`` (which names the
temporary output directory), in path order: two versions of the program
that write the same artifacts, metrics, report tables and traces print the
same digest.

Stages: ``generate_s`` and ``write_s`` are the generator and the edge-list
write; ``ingest_s``, ``embed_s``, ``cluster_s`` and ``init_s`` build the
cached artifacts; ``backtest_s`` is the ``backtest`` call over them. Of that
call, ``fit_s``, ``index_s``, ``retrieve_s`` and ``score_s`` are the time
spent in ``fit_chunk``, the index builders, ``batch_retrieve`` and the
batched scorer (``chunk_truth``, ``find_hits`` and ``score_hits``), timed by
wrappers on those ``mixrec.backtest`` names (``TIMED``). ``micro_s``,
``mle_s``, ``ann_s`` and ``popularity_s`` are parts of ``retrieve_s``: the
time in each method's retriever (``retrieve_micro``, ``retrieve_mle``,
``ann_retrieve`` and ``popularity_retrieve``), called once per query. The
wrappers' own per-call cost lands in them too, and in ``retrieve_s``. A
timed name that ``mixrec.backtest`` no longer has, or that the run never
calls, raises ``RuntimeError``, so a renamed stage cannot read as 0 s.

This is a probe, not part of the benchmark: one run, one seed, no checks
beyond the ones ``backtest`` makes itself. Like the benchmark it pins the
BLAS pools to one thread and imports ``mixrec`` from this checkout's ``src``.

Work files go to a temporary directory, removed at the end.

Usage: python scripts/scale_probe.py [--seed N] [--users N] [--items N]
           [--interests K]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "mixbench"))
import boot  # noqa: E402

boot.start()

import mixrec.backtest as bt  # noqa: E402
from datagen import GenSpec, generate  # noqa: E402

# The timed ``backtest`` names of each sub-stage; each is looked up in
# ``mixrec.backtest`` at call time, so a wrapper set there times every call.
TIMED = {
    "fit_s": ("fit_chunk",),
    "index_s": ("popularity_ranking", "ann_encode_items", "build_index", "build_mle_index"),
    "retrieve_s": ("batch_retrieve",),
    "score_s": ("chunk_truth", "find_hits", "score_hits"),
    "micro_s": ("retrieve_micro",),
    "mle_s": ("retrieve_mle",),
    "ann_s": ("ann_retrieve",),
    "popularity_s": ("popularity_retrieve",),
}


def gen_spec(users: int, items: int) -> GenSpec:
    return GenSpec(
        users=users, cold_users=users // 10, items=items, blocks=max(1, items // 100), support=4,
        train_chunks=3, test_chunks=3, train_rate=34.0, test_rate=15.0,
        activity=0.6, new_item_share=0.05, drift=0.3, zipf=0.8,
    )


def run_config(data: Path, out: Path, interests: int, seed: int) -> bt.RunConfig:
    return bt.RunConfig(
        data_path=str(data), out_dir=str(out), test_chunks=3, num_interests=interests,
        kmeans_iters=10, embed={"dim": 32, "epochs": 6, "negatives": 5, "batch_size": 1024},
        max_sweeps=8, convergence_tol=1e-3, user_count_mode="accumulate", m_values=[100], seed=seed,
    )


def _timed(fn, totals: dict, key: str, calls: dict, name: str):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - t0

    return wrapper


def probe(cfg: bt.RunConfig, edges) -> dict[str, float]:
    """Seconds per stage of one run of ``cfg`` on ``edges``, from scratch."""
    stages: dict[str, float] = {}
    t0 = time.perf_counter()
    edges.write(cfg.data_path)
    stages["write_s"] = time.perf_counter() - t0

    run = bt.open_run(cfg)
    t0 = time.perf_counter()
    _, train, _ = bt.split_graph(cfg, run)
    stages["ingest_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    emb = bt.ensure_embeddings(cfg, train, run)
    stages["embed_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    clusters = bt.ensure_clusters(cfg, emb, run)
    stages["cluster_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    bt.ensure_init(cfg, train, clusters, run)
    stages["init_s"] = time.perf_counter() - t0

    parts = dict.fromkeys(TIMED, 0.0)
    timed = [name for names in TIMED.values() for name in names]
    missing = [name for name in timed if not callable(getattr(bt, name, None))]
    if missing:
        raise RuntimeError(f"mixrec.backtest has no function {', '.join(missing)} to time")
    originals = {name: getattr(bt, name) for name in timed}
    calls = dict.fromkeys(timed, 0)
    try:
        for key, names in TIMED.items():
            for name in names:
                setattr(bt, name, _timed(originals[name], parts, key, calls, name))
        t0 = time.perf_counter()
        bt.backtest(cfg)
        stages["backtest_s"] = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(bt, name, fn)
    idle = [name for name, n in calls.items() if not n]
    if idle:
        raise RuntimeError(f"backtest never called {', '.join(idle)}, so its time would read 0 s")
    stages.update(parts)
    return stages


def outputs_sha256(out: Path) -> str:
    digest = hashlib.sha256()
    files = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
    for rel in sorted(files.keys() - {"config.json"}):
        data = files[rel].read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--users", type=int, default=4000)
    ap.add_argument("--items", type=int, default=20000)
    ap.add_argument("--interests", type=int, default=5000)
    args = ap.parse_args()

    t0 = time.perf_counter()
    edges = generate(gen_spec(args.users, args.items), args.seed)
    generate_s = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = run_config(root / "edges.tsv", root / "out", args.interests, args.seed)
        stages = probe(cfg, edges)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, before the hash reads
        outputs = outputs_sha256(Path(cfg.out_dir))
    print(json.dumps({
        "users": args.users,
        "items": args.items,
        "interests": args.interests,
        "edges": int(len(edges.users)),
        "seed": args.seed,
        "generate_s": round(generate_s, 3),
        **{k: round(v, 3) for k, v in stages.items()},
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "outputs_sha256": outputs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
