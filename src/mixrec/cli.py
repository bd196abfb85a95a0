"""Command-line pipeline: ingest, embed, cluster, init, backtest, synth, report.

A JSON config file supplies defaults; every value can be overridden by a
flag. ``embed``, ``cluster``, ``init`` and ``backtest`` check the config
against the output directory's ``config.json`` and write it there.
Progress goes to stderr as key=value lines; all artifacts and reports land
under the run's output directory.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .backtest import (
    RunConfig,
    backtest,
    ensure_clusters,
    ensure_embeddings,
    ensure_init,
    open_run,
    report,
    split_graph,
)
from .graph import format_stats, graph_stats
from .synth import SynthSpec, generate


def _add_config_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file with RunConfig fields")
    p.add_argument("--data", dest="data_path", help="edge-list path")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--delimiter", help="edge-list column delimiter (default tab)")
    p.add_argument("--regroup-factor", type=int, dest="regroup_factor")
    p.add_argument("--test-chunks", type=int, dest="test_chunks")
    p.add_argument("--interests", type=int, dest="num_interests", help="number of latent interests K")
    p.add_argument("--kmeans-iters", type=int, dest="kmeans_iters")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--dim", type=int, help="embedding dimension")
    p.add_argument("--epochs", type=int, help="embedding epochs")
    p.add_argument("--negatives", type=int, help="negative samples per positive")
    p.add_argument("--lr", type=float, help="embedding learning rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--max-sweeps", type=int, dest="max_sweeps")
    p.add_argument("--tol", type=float, dest="convergence_tol")
    p.add_argument("--user-count-mode", dest="user_count_mode", choices=["reset", "accumulate"])
    p.add_argument("--m", type=int, nargs="+", dest="m_values", help="candidate cutoffs")
    p.add_argument("--truncation", type=int, help="per-interest list length L (default 5*M)")
    p.add_argument("--include-seen", action="store_true", help="disable seen-item exclusion")
    p.add_argument("--workers", type=int)
    p.add_argument("--methods", nargs="+", help="subset of: micro mle ann popularity")
    p.add_argument("--dump-candidates", action="store_true", dest="dump_candidates", default=None)
    p.add_argument("--seed", type=int)


_EMBED_KEYS = {"dim", "epochs", "negatives", "lr", "batch_size"}


def _build_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    for key, value in vars(args).items():
        if key in ("config", "command", "func", "include_seen") or value is None:
            continue
        if key in _EMBED_KEYS:
            setattr(cfg.embed, key, value)
        elif hasattr(cfg, key):
            setattr(cfg, key, value)
    if getattr(args, "include_seen", False):
        cfg.exclude_seen = False
    return cfg


def cmd_ingest(args) -> int:
    g, _, _ = split_graph(_build_config(args))
    print(format_stats(graph_stats(g)))
    return 0


def cmd_embed(args) -> int:
    cfg = _build_config(args)
    open_run(cfg)
    ensure_embeddings(cfg, split_graph(cfg)[1])
    return 0


def cmd_cluster(args) -> int:
    cfg = _build_config(args)
    if not (Path(cfg.out_dir) / "embeddings.npz").exists():
        raise SystemExit("no embeddings.npz in the output directory; run `embed` first")
    open_run(cfg)
    emb = ensure_embeddings(cfg, None)  # reuses the cached table
    ensure_clusters(cfg, emb)
    return 0


def cmd_init(args) -> int:
    cfg = _build_config(args)
    out = Path(cfg.out_dir)
    if not (out / "clusters.npz").exists():
        raise SystemExit("no clusters.npz in the output directory; run `cluster` first")
    open_run(cfg)
    train = split_graph(cfg)[1]
    emb = ensure_embeddings(cfg, train)
    clusters = ensure_clusters(cfg, emb)
    ensure_init(cfg, train, clusters)
    return 0


def cmd_backtest(args) -> int:
    cfg = _build_config(args)
    reports = backtest(cfg)
    report(cfg)
    for (meth, m) in sorted(reports):
        o = reports[(meth, m)].overall
        print(f"method={meth} M={m} queries={o.n_queries} recall={o.recall:.6f} mrr={o.mrr:.6f} ndcg={o.ndcg:.6f}")
    return 0


def cmd_report(args) -> int:
    cfg = _build_config(args)
    report(cfg)
    for p in sorted((Path(cfg.out_dir) / "report").glob("table_M*.txt")):
        print(p.read_text().rstrip())
        print()
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        num_users=args.users,
        num_items=args.items,
        num_interests=args.interests,
        num_chunks=args.chunks,
        engagements_per_user=args.per_user,
        support_size=args.support_size,
        theta_concentration=args.theta_concentration,
        phi_concentration=args.phi_concentration,
        block_items=not args.no_blocks,
        seed=args.seed,
    )
    g, truth = generate(spec)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    edge_path = prefix.with_suffix(".tsv")
    with open(edge_path, "w") as fh:
        for u, i, t in zip(g.users.tolist(), g.items.tolist(), g.chunks.tolist()):
            fh.write(f"{u}\t{i}\t{t}\n")
    np.savez_compressed(
        prefix.with_name(prefix.name + "_truth.npz"),
        theta=truth.theta,
        phi=truth.phi,
        z=np.concatenate(truth.z),
        chunk_sizes=np.asarray([len(z) for z in truth.z]),
        item_block=truth.item_block if truth.item_block is not None else np.empty(0, np.int64),
    )
    print(f"edges={g.num_edges} users={g.num_users} items={g.num_items} chunks={g.num_chunks}")
    print(f"edge_list={edge_path}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s %(message)s"
    )
    parser = argparse.ArgumentParser(
        prog="mixrec",
        description="temporal multi-interest candidate retrieval pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, desc in [
        ("ingest", cmd_ingest, "load an edge list, report stats, cache the graph"),
        ("embed", cmd_embed, "train user/item co-embeddings on the train split"),
        ("cluster", cmd_cluster, "spherical k-means over item embeddings"),
        ("init", cmd_init, "build the t=0 count artifact from clusters"),
        ("backtest", cmd_backtest, "rolling fit/retrieve/score over held-out chunks"),
        ("report", cmd_report, "assemble comparison tables from backtest outputs"),
    ]:
        p = sub.add_parser(name, help=desc)
        _add_config_overrides(p)
        p.set_defaults(func=fn)

    ps = sub.add_parser("synth", help="generate a synthetic engagement graph with known truth")
    ps.add_argument("--users", type=int, default=200)
    ps.add_argument("--items", type=int, default=500)
    ps.add_argument("--interests", type=int, default=5)
    ps.add_argument("--chunks", type=int, default=4)
    ps.add_argument("--per-user", type=int, default=20, dest="per_user")
    ps.add_argument("--support-size", type=int, default=2, dest="support_size")
    ps.add_argument("--theta-concentration", type=float, default=1.0)
    ps.add_argument("--phi-concentration", type=float, default=0.1)
    ps.add_argument("--no-blocks", action="store_true", help="overlapping item distributions")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out-prefix", default="synth/data", dest="out_prefix")
    ps.set_defaults(func=cmd_synth)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
