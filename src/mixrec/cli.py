"""Command-line pipeline: ingest, embed, cluster, init, backtest, synth.

A JSON config file supplies defaults, every value can be overridden by a
flag, and the config is checked once, when it is made from the two.
``ingest``, ``embed``, ``cluster``, ``init`` and ``backtest`` check it
against the record of every artifact in the output directory and build
every artifact they need that is missing, from the graph on. Only
``backtest`` writes ``config.json``, with its metrics, candidate lists and
comparison tables (``report/table_M<M>.txt``), replacing those of any
earlier run, and prints each method's overall metrics. Progress goes to
stderr as key=value lines.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .backtest import (
    USER_COUNT_MODES,
    EmbedParams,
    RunConfig,
    backtest,
    ensure_clusters,
    ensure_embeddings,
    ensure_init,
    open_run,
    split_graph,
)
from .graph import format_stats, graph_stats, write_edge_list
from .npz import write_npz
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
    p.add_argument("--user-count-mode", dest="user_count_mode", choices=USER_COUNT_MODES)
    p.add_argument("--m", type=int, nargs="+", dest="m_values", help="candidate cutoffs")
    p.add_argument("--include-seen", action="store_true", help="disable seen-item exclusion")
    p.add_argument("--workers", type=int)
    p.add_argument("--methods", nargs="+", help="subset of: micro mle ann popularity")
    p.add_argument("--dump-candidates", action="store_true", dest="dump_candidates", default=None)
    p.add_argument("--seed", type=int)


def _build_config(args) -> RunConfig:
    """The ``--config`` file's config, or the defaults, with each given flag in place of its field."""
    base = RunConfig.from_json(args.config) if args.config else RunConfig()
    given = {k: v for k, v in vars(args).items() if v is not None}
    if args.include_seen:
        given["exclude_seen"] = False
    top = {f.name: given[f.name] for f in fields(RunConfig) if f.name in given}
    embed = {f.name: given[f.name] for f in fields(EmbedParams) if f.name in given}
    return replace(base, **top, embed=replace(base.embed, **embed))


def cmd_ingest(args) -> int:
    cfg = _build_config(args)
    g = split_graph(cfg, open_run(cfg))[0]
    print(format_stats(graph_stats(g)))
    return 0


def cmd_stage(args) -> int:
    """``embed``, ``cluster`` or ``init``: build that stage's artifact and
    every earlier one that is missing."""
    cfg = _build_config(args)
    run = open_run(cfg)
    train = split_graph(cfg, run)[1]
    built = ensure_embeddings(cfg, train, run)
    if args.command != "embed":
        built = ensure_clusters(cfg, built, run)
    if args.command == "init":
        ensure_init(cfg, train, built, run)
    return 0


def cmd_backtest(args) -> int:
    cfg = _build_config(args)
    reports = backtest(cfg)
    for (meth, m) in sorted(reports):
        o = reports[(meth, m)].overall
        print(f"method={meth} M={m} queries={o.n_queries} recall={o.recall:.6f} mrr={o.mrr:.6f} ndcg={o.ndcg:.6f}")
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
        seed=args.seed,
    )
    g, truth = generate(spec)
    prefix = Path(args.out_prefix)
    edge_path = prefix.with_suffix(".tsv")
    write_edge_list(g, edge_path)
    write_npz(
        prefix.with_name(prefix.name + "_truth.npz"),
        None,
        theta=truth.theta,
        phi=truth.phi,
        z=np.concatenate(truth.z),
        chunk_sizes=np.asarray([len(z) for z in truth.z]),
        item_block=truth.item_block,
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
        ("embed", cmd_stage, "train user/item co-embeddings on the train split"),
        ("cluster", cmd_stage, "spherical k-means over item embeddings"),
        ("init", cmd_stage, "build the t=0 count artifact from clusters"),
        ("backtest", cmd_backtest, "rolling fit/retrieve/score over held-out chunks"),
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
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out-prefix", default="synth/data", dest="out_prefix")
    ps.set_defaults(func=cmd_synth)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
