#!/usr/bin/env python3
"""End-to-end experiment on generated temporal data with known truth.

Generates a temporal engagement graph from the package's own generative
story, runs the full rolling backtest (all four methods), prints the
comparison tables, and scores latent recovery against the planted truth for
the model-based method.

Usage: python scripts/run_synth_backtest.py [--out DIR] [--seed N]
"""

import argparse
import sys
from pathlib import Path

from mixrec.backtest import RunConfig, backtest
from mixrec.graph import write_edge_list
from mixrec.sampler import SamplerConfig, fit_chunk
from mixrec.synth import SynthSpec, generate, init_from_truth, score_recovery


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/synth", help="output directory")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--users", type=int, default=200)
    ap.add_argument("--items", type=int, default=500)
    ap.add_argument("--interests", type=int, default=5)
    ap.add_argument("--chunks", type=int, default=6)
    ap.add_argument("--per-user", type=int, default=20, dest="per_user")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = SynthSpec(
        num_users=args.users,
        num_items=args.items,
        num_interests=args.interests,
        num_chunks=args.chunks,
        engagements_per_user=args.per_user,
        support_size=2,
        seed=args.seed,
    )
    g, truth = generate(spec)
    data = out / "edges.tsv"
    write_edge_list(g, data)
    print(f"generated edges={g.num_edges} users={g.num_users} items={g.num_items}")

    cfg = RunConfig(
        data_path=str(data),
        out_dir=str(out / "run"),
        test_chunks=3,
        num_interests=args.interests,
        m_values=[20, 100],
        seed=3,
        exclude_seen=False,
        embed={"dim": 16, "epochs": 30, "lr": 0.1},
    )
    backtest(cfg)
    for p in sorted((out / "run" / "report").glob("table_M*.txt")):
        print()
        print(p.read_text().rstrip())

    # latent recovery against the planted truth, anchored by true supports
    init = init_from_truth(truth, num_items=args.items)
    models = {
        t: fit_chunk(g.slice(t), init, SamplerConfig(seed=100 + t))
        for t in range(args.chunks - 3, args.chunks)
    }
    rec = score_recovery(truth, models)
    print()
    for t in sorted(rec.per_chunk_exact):
        print(
            f"chunk {t}: z-recovery={rec.per_chunk_exact[t]:.3f} "
            f"mixture-TV={rec.per_chunk_mean_tv[t]:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
