#!/usr/bin/env python3
"""Directional experiment on a follow-graph subsample.

Runs the rolling backtest with K=500 interests at M=100 over the last three
coarse chunks of a <=5M-edge subsample (see make_follow_subsample.py) and
reports whether the overall Recall@100 ordering is
model-based > embedding-cosine > popularity with >10% relative gaps.
Absolute values at desk scale are recorded, not asserted against any
full-scale numbers.

Usage: python scripts/run_follow_backtest.py EDGES [--out DIR] [--interests K]
"""

import argparse
import sys
import time

from mixrec.backtest import RunConfig, backtest
from mixrec.graph import load_edge_list


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("edges", help="subsampled edge list: user<TAB>item<TAB>chunk")
    ap.add_argument("--out", default="runs/follow")
    ap.add_argument("--interests", type=int, default=500)
    ap.add_argument("--test-chunks", type=int, default=3, dest="test_chunks")
    ap.add_argument("--coarse-chunks", type=int, default=25, dest="coarse_chunks")
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--epochs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.time()
    g = load_edge_list(args.edges)
    factor = max(1, -(-g.num_chunks // args.coarse_chunks))
    print(f"edges={g.num_edges} raw_chunks={g.num_chunks} regroup_factor={factor}")

    cfg = RunConfig(
        data_path=args.edges,
        out_dir=args.out,
        regroup_factor=factor,
        test_chunks=args.test_chunks,
        num_interests=args.interests,
        m_values=[100],
        seed=args.seed,
        methods=["micro", "ann", "popularity"],
        embed={"dim": args.dim, "epochs": args.epochs, "negatives": 5},
    )
    reports = backtest(cfg)

    micro = reports[("micro", 100)].overall.recall
    ann = reports[("ann", 100)].overall.recall
    pop = reports[("popularity", 100)].overall.recall
    print(f"\noverall Recall@100: micro={micro:.4f} ann={ann:.4f} popularity={pop:.4f}")
    print(f"elapsed: {time.time() - t0:.0f}s")
    ordering = micro > ann * 1.10 and ann > pop * 1.10
    print(f"ordering micro > ann > popularity with >10% gaps: {'YES' if ordering else 'NO'}")
    return 0 if ordering else 1


if __name__ == "__main__":
    sys.exit(main())
