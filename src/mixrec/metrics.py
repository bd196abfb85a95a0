"""Ranking metrics per (user, chunk) query and their aggregation.

A query is one user's deduplicated ground-truth item set for one chunk;
candidates are scored with Recall@M, MRR@M (reciprocal rank of the first
relevant item, 0 when none lands in the top M), and binary-gain NDCG@M with
a log2(rank+1) discount. Chunk-level numbers are unweighted means over that
chunk's queries; overall numbers are means over all queries, which equals
the query-count-weighted mean of the chunk means.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import ChunkSlice

__all__ = [
    "Query",
    "MetricBlock",
    "MetricsReport",
    "build_queries",
    "recall_at_m",
    "mrr_at_m",
    "ndcg_at_m",
    "score_query",
    "aggregate",
]


@dataclass(frozen=True)
class Query:
    user: int
    chunk: int
    truth: frozenset


def build_queries(test: list[ChunkSlice]) -> list[Query]:
    """One query per (user, chunk) with at least one engagement; ground
    truth is the deduplicated item set of that user's chunk engagements."""
    queries: list[Query] = []
    for slc in test:
        for u, items in slc.iter_users():
            queries.append(Query(user=u, chunk=slc.chunk, truth=frozenset(items.tolist())))
    return queries


def _ids(cands) -> list[int]:
    if hasattr(cands, "item_ids"):
        return cands.item_ids()
    return list(cands)


def recall_at_m(cands, truth) -> float:
    """|retrieved intersect truth| / |truth|."""
    if not truth:
        raise ValueError("ground-truth set must be nonempty")
    ids = _ids(cands)
    return len(set(ids) & set(truth)) / len(set(truth))


def mrr_at_m(cands, truth) -> float:
    """1/rank of the first relevant candidate (1-indexed); 0 if none."""
    if not truth:
        raise ValueError("ground-truth set must be nonempty")
    truth = set(truth)
    for pos, item in enumerate(_ids(cands)):
        if item in truth:
            return 1.0 / (pos + 1)
    return 0.0


def ndcg_at_m(cands, truth, m: int | None = None) -> float:
    """Binary-gain NDCG: DCG over relevant hits / ideal DCG of the
    min(|truth|, M)-length perfect prefix. ``m`` defaults to the candidate
    list's length; pass the retrieval cutoff when lists may run short."""
    if not truth:
        raise ValueError("ground-truth set must be nonempty")
    truth = set(truth)
    ids = _ids(cands)
    if m is None:
        m = len(ids)
    ids = ids[:m]
    dcg = 0.0
    for pos, item in enumerate(ids):
        if item in truth:
            dcg += 1.0 / math.log2(pos + 2)
    idcg = sum(1.0 / math.log2(r + 2) for r in range(min(len(truth), m)))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


@functools.lru_cache
def _idcg(n: int) -> float:
    """Ideal DCG of an n-long all-relevant prefix, summed as ``ndcg_at_m`` does."""
    return sum(1.0 / math.log2(r + 2) for r in range(n))


def score_query(cands, truth, m: int | None = None) -> tuple[float, float, float]:
    """``(recall_at_m, mrr_at_m, ndcg_at_m)`` of one list, from one pass over it.

    Recall and MRR read the whole list and NDCG its first ``m`` entries, as
    the three functions do; every value equals theirs to the bit.
    """
    if not truth:
        raise ValueError("ground-truth set must be nonempty")
    truth = frozenset(truth)
    ids = _ids(cands)
    if m is None:
        m = len(ids)
    hits = [pos for pos, item in enumerate(ids) if item in truth]
    if not hits:
        return 0.0, 0.0, 0.0
    dcg = 0.0
    for pos in hits:
        if pos >= m:
            break
        dcg += 1.0 / math.log2(pos + 2)
    idcg = _idcg(min(len(truth), m))
    return (
        len({ids[pos] for pos in hits}) / len(truth),
        1.0 / (hits[0] + 1),
        dcg / idcg if idcg != 0.0 else 0.0,
    )


@dataclass
class MetricBlock:
    n_queries: int = 0
    recall: float = 0.0
    mrr: float = 0.0
    ndcg: float = 0.0


@dataclass
class MetricsReport:
    """Per-chunk and overall means for one (method, M) pair."""

    method: str
    m: int
    per_chunk: dict[int, MetricBlock] = field(default_factory=dict)
    overall: MetricBlock = field(default_factory=MetricBlock)

    def check_consistency(self, tol: float = 1e-12) -> None:
        n = sum(b.n_queries for b in self.per_chunk.values())
        if n != self.overall.n_queries:
            raise ValueError("per-chunk query counts disagree with overall")
        if n == 0:
            return
        for name in ("recall", "mrr", "ndcg"):
            weighted = (
                sum(getattr(b, name) * b.n_queries for b in self.per_chunk.values()) / n
            )
            if abs(weighted - getattr(self.overall, name)) > tol:
                raise ValueError(f"overall {name} is not the weighted chunk mean")


def aggregate(
    per_query: list[tuple[float, float, float]],
    queries: list[Query],
    method: str = "",
    m: int = 0,
) -> MetricsReport:
    """Unweighted mean within each chunk; overall mean over all queries.

    Each chunk's sums and the overall sums add the query values from 0.0
    in query order (``np.cumsum`` is sequential), so every mean keeps the
    bits of a plain running sum.
    """
    if len(per_query) != len(queries):
        raise ValueError("every query must be scored exactly once")
    report = MetricsReport(method=method, m=m)
    n = len(queries)
    if not n:
        return report
    vals = np.zeros((n + 1, 3))
    vals[1:] = per_query
    chunks = np.fromiter((q.chunk for q in queries), dtype=np.int64, count=n)
    for chunk in np.unique(chunks).tolist():
        rows = np.concatenate([[0], 1 + np.flatnonzero(chunks == chunk)])
        c = len(rows) - 1
        s = np.cumsum(vals[rows], axis=0)[-1] / c
        report.per_chunk[chunk] = MetricBlock(
            n_queries=c, recall=float(s[0]), mrr=float(s[1]), ndcg=float(s[2])
        )
    t = np.cumsum(vals, axis=0)[-1] / n
    report.overall = MetricBlock(n_queries=n, recall=float(t[0]), mrr=float(t[1]), ndcg=float(t[2]))
    return report
