"""Ranking metrics per (user, chunk) query and their aggregation.

A query is one user's deduplicated ground-truth item set for one chunk.
``score_query`` scores the first M ids of its ranked candidate list with
Recall@M (hits over the truth set's size), MRR@M (reciprocal rank of the
first relevant item, 0 when none lands in the top M) and binary-gain NDCG@M
(a log2(rank+1) discount, over the ideal DCG of a min(|truth|, M)-long
all-relevant prefix). Chunk-level numbers are unweighted means over that
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


@functools.lru_cache
def _idcg(n: int) -> float:
    """Ideal DCG of an n-long all-relevant prefix."""
    return sum(1.0 / math.log2(r + 2) for r in range(n))


def score_query(ids, truth, m: int) -> tuple[float, float, float]:
    """``(recall, mrr, ndcg)`` at ``m`` of one ranked list of distinct item
    ids against a nonempty ground-truth ``set`` or ``frozenset``: a list
    whose first ``m`` ids miss the truth, as most do, returns at one
    ``isdisjoint`` test, any other after one pass over them."""
    if not truth:
        raise ValueError("ground-truth set must be nonempty")
    head = ids[:m]
    if truth.isdisjoint(head):
        return 0.0, 0.0, 0.0
    hits = [pos for pos, item in enumerate(head) if item in truth]
    dcg = 0.0
    for pos in hits:
        dcg += 1.0 / math.log2(pos + 2)
    return len(hits) / len(truth), 1.0 / (hits[0] + 1), dcg / _idcg(min(len(truth), m))


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
    chunks,
    method: str = "",
    m: int = 0,
) -> MetricsReport:
    """Unweighted mean within each chunk; overall mean over all queries.
    ``chunks`` holds each scored query's chunk id, in ``per_query``'s order.

    Each chunk's sums and the overall sums add the query values from 0.0
    in query order (``np.cumsum`` is sequential), so every mean keeps the
    bits of a plain running sum.
    """
    chunks = np.asarray(chunks, dtype=np.int64)
    if len(per_query) != len(chunks):
        raise ValueError("every query must be scored exactly once")
    report = MetricsReport(method=method, m=m)
    n = len(chunks)
    if not n:
        return report
    vals = np.zeros((n + 1, 3))
    vals[1:] = per_query
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
