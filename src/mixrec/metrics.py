"""Ranking metrics per (user, chunk) query and their aggregation.

A query is one user's deduplicated ground-truth item set for one chunk.
``score_query`` scores the first M ids of its ranked candidate list with
Recall@M (hits over the truth set's size), MRR@M (reciprocal rank of the
first relevant item, 0 when none lands in the top M) and binary-gain NDCG@M
(a log2(rank+1) discount, over the ideal DCG of a min(|truth|, M)-long
all-relevant prefix). Chunk-level numbers are unweighted means over that
chunk's queries; overall numbers are means over all queries, which equals
the query-count-weighted mean of the chunk means.

The backtest scores a chunk's lists in batches, with the bits of
``score_query``: ``chunk_truth`` holds every query's truth as sorted keys,
``find_hits`` finds each list entry that lies in its query's truth once per
set of lists, and ``score_hits`` scores those lists, each cut to its first M
entries, at any M from those hits.
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
    "ChunkTruth",
    "build_queries",
    "score_query",
    "chunk_truth",
    "find_hits",
    "score_hits",
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


@dataclass(frozen=True)
class ChunkTruth:
    """The ground truth of one chunk's queries, one per user active in it
    in ascending user order (``build_queries``' order): the distinct keys
    ``query * stride + item``, ascending, and each query's truth size.
    ``stride`` exceeds every item id, so no two (query, item) pairs share a
    key."""

    stride: int
    keys: np.ndarray
    sizes: np.ndarray


def chunk_truth(slc: ChunkSlice, stride: int) -> ChunkTruth:
    """``slc``'s queries' truths, read off its per-user CSR; an item id
    outside ``[0, stride)`` raises ``ValueError``."""
    _check_ids(slc.items, stride, "truth")
    n = len(slc.unique_users)
    keys = np.unique(np.repeat(np.arange(n, dtype=np.int64), np.diff(slc.user_ptr)) * stride + slc.items)
    return ChunkTruth(stride, keys, np.bincount(keys // stride, minlength=n))


def _check_ids(ids: np.ndarray, stride: int, what: str) -> None:
    if len(ids) and not 0 <= ids.min() <= ids.max() < stride:
        raise ValueError(f"{what} item ids must lie in [0, {stride}), got [{ids.min()}, {ids.max()}]")


_PASS = 128  # lists per pass of find_hits, which bounds the size of its arrays


def find_hits(lists, truth: ChunkTruth) -> tuple[np.ndarray, np.ndarray]:
    """``(query, position)``: each entry of the ``int64`` id arrays
    ``lists``, one per query of ``truth`` in its order, that lies in its
    query's truth, in list order. Each pass over up to ``_PASS`` lists
    finds their hits with one ``searchsorted`` of the entries' keys; an id
    outside ``[0, truth.stride)`` raises ``ValueError``."""
    if len(lists) != len(truth.sizes):
        raise ValueError(f"{len(lists)} lists for {len(truth.sizes)} queries")
    found = [(np.empty(0, np.int64), np.empty(0, np.int64))]
    for lo in range(0, len(lists), _PASS):
        block = lists[lo:lo + _PASS]
        lengths = np.fromiter(map(len, block), dtype=np.int64, count=len(block))
        keys = np.concatenate([np.empty(0, np.int64), *block])
        _check_ids(keys, truth.stride, "list")
        keys += np.repeat(np.arange(lo, lo + len(block), dtype=np.int64) * truth.stride, lengths)
        at = np.minimum(np.searchsorted(truth.keys, keys), len(truth.keys) - 1)
        hit = np.flatnonzero(truth.keys[at] == keys)
        query = keys[hit] // truth.stride
        found.append((query, hit - (np.cumsum(lengths) - lengths)[query - lo]))
    return tuple(map(np.concatenate, zip(*found)))


@functools.lru_cache
def _tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``score_query`` terms at ``m``: the discount
    ``1.0 / math.log2(pos + 2)`` of each position below ``m``, and
    ``_idcg(n)`` for each n up to ``m``."""
    discounts = np.array([1.0 / math.log2(pos + 2) for pos in range(m)])
    idcgs = np.array([_idcg(n) for n in range(m + 1)])
    for a in (discounts, idcgs):
        a.flags.writeable = False
    return discounts, idcgs


def score_hits(hits: tuple[np.ndarray, np.ndarray], truth: ChunkTruth, m: int) -> np.ndarray:
    """``score_query`` at ``m`` of every query of ``truth``, bit for bit,
    as a ``(queries x 3)`` array, from ``find_hits`` of lists whose first
    ``m`` entries are the lists scored: the hits at a position below ``m``.

    Each query's discounts go in its row of a zero matrix in hit order,
    and ``np.cumsum`` along the row adds them from 0.0 in that order, as
    ``score_query``'s loop does; a trailing 0.0 keeps the bits."""
    query, position = hits
    keep = position < m
    query, position = query[keep], position[keep]
    counts = np.bincount(query, minlength=len(truth.sizes))
    out = np.zeros((len(truth.sizes), 3))
    out[:, 0] = counts / truth.sizes
    if not len(query):
        return out
    first = np.flatnonzero(np.diff(query, prepend=-1))
    rows = query[first]
    row = np.repeat(np.arange(len(rows)), counts[rows])
    discounts, idcgs = _tables(m)
    dcg = np.zeros((len(rows), int(counts.max())))
    dcg[row, np.arange(len(query)) - first[row]] = discounts[position]
    out[rows, 1] = 1.0 / (position[first] + 1)
    out[rows, 2] = np.cumsum(dcg, axis=1)[:, -1] / idcgs[np.minimum(truth.sizes[rows], m)]
    return out


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
    ``per_query`` holds each query's ``(recall, mrr, ndcg)``, a ``(queries
    x 3)`` array or a list of triples; ``chunks`` holds each query's chunk
    id, in ``per_query``'s order.

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
