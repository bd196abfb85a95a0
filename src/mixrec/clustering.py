"""Spherical k-means over item embedding directions.

Items are normalized to the unit sphere and grouped by cosine similarity:
assignment to the argmax-cosine centroid, centroid update as the normalized
mean of member directions. Seeding is k-means++ on cosine distance; an empty
cluster is repaired by stealing the point farthest (lowest cosine) from its
current centroid, which keeps the objective monotone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .embeddings import gather_sum
from .graph import _freeze_fields, _tuple_field
from .npz import read_fields, write_fields, write_text

__all__ = ["ClusterAssignment", "cluster_items", "save_clusters", "load_clusters", "export_cluster_map"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClusterAssignment:
    """Each item's interest, the K unit centroids and the objective per
    iteration. Checked when it is made: a centroid off unit norm or an
    interest outside [0, K) raises ``ValueError``. The arrays are then
    read-only and the history a tuple."""

    item_to_interest: np.ndarray
    centroids: np.ndarray
    objective_history: tuple[float, ...] = ()

    @property
    def num_interests(self) -> int:
        return self.centroids.shape[0]

    def __post_init__(self):
        _freeze_fields(self, "item_to_interest", "centroids")
        _tuple_field(self, "objective_history", float)
        norms = np.linalg.norm(self.centroids, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("centroids must be unit norm")
        K = self.num_interests
        if np.any(self.item_to_interest < 0) or np.any(self.item_to_interest >= K):
            raise ValueError("item assignment outside [0, K)")


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=1)
    ok = norms > 0
    unit = np.zeros_like(x, dtype=np.float64)
    unit[ok] = x[ok] / norms[ok, None]
    return unit, ok


def _plusplus_seed(unit: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ on cosine distance 1 - x.c over unit vectors."""
    n = len(unit)
    centers = np.empty((K, unit.shape[1]), dtype=np.float64)
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centers[0] = unit[first]
    chosen[first] = True
    d = 1.0 - unit @ centers[0]
    np.clip(d, 0.0, None, out=d)
    for k in range(1, K):
        w = np.where(chosen, 0.0, d)
        tot = w.sum()
        if tot <= 0:
            # all remaining points coincide with chosen centers
            pool = np.flatnonzero(~chosen)
            nxt = int(pool[rng.integers(len(pool))]) if len(pool) else int(rng.integers(n))
        else:
            nxt = int(np.searchsorted(np.cumsum(w), rng.random() * tot))
            nxt = min(nxt, n - 1)
        centers[k] = unit[nxt]
        chosen[nxt] = True
        d = np.minimum(d, np.clip(1.0 - unit @ centers[k], 0.0, None))
    return centers


def cluster_items(
    item_vectors: np.ndarray,
    K: int,
    iters: int = 25,
    seed: int = 0,
) -> ClusterAssignment:
    """Group item vectors into K interests by direction.

    The cosine objective (sum over items of cos to their centroid) is
    non-decreasing across iterations; iteration stops early once assignments
    are stable. Zero-norm items cannot be placed by cosine and fall into
    interest 0 with a logged warning.
    """
    item_vectors = np.asarray(item_vectors, dtype=np.float64)
    n = len(item_vectors)
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > n:
        raise ValueError(f"K={K} exceeds item count {n}")
    unit, ok = _normalize_rows(item_vectors)
    n_zero = int((~ok).sum())
    if n_zero:
        logger.warning("%d zero-norm item vectors assigned to interest 0", n_zero)
    live = np.flatnonzero(ok)
    if len(live) == 0:
        raise ValueError("all item vectors are zero; nothing to cluster")
    x = unit[live]

    rng = np.random.default_rng(seed)
    if K > len(live):
        raise ValueError(f"K={K} exceeds count of nonzero item vectors {len(live)}")
    centroids = _plusplus_seed(x, K, rng)

    assign = np.full(len(live), -1, dtype=np.int64)
    history: list[float] = []
    block = max(1, 8_000_000 // max(K, 1))  # cap the similarity buffer
    for it in range(iters):
        new_assign = np.empty(len(live), dtype=np.int64)
        member_cos = np.empty(len(live))
        for lo in range(0, len(live), block):
            sims = x[lo:lo + block] @ centroids.T
            idx = np.argmax(sims, axis=1)
            new_assign[lo:lo + block] = idx
            member_cos[lo:lo + block] = sims[np.arange(len(idx)), idx]

        sums = gather_sum(new_assign, x, K)
        counts = np.bincount(new_assign, minlength=K)
        empty = list(np.flatnonzero(counts == 0))
        while empty:
            k = int(empty.pop())
            # steal the worst-fitting point from a cluster that can spare one
            donors = np.flatnonzero(counts[new_assign] >= 2)
            if len(donors) == 0:
                break
            worst = int(donors[np.argmin(member_cos[donors])])
            old = new_assign[worst]
            sums[old] -= x[worst]
            counts[old] -= 1
            new_assign[worst] = k
            sums[k] = x[worst]
            counts[k] = 1
            member_cos[worst] = 1.0

        norms = np.linalg.norm(sums, axis=1)
        nz = norms > 1e-12
        centroids[nz] = sums[nz] / norms[nz, None]
        # a cluster whose members cancel exactly keeps its previous centroid

        objective = float((x * centroids[new_assign]).sum(axis=1).sum())
        history.append(objective)
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign

    item_to_interest = np.zeros(n, dtype=np.int64)
    item_to_interest[live] = assign
    return ClusterAssignment(
        item_to_interest=item_to_interest,
        centroids=centroids,
        objective_history=history,
    )


def export_cluster_map(cluster: ClusterAssignment, path) -> None:
    """Write the item -> interest map as `item\tinterest` lines."""
    write_text(path, "".join(f"{i}\t{k}\n" for i, k in enumerate(cluster.item_to_interest.tolist())))


save_clusters = write_fields
load_clusters = partial(read_fields, ClusterAssignment)
