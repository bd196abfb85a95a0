"""t=0 initialization artifact: interest-anchored count tables and priors.

Every train engagement inherits the interest of its item's cluster, which
yields counting estimators for the user/interest/item tables and the sparse
per-user prior support (the interests a user touched at t=0). The artifact is
the handoff between the embedding/clustering stage and the per-chunk sampler,
and also feeds the static mixture retriever. It stores no totals, which
``mixrec.retrieval.mle_mixture`` sums from the counts.

``save_init`` and ``load_init`` write and read the artifact field by field
(``mixrec.npz.write_fields``), its sizes and priors as 0-d members; the
artifact checks what it reads, and an ``init.npz`` in an earlier layout,
with a ``version`` member, is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import EngagementGraph, _freeze_fields
from .npz import read_fields, write_fields

__all__ = ["InitArtifact", "build_init", "save_init", "load_init"]


@dataclass(frozen=True)
class InitArtifact:
    """Sparse t=0 count tables, prior supports, and prior masses.

    User-interest counts are CSR-like: user u's support interests are
    ``support_k[support_ptr[u]:support_ptr[u+1]]`` (sorted ascending) with
    aligned counts in ``support_n0``. Item-interest counts at t=0 are
    degenerate by construction (each item's engagements all carry its own
    cluster's interest), so they are stored as ``item_n0`` plus
    ``item_interest``. Checked when it is made: a prior, length, count,
    interest or support order the sampler cannot take raises ``ValueError``
    naming it. Its arrays are then read-only.
    """

    num_users: int
    num_items: int
    num_interests: int
    alpha: float
    beta: float
    support_ptr: np.ndarray
    support_k: np.ndarray
    support_n0: np.ndarray
    item_interest: np.ndarray
    item_n0: np.ndarray

    def support(self, user: int) -> np.ndarray:
        """Interests with positive t=0 count for ``user`` (sorted). Empty for cold users."""
        return self.support_k[self.support_ptr[user]:self.support_ptr[user + 1]]

    def support_counts(self, user: int) -> np.ndarray:
        return self.support_n0[self.support_ptr[user]:self.support_ptr[user + 1]]

    def is_cold(self, user: int) -> bool:
        return self.support_ptr[user] == self.support_ptr[user + 1]

    def __post_init__(self):
        _freeze_fields(self, "support_ptr", "support_k", "support_n0", "item_interest", "item_n0")
        _check_priors(self.alpha, self.beta)
        U, I, K = self.num_users, self.num_items, self.num_interests
        ptr = self.support_ptr
        if len(ptr) != U + 1 or ptr[0] != 0 or ptr[-1] != len(self.support_k):
            raise ValueError(f"support_ptr must have {U + 1} entries running from 0 to len(support_k)")
        if np.any(ptr[1:] < ptr[:-1]):
            raise ValueError("support_ptr must not decrease")
        for name, n in (("support_n0", len(self.support_k)), ("item_interest", I), ("item_n0", I)):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have {n} entries, got {len(getattr(self, name))}")
        if np.any(self.support_n0 <= 0):
            raise ValueError("support counts must be positive (support = interests with N>0)")
        for name in ("support_k", "item_interest"):
            v = getattr(self, name)
            if len(v) and (v.min() < 0 or v.max() >= K):
                raise ValueError(f"{name} must lie in [0, {K})")
        users = np.repeat(np.arange(len(self.support_ptr) - 1), np.diff(self.support_ptr))
        if np.any(np.diff(users * K + self.support_k) <= 0):
            raise ValueError("per-user supports must be strictly ascending")


def _check_priors(alpha: float, beta: float) -> None:
    """Priors must be finite and at least the smallest normal float: NaN
    passes any ``<= 0`` test, and ``gammaln`` of a subnormal is inf, which
    turns the log-joint into NaN."""
    for name, v in (("alpha", alpha), ("beta", beta)):
        if not (np.isfinite(v) and v >= np.finfo(float).tiny):
            raise ValueError(f"{name} must be finite and >= {np.finfo(float).tiny}, got {v!r}")


class InconsistentClusterError(ValueError):
    """A train item is missing from the cluster map."""


def build_init(
    train: EngagementGraph,
    item_interest: np.ndarray,
    num_interests: int,
    alpha: float = 0.1,
    beta: float = 0.01,
) -> InitArtifact:
    """Assign every train engagement its item's interest and count everything.

    ``item_interest`` maps dense item id -> interest id and must cover every
    item appearing in ``train``.
    """
    item_interest = np.asarray(item_interest, dtype=np.int64)
    if len(item_interest) < train.num_items:
        raise InconsistentClusterError(
            f"cluster map covers {len(item_interest)} items, graph has {train.num_items}"
        )
    if train.num_edges:
        z0 = item_interest[train.items]
        if z0.min() < 0 or z0.max() >= num_interests:
            raise InconsistentClusterError("train item maps to an out-of-range interest")
    else:
        z0 = np.empty(0, dtype=np.int64)

    U, K = train.num_users, num_interests
    item_n0 = np.bincount(train.items, minlength=train.num_items).astype(np.int64)

    # sparse user x interest counts via unique (user, interest) keys
    keys = train.users * K + z0
    uniq, counts = np.unique(keys, return_counts=True)
    pair_users = (uniq // K).astype(np.int64)
    pair_ks = (uniq % K).astype(np.int64)
    support_ptr = np.concatenate(
        [[0], np.cumsum(np.bincount(pair_users, minlength=U))]
    ).astype(np.int64)

    return InitArtifact(
        num_users=U,
        num_items=train.num_items,
        num_interests=K,
        alpha=float(alpha),
        beta=float(beta),
        support_ptr=support_ptr,
        support_k=pair_ks,
        support_n0=counts.astype(np.int64),
        item_interest=item_interest[: train.num_items].copy(),
        item_n0=item_n0,
    )


save_init = write_fields
load_init = partial(read_fields, InitArtifact)
