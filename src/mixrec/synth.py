"""Synthetic temporal engagement graphs with known latent truth.

Forward-samples the engine's own generative story: one sparse interest
mixture per user, fresh per-chunk item distributions per interest, then per
engagement an interest from the user mixture and an item from that
interest's chunk distribution. Items come in one contiguous block per
interest and each interest draws only from its own block, giving
well-separated interests, so the truth is per item: its owning interest and,
per chunk, its probability under that interest. Returns the graph plus every
latent draw, so inference can be scored for exact assignment recovery and
mixture error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import EngagementGraph, IdMap
from .initialization import InitArtifact
from .sampler import ChunkModel

__all__ = [
    "SynthSpec",
    "SynthTruth",
    "generate",
    "init_from_truth",
    "RecoveryReport",
    "exact_match_fraction",
    "score_recovery",
]

# prior counts per user that init_from_truth spreads over the true mixture
_PSEUDO_COUNT = 20


@dataclass(frozen=True)
class SynthSpec:
    num_users: int
    num_items: int
    num_interests: int
    num_chunks: int
    engagements_per_user: int
    support_size: int = 2
    theta_concentration: float = 1.0
    phi_concentration: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.num_users, self.num_items, self.num_interests, self.num_chunks) < 1:
            raise ValueError("all counts must be >= 1")
        if self.engagements_per_user < 1:
            raise ValueError("engagements_per_user must be >= 1")
        if not (1 <= self.support_size <= self.num_interests):
            raise ValueError("support_size must lie in [1, num_interests]")
        if self.num_items < self.num_interests:
            raise ValueError("each interest needs at least one item of its own")


@dataclass
class SynthTruth:
    theta: np.ndarray  # U x K
    supports: list[np.ndarray]
    phi: np.ndarray  # T x I: item i's probability under item_block[i] in chunk t
    z: list[np.ndarray]  # per chunk, canonical slice order
    item_block: np.ndarray  # item -> owning interest


def generate(spec: SynthSpec) -> tuple[EngagementGraph, SynthTruth]:
    """Exact forward sampling of the generative story.

    Edges are emitted per chunk with users ascending, so per-chunk latent
    interests align positionally with ChunkSlice's canonical order. Interest
    k owns the contiguous item range ``bounds[k]:bounds[k + 1]``.
    """
    rng = np.random.default_rng(spec.seed)
    U, I, K, T = spec.num_users, spec.num_items, spec.num_interests, spec.num_chunks
    N = spec.engagements_per_user

    supports = []
    theta = np.zeros((U, K))
    for u in range(U):
        sup = np.sort(rng.choice(K, size=spec.support_size, replace=False))
        w = rng.dirichlet(np.full(spec.support_size, spec.theta_concentration))
        theta[u, sup] = w
        supports.append(sup)

    bounds = np.linspace(0, I, K + 1).astype(np.int64)
    item_block = np.repeat(np.arange(K), np.diff(bounds))
    phi = np.empty((T, I))
    for t in range(T):
        for k in range(K):
            phi[t, bounds[k]:bounds[k + 1]] = rng.dirichlet(
                np.full(bounds[k + 1] - bounds[k], spec.phi_concentration)
            )

    users_all, items_all, chunks_all = [], [], []
    z_per_chunk: list[np.ndarray] = []
    for t in range(T):
        z_chunk = np.empty(U * N, dtype=np.int64)
        items_chunk = np.empty(U * N, dtype=np.int64)
        pos = 0
        for u in range(U):
            sup = supports[u]
            zs = rng.choice(sup, size=N, p=theta[u, sup])
            its = np.empty(N, dtype=np.int64)
            for k in np.unique(zs):
                mask = zs == k
                lo, hi = bounds[k], bounds[k + 1]
                its[mask] = lo + rng.choice(hi - lo, size=int(mask.sum()), p=phi[t, lo:hi])
            z_chunk[pos:pos + N] = zs
            items_chunk[pos:pos + N] = its
            pos += N
        users_all.append(np.repeat(np.arange(U), N))
        items_all.append(items_chunk)
        chunks_all.append(np.full(U * N, t, dtype=np.int64))
        z_per_chunk.append(z_chunk)

    g = EngagementGraph(
        users=np.concatenate(users_all),
        items=np.concatenate(items_all),
        chunks=np.concatenate(chunks_all),
        num_users=U,
        num_items=I,
        num_chunks=T,
        user_ids=IdMap(np.arange(U)),
        item_ids=IdMap(np.arange(I)),
    )
    truth = SynthTruth(
        theta=theta, supports=supports, phi=phi, z=z_per_chunk, item_block=item_block
    )
    return g, truth


def init_from_truth(
    truth: SynthTruth,
    num_items: int,
    alpha: float = 0.1,
    beta: float = 0.01,
) -> InitArtifact:
    """t=0 artifact whose prior supports are the true ones.

    User counts are round(theta * 20) on the support, clamped to at least 1
    so the support invariant holds exactly; items map to their blocks.
    """
    U, K = truth.theta.shape
    sizes = np.asarray([len(s) for s in truth.supports], dtype=np.int64)
    users = np.repeat(np.arange(U), sizes)
    support_k = np.concatenate(truth.supports).astype(np.int64)
    support_n0 = np.maximum(
        np.rint(truth.theta[users, support_k] * _PSEUDO_COUNT), 1
    ).astype(np.int64)
    return InitArtifact(
        num_users=U,
        num_items=num_items,
        num_interests=K,
        alpha=float(alpha),
        beta=float(beta),
        support_ptr=np.concatenate([[0], np.cumsum(sizes)]),
        support_k=support_k,
        support_n0=support_n0,
        item_interest=truth.item_block.copy(),
        item_n0=np.zeros(num_items, dtype=np.int64),
    )


@dataclass
class RecoveryReport:
    per_chunk_exact: dict[int, float] = field(default_factory=dict)
    per_chunk_mean_tv: dict[int, float] = field(default_factory=dict)
    overall_exact: float = 0.0

    def worst_exact(self) -> float:
        return min(self.per_chunk_exact.values()) if self.per_chunk_exact else 0.0

    def worst_tv(self) -> float:
        return max(self.per_chunk_mean_tv.values()) if self.per_chunk_mean_tv else 1.0


def exact_match_fraction(truth_z: np.ndarray, fitted_z: np.ndarray) -> float:
    truth_z = np.asarray(truth_z)
    fitted_z = np.asarray(fitted_z)
    if truth_z.shape != fitted_z.shape:
        raise ValueError("assignment vectors disagree on shape")
    return float((truth_z == fitted_z).mean())


def _theta_tv(model: ChunkModel, truth: SynthTruth) -> float:
    """Mean over users of total variation between the model's smoothed
    mixture and the true mixture."""
    U, K = truth.theta.shape
    ptr, ks, theta = model.user_weights()
    est = np.zeros((U, K))
    est[np.repeat(np.arange(U), np.diff(ptr)), ks] = theta
    return float((0.5 * np.abs(est - truth.theta).sum(axis=1)).mean())


def score_recovery(truth: SynthTruth, models: dict[int, ChunkModel]) -> RecoveryReport:
    """Exact z-recovery per chunk plus mean per-user mixture TV distance.

    Fits are anchored to the true supports, so raw labels are scored.
    """
    report = RecoveryReport()
    total = 0.0
    n = 0
    for chunk in sorted(models):
        model = models[chunk]
        tz = truth.z[chunk]
        fz = model.z
        if len(tz) != len(fz):
            raise ValueError(f"chunk {chunk}: truth and fit disagree on size")
        frac = exact_match_fraction(tz, fz)
        report.per_chunk_exact[chunk] = frac
        report.per_chunk_mean_tv[chunk] = _theta_tv(model, truth)
        total += frac * len(tz)
        n += len(tz)
    report.overall_exact = total / n if n else 0.0
    return report
