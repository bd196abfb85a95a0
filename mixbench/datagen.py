"""Sparse, seeded planted-interest engagement data for the benchmark.

Every user mixes a few planted interests (item blocks) with Dirichlet
weights; every item belongs to one block and has a Zipf popularity inside
it that drifts from chunk to chunk as a log-normal random walk. Some items
are first available in a test chunk, and some users first engage in a test
chunk. Nothing is dense over (chunk, interest, item): items are drawn per
(chunk, block) by inverse CDF over that block's members, so memory is
O(items x chunks + engagements).

The population (item blocks, popularity and its drift, new items, user
mixtures, when cold users start) comes from the spec's fixed
``world_seed``; the run's seed draws the traffic (who is active, how many
engagements, which interest and item each one takes). Runs with different
seeds thus sample the same population, so quality moves with the program,
not with a re-drawn world.

Ids are relabelled to 0..n-1 over the ids that occur, so the dense ids the
loader assigns equal the raw ids written here; the benchmark's candidate
checks rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GenSpec:
    users: int  # users active from the first chunk
    cold_users: int  # users whose first engagement is in a test chunk
    items: int
    blocks: int  # planted interests; items are split among them at random
    support: int  # planted interests per user
    train_chunks: int
    test_chunks: int
    train_rate: float  # mean engagements per active user per train chunk
    test_rate: float  # mean engagements per active user per test chunk
    activity: float  # chance that a started user is active in a chunk
    new_item_share: float  # share of items first available in a test chunk
    drift: float  # std of the per-chunk step of an item's log popularity
    zipf: float  # popularity exponent over an item's rank in its block
    concentration: float = 0.5  # Dirichlet concentration of user mixtures
    world_seed: int = 0  # draws the population; the run's seed draws the traffic


@dataclass
class Edges:
    users: np.ndarray
    items: np.ndarray
    chunks: np.ndarray
    item_block: np.ndarray  # planted interest of each item
    train_chunks: int

    def write(self, path) -> None:
        """Write ``user<TAB>item<TAB>chunk`` lines, the loader's format."""
        with open(path, "w") as fh:
            np.savetxt(fh, np.column_stack([self.users, self.items, self.chunks]), fmt="%d", delimiter="\t")

    def properties(self) -> dict:
        """Measured traffic properties that set the cost of each layer."""
        train = self.chunks < self.train_chunks
        test = ~train
        warm = np.zeros(self.users.max() + 1, dtype=bool)
        warm[self.users[train]] = True
        old_item = np.zeros(self.items.max() + 1, dtype=bool)
        old_item[self.items[train]] = True
        warm_users = max(int(warm.sum()), 1)
        user_blocks = np.unique(self.users[train] * (self.item_block.max() + 1) + self.item_block[self.items[train]])
        return {
            "edges": int(len(self.users)),
            "train_edges": int(train.sum()),
            "test_edges": int(test.sum()),
            "users": int(len(warm)),
            "items": int(len(old_item)),
            "queries": self.query_count(),
            "cold_engagement_share": float((~warm[self.users[test]]).mean()),
            "new_item_share": float((~old_item[self.items[test]]).mean()),
            "mean_train_history": float(train.sum() / warm_users),
            "mean_support": len(user_blocks) / warm_users,  # planted interests a warm user engaged in train
        }

    def query_count(self) -> int:
        """Distinct (user, chunk) pairs in every test chunk but the first,
        which is only fitted: the query count the backtest must report."""
        later = self.chunks > self.train_chunks
        return int(len(np.unique(self.users[later] * (self.chunks.max() + 1) + self.chunks[later])))


def generate(spec: GenSpec, seed: int | tuple[int, ...]) -> Edges:
    world = np.random.default_rng(spec.world_seed)
    rng = np.random.default_rng(seed)
    T = spec.train_chunks + spec.test_chunks
    U = spec.users + spec.cold_users
    I, B = spec.items, spec.blocks

    block_of = world.permutation(I) % B
    members_of = [np.flatnonzero(block_of == b) for b in range(B)]
    rank = np.empty(I)
    for members in members_of:
        rank[members] = world.permutation(len(members))
    birth = np.zeros(I, dtype=np.int64)
    new = (world.random(I) < spec.new_item_share) & (rank > 0)  # every block keeps a live item
    birth[new] = world.integers(spec.train_chunks, T, size=int(new.sum()))
    log_pop = -spec.zipf * np.log1p(rank)
    steps = world.normal(0.0, spec.drift, size=(T, I))
    steps[0] = 0.0
    log_pop_t = log_pop[None, :] + np.cumsum(steps, axis=0)  # T x I

    supports = np.argpartition(world.random((U, B)), spec.support - 1, axis=1)[:, : spec.support]
    theta = world.gamma(spec.concentration, size=(U, spec.support)) + 1e-12
    cum_theta = np.cumsum(theta / theta.sum(axis=1, keepdims=True), axis=1)
    start = np.zeros(U, dtype=np.int64)
    start[spec.users:] = world.integers(spec.train_chunks + 1, T, size=spec.cold_users)

    users_out, items_out, chunks_out = [], [], []
    for t in range(T):
        rate = spec.train_rate if t < spec.train_chunks else spec.test_rate
        active = (start <= t) & ((rng.random(U) < spec.activity) | (start == t))
        act = np.flatnonzero(active)
        n = 1 + rng.poisson(rate - 1.0, size=len(act))
        eng_user = np.repeat(act, n)
        slot = (rng.random(len(eng_user))[:, None] > cum_theta[eng_user]).sum(axis=1)
        slot = np.minimum(slot, spec.support - 1)
        eng_block = supports[eng_user, slot]
        eng_item = np.empty(len(eng_user), dtype=np.int64)
        for b in range(B):
            rows = np.flatnonzero(eng_block == b)
            if not len(rows):
                continue
            members = members_of[b]
            w = np.where(birth[members] <= t, np.exp(log_pop_t[t, members]), 0.0)
            cdf = np.cumsum(w)
            eng_item[rows] = members[np.searchsorted(cdf, rng.random(len(rows)) * cdf[-1], side="right")]
        users_out.append(eng_user)
        items_out.append(eng_item)
        chunks_out.append(np.full(len(eng_user), t, dtype=np.int64))

    users = np.concatenate(users_out)
    items = np.concatenate(items_out)
    chunks = np.concatenate(chunks_out)
    _, users = np.unique(users, return_inverse=True)
    used, items = np.unique(items, return_inverse=True)
    return Edges(
        users=users.astype(np.int64),
        items=items.astype(np.int64),
        chunks=chunks,
        item_block=block_of[used],
        train_chunks=spec.train_chunks,
    )
