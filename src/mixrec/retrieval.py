"""Top-M candidate generation from per-chunk indexes: the interest mixture
and three baselines.

Every retriever has one contract,

    fn(u, index, cfg, seen=None, chunk=-1) -> CandidateList

where ``index`` is built from the source chunk before any query, ``seen``
is None or the user's seen item ids in ascending order, and ``chunk`` is
the target chunk the list is recorded under. ``seen`` is an ``int64``
array, as the backtest's seen tracker keeps it, or anything
``np.ascontiguousarray(seen, dtype=np.int64)`` takes: nothing sorts it,
ids that are not ascending raise ``ValueError`` and a set ``TypeError``.
Each index is complete when built, from inputs its builder takes. The
index per method:

- ``micro``: ``build_index(m, L, ranking, tables)``, an ``InterestIndex``
  of the fitted chunk model's per-interest top-L lists (one per chunk and
  L) from its ``chunk_tables`` (one per chunk); the users' interest weights
  are ``ChunkModel.user_weights``, the alpha-smoothed combined counts
  normalised over each support.
- ``mle``: ``build_mle_index(mix, L, pool, ranking)``, an
  ``InterestIndex`` of the t=0 tables' top-L lists restricted to the
  source chunk's pool (one per chunk and L); the weights are
  ``MleMixture.p_k_given_u``.
- ``ann``: ``ann_encode_items(slice_, emb, ranking, warm)``, an ``AnnIndex``
  of the pool's engagement-averaged item vectors, their norms, the user
  vectors, the popularity ranking and which users are ``warm``.
- ``popularity``: ``popularity_ranking(slice_)``, the pool by engagement
  count.

One cold-user rule holds for every method: the list of a user without
train history (a cold user) is the first M unseen items of the source
chunk's popularity ranking, which every index holds. Under the mixtures
such a user has no interests; under ``ann`` the user is not ``warm``.

Only the mixtures' indexes take a list length L, which the backtest sets
to 5*M, so they depend on M through L alone; ``ann`` and ``popularity``
indexes serve every M. On one index the list at M is the first M entries
of the list at any larger M, ids and score bits alike: every selection
below is a strict order over scores, and seen ids, that do not depend on
M. Two indexes whose arrays are equal bit for bit (``same_index``) are one
index: an interest that lists fewer pool items than either L gives the
same list at both. The backtest relies on this to retrieve once per
distinct index, at the largest M it serves, and cut each list to the
smaller ones.

Both mixtures are one retriever, ``retrieve_mixture``: an ``InterestIndex``
holds each interest's list over an ascending candidate pool as its counted
entries (pool positions and probabilities) plus one run of pool positions
that all carry the interest's smoothed floor value, every user's
(interests, weights) as one CSR over users, read in place by each query,
and the pool's popularity ranking (the builders' ``ranking``), the list
of a user without interests.
Only the micro lists have floor runs: every pool item without a count under
an interest has the same smoothed probability there, so it is stored once
per interest, not once per item (SparseLDA's smoothing-only bucket, Yao,
Mimno and McCallum, KDD 2009).

Every retriever ends in one selection: the first M candidates by (score
descending, item id ascending) that are not seen. It runs in the compiled
kernels of ``sweep_kernel`` when ``load_kernel()`` builds them, one C call
per query, each writing its list's ids and scores into one buffer:
``mixture`` sums a user's interest lists into their pool positions and
keeps the best M, ``cosine`` does the same for the ANN cosines of a numpy
``item_vecs @ uv`` product, and ``walk`` takes the first M unseen entries
of a ranked array with their scores (popularity and the cold-user
fallback). A seen tracker's view, already a contiguous ``int64`` array, is
passed to them as it is. ``mixture`` sums every term only at the positions
the user's lists count; the positions that only floor runs reach rank by
position, so it sums only the first M unseen of them. ``mixture`` and
``cosine`` drop seen ids first, then keep the best M with a key threshold,
a partition and one sort; ``walk`` looks up each entry it passes. The
scores keep the bits of the numpy path. A ``seen`` array that is not
ascending raises ``ValueError`` on both paths.

The numpy path is their reference, and the fallback when no compiler is
there, chosen exactly as the Gibbs sweep is: it expands the floor runs of
the user's interests and ``np.bincount`` builds the mixture sums,
``_select_top`` ranks a scored array with a full ``lexsort``, and
``_first_unseen`` keeps the first M entries of a ranked array that one
``searchsorted`` mask does not mark seen. Both paths return the
selection's own arrays (on the compiled path, the two halves of its one
buffer) as a ``CandidateList``'s ``ids`` and ``scores``, from which its
``items`` pairs are derived on request.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingTable, gather_sum
from .graph import ChunkSlice
from .initialization import MleMixture
from .sampler import ChunkModel, _ranges
from .sweep_kernel import arg as _arg, load_kernel

__all__ = [
    "RetrievalConfig",
    "CandidateList",
    "InterestIndex",
    "AnnIndex",
    "ChunkTables",
    "chunk_tables",
    "build_index",
    "build_mle_index",
    "same_index",
    "retrieve_mixture",
    "ann_encode_items",
    "ann_retrieve",
    "popularity_ranking",
    "popularity_retrieve",
    "batch_retrieve",
]


@dataclass(frozen=True)
class RetrievalConfig:
    """What every retriever reads: the list length and seen exclusion."""

    M: int = 100
    exclude_seen: bool = True

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")


@dataclass(eq=False, slots=True)
class CandidateList:
    """Ranked candidates for one (user, target chunk) query: item ``ids``
    (``int64``) and their ``scores`` (``float64``), best first. They may
    be views of an index's ranking or of a longer list, so callers only
    read them."""

    user: int
    chunk: int
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    scores: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))

    @property
    def items(self) -> list[tuple[int, float]]:
        """The list as (item id, score) pairs of Python numbers."""
        return list(zip(self.ids.tolist(), self.scores.tolist()))

    def item_ids(self) -> list[int]:
        return self.ids.tolist()

    def __len__(self) -> int:
        return len(self.ids)


def _addresses(obj, **dtypes) -> tuple[int, ...]:
    """Store each named array of the frozen dataclass ``obj`` as a
    contiguous array of its dtype and return their data addresses, which
    stay valid while ``obj`` holds the arrays."""
    for name, dtype in dtypes.items():
        object.__setattr__(obj, name, np.ascontiguousarray(getattr(obj, name), dtype=dtype))
    return tuple(getattr(obj, name).ctypes.data for name in dtypes)


def _ascending(a: np.ndarray) -> bool:
    return bool(np.all(a[1:] > a[:-1]))


def _check(ok: bool, what: str) -> None:
    """Reject an index the kernels cannot take: arrays they would read out
    of bounds, or values their selection relies on."""
    if not ok:
        raise ValueError(f"inconsistent index: {what}")


@dataclass(frozen=True)
class InterestIndex:
    """Per-interest truncated top lists over one candidate pool.

    Interest k's counted entries are positions into the ascending
    ``pool_items`` (``positions[ptr[k]:ptr[k+1]]`` with aligned
    probabilities ``probs``), in list order: probability descending, ties
    by ascending item id. Its floor run is every other pool position below
    ``fend[k]``, each with probability ``floor[k]``; it follows the counted
    entries in list order, ascending, and ``fend[k] = 0`` is no run.
    User u's interests are ``user_k[user_ptr[u]:user_ptr[u+1]]`` with
    aligned weights ``user_w``, in summation order; the row is empty for a
    user without interests. ``popularity`` is the pool's
    ``popularity_ranking``, the list of every such user.
    """

    ptr: np.ndarray
    positions: np.ndarray
    probs: np.ndarray
    pool_items: np.ndarray
    user_ptr: np.ndarray
    user_k: np.ndarray
    user_w: np.ndarray
    floor: np.ndarray
    fend: np.ndarray
    popularity: tuple[np.ndarray, np.ndarray]
    # data addresses of ptr, positions, probs, floor, fend, pool_items, user_k and user_w for the kernel
    _c: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # user_ptr as Python ints, so a query reads its row bounds without numpy scalars
    _rows: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K = len(self.ptr) - 1
        object.__setattr__(self, "user_ptr", np.asarray(self.user_ptr, dtype=np.int64))
        object.__setattr__(self, "_rows", self.user_ptr.tolist())
        object.__setattr__(self, "_c", _addresses(
            self, ptr=np.int64, positions=np.int64, probs=np.float64, floor=np.float64, fend=np.int64,
            pool_items=np.int64, user_k=np.int64, user_w=np.float64,
        ))
        n = len(self.pool_items)
        for ptr, rows, bound in (("ptr", "positions", n), ("user_ptr", "user_k", K)):
            p, v = getattr(self, ptr), getattr(self, rows)
            _check(len(p) >= 1 and p[0] == 0 and p[-1] == len(v), f"{ptr} must run from 0 to len({rows})")
            _check(bool(np.all(p[1:] >= p[:-1])), f"{ptr} must not decrease")
            _check(not len(v) or (v.min() >= 0 and v.max() < bound), f"{rows} outside [0, {bound})")
        _check(len(self.probs) == len(self.positions), "probs and positions differ in length")
        _check(len(self.user_w) == len(self.user_k), "user_w and user_k differ in length")
        _check(len(self.floor) == len(self.fend) == K, "floor and fend need one entry per interest")
        _check(not K or (self.fend.min() >= 0 and self.fend.max() <= n), f"fend outside [0, {n}]")
        # the kernel's floor-only positions rank by position only when no term is negative
        for name in ("user_w", "floor"):
            v = getattr(self, name)
            _check(bool(np.all(np.isfinite(v) & (v >= 0))), f"{name} must be finite and >= 0")
        _check(_ascending(self.pool_items), "pool_items must be strictly ascending")


class ChunkTables(NamedTuple):
    """What ``build_index`` reads of a fitted chunk model at every M: the
    nonzero item-interest ``counts`` and their items' ``positions`` in the
    pool, grouped by interest (group k is ``[kptr[k], kptr[k+1])``), each
    group by (count desc, item asc), and ``ChunkModel.user_weights``."""

    positions: np.ndarray
    counts: np.ndarray
    kptr: np.ndarray
    weights: tuple[np.ndarray, np.ndarray, np.ndarray]


def chunk_tables(m: ChunkModel) -> ChunkTables:
    """The fitted model's ``ChunkTables``, computed once for all M."""
    items, ks, counts = m.item_table()
    order = np.lexsort((items, -counts, ks))
    kptr = np.concatenate([[0], np.cumsum(np.bincount(ks, minlength=m.K))])
    positions = np.searchsorted(m.item_pool, items[order])
    return ChunkTables(positions, counts[order], kptr, m.user_weights())


def build_index(
    m: ChunkModel, L: int, ranking: tuple[np.ndarray, np.ndarray], tables: ChunkTables
) -> InterestIndex:
    """Build per-interest top-L lists of (beta + count) / (I*beta + total).

    Interest k's counted entries are its top L pool items by (count desc,
    item asc). The pool items without a count under k share the smoothed
    floor value beta / (I*beta + n_k) and fill the rest of its list up to L
    (or to the pool size) in ascending id order, so they are stored as that
    value and the end ``fend[k]`` of the run of pool positions they take.
    An interest without a count has no list. Items with no engagements in
    the chunk are excluded everywhere. ``ranking`` is the chunk's
    ``popularity_ranking``, the cold-user fallback, and ``tables`` its
    ``chunk_tables(m)``; both serve every M.
    """
    K, n = m.K, len(m.item_pool)
    nk = m.n_kt
    total = m.Ibeta + nk.astype(np.float64)
    positions, counts, kptr, (user_ptr, user_k, user_w) = tables
    ks = np.repeat(np.arange(K), np.diff(kptr))
    top = np.arange(len(ks)) - kptr[ks] < L
    ks, positions = ks[top], positions[top]
    probs = (m.beta + counts[top].astype(np.float64)) / total[ks]
    size = np.bincount(ks, minlength=K)
    ptr = np.concatenate([[0], np.cumsum(size)])
    run = np.where(nk > 0, min(L, n) - size, 0)  # the floor run's length
    # with interest k's members at ascending positions q_0 < q_1 < ..., the
    # run's last position lies above exactly the members with q_i - i < run
    q = np.sort(positions + n * ks) - n * ks
    fend = run + np.bincount(ks[q - (np.arange(len(ks)) - ptr[ks]) < run[ks]], minlength=K)
    return InterestIndex(
        ptr=ptr,
        positions=positions,
        probs=probs,
        pool_items=m.item_pool,
        user_ptr=user_ptr,
        user_k=user_k,
        user_w=user_w,
        floor=np.where(nk > 0, m.beta / total, 0.0),
        fend=fend,
        popularity=ranking,
    )


def build_mle_index(
    mix: MleMixture, L: int, pool: np.ndarray, ranking: tuple[np.ndarray, np.ndarray]
) -> InterestIndex:
    """Each interest's top L train items by p(i|k) (ties by ascending id),
    then restricted to ``pool`` in that order; no interest has a floor run.

    ``pool`` holds ascending item ids, the source chunk's
    ``ChunkSlice.item_pool``, so backtests compare methods over identical
    pools. Truncating before restricting means a pool never promotes an
    item from below an interest's top L. ``ranking`` is the pool's
    ``popularity_ranking``, the cold-user fallback.
    """
    K = len(mix.interest_ptr) - 1
    ks = np.repeat(np.arange(K), np.diff(mix.interest_ptr))
    # each interest lists its items by (p(i|k) desc, id) already
    top = np.arange(len(ks)) - mix.interest_ptr[ks] < L
    items, probs, ks = mix.items[top], mix.p_i_given_k[top], ks[top]
    pos, found = _lookup(pool, items)
    return InterestIndex(
        ptr=np.concatenate([[0], np.cumsum(np.bincount(ks[found], minlength=K))]).astype(np.int64),
        positions=pos[found],
        probs=probs[found],
        pool_items=pool,
        user_ptr=mix.support_ptr,
        user_k=mix.support_k,
        user_w=mix.p_k_given_u,
        floor=np.zeros(K),
        fend=np.zeros(K, np.int64),
        popularity=ranking,
    )


def same_index(a, b) -> bool:
    """Whether two indexes are one: the same object, or two ``InterestIndex``
    whose arrays, popularity fallback included, are equal bit for bit. A
    retriever then gives the same list on both at every M."""
    if a is b:
        return True
    return isinstance(a, InterestIndex) and isinstance(b, InterestIndex) and _bits(a) == _bits(b)


def _bits(idx: InterestIndex) -> list:
    """Each array of ``idx`` as its dtype, shape and bytes."""
    arrays = [getattr(idx, f.name) for f in fields(idx) if f.init and f.name != "popularity"]
    return [(x.dtype, x.shape, x.tobytes()) for x in arrays + list(idx.popularity)]


def _lookup(sorted_ids: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``items`` in the ascending array ``sorted_ids`` and
    whether each item is present there."""
    pos = np.searchsorted(sorted_ids, items)
    if len(sorted_ids) == 0:
        return pos, np.zeros(len(items), dtype=bool)
    return pos, sorted_ids[np.minimum(pos, len(sorted_ids) - 1)] == items


_NO_SEEN = np.empty(0, dtype=np.int64)
_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)
_NOT_ASCENDING = "seen item ids must be ascending"


def _kernel_count(got: int) -> int:
    """The count a kernel selection returned, or its error raised."""
    if got == -3:
        raise ValueError(_NOT_ASCENDING)
    if got < 0:
        raise MemoryError("top-M selection could not allocate its work space")
    return got


def _kernel_top(fn, user: int, chunk: int, cap: int, seen, *args) -> CandidateList:
    """The list a kernel selection ``fn(*args, seen, len(seen), cap, out)``
    writes: at most ``cap`` ranked candidates, their count returned, with
    their ids in ``out[:cap]`` and their scores' bits in ``out[cap:]``.

    A seen tracker's view, a contiguous ``int64`` array, goes to the kernel
    as it is; any other ``seen`` as a contiguous ``int64`` copy.
    """
    if seen is None:
        seen = _NO_SEEN
    elif seen.__class__ is not np.ndarray or seen.dtype != _INT64 or not seen.flags.c_contiguous:
        seen = np.ascontiguousarray(seen, dtype=np.int64)
    out = np.empty(2 * cap, np.int64)
    got = _kernel_count(fn(*args, _arg(seen), len(seen), cap, _arg(out)))
    return CandidateList(user, chunk, out[:got], out[cap:cap + got].view(_FLOAT64))


def _select_top(items: np.ndarray, scores: np.ndarray, M: int, seen, user: int, chunk: int) -> CandidateList:
    """Order by (score desc, item asc), drop seen items, keep the first M."""
    order = np.lexsort((items, -scores))
    return _first_unseen((items[order], scores[order]), M, seen, user, chunk)


def _first_unseen(ranking, M: int, seen, user: int, chunk: int) -> CandidateList:
    """The first M entries of a ranked (items, scores) pair not in ``seen``."""
    items, scores = ranking
    kernel = load_kernel()
    if seen is not None and kernel is not None:
        items = np.ascontiguousarray(items, dtype=np.int64)
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        return _kernel_top(kernel.walk, user, chunk, min(M, len(items)), seen, len(items), _arg(items), _arg(scores))
    if seen is not None:
        seen = np.ascontiguousarray(seen, dtype=np.int64)
        if np.any(seen[1:] < seen[:-1]):
            raise ValueError(_NOT_ASCENDING)
        # at most len(seen) entries are masked, so the answer lies in this head
        head = M + len(seen)
        items, scores = items[:head], scores[:head]
        keep = ~_lookup(seen, items)[1]
        items, scores = items[keep], scores[keep]
    return CandidateList(user, chunk, items[:M].astype(np.int64, copy=False), scores[:M].astype(np.float64, copy=False))


def retrieve_mixture(
    u: int, idx: InterestIndex, cfg: RetrievalConfig, seen=None, chunk: int = -1
) -> CandidateList:
    """Top M by the mixture sum over k of ``theta[k] * prob`` across the
    lists of the user's interests ``ks``, user u's row of ``idx.user_k``
    (and ``idx.user_w``); with no interests, the cold-user fallback.

    Each item sums its per-interest terms in the order of ``ks``, one term
    per interest whose list holds it: the kernel adds them in that order,
    as ``bincount`` adds the weighted probabilities, laid out interest by
    interest, into their pool positions. Only items some term touched are
    candidates.
    """
    rows = idx._rows
    if not 0 <= u < len(rows) - 1:  # a negative id would read another row
        raise IndexError(f"user {u} outside [0, {len(rows) - 1})")
    seen = seen if cfg.exclude_seen else None
    lo, hi = rows[u], rows[u + 1]
    if hi == lo:
        return _first_unseen(idx.popularity, cfg.M, seen, u, chunk)
    kernel = load_kernel()
    n = len(idx.pool_items)
    if kernel is not None:
        ptr, positions, probs, floor, fend, pool, user_k, user_w = idx._c
        # the user's row starts 8 * lo bytes into user_k and user_w
        return _kernel_top(
            kernel.mixture, u, chunk, min(cfg.M, n), seen,
            hi - lo, user_k + 8 * lo, user_w + 8 * lo, ptr, positions, probs, floor, fend, n, pool,
        )
    ks, w = idx.user_k[lo:hi], idx.user_w[lo:hi]
    size, fend = idx.ptr[ks + 1] - idx.ptr[ks], idx.fend[ks]
    # slot a's terms are interest ks[a]'s counted entries, then its run
    # [0, fend), so bincount adds each position's terms in the order of ks
    stop = np.cumsum(size + fend)
    run0 = stop - fend
    pos, terms = np.empty(stop[-1], np.int64), np.empty(stop[-1])
    flat, counted, runs = _ranges(idx.ptr[ks], size), _ranges(run0 - size, size), _ranges(run0, fend)
    pos[counted], terms[counted] = idx.positions[flat], np.repeat(w, size) * idx.probs[flat]
    pos[runs], terms[runs] = _ranges(np.zeros_like(fend), fend), np.repeat(w * idx.floor[ks], fend)
    # a counted position below fend is not in the run
    slot = np.repeat(np.arange(len(ks)), size)
    inrun = pos[counted] < fend[slot]
    keep = np.ones(len(pos), dtype=bool)
    keep[run0[slot[inrun]] + pos[counted][inrun]] = False
    pos, terms = pos[keep], terms[keep]
    acc = np.bincount(pos, weights=terms, minlength=n)
    cand = np.flatnonzero(np.bincount(pos, minlength=n))
    return _select_top(idx.pool_items[cand], acc[cand], cfg.M, seen, u, chunk)


@dataclass(frozen=True)
class AnnIndex:
    """Chunk item vectors over the ascending ``pool_items``, their norms,
    the user vectors they are compared with, the pool's ``popularity``
    ranking and ``warm``, whether each user has a train engagement."""

    pool_items: np.ndarray
    item_vecs: np.ndarray
    norms: np.ndarray
    user_vectors: np.ndarray
    popularity: tuple[np.ndarray, np.ndarray]
    warm: np.ndarray
    # data addresses of pool_items and norms for the kernel
    _c: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_c", _addresses(self, pool_items=np.int64, norms=np.float64))
        _check(len(self.item_vecs) == len(self.norms) == len(self.pool_items), "one vector and norm per pool item")
        _check(_ascending(self.pool_items), "pool_items must be strictly ascending")
        _check(len(self.warm) == len(self.user_vectors), "one warm flag per user vector")


def ann_encode_items(
    slice_: ChunkSlice, emb: EmbeddingTable, ranking: tuple[np.ndarray, np.ndarray], warm: np.ndarray
) -> AnnIndex:
    """Chunk item vectors as per-engagement means of engaging users'
    vectors, with the chunk's ``popularity_ranking`` and ``warm`` users."""
    pool = slice_.item_pool
    vecs = gather_sum(slice_.item_rows, emb.user_vectors, len(pool), vidx=slice_.users) / slice_.item_counts[:, None]
    return AnnIndex(pool, vecs, np.linalg.norm(vecs, axis=1), emb.user_vectors, ranking, warm)


def ann_retrieve(
    u: int, idx: AnnIndex, cfg: RetrievalConfig, seen=None, chunk: int = -1
) -> CandidateList:
    """Exact top-M by cosine between the user vector and chunk item vectors.

    Zero-norm item vectors rank last (cosine undefined, scored -inf). A
    user who is not warm, or whose vector has zero norm, gets the first M
    unseen items of ``idx.popularity``.
    """
    if not 0 <= u < len(idx.user_vectors):
        raise IndexError(f"user {u} outside [0, {len(idx.user_vectors)})")
    seen = seen if cfg.exclude_seen else None
    uv = idx.user_vectors[u]
    # the bits of np.linalg.norm(uv), which is sqrt(uv.dot(uv)) for a real vector
    un = math.sqrt(uv @ uv)
    if not idx.warm[u] or un == 0.0:
        return _first_unseen(idx.popularity, cfg.M, seen, u, chunk)
    # numpy's BLAS product in both paths: C would sum in another order
    dots = idx.item_vecs @ uv
    kernel = load_kernel()
    if kernel is not None:
        dots = np.ascontiguousarray(dots, dtype=np.float64)
        pool, norms = idx._c
        n = len(idx.pool_items)
        return _kernel_top(kernel.cosine, u, chunk, min(cfg.M, n), seen, n, pool, _arg(dots), norms, un)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(idx.norms > 0.0, dots / (idx.norms * un), -np.inf)
    return _select_top(idx.pool_items, cos, cfg.M, seen, u, chunk)


def popularity_ranking(slice_: ChunkSlice) -> tuple[np.ndarray, np.ndarray]:
    """Chunk items by engagement count desc, ties by ascending item id; the
    counts are the items' ``float64`` scores."""
    items, counts = slice_.item_pool, slice_.item_counts
    order = np.lexsort((items, -counts))
    return items[order], counts[order].astype(np.float64)


def popularity_retrieve(
    u: int, ranking: tuple[np.ndarray, np.ndarray], cfg: RetrievalConfig, seen=None, chunk: int = -1
) -> CandidateList:
    """Global top-M of the chunk's ``popularity_ranking``; identical for
    all users up to exclusion."""
    return _first_unseen(ranking, cfg.M, seen if cfg.exclude_seen else None, u, chunk)


def batch_retrieve(fn, users, workers: int):
    """Map a retrieval closure over users on ``workers`` threads.

    ``fn(user)`` must be a pure read returning a CandidateList; results come
    back in input order regardless of ``workers``, which sets how the lists
    are computed, not what they are. Users are sharded into coarse blocks
    so per-task overhead stays negligible.
    """
    users = list(users)
    if workers <= 1 or len(users) < 2 * workers:
        return [fn(u) for u in users]
    shard_size = max(1, (len(users) + workers - 1) // workers)
    shards = [users[i:i + shard_size] for i in range(0, len(users), shard_size)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = pool.map(lambda shard: [fn(u) for u in shard], shards)
        return [c for block in results for c in block]
