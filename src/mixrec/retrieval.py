"""Top-M candidate generation from per-chunk indexes: the interest mixture
and three baselines.

Every retriever has one contract,

    fn(u, index, cfg, seen=None, chunk=-1) -> CandidateList

where ``index`` is built from the source chunk before any query, ``seen``
is None or the user's seen item ids in ascending order, and ``chunk`` is
the target chunk the list is recorded under. ``seen`` is an ``int64``
array, as the backtest's seen items hold it, or anything
``np.ascontiguousarray(seen, dtype=np.int64)`` takes: nothing sorts it,
ids that are not ascending raise ``ValueError`` and a set ``TypeError``.
Each index is complete when built, from inputs its builder takes. The
index per method:

- ``micro`` and ``mle``: ``build_index(tables, L, pool, ranking)``, an
  ``InterestIndex`` of one ``ChunkTables``' per-interest top-L lists
  restricted to ``pool`` (one per chunk and L). Both methods are one
  mixture, p(i|u) = sum over k of theta_uk * phi_ki, and ``ChunkTables``
  is its one table type: ``micro`` reads ``chunk_tables(m)`` of the fitted
  source chunk model (one per chunk), whose weights are the users'
  alpha-smoothed combined counts normalised over each support; ``mle``
  reads ``mle_mixture(init)``, the t=0 counts with ``beta = Ibeta = 0``
  and weights p(k|u), so phi_ki = n_ik / n_k and no interest has a floor
  run.
- ``ann``: ``ann_encode_items(slice_, emb, ranking, warm)``, an ``AnnIndex``
  of the pool's engagement-averaged item vectors, their norms, the user
  vectors, the popularity ranking and which users are ``warm``.
- ``popularity``: ``popularity_ranking(slice_)``, a ``Ranking`` of the
  pool by engagement count, its items and their scores. A ``Ranking`` is
  the one ranking form: an index made with, and ``popularity_retrieve``
  called with, anything else raises ``TypeError``.

One cold-user rule holds for every method: the list of a user without
train history (a cold user) is the first M unseen items of the source
chunk's popularity ranking, which every index holds. Under the mixtures
such a user has no interests, and the mixture kernel walks the ranking in
the same call; under ``ann`` the user is not ``warm``.

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
Only a list whose smoothed floor beta / (Ibeta + n_k) is positive has a
floor run: every pool item without a count under an interest has that same
probability there, so it is stored once per interest, not once per item
(SparseLDA's smoothing-only bucket, Yao, Mimno and McCallum, KDD 2009).

Every retriever ends in one selection: the first M candidates by (score
descending, item id ascending) that are not seen. It runs in the compiled
kernels of ``sweep_kernel`` when ``load_kernel()`` builds them, one C call
per query. Each index binds its kernel arguments once, when it is made:
an ``InterestIndex``, an ``AnnIndex`` and a ``Ranking`` each hold their
arrays read-only and contiguous, and a C struct (``_c``) of their lengths
and addresses. A query passes that struct and only what is its own: the
user (``mixture``) or the numpy ``item_vecs @ uv`` product and the user
vector's norm (``cosine``), the seen ids and their count, the list's
capacity and one new buffer, into which the kernel writes the list's ids
and then its scores' bits (``_listed``). ``mixture`` reads the user's row
itself and either sums the user's interest lists into their pool positions
and keeps the best M or, for a user without interests, walks the index's
popularity ranking; ``cosine`` keeps the best M of the ANN cosines; and
``walk`` takes the first M unseen entries of a ranking with their scores
(popularity, and ``ann``'s cold users). A view of the backtest's seen
items, a contiguous writable ``int64`` array, is passed as it is, like
the buffer and the product, so no query copies an array or reads a
read-only array's address. ``mixture`` sums every term only at the
positions the user's lists count; the positions that only floor runs
reach rank by position, so it sums only the first M unseen of them.
``mixture`` and ``cosine`` drop seen ids first, then keep the best M with
a key threshold, a partition and one sort; ``walk`` looks up each entry
it passes. The scores keep the bits of the numpy path. A ``seen`` array
that is not ascending raises ``ValueError`` on both paths.

The numpy path is their reference, and the fallback when no compiler is
there, chosen exactly as the Gibbs sweep is: it adds each of the user's
interests in turn, its counted entries and then its floor run, into the
pool's sums; ``_select_top`` ranks a scored array with a full
``lexsort``; and ``_first_unseen`` keeps the first M entries of a ranked
array that one ``searchsorted`` mask does not mark seen. Both paths
return the selection's own arrays (on the compiled path, the two halves
of its one buffer) as a ``CandidateList``'s ``ids`` and ``scores``, from
which its ``items`` pairs are derived on request.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .embeddings import EmbeddingTable, gather_sum
from .graph import ChunkSlice, _freeze, _freeze_fields
from .initialization import InitArtifact
from .sampler import ChunkModel
from .sweep_kernel import AnnStruct, InterestStruct, RankingStruct, arg as _arg, load_kernel

__all__ = [
    "RetrievalConfig",
    "CandidateList",
    "Ranking",
    "InterestIndex",
    "AnnIndex",
    "ChunkTables",
    "chunk_tables",
    "mle_mixture",
    "build_index",
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


def _addresses(obj, **dtypes) -> dict[str, int]:
    """Store each named array of the frozen dataclass ``obj`` as a
    read-only contiguous array of its dtype and return their data
    addresses by name, which stay valid while ``obj`` holds the arrays. An
    array that already is one is stored as it is, so its holder can no
    longer write it either."""
    for name, dtype in dtypes.items():
        object.__setattr__(obj, name, _freeze(np.ascontiguousarray(getattr(obj, name), dtype=dtype)))
    return {name: getattr(obj, name).ctypes.data for name in dtypes}


def _ascending(a: np.ndarray) -> bool:
    return bool(np.all(a[1:] > a[:-1]))


def _check(ok: bool, what: str, of: str = "index") -> None:
    """Reject an index the kernels cannot take: arrays they would read out
    of bounds, or values their selection relies on; or tables an index
    cannot be built from."""
    if not ok:
        raise ValueError(f"inconsistent {of}: {what}")


@dataclass(frozen=True, eq=False)
class Ranking:
    """A ranked item array, ``items`` (``int64``), with its aligned
    ``scores`` (``float64``), both read-only. A chunk's
    ``popularity_ranking`` is one, and every index holds its pool's."""

    items: np.ndarray
    scores: np.ndarray
    # the kernels' ranking_t of the two arrays
    _c: RankingStruct = field(init=False, repr=False)

    def __post_init__(self):
        c = _addresses(self, items=np.int64, scores=np.float64)
        _check(self.items.ndim == self.scores.ndim == 1 and len(self.items) == len(self.scores),
               "one score per ranked item", "ranking")
        object.__setattr__(self, "_c", RankingStruct(len(self.items), **c))


def _check_ranking(r) -> None:
    """Refuse anything but a ``Ranking``, an (items, scores) pair among them."""
    if r.__class__ is not Ranking:
        raise TypeError(f"a ranking must be a Ranking, not {r.__class__.__name__}")


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
    ``popularity_ranking``, a ``Ranking``, the list of every such user. Its
    arrays are read-only.
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
    popularity: Ranking
    # the kernels' interest_index_t of the arrays above
    _c: InterestStruct = field(init=False, repr=False, compare=False)
    # the longest list a query gets: the pool's length, or the ranking's for a user without interests
    _longest: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K = len(self.ptr) - 1
        _check_ranking(self.popularity)
        c = _addresses(
            self, pool_items=np.int64, ptr=np.int64, positions=np.int64, probs=np.float64, floor=np.float64,
            fend=np.int64, user_ptr=np.int64, user_k=np.int64, user_w=np.float64,
        )
        n = len(self.pool_items)
        object.__setattr__(self, "_longest", max(n, len(self.popularity.items)))
        object.__setattr__(self, "_c", InterestStruct(
            n, c["pool_items"], c["ptr"], c["positions"], c["probs"], c["floor"], c["fend"],
            c["user_ptr"], c["user_k"], c["user_w"], ctypes.pointer(self.popularity._c),
        ))
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


@dataclass(frozen=True)
class ChunkTables:
    """One mixture's tables, what ``build_index`` reads at every L and pool:
    p(i|k) = (beta + count) / (Ibeta + n_k) and each user's interest
    weights.

    Interest k's items with a count are ``items[kptr[k]:kptr[k+1]]``, with
    aligned ``counts``, by (count desc, item asc); ``nk`` holds the
    interest totals n_k. User u's interests are
    ``user_k[user_ptr[u]:user_ptr[u+1]]`` with aligned weights ``user_w``.
    Checked when it is made, which also makes its arrays read-only: a
    ``kptr`` that does not run over ``items``, a group out of order, a
    count that is not > 0, an interest that lists an item without a
    positive total, or a negative or non-finite ``beta`` or ``Ibeta``
    raises ``ValueError``.
    """

    items: np.ndarray
    counts: np.ndarray
    kptr: np.ndarray
    nk: np.ndarray
    beta: float
    Ibeta: float
    user_ptr: np.ndarray
    user_k: np.ndarray
    user_w: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, "items", "counts", "kptr", "nk", "user_ptr", "user_k", "user_w")
        kptr, items, counts = self.kptr, self.items, self.counts
        _check(len(kptr) >= 1 and kptr[0] == 0 and kptr[-1] == len(items) and len(counts) == len(items)
               and bool(np.all(kptr[1:] >= kptr[:-1])), "kptr must run from 0 to len(items) and len(counts)", "tables")
        _check(len(self.nk) == len(kptr) - 1, "nk needs one entry per interest", "tables")
        ks = np.repeat(np.arange(len(self.nk)), np.diff(kptr))
        _check(bool(np.all(np.isfinite(counts) & (counts > 0))), "counts must be finite and > 0", "tables")
        _check(bool(np.all(self.nk[ks] > 0)), "an interest with a count needs a total nk > 0", "tables")
        before = (counts[1:] < counts[:-1]) | ((counts[1:] == counts[:-1]) & (items[1:] > items[:-1]))
        _check(bool(np.all(before | (ks[1:] != ks[:-1]))), "each group must be by (count desc, item asc)", "tables")
        for name in ("beta", "Ibeta"):
            v = getattr(self, name)
            _check(bool(np.isfinite(v) and v >= 0), f"{name} must be finite and >= 0, got {v!r}", "tables")


def chunk_tables(m: ChunkModel) -> ChunkTables:
    """The fitted model's ``ChunkTables``, computed once for all M: its
    item-interest counts and totals, its priors and ``ChunkModel.user_weights``."""
    items, ks, counts = m.item_table()
    order = np.lexsort((items, -counts, ks))
    kptr = np.concatenate([[0], np.cumsum(np.bincount(ks, minlength=m.K))])
    return ChunkTables(items[order], counts[order], kptr, m.n_kt, m.beta, m.Ibeta, *m.user_weights())


def mle_mixture(init: InitArtifact) -> ChunkTables:
    """The static mixture: the t=0 counts as ``ChunkTables`` with ``beta =
    Ibeta = 0``, so p(i|k) = N_ik0/N_k0, and weights p(k|u) = N_uk0/N_u0
    over the artifact's support CSR; the totals are exact float64 sums of
    integer counts. An interest without a count lists nothing."""
    U, K = init.num_users, init.num_interests
    users = np.repeat(np.arange(U), np.diff(init.support_ptr))
    p_ku = init.support_n0 / np.bincount(users, weights=init.support_n0, minlength=U)[users]
    engaged = np.flatnonzero(init.item_n0 > 0)
    ks, counts = init.item_interest[engaged], init.item_n0[engaged]
    order = np.lexsort((engaged, -counts, ks))
    nk = np.bincount(ks, weights=counts, minlength=K).astype(np.int64)
    kptr = np.concatenate([[0], np.cumsum(np.bincount(ks, minlength=K))])
    return ChunkTables(engaged[order], counts[order], kptr, nk, 0.0, 0.0, init.support_ptr, init.support_k, p_ku)


def build_index(
    tables: ChunkTables, L: int, pool: np.ndarray, ranking: Ranking
) -> InterestIndex:
    """Per-interest top-L lists of (beta + count) / (Ibeta + n_k) over ``pool``.

    Interest k's counted entries are its top L items by (count desc, item
    asc), then restricted to ``pool``, the ascending item ids of the source
    chunk (``ChunkSlice.item_pool``), in that order: truncating first means
    a pool never promotes an item from below an interest's top L, and a
    chunk's own tables list only its pool's items. Where the smoothed floor
    beta / (Ibeta + n_k) is positive, the pool items without a count under
    k share it and fill the rest of k's list up to L (or to the pool size)
    in ascending id order, so they are stored as that value and the end
    ``fend[k]`` of the run of pool positions they take; at ``beta = 0``
    and under an interest without a count there is no run. ``ranking`` is
    the pool's ``popularity_ranking``, the cold-user fallback. One
    ``tables`` serves every L.
    """
    kptr, n = tables.kptr, len(pool)
    K = len(kptr) - 1
    ks = np.repeat(np.arange(K), np.diff(kptr))
    top = np.arange(len(ks)) - kptr[ks] < L
    positions, found = _lookup(pool, tables.items[top])
    ks, positions, counts = ks[top][found], positions[found], tables.counts[top][found]
    total = tables.Ibeta + tables.nk.astype(np.float64)
    floor = np.divide(tables.beta, total, out=np.zeros(K), where=tables.nk > 0)
    size = np.bincount(ks, minlength=K)
    ptr = np.concatenate([[0], np.cumsum(size)])
    run = np.where(floor > 0, min(L, n) - size, 0)  # the floor run's length
    # with interest k's members at ascending positions q_0 < q_1 < ..., the
    # run's last position lies above exactly the members with q_i - i < run
    q = np.sort(positions + n * ks) - n * ks
    fend = run + np.bincount(ks[q - (np.arange(len(ks)) - ptr[ks]) < run[ks]], minlength=K)
    return InterestIndex(
        ptr=ptr,
        positions=positions,
        probs=(tables.beta + counts.astype(np.float64)) / total[ks],
        pool_items=pool,
        user_ptr=tables.user_ptr,
        user_k=tables.user_k,
        user_w=tables.user_w,
        floor=floor,
        fend=fend,
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
    arrays += [idx.popularity.items, idx.popularity.scores]
    return [(x.dtype, x.shape, x.tobytes()) for x in arrays]


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


def _listed(fn, index, cap: int, seen, user: int, chunk: int, *args) -> CandidateList:
    """The list that one kernel call ``fn(index, *args, seen, len(seen),
    cap, out)`` writes: at most ``cap`` ranked candidates, their count
    returned, with their ids in ``out[:cap]`` and their scores' bits in
    ``out[cap:]``; a negative count raises.

    A view of the backtest's seen items, a contiguous ``int64`` array,
    goes to the kernel as it is; any other ``seen`` as a contiguous copy.
    """
    if seen is None:
        seen = _NO_SEEN
    elif seen.__class__ is not np.ndarray or seen.dtype != _INT64 or not seen.flags.c_contiguous:
        seen = np.ascontiguousarray(seen, dtype=np.int64)
    out = np.empty(2 * cap, np.int64)
    got = fn(index, *args, _arg(seen), len(seen), cap, _arg(out))
    if got == -3:
        raise ValueError(_NOT_ASCENDING)
    if got < 0:
        raise MemoryError("top-M selection could not allocate its work space")
    return CandidateList(user, chunk, out[:got], out[cap:cap + got].view(_FLOAT64))


def _select_top(items: np.ndarray, scores: np.ndarray, M: int, seen, user: int, chunk: int) -> CandidateList:
    """Order by (score desc, item asc), drop seen items, keep the first M."""
    order = np.lexsort((items, -scores))
    return _first_unseen(items[order], scores[order], M, seen, user, chunk)


def _first_unseen(items: np.ndarray, scores: np.ndarray, M: int, seen, user: int, chunk: int) -> CandidateList:
    """The first M ranked ``items``, with their ``scores``, not in
    ``seen``: the numpy reference of the kernels' ``walk``."""
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


def _popular(ranking: Ranking, M: int, seen, user: int, chunk: int) -> CandidateList:
    """The first M entries of ``ranking`` not in ``seen``: one ``walk``
    call, or ``_first_unseen`` without the kernels."""
    kernel = load_kernel()
    if kernel is not None:
        return _listed(kernel.walk, ranking._c, min(M, len(ranking.items)), seen, user, chunk)
    return _first_unseen(ranking.items, ranking.scores, M, seen, user, chunk)


def retrieve_mixture(
    u: int, idx: InterestIndex, cfg: RetrievalConfig, seen=None, chunk: int = -1
) -> CandidateList:
    """Top M by the mixture sum over k of ``theta[k] * prob`` across the
    lists of the user's interests ``ks``, user u's row of ``idx.user_k``
    (and ``idx.user_w``); with no interests, the cold-user fallback. The
    kernel reads the row and takes the fallback itself, in one call.

    Each item sums its per-interest terms in the order of ``ks``, one term
    per interest whose list holds it, from 0.0: the kernel adds them in
    that order, as the numpy path adds each interest's weighted
    probabilities, then its weighted floor on the run positions its list
    does not count, into their pool positions. Only items some term
    touched are candidates.
    """
    users = len(idx.user_ptr) - 1
    if not 0 <= u < users:  # a negative id would read another row
        raise IndexError(f"user {u} outside [0, {users})")
    seen = seen if cfg.exclude_seen else None
    kernel = load_kernel()
    if kernel is not None:
        return _listed(kernel.mixture, idx._c, min(cfg.M, idx._longest), seen, u, chunk, u)
    lo, hi = idx.user_ptr[u:u + 2].tolist()
    if hi == lo:
        return _popular(idx.popularity, cfg.M, seen, u, chunk)
    n = len(idx.pool_items)
    acc, touched = np.zeros(n), np.zeros(n, dtype=bool)
    for k, w in zip(idx.user_k[lo:hi].tolist(), idx.user_w[lo:hi].tolist()):
        a, b, fend = *idx.ptr[k:k + 2].tolist(), int(idx.fend[k])
        pos = idx.positions[a:b]
        acc[pos] += w * idx.probs[a:b]
        run = np.ones(fend, dtype=bool)
        run[pos[pos < fend]] = False  # a counted position is not in the run
        acc[:fend][run] += w * idx.floor[k]
        touched[pos] = touched[:fend] = True
    cand = np.flatnonzero(touched)
    return _select_top(idx.pool_items[cand], acc[cand], cfg.M, seen, u, chunk)


@dataclass(frozen=True)
class AnnIndex:
    """Chunk item vectors over the ascending ``pool_items``, their norms,
    the user vectors they are compared with, the pool's ``popularity``
    ``Ranking`` and ``warm``, whether each user has a train engagement;
    all read-only. The vectors are stored as contiguous ``float64``, so
    their products are the kernel's input as they are."""

    pool_items: np.ndarray
    item_vecs: np.ndarray
    norms: np.ndarray
    user_vectors: np.ndarray
    popularity: Ranking
    warm: np.ndarray
    # the kernels' ann_index_t of pool_items and norms
    _c: AnnStruct = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_ranking(self.popularity)
        c = _addresses(self, pool_items=np.int64, norms=np.float64, item_vecs=np.float64, user_vectors=np.float64)
        object.__setattr__(self, "_c", AnnStruct(len(self.pool_items), c["pool_items"], c["norms"]))
        _freeze_fields(self, "warm")
        _check(len(self.item_vecs) == len(self.norms) == len(self.pool_items), "one vector and norm per pool item")
        _check(_ascending(self.pool_items), "pool_items must be strictly ascending")
        _check(len(self.warm) == len(self.user_vectors), "one warm flag per user vector")


def ann_encode_items(
    slice_: ChunkSlice, emb: EmbeddingTable, ranking: Ranking, warm: np.ndarray
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
        return _popular(idx.popularity, cfg.M, seen, u, chunk)
    # numpy's BLAS product in both paths: C would sum in another order; a
    # new contiguous float64 array, so the kernel takes it as it is
    dots = idx.item_vecs @ uv
    kernel = load_kernel()
    if kernel is not None:
        return _listed(kernel.cosine, idx._c, min(cfg.M, len(idx.pool_items)), seen, u, chunk, _arg(dots), un)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where(idx.norms > 0.0, dots / (idx.norms * un), -np.inf)
    return _select_top(idx.pool_items, cos, cfg.M, seen, u, chunk)


def popularity_ranking(slice_: ChunkSlice) -> Ranking:
    """Chunk items by engagement count desc, ties by ascending item id; the
    counts are the items' ``float64`` scores."""
    items, counts = slice_.item_pool, slice_.item_counts
    order = np.lexsort((items, -counts))
    return Ranking(items[order], counts[order].astype(np.float64))


def popularity_retrieve(
    u: int, ranking: Ranking, cfg: RetrievalConfig, seen=None, chunk: int = -1
) -> CandidateList:
    """Global top-M of the chunk's ``popularity_ranking``; identical for
    all users up to exclusion. A ``ranking`` that is no ``Ranking`` raises
    ``TypeError``."""
    _check_ranking(ranking)
    return _popular(ranking, cfg.M, seen if cfg.exclude_seen else None, u, chunk)


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
