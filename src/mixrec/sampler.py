"""Per-chunk collapsed Gibbs inference over latent engagement interests.

Each time chunk is fitted independently: latent interests are initialized
uniformly over each user's prior support, then resampled in fixed scan order
until the collapsed log-joint stabilizes. Item-side count tables start empty
every chunk; user-side counts start from the t=0 artifact, or from the
``UserCounts`` ledger passed as ``base``, a read-only value: ``fold_into``
returns the next one. The final sample's count tables are the point estimate
consumed by retrieval: ``item_table`` for the per-interest lists and
``user_weights`` for every user's interest weights at once, one CSR over
the t=0 supports. A fit's record, ``ChunkFit`` (the final assignments and
the per-sweep trace), is the chunk's artifact, written and read field by
field (``mixrec.npz``); reloading rebuilds the tables from it.

The resampling weight for engagement (u, i) and candidate interest k, with
the engagement removed from all tables, is

    (alpha_u(k) + N_uk) * (beta + N_ikt) / (I*beta + N_kt)

where alpha_u(k) is alpha on the user's support (or on every interest for
users with no t=0 history) and zero elsewhere. The log-joint is the matching
collapsed objective, normalized so an empty chunk scores exactly 0.

Count tables are flat ``int64`` arrays. Warm users' counts align with their
support (``_cand``/``_uk``). Item counts and cold users' counts are sorted
(interest, count) rows of fixed capacity: an item's row holds at most its
engagements in the chunk, a cold user's row at most their base entries plus
their chunk engagements. Memory is O(engagements + supports), never
items x K or users x K.

A sweep runs as a compiled C kernel (``sweep_kernel``) when the system
compiler can build it, else as ``ChunkModel._sweep_python``. The kernel is
a transcription of that Python sweep and reproduces its chains bit for bit:
both consume the same pre-drawn ``rng.random(n)`` uniforms, update the
sorted rows identically, evaluate warm weights as
``(alpha + n_uk) * (beta + n_ik) / (Ibeta + n_k)`` and cold weights as
``((beta + n_ik) / (Ibeta + n_k)) * (alpha + n_uk)``, take the cold pick as
a left ``searchsorted`` over a sequential prefix sum (as ``np.cumsum``
computes it), and add the libm ``log`` ratios of the changes in scan order.
The kernel reads a warm engagement's item counts from a dense K-long row
that it fills from the item's sorted row and clears again, and gives a cold
user's interests that neither row counts a cached ``(beta / (Ibeta + n_k))
* alpha``, refreshed at every change of ``n_k``: that is the cold weight
with both counts 0.0 (``beta + 0.0 == beta``, ``alpha + 0.0 == alpha``), so
each weight and sum keeps its bits. ``_sweep_compiled`` passes both K-long
scratch arrays, so the kernel allocates nothing.
Which sweep runs is logged once per process; there is no switch. A sweep in
which some resample fell back to uniform (every weight underflowed to 0), or
whose summed log ratio is not finite, recomputes the log-joint exactly.
"""

from __future__ import annotations

import ctypes
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graph import ChunkSlice, _freeze_fields, _tuple_field
from .initialization import InitArtifact
from .npz import read_fields, write_fields
from .sweep_kernel import arg, load_kernel

__all__ = [
    "SamplerConfig",
    "UserCounts",
    "ChunkModel",
    "ChunkFit",
    "fit_chunk",
    "save_chunk_model",
    "load_chunk_model",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SamplerConfig:
    """One chunk's sweep budget, tolerance and seed. User counts reset to
    t=0 unless the fit gets a ``UserCounts`` ledger as ``base``."""

    max_sweeps: int = 20
    convergence_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be >= 0")


@dataclass(frozen=True)
class UserCounts:
    """The user-interest counts a chunk's fit starts from, read-only: warm
    users' aligned with the init artifact's support CSR, other users' at
    ascending ``cold_keys = user * K + interest`` with positive
    ``cold_counts``. ``from_init`` gives the t=0 counts, and
    ``ChunkModel.fold_into`` the counts after a fitted chunk."""

    warm: np.ndarray
    cold_keys: np.ndarray
    cold_counts: np.ndarray

    def __post_init__(self):
        _freeze_fields(self, "warm", "cold_keys", "cold_counts")

    @staticmethod
    def from_init(init: InitArtifact) -> "UserCounts":
        return UserCounts(init.support_n0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class ChunkFit:
    """A chunk's fit, its artifact ``chunks/chunk_XXXXX.npz``: the final
    assignments ``z`` in slice order, the log-joint after each sweep and the
    assignments it changed, whether the stop rule fired and the uniform
    fallbacks. Checked when it is made: ``z`` is a read-only 1-d ``int64``
    array, and the traces are tuples of one length, one sweep or more."""

    chunk: int
    z: np.ndarray
    log_joint: tuple[float, ...]
    changed: tuple[int, ...]
    converged: bool
    underflow_events: int

    def __post_init__(self):
        _freeze_fields(self, "z")
        if self.z.ndim != 1 or self.z.dtype != np.int64:
            raise ValueError(f"z must be a 1-d int64 array, got a {self.z.ndim}-d {self.z.dtype} one")
        _tuple_field(self, "log_joint", float)
        _tuple_field(self, "changed", int)
        if not 1 <= len(self.log_joint) == len(self.changed):
            raise ValueError(f"{len(self.log_joint)} log-joints and {len(self.changed)} change counts; "
                             "a fit traces each of its sweeps, one or more")


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[r], starts[r] + lengths[r])`` over r."""
    firsts = np.cumsum(lengths) - lengths
    return np.repeat(starts - firsts, lengths) + np.arange(int(lengths.sum()), dtype=np.int64)


def _row_normalize(ptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each CSR row ``values[ptr[r]:ptr[r+1]]`` divided by its sum, with
    the bits of ``row / row.sum()``: rows of one length are summed together
    along the contiguous axis, which adds in the same pairwise order."""
    lens = np.diff(ptr)
    order = np.argsort(lens, kind="stable")
    out = np.empty_like(values)
    for rows in np.split(order, np.flatnonzero(np.diff(lens[order])) + 1):
        if len(rows) and lens[rows[0]]:
            cells = ptr[rows][:, None] + np.arange(lens[rows[0]])
            block = values[cells]
            out[cells] = block / block.sum(axis=1, keepdims=True)
    return out


def _pack_rows(cap_ptr: np.ndarray, rows: np.ndarray, ks: np.ndarray, counts: np.ndarray, K: int):
    """Lay (row, interest, count) entries out as sorted rows of capacity
    ``cap_ptr[r+1] - cap_ptr[r]``, summing repeated (row, interest) pairs.
    Returns the interest and count arrays and each row's fill."""
    uniq, inv = np.unique(rows * K + ks, return_inverse=True)
    summed = np.bincount(inv.ravel(), weights=counts, minlength=len(uniq)).astype(np.int64)
    r = uniq // K
    fill = np.bincount(r, minlength=len(cap_ptr) - 1).astype(np.int64)
    pos = cap_ptr[r] + np.arange(len(uniq)) - (np.cumsum(fill) - fill)[r]
    out_k = np.zeros(int(cap_ptr[-1]), dtype=np.int64)
    out_c = np.zeros(int(cap_ptr[-1]), dtype=np.int64)
    out_k[pos] = uniq % K
    out_c[pos] = summed
    return out_k, out_c, fill


def _row_get(ks, cs, lo: int, n: int, k: int):
    """Count of interest k in the sorted row ``ks[lo:lo+n]`` (0 if absent)."""
    q = bisect_left(ks, k, lo, lo + n)
    return cs[q] if q < lo + n and ks[q] == k else 0


def _row_add(ks, cs, fill, r: int, lo: int, k: int, delta: int) -> None:
    """Add ``delta`` to interest k of row r, which starts at ``lo`` and holds
    ``fill[r]`` entries: an entry that reaches 0 is dropped and a missing
    one inserted, so the row stays sorted and free of zeros."""
    n = fill[r]
    end = lo + n
    q = bisect_left(ks, k, lo, end)
    if q < end and ks[q] == k:
        c = cs[q] + delta
        if c:
            cs[q] = c
        else:
            ks[q:end - 1] = ks[q + 1:end]
            cs[q:end - 1] = cs[q + 1:end]
            fill[r] = n - 1
    else:
        ks[q + 1:end + 1] = ks[q:end]
        cs[q + 1:end + 1] = cs[q:end]
        ks[q] = k
        cs[q] = delta
        fill[r] = n + 1


def _log(w: float) -> float:
    """``math.log``, but log(0) = -inf as in C instead of an error."""
    return math.log(w) if w > 0.0 else -math.inf


def _gammaln(x) -> np.ndarray:
    """``scipy.special.gammaln(x)`` elementwise, with its bits, for x > 0.

    The kernel's ``gammaln`` (Cephes ``lgam``) computes it when
    ``load_kernel()`` builds it; scipy, imported only then, otherwise.
    An x that is not > 0 (NaN included) raises ``ValueError`` on both
    paths, since the kernel transcribes only that domain.
    """
    x = np.asarray(x, dtype=np.float64, order="C")
    kernel = load_kernel()
    if kernel is None:
        from scipy.special import gammaln

        if not np.all(x > 0):
            raise ValueError("log-gamma of a value that is not > 0")
        return gammaln(x)
    out = np.empty(x.shape)
    if kernel.gammaln(x.size, arg(x), arg(out)) < 0:
        raise ValueError("log-gamma of a value that is not > 0")
    return out


class ChunkModel:
    """Sampler state for one chunk: assignments plus sufficient statistics.

    Engagements follow the slice's canonical order (grouped by user); active
    user r owns engagements ``_ptr[r]:_ptr[r+1]``. Warm rows (``_offs[r] >=
    0``) keep combined user counts (base + this chunk) in ``_uk``, aligned
    with the support interests ``_cand``, and ``_zpos`` holds the support
    position of each engagement's interest. Cold rows (``_offs[r] == -1``)
    keep a sorted row in ``_ck``/``_cc`` (capacity ``_cptr``, fill
    ``_cfill``) and ``_zpos`` holds the interest itself. Item counts are one
    sorted row per chunk item (``_iptr``/``_ik``/``_ic``/``_ifill``, row
    ``_irow[j]`` for engagement j); ``_nk`` holds the interest totals.

    ``base`` is the ``UserCounts`` it starts from (t=0 if None), by reference.
    ``z`` gives the assignments; without it they are drawn uniformly over
    each user's candidates from ``rng`` (default: seeded by ``cfg.seed``).
    ``fit`` is the ``ChunkFit`` that ``fit_chunk`` or ``load_chunk_model``
    gave the model (else None); ``sweeps_run`` and ``converged`` read it.
    """

    def __init__(
        self,
        slice_: ChunkSlice,
        init: InitArtifact,
        cfg: SamplerConfig,
        base: UserCounts | None = None,
        rng: np.random.Generator | None = None,
        z: np.ndarray | None = None,
    ):
        self.chunk = slice_.chunk
        self.slice = slice_
        self.init = init
        K = self.K = init.num_interests
        self.alpha = init.alpha
        self.beta = init.beta
        self.Ibeta = init.num_items * init.beta
        self.underflow_events = 0
        self.fit: ChunkFit | None = None

        self.base = UserCounts.from_init(init) if base is None else base

        n = self.n = len(slice_)
        users = slice_.unique_users
        R = len(users)
        self._ptr = np.ascontiguousarray(slice_.user_ptr, dtype=np.int64)
        self._erow = np.repeat(np.arange(R, dtype=np.int64), np.diff(self._ptr))

        # warm rows: support slices packed flat
        lo = init.support_ptr[users]
        sizes = (init.support_ptr[users + 1] - lo).astype(np.int64)
        cold = sizes == 0
        self._offs = np.where(cold, -1, np.cumsum(sizes) - sizes).astype(np.int64)
        self._lens = np.where(cold, K, sizes).astype(np.int64)
        self._sup_idx = _ranges(lo, sizes)
        self._cand = np.ascontiguousarray(init.support_k[self._sup_idx], dtype=np.int64)
        self._uk_base = self.base.warm[self._sup_idx].astype(np.int64)

        # cold rows: base entries, then capacity for every chunk engagement
        blo, bhi = (np.searchsorted(self.base.cold_keys, (users[cold] + d) * K) for d in (0, 1))
        nbase = np.zeros(R, dtype=np.int64)
        nbase[cold] = bhi - blo
        self._cbptr = np.concatenate([[0], np.cumsum(nbase)]).astype(np.int64)
        cb = _ranges(blo, nbase[cold])
        self._cbk = self.base.cold_keys[cb] % K
        self._cbc = self.base.cold_counts[cb]
        ccap = np.where(cold, nbase + np.diff(self._ptr), 0)
        self._cptr = np.concatenate([[0], np.cumsum(ccap)]).astype(np.int64)

        # item rows: one per chunk item, capacity = its engagements
        self._irow = slice_.item_rows
        self._iptr = np.concatenate([[0], np.cumsum(slice_.item_counts)]).astype(np.int64)

        warm_e = ~cold[self._erow]
        if z is None:
            if rng is None:
                rng = np.random.default_rng(cfg.seed)
            zpos = rng.integers(0, np.maximum(self._lens[self._erow], 1)) if n else np.empty(0, np.int64)
            z = zpos.copy()
            z[warm_e] = self._cand[self._offs[self._erow[warm_e]] + zpos[warm_e]]
        else:
            z = np.asarray(z, dtype=np.int64)
            zpos = self._support_positions(z, warm_e)
        self._fill_tables(z, zpos, warm_e)
        self._lj = self.log_joint()

    # -- table construction -------------------------------------------------

    def _support_positions(self, z: np.ndarray, warm_e: np.ndarray) -> np.ndarray:
        """Per-engagement ``_zpos`` for given interests; rejects interests
        out of range or outside a warm user's support."""
        if z.shape != (self.n,):
            raise ValueError(f"{z.shape} assignments for {self.n} engagements")
        if self.n and (z.min() < 0 or z.max() >= self.K):
            raise ValueError("assignment outside the interest range")
        zpos = z.copy()
        # (row, interest) keys of the warm slots ascend, as each support does
        slot_row = np.repeat(np.arange(len(self._offs)), np.where(self._offs >= 0, self._lens, 0))
        keys = slot_row * self.K + self._cand
        rows = self._erow[warm_e]
        want = rows * self.K + z[warm_e]
        s = np.minimum(np.searchsorted(keys, want), max(len(keys) - 1, 0))
        if len(want) and np.any(keys[s] != want):
            raise ValueError("interest outside user support")
        zpos[warm_e] = s - self._offs[rows]
        return zpos

    def _fill_tables(self, z: np.ndarray, zpos: np.ndarray, warm_e: np.ndarray) -> None:
        """Build every count table from the assignments in one pass."""
        K = self.K
        self._zpos = zpos
        slots = self._offs[self._erow[warm_e]] + zpos[warm_e]
        self._uk = self._uk_base + np.bincount(slots, minlength=len(self._cand))
        self._nk = np.bincount(z, minlength=K).astype(np.int64)
        self._ik, self._ic, self._ifill = _pack_rows(
            self._iptr, self._irow, z, np.ones(self.n), K
        )
        cold_e = ~warm_e
        base_row = np.repeat(np.arange(len(self._offs)), np.diff(self._cbptr))
        self._ck, self._cc, self._cfill = _pack_rows(
            self._cptr,
            np.concatenate([base_row, self._erow[cold_e]]),
            np.concatenate([self._cbk, z[cold_e]]),
            np.concatenate([self._cbc, np.ones(int(cold_e.sum()), dtype=np.int64)]),
            K,
        )

    # -- table surgery ----------------------------------------------------

    def _row_index(self, user: int) -> int:
        r = int(np.searchsorted(self.slice.unique_users, user))
        if self.slice.unique_users[r:r + 1].tolist() != [user]:
            raise KeyError(f"user {user} has no engagements in chunk {self.chunk}")
        return r

    def remove(self, j: int) -> int:
        """Decrement engagement j from all tables; returns its interest."""
        r = int(np.searchsorted(self._ptr, j, side="right")) - 1
        if self._offs[r] < 0:
            k = int(self._zpos[j])
            _row_add(self._ck, self._cc, self._cfill, r, int(self._cptr[r]), k, -1)
        else:
            s = self._offs[r] + self._zpos[j]
            k = int(self._cand[s])
            self._uk[s] -= 1
        ir = int(self._irow[j])
        _row_add(self._ik, self._ic, self._ifill, ir, int(self._iptr[ir]), k, -1)
        self._nk[k] -= 1
        return k

    def assign(self, j: int, k: int) -> None:
        """Increment engagement j into all tables under interest k."""
        r = int(np.searchsorted(self._ptr, j, side="right")) - 1
        if self._offs[r] < 0:
            _row_add(self._ck, self._cc, self._cfill, r, int(self._cptr[r]), k, 1)
            self._zpos[j] = k
        else:
            off = self._offs[r]
            hit = np.flatnonzero(self._cand[off:off + self._lens[r]] == k)
            if not len(hit):
                raise ValueError(f"interest {k} outside user support")
            self._uk[off + hit[0]] += 1
            self._zpos[j] = hit[0]
        ir = int(self._irow[j])
        _row_add(self._ik, self._ic, self._ifill, ir, int(self._iptr[ir]), k, 1)
        self._nk[k] += 1

    # -- read-only views ---------------------------------------------------

    @property
    def z(self) -> np.ndarray:
        """Absolute interest per engagement, canonical slice order."""
        out = self._zpos.copy()
        warm_e = self._offs[self._erow] >= 0
        out[warm_e] = self._cand[self._offs[self._erow[warm_e]] + self._zpos[warm_e]]
        return out

    @property
    def n_kt(self) -> np.ndarray:
        """Per-interest engagement totals for this chunk."""
        return self._nk.copy()

    @property
    def item_pool(self) -> np.ndarray:
        return self.slice.item_pool

    sweeps_run = property(lambda self: len(self.fit.log_joint))
    converged = property(lambda self: self.fit.converged)

    def user_counts(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """(interests, combined counts) for a user active in this chunk."""
        r = self._row_index(user)
        if self._offs[r] < 0:
            lo, hi = self._cptr[r], self._cptr[r] + self._cfill[r]
            return self._ck[lo:hi].copy(), self._cc[lo:hi].copy()
        off, L = self._offs[r], self._lens[r]
        return self._cand[off:off + L].copy(), self._uk[off:off + L].copy()

    def user_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(``support_ptr``, ``support_k``, weights): every user's
        alpha-smoothed combined counts normalized over the t=0 support, as
        ``fold_into`` returns them (users absent from this chunk keep
        their base counts); users without t=0 history get empty rows."""
        counts = self.base.warm.astype(np.int64)
        counts[self._sup_idx] = self._uk
        masses = self.alpha + counts.astype(np.float64)
        return self.init.support_ptr, self.init.support_k, _row_normalize(self.init.support_ptr, masses)

    def item_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(items, interests, counts) of the nonzero item-interest counts,
        sorted by item, then interest."""
        slots = _ranges(self._iptr[:-1], self._ifill)
        items = np.repeat(self.slice.item_pool, self._ifill)
        return items, self._ik[slots], self._ic[slots]

    # -- collapsed objective ------------------------------------------------

    def log_joint(self) -> float:
        """Exact collapsed log-joint, up to assignment-independent constant.

        Normalized against base counts and empty chunk tables so the empty
        chunk scores 0. Matches the resampling weights: for any single
        reassignment the difference equals the log weight ratio.

        Log-gamma comes from ``_gammaln``: the compiled Cephes ``lgam`` when
        the kernel builds, else ``scipy.special.gammaln``, bit for bit the
        same, so both paths give the same log-joint.
        """
        a, b = self.alpha, self.beta
        total = 0.0
        if len(self._uk):
            total += float((_gammaln(a + self._uk) - _gammaln(a + self._uk_base)).sum())
        # cold rows: interests absent from a row or its base contribute
        # lgamma(a) - lgamma(a) = 0, so rows and bases sum independently
        cold = self._cc[_ranges(self._cptr[:-1], self._cfill)]
        total += float((_gammaln(a + cold) - _gammaln(a)).sum())
        total -= float((_gammaln(a + self._cbc) - _gammaln(a)).sum())
        _, _, counts = self.item_table()
        if len(counts):
            total += float((_gammaln(b + counts) - _gammaln(b)).sum())
        nz = self._nk[self._nk > 0]
        if len(nz):
            total -= float((_gammaln(self.Ibeta + nz) - _gammaln(self.Ibeta)).sum())
        return total

    @property
    def current_log_joint(self) -> float:
        return self._lj

    # -- the sweep ----------------------------------------------------------

    def run_sweep(self, unif: np.ndarray) -> int:
        """Resample every engagement once in scan order; returns change count.

        ``unif`` supplies one uniform draw per engagement. Updates the
        tracked log-joint incrementally (recomputed exactly if any weight
        vector underflowed to zero or the increment is not finite).
        """
        unif = np.ascontiguousarray(unif, dtype=np.float64)
        if unif.shape != (self.n,):
            raise ValueError(f"{unif.shape} uniforms for {self.n} engagements")
        kernel = load_kernel()
        if kernel is None:
            changed, underflows, dlj = self._sweep_python(unif)
        else:
            changed, underflows, dlj = self._sweep_compiled(kernel, unif)
        self.underflow_events += underflows
        if underflows:
            logger.warning(
                "chunk %d: %d zero-weight resamples fell back to uniform", self.chunk, underflows
            )
        if underflows or not math.isfinite(dlj):
            self._lj = self.log_joint()
        else:
            self._lj += dlj
        return changed

    def _sweep_compiled(self, kernel, unif: np.ndarray) -> tuple[int, int, float]:
        out = np.zeros(2, dtype=np.int64)
        dlj = ctypes.c_double(0.0)
        kernel.sweep(
            len(self._offs), self._ptr, self._offs, self._lens, self._cand, self._uk,
            self._cptr, self._ck, self._cc, self._cfill,
            self._irow, self._iptr, self._ik, self._ic, self._ifill,
            self._nk, self.K, self._zpos, unif,
            self.alpha, self.beta, self.Ibeta,
            np.empty(max(self.K, int(self._lens.max(initial=0)))), np.empty(self.K, dtype=np.int64),
            np.empty(self.K), out, ctypes.byref(dlj),
        )
        return int(out[0]), int(out[1]), dlj.value

    def _sweep_python(self, unif: np.ndarray) -> tuple[int, int, float]:
        """The reference sweep: what the compiled kernel computes, in Python.

        Returns (changed, uniform fallbacks, summed log weight ratios).
        """
        alpha, beta, Ibeta, K = self.alpha, self.beta, self.Ibeta, self.K
        ptr, offs, lens = self._ptr.tolist(), self._offs.tolist(), self._lens.tolist()
        cand, uk = self._cand.tolist(), self._uk.tolist()
        cptr, ck, cc, cfill = self._cptr.tolist(), self._ck.tolist(), self._cc.tolist(), self._cfill.tolist()
        irow, iptr = self._irow.tolist(), self._iptr.tolist()
        ik, ic, ifill = self._ik.tolist(), self._ic.tolist(), self._ifill.tolist()
        nk, zpos = self._nk.tolist(), self._zpos.tolist()
        u01 = unif.tolist()
        wbuf = [0.0] * max(lens, default=1)
        changed = underflows = 0
        dlj = 0.0

        for r in range(len(offs)):
            off = offs[r]
            for j in range(ptr[r], ptr[r + 1]):
                ir = irow[j]
                ilo = iptr[ir]
                if off >= 0:
                    L = lens[r]
                    p_old = zpos[j]
                    k_old = cand[off + p_old]
                    # remove engagement j
                    uk[off + p_old] -= 1
                    _row_add(ik, ic, ifill, ir, ilo, k_old, -1)
                    nk[k_old] -= 1
                    # cumulative weights over the support
                    ni = ifill[ir]
                    tot = 0.0
                    for p in range(L):
                        k = cand[off + p]
                        tot += (alpha + uk[off + p]) * (beta + _row_get(ik, ic, ilo, ni, k)) / (Ibeta + nk[k])
                        wbuf[p] = tot
                    if tot > 0.0:
                        rv = u01[j] * tot
                        p_new = 0
                        while p_new < L - 1 and wbuf[p_new] < rv:
                            p_new += 1
                    else:
                        p_new = min(int(u01[j] * L), L - 1)
                        underflows += 1
                    k_new = cand[off + p_new]
                    if p_new != p_old:
                        changed += 1
                        w_old = (alpha + uk[off + p_old]) * (beta + _row_get(ik, ic, ilo, ni, k_old)) / (Ibeta + nk[k_old])
                        w_new = (alpha + uk[off + p_new]) * (beta + _row_get(ik, ic, ilo, ni, k_new)) / (Ibeta + nk[k_new])
                        dlj += _log(w_new) - _log(w_old)
                        zpos[j] = p_new
                    # put it back
                    uk[off + p_new] += 1
                    _row_add(ik, ic, ifill, ir, ilo, k_new, 1)
                    nk[k_new] += 1
                else:
                    clo = cptr[r]
                    k_old = zpos[j]
                    _row_add(ck, cc, cfill, r, clo, k_old, -1)
                    _row_add(ik, ic, ifill, ir, ilo, k_old, -1)
                    nk[k_old] -= 1
                    # dense weight vector: ((beta + n_ik) / (Ibeta + n_k)) * (alpha + n_uk)
                    ni, nc = ifill[ir], cfill[r]
                    w = np.full(K, beta)
                    w[ik[ilo:ilo + ni]] += ic[ilo:ilo + ni]
                    w /= Ibeta + np.asarray(nk)
                    fac = np.full(K, alpha)
                    fac[ck[clo:clo + nc]] += cc[clo:clo + nc]
                    w *= fac
                    cum = np.cumsum(w)
                    tot = float(cum[-1])
                    if tot > 0.0 and math.isfinite(tot):
                        k_new = min(int(np.searchsorted(cum, u01[j] * tot, side="left")), K - 1)
                    else:
                        k_new = min(int(u01[j] * K), K - 1)
                        underflows += 1
                    if k_new != k_old:
                        changed += 1
                        w_old = (alpha + _row_get(ck, cc, clo, nc, k_old)) * (beta + _row_get(ik, ic, ilo, ni, k_old)) / (Ibeta + nk[k_old])
                        w_new = (alpha + _row_get(ck, cc, clo, nc, k_new)) * (beta + _row_get(ik, ic, ilo, ni, k_new)) / (Ibeta + nk[k_new])
                        dlj += _log(w_new) - _log(w_old)
                        zpos[j] = k_new
                    _row_add(ck, cc, cfill, r, clo, k_new, 1)
                    _row_add(ik, ic, ifill, ir, ilo, k_new, 1)
                    nk[k_new] += 1

        self._uk[:] = uk
        self._ck[:], self._cc[:], self._cfill[:] = ck, cc, cfill
        self._ik[:], self._ic[:], self._ifill[:] = ik, ic, ifill
        self._nk[:], self._zpos[:] = nk, zpos
        return changed, underflows, dlj

    def fold_into(self, counts: UserCounts) -> UserCounts:
        """``counts`` with this chunk's users' final combined counts in; ``counts`` is left as it is."""
        warm = counts.warm.astype(np.int64)
        warm[self._sup_idx] = self._uk
        users = np.repeat(self.slice.unique_users, self._cfill)  # of each cold row entry
        slots = _ranges(self._cptr[:-1], self._cfill)
        kept = ~np.isin(counts.cold_keys // self.K, users)
        keys, new = counts.cold_keys[kept], users * self.K + self._ck[slots]
        at = np.searchsorted(keys, new)
        return UserCounts(warm, np.insert(keys, at, new), np.insert(counts.cold_counts[kept], at, self._cc[slots]))


def fit_chunk(
    slice_: ChunkSlice,
    init: InitArtifact,
    cfg: SamplerConfig,
    base: UserCounts | None = None,
) -> ChunkModel:
    """Initialize and sweep until the log-joint stabilizes or sweeps run out.

    Convergence: relative change in the collapsed log-joint between
    consecutive sweeps below ``cfg.convergence_tol``. Non-convergence is a
    logged warning, not an error; the final sample is the point estimate.
    The model's ``fit`` records the final assignments and the sweeps' trace.
    """
    rng = np.random.default_rng(cfg.seed)
    m = ChunkModel(slice_, init, cfg, base=base, rng=rng)
    log_joint, changed, converged = [m.current_log_joint], [], False
    while not converged and len(changed) < cfg.max_sweeps:
        changed.append(m.run_sweep(rng.random(m.n)))
        log_joint.append(m.current_log_joint)
        converged = abs(log_joint[-1] - log_joint[-2]) / max(abs(log_joint[-2]), 1e-12) < cfg.convergence_tol
    m.fit = ChunkFit(m.chunk, m.z, log_joint[1:], changed, converged, m.underflow_events)
    if not converged:
        logger.warning("chunk %d: log-joint still moving after %d sweeps", m.chunk, cfg.max_sweeps)
    return m


def sweep_diagnostics_text(m: ChunkModel) -> str:
    """Per-sweep (sweep, log_joint, changed) of ``m.fit`` as tab-separated lines."""
    trace = enumerate(zip(m.fit.log_joint, m.fit.changed), start=1)
    return "sweep\tlog_joint\tchanged\n" + "".join(f"{s}\t{lj!r}\t{changed}\n" for s, (lj, changed) in trace)


def save_chunk_model(m: ChunkModel, path, source=None) -> None:
    """Write ``m.fit``, the chunk artifact; the count tables rebuild from its ``z``."""
    write_fields(m.fit, path, source)


def load_chunk_model(path, slice_: ChunkSlice, init: InitArtifact, cfg: SamplerConfig,
                     base: UserCounts | None = None) -> ChunkModel:
    """Rebuild a fitted model from the ``ChunkFit`` at ``path``; another chunk's fit, or one whose
    last log-joint the tables do not give, raises ``ValueError`` naming the file, as ``read_fields`` does."""
    fit = read_fields(ChunkFit, path)
    try:
        if fit.chunk != slice_.chunk:
            raise ValueError(f"persisted model is for chunk {fit.chunk}, slice is chunk {slice_.chunk}")
        m = ChunkModel(slice_, init, cfg, base=base, z=fit.z)
        if not math.isclose(m.current_log_joint, fit.log_joint[-1], rel_tol=1e-9, abs_tol=1e-6):
            raise ValueError(f"chunk {m.chunk}: reloaded log-joint {m.current_log_joint!r} differs from the persisted "
                             f"{fit.log_joint[-1]!r}; the model was fitted on other data, init or ledger")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}; rebuild it in a new output directory") from None
    m.fit = fit
    return m
