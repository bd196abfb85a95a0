"""The compiled kernels: C source, build cache and ``ctypes`` binding.

``load_kernel()`` compiles ``C_SOURCE`` once with the system ``gcc`` into
the user cache (``$XDG_CACHE_HOME/mixrec``, else ``~/.cache/mixrec``),
under a name keyed by two checksums of the source, the flags and the
compiler's version, and returns its bound entry points as a ``Kernel``.
The library is written under a temporary name and renamed into place, so
concurrent processes never load a half-written file. Without a working compiler it
logs one warning and returns None: the sampler runs its Python sweep, the
retrievers their numpy selection, the embedding trainer its numpy update
and the row sums their ``np.bincount``.

``Kernel.sweep`` is a transcription of ``ChunkModel._sweep_python``, which
is its reference: the same uniforms, the same sorted-row table updates and
the same floating-point expressions in the same order. ``-ffp-contract=off``
keeps the compiler from fusing a multiply and an add into one rounding, and
no flag that reassociates arithmetic (``-ffast-math``) or tunes for the
build machine (``-march=native``) is used, so both sweeps produce the same
bits. It returns the change and uniform fallback counts and no log-joint:
the sampler's trace is ``ChunkModel.log_joint()`` of the tables the sweep
leaves, on either path. Two caller-provided K-long scratch arrays spare it
searches and divisions. A warm resample scatters the item's sorted row into ``dense``
once, reads each support interest's count there and clears those entries
before the re-add. ``s0[k]`` holds ``(beta / (Ibeta + n_k)) * alpha``, set
at entry and at every change of ``n_k``; a cold resample takes it for every
interest that neither the item's row nor the user's row counts, and
evaluates the full expression only at those rows' entries. It is the full
expression with both counts 0.0, and ``beta + 0.0 == beta`` and ``alpha +
0.0 == alpha``, so each weight, and the sequential prefix sum over them,
keeps its bits.

``-fvect-cost-model=dynamic`` lets gcc vectorise the loops whose trip
count is known only at run time, which ``-O2``'s very-cheap cost model
skips. That keeps the bits too: a vectorised loop computes each element
with the same operations, and gcc reassociates no floating-point reduction
unless ``-ffast-math`` or ``-fassociative-math`` allows it, so a running
sum stays sequential. ``-march=native`` is left out because the cache key
records no CPU: a shared cache could hand one machine's build to another.

The three retrieval entry points each answer one query in one call; their
reference is the numpy path of ``mixrec.retrieval``. Each reads a
read-only index struct, built once when its Python index is made and
mirrored here by a ``ctypes.Structure``: ``ranking_t`` (``RankingStruct``)
of a ranked item array and its scores, ``interest_index_t``
(``InterestStruct``) of an ``InterestIndex``'s pool, lists, floors, run
ends, user CSR and popularity ranking, and ``ann_index_t``
(``AnnStruct``) of an ``AnnIndex``'s pool and item norms. A query passes
the struct and only what is its own:

- ``mixture(index, user, seen, ns, M, out)`` reads the user's row of the
  index's user CSR. A user without interests gets the first M unseen
  entries of the index's popularity ranking, the cold-user rule, in the
  same call; for any other user it adds theta_k * prob into the pool
  positions of the user's interest lists in the order of ``ks``;
- ``cosine(index, dots, un, seen, ns, M, out)`` scores ``dots / (norms *
  un)``, or -inf where a norm is 0, for the numpy product ``dots``;
- ``walk(ranking, seen, ns, M, out)`` keeps the first M unseen entries of
  the ranking with their scores.

Interest k's list is its counted entries, then its floor run: every other
pool position below ``fend[k]``, each with ``floors[k]``. ``mixture``
trusts the user, ``ks``, the positions, the run ends, the weights and the
floors: the caller checks the user, and ``InterestIndex`` checks the rest,
the weights and floors finite and >= 0. Two kinds of position are
candidates. U, the union of the interests' counted positions, gets each
list's term in the order of ``ks`` (as the numpy path adds them, so each
sum keeps its bits). A position outside U but below the largest run end
gets floor terms only; its sum never increases with the position (the
kernel's comment gives the argument), so these positions come in rank
order, and only the first M unseen are summed and offered. ``mixture`` and
``cosine`` drop the seen ids before they select: ``cosine`` by a merge walk
of the ascending pool and seen ids, ``mixture`` through a bitmap of the
seen pool positions. Both then keep the best M by (score descending with
NaN last, item ascending). Each candidate gets an order-preserving integer
key, and one whose key is above the M-th best so far is dropped without a
branch. A branch-free partition cuts the kept ones back to M whenever they
reach 2M, and one sort ranks the rest. The order is total over distinct
items, so the offer order does not change the result. All three write a
list of at most M entries into one ``int64`` buffer of 2M, the item ids
first and then the scores' bits, and first check in one pass that the seen
ids do not decrease, which the searches and the merge walk need, returning
-3 when they do.

``row_mean`` is one embedding SGD update; its reference is the numpy
``mixrec.embeddings._apply_row_mean``. It forms each example's gradient as
``scal[j] * vecs[vidx[j]]``, adds each touched row's gradients from 0.0 in
example order (``np.bincount``'s input order) and sets ``emb[r] - (lr *
sum) / count``, the numpy expression, so the table gets the same bits. The
user step passes ``scal = 1.0`` and ``vidx = j``: multiplying by 1.0 is
exact, so one form serves both steps.

``gather_sum`` adds ``vecs[vidx[j]]`` (``vecs[j]`` when ``vidx`` is NULL)
into row ``rows[j]`` of a zeroed output, in j order; its reference is
``mixrec.embeddings._row_sums``, whose ``np.bincount`` adds each cell's
terms from 0.0 in the same order, so the sums keep their bits. It runs the
accumulation loop of ``row_mean`` with a scale of 1.0. ANN item encoding
passes the engagements' users as ``vidx`` and k-means its unit vectors
directly, so neither builds an (engagements x D) gather or a flat cell
index. An out-of-range row or vector index writes nothing and returns -2,
and the caller raises ``IndexError``.

The entry points hold no static state and only read the index structs;
they allocate their work space per call or, like the sweep, take it from
the caller, so threads may share them.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import subprocess
import tempfile
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["AnnStruct", "InterestStruct", "Kernel", "RankingStruct", "arg", "load_kernel"]

logger = logging.getLogger(__name__)

CC = "gcc"
FLAGS = ("-O2", "-ftree-vectorize", "-fvect-cost-model=dynamic", "-fPIC", "-shared", "-ffp-contract=off")

C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;

/* the first position in the ascending a[0:n] whose value is >= x, or n
   (0 when n is 0, without reading a); each halving step is a conditional
   move, not a branch */
static i64 lower_bound(const i64 *a, i64 n, i64 x)
{
    i64 b = 0;
    for (; n > 1; n -= n / 2)
        b = a[b + n / 2] < x ? b + n / 2 : b;
    return b + (n > 0 && a[b] < x);
}

/* add d to interest k of row r (start lo, fill[r] entries): an entry that
   reaches 0 is dropped, a missing one inserted, so rows stay sorted */
static void add(i64 *ks, i64 *cs, i64 *fill, i64 r, i64 lo, i64 k, i64 d)
{
    i64 n = fill[r], q = lo + lower_bound(ks + lo, n, k), end = lo + n;
    if (q < end && ks[q] == k) {
        i64 c = cs[q] + d;
        if (c) {
            cs[q] = c;
        } else {
            memmove(ks + q, ks + q + 1, (size_t)(end - q - 1) * sizeof(i64));
            memmove(cs + q, cs + q + 1, (size_t)(end - q - 1) * sizeof(i64));
            fill[r] = n - 1;
        }
    } else {
        memmove(ks + q + 1, ks + q, (size_t)(end - q) * sizeof(i64));
        memmove(cs + q + 1, cs + q, (size_t)(end - q) * sizeof(i64));
        ks[q] = k;
        cs[q] = d;
        fill[r] = n + 1;
    }
}

/* a cold weight at zero item and user counts, n the interest's total: the
   bits of ((beta + 0.0) / (Ibeta + n)) * (alpha + 0.0) */
static double zero_count(double alpha, double beta, double Ibeta, i64 n)
{
    return (beta / (Ibeta + (double)n)) * alpha;
}

/* One scan-order sweep: out[0] = changed, out[1] = uniform fallbacks. The
   caller recomputes the log-joint from the tables it leaves. */
void mixrec_sweep(
    i64 R, const i64 *ptr, const i64 *offs, const i64 *lens,
    const i64 *cand, i64 *uk,
    const i64 *cptr, i64 *ck, i64 *cc, i64 *cfill,
    const i64 *irow, const i64 *iptr, i64 *ik, i64 *ic, i64 *ifill,
    i64 *nk, i64 K, i64 *zpos, const double *u01,
    double alpha, double beta, double Ibeta,
    double *wbuf, i64 *dense, double *s0, i64 *out)
{
    i64 changed = 0, under = 0;
    /* dense: a K-long item-count row, zero outside a warm resample;
       s0[k] = zero_count(nk[k]), refreshed at every change of nk[k] */
    memset(dense, 0, (size_t)K * sizeof(i64));
    for (i64 k = 0; k < K; k++)
        s0[k] = zero_count(alpha, beta, Ibeta, nk[k]);
    for (i64 r = 0; r < R; r++) {
        for (i64 j = ptr[r]; j < ptr[r + 1]; j++) {
            i64 ir = irow[j], ilo = iptr[ir];
            if (offs[r] >= 0) {
                i64 off = offs[r], L = lens[r];
                i64 p_old = zpos[j], k_old = cand[off + p_old], p_new, k_new;
                double tot = 0.0;
                i64 ihi;
                uk[off + p_old] -= 1;
                add(ik, ic, ifill, ir, ilo, k_old, -1);
                nk[k_old] -= 1;
                s0[k_old] = zero_count(alpha, beta, Ibeta, nk[k_old]);
                /* the item's counts, scattered once instead of searched per k */
                ihi = ilo + ifill[ir];
                for (i64 q = ilo; q < ihi; q++)
                    dense[ik[q]] = ic[q];
                for (i64 p = 0; p < L; p++) {
                    i64 k = cand[off + p];
                    tot += (alpha + (double)uk[off + p]) * (beta + (double)dense[k])
                           / (Ibeta + (double)nk[k]);
                    wbuf[p] = tot;
                }
                if (tot > 0.0) {
                    double rv = u01[j] * tot;
                    p_new = 0;
                    while (p_new < L - 1 && wbuf[p_new] < rv)
                        p_new++;
                } else {
                    p_new = (i64)(u01[j] * (double)L);
                    if (p_new > L - 1)
                        p_new = L - 1;
                    under++;
                }
                k_new = cand[off + p_new];
                if (p_new != p_old) {
                    changed++;
                    zpos[j] = p_new;
                }
                for (i64 q = ilo; q < ihi; q++)
                    dense[ik[q]] = 0;
                uk[off + p_new] += 1;
                add(ik, ic, ifill, ir, ilo, k_new, 1);
                nk[k_new] += 1;
                s0[k_new] = zero_count(alpha, beta, Ibeta, nk[k_new]);
            } else {
                i64 clo = cptr[r], k_old = zpos[j], k_new;
                i64 qi, qi_end, qc, qc_end;
                double tot = 0.0;
                add(ck, cc, cfill, r, clo, k_old, -1);
                add(ik, ic, ifill, ir, ilo, k_old, -1);
                nk[k_old] -= 1;
                s0[k_old] = zero_count(alpha, beta, Ibeta, nk[k_old]);
                /* dense weights over all K, summed in k order; both sorted
                   rows are walked once, and a k that neither row counts
                   takes s0[k], that weight's bits */
                qi = ilo, qi_end = ilo + ifill[ir], qc = clo, qc_end = clo + cfill[r];
                for (i64 k = 0; k < K; k++) {
                    /* the next interest either row counts, K past the last */
                    i64 next = qi < qi_end ? ik[qi] : K;
                    double n_ik = 0.0, n_uk = 0.0;
                    if (qc < qc_end && ck[qc] < next)
                        next = ck[qc];
                    for (; k < next; k++) {
                        tot += s0[k];
                        wbuf[k] = tot;
                    }
                    if (k == K)
                        break;
                    if (qi < qi_end && ik[qi] == k)
                        n_ik = (double)ic[qi++];
                    if (qc < qc_end && ck[qc] == k)
                        n_uk = (double)cc[qc++];
                    tot += ((beta + n_ik) / (Ibeta + (double)nk[k])) * (alpha + n_uk);
                    wbuf[k] = tot;
                }
                if (tot > 0.0 && isfinite(tot)) {
                    /* leftmost k with cumulative weight >= rv */
                    double rv = u01[j] * tot;
                    i64 a = 0, b = K;
                    while (a < b) {
                        i64 m = a + (b - a) / 2;
                        if (wbuf[m] < rv)
                            a = m + 1;
                        else
                            b = m;
                    }
                    k_new = a < K ? a : K - 1;
                } else {
                    k_new = (i64)(u01[j] * (double)K);
                    if (k_new > K - 1)
                        k_new = K - 1;
                    under++;
                }
                if (k_new != k_old) {
                    changed++;
                    zpos[j] = k_new;
                }
                add(ck, cc, cfill, r, clo, k_new, 1);
                add(ik, ic, ifill, ir, ilo, k_new, 1);
                nk[k_new] += 1;
                s0[k_new] = zero_count(alpha, beta, Ibeta, nk[k_new]);
            }
        }
    }
    out[0] = changed;
    out[1] = under;
}

/* -- top-M selection ---------------------------------------------------- */

typedef unsigned long long u64;

/* an order-preserving key of a score: a smaller key is a higher score,
   -0.0 keys as +0.0 and NaN (of either sign) last */
static u64 key_of(double s)
{
    u64 b;
    memcpy(&b, &s, sizeof b);
    b &= -(u64)(s != 0.0);
    /* negative scores flip all bits, the others only the sign: the unsigned
       order is then the order of the scores, which ~ reverses */
    b ^= -(b >> 63) | 1ULL << 63;
    return ~b | -(u64)(isnan(s) != 0);
}

/* Candidates are (key, pool position) pairs, held as two arrays so that
   every load and store is one 8-byte word. The pool is ascending, so ties
   by position are ties by item; no two candidates share a position. */
typedef struct {
    u64 *key;
    i64 *at;
} cands_t;

/* candidate (ka, pa) ranks before (kb, pb), compared without a branch */
static int before(u64 ka, i64 pa, u64 kb, i64 pb)
{
    return (ka < kb) | ((ka == kb) & (pa < pb));
}

/* Move the candidates of c[0:n] that rank before (kp, pp) to its front and
   return their count. Each step swaps unconditionally and advances by the
   comparison, so the loop has no data-dependent branch. */
static i64 partition(cands_t c, i64 n, u64 kp, i64 pp)
{
    i64 j = 0;
    for (i64 i = 0; i < n; i++) {
        u64 k = c.key[i];
        i64 p = c.at[i];
        c.key[i] = c.key[j];
        c.at[i] = c.at[j];
        c.key[j] = k;
        c.at[j] = p;
        j += before(k, p, kp, pp);
    }
    return j;
}

/* the index among x, y and z of the median of the three candidates */
static i64 median3(cands_t c, i64 x, i64 y, i64 z)
{
    if (before(c.key[y], c.at[y], c.key[x], c.at[x])) {
        i64 t = x;
        x = y;
        y = t;
    }
    if (before(c.key[z], c.at[z], c.key[y], c.at[y]))
        y = before(c.key[z], c.at[z], c.key[x], c.at[x]) ? x : z;
    return y;
}

/* the candidates from j on */
static cands_t tail(cands_t c, i64 j)
{
    cands_t d = {c.key + j, c.at + j};
    return d;
}

/* Reorder c[0:n] so that c[0:m] hold its first m candidates, in rank order
   when sorted is set. Each pass partitions around a median of three; no two
   candidates tie, so both sides of a pass over more than 16 are nonempty.
   When sorting, the side that must be sorted whole is the smaller one
   recursed into, so the depth stays logarithmic. */
static void first_m(cands_t c, i64 n, i64 m, int sorted)
{
    while (n > 16) {
        i64 q = median3(c, 0, n / 2, n - 1);
        i64 j = partition(c, n, c.key[q], c.at[q]);
        if (j >= m) {
            n = j;
        } else if (!sorted) {
            c = tail(c, j), n -= j, m -= j;
        } else if (j < n - j) {
            first_m(c, j, j, 1);
            c = tail(c, j), n -= j, m -= j;
        } else {
            first_m(tail(c, j), n - j, m - j, 1);
            n = m = j;
        }
    }
    for (i64 i = 1; i < n; i++) {
        u64 k = c.key[i];
        i64 p = c.at[i], j = i;
        for (; j > 0 && before(k, p, c.key[j - 1], c.at[j - 1]); j--) {
            c.key[j] = c.key[j - 1];
            c.at[j] = c.at[j - 1];
        }
        c.key[j] = k;
        c.at[j] = p;
    }
}

/* The best M candidates offered so far, held among the first nb of 2 * M
   entries. An offer ranking after all of the best M known so far cannot
   enter: its key is above thr. The offer is written anyway and kept by
   advancing nb, without a branch. A full buffer is cut back to its best M,
   whose largest key becomes thr. */
typedef struct {
    cands_t c;
    i64 nb, M;
    u64 thr;
} best_t;

static u64 cut(cands_t c, i64 M)
{
    u64 thr = 0;
    first_m(c, 2 * M, M, 0);
    for (i64 i = 0; i < M; i++)
        thr = c.key[i] > thr ? c.key[i] : thr;
    return thr;
}

static inline void offer(best_t *t, u64 key, i64 at, int drop)
{
    t->c.key[t->nb] = key;
    t->c.at[t->nb] = at;
    t->nb += (key <= t->thr) & !drop;
    if (t->nb == 2 * t->M) {
        t->thr = cut(t->c, t->M);
        t->nb = t->M;
    }
}

/* sort the best M into rank order; returns their count */
static i64 finish(best_t *t)
{
    i64 got = t->nb < t->M ? t->nb : t->M;
    first_m(t->c, t->nb, got, 1);
    return got;
}

static int is_seen(const i64 *seen, i64 ns, i64 item)
{
    i64 q = lower_bound(seen, ns, item);
    return q < ns && seen[q] == item;
}

/* 1 when seen[0:ns] does not decrease, which the binary searches and the
   merge walk need */
static int ascending(const i64 *seen, i64 ns)
{
    for (i64 i = 1; i < ns; i++)
        if (seen[i] < seen[i - 1])
            return 0;
    return 1;
}

/* Each selection writes its list of at most M entries to one buffer: entry
   i's item id to out[i] and its score's bits to out[M + i]. */
static void put(i64 *out, i64 M, i64 i, i64 item, double score)
{
    out[i] = item;
    memcpy(out + M + i, &score, sizeof score);
}

#define BIT(p) (1ULL << ((p) & 63))

/* -- the retrieval indexes: built once per index, read by every query ---- */

/* A ranked item array with its aligned scores: a chunk's popularity ranking. */
typedef struct {
    i64 n;
    const i64 *items;
    const double *scores;
} ranking_t;

/* An InterestIndex. Interest k's list is its counted entries
   positions[ptr[k]:ptr[k+1]] into the ascending pool[0:n], with probs, then
   its floor run, every other pool position below fend[k], with floors[k].
   User u's interests are user_k[user_ptr[u]:user_ptr[u+1]], with weights
   user_w; popularity is the list of a user without interests. */
typedef struct {
    i64 n;
    const i64 *pool, *ptr, *positions;
    const double *probs, *floors;
    const i64 *fend, *user_ptr, *user_k;
    const double *user_w;
    const ranking_t *popularity;
} interest_index_t;

/* An AnnIndex: the ascending pool[0:n] and its item vectors' norms. */
typedef struct {
    i64 n;
    const i64 *pool;
    const double *norms;
} ann_index_t;

/* The first M entries of the ranking r that are not in seen, with their
   scores. Returns the count written to out (see put), or -3 when seen is
   not ascending. */
i64 mixrec_walk(const ranking_t *r, const i64 *seen, i64 ns, i64 M, i64 *out)
{
    if (!ascending(seen, ns))
        return -3;
    i64 kept = 0;
    for (i64 i = 0; i < r->n && kept < M; i++)
        if (!is_seen(seen, ns, r->items[i]))
            put(out, M, kept++, r->items[i], r->scores[i]);
    return kept;
}

/* Top M by the mixture sum over a of theta[a] * prob across the list of
   interest k = ks[a] of index x (see interest_index_t). The index checked
   every interest, position and run end, and that every theta and floor is
   finite and >= 0, when it was built. Returns the count written to out
   (see put), or -1 when out of memory.

   The candidates are the positions some term reaches. U, the union of the
   interests' counted positions, gets every term, in the order of ks, each
   sum from 0.0 (as np.bincount adds them): a list's counted entries, then
   its run at the positions of U below fend[k] that it does not count. A
   position p outside U below the largest run end gets floor terms only,
   theta[a] * floors[k] from each interest a with fend[k] > p, a set that
   shrinks as p grows. Every term is >= 0, so adding one never lowers a
   partial sum, and rounding is monotone: the sum over a subset, in the same
   order, is never larger. These sums therefore never increase with the
   position, and the positions come in rank order: only the first M unseen
   ones can be among the best M. Each distinct sum is computed once, from
   0.0 in the order of ks. Seen ids, ascending, are dropped before
   selection, through a bitmap of the seen pool positions (one binary search
   of the pool each). */
static i64 top_mixture(
    const interest_index_t *x, i64 nks, const i64 *ks, const double *theta,
    const i64 *seen, i64 ns, i64 M, i64 *out)
{
    const i64 n = x->n, *pool = x->pool, *ptr = x->ptr, *positions = x->positions, *fend = x->fend;
    const double *probs = x->probs, *floors = x->floors;
    if (M <= 0 || n <= 0)
        return 0;
    i64 words = n / 64 + 1, nu = 0, top = 0;
    /* in_u: U; member: the current interest's counted positions; gone: seen */
    u64 *in_u = calloc((size_t)(3 * words), sizeof(u64)), *member = in_u + words, *gone = member + words;
    /* acc: the sums; upos: U in first-count order; then the selection's keys and positions */
    double *acc = malloc((size_t)(2 * n + 4 * M) * sizeof(double));
    if (!in_u || !acc) {
        free(in_u);
        free(acc);
        return -1;
    }
    i64 *upos = (i64 *)(acc + n);
    best_t t = {{(u64 *)(upos + n), upos + n + 2 * M}, 0, M, ~0ULL};
    for (i64 s = 0, q = 0; s < ns && q < n; s++) {
        /* seen is ascending, so each search starts where the last ended */
        q += lower_bound(pool + q, n - q, seen[s]);
        if (q < n && pool[q] == seen[s])
            gone[q >> 6] |= BIT(q);
    }
    for (i64 a = 0; a < nks; a++) {
        i64 k = ks[a];
        for (i64 j = ptr[k]; j < ptr[k + 1]; j++) {
            i64 p = positions[j];
            if (!(in_u[p >> 6] & BIT(p))) {
                in_u[p >> 6] |= BIT(p);
                acc[p] = 0.0;
                upos[nu++] = p;
            }
        }
        top = fend[k] > top ? fend[k] : top;
    }
    for (i64 a = 0; a < nks; a++) {
        double w = theta[a];
        i64 k = ks[a], lo = ptr[k], hi = ptr[k + 1], end = fend[k];
        for (i64 j = lo; j < hi; j++) {
            acc[positions[j]] += w * probs[j];
            member[positions[j] >> 6] |= BIT(positions[j]);
        }
        /* the run's positions in U, 64 to a bitmap word */
        double v = w * floors[k];
        for (i64 b = 0; b * 64 < end; b++) {
            u64 run = in_u[b] & ~member[b];
            if (end - b * 64 < 64)
                run &= (1ULL << (end - b * 64)) - 1;
            for (; run; run &= run - 1)
                acc[b * 64 + __builtin_ctzll(run)] += v;
        }
        for (i64 j = lo; j < hi; j++)
            member[positions[j] >> 6] = 0;
    }
    for (i64 s = 0; s < nu; s++)
        offer(&t, key_of(acc[upos[s]]), upos[s], (gone[upos[s] >> 6] & BIT(upos[s])) != 0);
    /* the head of the floor-only positions; fs is their sum below next */
    double fs = 0.0;
    i64 next = 0, taken = 0;
    for (i64 b = 0; b * 64 < top && taken < M; b++) {
        u64 head = ~(in_u[b] | gone[b]);
        if (top - b * 64 < 64)
            head &= (1ULL << (top - b * 64)) - 1;
        for (; head && taken < M; head &= head - 1, taken++) {
            i64 p = b * 64 + __builtin_ctzll(head);
            if (p >= next) {
                fs = 0.0;
                next = top;
                for (i64 a = 0; a < nks; a++) {
                    i64 e = fend[ks[a]];
                    if (e > p) {
                        fs += theta[a] * floors[ks[a]];
                        next = e < next ? e : next;
                    }
                }
            }
            acc[p] = fs;
            offer(&t, key_of(fs), p, 0);
        }
    }
    i64 got = finish(&t);
    for (i64 i = 0; i < got; i++)
        put(out, M, i, pool[t.c.at[i]], acc[t.c.at[i]]);
    free(in_u);
    free(acc);
    return got;
}

/* The list of user u of index x: the top M of the user's mixture, or, for a
   user without interests, the first M unseen entries of x->popularity (the
   cold-user rule). The caller checked u. Returns the count written to out
   (see put), -1 when out of memory, or -3 when seen is not ascending. */
i64 mixrec_mixture(const interest_index_t *x, i64 u, const i64 *seen, i64 ns, i64 M, i64 *out)
{
    i64 lo = x->user_ptr[u], nks = x->user_ptr[u + 1] - lo;
    if (!nks)
        return mixrec_walk(x->popularity, seen, ns, M, out);
    if (!ascending(seen, ns))
        return -3;
    return top_mixture(x, nks, x->user_k + lo, x->user_w + lo, seen, ns, M, out);
}

static double cosine(const double *dots, const double *norms, double un, i64 i)
{
    return norms[i] > 0.0 ? dots[i] / (norms[i] * un) : -INFINITY;
}

/* Top M of the ascending pool of index x by cosine dots[i] / (norms[i] *
   un), -inf where a norm is not positive; dots[0:n] are the pool's item
   vectors times the user's. Seen ids are dropped by a merge walk of the two
   ascending arrays. Returns the count written, -1 when out of memory, or -3
   when seen is not ascending. */
i64 mixrec_cosine(const ann_index_t *x, const double *dots, double un, const i64 *seen, i64 ns, i64 M, i64 *out)
{
    const i64 n = x->n, *pool = x->pool;
    const double *norms = x->norms;
    if (!ascending(seen, ns))
        return -3;
    if (M <= 0 || n <= 0)
        return 0;
    u64 *work = malloc((size_t)(4 * M) * sizeof(u64));
    best_t t = {{work, (i64 *)work + 2 * M}, 0, M, ~0ULL};
    if (!work)
        return -1;
    for (i64 i = 0, s = 0; i < n; i++) {
        while (s < ns && seen[s] < pool[i])
            s++;
        offer(&t, key_of(cosine(dots, norms, un, i)), i, s < ns && seen[s] == pool[i]);
    }
    i64 got = finish(&t);
    for (i64 i = 0; i < got; i++)
        put(out, M, i, pool[t.c.at[i]], cosine(dots, norms, un, t.c.at[i]));
    free(work);
    return got;
}

/* -- row sums: the embedding SGD update and the gather-sum --------------- */

/* s[0:D] += c * v[0:D], each entry on its own: vectorising the loop keeps
   every bit. With c = 1.0 the product is exact, so it adds v itself. */
static void add_scaled(double *restrict s, const double *restrict v, double c, i64 D)
{
    for (i64 d = 0; d < D; d++)
        s[d] += c * v[d];
}

/* One row-mean SGD step on the nrows x D table emb: each distinct row r of
   rows[0:m] becomes emb[r] - (lr * acc[r]) / count[r], where acc[r] adds to
   0.0, in j order, the gradient of every j with rows[j] == r (np.bincount's
   input order, so each sum keeps its bits). The gradient of j is
   scal[j] * vecs[vidx[j]]; vecs has nv rows.
   Returns 0, -1 when out of memory, or -2 (emb untouched) when a row or a
   vector index is out of range. */
i64 mixrec_row_mean(
    i64 m, const i64 *rows, const double *scal, const i64 *vidx,
    const double *vecs, i64 nv, i64 D, double lr, double *emb, i64 nrows)
{
    for (i64 j = 0; j < m; j++)
        if (rows[j] < 0 || rows[j] >= nrows || vidx[j] < 0 || vidx[j] >= nv)
            return -2;
    /* slot[r]: 1 + the accumulator of row r, 0 until r first appears */
    i64 *slot = calloc((size_t)(nrows > 0 ? nrows : 1), sizeof(i64));
    i64 *order = malloc((size_t)(m > 0 ? m : 1) * sizeof(i64));
    i64 *count = calloc((size_t)(m > 0 ? m : 1), sizeof(i64));
    double *acc = NULL;
    i64 nu = 0, ret = -1;
    if (!slot || !order || !count)
        goto done;
    for (i64 j = 0; j < m; j++)
        if (!slot[rows[j]]) {
            order[nu] = rows[j];
            slot[rows[j]] = ++nu;
        }
    acc = calloc((size_t)(nu * D > 0 ? nu * D : 1), sizeof(double));
    if (!acc)
        goto done;
    for (i64 j = 0; j < m; j++) {
        i64 a = slot[rows[j]] - 1;
        count[a]++;
        add_scaled(acc + a * D, vecs + vidx[j] * D, scal[j], D);
    }
    for (i64 a = 0; a < nu; a++) {
        double *e = emb + order[a] * D;
        const double *s = acc + a * D;
        double n = (double)count[a];
        for (i64 d = 0; d < D; d++)
            e[d] = e[d] - (lr * s[d]) / n;
    }
    ret = 0;
done:
    free(slot);
    free(order);
    free(count);
    free(acc);
    return ret;
}

/* Add vecs[vidx[j]], or vecs[j] when vidx is NULL, into row rows[j] of the
   nrows x D out, for j = 0 .. m-1 in order: on an out of zeros each row sum
   adds its terms to 0.0 in j order, as np.bincount does, so it keeps the
   bits of mixrec.embeddings._row_sums. vecs has nv rows and does not
   overlap out. Returns 0, or -2 (out untouched) when a row or a vector
   index is out of range. */
i64 mixrec_gather_sum(
    i64 m, const i64 *rows, const i64 *vidx, const double *vecs, i64 nv,
    i64 D, double *out, i64 nrows)
{
    for (i64 j = 0; j < m; j++)
        if (rows[j] < 0 || rows[j] >= nrows || (vidx ? vidx[j] < 0 || vidx[j] >= nv : j >= nv))
            return -2;
    if (D <= 0)
        return 0;
    for (i64 j = 0; j < m; j++)
        add_scaled(out + rows[j] * D, vecs + (vidx ? vidx[j] : j) * D, 1.0, D);
    return 0;
}
"""

_I64 = np.ctypeslib.ndpointer(dtype=np.int64, ndim=1, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1, flags="C_CONTIGUOUS")
_ll, _dbl, _ptr = ctypes.c_longlong, ctypes.c_double, ctypes.c_void_p
_ARGTYPES = (
    [_ll, _I64, _I64, _I64, _I64, _I64]  # R, ptr, offs, lens, cand, uk
    + [_I64] * 4  # cptr, ck, cc, cfill
    + [_I64] * 5  # irow, iptr, ik, ic, ifill
    + [_I64, _ll, _I64, _F64]  # nk, K, zpos, u01
    + [_dbl] * 3  # alpha, beta, Ibeta
    + [_F64, _I64, _F64]  # wbuf, dense, s0
    + [_I64]  # out
)


class RankingStruct(ctypes.Structure):
    """``ranking_t``: a ranked item array and its aligned scores."""

    _fields_ = [("n", _ll), ("items", _ptr), ("scores", _ptr)]


class InterestStruct(ctypes.Structure):
    """``interest_index_t``: the arrays of a ``retrieval.InterestIndex``."""

    _fields_ = [("n", _ll)] + [
        (name, _ptr)
        for name in ("pool", "ptr", "positions", "probs", "floors", "fend", "user_ptr", "user_k", "user_w")
    ] + [("popularity", ctypes.POINTER(RankingStruct))]


class AnnStruct(ctypes.Structure):
    """``ann_index_t``: the pool and item norms of a ``retrieval.AnnIndex``."""

    _fields_ = [("n", _ll), ("pool", _ptr), ("norms", _ptr)]


# The retrieval entry points run once per query, ``row_mean`` once per SGD
# batch and ``gather_sum`` once per Lloyd iteration, so they take raw
# pointers (``ctypes.c_void_p``, see ``arg``): checking an ``ndpointer``
# costs microseconds. The retrieval entry points take their index as one
# of the structs above, which ctypes passes by address.
_POINTER_ARGTYPES = {
    # index, user, seen, ns, M, out
    "mixture": [ctypes.POINTER(InterestStruct), _ll, _ptr, _ll, _ll, _ptr],
    # index, dots, un, seen, ns, M, out
    "cosine": [ctypes.POINTER(AnnStruct), _ptr, _dbl, _ptr, _ll, _ll, _ptr],
    # ranking, seen, ns, M, out
    "walk": [ctypes.POINTER(RankingStruct), _ptr, _ll, _ll, _ptr],
    # m, rows, scal, vidx, vecs, nv, D, lr, emb, nrows
    "row_mean": [_ll, _ptr, _ptr, _ptr, _ptr, _ll, _ll, _dbl, _ptr, _ll],
    # m, rows, vidx, vecs, nv, D, out, nrows
    "gather_sum": [_ll, _ptr, _ptr, _ptr, _ll, _ll, _ptr, _ll],
}


def arg(a: np.ndarray):
    """A pointer argument to the data of the contiguous array ``a`` (NULL
    when it is empty). A writable array's address comes through the buffer
    protocol, which costs a fraction of ``a.ctypes.data``; the argument
    keeps ``a`` alive."""
    if not a.size:
        return None
    try:
        return ctypes.byref(ctypes.c_char.from_buffer(a))
    except TypeError:  # read-only
        return a.ctypes.data


class Kernel(NamedTuple):
    """The bound entry points of the compiled library."""

    sweep: Callable[..., None]
    mixture: Callable[..., int]
    cosine: Callable[..., int]
    walk: Callable[..., int]
    row_mean: Callable[..., int]
    gather_sum: Callable[..., int]


def _cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mixrec"


def _compile(target: Path) -> None:
    """Compile ``C_SOURCE`` to ``target`` via temporary files in its directory."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, src = tempfile.mkstemp(suffix=".c", dir=target.parent)
    with os.fdopen(fd, "w") as fh:
        fh.write(C_SOURCE)
    fd, lib = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([CC, *FLAGS, "-o", lib, src, "-lm"], check=True, capture_output=True, text=True, timeout=120)
        os.replace(lib, target)
    finally:
        for p in (src, lib):
            if os.path.exists(p):
                os.unlink(p)


@functools.cache
def load_kernel() -> Kernel | None:
    """The compiled entry points, or None when they cannot be built.

    Cached for the process, so the path in use is logged once.
    """
    try:
        version = subprocess.run(
            [CC, "--version"], check=True, capture_output=True, text=True, timeout=60
        ).stdout
        # two independent 32-bit checksums: hashlib would load OpenSSL for this
        text = "\0".join([C_SOURCE, *FLAGS, version]).encode()
        key = f"{zlib.crc32(text):08x}{zlib.adler32(text):08x}"
        path = _cache_dir() / f"kernel-{key}.so"
        if not path.exists():
            _compile(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        logger.warning(
            "cannot build the compiled kernels (%s); falling back to Python and numpy", str(detail).strip()
        )
        logger.info("Gibbs sweep: Python; top-M selection, embedding SGD update and gather-sum: numpy")
        return None
    lib.mixrec_sweep.argtypes = _ARGTYPES
    lib.mixrec_sweep.restype = None
    for name, argtypes in _POINTER_ARGTYPES.items():
        fn = getattr(lib, f"mixrec_{name}")
        fn.argtypes = argtypes
        fn.restype = _ll
    logger.info("Gibbs sweep, top-M selection, embedding SGD update and gather-sum: compiled kernel %s", path)
    return Kernel(*(getattr(lib, f"mixrec_{name}") for name in Kernel._fields))
