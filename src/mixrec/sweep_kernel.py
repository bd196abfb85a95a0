"""The compiled kernels: C source, build cache and ``ctypes`` binding.

``load_kernel()`` compiles ``C_SOURCE`` once with the system ``gcc`` into
the user cache (``$XDG_CACHE_HOME/mixrec``, else ``~/.cache/mixrec``),
under a name keyed by a hash of the source, the flags and the compiler's
version, and returns its bound entry points as a ``Kernel``. The library is
written under a temporary name and renamed into place, so concurrent
processes never load a half-written file. Without a working compiler it
logs one warning and returns None: the sampler runs its Python sweep and
scipy's log-gamma, the retrievers their numpy selection and the embedding
trainer its numpy update.

``Kernel.sweep`` is a transcription of ``ChunkModel._sweep_python``, which
is its reference: the same uniforms, the same sorted-row table updates and
the same floating-point expressions in the same order. ``-ffp-contract=off``
keeps the compiler from fusing a multiply and an add into one rounding, and
no flag that reassociates arithmetic (``-ffast-math``) or tunes for the
build machine (``-march=native``) is used, so both sweeps produce the same
bits.

The three retrieval entry points each answer one query; their reference is
the numpy path of ``mixrec.retrieval``. ``mixture`` adds theta_k * prob into
the pool positions of the user's interest lists in the order of ``ks``.
Interest k's list is its counted entries, then its floor run: every other
pool position below ``fend[k]``, each with ``floors[k]``. The run is walked
64 positions to a bitmap word, skipping the counted entries, so each
position gets one term per interest, in the order of ``ks`` (as
``np.bincount`` adds them, so each sum keeps its bits). ``mixture`` trusts
``ks`` as it trusts the positions and run ends: ``InterestIndex`` checks
them. It records each position in a touched list the first time a term
reaches it (one bit per pool position marks it) and offers only the
touched ones, so no call zeroes a sum or scans a position the lists do not
reach.
``cosine`` scores ``dots / (norms * un)``, or -inf where a norm is 0. Both
keep the best M by (score descending with NaN last, item ascending) in a
bounded heap, which is then sorted. A candidate is looked up in the user's
ascending seen ids (by binary search) only when the heap would take it, so
most candidates cost one comparison with the root; a seen one is never
pushed, so the heap goes through the states it would go through without
it. The order is total over distinct items, so the offer order does not
change the result. ``walk`` gives the positions of the first M unseen
entries of a ranked item array. All three first check in one pass that the
seen ids do not decrease, which the binary search needs, and return -3
when they do.

``row_mean`` is one embedding SGD update; its reference is the numpy
``mixrec.embeddings._apply_row_mean``. It forms each example's gradient as
``scal[j] * vecs[vidx[j]]`` (or takes ``vecs[j]``), adds each touched row's
gradients from 0.0 in example order (``np.bincount``'s input order) and
sets ``emb[r] - (lr * sum) / count``, the numpy expression, so the table
gets the same bits.

``gammaln`` is log-gamma elementwise over an array, for the sampler's
log-joint; its reference is ``scipy.special.gammaln``. It transcribes the
Cephes ``lgam`` (Moshier 1989) that scipy computes, for x > 0: the
recurrence into [2, 3) with the B/C rational below 13, Stirling's series
with the A polynomial up to 1000, the short series up to 1e8 and the bare
one above, +inf above ``MAXLGM`` and for +inf. It gives scipy's bits, a
subnormal's +inf included. An x that is not > 0 (NaN included) takes
Cephes branches it leaves out, so it writes nothing and returns -2, and the
sampler raises ``ValueError``. Without a compiler the sampler imports
scipy for it; with one, a backtest or CLI process never imports scipy.

The entry points hold no static state and allocate their work space per
call, so threads may share them.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["Kernel", "arg", "load_kernel"]

logger = logging.getLogger(__name__)

CC = "gcc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;

/* first position in the sorted row ks[lo, lo+n) whose interest is >= k */
static i64 find(const i64 *ks, i64 lo, i64 n, i64 k)
{
    i64 a = lo, b = lo + n;
    while (a < b) {
        i64 m = a + (b - a) / 2;
        if (ks[m] < k)
            a = m + 1;
        else
            b = m;
    }
    return a;
}

static i64 get(const i64 *ks, const i64 *cs, i64 lo, i64 n, i64 k)
{
    i64 q = find(ks, lo, n, k);
    return q < lo + n && ks[q] == k ? cs[q] : 0;
}

/* add d to interest k of row r (start lo, fill[r] entries): an entry that
   reaches 0 is dropped, a missing one inserted, so rows stay sorted */
static void add(i64 *ks, i64 *cs, i64 *fill, i64 r, i64 lo, i64 k, i64 d)
{
    i64 n = fill[r], q = find(ks, lo, n, k), end = lo + n;
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

/* One scan-order sweep. out[0] = changed, out[1] = uniform fallbacks,
   *dlj = summed log weight ratios of the changes. */
void mixrec_sweep(
    i64 R, const i64 *ptr, const i64 *offs, const i64 *lens,
    const i64 *cand, i64 *uk,
    const i64 *cptr, i64 *ck, i64 *cc, i64 *cfill,
    const i64 *irow, const i64 *iptr, i64 *ik, i64 *ic, i64 *ifill,
    i64 *nk, i64 K, i64 *zpos, const double *u01,
    double alpha, double beta, double Ibeta,
    double *wbuf, i64 *out, double *dlj_out)
{
    i64 changed = 0, under = 0;
    double dlj = 0.0;
    for (i64 r = 0; r < R; r++) {
        for (i64 j = ptr[r]; j < ptr[r + 1]; j++) {
            i64 ir = irow[j], ilo = iptr[ir];
            if (offs[r] >= 0) {
                i64 off = offs[r], L = lens[r];
                i64 p_old = zpos[j], k_old = cand[off + p_old], p_new, k_new;
                double tot = 0.0;
                uk[off + p_old] -= 1;
                add(ik, ic, ifill, ir, ilo, k_old, -1);
                nk[k_old] -= 1;
                for (i64 p = 0; p < L; p++) {
                    i64 k = cand[off + p];
                    tot += (alpha + (double)uk[off + p]) * (beta + (double)get(ik, ic, ilo, ifill[ir], k))
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
                    double w_old = (alpha + (double)uk[off + p_old])
                                   * (beta + (double)get(ik, ic, ilo, ifill[ir], k_old))
                                   / (Ibeta + (double)nk[k_old]);
                    double w_new = (alpha + (double)uk[off + p_new])
                                   * (beta + (double)get(ik, ic, ilo, ifill[ir], k_new))
                                   / (Ibeta + (double)nk[k_new]);
                    changed++;
                    dlj += log(w_new) - log(w_old);
                    zpos[j] = p_new;
                }
                uk[off + p_new] += 1;
                add(ik, ic, ifill, ir, ilo, k_new, 1);
                nk[k_new] += 1;
            } else {
                i64 clo = cptr[r], k_old = zpos[j], k_new;
                i64 qi, qi_end, qc, qc_end;
                double tot = 0.0;
                add(ck, cc, cfill, r, clo, k_old, -1);
                add(ik, ic, ifill, ir, ilo, k_old, -1);
                nk[k_old] -= 1;
                /* dense weights over all K; both sorted rows are walked once */
                qi = ilo, qi_end = ilo + ifill[ir], qc = clo, qc_end = clo + cfill[r];
                for (i64 k = 0; k < K; k++) {
                    double n_ik = 0.0, n_uk = 0.0;
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
                    double w_old = (alpha + (double)get(ck, cc, clo, cfill[r], k_old))
                                   * (beta + (double)get(ik, ic, ilo, ifill[ir], k_old))
                                   / (Ibeta + (double)nk[k_old]);
                    double w_new = (alpha + (double)get(ck, cc, clo, cfill[r], k_new))
                                   * (beta + (double)get(ik, ic, ilo, ifill[ir], k_new))
                                   / (Ibeta + (double)nk[k_new]);
                    changed++;
                    dlj += log(w_new) - log(w_old);
                    zpos[j] = k_new;
                }
                add(ck, cc, cfill, r, clo, k_new, 1);
                add(ik, ic, ifill, ir, ilo, k_new, 1);
                nk[k_new] += 1;
            }
        }
    }
    out[0] = changed;
    out[1] = under;
    *dlj_out = dlj;
}

/* -- top-M selection ---------------------------------------------------- */

/* candidate a ranks before b: score descending, NaN last, ties by item */
static int ahead(double sa, i64 ia, double sb, i64 ib)
{
    if (sa > sb)
        return 1;
    if (sa < sb)
        return 0;
    if (sa == sb)
        return ia < ib;
    /* unordered: at least one score is NaN */
    int na = isnan(sa), nb = isnan(sb);
    return na == nb ? ia < ib : nb;
}

static int is_seen(const i64 *seen, i64 ns, i64 item)
{
    i64 q = find(seen, 0, ns, item);
    return q < ns && seen[q] == item;
}

/* The best M candidates offered so far: a heap whose root ranks last. The
   sifts carry one candidate down or up a hole, writing each level once. */
typedef struct {
    i64 *items;
    double *scores;
    i64 n, M;
} top_t;

/* fill hole r of the heap's first n entries with (item, score), moving it
   down until no child ranks last of the three */
static void sift_down(top_t *t, i64 r, i64 n, i64 item, double score)
{
    for (;;) {
        i64 c = 2 * r + 1;
        if (c >= n)
            break;
        if (c + 1 < n && ahead(t->scores[c], t->items[c], t->scores[c + 1], t->items[c + 1]))
            c++;
        if (!ahead(score, item, t->scores[c], t->items[c]))
            break;
        t->items[r] = t->items[c];
        t->scores[r] = t->scores[c];
        r = c;
    }
    t->items[r] = item;
    t->scores[r] = score;
}

/* Offer a candidate: it enters when the heap is not full or it ranks
   before the root. Only then is it looked up in the ascending seen ids, so
   a seen candidate is never pushed and the heap goes through the states it
   would go through had the seen ids been dropped first. */
static void offer(top_t *t, i64 item, double score, const i64 *seen, i64 ns)
{
    if (t->n < t->M) {
        if (is_seen(seen, ns, item))
            return;
        i64 c = t->n++;
        while (c > 0) {
            i64 p = (c - 1) / 2;
            if (!ahead(t->scores[p], t->items[p], score, item))
                break;
            t->items[c] = t->items[p];
            t->scores[c] = t->scores[p];
            c = p;
        }
        t->items[c] = item;
        t->scores[c] = score;
    } else if (t->M > 0 && ahead(score, item, t->scores[0], t->items[0]) && !is_seen(seen, ns, item)) {
        sift_down(t, 0, t->n, item, score);
    }
}

/* sort the heap in place into rank order; returns the count. The order is
   total over distinct items, so the result does not depend on the order
   in which the candidates were offered. */
static i64 finish(top_t *t)
{
    for (i64 end = t->n - 1; end > 0; end--) {
        i64 item = t->items[end];
        double score = t->scores[end];
        t->items[end] = t->items[0];
        t->scores[end] = t->scores[0];
        sift_down(t, 0, end, item, score);
    }
    return t->n;
}

/* 1 when seen[0:ns] does not decrease, which is_seen's binary search needs */
static int ascending(const i64 *seen, i64 ns)
{
    for (i64 i = 1; i < ns; i++)
        if (seen[i] < seen[i - 1])
            return 0;
    return 1;
}

typedef unsigned long long u64;

/* Top M by the mixture sum over a of theta[a] * prob across the list of
   interest k = ks[a]: its counted entries positions[ptr[k]:ptr[k+1]] into
   the pool with probs, then its floor run, every other pool position below
   fend[k] with floors[k]. The index checked every interest, position and
   run end when it was built. Only positions some term touched are
   candidates: each is recorded in touched[] (and marked in a bitmap of one
   bit per pool position) the first time a term reaches it, its sum set to
   0.0 there, and only the touched positions are offered. Returns the count
   written to out_items/out_scores, -1 when out of memory, or -3 when seen
   is not ascending. */
i64 mixrec_mixture(
    i64 nks, const i64 *ks, const double *theta,
    const i64 *ptr, const i64 *positions, const double *probs,
    const double *floors, const i64 *fend,
    i64 n, const i64 *pool, const i64 *seen, i64 ns, i64 M,
    i64 *out_items, double *out_scores)
{
    if (!ascending(seen, ns))
        return -3;
    i64 nt = 0, words = n / 64 + 1;
    double *acc = malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    /* mark: the touched positions; member: the current interest's counted ones */
    u64 *mark = calloc((size_t)(2 * words), sizeof(u64)), *member = mark + words;
    i64 *touched = malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    top_t top = {out_items, out_scores, 0, M};
    if (!acc || !mark || !touched) {
        free(acc);
        free(mark);
        free(touched);
        return -1;
    }
    for (i64 a = 0; a < nks; a++) {
        double w = theta[a];
        i64 k = ks[a], lo = ptr[k], hi = ptr[k + 1], end = fend[k];
        for (i64 j = lo; j < hi; j++) {
            i64 p = positions[j];
            u64 bit = 1ULL << (p & 63);
            if (!(mark[p >> 6] & bit)) {
                /* every sum starts from 0.0, as np.bincount's does */
                mark[p >> 6] |= bit;
                acc[p] = 0.0;
                touched[nt++] = p;
            }
            acc[p] += w * probs[j];
            member[p >> 6] |= bit;
        }
        /* the run 64 positions at a time: one product, one term per
           position that is not a member */
        double v = w * floors[k];
        for (i64 b = 0; b * 64 < end; b++) {
            u64 run = ~member[b], fresh;
            if (end - b * 64 < 64)
                run &= (1ULL << (end - b * 64)) - 1;
            fresh = run & ~mark[b];
            mark[b] |= fresh;
            for (; fresh; fresh &= fresh - 1) {
                acc[b * 64 + __builtin_ctzll(fresh)] = 0.0;
                touched[nt++] = b * 64 + __builtin_ctzll(fresh);
            }
            for (; run; run &= run - 1)
                acc[b * 64 + __builtin_ctzll(run)] += v;
        }
        for (i64 j = lo; j < hi; j++)
            member[positions[j] >> 6] = 0;
    }
    for (i64 s = 0; s < nt; s++)
        offer(&top, pool[touched[s]], acc[touched[s]], seen, ns);
    free(acc);
    free(mark);
    free(touched);
    return finish(&top);
}

/* Top M of the pool by cosine dots[i] / (norms[i] * un), -inf where a norm
   is not positive. Returns the count written, or -3 when seen is not
   ascending. */
i64 mixrec_cosine(
    i64 n, const i64 *pool, const double *dots, const double *norms, double un,
    const i64 *seen, i64 ns, i64 M, i64 *out_items, double *out_scores)
{
    if (!ascending(seen, ns))
        return -3;
    top_t top = {out_items, out_scores, 0, M};
    for (i64 i = 0; i < n; i++)
        offer(&top, pool[i], norms[i] > 0.0 ? dots[i] / (norms[i] * un) : -INFINITY, seen, ns);
    return finish(&top);
}

/* Positions of the first M entries of items[0:n] not in seen. Returns the
   count written to out_pos, or -3 when seen is not ascending. */
i64 mixrec_walk(i64 n, const i64 *items, const i64 *seen, i64 ns, i64 M, i64 *out_pos)
{
    if (!ascending(seen, ns))
        return -3;
    i64 kept = 0;
    for (i64 i = 0; i < n && kept < M; i++)
        if (!is_seen(seen, ns, items[i]))
            out_pos[kept++] = i;
    return kept;
}

/* -- embedding SGD ------------------------------------------------------ */

/* One row-mean SGD step on the nrows x D table emb: each distinct row r of
   rows[0:m] becomes emb[r] - (lr * acc[r]) / count[r], where acc[r] adds to
   0.0, in j order, the gradient of every j with rows[j] == r (np.bincount's
   input order, so each sum keeps its bits). The gradient of j is
   scal[j] * vecs[vidx[j]], or vecs[j] when scal is NULL; vecs has nv rows.
   Returns 0, -1 when out of memory, or -2 (emb untouched) when a row or a
   vector index is out of range. */
i64 mixrec_row_mean(
    i64 m, const i64 *rows, const double *scal, const i64 *vidx,
    const double *vecs, i64 nv, i64 D, double lr, double *emb, i64 nrows)
{
    for (i64 j = 0; j < m; j++)
        if (rows[j] < 0 || rows[j] >= nrows || (scal ? vidx[j] < 0 || vidx[j] >= nv : j >= nv))
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
        double *s = acc + a * D;
        count[a]++;
        if (scal) {
            const double *v = vecs + vidx[j] * D;
            double c = scal[j];
            for (i64 d = 0; d < D; d++)
                s[d] += c * v[d];
        } else {
            const double *v = vecs + j * D;
            for (i64 d = 0; d < D; d++)
                s[d] += v[d];
        }
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

/* -- log-gamma ---------------------------------------------------------- */

/* Cephes lgam (Moshier 1989) for x > 0, the algorithm and the constants of
   scipy.special.gammaln: the recurrence into [2, 3) and the B/C rational
   below 13, Stirling's series with the A polynomial above, the short series
   from 1000 and the bare series above 1e8. */
static const double LG_A[] = {
    8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
    -2.77777777730099687205E-3, 8.33333333333331927722E-2};
static const double LG_B[] = {
    -1.37825152569120859100E3, -3.88016315134637840924E4, -3.31612992738871184744E5,
    -1.16237097492762307383E6, -1.72173700820839662146E6, -8.53555664245765465627E5};
/* the leading coefficient, 1, is implicit */
static const double LG_C[] = {
    -3.51815701436523470549E2, -1.70642106651881159223E4, -2.20528590553854454839E5,
    -1.13933444367982507207E6, -2.53252307177582951285E6, -2.01889141433532773231E6};
#define LS2PI 0.91893853320467274178 /* log(sqrt(2 pi)) */
#define MAXLGM 2.556348e305

/* Horner's rule over coef[0..n], leading coefficient first (Cephes polevl) */
static double polevl(double x, const double *coef, int n)
{
    double ans = coef[0];
    for (int i = 1; i <= n; i++)
        ans = ans * x + coef[i];
    return ans;
}

/* the same with an implicit leading 1 before coef[0..n-1] (Cephes p1evl) */
static double p1evl(double x, const double *coef, int n)
{
    double ans = x + coef[0];
    for (int i = 1; i < n; i++)
        ans = ans * x + coef[i];
    return ans;
}

static double lgam(double x)
{
    double p, q, u, z;
    /* Cephes returns a non-finite x as it is; of those only +inf gets here */
    if (!isfinite(x))
        return x;
    if (x < 13.0) {
        z = 1.0;
        p = 0.0;
        u = x;
        while (u >= 3.0) {
            p -= 1.0;
            u = x + p;
            z *= u;
        }
        while (u < 2.0) {
            z /= u;
            p += 1.0;
            u = x + p;
        }
        if (u == 2.0)
            return log(z);
        p -= 2.0;
        x = x + p;
        p = x * polevl(x, LG_B, 5) / p1evl(x, LG_C, 6);
        return log(z) + p;
    }
    if (x > MAXLGM)
        return INFINITY;
    q = (x - 0.5) * log(x) - x + LS2PI;
    if (x > 1.0e8)
        return q;
    p = 1.0 / (x * x);
    if (x >= 1000.0)
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x;
    else
        q += polevl(p, LG_A, 4) / x;
    return q;
}

/* out[i] = log(gamma(x[i])) for i < n. Returns n, or -2 (out untouched)
   when some x[i] is not > 0, NaN included: Cephes takes other branches
   there, which this transcription leaves out. */
i64 mixrec_gammaln(i64 n, const double *x, double *out)
{
    for (i64 i = 0; i < n; i++)
        if (!(x[i] > 0.0))
            return -2;
    for (i64 i = 0; i < n; i++)
        out[i] = lgam(x[i]);
    return n;
}
"""

_I64 = np.ctypeslib.ndpointer(dtype=np.int64, ndim=1, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1, flags="C_CONTIGUOUS")
_ll, _dbl = ctypes.c_longlong, ctypes.c_double
_ARGTYPES = (
    [_ll, _I64, _I64, _I64, _I64, _I64]  # R, ptr, offs, lens, cand, uk
    + [_I64] * 4  # cptr, ck, cc, cfill
    + [_I64] * 5  # irow, iptr, ik, ic, ifill
    + [_I64, _ll, _I64, _F64]  # nk, K, zpos, u01
    + [_dbl] * 3  # alpha, beta, Ibeta
    + [_F64, _I64, ctypes.POINTER(_dbl)]  # wbuf, out, dlj
)
# The retrieval entry points run once per query and ``row_mean`` once per
# SGD batch, so they take raw pointers (``ctypes.c_void_p``, see ``arg``):
# checking an ``ndpointer`` costs microseconds.
_ptr = ctypes.c_void_p
_POINTER_ARGTYPES = {
    # nks, ks, theta, ptr, positions, probs, floors, fend, n, pool, seen, ns, M, out_items, out_scores
    "mixture": [_ll, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ll, _ptr, _ptr, _ll, _ll, _ptr, _ptr],
    # n, pool, dots, norms, un, seen, ns, M, out_items, out_scores
    "cosine": [_ll, _ptr, _ptr, _ptr, _dbl, _ptr, _ll, _ll, _ptr, _ptr],
    # n, items, seen, ns, M, out_pos
    "walk": [_ll, _ptr, _ptr, _ll, _ll, _ptr],
    # m, rows, scal, vidx, vecs, nv, D, lr, emb, nrows
    "row_mean": [_ll, _ptr, _ptr, _ptr, _ptr, _ll, _ll, _dbl, _ptr, _ll],
    # n, x, out
    "gammaln": [_ll, _ptr, _ptr],
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
    gammaln: Callable[..., int]


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
        key = hashlib.sha256("\0".join([C_SOURCE, *FLAGS, version]).encode()).hexdigest()[:16]
        path = _cache_dir() / f"kernel-{key}.so"
        if not path.exists():
            _compile(path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        logger.warning(
            "cannot build the compiled kernels (%s); falling back to Python and numpy", str(detail).strip()
        )
        logger.info("Gibbs sweep: Python; top-M selection and embedding SGD update: numpy; log-gamma: scipy")
        return None
    lib.mixrec_sweep.argtypes = _ARGTYPES
    lib.mixrec_sweep.restype = None
    for name, argtypes in _POINTER_ARGTYPES.items():
        fn = getattr(lib, f"mixrec_{name}")
        fn.argtypes = argtypes
        fn.restype = _ll
    logger.info("Gibbs sweep, top-M selection, embedding SGD update and log-gamma: compiled kernel %s", path)
    return Kernel(
        lib.mixrec_sweep, lib.mixrec_mixture, lib.mixrec_cosine, lib.mixrec_walk, lib.mixrec_row_mean,
        lib.mixrec_gammaln,
    )
