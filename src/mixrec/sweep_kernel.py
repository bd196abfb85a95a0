"""The compiled Gibbs sweep: C source, build cache and ``ctypes`` binding.

``load_kernel()`` compiles ``C_SOURCE`` once with the system ``gcc`` into
the user cache (``$XDG_CACHE_HOME/mixrec``, else ``~/.cache/mixrec``),
under a name keyed by a hash of the source, the flags and the compiler's
version, and returns the bound ``mixrec_sweep`` function. The library is
written under a temporary name and renamed into place, so concurrent
processes never load a half-written file. Without a working compiler it
logs one warning and returns None, and the sampler runs its Python sweep.

The kernel is a transcription of ``ChunkModel._sweep_python``, which is
its reference: the same uniforms, the same sorted-row table updates and
the same floating-point expressions in the same order. ``-ffp-contract=off``
keeps the compiler from fusing a multiply and an add into one rounding, and
no flag that reassociates arithmetic (``-ffast-math``) or tunes for the
build machine (``-march=native``) is used, so both sweeps produce the same
bits.
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

import numpy as np

__all__ = ["load_kernel"]

logger = logging.getLogger(__name__)

CC = "gcc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

C_SOURCE = r"""
#include <math.h>
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
def load_kernel():
    """The compiled sweep function, or None when it cannot be built.

    Cached for the process, so the sweep in use is logged once.
    """
    try:
        version = subprocess.run(
            [CC, "--version"], check=True, capture_output=True, text=True, timeout=60
        ).stdout
        key = hashlib.sha256("\0".join([C_SOURCE, *FLAGS, version]).encode()).hexdigest()[:16]
        path = _cache_dir() / f"sweep-{key}.so"
        if not path.exists():
            _compile(path)
        fn = ctypes.CDLL(str(path)).mixrec_sweep
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        logger.warning("cannot build the compiled Gibbs sweep (%s); falling back to Python", str(detail).strip())
        logger.info("Gibbs sweep: Python")
        return None
    fn.argtypes = _ARGTYPES
    fn.restype = None
    logger.info("Gibbs sweep: compiled kernel %s", path)
    return fn
