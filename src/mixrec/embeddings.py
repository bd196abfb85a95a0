"""Shallow co-embedding of users and items.

Trains one vector per user and per item so that observed engagements score
above uniformly sampled non-edges: dot-product scoring with logistic loss
and SGD. Single relation type, no feature inputs; embeddings are frozen
after training and never refit during the test period.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import EngagementGraph
from .sweep_kernel import Kernel, arg, load_kernel

__all__ = ["EmbeddingTable", "check_embedding_args", "train_embeddings", "save_embeddings", "load_embeddings"]

logger = logging.getLogger(__name__)


@dataclass
class EmbeddingTable:
    user_vectors: np.ndarray
    item_vectors: np.ndarray
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.user_vectors.shape[1]

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not (np.isfinite(self.user_vectors).all() and np.isfinite(self.item_vectors).all()):
            raise ValueError("embeddings contain non-finite values")


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: ``exp`` only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _row_sums(inv: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``out[r] = sum of values[j] over j with inv[j] == r``, as an (n, D) array.

    One ``bincount`` over the flat cell index ``inv[j] * D + d``. It adds
    each weight to its cell in input order, starting from 0.0, so every
    cell gets the same terms in the same order as ``np.add.at(out, inv,
    values)`` and the result is bit-identical to that scatter, only faster.
    """
    d = values.shape[1]
    flat = (inv[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * d).reshape(n, d)


def _apply_row_mean(
    emb: np.ndarray,
    rows: np.ndarray,
    vecs: np.ndarray,
    lr: float,
    scal: np.ndarray,
    vidx: np.ndarray,
) -> None:
    """SGD step with gradients averaged per touched row.

    The gradient of example j is ``scal[j] * vecs[vidx[j]]`` and it belongs
    to row ``rows[j]``. Rows hit many times in one batch (hot items, prolific
    users) get the mean of their per-example gradients instead of the sum,
    which keeps the step size bounded for any batch composition. The per-row sums come from
    ``_row_sums``, exact to the bit in batch order.

    This numpy form is the reference of the kernel's ``row_mean`` (see
    ``_compiled_row_mean``), which gives the same bits, and the fallback
    when the kernel cannot be built.
    """
    grads = scal[:, None] * vecs[vidx]
    uniq, inv = np.unique(rows, return_inverse=True)
    acc = _row_sums(inv, grads, len(uniq))
    counts = np.bincount(inv, minlength=len(uniq))
    emb[uniq] -= lr * acc / counts[:, None]


def _compiled_row_mean(
    kernel: Kernel,
    emb: np.ndarray,
    rows: np.ndarray,
    vecs: np.ndarray,
    lr: float,
    scal: np.ndarray,
    vidx: np.ndarray,
) -> None:
    """``_apply_row_mean`` in one call of the kernel's ``row_mean``.

    It sums each row's gradients in example order from 0.0 and applies
    ``emb[r] - (lr * sum) / count``, the numpy expression, so the bits are
    the same; the (examples, D) gradient array is never built.
    """
    if not (emb.flags.c_contiguous and emb.flags.writeable and emb.dtype == np.float64 and emb.ndim == 2):
        raise ValueError("the embedding table must be a writable C-contiguous float64 matrix")
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    vecs = np.ascontiguousarray(vecs, dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[1] != emb.shape[1]:
        raise ValueError(f"{vecs.shape} gradient vectors for a table of dimension {emb.shape[1]}")
    scal = np.ascontiguousarray(scal, dtype=np.float64)
    vidx = np.ascontiguousarray(vidx, dtype=np.int64)
    if scal.shape != rows.shape or vidx.shape != rows.shape:
        raise ValueError("rows, scal and vidx differ in length")
    got = kernel.row_mean(
        len(rows), arg(rows), arg(scal), arg(vidx), arg(vecs), len(vecs), emb.shape[1], lr, arg(emb), len(emb)
    )
    if got == -2:
        raise IndexError("a row or gradient index outside its table")
    if got < 0:
        raise MemoryError("the row-mean update could not allocate its work space")


def check_embedding_args(dim: int, epochs: int, negatives: int, lr: float, batch_size: int) -> None:
    """Raise ``ValueError`` for arguments ``train_embeddings`` cannot use."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if negatives < 1:
        raise ValueError("negatives must be >= 1")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr!r}")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")


def train_embeddings(
    train: EngagementGraph,
    dim: int,
    epochs: int,
    negatives: int = 10,
    lr: float = 0.05,
    seed: int = 0,
    batch_size: int = 1024,
) -> EmbeddingTable:
    """SGD with uniform random negative items per positive engagement.

    Per positive (u, i) and sampled negatives i', the loss is
    -log sigmoid(u . i) - sum log sigmoid(-u . i'). Mean per-engagement loss
    is logged each epoch and must trend downward.

    The forward pass is numpy. Each update averages the gradients per touched
    row (``_apply_row_mean``); it runs in one call of the compiled kernel's
    ``row_mean`` when ``load_kernel()`` builds it, with the same bits.
    """
    check_embedding_args(dim, epochs, negatives, lr, batch_size)
    if train.num_edges == 0:
        raise ValueError("cannot train embeddings on an empty graph")

    rng = np.random.default_rng(seed)
    U, I, E = train.num_users, train.num_items, train.num_edges
    scale = 1.0 / np.sqrt(dim)
    u_emb = rng.normal(0.0, scale, size=(U, dim))
    i_emb = rng.normal(0.0, scale, size=(I, dim))
    kernel = load_kernel()
    step = _apply_row_mean if kernel is None else functools.partial(_compiled_row_mean, kernel)

    losses: list[float] = []
    for epoch in range(epochs):
        perm = rng.permutation(E)
        total = 0.0
        for lo in range(0, E, batch_size):
            idx = perm[lo:lo + batch_size]
            b = len(idx)
            us = train.users[idx]
            pos = train.items[idx]
            neg = rng.integers(0, I, size=(b, negatives))

            uv = u_emb[us]
            pv = i_emb[pos]
            nv = i_emb[neg]

            s_pos = np.einsum("bd,bd->b", uv, pv)
            s_neg = np.einsum("bd,bnd->bn", uv, nv)

            total += float(_softplus(-s_pos).sum() + _softplus(s_neg).sum())

            g_pos = _sigmoid(s_pos) - 1.0  # d loss / d s_pos
            g_neg = _sigmoid(s_neg)        # d loss / d s_neg

            # the user rows take du[j] itself (1.0 * du[j] is exact); the item
            # rows [pos, neg.ravel()] take g * uv[j] of their example j
            du = g_pos[:, None] * pv + np.einsum("bn,bnd->bd", g_neg, nv)
            step(u_emb, us, du, lr, np.ones(b), np.arange(b))
            scal = np.concatenate([g_pos, g_neg.reshape(-1)])
            vidx = np.concatenate([np.arange(b), np.repeat(np.arange(b), negatives)])
            step(i_emb, np.concatenate([pos, neg.reshape(-1)]), uv, lr, scal, vidx)

        mean_loss = total / E
        losses.append(mean_loss)
        logger.info("embed epoch=%d mean_loss=%.6f", epoch, mean_loss)

    table = EmbeddingTable(user_vectors=u_emb, item_vectors=i_emb, epoch_losses=losses)
    table.validate()
    if epochs > 1 and losses[-1] >= losses[0]:
        logger.warning(
            "embedding loss did not decrease (first=%.6f last=%.6f)", losses[0], losses[-1]
        )
    return table


def save_embeddings(table: EmbeddingTable, path) -> None:
    # stored, not deflated: float vectors shrink by a few percent at a
    # tenfold cost to write and read; compressed files still load
    np.savez(
        path,
        user_vectors=table.user_vectors,
        item_vectors=table.item_vectors,
        epoch_losses=np.asarray(table.epoch_losses),
    )


def load_embeddings(path) -> EmbeddingTable:
    with np.load(path) as z:
        table = EmbeddingTable(
            user_vectors=z["user_vectors"],
            item_vectors=z["item_vectors"],
            epoch_losses=z["epoch_losses"].tolist(),
        )
    table.validate()
    return table
