"""Shallow co-embedding of users and items.

Trains one vector per user and per item so that observed engagements score
above uniformly sampled non-edges: dot-product scoring with logistic loss
and SGD by default, translation scoring as an option. Single relation type,
no feature inputs; embeddings are frozen after training and never refit
during the test period.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import EngagementGraph

__all__ = ["EmbeddingTable", "check_embedding_args", "train_embeddings", "save_embeddings", "load_embeddings"]

logger = logging.getLogger(__name__)

SCORE_MODES = ("dot", "translation")


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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def _apply_row_mean(emb: np.ndarray, rows: np.ndarray, grads: np.ndarray, lr: float) -> None:
    """SGD step with gradients averaged per touched row.

    Rows hit many times in one batch (hot items, prolific users) get the
    mean of their per-example gradients instead of the sum, which keeps the
    step size bounded for any batch composition. The per-row sums come from
    ``_row_sums``, exact to the bit in batch order.
    """
    uniq, inv = np.unique(rows, return_inverse=True)
    acc = _row_sums(inv, grads, len(uniq))
    counts = np.bincount(inv, minlength=len(uniq))
    emb[uniq] -= lr * acc / counts[:, None]


def check_embedding_args(dim: int, epochs: int, negatives: int, score_mode: str) -> None:
    """Raise ``ValueError`` for arguments ``train_embeddings`` cannot use."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if negatives < 1:
        raise ValueError("negatives must be >= 1")
    if score_mode not in SCORE_MODES:
        raise ValueError(f"score_mode must be one of {SCORE_MODES}")


def train_embeddings(
    train: EngagementGraph,
    dim: int,
    epochs: int,
    negatives: int = 10,
    lr: float = 0.05,
    seed: int = 0,
    score_mode: str = "dot",
    batch_size: int = 1024,
) -> EmbeddingTable:
    """SGD with uniform random negative items per positive engagement.

    Per positive (u, i) and sampled negatives i', the loss is
    -log sigmoid(f(u, i)) - sum log sigmoid(-f(u, i')). f is the dot product
    by default; "translation" mode scores b - ||u + r - i||^2 with a learned
    relation vector r and scalar offset b. Mean per-engagement loss is logged
    each epoch and must trend downward.
    """
    check_embedding_args(dim, epochs, negatives, score_mode)
    if train.num_edges == 0:
        raise ValueError("cannot train embeddings on an empty graph")

    rng = np.random.default_rng(seed)
    U, I, E = train.num_users, train.num_items, train.num_edges
    scale = 1.0 / np.sqrt(dim)
    u_emb = rng.normal(0.0, scale, size=(U, dim))
    i_emb = rng.normal(0.0, scale, size=(I, dim))
    rel = np.zeros(dim)
    offset = 0.0
    translation = score_mode == "translation"

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

            if not translation:
                s_pos = np.einsum("bd,bd->b", uv, pv)
                s_neg = np.einsum("bd,bnd->bn", uv, nv)
            else:
                dp = uv + rel - pv
                dn = uv[:, None, :] + rel - nv
                s_pos = offset - np.einsum("bd,bd->b", dp, dp)
                s_neg = offset - np.einsum("bnd,bnd->bn", dn, dn)

            total += float(_softplus(-s_pos).sum() + _softplus(s_neg).sum())

            g_pos = _sigmoid(s_pos) - 1.0  # d loss / d s_pos
            g_neg = _sigmoid(s_neg)        # d loss / d s_neg

            if not translation:
                du = g_pos[:, None] * pv + np.einsum("bn,bnd->bd", g_neg, nv)
                dp_ = g_pos[:, None] * uv
                dn_ = g_neg[:, :, None] * uv[:, None, :]
                _apply_row_mean(u_emb, us, du, lr)
                _apply_row_mean(
                    i_emb,
                    np.concatenate([pos, neg.reshape(-1)]),
                    np.concatenate([dp_, dn_.reshape(-1, dim)]),
                    lr,
                )
            else:
                # d s / d(u or r) = -2*diff, d s / d(item) = +2*diff
                du = g_pos[:, None] * (-2.0 * dp) + np.einsum("bn,bnd->bd", g_neg, -2.0 * dn)
                di_p = g_pos[:, None] * (2.0 * dp)
                di_n = g_neg[:, :, None] * (2.0 * dn)
                dr = du.mean(axis=0)
                doff = float(g_pos.mean() + g_neg.mean(axis=1).mean())
                _apply_row_mean(u_emb, us, du, lr)
                _apply_row_mean(
                    i_emb,
                    np.concatenate([pos, neg.reshape(-1)]),
                    np.concatenate([di_p, di_n.reshape(-1, dim)]),
                    lr,
                )
                rel -= lr * dr
                offset -= lr * doff

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
    np.savez_compressed(
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
