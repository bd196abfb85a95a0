import numpy as np
import pytest

import mixrec.embeddings
from mixrec.embeddings import EmbeddingTable, _row_sums, load_embeddings, save_embeddings, train_embeddings
from mixrec.graph import from_raw_edges

from oracles import row_sums_add_at, same_bits


def planted_two_block(rng, users_per_block=100, items_per_block=100, p=0.2):
    """Bipartite graph with two disjoint communities and no cross edges."""
    edges = []
    held_out = []
    for blk in range(2):
        for u in range(users_per_block):
            uu = blk * users_per_block + u
            mask = rng.random(items_per_block) < p
            its = np.flatnonzero(mask)
            rng.shuffle(its)
            for pos, i in enumerate(its):
                ii = blk * items_per_block + int(i)
                if pos == 0 and len(its) > 1:
                    held_out.append((uu, ii, blk))
                else:
                    edges.append((uu, ii))
    return edges, held_out


class TestTrainEmbeddings:
    def test_two_block_recovery(self):
        # plant-and-recover: held-out within-block edges must outscore
        # random cross-block pairs
        rng = np.random.default_rng(0)
        edges, held = planted_two_block(rng)
        users = [e[0] for e in edges]
        items = [e[1] for e in edges]
        g = from_raw_edges(users, items, np.zeros(len(users), dtype=int))
        emb = train_embeddings(g, dim=16, epochs=20, negatives=5, lr=0.2, seed=1, batch_size=512)

        assert emb.epoch_losses[-1] < emb.epoch_losses[0]

        correct = 0
        total = 0
        for uu, ii, blk in held:
            du = g.user_ids.to_dense([uu])[0]
            di = g.item_ids.to_dense([ii])[0]
            s_pos = float(emb.user_vectors[du] @ emb.item_vectors[di])
            # a random item from the other block
            other = rng.integers(0, 100) + (1 - blk) * 100
            try:
                do = g.item_ids.to_dense([other])[0]
            except KeyError:
                continue
            s_neg = float(emb.user_vectors[du] @ emb.item_vectors[do])
            correct += s_pos > s_neg
            total += 1
        assert total > 100
        assert correct / total >= 0.95

    def test_single_edge_one_epoch(self):
        g = from_raw_edges([0], [0], [0])
        emb = train_embeddings(g, dim=4, epochs=1, negatives=1, seed=0)
        assert np.isfinite(emb.user_vectors).all()
        assert np.isfinite(emb.item_vectors).all()
        assert len(emb.epoch_losses) == 1

    def test_reference_configuration_accepted(self):
        # d=128 / 20 epochs must be valid inputs (tiny graph keeps it fast)
        g = from_raw_edges([0, 1, 0], [0, 1, 1], [0, 0, 0])
        emb = train_embeddings(g, dim=128, epochs=20, negatives=2, seed=0)
        assert emb.dim == 128
        assert len(emb.epoch_losses) == 20

    def test_invalid_args(self):
        g = from_raw_edges([0], [0], [0])
        with pytest.raises(ValueError):
            train_embeddings(g, dim=0, epochs=1)
        with pytest.raises(ValueError):
            train_embeddings(g, dim=4, epochs=0)
        with pytest.raises(ValueError):
            train_embeddings(g, dim=4, epochs=1, score_mode="nope")

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        users = rng.integers(0, 30, 200)
        items = rng.integers(0, 40, 200)
        g = from_raw_edges(users, items, np.zeros(200, dtype=int))
        e1 = train_embeddings(g, dim=8, epochs=2, negatives=3, seed=42)
        e2 = train_embeddings(g, dim=8, epochs=2, negatives=3, seed=42)
        assert np.array_equal(e1.user_vectors, e2.user_vectors)
        assert np.array_equal(e1.item_vectors, e2.item_vectors)
        assert e1.epoch_losses == e2.epoch_losses

    def test_translation_mode_trains(self):
        rng = np.random.default_rng(6)
        users = rng.integers(0, 20, 300)
        items = rng.integers(0, 25, 300)
        g = from_raw_edges(users, items, np.zeros(300, dtype=int))
        emb = train_embeddings(g, dim=8, epochs=4, negatives=4, seed=3, score_mode="translation")
        assert emb.epoch_losses[-1] < emb.epoch_losses[0]

    def test_npz_roundtrip(self, tmp_path):
        g = from_raw_edges([0, 1], [0, 1], [0, 0])
        emb = train_embeddings(g, dim=4, epochs=1, seed=0)
        p = tmp_path / "emb.npz"
        save_embeddings(emb, p)
        emb2 = load_embeddings(p)
        assert np.array_equal(emb.user_vectors, emb2.user_vectors)
        assert emb.epoch_losses == pytest.approx(emb2.epoch_losses)


class TestRowSums:
    def test_bits_equal_add_at_on_random_shapes(self):
        rng = np.random.default_rng(21)
        for trial in range(200):
            n = int(rng.integers(1, 400))
            d = int(rng.choice([1, 2, 7, 32, 64]))
            m = int(rng.integers(1, 2000))
            inv = rng.integers(0, n, m)
            if trial % 4 == 0:
                inv[:] = inv[0]  # every term lands in one row
            values = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-8, 8, size=(m, 1))
            values[rng.random((m, d)) < 0.1] = -0.0
            assert same_bits(_row_sums(inv, values, n), row_sums_add_at(inv, values, n)), trial

    def test_edge_shapes(self):
        one = np.array([[1.5, -0.0, 3.0]])
        got = _row_sums(np.array([2]), one, 4)
        assert same_bits(got, row_sums_add_at(np.array([2]), one, 4))
        assert not np.signbit(got[2, 1])  # 0.0 + -0.0 is +0.0, as in the scatter
        col = np.array([[1e16], [1.0], [-1e16], [1.0]])  # order-sensitive sums
        inv = np.zeros(4, dtype=np.int64)
        assert same_bits(_row_sums(inv, col, 1), row_sums_add_at(inv, col, 1))
        empty = np.empty((0, 5))
        assert same_bits(_row_sums(np.empty(0, dtype=np.int64), empty, 3), np.zeros((3, 5)))

    @pytest.mark.parametrize("score_mode", ["dot", "translation"])
    def test_train_embeddings_bits_equal_add_at_run(self, score_mode, monkeypatch):
        rng = np.random.default_rng(9)
        n = 1500
        users = rng.integers(0, 60, n)
        items = np.minimum(rng.zipf(1.5, n), 80)  # hot items repeat within a batch
        g = from_raw_edges(users, items, np.zeros(n, dtype=int))
        kw = dict(dim=8, epochs=3, negatives=4, seed=5, score_mode=score_mode, batch_size=256)
        got = train_embeddings(g, **kw)
        monkeypatch.setattr(mixrec.embeddings, "_row_sums", row_sums_add_at)
        want = train_embeddings(g, **kw)
        assert same_bits(got.user_vectors, want.user_vectors)
        assert same_bits(got.item_vectors, want.item_vectors)
        assert same_bits(got.epoch_losses, want.epoch_losses)
