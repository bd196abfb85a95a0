import logging
import zipfile

import numpy as np
import pytest

import mixrec.embeddings
from mixrec import sweep_kernel
from mixrec.embeddings import (
    EmbeddingTable,
    _apply_row_mean,
    _compiled_row_mean,
    _row_sums,
    load_embeddings,
    save_embeddings,
    train_embeddings,
)
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
        for bad in (dict(lr=0.0), dict(lr=-0.1), dict(lr=float("nan")), dict(lr=float("inf")), dict(batch_size=0)):
            with pytest.raises(ValueError):
                train_embeddings(g, dim=4, epochs=1, **bad)

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

    def test_npz_roundtrip(self, tmp_path):
        g = from_raw_edges([0, 1], [0, 1], [0, 0])
        emb = train_embeddings(g, dim=4, epochs=1, seed=0)
        p = tmp_path / "emb.npz"
        save_embeddings(emb, p)
        emb2 = load_embeddings(p)
        assert np.array_equal(emb.user_vectors, emb2.user_vectors)
        assert emb.epoch_losses == pytest.approx(emb2.epoch_losses)

    def test_compressed_npz_loads_same_arrays(self, tmp_path):
        # tables are stored uncompressed; a deflated file of an earlier
        # version loads to the same arrays
        g = from_raw_edges([0, 1, 2, 1], [0, 1, 1, 2], [0, 0, 0, 0])
        emb = train_embeddings(g, dim=4, epochs=2, seed=0)
        stored, deflated = tmp_path / "emb.npz", tmp_path / "old.npz"
        save_embeddings(emb, stored)
        with zipfile.ZipFile(stored) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}
        np.savez_compressed(
            deflated, user_vectors=emb.user_vectors, item_vectors=emb.item_vectors,
            epoch_losses=np.asarray(emb.epoch_losses),
        )
        a, b = load_embeddings(stored), load_embeddings(deflated)
        for x, y in ((a.user_vectors, b.user_vectors), (a.item_vectors, b.item_vectors)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert a.epoch_losses == b.epoch_losses == emb.epoch_losses


def unscaled_row_mean(emb, rows, vecs, lr):
    """The table after the unscaled update, in which example j takes
    ``vecs[j]`` itself: the reference of the user step, which passes
    ``scal = 1.0`` and ``vidx = arange``."""
    out = emb.copy()
    uniq, inv = np.unique(rows, return_inverse=True)
    counts = np.bincount(inv, minlength=len(uniq))
    out[uniq] = emb[uniq] - lr * _row_sums(inv, vecs, len(uniq)) / counts[:, None]
    return out


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
            # the user step's update: scal = 1.0 and vidx = arange
            emb = rng.normal(size=(n, d))
            emb[rng.random((n, d)) < 0.05] = -0.0
            got = emb.copy()
            _apply_row_mean(got, inv, values, 0.3, np.ones(m), np.arange(m))
            assert same_bits(got, unscaled_row_mean(emb, inv, values, 0.3)), trial

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
        # the user step's update on an empty batch and on -0.0 gradients
        emb = np.array([[-0.0, 1.0, 2.0]] * 3)
        cases = ((np.empty(0, dtype=np.int64), empty[:, :3]), (np.array([2, 2]), np.array([[-0.0, -0.0, 1.0]] * 2)))
        for rows, vecs in cases:
            got = emb.copy()
            _apply_row_mean(got, rows, vecs, 0.5, np.ones(len(rows)), np.arange(len(rows)))
            assert same_bits(got, unscaled_row_mean(emb, rows, vecs, 0.5))

    def test_train_embeddings_bits_equal_add_at_run(self, monkeypatch):
        rng = np.random.default_rng(9)
        n = 1500
        users = rng.integers(0, 60, n)
        items = np.minimum(rng.zipf(1.5, n), 80)  # hot items repeat within a batch
        g = from_raw_edges(users, items, np.zeros(n, dtype=int))
        kw = dict(dim=8, epochs=3, negatives=4, seed=5, batch_size=256)
        got = train_embeddings(g, **kw)
        monkeypatch.setattr(mixrec.embeddings, "_row_sums", row_sums_add_at)
        monkeypatch.setattr(mixrec.embeddings, "load_kernel", lambda: None)  # the scatter runs only in numpy
        want = train_embeddings(g, **kw)
        assert same_bits(got.user_vectors, want.user_vectors)
        assert same_bits(got.item_vectors, want.item_vectors)
        assert same_bits(got.epoch_losses, want.epoch_losses)


@pytest.fixture
def kernel():
    k = sweep_kernel.load_kernel()
    if k is None:
        pytest.skip("no C compiler: only the numpy update runs here")
    return k


def hot_graph(seed, n=1500):
    """Users and zipf items, so hot items repeat within a batch."""
    rng = np.random.default_rng(seed)
    users = rng.integers(0, 60, n)
    items = np.minimum(rng.zipf(1.5, n), 80)
    return from_raw_edges(users, items, np.zeros(n, dtype=int))


class TestCompiledRowMean:
    """The kernel's ``row_mean`` leaves the table with the bits of the numpy
    ``_apply_row_mean``, its reference."""

    def both(self, kernel, emb, rows, vecs, lr, scal, vidx):
        """(compiled, numpy) results of one update of a copy of ``emb``."""
        got, want = emb.copy(), emb.copy()
        _compiled_row_mean(kernel, got, rows, vecs, lr, scal, vidx)
        _apply_row_mean(want, rows, vecs, lr, scal, vidx)
        return got, want

    def test_random_instances(self, kernel):
        rng = np.random.default_rng(41)
        for trial in range(300):
            n = int(rng.integers(1, 300))
            d = int(rng.choice([1, 2, 7, 32]))
            b = int(rng.integers(1, 200))
            negatives = int(rng.integers(1, 6))
            hot = int(rng.integers(1, n + 1))  # a small range repeats rows often
            pos = rng.integers(0, hot, b)
            neg = rng.integers(0, hot, (b, negatives))  # rows hit as positive and negative
            if trial % 5 == 0:
                pos[:] = neg[:] = pos[0]  # every example lands in one row
            rows = np.concatenate([pos, neg.reshape(-1)])
            emb = rng.normal(size=(n, d))
            emb[rng.random((n, d)) < 0.05] = -0.0
            lr = float(rng.choice([0.05, 0.3, 1.0 / 3.0]))
            vecs = rng.normal(size=(b, d)) * 10.0 ** rng.uniform(-8, 8, size=(b, 1))
            vecs[rng.random((b, d)) < 0.1] = -0.0
            scal = rng.normal(size=len(rows))
            scal[rng.random(len(rows)) < 0.1] = -0.0
            vidx = np.concatenate([np.arange(b), np.repeat(np.arange(b), negatives)])
            got, want = self.both(kernel, emb, rows, vecs, lr, scal, vidx)
            assert same_bits(got, want), trial
            # the user step's form: one gradient row per example, scaled by 1.0
            got, want = self.both(kernel, emb, pos, vecs, lr, np.ones(b), np.arange(b))
            assert same_bits(got, want) and same_bits(got, unscaled_row_mean(emb, pos, vecs, lr)), trial

    def test_edge_cases(self, kernel):
        # order-sensitive sums: 1e16 + 1 - 1e16 is 0.0, not 1.0
        col = np.array([[1e16], [1.0], [-1e16], [1.0]])
        rows = np.zeros(4, dtype=np.int64)
        for scal in (np.ones(4), np.array([1.0, 1.0, 1.0, 3.0])):
            got, want = self.both(kernel, np.array([[0.5], [2.0]]), rows, col, 0.1, scal, np.arange(4))
            assert same_bits(got, want)
            assert got[1, 0] == 2.0  # an untouched row keeps its value
        # a row whose gradients are all -0.0 sums to +0.0, so -0.0 stays -0.0
        emb, zeros = np.array([[-0.0, 1.0]]), np.array([[-0.0, -0.0]] * 2)
        got, want = self.both(kernel, emb, np.array([0, 0]), zeros, 0.5, np.ones(2), np.arange(2))
        assert same_bits(got, want) and np.signbit(got[0, 0])
        assert same_bits(got, unscaled_row_mean(emb, np.array([0, 0]), zeros, 0.5))
        # an empty batch leaves the table as it is
        nothing = np.empty(0, dtype=np.int64)
        got, want = self.both(kernel, emb, nothing, np.empty((0, 2)), 0.5, np.ones(0), nothing)
        assert same_bits(got, want) and same_bits(got, emb)
        got, want = self.both(
            kernel, np.array([[-0.0]]), np.array([0]), np.array([[2.0]]), 0.5, np.array([-0.0]), np.array([0])
        )
        assert same_bits(got, want) and np.signbit(got[0, 0])
        # one row of D = 1, and lr * sum rounds before the division by the count
        emb = np.array([[0.1]])
        vecs = np.array([[0.7], [0.1], [0.2]])
        got, want = self.both(kernel, emb, np.array([0, 0, 0]), vecs, 0.1, np.ones(3), np.arange(3))
        assert same_bits(got, want)
        assert same_bits(got, emb - (0.1 * ((0.0 + 0.7 + 0.1) + 0.2)) / 3.0)

    def test_rejects_out_of_range_and_bad_shapes(self, kernel):
        emb = np.ones((3, 2))
        vecs = np.ones((2, 2))
        one, at0 = np.ones(1), np.zeros(1, dtype=np.int64)
        for rows, vidx in (
            (np.array([0, 3]), np.arange(2)),
            (np.array([-1, 0]), np.arange(2)),
            (np.array([0, 1]), np.array([0, 2])),
            (np.array([0, 1]), np.array([-1, 0])),
            (np.array([0, 1, 2]), np.arange(3)),  # more examples than gradient rows
        ):
            with pytest.raises(IndexError):
                _compiled_row_mean(kernel, emb, rows, vecs, 0.1, np.ones(len(rows)), vidx)
            assert (emb == 1.0).all()  # untouched
        for scal, vidx in ((np.ones(2), np.arange(3)), (np.ones(3), np.arange(2))):
            with pytest.raises(ValueError, match="differ in length"):
                _compiled_row_mean(kernel, emb, np.array([0, 1, 2]), vecs, 0.1, scal, vidx)
        with pytest.raises(ValueError):
            _compiled_row_mean(kernel, emb, np.array([0]), np.ones((1, 3)), 0.1, one, at0)
        with pytest.raises(ValueError):
            _compiled_row_mean(kernel, emb[:, :1], np.array([0]), np.ones((1, 1)), 0.1, one, at0)

    def test_train_embeddings_bits_equal_numpy_run(self, kernel, monkeypatch):
        g = hot_graph(9)
        kw = dict(dim=8, epochs=3, negatives=4, seed=5, batch_size=256)
        got = train_embeddings(g, **kw)
        monkeypatch.setattr(mixrec.embeddings, "load_kernel", lambda: None)
        want = train_embeddings(g, **kw)
        assert same_bits(got.user_vectors, want.user_vectors)
        assert same_bits(got.item_vectors, want.item_vectors)
        assert same_bits(got.epoch_losses, want.epoch_losses)

    def test_compile_failure_falls_back_identically(self, kernel, monkeypatch, caplog):
        g = hot_graph(10)
        kw = dict(dim=8, epochs=2, negatives=3, seed=6, batch_size=128)
        want = train_embeddings(g, **kw)
        monkeypatch.setattr(sweep_kernel, "CC", "/nonexistent/cc")
        sweep_kernel.load_kernel.cache_clear()
        try:
            with caplog.at_level(logging.INFO, logger="mixrec.sweep_kernel"):
                got = train_embeddings(g, **kw)
            assert sweep_kernel.load_kernel() is None
        finally:
            monkeypatch.undo()
            sweep_kernel.load_kernel.cache_clear()
        logged = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "mixrec.sweep_kernel"]
        assert [level for level, _ in logged] == [logging.WARNING, logging.INFO]
        assert "/nonexistent/cc" in logged[0][1]
        assert "embedding SGD update: numpy" in logged[1][1]
        assert got.user_vectors.tobytes() == want.user_vectors.tobytes()
        assert got.item_vectors.tobytes() == want.item_vectors.tobytes()
        assert got.epoch_losses == want.epoch_losses
