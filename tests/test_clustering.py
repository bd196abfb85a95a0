import numpy as np
import pytest

import mixrec.clustering
from mixrec.clustering import cluster_items, export_cluster_map, load_clusters, save_clusters

from oracles import deflated_and_integer_members, gather_sum_add_at, same_bits


def bumps(rng, n_per=100, K=5, dim=8, noise=0.2):
    """Well-separated directional bumps around orthonormal centers."""
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:K]
    vecs = []
    labels = []
    for k in range(K):
        pts = basis[k] + noise * rng.normal(size=(n_per, dim))
        vecs.append(pts)
        labels += [k] * n_per
    return np.concatenate(vecs), np.asarray(labels)


def purity(assign, labels, K):
    total = 0
    for k in range(K):
        members = labels[assign == k]
        if len(members):
            total += np.bincount(members).max()
    return total / len(labels)


class TestClusterItems:
    def test_k1_all_in_interest_zero(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(20, 4))
        c = cluster_items(vecs, K=1, iters=5, seed=0)
        assert set(c.item_to_interest.tolist()) == {0}
        unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        mean_dir = unit.sum(axis=0)
        mean_dir /= np.linalg.norm(mean_dir)
        assert np.allclose(c.centroids[0], mean_dir, atol=1e-9)

    def test_two_antipodal_groups(self):
        v = np.array([[1.0, 0.0]] * 10 + [[-1.0, 0.0]] * 10)
        c = cluster_items(v, K=2, iters=10, seed=1)
        a = c.item_to_interest
        assert len(set(a[:10].tolist())) == 1
        assert len(set(a[10:].tolist())) == 1
        assert a[0] != a[10]
        # every unit point sits exactly on its centroid
        assert c.objective_history[-1] == pytest.approx(20.0, abs=1e-9)

    def test_five_bump_purity(self):
        # planted-cluster oracle: purity vs true bump labels
        rng = np.random.default_rng(7)
        vecs, labels = bumps(rng)
        c = cluster_items(vecs, K=5, iters=25, seed=3)
        assert purity(c.item_to_interest, labels, 5) >= 0.9

    def test_objective_monotone_on_random_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            n = int(rng.integers(10, 80))
            d = int(rng.integers(2, 10))
            K = int(rng.integers(1, min(8, n) + 1))
            vecs = rng.normal(size=(n, d))
            c = cluster_items(vecs, K=K, iters=12, seed=trial)
            diffs = np.diff(c.objective_history)
            assert np.all(diffs >= -1e-9), f"trial {trial}: objective decreased"

    def test_k_exceeds_items(self):
        with pytest.raises(ValueError):
            cluster_items(np.eye(3), K=4)

    def test_zero_vector_item_goes_to_interest_zero(self):
        vecs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
        c = cluster_items(vecs, K=2, iters=5, seed=0)
        assert c.item_to_interest[0] == 0

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        vecs = rng.normal(size=(50, 6))
        c1 = cluster_items(vecs, K=4, iters=10, seed=9)
        c2 = cluster_items(vecs, K=4, iters=10, seed=9)
        assert np.array_equal(c1.item_to_interest, c2.item_to_interest)
        assert np.array_equal(c1.centroids, c2.centroids)

    def test_centroids_unit_norm(self):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(60, 5)) * rng.uniform(0.1, 10.0, size=(60, 1))
        c = cluster_items(vecs, K=6, iters=8, seed=4)
        assert np.allclose(np.linalg.norm(c.centroids, axis=1), 1.0, atol=1e-6)

    def test_roundtrip_and_export(self, tmp_path):
        rng = np.random.default_rng(4)
        vecs = rng.normal(size=(10, 3))
        c = cluster_items(vecs, K=2, iters=5, seed=0)
        p = tmp_path / "c.npz"
        save_clusters(c, p)
        c2 = load_clusters(p)
        assert np.array_equal(c.item_to_interest, c2.item_to_interest)
        txt = tmp_path / "map.tsv"
        export_cluster_map(c, txt)
        lines = txt.read_text().strip().splitlines()
        assert len(lines) == 10
        assert lines[0] == f"0\t{c.item_to_interest[0]}"

    def test_compressed_npz_loads_same_arrays(self, tmp_path):
        # the float members are stored and the assignment deflated; a file
        # of an earlier version, every member deflated, loads to the same
        # arrays
        rng = np.random.default_rng(5)
        c = cluster_items(rng.normal(size=(30, 4)), K=3, iters=4, seed=1)
        stored, deflated = tmp_path / "c.npz", tmp_path / "old.npz"
        save_clusters(c, stored)
        assert deflated_and_integer_members(stored) == ({"item_to_interest"}, {"item_to_interest"})
        np.savez_compressed(
            deflated, item_to_interest=c.item_to_interest, centroids=c.centroids,
            objective_history=np.asarray(c.objective_history),
        )
        a, b = load_clusters(stored), load_clusters(deflated)
        for x, y in ((a.item_to_interest, b.item_to_interest), (a.centroids, b.centroids)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert a.objective_history == b.objective_history == c.objective_history

    def test_bits_equal_add_at_run(self, monkeypatch):
        rng = np.random.default_rng(13)
        vecs = [rng.normal(size=(400, 16)) * rng.uniform(0.01, 100.0, size=(400, 1))]
        vecs.append(np.repeat(rng.normal(size=(3, 4)), 20, axis=0))  # duplicates force empty-cluster repair
        for v, K in zip(vecs, (40, 10)):
            got = cluster_items(v, K=K, iters=15, seed=2)
            with monkeypatch.context() as mp:
                mp.setattr(mixrec.clustering, "gather_sum", gather_sum_add_at)
                want = cluster_items(v, K=K, iters=15, seed=2)
            assert np.array_equal(got.item_to_interest, want.item_to_interest)
            assert same_bits(got.centroids, want.centroids)
            assert same_bits(got.objective_history, want.objective_history)
