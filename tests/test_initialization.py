import dataclasses

import numpy as np
import pytest

from mixrec.graph import from_raw_edges
from mixrec.initialization import (
    InconsistentClusterError,
    build_init,
    load_init,
    save_init,
)
from mixrec.npz import write_npz
from mixrec.retrieval import mle_mixture

from oracles import interest_items, mixture_row, same_bits


def graph_of(pairs, num_items=None):
    users = [p[0] for p in pairs]
    items = [p[1] for p in pairs]
    if num_items is not None:
        # pad the id space by touching the last item once from a fresh user
        users = users + [max(users) + 1]
        items = items + [num_items - 1]
    return from_raw_edges(users, items, [0] * len(users))


def save_with(init, path, **members):
    """``init`` saved to ``path`` with ``members`` in place of its own."""
    save_init(init, path)
    with np.load(path) as z:
        arrays = {**z, **members}
    write_npz(path, None, **arrays)


def user_totals(init):
    """N_u0: each user's support counts summed, from the user side."""
    users = np.repeat(np.arange(init.num_users), np.diff(init.support_ptr))
    return np.bincount(users, weights=init.support_n0, minlength=init.num_users).astype(np.int64)


def interest_totals(init):
    """N_k0: each interest's support counts summed, from the user side."""
    return np.bincount(init.support_k, weights=init.support_n0, minlength=init.num_interests).astype(np.int64)


class TestBuildInit:
    def test_single_interest_user(self):
        g = from_raw_edges([0, 0, 0], [0, 1, 2], [0, 0, 0])
        init = build_init(g, item_interest=[7, 7, 7], num_interests=8)
        assert init.support(0).tolist() == [7]
        assert init.support_counts(0).tolist() == [3]
        assert user_totals(init)[0] == 3

    def test_cold_user_empty_support(self):
        g = from_raw_edges([0, 1], [0, 0], [0, 0])
        # user 2 exists in the id space via a wider graph
        from mixrec.graph import EngagementGraph, IdMap

        g = EngagementGraph(
            users=np.array([0, 1]),
            items=np.array([0, 0]),
            chunks=np.array([0, 0]),
            num_users=3,
            num_items=1,
            num_chunks=1,
            user_ids=IdMap(np.arange(3)),
            item_ids=IdMap(np.arange(1)),
        )
        init = build_init(g, item_interest=[0], num_interests=2)
        assert init.is_cold(2)
        assert init.support(2).tolist() == []

    def test_missing_cluster_entry(self):
        g = from_raw_edges([0, 0], [0, 1], [0, 0])
        with pytest.raises(InconsistentClusterError):
            build_init(g, item_interest=[0], num_interests=1)

    def test_out_of_range_interest(self):
        g = from_raw_edges([0], [0], [0])
        with pytest.raises(InconsistentClusterError):
            build_init(g, item_interest=[5], num_interests=2)

    def test_conservation_random(self):
        rng = np.random.default_rng(0)
        E = 10_000
        g = from_raw_edges(
            rng.integers(0, 300, E), rng.integers(0, 500, E), np.zeros(E, dtype=int)
        )
        K = 20
        item_interest = rng.integers(0, K, g.num_items)
        init = build_init(g, item_interest, K)
        n_u0, n_k0 = user_totals(init), interest_totals(init)
        assert init.support_n0.sum() == E
        assert n_k0.sum() == E
        assert n_u0.sum() == E
        assert init.item_n0.sum() == E
        # each total summed from the user side equals the train count
        assert np.array_equal(n_u0, np.bincount(g.users, minlength=g.num_users))
        assert np.array_equal(n_k0, np.bincount(item_interest[g.items], minlength=K))
        # sparsity: support size bounded by both K and the user's count
        sizes = np.diff(init.support_ptr)
        assert np.all(sizes <= np.minimum(K, n_u0))

    def test_invalid_priors(self):
        g = from_raw_edges([0], [0], [0])
        with pytest.raises(ValueError):
            build_init(g, [0], 1, alpha=0.0)
        with pytest.raises(ValueError):
            build_init(g, [0], 1, beta=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 5e-324])
    def test_nonfinite_and_subnormal_priors_rejected(self, bad):
        g = from_raw_edges([0, 1], [0, 1], [0, 0])
        for prior in ("alpha", "beta"):
            with pytest.raises(ValueError, match=prior):
                build_init(g, [0, 1], 2, **{prior: bad})
            init = build_init(g, [0, 1], 2)
            with pytest.raises(ValueError, match=prior):
                dataclasses.replace(init, **{prior: bad})
            # frozen: a made artifact cannot take the bad value afterwards
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(init, prior, bad)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        g = from_raw_edges(rng.integers(0, 20, 100), rng.integers(0, 30, 100), np.zeros(100, int))
        init = build_init(g, rng.integers(0, 5, g.num_items), 5)
        p = tmp_path / "init.npz"
        save_init(init, p)
        init2 = load_init(p)
        assert np.array_equal(init.support_ptr, init2.support_ptr)
        assert np.array_equal(init.support_k, init2.support_k)
        assert np.array_equal(init.support_n0, init2.support_n0)
        assert init.alpha == init2.alpha

    def test_version_1_artifact_refused(self, tmp_path):
        # version 1 kept the sizes, priors and a version number in arrays,
        # and the per-user and per-interest totals as well: its members are
        # not the artifact's fields, so it is refused
        g = from_raw_edges([0, 0, 1], [0, 1, 1], [0, 0, 0])
        init = build_init(g, item_interest=[0, 1], num_interests=2)
        p = tmp_path / "init.npz"
        np.savez_compressed(
            p, version=np.asarray([1]), dims=np.asarray([init.num_users, init.num_items, init.num_interests]),
            priors=np.asarray([init.alpha, init.beta]), support_ptr=init.support_ptr, support_k=init.support_k,
            support_n0=init.support_n0, item_interest=init.item_interest, item_n0=init.item_n0,
            n_u0=user_totals(init), n_k0=interest_totals(init),
        )
        with pytest.raises(ValueError, match=r"init\.npz holds no InitArtifact .*rebuild it in a new output directory"):
            load_init(p)

    @pytest.mark.parametrize("name", ["support_k", "item_interest"])
    def test_interest_out_of_range_rejected(self, tmp_path, name):
        # the compiled sweep indexes K-long buffers by these interests
        g = from_raw_edges([0, 0, 1], [0, 1, 1], [0, 0, 0])
        init = build_init(g, item_interest=[0, 1], num_interests=2)
        values = getattr(init, name).copy()
        values[-1] = 2
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(init, **{name: values})
        save_with(init, tmp_path / "init.npz", **{name: values})
        with pytest.raises(ValueError, match=name):
            load_init(tmp_path / "init.npz")

    @pytest.mark.parametrize("name, bad_value", [
        ("support_ptr", lambda a: a.support_ptr[:-1]),  # one user short
        ("support_ptr", lambda a: np.append(a.support_ptr, a.support_ptr[-1])),  # one user more
        ("support_ptr", lambda a: np.concatenate([[1], a.support_ptr[1:]])),  # not from 0
        ("support_ptr", lambda a: np.append(a.support_ptr[:-1], len(a.support_k) - 1)),  # short of len(support_k)
        ("support_ptr", lambda a: a.support_ptr[[0, 2, 1, 3]]),  # decreasing
        ("support_n0", lambda a: a.support_n0[:-1]),
        ("item_interest", lambda a: a.item_interest[:-1]),
        ("item_interest", lambda a: np.append(a.item_interest, 0)),
        ("item_n0", lambda a: np.append(a.item_n0, 0)),
    ])
    def test_array_length_mismatch_rejected(self, tmp_path, name, bad_value):
        # every length the sweep and the retrieval indexes read by: a
        # mismatch must raise, not index out of bounds or pass silently
        g = from_raw_edges([0, 0, 1, 2], [0, 1, 1, 2], [0, 0, 0, 0])
        init = build_init(g, item_interest=[0, 1, 1], num_interests=3)
        assert init.support_ptr.tolist() == [0, 2, 3, 4]
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(init, **{name: bad_value(init)})
        save_with(init, tmp_path / "init.npz", **{name: bad_value(init)})
        with pytest.raises(ValueError, match=name):
            load_init(tmp_path / "init.npz")

    def test_unsorted_support_rejected(self):
        g = from_raw_edges([0, 0, 1], [0, 1, 1], [0, 0, 0])
        init = build_init(g, item_interest=[0, 1], num_interests=2)
        with pytest.raises(ValueError, match="ascending"):
            dataclasses.replace(init, support_k=init.support_k[[1, 0, 2]])

class TestMleMixture:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_counting_formula(self, seed):
        # the totals against the train graph's own counts, bit for bit, and
        # each interest's items by (p desc, id asc)
        rng = np.random.default_rng(seed)
        E, K = int(rng.integers(50, 3000)), int(rng.integers(1, 30))
        g = from_raw_edges(rng.integers(0, 80, E), rng.zipf(1.5, E) % 200, np.zeros(E, int))
        item_interest = rng.integers(0, K, g.num_items)
        init = build_init(g, item_interest, K)
        mix = mle_mixture(init)
        rows = np.repeat(np.arange(init.num_users), np.diff(init.support_ptr))
        n_u = np.bincount(g.users, minlength=g.num_users)
        assert same_bits(mix.user_w, init.support_n0 / n_u[rows])
        n_k = np.bincount(item_interest[g.items], minlength=K)
        for k in range(K):
            items, ps = interest_items(mix, k)
            assert same_bits(ps, init.item_n0[items] / n_k[k])
            assert set(items.tolist()) == set(np.flatnonzero((item_interest == k) & (init.item_n0 > 0)).tolist())
            assert np.array_equal(items, items[np.lexsort((items, -ps))])

    def test_user_distribution(self):
        g = from_raw_edges([0, 0, 0, 0], [0, 1, 2, 3], [0] * 4)
        init = build_init(g, item_interest=[1, 1, 1, 2], num_interests=3)
        mix = mle_mixture(init)
        ks, ps = mixture_row(mix, 0)
        assert ks.tolist() == [1, 2]
        assert ps.tolist() == pytest.approx([0.75, 0.25])

    def test_single_item_interest(self):
        g = from_raw_edges([0, 1], [0, 0], [0, 0])
        init = build_init(g, item_interest=[4], num_interests=5)
        mix = mle_mixture(init)
        items, ps = interest_items(mix, 4)
        assert items.tolist() == [0]
        assert ps.tolist() == [1.0]

    def test_empty_interest_empty_distribution(self):
        g = from_raw_edges([0], [0], [0])
        init = build_init(g, item_interest=[0], num_interests=3)
        mix = mle_mixture(init)
        items, ps = interest_items(mix, 2)
        assert len(items) == 0 and len(ps) == 0

    def test_rows_normalized(self):
        rng = np.random.default_rng(3)
        g = from_raw_edges(rng.integers(0, 50, 2000), rng.integers(0, 80, 2000), np.zeros(2000, int))
        init = build_init(g, rng.integers(0, 7, g.num_items), 7)
        mix = mle_mixture(init)
        for u in range(g.num_users):
            _, ps = mixture_row(mix, u)
            if len(ps):
                assert ps.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all((ps >= 0) & (ps <= 1))
        for k in range(7):
            _, ps = interest_items(mix, k)
            if len(ps):
                assert ps.sum() == pytest.approx(1.0, abs=1e-9)

    def test_mixture_matches_bruteforce(self):
        # p(i|u) assembled from the mixture equals direct enumeration
        rng = np.random.default_rng(4)
        g = from_raw_edges(rng.integers(0, 10, 500), rng.integers(0, 25, 500), np.zeros(500, int))
        K = 4
        item_interest = rng.integers(0, K, g.num_items)
        init = build_init(g, item_interest, K)
        mix = mle_mixture(init)

        # brute force from raw counts
        cnt_uk = {}
        cnt_ik = {}
        cnt_u = {}
        cnt_k = {}
        for u, i in zip(g.users.tolist(), g.items.tolist()):
            k = int(item_interest[i])
            cnt_uk[(u, k)] = cnt_uk.get((u, k), 0) + 1
            cnt_ik[(i, k)] = cnt_ik.get((i, k), 0) + 1
            cnt_u[u] = cnt_u.get(u, 0) + 1
            cnt_k[k] = cnt_k.get(k, 0) + 1

        for u in range(g.num_users):
            ks, pks = mixture_row(mix, u)
            score = {}
            for k, pk in zip(ks.tolist(), pks.tolist()):
                items, pis = interest_items(mix, k)
                for i, pi in zip(items.tolist(), pis.tolist()):
                    score[i] = score.get(i, 0.0) + pk * pi
            for i in range(g.num_items):
                want = 0.0
                for k in range(K):
                    if (u, k) in cnt_uk and (i, k) in cnt_ik:
                        want += (cnt_uk[(u, k)] / cnt_u[u]) * (cnt_ik[(i, k)] / cnt_k[k])
                assert score.get(i, 0.0) == pytest.approx(want, abs=1e-12)
