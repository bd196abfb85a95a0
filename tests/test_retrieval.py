import dataclasses
import logging
import sys

import numpy as np
import pytest

import mixrec.retrieval
import mixrec.sweep_kernel as sweep_kernel
from mixrec.embeddings import EmbeddingTable
from mixrec.graph import ChunkSlice
from mixrec.initialization import mle_mixture
from mixrec.retrieval import (
    AnnIndex,
    InterestIndex,
    RetrievalConfig,
    ann_encode_items,
    ann_retrieve,
    build_index,
    chunk_tables,
    build_mle_index,
    batch_retrieve,
    popularity_ranking,
    popularity_retrieve,
    retrieve_mixture,
)
from mixrec.sampler import SamplerConfig, fit_chunk

from oracles import (
    combined_counts, interest_items, interest_list, item_counts, mixture_row, padded_lists, row_sums_add_at,
    same_bits,
)
from test_sampler import make_init


def random_instance(rng, U=6, I=40, K=5, n=120, train_per_user=4):
    """Random init + fitted chunk model for retrieval tests."""
    train_edges = []
    item_interest = rng.integers(0, K, I).tolist()
    for u in range(U):
        for _ in range(train_per_user):
            train_edges.append((u, int(rng.integers(0, I))))
    init = make_init(train_edges, item_interest, K, num_users=U, num_items=I)
    users = rng.integers(0, U, n)
    items = rng.integers(0, I, n)
    slc = ChunkSlice.from_edges(3, users, items)
    m = fit_chunk(slc, init, SamplerConfig(seed=int(rng.integers(10_000))))
    return init, slc, m


def dense_micro_oracle(u, m, init, M, pool=None):
    """Brute-force mixture scoring over the full candidate pool.

    Iterates support interests ascending, accumulating weight * smoothed
    probability per pool item, then argsorts with the (score desc, id asc)
    rule. Interests with no chunk engagements contribute a constant to every
    item and cannot change the ordering, so they are included for fidelity.
    """
    pool = m.item_pool if pool is None else pool
    sup = init.support(u)
    ks, counts = combined_counts(m, u)
    masses = init.alpha + counts.astype(np.float64)
    theta = masses / masses.sum()
    beta, Ibeta = init.beta, init.num_items * init.beta
    nk, table = m.n_kt, item_counts(m)
    scores = np.zeros(len(pool))
    for k, w in zip(ks.tolist(), theta.tolist()):
        total = Ibeta + float(nk[k])
        phi = np.full(len(pool), beta / total)
        for pos, i in enumerate(pool.tolist()):
            c = table.get((i, k), 0)
            if c:
                phi[pos] = (beta + c) / total
        scores += w * phi
    order = np.lexsort((pool, -scores))[:M]
    return pool[order].tolist()


class TestBuildIndex:
    def test_phi_arithmetic_example(self):
        # counts {a:3, b:1} under one interest, beta=0.01, I=100
        init = make_init(
            [(0, 0), (1, 1)], item_interest=[0] * 100, K=1, num_items=100
        )
        init.beta  # alpha/beta defaults: override beta via make_init args
        init2 = make_init(
            [(0, 0), (1, 1)], item_interest=[0] * 100, K=1, num_items=100, beta=0.01
        )
        slc = ChunkSlice.from_edges(1, [0, 0, 0, 1], [5, 5, 5, 6])
        m = fit_chunk(slc, init2, SamplerConfig(seed=0))
        idx = build_index(m, RetrievalConfig(M=2, L=2))
        items, phis = interest_list(idx, 0)
        assert items.tolist() == [5, 6]
        assert phis.tolist() == pytest.approx([3.01 / 5.0, 1.01 / 5.0], abs=1e-12)

    def test_empty_interest_empty_list(self):
        init = make_init([(0, 0)], item_interest=[0, 1], K=2, num_items=2)
        slc = ChunkSlice.from_edges(1, [0], [0])
        m = fit_chunk(slc, init, SamplerConfig(seed=0))
        idx = build_index(m, RetrievalConfig(M=5))
        items, _ = interest_list(idx, 1)
        assert len(items) == 0

    def test_full_truncation_matches_dense_phi(self):
        rng = np.random.default_rng(0)
        init, slc, m = random_instance(rng)
        idx = build_index(m, RetrievalConfig(M=1, L=init.num_items))
        pool = m.item_pool
        nk, table = m.n_kt, item_counts(m)
        for k in range(init.num_interests):
            items, phis = interest_list(idx, k)
            if nk[k] == 0:
                assert len(items) == 0
                continue
            assert len(items) == len(pool)
            total = init.num_items * init.beta + float(nk[k])
            for i, phi in zip(items.tolist(), phis.tolist()):
                c = table.get((i, k), 0)
                assert phi == (init.beta + c) / total

    def test_only_pool_items_appear(self):
        rng = np.random.default_rng(5)
        init, slc, m = random_instance(rng)
        idx = build_index(m, RetrievalConfig(M=3))
        pool = set(m.item_pool.tolist())
        for k in range(init.num_interests):
            items, _ = interest_list(idx, k)
            assert set(items.tolist()) <= pool


    def test_chunk_tables_shared_across_m(self):
        # one chunk_tables(m) serves every M and gives each M's own index
        rng = np.random.default_rng(6)
        init, slc, m = random_instance(rng)
        tables = chunk_tables(m)
        for M, L in ((1, None), (3, 4), (2, init.num_items), (5, 3 * init.num_items)):
            cfg = RetrievalConfig(M=M, L=L)
            got, want = build_index(m, cfg, tables=tables), build_index(m, cfg)
            for name in ("ptr", "positions", "pool_items", "user_ptr", "user_k", "fend"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (M, name)
            for name in ("probs", "user_w", "floor"):
                assert same_bits(getattr(got, name), getattr(want, name)), (M, name)

    def test_lists_match_padded_reference(self):
        # every interest's expanded list equals the padded builder's, ids
        # and probability bits, with L below an interest's member count,
        # between it and the pool size, at and above the pool size, on
        # instances with interests that have no count; the index stores
        # only the counted entries, at most L per interest
        rng = np.random.default_rng(16)
        instances = [random_instance(rng, K=K, I=I, n=n) for K, I, n in ((5, 40, 120), (12, 30, 40), (3, 25, 200))]
        instances.append(random_instance(rng, U=40, I=400, K=240, n=1500, train_per_user=12))
        assert any((m.n_kt == 0).any() for _, _, m in instances)
        for init, slc, m in instances:
            nk, pool = m.n_kt, m.item_pool
            members = np.bincount(m.item_table()[1], minlength=m.K)
            assert members.max() > 2
            sizes = sorted({1, 2, int(members.max()) - 1, int(members.max()) + 1, len(pool) - 1, len(pool), 3 * len(pool)})
            for L in (L for L in sizes if L >= 1):
                idx = build_index(m, RetrievalConfig(M=1, L=L))
                assert len(idx.positions) == np.minimum(members, L).sum(), L
                assert idx.fend.max() <= len(pool) and np.all(idx.fend[nk == 0] == 0), L
                assert np.all(idx.floor[nk == 0] == 0.0), L
                for k, (want_ids, want_probs) in enumerate(padded_lists(m, L)):
                    ids, probs = interest_list(idx, k)
                    assert np.array_equal(ids, want_ids) and same_bits(probs, want_probs), (L, k)
                    # the run ends just after its last position
                    run = np.searchsorted(pool, want_ids[min(members[k], L):])
                    assert idx.fend[k] == (run.max() + 1 if len(run) else 0), (L, k)

class TestRetrieveMicro:
    def test_k1_equals_phi_ranking(self):
        init = make_init([(0, 0), (0, 1)], item_interest=[0, 0, 0, 0], K=1, num_items=4)
        slc = ChunkSlice.from_edges(1, [0, 0, 0], [2, 2, 3])
        m = fit_chunk(slc, init, SamplerConfig(seed=0))
        cfg = RetrievalConfig(M=4, L=4, exclude_seen=False)
        idx = build_index(m, cfg)
        got = retrieve_mixture(0, idx, cfg)
        items, _ = interest_list(idx, 0)
        assert got.item_ids() == items.tolist()

    def test_two_interest_hand_arithmetic(self):
        # theta (0.5, 0.5) over two interests with disjoint item lists
        init = make_init(
            [(0, 0), (0, 1)], item_interest=[0, 1, 0, 1], K=2, num_items=4, alpha=0.5
        )
        slc = ChunkSlice.from_edges(1, [0, 0], [2, 3])
        m = fit_chunk(slc, init, SamplerConfig(seed=1))
        cfg = RetrievalConfig(M=4, L=4, exclude_seen=False)
        idx = build_index(m, cfg)
        got = retrieve_mixture(0, idx, cfg)
        # counts are symmetric: one train + one chunk engagement per interest
        ks, counts = combined_counts(m, 0)
        assert counts.tolist() == [2, 2]
        by_hand = {}
        for k in (0, 1):
            items, phis = interest_list(idx, k)
            for i, p in zip(items.tolist(), phis.tolist()):
                by_hand[i] = by_hand.get(i, 0.0) + 0.5 * p
        want = sorted(by_hand.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
        assert got.item_ids() == [i for i, _ in want]
        for (gi, gs), (wi, ws) in zip(got.items, want):
            assert gs == pytest.approx(ws, rel=1e-12)

    def test_dense_equivalence_random_instances(self):
        # L = pool size, no exclusion: sparse result equals dense argsort
        rng = np.random.default_rng(42)
        for trial in range(30):
            init, slc, m = random_instance(rng)
            cfg = RetrievalConfig(M=10, L=init.num_items, exclude_seen=False)
            idx = build_index(m, cfg)
            for u in range(init.num_users):
                if init.is_cold(u):
                    continue
                got = retrieve_mixture(u, idx, cfg)
                want = dense_micro_oracle(u, m, init, cfg.M)
                assert got.item_ids() == want, f"trial {trial} user {u}"

    def test_exclude_seen(self):
        rng = np.random.default_rng(7)
        init, slc, m = random_instance(rng)
        cfg = RetrievalConfig(M=5, L=init.num_items, exclude_seen=True)
        idx = build_index(m, cfg)
        base = retrieve_mixture(0, idx, cfg, seen=None)
        assert len(base)
        banned = {base.item_ids()[0]}
        got = retrieve_mixture(0, idx, cfg, seen=banned)
        assert banned.isdisjoint(got.item_ids())

    def test_cold_user_popularity_fallback_and_empty(self):
        init = make_init([(0, 0)], item_interest=[0, 0, 0], K=1, num_users=2, num_items=3)
        slc = ChunkSlice.from_edges(1, [0, 0, 0], [1, 1, 2])
        m = fit_chunk(slc, init, SamplerConfig(seed=0))
        cfg = RetrievalConfig(M=2)
        idx = build_index(m, cfg)
        got = retrieve_mixture(1, idx, cfg)
        assert got.item_ids() == [1, 2]  # counts {1:2, 2:1}
        # an index without a popularity ranking has no list for a cold user
        assert retrieve_mixture(1, dataclasses.replace(idx, popularity=None), cfg).items == []

    def test_theta_scale_invariance(self):
        # doubling all unnormalized masses cannot change the ordering
        rng = np.random.default_rng(9)
        init, slc, m = random_instance(rng)
        cfg = RetrievalConfig(M=8, exclude_seen=False)
        idx = build_index(m, cfg)
        for u in range(init.num_users):
            if init.is_cold(u):
                continue
            a = retrieve_mixture(u, idx, cfg)
            ks, counts = combined_counts(m, u)
            masses = init.alpha + counts.astype(np.float64)
            theta = masses / masses.sum()
            scaled = 2.0 * masses
            theta2 = scaled / scaled.sum()
            assert np.allclose(theta, theta2)
            assert a.item_ids() == retrieve_mixture(u, idx, cfg).item_ids()

    def test_top_m_prefix_monotone(self):
        rng = np.random.default_rng(10)
        init, slc, m = random_instance(rng)
        for u in range(init.num_users):
            if init.is_cold(u):
                continue
            prev = None
            for M in (1, 2, 3, 5, 8):
                cfg = RetrievalConfig(M=M, L=init.num_items, exclude_seen=False)
                idx = build_index(m, cfg)
                got = retrieve_mixture(u, idx, cfg).item_ids()
                if prev is not None:
                    assert got[: len(prev)] == prev
                prev = got


class TestRetrieveMle:
    def test_single_interest_user_follows_item_ranking(self):
        init = make_init(
            [(0, 0), (0, 1), (0, 1)], item_interest=[0, 0], K=1, num_items=2
        )
        mix = mle_mixture(init)
        cfg = RetrievalConfig(M=2, exclude_seen=False)
        got = retrieve_mixture(0, build_mle_index(mix, cfg), cfg)
        assert got.item_ids() == [1, 0]  # item 1 has 2 of 3 engagements

    def test_symmetric_interests_equal_scores(self):
        # uniform p(k|u) over two interests with identical item distributions
        init = make_init(
            [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3)],
            item_interest=[0, 0, 1, 1],
            K=2,
            num_items=4,
        )
        mix = mle_mixture(init)
        ks, ps = mixture_row(mix, 0)
        assert ps.tolist() == [0.5, 0.5]
        cfg = RetrievalConfig(M=4, exclude_seen=False)
        got = retrieve_mixture(0, build_mle_index(mix, cfg), cfg)
        # interest 0 items {0:2,1:1}/3, interest 1 items {2:2,3:1}/3: pairwise equal
        scores = dict(got.items)
        assert scores[0] == pytest.approx(scores[2], rel=1e-12)
        assert scores[1] == pytest.approx(scores[3], rel=1e-12)

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            U, I, K = 5, 30, 4
            edges = [(int(rng.integers(U)), int(rng.integers(I))) for _ in range(150)]
            item_interest = rng.integers(0, K, I).tolist()
            init = make_init(edges, item_interest, K, num_users=U, num_items=I)
            mix = mle_mixture(init)
            cfg = RetrievalConfig(M=10, L=I, exclude_seen=False)
            for u in range(U):
                got = retrieve_mixture(u, build_mle_index(mix, cfg), cfg)
                score = {}
                ks, pks = mixture_row(mix, u)
                for k, pk in zip(ks.tolist(), pks.tolist()):
                    items, pis = interest_items(mix, k)
                    for i, pi in zip(items.tolist(), pis.tolist()):
                        score[i] = score.get(i, 0.0) + pk * pi
                want = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
                assert got.item_ids() == [i for i, _ in want]

    def test_allowed_pool_restriction(self):
        init = make_init(
            [(0, 0), (0, 1), (0, 2)], item_interest=[0, 0, 0], K=1, num_items=3
        )
        mix = mle_mixture(init)
        cfg = RetrievalConfig(M=3, exclude_seen=False)
        got = retrieve_mixture(0, build_mle_index(mix, cfg, pool=np.asarray([1, 2])), cfg)
        assert set(got.item_ids()) <= {1, 2}

    def test_index_truncates_before_pool_restriction(self):
        rng = np.random.default_rng(8)
        U, I, K, L = 6, 40, 3, 4
        edges = [(int(rng.integers(U)), int(rng.integers(I))) for _ in range(300)]
        init = make_init(edges, rng.integers(0, K, I).tolist(), K, num_users=U, num_items=I)
        mix = mle_mixture(init)
        cfg = RetrievalConfig(M=2, L=L, exclude_seen=False)
        tops = {}
        for k in range(K):
            items, probs = interest_items(mix, k)
            order = np.lexsort((items, -probs))
            tops[k] = (items[order][:L].tolist(), probs[order][:L].tolist(), items[order][L:].tolist())
        # drop each interest's first and third listed items from the pool
        dropped = {tops[k][0][j] for k in tops for j in (0, 2) if j < len(tops[k][0])}
        pool = np.asarray(sorted(set(range(I)) - dropped), dtype=np.int64)
        idx = build_mle_index(mix, cfg, pool=pool)
        assert idx.pool_items is pool
        promotable = False
        for k, (top, probs, rest) in tops.items():
            want = [(i, p) for i, p in zip(top, probs) if i not in dropped]
            items, got_probs = interest_list(idx, k)
            assert list(zip(items.tolist(), got_probs.tolist())) == want
            assert set(items.tolist()) <= set(top)
            promotable |= len(want) < L and any(i not in dropped for i in rest)
        assert promotable  # restricting first would have promoted an item
        for u in range(U):
            score = {}
            ks, pks = mixture_row(mix, u)
            for k, pk in zip(ks.tolist(), pks.tolist()):
                items, probs = interest_list(idx, k)
                for i, pi in zip(items.tolist(), probs.tolist()):
                    score[i] = score.get(i, 0.0) + pk * pi
            want = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[: cfg.M]
            assert retrieve_mixture(u, idx, cfg).item_ids() == [i for i, _ in want]


class TestAnn:
    def test_single_engaging_user_copies_vector(self):
        emb = EmbeddingTable(
            user_vectors=np.asarray([[1.0, 2.0], [3.0, 4.0]]),
            item_vectors=np.zeros((3, 2)),
        )
        slc = ChunkSlice.from_edges(1, [1], [2])
        idx = ann_encode_items(slc, emb)
        pool, vecs = idx.pool_items, idx.item_vecs
        assert pool.tolist() == [2]
        assert vecs[0].tolist() == [3.0, 4.0]

    def test_opposite_vectors_cancel_and_rank_last(self):
        emb = EmbeddingTable(
            user_vectors=np.asarray([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.5]]),
            item_vectors=np.zeros((2, 2)),
        )
        slc = ChunkSlice.from_edges(1, [0, 1, 2], [0, 0, 1])
        idx = ann_encode_items(slc, emb)
        assert np.allclose(idx.item_vecs[0], 0.0)
        cfg = RetrievalConfig(M=2, exclude_seen=False)
        got = ann_retrieve(2, idx, cfg)
        assert got.item_ids() == [1, 0]  # zero vector ranked last

    def test_identical_vector_ranks_first(self):
        rng = np.random.default_rng(0)
        emb = EmbeddingTable(
            user_vectors=rng.normal(size=(4, 3)), item_vectors=np.zeros((5, 3))
        )
        slc = ChunkSlice.from_edges(1, [0, 1, 2, 3], [0, 1, 2, 3])
        idx = ann_encode_items(slc, emb)
        cfg = RetrievalConfig(M=1, exclude_seen=False)
        got = ann_retrieve(2, idx, cfg)
        assert got.item_ids() == [2]

    def test_duplicate_engagements_weight_mean(self):
        emb = EmbeddingTable(
            user_vectors=np.asarray([[1.0, 0.0], [0.0, 1.0]]),
            item_vectors=np.zeros((1, 2)),
        )
        slc = ChunkSlice.from_edges(1, [0, 0, 1], [0, 0, 0])
        vecs = ann_encode_items(slc, emb).item_vecs
        assert np.allclose(vecs[0], [2.0 / 3.0, 1.0 / 3.0])

    def test_matches_bruteforce_cosine_sort(self):
        rng = np.random.default_rng(8)
        U, I, n = 50, 200, 1000
        emb = EmbeddingTable(
            user_vectors=rng.normal(size=(U, 8)), item_vectors=np.zeros((I, 8))
        )
        slc = ChunkSlice.from_edges(1, rng.integers(0, U, n), rng.integers(0, I, n))
        idx = ann_encode_items(slc, emb)
        pool, vecs = idx.pool_items, idx.item_vecs
        # independent recount of the encoding
        sums = {}
        cnt = {}
        for u, i in zip(slc.users.tolist(), slc.items.tolist()):
            sums[i] = sums.get(i, np.zeros(8)) + emb.user_vectors[u]
            cnt[i] = cnt.get(i, 0) + 1
        for pos, i in enumerate(pool.tolist()):
            assert np.allclose(vecs[pos], sums[i] / cnt[i], atol=1e-12)
        cfg = RetrievalConfig(M=20, exclude_seen=False)
        for u in range(0, U, 7):
            got = ann_retrieve(u, idx, cfg)
            uv = emb.user_vectors[u]
            cos = {}
            for pos, i in enumerate(pool.tolist()):
                nv = np.linalg.norm(vecs[pos])
                cos[i] = float(vecs[pos] @ uv / (nv * np.linalg.norm(uv))) if nv > 0 else -np.inf
            want = sorted(cos.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
            assert got.item_ids() == [i for i, _ in want]

    def test_encode_bits_equal_add_at_run(self, monkeypatch):
        rng = np.random.default_rng(17)
        U, n = 40, 3000
        emb = EmbeddingTable(
            user_vectors=rng.normal(size=(U, 32)) * rng.uniform(1e-6, 1e6, size=(U, 1)),
            item_vectors=np.zeros((300, 32)),
        )
        slc = ChunkSlice.from_edges(1, rng.integers(0, U, n), np.minimum(rng.zipf(1.3, n), 300) - 1)
        got = ann_encode_items(slc, emb)
        monkeypatch.setattr(mixrec.retrieval, "_row_sums", row_sums_add_at)
        want = ann_encode_items(slc, emb)
        assert np.array_equal(got.pool_items, want.pool_items)
        assert same_bits(got.item_vecs, want.item_vecs)
        assert same_bits(got.norms, want.norms)

    def test_zero_user_vector_empty(self):
        emb = EmbeddingTable(
            user_vectors=np.zeros((1, 2)), item_vectors=np.zeros((1, 2))
        )
        slc = ChunkSlice.from_edges(1, [0], [0])
        got = ann_retrieve(0, ann_encode_items(slc, emb), RetrievalConfig(M=1))
        assert got.items == []


class TestPopularity:
    def test_tie_break_example(self):
        slc = ChunkSlice.from_edges(
            1, [0, 1, 2, 3, 4, 5, 6, 7, 8], [0, 0, 0, 0, 0, 1, 1, 2, 2]
        )
        cfg = RetrievalConfig(M=2, exclude_seen=False)
        got = popularity_retrieve(-1, popularity_ranking(slc), cfg)
        assert got.item_ids() == [0, 1]  # counts {0:5, 1:2, 2:2}, 1 < 2

    def test_m_covers_all(self):
        slc = ChunkSlice.from_edges(1, [0, 1, 2], [5, 5, 9])
        got = popularity_retrieve(-1, popularity_ranking(slc), RetrievalConfig(M=10, exclude_seen=False))
        assert got.item_ids() == [5, 9]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(4)
        slc = ChunkSlice.from_edges(1, rng.integers(0, 50, 500), rng.integers(0, 60, 500))
        got = popularity_retrieve(-1, popularity_ranking(slc), RetrievalConfig(M=30, exclude_seen=False))
        cnt = {}
        for i in slc.items.tolist():
            cnt[i] = cnt.get(i, 0) + 1
        want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:30]
        assert got.item_ids() == [i for i, _ in want]

    def test_per_user_exclusion(self):
        slc = ChunkSlice.from_edges(1, [0, 1, 2], [7, 7, 8])
        got = popularity_retrieve(
            0, popularity_ranking(slc), RetrievalConfig(M=1, exclude_seen=True), seen={7}
        )
        assert got.item_ids() == [8]


class TestSeenExclusion:
    """Every retriever gives the same list whether ``seen`` is a Python set
    or an ascending id array, and equals a brute-force ranking of all pool
    candidates by (score desc, item asc) with seen items dropped by ``in``."""

    U, I, K, M = 8, 60, 5, 10
    COLD = U - 1  # no train engagements

    def setup_method(self):
        rng = np.random.default_rng(21)
        item_interest = rng.integers(0, self.K, self.I).tolist()
        train = [(u, int(rng.integers(0, self.I))) for u in range(self.COLD) for _ in range(6)]
        self.init = make_init(train, item_interest, self.K, num_users=self.U, num_items=self.I)
        self.slc = ChunkSlice.from_edges(
            3, rng.integers(0, self.U, 250), rng.integers(0, self.I, 250)
        )
        self.m = fit_chunk(self.slc, self.init, SamplerConfig(seed=5))
        self.item_counts = item_counts(self.m)
        self.cfg = RetrievalConfig(M=self.M, L=self.I)
        self.idx = build_index(self.m, self.cfg)
        self.mix = mle_mixture(self.init)
        self.emb = EmbeddingTable(
            user_vectors=rng.normal(size=(self.U, 4)), item_vectors=np.zeros((self.I, 4))
        )
        self.ann = ann_encode_items(self.slc, self.emb)
        self.ann_pool, self.ann_vecs = self.ann.pool_items, self.ann.item_vecs
        self.pool = self.slc.item_pool.tolist()
        self.rank = popularity_ranking(self.slc)
        self.counts = {i: self.slc.items.tolist().count(i) for i in self.pool}

    def seen_cases(self, rng):
        yield set()
        yield set(rng.choice(self.pool, size=len(self.pool) // 3, replace=False).tolist())
        # ids outside the pool, and outside the item range, mask nothing
        outside = set(range(self.I)) - set(self.pool)
        yield set(rng.choice(self.pool, size=3, replace=False).tolist()) | outside | {self.I + 7, 10**9}
        yield set(self.pool[2:])  # two items left: a short list
        yield set(self.pool) | {self.I + 1}  # nothing left: an empty list

    def micro_scores(self, u):
        ks, counts = combined_counts(self.m, u)
        masses = self.init.alpha + counts.astype(np.float64)
        theta = masses / masses.sum()
        scores = {}
        for k, w in zip(ks.tolist(), theta.tolist()):
            nk = float(self.m.n_kt[k])
            if nk == 0:
                continue  # an interest without chunk engagements has no list
            total = self.init.num_items * self.init.beta + nk
            for i in self.pool:
                phi = (self.init.beta + self.item_counts.get((i, k), 0)) / total
                scores[i] = scores.get(i, 0.0) + w * phi
        return scores

    def mle_scores(self, u, allowed):
        scores = {}
        ks, pks = mixture_row(self.mix, u)
        for k, pk in zip(ks.tolist(), pks.tolist()):
            items, pis = interest_items(self.mix, k)
            for i, pi in zip(items.tolist(), pis.tolist()):
                if allowed is None or i in allowed:
                    scores[i] = scores.get(i, 0.0) + pk * pi
        return scores

    def ann_scores(self, u):
        uv = self.emb.user_vectors[u]
        scores = {}
        for pos, i in enumerate(self.ann_pool.tolist()):
            nv = np.linalg.norm(self.ann_vecs[pos])
            scores[i] = float(self.ann_vecs[pos] @ uv / (nv * np.linalg.norm(uv))) if nv > 0 else -np.inf
        return scores

    def retrievers(self, u):
        """(name, retrieve(seen), brute-force scores) for user ``u``."""
        cfg, allowed = self.cfg, self.slc.item_pool
        warm = not self.init.is_cold(u)
        yield (
            "micro",
            lambda seen: retrieve_mixture(u, self.idx, cfg, seen=seen),
            self.micro_scores(u) if warm else self.counts,
        )
        for name, pool in (("mle", None), ("mle-allowed", allowed)):
            yield (
                name,
                lambda seen, pool=pool: retrieve_mixture(
                    u, build_mle_index(self.mix, cfg, pool, self.rank), cfg, seen=seen
                ),
                self.mle_scores(u, None if pool is None else set(pool.tolist())) if warm else self.counts,
            )
        yield (
            "ann",
            lambda seen: ann_retrieve(u, self.ann, cfg, seen=seen),
            self.ann_scores(u),
        )
        yield (
            "popularity",
            lambda seen: popularity_retrieve(u, self.rank, cfg, seen=seen),
            self.counts,
        )

    def test_set_and_array_match_bruteforce(self):
        rng = np.random.default_rng(22)
        assert self.init.is_cold(self.COLD)
        for seen in self.seen_cases(rng):
            as_array = np.asarray(sorted(seen), dtype=np.int64)
            for u in range(self.U):
                for name, retrieve, scores in self.retrievers(u):
                    got = retrieve(seen)
                    assert got.items == retrieve(as_array).items, f"{name} user {u}"
                    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
                    want = [i for i, _ in ranked if i not in seen][: self.M]
                    assert got.item_ids() == want, f"{name} user {u} seen {sorted(seen)}"

    def test_unsorted_seen_array_rejected(self, monkeypatch):
        # a query's top-M ids in rank order are not ascending: the compiled
        # selection (when built) and the numpy one both raise on them, for
        # every retriever and the cold-user fallback, and accept them sorted
        for u in range(self.U):
            for name, retrieve, _ in self.retrievers(u):
                ids = retrieve(None).ids
                assert np.any(ids[1:] < ids[:-1]), f"{name} user {u}"
                for path in (lambda r: r(), lambda r: on_numpy(monkeypatch, r)):
                    with pytest.raises(ValueError, match="seen item ids must be ascending"):
                        path(lambda: retrieve(ids))
                    assert not set(path(lambda: retrieve(np.sort(ids))).item_ids()) & set(ids.tolist())


@pytest.fixture
def compiled():
    if sweep_kernel.load_kernel() is None:
        pytest.skip("no C compiler: only the numpy selection runs here")


def on_numpy(monkeypatch, retrieve):
    """``retrieve()`` on the numpy path, the kernels' reference."""
    with monkeypatch.context() as mp:
        mp.setattr(mixrec.retrieval, "load_kernel", lambda: None)
        return retrieve()


def assert_same_list(got, want, what=""):
    for c in (got, want):
        assert (c.ids.dtype, c.scores.dtype) == (np.int64, np.float64), what
        assert len(c.ids) == len(c.scores), what
    assert np.array_equal(got.ids, want.ids) and same_bits(got.scores, want.scores), what
    assert got.item_ids() == want.item_ids(), what
    assert same_bits([s for _, s in got.items], [s for _, s in want.items]), what
    assert all(type(i) is int and type(s) is float for i, s in got.items), what
    assert (got.user, got.chunk) == (want.user, want.chunk), what


# a few values, so sums tie across items, with signed zeros and a NaN
TIED = np.array([0.0, -0.0, 0.25, 0.5, 0.5, 1.0, 1e-300, 3.0, np.nan])


class TestCompiledTopM:
    """The compiled selection of every retriever returns the numpy path's
    lists: the same items in the same order and the same score bits."""

    def seen_cases(self, rng, pool):
        """``seen`` as None, a set or an array (ascending ``int64`` and
        ``int32``), with ids outside the pool and up to the whole pool."""
        pool = [int(i) for i in pool]
        outside = {-3, 10**9, max(pool, default=0) + 1}
        some = set(rng.choice(pool, size=len(pool) // 3, replace=False).tolist()) if pool else set()
        yield None
        for seen in (set(), some | outside, set(pool) - set(pool[:2]), set(pool) | outside):
            yield seen
            yield np.asarray(sorted(seen), dtype=np.int64)
        yield np.asarray(sorted(some), dtype=np.int32)

    def random_interest_index(self, rng, n_pool, K, ranking=True):
        pool = np.sort(rng.choice(10 * n_pool + 5, size=n_pool, replace=False)).astype(np.int64)
        lists, probs = [], []
        for _ in range(K):
            size = int(rng.integers(0, n_pool + 1))
            lists.append(rng.choice(n_pool, size=size, replace=False))
            tied = rng.random() < 0.5
            probs.append(rng.choice(TIED[:-1], size) if tied else rng.random(size))
        if n_pool and rng.random() < 0.2:  # a NaN somewhere
            k = int(rng.integers(K))
            probs[k][: min(2, len(probs[k]))] = np.nan
        mixtures = {}
        for u in range(6):
            ks = rng.permutation(K)[: int(rng.integers(0, K + 1))]  # u=0 may be cold
            theta = rng.choice(TIED[:-1], len(ks)) if u % 2 else rng.dirichlet(np.ones(len(ks))) if len(ks) else []
            mixtures[u] = (ks.astype(np.int64), np.asarray(theta, dtype=np.float64))
        mixtures[0] = (np.empty(0, np.int64), np.empty(0))
        counts = rng.integers(0, 4, n_pool)
        order = np.lexsort((pool, -counts))
        rows = [mixtures[u] for u in range(6)]
        return InterestIndex(
            ptr=np.concatenate([[0], np.cumsum([len(x) for x in lists])]).astype(np.int64),
            positions=np.concatenate(lists).astype(np.int64) if K else np.empty(0, np.int64),
            probs=np.concatenate(probs).astype(np.float64) if K else np.empty(0),
            pool_items=pool,
            user_ptr=np.cumsum([0] + [len(ks) for ks, _ in rows]),
            user_k=np.concatenate([ks for ks, _ in rows]),
            user_w=np.concatenate([theta for _, theta in rows]),
            # floor runs: none, part of the pool or all of it, with tied values
            floor=rng.choice(TIED[:-1], K) if rng.random() < 0.5 else rng.random(K),
            fend=rng.choice([0, n_pool // 3, n_pool], K),
            popularity=(pool[order], counts[order]) if ranking else None,
        )

    def check(self, monkeypatch, retrieve, what):
        want = on_numpy(monkeypatch, retrieve)
        assert_same_list(retrieve(), want, what)

    def test_mixture_matches_numpy(self, compiled, monkeypatch):
        rng = np.random.default_rng(31)
        for trial in range(40):
            n_pool = int(rng.choice([0, 1, 5, 30, 120]))
            idx = self.random_interest_index(rng, n_pool, K=int(rng.integers(1, 6)), ranking=trial % 3 > 0)
            for M in (1, 7, 200):
                for exclude in (True, False):
                    cfg = RetrievalConfig(M=M, exclude_seen=exclude)
                    for seen in self.seen_cases(rng, idx.pool_items):
                        for u in range(6):
                            self.check(
                                monkeypatch,
                                lambda: retrieve_mixture(u, idx, cfg, seen=seen, chunk=trial),
                                f"trial {trial} M {M} user {u} seen {seen}",
                            )

    def test_built_indexes_match_numpy(self, compiled, monkeypatch):
        # fitted micro and mle indexes, L below and at or above the pool size
        rng = np.random.default_rng(32)
        U, I, K = 8, 50, 5
        train = [(u, int(rng.integers(I))) for u in range(U - 2) for _ in range(5)]
        init = make_init(train, rng.integers(0, K, I).tolist(), K, num_users=U, num_items=I)
        for t in range(4):
            slc = ChunkSlice.from_edges(2, rng.integers(0, U, 200), rng.integers(0, I, 200))
            m = fit_chunk(slc, init, SamplerConfig(seed=t))
            rank = popularity_ranking(slc)
            for M, L in ((3, None), (5, I), (40, 2 * I)):
                cfg = RetrievalConfig(M=M, L=L)
                indexes = {
                    "micro": build_index(m, cfg, rank),
                    "mle": build_mle_index(mle_mixture(init), cfg, slc.item_pool, rank),
                }
                for name, idx in indexes.items():
                    for seen in self.seen_cases(rng, slc.item_pool):
                        for u in range(U):  # users U-2 and U-1 are cold
                            self.check(
                                monkeypatch,
                                lambda: retrieve_mixture(u, idx, cfg, seen=seen, chunk=3),
                                f"{name} M {M} L {L} user {u}",
                            )

    def test_ann_matches_numpy(self, compiled, monkeypatch):
        rng = np.random.default_rng(33)
        D = 3
        for trial in range(30):
            n_pool = int(rng.choice([0, 1, 6, 40]))
            pool = np.sort(rng.choice(5 * n_pool + 5, size=n_pool, replace=False)).astype(np.int64)
            if trial % 2:  # few values: repeated rows tie, some are orthogonal
                vecs = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(n_pool, D))
                users = rng.choice([-1.0, 0.0, 1.0, 0.3], size=(5, D))
            else:
                vecs, users = rng.normal(size=(n_pool, D)), rng.normal(size=(5, D))
            if n_pool:
                vecs[rng.random(n_pool) < 0.2] = 0.0  # zero norm: -inf
                if trial % 4 == 1:
                    vecs[0] = [np.inf, 0.0, 0.0]  # inf / inf: NaN
            with np.errstate(invalid="ignore", over="ignore"):
                idx = AnnIndex(pool, vecs, np.linalg.norm(vecs, axis=1), users)
                for M in (1, 4, 100):
                    cfg = RetrievalConfig(M=M)
                    for seen in self.seen_cases(rng, pool):
                        for u in range(len(users)):
                            self.check(
                                monkeypatch,
                                lambda: ann_retrieve(u, idx, cfg, seen=seen, chunk=1),
                                f"trial {trial} M {M} user {u} seen {seen}",
                            )

    def test_popularity_matches_numpy(self, compiled, monkeypatch):
        rng = np.random.default_rng(34)
        for trial in range(30):
            n = int(rng.choice([0, 1, 8, 60]))
            slc = ChunkSlice.from_edges(1, rng.integers(0, 9, 3 * n), rng.integers(0, n + 1, 3 * n))
            rank = popularity_ranking(slc)
            for M in (1, 5, 100):
                cfg = RetrievalConfig(M=M)
                for seen in self.seen_cases(rng, rank[0]):
                    self.check(
                        monkeypatch,
                        lambda: popularity_retrieve(4, rank, cfg, seen=seen, chunk=2),
                        f"trial {trial} M {M} seen {seen}",
                    )

    def entry_cases(self, rng, ranking, pool, M):
        """Seen id sets aimed at the heap's entry test, from the unseen
        ranking (``CandidateList``) of one query: the item that would rank
        first; items tying the score at rank M (the full heap's root), some
        or all of them; the whole top M; and all of the pool but M - 1."""
        ids, scores = ranking.ids, ranking.scores
        yield ids[:1]
        if len(ids) >= M:
            root = scores[M - 1]  # ties by value, as -0.0 and 0.0 do, or NaN with NaN
            tie = ids[(scores == root) | (np.isnan(scores) & np.isnan(root))]
            yield tie
            yield tie[::2]
            yield ids[:M]
        keep = rng.choice(pool, size=min(M - 1, len(pool)), replace=False)
        yield np.setdiff1d(pool, keep)

    def check_entry(self, monkeypatch, rng, retrieve, pool, what):
        """``retrieve(M, seen)`` against numpy at M around and beyond the
        pool size, for every ``entry_cases`` seen set."""
        n = len(pool)
        for M in sorted({1, 2, 10, max(1, n // 3), max(1, n - 1), n + (n == 0), n + 3, 5 * n + 1}):
            ranking = on_numpy(monkeypatch, lambda: retrieve(max(M, n + 1), None))
            for seen in self.entry_cases(rng, ranking, pool, M):
                seen = np.sort(np.asarray(seen, dtype=np.int64))
                self.check(monkeypatch, lambda: retrieve(M, seen), f"{what} M {M} seen {seen[:8]}")

    def test_mixture_heap_entry_cases(self, compiled, monkeypatch):
        rng = np.random.default_rng(37)
        for trial in range(12):
            idx = self.random_interest_index(rng, int(rng.choice([1, 6, 40])), K=4)
            for u in range(1, 6):
                self.check_entry(
                    monkeypatch, rng,
                    lambda M, seen: retrieve_mixture(u, idx, RetrievalConfig(M=M), seen=seen, chunk=trial),
                    idx.pool_items, f"trial {trial} user {u}",
                )

    def test_mixture_sparse_lists_on_a_large_pool(self, compiled, monkeypatch):
        # the lists touch under 5% of the pool, in no order of position:
        # only the touched positions are candidates, offered in first-touch
        # order, and no sum may carry over from another query
        rng = np.random.default_rng(38)
        n, K = 20000, 6
        pool = np.sort(rng.choice(5 * n, size=n, replace=False)).astype(np.int64)
        lists = [rng.choice(n, size=int(rng.integers(20, 150)), replace=False) for _ in range(K)]
        lists[1] = np.concatenate([lists[0][:30], lists[1][:60]])  # shared positions
        probs = [rng.choice(TIED[:-1], len(x)) if k % 2 else rng.random(len(x)) for k, x in enumerate(lists)]
        rows = [rng.permutation(K)[: int(rng.integers(1, K + 1))] for _ in range(5)]
        thetas = [rng.choice(TIED[:-1], len(ks)) if u % 2 else rng.dirichlet(np.ones(len(ks))) for u, ks in enumerate(rows)]
        idx = InterestIndex(
            ptr=np.cumsum([0] + [len(x) for x in lists]),
            positions=np.concatenate(lists),
            probs=np.concatenate(probs),
            pool_items=pool,
            user_ptr=np.cumsum([0] + [len(ks) for ks in rows]),
            user_k=np.concatenate(rows),
            user_w=np.concatenate(thetas),
        )
        assert sum(len(x) for x in lists) < 0.05 * n
        for u in range(5):
            touched = pool[np.unique(np.concatenate([lists[k] for k in rows[u]]))]
            for M in (1, 7, 100, len(touched), n):
                cfg = RetrievalConfig(M=M)
                want = on_numpy(monkeypatch, lambda: retrieve_mixture(u, idx, cfg, chunk=1))
                assert len(want) == min(M, len(touched))
                assert set(want.item_ids()) <= set(touched.tolist())
                for seen in (None, want.ids[:1], np.sort(want.ids), np.setdiff1d(pool, touched[: M - 1])):
                    self.check(monkeypatch, lambda: retrieve_mixture(u, idx, cfg, seen=seen, chunk=1), f"user {u} M {M}")

    def test_mixture_floor_head_on_larger_pools(self, compiled, monkeypatch):
        # pools of 200-2000 positions, so runs end inside a bitmap word, and
        # many interests with distinct run ends, so the floor-only positions
        # (below a run end, counted by none of the user's interests) cross
        # from one floor sum to the next; the kernel offers only the first M
        # unseen of them. Seen ids lie in that head and among the counted
        # positions U; floors are all equal in some trials, and the counted
        # probabilities hold TIED values (-0.0 among them) or a NaN
        rng = np.random.default_rng(40)
        for trial in range(12):
            n, K = int(rng.integers(200, 2001)), int(rng.integers(8, 40))
            pool = np.sort(rng.choice(4 * n, size=n, replace=False)).astype(np.int64)
            lists = [rng.choice(n, size=int(rng.integers(0, 30)), replace=False) for _ in range(K)]
            probs = [rng.choice(TIED[:-1], len(x)) if trial % 3 == 1 else rng.random(len(x)) for x in lists]
            if trial % 4 == 3:
                probs[0][:2] = np.nan
            floor = np.full(K, TIED[int(rng.integers(0, 8))]) if trial % 3 == 2 else rng.random(K) / 2
            rows = [rng.permutation(K)[: int(rng.integers(1, K + 1))] for _ in range(4)]
            thetas = [rng.choice(TIED[:-1], len(ks)) if u == 3 else rng.dirichlet(np.ones(len(ks))) for u, ks in enumerate(rows)]
            idx = InterestIndex(
                ptr=np.cumsum([0] + [len(x) for x in lists]),
                positions=np.concatenate(lists),
                probs=np.concatenate(probs),
                pool_items=pool,
                user_ptr=np.cumsum([0] + [len(ks) for ks in rows]),
                user_k=np.concatenate(rows),
                user_w=np.concatenate(thetas),
                floor=floor,
                fend=rng.choice(n + 1, K, replace=False),  # distinct run ends
            )
            for u, ks in enumerate(rows):
                counted = np.unique(np.concatenate([lists[k] for k in ks]))
                head = np.setdiff1d(np.arange(idx.fend[ks].max()), counted)
                assert len(head) and len(np.unique(idx.fend[ks])) == len(ks)
                for M in (1, 2, 7, 60, n - 1, n, n + 4):
                    cfg = RetrievalConfig(M=M)
                    want = on_numpy(monkeypatch, lambda: retrieve_mixture(u, idx, cfg, chunk=trial))
                    cases = (
                        None,
                        want.ids[: M // 2 + 1],
                        pool[head[: M + 2 : 2]],  # in the head
                        pool[head[:M]],  # the whole head the kernel would offer
                        pool[counted[::3]] if len(counted) else None,  # in U
                        np.setdiff1d(pool, pool[rng.choice(n, size=min(M, n) // 2, replace=False)]),
                    )
                    for seen in cases:
                        seen = None if seen is None else np.sort(seen)
                        self.check(
                            monkeypatch,
                            lambda: retrieve_mixture(u, idx, cfg, seen=seen, chunk=trial),
                            f"trial {trial} user {u} M {M}",
                        )

    def test_ann_special_scores_with_prefilter(self, compiled, monkeypatch):
        # one-dimensional vectors against the unit user vector, so each
        # cosine is the vector entry over its norm: NaN, +inf, -inf, -0.0
        # (-1e-300 over a norm of 1e300 underflows to it) and ties among
        # ordinary values, on pools far larger than M so the threshold cuts
        # in; zero norms score -inf
        rng = np.random.default_rng(41)
        special = np.array([np.nan, np.inf, -np.inf, -1e-300, 0.0, 0.5, -0.5, 2.0])
        for trial in range(10):
            n = int(rng.choice([300, 1000, 2500]))
            pool = np.sort(rng.choice(3 * n, size=n, replace=False)).astype(np.int64)
            vals = np.where(rng.random(n) < 0.4, rng.choice(special, n), rng.normal(size=n))
            norms = np.where(vals == -1e-300, 1e300, np.where(rng.random(n) < 0.05, 0.0, 1.0))
            idx = AnnIndex(pool, vals[:, None], norms, np.array([[1.0]]))
            for M in (1, 2, 5, 20, 100):
                cfg = RetrievalConfig(M=M)
                with np.errstate(invalid="ignore"):
                    want = on_numpy(monkeypatch, lambda: ann_retrieve(0, idx, cfg, chunk=trial))
                    for seen in (None, want.ids[: M // 2 + 1], np.sort(rng.choice(pool, n // 3, replace=False))):
                        seen = None if seen is None else np.sort(seen)
                        self.check(
                            monkeypatch, lambda: ann_retrieve(0, idx, cfg, seen=seen, chunk=trial), f"trial {trial} M {M}"
                        )
            scores = on_numpy(monkeypatch, lambda: ann_retrieve(0, idx, RetrievalConfig(M=n), chunk=trial)).scores
            assert np.isnan(scores).any() and np.isinf(scores).any()
            assert (np.signbit(scores) & (scores == 0)).any()

    def test_ann_heap_entry_cases(self, compiled, monkeypatch):
        # few directions, so cosines tie, and zero-norm items scored -inf
        # that enter the list once M passes the positive-norm items
        rng = np.random.default_rng(39)
        for trial in range(12):
            n = int(rng.choice([1, 5, 30]))
            pool = np.sort(rng.choice(4 * n + 3, size=n, replace=False)).astype(np.int64)
            vecs = rng.choice([-1.0, 0.0, 1.0, 2.0], size=(n, 2))
            vecs[rng.random(n) < 0.3] = 0.0
            users = rng.choice([-1.0, 1.0, 0.5], size=(3, 2))
            idx = AnnIndex(pool, vecs, np.linalg.norm(vecs, axis=1), users)
            for u in range(3):
                self.check_entry(
                    monkeypatch, rng,
                    lambda M, seen: ann_retrieve(u, idx, RetrievalConfig(M=M), seen=seen, chunk=2),
                    pool, f"trial {trial} user {u}",
                )

    def test_rejects_out_of_bounds_input(self, compiled):
        pool = np.array([2, 5, 9])
        good = dict(
            ptr=[0, 2, 3], positions=[0, 2, 1], probs=[0.5, 0.3, 0.2], pool_items=pool,
            user_ptr=[0, 2], user_k=[1, 0], user_w=[0.5, 0.5],
        )
        bad = [
            dict(positions=[0, 3, 1]),
            dict(positions=[0, -1, 1]),
            dict(ptr=[0, 2, 4]),
            dict(ptr=[1, 2, 3]),
            dict(ptr=[0, 3, 2, 3]),
            dict(probs=[0.5, 0.3]),
            dict(user_k=[0, 2]),
            dict(user_k=[-1, 0]),
            dict(user_w=[1.0]),
            dict(user_ptr=[0, 3]),
            dict(user_ptr=[1, 2]),
            dict(user_ptr=[0, 2, 1, 2]),
            dict(fend=[0, 4]),
            dict(fend=[-1, 0]),
            dict(fend=[0]),
            dict(floor=[0.1]),
            dict(floor=[0.1, 0.1, 0.1]),
        ]
        for change in bad:
            with pytest.raises(ValueError, match="inconsistent index"):
                InterestIndex(**{**good, **change})
        with pytest.raises(ValueError, match="inconsistent index"):
            AnnIndex(pool, np.ones((2, 3)), np.ones(2), np.ones((1, 3)))
        cfg = RetrievalConfig(M=2)
        assert retrieve_mixture(0, InterestIndex(**good), cfg).item_ids() == [2, 9]
        # interest 0's run adds 0.5 * 0.4 at position 1 (item 5), not at its
        # counted positions 0 and 2; interest 1's adds 0.5 * 0.0 at 0 and 2
        runs = InterestIndex(**good, floor=[0.4, 0.0], fend=[3, 3])
        want = [(5, 0.5 * 0.2 + 0.5 * 0.4), (2, 0.0 + 0.5 * 0.5), (9, 0.0 + 0.5 * 0.3)]
        assert retrieve_mixture(0, runs, RetrievalConfig(M=3)).items == want

    @pytest.mark.parametrize("kernel", [True, False], ids=["compiled", "numpy"])
    def test_rejects_negative_or_non_finite_weights(self, kernel, monkeypatch):
        # the kernel's floor-only positions rank by position only when every
        # weight and floor is finite and >= 0; -0.0 is allowed. The index
        # also needs an ascending pool, as the AnnIndex does
        if not kernel:
            monkeypatch.setattr(mixrec.retrieval, "load_kernel", lambda: None)
        elif sweep_kernel.load_kernel() is None:
            pytest.skip("no C compiler: only the numpy selection runs here")
        pool = np.array([2, 5, 9])
        good = dict(
            ptr=[0, 2, 3], positions=[0, 2, 1], probs=[0.5, 0.3, 0.2], pool_items=pool,
            user_ptr=[0, 2], user_k=[1, 0], user_w=[0.5, -0.0], floor=[0.4, 0.0], fend=[3, 2],
        )
        for name in ("user_w", "floor"):
            for bad in (-1e-300, np.nan, np.inf, -np.inf):
                values = list(good[name])
                values[1] = bad
                with pytest.raises(ValueError, match=f"inconsistent index: {name} must be finite and >= 0"):
                    InterestIndex(**{**good, name: values})
        for bad_pool in ([2, 9, 5], [2, 5, 5]):
            with pytest.raises(ValueError, match="inconsistent index: pool_items must be strictly ascending"):
                InterestIndex(**{**good, "pool_items": bad_pool})
            with pytest.raises(ValueError, match="inconsistent index: pool_items must be strictly ascending"):
                AnnIndex(np.array(bad_pool), np.ones((3, 2)), np.ones(3), np.ones((1, 2)))
        # interest 1 (weight 0.5) counts item 5 and runs over item 2;
        # interest 0 (weight -0.0) counts items 2 and 9 and runs over item 5.
        # Item 9 lies at interest 1's run end, outside its run
        want = [(5, 0.5 * 0.2 + -0.0 * 0.4), (2, 0.0 + 0.5 * 0.0 + -0.0 * 0.5), (9, 0.0 + -0.0 * 0.3)]
        assert retrieve_mixture(0, InterestIndex(**good), RetrievalConfig(M=3)).items == want

    def test_threads_share_the_kernel(self, compiled):
        # batch_retrieve's pool runs the kernel in several threads at once,
        # since ctypes releases the interpreter lock during the call; long
        # lists make the calls overlap
        rng = np.random.default_rng(36)
        idx = self.random_interest_index(rng, 8000, K=8)
        seen = np.sort(rng.choice(idx.pool_items, 40, replace=False))
        cfg = RetrievalConfig(M=50)
        users = list(range(1, 6)) * 40

        def fn(u):
            return retrieve_mixture(u, idx, cfg, seen=seen)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = batch_retrieve(fn, users, RetrievalConfig(M=50, workers=4))
        finally:
            sys.setswitchinterval(interval)
        serial = [fn(u) for u in users]
        assert len(parallel) == len(serial)
        for got, want in zip(parallel, serial):
            assert_same_list(got, want)

    def test_compile_failure_falls_back_identically(self, compiled, monkeypatch, caplog):
        rng = np.random.default_rng(35)
        idx = self.random_interest_index(rng, 50, K=4)
        vecs = rng.normal(size=(50, 3))
        ann = AnnIndex(idx.pool_items, vecs, np.linalg.norm(vecs, axis=1), rng.normal(size=(6, 3)))
        cfg = RetrievalConfig(M=10)
        seen = set(idx.pool_items[::3].tolist())

        def run():
            return [
                c
                for u in range(6)
                for c in (
                    retrieve_mixture(u, idx, cfg, seen=seen),
                    ann_retrieve(u, ann, cfg, seen=seen),
                    popularity_retrieve(u, idx.popularity, cfg, seen=seen),
                )
            ]

        want = run()
        monkeypatch.setattr(sweep_kernel, "CC", "/nonexistent/cc")
        sweep_kernel.load_kernel.cache_clear()
        try:
            with caplog.at_level(logging.INFO, logger="mixrec.sweep_kernel"):
                got = run()
            assert sweep_kernel.load_kernel() is None
        finally:
            monkeypatch.undo()
            sweep_kernel.load_kernel.cache_clear()
        logged = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "mixrec.sweep_kernel"]
        assert [level for level, _ in logged] == [logging.WARNING, logging.INFO]
        assert "/nonexistent/cc" in logged[0][1]
        assert len(got) == len(want) == 18
        for g, w in zip(got, want):
            assert_same_list(g, w)


class TestCandidateListFormat:
    def test_every_retriever_returns_typed_arrays(self, monkeypatch):
        # every retriever and edge case, on the compiled path (when built) and
        # the numpy path: int64 ids and float64 scores of one length, from
        # which the (id, score) pairs and the id list are built
        rng = np.random.default_rng(15)
        U, I, K = 7, 40, 4
        train = [(u, int(rng.integers(I))) for u in range(1, U) for _ in range(4)]  # user 0 is cold
        init = make_init(train, rng.integers(0, K, I).tolist(), K, num_users=U, num_items=I)
        vecs = rng.normal(size=(U, 3))
        vecs[1] = 0.0  # a zero-norm user vector
        emb = EmbeddingTable(user_vectors=vecs, item_vectors=np.zeros((I, 3)))
        mix = mle_mixture(init)
        # the second chunk is empty, and so is its pool
        slices = {n: ChunkSlice.from_edges(3, rng.integers(0, U, n), rng.integers(0, I, n)) for n in (150, 0)}

        def run():
            lists = {}
            for n, slc in slices.items():
                m = fit_chunk(slc, init, SamplerConfig(seed=1, max_sweeps=2))
                rank = popularity_ranking(slc)
                cfg = RetrievalConfig(M=5)
                calls = {
                    "micro": (retrieve_mixture, build_index(m, cfg, rank)),
                    "mle": (retrieve_mixture, build_mle_index(mix, cfg, slc.item_pool, rank)),
                    "ann": (ann_retrieve, ann_encode_items(slc, emb)),
                    "popularity": (popularity_retrieve, rank),
                }
                for name, (fn, idx) in calls.items():
                    for seen in (None, slc.item_pool[::2]):
                        for u in range(U):
                            lists[n, name, seen is None, u] = fn(u, idx, cfg, seen, 4)
            return lists

        for lists in (run(), on_numpy(monkeypatch, run)):
            for key, c in lists.items():
                assert (c.ids.dtype, c.scores.dtype) == (np.int64, np.float64), key
                assert c.ids.shape == c.scores.shape == (len(c),), key
                pairs = [(int(i), float(s)) for i, s in zip(c.ids, c.scores)]
                assert c.item_ids() == [i for i, _ in pairs], key
                assert [i for i, _ in c.items] == c.item_ids(), key
                assert same_bits([s for _, s in c.items], [s for _, s in pairs]), key
                assert all(type(i) is int and type(s) is float for i, s in c.items), key
                assert (c.user, c.chunk) == (key[-1], 4), key
            for name in ("micro", "mle"):  # user 0 is cold
                assert len(lists[150, name, True, 0]) == 5
            assert len(lists[150, "ann", True, 1]) == 0  # zero-norm user
            assert all(len(c) == 0 for key, c in lists.items() if key[0] == 0)
            assert sum(len(c) for c in lists.values()) > 0


class TestBatchAndDeterminism:
    def test_all_retrievers_deterministic(self):
        rng = np.random.default_rng(12)
        init, slc, m = random_instance(rng)
        cfg = RetrievalConfig(M=5)
        idx = build_index(m, cfg)
        emb = EmbeddingTable(
            user_vectors=np.random.default_rng(0).normal(size=(init.num_users, 4)),
            item_vectors=np.zeros((init.num_items, 4)),
        )
        ann = ann_encode_items(slc, emb)
        mix = mle_mixture(init)
        for _ in range(3):
            a1 = [retrieve_mixture(u, idx, cfg).items for u in range(init.num_users)]
            a2 = [retrieve_mixture(u, idx, cfg).items for u in range(init.num_users)]
            assert a1 == a2
            b1 = [retrieve_mixture(u, build_mle_index(mix, cfg), cfg).items for u in range(init.num_users)]
            b2 = [retrieve_mixture(u, build_mle_index(mix, cfg), cfg).items for u in range(init.num_users)]
            assert b1 == b2
            c1 = [ann_retrieve(u, ann, cfg).items for u in range(init.num_users)]
            c2 = [ann_retrieve(u, ann, cfg).items for u in range(init.num_users)]
            assert c1 == c2

    def test_batch_matches_serial_and_parallel(self):
        rng = np.random.default_rng(13)
        init, slc, m = random_instance(rng)
        cfg1 = RetrievalConfig(M=5, workers=1)
        cfg4 = RetrievalConfig(M=5, workers=4)
        idx = build_index(m, cfg1)
        users = list(range(init.num_users))
        fn = lambda u: retrieve_mixture(u, idx, cfg1)
        serial = [c.items for c in batch_retrieve(fn, users, cfg1)]
        parallel = [c.items for c in batch_retrieve(fn, users, cfg4)]
        assert serial == parallel

    def test_user_outside_index_rejected(self, monkeypatch):
        # a negative id must not read another user's row or fall back to
        # popularity, on the compiled and the numpy path
        rng = np.random.default_rng(14)
        init, slc, m = random_instance(rng)
        cfg = RetrievalConfig(M=5)
        rank = popularity_ranking(slc)
        emb = EmbeddingTable(
            user_vectors=rng.normal(size=(init.num_users, 4)), item_vectors=np.zeros((init.num_items, 4))
        )
        calls = {
            "micro": (retrieve_mixture, build_index(m, cfg, rank)),
            "mle": (retrieve_mixture, build_mle_index(mle_mixture(init), cfg, slc.item_pool, rank)),
            "ann": (ann_retrieve, ann_encode_items(slc, emb)),
        }
        for name, (fn, idx) in calls.items():
            assert len(fn(init.num_users - 1, idx, cfg))
            for u in (-1, -init.num_users, init.num_users):
                with pytest.raises(IndexError, match=f"user {u} outside"):
                    fn(u, idx, cfg)
                with pytest.raises(IndexError, match=f"user {u} outside"):
                    on_numpy(monkeypatch, lambda: fn(u, idx, cfg))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(M=0)
        with pytest.raises(ValueError):
            RetrievalConfig(M=10, L=5)
