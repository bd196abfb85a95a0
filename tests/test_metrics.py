import numpy as np
import pytest
from hypothesis import given, strategies as st

import mixrec.metrics as metrics
from mixrec.graph import ChunkSlice
from mixrec.metrics import (
    MetricBlock,
    MetricsReport,
    aggregate,
    build_queries,
    chunk_truth,
    find_hits,
    score_hits,
    score_query,
)

from oracles import aggregate_loop, same_bits, score_reference


class TestBuildQueries:
    def test_dedup_within_chunk(self):
        slc = ChunkSlice.from_edges(3, [5, 5, 5], [7, 7, 9])
        qs = build_queries([slc])
        assert len(qs) == 1
        q = qs[0]
        assert q.user == 5 and q.chunk == 3
        assert q.truth == frozenset({7, 9})

    def test_absent_user_no_query(self):
        slc = ChunkSlice.from_edges(0, [1], [2])
        qs = build_queries([slc])
        assert {q.user for q in qs} == {1}

    def test_multiple_chunks(self):
        a = ChunkSlice.from_edges(1, [0, 1], [5, 6])
        b = ChunkSlice.from_edges(2, [0], [7])
        qs = build_queries([a, b])
        assert len(qs) == 3
        assert sorted({q.chunk for q in qs}) == [1, 2]


class TestRecall:
    def test_superset(self):
        assert score_query([1, 2, 3], {1, 2}, 3)[0] == 1.0

    def test_disjoint(self):
        assert score_query([4, 5], {1, 2}, 2)[0] == 0.0

    def test_empty_truth_raises(self):
        with pytest.raises(ValueError):
            score_query([1], set(), 1)


class TestMrr:
    def test_first_relevant(self):
        assert score_query([9, 1], {9}, 2)[1] == 1.0

    def test_none_relevant(self):
        assert score_query([1, 2, 3], {8}, 3)[1] == 0.0

    def test_rank_four(self):
        assert score_query([1, 2, 3, 8], {8}, 4)[1] == 0.25


class TestNdcg:
    def test_perfect_prefix(self):
        assert score_query([1, 2, 3], {1, 2, 3}, 3)[2] == pytest.approx(1.0)

    def test_none_relevant(self):
        assert score_query([1, 2], {5}, 2)[2] == 0.0

    def test_single_truth_rank_two(self):
        got = score_query([0, 42] + list(range(100, 108)), {42}, 10)[2]
        assert got == pytest.approx(1.0 / np.log2(3), abs=1e-9)
        assert got == pytest.approx(0.6309, abs=1e-4)

    def test_short_list_uses_cutoff_ideal(self):
        # two relevant items exist; a 1-item list at M=2 cannot be perfect
        assert score_query([1], {1, 2}, 2)[2] < 1.0


class TestScoreQuery:
    def test_reads_only_the_first_m_ids(self):
        assert score_query([5, 6, 7], {7}, 2) == (0.0, 0.0, 0.0)
        assert score_query([5, 6, 7, 1], {7, 1}, 3) == score_query([5, 6, 7], {7, 1}, 3)

    @pytest.mark.parametrize("kind", [set, frozenset])
    @pytest.mark.parametrize("ids, truth, m", [
        ([4, 5, 6], {1, 2}, 3),  # no hit
        ([], {1}, 5),  # an empty list
        ([4, 5, 6, 1, 2], {1, 2}, 3),  # hits only beyond m
        ([1, 5, 6], {1, 2}, 3),  # a hit at rank 1
        ([7, 1, 5, 2], {1, 2, 9}, 4),
    ])
    def test_set_test_first_matches_reference(self, kind, ids, truth, m):
        # most lists miss the truth entirely and return at the set test
        # before the loop; every case keeps the reference's repr
        got = score_query(ids, kind(truth), m)
        assert repr(got) == repr(score_reference(ids, kind(truth), m))
        with pytest.raises(ValueError, match="nonempty"):
            score_query(ids, kind(), m)


class TestAgainstBruteForce:
    def test_1000_random_cases(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            m = int(rng.integers(1, 12))
            cands = rng.choice(50, size=m, replace=False).tolist()
            truth = set(rng.choice(50, size=int(rng.integers(1, 8)), replace=False).tolist())
            assert repr(score_query(cands, truth, m)) == repr(score_reference(cands, truth, m))

    def test_score_query_repr_equals_the_three_functions(self):
        # the three reference functions, at the backtest's M values, on
        # short, full and over-long lists
        rng = np.random.default_rng(29)
        for trial in range(3000):
            m = int(rng.choice([20, 100]))
            pool = int(rng.integers(2, 300))
            length = int(rng.integers(0, min(pool, m + 5) + 1))
            cands = rng.choice(pool, size=length, replace=False).tolist()
            truth = frozenset(rng.choice(pool, size=int(rng.integers(1, min(pool, 40) + 1)), replace=False).tolist())
            assert repr(score_query(cands, truth, m)) == repr(score_reference(cands, truth, m)), trial

    @given(
        cands=st.lists(st.integers(0, 30), min_size=0, max_size=15, unique=True),
        truth=st.sets(st.integers(0, 30), min_size=1, max_size=10),
        m=st.integers(1, 20),
    )
    def test_bounds_and_m_monotonicity(self, cands, truth, m):
        got = score_query(cands, truth, m)
        assert repr(got) == repr(score_reference(cands, truth, m))
        for v in got:
            assert 0.0 <= v <= 1.0
        # growing the cutoff never hurts recall or MRR (NDCG with the
        # min-capped ideal can legitimately dip when the ideal outgrows
        # the realized gain, e.g. truth {a,b}, list [a, x])
        for cut in range(1, len(cands) + 1):
            shorter, longer = score_query(cands, truth, cut), score_query(cands, truth, cut + 1)
            assert shorter[0] <= longer[0] and shorter[1] <= longer[1]

    @given(truth_list=st.lists(st.integers(0, 20), min_size=1, max_size=8))
    def test_truth_order_invariance(self, truth_list):
        cands = [0, 5, 10, 15]
        assert score_query(cands, set(truth_list), 4) == score_query(cands, set(reversed(truth_list)), 4)


def batch_reprs(lists, truths, ms, stride):
    """``repr`` of every query's ``score_hits`` triple at each M of ``ms``,
    all read from one ``find_hits`` of ``lists`` against ``truths`` (query
    q is user 3q + 1; each truth's first item is engaged twice), and of
    ``score_query`` on the same list, truth and M: two {(query, M): repr}."""
    users = [3 * q + 1 for q, truth in enumerate(truths) for _ in range(len(truth) + 1)]
    items = [i for truth in truths for i in [*truth, next(iter(truth))]]
    truth = chunk_truth(ChunkSlice.from_edges(2, users, items), stride)
    hits = find_hits([np.asarray(ids, dtype=np.int64) for ids in lists], truth)
    got, want = {}, {}
    for m in ms:
        scores = score_hits(hits, truth, m)
        assert scores.shape == (len(lists), 3)
        for q, (ids, t) in enumerate(zip(lists, truths)):
            got[q, m] = repr(tuple(scores[q].tolist()))
            want[q, m] = repr(score_query(list(ids), set(t), m))
    return got, want


class TestBatchedScoring:
    @pytest.mark.parametrize("lists_per_pass", [1, 7, metrics._PASS])
    def test_random_list_sets_keep_score_query_bits(self, monkeypatch, lists_per_pass):
        # full, short, empty and over-long lists, several M from one hit set
        # (M beyond every list too), truths larger than M, lists with no hit,
        # and in every other trial list ids above every truth id; find_hits
        # passes over the lists in blocks, which split list sets anywhere
        monkeypatch.setattr(metrics, "_PASS", lists_per_pass)
        rng = np.random.default_rng(41)
        for trial in range(400):
            pool = int(rng.integers(2, 300))
            top = int(rng.choice([1, 5, 20, 100]))
            ms = sorted({top, *rng.integers(1, top + 1, 3).tolist(), top + 7})
            truth_pool = pool if trial % 2 else max(1, pool // 4)
            lists, truths = [], []
            for _ in range(int(rng.choice([0, 1, 5, 40, 300]))):
                length = int(rng.integers(0, min(pool, top + 5) + 1))
                lists.append(rng.choice(pool, size=length, replace=False).tolist())
                size = int(rng.integers(1, min(truth_pool, 40) + 1))
                truths.append(set(rng.choice(truth_pool, size=size, replace=False).tolist()))
            got, want = batch_reprs(lists, truths, ms, pool)
            assert got == want, trial

    @given(
        queries=st.lists(
            st.tuples(
                st.lists(st.integers(0, 30), min_size=0, max_size=15, unique=True),
                st.sets(st.integers(0, 30), min_size=1, max_size=10),
            ),
            max_size=6,
        ),
        ms=st.sets(st.integers(1, 20), min_size=1, max_size=4),
    )
    def test_any_list_set_keeps_score_query_bits(self, queries, ms):
        lists, truths = [ids for ids, _ in queries], [t for _, t in queries]
        got, want = batch_reprs(lists, truths, sorted(ms), 31)
        assert got == want

    def test_stride_exceeds_every_list_id(self):
        # query 0 lists item 5, which is in neither truth: with the stride
        # num_items = 20 it misses; a stride of 3, the truths' largest id + 1,
        # would read 0 * 3 + 5 as query 1's item 2, so an id at or above the
        # stride is refused, in the lists and in the truths
        got, want = batch_reprs([[5], [2, 5]], [{1}, {2}], [1, 2], 20)
        assert got == want
        assert got[0, 1] == repr((0.0, 0.0, 0.0))
        slc = ChunkSlice.from_edges(2, [1, 4], [1, 2])
        with pytest.raises(ValueError, match=r"list item ids must lie in \[0, 3\), got \[2, 5\]"):
            find_hits([np.array([5]), np.array([2, 5])], chunk_truth(slc, 3))
        with pytest.raises(ValueError, match=r"truth item ids must lie in \[0, 2\), got \[1, 2\]"):
            chunk_truth(slc, 2)

    def test_one_list_per_query(self):
        truth = chunk_truth(ChunkSlice.from_edges(2, [1, 4], [1, 2]), 20)
        with pytest.raises(ValueError, match="1 lists for 2 queries"):
            find_hits([np.array([1])], truth)


class TestAggregate:
    def chunk_ids(self, chunk_sizes):
        """Each query's chunk id, ``chunk_sizes[chunk]`` queries per chunk."""
        return [chunk for chunk, nq in chunk_sizes.items() for _ in range(nq)]

    def test_single_query(self):
        chunks = self.chunk_ids({3: 1})
        rep = aggregate([(0.5, 0.25, 0.4)], chunks, method="x", m=10)
        assert rep.overall.recall == 0.5
        assert rep.per_chunk[3].mrr == 0.25
        rep.check_consistency()

    def test_equal_chunk_counts_mean_of_means(self):
        chunks = self.chunk_ids({0: 2, 1: 2})
        rep = aggregate([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (0.5, 0.5, 0.5)], chunks)
        assert rep.per_chunk[0].recall == 0.5
        assert rep.per_chunk[1].recall == 0.5
        assert rep.overall.recall == pytest.approx(
            (rep.per_chunk[0].recall + rep.per_chunk[1].recall) / 2
        )
        rep.check_consistency()

    def test_matches_flat_recomputation(self):
        rng = np.random.default_rng(7)
        chunks = rng.integers(0, 4, 200).tolist()
        vals = [tuple(rng.random(3).tolist()) for _ in range(200)]
        rep = aggregate(vals, chunks)
        flat = np.asarray(vals).mean(axis=0)
        assert rep.overall.recall == pytest.approx(flat[0], abs=1e-12)
        assert rep.overall.mrr == pytest.approx(flat[1], abs=1e-12)
        assert rep.overall.ndcg == pytest.approx(flat[2], abs=1e-12)
        rep.check_consistency(tol=1e-12)

    def test_bits_match_per_query_loop(self):
        # random values, few tied values (so orders of addition would show)
        # and chunks interleaved in query order
        rng = np.random.default_rng(8)
        Query = __import__("mixrec.metrics", fromlist=["Query"]).Query
        for trial in range(30):
            n = int(rng.choice([0, 1, 7, 300]))
            chunks = rng.choice([2, 5, 9, 4], n) if trial % 2 else np.sort(rng.integers(0, 3, n))
            qs = [Query(user=i, chunk=int(c), truth=frozenset({0})) for i, c in enumerate(chunks)]
            if trial % 3 == 0:
                vals = rng.choice([0.0, 1 / 3, 0.1, 1.0, 0.7], size=(n, 3))
            else:
                vals = rng.random((n, 3))
            vals = [tuple(v) for v in vals.tolist()]
            rep = aggregate(vals, chunks, method="x", m=5)
            per_chunk, (count, means) = aggregate_loop(vals, qs)
            assert list(rep.per_chunk) == list(per_chunk)
            for c, (nc, want) in per_chunk.items():
                b = rep.per_chunk[c]
                assert b.n_queries == nc
                assert same_bits([b.recall, b.mrr, b.ndcg], want), (trial, c)
            o = rep.overall
            assert o.n_queries == count
            assert same_bits([o.recall, o.mrr, o.ndcg], means), trial

    def test_mismatched_lengths(self):
        chunks = self.chunk_ids({0: 2})
        with pytest.raises(ValueError):
            aggregate([(1, 1, 1)], chunks)

    def test_consistency_check_catches_corruption(self):
        chunks = self.chunk_ids({0: 2})
        rep = aggregate([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)], chunks)
        rep.overall = MetricBlock(n_queries=2, recall=0.9, mrr=0.5, ndcg=0.5)
        with pytest.raises(ValueError):
            rep.check_consistency()
