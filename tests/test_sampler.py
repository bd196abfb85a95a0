import dataclasses
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixrec.sampler as sampler
import mixrec.sweep_kernel as sweep_kernel
from mixrec.graph import ChunkSlice, from_raw_edges
from mixrec.initialization import build_init
from mixrec.npz import write_fields
from mixrec.sampler import (
    ChunkFit,
    ChunkModel,
    SamplerConfig,
    UserCounts,
    fit_chunk,
    load_chunk_model,
    save_chunk_model,
    sweep_diagnostics_text,
)

from oracles import (
    candidate_interests,
    chunk_user_total,
    collapsed_log_joint,
    conditional_from_enumeration,
    enumerate_posterior,
    export_tables_text,
    gibbs_weight,
    item_counts,
    ledger_row,
    same_bits,
)


def make_init(train_edges, item_interest, K, num_users=None, num_items=None, alpha=0.1, beta=0.01):
    """Small helper: train graph from explicit (u, i) pairs at chunk 0."""
    users = [e[0] for e in train_edges]
    items = [e[1] for e in train_edges]
    U = (num_users if num_users is not None else max(users) + 1)
    I = (num_items if num_items is not None else max(items) + 1)
    # pad with one edge per missing id? build graph directly instead
    from mixrec.graph import EngagementGraph, IdMap

    g = EngagementGraph(
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        chunks=np.zeros(len(users), dtype=np.int64),
        num_users=U,
        num_items=I,
        num_chunks=1,
        user_ids=IdMap(np.arange(U)),
        item_ids=IdMap(np.arange(I)),
    )
    return build_init(g, np.asarray(item_interest), K, alpha=alpha, beta=beta)


def set_state(m, z):
    for j, k in enumerate(z):
        m.remove(j)
        m.assign(j, int(k))
    m._lj = m.log_joint()
    return m


# --- tiny fixtures: (init, chunk users, chunk items) ------------------------


def tiny_instances():
    """Tiny problems (U<=3, K<=3, I<=4, <=6 engagements), warm and cold."""
    out = []
    # two users, two interests, items anchored one per interest
    init = make_init(
        [(0, 0), (0, 1), (1, 2), (1, 0)], item_interest=[0, 0, 1, 1], K=2, num_items=4
    )
    out.append((init, [0, 0, 1, 1, 1], [0, 2, 1, 3, 3]))
    # three interests, overlapping supports
    init = make_init(
        [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)],
        item_interest=[0, 1, 2, 2],
        K=3,
        num_items=4,
    )
    out.append((init, [0, 1, 2, 2], [3, 0, 1, 2]))
    # cold user (user 2 absent from train) mixed with warm users
    init = make_init(
        [(0, 0), (1, 1)], item_interest=[0, 1, 1], K=2, num_users=3, num_items=3
    )
    out.append((init, [0, 2, 2], [2, 0, 1]))
    # singleton supports everywhere
    init = make_init([(0, 0), (1, 1)], item_interest=[0, 1], K=2, num_items=2)
    out.append((init, [0, 1], [1, 0]))
    return out


def build_model(init, users, items, seed=0, **cfg_kw):
    slc = ChunkSlice.from_edges(1, users, items)
    cfg = SamplerConfig(seed=seed, **cfg_kw)
    return ChunkModel(slc, init, cfg), slc, cfg


class TestGibbsWeight:
    def test_empty_tables_in_support(self):
        init = make_init([(0, 0)], item_interest=[0, 0], K=1, num_items=2)
        m, _, _ = build_model(init, [0], [1])
        m.remove(0)
        # user base count 1 from train, chunk tables empty after removal
        w = gibbs_weight(0, 1, 0, m, init)
        a, b, I = init.alpha, init.beta, init.num_items
        assert w == pytest.approx((a + 1) * b / (I * b), rel=1e-12)

    def test_outside_support_zero(self):
        init = make_init([(0, 0), (1, 1)], item_interest=[0, 1], K=2, num_items=2)
        m, _, _ = build_model(init, [0], [0])
        m.remove(0)
        assert gibbs_weight(0, 0, 1, m, init) == 0.0

    def test_cold_user_has_mass_everywhere(self):
        init = make_init([(0, 0)], item_interest=[0, 0], K=2, num_users=2, num_items=2)
        m, _, _ = build_model(init, [1], [1])
        m.remove(0)
        # all tables empty for this user/item: weight is exactly the
        # prior-only value alpha * beta / (I * beta)
        a, b, I = init.alpha, init.beta, init.num_items
        for k in range(2):
            assert gibbs_weight(1, 1, k, m, init) == pytest.approx(a * b / (I * b), rel=1e-12)

    @pytest.mark.parametrize("case", range(len(tiny_instances())))
    def test_normalized_weights_match_enumeration(self, case):
        # oracle: exact collapsed-joint ratios from full enumeration
        init, users, items = tiny_instances()[case]
        rng = np.random.default_rng(11 + case)
        m, slc, _ = build_model(init, users, items, seed=3)
        # a few random reachable states, every engagement resampled
        for trial in range(4):
            z = [
                candidate_interests(u, init)[rng.integers(len(candidate_interests(u, init)))]
                for u in slc.users.tolist()
            ]
            set_state(m, z)
            for j in range(m.n):
                want = conditional_from_enumeration(
                    slc.users.tolist(), slc.items.tolist(), z, j, init
                )
                k_old = m.remove(j)
                cands = candidate_interests(int(slc.users[j]), init)
                ws = np.array(
                    [gibbs_weight(int(slc.users[j]), int(slc.items[j]), k, m, init) for k in cands]
                )
                got = ws / ws.sum()
                for k, p in zip(cands, got):
                    assert p == pytest.approx(want[k], rel=1e-12, abs=1e-15)
                m.assign(j, k_old)


class TestInitChunk:
    def test_singleton_support_forces_assignment(self):
        init = make_init([(0, 7)], item_interest=[0] * 8, K=3, num_items=8)
        m, _, _ = build_model(init, [0] * 5, [1, 2, 3, 4, 5])
        assert m.z.tolist() == [0] * 5

    def test_cold_user_uniform_chi_square(self):
        # 10k draws over K=4 must not reject uniformity at p=0.01
        K = 4
        init = make_init([(0, 0)], item_interest=[0] * 2, K=K, num_users=2, num_items=2)
        n = 10_000
        m, _, _ = build_model(init, [1] * n, [1] * n, seed=5)
        counts = np.bincount(m.z, minlength=K)
        expected = n / K
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        crit = 11.345  # chi-square df=3, p=0.01
        assert chi2 < crit

    def test_tables_consistent_after_init(self):
        init, users, items = tiny_instances()[1]
        m, slc, _ = build_model(init, users, items, seed=2)
        check_invariants(m, init, slc)


def check_invariants(m, init, slc):
    # interest totals equal engagement count
    assert int(m.n_kt.sum()) == len(slc)
    # item-interest table sums to engagement count and matches z recount
    z = m.z
    nik = {}
    for i, k in zip(slc.items.tolist(), z.tolist()):
        nik[(i, k)] = nik.get((i, k), 0) + 1
    got = {(i, k): c for i, k, c in zip(*(a.tolist() for a in m.item_table()))}
    assert got == nik
    # per-user combined counts = base + chunk assignments; support confined
    for u in np.unique(slc.users):
        ks, counts = m.user_counts(int(u))
        sup = init.support(int(u))
        base = dict(zip(sup.tolist(), init.support_counts(int(u)).tolist()))
        mine = {int(k): int(c) for k, c in zip(ks, counts)}
        zu = z[slc.users == u].tolist()
        for k in zu:
            if len(sup):
                assert k in sup.tolist()
        want = dict(base)
        for k in zu:
            want[k] = want.get(k, 0) + 1
        assert {k: c for k, c in mine.items() if c} == {k: c for k, c in want.items() if c}
        assert sum(mine.values()) - sum(base.values()) == chunk_user_total(m, int(u))


class TestSweep:
    def test_single_engagement_singleton_support_never_changes(self):
        init = make_init([(0, 0)], item_interest=[0, 0], K=1, num_items=2)
        m, slc, _ = build_model(init, [0], [1], seed=9)
        rng = np.random.default_rng(1)
        for _ in range(10):
            changed = m.run_sweep(rng.random(m.n))
            assert changed == 0

    def test_k1_sweep_is_identity(self):
        init = make_init([(0, 0), (1, 1)], item_interest=[0, 0, 0], K=1, num_items=3)
        m, slc, _ = build_model(init, [0, 1, 1], [2, 0, 2], seed=4)
        z0 = m.z.tolist()
        rng = np.random.default_rng(2)
        changed = m.run_sweep(rng.random(m.n))
        assert changed == 0
        assert m.z.tolist() == z0

    @pytest.mark.parametrize("case", range(len(tiny_instances())))
    def test_tables_stay_consistent_across_sweeps(self, case):
        init, users, items = tiny_instances()[case]
        m, slc, _ = build_model(init, users, items, seed=8)
        rng = np.random.default_rng(3)
        for _ in range(5):
            m.run_sweep(rng.random(m.n))
            check_invariants(m, init, slc)

    def test_remove_assign_are_exact_inverses(self):
        init, users, items = tiny_instances()[0]
        m, slc, _ = build_model(init, users, items, seed=1)
        snap = snapshot(m)
        for j in range(m.n):
            k = m.remove(j)
            m.assign(j, k)
        assert snapshot(m) == snap

    def test_conditional_depends_only_on_counts(self):
        # exchangeability: two duplicate (user, item) engagements with
        # swapped assignments present identical "others" multisets, so the
        # conditionals swap roles exactly and everyone else is untouched
        init, users, items = tiny_instances()[0]  # user 1 engages item 3 twice
        m, slc, _ = build_model(init, users, items, seed=1)
        dup = [j for j in range(m.n) if int(slc.users[j]) == 1 and int(slc.items[j]) == 3]
        assert len(dup) == 2
        a, b = dup
        base = m.z.tolist()
        set_state(m, _with(base, {a: 0, b: 1}))
        first = weight_table(m, slc, init)
        set_state(m, _with(base, {a: 1, b: 0}))
        second = weight_table(m, slc, init)
        assert first[a] == second[b]
        assert first[b] == second[a]
        for j in range(m.n):
            if j not in (a, b):
                assert first[j] == second[j]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_instances_keep_invariants(self, data):
        K = data.draw(st.integers(1, 4))
        I = data.draw(st.integers(2, 8))
        U = data.draw(st.integers(1, 4))
        item_interest = data.draw(
            st.lists(st.integers(0, K - 1), min_size=I, max_size=I)
        )
        train = data.draw(
            st.lists(
                st.tuples(st.integers(0, U - 1), st.integers(0, I - 1)),
                min_size=1,
                max_size=10,
            )
        )
        chunk = data.draw(
            st.lists(
                st.tuples(st.integers(0, U - 1), st.integers(0, I - 1)),
                min_size=1,
                max_size=12,
            )
        )
        init = make_init(train, item_interest, K, num_users=U, num_items=I)
        users = [e[0] for e in chunk]
        items = [e[1] for e in chunk]
        m, slc, _ = build_model(init, users, items, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(3):
            m.run_sweep(rng.random(m.n))
        check_invariants(m, init, slc)


def _with(z, updates):
    z = list(z)
    for j, k in updates.items():
        z[j] = k
    return z


def weight_table(m, slc, init):
    out = {}
    for j in range(m.n):
        u, i = int(slc.users[j]), int(slc.items[j])
        k_old = m.remove(j)
        cands = candidate_interests(u, init)
        ws = [gibbs_weight(u, i, k, m, init) for k in cands]
        m.assign(j, k_old)
        out[j] = ws
    return out


def snapshot(m):
    folded = m.fold_into(m.base)  # the cold users' rows, as keys and counts
    return (
        m.z.tolist(),
        item_counts(m),
        m.n_kt.tolist(),
        list(m._uk),
        folded.cold_keys.tolist(),
        folded.cold_counts.tolist(),
    )


class TestLogRising:
    # the x of a + n for the default priors and of I*beta + n at I = 1954 and
    # 2891, and the smallest normal float
    @pytest.mark.parametrize("x", [0.1, 0.01, 1954 * 0.01, 2891 * 0.01, np.finfo(float).tiny])
    def test_matches_lgamma_difference(self, x):
        n = np.arange(200_001)
        want = np.array([math.lgamma(x + c) - math.lgamma(x) for c in n.tolist()])
        # the running sum's rounding grows with n: up to 2.2e-14 relative at
        # n = 200 000 (1.2e-13 where the sum for the smallest x crosses 0);
        # the oracle itself subtracts values near 2.2e6, each rounded to 5e-10
        np.testing.assert_allclose(sampler._log_rising(x, n), want, rtol=1e-12, atol=1e-9)

    def test_zero_count_is_exactly_zero(self):
        for x in (0.1, 28.91, np.finfo(float).tiny):
            assert sampler._log_rising(x, np.zeros(3, dtype=np.int64)).tolist() == [0.0] * 3
        assert sampler._log_rising(0.1, np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="negative count -1"):
            sampler._log_rising(0.1, np.array([3, -1, 0]))


class TestLogJoint:
    @pytest.mark.parametrize("case", range(len(tiny_instances())))
    def test_flip_identity(self, case):
        # log-joint difference of a single flip = log gibbs-weight ratio
        init, users, items = tiny_instances()[case]
        m, slc, _ = build_model(init, users, items, seed=6)
        rng = np.random.default_rng(17)
        for _ in range(20):
            j = int(rng.integers(m.n))
            u, i = int(slc.users[j]), int(slc.items[j])
            cands = candidate_interests(u, init)
            lj_before = m.log_joint()
            k_old = m.remove(j)
            w_old = gibbs_weight(u, i, k_old, m, init)
            k_new = cands[int(rng.integers(len(cands)))]
            w_new = gibbs_weight(u, i, k_new, m, init)
            m.assign(j, k_new)
            lj_after = m.log_joint()
            assert lj_after - lj_before == pytest.approx(
                math.log(w_new) - math.log(w_old), abs=1e-9
            )

    def test_matches_per_user_loop_with_ledger(self):
        # the vectorised sums against a per-user loop over the union of each
        # user's combined and base interests; the order of the sums differs
        init, (slc1, slc2) = mixed_instance(3, 6)
        cfg = SamplerConfig(seed=1, max_sweeps=3)
        base = UserCounts.from_init(init)
        base = fit_chunk(slc1, init, cfg, base=base).fold_into(base)
        assert len(base.cold_keys)
        m = fit_chunk(slc2, init, cfg, base=base)
        a, b = init.alpha, init.beta
        want = 0.0
        for u in np.unique(slc2.users).tolist():
            before = ledger_row(base, init, u)
            after = dict(zip(*(x.tolist() for x in m.user_counts(u))))
            for k in set(before) | set(after):
                want += math.lgamma(a + after.get(k, 0)) - math.lgamma(a + before.get(k, 0))
        for c in m.item_table()[2].tolist():
            want += math.lgamma(b + c) - math.lgamma(b)
        for c in m.n_kt[m.n_kt > 0].tolist():
            want -= math.lgamma(m.Ibeta + c) - math.lgamma(m.Ibeta)
        assert m.log_joint() == pytest.approx(want, rel=1e-12)

    def test_empty_chunk_constant(self):
        init = make_init([(0, 0)], item_interest=[0, 0], K=2, num_items=2)
        for seed in (0, 1, 2):
            slc = ChunkSlice.from_edges(1, [], [])
            m = ChunkModel(slc, init, SamplerConfig(seed=seed))
            assert m.log_joint() == 0.0

    @pytest.mark.parametrize("case", range(2))
    def test_matches_enumeration_oracle_up_to_constant(self, case):
        # same objective as the full-formula oracle, shifted by a constant
        init, users, items = tiny_instances()[case]
        slc = ChunkSlice.from_edges(1, users, items)
        us, its = slc.users.tolist(), slc.items.tolist()
        vectors, probs, _ = enumerate_posterior(us, its, init)
        m, _, _ = build_model(init, users, items, seed=0)
        mine = []
        for v in vectors:
            set_state(m, list(v))
            mine.append(m.log_joint())
        mine = np.asarray(mine)
        want = np.asarray([collapsed_log_joint(us, its, list(v), init) for v in vectors])
        assert np.allclose(mine - mine[0], want - want[0], atol=1e-9)

    def test_tracked_log_joint_is_exact(self):
        init, users, items = tiny_instances()[1]
        m, slc, cfg = build_model(init, users, items, seed=12)
        rng = np.random.default_rng(5)
        for _ in range(10):
            m.run_sweep(rng.random(m.n))
            assert m.current_log_joint == m.log_joint()

    @pytest.mark.parametrize("mode", ["reset", "accumulate"])
    def test_log_joint_same_on_both_paths(self, kernel, monkeypatch, tmp_path, mode):
        # fits and reloads with the compiled sweep and with the Python one,
        # cold rows on a ledger in accumulate mode (so the _cc and _cbc
        # terms are not empty): the two fits are equal, and each reload's
        # log-joint is its own trace's last entry, bit for bit
        init, (slc1, slc2) = mixed_instance(3, 40)
        cfg = SamplerConfig(seed=4, max_sweeps=3)

        def fit_and_reload(path):
            base = UserCounts.from_init(init)
            if mode == "accumulate":
                base = fit_chunk(slc1, init, cfg, base=base).fold_into(base)
                assert len(base.cold_keys)
            m = fit_chunk(slc2, init, cfg, base=base)
            assert len(m._cc) and (mode == "reset" or len(m._cbc))
            save_chunk_model(m, path)
            again = load_chunk_model(path, slc2, init, cfg, base=base)
            assert repr(again.current_log_joint) == repr(m.fit.log_joint[-1])
            return m.fit

        compiled = fit_and_reload(tmp_path / "compiled.npz")
        with monkeypatch.context() as mp:
            mp.setattr(sampler, "load_kernel", lambda: None)
            python = fit_and_reload(tmp_path / "python.npz")
        assert fit_fields(python) == fit_fields(compiled)
        assert list(map(repr, python.log_joint)) == list(map(repr, compiled.log_joint))


class TestFitChunk:
    def test_all_singleton_supports_converge_after_one_sweep(self):
        init = make_init(
            [(0, 0), (1, 1)], item_interest=[0, 1, 0, 1], K=2, num_items=4
        )
        slc = ChunkSlice.from_edges(1, [0, 0, 1], [2, 0, 3])
        m = fit_chunk(slc, init, SamplerConfig(seed=0))
        assert m.converged
        assert m.sweeps_run == 1

    def test_seed_determinism(self):
        init, users, items = tiny_instances()[1]
        slc = ChunkSlice.from_edges(1, users, items)
        cfg = SamplerConfig(seed=123)
        m1 = fit_chunk(slc, init, cfg)
        m2 = fit_chunk(slc, init, cfg)
        assert m1.z.tolist() == m2.z.tolist()
        assert m1.current_log_joint == m2.current_log_joint
        assert fit_fields(m1.fit) == fit_fields(m2.fit)

    def test_different_seed_can_differ(self):
        init, users, items = tiny_instances()[1]
        slc = ChunkSlice.from_edges(1, users, items)
        zs = {tuple(fit_chunk(slc, init, SamplerConfig(seed=s)).z.tolist()) for s in range(6)}
        assert len(zs) >= 1  # sanity; tiny chains may still coincide

    def test_large_interest_count_accepted(self):
        init = make_init([(0, 0), (1, 1)], item_interest=[4999, 17], K=5000, num_items=2)
        slc = ChunkSlice.from_edges(1, [0, 1], [0, 1])
        m = fit_chunk(slc, init, SamplerConfig(seed=0, max_sweeps=3))
        assert m.n == 2
        assert int(m.n_kt.sum()) == 2

    def test_max_sweeps_respected(self):
        init, users, items = tiny_instances()[0]
        slc = ChunkSlice.from_edges(1, users, items)
        m = fit_chunk(slc, init, SamplerConfig(seed=0, max_sweeps=3, convergence_tol=0.0))
        assert m.sweeps_run == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(max_sweeps=0)
        with pytest.raises(ValueError):
            SamplerConfig(convergence_tol=-1)


class TestUserCountModes:
    def test_accumulate_carries_counts_forward(self):
        init = make_init([(0, 0), (0, 1)], item_interest=[0, 1, 0, 1], K=2, num_items=4)
        slc1 = ChunkSlice.from_edges(1, [0, 0], [2, 2])
        cfg = SamplerConfig(seed=0)
        ledger = UserCounts.from_init(init)
        m1 = fit_chunk(slc1, init, cfg, base=ledger)
        ledger = m1.fold_into(ledger)
        ks, counts = m1.user_counts(0)
        slc2 = ChunkSlice.from_edges(2, [0], [3])
        m2 = fit_chunk(slc2, init, cfg, base=ledger)
        ks2, counts2 = m2.user_counts(0)
        # chunk-2 base equals chunk-1 final combined counts
        assert counts2.sum() == counts.sum() + 1

    def test_user_mixture_matches_per_user_loop(self):
        # two chunks in each mode: chunk 2 leaves out warm users 4-6 (in
        # accumulate mode they read the ledger's chunk-1 counts) and cold user 0
        init, (slc1, _) = mixed_instance(31, 5)
        rng = np.random.default_rng(32)
        users2 = rng.choice([u for u in range(14) if u not in (0, 4, 5, 6)], 120)
        slc2 = ChunkSlice.from_edges(2, users2, rng.integers(0, 15, 120))
        absent = set(range(14)) - set(slc2.users.tolist())
        assert {0, 4, 5, 6} <= absent and absent <= set(slc1.users.tolist())
        for mode in ("reset", "accumulate"):
            cfg = SamplerConfig(seed=3, max_sweeps=3)
            ledger = UserCounts.from_init(init) if mode == "accumulate" else None
            m1 = fit_chunk(slc1, init, cfg, base=ledger)
            if ledger is not None:
                ledger = m1.fold_into(ledger)
            m2 = fit_chunk(slc2, init, cfg, base=ledger)
            ptr, user_k, user_w = m2.user_weights()
            assert len(ptr) == 15 and ptr[-1] == len(user_k) == len(user_w)
            ledger_differs = False
            for u in range(14):
                ks, theta = user_k[ptr[u]:ptr[u + 1]], user_w[ptr[u]:ptr[u + 1]]
                if init.is_cold(u):
                    assert len(ks) == 0 and len(theta) == 0
                    assert u in absent or len(m2.user_counts(u)[0])  # cold rows are not read
                    continue
                counts = dict(zip(init.support(u).tolist(), init.support_counts(u).tolist()))
                for slc, m in ((slc1, m1), (slc2, m2)) if ledger is not None else ((slc2, m2),):
                    for k in m.z[slc.users == u].tolist():
                        counts[k] += 1
                masses = init.alpha + np.asarray([counts[k] for k in init.support(u).tolist()], dtype=np.float64)
                np.testing.assert_array_equal(ks, init.support(u))
                assert same_bits(theta, masses / masses.sum())
                t0 = init.alpha + init.support_counts(u).astype(np.float64)
                ledger_differs |= u in absent and not np.array_equal(theta, t0 / t0.sum())
            assert ledger_differs == (mode == "accumulate")

    def test_user_weights_outlive_later_folds(self):
        # the ledger moves on as later chunks fold into it; a fitted model's
        # weights stay those of the counts it was built from, also for users
        # absent from its chunk (4 and up here, and user 4 alone in chunk 3)
        init, (slc1, _) = mixed_instance(31, 5)
        rng = np.random.default_rng(33)
        slc2 = ChunkSlice.from_edges(2, rng.integers(0, 4, 40), rng.integers(0, 15, 40))
        slc3 = ChunkSlice.from_edges(3, np.full(20, 4), rng.integers(0, 15, 20))
        cfg = SamplerConfig(seed=3, max_sweeps=3)
        ledger = UserCounts.from_init(init)
        ledger = fit_chunk(slc1, init, cfg, base=ledger).fold_into(ledger)
        m2 = fit_chunk(slc2, init, cfg, base=ledger)
        before = [a.copy() for a in m2.user_weights()]
        ledger = m2.fold_into(ledger)
        ledger = fit_chunk(slc3, init, cfg, base=ledger).fold_into(ledger)
        after = m2.user_weights()
        assert all(np.array_equal(a, b) for a, b in zip(before[:2], after[:2]))
        assert same_bits(before[2], after[2])

    def test_ledger_matches_a_recount(self):
        # three chunks folded in turn: cold user 0 and warm users 4-6 sit
        # out chunk 2, cold user 1 and warm user 7 chunk 3. Each fold returns
        # a new read-only ledger, leaves the one it was given byte for byte
        # as it was, and holds the t=0 counts plus every folded assignment
        init, (slc1, _) = mixed_instance(31, 5)
        rng = np.random.default_rng(34)

        def chunk(t, absent, n=100):
            return ChunkSlice.from_edges(t, rng.choice([u for u in range(14) if u not in absent], n),
                                         rng.integers(0, 15, n))

        slices = [slc1, chunk(2, {0, 4, 5, 6}), chunk(3, {1, 7})]
        assert {0, 1} <= set(slc1.users.tolist()) and init.is_cold(0) and init.is_cold(1) and not init.is_cold(4)
        cfg = SamplerConfig(seed=3, max_sweeps=3)
        ledger = UserCounts.from_init(init)
        assert ledger.warm is init.support_n0
        fitted = []
        for slc in slices:
            m = fit_chunk(slc, init, cfg, base=ledger)
            given = [a.tobytes() for a in (ledger.warm, ledger.cold_keys, ledger.cold_counts)]
            folded = m.fold_into(ledger)
            assert [a.tobytes() for a in (ledger.warm, ledger.cold_keys, ledger.cold_counts)] == given
            assert m.base is ledger
            for a in (folded.warm, folded.cold_keys, folded.cold_counts):
                assert a.dtype == np.int64 and not a.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                folded.warm = ledger.warm
            fitted.append((slc, m))
            ledger = folded
        K = init.num_interests
        want_keys, want_counts = [], []
        for u in range(14):
            counts = dict(zip(init.support(u).tolist(), init.support_counts(u).tolist()))
            for slc, m in fitted:
                for k in m.z[slc.users == u].tolist():
                    counts[k] = counts.get(k, 0) + 1
            if init.is_cold(u):
                want_keys += [u * K + k for k in sorted(counts)]
                want_counts += [counts[k] for k in sorted(counts)]
            else:
                lo, hi = init.support_ptr[u], init.support_ptr[u + 1]
                assert ledger.warm[lo:hi].tolist() == [counts[k] for k in init.support(u).tolist()]
        assert len(ledger.warm) == len(init.support_k)
        assert (ledger.cold_keys.tolist(), ledger.cold_counts.tolist()) == (want_keys, want_counts)

    def test_reset_is_a_fit_without_a_ledger(self, tmp_path):
        # no setting selects reset: a fit without a ledger and one on a
        # fresh t=0 ledger give the same chain, tables and trace, bit for bit
        init, (slc1, _) = mixed_instance(31, 5)
        cfg = SamplerConfig(seed=3, max_sweeps=4, convergence_tol=0.0)
        plain = fit_chunk(slc1, init, cfg)
        ledger = fit_chunk(slc1, init, cfg, base=UserCounts.from_init(init))
        export_tables_text(plain, tmp_path / "plain.txt")
        export_tables_text(ledger, tmp_path / "ledger.txt")
        assert (tmp_path / "plain.txt").read_bytes() == (tmp_path / "ledger.txt").read_bytes()
        assert sweep_diagnostics_text(plain) == sweep_diagnostics_text(ledger)
        assert repr(plain.current_log_joint) == repr(ledger.current_log_joint)
        assert all(same_bits(a, b) for a, b in zip(plain.user_weights(), ledger.user_weights()))
        with pytest.raises(TypeError):
            SamplerConfig(user_count_mode="reset")

    def test_reset_mode_starts_from_train_each_chunk(self):
        init = make_init([(0, 0), (0, 1)], item_interest=[0, 1, 0, 1], K=2, num_items=4)
        cfg = SamplerConfig(seed=0)
        slc1 = ChunkSlice.from_edges(1, [0, 0], [2, 2])
        fit_chunk(slc1, init, cfg)
        slc2 = ChunkSlice.from_edges(2, [0], [3])
        m2 = fit_chunk(slc2, init, cfg)
        _, counts2 = m2.user_counts(0)
        assert counts2.sum() == 2 + 1  # train base (2) + this chunk (1)

    def test_conservation_of_chunk_deltas(self):
        init, users, items = tiny_instances()[2]
        slc = ChunkSlice.from_edges(1, users, items)
        m = fit_chunk(slc, init, SamplerConfig(seed=0))
        for u in np.unique(slc.users):
            ks, counts = m.user_counts(int(u))
            base = init.support_counts(int(u)).sum()
            assert counts.sum() - base == chunk_user_total(m, int(u))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        init, users, items = tiny_instances()[2]
        slc = ChunkSlice.from_edges(1, users, items)
        cfg = SamplerConfig(seed=7)
        m = fit_chunk(slc, init, cfg)
        p = tmp_path / "chunk.npz"
        save_chunk_model(m, p)
        m2 = load_chunk_model(p, slc, init, cfg)
        assert m2.z.tolist() == m.z.tolist()
        assert snapshot(m2) == snapshot(m)
        assert m2.current_log_joint == m.current_log_joint
        assert m2.sweeps_run == m.sweeps_run

    def test_wrong_chunk_rejected(self, tmp_path):
        init, users, items = tiny_instances()[0]
        slc = ChunkSlice.from_edges(1, users, items)
        cfg = SamplerConfig(seed=7)
        m = fit_chunk(slc, init, cfg)
        p = tmp_path / "chunk.npz"
        save_chunk_model(m, p)
        other = ChunkSlice.from_edges(2, users, items)
        match = re.escape(str(p)) + ": persisted model is for chunk 1, slice is chunk 2; rebuild it in a new output directory"
        with pytest.raises(ValueError, match=match):
            load_chunk_model(p, other, init, cfg)
        # a slice of chunk 1 with an engagement fewer: the assignments do
        # not fit it, and the refusal names the file too
        fewer = ChunkSlice.from_edges(1, users[:-1], items[:-1])
        match = re.escape(str(p)) + rf": \({len(users)},\) assignments for {len(users) - 1} engagements; rebuild"
        with pytest.raises(ValueError, match=match):
            load_chunk_model(p, fewer, init, cfg)

    def test_reload_under_other_init_rejected(self, tmp_path):
        # a log-joint that does not reproduce means the chunk was fitted
        # under another init, other data or another ledger
        init, users, items = tiny_instances()[1]
        slc = ChunkSlice.from_edges(1, users, items)
        cfg = SamplerConfig(seed=7)
        p = tmp_path / "chunk.npz"
        save_chunk_model(fit_chunk(slc, init, cfg), p)
        other = dataclasses.replace(init, alpha=2 * init.alpha)
        match = re.escape(str(p)) + r": chunk 1: reloaded log-joint .*; rebuild it in a new output directory"
        with pytest.raises(ValueError, match=match):
            load_chunk_model(p, slc, other, cfg)

    def test_reload_of_a_trace_a_few_ulps_off(self, tmp_path):
        # files of earlier versions traced a running sum of log weight
        # ratios, up to 6e-15 relative off the tables; a file whose last
        # log-joint is 30 ulps off (3e-15 to 7e-15 relative) still loads,
        # and the model takes the tables' value
        init, users, items = tiny_instances()[1]
        slc = ChunkSlice.from_edges(1, users, items)
        cfg = SamplerConfig(seed=7)
        m = fit_chunk(slc, init, cfg)
        *head, last = m.fit.log_joint
        drifted = last + 30 * math.ulp(last)
        p = tmp_path / "chunk.npz"
        write_fields(dataclasses.replace(m.fit, log_joint=(*head, drifted)), p)
        again = load_chunk_model(p, slc, init, cfg)
        assert again.fit.log_joint[-1] == drifted != last
        assert again.current_log_joint == m.current_log_joint == last

    @pytest.mark.parametrize("max_sweeps, tol, converged", [(1, 1e-4, False), (20, 1e-3, False), (20, 1e-2, True)])
    def test_reloaded_fit_equals_the_fitted_one(self, tmp_path, max_sweeps, tol, converged):
        # the file holds the whole fit: the reloaded model's fit has every
        # field's value and type, so the trace it prints is the fitted one's,
        # whether the stop rule fired or the sweeps ran out
        init, (slc, _) = mixed_instance(11, 6)
        cfg = SamplerConfig(seed=2, max_sweeps=max_sweeps, convergence_tol=tol)
        m = fit_chunk(slc, init, cfg)
        assert m.converged is converged
        save_chunk_model(m, tmp_path / "m.npz")
        again = load_chunk_model(tmp_path / "m.npz", slc, init, cfg)
        assert fit_fields(again.fit) == fit_fields(m.fit)
        assert (again.sweeps_run, again.converged) == (m.sweeps_run, m.converged) == (len(m.fit.changed), m.fit.converged)
        assert sweep_diagnostics_text(again) == sweep_diagnostics_text(m)
        assert len(sweep_diagnostics_text(m).splitlines()) == m.sweeps_run + 1 <= max_sweeps + 1
        assert m.fit.z.tolist() == m.z.tolist()
        for fit in (m.fit, again.fit):
            with pytest.raises(ValueError, match="read-only"):
                fit.z[0] = 0

    def test_fit_without_a_sweep_refused(self):
        # a fit runs one sweep or more, and reloading checks the last
        # log-joint; tests/test_artifacts.py checks the other damage
        fit = dict(chunk=1, z=np.zeros(3, np.int64), converged=False, underflow_events=0)
        assert ChunkFit(**fit, log_joint=[-2.0], changed=[3]).log_joint == (-2.0,)
        with pytest.raises(ValueError, match="0 log-joints and 0 change counts"):
            ChunkFit(**fit, log_joint=(), changed=())

    def test_diagnostics_and_table_dump(self, tmp_path):
        init, users, items = tiny_instances()[1]
        slc = ChunkSlice.from_edges(1, users, items)
        m = fit_chunk(slc, init, SamplerConfig(seed=7))
        text = sweep_diagnostics_text(m)
        assert text.startswith("sweep\tlog_joint\tchanged")
        assert len(text.strip().splitlines()) == m.sweeps_run + 1
        out = tmp_path / "tables.tsv"
        export_tables_text(m, out)
        body = out.read_text()
        for section in ("user_interest", "item_interest", "interest", "assignments"):
            assert f"section={section}" in body


# --- the compiled sweep against the Python reference -------------------------

TABLES = ("_zpos", "_uk", "_ck", "_cc", "_cfill", "_ik", "_ic", "_ifill", "_nk")


def fit_fields(fit: ChunkFit) -> dict:
    """Each field of ``fit`` with its type; ``z`` as its dtype, shape and bytes."""
    out = {f.name: (type(getattr(fit, f.name)), getattr(fit, f.name)) for f in dataclasses.fields(fit)}
    out["z"] = (fit.z.dtype, fit.z.shape, fit.z.tobytes())
    return out


def raw_tables(m):
    """Every count array as stored, unused row capacity included."""
    return {name: getattr(m, name).tolist() for name in TABLES}


def mixed_instance(seed, K, U=14, cold_users=4, I=30, n=160):
    """Warm users with train history, cold users without, repeated items."""
    rng = np.random.default_rng(seed)
    train = [(u, int(rng.integers(I))) for u in range(cold_users, U) for _ in range(5)]
    init = make_init(train, rng.integers(0, K, I).tolist(), K, num_users=U, num_items=I)
    slices = [
        ChunkSlice.from_edges(t, rng.integers(0, U, n), rng.integers(0, I // 2, n))
        for t in (1, 2)
    ]
    return init, slices


def sweep_reference(m, unif, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(sampler, "load_kernel", lambda: None)
        return m.run_sweep(unif)


@pytest.fixture
def kernel():
    fn = sweep_kernel.load_kernel()
    if fn is None:
        pytest.skip("no C compiler: only the Python sweep runs here")
    return fn


class TestCompiledSweep:
    @pytest.mark.parametrize("mode", ["reset", "accumulate"])
    @pytest.mark.parametrize("K", [1, 3, 40, 1000])
    def test_kernel_matches_python_bit_for_bit(self, kernel, monkeypatch, K, mode):
        init, (slc1, slc2) = mixed_instance(K + len(mode), K)
        cfg = SamplerConfig(seed=K)
        base = UserCounts.from_init(init)
        if mode == "accumulate":
            # a second chunk on a ledger that already holds cold users' rows
            base = fit_chunk(slc1, init, cfg, base=base).fold_into(base)
            assert len(base.cold_keys)
            slc = slc2
        else:
            slc = slc1
        ref = ChunkModel(slc, init, cfg, base=base)
        got = ChunkModel(slc, init, cfg, base=base)
        rng = np.random.default_rng(K)
        for _ in range(6):
            unif = rng.random(ref.n)
            changed_ref = sweep_reference(ref, unif, monkeypatch)
            assert got.run_sweep(unif) == changed_ref
            assert raw_tables(got) == raw_tables(ref)
            assert got.z.tolist() == ref.z.tolist()
            assert got.underflow_events == ref.underflow_events
            assert got.current_log_joint == ref.current_log_joint
        # combined user counts = base (train or ledger) counts + chunk assignments
        for u in np.unique(slc.users).tolist():
            want = ledger_row(base, init, u)
            for k in got.z[slc.users == u].tolist():
                want[k] = want.get(k, 0) + 1
            ks, cs = got.user_counts(u)
            assert dict(zip(ks.tolist(), cs.tolist())) == want
        # one vectorised rebuild from z gives the tables the sweeps kept
        again = ChunkModel(slc, init, cfg, base=base, z=got.z)
        assert snapshot(again) == snapshot(got)
        assert again.current_log_joint == got.current_log_joint

    def test_underflow_falls_back_identically(self, kernel, monkeypatch):
        # every interest keeps warm engagements, so with priors of 1e-300 a
        # cold user's weights all underflow to 0 (a uniform pick) unless the
        # user holds another engagement, whose interest alone keeps a weight
        tiny = 1e-300
        init = make_init([(0, 0), (1, 1), (2, 2)], list(range(3)) + [0] * 37, 3,
                         num_users=6, num_items=40, alpha=tiny, beta=tiny)
        users = [0, 0, 1, 1, 2, 2, 3, 4, 5, 5]
        items = [0, 0, 1, 1, 2, 2, 10, 11, 12, 13]
        slc = ChunkSlice.from_edges(1, users, items)
        cfg = SamplerConfig(seed=2)
        ref, got = ChunkModel(slc, init, cfg), ChunkModel(slc, init, cfg)
        rng = np.random.default_rng(0)
        for _ in range(4):
            unif = rng.random(ref.n)
            assert got.run_sweep(unif) == sweep_reference(ref, unif, monkeypatch)
            assert raw_tables(got) == raw_tables(ref)
            assert got.current_log_joint == ref.current_log_joint
            assert got.current_log_joint == got.log_joint()
        assert got.underflow_events == ref.underflow_events >= 4 * 2

    def test_cold_weights_follow_every_count_change(self, kernel, monkeypatch):
        # K=2 with I*beta = 0.4: one engagement more or less moves an
        # interest's zero-count cold weight by a factor of 1.4 to 3.5. User
        # 0's support is {0, 1}, and its engagement stays in its interest or
        # moves to the other one; the cold user 1 then resamples an item
        # nobody else engages, so every weight it sees is a zero-count one,
        # read right after the warm resample. Its uniform runs over a grid.
        init = make_init([(0, 0), (0, 1)], [0, 1, 1, 0], 2, num_users=2, num_items=4, alpha=0.5, beta=0.1)
        assert init.num_items * init.beta < 1
        slc = ChunkSlice.from_edges(1, [0, 1], [3, 2])
        cfg = SamplerConfig(seed=0)
        seen = set()
        for z in ([0, 0], [0, 1], [1, 0], [1, 1]):
            for u_warm in (0.001, 0.999):
                for u_cold in (np.arange(100) + 0.5) / 100:
                    ref, got = ChunkModel(slc, init, cfg, z=np.array(z)), ChunkModel(slc, init, cfg, z=np.array(z))
                    unif = np.array([u_warm, u_cold])
                    assert got.run_sweep(unif) == sweep_reference(ref, unif, monkeypatch)
                    assert raw_tables(got) == raw_tables(ref)
                    assert got.current_log_joint == ref.current_log_joint
                    seen.add((z[0], *got.z.tolist()))
        # every warm move or stay, each followed by either cold pick
        assert seen == {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}

    @pytest.mark.parametrize("mode", ["reset", "accumulate"])
    def test_hot_items_and_emptied_interests(self, kernel, monkeypatch, mode):
        # warm users with wide supports and cold users each engage the same
        # few hot items in a row, so consecutive resamples read item rows
        # that span many interests and differ in which ones; the sparse
        # items and one-engagement interests empty an interest's total
        # and fill it again
        K = 24
        rng = np.random.default_rng(7)
        I = 60
        train = [(u, i) for u in range(3, 10) for i in rng.choice(I, 6, replace=False).tolist()]
        init = make_init(train, (np.arange(I) % K).tolist(), K, num_users=10, num_items=I)
        hot = [0, 1, 2]
        users = np.repeat(np.arange(10), 8)
        items = np.concatenate([hot * 2 + rng.integers(3, I, 2).tolist() for _ in range(10)])
        slices = [ChunkSlice.from_edges(t, users, items) for t in (1, 2)]
        cfg = SamplerConfig(seed=5)
        base = UserCounts.from_init(init)
        if mode == "accumulate":
            base = fit_chunk(slices[0], init, cfg, base=base).fold_into(base)
            assert len(base.cold_keys)
        ref = ChunkModel(slices[1], init, cfg, base=base)
        got = ChunkModel(slices[1], init, cfg, base=base)
        ones = wide = 0
        for _ in range(8):
            ones += int((ref.n_kt == 1).sum())
            wide = max(wide, int(ref._ifill.max()))
            unif = rng.random(ref.n)
            assert got.run_sweep(unif) == sweep_reference(ref, unif, monkeypatch)
            assert raw_tables(got) == raw_tables(ref)
            assert got.current_log_joint == ref.current_log_joint
        # an interest held by one engagement at a sweep's start is emptied
        # when that engagement is resampled
        assert ones
        assert wide >= K // 2

    def test_compile_failure_falls_back_to_python(self, kernel, monkeypatch, caplog):
        init, (slc, _) = mixed_instance(5, 7)
        cfg = SamplerConfig(seed=3, max_sweeps=4)
        want = fit_chunk(slc, init, cfg)
        monkeypatch.setattr(sweep_kernel, "CC", "/nonexistent/cc")
        sweep_kernel.load_kernel.cache_clear()
        try:
            with caplog.at_level(logging.INFO, logger="mixrec.sweep_kernel"):
                got = fit_chunk(slc, init, cfg)
            assert sweep_kernel.load_kernel() is None
        finally:
            monkeypatch.undo()
            sweep_kernel.load_kernel.cache_clear()
        logged = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "mixrec.sweep_kernel"]
        assert [level for level, _ in logged] == [logging.WARNING, logging.INFO]
        assert "/nonexistent/cc" in logged[0][1]
        assert logged[1][1] == "Gibbs sweep: Python; top-M selection, embedding SGD update and gather-sum: numpy"
        assert raw_tables(got) == raw_tables(want)
        assert fit_fields(got.fit) == fit_fields(want.fit)

    def test_tables_bounded_by_engagements_at_k5000(self):
        K = 5000
        init, (slc, _) = mixed_instance(9, K, U=40, cold_users=10, I=200, n=600)
        m = fit_chunk(slc, init, SamplerConfig(seed=1, max_sweeps=2))
        assert len(m._ik) <= m.n
        cold = [u for u in m.slice.unique_users.tolist() if init.is_cold(u)]
        assert len(m._ck) == sum(chunk_user_total(m, u) for u in cold)
        # nothing is items x K or users x K
        sizes = [a.size for a in vars(m).values() if isinstance(a, np.ndarray)]
        assert max(sizes) <= max(m.n, K + 1)

    def test_rebuild_rejects_assignment_outside_support(self):
        init, users, items = tiny_instances()[0]
        slc = ChunkSlice.from_edges(1, users, items)
        cfg = SamplerConfig(seed=0)
        z = ChunkModel(slc, init, cfg).z
        for bad in (1, 2):  # user 0's support is {0}; 2 is out of range
            with pytest.raises(ValueError):
                ChunkModel(slc, init, cfg, z=np.r_[bad, z[1:]])

