import numpy as np
import pytest
from scipy import stats

from mixrec.sampler import SamplerConfig, fit_chunk
from mixrec.synth import (
    SynthSpec,
    exact_match_fraction,
    generate,
    init_from_truth,
    score_recovery,
)


class TestGenerate:
    def test_graph_invariants(self):
        spec = SynthSpec(
            num_users=30, num_items=60, num_interests=4, num_chunks=3,
            engagements_per_user=5, seed=1,
        )
        g, truth = generate(spec)
        g.validate()
        assert g.num_edges == 30 * 5 * 3
        for t in range(3):
            slc = g.slice(t)
            assert len(slc) == 30 * 5
            assert len(truth.z[t]) == len(slc)
            # block mode: every item was drawn under its owning interest
            for i, k in zip(slc.items.tolist(), truth.z[t].tolist()):
                assert truth.item_block[i] == k

    def test_theta_point_mass_forces_identical_z(self):
        spec = SynthSpec(
            num_users=10, num_items=20, num_interests=5, num_chunks=2,
            engagements_per_user=8, support_size=1, seed=3,
        )
        g, truth = generate(spec)
        for u in range(10):
            k = truth.supports[u][0]
            for t in range(2):
                zu = truth.z[t][u * 8:(u + 1) * 8]
                assert set(zu.tolist()) == {int(k)}

    def test_seed_determinism(self):
        spec = SynthSpec(
            num_users=12, num_items=30, num_interests=3, num_chunks=2,
            engagements_per_user=4, seed=9,
        )
        g1, t1 = generate(spec)
        g2, t2 = generate(spec)
        assert np.array_equal(g1.items, g2.items)
        assert np.array_equal(t1.theta, t2.theta)
        for a, b in zip(t1.z, t2.z):
            assert np.array_equal(a, b)

    def test_k1_item_frequencies_chi_square(self):
        # 100k draws against the known item distribution, p=0.01
        spec = SynthSpec(
            num_users=100, num_items=40, num_interests=1, num_chunks=1,
            engagements_per_user=1000, support_size=1,
            phi_concentration=5.0, block_items=False, seed=11,
        )
        g, truth = generate(spec)
        assert set(np.concatenate(truth.z).tolist()) == {0}
        counts = np.bincount(g.items, minlength=40)
        n = counts.sum()
        expected = truth.phi[0, 0] * n
        keep = expected > 5  # standard chi-square validity guard
        chi2 = float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        crit = stats.chi2.ppf(0.99, df=int(keep.sum()) - 1)
        assert chi2 < crit

    def test_empirical_theta_converges(self):
        # law of large numbers on per-user interest frequencies
        spec = SynthSpec(
            num_users=20, num_items=50, num_interests=4, num_chunks=1,
            engagements_per_user=5000, support_size=2, seed=13,
        )
        g, truth = generate(spec)
        z = truth.z[0]
        for u in range(20):
            zu = z[u * 5000:(u + 1) * 5000]
            emp = np.bincount(zu, minlength=4) / 5000
            assert np.abs(emp - truth.theta[u]).max() < 0.03

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(num_users=0, num_items=1, num_interests=1, num_chunks=1, engagements_per_user=1)
        with pytest.raises(ValueError):
            SynthSpec(num_users=1, num_items=1, num_interests=2, num_chunks=1,
                      engagements_per_user=1, support_size=3)


class TestInitFromTruth:
    def test_theta_mode_supports_match_truth(self):
        spec = SynthSpec(
            num_users=25, num_items=50, num_interests=5, num_chunks=1,
            engagements_per_user=6, support_size=2, seed=2,
        )
        g, truth = generate(spec)
        init = init_from_truth(truth, num_items=50, counts_mode="theta", pseudo_count=20)
        init.validate()
        for u in range(25):
            assert init.support(u).tolist() == truth.supports[u].tolist()
            assert np.all(init.support_counts(u) >= 1)

    def test_chunk0_mode_counts_true_assignments(self):
        spec = SynthSpec(
            num_users=10, num_items=30, num_interests=3, num_chunks=2,
            engagements_per_user=12, support_size=2, seed=4,
        )
        g, truth = generate(spec)
        init = init_from_truth(truth, num_items=30, counts_mode="chunk0", train_chunk=0)
        init.validate()
        z0 = truth.z[0]
        for u in range(10):
            ks, counts = np.unique(z0[u * 12:(u + 1) * 12], return_counts=True)
            assert init.support(u).tolist() == ks.tolist()
            assert init.support_counts(u).tolist() == counts.tolist()

    def test_bad_mode(self):
        spec = SynthSpec(
            num_users=2, num_items=4, num_interests=2, num_chunks=1,
            engagements_per_user=2, seed=0,
        )
        _, truth = generate(spec)
        with pytest.raises(ValueError):
            init_from_truth(truth, num_items=4, counts_mode="nope")


class TestScoreRecovery:
    def fixture(self):
        spec = SynthSpec(
            num_users=40, num_items=100, num_interests=5, num_chunks=2,
            engagements_per_user=10, support_size=2, seed=6,
        )
        g, truth = generate(spec)
        init = init_from_truth(truth, num_items=100, counts_mode="theta")
        return g, truth, init

    def test_truth_assignments_score_one(self):
        g, truth, init = self.fixture()
        models = {}
        for t in range(2):
            m = fit_chunk(g.slice(t), init, SamplerConfig(seed=t, max_sweeps=1))
            for j in range(m.n):
                m.remove(j)
                m.assign(j, int(truth.z[t][j]))
            models[t] = m
        rep = score_recovery(truth, models)
        assert rep.per_chunk_exact == {0: 1.0, 1: 1.0}
        assert rep.overall_exact == 1.0

    def test_random_assignments_near_chance(self):
        rng = np.random.default_rng(0)
        z = rng.integers(0, 5, 50_000)
        fitted = rng.integers(0, 5, 50_000)
        assert exact_match_fraction(z, fitted) == pytest.approx(0.2, abs=0.01)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            exact_match_fraction(np.zeros(3), np.zeros(4))

    def test_fitted_recovery_beats_chance(self):
        g, truth, init = self.fixture()
        models = {t: fit_chunk(g.slice(t), init, SamplerConfig(seed=50 + t)) for t in range(2)}
        rep = score_recovery(truth, models)
        assert rep.worst_exact() > 0.5
        assert rep.worst_tv() < 0.3

    def test_label_matching_mode_fixes_permutation(self):
        g, truth, init = self.fixture()
        models = {t: fit_chunk(g.slice(t), init, SamplerConfig(seed=50 + t)) for t in range(2)}
        # permute fitted labels; anchored scoring collapses, matched scoring recovers
        perm = np.array([4, 3, 2, 1, 0])
        permuted_truth = SynthTruth_like_permuted(truth, perm)
        raw = score_recovery(permuted_truth, models)
        matched = score_recovery(permuted_truth, models, match_labels=True)
        assert matched.overall_exact > raw.overall_exact
        assert matched.overall_exact > 0.5


def SynthTruth_like_permuted(truth, perm):
    from mixrec.synth import SynthTruth

    return SynthTruth(
        theta=truth.theta[:, np.argsort(perm)],
        supports=[np.sort(perm[s]) for s in truth.supports],
        phi=truth.phi,
        z=[perm[z] for z in truth.z],
        item_block=truth.item_block,
    )
