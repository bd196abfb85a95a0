import zlib

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
            phi_concentration=5.0, seed=11,
        )
        g, truth = generate(spec)
        assert set(np.concatenate(truth.z).tolist()) == {0}
        counts = np.bincount(g.items, minlength=40)
        n = counts.sum()
        expected = truth.phi[0] * n
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


    # CRC-32s of g.items, the concatenated z and theta, recorded from a dense
    # T x K x I phi in which each interest drew over all items with zeros
    # outside its block; drawing from the block alone must keep every bit
    @pytest.mark.parametrize(
        "kwargs, crcs",
        [
            (dict(num_users=100, num_items=40, num_interests=1, num_chunks=1,
                  engagements_per_user=1000, support_size=1, phi_concentration=5.0, seed=11),
             ("ca305d34", "658258b4", "dc75c79b")),
            (dict(num_users=60, num_items=150, num_interests=5, num_chunks=5,
                  engagements_per_user=20, support_size=2, seed=7),
             ("901e61d0", "9ec78c30", "19cea7b5")),
            (dict(num_users=200, num_items=2000, num_interests=300, num_chunks=3,
                  engagements_per_user=10, support_size=4, seed=5),
             ("71e7000a", "ba2a315b", "39419c30")),
        ],
        ids=["k1", "smoke", "k300"],
    )
    def test_pinned_draws(self, kwargs, crcs):
        g, truth = generate(SynthSpec(**kwargs))
        got = tuple(
            f"{zlib.crc32(np.ascontiguousarray(a).tobytes()):08x}"
            for a in (g.items, np.concatenate(truth.z), truth.theta)
        )
        assert got == crcs

    def test_per_item_truth_at_paper_scale(self):
        spec = SynthSpec(
            num_users=3, num_items=20_000, num_interests=5000, num_chunks=6,
            engagements_per_user=5, support_size=4, seed=1,
        )
        _, truth = generate(spec)
        assert truth.phi.shape == (6, 20_000)
        assert np.array_equal(np.bincount(truth.item_block), np.full(5000, 4))
        # each interest's block carries one distribution per chunk
        sums = np.add.reduceat(truth.phi, np.arange(0, 20_000, 4), axis=1)
        assert np.allclose(sums, 1.0)


class TestInitFromTruth:
    def test_theta_mode_supports_match_truth(self):
        spec = SynthSpec(
            num_users=25, num_items=50, num_interests=5, num_chunks=1,
            engagements_per_user=6, support_size=2, seed=2,
        )
        g, truth = generate(spec)
        init = init_from_truth(truth, num_items=50)
        for u in range(25):
            assert init.support(u).tolist() == truth.supports[u].tolist()
            assert np.all(init.support_counts(u) >= 1)


class TestScoreRecovery:
    def fixture(self):
        spec = SynthSpec(
            num_users=40, num_items=100, num_interests=5, num_chunks=2,
            engagements_per_user=10, support_size=2, seed=6,
        )
        g, truth = generate(spec)
        init = init_from_truth(truth, num_items=100)
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
