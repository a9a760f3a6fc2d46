import hashlib

import numpy as np
import pytest

from pmnet import (
    DiamondSpec,
    DimensionError,
    FeatureMap,
    GeneratorError,
    McmcConfig,
    ParamBlocks,
    SizeError,
    build_gaussian_spec,
    build_pair_index,
    gradient,
    normalizer_enumeration_oracle,
    sample_diamond,
    sample_gaussian,
    truth_support,
)
from pmnet import _kernels
from pmnet.model import PairPolicy
from pmnet.synth import (
    diamond_partition,
    diamond_truth_support,
    finite_difference_gradient,
    gaussian_partition,
)

from conftest import make_dataset

ALL = PairPolicy(kind="all_ordered")


class TestGaussianSpec:
    def test_within_group_entries(self):
        spec = build_gaussian_spec(m=20, split=(15, 5), rho=0.6, passage_size=5, eig_rank=7)
        # rho^|i-j| * sqrt(i*j) with 1-based indices
        assert spec.precision[0, 1] == pytest.approx(0.6 * np.sqrt(2.0), rel=1e-15)
        assert spec.precision[4, 6] == pytest.approx(0.6**2 * np.sqrt(5 * 7), rel=1e-15)
        assert spec.precision[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(spec.precision, spec.precision.T)

    def test_fill_value_is_requested_eigenvalue(self):
        spec = build_gaussian_spec(m=20, split=(15, 5), rho=0.6, passage_size=5, eig_rank=7)
        idx = np.arange(1, 21.0)
        pre = 0.6 ** np.abs(idx[:, None] - idx[None, :]) * np.sqrt(np.outer(idx, idx))
        in_g2 = np.arange(20) >= 15
        pre[in_g2[:, None] != in_g2[None, :]] = 0.0
        lam = float(np.sort(np.linalg.eigvalsh(pre))[6])
        assert spec.fill_value == pytest.approx(lam, rel=1e-12)
        assert spec.fill_value == pytest.approx(3.303511916391271, rel=1e-12)

    def test_default_construction_matches_frozen_values(self):
        spec = build_gaussian_spec()
        assert spec.m == 50 and spec.split == (40, 10)
        assert spec.precision[0, 1] == pytest.approx(1.1313708498984762, rel=1e-15)
        assert spec.fill_value == pytest.approx(3.3026085135797927, rel=1e-12)
        rows, cols = spec.passage_block
        assert (rows, cols) == ((30, 40), (40, 50))
        block = spec.precision[30:40, 40:50]
        np.testing.assert_allclose(block, spec.fill_value * np.eye(10))
        # everything cross-group outside the passage block is zero
        cross = spec.precision[:40, 40:].copy()
        cross[30:40, :10] = 0.0
        assert np.count_nonzero(cross) == 0

    def test_truth_support(self):
        spec = build_gaussian_spec()
        truth = truth_support(spec)
        assert sorted(truth.active) == [(30 + i, 40 + i) for i in range(10)]
        full = truth_support(spec, cross_only=False)
        # dense within groups plus the ten passages
        assert full.size == 40 * 39 // 2 + 10 * 9 // 2 + 10

    def test_positive_definite_guard(self):
        with pytest.raises(GeneratorError, match="rho"):
            build_gaussian_spec(m=20, split=(15, 5), rho=0.6, passage_size=5, eig_rank=15)

    def test_argument_guards(self):
        with pytest.raises(GeneratorError):
            build_gaussian_spec(m=10, split=(5, 4))
        with pytest.raises(GeneratorError):
            build_gaussian_spec(m=10, split=(8, 2), passage_size=3)
        with pytest.raises(GeneratorError):
            build_gaussian_spec(m=10, split=(8, 2), passage_size=2, eig_rank=11)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf])
    def test_non_finite_rho_rejected(self, rho):
        with pytest.raises(GeneratorError, match="rho must be finite"):
            build_gaussian_spec(rho=rho)

    def test_partition(self):
        spec = build_gaussian_spec(m=20, split=(15, 5), rho=0.6, passage_size=5, eig_rank=7)
        p = gaussian_partition(spec)
        assert p.group1 == tuple(range(15))
        assert p.group2 == tuple(range(15, 20))


class TestGaussianSampling:
    def test_deterministic_per_seed(self):
        spec = build_gaussian_spec(m=8, split=(6, 2), rho=0.5, passage_size=2, eig_rank=3)
        a = sample_gaussian(spec, 50, seed=5)
        b = sample_gaussian(spec, 50, seed=5)
        c = sample_gaussian(spec, 50, seed=6)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_covariance_matches_inverse_precision(self):
        spec = build_gaussian_spec(m=8, split=(6, 2), rho=0.5, passage_size=2, eig_rank=3)
        data = sample_gaussian(spec, 40_000, seed=11)
        emp = np.cov(data.samples, rowvar=False)
        target = np.linalg.inv(spec.precision)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel < 0.05


class TestDiamond:
    def test_layout(self):
        spec = DiamondSpec(blocks=3)
        assert spec.m == 12
        p = diamond_partition(spec)
        assert p.group1 == (0, 4, 8)
        assert set(p.group2) == set(range(12)) - {0, 4, 8}
        truth = diamond_truth_support(spec)
        assert sorted(truth.active) == [(0, 1), (4, 5), (8, 9)]
        full = diamond_truth_support(spec, cross_only=False)
        assert sorted(full.active) == sorted(
            [(0, 1), (4, 5), (8, 9), (1, 2), (1, 3), (5, 6), (5, 7), (9, 10), (9, 11)]
        )

    def test_deterministic(self):
        spec = DiamondSpec(blocks=2, mcmc=McmcConfig(burn_in=500, thinning=5, seed=3))
        a = sample_diamond(spec, 40)
        b = sample_diamond(spec, 40)
        np.testing.assert_array_equal(a.samples, b.samples)
        other = DiamondSpec(blocks=2, mcmc=McmcConfig(burn_in=500, thinning=5, seed=4))
        assert not np.array_equal(a.samples, sample_diamond(other, 40).samples)

    def test_zero_rho_matches_gaussian_moments(self):
        # at rho = 0 each block is exactly N(0, inv(P)) with
        # P = [[2,0,0,0],[0,2,.5,.5],[0,.5,2,0],[0,.5,0,2]]
        spec = DiamondSpec(blocks=2, rho=0.0, mcmc=McmcConfig(burn_in=2000, thinning=20, seed=9))
        data = sample_diamond(spec, 4000)
        prec = np.array(
            [[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.5, 0.5], [0.0, 0.5, 2.0, 0.0], [0.0, 0.5, 0.0, 2.0]]
        )
        target = np.linalg.inv(prec)
        for b in range(2):
            block = data.samples[:, 4 * b : 4 * b + 4]
            emp = np.cov(block, rowvar=False)
            np.testing.assert_allclose(emp, target, atol=0.08)
            np.testing.assert_allclose(block.mean(axis=0), 0.0, atol=0.08)

    def test_blocks_are_independent_chains(self):
        spec = DiamondSpec(blocks=2, mcmc=McmcConfig(burn_in=1000, thinning=10, seed=2))
        data = sample_diamond(spec, 3000)
        corr = np.corrcoef(data.samples, rowvar=False)
        assert np.abs(corr[:4, 4:]).max() < 0.08

    def test_acceptance_rate_warning(self):
        spec = DiamondSpec(
            blocks=1, mcmc=McmcConfig(burn_in=200, thinning=2, proposal_std=60.0, seed=0)
        )
        with pytest.warns(UserWarning, match="acceptance rate"):
            sample_diamond(spec, 30)

    @pytest.mark.parametrize(
        "blocks,n,seed,sha256,accepts",
        [
            (
                2, 400, 11,
                "521dd40121b0e250973e2f5b840db81f499d451a73de8a016d7253a0c65ac473",
                [12273, 12400],
            ),
            (
                13, 30, 5,
                "7def917efb9090569ba015543447edfb66cefab5451760406bf5f909f8d17e72",
                [3204, 3170, 3173, 3189, 3221, 3242, 3205, 3250, 3286, 3230, 3193, 3148, 3181],
            ),
        ],
    )
    def test_samples_are_pinned(self, monkeypatch, blocks, n, seed, sha256, accepts):
        """Bits and per-block accept counts of the walk over numpy scalars."""
        walk = _kernels.diamond_chain
        seen = []

        def recording(*args):
            kept, accepted = walk(*args)
            seen.append(accepted)
            return kept, accepted

        monkeypatch.setattr(_kernels, "diamond_chain", recording)
        spec = DiamondSpec(blocks=blocks, mcmc=McmcConfig(seed=seed))
        data = sample_diamond(spec, n)
        assert hashlib.sha256(data.samples.tobytes()).hexdigest() == sha256
        assert seen == accepts

    def test_guards(self):
        with pytest.raises(GeneratorError):
            DiamondSpec(blocks=0)
        with pytest.raises(GeneratorError):
            McmcConfig(thinning=0)
        with pytest.raises(DimensionError):
            sample_diamond(DiamondSpec(blocks=1), 1)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, -5.0, -1e-300])
    def test_improper_rho_rejected(self, rho):
        with pytest.raises(GeneratorError, match="rho must be finite and >= 0"):
            DiamondSpec(rho=rho)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_proposal_rejected(self, value):
        with pytest.raises(GeneratorError, match="proposal_std"):
            McmcConfig(proposal_std=value)


class TestReferenceImplementations:
    def test_fd_gradient_converges_second_order(self):
        data = make_dataset(8, 2, 2, seed=51)
        idx = build_pair_index(4)
        rng = np.random.default_rng(51)
        theta = ParamBlocks(0.4 * rng.standard_normal(idx.dim), idx)
        f = FeatureMap.product()
        g = gradient(theta, data, f, pair_policy=ALL)
        err = {
            h: np.linalg.norm(finite_difference_gradient(theta, data, f, h=h, pair_policy=ALL) - g)
            for h in (2e-3, 1e-3)
        }
        # central differences: halving h should cut the error by about 4
        assert err[1e-3] < 0.5 * err[2e-3]

    def test_enumeration_oracle_refuses_large_n(self):
        data = make_dataset(65, 2, 2, seed=1)
        idx = build_pair_index(4)
        with pytest.raises(SizeError):
            normalizer_enumeration_oracle(ParamBlocks.zeros(idx), data, FeatureMap.product())
