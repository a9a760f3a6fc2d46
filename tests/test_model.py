import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmnet import (
    Dataset,
    DimensionError,
    FeatureMap,
    GeometricSchedule,
    NumericError,
    PairPolicy,
    ParamBlocks,
    Partition,
    SizeError,
    build_pair_index,
    diagnostics,
    feature_eval,
    fit,
    gradient,
    hessian,
    lambda_path,
    negative_log_likelihood,
    normalizer_hat,
    ratio_hat,
    unnormalized_log_ratio,
)
from pmnet import core as core_mod
from pmnet import model as model_mod
from pmnet.core import observed_feature_bounds, pair_feature_matrix, permuted_matrix, permuted_pair
from pmnet.model import ModelTerms, PairSample, PairScoreGrid, select_ordered_pairs
from pmnet.synth import finite_difference_gradient, normalizer_enumeration_oracle

from conftest import make_coded_dataset, make_dataset

ALL = PairPolicy(kind="all_ordered")


def random_theta(index, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return ParamBlocks(scale * rng.standard_normal(index.dim), index)


class TestPairSelection:
    def test_all_ordered(self):
        j, k = select_ordered_pairs(5, ALL)
        assert j.shape == (20,)
        assert np.all(j != k)
        assert len({(a, b) for a, b in zip(j, k)}) == 20

    def test_subsample_is_capped_and_deterministic(self):
        pol = PairPolicy(cap=50, seed=4)
        j1, k1 = select_ordered_pairs(30, pol)
        j2, k2 = select_ordered_pairs(30, pol)
        assert j1.shape == (50,)
        assert np.all(j1 != k1)
        np.testing.assert_array_equal(j1, j2)
        np.testing.assert_array_equal(k1, k2)
        # distinct ordered pairs only
        assert len({(a, b) for a, b in zip(j1, k1)}) == 50

    def test_auto_switches_on_threshold(self):
        # the default cap keeps every ordered pair while n(n-1) <= 5 x 40,000:
        # up to n = 447 (199,362 pairs)
        j_small, _ = select_ordered_pairs(447)
        assert j_small.shape == (447 * 446,)
        j_big, _ = select_ordered_pairs(448)
        assert j_big.shape == (40_000,)
        assert (PairPolicy().layout(447), PairPolicy().layout(448)) == ("grid", "dense")

    def test_auto_honours_cap_at_small_n(self):
        j, k = select_ordered_pairs(100, PairPolicy(cap=500))
        assert j.shape == (500,)
        assert len({(a, b) for a, b in zip(j, k)}) == 500

    @pytest.mark.parametrize("n, cap, seed", [(7, 5, 0), (30, 50, 4), (200, 7_000, 3), (448, 40_000, 11),
                                              (1000, 12_345, 1009), (20, 75, 2)])
    def test_codes_match_unique_reference(self, n, cap, seed):
        # the draw-and-deduplicate loop with np.unique, as the codes were first made
        total = n * (n - 1)
        rng = np.random.default_rng(seed)
        codes = np.empty(0, dtype=np.int64)
        while codes.size < cap:
            codes = np.unique(np.concatenate([codes, rng.integers(0, total, size=2 * cap, dtype=np.int64)]))
        j, k = select_ordered_pairs(n, PairPolicy(cap=cap, seed=seed))
        assert j.dtype == k.dtype == np.int64
        np.testing.assert_array_equal(j, codes[:cap] // (n - 1))
        rem = codes[:cap] % (n - 1)
        np.testing.assert_array_equal(k, rem + (rem >= j))

    def test_policy_guards(self):
        with pytest.raises(DimensionError):
            PairPolicy(kind="sometimes")
        with pytest.raises(DimensionError):
            PairPolicy(kind="subsample")
        with pytest.raises(DimensionError):
            PairPolicy(cap=0)
        with pytest.raises(DimensionError, match="seed >= 0"):
            PairPolicy(seed=-1, cap=1000)


class TestParamBlocks:
    def test_layout(self):
        idx = build_pair_index(3, block_dim=2)
        theta = ParamBlocks(np.arange(6.0), idx)
        np.testing.assert_array_equal(theta.block((0, 2)), [2.0, 3.0])
        np.testing.assert_allclose(theta.block_norms(), [np.hypot(0, 1), np.hypot(2, 3), np.hypot(4, 5)])

    def test_nonzero_pairs(self):
        idx = build_pair_index(3)
        theta = ParamBlocks([0.0, 0.5, 0.0], idx)
        assert theta.nonzero_pairs() == ((0, 2),)

    def test_dim_guard(self):
        with pytest.raises(DimensionError):
            ParamBlocks(np.zeros(4), build_pair_index(3))


class TestNormalizer:
    def test_zero_theta_is_exactly_one(self, small_data):
        idx = build_pair_index(small_data.m)
        est = normalizer_hat(ParamBlocks.zeros(idx), small_data, FeatureMap.product(), ALL)
        assert est.value == 1.0
        assert est.pair_count == small_data.n * (small_data.n - 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_enumeration_oracle(self, seed):
        data = make_dataset(8, 2, 2, seed=seed)
        idx = build_pair_index(4)
        theta = random_theta(idx, seed)
        est = normalizer_hat(theta, data, FeatureMap.product(), ALL)
        oracle = normalizer_enumeration_oracle(theta, data, FeatureMap.product())
        assert est.value == pytest.approx(oracle, rel=1e-12)

    def test_oracle_agreement_delta_and_table(self):
        data = make_coded_dataset(7, 2, 2, categories=3, seed=5)
        idx1 = build_pair_index(4)
        theta = random_theta(idx1, 3)
        f = FeatureMap.kronecker_delta(categories=3)
        est = normalizer_hat(theta, data, f, ALL)
        assert est.value == pytest.approx(normalizer_enumeration_oracle(theta, data, f), rel=1e-12)

        idx2 = build_pair_index(4, block_dim=2)
        table = FeatureMap.from_table(np.random.default_rng(1).standard_normal((3, 3, 2)))
        theta2 = random_theta(idx2, 4)
        est2 = normalizer_hat(theta2, data, table, ALL)
        assert est2.value == pytest.approx(
            normalizer_enumeration_oracle(theta2, data, table), rel=1e-12
        )

    def test_self_normalization(self, small_data):
        # mean of the fitted ratio over the permuted pairs is 1 by construction
        idx = build_pair_index(small_data.m)
        theta = random_theta(idx, 12)
        f = FeatureMap.product()
        est = normalizer_hat(theta, small_data, f, ALL)
        vals = [
            ratio_hat(theta, permuted_pair(small_data, j, k).value, est, f)
            for j in range(small_data.n)
            for k in range(small_data.n)
            if j != k
        ]
        assert np.mean(vals) == pytest.approx(1.0, abs=1e-12)


class TestObjective:
    def test_zero_theta_value_is_zero(self, small_data):
        idx = build_pair_index(small_data.m)
        theta = ParamBlocks.zeros(idx)
        assert negative_log_likelihood(theta, small_data, FeatureMap.product(), pair_policy=ALL) == 0.0

    def test_score_is_blockwise_sum(self, small_data):
        idx = build_pair_index(small_data.m)
        theta = random_theta(idx, 6)
        f = FeatureMap.product()
        x = small_data.samples[3]
        manual = sum(
            float(theta.block(p) @ [x[p[0]] * x[p[1]]]) for p in idx.pairs
        )
        assert unnormalized_log_ratio(theta, x, f) == pytest.approx(manual, rel=1e-12)

    def test_row_permutation_invariance(self, small_data):
        idx = build_pair_index(small_data.m)
        theta = random_theta(idx, 8)
        f = FeatureMap.product()
        shuffled = small_data.subset(np.random.default_rng(0).permutation(small_data.n))
        a = negative_log_likelihood(theta, small_data, f, pair_policy=ALL)
        b = negative_log_likelihood(theta, shuffled, f, pair_policy=ALL)
        assert a == pytest.approx(b, rel=1e-12)

    def test_overflow_names_a_block(self, small_data):
        # scores stay finite under log-sum-exp shifting, so only a genuine
        # float overflow in the per-pair contributions can trip the guard
        idx = build_pair_index(small_data.m)
        theta = ParamBlocks(np.full(idx.dim, 1e308), idx)
        with pytest.raises(NumericError, match=r"pair \("):
            negative_log_likelihood(theta, small_data, FeatureMap.product(), pair_policy=ALL)


    @pytest.mark.parametrize("m, block_dim", [(4, 1), (5, 2)])
    def test_index_must_match_the_data_and_feature(self, small_data, m, block_dim):
        theta = ParamBlocks.zeros(build_pair_index(m, block_dim=block_dim))
        f = FeatureMap.product()
        for evaluate in (negative_log_likelihood, finite_difference_gradient, normalizer_enumeration_oracle):
            with pytest.raises(DimensionError, match="disagrees"):
                evaluate(theta, small_data, f)


class TestGradient:
    def test_matches_finite_differences(self):
        data = make_dataset(9, 3, 2, seed=21)
        idx = build_pair_index(5)
        theta = random_theta(idx, 21)
        g = gradient(theta, data, FeatureMap.product(), pair_policy=ALL)
        fd = finite_difference_gradient(theta, data, FeatureMap.product(), pair_policy=ALL)
        np.testing.assert_allclose(g, fd, rtol=0, atol=1e-8)

    def test_at_zero_is_mean_gap(self, small_data):
        # softmax weights at zero are uniform over permuted pairs, so the
        # gradient is the plain-loop permuted feature mean minus the data mean
        idx = build_pair_index(small_data.m)
        f = FeatureMap.product()
        n = small_data.n
        perm_mean = np.mean(
            [
                [feature_eval(f, permuted_pair(small_data, j, k).value, p)[0] for p in idx.pairs]
                for j in range(n)
                for k in range(n)
                if j != k
            ],
            axis=0,
        )
        data_mean = np.mean(
            [[feature_eval(f, x, p)[0] for p in idx.pairs] for x in small_data.samples], axis=0
        )
        g = gradient(ParamBlocks.zeros(idx), small_data, f, pair_policy=ALL)
        np.testing.assert_allclose(g, perm_mean - data_mean, atol=1e-14)


class TestHessian:
    def test_psd_and_fd_agreement(self):
        data = make_dataset(7, 2, 2, seed=31)
        idx = build_pair_index(4)
        theta = random_theta(idx, 31)
        f = FeatureMap.product()
        h = hessian(theta, data, f, pair_policy=ALL)
        assert h.shape == (6, 6)
        np.testing.assert_allclose(h, h.T, atol=1e-14)
        assert np.linalg.eigvalsh(h)[0] >= -1e-10

        eps = 1e-5
        fd = np.empty_like(h)
        base = np.array(theta.flat)
        for i in range(base.size):
            bump = np.zeros_like(base)
            bump[i] = eps
            gp = gradient(ParamBlocks(base + bump, idx), data, f, pair_policy=ALL)
            gm = gradient(ParamBlocks(base - bump, idx), data, f, pair_policy=ALL)
            fd[:, i] = (gp - gm) / (2 * eps)
        np.testing.assert_allclose(h, (fd + fd.T) / 2, atol=1e-7)

    def test_restriction_slices_full_matrix(self):
        data = make_dataset(7, 2, 2, seed=32)
        idx = build_pair_index(4)
        theta = random_theta(idx, 32)
        f = FeatureMap.product()
        full = hessian(theta, data, f, pair_policy=ALL)
        sub_pairs = [(0, 1), (2, 3)]
        cols = [idx.position(p) for p in sub_pairs]
        sub = hessian(theta, data, f, restrict=sub_pairs, pair_policy=ALL)
        np.testing.assert_allclose(sub, full[np.ix_(cols, cols)], atol=1e-14)
        assert hessian(theta, data, f, restrict=[], pair_policy=ALL).shape == (0, 0)

    def test_over_physical_memory_raises_before_gram(self, monkeypatch):
        data = make_dataset(6, 2, 2, seed=33)
        idx = build_pair_index(4)
        theta, f = ParamBlocks.zeros(idx), FeatureMap.product()
        # room for the terms themselves, none for a Hessian on top of them
        peak = ModelTerms(data, f).peak_bytes
        monkeypatch.setattr(model_mod, "physical_memory_bytes", lambda: peak)

        def builds(*args, **kwargs):
            raise AssertionError("ran gram before the size check")

        monkeypatch.setattr(model_mod.PairScoreGrid, "gram", builds)
        with pytest.raises(SizeError, match=r"the 6 x 6 Hessian needs .* physical memory"):
            hessian(theta, data, f)
        with pytest.raises(SizeError, match=r"H\[:, S\] needs .* physical memory"):
            diagnostics(theta, data, f, idx.pairs[:4])

    def test_rank_one_term_in_row_chunks_is_bit_equal(self, small_data, monkeypatch):
        terms = ModelTerms(small_data, FeatureMap.product(), pair_policy=ALL)
        flat = random_theta(terms.index, 8).flat
        cols = np.array([0, 4, 7])
        monkeypatch.setattr(model_mod, "GRAM_PANEL_FLOATS", 7)  # g g^T two rows at a time
        g = terms.value_grad(flat)[1] + terms.mean_f
        last = terms._last
        gram = terms.backing.gram(last.weights, np.arange(terms.index.dim), cols)
        want = gram / last.total - np.outer(g, g[cols])
        assert terms.hessian(flat, cols).tobytes() == want.tobytes()


class TestDiagnostics:
    def test_full_support_margin_is_one(self):
        data = make_dataset(30, 2, 2, seed=41)
        idx = build_pair_index(4)
        theta = random_theta(idx, 41, scale=0.1)
        rep = diagnostics(theta, data, FeatureMap.product(), list(idx.pairs), pair_policy=ALL)
        assert not rep.degenerate
        assert rep.incoherence_margin == 1.0
        assert rep.support_size == idx.n_pairs
        assert rep.ratio_bounds.min > 0.0
        assert rep.ratio_bounds.max >= rep.ratio_bounds.min

    def test_h_cols_over_physical_memory_raise_before_the_hessian(self, small_data, monkeypatch):
        f, support = FeatureMap.product(), [(0, 1), (2, 4)]
        theta = random_theta(build_pair_index(small_data.m), 44, scale=0.1)
        need = ModelTerms(small_data, f, pair_policy=ALL).peak_bytes + 8 * theta.index.dim * len(support)
        monkeypatch.setattr(model_mod, "physical_memory_bytes", lambda: need - 1)

        def builds(*args, **kwargs):
            raise AssertionError("built the Hessian before the size check")

        with monkeypatch.context() as patch:
            patch.setattr(ModelTerms, "hessian", builds)
            with pytest.raises(SizeError, match="physical memory"):
                diagnostics(theta, small_data, f, support, pair_policy=ALL)
        monkeypatch.setattr(model_mod, "physical_memory_bytes", lambda: need)
        assert diagnostics(theta, small_data, f, support, pair_policy=ALL).support_size == 2

    def test_lambda_min_matches_restricted_hessian(self):
        data = make_dataset(25, 3, 2, seed=42)
        idx = build_pair_index(5)
        theta = random_theta(idx, 42, scale=0.1)
        support = [(0, 1), (0, 3), (2, 4)]
        rep = diagnostics(theta, data, FeatureMap.product(), support, pair_policy=ALL)
        h = hessian(theta, data, FeatureMap.product(), restrict=support, pair_policy=ALL)
        assert rep.lambda_min == pytest.approx(np.linalg.eigvalsh(h)[0], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("kind", ["product", "table"])
    def test_incoherence_margin_matches_a_loop_over_hessian_blocks(self, kind):
        if kind == "product":
            data = make_dataset(25, 3, 2, seed=43)
            f = FeatureMap.product()
        else:
            data = make_coded_dataset(25, 3, 2, categories=3, seed=43)
            f = FeatureMap.from_table(np.random.default_rng(43).standard_normal((3, 3, 2)) / 2)
        idx = build_pair_index(5, block_dim=f.block_dim)
        theta = random_theta(idx, 43, scale=0.1)
        support = [(0, 1), (0, 3), (2, 4)]
        rep = diagnostics(theta, data, f, support, pair_policy=ALL)
        h = hessian(theta, data, f, pair_policy=ALL)
        s = np.concatenate([np.arange(idx.dim)[idx.slice_of(p)] for p in support])
        worst = 0.0
        for p in idx.pairs:
            if p not in support:
                y = np.linalg.solve(h[np.ix_(s, s)], h[idx.slice_of(p), s].T)
                worst = max(worst, np.abs(y).sum())
        assert not rep.degenerate and 0.0 < worst
        assert rep.incoherence_margin == pytest.approx(1.0 - worst, rel=1e-9, abs=1e-12)

    def test_degenerate_flag(self):
        # duplicated column makes two feature columns collinear
        rng = np.random.default_rng(5)
        x = rng.standard_normal((15, 3))
        x = np.column_stack([x, x[:, 2]])
        data = Dataset(x, Partition((0, 1), (2, 3)))
        idx = build_pair_index(4)
        theta = ParamBlocks.zeros(idx)
        support = [(0, 2), (0, 3)]  # identical feature columns
        rep = diagnostics(theta, data, FeatureMap.product(), support, pair_policy=ALL)
        assert rep.degenerate
        assert np.isnan(rep.incoherence_margin)

    def test_needs_support(self, small_data):
        idx = build_pair_index(small_data.m)
        with pytest.raises(DimensionError):
            diagnostics(ParamBlocks.zeros(idx), small_data, FeatureMap.product(), [])

    def test_delta_bounds_hold(self):
        data = make_coded_dataset(16, 2, 2, categories=3, seed=6)
        idx = build_pair_index(4)
        theta = random_theta(idx, 44, scale=0.2)
        f = FeatureMap.kronecker_delta(categories=3)
        rep = diagnostics(theta, data, f, [(0, 2)], pair_policy=ALL)
        assert rep.feature_bounds.within_declared

    def test_builds_the_data_feature_matrix_once(self, small_data, monkeypatch):
        # an every-pair grid builds no feature matrix; diagnostics builds the
        # data rows' one and reads both its feature and its ratio bounds from it
        calls = []

        def counted(f, x_rows, index):
            calls.append(x_rows.shape)
            return pair_feature_matrix(f, x_rows, index)

        monkeypatch.setattr(model_mod, "pair_feature_matrix", counted)
        monkeypatch.setattr(core_mod, "pair_feature_matrix", counted)
        theta = random_theta(build_pair_index(small_data.m), 46, scale=0.1)
        diagnostics(theta, small_data, FeatureMap.product(), [(0, 2), (1, 3)], pair_policy=ALL)
        assert calls == [small_data.samples.shape]

    def test_sampled_fit_builds_the_data_feature_matrix_once(self, monkeypatch):
        # a sample is scored on the factor tables, so the data rows' feature
        # matrix is the only one built: no permuted sample's
        calls = []

        def counted(f, x_rows, index):
            calls.append(x_rows.shape)
            return pair_feature_matrix(f, x_rows, index)

        monkeypatch.setattr(model_mod, "pair_feature_matrix", counted)
        monkeypatch.setattr(core_mod, "pair_feature_matrix", counted)
        data, policy = memo_data(24), PairPolicy(cap=60, seed=1)
        assert policy.layout(data.n) == "dense"
        theta = random_theta(build_pair_index(data.m), 47, scale=0.1)
        diagnostics(theta, data, FeatureMap.product(), [(0, 3), (1, 4)], pair_policy=policy)
        assert calls == [(24, 5)]

    def test_repeated_support_pair_is_rejected(self, small_data):
        theta = random_theta(build_pair_index(small_data.m), 44, scale=0.1)
        with pytest.raises(DimensionError, match=r"support repeats pair \(0, 2\)"):
            diagnostics(theta, small_data, FeatureMap.product(), [(0, 2), (1, 3), (0, 2)], pair_policy=ALL)

    @pytest.mark.parametrize("layout", ["grid", "dense"])
    @pytest.mark.parametrize("kind", ["product", "squared_product", "delta", "delta_uncoded", "table"])
    def test_feature_bounds_equal_a_scan_of_every_sample(self, kind, layout, monkeypatch):
        # interleaved groups: cross pairs such as (1, 3) start in group 2
        partition = Partition((0, 3, 4, 6), (1, 2, 5))
        rng = np.random.default_rng(45)
        x = rng.standard_normal((12, 7))
        if kind in ("product", "squared_product"):
            # the largest feature is x[11, 0] x[10, 2], met only by the permuted sample (11, 10)
            x[11, 0], x[10, 2] = 10.0, -10.0
            data, f = Dataset(x, partition), FeatureMap(kind)
        elif kind == "delta_uncoded":
            x[3, 1] = x[5, 0]  # the only match, across rows 5 and 3
            data, f = Dataset(x, partition), FeatureMap.kronecker_delta()
        elif kind == "delta":
            data = Dataset(rng.integers(0, 3, size=(12, 7)).astype(np.float64), partition, 3)
            f = FeatureMap.kronecker_delta(3)
        else:
            # code 0 only in column 0 (row 4) and code 2 only in column 1 (row 7): the
            # largest entry, table[0, 2], is met only by the permuted sample (4, 7);
            # (1, 3) and other flipped pairs read table[x_1, x_3], never table[2, 0]
            codes = np.ones((12, 7))
            codes[4, 0], codes[7, 1] = 0.0, 2.0
            table = rng.standard_normal((3, 3, 2))
            table[0, 2] = [40.0, -3.0]
            data, f = Dataset(codes, partition, 3), FeatureMap.from_table(table)
        idx = build_pair_index(7, block_dim=f.block_dim)
        policy = {"grid": ALL, "dense": PairPolicy(cap=20, seed=2)}[layout]
        assert policy.layout(12) == layout
        full = every_sample_bounds(data, f, idx)
        if layout == "grid":  # an every-pair fit builds no permuted sample

            def builds(*args, **kwargs):
                raise AssertionError("built permuted samples")

            monkeypatch.setattr(model_mod, "permuted_matrix", builds)
        rep = diagnostics(random_theta(idx, 45, scale=0.1), data, f, [(0, 2)], pair_policy=policy)
        assert (rep.feature_bounds.observed_inf, rep.feature_bounds.observed_l2) == full
        if kind != "delta":  # the extreme is on a permuted sample only
            assert full != observed_feature_bounds(pair_feature_matrix(f, data.samples, idx), idx)


def every_sample_bounds(data, f, index):
    """``observed_feature_bounds`` of the data rows and every permuted sample, built."""
    j, k = select_ordered_pairs(data.n, ALL)
    rows = np.vstack([data.samples, permuted_matrix(data, j, k)])
    return observed_feature_bounds(pair_feature_matrix(f, rows, index), index)


class DenseRows:
    """Slow reference backing: one feature row per pair of the set, built
    from its permuted samples, and the weigh/weighted_sum/gram of
    ``ModelTerms``' backings written on those rows."""

    def __init__(self, terms):
        j, k = select_ordered_pairs(terms.data.n, terms.policy)
        self.f_perm = pair_feature_matrix(terms.feature, permuted_matrix(terms.data, j, k), terms.index)
        self.count = self.f_perm.shape[0]

    def weigh(self, v, guard):
        scores = self.f_perm @ v
        top = float(scores.max())
        w = np.exp(scores - top)
        return top, float(w.sum()), w

    def weighted_sum(self, w):
        return self.f_perm.T @ w

    def gram(self, w, rows, cols):
        return self.f_perm[:, rows].T @ (w[:, None] * self.f_perm[:, cols])


def dense_twin(terms):
    """Same terms with the pair set held as dense permuted feature rows."""
    twin = ModelTerms(terms.data, terms.feature, pair_policy=terms.policy)
    twin.backing = DenseRows(terms)
    return twin


def layout_of(terms) -> str:
    """"grid" or "dense": the pair backing ``terms`` holds, every ordered
    pair or a sample of them."""
    if isinstance(terms.backing, PairSample):
        return "dense"
    assert isinstance(terms.backing, PairScoreGrid)
    return "grid"


def sampled_policy(n, rng):
    """A policy whose random cap samples n rows' pairs, or None when n(n-1)
    is too few for any cap to sample."""
    high = (n * (n - 1) - 1) // model_mod.GRID_MAX_SPARSITY
    if high < 1:
        return None
    return PairPolicy(cap=int(rng.integers(1, high + 1)), seed=int(rng.integers(2**31)))


@st.composite
def grid_problems(draw):
    """Random data, partition, feature kind and theta for the score grid.

    Groups come from a random permutation, so a group-2 variable often has a
    lower index than a group-1 variable and its cross pairs are stored as
    (group-2, group-1).
    """
    m = draw(st.integers(2, 5))
    n = draw(st.integers(3, 7))
    order = draw(st.permutations(list(range(m))))
    cut = draw(st.integers(1, m - 1))
    partition = Partition(tuple(order[:cut]), tuple(order[cut:]))
    kind = draw(st.sampled_from(["product", "squared_product", "delta", "delta_uncoded", "table"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("product", "squared_product"):
        data = Dataset(rng.standard_normal((n, m)), partition)
        f = FeatureMap(kind)
    else:
        categories = draw(st.integers(2, 4))
        codes = rng.integers(0, categories, size=(n, m)).astype(np.float64)
        data = Dataset(codes, partition, categories)
        if kind == "table":
            # asymmetric in its two code arguments, so a flipped pair matters
            f = FeatureMap.from_table(rng.standard_normal((categories, categories, draw(st.integers(1, 2)))))
        else:
            f = FeatureMap.kronecker_delta(categories if kind == "delta" else None)
    index = build_pair_index(m, block_dim=f.block_dim)
    return data, f, ParamBlocks(0.4 * rng.standard_normal(index.dim), index)


class TestScoreGrid:
    @given(grid_problems())
    def test_closed_form_bounds_are_bit_equal_to_the_scan(self, problem):
        data, f, theta = problem
        f_data = pair_feature_matrix(f, data.samples, theta.index)
        got = model_mod._pair_feature_bounds(data, f, theta.index, f_data)
        assert got == every_sample_bounds(data, f, theta.index)

    @given(grid_problems())
    def test_matches_dense_rows_and_oracle(self, problem):
        data, f, theta = problem
        terms = ModelTerms(data, f, pair_policy=ALL)
        assert layout_of(terms) == "grid"
        dense = dense_twin(terms)
        value, grad = terms.value_grad(theta.flat)
        dense_value, dense_grad = dense.value_grad(theta.flat)
        data_score = np.mean([unnormalized_log_ratio(theta, x, f) for x in data.samples])
        oracle = -data_score + np.log(normalizer_enumeration_oracle(theta, data, f))
        assert value == pytest.approx(dense_value, rel=1e-12, abs=1e-12)
        assert value == pytest.approx(oracle, rel=1e-12, abs=1e-12)
        assert terms.value(theta.flat) == pytest.approx(oracle, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad, dense_grad, rtol=1e-10, atol=1e-12)

    def test_flipped_table_pair_sees_transposed_table(self):
        # the only pair is (0, 1) with variable 0 in group 2: psi = table[x_0, x_1]
        codes = np.random.default_rng(4).integers(0, 3, size=(6, 2)).astype(np.float64)
        data = Dataset(codes, Partition((1,), (0,)), 3)
        table = FeatureMap.from_table(np.arange(18.0).reshape(3, 3, 2) / 10.0)
        theta = ParamBlocks([0.3, -0.2], build_pair_index(2, block_dim=2))
        est = normalizer_hat(theta, data, table, ALL)
        assert est.value == pytest.approx(normalizer_enumeration_oracle(theta, data, table), rel=1e-12)

    def test_delta_without_shared_codes(self):
        # no code appears in both groups, so the grid has no cross term
        data = Dataset([[0.0, 1.0], [0.0, 1.0], [2.0, 1.0]], Partition((0,), (1,)))
        f = FeatureMap.kronecker_delta()
        theta = ParamBlocks([-0.7], build_pair_index(2))
        value, grad = ModelTerms(data, f, pair_policy=ALL).value_grad(theta.flat)
        assert value == pytest.approx(np.log(normalizer_enumeration_oracle(theta, data, f)), abs=1e-15)
        np.testing.assert_array_equal(grad, [0.0])

    def test_grid_keeps_no_permuted_rows(self, small_data):
        terms = ModelTerms(small_data, FeatureMap.product(), pair_policy=ALL)
        assert isinstance(terms.backing, PairScoreGrid)
        assert not hasattr(terms, "f_perm")
        assert not hasattr(terms.backing, "f_perm")
        assert terms.n_pairs_used == small_data.n * (small_data.n - 1)

    def test_subsample_is_scored_on_the_factors(self, small_data):
        # 132 ordered pairs, more than GRID_MAX_SPARSITY times the 16 kept
        assert 132 > model_mod.GRID_MAX_SPARSITY * 16
        pol = PairPolicy(cap=16, seed=1)
        terms = ModelTerms(small_data, FeatureMap.product(), pair_policy=pol)
        assert isinstance(terms.backing, PairSample)
        assert not hasattr(terms.backing, "f_perm")
        assert terms.n_pairs_used == 16

    def test_default_policy_scores_every_pair_at_n_400(self):
        # the CLI's default shape: 159,600 ordered pairs, within 5 x 40,000
        terms = ModelTerms(make_dataset(400, 2, 2, seed=400), FeatureMap.product())
        assert layout_of(terms) == "grid"
        assert terms.n_pairs_used == 400 * 399
        assert terms.backing.scores(random_theta(terms.index, 1).flat)[0].shape == (400, 400)

    @pytest.mark.parametrize("n", [5, 11, 16, 26])
    def test_layout_boundary(self, n):
        # n(n-1) = GRID_MAX_SPARSITY cap keeps every ordered pair on the grid;
        # one cap fewer samples cap - 1 pairs
        data = make_dataset(n, 2, 2, seed=n)
        cap = n * (n - 1) // model_mod.GRID_MAX_SPARSITY
        assert n * (n - 1) == model_mod.GRID_MAX_SPARSITY * cap
        at, below = PairPolicy(cap=cap, seed=3), PairPolicy(cap=cap - 1, seed=3)
        assert (at.layout(n), below.layout(n)) == ("grid", "dense")
        on_grid = ModelTerms(data, FeatureMap.product(), pair_policy=at)
        assert (layout_of(on_grid), on_grid.n_pairs_used) == ("grid", n * (n - 1))
        sampled = ModelTerms(data, FeatureMap.product(), pair_policy=below)
        assert (layout_of(sampled), sampled.n_pairs_used) == ("dense", cap - 1)
        assert ALL.layout(n) == "grid"

    @pytest.mark.parametrize("split, group1_rows", [((2, 6), True), ((6, 2), False), ((4, 4), False)])
    def test_gram_contracts_the_narrower_side(self, split, group1_rows, monkeypatch):
        # the narrower group, group 2 on a tie, indexes the grid's rows: its
        # table, the one the weights meet, is never the wider
        data = make_dataset(15, *split, seed=sum(split))
        for fused_max in (0, 10_000):
            monkeypatch.setattr(model_mod, "FUSED_MAX_PRODUCTS", fused_max)
            grid = ModelTerms(data, FeatureMap.squared_product(), pair_policy=ALL).backing
            assert grid.transposed is not group1_rows
            assert grid.fused is bool(fused_max)
            assert grid._block_shape == (min(split), max(split))
            assert grid._inner.shape[1] <= grid._outer.shape[1]

    @pytest.mark.parametrize("split", [(2, 6), (5, 11)], ids=["fused-2-6", "general-5-11"])
    @pytest.mark.parametrize("kind", ["product", "squared_product", "delta", "table"])
    def test_label_swap_is_the_same_computation(self, kind, split):
        # x^[j,k] under one labelling is x^[k,j] under the other, so both
        # score the same pair set; interleaved groups, so that pairs start
        # in either group
        m1, m = split[0], sum(split)
        g1 = tuple(range(1, m, m // m1))[:m1]
        g2 = tuple(sorted(set(range(m)) - set(g1)))
        rng = np.random.default_rng(m)
        if kind in ("product", "squared_product"):
            x, categories, f = rng.standard_normal((40, m)), None, FeatureMap(kind)
        else:
            # two codes keep the 2|6 narrow table fused
            x, categories = rng.integers(0, 2, size=(40, m)).astype(np.float64), 2
            f = FeatureMap.kronecker_delta(2) if kind == "delta" else FeatureMap.from_table(
                rng.standard_normal((2, 2, 2)))
        idx = build_pair_index(m, block_dim=f.block_dim)
        flat = random_theta(idx, m, scale=0.2).flat
        support = np.sort(rng.permutation(idx.dim)[:9])
        results = []
        for part in (Partition(g1, g2), Partition(g2, g1)):
            terms = ModelTerms(Dataset(x, part, categories), f, pair_policy=ALL)
            assert terms.backing.fused is (split == (2, 6))
            value, grad = terms.value_grad(flat)
            results.append([np.float64(value).tobytes(), grad.tobytes(),
                            terms.hessian(flat, support, rows=support).tobytes(),
                            terms.hessian(flat, support).tobytes()])
        assert results[0] == results[1]

    @pytest.mark.parametrize("diagonal", [False])
    @pytest.mark.parametrize("layout", ["grid", "dense"])
    @pytest.mark.parametrize("kind", ["product", "squared_product", "delta", "delta_uncoded", "table"])
    def test_data_terms_are_bit_equal_to_the_feature_matrix(self, kind, layout, diagonal):
        # interleaved groups: pairs such as (1, 3) start in group 2
        partition = Partition((0, 3, 4, 6), (1, 2, 5))
        rng = np.random.default_rng(61)
        if kind in ("product", "squared_product"):
            data, f = Dataset(rng.standard_normal((13, 7)), partition), FeatureMap(kind)
        else:
            data = Dataset(rng.integers(0, 3, size=(13, 7)).astype(np.float64), partition, 3)
            f = {"delta": FeatureMap.kronecker_delta(3), "delta_uncoded": FeatureMap.kronecker_delta(),
                 "table": FeatureMap.from_table(rng.standard_normal((3, 3, 2)))}[kind]
        idx = build_pair_index(7, block_dim=f.block_dim)
        assert (idx.u_idx == idx.v_idx).any() == diagonal
        policy = {"grid": ALL, "dense": PairPolicy(cap=20, seed=2)}[layout]
        terms = ModelTerms(data, f, pair_policy=policy)
        assert layout_of(terms) == layout
        f_data = pair_feature_matrix(f, data.samples, idx)
        assert terms.mean_f.tobytes() == f_data.mean(axis=0).tobytes()
        if layout == "dense":
            return
        # the factors as built from the data-row feature matrix: group 2 is
        # the narrower, so its table is the row side and group 1's the column side
        grid = terms.backing
        assert grid.transposed
        rows_side, cols_side = [1, 2, 5], [0, 3, 4, 6]

        def within(group):
            pairs = np.flatnonzero(np.isin(idx.u_idx, group) & np.isin(idx.v_idx, group))
            return (pairs[:, None] * idx.block_dim + np.arange(idx.block_dim)).ravel()

        assert grid._cols1.tolist() == within(rows_side).tolist()
        assert grid._cols2.tolist() == within(cols_side).tolist()
        values = core_mod.feature_values(f, data.samples)
        phi_r, phi_c, _ = core_mod.variable_embedding(f, values[:, rows_side], values[:, cols_side])
        ones = np.ones((13, 1))
        inner = np.hstack([phi_r.transpose(1, 0, 2).reshape(13, -1), f_data[:, within(rows_side)], ones])
        outer = np.hstack([phi_c.transpose(1, 0, 2).reshape(13, -1), ones, f_data[:, within(cols_side)]])
        assert grid._inner.tobytes() == inner.tobytes()
        assert grid._outer.tobytes() == outer.tobytes()

    def test_hessian_matches_dense_rows(self):
        data = make_coded_dataset(9, 2, 3, categories=3, seed=8)
        table = FeatureMap.from_table(np.random.default_rng(2).standard_normal((3, 3, 2)))
        idx = build_pair_index(5, block_dim=2)
        theta = random_theta(idx, 9)
        terms = ModelTerms(data, table, pair_policy=ALL)
        dense = dense_twin(terms)
        cols = np.arange(idx.dim)
        np.testing.assert_allclose(
            model_mod._hessian_from_terms(terms, theta.flat, cols),
            model_mod._hessian_from_terms(dense, theta.flat, cols),
            rtol=1e-10,
            atol=1e-12,
        )


def sampled_problem(kind, split):
    """40 rows, 1,560 ordered pairs, and a policy that samples 150 of them."""
    if kind in ("product", "squared_product"):
        data, f = make_dataset(40, *split, seed=sum(split)), FeatureMap(kind)
    else:
        data = make_coded_dataset(40, *split, categories=3, seed=sum(split))
        f = FeatureMap.kronecker_delta(3) if kind == "delta" else FeatureMap.from_table(
            np.random.default_rng(1).standard_normal((3, 3, 2)))
    return data, f, PairPolicy(cap=150, seed=4)


class TestPairSample:
    """A sample scored on the factor tables against the dense reference
    rows, in both orientations: 2|6 (group 1 indexes R) and 6|2."""

    @pytest.mark.parametrize("split", [(2, 6), (6, 2)], ids=["2-6", "6-2"])
    @pytest.mark.parametrize("kind", ["product", "squared_product", "delta", "table"])
    def test_matches_the_dense_reference(self, kind, split):
        data, f, policy = sampled_problem(kind, split)
        terms = ModelTerms(data, f, pair_policy=policy)
        assert layout_of(terms) == "dense" and terms.backing.transposed is (split == (6, 2))
        dense = dense_twin(terms)
        flat = random_theta(terms.index, 5, scale=0.3).flat
        support = np.sort(np.random.default_rng(6).permutation(terms.index.dim)[:9])
        value, grad = terms.value_grad(flat)
        want_value, want_grad = dense.value_grad(flat)
        assert value == pytest.approx(want_value, rel=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12 * np.abs(want_grad).max())
        for rows in (support, None):  # H_SS and H[:, S]
            got, want = terms.hessian(flat, support, rows=rows), dense.hessian(flat, support, rows=rows)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        scores = dense.backing.f_perm @ flat
        np.testing.assert_allclose(terms.backing.score_range(flat), [scores.min(), scores.max()], rtol=1e-12)

    @pytest.mark.parametrize("split", [(2, 6), (6, 2)], ids=["2-6", "6-2"])
    def test_non_finite_score_names_the_block(self, split):
        data, f, policy = sampled_problem("table", split)
        terms = ModelTerms(data, f, pair_policy=policy)
        flat = 0.01 * np.ones(terms.index.dim)
        flat[terms.index.slice_of((1, 5))] = [np.inf, 1.0]
        with np.errstate(over="ignore", invalid="ignore"):
            scores, bound = terms.backing.scores(flat)
        assert not np.isfinite(scores).all() and not bound < model_mod.FINITE_SCORE_BOUND
        with pytest.raises(NumericError, match=r"dominant block is pair \(1, 5\)"):
            terms.value_grad(flat)


def whole_dim_gram_terms(grid):
    """Every feature column's (row-side index, column-side index, coef)
    terms in one dim x width table, built over all of dim from the grid's
    pair layout; group 1 here is the grid's row side."""
    (m1, m2), n_emb = grid._block_shape, grid._n_emb
    one_a, one_b = grid._inner.shape[1] - 1, n_emb * m2
    used = grid._coef != 0.0
    width = max(1, int(used.sum(axis=2).max(initial=0)))
    dim = grid._index.dim
    a, b, coef = np.full((dim, width), one_a), np.full((dim, width), one_b), np.zeros((dim, width))
    a[grid._cols1, 0] = n_emb * m1 + np.arange(grid._cols1.size)
    b[grid._cols2, 0] = one_b + 1 + np.arange(grid._cols2.size)
    coef[grid._cols1, 0] = coef[grid._cols2, 0] = 1.0
    i, d, t = np.nonzero(used)
    e = grid._cols_x.reshape(used.shape[:2])[i, d]
    slot = (np.cumsum(used, axis=2) - 1)[i, d, t]
    p, q = np.divmod(grid._pq[i], m2)
    c1, c2 = np.array(grid._terms, dtype=np.int64).reshape(-1, 2)[t].T
    a[e, slot], b[e, slot], coef[e, slot] = c1 * m1 + p, c2 * m2 + q, grid._coef[i, d, t]
    return a, b, coef


def whole_dim_gram(grid, w, rows, cols):
    """``gram`` from the whole-dim table and the weights W in R's
    orientation (rows on the row side): all ``rows`` at once, the columns in
    panels of GRAM_PANEL_FLOATS // (n rows width^2)."""
    t_in, t_out, t_coef = whole_dim_gram_terms(grid)
    inner, outer = grid._inner, grid._outer
    n, width = grid.n, t_in.shape[1]
    row_out, row_coef = outer[:, t_out[rows].ravel()], t_coef[rows].ravel()
    row_q, row_pos = np.unique(t_in[rows], return_inverse=True)
    out = np.empty((rows.size, cols.size))
    panel = max(1, model_mod.GRAM_PANEL_FLOATS // (n * row_coef.size * width))
    for lo in range(0, cols.size, panel):
        part = cols[lo : lo + panel]
        col_q, col_pos = np.unique(t_in[part], return_inverse=True)
        wv = (w.T @ (inner[:, row_q, None] * inner[:, None, col_q]).reshape(n, -1)).reshape(n, row_q.size, -1)
        k = wv[:, row_pos.reshape(-1, 1), col_pos.reshape(1, -1)] * row_out[:, :, None]
        k *= outer[:, None, t_out[part].ravel()]
        k = k.sum(axis=0) * row_coef[:, None] * t_coef[part].reshape(1, -1)
        out[:, lo : lo + panel] = k.reshape(rows.size, width, part.size, width).sum(axis=(1, 3))
    return out


class TestGramPlan:
    """``PairScoreGrid.gram`` plans its factor terms per call, for the rows
    and columns asked for, and panels the rows; the whole-dim table gives the
    same bits, row panel by row panel."""

    @pytest.mark.parametrize("panel_floats", [model_mod.GRAM_PANEL_FLOATS, 200, 7])
    @pytest.mark.parametrize("layout", ["grid"])
    @pytest.mark.parametrize("kind", ["product", "squared_product", "delta", "table"])
    def test_bit_equal_to_the_whole_dim_table(self, kind, layout, panel_floats, monkeypatch):
        # interleaved groups: pairs such as (1, 3) start in group 2
        partition = Partition((0, 3, 4, 6), (1, 2, 5))
        rng = np.random.default_rng(67)
        if kind in ("product", "squared_product"):
            data, f = Dataset(rng.standard_normal((13, 7)), partition), FeatureMap(kind)
        else:
            data = Dataset(rng.integers(0, 3, size=(13, 7)).astype(np.float64), partition, 3)
            f = FeatureMap.kronecker_delta(3) if kind == "delta" else FeatureMap.from_table(
                rng.standard_normal((3, 3, 2)))
        idx = build_pair_index(7, block_dim=f.block_dim)
        monkeypatch.setattr(model_mod, "FUSED_MAX_PRODUCTS", 0)  # a fused grid's gram reads U
        terms = ModelTerms(data, f, pair_policy=ALL)
        assert layout_of(terms) == layout and not terms.backing.fused
        grid, flat = terms.backing, random_theta(idx, 3, scale=0.1).flat
        # the full grid's weights as W, in R's orientation: group 2, the
        # narrower, indexes its rows
        assert grid.transposed
        scores = grid.scores(flat)[0].T
        weights = np.exp(scores - scores.max())
        every = np.arange(idx.dim)
        t_a, t_b, t_coef = whole_dim_gram_terms(grid)
        a, b, coef = grid._gram_terms(every)
        assert (a.tobytes(), b.tobytes(), coef.tobytes()) == (t_a.tobytes(), t_b.tobytes(), t_coef.tobytes())

        monkeypatch.setattr(model_mod, "GRAM_PANEL_FLOATS", panel_floats)
        row_panel = max(1, panel_floats // (grid.n * t_a.shape[1] ** 2))
        rows = rng.permutation(idx.dim)[:9]
        for r, c in ((rows, rng.permutation(idx.dim)[:6]), (rows, rows), (rows, rows.copy()), (every, rows[:3])):
            want = np.vstack([whole_dim_gram(grid, weights, r[lo : lo + row_panel], c)
                              for lo in range(0, r.size, row_panel)])
            assert grid.gram(weights, r, c).tobytes() == want.tobytes()


def fused_problem(kind, split):
    """Data and feature on 15 rows: groups of ``split`` sizes, or the
    interleaved (0, 3, 4, 6) | (1, 2, 5), whose pairs such as (1, 3) start
    in group 2."""
    rng = np.random.default_rng(71)
    if split == "interleaved":
        partition = Partition((0, 3, 4, 6), (1, 2, 5))
    else:
        partition = Partition(tuple(range(split[0])), tuple(range(split[0], sum(split))))
    if kind in ("product", "squared_product"):
        data, f = Dataset(rng.standard_normal((15, partition.m)), partition), FeatureMap(kind)
    else:
        data = Dataset(rng.integers(0, 3, size=(15, partition.m)).astype(np.float64), partition, 3)
        f = FeatureMap.kronecker_delta(3) if kind == "delta" else FeatureMap.from_table(
            rng.standard_normal((3, 3, 2)))
    return data, f


def fused_and_general(data, f, monkeypatch):
    """The same terms twice: forced onto the fused path and off it."""
    idx = build_pair_index(data.m, block_dim=f.block_dim)
    with monkeypatch.context() as patch:
        patch.setattr(model_mod, "FUSED_MAX_PRODUCTS", 10**6)
        fused = ModelTerms(data, f, pair_policy=ALL)
        patch.setattr(model_mod, "FUSED_MAX_PRODUCTS", 0)
        general = ModelTerms(data, f, pair_policy=ALL)
    assert fused.backing.fused and not general.backing.fused
    return fused, general


def fused_tolerance(terms, flat):
    """Error allowed to a fused evaluation at flat, per unit of the result's
    largest entry.  The fused and full-grid paths round each pair score's
    exponent differently by a few eps times its magnitude, which the score
    bound caps, and every weight, sum and moment carries that relative
    error: 16 eps (1 + bound)."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = terms.backing.scores(flat)[1]
    return 16 * np.finfo(np.float64).eps * (1 + bound)


def assert_matches_general(fused, general, flat, support):
    """Value, gradient, H_SS and H[:, S] of the fused terms equal the
    general path's to ``fused_tolerance``, per unit of the largest term
    each result is a difference of: F^T w and the data mean for the
    gradient, F^T diag(w) F and g g^T (g = F^T w) for the Hessian."""
    tol = fused_tolerance(general, flat)
    value, grad = fused.value_grad(flat)
    want_value, want_grad = general.value_grad(flat)
    assert abs(value - want_value) <= tol * max(1.0, abs(want_value))
    weighted = want_grad + general.mean_f
    scale = max(np.abs(weighted).max(), np.abs(general.mean_f).max())
    np.testing.assert_allclose(grad, want_grad, rtol=0, atol=tol * scale)
    # the solver's H_SS and diagnostics' H[:, S]
    for rows in (support, None):
        want = general.hessian(flat, support, rows=rows)
        scale = max(np.abs(want).max(), np.abs(weighted).max() ** 2)
        np.testing.assert_allclose(fused.hessian(flat, support, rows=rows), want, rtol=0, atol=tol * scale)


# sha256 of a fused grid's value, gradient, full Hessian and H[:, S] at
# n = 200 and n = 2000, with either table the narrower
THREAD_HASHES = """
import hashlib
import numpy as np
from pmnet import Dataset, FeatureMap, PairPolicy, Partition
from pmnet.model import ModelTerms
for n in (200, 2000):
    for m1, m2 in ((6, 2), (2, 6)):
        x = np.random.default_rng(n + m1).standard_normal((n, m1 + m2))
        data = Dataset(x, Partition(tuple(range(m1)), tuple(range(m1, m1 + m2))))
        terms = ModelTerms(data, FeatureMap.product(), pair_policy=PairPolicy("all_ordered"))
        assert terms.backing.fused
        flat = 0.1 * np.random.default_rng(n).standard_normal(terms.index.dim)
        value, grad = terms.value_grad(flat)
        every, support = np.arange(terms.index.dim), np.arange(0, terms.index.dim, 3)
        for got in (np.float64(value), grad, terms.hessian(flat, every, rows=every), terms.hessian(flat, support)):
            print(hashlib.sha256(got.tobytes()).hexdigest())
"""

# sha256 of a general 40|10 grid's value and gradient at n = 400
GENERAL_THREAD_HASHES = """
import hashlib
import numpy as np
from pmnet import Dataset, FeatureMap, PairPolicy, Partition
from pmnet.model import ModelTerms
x = np.random.default_rng(400).standard_normal((400, 50))
data = Dataset(x, Partition(tuple(range(40)), tuple(range(40, 50))))
terms = ModelTerms(data, FeatureMap.product(), pair_policy=PairPolicy("all_ordered"))
assert not terms.backing.fused
value, grad = terms.value_grad(0.05 * np.random.default_rng(1).standard_normal(terms.index.dim))
for got in (np.float64(value), grad):
    print(hashlib.sha256(got.tobytes()).hexdigest())
"""


def hashes_at_one_and_two_threads(script):
    """The lines ``script`` prints in two processes, at 1 and 2 OpenBLAS threads."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(model_mod.__file__)))
    hashes = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        hashes.append(run.stdout.split())
    return hashes


class TestFusedMoments:
    """A grid whose narrower factor table has few column products is
    weighed in panels straight into one set of weight-grid moments, from
    which its value, gradient and Hessian are read; it must agree with the
    path that scores the whole grid and contracts w itself."""

    @pytest.mark.parametrize("layout", ["grid"])
    @pytest.mark.parametrize("split", [(2, 6), (6, 2), "interleaved"])
    @pytest.mark.parametrize("kind", ["product", "squared_product", "delta", "table"])
    def test_matches_the_general_path(self, kind, split, layout, monkeypatch):
        data, f = fused_problem(kind, split)
        idx = build_pair_index(data.m, block_dim=f.block_dim)
        if kind in ("product", "squared_product"):  # 10 or 28 products: fused unforced
            assert ModelTerms(data, f, pair_policy=ALL).backing.fused
        fused, general = fused_and_general(data, f, monkeypatch)
        assert layout_of(fused) == layout_of(general) == layout
        support = np.sort(np.random.default_rng(5).permutation(idx.dim)[:9])
        for seed in (1, 2):
            assert_matches_general(fused, general, random_theta(idx, seed, scale=0.2).flat, support)

    @pytest.mark.parametrize("panel_rows", [4, 64], ids=["15-rows-in-4s", "one-short-panel"])
    @pytest.mark.parametrize("split, transposed", [((2, 6), False), ((6, 2), True)],
                             ids=["group1-rows", "group2-rows"])
    def test_panels_match_the_full_grid(self, split, transposed, panel_rows, monkeypatch):
        # 15 rows: not a multiple of 4, and fewer than one panel of 64; a
        # panel of the 15 x 15 grid holds panel_rows x 15 floats
        monkeypatch.setattr(model_mod, "WEIGH_PANEL_FLOATS", panel_rows * 15)
        data, f = fused_problem("squared_product", split)
        fused, general = fused_and_general(data, f, monkeypatch)
        assert fused.backing.transposed is transposed
        support = np.sort(np.random.default_rng(6).permutation(fused.index.dim)[:9])
        for seed in (1, 2):
            assert_matches_general(fused, general, random_theta(fused.index, seed, scale=0.2).flat, support)

    @pytest.mark.parametrize("split", [(2, 6), (6, 2)])
    def test_bound_past_the_shift_limit_shifts_by_the_maximum(self, split, monkeypatch):
        monkeypatch.setattr(model_mod, "WEIGH_PANEL_FLOATS", 4 * 15)
        data, f = fused_problem("product", split)
        fused, general = fused_and_general(data, f, monkeypatch)
        grid, limit = fused.backing, fused.backing._shift_limit
        flat = random_theta(fused.index, 7).flat
        # bisect the scale of flat to the two sides of the limit; the bound
        # grows with the scale
        lo, hi = 0.0, 1.0
        while grid.scores(hi * flat)[1] <= limit:
            hi *= 2
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if grid.scores(mid * flat)[1] <= limit else (lo, mid)
        below, above = lo * flat, hi * flat
        assert limit < general.backing.scores(above)[1] <= limit * (1 + 1e-12)
        support = np.sort(np.random.default_rng(6).permutation(fused.index.dim)[:9])
        for point in (below, above):
            assert_matches_general(fused, general, point, support)
            scores, bound = general.backing.scores(point)
            # the shift is the bound up to the limit, the grid's maximum past it
            assert scores.max() < 0.9 * bound
            want = bound if bound <= limit else scores.max()
            assert fused._last.top == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("split, pair", [((2, 6), (0, 2)), ((6, 2), (0, 6))])
    def test_non_finite_score_in_a_later_panel_names_the_block(self, split, pair, monkeypatch):
        # only row 13, in the fourth panel of 4 rows, scores past float64:
        # its narrow-group variable of the pair is 1e150, the pair's weight
        # 1e200; its other variable is 0, so the data term stays finite
        monkeypatch.setattr(model_mod, "WEIGH_PANEL_FLOATS", 4 * 15)
        data, f = fused_problem("product", split)
        x = data.samples.copy()
        narrow = pair[0] if split == (2, 6) else pair[1]
        x[13, list(pair)] = 0.0
        x[13, narrow] = 1e150
        terms = ModelTerms(Dataset(x, data.partition), f, pair_policy=ALL)
        assert terms.backing.fused and terms.backing.transposed is (split == (6, 2))
        flat = 0.01 * np.ones(terms.index.dim)
        flat[terms.index.slice_of(pair)] = 1e200
        for method in ("value", "value_grad"):
            with pytest.raises(NumericError, match=rf"dominant block is pair \({pair[0]}, {pair[1]}\)"):
                getattr(terms, method)(flat)

    def test_one_evaluation_holds_no_n_by_n_array(self):
        # 2000 rows: one n x n float64 grid is 32 MB; the panels, factors and
        # moments of a value, gradient and Hessian take a fraction of that
        data = make_dataset(2000, 2, 6, seed=12)
        terms = ModelTerms(data, FeatureMap.product(), pair_policy=ALL)
        assert terms.backing.fused
        flat, cols = random_theta(terms.index, 12, scale=0.1).flat, np.arange(terms.index.dim)
        tracemalloc.start()
        try:
            terms.value_grad(flat)
            terms.hessian(flat, cols, rows=cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2000 * 2000 / 8

    def test_moments_belong_to_their_point(self):
        # the Hessian at a point whose value alone was taken reads that
        # point's moments, not those the previous point's gradient left
        data, f = fused_problem("squared_product", (2, 6))
        terms = ModelTerms(data, f, pair_policy=ALL)
        assert terms.backing.fused
        x, y = (random_theta(terms.index, seed, scale=0.2).flat for seed in (3, 4))
        cols = np.arange(terms.index.dim)
        terms.value_grad(x)
        terms.value(y)
        got = terms.hessian(y, cols, rows=cols)
        assert got.tobytes() == ModelTerms(data, f, pair_policy=ALL).hessian(y, cols, rows=cols).tobytes()

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # every BLAS product of a fused evaluation sums over one panel of rows,
        # so two processes at 1 and 2 OpenBLAS threads hash alike
        hashes = hashes_at_one_and_two_threads(THREAD_HASHES)
        assert len(hashes[0]) == 16 and hashes[0] == hashes[1]

    def test_general_grid_gradient_does_not_depend_on_the_blas_thread_count(self):
        # a general grid's W^T R is summed over the weighing's panels of rows
        hashes = hashes_at_one_and_two_threads(GENERAL_THREAD_HASHES)
        assert len(hashes[0]) == 2 and hashes[0] == hashes[1]

    def test_wide_table_takes_the_general_path(self):
        # the CLI's default 40|10 split: group 2's table, the row side, has 56 columns
        data = make_dataset(8, 40, 10, seed=2)
        terms = ModelTerms(data, FeatureMap.product(), pair_policy=ALL)
        assert terms.backing.transposed and terms.backing._inner.shape[1] == 56
        assert not terms.backing.fused


def literal_value_grad(data, f, index, flat):
    """Value and gradient from the literal feature rows of every permuted
    pair, built 20,000 pairs at a time with a running log-sum-exp shift."""
    mean_f = pair_feature_matrix(f, data.samples, index).mean(axis=0)
    j, k = select_ordered_pairs(data.n, ALL)
    top, total, weighted = -np.inf, 0.0, np.zeros(index.dim)
    for lo in range(0, j.size, 20_000):
        feats = pair_feature_matrix(f, permuted_matrix(data, j[lo : lo + 20_000], k[lo : lo + 20_000]), index)
        scores = feats @ flat
        new_top = max(top, float(scores.max()))
        w, rescale = np.exp(scores - new_top), np.exp(top - new_top)
        top, total, weighted = new_top, total * rescale + w.sum(), weighted * rescale + feats.T @ w
    return -mean_f @ flat + top + np.log(total) - np.log(j.size), weighted / total - mean_f, weighted / total


def factor_problem(kind, split, n):
    """n rows over groups of ``split`` sizes, or the interleaved
    (0, 3, 4, 6) | (1, 2, 5), with their feature: product and sq on normal
    values, delta on three codes with and without a declared category
    count, and a block_dim-2 table on three codes."""
    rng = np.random.default_rng(83 + n)
    if split == "interleaved":
        partition = Partition((0, 3, 4, 6), (1, 2, 5))
    else:
        partition = Partition(tuple(range(split[0])), tuple(range(split[0], sum(split))))
    if kind in ("product", "squared_product"):
        return Dataset(rng.standard_normal((n, partition.m)), partition), FeatureMap(kind)
    codes = rng.integers(0, 3, size=(n, partition.m)).astype(np.float64)
    if kind == "delta_uncoded":
        return Dataset(codes, partition), FeatureMap.kronecker_delta()
    f = FeatureMap.kronecker_delta(3) if kind == "delta" else FeatureMap.from_table(rng.standard_normal((3, 3, 2)))
    return Dataset(codes, partition, 3), f


class TestScoreFactors:
    """The grid scores every pair as R C: R, n x K, holds the narrower
    group's embeddings and C, K x n, each term's cross block multiplied
    onto the wider group's, so K = T min(m1, m2) + 2 for T terms."""

    @pytest.mark.parametrize("n", [2, 257, 401], ids=["n2", "n257-short-panel", "n401-short-panel"])
    @pytest.mark.parametrize("split", [(2, 6), (6, 2), (1, 3), (3, 1), (1, 1), (4, 4), "interleaved"])
    @pytest.mark.parametrize("kind", ["product", "squared_product", "delta", "delta_uncoded", "table"])
    def test_narrow_factors_match_the_literal_feature_rows(self, kind, split, n, monkeypatch):
        data, f = factor_problem(kind, split, n)
        idx = build_pair_index(data.m, block_dim=f.block_dim)
        flat = random_theta(idx, n, scale=0.2).flat
        want_value, want_grad, weighted = literal_value_grad(data, f, idx, flat)
        scale = max(np.abs(weighted).max(), np.abs(want_grad + weighted).max())
        (m1, m2) = len(data.partition.group1), len(data.partition.group2)
        # forced onto the fused path and off it; every narrow table here has
        # at most 325 products, and the estimate counts FUSED_MAX_PRODUCTS
        for most in (1000, 0):
            monkeypatch.setattr(model_mod, "FUSED_MAX_PRODUCTS", most)
            terms = ModelTerms(data, f, pair_policy=ALL)
            grid = terms.backing
            assert grid.fused is (most > 0)
            width = len(grid._terms) * min(m1, m2) + 2
            assert grid._rows.shape == (n, width) and grid._cols.shape == (width, n)
            assert grid._rows.flags.c_contiguous and grid._cols.flags.c_contiguous
            value, grad = terms.value_grad(flat)
            assert value == pytest.approx(want_value, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12 * scale)

    def test_weighs_reuse_one_panel_buffer(self):
        data = make_dataset(400, 2, 6, seed=14)
        terms = ModelTerms(data, FeatureMap.squared_product(), pair_policy=ALL)
        grid = terms.backing
        assert grid.fused and grid._panel.shape == (64, 400)
        x, y = (random_theta(terms.index, seed, scale=0.1).flat for seed in (1, 2))
        grid.weigh(x, None)
        tracemalloc.start()
        try:
            grid.weigh(y, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the panels are written into the buffer the first weigh filled, so
        # the second allocates less than one panel (each used to take a new
        # one while the last was still held: two at once)
        assert peak < grid._panel.nbytes


def per_column_gram(grid, w, rows, cols):
    """F[:, rows]^T diag(w) F[:, cols] and the same sum of |products|, one
    entry at a time, from the weights w in R's orientation: each column's
    n x n feature grid is built from the whole-dim term table as sum over
    terms of coef inner[:, a] outer[:, b]^T (row side by column side)."""
    t_a, t_b, t_coef = whole_dim_gram_terms(grid)
    feats = {c: sum(coef * np.outer(grid._inner[:, a], grid._outer[:, b])
                    for a, b, coef in zip(t_a[c], t_b[c], t_coef[c]))
             for c in set(rows.tolist()) | set(cols.tolist())}
    want = np.array([[np.sum(w * feats[r] * feats[c]) for c in cols] for r in rows])
    size = np.array([[np.sum(w * np.abs(feats[r] * feats[c])) for c in cols] for r in rows])
    return want, size


class TestMomentGram:
    """``PairScoreGrid.moment_gram``, one contraction over the moments U,
    against the Gram block summed entry by entry over the full weight grid."""

    @pytest.mark.parametrize("panel_floats", [model_mod.GRAM_PANEL_FLOATS, 120],
                             ids=["one-panel", "many-panels"])
    @pytest.mark.parametrize("split", [(2, 6), (6, 2)])
    @pytest.mark.parametrize("kind", ["product", "squared_product", "delta", "table"])
    def test_matches_a_per_column_reference(self, kind, split, panel_floats, monkeypatch):
        # 15 rows weighed and summed 4 at a time; at 120 floats the Hessian's
        # rows and columns come one to a few per panel as well
        monkeypatch.setattr(model_mod, "WEIGH_PANEL_FLOATS", 4 * 15)
        data, f = fused_problem(kind, split)
        fused, _ = fused_and_general(data, f, monkeypatch)
        grid, dim = fused.backing, fused.index.dim
        assert grid.transposed is (split == (6, 2))
        monkeypatch.setattr(model_mod, "GRAM_PANEL_FLOATS", panel_floats)
        rng = np.random.default_rng(9)
        flat = random_theta(fused.index, 9, scale=0.2).flat
        fused.value_grad(flat)
        last = fused._last
        # the full grid's weights at the fused point's shift, zero on the
        # diagonal, in R's orientation
        scores = grid.scores(flat)[0]
        w = np.exp((scores.T if grid.transposed else scores) - last.top)
        tol = fused_tolerance(fused, flat)
        rows = rng.permutation(dim)[:9]
        # the solver's H_SS (cols is rows), another block, and diagnostics' H[:, S]
        for r, c in ((rows, rows), (rows, rng.permutation(dim)[:5]), (np.arange(dim), rows[:3])):
            got = grid.moment_gram(last.weights, r, c)
            want, size = per_column_gram(grid, w, r, c)
            assert np.all(np.abs(got - want) <= tol * size)


def loop_hessian(theta, data, f, pairs):
    """Softmax-weighted feature covariance over the given (j, k) pairs, pair
    by pair in plain Python: sum w f f^T - g g^T with g = sum w f.  Also
    returns the largest entry of sum w f f^T, the size of the terms whose
    difference the covariance is."""
    feats = [pair_feature_matrix(f, permuted_pair(data, j, k).value[None], theta.index)[0] for j, k in pairs]
    scores = np.array([feat @ theta.flat for feat in feats])
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    mean = sum(w * feat for w, feat in zip(weights, feats))
    second = sum(w * np.outer(feat, feat) for w, feat in zip(weights, feats))
    return second - np.outer(mean, mean), max(1.0, float(np.abs(second).max()))


class TestHessianPrimitive:
    """``ModelTerms.hessian`` on both backings against a plain loop over the
    permuted pairs and against central differences of ``value_grad``."""

    @given(grid_problems(), st.integers(0, 2**32 - 1))
    def test_matches_loop_and_differences(self, problem, seed):
        data, f, theta = problem
        n, dim = data.n, theta.index.dim
        rng = np.random.default_rng(seed)
        grid = ModelTerms(data, f, pair_policy=ALL)
        assert layout_of(grid) == "grid"
        backings = [grid, dense_twin(grid)]
        sampled = sampled_policy(n, rng)
        if sampled is not None:  # a few pairs are never sparse enough for dense rows
            backings.append(ModelTerms(data, f, pair_policy=sampled))
            assert layout_of(backings[-1]) == "dense"
        every = np.arange(dim)
        rows = rng.permutation(dim)[: rng.integers(1, dim + 1)]
        cols = rng.permutation(dim)[: rng.integers(1, dim + 1)]
        for terms in backings:
            want, scale = loop_hessian(theta, data, f, zip(*select_ordered_pairs(n, terms.policy)))
            got = terms.hessian(theta.flat, every)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(terms.hessian(theta.flat, cols, rows=rows), want[np.ix_(rows, cols)],
                                       rtol=0, atol=1e-12 * scale)
            eps = 1e-6
            diffs = np.column_stack([
                terms.value_grad(theta.flat + eps * unit)[1] - terms.value_grad(theta.flat - eps * unit)[1]
                for unit in np.eye(dim)
            ]) / (2 * eps)
            np.testing.assert_allclose(got, diffs, rtol=0, atol=1e-6 * scale)

    def test_hessian_at_the_evaluated_point_scores_nothing(self, small_data):
        terms = ModelTerms(small_data, FeatureMap.product(), pair_policy=ALL)
        flat = random_theta(terms.index, 7).flat
        terms.value(flat)
        terms.hessian(flat, np.arange(3), rows=np.arange(3))
        terms.value_grad(flat)
        assert terms.scorings == 1


class Forgetful(ModelTerms):
    """ModelTerms that drops its remembered point before every evaluation."""

    def value(self, flat):
        self._last = None
        return super().value(flat)

    def value_grad(self, flat):
        self._last = None
        return super().value_grad(flat)


# (layout, rows, policy): each pair backing on data shaped like small_data
# (12 rows when ``rows`` is 12).  Dense rows need a cap below
# n(n-1)/GRID_MAX_SPARSITY, and on 12 rows every such set (26 pairs or
# fewer) has no minimizer at the path's last points, so that case takes 24
# rows, 60 of their 552 pairs.
MEMO_POLICIES = [
    pytest.param("grid", 12, ALL, id="grid"),
    pytest.param("dense", 24, PairPolicy(cap=60, seed=1), id="dense"),
]


def memo_data(rows):
    return make_dataset(rows, 3, 2, seed=7)


class TestLastPointMemo:
    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    def test_repeats_are_bit_equal_to_fresh_terms(self, layout, rows, policy):
        data = memo_data(rows)
        f = FeatureMap.product()
        idx = build_pair_index(data.m)
        p, q = random_theta(idx, 1).flat, random_theta(idx, 2).flat
        terms = ModelTerms(data, f, pair_policy=policy)
        assert layout_of(terms) == layout
        calls = [
            ("value", p), ("value_grad", p), ("value_grad", p), ("log_normalizer", p),
            ("log_normalizer", q), ("value_grad", q), ("value", q),
            ("value_grad", p), ("value", p), ("value", q), ("value_grad", q),
        ]
        for method, point in calls:
            got = getattr(terms, method)(point)
            want = getattr(ModelTerms(data, f, pair_policy=policy), method)(point)
            if method == "value_grad":
                assert got[0] == want[0]
                assert got[1].tobytes() == want[1].tobytes()
            else:
                assert got == want

    @pytest.mark.parametrize("fused_max", [10**6, 0], ids=["fused", "general"])
    def test_score_range_leaves_the_remembered_weights(self, fused_max, monkeypatch):
        # diagnostics takes score_range, which rescores the grid into its
        # panel buffer, after the point is remembered; 15 rows are one panel
        monkeypatch.setattr(model_mod, "FUSED_MAX_PRODUCTS", fused_max)
        data, f = fused_problem("squared_product", (2, 6))
        terms = ModelTerms(data, f, pair_policy=ALL)
        assert terms.backing.fused is bool(fused_max) and terms.backing._panel.shape == (15, 15)
        flat, cols = random_theta(terms.index, 4, scale=0.2).flat, np.arange(terms.index.dim)
        terms.value(flat)
        terms.backing.score_range(flat)
        (value, grad), hess = terms.value_grad(flat), terms.hessian(flat, cols, rows=cols)
        assert terms.scorings == 1
        fresh = ModelTerms(data, f, pair_policy=ALL)
        want_value, want_grad = fresh.value_grad(flat)
        assert value == want_value and grad.tobytes() == want_grad.tobytes()
        assert hess.tobytes() == fresh.hessian(flat, cols, rows=cols).tobytes()

    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    def test_returned_gradient_is_a_copy(self, layout, rows, policy):
        terms = ModelTerms(memo_data(rows), FeatureMap.product(), pair_policy=policy)
        assert layout_of(terms) == layout
        p = random_theta(terms.index, 3).flat
        _, grad = terms.value_grad(p)
        want = grad.copy()
        grad[:] = 7.0
        assert terms.value_grad(p)[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    def test_fit_and_path_bytes_match_forgetful_terms(self, layout, rows, policy):
        data = memo_data(rows)
        f = FeatureMap.product()
        terms = ModelTerms(data, f, pair_policy=policy)
        assert layout_of(terms) == layout
        path = lambda_path(data, f, GeometricSchedule(factor=0.5, count=4), terms=terms)
        twin = lambda_path(data, f, GeometricSchedule(factor=0.5, count=4),
                           terms=Forgetful(data, f, pair_policy=policy))
        assert path.lambdas.tobytes() == twin.lambdas.tobytes()
        for a, b in zip(path.entries, twin.entries):
            assert a.fit.theta_hat.flat.tobytes() == b.fit.theta_hat.flat.tobytes()
            assert a.fit.objective_trace.tobytes() == b.fit.objective_trace.tobytes()
            assert a.fit.iterations == b.fit.iterations
        assert all(e.fit.converged for e in path.entries)
        assert path.entries[-1].support_size > 0


class TestScorings:
    @pytest.mark.parametrize(
        "layout, rows, policy, scorings, iterations",
        [
            pytest.param(*case.values, *pinned, id=case.id)
            for case, pinned in zip(MEMO_POLICIES, [(12, [0, 4, 4, 3]), (10, [0, 3, 3, 3])])
        ],
    )
    def test_path_scorings_are_pinned(self, layout, rows, policy, scorings, iterations):
        data = memo_data(rows)
        f = FeatureMap.product()
        terms = ModelTerms(data, f, pair_policy=policy)
        assert layout_of(terms) == layout
        path = lambda_path(data, f, GeometricSchedule(factor=0.5, count=4), terms=terms)
        assert all(e.fit.converged for e in path.entries)
        assert [e.fit.iterations for e in path.entries] == iterations
        assert terms.scorings == scorings
        # lambda_max scores zero once; each fit counts its own scorings
        assert sum(e.fit.scorings for e in path.entries) == scorings - 1

    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    def test_only_memo_misses_count(self, layout, rows, policy):
        terms = ModelTerms(memo_data(rows), FeatureMap.product(), pair_policy=policy)
        assert layout_of(terms) == layout
        p, q = random_theta(terms.index, 1).flat, random_theta(terms.index, 2).flat
        assert terms.scorings == 0
        terms.value(p)
        terms.value_grad(p)
        terms.value_grad(p)
        terms.log_normalizer(p)
        assert terms.scorings == 1
        terms.value_grad(q)
        terms.value(p)
        assert terms.scorings == 3


def loop_objective(theta, data, f, terms):
    """Objective summed pair by pair over the terms' pair set, in plain Python."""
    scores = np.array([
        unnormalized_log_ratio(theta, permuted_pair(data, j, k).value, f)
        for j, k in zip(*(a.tolist() for a in select_ordered_pairs(data.n, terms.policy)))
    ])
    top = scores.max()
    data_term = np.mean([unnormalized_log_ratio(theta, x, f) for x in data.samples])
    return -data_term + top + np.log(np.exp(scores - top).sum()) - np.log(scores.size)


class TestFiniteGuard:
    """The scan for non-finite scores runs only when the score bound is not
    below ``FINITE_SCORE_BOUND``, and still names the dominant block."""

    PAIR = (0, 3)  # a cross pair of memo_data's partition (0, 1, 2 | 3, 4)

    def theta_on_pair(self, index, value):
        flat = 0.01 * np.ones(index.dim)
        flat[index.slice_of(self.PAIR)] = value
        return flat

    @staticmethod
    def pair_scores(scores):
        """The scores of the pairs: off the full grid's -inf diagonal."""
        if scores.ndim == 1:
            return scores
        return scores[~np.eye(scores.shape[0], dtype=bool)]

    def spy_scan(self, terms, monkeypatch):
        scans = []
        scan = terms.backing.bad_pair_features

        def spied(scores, *rows_from):
            scans.append(scores.shape)
            return scan(scores, *rows_from)

        monkeypatch.setattr(terms.backing, "bad_pair_features", spied)
        return scans

    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    @pytest.mark.parametrize("value", [1e308, -1e308, np.inf, np.nan])
    def test_non_finite_scores_name_the_block(self, layout, rows, policy, value):
        data = memo_data(rows)
        terms = ModelTerms(data, FeatureMap.product(), pair_policy=policy)
        assert layout_of(terms) == layout
        flat = self.theta_on_pair(terms.index, value)
        with np.errstate(over="ignore", invalid="ignore"):
            scores, bound = terms.backing.scores(flat)
        assert not np.isfinite(self.pair_scores(scores)).all()
        assert not bound < model_mod.FINITE_SCORE_BOUND
        if np.isnan(value):
            assert np.isnan(bound)
        for method in ("value", "value_grad"):
            with pytest.raises(NumericError, match=r"dominant block is pair \(0, 3\)"):
                getattr(ModelTerms(data, FeatureMap.product(), pair_policy=policy), method)(flat)

    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("pair", [(3, 4), (0, 1)], ids=["narrower-group", "wider-group"])
    def test_overflowing_within_group_score_names_its_block(self, layout, rows, policy, value, pair):
        # the within-group scores are the factors' only columns that move
        # with theta: R's last on the narrower group's side, a row of C on
        # the wider's
        data = memo_data(rows)
        terms = ModelTerms(data, FeatureMap.product(), pair_policy=policy)
        assert layout_of(terms) == layout
        flat = 0.01 * np.ones(terms.index.dim)
        flat[terms.index.slice_of(pair)] = value
        with np.errstate(over="ignore", invalid="ignore"):
            bound = terms.backing.scores(flat)[1]
        assert not bound < model_mod.FINITE_SCORE_BOUND
        if np.isnan(value):
            assert np.isnan(bound)
        for method in ("value", "value_grad"):
            with pytest.raises(NumericError, match=rf"dominant block is pair \({pair[0]}, {pair[1]}\)"):
                getattr(ModelTerms(data, FeatureMap.product(), pair_policy=policy), method)(flat)

    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    def test_large_bound_with_finite_scores_evaluates(self, layout, rows, policy, monkeypatch):
        data = memo_data(rows)
        f = FeatureMap.product()
        terms = ModelTerms(data, f, pair_policy=policy)
        assert layout_of(terms) == layout
        flat = self.theta_on_pair(terms.index, 1e300)
        scores, bound = terms.backing.scores(flat)
        assert np.isfinite(self.pair_scores(scores)).all()
        assert bound >= model_mod.FINITE_SCORE_BOUND
        scans = self.spy_scan(terms, monkeypatch)
        value, grad = terms.value_grad(flat)
        assert len(scans) == 1
        assert np.isfinite(grad).all()
        theta = ParamBlocks(flat, terms.index)
        assert value == pytest.approx(loop_objective(theta, data, f, terms), rel=1e-12)

    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    def test_bad_pair_row_is_that_pairs_features(self, layout, rows, policy):
        data, f = memo_data(rows), FeatureMap.product()
        terms = ModelTerms(data, f, pair_policy=policy)
        assert layout_of(terms) == layout
        scores = terms.backing.scores(random_theta(terms.index, 8).flat)[0]
        assert terms.backing.bad_pair_features(scores) is None
        j, k = select_ordered_pairs(rows, policy)
        i = 7
        scores[(j[i], k[i]) if layout == "grid" else i] = np.nan
        if layout == "grid":  # the grid's scan reads rows of R C: group 2, the narrower, indexes them
            assert terms.backing.transposed
            scores = scores.T
        want = pair_feature_matrix(f, permuted_matrix(data, j[i : i + 1], k[i : i + 1]), terms.index)[0]
        np.testing.assert_array_equal(terms.backing.bad_pair_features(scores), want)

    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    def test_small_bound_skips_the_scan(self, layout, rows, policy, monkeypatch):
        terms = ModelTerms(memo_data(rows), FeatureMap.product(), pair_policy=policy)
        assert layout_of(terms) == layout
        scans = self.spy_scan(terms, monkeypatch)
        terms.value_grad(random_theta(terms.index, 5).flat)
        terms.value(random_theta(terms.index, 6).flat)
        assert scans == []


class TestPreflightSize:
    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    def test_over_physical_memory_raises_before_allocating(self, layout, rows, policy, monkeypatch):
        data = memo_data(rows)
        n = data.n
        # at least the n x n grid is counted, or for a sample each pair's
        # score, weight and factor entries: R and C have min(3, 2) + 2
        # columns on this 3|2 product problem
        result = 8 * (policy.pair_count(n) * (min(3, 2) + 2) if layout == "dense" else n * n)
        monkeypatch.setattr(model_mod, "physical_memory_bytes", lambda: result)

        def allocates(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(model_mod, "pair_feature_matrix", allocates)
        monkeypatch.setattr(model_mod, "feature_values", allocates)
        monkeypatch.setattr(model_mod, "select_ordered_pairs", allocates)
        with pytest.raises(SizeError, match="physical memory"):
            ModelTerms(data, FeatureMap.product(), pair_policy=policy)

    @pytest.mark.parametrize("layout, rows, policy", MEMO_POLICIES)
    def test_fits_within_physical_memory(self, layout, rows, policy, monkeypatch):
        monkeypatch.setattr(model_mod, "physical_memory_bytes", lambda: 1 << 30)
        terms = ModelTerms(memo_data(rows), FeatureMap.product(), pair_policy=policy)
        assert layout_of(terms) == layout
        assert terms.n_pairs_used == policy.pair_count(rows)

    @pytest.mark.parametrize(
        "kind, n, split, policy, stride",
        [
            ("product", 40, (150, 150), ALL, 97),
            ("product", 40, (150, 150), PairPolicy(cap=60, seed=1), 97),
            ("squared_product", 40, (30, 270), ALL, 97),
            ("delta", 40, (150, 150), ALL, 97),
            ("product", 12, (300, 300), ALL, 1999),
            ("product", 40, (2, 100), ALL, 97),
            ("table", 40, (1, 150), ALL, 97),
        ],
        ids=["grid", "dense", "grid-sq-skewed", "grid-delta", "grid-short-wide", "grid-fused",
             "grid-fused-table"],
    )
    def test_estimate_bounds_the_allocation(self, kind, n, split, policy, stride):
        # wide enough that the per-row feature terms outweigh the fixed panels;
        # H_SS takes every stride-th column
        if kind == "delta":
            data, f = make_coded_dataset(n, *split, categories=3, seed=5), FeatureMap.kronecker_delta(3)
        elif kind == "table":
            # 6 codes, every entry nonzero: cross columns of 36 terms
            data = make_coded_dataset(n, *split, categories=6, seed=5)
            f = FeatureMap.from_table(np.random.default_rng(5).standard_normal((6, 6, 1)))
        else:
            data, f = make_dataset(n, *split, seed=5), FeatureMap(kind)
        index = build_pair_index(data.m)
        tracemalloc.start()
        try:
            terms = ModelTerms(data, f, pair_policy=policy)
            # 2|100 and 1|150 take the fused path: narrower tables of 4 and 7 columns
            assert getattr(terms.backing, "fused", False) is (split in ((2, 100), (1, 150)))
            flat = np.zeros(index.dim)
            terms.value_grad(flat)
            cols = np.arange(0, index.dim, stride)
            terms.hessian(flat, cols, rows=cols)
            fitting_peak = tracemalloc.get_traced_memory()[1]
            # diagnostics' H[:, S]: every row against a few columns
            terms.hessian(flat, cols[:8])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = model_mod._peak_bytes(data, index, policy.pair_count(data.n), policy.layout(data.n), f)
        assert estimate == terms.peak_bytes
        assert fitting_peak <= estimate
        # diagnostics counts the dim x 8 result on top of the estimate
        assert peak <= estimate + 8 * index.dim * 8

    def test_sample_keeps_no_feature_rows(self):
        # m = 50 (dim 1225), 2000 of 200 rows' ordered pairs: their feature
        # rows alone would take 19.6 MB; the factor tables take a fraction
        data, f = make_dataset(200, 40, 10, seed=17), FeatureMap.product()
        rows_bytes = 8 * 2000 * build_pair_index(50).dim
        tracemalloc.start()
        try:
            terms = ModelTerms(data, f, pair_policy=PairPolicy(cap=2000))
            terms.value_grad(random_theta(terms.index, 3, scale=0.01).flat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert layout_of(terms) == "dense"
        assert peak <= terms.peak_bytes < rows_bytes and peak < rows_bytes // 4

    def test_estimate_counts_the_grids_own_product_table(self, monkeypatch):
        # a 2|6 grid's narrower table has 4 columns, so 10 products whatever
        # the cap; a 40|10 grid's has 56, general up to a cap of 56 * 57 / 2 - 1,
        # and holds no product table
        f = FeatureMap.product()
        fused, general = make_dataset(401, 2, 6, seed=21), make_dataset(60, 40, 10, seed=21)
        peaks = [ModelTerms(data, f, pair_policy=ALL).peak_bytes for data in (fused, general)]
        monkeypatch.setattr(model_mod, "FUSED_MAX_PRODUCTS", 56 * 57 // 2 - 1)
        assert ModelTerms(general, f, pair_policy=ALL).peak_bytes == peaks[1]
        monkeypatch.setattr(model_mod, "FUSED_MAX_PRODUCTS", 10**6)
        terms = ModelTerms(fused, f, pair_policy=ALL)
        assert terms.backing.fused and terms.peak_bytes == peaks[0] < 1 << 30

    def test_exact_pairs_at_large_n_exceed_this_machine(self):
        # 300,000 rows have 9e10 ordered pairs; their n x n score grid alone needs
        # 720 GB, and a 4|4 grid is not fused, so it holds the scores
        data = Dataset(np.random.default_rng(0).standard_normal((300_000, 8)), Partition((0, 1, 2, 3), (4, 5, 6, 7)))
        with pytest.raises(SizeError, match="physical memory"):
            ModelTerms(data, FeatureMap.product(), pair_policy=ALL)

    def test_fused_grid_needs_no_n_by_n_array(self, monkeypatch):
        # 2000 rows: the n x n grid is 32 MB.  A fused 2|6 grid weighs it in
        # panels, and diagnostics reads its ratio bounds panel by panel, so a
        # machine of half that builds, fits and diagnoses it
        grid_bytes = 8 * 2000 * 2000
        monkeypatch.setattr(model_mod, "physical_memory_bytes", lambda: grid_bytes // 2)
        data, f = make_dataset(2000, 2, 6, seed=13), FeatureMap.product()
        tracemalloc.start()
        try:
            terms = ModelTerms(data, f, pair_policy=ALL)
            assert terms.backing.fused and terms.peak_bytes < grid_bytes // 2
            _, grad = terms.value_grad(np.zeros(terms.index.dim))
            result = fit(data, f, 0.5 * np.abs(grad).max(), pair_policy=ALL, terms=terms)
            support = result.theta_hat.nonzero_pairs()
            assert result.converged and support
            report = diagnostics(result.theta_hat, data, f, support, pair_policy=ALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes // 4
        assert 0.0 < report.ratio_bounds.min <= report.ratio_bounds.max < np.inf
