from functools import cached_property

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
    SolverConfig,
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
from pmnet import model as model_mod
from pmnet.core import observed_feature_bounds, permuted_matrix, permuted_pair
from pmnet.model import DensePairRows, ModelTerms, PairScoreGrid, select_ordered_pairs
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
        # the default cap keeps every ordered pair up to n = 200 (39,800 pairs)
        j_small, _ = select_ordered_pairs(200)
        assert j_small.shape == (200 * 199,)
        j_big, _ = select_ordered_pairs(201)
        assert j_big.shape == (40_000,)

    def test_auto_honours_cap_at_small_n(self):
        j, k = select_ordered_pairs(100, PairPolicy(cap=500))
        assert j.shape == (500,)
        assert len({(a, b) for a, b in zip(j, k)}) == 500

    def test_policy_guards(self):
        with pytest.raises(DimensionError):
            PairPolicy(kind="sometimes")
        with pytest.raises(DimensionError):
            PairPolicy(kind="subsample")
        with pytest.raises(DimensionError):
            PairPolicy(cap=0)


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

    def test_raw_variant_scales_data_term(self, small_data):
        idx = build_pair_index(small_data.m)
        theta = random_theta(idx, 2)
        f = FeatureMap.product()
        terms = ModelTerms(small_data, f, pair_policy=ALL)
        norm = terms.value(theta.flat)
        raw = terms.value(theta.flat, normalized=False)
        data_term = float(terms.mean_f @ theta.flat)
        assert raw == pytest.approx(norm - (small_data.n - 1) * data_term, rel=1e-12)

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

    def test_dim_cap(self):
        data = make_dataset(6, 2, 2, seed=33)
        idx = build_pair_index(4)
        with pytest.raises(SizeError):
            hessian(ParamBlocks.zeros(idx), data, FeatureMap.product(), dim_cap=3)


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

    def test_lambda_min_matches_restricted_hessian(self):
        data = make_dataset(25, 3, 2, seed=42)
        idx = build_pair_index(5)
        theta = random_theta(idx, 42, scale=0.1)
        support = [(0, 1), (0, 3), (2, 4)]
        rep = diagnostics(theta, data, FeatureMap.product(), support, pair_policy=ALL)
        h = hessian(theta, data, FeatureMap.product(), restrict=support, pair_policy=ALL)
        assert rep.lambda_min == pytest.approx(np.linalg.eigvalsh(h)[0], rel=1e-9, abs=1e-12)

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

    @pytest.mark.parametrize("kind", ["product", "table"])
    def test_panelled_bound_scan_equals_full_scan(self, kind, monkeypatch):
        if kind == "product":
            data = make_dataset(12, 2, 2, seed=45)
            x = data.samples.copy()
            # the largest feature is x[11, 0] * x[10, 2], met only by the last pair (11, 10)
            x[11, 0], x[10, 2] = 10.0, 10.0
            data = Dataset(x, data.partition)
            f = FeatureMap.product()
        else:
            data = make_coded_dataset(12, 2, 2, categories=3, seed=46)
            f = FeatureMap.from_table(np.random.default_rng(46).standard_normal((3, 3, 2)))
        idx = build_pair_index(4, block_dim=f.block_dim)
        theta = random_theta(idx, 45, scale=0.1)
        monkeypatch.setattr(model_mod, "BOUND_PANEL_FLOATS", 7 * idx.dim)
        # 132 pairs in panels of 7: the last panel is partial
        assert (12 * 11) % 7 != 0
        rep = diagnostics(theta, data, f, [(0, 2)], pair_policy=ALL)
        j, k = select_ordered_pairs(12, ALL)
        full = observed_feature_bounds(f, np.vstack([data.samples, permuted_matrix(data, j, k)]), idx)
        assert (rep.feature_bounds.observed_inf, rep.feature_bounds.observed_l2) == full
        if kind == "product":
            assert full[0] == 100.0


def dense_twin(terms):
    """Same terms with the pair set held as dense permuted feature rows."""
    twin = ModelTerms(terms.data, terms.feature, index=terms.index, pair_policy=ALL)
    twin.backing = DensePairRows(terms.data, terms.feature, terms.index, terms.pair_j, terms.pair_k)
    return twin


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
        data = Dataset(codes, partition, "categorical", categories)
        if kind == "table":
            # asymmetric in its two code arguments, so a flipped pair matters
            f = FeatureMap.from_table(rng.standard_normal((categories, categories, draw(st.integers(1, 2)))))
        else:
            f = FeatureMap.kronecker_delta(categories if kind == "delta" else None)
    index = build_pair_index(m, include_diagonal=draw(st.booleans()), block_dim=f.block_dim)
    return data, f, ParamBlocks(0.4 * rng.standard_normal(index.dim), index)


class TestScoreGrid:
    @given(grid_problems())
    def test_matches_dense_rows_and_oracle(self, problem):
        data, f, theta = problem
        terms = ModelTerms(data, f, index=theta.index, pair_policy=ALL)
        assert isinstance(terms.backing, PairScoreGrid)
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
        data = Dataset(codes, Partition((1,), (0,)), "categorical", 3)
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

    def test_subsample_keeps_dense_rows(self, small_data):
        pol = PairPolicy(cap=50, seed=1)
        terms = ModelTerms(small_data, FeatureMap.product(), pair_policy=pol)
        assert isinstance(terms.backing, DensePairRows)
        assert terms.n_pairs_used == 50

    def test_hessian_matches_dense_rows(self):
        data = make_coded_dataset(9, 2, 3, categories=3, seed=8)
        table = FeatureMap.from_table(np.random.default_rng(2).standard_normal((3, 3, 2)))
        idx = build_pair_index(5, block_dim=2)
        theta = random_theta(idx, 9)
        terms = ModelTerms(data, table, index=idx, pair_policy=ALL)
        dense = dense_twin(terms)
        cols = np.arange(idx.dim)
        np.testing.assert_allclose(
            model_mod._hessian_from_terms(terms, theta.flat, cols),
            model_mod._hessian_from_terms(dense, theta.flat, cols),
            rtol=1e-10,
            atol=1e-12,
        )


class Forgetful(ModelTerms):
    """ModelTerms that drops its remembered point before every evaluation."""

    def value(self, flat, normalized=True):
        self._last = None
        return super().value(flat, normalized)

    def value_grad(self, flat):
        self._last = None
        return super().value_grad(flat)


MEMO_POLICIES = [pytest.param(ALL, id="grid"), pytest.param(PairPolicy(cap=50, seed=1), id="dense")]


class TestLastPointMemo:
    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    def test_repeats_are_bit_equal_to_fresh_terms(self, small_data, policy):
        f = FeatureMap.product()
        idx = build_pair_index(small_data.m)
        p, q = random_theta(idx, 1).flat, random_theta(idx, 2).flat
        terms = ModelTerms(small_data, f, pair_policy=policy)
        calls = [
            ("value", p), ("value_grad", p), ("value_grad", p), ("log_normalizer", p),
            ("log_normalizer", q), ("value_grad", q), ("value", q),
            ("value_grad", p), ("value", p), ("value", q), ("value_grad", q),
        ]
        for method, point in calls:
            got = getattr(terms, method)(point)
            want = getattr(ModelTerms(small_data, f, pair_policy=policy), method)(point)
            if method == "value_grad":
                assert got[0] == want[0]
                assert got[1].tobytes() == want[1].tobytes()
            else:
                assert got == want
        assert terms.value(q, normalized=False) == ModelTerms(
            small_data, f, pair_policy=policy
        ).value(q, normalized=False)

    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    def test_returned_gradient_is_a_copy(self, small_data, policy):
        terms = ModelTerms(small_data, FeatureMap.product(), pair_policy=policy)
        p = random_theta(terms.index, 3).flat
        _, grad = terms.value_grad(p)
        want = grad.copy()
        grad[:] = 7.0
        assert terms.value_grad(p)[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    def test_fit_and_path_bytes_match_forgetful_terms(self, small_data, policy):
        f = FeatureMap.product()
        path = lambda_path(small_data, f, GeometricSchedule(factor=0.5, count=4),
                           terms=ModelTerms(small_data, f, pair_policy=policy))
        twin = lambda_path(small_data, f, GeometricSchedule(factor=0.5, count=4),
                           terms=Forgetful(small_data, f, pair_policy=policy))
        assert path.lambdas.tobytes() == twin.lambdas.tobytes()
        for a, b in zip(path.entries, twin.entries):
            assert a.fit.theta_hat.flat.tobytes() == b.fit.theta_hat.flat.tobytes()
            assert a.fit.objective_trace.tobytes() == b.fit.objective_trace.tobytes()
            assert a.fit.iterations == b.fit.iterations
        assert path.entries[-1].support_size > 0

    def test_step_estimate_runs_once_per_terms(self, small_data, monkeypatch):
        runs = []
        estimate = ModelTerms.__dict__["initial_step"].func

        def counted(self):
            runs.append(self)
            return estimate(self)

        prop = cached_property(counted)
        prop.__set_name__(ModelTerms, "initial_step")
        monkeypatch.setattr(ModelTerms, "initial_step", prop)
        f = FeatureMap.product()
        terms = ModelTerms(small_data, f, pair_policy=ALL)
        path = lambda_path(small_data, f, GeometricSchedule(factor=0.5, count=4), terms=terms)
        assert len(path.entries) == 4
        assert runs == [terms]
        fixed = ModelTerms(small_data, f, pair_policy=ALL)
        fit(small_data, f, 0.01, cfg=SolverConfig(fixed_step=0.1), terms=fixed)
        assert runs == [terms]


class TestScorings:
    @pytest.mark.parametrize(
        "policy, scorings, iterations",
        [
            pytest.param(ALL, 122, [1, 11, 17, 22], id="grid"),
            pytest.param(PairPolicy(cap=100, seed=1), 120, [1, 10, 17, 24], id="dense"),
        ],
    )
    def test_path_scorings_are_pinned(self, small_data, policy, scorings, iterations):
        f = FeatureMap.product()
        terms = ModelTerms(small_data, f, pair_policy=policy)
        path = lambda_path(small_data, f, GeometricSchedule(factor=0.5, count=4), terms=terms)
        assert [e.fit.iterations for e in path.entries] == iterations
        assert terms.scorings == scorings

    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    def test_only_memo_misses_count(self, small_data, policy):
        terms = ModelTerms(small_data, FeatureMap.product(), pair_policy=policy)
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
        for j, k in zip(terms.pair_j.tolist(), terms.pair_k.tolist())
    ])
    top = scores.max()
    data_term = np.mean([unnormalized_log_ratio(theta, x, f) for x in data.samples])
    return -data_term + top + np.log(np.exp(scores - top).sum()) - np.log(scores.size)


class TestFiniteGuard:
    """The scan for non-finite scores runs only when the score bound is not
    below ``FINITE_SCORE_BOUND``, and still names the dominant block."""

    PAIR = (0, 3)  # a cross pair of small_data's partition (0, 1, 2 | 3, 4)

    def theta_on_pair(self, index, value):
        flat = 0.01 * np.ones(index.dim)
        flat[index.slice_of(self.PAIR)] = value
        return flat

    def spy_scan(self, terms, monkeypatch):
        scans = []
        scan = terms.backing.bad_pair_features

        def spied(scores):
            scans.append(scores.shape)
            return scan(scores)

        monkeypatch.setattr(terms.backing, "bad_pair_features", spied)
        return scans

    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    @pytest.mark.parametrize("value", [1e308, -1e308, np.inf, np.nan])
    def test_non_finite_scores_name_the_block(self, small_data, policy, value):
        terms = ModelTerms(small_data, FeatureMap.product(), pair_policy=policy)
        flat = self.theta_on_pair(terms.index, value)
        with np.errstate(over="ignore", invalid="ignore"):
            scores, bound = terms.backing.scores(flat, excluded=0.0)
        assert not np.isfinite(scores).all()
        assert not bound < model_mod.FINITE_SCORE_BOUND
        if np.isnan(value):
            assert np.isnan(bound)
        for method in ("value", "value_grad"):
            with pytest.raises(NumericError, match=r"dominant block is pair \(0, 3\)"):
                getattr(ModelTerms(small_data, FeatureMap.product(), pair_policy=policy), method)(flat)

    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    def test_large_bound_with_finite_scores_evaluates(self, small_data, policy, monkeypatch):
        f = FeatureMap.product()
        terms = ModelTerms(small_data, f, pair_policy=policy)
        flat = self.theta_on_pair(terms.index, 1e300)
        scores, bound = terms.backing.scores(flat)
        assert np.isfinite(scores).all()
        assert bound >= model_mod.FINITE_SCORE_BOUND
        scans = self.spy_scan(terms, monkeypatch)
        value, grad = terms.value_grad(flat)
        assert len(scans) == 1
        assert np.isfinite(grad).all()
        theta = ParamBlocks(flat, terms.index)
        assert value == pytest.approx(loop_objective(theta, small_data, f, terms), rel=1e-12)

    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    def test_small_bound_skips_the_scan(self, small_data, policy, monkeypatch):
        terms = ModelTerms(small_data, FeatureMap.product(), pair_policy=policy)
        scans = self.spy_scan(terms, monkeypatch)
        terms.value_grad(random_theta(terms.index, 5).flat)
        terms.value(random_theta(terms.index, 6).flat)
        assert scans == []


class TestPreflightSize:
    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    def test_over_physical_memory_raises_before_allocating(self, small_data, policy, monkeypatch):
        n, dim = small_data.n, build_pair_index(small_data.m).dim
        pairs = policy.pair_count(n)
        # at least the n x n grid, or the dense feature rows, is counted
        result = 8 * (n * n if pairs == n * (n - 1) else pairs * dim)
        monkeypatch.setattr(model_mod, "physical_memory_bytes", lambda: result)

        def allocates(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(model_mod, "pair_feature_matrix", allocates)
        monkeypatch.setattr(model_mod, "select_ordered_pairs", allocates)
        with pytest.raises(SizeError, match="physical memory"):
            ModelTerms(small_data, FeatureMap.product(), pair_policy=policy)

    @pytest.mark.parametrize("policy", MEMO_POLICIES)
    def test_fits_within_physical_memory(self, small_data, policy, monkeypatch):
        monkeypatch.setattr(model_mod, "physical_memory_bytes", lambda: 1 << 30)
        assert ModelTerms(small_data, FeatureMap.product(), pair_policy=policy).n_pairs_used == policy.pair_count(12)

    def test_exact_pairs_at_large_n_exceed_this_machine(self):
        # 300,000 rows have 9e10 ordered pairs; their indices alone need 1.4 TB
        data = Dataset(np.random.default_rng(0).standard_normal((300_000, 2)), Partition((0,), (1,)))
        with pytest.raises(SizeError, match="physical memory"):
            ModelTerms(data, FeatureMap.product(), pair_policy=ALL)
