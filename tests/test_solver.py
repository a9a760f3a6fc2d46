import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmnet import (
    ConfigError,
    FeatureMap,
    GeometricSchedule,
    PairPolicy,
    ParamBlocks,
    SolverConfig,
    UntilSupportSchedule,
    build_pair_index,
    cross_validate,
    fit,
    gradient,
    group_soft_threshold,
    kkt_residuals,
    lambda_max,
    lambda_path,
    theory_lambda_bound,
)
from pmnet import solver
from pmnet.model import ModelTerms
from pmnet.solver import _model_residual, _solve_model, default_lambda_grid

from conftest import make_dataset

ALL = PairPolicy(kind="all_ordered")


def prox_objective(x, v, tau):
    return 0.5 * np.sum((x - v) ** 2) + tau * np.linalg.norm(x)


class TestGroupSoftThreshold:
    def test_zeroes_small_blocks_exactly(self):
        out = group_soft_threshold(np.array([0.3, -0.4]), 0.5, block_dim=2)
        assert out.tolist() == [0.0, 0.0]

    def test_shrinks_norm_by_tau(self):
        v = np.array([3.0, -4.0])
        out = group_soft_threshold(v, 2.0, block_dim=2)
        assert np.linalg.norm(out) == pytest.approx(3.0, rel=1e-12)
        np.testing.assert_allclose(out / np.linalg.norm(out), v / 5.0, rtol=1e-12)

    def test_blockwise(self):
        v = np.array([1.0, 0.0, 0.1, 0.1])
        out = group_soft_threshold(v, 0.2, block_dim=2)
        assert out[2] == 0.0 and out[3] == 0.0
        assert out[0] == pytest.approx(0.8)

    def test_rejects_negative_tau(self):
        with pytest.raises(ConfigError):
            group_soft_threshold(np.ones(2), -1.0)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        st.floats(0.0, 3.0),
    )
    def test_beats_grid_search(self, v, tau):
        v = np.array(v)
        out = group_soft_threshold(v, tau, block_dim=2)
        # prox minimizes 0.5||x-v||^2 + tau||x||; compare on a local grid
        grid = np.linspace(-5.5, 5.5, 45)
        best = min(
            prox_objective(np.array([a, b]), v, tau) for a in grid for b in grid
        )
        assert prox_objective(out, v, tau) <= best + 1e-9


class TestKkt:
    def test_zero_solution_residuals(self):
        idx = build_pair_index(3)
        g = np.array([0.5, -1.5, 0.2])
        rep = kkt_residuals(np.zeros(3), g, idx, lam=1.0)
        np.testing.assert_allclose(rep.residuals, [0.0, 0.5, 0.0])
        assert not rep.active.any()
        assert rep.max_residual == 0.5
        assert rep.satisfied(0.5) and not rep.satisfied(0.4)

    def test_active_block_stationarity(self):
        idx = build_pair_index(3)
        theta = np.array([2.0, 0.0, 0.0])
        g = np.array([-1.0, 0.0, 0.0])  # gradient exactly cancels the penalty at lam=1
        rep = kkt_residuals(theta, g, idx, lam=1.0)
        assert rep.active.tolist() == [True, False, False]
        assert rep.residuals[0] == pytest.approx(0.0, abs=1e-15)


    def test_tiny_theta_entries_count(self):
        # 1e-170 squared underflows to zero; the entry is still nonzero
        idx = build_pair_index(3)
        theta = np.array([1e-170, -1e-170, 0.0])
        g = np.array([0.3, 0.5, 0.2])
        rep = kkt_residuals(theta, g, idx, lam=0.5)
        assert rep.active.tolist() == [True, True, False]
        assert rep.residuals.tolist() == [0.8, 0.0, 0.0]
        assert not rep.satisfied(0.1)
        assert solver._penalty(theta, 1) == 2e-170

    def test_tiny_gradient_entries_count(self):
        idx = build_pair_index(3)
        g = np.array([1e-170, -1e-170, 0.0])
        rep = kkt_residuals(np.zeros(3), g, idx, lam=0.0)
        assert rep.residuals.tolist() == [1e-170, 1e-170, 0.0]
        assert not rep.satisfied(1e-171)
        # the working-set test |g| > lam keeps them too
        assert (solver._kernels.block_norms(g, 1) > 0.0).tolist() == [True, True, False]

    @given(
        st.lists(st.tuples(
            st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)),
            st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)),
        ), min_size=1, max_size=12),
        st.one_of(st.just(0.0), st.floats(1e-100, 1e100)),
    )
    def test_scalar_path_is_bit_equal_to_the_block_formula(self, entries, lam):
        theta, g = (np.array(col) for col in zip(*entries))
        # the block formula on one-entry blocks, as table features compute it
        blocks, grad_blocks = theta.reshape(-1, 1), g.reshape(-1, 1)
        norms = np.linalg.norm(blocks, axis=1)
        units = np.zeros_like(blocks)
        units[norms > 0.0] = blocks[norms > 0.0] / norms[norms > 0.0, None]
        want = np.where(norms > 0.0, np.linalg.norm(grad_blocks + lam * units, axis=1),
                        np.maximum(0.0, np.linalg.norm(grad_blocks, axis=1) - lam))
        rep = kkt_residuals(theta, g, build_pair_index(2), lam)
        assert rep.residuals.tobytes() == want.tobytes()
        assert rep.active.tolist() == (norms > 0.0).tolist()
        assert solver._penalty(theta, 1) == float(norms.sum())
        assert solver._kernels.block_norms(g, 1).tobytes() == np.linalg.norm(grad_blocks, axis=1).tobytes()


def model_objective(hess, grad, start, lam, z):
    d = z - start
    return float(grad @ d + d @ hess @ d / 2.0 + lam * np.abs(z).sum())


def enumerated_minimum(hess, grad, start, lam):
    """Minimum of the scalar-block model over all 3^s sign patterns, each a
    closed-form solve on its nonzero coordinates kept if its signs agree."""
    best = np.inf
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=grad.size):
        signs = np.array(signs)
        on = signs != 0.0
        z = np.zeros(grad.size)
        z[on] = np.linalg.solve(hess[np.ix_(on, on)], hess[on] @ start - grad[on] - lam * signs[on])
        if np.array_equal(np.sign(z[on]), signs[on]):
            best = min(best, model_objective(hess, grad, start, lam, z))
    return best


def random_models():
    """Random SPD models as the solver builds them: a covariance with a damped
    diagonal, a gradient, and a warm start with some zero coordinates."""
    for size in range(1, 7):
        for seed in range(4):
            rng = np.random.default_rng([size, seed])
            factor = rng.standard_normal((size, size + 2))
            hess = factor @ factor.T / (size + 2)
            hess[np.diag_indices(size)] += 0.5 * 1e-2
            grad = rng.standard_normal(size)
            start = np.where(rng.random(size) < 0.5, 0.0, rng.standard_normal(size))
            for frac in (0.05, 0.3, 0.8):
                yield hess, grad, start, frac * np.abs(grad).max()


def inner_solve_misses(tol=1e-9):
    """Models whose inner solve is off the enumerated minimum or above tol."""
    misses = 0
    for hess, grad, start, lam in random_models():
        z, _ = _solve_model(hess, grad, start, lam, 1, tol)
        best = enumerated_minimum(hess, grad, start, lam)
        gap = abs(model_objective(hess, grad, start, lam, z) - best)
        residual = _model_residual(z.tolist(), (grad + hess @ (z - start)).tolist(), lam, 1)
        misses += gap > 1e-12 * max(1.0, abs(best)) or residual > tol
    return misses


class TestSolveModel:
    def test_scalar_blocks_reach_the_enumerated_minimum(self):
        assert inner_solve_misses() == 0

    def test_sweeps_change_a_rejected_sign_pattern(self, monkeypatch):
        finish = solver._sign_pattern_minimizer
        tried = []

        def spied(hess, grad, start, lam, signs):
            out = finish(hess, grad, start, lam, signs)
            tried.append((signs.tolist(), out))
            return out

        monkeypatch.setattr(solver, "_sign_pattern_minimizer", spied)
        hess = np.array([[1.0, -0.5, -0.4], [-0.5, 1.0, 0.2], [-0.4, 0.2, 1.0]])
        grad, start, lam = np.array([-1.0, -0.6, 0.3]), np.zeros(3), 0.1
        z, _ = _solve_model(hess, grad, start, lam, 1, 1e-12)
        # the first sweep leaves coordinate 2 negative; later sweeps zero it
        assert tried[0] == ([1.0, 1.0, -1.0], None)
        assert tried[-1][0] == [1.0, 1.0, 0.0] and tried[-1][1] is z
        np.testing.assert_allclose(z, [23.0 / 15.0, 19.0 / 15.0, 0.0], rtol=1e-14)
        assert model_objective(hess, grad, start, lam, z) == pytest.approx(
            enumerated_minimum(hess, grad, start, lam), rel=1e-12)

    def test_a_finish_without_the_off_pattern_check_is_caught(self, monkeypatch):
        def unchecked(hess, grad, start, lam, signs):
            on = signs != 0.0
            z = np.zeros_like(start)
            z[on] = np.linalg.solve(hess[np.ix_(on, on)], hess[on] @ start - grad[on] - lam * signs[on])
            return z if np.array_equal(np.sign(z[on]), signs[on]) else None

        monkeypatch.setattr(solver, "_sign_pattern_minimizer", unchecked)
        assert inner_solve_misses() > 0

    def test_blocks_keep_coordinate_descent(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("block models take no sign-pattern finish")

        monkeypatch.setattr(solver, "_sign_pattern_minimizer", refuse)
        rng = np.random.default_rng(0)
        factor = rng.standard_normal((6, 8))
        hess = factor @ factor.T / 8 + 0.5 * np.eye(6)
        grad, lam = rng.standard_normal(6), 0.2
        # each block moves to its exact minimizer: 1e-9 is reached within
        # MAX_SWEEPS, where proximal steps of 1/L_b stalled at 2.4e-7
        for tol in (1e-6, 1e-9):
            z, _ = _solve_model(hess, grad, np.zeros(6), lam, 2, tol)
            assert _model_residual(z.tolist(), (grad + hess @ z).tolist(), lam, 2) <= tol


class TestFit:
    def test_above_lambda_max_gives_null(self, small_data):
        f = FeatureMap.product()
        lmax = lambda_max(small_data, f, pair_policy=ALL)
        res = fit(small_data, f, 1.01 * lmax, pair_policy=ALL)
        assert res.converged
        assert np.count_nonzero(res.theta_hat.flat) == 0
        assert res.iterations == 0

    def test_below_lambda_max_activates(self, small_data):
        f = FeatureMap.product()
        lmax = lambda_max(small_data, f, pair_policy=ALL)
        res = fit(small_data, f, 0.5 * lmax, pair_policy=ALL)
        assert np.count_nonzero(res.theta_hat.block_norms()) > 0

    def test_trace_never_increases(self, small_data):
        f = FeatureMap.product()
        lmax = lambda_max(small_data, f, pair_policy=ALL)
        res = fit(small_data, f, 0.1 * lmax, pair_policy=ALL)
        diffs = np.diff(res.objective_trace)
        assert (diffs <= 1e-12).all()

    def test_converged_fit_passes_independent_kkt(self, small_data):
        f = FeatureMap.product()
        lam = 0.3 * lambda_max(small_data, f, pair_policy=ALL)
        res = fit(small_data, f, lam, pair_policy=ALL)
        assert res.converged
        g = gradient(res.theta_hat, small_data, f, pair_policy=ALL)
        rep = kkt_residuals(res.theta_hat.flat, g, res.theta_hat.index, lam)
        assert rep.satisfied(1e-6)

    def test_warm_start_agrees_with_cold(self):
        data = make_dataset(40, 4, 2, seed=13)
        f = FeatureMap.product()
        lmax = lambda_max(data, f, pair_policy=ALL)
        warm_src = fit(data, f, 0.5 * lmax, pair_policy=ALL)
        lam = 0.3 * lmax
        cold = fit(data, f, lam, pair_policy=ALL)
        warm = fit(data, f, lam, warm_start=warm_src.theta_hat, pair_policy=ALL)
        np.testing.assert_allclose(warm.theta_hat.flat, cold.theta_hat.flat, atol=1e-5)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)

    def test_above_lambda_max_builds_no_hessian(self, small_data, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a Hessian at a certified start")

        monkeypatch.setattr(ModelTerms, "hessian", refuse)
        f = FeatureMap.product()
        terms = ModelTerms(small_data, f, pair_policy=ALL)
        lmax = lambda_max(small_data, f, terms=terms)
        for lam in (lmax, 1.01 * lmax, 10.0 * lmax):
            res = fit(small_data, f, lam, terms=terms)
            assert res.converged and res.iterations == 0 and res.working_set == 0
            assert not res.theta_hat.flat.any()
        assert res.scorings == 0  # the start is the point lambda_max scored

    def test_working_set_grows_and_certifies(self, monkeypatch):
        data = make_dataset(30, 3, 3, seed=3)
        f = FeatureMap.product()
        terms = ModelTerms(data, f, pair_policy=ALL)
        sizes = []
        hessian = ModelTerms.hessian

        def spied(self, flat, cols, rows=None):
            sizes.append(cols.size)
            return hessian(self, flat, cols, rows=rows)

        monkeypatch.setattr(ModelTerms, "hessian", spied)
        lam = 0.6 * lambda_max(data, f, terms=terms)
        res = fit(data, f, lam, terms=terms)
        # one block violates at zero; a second joins after the first step
        assert sizes[0] == 1 and max(sizes) == 2
        assert res.converged and res.working_set == 2
        assert res.iterations == len(sizes)
        g = gradient(res.theta_hat, data, f, pair_policy=ALL)
        assert kkt_residuals(res.theta_hat.flat, g, res.theta_hat.index, lam).satisfied(1e-6)
        assert len(res.theta_hat.nonzero_pairs()) == 2

    def test_table_fit_certifies(self, coded_data):
        table = FeatureMap.from_table(np.random.default_rng(5).standard_normal((3, 3, 2)))
        index = build_pair_index(coded_data.m, block_dim=2)
        lam = 0.4 * lambda_max(coded_data, table, pair_policy=ALL)
        res = fit(coded_data, table, lam, pair_policy=ALL)
        assert res.converged
        assert res.theta_hat.index == index
        assert 0 < len(res.theta_hat.nonzero_pairs()) < index.n_pairs
        g = gradient(res.theta_hat, coded_data, table, pair_policy=ALL)
        assert kkt_residuals(res.theta_hat.flat, g, index, lam).satisfied(1e-6)

    def test_counters_describe_the_work(self, small_data):
        f = FeatureMap.product()
        terms = ModelTerms(small_data, f, pair_policy=ALL)
        lam = 0.3 * lambda_max(small_data, f, terms=terms)
        before = terms.scorings
        res = fit(small_data, f, lam, terms=terms)
        assert res.scorings == terms.scorings - before
        # one scoring per trial point; the start was scored by lambda_max
        assert res.scorings == res.iterations + res.backtracks
        assert res.sweeps >= res.iterations > 0
        assert res.working_set == len(res.theta_hat.nonzero_pairs())

    def test_far_start_backtracks_and_descends(self):
        # from a poor warm start the full Newton step overshoots on sq features
        data = make_dataset(20, 2, 2, seed=0)
        f = FeatureMap.squared_product()
        terms = ModelTerms(data, f, pair_policy=ALL)
        lam = 0.3 * lambda_max(data, f, terms=terms)
        start = ParamBlocks(np.random.default_rng(0).standard_normal(terms.index.dim), terms.index)
        res = fit(data, f, lam, warm_start=start, terms=terms)
        assert res.backtracks > 0
        assert (np.diff(res.objective_trace) < 0.0).all()
        assert res.converged

    def test_config_guards(self):
        with pytest.raises(ConfigError):
            SolverConfig(max_iter=0)
        with pytest.raises(ConfigError):
            SolverConfig(tol_kkt=0.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_tol_kkt_rejected(self, bad):
        with pytest.raises(ConfigError, match=f"tol_kkt must be finite and > 0, got {bad!r}"):
            SolverConfig(tol_kkt=bad)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_lam_rejected(self, small_data, bad):
        with pytest.raises(ConfigError, match=f"lam must be finite and >= 0, got {bad!r}"):
            fit(small_data, FeatureMap.product(), bad)

    def test_negative_lam_rejected(self, small_data):
        with pytest.raises(ConfigError):
            fit(small_data, FeatureMap.product(), -0.1)

    def test_bad_warm_start_dim(self, small_data):
        from pmnet import ParamBlocks

        wrong = ParamBlocks.zeros(build_pair_index(3))
        with pytest.raises(ConfigError):
            fit(small_data, FeatureMap.product(), 0.1, warm_start=wrong)


class TestPath:
    def test_geometric_grid_values(self, small_data):
        f = FeatureMap.product()
        res = lambda_path(small_data, f, GeometricSchedule(factor=0.5, count=4), pair_policy=ALL)
        lmax = lambda_max(small_data, f, pair_policy=ALL)
        np.testing.assert_allclose(res.lambdas, lmax * 0.5 ** np.arange(4))
        assert res.stop_reason == "grid_exhausted"
        assert res.entries[0].support_size == 0  # starts at the null model

    def test_explicit_start(self, small_data):
        f = FeatureMap.product()
        res = lambda_path(small_data, f, GeometricSchedule(start=0.2, factor=0.5, count=3), pair_policy=ALL)
        np.testing.assert_allclose(res.lambdas, [0.2, 0.1, 0.05])

    def test_until_support_stops_on_cap(self):
        data = make_dataset(50, 4, 2, seed=17)
        f = FeatureMap.product()
        res = lambda_path(data, f, UntilSupportSchedule(cap_k=3, factor=0.7), pair_policy=ALL)
        assert res.stop_reason == "support_cap_reached"
        assert res.entries[-1].support_size > 3
        for e in res.entries[:-1]:
            assert e.support_size <= 3

    def test_until_support_cap_zero_is_null_baseline(self, small_data):
        f = FeatureMap.product()
        res = lambda_path(small_data, f, UntilSupportSchedule(cap_k=0), pair_policy=ALL)
        assert len(res.entries) == 1
        assert res.stop_reason == "support_cap_reached"
        lmax = lambda_max(small_data, f, pair_policy=ALL)
        assert res.entries[0].lam == pytest.approx(min(10.0, lmax))

    def test_until_support_respects_max_steps(self, small_data, monkeypatch):
        f = FeatureMap.product()
        lmax = lambda_max(small_data, f, pair_policy=ALL)
        monkeypatch.setattr(solver, "UNTIL_MAX_STEPS", 4)
        sched = UntilSupportSchedule(start=100 * lmax, factor=0.99, cap_k=1000)
        res = lambda_path(small_data, f, sched, pair_policy=ALL)
        assert len(res.entries) == 4
        assert res.stop_reason == "grid_exhausted"

    @pytest.mark.parametrize("schedule", [GeometricSchedule, UntilSupportSchedule])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_start_rejected(self, schedule, bad):
        with pytest.raises(ConfigError, match=f"start must be finite and > 0, got {bad!r}"):
            schedule(start=bad)

    def test_unknown_schedule_type(self, small_data):
        with pytest.raises(ConfigError):
            lambda_path(small_data, FeatureMap.product(), object())


# each entry point that takes ModelTerms, called with its other arguments fixed
TERMS_CALLERS = {
    "fit": lambda data, f, **kw: fit(data, f, 0.05, **kw).theta_hat.flat,
    "lambda_path": lambda data, f, **kw: lambda_path(data, f, GeometricSchedule(count=3), **kw).lambdas,
    "lambda_max": lambda_max,
    "cross_validate": lambda data, f, **kw: cross_validate(data, f, [0.2, 0.05], folds=2, **kw).fold_scores,
}


class TestTermsMustMatch:
    """Passed ``terms`` must be of the data, feature map and pair policy given with them."""

    @pytest.fixture
    def two_sets(self):
        return make_dataset(60, 6, 2, seed=1), make_dataset(60, 6, 2, seed=2)

    @pytest.mark.parametrize("call", TERMS_CALLERS.values(), ids=TERMS_CALLERS.keys())
    def test_other_data(self, call, two_sets):
        a, b = two_sets
        f = FeatureMap.product()
        with pytest.raises(ConfigError, match="other data"):
            call(b, f, terms=ModelTerms(a, f))

    @pytest.mark.parametrize("call", TERMS_CALLERS.values(), ids=TERMS_CALLERS.keys())
    @pytest.mark.parametrize("other", [FeatureMap.squared_product(), FeatureMap.product()],
                             ids=["sq", "product"])
    def test_other_feature_map(self, call, other, two_sets):
        a, _ = two_sets
        with pytest.raises(ConfigError, match="feature map"):
            call(a, other, terms=ModelTerms(a, FeatureMap.product()))

    @pytest.mark.parametrize("call", TERMS_CALLERS.values(), ids=TERMS_CALLERS.keys())
    def test_other_pair_policy(self, call, two_sets):
        a, _ = two_sets
        f = FeatureMap.product()
        with pytest.raises(ConfigError, match="pair policy"):
            call(a, f, pair_policy=PairPolicy(cap=100, seed=1), terms=ModelTerms(a, f))

    @pytest.mark.parametrize("call", TERMS_CALLERS.values(), ids=TERMS_CALLERS.keys())
    def test_matching_terms_give_the_unshared_result(self, call, two_sets):
        a, _ = two_sets
        f = FeatureMap.product()
        want = np.asarray(call(a, f))
        for kw in ({}, {"pair_policy": PairPolicy()}):
            got = np.asarray(call(a, f, terms=ModelTerms(a, f), **kw))
            assert got.tobytes() == want.tobytes()

    def test_cv_folds_take_the_policy_of_terms(self, two_sets):
        a, _ = two_sets
        # a fold's 30 rows have 870 ordered pairs: the default keeps all, this samples 150
        f, sampled = FeatureMap.product(), PairPolicy(cap=150, seed=3)
        got = cross_validate(a, f, lambdas=[0.2, 0.05], folds=2, terms=ModelTerms(a, f, pair_policy=sampled))
        want = cross_validate(a, f, lambdas=[0.2, 0.05], folds=2, pair_policy=sampled)
        assert got.fold_scores.tobytes() == want.fold_scores.tobytes()


class TestCrossValidation:
    def test_guards(self, small_data):
        with pytest.raises(ConfigError):
            cross_validate(small_data, FeatureMap.product(), folds=1)
        with pytest.raises(ConfigError):
            cross_validate(small_data, FeatureMap.product(), folds=7)  # n=12 < 14

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_grid_rejected(self, small_data, bad):
        with pytest.raises(ConfigError, match=f"every lambda of the grid must be finite and >= 0, got {bad!r}"):
            cross_validate(small_data, FeatureMap.product(), lambdas=[0.1, bad], folds=3)

    def test_shapes_and_grid_order(self):
        data = make_dataset(30, 2, 2, seed=19)
        f = FeatureMap.product()
        res = cross_validate(data, f, lambdas=[0.01, 0.1, 0.05], folds=3, pair_policy=ALL)
        np.testing.assert_allclose(res.lambdas, [0.1, 0.05, 0.01])  # descending
        assert res.fold_scores.shape == (3, 3)
        assert res.mean_scores.shape == (3,)
        assert res.best_lambda in res.lambdas

    def test_ties_resolve_to_largest_lambda(self):
        data = make_dataset(24, 2, 2, seed=23)
        f = FeatureMap.product()
        lmax = lambda_max(data, f, pair_policy=ALL)
        # all grid points sit above lambda_max, so every fold scores the null model
        res = cross_validate(data, f, lambdas=[2 * lmax, 3 * lmax, 5 * lmax], folds=3, pair_policy=ALL)
        assert res.best_lambda == pytest.approx(5 * lmax)
        assert np.ptp(res.mean_scores) == pytest.approx(0.0, abs=1e-12)

    def test_lists_uncertified_fold_fits(self):
        data = make_dataset(30, 2, 2, seed=19)
        f = FeatureMap.product()
        lambdas = [0.1, 0.05, 0.01]
        capped = cross_validate(data, f, lambdas=lambdas, folds=3, pair_policy=ALL,
                                cfg=SolverConfig(max_iter=1))
        assert capped.uncertified
        for fold, lam, iterations, residual in capped.uncertified:
            assert fold in range(3) and lam in lambdas
            assert iterations == 1 and residual > 1e-6
        # the same fits, rerun by hand, are exactly the uncertified ones
        rng = np.random.default_rng(0)
        folds = np.array_split(rng.permutation(data.n), 3)
        want = []
        for fold, val_rows in enumerate(folds):
            train = data.subset(np.setdiff1d(np.arange(data.n), val_rows))
            warm = None
            for lam in sorted(lambdas, reverse=True):
                res = fit(train, f, lam, cfg=SolverConfig(max_iter=1), warm_start=warm, pair_policy=ALL)
                warm = res.theta_hat
                if not res.converged:
                    want.append((fold, lam, 1, res.kkt.max_residual))
        assert list(capped.uncertified) == want
        assert cross_validate(data, f, lambdas=lambdas, folds=3, pair_policy=ALL).uncertified == ()

    def test_picks_interior_lambda_on_planted_signal(self):
        rng = np.random.default_rng(29)
        z = rng.standard_normal((80, 1))
        x = np.hstack([z + 0.3 * rng.standard_normal((80, 1)) for _ in range(2)])
        x = np.hstack([x, rng.standard_normal((80, 1))])
        from pmnet import Dataset, Partition

        data = Dataset(x, Partition((0,), (1, 2)))
        f = FeatureMap.product()
        res = cross_validate(data, f, folds=4, pair_policy=ALL, seed=1)
        # correlated pair (0,1) should make some penalized fit beat the null
        assert res.best_lambda < lambda_max(data, f, pair_policy=ALL)


class TestLambdaGrids:
    def test_default_grid(self):
        grid = default_lambda_grid(2.0)
        assert grid.size == solver.CV_GRID_SIZE == 20
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(2e-3)
        assert (np.diff(grid) < 0).all()
        with pytest.raises(ConfigError):
            default_lambda_grid(0.0)

    def test_theory_bound_formula(self):
        val = theory_lambda_bound(m=10, n=100, alpha=0.5, feature_bound=2.0)
        expected = 24 * (2 - 0.5) / 0.5 * np.sqrt(2.0 * np.log(55) / 100)
        assert val == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ConfigError):
            theory_lambda_bound(m=10, n=100, alpha=0.0, feature_bound=1.0)
        with pytest.raises(ConfigError):
            theory_lambda_bound(m=1, n=100, alpha=0.5, feature_bound=1.0)
