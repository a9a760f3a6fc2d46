import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmnet import (
    DimensionError,
    FeatureMap,
    GeometricSchedule,
    PairPolicy,
    ParamBlocks,
    Partition,
    SupportSet,
    build_pair_index,
    cross_group_edges,
    extract_support,
    fit,
    lambda_max,
    lambda_path,
    roc_curve,
    support_from_pairs,
    tpr_tnr,
)
from pmnet.structure import Edge, envelope_and_auc

from conftest import make_dataset


def support(pairs, m):
    return support_from_pairs(pairs, build_pair_index(m))


class TestSupportSet:
    def test_sizes(self):
        s = support([(0, 1), (2, 3)], 4)
        assert s.size == 2
        assert s.complement_size == 4

    def test_active_outside_universe(self):
        idx = build_pair_index(3)
        with pytest.raises(DimensionError):
            SupportSet(frozenset({(0, 5)}), idx.pairs)

    def test_restrict_cross(self):
        s = support([(0, 1), (0, 2), (2, 3)], 4)
        p = Partition((0, 1), (2, 3))
        r = s.restrict_cross(p)
        assert r.active == {(0, 2)}
        assert len(r.universe) == 4  # 2x2 cross pairs

    def test_extract_uses_exact_zeros(self):
        idx = build_pair_index(3)
        theta = ParamBlocks([0.0, 1e-300, 0.0], idx)
        assert extract_support(theta).active == {(0, 2)}
        assert extract_support(ParamBlocks.zeros(idx)).size == 0


class TestTprTnr:
    def test_perfect(self):
        t = support([(0, 1)], 3)
        rep = tpr_tnr(t, t)
        assert rep.tpr == 1.0 and rep.tnr == 1.0

    def test_empty_estimate(self):
        truth = support([(0, 1)], 3)
        rep = tpr_tnr(support([], 3), truth)
        assert rep.tpr == 0.0 and rep.tnr == 1.0

    def test_counting(self):
        # 7 of 10 true pairs recovered, 3 false alarms among the other 1215
        m = 50
        idx = build_pair_index(m)
        truth_pairs = idx.pairs[:10]
        est_pairs = list(truth_pairs[:7]) + list(idx.pairs[10:13])
        rep = tpr_tnr(support(est_pairs, m), support(truth_pairs, m))
        assert rep.tpr == pytest.approx(0.7)
        assert rep.tnr == pytest.approx(1212 / 1215)

    def test_nan_flags(self):
        est = support([(0, 1)], 3)
        rep = tpr_tnr(est, support([], 3))
        assert not rep.tpr_defined and rep.tnr_defined
        full = support(build_pair_index(3).pairs, 3)
        rep2 = tpr_tnr(est, full)
        assert rep2.tpr_defined and not rep2.tnr_defined

    def test_universe_mismatch(self):
        with pytest.raises(DimensionError):
            tpr_tnr(support([], 3), support([], 4))

    @given(st.permutations(list(range(5))))
    def test_relabel_invariance(self, perm):
        m = 5
        relabel = {i: perm[i] for i in range(m)}

        def remap(pairs):
            return [tuple(sorted((relabel[u], relabel[v]))) for u, v in pairs]

        truth_pairs = [(0, 1), (1, 2), (3, 4)]
        est_pairs = [(0, 1), (2, 3), (0, 4)]
        base = tpr_tnr(support(est_pairs, m), support(truth_pairs, m))
        mapped = tpr_tnr(support(remap(est_pairs), m), support(remap(truth_pairs), m))
        assert mapped.tpr == base.tpr
        assert mapped.tnr == base.tnr


class TestRoc:
    def test_endpoints_and_perfect_point(self):
        env, auc = envelope_and_auc(np.array([1.0]), np.array([1.0]))
        assert auc == pytest.approx(1.0)
        np.testing.assert_allclose(env[0], [0.0, 1.0])
        np.testing.assert_allclose(env[-1], [1.0, 1.0])

    def test_null_only_is_chance(self):
        _, auc = envelope_and_auc(np.array([1.0]), np.array([0.0]))
        assert auc == pytest.approx(0.5)

    def test_envelope_monotone(self):
        rng = np.random.default_rng(3)
        tnr = rng.random(20)
        tpr = rng.random(20)
        env, auc = envelope_and_auc(tnr, tpr)
        assert (np.diff(env[:, 0]) > 0).all()
        assert (np.diff(env[:, 1]) <= 0).all()  # tpr falls as tnr rises
        assert 0.0 <= auc <= 1.0

    def test_nan_points_poison_auc(self):
        _, auc = envelope_and_auc(np.array([np.nan]), np.array([1.0]))
        assert np.isnan(auc)

    def test_roc_curve_on_real_path(self):
        data = make_dataset(40, 3, 2, seed=37)
        f = FeatureMap.product()
        path = lambda_path(
            data, f, GeometricSchedule(factor=0.6, count=5), pair_policy=PairPolicy(kind="all_ordered")
        )
        truth = support([(0, 3), (1, 4)], 5)
        curve = roc_curve(path, truth)
        assert curve.points.shape == (5, 3)
        np.testing.assert_allclose(curve.points[:, 0], path.lambdas)
        assert 0.0 <= curve.auc <= 1.0
        # raw points belong to the [0,1] square
        assert ((curve.points[:, 1:] >= 0) & (curve.points[:, 1:] <= 1)).all()


class TestEdges:
    def build_theta(self):
        idx = build_pair_index(4)
        flat = np.zeros(idx.dim)
        flat[idx.position((0, 2))] = -0.3
        flat[idx.position((1, 3))] = 0.9
        flat[idx.position((0, 1))] = 0.5  # within group
        return ParamBlocks(flat, idx), Partition((0, 1), (2, 3))

    def test_cross_only_scope(self):
        theta, part = self.build_theta()
        edges = cross_group_edges(theta, part)
        assert [(e.u, e.v) for e in edges.edges] == [(1, 3), (0, 2)]
        assert edges.edges[0].sign == 1
        assert edges.edges[1].sign == -1
        assert edges.edges[1].weight == pytest.approx(0.3)

    def test_all_scope_partitions_support(self):
        theta, part = self.build_theta()
        all_edges = cross_group_edges(theta, part, scope="all")
        cross = cross_group_edges(theta, part)
        support_pairs = set(theta.nonzero_pairs())
        assert {(e.u, e.v) for e in all_edges.edges} == support_pairs
        within = {(e.u, e.v) for e in all_edges.edges} - {(e.u, e.v) for e in cross.edges}
        assert within == {(0, 1)}

    def test_top_k(self):
        theta, part = self.build_theta()
        edges = cross_group_edges(theta, part, scope="all", top=1)
        assert len(edges.edges) == 1
        assert edges.edges[0].weight == pytest.approx(0.9)

    def test_within_only_support_is_empty_cross(self):
        idx = build_pair_index(4)
        flat = np.zeros(idx.dim)
        flat[idx.position((0, 1))] = 1.0
        theta = ParamBlocks(flat, idx)
        edges = cross_group_edges(theta, Partition((0, 1), (2, 3)))
        assert edges.edges == ()

    def test_weight_ties_sort_by_pair(self):
        idx = build_pair_index(4)
        flat = np.zeros(idx.dim)
        flat[idx.position((0, 2))] = 0.5
        flat[idx.position((0, 3))] = -0.5
        theta = ParamBlocks(flat, idx)
        edges = cross_group_edges(theta, Partition((0, 1), (2, 3)))
        assert [(e.u, e.v) for e in edges.edges] == [(0, 2), (0, 3)]

    @pytest.mark.parametrize("scope", ["cross_group_only", "all"])
    def test_fitted_edges_match_a_loop_over_every_pair(self, scope):
        data = make_dataset(40, 3, 3, seed=1)
        f, policy = FeatureMap.product(), PairPolicy(kind="all_ordered")
        theta = fit(data, f, 0.1 * lambda_max(data, f, pair_policy=policy), pair_policy=policy).theta_hat
        mask2 = data.partition.group2_mask
        norms = theta.block_norms()
        within = [mask2[u] == mask2[v] for u, v in theta.index.pairs]
        # the fit has nonzero within-group and cross blocks, and zero blocks
        assert {(bool(w), bool(n > 0.0)) for w, n in zip(within, norms)} == {
            (True, True), (True, False), (False, True), (False, False)}
        want = []
        for t, (u, v) in enumerate(theta.index.pairs):
            if norms[t] <= 0.0 or (scope == "cross_group_only" and within[t]):
                continue
            block = theta.block(t)
            want.append(Edge(u, v, float(norms[t]), int(np.sign(block[int(np.argmax(np.abs(block)))]))))
        want.sort(key=lambda e: (-e.weight, e.u, e.v))
        assert cross_group_edges(theta, data.partition, scope=scope).edges == tuple(want)
        nz = (theta.flat.reshape(theta.index.n_pairs, -1) != 0.0).any(axis=1)
        assert theta.nonzero_pairs() == tuple(p for p, keep in zip(theta.index.pairs, nz) if keep)
