import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmnet import (
    Dataset,
    DimensionError,
    DomainError,
    FeatureMap,
    Partition,
    build_pair_index,
    feature_eval,
    pair_feature_matrix,
    permuted_pair,
)
from pmnet.core import (
    observed_feature_bounds,
    permuted_matrix,
)

from conftest import make_coded_dataset, make_dataset


class TestPartition:
    def test_basic(self):
        p = Partition((0, 1, 2), (3, 4))
        assert p.m == 5
        assert p.group2_mask.tolist() == [False, False, False, True, True]
        assert p.is_cross(0, 3)
        assert not p.is_cross(0, 1)
        assert not p.is_cross(3, 4)

    def test_rejects_empty_group(self):
        with pytest.raises(DimensionError):
            Partition((0, 1), ())

    def test_rejects_overlap(self):
        with pytest.raises(DimensionError):
            Partition((0, 1), (1, 2))

    def test_rejects_gap(self):
        with pytest.raises(DimensionError):
            Partition((0, 1), (3,))

    def test_noncontiguous_groups_ok(self):
        p = Partition((0, 2), (1, 3))
        assert p.is_cross(0, 1)
        assert not p.is_cross(0, 2)


class TestDataset:
    def test_copies_and_freezes(self):
        x = np.ones((3, 2))
        d = Dataset(x, Partition((0,), (1,)))
        x[0, 0] = 99.0
        assert d.samples[0, 0] == 1.0
        with pytest.raises(ValueError):
            d.samples[0, 0] = 5.0

    def test_needs_two_rows(self):
        with pytest.raises(DimensionError):
            Dataset(np.ones((1, 2)), Partition((0,), (1,)))

    def test_column_mismatch(self):
        with pytest.raises(DimensionError):
            Dataset(np.ones((3, 3)), Partition((0,), (1,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        x = np.zeros((3, 2))
        x[2, 1] = bad
        with pytest.raises(DomainError, match=r"row 3, column 2"):
            Dataset(x, Partition((0,), (1,)))

    def test_categorical_checks(self):
        p = Partition((0,), (1,))
        assert Dataset([[0, 1], [2, 0]], p, categories=3).categories == 3
        with pytest.raises(DomainError):
            Dataset([[0, 1], [3, 0]], p, categories=3)
        with pytest.raises(DomainError):
            Dataset([[0.5, 1], [0, 0]], p, categories=3)
        with pytest.raises(DomainError, match="categories >= 2"):
            Dataset([[0, 1], [1, 0]], p, categories=1)
        # without a category count the same values are continuous data
        assert Dataset([[0.5, 1], [3, 0]], p).categories is None

    def test_subset_keeps_partition(self):
        d = make_dataset(6, 2, 2, seed=1)
        s = d.subset([4, 0, 2])
        assert s.n == 3
        assert s.partition == d.partition
        np.testing.assert_array_equal(s.samples[0], d.samples[4])


class TestPairIndex:
    def test_counts(self):
        # m*(m-1)/2 off-diagonal pairs
        assert build_pair_index(50).n_pairs == 1225

    def test_lexicographic_order(self):
        idx = build_pair_index(4)
        assert idx.pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_position_and_slice(self):
        idx = build_pair_index(4, block_dim=3)
        assert idx.dim == 18
        t = idx.position((1, 3))
        assert idx.slice_of((1, 3)) == slice(3 * t, 3 * t + 3)
        assert idx.slice_of(t) == idx.slice_of((1, 3))
        with pytest.raises(DimensionError):
            idx.position((3, 1))

    def test_cross_mask_count(self):
        idx = build_pair_index(7)
        p = Partition(tuple(range(4)), tuple(range(4, 7)))
        assert int(idx.cross_mask(p).sum()) == 4 * 3

    def test_guards(self):
        with pytest.raises(DimensionError):
            build_pair_index(1)
        with pytest.raises(DimensionError):
            build_pair_index(3, block_dim=0)

    @given(st.integers(min_value=2, max_value=12))
    def test_position_roundtrip(self, m):
        idx = build_pair_index(m)
        for t, pair in enumerate(idx.pairs):
            assert idx.position(pair) == t

    @pytest.mark.parametrize("block_dim", [1, 3])
    @pytest.mark.parametrize("diagonal", [False])
    def test_matches_the_nested_loop(self, diagonal, block_dim):
        for m in range(2, 41):
            pairs = [(u, v) for u in range(m) for v in range(u if diagonal else u + 1, m)]
            idx = build_pair_index(m, block_dim=block_dim)
            assert idx.pairs == tuple(pairs)
            assert (idx.n_pairs, idx.dim) == (len(pairs), len(pairs) * block_dim)
            np.testing.assert_array_equal(idx.u_idx, [u for u, _ in pairs])
            np.testing.assert_array_equal(idx.v_idx, [v for _, v in pairs])
            for t, pair in enumerate(pairs):
                assert idx.position(pair) == t
                assert idx.slice_of(pair) == idx.slice_of(t) == slice(t * block_dim, (t + 1) * block_dim)

    @pytest.mark.parametrize(
        "pair", [(3, 1), (2, 2), (0, 5), (5, 6), (-1, 2), (0, -1), (0.5, 1), (0.0, 1), (1, 2, 3), (1,), 4]
    )
    def test_position_rejects_pairs_outside_the_index(self, pair):
        idx = build_pair_index(5)
        with pytest.raises(DimensionError, match="is not in the index"):
            idx.position(pair)
        if not isinstance(pair, int):
            with pytest.raises(DimensionError, match="is not in the index"):
                idx.slice_of(pair)


class TestPermutedSamples:
    def test_mixes_rows(self):
        d = make_dataset(5, 2, 3, seed=2)
        s = permuted_pair(d, 1, 4)
        np.testing.assert_array_equal(s.value[:2], d.samples[1, :2])
        np.testing.assert_array_equal(s.value[2:], d.samples[4, 2:])

    def test_identity_rows_rejected(self):
        d = make_dataset(5, 2, 3)
        with pytest.raises(IndexError):
            permuted_pair(d, 2, 2)
        with pytest.raises(IndexError):
            permuted_pair(d, 0, 5)

    def test_same_rows_give_same_sample(self):
        d = make_dataset(5, 2, 3, seed=2)
        a = permuted_pair(d, 0, 3).value
        b = permuted_pair(d, 0, 3).value
        np.testing.assert_array_equal(a, b)

    def test_matrix_matches_scalar_path(self):
        d = make_dataset(6, 3, 2, seed=9)
        j = np.array([0, 2, 5])
        k = np.array([1, 4, 0])
        mat = permuted_matrix(d, j, k)
        for r in range(3):
            np.testing.assert_array_equal(mat[r], permuted_pair(d, int(j[r]), int(k[r])).value)

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
    def test_group_sources(self, j, k):
        d = make_dataset(5, 2, 2, seed=11)
        if j == k:
            return
        s = permuted_pair(d, j, k)
        mask2 = d.partition.group2_mask
        np.testing.assert_array_equal(s.value[~mask2], d.samples[j, ~mask2])
        np.testing.assert_array_equal(s.value[mask2], d.samples[k, mask2])


class TestFeatures:
    def test_product(self):
        f = FeatureMap.product()
        np.testing.assert_allclose(feature_eval(f, [2.0, -3.0], (0, 1)), [-6.0])

    def test_squared_product(self):
        f = FeatureMap.squared_product()
        np.testing.assert_allclose(feature_eval(f, [2.0, -3.0], (0, 1)), [36.0])

    def test_delta(self):
        f = FeatureMap.kronecker_delta()
        np.testing.assert_allclose(feature_eval(f, [1.0, 1.0], (0, 1)), [1.0])
        np.testing.assert_allclose(feature_eval(f, [1.0, 2.0], (0, 1)), [0.0])
        assert f.bound_inf == 1.0 and f.bound_l2 == 1.0

    def test_delta_validates_codes(self):
        f = FeatureMap.kronecker_delta(categories=2)
        with pytest.raises(DomainError):
            feature_eval(f, [0.0, 3.0], (0, 1))

    def test_table_lookup(self):
        table = np.arange(2 * 2 * 3, dtype=float).reshape(2, 2, 3)
        f = FeatureMap.from_table(table)
        assert f.block_dim == 3
        np.testing.assert_array_equal(feature_eval(f, [1.0, 0.0], (0, 1)), table[1, 0])
        assert f.bound_inf == 11.0

    def test_table_shape_guards(self):
        with pytest.raises(DimensionError):
            FeatureMap.from_table(np.zeros((2, 3, 1)))
        with pytest.raises(DomainError):
            FeatureMap("table")
        with pytest.raises(DomainError):
            FeatureMap("nope")

    def test_block_dim_is_the_table_depth(self):
        assert FeatureMap.product().block_dim == 1
        assert FeatureMap.kronecker_delta(3).block_dim == 1
        assert FeatureMap.from_table(np.zeros((3, 3, 2))).block_dim == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_table_rejects_non_finite(self, bad):
        table = np.zeros((2, 2, 3))
        table[1, 0, 2] = bad
        with pytest.raises(DomainError, match=r"non-finite table entry .* at \(1, 0, 2\)"):
            FeatureMap.from_table(table)

    def test_matrix_agrees_with_scalar_eval(self):
        d = make_dataset(8, 3, 2, seed=5)
        coded = make_coded_dataset(8, 3, 2, categories=3, seed=5)
        idx = build_pair_index(5)
        cases = ((FeatureMap.product(), d), (FeatureMap.squared_product(), d),
                 (FeatureMap.kronecker_delta(3), coded))
        for f, data in cases:
            mat = pair_feature_matrix(f, data.samples, idx)
            assert mat.shape == (8, idx.n_pairs)
            for r in (0, 3):
                for t, pair in enumerate(idx.pairs):
                    np.testing.assert_allclose(mat[r, t], feature_eval(f, data.samples[r], pair)[0])

    def test_table_matrix_agrees_with_scalar_eval(self):
        d = make_coded_dataset(6, 2, 2, categories=3, seed=8)
        idx = build_pair_index(4, block_dim=2)
        f = FeatureMap.from_table(np.random.default_rng(0).standard_normal((3, 3, 2)))
        mat = pair_feature_matrix(f, d.samples, idx)
        assert mat.shape == (6, idx.dim)
        for r in range(6):
            for pair in idx.pairs:
                sl = idx.slice_of(pair)
                np.testing.assert_array_equal(mat[r, sl], feature_eval(f, d.samples[r], pair))

    def test_observed_bounds(self):
        d = make_dataset(10, 2, 2, seed=4)
        idx = build_pair_index(4)
        f = FeatureMap.product()
        inf, l2 = observed_feature_bounds(pair_feature_matrix(f, d.samples, idx), idx)
        mat = np.abs(pair_feature_matrix(f, d.samples, idx))
        assert inf == pytest.approx(mat.max())
        assert l2 == pytest.approx(mat.max())  # scalar blocks: same value
