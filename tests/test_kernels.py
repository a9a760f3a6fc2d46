import os
import subprocess
import sys

import numpy as np
import pytest

from pmnet import _kernels as K

needs_numba = pytest.mark.skipif(not K.HAVE_NUMBA, reason="numba not installed")

rng = np.random.default_rng(42)


def test_backend_name_matches_flag():
    assert K.backend() in ("numba", "numpy")
    assert (K.backend() == "numba") == K.USE_NUMBA


def test_active_aliases_point_at_selected_variant():
    suffix = "_numba" if K.USE_NUMBA else "_numpy"
    for name in ("block_norms", "group_soft_threshold", "product_features", "diamond_chain"):
        assert getattr(K, name) is getattr(K, name + suffix)


class TestNumpyVariants:
    def test_block_norms(self):
        flat = np.array([3.0, 4.0, 0.0, 0.0, 1.0, -1.0])
        np.testing.assert_allclose(
            K.block_norms_numpy(flat, 2), [5.0, 0.0, np.sqrt(2.0)]
        )

    def test_group_soft_threshold_zeros_and_shrink(self):
        flat = np.array([3.0, 4.0, 0.1, 0.2])
        out = K.group_soft_threshold_numpy(flat, 2, 1.0)
        np.testing.assert_allclose(out[:2], [3.0 * 0.8, 4.0 * 0.8])
        assert out[2] == 0.0 and out[3] == 0.0

    def test_feature_matrices(self):
        x = rng.standard_normal((5, 4))
        u = np.array([0, 1], dtype=np.int64)
        v = np.array([2, 3], dtype=np.int64)
        np.testing.assert_array_equal(
            K.product_features_numpy(x, u, v), x[:, [0, 1]] * x[:, [2, 3]]
        )
        np.testing.assert_array_equal(
            K.squared_product_features_numpy(x, u, v),
            (x[:, [0, 1]] ** 2) * (x[:, [2, 3]] ** 2),
        )
        codes = rng.integers(0, 3, size=(6, 4)).astype(np.float64)
        delta = K.delta_features_numpy(codes, u, v)
        np.testing.assert_array_equal(delta, codes[:, [0, 1]] == codes[:, [2, 3]])


@needs_numba
class TestBackendAgreement:
    """The jitted loops must reproduce the vectorized results."""

    def test_block_norms(self):
        flat = rng.standard_normal(3 * 50)
        np.testing.assert_allclose(
            K.block_norms_numba(flat, 3), K.block_norms_numpy(flat, 3), rtol=1e-15
        )

    def test_group_soft_threshold(self):
        flat = rng.standard_normal(2 * 80)
        tau = 0.9
        a = K.group_soft_threshold_numpy(flat, 2, tau)
        b = K.group_soft_threshold_numba(flat, 2, tau)
        np.testing.assert_allclose(b, a, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(a == 0.0, b == 0.0)

    def test_feature_matrices_exact(self):
        x = rng.standard_normal((20, 6))
        u = np.array([0, 0, 1, 3], dtype=np.int64)
        v = np.array([1, 4, 5, 4], dtype=np.int64)
        np.testing.assert_array_equal(
            K.product_features_numba(x, u, v), K.product_features_numpy(x, u, v)
        )
        np.testing.assert_array_equal(
            K.squared_product_features_numba(x, u, v),
            K.squared_product_features_numpy(x, u, v),
        )
        codes = rng.integers(0, 4, size=(20, 6)).astype(np.float64)
        np.testing.assert_array_equal(
            K.delta_features_numba(codes, u, v), K.delta_features_numpy(codes, u, v)
        )

    def test_diamond_chain_identical_trajectory(self):
        # same pre-drawn randomness must give the same walk on both backends
        local = np.random.default_rng(9)
        total = 500
        steps = 0.5 * local.standard_normal((total, 4))
        log_u = np.log(local.uniform(size=total))
        x0 = np.zeros(4)
        kept_a, acc_a = K.diamond_chain_numpy(1.0, 1.0, x0, steps, log_u, 100, 4, 100)
        kept_b, acc_b = K.diamond_chain_numba(1.0, 1.0, x0, steps, log_u, 100, 4, 100)
        assert acc_a == acc_b
        np.testing.assert_array_equal(kept_a, kept_b)


class TestEnvFlag:
    def _run(self, flag):
        env = dict(os.environ)
        env["PMNET_BACKEND"] = flag
        return subprocess.run(
            [sys.executable, "-c", "import pmnet; print(pmnet.backend())"],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_force_numpy(self):
        proc = self._run("numpy")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "numpy"

    @needs_numba
    def test_force_numba(self):
        proc = self._run("numba")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "numba"

    def test_bad_value_fails_import(self):
        proc = self._run("cupy")
        assert proc.returncode != 0
        assert "PMNET_BACKEND" in proc.stderr
