import numpy as np
import pytest

import pmnet
from pmnet import _kernels as K
from pmnet.synth import DiamondSpec


def test_backend_name_matches_flag():
    assert pmnet.backend() == "numpy"


class TestNumpyVariants:
    def test_block_norms(self):
        flat = np.array([3.0, 4.0, 0.0, 0.0, 1.0, -1.0])
        np.testing.assert_allclose(K.block_norms(flat, 2), [5.0, 0.0, np.sqrt(2.0)])

    def test_scalar_block_norms_are_absolute_values(self):
        # squaring would underflow 1e-170 to zero
        flat = np.array([1e-170, -1e-170, -2.5, 0.0])
        assert K.block_norms(flat, 1).tolist() == [1e-170, 1e-170, 2.5, 0.0]

    def test_group_soft_threshold_zeros_and_shrink(self):
        flat = np.array([3.0, 4.0, 0.1, 0.2])
        out = K.group_soft_threshold(flat, 2, 1.0)
        np.testing.assert_allclose(out[:2], [3.0 * 0.8, 4.0 * 0.8])
        assert out[2] == 0.0 and out[3] == 0.0


def diamond_log_density(spec, x):
    """Unnormalized log-density of one (a, b, c, d) block, as DiamondSpec states it."""
    a, b, c, d = x
    gauss_coeff = 1.0 / (2.0 * spec.base_variance)
    return (
        -spec.rho * a * a * b * b
        - 0.5 * b * c
        - 0.5 * b * d
        - gauss_coeff * (a * a + b * b + c * c + d * d)
    )


# (burn_in, thinning, n_keep) beyond the original (100, 4, 100); the draws
# reach _CHUNK_ROWS = 1024 rows per conversion chunk only in the last three
CHAIN_SHAPES = [
    (0, 1, 1),
    (3, 5, 2),
    (0, 1, 2100),  # every row kept, across two chunk edges
    (1500, 3, 200),  # burn-in ends in the second chunk
    (1000, 7, 600),  # chunk edges fall inside thinning segments
]


def check_chain_against_reference_loop(burn_in, thinning, n_keep):
    spec = DiamondSpec(blocks=1, rho=1.3)
    total = burn_in + n_keep * thinning
    rng = np.random.default_rng(9)
    steps = 0.5 * rng.standard_normal((total, 4))
    log_u = np.log(1.0 - rng.random(total))

    x = np.zeros(4)
    logp = diamond_log_density(spec, x)
    kept, accepted = [], 0
    for t in range(total):
        y = x + steps[t]
        logq = diamond_log_density(spec, y)
        if logq - logp >= log_u[t]:
            x, logp = y, logq
            accepted += 1
        if t >= burn_in and (t - burn_in) % thinning == thinning - 1:
            kept.append(x)

    got, got_accepted = K.diamond_chain(
        spec.rho, 1.0 / (2.0 * spec.base_variance), np.zeros(4), steps, log_u, burn_in, thinning, n_keep
    )
    if total > 20:
        assert 0 < accepted < total
    assert got_accepted == accepted
    assert got.shape == (n_keep, 4)
    np.testing.assert_array_equal(got, np.array(kept))


def test_diamond_chain_matches_reference_loop():
    check_chain_against_reference_loop(100, 4, 100)


@pytest.mark.parametrize("burn_in,thinning,n_keep", CHAIN_SHAPES)
def test_diamond_chain_shapes_match_reference_loop(burn_in, thinning, n_keep):
    check_chain_against_reference_loop(burn_in, thinning, n_keep)


def test_chain_shapes_cross_chunk_edges_inside_segments():
    """Keeps the long cases above meaningful if the chunk size changes."""
    burn_in, thinning, n_keep = CHAIN_SHAPES[-1]
    total = burn_in + n_keep * thinning
    edges = range(K._CHUNK_ROWS, total, K._CHUNK_ROWS)
    assert any(e > burn_in and (e - burn_in) % thinning for e in edges)
    burn_in, thinning, n_keep = CHAIN_SHAPES[-2]
    assert K._CHUNK_ROWS < burn_in < burn_in + n_keep * thinning < 3 * K._CHUNK_ROWS
    burn_in, thinning, n_keep = CHAIN_SHAPES[-3]
    assert n_keep > 2 * K._CHUNK_ROWS


def test_diamond_chain_with_small_chunks(monkeypatch):
    """Chunks of 3 rows against 4-row thinning: an edge in most segments."""
    monkeypatch.setattr(K, "_CHUNK_ROWS", 3)
    check_chain_against_reference_loop(5, 4, 50)
