import numpy as np

import pmnet
from pmnet import _kernels as K
from pmnet.synth import DiamondSpec


def test_backend_name_matches_flag():
    assert pmnet.backend() == "numpy"


class TestNumpyVariants:
    def test_block_norms(self):
        flat = np.array([3.0, 4.0, 0.0, 0.0, 1.0, -1.0])
        np.testing.assert_allclose(K.block_norms(flat, 2), [5.0, 0.0, np.sqrt(2.0)])

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


def test_diamond_chain_matches_reference_loop():
    spec = DiamondSpec(blocks=1, rho=1.3)
    burn_in, thinning, n_keep = 100, 4, 100
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
    assert 0 < accepted < total
    assert got_accepted == accepted
    np.testing.assert_array_equal(got, np.array(kept))
