"""Small numeric kernels shared by the model, the solver and the sampler.

Block norms and the group soft-threshold act on a flat parameter vector laid
out as consecutive blocks of ``block_dim`` entries.  ``diamond_chain`` walks
one random-walk Metropolis chain over pre-drawn proposal increments and
log-uniform acceptance draws, so a seed fixes its trajectory exactly.
"""

import numpy as np


def block_norms(flat, block_dim):
    return np.sqrt((flat.reshape(-1, block_dim) ** 2).sum(axis=1))


def group_soft_threshold(flat, block_dim, tau):
    blocks = flat.reshape(-1, block_dim)
    norms = np.sqrt((blocks**2).sum(axis=1))
    scale = np.zeros_like(norms)
    on = norms > tau
    scale[on] = 1.0 - tau / norms[on]
    return (blocks * scale[:, None]).ravel()


def diamond_chain(rho, gauss_coeff, x0, steps, log_u, burn_in, thinning, n_keep):
    """Walk one chain over pre-drawn randomness; returns (kept states, accepts).

    ``steps`` has one proposal increment per iteration, ``log_u`` the matching
    log-uniform acceptance draw; total iterations = burn_in + n_keep*thinning.
    """
    kept = np.empty((n_keep, 4))
    xa = x0[0]
    xb = x0[1]
    xc = x0[2]
    xd = x0[3]
    logp = (
        -rho * xa * xa * xb * xb
        - 0.5 * xb * xc
        - 0.5 * xb * xd
        - gauss_coeff * (xa * xa + xb * xb + xc * xc + xd * xd)
    )
    accepted = 0
    kept_i = 0
    total = steps.shape[0]
    for t in range(total):
        ya = xa + steps[t, 0]
        yb = xb + steps[t, 1]
        yc = xc + steps[t, 2]
        yd = xd + steps[t, 3]
        logq = (
            -rho * ya * ya * yb * yb
            - 0.5 * yb * yc
            - 0.5 * yb * yd
            - gauss_coeff * (ya * ya + yb * yb + yc * yc + yd * yd)
        )
        if logq - logp >= log_u[t]:
            xa = ya
            xb = yb
            xc = yc
            xd = yd
            logp = logq
            accepted += 1
        if t >= burn_in and (t - burn_in) % thinning == thinning - 1 and kept_i < n_keep:
            kept[kept_i, 0] = xa
            kept[kept_i, 1] = xb
            kept[kept_i, 2] = xc
            kept[kept_i, 3] = xd
            kept_i += 1
    return kept, accepted
