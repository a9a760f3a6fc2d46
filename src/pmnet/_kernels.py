"""Small numeric kernels shared by the model, the solver and the sampler.

Block norms and the group soft-threshold act on a flat parameter vector laid
out as consecutive blocks of ``block_dim`` entries; the norms of scalar blocks
are their absolute values.  ``diamond_chain`` walks
one random-walk Metropolis chain over pre-drawn proposal increments and
log-uniform acceptance draws, so a seed fixes its trajectory exactly.  It
steps over plain Python floats, converting the draws with ``.tolist()``
``_CHUNK_ROWS`` rows at a time: arithmetic on numpy scalars costs about three
times as much, and IEEE add and multiply round the same on both, so the
samples are bit-identical to a walk over the numpy arrays.
"""

import numpy as np

# draws converted to Python floats per chunk; bounds the lists' memory
_CHUNK_ROWS = 1024


def block_norms(flat, block_dim):
    # |x| for scalar blocks: squaring would underflow entries below ~1e-154
    if block_dim == 1:
        return np.abs(flat)
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
    Both are arrays, or both are iterables of matching consecutive chunks of
    them, so that the whole chain's draws need never be held at once.
    """
    if isinstance(steps, np.ndarray):
        steps, log_u = [steps], [log_u]
    # -rho * a parses as (-rho) * a, so negating once keeps every bit
    neg_rho = -float(rho)
    gauss_coeff = float(gauss_coeff)
    kept = np.empty((n_keep, 4))
    xa, xb, xc, xd = (float(v) for v in x0)
    logp = (
        neg_rho * xa * xa * xb * xb
        - 0.5 * xb * xc
        - 0.5 * xb * xd
        - gauss_coeff * (xa * xa + xb * xb + xc * xc + xd * xd)
    )
    accepted = 0
    kept_i = 0
    # iterations left until the next kept state; below 0 once n_keep are kept
    to_keep = burn_in + thinning if n_keep > 0 else -1
    for step_chunk, u_chunk in zip(steps, log_u):
        for start in range(0, u_chunk.shape[0], _CHUNK_ROWS):
            cols = step_chunk[start : start + _CHUNK_ROWS].T.tolist()
            for sa, sb, sc, sd, lu in zip(*cols, u_chunk[start : start + _CHUNK_ROWS].tolist()):
                ya = xa + sa
                yb = xb + sb
                yc = xc + sc
                yd = xd + sd
                logq = (
                    neg_rho * ya * ya * yb * yb
                    - 0.5 * yb * yc
                    - 0.5 * yb * yd
                    - gauss_coeff * (ya * ya + yb * yb + yc * yc + yd * yd)
                )
                if logq - logp >= lu:
                    xa = ya
                    xb = yb
                    xc = yc
                    xd = yd
                    logp = logq
                    accepted += 1
                to_keep -= 1
                if not to_keep:
                    kept[kept_i] = (xa, xb, xc, xd)
                    kept_i += 1
                    to_keep = thinning if kept_i < n_keep else -1
    return kept, accepted
