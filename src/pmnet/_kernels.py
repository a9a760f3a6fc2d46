"""Numeric kernels with numba acceleration and pure-numpy fallbacks.

The backend is picked once at import time from the ``PMNET_BACKEND``
environment variable:

* ``auto`` (default): use numba when it imports, numpy otherwise
* ``numba``: require numba, fail loudly if it is missing
* ``numpy``: force the fallback implementations

Both variants stay importable under ``*_numpy`` / ``*_numba`` names so the
test suite and ``benchmarks/bench_backends.py`` can compare them directly.
The unsuffixed names are the active aliases used by the rest of the package.

The random-walk chain consumes pre-drawn proposal increments and log-uniform
draws, so for a fixed seed both backends walk the identical trajectory.
"""

import os

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False

_ENV_FLAG = "PMNET_BACKEND"
_choice = os.environ.get(_ENV_FLAG, "auto").strip().lower()
if _choice not in ("auto", "numba", "numpy"):
    raise ValueError(f"{_ENV_FLAG} must be auto, numba, or numpy (got {_choice!r})")
if _choice == "numba" and not HAVE_NUMBA:
    raise ImportError(f"{_ENV_FLAG}=numba but numba is not installed")

USE_NUMBA = HAVE_NUMBA if _choice == "auto" else _choice == "numba"


def backend() -> str:
    """Name of the active kernel backend ("numba" or "numpy")."""
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# block norms and the group soft-threshold operator


def block_norms_numpy(flat, block_dim):
    return np.sqrt((flat.reshape(-1, block_dim) ** 2).sum(axis=1))


def group_soft_threshold_numpy(flat, block_dim, tau):
    blocks = flat.reshape(-1, block_dim)
    norms = np.sqrt((blocks**2).sum(axis=1))
    scale = np.zeros_like(norms)
    on = norms > tau
    scale[on] = 1.0 - tau / norms[on]
    return (blocks * scale[:, None]).ravel()


def _block_norms_loop(flat, block_dim):
    n_blocks = flat.shape[0] // block_dim
    out = np.empty(n_blocks)
    for t in range(n_blocks):
        acc = 0.0
        for d in range(block_dim):
            v = flat[t * block_dim + d]
            acc += v * v
        out[t] = np.sqrt(acc)
    return out


def _group_soft_threshold_loop(flat, block_dim, tau):
    n_blocks = flat.shape[0] // block_dim
    out = np.zeros_like(flat)
    for t in range(n_blocks):
        acc = 0.0
        for d in range(block_dim):
            v = flat[t * block_dim + d]
            acc += v * v
        norm = np.sqrt(acc)
        if norm > tau:
            scale = 1.0 - tau / norm
            for d in range(block_dim):
                out[t * block_dim + d] = scale * flat[t * block_dim + d]
    return out


# ---------------------------------------------------------------------------
# pairwise feature matrices (scalar feature per pair)


def product_features_numpy(x_rows, u_idx, v_idx):
    return x_rows[:, u_idx] * x_rows[:, v_idx]


def squared_product_features_numpy(x_rows, u_idx, v_idx):
    sq = x_rows * x_rows
    return sq[:, u_idx] * sq[:, v_idx]


def delta_features_numpy(x_rows, u_idx, v_idx):
    return (x_rows[:, u_idx] == x_rows[:, v_idx]).astype(np.float64)


def _product_features_loop(x_rows, u_idx, v_idx):
    n_rows = x_rows.shape[0]
    n_pairs = u_idx.shape[0]
    out = np.empty((n_rows, n_pairs))
    for r in range(n_rows):
        for t in range(n_pairs):
            out[r, t] = x_rows[r, u_idx[t]] * x_rows[r, v_idx[t]]
    return out


def _squared_product_features_loop(x_rows, u_idx, v_idx):
    n_rows = x_rows.shape[0]
    n_pairs = u_idx.shape[0]
    out = np.empty((n_rows, n_pairs))
    for r in range(n_rows):
        for t in range(n_pairs):
            a = x_rows[r, u_idx[t]]
            b = x_rows[r, v_idx[t]]
            out[r, t] = (a * a) * (b * b)  # match the vectorized association order
    return out


def _delta_features_loop(x_rows, u_idx, v_idx):
    n_rows = x_rows.shape[0]
    n_pairs = u_idx.shape[0]
    out = np.empty((n_rows, n_pairs))
    for r in range(n_rows):
        for t in range(n_pairs):
            out[r, t] = 1.0 if x_rows[r, u_idx[t]] == x_rows[r, v_idx[t]] else 0.0
    return out


# ---------------------------------------------------------------------------
# random-walk Metropolis chain for one 4-variable generator block


def _diamond_chain_impl(rho, gauss_coeff, x0, steps, log_u, burn_in, thinning, n_keep):
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


diamond_chain_numpy = _diamond_chain_impl

if HAVE_NUMBA:
    _jit = numba.njit(cache=True)
    block_norms_numba = _jit(_block_norms_loop)
    group_soft_threshold_numba = _jit(_group_soft_threshold_loop)
    product_features_numba = _jit(_product_features_loop)
    squared_product_features_numba = _jit(_squared_product_features_loop)
    delta_features_numba = _jit(_delta_features_loop)
    diamond_chain_numba = _jit(_diamond_chain_impl)
else:  # pragma: no cover - exercised only without numba
    block_norms_numba = None
    group_soft_threshold_numba = None
    product_features_numba = None
    squared_product_features_numba = None
    delta_features_numba = None
    diamond_chain_numba = None

if USE_NUMBA:
    block_norms = block_norms_numba
    group_soft_threshold = group_soft_threshold_numba
    product_features = product_features_numba
    squared_product_features = squared_product_features_numba
    delta_features = delta_features_numba
    diamond_chain = diamond_chain_numba
else:
    block_norms = block_norms_numpy
    group_soft_threshold = group_soft_threshold_numpy
    product_features = product_features_numpy
    squared_product_features = squared_product_features_numpy
    delta_features = delta_features_numpy
    diamond_chain = diamond_chain_numpy
