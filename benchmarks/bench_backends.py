"""Time the numpy kernels against their numba counterparts.

Shapes mirror the desk-scale recovery runs: n=400 samples, m=50 columns.
Run from the repo root:

    python3 benchmarks/bench_backends.py [--repeats 5]
"""

import argparse
import timeit

import numpy as np

from pmnet import _kernels as K


def build_cases(rng):
    m = 50
    n_pairs = m * (m - 1) // 2
    flat = rng.standard_normal(n_pairs)
    x_rows = rng.standard_normal((400, m))
    codes = rng.integers(0, 4, size=(400, m)).astype(np.float64)
    u, v = np.triu_indices(m, k=1)
    u = u.astype(np.int64)
    v = v.astype(np.int64)

    total = 25_000
    steps = 0.5 * rng.standard_normal((total, 4))
    log_u = np.log(rng.uniform(size=total))
    x0 = np.zeros(4)

    return [
        ("block_norms", (flat, 1)),
        ("group_soft_threshold", (flat, 1, 0.05)),
        ("product_features", (x_rows, u, v)),
        ("squared_product_features", (x_rows, u, v)),
        ("delta_features", (codes, u, v)),
        ("diamond_chain", (1.0, 1.0, x0, steps, log_u, 5_000, 50, 400)),
    ]


def best_of(fn, args, repeats):
    timer = timeit.Timer(lambda: fn(*args))
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=repeats, number=number)) / number


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    cases = build_cases(rng)

    print(f"numba available: {K.HAVE_NUMBA}; active backend: {K.backend()}")
    header = f"{'kernel':28s} {'numpy':>12s} {'numba':>12s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for name, call_args in cases:
        fn_np = getattr(K, name + "_numpy")
        t_np = best_of(fn_np, call_args, args.repeats)
        if K.HAVE_NUMBA:
            fn_nb = getattr(K, name + "_numba")
            fn_nb(*call_args)  # compile outside the timing
            t_nb = best_of(fn_nb, call_args, args.repeats)
            print(f"{name:28s} {t_np * 1e3:10.3f}ms {t_nb * 1e3:10.3f}ms {t_np / t_nb:7.2f}x")
        else:
            print(f"{name:28s} {t_np * 1e3:10.3f}ms {'-':>12s} {'-':>8s}")


if __name__ == "__main__":
    main()
