"""Acceptance gate: numbered end-to-end checks with pinned tolerances.

Each test prints one [PASS]/[FAIL] line (visible under ``pytest -s``) and
asserts the same condition, so the suite is both a report and a gate.
"""

import time
from pathlib import Path

import numpy as np

from pmnet import (
    DiamondSpec,
    FeatureMap,
    GeometricSchedule,
    McmcConfig,
    PairPolicy,
    ParamBlocks,
    build_gaussian_spec,
    build_pair_index,
    diamond_truth_support,
    extract_support,
    fit,
    lambda_max,
    lambda_path,
    roc_curve,
    sample_diamond,
    sample_gaussian,
    tpr_tnr,
    truth_support,
)
from pmnet.cli import main as cli_main
from pmnet.core import permuted_pair
from pmnet.model import gradient, normalizer_hat, ratio_hat
from pmnet.solver import group_soft_threshold
from pmnet.synth import finite_difference_gradient, normalizer_enumeration_oracle

from conftest import make_coded_dataset, make_dataset

ALL_ORDERED = PairPolicy(kind="all_ordered")


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def random_instance(rng, kind, n_lo, n_hi, theta_scale):
    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(rng.integers(3, 7))
    m1 = int(rng.integers(1, m))
    if kind == 2:
        data = make_coded_dataset(n, m1, m - m1, categories=3, seed=int(rng.integers(1 << 30)))
        f = FeatureMap.kronecker_delta(3)
    else:
        data = make_dataset(n, m1, m - m1, seed=int(rng.integers(1 << 30)))
        f = FeatureMap.product() if kind == 0 else FeatureMap.squared_product()
    index = build_pair_index(data.m)
    theta = ParamBlocks(theta_scale * rng.standard_normal(index.dim), index)
    return data, f, theta


def test_criterion_1_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        data, f, theta = random_instance(rng, i % 3, 3, 10, theta_scale=0.3)
        analytic = gradient(theta, data, f)
        numeric = finite_difference_gradient(theta, data, f)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-9)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(1, "gradient vs central differences", ok,
           f"50 instances, worst rel err {worst:.2e} (<=1e-5), {elapsed:.2f}s (<10s)")
    assert worst <= 1e-5
    assert elapsed < 10.0


def test_criterion_2_normalizer_matches_enumeration_oracle():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        data, f, theta = random_instance(rng, i % 3, 3, 20, theta_scale=0.2)
        hat = normalizer_hat(theta, data, f, pair_policy=ALL_ORDERED).value
        oracle = normalizer_enumeration_oracle(theta, data, f)
        worst = max(worst, abs(hat - oracle) / abs(oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(2, "normalizer vs enumeration oracle", ok,
           f"100 instances, worst rel err {worst:.2e} (<=1e-12), {elapsed:.2f}s (<5s)")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_3_ratio_self_normalizes():
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(10):
        data, f, theta = random_instance(rng, i % 3, 6, 12, theta_scale=0.3)
        norm = normalizer_hat(theta, data, f, pair_policy=ALL_ORDERED)
        vals = [
            ratio_hat(theta, permuted_pair(data, j, k).value, norm, f)
            for j in range(data.n)
            for k in range(data.n)
            if j != k
        ]
        worst = max(worst, abs(np.mean(vals) - 1.0))
    ok = worst <= 1e-12
    report(3, "self-normalization of the fitted ratio", ok,
           f"10 instances, worst |mean g_hat - 1| = {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_criterion_4_prox_matches_grid_search():
    # the minimizer of 0.5||x-v||^2 + tau||x|| is colinear with v, and along
    # that ray the objective is a unit-curvature quadratic, so a dense grid
    # on the ray localizes it to one grid step
    rng = np.random.default_rng(404)
    worst_cross = 0.0  # colinearity defect of the prox output
    worst_dev = 0.0  # distance to the ray-grid minimizer, in grid steps
    worst_excess = -np.inf  # prox objective minus grid-best objective
    for _ in range(100):
        v = rng.standard_normal(2) * rng.uniform(0.2, 3.0)
        r = float(np.linalg.norm(v))
        tau = rng.uniform(0.0, 1.5) * r
        out = group_soft_threshold(v, tau, block_dim=2)

        worst_cross = max(worst_cross, abs(out[0] * v[1] - out[1] * v[0]) / r**2)
        s = np.linspace(0.0, r, 4001)
        step = s[1] - s[0]
        obj = 0.5 * (s - r) ** 2 + tau * s
        s_best = s[int(np.argmin(obj))]
        worst_dev = max(worst_dev, abs(float(np.linalg.norm(out)) - s_best) / step)
        prox_obj = 0.5 * np.sum((out - v) ** 2) + tau * np.linalg.norm(out)
        worst_excess = max(worst_excess, float(prox_obj - obj.min()))
    ok = worst_cross <= 1e-12 and worst_dev <= 1.0 and worst_excess <= 1e-12
    report(4, "group soft-threshold vs grid search", ok,
           f"100 blocks, colinearity defect {worst_cross:.2e} (<=1e-12), "
           f"worst deviation {worst_dev:.3f} grid steps (<=1), "
           f"objective excess {worst_excess:.2e} (<=1e-12)")
    assert worst_cross <= 1e-12
    assert worst_dev <= 1.0
    assert worst_excess <= 1e-12


def kkt_recheck(result, data, f, lam):
    """Re-derive the optimality conditions from the public gradient."""
    theta = result.theta_hat
    g = gradient(theta, data, f)
    worst_zero = 0.0
    worst_active = 0.0
    zeros = actives = 0
    for pair in theta.index.pairs:
        sl = theta.index.slice_of(pair)
        tb = np.asarray(theta.flat[sl])
        gb = np.asarray(g[sl])
        if np.linalg.norm(tb) == 0.0:
            zeros += 1
            worst_zero = max(worst_zero, float(np.linalg.norm(gb)) - lam)
        else:
            actives += 1
            resid = np.linalg.norm(gb + lam * tb / np.linalg.norm(tb))
            worst_active = max(worst_active, float(resid))
    return worst_zero, worst_active, zeros, actives


def test_criterion_5_kkt_certification_on_fixture_suite():
    fixtures = []
    gauss = sample_gaussian(
        build_gaussian_spec(m=8, split=(6, 2), rho=0.5, passage_size=2, eig_rank=3),
        150, seed=2,
    )
    for frac in (0.5, 0.2, 0.08):
        fixtures.append((gauss, FeatureMap.product(), frac))
    fixtures.append((gauss, FeatureMap.squared_product(), 0.3))
    coded = make_coded_dataset(120, 4, 2, categories=3, seed=5)
    for frac in (0.5, 0.15):
        fixtures.append((coded, FeatureMap.kronecker_delta(3), frac))
    diamond = sample_diamond(
        DiamondSpec(blocks=2, mcmc=McmcConfig(burn_in=1000, thinning=10, seed=4)), 150
    )
    fixtures.append((diamond, FeatureMap.squared_product(), 0.3))

    worst_zero = -np.inf
    worst_active = 0.0
    total_zero = total_active = 0
    all_converged = True
    for data, f, frac in fixtures:
        lam = frac * lambda_max(data, f)
        result = fit(data, f, lam)
        all_converged = all_converged and result.converged
        wz, wa, nz, na = kkt_recheck(result, data, f, lam)
        worst_zero = max(worst_zero, wz)
        worst_active = max(worst_active, wa)
        total_zero += nz
        total_active += na
    # the suite must exercise both sides of the condition
    two_sided = total_zero > 0 and total_active > 0
    ok = all_converged and two_sided and worst_zero <= 1e-6 and worst_active <= 1e-6
    report(5, "independent KKT re-check", ok,
           f"{len(fixtures)} fits (converged={all_converged}), "
           f"zero-block excess {worst_zero:.2e} (<=1e-6), "
           f"active residual {worst_active:.2e} (<=1e-6)")
    assert all_converged
    assert two_sided
    assert worst_zero <= 1e-6
    assert worst_active <= 1e-6


def test_criterion_6_desk_scale_support_recovery():
    f = FeatureMap.product()
    spec = build_gaussian_spec(m=20, split=(15, 5), rho=0.6, passage_size=5, eig_rank=7)
    data = sample_gaussian(spec, 400, seed=11)
    truth = truth_support(spec)

    t0 = time.perf_counter()
    path = lambda_path(
        data, f, GeometricSchedule(factor=0.9, count=25), pair_policy=ALL_ORDERED
    )
    elapsed = time.perf_counter() - t0
    curve = roc_curve(path, truth)
    good = 0
    for entry in path.entries:
        rep = tpr_tnr(extract_support(entry.fit.theta_hat), truth)
        if rep.tpr >= 0.9 and rep.tnr >= 0.9:
            good += 1
    ok = good > 0 and curve.auc >= 0.90 and elapsed < 60.0
    report(6, "desk-scale recovery", ok,
           f"rho=0.6: {good} path points with TPR,TNR>=0.9, AUC={curve.auc:.4f} (>=0.90), "
           f"{elapsed:.1f}s (<60s)")
    assert good > 0
    assert curve.auc >= 0.90
    assert elapsed < 60.0

    # robustness to rho: a denser grid, default pair policy, both endpoints
    aucs = {}
    for rho in (0.5, 0.8):
        spec_r = build_gaussian_spec(m=20, split=(15, 5), rho=rho, passage_size=5, eig_rank=7)
        data_r = sample_gaussian(spec_r, 400, seed=11)
        path_r = lambda_path(data_r, f, GeometricSchedule(factor=0.85, count=25))
        aucs[rho] = roc_curve(path_r, truth_support(spec_r)).auc
    ok2 = aucs[0.8] >= aucs[0.5] - 0.05
    report(6, "recovery stable as rho grows", ok2,
           f"AUC(rho=0.8)={aucs[0.8]:.4f} >= AUC(rho=0.5)-0.05={aucs[0.5] - 0.05:.4f}")
    assert aucs[0.8] >= aucs[0.5] - 0.05


def test_criterion_7_diamond_model_recovery():
    t0 = time.perf_counter()
    spec = DiamondSpec(blocks=3, rho=1.0)
    data = sample_diamond(spec, 400)
    truth = diamond_truth_support(spec)
    path = lambda_path(
        data, FeatureMap.squared_product(), GeometricSchedule(factor=0.85, count=25)
    )
    curve = roc_curve(path, truth)
    elapsed = time.perf_counter() - t0
    ok = curve.auc >= 0.8 and elapsed < 120.0
    report(7, "non-Gaussian diamond recovery", ok,
           f"3 blocks, n=400: AUC={curve.auc:.4f} (>=0.8), {elapsed:.1f}s (<120s)")
    assert curve.auc >= 0.8
    assert elapsed < 120.0


def test_criterion_8_error_shrinks_with_sample_size():
    f = FeatureMap.product()
    spec = build_gaussian_spec(m=8, split=(6, 2), rho=0.5, passage_size=2, eig_rank=3)
    logm = np.log(spec.m)
    c = 0.2

    ref = sample_gaussian(spec, 100_000, seed=999)
    theta_star = np.array(fit(ref, f, c * np.sqrt(logm / ref.n)).theta_hat.flat)

    medians = []
    for n in (250, 500, 1000, 2000):
        errs = []
        for seed in range(5):
            data = sample_gaussian(spec, n, seed=seed)
            r = fit(data, f, c * np.sqrt(logm / n))
            errs.append(float(np.linalg.norm(np.array(r.theta_hat.flat) - theta_star)))
        medians.append(float(np.median(errs)))
    ok = all(b <= a for a, b in zip(medians, medians[1:]))
    pretty = ", ".join(f"{m:.3f}" for m in medians)
    report(8, "estimation error non-increasing in n", ok,
           f"median ||theta_hat - theta*|| over 5 seeds at n=250,500,1000,2000: {pretty}")
    assert ok


def run_cli_pipeline(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    steps = [
        ["gen", "gaussian", "--m", "8", "--split", "6,2", "--rho", "0.5",
         "--passages", "2", "--eig-rank", "3", "--n", "80", "--seed", "3",
         "--out", "data.csv", "--truth", "truth.json"],
        ["path", "--data", "data.csv", "--partition", "1-6|7-8",
         "--schedule", "geom:auto,0.7,8", "--out", "path.json"],
        ["fit", "--data", "data.csv", "--partition", "1-6|7-8",
         "--lambda", "0.05", "--out", "fit.json"],
        ["roc", "--path", "path.json", "--truth", "truth.json", "--out", "roc.csv"],
        ["edges", "--fit", "fit.json", "--format", "dot", "--out", "edges.dot"],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"pipeline step failed: {argv}"


def test_criterion_9_cli_pipelines_are_deterministic(tmp_path, monkeypatch):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    run_cli_pipeline(d1, monkeypatch)
    run_cli_pipeline(d2, monkeypatch)
    files1 = {p.name: p.read_bytes() for p in sorted(Path(d1).iterdir())}
    files2 = {p.name: p.read_bytes() for p in sorted(Path(d2).iterdir())}
    same_names = set(files1) == set(files2)
    diffs = [name for name in files1 if files1.get(name) != files2.get(name)]
    ok = same_names and not diffs
    report(9, "seeded CLI pipeline determinism", ok,
           f"{len(files1)} files from gen->path->fit->roc->edges, "
           f"{'all byte-identical' if ok else 'diffs: ' + ', '.join(diffs)}")
    assert same_names
    assert not diffs
