"""Command-line pipelines: generate, fit, trace paths, score, export.

Every command writes its primary output plus a ``.manifest.json`` capturing
the exact argv, so reruns (and manifest replays) are byte-identical.
Errors exit 2 with a one-line reason on stderr.  ``fit``, ``path`` and
``align`` still write their outputs when a fit lacks a KKT certificate, then
name each such fit on stderr and exit 3.
"""

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError, ParseError, PmnetError
from .model import ModelTerms, PairPolicy, diagnostics
from .pipelines import (
    RunManifest,
    SequencePairConfig,
    canonical_feature_name,
    export_edges,
    feature_by_name,
    fit_from_json,
    fit_to_json,
    load_csv_dataset,
    partition_spec_string,
    path_to_json,
    save_csv_dataset,
    truth_from_json,
    truth_to_json,
    window_sequences,
    write_manifest,
)
from .solver import (
    GeometricSchedule,
    SolverConfig,
    UntilSupportSchedule,
    cross_validate,
    fit,
    lambda_path,
)
from .structure import (
    SupportSet,
    cross_group_edges,
    envelope_and_auc,
    extract_support,
    tpr_tnr,
)
from .synth import (
    DiamondSpec,
    McmcConfig,
    build_gaussian_spec,
    diamond_truth_support,
    sample_diamond,
    sample_gaussian,
    truth_support,
)


def _parse_schedule(text: str):
    """"geom[:start,factor,count]" or "until[:cap_k[,start,factor]]"."""
    name, _, rest = text.partition(":")
    if name == "geom":
        if not rest:
            return GeometricSchedule()
        parts = rest.split(",")
        if len(parts) != 3:
            raise ParseError("geom schedule takes start,factor,count")
        start = None if parts[0] in ("", "auto") else float(parts[0])
        return GeometricSchedule(start=start, factor=float(parts[1]), count=int(parts[2]))
    if name == "until":
        if not rest:
            return UntilSupportSchedule()
        parts = rest.split(",")
        if len(parts) == 1:
            return UntilSupportSchedule(cap_k=int(parts[0]))
        if len(parts) == 3:
            return UntilSupportSchedule(cap_k=int(parts[0]), start=float(parts[1]), factor=float(parts[2]))
        raise ParseError("until schedule takes cap_k or cap_k,start,factor")
    raise ParseError(f"unknown schedule {text!r}; use geom:... or until:...")


def _policy_from_args(args) -> PairPolicy:
    return PairPolicy(seed=args.pair_seed, cap=args.pair_cap)


def _manifest(args, argv, inputs, outputs) -> RunManifest:
    return RunManifest(
        command=args.command if args.command != "gen" else f"gen {args.family}",
        argv=list(argv),
        seed=getattr(args, "seed", None),
        inputs=inputs,
        outputs=outputs,
    )


def _report_uncertified(fits) -> int:
    """One stderr line per fit without a KKT certificate; exit 3 if any."""
    bad = [res for res in fits if not res.converged]
    for res in bad:
        print(
            f"pmnet: warning: fit at lambda {res.lam!r} is not certified after "
            f"{res.iterations} iterations (max KKT residual {res.kkt.max_residual!r})",
            file=sys.stderr,
        )
    return 3 if bad else 0


def _cmd_gen(args, argv):
    if args.family == "gaussian":
        m1, m2 = (int(x) for x in args.split.split(","))
        spec = build_gaussian_spec(
            m=args.m, split=(m1, m2), rho=args.rho, passage_size=args.passages, eig_rank=args.eig_rank
        )
        data = sample_gaussian(spec, args.n, seed=args.seed)
        truth = truth_support(spec, cross_only=not args.all_edges)
        extras = {"rho": args.rho, "family": "gaussian"}
    else:
        spec = DiamondSpec(
            blocks=args.blocks,
            rho=args.rho,
            mcmc=McmcConfig(
                burn_in=args.burn_in,
                thinning=args.thinning,
                proposal_std=args.proposal_std,
                seed=args.seed,
            ),
        )
        data = sample_diamond(spec, args.n)
        truth = diamond_truth_support(spec, cross_only=not args.all_edges)
        extras = {"rho": args.rho, "family": "diamond"}

    save_csv_dataset(data, args.out)
    outputs = {"data": args.out}
    if args.truth:
        extras["partition"] = partition_spec_string(data.partition)
        truth_to_json(truth, data.m, args.truth, extras=extras)
        outputs["truth"] = args.truth
    write_manifest(_manifest(args, argv, {}, outputs), args.out)
    return 0


def _load_for_fit(args):
    categories = getattr(args, "categories", None)
    domain = "categorical" if categories else "continuous"
    data = load_csv_dataset(args.data, args.partition, domain_tag=domain, categories=categories)
    feature = feature_by_name(args.feature, categories)
    return data, feature


def _cmd_fit(args, argv):
    data, feature = _load_for_fit(args)
    cfg = SolverConfig(max_iter=args.max_iter, tol_rel_obj=args.tol_obj, tol_kkt=args.tol_kkt)
    if not args.cv and args.lam is None:
        raise ConfigError("fit needs --lambda or --cv")
    policy = _policy_from_args(args)
    terms = ModelTerms(data, feature, pair_policy=policy)
    lam = args.lam
    extras = {}
    if args.cv:
        cv = cross_validate(
            data, feature, folds=args.cv, cfg=cfg, seed=args.seed, pair_policy=policy, terms=terms
        )
        lam = cv.best_lambda
        extras["cv_folds"] = args.cv
        extras["cv_lambda"] = lam
    result = fit(data, feature, lam, cfg=cfg, terms=terms)
    fit_to_json(result, data.partition, feature, args.out, extras=extras)
    write_manifest(_manifest(args, argv, {"data": args.data}, {"fit": args.out}), args.out)
    return _report_uncertified([result])


def _cmd_path(args, argv):
    data, feature = _load_for_fit(args)
    cfg = SolverConfig(max_iter=args.max_iter, tol_rel_obj=args.tol_obj, tol_kkt=args.tol_kkt)
    schedule = _parse_schedule(args.schedule)
    result = lambda_path(data, feature, schedule, cfg=cfg, pair_policy=_policy_from_args(args))
    path_to_json(result, data.partition, feature, args.out)
    write_manifest(_manifest(args, argv, {"data": args.data}, {"path": args.out}), args.out)
    return _report_uncertified(e.fit for e in result.entries)


def _cmd_roc(args, argv):
    with open(args.path) as fh:
        payload = json.load(fh)
    truth = truth_from_json(args.truth)

    # operating points come straight from the serialized supports
    universe = set(truth.universe)
    rows = []
    for entry in payload["entries"]:
        support = {tuple(p) for p in entry["support"]}
        if not support <= universe:
            raise ParseError("path support contains pairs outside the truth universe")
        rep = tpr_tnr(SupportSet(frozenset(support), truth.universe), truth)
        rows.append((entry["lambda"], rep.tnr, rep.tpr))

    _, auc = envelope_and_auc(np.array([r[1] for r in rows]), np.array([r[2] for r in rows]))
    if np.isnan(auc):
        raise ConfigError("degenerate truth support; TPR or TNR is undefined")

    lines = ["lambda,tnr,tpr,auc"]
    for lam, tnr, tpr in rows:
        lines.append(f"{lam!r},{tnr!r},{tpr!r},{auc!r}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    write_manifest(
        _manifest(args, argv, {"path": args.path, "truth": args.truth}, {"roc": args.out}),
        args.out,
    )
    return 0


def _cmd_edges(args, argv):
    theta, partition, _, _ = fit_from_json(args.fit)
    scope = "all" if args.scope == "all" else "cross_group_only"
    edges = cross_group_edges(theta, partition, scope=scope, top=args.top)
    export_edges(edges, args.format, args.out)
    write_manifest(_manifest(args, argv, {"fit": args.fit}, {"edges": args.out}), args.out)
    return 0


def _read_sequence(path: str):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty sequence file")
    if len(lines) == 1 and not _is_number(lines[0]):
        return list(lines[0]), "coded"
    if all(_is_number(ln) for ln in lines):
        return [float(ln) for ln in lines], "real"
    if all(len(ln) == 1 for ln in lines):
        return lines, "coded"
    raise ParseError(f"{path}: mix of numeric and symbolic lines")


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _cmd_align(args, argv):
    seq1, kind1 = _read_sequence(args.seq1)
    seq2, kind2 = _read_sequence(args.seq2)
    if kind1 != kind2:
        raise ParseError("sequences must both be numeric or both be symbolic")
    cfg = SequencePairConfig(window=args.window, step=args.step, alphabet=kind1)
    data = window_sequences(seq1, seq2, cfg)
    feature_name = args.feature or ("delta" if kind1 == "coded" else "product")
    feature = feature_by_name(feature_name, data.categories)
    solver_cfg = SolverConfig(max_iter=args.max_iter, tol_rel_obj=args.tol_obj, tol_kkt=args.tol_kkt)
    schedule = _parse_schedule(args.schedule)
    result = lambda_path(data, feature, schedule, cfg=solver_cfg, pair_policy=_policy_from_args(args))
    last = result.entries[-1]
    m1 = len(data.partition.group1)
    edges = cross_group_edges(last.fit.theta_hat, data.partition, scope="cross_group_only")
    payload = {
        "format_version": 1,
        "window": args.window,
        "step": args.step,
        "alphabet": kind1,
        "feature": canonical_feature_name(feature),
        "windows_seq1": m1,
        "windows_seq2": data.m - m1,
        "lambda_final": last.lam,
        "support_size": last.support_size,
        "stop_reason": result.stop_reason,
        "pairs": [
            {
                "window1": e.u,
                "window2": e.v - m1,
                "weight": e.weight,
                "sign": e.sign,
            }
            for e in edges.edges
        ],
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(
        _manifest(args, argv, {"seq1": args.seq1, "seq2": args.seq2}, {"align": args.out}),
        args.out,
    )
    return _report_uncertified(e.fit for e in result.entries)


def _cmd_diag(args, argv):
    theta, partition, feature, payload = fit_from_json(args.fit)
    # a feature with a category count (delta fitted with one, or table) was fitted on coded data
    categories = feature.categories
    domain = "categorical" if categories else "continuous"
    data = load_csv_dataset(args.data, payload["partition"], domain_tag=domain, categories=categories)
    support = extract_support(theta)
    if support.size == 0:
        raise ConfigError("fitted model has empty support; nothing to diagnose")
    report = diagnostics(
        theta, data, feature, sorted(support.active), pair_policy=_policy_from_args(args)
    )
    out_payload = {
        "format_version": 1,
        "support_size": report.support_size,
        "lambda_min": report.lambda_min,
        "incoherence_margin": report.incoherence_margin,
        "degenerate": report.degenerate,
        "feature_bound_inf": report.feature_bounds.observed_inf,
        "feature_bound_l2": report.feature_bounds.observed_l2,
        "ratio_min": report.ratio_bounds.min,
        "ratio_max": report.ratio_bounds.max,
    }
    with open(args.out, "w") as fh:
        json.dump(out_payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_manifest(
        _manifest(args, argv, {"fit": args.fit, "data": args.data}, {"diag": args.out}),
        args.out,
    )
    return 0


def _add_solver_flags(p):
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--tol-obj", type=float, default=1e-8)
    p.add_argument("--tol-kkt", type=float, default=1e-6)
    _add_pair_flags(p)


def _add_pair_flags(p):
    p.add_argument("--pair-seed", type=int, default=0, help="seed for permuted-pair subsampling")
    p.add_argument("--pair-cap", type=int, default=40_000, help="max permuted pairs kept")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmnet",
        description="Learn sparse cross-group structure in partitioned Markov networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a synthetic dataset with known structure")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    gg = gen_sub.add_parser("gaussian", help="planted-passage Gaussian data")
    gg.add_argument("--m", type=int, default=50)
    gg.add_argument("--split", default="40,10", help="group sizes m1,m2")
    gg.add_argument("--rho", type=float, default=0.8)
    gg.add_argument("--passages", type=int, default=10)
    gg.add_argument("--eig-rank", type=int, default=15)
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--seed", type=int, default=0)
    gg.add_argument("--out", required=True)
    gg.add_argument("--truth", help="also write the planted support as JSON")
    gg.add_argument("--all-edges", action="store_true", help="truth keeps within-group pairs too")
    gg.set_defaults(func=_cmd_gen)

    gd = gen_sub.add_parser("diamond", help="non-Gaussian blocks sampled by Metropolis")
    gd.add_argument("--blocks", type=int, default=13)
    gd.add_argument("--rho", type=float, default=1.0)
    gd.add_argument("--burn-in", type=int, default=5000)
    gd.add_argument("--thinning", type=int, default=50)
    gd.add_argument("--proposal-std", type=float, default=0.5)
    gd.add_argument("--n", type=int, required=True)
    gd.add_argument("--seed", type=int, default=0)
    gd.add_argument("--out", required=True)
    gd.add_argument("--truth", help="also write the planted support as JSON")
    gd.add_argument("--all-edges", action="store_true")
    gd.set_defaults(func=_cmd_gen)

    ft = sub.add_parser("fit", help="one penalized fit (fixed lambda or CV)")
    ft.add_argument("--data", required=True)
    ft.add_argument("--partition", required=True, help="e.g. 1-40|41-50 or name lists")
    ft.add_argument("--feature", default="product", help="product, sq, or delta")
    ft.add_argument("--categories", type=int, help="category count for coded data")
    ft.add_argument("--lambda", dest="lam", type=float)
    ft.add_argument("--cv", type=int, help="choose lambda by K-fold cross-validation")
    ft.add_argument("--seed", type=int, default=0)
    ft.add_argument("--out", required=True)
    _add_solver_flags(ft)
    ft.set_defaults(func=_cmd_fit)

    pt = sub.add_parser("path", help="warm-started fits along a penalty schedule")
    pt.add_argument("--data", required=True)
    pt.add_argument("--partition", required=True)
    pt.add_argument("--feature", default="product")
    pt.add_argument("--categories", type=int)
    pt.add_argument("--schedule", default="geom", help="geom:start,factor,count or until:cap_k")
    pt.add_argument("--out", required=True)
    _add_solver_flags(pt)
    pt.set_defaults(func=_cmd_path)

    rc = sub.add_parser("roc", help="score a path against a known support")
    rc.add_argument("--path", required=True)
    rc.add_argument("--truth", required=True)
    rc.add_argument("--out", required=True)
    rc.set_defaults(func=_cmd_roc)

    ed = sub.add_parser("edges", help="export ranked edges from a fitted model")
    ed.add_argument("--fit", required=True)
    ed.add_argument("--top", type=int)
    ed.add_argument("--scope", choices=["cross", "all"], default="cross")
    ed.add_argument("--format", choices=["dot", "json", "csv"], default="dot")
    ed.add_argument("--out", required=True)
    ed.set_defaults(func=_cmd_edges)

    al = sub.add_parser("align", help="align two sequences through windowed structure")
    al.add_argument("--seq1", required=True)
    al.add_argument("--seq2", required=True)
    al.add_argument("--window", type=int, required=True)
    al.add_argument("--step", type=int, default=1)
    al.add_argument("--feature", help="defaults to product (numeric) or delta (symbols)")
    al.add_argument("--schedule", default="until:15")
    al.add_argument("--out", required=True)
    _add_solver_flags(al)
    al.set_defaults(func=_cmd_align)

    dg = sub.add_parser("diag", help="recovery-condition diagnostics at a fitted model")
    dg.add_argument("--fit", required=True)
    dg.add_argument("--data", required=True)
    dg.add_argument("--out", required=True)
    _add_pair_flags(dg)
    dg.set_defaults(func=_cmd_diag)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except PmnetError as exc:
        print(f"pmnet: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pmnet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
