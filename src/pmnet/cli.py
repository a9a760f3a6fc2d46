"""Command-line pipelines: generate, fit, trace paths, score, export.

Every command returns its exit code, inputs and outputs; ``main`` then
writes a ``.manifest.json`` next to its primary output capturing its argv,
paths under the working directory relative to it, so reruns (and manifest
replays from that directory) are byte-identical.  Errors, malformed flag
values and malformed input files included, exit 2 with a one-line reason on
stderr and write no manifest.  ``fit``, ``path`` and ``align`` still write
their outputs when a fit lacks a KKT certificate, then name each such fit on
stderr and exit 3.
"""

import argparse
import functools
import math
import sys

import numpy as np

from .errors import ConfigError, ParseError, PmnetError
from .model import ModelTerms, PairPolicy, diagnostics
from .pipelines import (
    RunManifest,
    SequencePairConfig,
    export_edges,
    feature_by_name,
    fit_from_json,
    fit_to_json,
    load_csv_dataset,
    partition_spec_string,
    path_to_json,
    read_json,
    relative_to_cwd,
    save_csv_dataset,
    truth_from_json,
    truth_to_json,
    window_sequences,
    write_json,
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


def _fields(text: str, kinds, usage: str) -> list:
    """The comma-separated fields of ``text``, one per converter in ``kinds``."""
    parts = text.split(",")
    try:
        if len(parts) == len(kinds):
            return [kind(part) for kind, part in zip(kinds, parts)]
    except ValueError:
        pass
    raise ParseError(f"{usage}; got {text!r}")


def _start(text: str):
    return None if text in ("", "auto") else float(text)


def _parse_schedule(text: str):
    """"geom[:start,factor,count]" or "until[:cap_k[,start,factor]]"."""
    name, _, rest = text.partition(":")
    if name == "geom":
        if not rest:
            return GeometricSchedule()
        start, factor, count = _fields(rest, (_start, float, int), "geom schedule takes start,factor,count")
        return GeometricSchedule(start=start, factor=factor, count=count)
    if name == "until":
        if not rest:
            return UntilSupportSchedule()
        usage = "until schedule takes cap_k or cap_k,start,factor"
        if "," not in rest:
            return UntilSupportSchedule(cap_k=_fields(rest, (int,), usage)[0])
        cap_k, start, factor = _fields(rest, (int, float, float), usage)
        return UntilSupportSchedule(cap_k=cap_k, start=start, factor=factor)
    raise ParseError(f"unknown schedule {text!r}; use geom:... or until:...")


def _pair_policy(fields: dict) -> PairPolicy:
    """The policy of ``pair_seed`` and ``pair_cap`` (flags or fit JSON keys), defaults where absent."""
    seed, cap = fields.get("pair_seed", PairPolicy.seed), fields.get("pair_cap", PairPolicy.cap)
    return PairPolicy(seed=seed, cap=cap)


def _report_uncertified(fits, cv_fits=()) -> int:
    """One stderr line per fit, and per CV fold fit (``CvResult.uncertified``),
    without a KKT certificate; exit 3 if any."""
    bad = [("", res.lam, res.iterations, res.kkt.max_residual) for res in fits if not res.converged]
    bad += [(f"CV fold {fold} ", *rest) for fold, *rest in cv_fits]
    for where, lam, iterations, residual in bad:
        print(
            f"pmnet: warning: {where}fit at lambda {lam!r} is not certified after "
            f"{iterations} iterations (max KKT residual {residual!r})",
            file=sys.stderr,
        )
    return 3 if bad else 0


def _cmd_gen(args):
    if args.family == "gaussian":
        split = _fields(args.split, (int, int), "--split takes the group sizes m1,m2")
        spec = build_gaussian_spec(
            m=args.m, split=tuple(split), rho=args.rho, passage_size=args.passages, eig_rank=args.eig_rank
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
    return 0, {}, outputs


def _load_for_fit(args):
    data = load_csv_dataset(args.data, args.partition, categories=args.categories)
    return data, feature_by_name(args.feature, args.categories)


def _cmd_fit(args):
    if (args.lam is None) == (not args.cv):
        raise ConfigError("fit needs exactly one of --lambda or --cv")
    data, feature = _load_for_fit(args)
    cfg = SolverConfig(max_iter=args.max_iter, tol_kkt=args.tol_kkt)
    policy = _pair_policy(vars(args))
    terms = ModelTerms(data, feature, pair_policy=policy)
    lam = args.lam
    # diag scores the fit on the same permuted pairs
    extras = {"pair_seed": policy.seed, "pair_cap": policy.cap}
    cv_uncertified = ()
    if args.cv:
        cv = cross_validate(
            data, feature, folds=args.cv, cfg=cfg, seed=args.seed, pair_policy=policy, terms=terms
        )
        lam, cv_uncertified = cv.best_lambda, cv.uncertified
        extras["cv_folds"] = args.cv
        extras["cv_lambda"] = lam
    result = fit(data, feature, lam, cfg=cfg, terms=terms)
    fit_to_json(result, data.partition, feature, args.out, extras=extras)
    return _report_uncertified([result], cv_uncertified), {"data": args.data}, {"fit": args.out}


def _walk_path(args, data, feature):
    """``lambda_path`` on the solver flags (checked first) and schedule of ``path`` and ``align``."""
    cfg = SolverConfig(max_iter=args.max_iter, tol_kkt=args.tol_kkt)
    return lambda_path(data, feature, _parse_schedule(args.schedule), cfg=cfg, pair_policy=_pair_policy(vars(args)))


def _cmd_path(args):
    data, feature = _load_for_fit(args)
    result = _walk_path(args, data, feature)
    path_to_json(result, data.partition, feature, args.out)
    return _report_uncertified(e.fit for e in result.entries), {"data": args.data}, {"path": args.out}


def _cmd_roc(args):
    def decode(payload):
        entries = [(e["lambda"], {(u, v) for u, v in e["support"]}) for e in payload["entries"]]
        if not entries:
            raise ParseError("path has no entries")
        return entries

    entries = read_json(args.path, decode)
    truth = truth_from_json(args.truth)

    # operating points come straight from the serialized supports
    universe = set(truth.universe)
    rows = []
    for lam, support in entries:
        if not support <= universe:
            raise ParseError(f"{args.path}: support contains pairs outside the truth universe")
        rep = tpr_tnr(SupportSet(frozenset(support), truth.universe), truth)
        rows.append((lam, rep.tnr, rep.tpr))

    _, auc = envelope_and_auc(np.array([r[1] for r in rows]), np.array([r[2] for r in rows]))
    if np.isnan(auc):
        raise ConfigError("degenerate truth support; TPR or TNR is undefined")

    lines = ["lambda,tnr,tpr,auc"]
    for lam, tnr, tpr in rows:
        lines.append(f"{lam!r},{tnr!r},{tpr!r},{auc!r}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0, {"path": args.path, "truth": args.truth}, {"roc": args.out}


def _cmd_edges(args):
    theta, partition, _, _ = fit_from_json(args.fit)
    scope = "all" if args.scope == "all" else "cross_group_only"
    edges = cross_group_edges(theta, partition, scope=scope, top=args.top)
    export_edges(edges, args.format, args.out)
    return 0, {"fit": args.fit}, {"edges": args.out}


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


def _cmd_align(args):
    seq1, kind1 = _read_sequence(args.seq1)
    seq2, kind2 = _read_sequence(args.seq2)
    if kind1 != kind2:
        raise ParseError("sequences must both be numeric or both be symbolic")
    cfg = SequencePairConfig(window=args.window, step=args.step, alphabet=kind1)
    data = window_sequences(seq1, seq2, cfg)
    feature_name = args.feature or ("delta" if kind1 == "coded" else "product")
    feature = feature_by_name(feature_name, data.categories)
    result = _walk_path(args, data, feature)
    last = result.entries[-1]
    m1 = len(data.partition.group1)
    edges = cross_group_edges(last.fit.theta_hat, data.partition, scope="cross_group_only")
    payload = {
        "format_version": 1,
        "window": args.window,
        "step": args.step,
        "alphabet": kind1,
        "feature": feature.kind,
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
    write_json(payload, args.out)
    return (
        _report_uncertified(e.fit for e in result.entries),
        {"seq1": args.seq1, "seq2": args.seq2},
        {"align": args.out},
    )


def _cmd_diag(args):
    theta, partition, feature, payload = fit_from_json(args.fit)
    # a feature with a category count (delta fitted with one, or table) was fitted on coded data
    data = load_csv_dataset(args.data, payload["partition"], categories=feature.categories)
    support = extract_support(theta)
    if support.size == 0:
        raise ConfigError("fitted model has empty support; nothing to diagnose")
    # scored on the fit's own pairs
    report = diagnostics(theta, data, feature, sorted(support.active), pair_policy=_pair_policy(payload))

    def number(x):  # strict JSON: an undefined margin or an overflowed bound is null
        return x if math.isfinite(x) else None

    write_json({
        "format_version": 1,
        "support_size": report.support_size,
        "lambda_min": report.lambda_min,
        "incoherence_margin": number(report.incoherence_margin),
        "degenerate": report.degenerate,
        "feature_bound_inf": report.feature_bounds.observed_inf,
        "feature_bound_l2": report.feature_bounds.observed_l2,
        "ratio_min": number(report.ratio_bounds.min),
        "ratio_max": number(report.ratio_bounds.max),
    }, args.out)
    return 0, {"fit": args.fit, "data": args.data}, {"diag": args.out}


def _add_solver_flags(p):
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--tol-kkt", type=float, default=SolverConfig.tol_kkt)
    p.add_argument("--pair-seed", type=int, default=PairPolicy.seed,
                   help="seed for the sampled permuted pairs, drawn when n(n-1) > 5 x cap")
    p.add_argument("--pair-cap", type=int, default=PairPolicy.cap,
                   help="every ordered pair is used while n(n-1) <= 5 x cap, else cap sampled pairs "
                        "(default: every pair up to n = 447, 40,000 from n = 448)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, every command in it."""
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
    dg.set_defaults(func=_cmd_diag)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    try:
        code, inputs, outputs = args.func(args)
        manifest = RunManifest(
            command=args.command if args.command != "gen" else f"gen {args.family}",
            argv=[relative_to_cwd(arg) for arg in argv],
            seed=getattr(args, "seed", None),
            inputs={key: relative_to_cwd(path) for key, path in inputs.items()},
            outputs={key: relative_to_cwd(path) for key, path in outputs.items()},
        )
        write_manifest(manifest, args.out)
    except (PmnetError, OSError) as exc:
        print(f"pmnet: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
