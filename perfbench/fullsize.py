"""Check the traced evaluation counts of the full-size criterion-6 path.

    python3 perfbench/fullsize.py

The benchmark's gauss_path_exact workload is a smaller cut of this problem so
that a run fits its time budget.  This script runs the full one once, traced:
m=20 split 15/5, rho 0.6, n=400 at data seed 11, every ordered pair, and a
25-point geometric path from lambda_max by 0.9.  The baseline recorded in
ROADMAP.md is 993 value_grad and 888 value calls; the script prints the traced
counts and exits 1 when they differ.  It takes about a minute on a 2-vCPU
machine.
"""

import json
import sys

from run import import_pmnet

EXPECTED = {"model.value_grad_calls": 993, "model.value_calls": 888}


def main() -> int:
    import_pmnet()
    from pmnet import core, model, solver, synth
    from tracing import Tracer, unit_totals, with_ratios

    spec = synth.build_gaussian_spec(m=20, split=(15, 5), rho=0.6, passage_size=5, eig_rank=7)
    data = synth.sample_gaussian(spec, 400, seed=11)
    tracer = Tracer()
    tracer.install()
    try:
        solver.lambda_path(data, core.FeatureMap.product(), solver.GeometricSchedule(factor=0.9, count=25),
                           pair_policy=model.PairPolicy("all_ordered"))
    finally:
        tracer.uninstall()
    metrics = with_ratios(unit_totals(tracer.spans, 0, tracer.mark()))
    print(json.dumps(metrics, indent=1, sort_keys=True))
    wrong = {k: (metrics[k], v) for k, v in EXPECTED.items() if metrics[k] != v}
    for key, (got, want) in wrong.items():
        print(f"fullsize: {key} is {got}, expected {want}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
