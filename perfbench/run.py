"""Seeded end-to-end benchmark for pmnet, with a traced per-layer mode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gauss_path_exact --seed 11 --seconds 25 --trace 0

Workloads (see workloads.py): gauss_path_exact, diamond_sq_cli and
align_wide_cli.  The seed makes the inputs, and the same seed gives the same
inputs.  Seed 11 is the default; seed 1009 is held out, and a later
performance claim must also hold on it.

One process runs a closed loop, one unit after another with no concurrency,
for about ``--seconds``: every input once, then repeats while another unit
still fits in the time.  BLAS uses as many threads as the process has cores.

End-to-end metrics (``--trace 0``):

* ``wall_s``: one pass over the run's inputs, from inputs ready to outputs
  written and checked; the sum of each input's median unit time.
* ``setup_s``: process start to inputs ready (interpreter, ``import pmnet``,
  input generation), the median of fresh processes.
* ``peak_rss_mb``: peak resident memory of the benchmark process.
* ``recovery``: mean over inputs of the ROC AUC against the planted support
  (path workloads) or of the share of reported window pairs at the planted
  shift (align).  Below the workload's gate, the whole run fails.
* ``certified_frac``: path points whose KKT certificate held, over all.
* ``passed_frac``: units that neither raised, exited nonzero nor failed a
  check, over all.  Unit outputs must be byte-identical across repeats and
  across runs of the same code and seed.  A check on the whole run (the
  recovery gate, agreement with earlier runs, repeatable traced counts)
  that fails counts every unit as failed.

The lines before the JSON result also give these by their plain names
(``auc`` or ``align_hits``, ``uncertified_frac``, ``failed_frac``) and the
environment.  ``--trace 1`` alternates untraced and traced units and reports
per-layer metrics (tracing.py) for one set-up plus one pass over the inputs,
and ``trace.overhead``, the traced over the untraced pass time minus one.
Results, and in traced runs the spans, go to ``.perfbench_out/``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))
# cap BLAS threads at the cores this process may use, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

DEFAULT_SEED = 11
SETUP_SAMPLES = 3
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def import_pmnet():
    """Import pmnet from this checkout's src/, as the tier-1 tests do."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pmnet", "__init__.py")):
        raise ImportError(f"no pmnet package under {src}")
    sys.path.insert(0, src)
    import pmnet

    if not os.path.abspath(pmnet.__file__).startswith(src + os.sep):
        raise ImportError(f"pmnet resolved to {pmnet.__file__}, not this checkout")
    return pmnet


def environment(pmnet) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo") as fh:
        mem_kb = int(fh.readline().split()[1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "mem_total_mb": mem_kb // 1024,
        "pmnet_backend": pmnet.backend(),
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to inputs ready, in fresh interpreters.

    The first process only warms the file cache and is not counted.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-child"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process for {workload} failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples[1:]


class Loop:
    """Closed loop over the inputs: each input once, then repeats while time remains."""

    def __init__(self, workload, inputs, workdir, tracer=None):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = tracer
        self.times = [[] for _ in inputs]
        self.traced_times = [[] for _ in inputs]
        self.traced_totals = [[] for _ in inputs]
        self.outcomes = []  # (input index, Outcome)

    def _unit(self, k: int, traced: bool):
        from workloads import Outcome

        outdir = tempfile.mkdtemp(dir=self.workdir)
        mark = self.tracer.mark() if traced else 0
        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            outcome = self.workload.run(self.inputs[k], outdir)
        except Exception as exc:  # a crashing unit is a failed unit, not a crashed run
            outcome = Outcome(problems=[f"{type(exc).__name__}: {exc}"])
        elapsed = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
            from tracing import unit_totals

            self.traced_times[k].append(elapsed)
            self.traced_totals[k].append(unit_totals(self.tracer.spans, mark, self.tracer.mark()))
        else:
            self.times[k].append(elapsed)
        shutil.rmtree(outdir)
        self.outcomes.append((k, outcome))
        return elapsed

    def run(self, seconds: float):
        modes = (False, True) if self.tracer else (False,)
        start = time.perf_counter()
        last = {}
        rounds = 0
        while True:
            for k in range(len(self.inputs)):
                if rounds and time.perf_counter() - start + sum(last[k].values()) > seconds:
                    return
                last[k] = {mode: self._unit(k, mode) for mode in modes}
            rounds += 1


def summarize(loop: Loop) -> dict:
    """Output checks, determinism across repeats, and recovery per input."""
    first = {}
    failed = 0
    problems = []
    for k, out in loop.outcomes:
        ref = first.setdefault(k, out)
        if out.ok and ref.ok and out.digest != ref.digest:
            out.problems.append("output differs from the first run on this input")
        if not out.ok:
            failed += 1
            problems.append(f"input {k}: " + "; ".join(out.problems))
    points = sum(out.points for _, out in loop.outcomes)
    certified = sum(out.certified for _, out in loop.outcomes)
    return {
        "attempted": len(loop.outcomes),
        "failed": failed,
        "problems": problems,
        "points": points,
        "certified": certified,
        # an undefined score (a crashed unit, a degenerate ROC) recovered nothing
        "recovery": statistics.fmean(0.0 if math.isnan(first[k].score) else first[k].score
                                     for k in sorted(first)),
        "digests": [first[k].digest for k in sorted(first)],
    }


def compare_with_earlier(workload: str, seed: int, record: dict) -> list[str]:
    """Check outputs and counts against an earlier run of the same code and seed.

    The code is identified by a hash of pmnet's and the benchmark's sources;
    the record of the latest run is kept in the output directory.
    """
    code = hashlib.sha256()
    for pattern in ("src/pmnet/*.py", "perfbench/*.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path, "rb") as fh:
                code.update(fh.read())
    store = os.path.join(OUT_DIR, f"record-{workload}-seed{seed}.json")
    try:
        with open(store) as fh:
            earlier = json.load(fh)
    except (OSError, ValueError):
        earlier = {}
    known = earlier.get("record", {}) if earlier.get("code") == code.hexdigest() else {}
    problems = [f"{key} differ from an earlier run of the same code and seed"
                for key, value in record.items() if key in known and known[key] != value]
    with open(store, "w") as fh:
        json.dump({"code": code.hexdigest(), "record": {**known, **record}}, fh, sort_keys=True)
    return problems


def pass_time(times) -> float:
    """One pass over the inputs: the sum of each input's median unit time."""
    return sum(statistics.median(t) for t in times)


def traced_metrics(loop: Loop, setup_totals: dict) -> tuple[dict, list]:
    from tracing import DETERMINISTIC, with_ratios

    mismatches = []
    totals = dict(setup_totals)
    for k, reps in enumerate(loop.traced_totals):
        for key in DETERMINISTIC:
            if any(rep[key] != reps[0][key] for rep in reps):
                mismatches.append(f"input {k}: {key} differs between traced repeats")
        for key in totals:
            totals[key] += statistics.median(rep[key] for rep in reps)
    metrics = with_ratios(totals)
    metrics["trace.overhead"] = pass_time(loop.traced_times) / pass_time(loop.times) - 1.0
    return metrics, mismatches


def declared_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark for pmnet.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        pmnet = import_pmnet()
    except ImportError as exc:
        print(f"perfbench: cannot import pmnet: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_child:
            workload.prepare(args.seed, workdir)
            print("ready", flush=True)
            return 0
        return run(args, pmnet, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, pmnet, workload, workdir) -> int:
    from tracing import DETERMINISTIC, Tracer, unit_totals

    units = declared_units()
    env = environment(pmnet)
    print(json.dumps({"environment": env}, sort_keys=True))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            inputs = workload.prepare(args.seed, workdir)
        finally:
            tracer.uninstall()
        setup_totals = unit_totals(tracer.spans, 0, tracer.mark())
    else:
        setup = measure_setup(args.workload, args.seed)
        inputs = workload.prepare(args.seed, workdir)

    loop = Loop(workload, inputs, workdir, tracer)
    loop.run(args.seconds)
    checks = summarize(loop)
    problems = checks["problems"]
    failed = checks["failed"]
    # the checks below judge the run as a whole, so a failure fails every unit
    run_problems = []
    if not checks["recovery"] >= workload.MIN_SCORE:
        run_problems.append(f"mean {workload.SCORE} {checks['recovery']:.4f} below {workload.MIN_SCORE}")
    record = {"digests": checks["digests"]}
    if args.trace:
        metrics, mismatches = traced_metrics(loop, setup_totals)
        run_problems += mismatches
        record["counts"] = {key: metrics[key] for key in DETERMINISTIC}
    run_problems += compare_with_earlier(args.workload, args.seed, record)
    if run_problems:
        problems += run_problems
        failed = checks["attempted"]

    if args.trace:
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "wall_s": pass_time(loop.times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "recovery": checks["recovery"],
            "certified_frac": checks["certified"] / max(checks["points"], 1),
            "passed_frac": 1.0 - failed / checks["attempted"],
        }
        # a healthy run has no uncertified or failed units, and a reported
        # metric is never zero, so the JSON line carries the complements
        named = {
            workload.SCORE: checks["recovery"],
            "uncertified_frac": 1.0 - metrics["certified_frac"],
            "failed_frac": failed / checks["attempted"],
        }
        for name, value in named.items():
            print(f"{name} {value!r} 1")

    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": checks["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = dict(result, environment=env, workload=args.workload, seed=args.seed,
                  trace=args.trace, problems=problems,
                  unit_times=loop.traced_times if args.trace else loop.times)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
