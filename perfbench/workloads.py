"""The benchmark's seeded workloads: inputs, one closed-loop unit, output checks.

Each workload turns the run seed into ``INSTANCES`` independent inputs
(one data seed each, drawn from ``SeedSequence(seed)``), so a run averages
over several problems instead of timing one draw.  ``prepare`` makes the
inputs (this is the set-up that ``setup_s`` times); ``run`` processes one
input and returns an ``Outcome`` that says whether its output passed the
checks.  Every call into pmnet goes through a module attribute (``cli.main``,
``solver.lambda_path``) so the tracer's patches see it.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from pmnet import cli, core, model, solver, structure, synth


@dataclass
class Outcome:
    """One unit's checked result.  ``digest`` fingerprints the output so
    repeated units on one input can be compared byte for byte."""

    score: float = float("nan")
    points: int = 0
    certified: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _cli(argv) -> int:
    """Exit code of one ``pmnet`` command run in this process."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def _check_certified(out: Outcome):
    if out.certified != out.points:
        out.problems.append(f"{out.points - out.certified} of {out.points} path points uncertified")


class GaussPathExact:
    """Criterion-6 Gaussian generator, every ordered pair and the 25-point
    path by 0.9, through the Python API.  Cut to m=8 and n=200 so that 12
    inputs fit one run; still tall and narrow (39,800 x 28), so objective
    evaluation does most of the work.  fullsize.py runs the full problem."""

    name = "gauss_path_exact"
    SCORE = "auc"
    INSTANCES = 12
    M, SPLIT, RHO, PASSAGE, EIG_RANK = 8, (6, 2), 0.6, 2, 3
    N = 200
    MIN_SCORE = 0.90

    def prepare(self, seed: int, workdir: str) -> list:
        spec = synth.build_gaussian_spec(
            m=self.M, split=self.SPLIT, rho=self.RHO,
            passage_size=self.PASSAGE, eig_rank=self.EIG_RANK,
        )
        truth = synth.truth_support(spec)
        return [(synth.sample_gaussian(spec, self.N, seed=s), truth)
                for s in instance_seeds(seed, self.INSTANCES)]

    def run(self, inputs, outdir: str) -> Outcome:
        data, truth = inputs
        path = solver.lambda_path(
            data, core.FeatureMap.product(), solver.GeometricSchedule(factor=0.9, count=25),
            pair_policy=model.PairPolicy("all_ordered"),
        )
        curve = structure.roc_curve(path, truth)
        fits = [(e.lam, e.fit.objective, sorted(e.fit.theta_hat.nonzero_pairs())) for e in path.entries]
        out = Outcome(
            score=curve.auc,
            points=len(path.entries),
            certified=sum(bool(e.fit.converged) for e in path.entries),
            digest=_digest(repr(fits).encode()),
        )
        _check_certified(out)
        return out


class DiamondSqCli:
    """Criterion-7 diamond data through ``pmnet gen``, ``path --feature sq``
    and ``roc``: non-Gaussian data from a Metropolis sampler that is most of
    the set-up, the most solver iterations per fit, CSV/JSON I/O.  Two blocks
    rather than three, so 8 inputs fit one run; at this size one evaluation
    costs about as much as on gauss_path_exact."""

    name = "diamond_sq_cli"
    SCORE = "auc"
    INSTANCES = 8
    BLOCKS, N = 2, 400
    PARTITION = "1,5|2-4,6-8"
    SCHEDULE = "geom:auto,0.85,25"
    MIN_SCORE = 0.80

    def prepare(self, seed: int, workdir: str) -> list:
        dirs = []
        for i, s in enumerate(instance_seeds(seed, self.INSTANCES)):
            d = os.path.join(workdir, f"diamond{i}")
            os.makedirs(d)
            rc = _cli(["gen", "diamond", "--blocks", self.BLOCKS, "--n", self.N, "--seed", s,
                       "--out", os.path.join(d, "data.csv"), "--truth", os.path.join(d, "truth.json")])
            if rc != 0:
                raise RuntimeError(f"pmnet gen diamond exited {rc}")
            dirs.append(d)
        return dirs

    def run(self, inputs, outdir: str) -> Outcome:
        path_json = os.path.join(outdir, "path.json")
        roc_csv = os.path.join(outdir, "roc.csv")
        out = Outcome()
        rc = _cli(["path", "--data", os.path.join(inputs, "data.csv"), "--partition", self.PARTITION,
                   "--feature", "sq", "--schedule", self.SCHEDULE, "--out", path_json])
        if rc == 0:
            rc = _cli(["roc", "--path", path_json, "--truth", os.path.join(inputs, "truth.json"),
                       "--out", roc_csv])
        if rc != 0:
            out.problems.append(f"pmnet exited {rc}")
            return out
        with open(path_json, "rb") as fh:
            path_bytes = fh.read()
        with open(roc_csv, "rb") as fh:
            roc_bytes = fh.read()
        entries = json.loads(path_bytes)["entries"]
        out.points = len(entries)
        out.certified = sum(bool(e["converged"]) for e in entries)
        out.score = float(roc_bytes.decode().strip().splitlines()[-1].split(",")[-1])
        out.digest = _digest(path_bytes, roc_bytes)
        _check_certified(out)
        return out


class AlignWideCli:
    """``pmnet align`` on two numeric sequences sharing a signal at a planted
    shift: short and wide (30 window rows, 16,471 window-pair columns).

    The noise level was chosen to keep a known defect out of the timed runs:
    at noise 0.05 about one input in a hundred needs a third until:15 fit
    that does not certify within 2000 iterations, while ``pmnet align``
    still exits 0.  At noise 0.3 none of the inputs tried failed.  The
    defect stays checked by defects.py, which runs a seeded input that
    shows it.
    """

    name = "align_wide_cli"
    SCORE = "align_hits"
    INSTANCES = 10
    LENGTH, SHIFT, WINDOW, NOISE = 120, 7, 30, 0.3
    MIN_SCORE = 0.9

    def prepare(self, seed: int, workdir: str) -> list:
        dirs = []
        for i, s in enumerate(instance_seeds(seed, self.INSTANCES)):
            rng = np.random.default_rng(s)
            signal = rng.standard_normal(self.LENGTH)
            # seq2 lags seq1 by SHIFT, so window j of seq1 matches window j + SHIFT of seq2
            lagged = np.concatenate([rng.standard_normal(self.SHIFT), signal[: self.LENGTH - self.SHIFT]])
            lagged += self.NOISE * rng.standard_normal(self.LENGTH)
            d = os.path.join(workdir, f"align{i}")
            os.makedirs(d)
            for name, seq in (("seq1.txt", signal), ("seq2.txt", lagged)):
                with open(os.path.join(d, name), "w") as fh:
                    fh.write("".join(f"{float(v)!r}\n" for v in seq))
            dirs.append(d)
        return dirs

    def run(self, inputs, outdir: str) -> Outcome:
        align_json = os.path.join(outdir, "align.json")
        # align writes no certificate, so read it from the path result
        paths = []
        lambda_path = cli.lambda_path

        def probe(*args, **kwargs):
            paths.append(lambda_path(*args, **kwargs))
            return paths[-1]

        cli.lambda_path = probe
        try:
            rc = _cli(["align", "--seq1", os.path.join(inputs, "seq1.txt"),
                       "--seq2", os.path.join(inputs, "seq2.txt"),
                       "--window", self.WINDOW, "--out", align_json])
        finally:
            cli.lambda_path = lambda_path
        out = Outcome()
        if rc != 0:
            out.problems.append(f"pmnet exited {rc}")
            return out
        with open(align_json, "rb") as fh:
            align_bytes = fh.read()
        pairs = json.loads(align_bytes)["pairs"]
        entries = paths[-1].entries
        out.points = len(entries)
        out.certified = sum(bool(e.fit.converged) for e in entries)
        hits = sum(p["window2"] - p["window1"] == self.SHIFT for p in pairs)
        out.score = hits / len(pairs) if pairs else 0.0
        out.digest = _digest(align_bytes)
        _check_certified(out)
        return out


WORKLOADS = {w.name: w for w in (GaussPathExact(), DiamondSqCli(), AlignWideCli())}
