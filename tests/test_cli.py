import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from pmnet import (
    FeatureMap,
    GeometricSchedule,
    PairPolicy,
    SolverConfig,
    cross_validate,
    build_gaussian_spec,
    diagnostics,
    extract_support,
    lambda_path,
    roc_curve,
    sample_gaussian,
    truth_support,
)
from pmnet import cli
from pmnet.cli import main
from pmnet.model import ModelTerms
from pmnet.pipelines import fit_from_json, load_csv_dataset, path_to_json, truth_to_json

from conftest import make_coded_dataset

GEN_ARGS = [
    "gen", "gaussian", "--m", "8", "--split", "6,2", "--rho", "0.5",
    "--passages", "2", "--eig-rank", "3", "--n", "60", "--seed", "5",
    "--out", "data.csv", "--truth", "truth.json",
]


def run_pipeline(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert main(GEN_ARGS) == 0
    assert main([
        "path", "--data", "data.csv", "--partition", "1-6|7-8",
        "--schedule", "geom:auto,0.6,6", "--out", "path.json",
    ]) == 0
    assert main([
        "fit", "--data", "data.csv", "--partition", "1-6|7-8",
        "--lambda", "0.01", "--out", "fit.json",
    ]) == 0
    assert main(["roc", "--path", "path.json", "--truth", "truth.json", "--out", "roc.csv"]) == 0
    assert main([
        "edges", "--fit", "fit.json", "--format", "csv", "--out", "edges.csv",
    ]) == 0
    assert main(["diag", "--fit", "fit.json", "--data", "data.csv", "--out", "diag.json"]) == 0


def read_all(workdir):
    return {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}


class TestPipelines:
    def test_full_pipeline_and_rerun_bytes(self, tmp_path, monkeypatch):
        d1 = tmp_path / "run1"
        d2 = tmp_path / "run2"
        d1.mkdir()
        d2.mkdir()
        run_pipeline(d1, monkeypatch)
        run_pipeline(d2, monkeypatch)
        files1 = read_all(d1)
        files2 = read_all(d2)
        assert set(files1) == set(files2)
        for name in files1:
            assert files1[name] == files2[name], f"{name} differs between identical runs"
        expected = {
            "data.csv", "truth.json", "path.json", "fit.json", "roc.csv",
            "edges.csv", "diag.json",
        }
        assert expected <= set(files1)
        # every command's primary output carries a replayable manifest
        for base in expected - {"truth.json"}:
            assert base + ".manifest.json" in files1

    def test_manifest_replay_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        first = (tmp_path / "data.csv").read_bytes()
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert main(manifest["argv"]) == 0
        assert (tmp_path / "data.csv").read_bytes() == first

    def test_manifest_does_not_depend_on_the_directory(self, tmp_path, monkeypatch):
        manifests = []
        for name in ("a", "a-much-longer-directory-name"):
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            argv = [str(workdir / arg) if arg in ("data.csv", "truth.json") else arg for arg in GEN_ARGS]
            assert main(argv) == 0
            manifests.append((workdir / "data.csv.manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        payload = json.loads(manifests[1])
        assert "data.csv" in payload["argv"] and payload["outputs"]["data"] == "data.csv"
        # replayed from its directory, the manifest rewrites the same bytes
        first = (workdir / "data.csv").read_bytes()
        (workdir / "data.csv").unlink()
        assert main(payload["argv"]) == 0
        assert (workdir / "data.csv").read_bytes() == first

    def test_manifest_keeps_paths_outside_the_directory(self, tmp_path, monkeypatch):
        inner = tmp_path / "inner"
        inner.mkdir()
        monkeypatch.chdir(inner)
        out = str(tmp_path / "data.csv")
        assert main([*GEN_ARGS[:-4], "--out=" + out]) == 0
        payload = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert payload["argv"][-1] == "--out=" + out
        assert payload["outputs"]["data"] == out

    def test_fit_and_path_json_carry_solver_counters(self, tmp_path, monkeypatch):
        run_pipeline(tmp_path, monkeypatch)
        keys = {"iterations", "scorings", "sweeps", "backtracks", "working_set"}
        fitted = json.loads((tmp_path / "fit.json").read_text())
        assert keys <= set(fitted)
        assert fitted["iterations"] > 0 and fitted["scorings"] > 0 and fitted["working_set"] > 0
        entries = json.loads((tmp_path / "path.json").read_text())["entries"]
        for entry in entries:
            assert keys <= set(entry)
            # every point certified at the default --tol-kkt
            assert entry["converged"] and 0.0 <= entry["kkt_max_residual"] <= 1e-6
        assert entries[0]["iterations"] == 0  # lambda_max: zero is already optimal

    def test_roc_output_shape(self, tmp_path, monkeypatch):
        run_pipeline(tmp_path, monkeypatch)
        lines = (tmp_path / "roc.csv").read_text().splitlines()
        assert lines[0] == "lambda,tnr,tpr,auc"
        assert len(lines) == 7  # header + one row per path point
        aucs = {ln.split(",")[3] for ln in lines[1:]}
        assert len(aucs) == 1  # single summary value repeated per row

    def test_roc_matches_roc_curve(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = build_gaussian_spec(m=8, split=(6, 2), rho=0.5, passage_size=2, eig_rank=3)
        data = sample_gaussian(spec, 60, seed=5)
        truth = truth_support(spec)
        path = lambda_path(data, FeatureMap.product(), GeometricSchedule(factor=0.6, count=8))
        path_to_json(path, data.partition, FeatureMap.product(), "path.json")
        truth_to_json(truth, data.m, "truth.json")
        assert main(["roc", "--path", "path.json", "--truth", "truth.json", "--out", "roc.csv"]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "roc.csv").read_text().splitlines()[1:]]
        curve = roc_curve(path, truth)
        np.testing.assert_array_equal(np.array([r[:3] for r in rows], dtype=float), curve.points)
        assert {float(r[3]) for r in rows} == {curve.auc}

    def test_gen_diamond(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "gen", "diamond", "--blocks", "2", "--burn-in", "300", "--thinning", "3",
            "--n", "50", "--seed", "1", "--out", "d.csv", "--truth", "t.json",
        ]) == 0
        truth = json.loads((tmp_path / "t.json").read_text())
        assert truth["pairs"] == [[0, 1], [4, 5]]
        data = np.loadtxt(tmp_path / "d.csv", delimiter=",")
        assert data.shape == (50, 8)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "diamond", "--rho", "nan"],
            ["gen", "diamond", "--rho", "inf"],
            ["gen", "diamond", "--rho=-5"],
            ["gen", "diamond", "--proposal-std", "nan"],
            ["gen", "diamond", "--proposal-std", "inf"],
            ["gen", "gaussian", "--rho", "nan"],
            ["gen", "gaussian", "--rho=-inf"],
        ],
        ids=lambda argv: " ".join(argv[1:]),
    )
    def test_gen_rejects_improper_parameters(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        argv = argv + ["--n", "20", "--out", "d.csv", "--truth", "t.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("pmnet: error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_cv_fit(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        assert main([
            "fit", "--data", "data.csv", "--partition", "1-6|7-8",
            "--cv", "3", "--out", "cv.json",
        ]) == 0
        payload = json.loads((tmp_path / "cv.json").read_text())
        assert payload["cv_folds"] == 3
        assert payload["lambda"] == payload["cv_lambda"]

    def test_diag_scores_the_fit_on_its_own_pairs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        # 60 rows have 3540 ordered pairs, more than 5 times the cap: the fit
        # samples 500 of them
        assert main([
            "fit", "--data", "data.csv", "--partition", "1-6|7-8", "--lambda", "0.01",
            "--pair-seed", "4", "--pair-cap", "500", "--out", "fit.json",
        ]) == 0
        theta, partition, feature, payload = fit_from_json("fit.json")
        assert (payload["pair_seed"], payload["pair_cap"]) == (4, 500)
        data = load_csv_dataset("data.csv", "1-6|7-8")
        support = sorted(extract_support(theta).active)

        def diag_json(policy):
            rep = diagnostics(theta, data, feature, support, pair_policy=policy)
            return {
                "format_version": 1,
                "support_size": rep.support_size,
                "lambda_min": rep.lambda_min,
                "incoherence_margin": rep.incoherence_margin,
                "degenerate": rep.degenerate,
                "feature_bound_inf": rep.feature_bounds.observed_inf,
                "feature_bound_l2": rep.feature_bounds.observed_l2,
                "ratio_min": rep.ratio_bounds.min,
                "ratio_max": rep.ratio_bounds.max,
            }

        assert main(["diag", "--fit", "fit.json", "--data", "data.csv", "--out", "diag.json"]) == 0
        written = json.loads((tmp_path / "diag.json").read_text())
        assert written == diag_json(PairPolicy(seed=4, cap=500))
        assert written != diag_json(PairPolicy())
        # a fit file without the keys was fitted on the default pairs
        del payload["pair_seed"], payload["pair_cap"]
        (tmp_path / "fit.json").write_text(json.dumps(payload))
        assert main(["diag", "--fit", "fit.json", "--data", "data.csv", "--out", "diag.json"]) == 0
        assert json.loads((tmp_path / "diag.json").read_text()) == diag_json(PairPolicy())

    def test_cv_fit_builds_full_data_terms_once(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        builds = []
        init = ModelTerms.__init__

        def counting_init(self, data, *args, **kwargs):
            builds.append(data.n)
            init(self, data, *args, **kwargs)

        monkeypatch.setattr(ModelTerms, "__init__", counting_init)
        assert main([
            "fit", "--data", "data.csv", "--partition", "1-6|7-8",
            "--cv", "3", "--out", "cv.json",
        ]) == 0
        # one full-data build, then a train and a validation build per fold
        assert builds == [60, 40, 20, 40, 20, 40, 20]


class TestAlign:
    def test_numeric_sequences(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(8)
        base = rng.standard_normal(40)
        (tmp_path / "s1.txt").write_text("\n".join(str(v) for v in base) + "\n")
        (tmp_path / "s2.txt").write_text("\n".join(str(v) for v in base + 0.01 * rng.standard_normal(40)) + "\n")
        assert main([
            "align", "--seq1", "s1.txt", "--seq2", "s2.txt", "--window", "12",
            "--step", "4", "--schedule", "until:3", "--out", "align.json",
        ]) == 0
        payload = json.loads((tmp_path / "align.json").read_text())
        assert payload["alphabet"] == "real"
        assert payload["feature"] == "product"
        assert payload["windows_seq1"] == 8
        assert payload["windows_seq2"] == 8
        # window j of seq2 copies window j of seq1, so matches sit on the diagonal
        top = payload["pairs"][0]
        assert top["window1"] == top["window2"]

    def test_symbol_sequences(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(3)
        letters = "".join(rng.choice(list("ab"), size=30))
        (tmp_path / "s1.txt").write_text(letters + "\n")
        (tmp_path / "s2.txt").write_text(letters[::-1] + "\n")
        assert main([
            "align", "--seq1", "s1.txt", "--seq2", "s2.txt", "--window", "10",
            "--step", "5", "--schedule", "until:2", "--out", "align.json",
        ]) == 0
        payload = json.loads((tmp_path / "align.json").read_text())
        assert payload["alphabet"] == "coded"
        assert payload["feature"] == "kronecker_delta"

    def test_mixed_kinds_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s1.txt").write_text("1.0\n2.0\n3.0\n")
        (tmp_path / "s2.txt").write_text("abc\n")
        rc = main([
            "align", "--seq1", "s1.txt", "--seq2", "s2.txt", "--window", "2",
            "--out", "x.json",
        ])
        assert rc == 2
        assert "pmnet: error" in capsys.readouterr().err


class TestUncertified:
    """Fits without a KKT certificate still write outputs, then exit 3."""

    def _warnings(self, capsys):
        return [ln for ln in capsys.readouterr().err.splitlines() if "not certified" in ln]

    def test_fit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        rc = main([
            "fit", "--data", "data.csv", "--partition", "1-6|7-8",
            "--lambda", "0.01", "--max-iter", "1", "--out", "fit.json",
        ])
        assert rc == 3
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["converged"] is False
        (line,) = self._warnings(capsys)
        assert f"lambda {payload['lambda']!r}" in line
        assert "after 1 iterations" in line
        assert f"max KKT residual {payload['kkt_max_residual']!r}" in line

    def test_cv_fold_fits(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        rc = main([
            "fit", "--data", "data.csv", "--partition", "1-6|7-8",
            "--cv", "3", "--max-iter", "1", "--out", "cv.json",
        ])
        assert rc == 3
        assert (tmp_path / "cv.json").exists()
        data = load_csv_dataset("data.csv", "1-6|7-8")
        cv = cross_validate(data, FeatureMap.product(), folds=3, cfg=SolverConfig(max_iter=1))
        assert cv.uncertified
        lines = [ln for ln in self._warnings(capsys) if "CV fold" in ln]
        assert lines == [
            f"pmnet: warning: CV fold {fold} fit at lambda {lam!r} is not certified after "
            f"{iterations} iterations (max KKT residual {residual!r})"
            for fold, lam, iterations, residual in cv.uncertified
        ]

    def test_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        rc = main([
            "path", "--data", "data.csv", "--partition", "1-6|7-8",
            "--schedule", "geom:auto,0.6,4", "--max-iter", "1", "--out", "path.json",
        ])
        assert rc == 3
        entries = json.loads((tmp_path / "path.json").read_text())["entries"]
        uncertified = [e for e in entries if not e["converged"]]
        assert uncertified
        lines = self._warnings(capsys)
        assert len(lines) == len(uncertified)
        for entry, line in zip(uncertified, lines):
            assert f"lambda {entry['lambda']!r}" in line

    def test_align(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(8)
        base = rng.standard_normal(40)
        (tmp_path / "s1.txt").write_text("\n".join(str(v) for v in base) + "\n")
        (tmp_path / "s2.txt").write_text("\n".join(str(v) for v in base + 0.1 * rng.standard_normal(40)) + "\n")
        rc = main([
            "align", "--seq1", "s1.txt", "--seq2", "s2.txt", "--window", "12",
            "--step", "4", "--schedule", "until:3", "--max-iter", "1", "--out", "align.json",
        ])
        assert rc == 3
        assert (tmp_path / "align.json").exists()
        assert (tmp_path / "align.json.manifest.json").exists()
        assert self._warnings(capsys)


def parse_outcome(parser, argv, capsys):
    """(exit code, stdout, stderr) of parsing ``argv``."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def main_outcome(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)`` when parsing exits."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParser:
    """``main`` parses with one full parser, built once per process; its help
    and errors are those of a fresh ``build_parser()``."""

    @pytest.mark.parametrize(
        "command", ["gen", "gen gaussian", "gen diamond", "fit", "path", "roc", "edges", "align", "diag"]
    )
    def test_one_command_help_matches_the_full_parser(self, command, capsys):
        argv = [*command.split(), "--help"]
        outcome = main_outcome(argv, capsys)
        assert outcome == parse_outcome(cli.build_parser(), argv, capsys)
        assert outcome[0] == 0 and outcome[1].startswith(f"usage: pmnet {command} [-h]")

    @pytest.mark.parametrize("argv", [
        ["fit", "--bogus", "1"], ["roc", "--path"], ["gen"], ["gen", "bogus"], ["diag", "--help"],
    ])
    def test_one_command_errors_match_the_full_parser(self, argv, capsys):
        assert main_outcome(argv, capsys) == parse_outcome(cli.build_parser(), argv, capsys)

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert main(GEN_ARGS) == 0
            main_outcome(["roc", "--help"], capsys)
            main_outcome(["bogus"], capsys)
            assert main(GEN_ARGS) == 0
            assert len(built) == 1
            assert cli._parser() is cli._parser()
        finally:
            cli._parser.cache_clear()

    @pytest.mark.parametrize("argv, code", [([], 2), (["--help"], 0), (["-h"], 0), (["bogus"], 2)])
    def test_no_command_keeps_the_full_parser(self, argv, code, capsys):
        outcome = main_outcome(argv, capsys)
        assert outcome[0] == code
        assert outcome == parse_outcome(cli.build_parser(), argv, capsys)
        text = outcome[1] + outcome[2]
        assert "usage: pmnet [-h] {gen,fit,path,roc,edges,align,diag} ..." in text
        if code == 0:
            commands = ("gen", "fit", "path", "roc", "edges", "align", "diag")
            assert all(f"    {name} " in text for name in commands)
        else:
            assert ("required: command" if not argv else "invalid choice: 'bogus'") in text


class TestErrorPaths:
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_csv(self, tmp_path, monkeypatch, capsys, bad):
        monkeypatch.chdir(tmp_path)
        rows = ["1.0,2.0,3.0", "0.5,0.25,-1.0", f"2.0,{bad},0.0", "1.5,1.0,2.0"]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
        rc = main(["fit", "--data", "data.csv", "--partition", "1-2|3", "--lambda", "0.1", "--out", "f.json"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "row 3, column 2" in err
        assert not (tmp_path / "f.json").exists()

    def test_fit_needs_lambda_or_cv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        rc = main(["fit", "--data", "data.csv", "--partition", "1-6|7-8", "--out", "f.json"])
        assert rc == 2
        assert "--lambda or --cv" in capsys.readouterr().err

    def test_bad_partition(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        rc = main([
            "fit", "--data", "data.csv", "--partition", "1-5|7-8",
            "--lambda", "0.1", "--out", "f.json",
        ])
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["fit", "--data", "nope.csv", "--partition", "1|2", "--lambda", "1", "--out", "f.json"])
        assert rc == 2
        assert "pmnet: error" in capsys.readouterr().err

    def test_diag_rejects_null_fit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        assert main([
            "fit", "--data", "data.csv", "--partition", "1-6|7-8",
            "--lambda", "50", "--out", "null.json",
        ]) == 0
        rc = main(["diag", "--fit", "null.json", "--data", "data.csv", "--out", "d.json"])
        assert rc == 2
        assert "empty support" in capsys.readouterr().err

    def test_degenerate_truth_fails_roc(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run_args = list(GEN_ARGS)
        assert main(run_args) == 0
        assert main([
            "path", "--data", "data.csv", "--partition", "1-6|7-8",
            "--schedule", "geom:auto,0.6,3", "--out", "path.json",
        ]) == 0
        (tmp_path / "empty.json").write_text('{"format_version": 1, "m": 8, "pairs": []}\n')
        rc = main(["roc", "--path", "path.json", "--truth", "empty.json", "--out", "r.csv"])
        assert rc == 2
        assert "undefined" in capsys.readouterr().err

    def test_bad_schedule_string(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        rc = main([
            "path", "--data", "data.csv", "--partition", "1-6|7-8",
            "--schedule", "linear:3", "--out", "p.json",
        ])
        assert rc == 2
        assert "unknown schedule" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["gen", "gaussian", "--split", "40"],
            ["gen", "gaussian", "--split", "a,b"],
            ["path", "--schedule", "geom:auto,x,5"],
            ["path", "--schedule", "geom:1.0,0.5,2.5"],
            ["path", "--schedule", "until:a"],
            ["path", "--schedule", "until:3,x,0.5"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_malformed_flag_values(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        before = sorted(tmp_path.iterdir())
        if flags[0] == "gen":
            argv = flags + ["--n", "20", "--out", "d.csv"]
        else:
            argv = ["path", "--data", "data.csv", "--partition", "1-6|7-8", *flags[1:], "--out", "p.json"]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("pmnet: error: ") and err.count("\n") == 1
        assert repr(flags[-1].partition(":")[2] or flags[-1]) in err  # quotes the bad value
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("path", ["--tol-kkt", "inf"], "tol_kkt must be finite and > 0, got inf"),
            ("path", ["--tol-kkt", "nan"], "tol_kkt must be finite and > 0, got nan"),
            ("fit", ["--lambda", "nan"], "lam must be finite and >= 0, got nan"),
            ("fit", ["--lambda", "inf"], "lam must be finite and >= 0, got inf"),
            ("path", ["--schedule", "geom:nan,0.7,5"], "start must be finite and > 0, got nan"),
            ("path", ["--schedule", "until:15,inf,0.8"], "start must be finite and > 0, got inf"),
        ],
        ids=["tol_kkt_inf", "tol_kkt_nan", "lambda_nan", "lambda_inf", "geom_start_nan", "until_start_inf"],
    )
    def test_non_finite_solver_inputs(self, tmp_path, monkeypatch, capsys, command, flags, message):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        argv = [command, "--data", "data.csv", "--partition", "1-6|7-8", *flags, "--out", "out.json"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"pmnet: error: {message}\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["fit", "path"])
    def test_negative_pair_seed(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        rest = ["--lambda", "0.05"] if command == "fit" else ["--schedule", "geom:auto,0.6,3"]
        rc = main([
            command, "--data", "data.csv", "--partition", "1-6|7-8", *rest,
            "--pair-seed", "-1", "--pair-cap", "1000", "--out", "out.json",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "pmnet: error: pair policy needs seed >= 0, got -1\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_edges_rejects_negative_top(self, tmp_path, monkeypatch, capsys, valid_files):
        monkeypatch.chdir(tmp_path)
        shutil.copy(valid_files / "fit.json", tmp_path / "fit.json")
        rc = main(["edges", "--fit", "fit.json", "--top", "-1", "--format", "csv", "--out", "edges.csv"])
        assert rc == 2
        assert capsys.readouterr().err == "pmnet: error: top needs to be >= 0, got -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fit.json"]

    def test_fit_rejects_lambda_with_cv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(GEN_ARGS) == 0
        rc = main([
            "fit", "--data", "data.csv", "--partition", "1-6|7-8",
            "--lambda", "0.01", "--cv", "3", "--out", "f.json",
        ])
        assert rc == 2
        assert "exactly one of --lambda or --cv" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A fit, a path and a truth file of one small pipeline, by absolute path."""
    d = tmp_path_factory.mktemp("valid")
    gen = [str(d / a) if a in ("data.csv", "truth.json") else a for a in GEN_ARGS]
    assert main(gen) == 0
    assert main([
        "path", "--data", str(d / "data.csv"), "--partition", "1-6|7-8",
        "--schedule", "geom:auto,0.6,3", "--out", str(d / "path.json"),
    ]) == 0
    assert main([
        "fit", "--data", str(d / "data.csv"), "--partition", "1-6|7-8",
        "--lambda", "0.01", "--out", str(d / "fit.json"),
    ]) == 0
    return d


class TestMalformedInputs:
    """Each JSON input that is not a pmnet file exits 2 naming the file."""

    COMMANDS = {
        "edges --fit": ("fit", ["edges", "--fit", "bad.json", "--out", "out.dot"]),
        "diag --fit": ("fit", ["diag", "--fit", "bad.json", "--data", "data.csv", "--out", "out.json"]),
        "roc --path": ("path", ["roc", "--path", "bad.json", "--truth", "truth.json", "--out", "out.csv"]),
        "roc --truth": ("truth", ["roc", "--path", "path.json", "--truth", "bad.json", "--out", "out.csv"]),
    }
    REQUIRED = {"fit": ("theta", "coef"), "path": ("entries", "support"), "truth": ("pairs", None)}

    @pytest.mark.parametrize("case", ["not_json", "array", "missing_key", "entry_missing_key"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exits_2_naming_the_file(self, tmp_path, monkeypatch, capsys, valid_files, command, case):
        monkeypatch.chdir(tmp_path)
        for name in ("data.csv", "truth.json", "path.json", "fit.json"):
            shutil.copy(valid_files / name, tmp_path / name)
        kind, argv = self.COMMANDS[command]
        list_key, entry_key = self.REQUIRED[kind]
        payload = json.loads((tmp_path / f"{kind}.json").read_text())
        if case == "missing_key":
            del payload[list_key]
        elif case == "entry_missing_key" and entry_key:
            del payload[list_key][0][entry_key]
        elif case == "entry_missing_key":  # a truth pair [u, v] loses its second index
            payload[list_key][0] = payload[list_key][0][:1]
        text = {"not_json": "{not json", "array": json.dumps([payload])}.get(case, json.dumps(payload))
        (tmp_path / "bad.json").write_text(text)
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("pmnet: error: bad.json: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("edges --fit", "theta", [{"u": 0, "v": 99, "coef": [0.5]}], "pair (0, 99) is not in the index"),
            ("diag --fit", "theta", [{"u": 3, "v": 1, "coef": [0.5]}], "pair (3, 1) is not in the index"),
            ("edges --fit", "partition", "1-6", "partition spec must contain exactly one '|'"),
            ("roc --path", "entries", [], "path has no entries"),
            ("roc --truth", "pairs", [[0, 99]], "active pairs must lie inside the universe"),
            # json writes these as NaN and Infinity, which Python's json reads
            ("edges --fit", "theta", [{"u": 0, "v": 6, "coef": [float("nan")]}],
             "pair (0, 6) must have 1 finite coefficient(s), got [nan]"),
            ("edges --fit", "theta", [{"u": 0, "v": 6, "coef": [float("inf")]}],
             "pair (0, 6) must have 1 finite coefficient(s), got [inf]"),
            ("diag --fit", "theta", [{"u": 0, "v": 6, "coef": [float("nan")]}],
             "pair (0, 6) must have 1 finite coefficient(s), got [nan]"),
            ("diag --fit", "theta", [{"u": 0, "v": 6, "coef": [float("inf")]}],
             "pair (0, 6) must have 1 finite coefficient(s), got [inf]"),
        ],
        ids=["pair_outside_index", "reversed_pair", "bad_partition", "no_entries", "truth_pair_outside",
             "edges_nan_coef", "edges_inf_coef", "diag_nan_coef", "diag_inf_coef"],
    )
    def test_decoding_errors_name_the_file(self, tmp_path, monkeypatch, capsys, valid_files,
                                           command, key, value, message):
        monkeypatch.chdir(tmp_path)
        for name in ("data.csv", "truth.json", "path.json", "fit.json"):
            shutil.copy(valid_files / name, tmp_path / name)
        kind, argv = self.COMMANDS[command]
        payload = json.loads((tmp_path / f"{kind}.json").read_text())
        payload[key] = value
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        assert capsys.readouterr().err == f"pmnet: error: bad.json: {message}\n"
        assert sorted(tmp_path.iterdir()) == before


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestDiagStrictJson:
    """diag.json is strict JSON: an undefined margin, or a ratio bound past
    the float64 range, is written as null."""

    def test_degenerate_margin_is_null(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        x = np.random.default_rng(0).standard_normal((30, 3))
        np.savetxt("twin.csv", np.column_stack([x, x[:, 2]]), delimiter=",")  # columns 3 and 4 equal
        theta = [{"u": 0, "v": 2, "coef": [0.1]}, {"u": 0, "v": 3, "coef": [0.1]}]
        Path("fit.json").write_text(json.dumps(
            {"m": 4, "partition": "1-2|3-4", "feature": "product", "theta": theta}
        ))
        assert main(["diag", "--fit", "fit.json", "--data", "twin.csv", "--out", "diag.json"]) == 0
        report = json.loads(Path("diag.json").read_text(), parse_constant=reject_constant)
        assert report["degenerate"] is True
        assert report["incoherence_margin"] is None
        assert report["ratio_max"] > 0.0

    def test_overflowing_ratio_bound_is_null(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # every data row scores 100 v^2, far above any permuted pair's 100 v_j v_k
        v = np.arange(1.0, 11.0)
        np.savetxt("peak.csv", np.column_stack([v, np.zeros(10), v]), delimiter=",")
        Path("fit.json").write_text(json.dumps(
            {"m": 3, "partition": "1-2|3", "feature": "product", "theta": [{"u": 0, "v": 2, "coef": [100.0]}]}
        ))
        assert main(["diag", "--fit", "fit.json", "--data", "peak.csv", "--out", "diag.json"]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(Path("diag.json").read_text(), parse_constant=reject_constant)
        assert report["ratio_max"] is None
        assert report["ratio_min"] >= 0.0


class TestCodedDiag:
    """``pmnet diag`` loads the data of a fit on coded data as coded data."""

    def write_delta_fit(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        codes = make_coded_dataset(40, 3, 2, categories=3, seed=9).samples.copy()
        np.savetxt("coded.csv", codes, fmt="%d", delimiter=",")
        assert main([
            "fit", "--data", "coded.csv", "--partition", "1-3|4-5", "--feature", "delta",
            "--categories", "3", "--lambda", "0.001", "--out", "fit.json",
        ]) == 0
        assert json.loads(Path("fit.json").read_text())["categories"] == 3
        return codes

    def test_diag_on_the_fitted_codes(self, tmp_path, monkeypatch):
        self.write_delta_fit(tmp_path, monkeypatch)
        assert main(["diag", "--fit", "fit.json", "--data", "coded.csv", "--out", "diag.json"]) == 0

    @pytest.mark.parametrize("cell", [3.0, 0.5])
    def test_diag_rejects_codes_outside_the_fit(self, tmp_path, monkeypatch, capsys, cell):
        codes = self.write_delta_fit(tmp_path, monkeypatch)
        codes[4, 1] = cell
        np.savetxt("bad.csv", codes, delimiter=",")
        rc = main(["diag", "--fit", "fit.json", "--data", "bad.csv", "--out", "diag.json"])
        assert rc == 2
        assert "categorical" in capsys.readouterr().err
