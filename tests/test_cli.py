import json
from pathlib import Path

import numpy as np
import pytest

from pmnet import (
    FeatureMap,
    GeometricSchedule,
    build_gaussian_spec,
    lambda_path,
    roc_curve,
    sample_gaussian,
    truth_support,
)
from pmnet.cli import main
from pmnet.model import ModelTerms
from pmnet.pipelines import path_to_json, truth_to_json

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
