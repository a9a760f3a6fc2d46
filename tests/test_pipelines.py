import json

import numpy as np
import pytest

from pmnet import (
    ConfigError,
    Dataset,
    DomainError,
    FeatureMap,
    PairPolicy,
    ParamBlocks,
    ParseError,
    Partition,
    build_pair_index,
    cross_group_edges,
    fit,
    lambda_max,
)
from pmnet.pipelines import (
    RunManifest,
    SequencePairConfig,
    build_vote_dataset,
    encode_symbols,
    export_edges,
    feature_by_name,
    fit_from_json,
    fit_to_json,
    load_csv_dataset,
    parse_partition_spec,
    partition_spec_string,
    path_to_json,
    save_csv_dataset,
    truth_from_json,
    truth_to_json,
    window_count,
    window_sequences,
    write_manifest,
)
from pmnet.core import pair_feature_matrix

from conftest import make_coded_dataset, make_dataset


class TestFeatureNames:
    def test_mapping(self):
        assert feature_by_name("product").kind == "product"
        assert feature_by_name("sq").kind == "squared_product"
        assert feature_by_name("squared_product").kind == "squared_product"
        assert feature_by_name("delta").kind == "kronecker_delta"
        assert feature_by_name("delta", categories=4).categories == 4

    def test_unknown(self):
        with pytest.raises(ParseError):
            feature_by_name("cubic")

    def test_canonical_roundtrip(self):
        for name in ("product", "squared_product", "kronecker_delta"):
            assert feature_by_name(name).kind == name


class TestPartitionGrammar:
    def test_ranges(self):
        p = parse_partition_spec("1-40|41-50", 50)
        assert p.group1 == tuple(range(40))
        assert p.group2 == tuple(range(40, 50))

    def test_lists_and_mixed(self):
        p = parse_partition_spec("1,3|2,4-5", 5)
        assert p.group1 == (0, 2)
        assert p.group2 == (1, 3, 4)

    def test_header_names(self):
        p = parse_partition_spec("a,c|b", 3, headers=["a", "b", "c"])
        assert p.group1 == (0, 2)
        assert p.group2 == (1,)

    def test_errors(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_partition_spec("1-2", 4)
        with pytest.raises(ParseError, match="overlap"):
            parse_partition_spec("1-3|3-4", 4)
        with pytest.raises(ParseError, match="missing"):
            parse_partition_spec("1-2|4", 4)
        with pytest.raises(ParseError, match="outside"):
            parse_partition_spec("1-9|10", 4)
        with pytest.raises(ParseError, match="header"):
            parse_partition_spec("a|b", 2)
        with pytest.raises(ParseError):
            parse_partition_spec("1,,2|3", 3)

    def test_spec_string_roundtrip(self):
        for spec, m in (("1-40|41-50", 50), ("1,3|2,4-5", 5), ("2-3|1,4", 4)):
            p = parse_partition_spec(spec, m)
            assert parse_partition_spec(partition_spec_string(p), m) == p


class TestCsvDatasets:
    def test_roundtrip_full_precision(self, tmp_path):
        data = make_dataset(9, 2, 3, seed=61)
        path = tmp_path / "d.csv"
        save_csv_dataset(data, str(path))
        back = load_csv_dataset(str(path), "1-2|3-5")
        np.testing.assert_array_equal(back.samples, data.samples)

    def test_header_rows(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y,z\n1,2,3\n4,5,6\n")
        data = load_csv_dataset(str(path), "x|y,z")
        assert data.m == 3
        assert data.partition.group1 == (0,)

    def test_error_locations(self, tmp_path):
        ragged = tmp_path / "r.csv"
        ragged.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv_dataset(str(ragged), "1|2")
        bad = tmp_path / "b.csv"
        bad.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match=r"line 2, column 2"):
            load_csv_dataset(str(bad), "1|2")
        empty = tmp_path / "e.csv"
        empty.write_text("\n")
        with pytest.raises(ParseError, match="empty"):
            load_csv_dataset(str(empty), "1|2")


class TestVotes:
    def votes(self):
        return np.array([[1, -1, 0, 1], [-1, 1, 1, -1], [1, 1, -1, 0]])

    def test_regroups_by_party(self):
        ids = ["s1", "s2", "s3", "s4"]
        party = {"s1": "R", "s2": "D", "s3": "R", "s4": "D"}
        data, ordered = build_vote_dataset(self.votes(), ids, party)
        assert ordered == ["s2", "s4", "s1", "s3"]  # D block first (sorted labels)
        assert data.partition.group1 == (0, 1)
        np.testing.assert_array_equal(data.samples[:, 0], self.votes()[:, 1])

    def test_bad_cell_names_question_and_member(self):
        v = self.votes()
        v[1, 2] = 5
        with pytest.raises(DomainError, match=r"question 2, member 's3'"):
            build_vote_dataset(v, ["s1", "s2", "s3", "s4"], {f"s{i}": "DR"[i % 2] for i in range(1, 5)})

    def test_duplicate_and_missing_ids(self):
        party = {"a": "D", "b": "R"}
        with pytest.raises(ConfigError, match="duplicate"):
            build_vote_dataset(np.zeros((2, 2)), ["a", "a"], party)
        with pytest.raises(ConfigError, match="missing party"):
            build_vote_dataset(np.zeros((2, 2)), ["a", "c"], party)

    def test_two_party_guard(self):
        with pytest.raises(ConfigError, match="two parties"):
            build_vote_dataset(
                np.zeros((2, 3)), ["a", "b", "c"], {"a": "D", "b": "R", "c": "I"}
            )


class TestSequences:
    def test_window_count(self):
        cfg = SequencePairConfig(window=4, step=2)
        assert window_count(10, cfg) == 4
        assert window_count(4, cfg) == 1
        with pytest.raises(ConfigError):
            window_count(3, cfg)

    def test_config_guards(self):
        with pytest.raises(ConfigError):
            SequencePairConfig(window=1)
        with pytest.raises(ConfigError):
            SequencePairConfig(window=3, step=0)
        with pytest.raises(ConfigError):
            SequencePairConfig(window=3, alphabet="dna")

    def test_encode_symbols_sorted(self):
        a, b, codebook = encode_symbols("bca", "aad")
        assert codebook == {"a": 0, "b": 1, "c": 2, "d": 3}
        np.testing.assert_array_equal(a, [1, 2, 0])
        np.testing.assert_array_equal(b, [0, 0, 3])

    def test_window_layout_real(self):
        seq1 = np.arange(6.0)
        seq2 = np.arange(10.0, 15.0)
        cfg = SequencePairConfig(window=3, step=1)
        data = window_sequences(seq1, seq2, cfg)
        assert data.n == 3  # in-window offsets are the samples
        assert len(data.partition.group1) == 4
        assert len(data.partition.group2) == 3
        np.testing.assert_array_equal(data.samples[:, 0], [0, 1, 2])
        np.testing.assert_array_equal(data.samples[:, 1], [1, 2, 3])
        np.testing.assert_array_equal(data.samples[:, 4], [10, 11, 12])

    def test_window_layout_coded(self):
        data = window_sequences("abcab", "bbab", SequencePairConfig(window=3, alphabet="coded"))
        assert data.categories == 3
        assert data.n == 3


class TestEdgeExport:
    def edges(self):
        idx = build_pair_index(4)
        flat = np.zeros(idx.dim)
        flat[idx.position((0, 2))] = 0.8
        flat[idx.position((1, 3))] = -0.2
        theta = ParamBlocks(flat, idx)
        return cross_group_edges(theta, Partition((0, 1), (2, 3)))

    def test_dot_output(self, tmp_path):
        path = tmp_path / "e.dot"
        export_edges(self.edges(), "dot", str(path), labels=["a", "b", "c", "d"])
        text = path.read_text()
        assert text.startswith("graph edges {")
        assert '"a" -- "c" [color=red, penwidth=4.000' in text
        assert '"b" -- "d" [color=blue' in text

    def test_json_output(self, tmp_path):
        path = tmp_path / "e.json"
        export_edges(self.edges(), "json", str(path))
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        assert payload["edges"][0]["weight"] == pytest.approx(0.8)
        assert payload["edges"][1]["sign"] == -1

    def test_csv_output_and_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_edges(self.edges(), "csv", str(p1))
        export_edges(self.edges(), "csv", str(p2))
        assert p1.read_text() == p2.read_text()
        lines = p1.read_text().splitlines()
        assert lines[0] == "u,v,u_label,v_label,weight,sign"
        assert lines[1].startswith("0,2,0,2,0.8,")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ParseError):
            export_edges(self.edges(), "svg", str(tmp_path / "x"))


class TestModelSerialization:
    def fit_small(self):
        data = make_dataset(20, 2, 2, seed=71)
        f = FeatureMap.product()
        lam = 0.4 * lambda_max(data, f, pair_policy=PairPolicy(kind="all_ordered"))
        return data, f, fit(data, f, lam, pair_policy=PairPolicy(kind="all_ordered"))

    def test_fit_roundtrip(self, tmp_path):
        data, f, result = self.fit_small()
        path = tmp_path / "fit.json"
        fit_to_json(result, data.partition, f, str(path), extras={"note": 1})
        theta, partition, feature, payload = fit_from_json(str(path))
        np.testing.assert_allclose(theta.flat, result.theta_hat.flat, atol=1e-15)
        assert partition == data.partition
        assert feature.kind == "product"
        assert payload["note"] == 1
        assert payload["support_size"] == len(result.theta_hat.nonzero_pairs())
        assert payload["lambda"] == result.lam

    @pytest.mark.parametrize("kind", ["product", "sq", "delta", "table"])
    def test_fit_roundtrip_every_feature_kind(self, tmp_path, kind):
        if kind in ("product", "sq"):
            data = make_dataset(16, 2, 2, seed=72)
            f = feature_by_name(kind)
        else:
            data = make_coded_dataset(16, 2, 2, categories=3, seed=72)
            if kind == "delta":
                f = FeatureMap.kronecker_delta(categories=3)
            else:
                f = FeatureMap.from_table(np.random.default_rng(72).standard_normal((3, 3, 2)) / 3)
        policy = PairPolicy(kind="all_ordered")
        idx = build_pair_index(data.m, block_dim=f.block_dim)
        lam = 0.3 * lambda_max(data, f, pair_policy=policy)
        result = fit(data, f, lam, pair_policy=policy)
        assert result.theta_hat.nonzero_pairs()
        path = tmp_path / "fit.json"
        fit_to_json(result, data.partition, f, str(path))
        theta, partition, feature, payload = fit_from_json(str(path))
        # only nonzero blocks are written, so a -0.0 entry reads back as 0.0
        np.testing.assert_array_equal(theta.flat, result.theta_hat.flat)
        assert theta.index == idx
        assert partition == data.partition
        assert feature.kind == f.kind
        assert ("table" in payload) == (kind == "table")
        if kind == "table":
            np.testing.assert_array_equal(feature.table, f.table)
            assert (feature.bound_inf, feature.bound_l2) == (f.bound_inf, f.bound_l2)
        np.testing.assert_array_equal(
            pair_feature_matrix(feature, data.samples, idx), pair_feature_matrix(f, data.samples, idx)
        )

    def test_table_fit_without_table_is_rejected(self, tmp_path):
        data = make_coded_dataset(12, 1, 2, categories=2, seed=74)
        f = FeatureMap.from_table(np.ones((2, 2, 1)))
        result = fit(data, f, 1.0, pair_policy=PairPolicy(kind="all_ordered"))
        path = tmp_path / "fit.json"
        fit_to_json(result, data.partition, f, str(path))
        payload = json.loads(path.read_text())
        del payload["table"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="table"):
            fit_from_json(str(path))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_table_fit_with_non_finite_table_is_rejected(self, tmp_path, bad):
        data = make_coded_dataset(12, 1, 2, categories=2, seed=74)
        f = FeatureMap.from_table(np.ones((2, 2, 1)))
        result = fit(data, f, 1.0, pair_policy=PairPolicy(kind="all_ordered"))
        path = tmp_path / "fit.json"
        fit_to_json(result, data.partition, f, str(path))
        payload = json.loads(path.read_text())
        payload["table"][1][0][0] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(DomainError, match=r"fit\.json: non-finite table entry .* at \(1, 0, 0\)"):
            fit_from_json(str(path))

    def test_coefficients_must_fill_the_feature_block(self, tmp_path):
        data = make_coded_dataset(12, 1, 2, categories=2, seed=74)
        f = FeatureMap.from_table(np.random.default_rng(1).standard_normal((2, 2, 2)))
        result = fit(data, f, 0.01, pair_policy=PairPolicy(kind="all_ordered"))
        path = tmp_path / "fit.json"
        fit_to_json(result, data.partition, f, str(path))
        payload = json.loads(path.read_text())
        payload["block_dim"] = 1  # the table is 2 deep
        entry = payload["theta"][0]
        entry["coef"] = entry["coef"][:1]
        path.write_text(json.dumps(payload))
        pair = rf"\({entry['u']}, {entry['v']}\)"
        with pytest.raises(ParseError, match=rf"fit\.json: pair {pair} must have 2 finite coefficient"):
            fit_from_json(str(path))

    @pytest.mark.parametrize("categories", [3, None])
    def test_delta_fit_keeps_its_category_count(self, tmp_path, categories):
        data = make_coded_dataset(12, 1, 2, categories=3, seed=75)
        f = FeatureMap.kronecker_delta(categories)
        result = fit(data, f, 1.0, pair_policy=PairPolicy(kind="all_ordered"))
        path = tmp_path / "fit.json"
        fit_to_json(result, data.partition, f, str(path))
        _, _, feature, payload = fit_from_json(str(path))
        assert feature.categories == categories
        # a delta fit without a category count writes the same keys as before
        assert ("categories" in payload) == (categories is not None)
        if categories is not None:
            with pytest.raises(DomainError, match=r"\[0, 3\)"):
                pair_feature_matrix(feature, np.array([[0.0, 1.0, 3.0]]), build_pair_index(3))

    @pytest.mark.parametrize("bad", [1, 2.5, "3", True])
    def test_delta_fit_with_bad_category_count_is_rejected(self, tmp_path, bad):
        data = make_coded_dataset(12, 1, 2, categories=3, seed=75)
        f = FeatureMap.kronecker_delta(3)
        path = tmp_path / "fit.json"
        fit_to_json(fit(data, f, 1.0, pair_policy=PairPolicy(kind="all_ordered")), data.partition, f, str(path))
        payload = json.loads(path.read_text())
        payload["categories"] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="categories"):
            fit_from_json(str(path))

    @pytest.mark.parametrize("key, bad", [("pair_seed", -1), ("pair_seed", "4"), ("pair_cap", 0), ("pair_cap", 2.0)])
    def test_fit_with_bad_pair_policy_is_rejected(self, tmp_path, key, bad):
        data, f, result = self.fit_small()
        path = tmp_path / "fit.json"
        fit_to_json(result, data.partition, f, str(path), extras={key: bad})
        with pytest.raises(ParseError, match=key):
            fit_from_json(str(path))

    def test_path_payload(self, tmp_path):
        from pmnet import GeometricSchedule, lambda_path

        data = make_dataset(20, 2, 2, seed=73)
        f = FeatureMap.product()
        res = lambda_path(data, f, GeometricSchedule(factor=0.5, count=3), pair_policy=PairPolicy(kind="all_ordered"))
        path = tmp_path / "path.json"
        path_to_json(res, data.partition, f, str(path))
        payload = json.loads(path.read_text())
        assert payload["stop_reason"] == "grid_exhausted"
        assert len(payload["entries"]) == 3
        e = payload["entries"][0]
        assert set(e) == {
            "lambda", "support_size", "support", "objective", "converged", "kkt_max_residual",
            "iterations", "scorings", "sweeps", "backtracks", "working_set",
        }
        for key in ("iterations", "scorings", "sweeps", "backtracks", "working_set"):
            assert [entry[key] for entry in payload["entries"]] == [getattr(x.fit, key) for x in res.entries]
        assert [entry["kkt_max_residual"] for entry in payload["entries"]] == [
            x.fit.kkt.max_residual for x in res.entries
        ]

    def test_truth_roundtrip(self, tmp_path):
        from pmnet import support_from_pairs

        idx = build_pair_index(6)
        truth = support_from_pairs([(0, 4), (1, 5)], idx)
        path = tmp_path / "truth.json"
        truth_to_json(truth, 6, str(path))
        back = truth_from_json(str(path))
        assert back.active == truth.active
        assert back.universe == idx.pairs


class TestManifests:
    def test_payload_fields(self):
        man = RunManifest("fit", ["fit", "--data", "x.csv"], 3, {"data": "x.csv"}, {"fit": "f.json"})
        payload = man.to_payload()
        assert payload["tool"] == "pmnet"
        assert payload["format_version"] == 1
        assert payload["argv"] == ["fit", "--data", "x.csv"]
        assert payload["seed"] == 3

    def test_write_and_load(self, tmp_path):
        out = tmp_path / "out.csv"
        man = RunManifest("gen gaussian", ["gen"], 0, {}, {"data": str(out)})
        write_manifest(man, str(out))
        loaded = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert loaded["command"] == "gen gaussian"
        assert loaded["version"]
