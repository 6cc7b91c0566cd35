from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from sggkit.cli import _write_json, main
from sggkit.ingest import graph_to_obj, load_dataset, load_vocabulary
from sggkit.model import Triplet
from sggkit.stats import build_frequency_table, shot_subsets

from .conftest import make_graph, write_jsonl, write_vocab

OBJECTS = ["person", "surfboard", "wave", "dog", "cat"]
PREDICATES = ["on", "above", "near"]


def perfect_prediction_line(graph):
    return {
        "image_id": graph.image_id,
        "object_labels": [n.category for n in graph.nodes],
        "pairs": [
            {
                "subject": e.subject,
                "object": e.object,
                "predicate_scores": [1.0 if p == e.predicate else 0.0 for p in range(3)],
            }
            for e in graph.edges
        ],
    }


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(10)
    write_vocab(tmp_path / "vocab.json", OBJECTS, PREDICATES)
    train_graphs = []
    for i in range(30):
        cats = rng.integers(0, 5, size=3).tolist()
        edges = [(0, int(rng.integers(0, 3)), 1), (2, int(rng.integers(0, 3)), 0)]
        train_graphs.append(make_graph(f"tr{i}", cats, edges))
    test_graphs = []
    for i in range(20):
        cats = rng.integers(0, 5, size=3).tolist()
        edges = [(0, int(rng.integers(0, 3)), 1), (1, int(rng.integers(0, 3)), 2)]
        test_graphs.append(make_graph(f"te{i}", cats, edges))
    write_jsonl(tmp_path / "train.jsonl", [graph_to_obj(g) for g in train_graphs])
    write_jsonl(tmp_path / "test.jsonl", [graph_to_obj(g) for g in test_graphs])
    with open(tmp_path / "glove.txt", "w") as f:
        for name in OBJECTS:
            vec = " ".join(f"{v:.4f}" for v in np.random.default_rng(hash(name) % 1000).normal(size=4))
            f.write(f"{name} {vec}\n")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestStats:
    def test_writes_report(self, workspace):
        out = workspace / "stats.json"
        code = run(["stats", "--train", workspace / "train.jsonl",
                    "--vocab", workspace / "vocab.json", "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        vocab = load_vocabulary(workspace / "vocab.json")
        train = load_dataset(workspace / "train.jsonl", vocab)
        table = build_frequency_table(train)
        assert sum(r["count"] for r in payload["triplets"]) == table.total_triplets
        assert len(payload["object_hist"]) == 5
        assert sum(payload["predicate_freq"]) == pytest.approx(1.0)

    def test_empty_dataset_exit_2(self, workspace):
        (workspace / "empty.jsonl").write_text("")
        code = run(["stats", "--train", workspace / "empty.jsonl",
                    "--vocab", workspace / "vocab.json", "--out", workspace / "o.json"])
        assert code == 2

    def test_missing_file_exit_1(self, workspace):
        code = run(["stats", "--train", workspace / "nope.jsonl",
                    "--vocab", workspace / "vocab.json", "--out", workspace / "o.json"])
        assert code == 1

    def test_rerun_byte_identical(self, workspace):
        out = workspace / "stats.json"
        run(["stats", "--train", workspace / "train.jsonl",
             "--vocab", workspace / "vocab.json", "--out", out])
        first = out.read_bytes()
        run(["stats", "--train", workspace / "train.jsonl",
             "--vocab", workspace / "vocab.json", "--out", out])
        assert out.read_bytes() == first


class TestSubsets:
    def test_buckets_match_library(self, workspace):
        out_dir = workspace / "subsets"
        code = run(["subsets", "--train", workspace / "train.jsonl",
                    "--test", workspace / "test.jsonl",
                    "--vocab", workspace / "vocab.json", "--out-dir", out_dir])
        assert code == 0
        vocab = load_vocabulary(workspace / "vocab.json")
        train = load_dataset(workspace / "train.jsonl", vocab)
        test = load_dataset(workspace / "test.jsonl", vocab)
        subsets = shot_subsets(test, build_frequency_table(train))
        for name, bucket in (("zs", subsets.zero), ("few10", subsets.few10),
                             ("few100", subsets.few100)):
            loaded = load_dataset(out_dir / f"{name}.jsonl", vocab)
            assert loaded.graphs == bucket.dataset.graphs
            sidecar = json.loads((out_dir / f"{name}_triplets.json").read_text())
            assert {
                Triplet(r["s"], r["p"], r["o"]) for r in sidecar["triplets"]
            } == set(bucket.triplets)


    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_dataset_exit_2_naming_the_file(self, workspace, capsys, empty):
        files = {"train": workspace / "train.jsonl", "test": workspace / "test.jsonl"}
        files[empty] = workspace / "empty.jsonl"
        files[empty].write_text("")
        code = run(["subsets", "--train", files["train"], "--test", files["test"],
                    "--vocab", workspace / "vocab.json", "--out-dir", workspace / "subsets"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {files[empty]}: empty dataset\n"


class TestPerturb:
    def run_perturb(self, workspace, method, out_prefix, extra=()):
        args = ["perturb", "--method", method, "--intensity", "0.4",
                "--seed", "7", "--dataset", workspace / "train.jsonl",
                "--vocab", workspace / "vocab.json",
                "--out-dataset", workspace / f"{out_prefix}.jsonl",
                "--out-records", workspace / f"{out_prefix}_records.jsonl",
                *extra]
        return run(args)

    def test_graphn_rerun_is_byte_identical(self, workspace):
        extra = ["--embeddings", workspace / "glove.txt", "--alpha", "1", "--top-k", "2"]
        assert self.run_perturb(workspace, "graphn", "p1", extra) == 0
        first = (workspace / "p1.jsonl").read_bytes(), (workspace / "p1_records.jsonl").read_bytes()
        assert self.run_perturb(workspace, "graphn", "p1", extra) == 0
        second = (workspace / "p1.jsonl").read_bytes(), (workspace / "p1_records.jsonl").read_bytes()
        assert first == second

    def test_zero_intensity_copies_input(self, workspace):
        args = ["perturb", "--method", "rand", "--intensity", "0", "--seed", "1",
                "--dataset", workspace / "train.jsonl",
                "--vocab", workspace / "vocab.json",
                "--out-dataset", workspace / "p0.jsonl",
                "--out-records", workspace / "p0_records.jsonl"]
        assert run(args) == 0
        vocab = load_vocabulary(workspace / "vocab.json")
        original = load_dataset(workspace / "train.jsonl", vocab)
        copied = load_dataset(workspace / "p0.jsonl", vocab)
        assert copied.graphs == original.graphs
        for line in (workspace / "p0_records.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert record["replacements"] == []
            assert record["affected_edges"] == []

    def test_oracle_without_zs_exit_2(self, workspace):
        assert self.run_perturb(workspace, "oracle_zs", "px") == 2

    def test_neigh_without_embeddings_exit_2(self, workspace):
        assert self.run_perturb(workspace, "neigh", "py") == 2

    @pytest.mark.parametrize("method", ["neigh", "graphn"])
    @pytest.mark.parametrize("intensity", ["0", "0.2"])
    def test_top_k_not_below_category_count_exit_2(self, workspace, capsys, method, intensity):
        # glove.txt has 5 categories: --top-k 4 is the largest that runs
        def perturb(top_k):
            return run(["perturb", "--method", method, "--intensity", intensity,
                        "--top-k", top_k, "--dataset", workspace / "train.jsonl",
                        "--vocab", workspace / "vocab.json",
                        "--embeddings", workspace / "glove.txt",
                        "--out-dataset", workspace / f"k{top_k}.jsonl",
                        "--out-records", workspace / f"k{top_k}_records.jsonl"])

        assert perturb("4") == 0
        capsys.readouterr()
        assert perturb("5") == 2
        err = capsys.readouterr().err
        assert "error: top_k (--top-k) is 5; it must be below the embedding table's " \
               "5 categories" in err
        assert not (workspace / "k5.jsonl").exists()
        assert not (workspace / "k5_records.jsonl").exists()

    def test_nan_alpha_exit_2(self, workspace, capsys):
        extra = ["--embeddings", workspace / "glove.txt", "--alpha", "nan"]
        assert self.run_perturb(workspace, "graphn", "pn", extra) == 2
        assert "alpha must be >= 0, got nan" in capsys.readouterr().err
        assert not (workspace / "pn.jsonl").exists()


class TestHitRate:
    def test_oracle_records_hit_zs_fully(self, workspace):
        out_dir = workspace / "subsets"
        run(["subsets", "--train", workspace / "train.jsonl",
             "--test", workspace / "test.jsonl",
             "--vocab", workspace / "vocab.json", "--out-dir", out_dir])
        code = run(["perturb", "--method", "oracle_zs", "--intensity", "0.4",
                    "--seed", "3", "--dataset", workspace / "train.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--zs", out_dir / "zs_triplets.json",
                    "--out-dataset", workspace / "oz.jsonl",
                    "--out-records", workspace / "oz_records.jsonl"])
        assert code == 0
        report = workspace / "hit.json"
        code = run(["hit-rate", "--records", workspace / "oz_records.jsonl",
                    "--perturbed", workspace / "oz.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--reference", f"zs={out_dir / 'zs_triplets.json'}",
                    "--out", report])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["hit_rates"]["zs"]["total"] > 0
        assert payload["hit_rates"]["zs"]["value"] == 100.0

    @pytest.mark.parametrize("name, row", [("all", "all,0"), ("zs, v2", '"zs, v2",0')])
    def test_csv_output(self, workspace, name, row):
        (workspace / "records.jsonl").write_text(
            '{"image_id":"tr0","replacements":[],"affected_edges":[]}\n'
        )
        (workspace / "ref.json").write_text('{"triplets": [{"s":0,"p":0,"o":1}]}')
        report = workspace / "hit.csv"
        code = run(["hit-rate", "--records", workspace / "records.jsonl",
                    "--perturbed", workspace / "train.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--reference", f"{name}={workspace / 'ref.json'}",
                    "--out", report, "--csv"])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "reference,value,hits,total"
        assert lines[1].startswith(row)
        assert [r[0] for r in csv.reader(lines)] == ["reference", name]
        assert [len(r) for r in csv.reader(lines)] == [4, 4]


    @pytest.mark.parametrize("names", [("zs", "zs"), ("",)], ids=["repeated", "empty"])
    @pytest.mark.parametrize("csv", [[], ["--csv"]], ids=["json", "csv"])
    def test_repeated_or_empty_reference_name_exit_2(self, workspace, capsys, names, csv):
        (workspace / "records.jsonl").write_text(
            '{"image_id":"tr0","replacements":[],"affected_edges":[]}\n'
        )
        ref = workspace / "ref.json"
        ref.write_text('{"triplets": [{"s":0,"p":0,"o":1}]}')
        references = [a for name in names for a in ("--reference", f"{name}={ref}")]
        code = run(["hit-rate", "--records", workspace / "records.jsonl",
                    "--perturbed", workspace / "train.jsonl",
                    "--vocab", workspace / "vocab.json", *references,
                    "--out", workspace / "hit.out", *csv])
        assert code == 2
        assert "--reference names must be distinct and non-empty" in capsys.readouterr().err
        assert not (workspace / "hit.out").exists()


def strict_json(text: str):
    """json.loads that rejects the NaN and Infinity extensions."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestWriteJson:
    def test_non_finite_value_rejected_before_the_file_is_opened(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text("previous report\n")
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                _write_json(report, {"value": value})
            assert report.read_text() == "previous report\n"
        with pytest.raises(ValueError):
            _write_json(tmp_path / "new.json", {"nested": [1.0, float("nan")]})
        assert not (tmp_path / "new.json").exists()


class TestPlausibility:
    def test_stub_backend_round_trip(self, workspace):
        from .lm_stub import stub_lm_server

        report = workspace / "plaus.json"
        with stub_lm_server(lambda text, target: 1.0) as (url, _):
            code = run(["plausibility", "--dataset", workspace / "train.jsonl",
                        "--vocab", workspace / "vocab.json",
                        "--endpoint", url, "--seed", "5", "--out", report])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["mean_score"] == 1.0
        assert payload["scored"] == 30

    def test_env_var_endpoint(self, workspace, monkeypatch):
        from .lm_stub import stub_lm_server

        report = workspace / "plaus.json"
        with stub_lm_server(lambda text, target: 2.0) as (url, _):
            monkeypatch.setenv("SGG_LM_ENDPOINT", url)
            code = run(["plausibility", "--dataset", workspace / "train.jsonl",
                        "--vocab", workspace / "vocab.json",
                        "--seed", "5", "--out", report])
        assert code == 0
        assert json.loads(report.read_text())["mean_score"] == 2.0

    def test_no_endpoint_exit_2(self, workspace, monkeypatch):
        monkeypatch.delenv("SGG_LM_ENDPOINT", raising=False)
        code = run(["plausibility", "--dataset", workspace / "train.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--seed", "5", "--out", workspace / "p.json"])
        assert code == 2

    def test_unreachable_endpoint_exit_1(self, workspace):
        code = run(["plausibility", "--dataset", workspace / "train.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--endpoint", "http://127.0.0.1:9", "--timeout", "0.2",
                    "--retries", "1", "--seed", "5", "--out", workspace / "p.json"])
        assert code == 1

    @pytest.mark.parametrize("scheme", ["", "ftp://"])
    def test_endpoint_without_http_scheme_exit_2_sending_nothing(self, workspace, capsys,
                                                                  scheme):
        from .lm_stub import stub_lm_server

        with stub_lm_server(lambda text, target: 1.0) as (url, state):
            code = run(["plausibility", "--dataset", workspace / "train.jsonl",
                        "--vocab", workspace / "vocab.json",
                        "--endpoint", scheme + url.removeprefix("http://"),
                        "--seed", "5", "--out", workspace / "p.json"])
        assert code == 2
        assert "must be an http:// or https:// URL" in capsys.readouterr().err
        assert state["connections"] == 0
        assert not (workspace / "p.json").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--timeout", "-1", "timeout must be a finite number > 0, got -1.0"),
        ("--timeout", "nan", "timeout must be a finite number > 0, got nan"),
        ("--timeout", "0", "timeout must be a finite number > 0, got 0.0"),
        ("--timeout", "inf", "timeout must be a finite number > 0, got inf"),
        ("--jobs", "0", "max_workers must be >= 1, got 0"),
        ("--jobs", "-3", "max_workers must be >= 1, got -3"),
    ])
    def test_bad_timeout_or_jobs_exit_2_sending_nothing(self, workspace, capsys, flag, value,
                                                        message):
        from .lm_stub import stub_lm_server

        with stub_lm_server(lambda text, target: 1.0) as (url, state):
            code = run(["plausibility", "--dataset", workspace / "train.jsonl",
                        "--vocab", workspace / "vocab.json", "--endpoint", url,
                        flag, value, "--seed", "5", "--out", workspace / "p.json"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert state["connections"] == 0
        assert not (workspace / "p.json").exists()

    def test_nothing_scored_writes_null_mean(self, workspace):
        from .lm_stub import stub_lm_server

        vocab = load_vocabulary(workspace / "vocab.json")
        graphs = load_dataset(workspace / "train.jsonl", vocab).graphs
        write_jsonl(workspace / "r.jsonl", [
            {"image_id": g.image_id, "replacements": [], "affected_edges": []} for g in graphs
        ])
        report = workspace / "p.json"
        with stub_lm_server(lambda text, target: 1.0) as (url, state):
            code = run(["plausibility", "--dataset", workspace / "train.jsonl",
                        "--vocab", workspace / "vocab.json", "--records", workspace / "r.jsonl",
                        "--endpoint", url, "--out", report])
        assert code == 0
        payload = strict_json(report.read_text())
        assert payload["mean_score"] is None
        assert (payload["scored"], payload["skipped"]) == (0, len(graphs))
        assert state["connections"] == 0

    def test_zero_retries_exit_2(self, workspace, capsys):
        code = run(["plausibility", "--dataset", workspace / "train.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--endpoint", "http://127.0.0.1:9", "--retries", "0",
                    "--seed", "5", "--out", workspace / "p.json"])
        assert code == 2
        assert "retries must be >= 1" in capsys.readouterr().err


class TestEval:
    def write_predictions(self, workspace):
        vocab = load_vocabulary(workspace / "vocab.json")
        test = load_dataset(workspace / "test.jsonl", vocab)
        write_jsonl(
            workspace / "preds.jsonl", [perfect_prediction_line(g) for g in test.graphs]
        )

    def test_ground_truth_predictions_score_100(self, workspace):
        self.write_predictions(workspace)
        report = workspace / "eval.json"
        code = run(["eval", "--predictions", workspace / "preds.jsonl",
                    "--gt", workspace / "test.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--mode", "sgcls", "--graph-constraint", "--out", report])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["value"] == 100.0
        assert payload["K"] == 100
        assert payload["metric"] == "recall"

    def test_zero_shot_subset_flag(self, workspace):
        self.write_predictions(workspace)
        out_dir = workspace / "subsets"
        run(["subsets", "--train", workspace / "train.jsonl",
             "--test", workspace / "test.jsonl",
             "--vocab", workspace / "vocab.json", "--out-dir", out_dir])
        report = workspace / "eval_zs.json"
        code = run(["eval", "--predictions", workspace / "preds.jsonl",
                    "--gt", workspace / "test.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--subset", out_dir / "zs_triplets.json",
                    "--per-image", "--out", report])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["subset"].endswith("zs_triplets.json")
        assert payload["value"] == 100.0
        assert payload["per_image"]

    @pytest.mark.parametrize("flags", [["--metric", "mean-recall"], ["--csv"]],
                             ids=["mean-recall", "csv"])
    def test_per_image_needs_a_recall_json_report(self, tmp_path, capsys, flags):
        # No input file exists: the flags are rejected before any is read.
        missing = tmp_path / "missing"
        code = run(["eval", "--predictions", missing, "--gt", missing, "--vocab", missing,
                    "--per-image", *flags, "--out", tmp_path / "e.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--per-image" in err and flags[-1] in err
        assert not (tmp_path / "e.json").exists()

    def test_csv_quotes_a_subset_path_with_a_comma(self, workspace):
        self.write_predictions(workspace)
        out_dir = workspace / "zero, shot"
        run(["subsets", "--train", workspace / "train.jsonl",
             "--test", workspace / "test.jsonl",
             "--vocab", workspace / "vocab.json", "--out-dir", out_dir])
        report = workspace / "eval.csv"
        code = run(["eval", "--predictions", workspace / "preds.jsonl",
                    "--gt", workspace / "test.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--subset", out_dir / "zs_triplets.json", "--out", report, "--csv"])
        assert code == 0
        header, row = csv.reader(report.read_text().splitlines())
        assert header == ["metric", "K", "mode", "graph_constraint", "subset", "reweight_x",
                          "value"]
        assert row == ["recall", "100", "sgcls", "False", str(out_dir / "zs_triplets.json"),
                       "0.0", "100.0"]

    def test_reweight_without_stats_exit_2(self, workspace):
        self.write_predictions(workspace)
        code = run(["eval", "--predictions", workspace / "preds.jsonl",
                    "--gt", workspace / "test.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--reweight-x", "1.0", "--out", workspace / "e.json"])
        assert code == 2

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_reweight_exit_2(self, workspace, capsys, x):
        # unit frequencies make (1 / f_r)^x finite, so this is the exponent check
        assert self.eval_with_stats(workspace, {"predicate_freq": [1.0, 1.0, 1.0]}, x) == 2
        assert f"--reweight-x must be finite and >= 0, got {x}" in capsys.readouterr().err
        assert not (workspace / "e.json").exists()

    def test_negative_reweight_without_stats_names_the_exponent(self, workspace, capsys):
        self.write_predictions(workspace)
        code = run(["eval", "--predictions", workspace / "preds.jsonl",
                    "--gt", workspace / "test.jsonl", "--vocab", workspace / "vocab.json",
                    "--reweight-x", "-1", "--out", workspace / "e.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--reweight-x must be finite and >= 0, got -1.0" in err
        assert "--stats" not in err

    def eval_with_stats(self, workspace, payload, x="1.0"):
        self.write_predictions(workspace)
        stats = workspace / "freq_stats.json"
        stats.write_text(json.dumps(payload))  # NaN and Infinity as JSON extensions
        return run(["eval", "--predictions", workspace / "preds.jsonl",
                    "--gt", workspace / "test.jsonl", "--vocab", workspace / "vocab.json",
                    "--reweight-x", x, "--stats", stats, "--out", workspace / "e.json"])

    @pytest.mark.parametrize("payload", [
        {"triplets": []},
        {"predicate_freq": [0.5, 0.5]},
        {"predicate_freq": [0.2, 0.3, 0.4, 0.1]},
        {"predicate_freq": [0.5, float("nan"), 0.5]},
        {"predicate_freq": [0.5, float("inf"), 0.5]},
        {"predicate_freq": [0.5, -0.1, 0.6]},
        {"predicate_freq": "frequent"},
        ["not", "an", "object"],
    ], ids=["missing", "too-short", "too-long", "nan", "inf", "negative", "string", "list"])
    def test_invalid_predicate_freq_exit_2_naming_file(self, workspace, capsys, payload):
        assert self.eval_with_stats(workspace, payload) == 2
        err = capsys.readouterr().err
        assert "freq_stats.json: 'predicate_freq' must be 3 finite, non-negative numbers" in err

    def test_overflowing_weights_exit_2(self, workspace, capsys):
        assert self.eval_with_stats(workspace, {"predicate_freq": [1e-300, 0.5, 0.5]}, "2") == 2
        assert "not all finite" in capsys.readouterr().err

    def test_valid_predicate_freq_reweights(self, workspace):
        assert self.eval_with_stats(workspace, {"predicate_freq": [0.5, 0.3, 0.2]}) == 0
        assert json.loads((workspace / "e.json").read_text())["value"] == 100.0

    def test_duplicate_gt_image_id_exit_2(self, workspace, capsys):
        self.write_predictions(workspace)
        lines = (workspace / "test.jsonl").read_text().splitlines()
        (workspace / "dup.jsonl").write_text("\n".join(lines + [lines[1]]) + "\n")
        code = run(["eval", "--predictions", workspace / "preds.jsonl",
                    "--gt", workspace / "dup.jsonl", "--vocab", workspace / "vocab.json",
                    "--out", workspace / "e.json"])
        assert code == 2
        assert f"dup.jsonl:{len(lines) + 1}: duplicate image_id 'te1'" in capsys.readouterr().err

    def test_mean_recall_metric(self, workspace):
        self.write_predictions(workspace)
        report = workspace / "eval_mr.json"
        code = run(["eval", "--predictions", workspace / "preds.jsonl",
                    "--gt", workspace / "test.jsonl",
                    "--vocab", workspace / "vocab.json",
                    "--metric", "mean-recall", "--mode", "predcls", "--out", report])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["value"] == 100.0
        assert payload["K"] == 50


class TestFeatMetrics:
    def write_features(self, path, rows):
        with open(path, "w") as f:
            f.write(f"{len(rows)} {len(rows[0])}\n")
            for row in rows:
                f.write(" ".join(str(v) for v in row) + "\n")

    def test_identical_files(self, workspace):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(30, 3)).tolist()
        self.write_features(workspace / "real.tsv", rows)
        self.write_features(workspace / "fake.tsv", rows)
        report = workspace / "fm.json"
        code = run(["feat-metrics", "--real", workspace / "real.tsv",
                    "--fake", workspace / "fake.tsv", "-k", "3", "--out", report])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["precision"] == 1.0
        assert payload["recall"] == 1.0
        assert payload["coverage"] == 1.0
        assert payload["frechet_distance"] <= 1e-8

    @pytest.mark.parametrize("short", ["real", "fake"])
    @pytest.mark.parametrize("k, rows", [(3, 3), (1, 1)])
    def test_too_few_points_exit_2(self, workspace, capsys, short, k, rows):
        grid = [[float(i), float(i % 2)] for i in range(5)]
        for name in ("real", "fake"):
            self.write_features(workspace / f"{name}.tsv", grid[:rows] if name == short else grid)
        out = workspace / "fm.json"
        code = run(["feat-metrics", "--real", workspace / "real.tsv",
                    "--fake", workspace / "fake.tsv", "-k", k, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {workspace / f'{short}.tsv'}: need at least "
                                           f"k+1 = {k + 1} points, got {rows}\n")
        assert not out.exists()

    def test_overflowing_metric_exit_2_naming_metric_and_files(self, workspace, capsys, recwarn):
        real, fake, out = workspace / "real.tsv", workspace / "fake.tsv", workspace / "fm.json"
        self.write_features(real, [[1e308, 0.0], [-1e308, 1.0], [1e308, 3.0]])
        self.write_features(fake, [[1e308, 0.0], [-1e308, 2.0], [0.0, 3.0]])
        for csv in ([], ["--csv"]):
            code = run(["feat-metrics", "--real", real, "--fake", fake, "-k", "1",
                        "--out", out, *csv])
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: {real} and {fake}: frechet_distance not finite: "
                "the features are too large for float64 arithmetic\n")
            assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("header", ["100000000000 256", "3 100000000000"])
    def test_oversized_header_exit_2_naming_line_1(self, workspace, capsys, header):
        huge = workspace / "huge.tsv"
        huge.write_text(header + "\n")
        self.write_features(workspace / "fake.tsv", [[0.0, 0.0], [1.0, 1.0]])
        code = run(["feat-metrics", "--real", huge, "--fake", workspace / "fake.tsv",
                    "--out", workspace / "fm.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {huge}:1: expected" in err
        assert "Traceback" not in err


def side_file_command(workspace, flag, side):
    """An argv whose only defect is the JSON side file `side` given to `flag`."""
    vocab = ["--vocab", workspace / "vocab.json"]
    perturbed = ["--dataset", workspace / "train.jsonl", *vocab,
                 "--out-dataset", workspace / "p.jsonl", "--out-records", workspace / "r.jsonl"]
    if flag == "perturb --zs":
        return ["perturb", "--method", "oracle_zs", "--zs", side, *perturbed]
    if flag == "perturb --stats":
        return ["perturb", "--method", "graphn", "--embeddings", workspace / "glove.txt",
                "--stats", side, *perturbed]
    if flag == "hit-rate --reference":
        (workspace / "r.jsonl").write_text(
            '{"image_id":"tr0","replacements":[],"affected_edges":[]}\n')
        return ["hit-rate", "--records", workspace / "r.jsonl",
                "--perturbed", workspace / "train.jsonl", *vocab,
                "--reference", f"zs={side}", "--out", workspace / "h.json"]
    TestEval().write_predictions(workspace)
    evaluated = ["eval", "--predictions", workspace / "preds.jsonl",
                 "--gt", workspace / "test.jsonl", *vocab, "--out", workspace / "e.json"]
    if flag == "eval --subset":
        return [*evaluated, "--subset", side]
    return [*evaluated, "--reweight-x", "1", "--stats", side]


class TestSideFiles:
    @pytest.mark.parametrize("flag,content,message", [
        (flag, "{", "Expecting property name")
        for flag in ("perturb --zs", "perturb --stats", "hit-rate --reference",
                     "eval --subset", "eval --stats")
    ] + [
        (flag, '{"predicate_freq": [0.5]}', "missing key 'triplets'")
        for flag in ("perturb --zs", "perturb --stats", "hit-rate --reference", "eval --subset")
    ] + [
        (flag, '{"triplets": [{"s": 0, "p": 1}]}', "missing key 'o'")
        for flag in ("perturb --zs", "perturb --stats", "hit-rate --reference", "eval --subset")
    ] + [
        ("perturb --stats", '{"triplets": [{"s": 0, "p": 1, "o": 2}]}', "missing key 'count'"),
        ("perturb --stats", '{"triplets": [{"s": 0, "p": 1, "o": 2, "count": 18446744073709551616}]}',
         "does not fit in 64 bits"),
        ("perturb --zs", '{"triplets": [{"s": "x", "p": 1, "o": 2}]}',
         "row 0 's': expected an integer, got 'x'"),
        ("eval --subset", '{"triplets": [7]}', "not subscriptable"),
    ])
    def test_bad_side_file_exit_2_naming_file(self, workspace, capsys, flag, content, message):
        side = workspace / "side.json"
        side.write_text(content)
        assert run(side_file_command(workspace, flag, side)) == 2
        err = capsys.readouterr().err
        assert f"error: {side}: " in err
        assert message in err

    @pytest.mark.parametrize("row", [
        {"s": 7, "p": 0, "o": 1}, {"s": 0, "p": 0, "o": 5}, {"s": 0, "p": 3, "o": 1},
        {"s": -1, "p": 0, "o": 1},
    ], ids=["subject", "object", "predicate", "negative"])
    def test_graphn_stats_outside_vocabulary_exit_2(self, workspace, capsys, row):
        side = workspace / "stats.json"
        rows = [{"s": 0, "p": 0, "o": 1, "count": 4}, {**row, "count": 2}]
        side.write_text(json.dumps({"triplets": rows}))
        assert run(side_file_command(workspace, "perturb --stats", side)) == 2
        err = capsys.readouterr().err
        assert f"error: {side}: " in err
        assert "vocabulary" in err or "negative" in err
        assert not (workspace / "p.jsonl").exists()


def jsonl_command(workspace, command, path):
    """`command` reading `path` as its JSON-Lines input: the dataset of
    stats, the predictions of eval, the records of hit-rate."""
    vocab = ["--vocab", workspace / "vocab.json"]
    if command == "stats":
        return ["stats", "--train", path, *vocab, "--out", workspace / "s.json"]
    if command == "eval":
        return ["eval", "--predictions", path, "--gt", workspace / "test.jsonl", *vocab,
                "--out", workspace / "e.json"]
    (workspace / "ref.json").write_text('{"triplets": []}')
    return ["hit-rate", "--records", path, "--perturbed", workspace / "train.jsonl", *vocab,
            "--reference", f"zs={workspace / 'ref.json'}", "--out", workspace / "h.json"]


def replacing_record(graph, node):
    """A valid record for `graph` read as a perturbed graph whose `node` was
    replaced."""
    new = graph.nodes[node].category
    return {
        "image_id": graph.image_id,
        "replacements": [{"node": node, "old": (new + 1) % len(OBJECTS), "new": new}],
        "affected_edges": [k for k, e in enumerate(graph.edges) if node in (e.subject, e.object)],
    }


def jsonl_lines(workspace, command):
    """Valid input lines for `command`, at least two, each with integer fields."""
    vocab = load_vocabulary(workspace / "vocab.json")
    if command == "stats":
        return [graph_to_obj(g) for g in load_dataset(workspace / "train.jsonl", vocab).graphs[:2]]
    if command == "eval":
        test = load_dataset(workspace / "test.jsonl", vocab)
        return [perfect_prediction_line(g) for g in test.graphs]
    train = load_dataset(workspace / "train.jsonl", vocab)
    return [replacing_record(train.graphs[0], 0), replacing_record(train.graphs[1], 1)]


def with_value(obj, keys, value):
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return obj


INTEGER_FIELDS = [
    ("stats", ("width",)),
    ("stats", ("height",)),
    ("stats", ("objects", 0, "category")),
    ("stats", ("relationships", 0, "subject")),
    ("stats", ("relationships", 0, "predicate")),
    ("stats", ("relationships", 0, "object")),
    ("eval", ("object_labels", 0)),
    ("eval", ("pairs", 0, "subject")),
    ("eval", ("pairs", 0, "object")),
    ("hit-rate", ("replacements", 0, "node")),
    ("hit-rate", ("replacements", 0, "old")),
    ("hit-rate", ("replacements", 0, "new")),
    ("hit-rate", ("affected_edges", 0)),
]


class TestJsonLinesContract:
    @pytest.mark.parametrize("command", ["stats", "eval", "hit-rate"])
    def test_valid_lines_exit_0(self, workspace, command):
        path = workspace / "in.jsonl"
        write_jsonl(path, jsonl_lines(workspace, command))
        assert run(jsonl_command(workspace, command, path)) == 0

    @pytest.mark.parametrize("command", ["stats", "eval", "hit-rate"])
    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', '{"image_id": "a",'],
                             ids=["list", "string", "invalid-json"])
    def test_reader_errors_exit_2_naming_file_and_line(self, workspace, capsys, command, line):
        path = workspace / "in.jsonl"
        path.write_text(json.dumps(jsonl_lines(workspace, command)[0]) + "\n" + line + "\n")
        assert run(jsonl_command(workspace, command, path)) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:2: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["stats", "eval", "hit-rate"])
    def test_invalid_utf8_exit_2_naming_file_and_line(self, workspace, capsys, command):
        first, second = (json.dumps(obj).encode() for obj in jsonl_lines(workspace, command)[:2])
        path = workspace / "in.jsonl"
        path.write_bytes(first + b"\n" + second[:-1] + b"\xff}\n")
        assert run(jsonl_command(workspace, command, path)) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:2: not valid UTF-8: 'utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err

    def test_record_without_replacements_exit_2_naming_file_and_line(self, workspace, capsys):
        first, second = jsonl_lines(workspace, "hit-rate")
        del second["replacements"]
        path = workspace / "in.jsonl"
        write_jsonl(path, [first, second])
        assert run(jsonl_command(workspace, "hit-rate", path)) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:2: missing key 'replacements'" in err
        assert "Traceback" not in err

    def test_repeated_record_image_id_exit_2_at_second_occurrence(self, workspace, capsys):
        first, second = jsonl_lines(workspace, "hit-rate")
        path = workspace / "in.jsonl"
        write_jsonl(path, [first, second, first])
        assert run(jsonl_command(workspace, "hit-rate", path)) == 2
        assert (f"error: {path}:3: duplicate image_id 'tr0' (first on line 1)"
                in capsys.readouterr().err)
        assert not (workspace / "h.json").exists()

    @pytest.mark.parametrize("value", [1.9, 3.0, True, "2"], ids=["float", "integral-float",
                                                                "bool", "string"])
    @pytest.mark.parametrize("command, keys", INTEGER_FIELDS,
                             ids=[f"{c}:{'.'.join(map(str, k))}" for c, k in INTEGER_FIELDS])
    def test_integer_field_must_be_a_json_integer(self, workspace, capsys, command, keys, value):
        first, second = jsonl_lines(workspace, command)[:2]
        path = workspace / "in.jsonl"
        write_jsonl(path, [first, with_value(second, keys, value)])
        assert run(jsonl_command(workspace, command, path)) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:2" in err
        assert "Traceback" not in err


class TestRecordsAgainstGraphs:
    def perturbed(self, workspace):
        vocab = load_vocabulary(workspace / "vocab.json")
        return load_dataset(workspace / "train.jsonl", vocab).graphs[0]

    # In every train graph, node 1 touches edge 0 only: edges are (0, 1), (2, 0).
    @pytest.mark.parametrize("field, value", [
        ("affected_edges", [-1]),
        ("affected_edges", [-1, -1, -1]),
        ("affected_edges", [0, 0]),
        ("affected_edges", [1]),
        ("affected_edges", [0, 1]),
        ("affected_edges", []),
        ("node", 3),
        ("node", -1),
        ("new", "other"),
    ])
    def test_hit_rate_record_not_matching_its_graph_exit_2(self, workspace, capsys, field,
                                                           value):
        graph = self.perturbed(workspace)
        record = replacing_record(graph, 1)
        assert record["affected_edges"] == [0]
        if field == "affected_edges":
            record["affected_edges"] = value
        elif value == "other":
            old = record["replacements"][0]["new"]
            record["replacements"][0].update(old=old, new=(old + 1) % len(OBJECTS))
        else:
            record["replacements"][0]["node"] = value
        path = workspace / "in.jsonl"
        write_jsonl(path, [record])
        assert run(jsonl_command(workspace, "hit-rate", path)) == 2
        err = capsys.readouterr().err
        assert "error: record image 'tr0': " in err
        assert "Traceback" not in err
        assert not (workspace / "h.json").exists()

    def test_plausibility_record_node_out_of_range_exit_2_sending_nothing(self, workspace,
                                                                          capsys):
        from .lm_stub import stub_lm_server

        graph = self.perturbed(workspace)
        write_jsonl(workspace / "one.jsonl", [graph_to_obj(graph)])
        record = replacing_record(graph, 1)
        record["replacements"][0]["node"] = 99
        write_jsonl(workspace / "r.jsonl", [record])
        with stub_lm_server(lambda text, target: 1.0) as (url, state):
            code = run(["plausibility", "--dataset", workspace / "one.jsonl",
                        "--vocab", workspace / "vocab.json", "--records", workspace / "r.jsonl",
                        "--endpoint", url, "--out", workspace / "p.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: record image 'tr0': replaced node 99 out of range" in err
        assert "Traceback" not in err
        assert state["connections"] == 0
        assert not (workspace / "p.json").exists()


class TestSideFileIntegers:
    """Ids and counts in stats and triplet-set files are JSON integers."""

    @pytest.mark.parametrize("value", [1.9, True, "2"], ids=["float", "bool", "string"])
    @pytest.mark.parametrize("key", ["s", "p", "o"])
    @pytest.mark.parametrize("flag", ["eval --subset", "hit-rate --reference", "perturb --zs",
                                      "perturb --stats"])
    def test_id_must_be_a_json_integer(self, workspace, capsys, flag, key, value):
        rows = [{"s": 0, "p": 0, "o": 1, "count": 3}, {"s": 1, "p": 1, "o": 2, "count": 1}]
        rows[1][key] = value
        side = workspace / "side.json"
        side.write_text(json.dumps({"triplets": rows}))
        assert run(side_file_command(workspace, flag, side)) == 2
        err = capsys.readouterr().err
        assert f"error: {side}: row 1 '{key}': expected an integer, got {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [2.7, 2.0, True, "2"],
                             ids=["float", "integral-float", "bool", "string"])
    def test_stats_count_must_be_a_json_integer(self, workspace, capsys, value):
        side = workspace / "stats.json"
        side.write_text(json.dumps({"triplets": [{"s": 0, "p": 0, "o": 1, "count": value}]}))
        assert run(side_file_command(workspace, "perturb --stats", side)) == 2
        err = capsys.readouterr().err
        assert f"error: {side}: row 0 'count': expected an integer, got {value!r}" in err
        assert not (workspace / "p.jsonl").exists()


def eval_lines_with_scores(workspace):
    """Valid eval lines for every test graph; the second has object score
    rows and boxes in place of labels."""
    lines = jsonl_lines(workspace, "eval")
    labels = lines[1].pop("object_labels")
    lines[1]["object_scores"] = [[1.0 if c == lab else 0.0 for c in range(len(OBJECTS))]
                                 for lab in labels]
    lines[1]["boxes"] = [[10.0 * i, 0.0, 10.0 * i + 5, 5.0] for i in range(len(labels))]
    return lines


class TestJsonNumbers:
    """Box corners and scores are JSON numbers: a bool or a string exits 2."""

    @pytest.mark.parametrize("value", [True, "0", None], ids=["bool", "string", "null"])
    @pytest.mark.parametrize("corner", [0, 2])
    def test_dataset_box_corner(self, workspace, capsys, corner, value):
        first, second = jsonl_lines(workspace, "stats")[:2]
        path = workspace / "in.jsonl"
        write_jsonl(path, [first, with_value(second, ("objects", 1, "box", corner), value)])
        assert run(jsonl_command(workspace, "stats", path)) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:2 (image_id='tr1'): malformed object 1" in err
        assert not (workspace / "s.json").exists()

    @pytest.mark.parametrize("value", [True, False, "1", "0.5"],
                             ids=["true", "false", "string", "string-float"])
    @pytest.mark.parametrize("keys", [
        ("pairs", 0, "predicate_scores", 0),
        ("pairs", 1, "predicate_scores", 2),
        ("object_scores", 0, 0),
        ("boxes", 1, 3),
    ], ids=lambda k: ".".join(map(str, k)))
    def test_prediction_number(self, workspace, capsys, keys, value):
        """[true, 0.0, 0.0] passes np.asarray as [1.0, 0.0, 0.0]; the loader
        must look at the JSON types."""
        lines = eval_lines_with_scores(workspace)
        lines[1] = with_value(lines[1], keys, value)
        path = workspace / "in.jsonl"
        write_jsonl(path, lines)
        assert run(jsonl_command(workspace, "eval", path)) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:2 (image_id='te1'): " in err
        assert "Traceback" not in err
        assert not (workspace / "e.json").exists()

    def test_prediction_numbers_control(self, workspace):
        path = workspace / "in.jsonl"
        write_jsonl(path, eval_lines_with_scores(workspace))
        assert run(jsonl_command(workspace, "eval", path)) == 0

    @pytest.mark.parametrize("row, message", [
        ([0.5, 0.5], "pair 0: 'predicate_scores' must be 3 JSON numbers"),
        ([0.5, 0.5, 1.5], "pair 0: scores must lie in [0, 1]"),
        ([0.5, 0.5, float("nan")], "pair 0: scores must lie in [0, 1]"),
        ([0.5, 0.5, -0.0001], "pair 0: scores must lie in [0, 1]"),
        ([0.5, 0.5, 1e400], "pair 0: scores must lie in [0, 1]"),
        (7, "pair 0: 'predicate_scores' must be 3 JSON numbers"),
        ([[0.5], 0.5, 0.5], "pair 0: 'predicate_scores' must be 3 JSON numbers"),
    ], ids=["short", "above-1", "nan", "negative", "inf", "not-an-array", "nested"])
    def test_prediction_scores_rejected_naming_pair(self, workspace, capsys, row, message):
        lines = jsonl_lines(workspace, "eval")
        lines[0] = with_value(lines[0], ("pairs", 0, "predicate_scores"), row)
        path = workspace / "in.jsonl"
        write_jsonl(path, lines)
        assert run(jsonl_command(workspace, "eval", path)) == 2
        assert f"error: {path}:1 (image_id='te0'): {message}" in capsys.readouterr().err
