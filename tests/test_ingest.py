from __future__ import annotations

import ast
import gc
import json
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sggkit
from sggkit.ingest import (
    Dataset,
    ParseError,
    graph_to_obj,
    iter_jsonl,
    iter_predictions,
    json_int,
    load_dataset,
    load_embeddings,
    load_feature_matrix,
    load_predictions,
    load_vocabulary,
    save_dataset,
)
from sggkit.model import BoundingBox, ObjectNode, Relationship, SceneGraph, Vocabulary

from .conftest import ON, PERSON, make_graph, write_jsonl, write_vocab


class TestLoadVocabulary:
    def test_positional_ids(self, tmp_path):
        path = tmp_path / "vocab.json"
        write_vocab(path, ["person", "dog"], ["on"])
        vocab = load_vocabulary(path)
        assert vocab.object_id("person") == 0
        assert vocab.object_id("dog") == 1
        assert vocab.predicate_id("on") == 0

    @pytest.mark.parametrize(
        "payload",
        [
            {"objects": ["a"]},
            {"objects": [], "predicates": ["on"]},
            {"objects": ["a", "a"], "predicates": ["on"]},
            {"objects": ["a", ""], "predicates": ["on"]},
        ],
    )
    def test_rejects_bad_payload(self, tmp_path, payload):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_vocabulary(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"objects": "ab", "predicates": ["on"]}, "'objects' must be an array"),
            ({"objects": [], "predicates": ["on"]}, "no object names"),
            ({"objects": ["a", "a"], "predicates": ["on"]}, "duplicate object names"),
            ({"objects": ["a"], "predicates": ["on", 3]}, "empty predicate name"),
        ],
    )
    def test_name_errors_come_from_the_vocabulary_and_name_the_file(self, tmp_path, payload,
                                                                    message):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=rf"vocab\.json: .*{message}"):
            load_vocabulary(path)


class TestIterJsonl:
    def test_yields_file_line_and_object_skipping_blank_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"image_id": "a"}\n\n  \n{"image_id": "b", "x": 1}\n')
        assert list(iter_jsonl(path)) == [
            (f"{path}:1", {"image_id": "a"}),
            (f"{path}:4", {"image_id": "b", "x": 1}),
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "expected a JSON object, got list"),
            ('"x"', "expected a JSON object, got str"),
            ("{", "invalid JSON"),
            ('{"width": 3}', "missing or empty 'image_id'"),
            ('{"image_id": ""}', "missing or empty 'image_id'"),
            ('{"image_id": 7}', "missing or empty 'image_id'"),
        ],
    )
    def test_rejects_line_naming_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "d.jsonl"
        path.write_text('{"image_id": "a"}\n' + line + "\n")
        with pytest.raises(ParseError, match=rf"d\.jsonl:2: {message}"):
            list(iter_jsonl(path))

    def test_rejects_repeated_image_id_at_its_second_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"image_id": "a"}\n{"image_id": "b"}\n\n{"image_id": "a"}\n')
        with pytest.raises(ParseError, match=r"d\.jsonl:4: duplicate image_id 'a' "
                                             r"\(first on line 1\)"):
            list(iter_jsonl(path))

    def test_json_loads_only_in_the_reader_and_the_scorer(self):
        """Every JSON-Lines file goes through iter_jsonl; the scoring client
        parses its HTTP replies, and the stats table reader a whole stats file.
        No other code parses JSON text line by line."""
        callers = set()

        def visit(node, module, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, module, scope + [child.name])
                    continue
                if isinstance(child, ast.ImportFrom) and child.module == "json":
                    assert "loads" not in {a.name for a in child.names}, module
                func = getattr(child, "func", None) if isinstance(child, ast.Call) else None
                if (isinstance(func, ast.Attribute) and func.attr == "loads"
                        and isinstance(func.value, ast.Name) and func.value.id == "json"):
                    callers.add(".".join([module] + scope))
                visit(child, module, scope)

        for path in sorted(Path(sggkit.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
        assert "ingest.iter_jsonl" in callers
        assert callers <= {"ingest.iter_jsonl", "quality.HttpScorer.score",
                           "stats.TripletFrequencyTable.from_stats_json",
                           "stats._layout_columns"}, callers


class TestJsonInt:
    def test_returns_json_integers(self):
        assert [json_int(v) for v in (0, -3, 10**30)] == [0, -3, 10**30]

    @pytest.mark.parametrize("value", [3.0, 1.9, True, False, "2", None, [1]])
    def test_rejects_every_other_value(self, value):
        with pytest.raises(TypeError, match="expected an integer"):
            json_int(value)


class TestLoadDataset:
    def line(self, **overrides):
        obj = {
            "image_id": "img1",
            "width": 100,
            "height": 80,
            "objects": [
                {"category": 0, "box": [0, 0, 10, 10]},
                {"category": 1, "box": [5, 5, 20, 20]},
            ],
            "relationships": [{"subject": 0, "predicate": 0, "object": 1}],
        }
        obj.update(overrides)
        return obj

    def test_basic(self, tmp_path, vocab):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [self.line()])
        ds = load_dataset(path, vocab)
        assert len(ds) == 1
        assert ds.graphs[0].num_nodes == 2
        assert ds.graphs[0].num_edges == 1

    def test_rejects_self_loop_naming_image(self, tmp_path, vocab):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [self.line(relationships=[{"subject": 0, "predicate": 0, "object": 0}])])
        with pytest.raises(ParseError, match="img1"):
            load_dataset(path, vocab)

    def test_rejects_degenerate_box(self, tmp_path, vocab):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [self.line(objects=[{"category": 0, "box": [10, 0, 10, 10]}],
                                     relationships=[])])
        with pytest.raises(ParseError, match="img1"):
            load_dataset(path, vocab)

    def test_rejects_duplicate_image_id_at_second_line(self, tmp_path, vocab):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [self.line(), self.line(image_id="img2"), self.line()])
        with pytest.raises(ParseError, match=r"d\.jsonl:3: duplicate image_id 'img1' "
                                             r"\(first on line 1\)"):
            load_dataset(path, vocab)

    def test_rejects_category_out_of_range(self, tmp_path, vocab):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [self.line(objects=[{"category": 9, "box": [0, 0, 1, 1]}],
                                     relationships=[])])
        with pytest.raises(ParseError, match="category 9"):
            load_dataset(path, vocab)

    def test_ignores_unknown_keys(self, tmp_path, vocab):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [self.line(extra="whatever")])
        assert len(load_dataset(path, vocab)) == 1

    def test_round_trip(self, tmp_path, vocab, surf_graph):
        ds = Dataset(vocab, (surf_graph, make_graph("b", [PERSON, PERSON], [(0, ON, 1)])))
        path = tmp_path / "round.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path, vocab)
        assert loaded.graphs == ds.graphs

    def test_order_preserved(self, tmp_path, vocab):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [self.line(image_id=f"img{i}") for i in range(5)])
        ds = load_dataset(path, vocab)
        assert [g.image_id for g in ds.graphs] == [f"img{i}" for i in range(5)]


class TestLoadEmbeddings:
    def test_single_word(self, tmp_path):
        from sggkit.model import BoundingBox, ObjectNode, Relationship, SceneGraph, Vocabulary

        vocab = Vocabulary(("cat",), ("on",))
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0\n")
        table = load_embeddings(path, vocab)
        assert table.dimension == 2
        np.testing.assert_array_equal(table.vector(0), [1.0, 0.0])

    def test_multiword_mean(self, tmp_path):
        from sggkit.model import BoundingBox, ObjectNode, Relationship, SceneGraph, Vocabulary

        vocab = Vocabulary(("traffic light",), ("on",))
        path = tmp_path / "emb.txt"
        path.write_text("light 0 2\ntraffic 2 0\n")
        table = load_embeddings(path, vocab)
        np.testing.assert_array_equal(table.vector(0), [1.0, 1.0])

    def test_mixed_dimensions_rejected(self, tmp_path, vocab):
        path = tmp_path / "emb.txt"
        path.write_text("person 1 0\nsurfboard 1 0 0\n")
        with pytest.raises(ParseError, match="dimension"):
            load_embeddings(path, vocab)

    def test_unresolvable_category_listed(self, tmp_path, vocab):
        path = tmp_path / "emb.txt"
        path.write_text("person 1 0\nsurfboard 0 1\nwave 1 1\ndog 0.5 1\n")
        with pytest.raises(ParseError, match="cat"):
            load_embeddings(path, vocab)


    @pytest.mark.parametrize("vectors, message", [
        ("dog 1 0\ncat 0 1\nperson nan 0\n", ":3: non-finite value in the vector of 'person'"),
        ("person 1 inf\n", ":1: non-finite value in the vector of 'person'"),
        ("person 0 0\nsurfboard 0 1\n", ": all-zero embedding vector for category ids [0]"),
    ])
    def test_bad_vector_names_the_file(self, tmp_path, vectors, message):
        from sggkit.model import BoundingBox, ObjectNode, Relationship, SceneGraph, Vocabulary

        vocab = Vocabulary(("person", "surfboard"), ("on",))
        path = tmp_path / "emb.txt"
        path.write_text(vectors + "surfboard 1 1\n")
        with pytest.raises(ParseError) as e:
            load_embeddings(path, vocab)
        assert str(e.value) == f"{path}{message}"

    def test_non_finite_unused_word_is_not_read(self, tmp_path):
        from sggkit.model import BoundingBox, ObjectNode, Relationship, SceneGraph, Vocabulary

        path = tmp_path / "emb.txt"
        path.write_text("dog nan 0\ncat 1 0\n")
        assert load_embeddings(path, Vocabulary(("cat",), ("on",))).num_categories == 1


class TestLoadFeatureMatrix:
    def test_basic(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("2 3\n1 2 3\n4 5 6\n")
        m = load_feature_matrix(path)
        np.testing.assert_array_equal(m, [[1, 2, 3], [4, 5, 6]])

    def test_empty_is_valid(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("0 4\n")
        assert load_feature_matrix(path).shape == (0, 4)

    def test_nan_names_row(self, tmp_path):
        path = tmp_path / "f.tsv"
        rows = "\n".join("0 0" for _ in range(5)) + "\nnan 0\n"
        path.write_text("6 2\n" + rows + "\n")
        with pytest.raises(ParseError, match="row 5"):
            load_feature_matrix(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("3 2\n1 2\n3 4\n")
        with pytest.raises(ParseError, match="expected 3 rows"):
            load_feature_matrix(path)

    def test_header_beyond_the_file_is_not_allocated(self, tmp_path):
        # 10^11 x 256 float64 would be 186 TiB: the header alone sizes nothing
        path = tmp_path / "f.tsv"
        path.write_text("100000000000 256\n" + " ".join(["0"] * 256) + "\n")
        with pytest.raises(ParseError, match=r"f\.tsv:1: expected 100000000000 rows, found 1"):
            load_feature_matrix(path)

    def test_empty_with_huge_dimension_is_valid(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("0 100000000000\n")
        assert load_feature_matrix(path).shape == (0, 100000000000)


class TestLoadPredictions:
    def test_label_mode_one_hot(self, tmp_path, vocab):
        path = tmp_path / "p.jsonl"
        write_jsonl(
            path,
            [
                {
                    "image_id": "img1",
                    "object_labels": [2, 0],
                    "pairs": [
                        {"subject": 0, "object": 1, "predicate_scores": [0.5, 0.3, 0.2]}
                    ],
                }
            ],
        )
        preds = load_predictions(path, vocab)
        assert preds[0].object_scores[0].tolist() == [0, 0, 1, 0, 0]
        assert preds[0].object_scores[1].tolist() == [1, 0, 0, 0, 0]

    def test_score_mode(self, tmp_path, vocab):
        path = tmp_path / "p.jsonl"
        write_jsonl(
            path,
            [
                {
                    "image_id": "img1",
                    "object_scores": [[0.2, 0.2, 0.2, 0.2, 0.2]],
                    "pairs": [],
                }
            ],
        )
        preds = load_predictions(path, vocab)
        assert preds[0].num_nodes == 1

    def test_wrong_score_length_rejected(self, tmp_path, vocab):
        path = tmp_path / "p.jsonl"
        write_jsonl(
            path,
            [
                {
                    "image_id": "img1",
                    "object_labels": [0, 1],
                    "pairs": [{"subject": 0, "object": 1, "predicate_scores": [0.5, 0.5]}],
                }
            ],
        )
        with pytest.raises(ParseError, match="predicate_scores"):
            load_predictions(path, vocab)

    @pytest.mark.parametrize("scores, ok", [
        ([1.0, 0.0, 0.0], True), ([-0.0, 1.0, 5e-324], True), ([0.5, 0.25, 0.99999999], True),
        ([0.5, 1.0000000000000002, 0.0], False), ([0.5, -5e-324, 0.0], False),
        ([0.5, 2.0, 0.0], False), ([0.5, float("inf"), 0.0], False),
    ], ids=["one", "signed-zero", "below-one", "just-above-one", "just-below-zero", "two",
            "inf"])
    def test_scores_at_the_ends_of_the_range(self, tmp_path, vocab, scores, ok):
        """Only scores in [0, 1) pass the bit test at once; 1.0, -0.0 and the rest go on to
        the row by row test, which accepts [0, 1]."""
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1", "object_labels": [0, 1], "pairs": [
            {"subject": 0, "object": 1, "predicate_scores": [0.5, 0.25, 0.25]},
            {"subject": 1, "object": 0, "predicate_scores": scores}]}])
        if ok:
            assert load_predictions(path, vocab)[0].pairs[1].scores.tolist() == scores
        else:
            with pytest.raises(ParseError, match=r"pair 1: scores must lie in \[0, 1\]$"):
                load_predictions(path, vocab)

    @pytest.mark.parametrize("key, value", [
        *(("object_labels", v) for v in (5, None, True, {}, "")),
        *(("pairs", v) for v in (5, None, True, {}, "")),
        *(("boxes", v) for v in (5, True, {}, "")),  # null boxes are no boxes
    ])
    def test_array_fields_must_be_arrays(self, tmp_path, vocab, key, value):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1", "object_labels": [0, 1], key: value}])
        with pytest.raises(ParseError, match=rf"p\.jsonl:1 \(image_id='img1'\): '{key}' must be "
                                             r"a JSON array"):
            load_predictions(path, vocab)


class TestIterPredictions:
    @staticmethod
    def line(image_id):
        return {"image_id": image_id, "object_labels": [0, 1],
                "pairs": [{"subject": 0, "object": 1, "predicate_scores": [0.5, 0.25, 0.25]}]}

    def test_yields_each_graph_before_reading_the_next_line(self, tmp_path, vocab):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [self.line("img1")])
        with open(path, "a", encoding="utf-8") as f:
            f.write("{not json\n")
        preds = iter_predictions(path, vocab)
        assert next(preds).image_id == "img1"
        with pytest.raises(ParseError, match=r"p\.jsonl:2: invalid JSON"):
            next(preds)

    def test_a_decoded_line_is_dropped_before_the_next_is_decoded(self, tmp_path, vocab,
                                                                   monkeypatch):
        """Neither iter_jsonl nor iter_predictions holds a line's JSON object once the
        next line is requested, so at most one line's objects are alive."""
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [self.line(f"img{i}") for i in range(4)])
        decoded, counts, loads = [], [], json.loads

        def counting_loads(text):
            counts.append([sys.getrefcount(obj) for obj in decoded])
            decoded.append(loads(text))
            return decoded[-1]

        monkeypatch.setattr(json, "loads", counting_loads)
        held_by_a_list_alone = [sys.getrefcount(obj) for obj in [{}]][0]
        assert [p.image_id for p in iter_predictions(path, vocab)] == [
            "img0", "img1", "img2", "img3"]
        assert counts == [[held_by_a_list_alone] * i for i in range(4)]


class TestPredictionForms:
    """Every file is read into array("d") rows; evaluation ranks them in plain Python, or
    with numpy from evaluation.MATRIX_CANDIDATES candidates on, and both rank alike."""

    def test_forms(self, tmp_path, vocab):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1", "object_labels": [2, 0], "pairs": [
            {"subject": 0, "object": 1, "predicate_scores": [0.5, 0.25, 0.25]}]}])
        (pred,) = load_predictions(path, vocab)
        assert type(pred.object_scores) is tuple
        assert [type(row) for row in pred.object_scores] == [array, array]
        assert type(pred.pairs[0].scores) is array

    def test_same_ranking_and_recall(self, tmp_path, monkeypatch):
        from sggkit import evaluation
        from sggkit.evaluation import rank_triplets, recall_details

        rng = np.random.default_rng(7)
        vocab = Vocabulary(("a", "b", "c", "d"), ("p0", "p1", "p2", "p3", "p4"))
        lines, graphs = [], []
        for i in range(6):
            n = int(rng.integers(2, 6))
            cats = rng.integers(0, 4, size=n).tolist()
            graphs.append(make_graph(f"i{i}", cats, [(0, int(rng.integers(5)), 1), (1, 2, 0)]))
            rows = rng.integers(1, 4, size=(n, 4)).astype(float)
            pairs = [{"subject": s, "object": o,
                      "predicate_scores": rng.choice([0.0, 0.25, 0.5, 1.0], size=5).tolist()}
                     for s in range(n) for o in range(n) if s != o]
            line = {"image_id": f"i{i}", "pairs": pairs}
            if i % 2:
                line["object_labels"] = cats
            else:
                line["object_scores"] = (rows / rows.sum(axis=1, keepdims=True)).tolist()
            lines.append(line)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, lines)
        ds = Dataset(vocab, tuple(graphs))
        preds = load_predictions(path, vocab)
        for p in preds:
            for constraint in (True, False):
                for k in (1, 5, 20, 200):
                    assert (rank_triplets(p, constraint, k)
                            == evaluation._rank_matrix(p, constraint, k, None))
        f_r = [0.125, 0.0625, 0.25, 0.5, 0.1875]
        for x in (0.0, 0.5, 1.0):
            for constraint in (True, False):
                for k in (3, 20):
                    got = recall_details(preds, ds, k, graph_constraint=constraint,
                                         reweight_x=x, f_r=f_r)
                    with monkeypatch.context() as m:
                        m.setattr(evaluation, "MATRIX_CANDIDATES", 0)
                        assert got == recall_details(preds, ds, k, graph_constraint=constraint,
                                                     reweight_x=x, f_r=f_r)

    @pytest.mark.parametrize("change, message", [
        ({"object_scores": [[0.5, 0.5, 0, 0, True]]},
         "malformed 'object_scores': expected arrays of JSON numbers"),
        ({"object_scores": [[0.5, 0.5, 0, 0, 0], [1.0]]},
         "malformed 'object_scores': rows differ in length"),
        ({"object_scores": [{}]}, "malformed 'object_scores': expected arrays of JSON numbers"),
        ({"object_scores": [[0.5, 0.5, 0, 0, 10**400]]},
         "malformed 'object_scores': int too large to convert to float"),
        ({"object_scores": [[0.5, 0.5, 0, 0, 0, 0]]}, "'object_scores' must be n x 5"),
        ({"object_scores": []}, "'object_scores' must be n x 5"),
        ({"object_scores": [[0.5, 0.5, 0, 0, float("nan")]]},
         "image 'img1': non-finite object scores"),
        ({"object_scores": [[0.5, 0.25, 0, 0, 0]]},
         "image 'img1': object score rows must sum to 1"),
        ({"object_labels": [0, 7]}, "object label 7 out of range"),
        ({"pairs": [{"subject": 0, "object": 0, "predicate_scores": [0.5, 0.3, 0.2]}]},
         "image 'img1': pair with subject == object"),
        ({"pairs": [{"subject": 0, "object": 1, "predicate_scores": [0.5, 0.3, 0.2]}] * 2},
         "image 'img1': duplicate pair (0, 1)"),
        ({"pairs": [{"subject": 0, "object": 1, "predicate_scores": [0.5, "0.3", 0.2]}]},
         "pair 0: 'predicate_scores' must be 3 JSON numbers"),
        ({"pairs": [{"subject": 0, "object": 1, "predicate_scores": [0.5, 10**400, 0.2]}]},
         "'predicate_scores': int too large to convert to float"),
        ({"pairs": [{"subject": 0, "object": 1, "predicate_scores": [0.5, 1.5, 0.2]}]},
         "pair 0: scores must lie in [0, 1]"),
        ({"pairs": [{"subject": 0, "object": 1, "predicate_scores": [0.5, float("nan"), 0.2]}]},
         "pair 0: scores must lie in [0, 1]"),
        ({"pairs": [{"subject": 1, "object": 0, "predicate_scores": [0.5, 0.5, 0]},
                    {"subject": 0, "object": 1, "predicate_scores": [-0.5, 0.3, 0.2]}]},
         "pair 1: scores must lie in [0, 1]"),
        ({"boxes": [[0, 0, 1, 1]]}, "image 'img1': box count != node count"),
    ], ids=["object-bool", "object-ragged", "object-dict-row", "object-int-beyond-float", "object-columns",
            "object-empty", "object-nan", "object-sum", "label-range", "self-pair",
            "duplicate-pair", "pair-string", "pair-int-beyond-float", "pair-above-1",
            "pair-nan", "second-pair-negative", "box-count"])
    def test_same_messages(self, tmp_path, vocab, change, message):
        line = {"image_id": "img1", "object_labels": [0, 1], "pairs": []}
        if "object_scores" in change:
            del line["object_labels"]
        line.update(change)
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ParseError) as e:
            load_predictions(path, vocab)
        assert str(e.value) == f"{path}:1 (image_id='img1'): {message}"


# Box corners: ints and floats, the extremes of float formatting among them.
CORNER = st.one_of(
    st.integers(0, 10**20),
    st.floats(0, 1e300),
    st.sampled_from([0.0, -0.0, 1e-7, 1e16, 1e22, 5e-324, 0.1, 123456789.125, 2**53 + 2]),
)


@st.composite
def saved_graphs(draw) -> SceneGraph:
    """A graph built through the public constructors."""
    nodes = []
    for _ in range(draw(st.integers(0, 5))):
        xs = sorted(draw(st.sets(CORNER, min_size=2, max_size=2)))
        ys = sorted(draw(st.sets(CORNER, min_size=2, max_size=2)))
        nodes.append(ObjectNode(draw(st.integers(0, 10**6)), BoundingBox(xs[0], ys[0], xs[1],
                                                                          ys[1])))
    edges = []
    if len(nodes) > 1:
        pair = st.lists(st.integers(0, len(nodes) - 1), min_size=2, max_size=2, unique=True)
        for s, o in draw(st.lists(pair, max_size=6)):
            edges.append(Relationship(s, draw(st.integers(0, 10**6)), o))
    image_id = draw(st.one_of(st.text(min_size=1),
                              st.sampled_from(['a"b', "back\\slash", "caf\u00e9 \u2603",
                                               "\U0001f600", "tab\tnew\nline", "\x00\x7f"])))
    return SceneGraph(image_id, draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)),
                      tuple(nodes), tuple(edges))


class TestSaveDataset:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(saved_graphs(), max_size=4))
    def test_each_line_is_the_compact_json_of_its_graph(self, tmp_path, graphs):
        path = tmp_path / "out.jsonl"
        save_dataset(graphs, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == [json.dumps(graph_to_obj(g), separators=(",", ":")) for g in graphs] + [""]


class TestCollectorState:
    """The loaders pause the cyclic collector while they build; the caller's state,
    on or off, and its thresholds are what they were afterwards, also after an error."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request):
        enabled, thresholds = gc.isenabled(), gc.get_threshold()
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param, thresholds
        finally:
            (gc.enable if enabled else gc.disable)()

    def test_state_restored(self, tmp_path, vocab, collector):
        enabled, thresholds = collector
        graphs, predictions, bad = (tmp_path / name for name in ("d.jsonl", "p.jsonl", "b.jsonl"))
        write_jsonl(graphs, [TestLoadDataset().line(image_id=f"img{i}") for i in range(3)])
        write_jsonl(predictions, [{"image_id": "img1", "object_labels": [2, 0], "pairs": [
            {"subject": 0, "object": 1, "predicate_scores": [0.5, 0.3, 0.2]}]}])
        write_jsonl(bad, [{"image_id": "img1", "width": 1, "height": 1, "objects": 5}])
        assert len(load_dataset(graphs, vocab)) == 3
        assert (gc.isenabled(), gc.get_threshold()) == (enabled, thresholds)
        assert len(load_predictions(predictions, vocab)) == 1
        assert (gc.isenabled(), gc.get_threshold()) == (enabled, thresholds)
        for load in (load_dataset, load_predictions):
            with pytest.raises(ParseError):
                load(bad, vocab)
            assert (gc.isenabled(), gc.get_threshold()) == (enabled, thresholds)


# Each loader, its input with one byte that is not UTF-8, and the line that holds it.
NOT_UTF8 = {
    "iter_jsonl": (lambda p: list(iter_jsonl(p)),
                   b'{"image_id": "a"}\n\n{"image_id": "b\xff"}\n', 3),
    "load_vocabulary": (load_vocabulary, b'{"objects": ["a"],\n "predicates": ["on\xff"]}\n', 2),
    "load_embeddings": (lambda p: load_embeddings(p, Vocabulary(("a",), ("on",))),
                        b"a 1.0 2.0\nb\xff 1.0 2.0\n", 2),
    "load_feature_matrix": (load_feature_matrix, b"2 2\n1 2\n3 4\xff\n", 3),
}


class TestNotUtf8:
    @pytest.mark.parametrize("loader", sorted(NOT_UTF8))
    def test_names_file_and_first_bad_line(self, tmp_path, loader):
        load, data, line = NOT_UTF8[loader]
        path = tmp_path / "input.txt"
        path.write_bytes(data + b"\xfe\n")  # a later bad line is not the one named
        with pytest.raises(ParseError, match=rf"input\.txt:{line}: not valid UTF-8: 'utf-8' "
                                             r"codec can't decode byte 0xff"):
            load(path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_jsonl_line_numbers_follow_text_mode(self, tmp_path, newline):
        path = tmp_path / "d.jsonl"
        path.write_bytes(newline.join([b'{"image_id": "a"}', b"", b'{"image_id": "b"}', b"\xff"]))
        with pytest.raises(ParseError, match=r"d\.jsonl:4: not valid UTF-8"):
            list(iter_jsonl(path))
        path.write_bytes(path.read_bytes()[:-1])
        assert [where for where, _ in iter_jsonl(path)] == [f"{path}:1", f"{path}:3"]
