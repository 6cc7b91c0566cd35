"""Report bytes and input rejections that the loaders and the triplet table
must keep: sha256 goldens of the stats, subsets, hit-rate and eval reports
on seeded inputs, a save/load round trip, and exit 2 with `file:line` for
each dataset defect."""
from __future__ import annotations

import contextlib
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sggkit.cli import main
from sggkit.ingest import Dataset, graph_to_obj, load_dataset, save_dataset
from sggkit.model import BoundingBox, ObjectNode, Relationship, SceneGraph, Vocabulary

from .conftest import write_jsonl, write_vocab

OBJECTS = 10
PREDICATES = 4
# Skewed category draws, so that the train table has zero-, few- and many-shot triplets.
CATEGORY_P = np.geomspace(1, 0.05, OBJECTS) / np.geomspace(1, 0.05, OBJECTS).sum()
VOCAB = Vocabulary(tuple(f"c{i}" for i in range(OBJECTS)), tuple(f"p{i}" for i in range(PREDICATES)))


def seeded_graph(rng, image_id) -> SceneGraph:
    """2-7 nodes with float boxes, up to 2n edges; duplicate edges occur."""
    n = int(rng.integers(2, 8))
    nodes = []
    for c in rng.choice(OBJECTS, size=n, p=CATEGORY_P):
        x1, y1 = rng.uniform(0, 50, size=2)
        w, h = rng.uniform(1, 30, size=2)
        nodes.append(ObjectNode(int(c), BoundingBox(float(x1), float(y1), float(x1 + w), float(y1 + h))))
    edges = []
    for _ in range(int(rng.integers(1, 2 * n))):
        s, o = rng.choice(n, size=2, replace=False)
        edges.append(Relationship(int(s), int(rng.integers(0, PREDICATES)), int(o)))
    return SceneGraph(image_id, 96, 80, tuple(nodes), tuple(edges))


def prediction_line(rng, graph: SceneGraph, index: int) -> dict:
    """Scores for every ordered pair; labels, score rows and jittered boxes
    alternate between images so both object formats are read."""
    n = graph.num_nodes
    line = {"image_id": graph.image_id}
    if index % 2:
        rows = rng.random((n, OBJECTS)) + 0.01
        line["object_scores"] = (rows / rows.sum(axis=1, keepdims=True)).tolist()
    else:
        line["object_labels"] = [
            node.category if rng.random() < 0.8 else int(rng.integers(0, OBJECTS))
            for node in graph.nodes
        ]
    line["pairs"] = [
        {"subject": s, "object": o, "predicate_scores": rng.random(PREDICATES).round(4).tolist()}
        for s in range(n) for o in range(n) if s != o
    ]
    line["boxes"] = [
        [b.x1 + 0.5, b.y1, b.x2 + 0.5, b.y2] for b in (node.box for node in graph.nodes)
    ]
    return line


REPORTS = {
    "stats.json": "c6b156e46048fc1b573f2a8e5e8715a2297ef63e6837bc4c456214d89b7a401f",
    "subsets/zs.jsonl": "df4b7713a688ddced4dbd363712671236cf5afbaf85b82d7511cfe65dda7c364",
    "subsets/zs_triplets.json": "634f7f4d700de173dc26f960407a561db0eb61e35e082767a7e6e27675a5166a",
    "subsets/few10.jsonl": "0ac5eb782a08f6e5cedd343e607e6ed059d3b099b888b9e0ba2d2a662b9d0f6a",
    "subsets/few10_triplets.json": "54d876cbfdbec80cdba8d2ab2e70af17bef441763cfd5e34ff3dd45810a397c4",
    "subsets/few100.jsonl": "c8de3c85461181934f6ef8e508a50baa85fd6d774fde370a37ed445e1afea4b2",
    "subsets/few100_triplets.json": "bd30d452459a2fceacab0fe58b013f89ac8530a37a436385b94ec100ae0cd23c",
    "graphn.jsonl": "cc110c7d91cf86ffa67ace77ccfaae3f5e5f6bf94ba3df1e83ce4297a4d28f5b",
    "graphn_hits.json": "8a897840d08dfa6707105f49afbfe3f32e745930f9e039f3a15c39da60bd39e7",
    "oracle_zs_hits.csv": "d29e46f47da102aca59b71fa6493424ceb36c3e0c330fe9b4c3b6dd1f2d833ac",
    "recall.json": "ad0000c4fa7d958e26259088fe17a1bfe4edb04727e28b4a531c55c1191692ae",
    "recall_gc_predcls.json": "adb392d5fbe60fd05cb34390edd757667376fec018201b85d93d20e111375533",
    "mean_recall.json": "fe335d5d705491003b99d1b81915cb7ab26165f2839968909593a5f559ec7190",
    "sggen.json": "009c634ce7e0fb22f6f859954b47d68771118206e1ad3c51fe2c770db3aaf784",
    "recall_zs.json": "f1bff62caa583d40422ad4fc9a14eb60359b1949cff85ecbbc1d75a9a5312865",
    "recall_reweighted.csv": "d4e47e2bcc01a38c9c1ebb4756fabcdd31b0297a8b16e3769a6c735c8f6a5a4e",
}

COMMANDS = [
    ["stats", "--train", "train.jsonl", "--vocab", "vocab.json", "--out", "stats.json"],
    ["subsets", "--train", "train.jsonl", "--test", "test.jsonl", "--vocab", "vocab.json",
     "--out-dir", "subsets"],
    *(["perturb", "--method", method, "--intensity", "0.3", "--alpha", "2", "--seed", "3",
       "--dataset", "test.jsonl", "--vocab", "vocab.json", "--embeddings", "emb.txt",
       "--stats", "stats.json", "--zs", "subsets/zs_triplets.json",
       "--out-dataset", f"{method}.jsonl", "--out-records", f"{method}_records.jsonl"]
      for method in ("graphn", "oracle_zs")),
    ["hit-rate", "--records", "graphn_records.jsonl", "--perturbed", "graphn.jsonl",
     "--vocab", "vocab.json", "--reference", "zs=subsets/zs_triplets.json",
     "--reference", "few10=subsets/few10_triplets.json", "--out", "graphn_hits.json"],
    ["hit-rate", "--records", "oracle_zs_records.jsonl", "--perturbed", "oracle_zs.jsonl",
     "--vocab", "vocab.json", "--reference", "zs=subsets/zs_triplets.json",
     "--reference", "few100=subsets/few100_triplets.json", "--csv", "--out", "oracle_zs_hits.csv"],
    *(["eval", "--predictions", "preds.jsonl", "--gt", "test.jsonl", "--vocab", "vocab.json",
       *flags, "--out", out]
      for flags, out in [
          (["--per-image"], "recall.json"),
          (["--mode", "predcls", "--graph-constraint", "--k", "5", "--per-image"],
           "recall_gc_predcls.json"),
          (["--metric", "mean-recall", "--aggregate", "triplet", "--k", "10"], "mean_recall.json"),
          (["--mode", "sggen", "--k", "20", "--per-image"], "sggen.json"),
          (["--subset", "subsets/zs_triplets.json", "--k", "10", "--per-image"], "recall_zs.json"),
          (["--reweight-x", "0.5", "--stats", "stats.json", "--k", "8", "--csv"],
           "recall_reweighted.csv"),
      ]),
]


def write_inputs(root) -> None:
    rng = np.random.default_rng(31337)
    write_vocab(root / "vocab.json", VOCAB.object_names, VOCAB.predicate_names)
    train = [seeded_graph(rng, f"tr{i}") for i in range(300)]
    test = [seeded_graph(rng, f"te{i}") for i in range(40)]
    write_jsonl(root / "train.jsonl", [graph_to_obj(g) for g in train])
    write_jsonl(root / "test.jsonl", [graph_to_obj(g) for g in test])
    write_jsonl(root / "preds.jsonl", [prediction_line(rng, g, i) for i, g in enumerate(test)])
    with open(root / "emb.txt", "w", encoding="utf-8") as f:
        for name, row in zip(VOCAB.object_names, rng.integers(-3, 4, size=(OBJECTS, 5))):
            f.write(name + " " + " ".join(f"{v + 0.5:.1f}" for v in row) + "\n")


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    """Every report of COMMANDS, run from inside the directory so that the
    paths the reports quote are relative."""
    root = tmp_path_factory.mktemp("parity")
    write_inputs(root)
    with contextlib.chdir(root):
        for argv in COMMANDS:
            assert main(argv) == 0, argv
    return root


@pytest.mark.parametrize("report", sorted(REPORTS))
def test_report_bytes_unchanged(report_dir, report):
    assert hashlib.sha256((report_dir / report).read_bytes()).hexdigest() == REPORTS[report]


coordinate = st.one_of(st.integers(0, 60), st.floats(0, 60, allow_nan=False))


@st.composite
def graphs(draw, image_id: str) -> SceneGraph:
    nodes = []
    for category in draw(st.lists(st.integers(0, OBJECTS - 1), max_size=6)):
        x1, y1, w, h = (draw(coordinate) for _ in range(4))
        nodes.append(ObjectNode(category, BoundingBox(x1, y1, x1 + w + 0.5, y1 + h + 0.5)))
    edges = []
    if len(nodes) > 1:
        for _ in range(draw(st.integers(0, 8))):
            s, o = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=2, max_size=2,
                                 unique=True))
            edges.append(Relationship(s, draw(st.integers(0, PREDICATES - 1)), o))
    return SceneGraph(image_id, draw(st.integers(1, 4000)), draw(st.integers(1, 4000)),
                      tuple(nodes), tuple(edges))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(*(graphs(f"img{i}") for i in range(n)))))
def test_save_then_load_round_trips(tmp_path_factory, graph_tuple):
    dataset = Dataset(VOCAB, graph_tuple)
    path = tmp_path_factory.mktemp("round") / "d.jsonl"
    save_dataset(dataset, path)
    assert load_dataset(path, VOCAB) == dataset


def model_accepts(category, corners, edge, width=96) -> bool:
    """The model constructors' and `SceneGraph.validate`'s verdict on a
    two-node graph whose first node and only edge are given."""
    try:
        nodes = (ObjectNode(category, BoundingBox(*map(float, corners))),
                 ObjectNode(0, BoundingBox(0.0, 0.0, 1.0, 1.0)))
        SceneGraph("g", width, 80, nodes, (Relationship(*edge),)).validate(VOCAB)
    except ValueError:
        return False
    return True


value = st.sampled_from([-1, 0, 1, 3, OBJECTS - 1, OBJECTS, 1e9]) | st.floats(-2, 70)
special = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@settings(max_examples=300, deadline=None)
@given(category=st.sampled_from([-1, 0, 2, OBJECTS - 1, OBJECTS]),
       corners=st.lists(value | special, min_size=4, max_size=4),
       edge=st.lists(st.sampled_from([-1, 0, 1, 2, PREDICATES - 1, PREDICATES]), min_size=3,
                     max_size=3),
       width=st.sampled_from([-1, 0, 96]))
def test_loader_accepts_exactly_what_the_model_accepts(tmp_path_factory, category, corners,
                                                       edge, width):
    """The one-pass check in `load_dataset` stands in for the constructors'
    checks, so both must draw the line in the same place."""
    line = {"image_id": "g", "width": width, "height": 80,
            "objects": [{"category": category, "box": corners},
                        {"category": 0, "box": [0, 0, 1, 1]}],
            "relationships": [dict(zip(("subject", "predicate", "object"), edge))]}
    path = tmp_path_factory.mktemp("accept") / "d.jsonl"
    path.write_text(json.dumps(line) + "\n")
    try:
        load_dataset(path, VOCAB)
        loaded = True
    except ValueError as e:
        assert str(e).startswith(f"{path}:1")
        loaded = False
    assert loaded == model_accepts(category, corners, edge, width)


DATASET_DEFECTS = {
    "negative box": {"objects": [{"category": 0, "box": [-1, 0, 5, 5]}]},
    "NaN box": {"objects": [{"category": 0, "box": [0, 0, float("nan"), 5]}]},
    "inf box": {"objects": [{"category": 0, "box": [0, 0, float("inf"), 5]}]},
    "degenerate box": {"objects": [{"category": 0, "box": [5, 0, 5, 5]}]},
    "category outside vocabulary": {"objects": [{"category": OBJECTS, "box": [0, 0, 5, 5]}]},
    "negative category": {"objects": [{"category": -1, "box": [0, 0, 5, 5]}]},
    "predicate outside vocabulary": {
        "relationships": [{"subject": 0, "predicate": PREDICATES, "object": 1}]},
    "self-loop": {"relationships": [{"subject": 1, "predicate": 0, "object": 1}]},
    "edge out of range": {"relationships": [{"subject": 0, "predicate": 0, "object": 2}]},
    "negative edge end": {"relationships": [{"subject": -1, "predicate": 0, "object": 1}]},
    "zero width": {"width": 0},
    **{f"{key} {name}": {key: value}
       for key in ("objects", "relationships")
       for name, value in (("number", 5), ("null", None), ("bool", True), ("object", {}),
                           ("string", ""))},
}


@pytest.mark.parametrize("defect", sorted(DATASET_DEFECTS))
def test_dataset_defect_exit_2_naming_file_and_line(tmp_path, capsys, defect):
    write_vocab(tmp_path / "vocab.json", VOCAB.object_names, VOCAB.predicate_names)
    good = {"image_id": "a", "width": 96, "height": 80,
            "objects": [{"category": 0, "box": [0, 0, 5, 5]}, {"category": 1, "box": [1, 1, 9, 9]}],
            "relationships": [{"subject": 0, "predicate": 0, "object": 1}]}
    bad = {**good, "image_id": "b", **DATASET_DEFECTS[defect]}
    if "objects" in DATASET_DEFECTS[defect]:
        bad["relationships"] = []
    train = tmp_path / "train.jsonl"
    train.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    argv = ["stats", "--train", train, "--vocab", tmp_path / "vocab.json",
            "--out", tmp_path / "s.json"]
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"error: {train}:2" in err and "'b'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "s.json").exists()


def test_duplicate_stats_triplet_exit_2_naming_file(report_dir, capsys, tmp_path):
    rows = json.loads((report_dir / "stats.json").read_text())["triplets"]
    side = tmp_path / "stats.json"
    side.write_text(json.dumps({"triplets": [*rows, {**rows[3], "count": 1}]}))
    argv = ["perturb", "--method", "graphn", "--dataset", report_dir / "test.jsonl",
            "--vocab", report_dir / "vocab.json", "--embeddings", report_dir / "emb.txt",
            "--stats", side, "--out-dataset", tmp_path / "p.jsonl",
            "--out-records", tmp_path / "r.jsonl"]
    assert main([str(a) for a in argv]) == 2
    r = rows[3]
    assert (f"error: {side}: duplicate triplet Triplet(subject_category={r['s']}, "
            f"predicate={r['p']}, object_category={r['o']}) in frequency table"
            in capsys.readouterr().err)
    assert not (tmp_path / "p.jsonl").exists()
