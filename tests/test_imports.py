"""The import surface: the CLI loads library modules only when a subcommand
runs them, every name the package exports still imports, and every
annotation resolves."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import sggkit
from sggkit.cli import build_parser

# Every name `sggkit/__init__.py` exports.
EXPORTED = [
    "BoundingBox", "ObjectNode", "Relationship", "SceneGraph", "Triplet", "Vocabulary",
    "categorical_triplets", "degree",
    "Dataset", "EmbeddingTable", "ParseError", "load_dataset", "load_embeddings",
    "load_feature_matrix", "load_predictions", "load_vocabulary", "save_dataset",
    "ShotSubsets", "SubsetBucket", "TripletFrequencyTable", "build_frequency_table",
    "marginal_distributions", "predicate_frequencies", "shot_subsets",
    "CannotPerturbError", "PerturbationConfig", "PerturbationRecord", "PerturbationResources",
    "graphn_candidates", "perturb_dataset", "perturb_graph", "sample_nodes",
    "semantic_neighbors",
    "FrequencyStubScorer", "HttpScorer", "PlausibilityQuery", "ScorerError", "build_query",
    "hit_rate", "score_graphs",
    "PairScores", "PredictedGraph", "RankedTriplet", "iou", "mean_recall", "rank_triplets",
    "recall_at_k", "recall_details", "reweight_scores",
    "PRDCResult", "frechet_distance", "knn_radii", "precision_recall_density_coverage",
    "summarize_feature_report",
    "ProbTable", "adv_d_loss", "adv_g_loss", "adv_totals", "box_margin_l1", "cls_loss",
    "edge_loss", "node_loss", "rec_loss", "total_loss",
]
SUBMODULES = ["model", "ingest", "stats", "perturb", "quality", "evaluation", "featmetrics",
              "losses"]


def run_python(code: str) -> str:
    src = os.path.dirname(os.path.dirname(sggkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_cli_import_loads_no_library_module():
    loaded = run_python(
        "import sys, sggkit.cli\n"
        "sggkit.cli.build_parser().parse_args(['stats', '--train', 't', '--vocab', 'v',"
        " '--out', 'o'])\n"
        f"print(sorted(m for m in {SUBMODULES!r} if 'sggkit.' + m in sys.modules))"
    )
    assert loaded == "[]"


def _array_free_inputs(tmp_path) -> dict[str, str]:
    """A vocabulary, train and test splits, one perturbed graph and its record."""
    from sggkit.ingest import PerturbationRecord, graph_to_obj

    from .conftest import CAT, DOG, ON, PERSON, SURFBOARD, make_graph, write_jsonl, write_vocab

    write_vocab(tmp_path / "vocab.json", ("person", "surfboard", "wave", "dog", "cat"),
                ("on", "above", "near"))
    for name, graphs in (
        ("train", [make_graph("a", [PERSON, SURFBOARD], [(0, ON, 1)])]),
        ("test", [make_graph("t", [CAT, SURFBOARD], [(0, ON, 1)])]),
        ("perturbed", [make_graph("p", [CAT, SURFBOARD], [(0, ON, 1)])]),
    ):
        write_jsonl(tmp_path / f"{name}.jsonl", [graph_to_obj(g) for g in graphs])
    write_jsonl(tmp_path / "records.jsonl",
                [PerturbationRecord("p", ((0, DOG, CAT),), (0,)).to_json_obj()])
    return {name: str(tmp_path / name) for name in ("vocab.json", "train.jsonl", "test.jsonl",
                                                     "perturbed.jsonl", "records.jsonl")}


def test_commands_without_array_work_load_no_numpy(tmp_path):
    """stats, subsets and hit-rate in one fresh process, after the record type
    is imported from the package: numpy never loads, nor does the perturb
    module."""
    files = _array_free_inputs(tmp_path)
    commands = [
        ["stats", "--train", files["train.jsonl"], "--vocab", files["vocab.json"],
         "--out", str(tmp_path / "stats.json")],
        ["subsets", "--train", files["train.jsonl"], "--test", files["test.jsonl"],
         "--vocab", files["vocab.json"], "--out-dir", str(tmp_path / "subsets")],
        ["hit-rate", "--records", files["records.jsonl"], "--perturbed", files["perturbed.jsonl"],
         "--vocab", files["vocab.json"], "--out", str(tmp_path / "hits.json"),
         "--reference", f"zs={tmp_path / 'subsets' / 'zs_triplets.json'}"],
    ]
    watched = ["numpy", "sggkit.perturb"]
    loaded = run_python(
        "import sys\n"
        "from sggkit import PerturbationRecord\n"
        f"print([m for m in {watched!r} if m in sys.modules])\n"
        "from sggkit.cli import main\n"
        f"print([main(argv) for argv in {commands!r}])\n"
        f"print([m for m in {watched!r} if m in sys.modules])"
    )
    assert loaded.splitlines() == ["[]", "[0, 0, 0]", "[]"]
    hits = json.loads((tmp_path / "hits.json").read_text())["hit_rates"]["zs"]
    assert (hits["hits"], hits["total"]) == (1, 1)


def test_plausibility_loads_no_numpy(tmp_path):
    """plausibility --records in a fresh process, against a scoring service in this one,
    draws from the plain-Python generator, averages in plain Python and sends its queries
    over plain sockets: neither numpy nor the stats module loads, nor `http.client` and
    the `ssl` and `email` modules it brings."""
    from .lm_stub import stub_lm_server

    files = _array_free_inputs(tmp_path)
    watched = ["numpy", "sggkit.stats", "http.client", "ssl", "email"]
    with stub_lm_server(lambda text, target: 0.5) as (url, state):
        argv = ["plausibility", "--dataset", files["perturbed.jsonl"], "--vocab",
                files["vocab.json"], "--records", files["records.jsonl"], "--endpoint", url,
                "--out", str(tmp_path / "plausibility.json")]
        loaded = run_python(
            "import sys\n"
            "from sggkit.cli import main\n"
            f"print(main({argv!r}), [m for m in {watched!r} if m in sys.modules])"
        )
    assert loaded == "0 []"
    assert [payload for _, payload in state["requests"]] == [
        {"text": "[MASK] on surfboard", "target": "cat"}]
    assert json.loads((tmp_path / "plausibility.json").read_text())["mean_score"] == 0.5


def test_rand_and_oracle_zs_perturb_load_no_numpy(tmp_path):
    """Both methods draw from the plain-Python generator and build no array, so a
    fresh process that runs them never loads numpy."""
    from sggkit.ingest import graph_to_obj

    from .conftest import CAT, DOG, ON, PERSON, SURFBOARD, make_graph, write_jsonl, write_vocab

    write_vocab(tmp_path / "vocab.json", ("person", "surfboard", "wave", "dog", "cat"),
                ("on", "above", "near"))
    write_jsonl(tmp_path / "train.jsonl", [graph_to_obj(g) for g in (
        make_graph("a", [PERSON, SURFBOARD], [(0, ON, 1)]),
        make_graph("b", [CAT, SURFBOARD, DOG], [(0, ON, 1), (2, ON, 1)]),
    )])
    (tmp_path / "zs.json").write_text(json.dumps({"triplets": [
        {"s": s, "p": ON, "o": SURFBOARD} for s in (PERSON, DOG, CAT)]}))
    common = ["--dataset", str(tmp_path / "train.jsonl"), "--vocab", str(tmp_path / "vocab.json"),
              "--intensity", "1"]
    commands = [
        ["perturb", "--method", method, *common, *extra,
         "--out-dataset", str(tmp_path / f"{method}.jsonl"),
         "--out-records", str(tmp_path / f"{method}_records.jsonl")]
        for method, extra in (("rand", []), ("oracle_zs", ["--zs", str(tmp_path / "zs.json")]))
    ]
    loaded = run_python(
        "import sys\n"
        "from sggkit.cli import main\n"
        f"print([main(argv) for argv in {commands!r}])\n"
        "print('numpy' in sys.modules, 'sggkit.perturb' in sys.modules)"
    )
    assert loaded.splitlines() == ["[0, 0]", "False True"]
    for method in ("rand", "oracle_zs"):
        records = (tmp_path / f"{method}_records.jsonl").read_text().splitlines()
        assert any(json.loads(line)["replacements"] for line in records)


def test_eval_loads_no_numpy(tmp_path):
    """The benchmark's four eval flag sets in one fresh process: score rows are arrays
    of doubles ranked in plain Python, so numpy never loads."""
    from sggkit.ingest import graph_to_obj

    from .conftest import ABOVE, CAT, ON, PERSON, SURFBOARD, make_graph, write_jsonl, write_vocab

    objects = ("person", "surfboard", "wave", "dog", "cat")
    write_vocab(tmp_path / "vocab.json", objects, ("on", "above", "near"))
    graph = make_graph("a", [PERSON, SURFBOARD, CAT], [(0, ON, 1), (2, ABOVE, 1)])
    write_jsonl(tmp_path / "gt.jsonl", [graph_to_obj(graph)])
    truth = {(e.subject, e.object): e.predicate for e in graph.edges}
    write_jsonl(tmp_path / "preds.jsonl", [{
        "image_id": "a",
        "object_scores": [[0.75 if c == node.category else 0.0625 for c in range(len(objects))]
                          for node in graph.nodes],
        "pairs": [{"subject": s, "object": o,
                   "predicate_scores": [0.5 if p == truth.get((s, o), ON) else 0.25
                                        for p in range(3)]}
                  for s in range(3) for o in range(3) if s != o],
        "boxes": [[node.box.x1, node.box.y1, node.box.x2, node.box.y2] for node in graph.nodes],
    }])
    (tmp_path / "zs.json").write_text(json.dumps({"triplets": [
        {"s": CAT, "p": ABOVE, "o": SURFBOARD}]}))
    (tmp_path / "stats.json").write_text(json.dumps({"predicate_freq": [0.5, 0.25, 0.25]}))
    base = ["eval", "--predictions", str(tmp_path / "preds.jsonl"),
            "--gt", str(tmp_path / "gt.jsonl"), "--vocab", str(tmp_path / "vocab.json")]
    commands = [
        base + flags + ["--out", str(tmp_path / f"{name}.json")]
        for name, flags in (
            ("recall", ["--mode", "sgcls", "--k", "100"]),
            ("recall_gc", ["--mode", "predcls", "--k", "50", "--graph-constraint",
                           "--subset", str(tmp_path / "zs.json")]),
            ("mean_recall", ["--metric", "mean-recall", "--mode", "sgcls", "--k", "100",
                             "--reweight-x", "1", "--stats", str(tmp_path / "stats.json")]),
            ("sggen", ["--mode", "sggen", "--k", "100"]),
        )
    ]
    loaded = run_python(
        "import sys\n"
        "from sggkit.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    print(main(argv), 'numpy' in sys.modules)"
    )
    assert loaded.splitlines() == ["0 False"] * 4
    for name in ("recall", "recall_gc", "mean_recall", "sggen"):
        assert json.loads((tmp_path / f"{name}.json").read_text())["value"] == 100.0


def test_large_predictions_load_without_numpy_and_rank_alike_both_ways(tmp_path):
    """A predictions file over 2 MiB loads without numpy, and the benchmark's four eval flag
    sets write the same bytes whether evaluation ranks in plain Python or with numpy."""
    import random

    from sggkit.ingest import graph_to_obj

    from .conftest import make_graph, write_jsonl, write_vocab

    rng = random.Random(3)
    n, num_objects, num_predicates = 28, 5, 3
    write_vocab(tmp_path / "vocab.json", ("person", "surfboard", "wave", "dog", "cat"),
                ("on", "above", "near"))
    graphs, predictions = [], []
    for i in range(48):
        cats = [rng.randrange(num_objects) for _ in range(n)]
        edges = {(rng.randrange(n), rng.randrange(n)): rng.randrange(num_predicates)
                 for _ in range(8)}
        graph = make_graph(f"g{i}", cats, [(s, p, o) for (s, o), p in edges.items() if s != o],
                           width=300)
        graphs.append(graph_to_obj(graph))
        predictions.append({
            "image_id": graph.image_id,
            "object_scores": [[0.75 if c == peak else 0.0625 for c in range(num_objects)]
                              for peak in (rng.choice((cat, cat, rng.randrange(num_objects)))
                                           for cat in cats)],
            "pairs": [{"subject": s, "object": o, "predicate_scores": [
                rng.choice((0.0, 0.125, 0.25, 0.5, 1.0)) for _ in range(num_predicates)]}
                for s in range(n) for o in range(n) if s != o],
            "boxes": [[b.x1, b.y1, b.x2, b.y2] for b in (node.box for node in graph.nodes)],
        })
    write_jsonl(tmp_path / "gt.jsonl", graphs)
    write_jsonl(tmp_path / "preds.jsonl", predictions)
    assert (tmp_path / "preds.jsonl").stat().st_size > 2 << 20
    (tmp_path / "zs.json").write_text(json.dumps({"triplets": [
        {"s": s, "p": p, "o": o} for s in range(num_objects) for p in range(num_predicates)
        for o in range(num_objects) if (s + p + o) % 3 == 0]}))
    (tmp_path / "stats.json").write_text(json.dumps({"predicate_freq": [0.5, 0.25, 0.25]}))
    base = ["eval", "--predictions", str(tmp_path / "preds.jsonl"),
            "--gt", str(tmp_path / "gt.jsonl"), "--vocab", str(tmp_path / "vocab.json")]
    runs = {
        "recall": ["--mode", "sgcls", "--k", "100"],
        "recall_gc": ["--mode", "predcls", "--k", "50", "--graph-constraint",
                      "--subset", str(tmp_path / "zs.json")],
        "mean_recall": ["--metric", "mean-recall", "--mode", "sgcls", "--k", "100",
                        "--reweight-x", "1", "--stats", str(tmp_path / "stats.json")],
        "sggen": ["--mode", "sggen", "--k", "100"],
    }
    commands = {kernel: [base + flags + ["--out", str(tmp_path / f"{name}_{kernel}.json")]
                         for name, flags in runs.items()]
                for kernel in ("rows", "matrix")}
    loaded = run_python(
        "import sys\n"
        "from sggkit import evaluation\n"
        "from sggkit.cli import main\n"
        "from sggkit.ingest import load_predictions, load_vocabulary\n"
        f"load_predictions({str(tmp_path / 'preds.jsonl')!r}, "
        f"load_vocabulary({str(tmp_path / 'vocab.json')!r}))\n"
        "print('numpy' in sys.modules)\n"
        f"print([main(argv) for argv in {commands['rows']!r}], 'numpy' in sys.modules)\n"
        "evaluation.MATRIX_CANDIDATES = 0\n"
        f"print([main(argv) for argv in {commands['matrix']!r}], 'numpy' in sys.modules)"
    )
    assert loaded.splitlines() == ["False", "[0, 0, 0, 0] False", "[0, 0, 0, 0] True"]
    for name in runs:
        rows = (tmp_path / f"{name}_rows.json").read_bytes()
        assert rows == (tmp_path / f"{name}_matrix.json").read_bytes()
        assert 0 < json.loads(rows)["value"] < 100


def test_perturb_methods_but_graphn_load_no_stats_module(tmp_path):
    """Only graphn reads a triplet table, so rand, neigh and oracle_zs in one fresh
    process never import (or, without bytecode, compile) `sggkit.stats`."""
    from sggkit.ingest import graph_to_obj

    from .conftest import CAT, DOG, ON, PERSON, SURFBOARD, make_graph, write_jsonl, write_vocab

    objects = ("person", "surfboard", "wave", "dog", "cat")
    write_vocab(tmp_path / "vocab.json", objects, ("on", "above", "near"))
    write_jsonl(tmp_path / "train.jsonl", [graph_to_obj(g) for g in (
        make_graph("a", [PERSON, SURFBOARD], [(0, ON, 1)]),
        make_graph("b", [CAT, SURFBOARD, DOG], [(0, ON, 1), (2, ON, 1)]),
    )])
    (tmp_path / "glove.txt").write_text(
        "".join(f"{name} {k} {k % 2} 1\n" for k, name in enumerate(objects)))
    (tmp_path / "zs.json").write_text(json.dumps({"triplets": [
        {"s": s, "p": ON, "o": SURFBOARD} for s in (PERSON, DOG, CAT)]}))
    common = ["--dataset", str(tmp_path / "train.jsonl"), "--vocab", str(tmp_path / "vocab.json"),
              "--intensity", "1"]
    neigh = ["--embeddings", str(tmp_path / "glove.txt"), "--top-k", "2"]
    commands = [
        ["perturb", "--method", method, *common, *extra,
         "--out-dataset", str(tmp_path / f"{method}.jsonl"),
         "--out-records", str(tmp_path / f"{method}_records.jsonl")]
        for method, extra in (("rand", []), ("neigh", neigh),
                              ("oracle_zs", ["--zs", str(tmp_path / "zs.json")]))
    ]
    loaded = run_python(
        "import sys\n"
        "from sggkit.cli import main\n"
        f"print([main(argv) for argv in {commands!r}])\n"
        "print('sggkit.perturb' in sys.modules, 'sggkit.stats' in sys.modules)"
    )
    assert loaded.splitlines() == ["[0, 0, 0]", "True False"]
    for method in ("rand", "neigh", "oracle_zs"):
        records = (tmp_path / f"{method}_records.jsonl").read_text().splitlines()
        assert any(json.loads(line)["replacements"] for line in records)


@pytest.mark.parametrize("counts, message", [
    ("{Triplet(0, 0, 1): 0}", "non-positive count 0 for Triplet(subject_category=0, "
                              "predicate=0, object_category=1)"),
    ("{Triplet(0, -1, 1): 2}", "negative category or predicate id in frequency table"),
    ("{Triplet(0, 0, 2**63): 2}", "frequency table id or count does not fit in 64 bits"),
    ("{Triplet(-2**63 - 1, 0, 1): 2}", "frequency table id or count does not fit in 64 bits"),
    ("{Triplet(0, 0, 1): 2**63}", "frequency table id or count does not fit in 64 bits"),
])
def test_dict_built_table_rejects_bad_values_without_numpy(counts, message):
    assert run_python(
        "import sys\n"
        "from sggkit.model import Triplet\n"
        "from sggkit.stats import TripletFrequencyTable\n"
        "try:\n"
        f"    TripletFrequencyTable({counts})\n"
        "except ValueError as e:\n"
        "    print(e)\n"
        "print('numpy' in sys.modules)"
    ).splitlines() == [message, "False"]


def test_every_exported_name_imports_from_package():
    """Each name through `from sggkit import <name>` in a fresh interpreter,
    where it is loaded lazily; prints the names that fail or come from
    outside the package."""
    failed = run_python(
        "failed = []\n"
        f"for name in {EXPORTED!r}:\n"
        "    try:\n"
        "        exec(f'from sggkit import {name} as value')\n"
        "        assert value.__module__.startswith('sggkit.')\n"
        "    except Exception:\n"
        "        failed.append(name)\n"
        "print(failed)"
    )
    assert failed == "[]"


def test_package_lists_every_exported_name():
    assert sorted(sggkit.__all__) == sorted(EXPORTED)
    assert set(EXPORTED) <= set(dir(sggkit))


def test_submodules_are_package_attributes():
    assert run_python(
        "import sggkit\n"
        f"print(all(getattr(sggkit, m).__name__ == 'sggkit.' + m for m in {SUBMODULES!r}))"
    ) == "True"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sggkit.no_such_name  # noqa: B018


def _option(command: str, dest: str):
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return next(a for a in sub._actions if a.dest == dest)


def test_parser_literals_match_the_library():
    from sggkit import evaluation, featmetrics, perturb, quality

    assert tuple(_option("perturb", "method").choices) == perturb.METHODS
    assert tuple(_option("eval", "mode").choices) == evaluation.MODES
    assert tuple(_option("eval", "aggregate").choices) == evaluation.AGGREGATES
    assert _option("feat-metrics", "k").default == featmetrics.DEFAULT_K
    assert _option("plausibility", "mask_token").default == quality.DEFAULT_MASK_TOKEN


def _type_checking_names(module) -> dict:
    """The names `module` imports under `if TYPE_CHECKING:`: a type checker
    sees them, the running module does not."""
    names: dict = {}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            code = compile(ast.Module(node.body, type_ignores=[]), module.__file__, "exec")
            exec(code, {"__name__": module.__name__, "__package__": "sggkit"}, names)
    return names


def _defined_in(module):
    """Every function, class and method `module` defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                member = member.fget if isinstance(member, property) else member
                if inspect.isfunction(member):
                    yield member


SOURCE_MODULES = sorted(
    "sggkit" if p.stem == "__init__" else f"sggkit.{p.stem}"
    for p in Path(sggkit.__file__).parent.glob("*.py")
)


@pytest.mark.parametrize("name", SOURCE_MODULES)
def test_every_annotation_resolves(name):
    """typing.get_type_hints on everything a module defines; no linter runs
    on this code, so a name used only in an annotation is checked here."""
    module = importlib.import_module(name)
    localns = _type_checking_names(module) or None
    defined = list(_defined_in(module))
    for obj in defined:
        typing.get_type_hints(obj, localns=localns)
    assert defined


# The names the benchmark's tracer (perfbench/child.py) wraps, and the parameters its
# hooks read from each call. The tracer traces nothing for a name that is missing, and
# says nothing, so a rename or a dropped parameter here must be made there as well.
TRACED = [
    ("ingest", "load_vocabulary", ["path"]),
    ("ingest", "load_embeddings", ["path"]),
    ("ingest", "load_feature_matrix", ["path"]),
    ("ingest", "load_dataset", ["path"]),
    ("ingest", "load_predictions", ["path"]),
    ("ingest", "save_dataset", ["path"]),
    ("cli", "_load_records", ["path"]),
    ("cli", "_write_json", ["path"]),
    ("cli", "_write_csv", ["path"]),
    ("stats", "build_frequency_table", []),
    ("stats", "TripletFrequencyTable.from_json_obj", []),
    ("stats", "shot_subsets", []),
    ("stats", "predicate_frequencies", []),
    ("stats", "marginal_distributions", []),
    ("stats", "triplet_set_to_json_obj", []),
    ("stats", "triplet_set_from_json_obj", []),
    ("perturb", "perturb_dataset", ["dataset", "cfg", "resources"]),
    ("quality", "hit_rate", []),
    ("quality", "score_graphs", []),
    ("quality", "HttpScorer.score", ["self", "text", "target"]),
    ("evaluation", "recall_details", ["predictions", "mode", "graph_constraint"]),
    ("evaluation", "mean_recall", ["predictions"]),
    ("featmetrics", "precision_recall_density_coverage", ["real", "fake"]),
    ("featmetrics", "frechet_distance", []),
]


@pytest.mark.parametrize("module, name, params", TRACED, ids=[f"{m}.{n}" for m, n, _ in TRACED])
def test_benchmark_traced_names_keep_their_parameters(module, name, params):
    owner = importlib.import_module(f"sggkit.{module}")
    *classes, attr = name.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # The tracer takes a class attribute from the class's own __dict__.
    func = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert func is not None, f"sggkit.{module}.{name} is gone"
    func = func.__func__ if isinstance(func, classmethod) else func
    assert set(params) <= set(inspect.signature(func).parameters), name


def test_benchmark_reads_per_image_from_the_recall_result():
    """The tracer's hook on `recall_details` counts `len(result.per_image)`; a renamed
    field would only raise its hook-error count."""
    from sggkit.evaluation import RecallResult

    assert "per_image" in {f.name for f in dataclasses.fields(RecallResult)}


@pytest.mark.parametrize("metric, traced", [("recall", "recall_details"),
                                            ("mean-recall", "mean_recall")])
def test_each_eval_reaches_one_traced_entry_point_once(tmp_path, monkeypatch, metric, traced):
    """A traced entry point that called the other would nest one span in the other and
    count the candidates twice."""
    from sggkit import cli, evaluation
    from sggkit.ingest import graph_to_obj

    from .conftest import ON, PERSON, SURFBOARD, make_graph, write_jsonl, write_vocab

    graph = make_graph("a", [PERSON, SURFBOARD], [(0, ON, 1)])
    write_vocab(tmp_path / "vocab.json", ("person", "surfboard", "wave", "dog", "cat"),
                ("on", "above", "near"))
    write_jsonl(tmp_path / "gt.jsonl", [graph_to_obj(graph)])
    write_jsonl(tmp_path / "preds.jsonl", [{
        "image_id": "a", "object_labels": [PERSON, SURFBOARD],
        "pairs": [{"subject": 0, "object": 1, "predicate_scores": [1.0, 0.0, 0.0]}],
    }])
    calls = []
    for name in ("recall_details", "mean_recall"):
        def counted(*args, _name=name, _func=getattr(evaluation, name), **kwargs):
            calls.append(_name)
            return _func(*args, **kwargs)
        monkeypatch.setattr(evaluation, name, counted)
    assert cli.main(["eval", "--predictions", str(tmp_path / "preds.jsonl"),
                     "--gt", str(tmp_path / "gt.jsonl"), "--vocab", str(tmp_path / "vocab.json"),
                     "--metric", metric, "--out", str(tmp_path / "eval.json")]) == 0
    assert calls == [traced]


def test_only_the_model_module_builds_objects_unchecked():
    """`object.__new__` skips a dataclass's checks; `model` keeps the one trusted
    build path (`_node`, `_edge`, `_graph`, `_dataset`), and no other module has one."""
    users = []
    for path in sorted(Path(sggkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                users.append(path.name)
    assert sorted(set(users)) == ["model.py"]
