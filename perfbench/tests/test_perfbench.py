"""The benchmark's own tests: deterministic inputs, metric names that match
BENCHMARK.json, and a tiny-size smoke run of every workload.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _generate(out: Path, seed: int) -> dict[str, bytes]:
    out.mkdir()
    gen.make_augment(out, seed, n_train=30, n_test=20)
    gen.make_evaluate(out, seed, n_images=3)
    gen.make_features(out, seed, n=12)
    gen.make_plausibility(out, seed, n_graphs=10, intensity=0.2)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = _generate(tmp_path / "a", 7)
    assert first == _generate(tmp_path / "b", 7)
    other = _generate(tmp_path / "c", 8)
    assert set(other) == set(first)
    fixed = {"vocab.json", "stats.json"}  # the vocabulary and the predicate law do not vary
    assert all(other[name] != first[name] for name in first if name not in fixed)


def test_plausibility_records_match_the_perturbed_graphs(tmp_path):
    gen.make_plausibility(tmp_path, 5, n_graphs=40, intensity=0.2)
    graphs = run.read_jsonl(tmp_path / "perturbed.jsonl")
    records = run.read_jsonl(tmp_path / "records.jsonl")
    original = gen.Graphs(gen._rng(5, gen.TRAIN), 40, "pl")
    assert [g["image_id"] for g in graphs] == [r["image_id"] for r in records]
    for k, (graph, record) in enumerate(zip(graphs, records)):
        categories = [o["category"] for o in original.graph_obj(k)["objects"]]
        linked = {n for e in graph["relationships"] for n in (e["subject"], e["object"])}
        assert record["replacements"] and record["replacements"][0]["node"] in linked
        for r in record["replacements"]:
            assert r["old"] == categories[r["node"]] != r["new"]
            categories[r["node"]] = r["new"]
        assert [o["category"] for o in graph["objects"]] == categories


def test_sizes_do_not_depend_on_the_seed(tmp_path):
    totals = set()
    for seed in (1, 2):
        g = gen.Graphs(gen._rng(seed, gen.TRAIN), 55, "x")
        totals.add((int(g.nodes.sum()), int(g.edges.sum())))
        assert g.nodes.min() >= gen.NODES[0] and g.nodes.max() <= gen.NODES[1]
        assert g.edges.min() >= gen.EDGES[0] and g.edges.max() <= gen.EDGES[1]
        assert (g.subject != g.object).all()
        assert (g.predicate > 0).all()
    assert len(totals) == 1


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert end_to_end == run.END_TO_END
    assert per_layer == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [n for n, _ in end_to_end] + [n for n, _, _ in per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def _smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_of_every_workload(trace):
    result = _smoke(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else [(n, u) for n, u, _ in layers.PER_LAYER]
    for workload in run.WORKLOADS:
        for name, unit in expected:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
        if trace == 0:
            assert result["metrics"][f"{workload}.ok_share"]["value"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "features", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
