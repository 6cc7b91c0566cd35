"""Same bytes on every supported Python. The commands that need no numpy run under each
other CPython 3.10+ found on PATH or under `pyenv root`, and every file they write must
hash as it does under this interpreter. The run under this interpreter also pins that
those commands stay numpy-free, since only then can they run where numpy is missing."""
from __future__ import annotations

import glob
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sggkit
from sggkit.ingest import graph_to_obj

from .conftest import make_graph, write_jsonl, write_vocab
from .lm_stub import stub_lm_server

SRC = os.path.dirname(os.path.dirname(sggkit.__file__))
PROBE = ("import platform, sys; print(platform.python_implementation(), "
         "sys.version_info >= (3, 10), sys.executable)")
# Runs each command in turn; prints the exit codes and whether numpy loaded.
DRIVER = ("import json, sys\n"
          "from sggkit.cli import main\n"
          "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
          "print(codes, 'numpy' in sys.modules)")


def _run(python: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([python, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def other_interpreters() -> list[str]:
    """Each other CPython 3.10+ on PATH or under `pyenv root`, once per executable."""
    candidates = []
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        for name in ("python3", *(f"python3.{minor}" for minor in range(10, 20))):
            path = os.path.join(directory, name)
            if os.path.isfile(path) and os.access(path, os.X_OK):
                candidates.append(path)
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True,
                              timeout=30).stdout.strip()
        if root:
            candidates += sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3")))
    found = {os.path.realpath(sys.executable): None}
    for path in candidates:
        try:
            probe = _run(path, "-c", PROBE, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = probe.stdout.split(maxsplit=2)
        if probe.returncode or fields[:2] != ["CPython", "True"]:
            continue  # a shim with no version selected, another implementation, or < 3.10
        found.setdefault(os.path.realpath(fields[2].strip()), path)
    return [path for path in found.values() if path is not None]


def text_score(text: str, target: str) -> float:
    """A score fixed by the query, of mixed magnitude, so the order of a sum shows."""
    digest = hashlib.sha256(f"{target}|{text}".encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2**64 * 10.0 ** (digest[8] % 13 - 6)


def write_inputs(root: Path) -> None:
    """A 150-graph train split, a 40-graph test split with compositions the train split
    lacks, and predictions for 10 graphs."""
    draw = random.Random(21)
    objects = ("person", "surfboard", "wave", "dog", "cat", "kite", "sand", "hat")
    predicates = ("on", "above", "near")
    write_vocab(root / "vocab.json", objects, predicates)

    def graphs(prefix: str, count: int, max_nodes: int, max_edges: int, categories: int):
        out = []
        for i in range(count):
            n = draw.randint(2, max_nodes)
            edges = [(s, draw.randrange(len(predicates)), o) for s, o in
                     (draw.sample(range(n), 2) for _ in range(draw.randint(0, max_edges)))]
            out.append(make_graph(f"{prefix}{i}", [draw.randrange(categories) for _ in range(n)],
                                  edges, width=300))
        return out

    write_jsonl(root / "train.jsonl", [graph_to_obj(g) for g in graphs("tr", 150, 7, 10, 6)])
    write_jsonl(root / "test.jsonl", [graph_to_obj(g) for g in graphs("te", 40, 5, 6, 8)])
    gt = graphs("gt", 10, 8, 8, 8)
    write_jsonl(root / "gt.jsonl", [graph_to_obj(g) for g in gt])
    write_jsonl(root / "predictions.jsonl", [{
        "image_id": g.image_id,
        "object_scores": [[0.5625 if c == peak else 0.0625 for c in range(len(objects))]
                          for peak in (draw.choice((node.category, draw.randrange(len(objects))))
                                       for node in g.nodes)],
        "pairs": [{"subject": s, "object": o, "predicate_scores": [
            draw.choice((0.0, 0.125, 0.25, 0.5, 1.0)) for _ in predicates]}
            for s in range(g.num_nodes) for o in range(g.num_nodes) if s != o],
        "boxes": [[b.x1, b.y1, b.x2, b.y2] for b in (node.box for node in g.nodes)],
    } for g in gt])
    (root / "zs.json").write_text(json.dumps({"triplets": [
        {"s": s, "p": p, "o": o} for s in range(len(objects)) for p in range(len(predicates))
        for o in range(len(objects)) if (s + p + o) % 3 == 0]}))
    (root / "predicate_freq.json").write_text(json.dumps({"predicate_freq": [0.5, 0.25, 0.25]}))


def commands(i: Path, w: Path, endpoint: str) -> list[list[str]]:
    """The numpy-free commands, reading inputs under `i` and writing under `w`."""
    vocab = ["--vocab", f"{i}/vocab.json"]
    perturb = ["--intensity", "0.5", "--seed", "3", "--dataset", f"{i}/train.jsonl", *vocab]
    eval_base = ["eval", "--predictions", f"{i}/predictions.jsonl", "--gt", f"{i}/gt.jsonl",
                 *vocab]
    evals = {
        "recall": ["--mode", "sgcls", "--k", "100"],
        "recall_gc": ["--mode", "predcls", "--k", "50", "--graph-constraint",
                      "--subset", f"{i}/zs.json"],
        "mean_recall": ["--metric", "mean-recall", "--mode", "sgcls", "--k", "100",
                        "--reweight-x", "1", "--stats", f"{i}/predicate_freq.json"],
        "sggen": ["--mode", "sggen", "--k", "100"],
    }
    plausibility = ["plausibility", *vocab, "--endpoint", endpoint, "--jobs", "2"]
    return [
        ["stats", "--train", f"{i}/train.jsonl", *vocab, "--out", f"{w}/stats.json"],
        ["subsets", "--train", f"{i}/train.jsonl", "--test", f"{i}/test.jsonl", *vocab,
         "--out-dir", f"{w}/subsets"],
        ["perturb", "--method", "rand", *perturb,
         "--out-dataset", f"{w}/rand.jsonl", "--out-records", f"{w}/rand_records.jsonl"],
        ["perturb", "--method", "oracle_zs", *perturb, "--zs", f"{w}/subsets/zs_triplets.json",
         "--out-dataset", f"{w}/oracle_zs.jsonl",
         "--out-records", f"{w}/oracle_zs_records.jsonl"],
        ["hit-rate", "--records", f"{w}/oracle_zs_records.jsonl",
         "--perturbed", f"{w}/oracle_zs.jsonl", *vocab,
         "--reference", f"zs={w}/subsets/zs_triplets.json",
         "--reference", f"few10={w}/subsets/few10_triplets.json", "--out", f"{w}/hits.json"],
        *(eval_base + flags + ["--out", f"{w}/{name}.json"] for name, flags in evals.items()),
        [*plausibility, "--dataset", f"{w}/rand.jsonl", "--records", f"{w}/rand_records.jsonl",
         "--seed", "1", "--out", f"{w}/plausibility_rand.json"],
        [*plausibility, "--dataset", f"{i}/train.jsonl", "--seed", str(2**64),
         "--out", f"{w}/plausibility_train.json"],
    ]


def output_hashes(w: Path) -> dict[str, str]:
    return {str(p.relative_to(w)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(w.rglob("*")) if p.is_file()}


def test_numpy_free_commands_write_the_same_bytes_on_every_interpreter(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython 3.10+ on PATH or under pyenv root")
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    write_inputs(inputs)
    hashes = {}
    with stub_lm_server(text_score) as (url, _):
        for k, python in enumerate([sys.executable, *others]):
            work = tmp_path / f"run{k}"
            work.mkdir()
            argv = commands(inputs, work, url)
            run = _run(python, "-c", DRIVER, json.dumps(argv), timeout=600)
            assert run.returncode == 0, f"{python}: {run.stderr}"
            assert run.stdout.split("\n")[0] == f"{[0] * len(argv)} False", (python, run.stderr)
            hashes[python] = output_hashes(work)
    reference = hashes.pop(sys.executable)
    for python, got in hashes.items():
        assert got == reference, python
