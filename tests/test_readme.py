"""README's "Library use" example runs as written, on small fixture files, so
the library's documented entry point cannot drift from the code."""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from sggkit.ingest import graph_to_obj

from .conftest import make_graph, write_jsonl, write_vocab

README = Path(__file__).resolve().parent.parent / "README.md"
OBJECTS = ("person", "surfboard", "wave", "dog", "cat", "horse", "tree")


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def write_fixtures(root: Path) -> None:
    """The files the example reads: a vocabulary, train and test splits whose few
    categories repeat compositions often enough for graphn's alpha of 5, and a
    GloVe-style embedding file with one word per category."""
    rng = np.random.default_rng(7)
    write_vocab(root / "vocab.json", OBJECTS, ("on", "above", "near"))
    for name, n in (("train", 60), ("test", 20)):
        graphs = [make_graph(f"{name}{i}", rng.integers(0, 3, size=4).tolist(),
                             [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 0, 0)])
                  for i in range(n)]
        write_jsonl(root / f"{name}.jsonl", [graph_to_obj(g) for g in graphs])
    with open(root / "glove.txt", "w", encoding="utf-8") as f:
        for word in OBJECTS:
            f.write(word + "".join(f" {v:.4f}" for v in rng.normal(size=4)) + "\n")


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_library_use"}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0.0 <= float(printed[0]) <= 100.0
    records = namespace["records"]
    assert len(records) == 60
    assert sum(len(r.replacements) for r in records) > 0
    assert namespace["record"].image_id == "train0"
