"""Output files written while a command still reads its input: each is written beside
the file it replaces, and replaces it only once the command has succeeded. Only the
commands that stream (`stats`, `subsets` and `perturb`) import this module."""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from stat import S_IMODE, S_ISREG
from typing import TYPE_CHECKING, Iterable

from .ingest import graph_line

if TYPE_CHECKING:
    from .ingest import PerturbationRecord
    from .model import SceneGraph


def resolve(paths) -> list[tuple[str, int | None]]:
    """(the file each path resolves to, its st_mode or None if it does not exist). Two
    paths to one file that would be replaced are a ValueError."""
    resolved = []
    for path in paths:
        target = os.path.realpath(path)
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = None
        if (mode is None or S_ISREG(mode)) and any(target == seen for seen, _ in resolved):
            raise ValueError(f"two outputs name the same file, {target}")
        resolved.append((target, mode))
    return resolved


@contextmanager
def replacing(*paths: str | Path):
    """UTF-8 text files to write `paths` through. Each is a temporary file beside the file
    its path resolves to, created anew (mode "x"), that replaces that file, with its
    mode bits, once the block has run; an error leaves every file as it was, and no
    temporary file. A path to an existing file that is not a regular one, such as
    /dev/null or a FIFO, is written directly and never replaced."""
    files, temporaries = [], []
    try:
        for target, mode in resolve(paths):
            if mode is not None and not S_ISREG(mode):
                files.append(open(target, "w", encoding="utf-8"))
                continue
            temporary = f"{target}.{os.getpid()}.tmp"
            files.append(open(temporary, "x", encoding="utf-8"))
            temporaries.append((temporary, target, mode))
        yield files
        for f in files:
            f.close()
        for temporary, target, mode in temporaries:
            if mode is not None:
                os.chmod(temporary, S_IMODE(mode))
            os.replace(temporary, target)
    finally:
        for f in files:
            f.close()
        for temporary, _, _ in temporaries:
            if os.path.lexists(temporary):
                os.unlink(temporary)


def write_perturbed(perturbed: Iterable[tuple[SceneGraph, PerturbationRecord]],
                    dataset_file, records_file) -> tuple[int, int, int]:
    """Write each (graph, record) of `perturbed`, taken one at a time and not kept, as a
    `graph_line` and a compact JSON line; (graphs, nodes changed, edges touched)."""
    graphs = changed = touched = 0
    for graph, record in perturbed:
        dataset_file.write(graph_line(graph))
        records_file.write(json.dumps(record.to_json_obj(), separators=(",", ":")) + "\n")
        graphs += 1
        changed += len(record.replacements)
        touched += len(record.affected_edges)
        del graph, record  # so that two graphs are never held at once
    return graphs, changed, touched
