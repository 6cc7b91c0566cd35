"""File formats and loaders: vocabularies, JSONL datasets, perturbation
records, triplet sets, GloVe-style embeddings, prediction files and feature matrices.

All formats are UTF-8 text with decimal floats. Unknown JSON keys are
ignored for forward compatibility.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii
from math import inf, isfinite, isnan
from operator import itemgetter
from pathlib import Path
from struct import Struct
from typing import TYPE_CHECKING, Iterable

from .model import (BoundingBox, Dataset, SceneGraph, Triplet, Vocabulary, _collector_paused,
                    _dataset, _edge, _graph, _node)

if TYPE_CHECKING:  # numpy loads in the functions that compute with arrays
    import numpy as np


class ParseError(ValueError):
    """Malformed or contract-violating input file."""


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """One row per object category, indexed by category id."""

    vectors: np.ndarray  # (num categories, dimension)
    _norms: np.ndarray = field(init=False, repr=False)
    _rankings: dict[int, tuple[int, ...]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        import numpy as np
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("embedding table must be a non-empty 2-d array")
        if not np.isfinite(v).all():
            raise ValueError("embedding table contains non-finite values")
        norms = np.linalg.norm(v, axis=1)
        zero = np.flatnonzero(norms == 0)
        if zero.size:
            raise ValueError(f"all-zero embedding vector for category ids {zero.tolist()}")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "_norms", norms)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def num_categories(self) -> int:
        return self.vectors.shape[0]

    def vector(self, category: int) -> np.ndarray:
        return self.vectors[category]

    def neighbor_ranking(self, category: int) -> tuple[int, ...]:
        """Every other category by descending cosine similarity to
        `category`, ties toward the lower id; computed once per category.
        `category` must lie in [0, num_categories)."""
        ranking = self._rankings.get(category)
        if ranking is None:
            if not 0 <= category < self.num_categories:
                raise ValueError(f"category {category} outside [0, {self.num_categories}), "
                                 f"the embedding table's categories")
            import numpy as np
            # One row against all: a V @ V.T Gram matrix can differ in the
            # last bit, and that can reorder near-ties.
            query = self.vectors[category]
            sims = (self.vectors @ query) / (self._norms * np.linalg.norm(query))
            order = np.argsort(-sims, kind="stable")
            ranking = self._rankings[category] = tuple(order[order != category].tolist())
        return ranking


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a JSON object with "objects" and "predicates" string arrays."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from e
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from e
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("objects", "predicates"):
        if key not in raw:
            raise ParseError(f"{path}: missing key {key!r}")
        if not isinstance(raw[key], list):
            raise ParseError(f"{path}: {key!r} must be an array")
    try:
        return Vocabulary(tuple(raw["objects"]), tuple(raw["predicates"]))
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e


def _not_utf8(path: str | Path, error: UnicodeDecodeError) -> ParseError:
    """The error for a file that does not decode as UTF-8, naming its first bad line. The
    file is read again, in binary, only after decoding failed; bytes.splitlines breaks
    lines where text-mode reading does, and no UTF-8 sequence holds a newline byte."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f.read().splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as e:
                return ParseError(f"{path}:{lineno}: not valid UTF-8: {e}")
    return ParseError(f"{path}: not valid UTF-8: {error}")


def _text_lines(path: str | Path):
    """The lines of a UTF-8 text file, as text-mode reading yields them."""
    with open(path, encoding="utf-8") as f:
        try:
            yield from f
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from e


def json_int(value) -> int:
    """`value` if it is a JSON integer; a bool, a string or any float (3.0
    included) is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _int_values(rows: list[dict], keys: tuple[str, ...]) -> list[int]:
    """`keys` of each row, row after row, each a JSON integer (`json_int`)."""
    flat = list(chain.from_iterable(map(itemgetter(*keys), rows)))
    if not set(map(type, flat)) <= {int}:
        for i, value in enumerate(flat):
            try:
                json_int(value)
            except TypeError as e:
                raise TypeError(f"row {i // len(keys)} {keys[i % len(keys)]!r}: {e}") from None
    return flat


def triplet_set_to_json_obj(triplets) -> list[dict]:
    return [
        {"s": t.subject_category, "p": t.predicate, "o": t.object_category}
        for t in sorted(triplets)
    ]


def triplet_set_from_json_obj(rows: list[dict]) -> frozenset[Triplet]:
    """The set of `triplet_set_to_json_obj` rows; ids must be JSON integers."""
    flat = _int_values(rows, ("s", "p", "o"))
    return frozenset(map(Triplet, flat[0::3], flat[1::3], flat[2::3]))


def iter_jsonl(path: str | Path):
    """Yield ("path:line", object) for each non-blank line of a JSON-Lines
    file. Every line must hold a JSON object whose "image_id" is a non-empty
    string not used on an earlier line."""
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{where}: invalid JSON: {e}") from e
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: expected a JSON object, got {type(obj).__name__}")
        image_id = obj.get("image_id")
        if not isinstance(image_id, str) or not image_id:
            raise ParseError(f"{where}: missing or empty 'image_id'")
        if image_id in first_line:
            raise ParseError(f"{where}: duplicate image_id {image_id!r} "
                             f"(first on line {first_line[image_id]})")
        first_line[image_id] = lineno
        yield where, obj
        del obj  # so that two lines' objects are never held at once


def json_number(value) -> float:
    """`value` as a float if it is a JSON number (an integer or a float); a
    bool or a string is a TypeError."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _context(where: str, image_id: str) -> str:
    return f"{where} (image_id={image_id!r})"


def _array(obj: dict, key: str, where: str, image_id: str) -> list:
    """obj[key] if it is a JSON array, [] if the key is absent."""
    value = obj.get(key, [])
    if type(value) is not list:
        raise ParseError(f"{_context(where, image_id)}: {key!r} must be a JSON array")
    return value


_NUMBER = (int, float)


def _graph_from_obj(obj: dict, vocab: Vocabulary, where: str) -> SceneGraph:
    """The graph on one dataset line. Each value is checked once, as it is read, for
    all that the model's constructors and `validate` check; they are not run again.
    Integers must be JSON integers and box corners JSON numbers (`json_int`,
    `json_number`); the checks are written out here, as this runs per value."""
    image_id = obj["image_id"]
    width, height = obj.get("width"), obj.get("height")
    if type(width) is not int or type(height) is not int or width <= 0 or height <= 0:
        raise ParseError(f"{_context(where, image_id)}: 'width' and 'height' must be positive "
                         f"JSON integers")

    nodes, num_objects = [], vocab.num_objects
    for i, o in enumerate(_array(obj, "objects", where, image_id)):
        try:
            category, (x1, y1, x2, y2) = o["category"], o["box"]
            if type(category) is not int or not (
                    type(x1) in _NUMBER and type(y1) in _NUMBER and type(x2) in _NUMBER
                    and type(y2) in _NUMBER):
                raise TypeError("expected an integer category and four JSON numbers")
            x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"{_context(where, image_id)}: malformed object {i}") from e
        # The chained comparisons also reject NaN, inf and negative corners.
        if not (0 <= category < num_objects and 0 <= x1 < x2 < inf and 0 <= y1 < y2 < inf):
            raise ParseError(f"{_context(where, image_id)}: object {i}: needs a category below "
                             f"|C|={num_objects} and a box with 0 <= x1 < x2, 0 <= y1 < y2, all "
                             f"finite; got category {category}, box {[x1, y1, x2, y2]}")
        nodes.append(_node(category, x1, y1, x2, y2))

    n, num_predicates = len(nodes), vocab.num_predicates
    edges = []
    for k, r in enumerate(_array(obj, "relationships", where, image_id)):
        try:
            s, p, o_ = r["subject"], r["predicate"], r["object"]
            if type(s) is not int or type(p) is not int or type(o_) is not int:
                raise TypeError("expected JSON integers")
        except (KeyError, TypeError) as e:
            raise ParseError(f"{_context(where, image_id)}: malformed relationship {k}") from e
        if s == o_ or not (0 <= s < n and 0 <= o_ < n and 0 <= p < num_predicates):
            raise ParseError(f"{_context(where, image_id)}: relationship {k}: needs two distinct "
                             f"nodes below n={n} and a predicate below |R|={num_predicates}; got "
                             f"({s}, {p}, {o_})")
        edges.append(_edge(s, p, o_))
    return _graph(image_id, width, height, tuple(nodes), tuple(edges))


@_collector_paused()
def load_dataset(path: str | Path, vocab: Vocabulary) -> Dataset:
    """Read a JSON-Lines dataset; one scene graph per line, file order kept,
    image ids unique. Each graph is checked once, as it is read."""
    graphs = tuple(_graph_from_obj(obj, vocab, where) for where, obj in iter_jsonl(path))
    return _dataset(vocab, graphs)


def graph_to_obj(graph: SceneGraph) -> dict:
    return {
        "image_id": graph.image_id,
        "width": graph.width,
        "height": graph.height,
        "objects": [
            {"category": n.category, "box": [n.box.x1, n.box.y1, n.box.x2, n.box.y2]}
            for n in graph.nodes
        ],
        "relationships": [
            {"subject": e.subject, "predicate": e.predicate, "object": e.object}
            for e in graph.edges
        ],
    }


def save_dataset(dataset: Dataset | Iterable[SceneGraph], path: str | Path) -> None:
    """Write graphs as JSON-Lines in the same schema `load_dataset` reads. Each line is
    `json.dumps(graph_to_obj(g), separators=(",", ":"))`, formatted directly: json writes
    an int or a float as its repr, which is what formatting one in an f-string gives."""
    graphs = dataset.graphs if isinstance(dataset, Dataset) else dataset
    with open(path, "w", encoding="utf-8") as f:
        for g in graphs:
            objects = ",".join(f'{{"category":{n.category},"box":[{n.box.x1},{n.box.y1},'
                               f'{n.box.x2},{n.box.y2}]}}' for n in g.nodes)
            edges = ",".join(f'{{"subject":{e.subject},"predicate":{e.predicate},'
                             f'"object":{e.object}}}' for e in g.edges)
            f.write(f'{{"image_id":{encode_basestring_ascii(g.image_id)},"width":{g.width},'
                    f'"height":{g.height},"objects":[{objects}],"relationships":[{edges}]}}\n')


# A records file (written by `perturb`, read by `hit-rate` and `plausibility`) holds one
# `PerturbationRecord.to_json_obj()` per JSON-Lines line, read back through `iter_jsonl`.
@dataclass(frozen=True)
class PerturbationRecord:
    """Per-graph ledger of replacements: which nodes changed and which edges
    (by index into the perturbed graph) now carry perturbed compositions."""

    image_id: str
    replacements: tuple[tuple[int, int, int], ...]  # (node, old category, new category)
    affected_edges: tuple[int, ...]

    def __post_init__(self):
        nodes = [n for n, _, _ in self.replacements]
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node index in perturbation record")
        for n, old, new in self.replacements:
            if old == new:
                raise ValueError(f"no-op replacement recorded for node {n}")

    def to_json_obj(self) -> dict:
        return {
            "image_id": self.image_id,
            "replacements": [
                {"node": n, "old": old, "new": new} for n, old, new in self.replacements
            ],
            "affected_edges": list(self.affected_edges),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PerturbationRecord":
        return cls(
            obj["image_id"],
            tuple((json_int(r["node"]), json_int(r["old"]), json_int(r["new"]))
                  for r in obj["replacements"]),
            tuple(json_int(e) for e in obj["affected_edges"]),
        )

    def check(self, graph: SceneGraph) -> None:
        """Raise ValueError unless this record describes `graph`, the
        perturbed graph of its image: each replaced node exists and now has
        its new category, and affected_edges is the ascending list of every
        edge touching a replaced node."""
        ctx = f"record image {self.image_id!r}"
        for n, _, new in self.replacements:
            if not 0 <= n < graph.num_nodes:
                raise ValueError(f"{ctx}: replaced node {n} out of range (n={graph.num_nodes})")
            if graph.nodes[n].category != new:
                raise ValueError(f"{ctx}: node {n} has category {graph.nodes[n].category}, "
                                 f"not its new category {new}")
        expected = _affected_edges(graph, (n for n, _, _ in self.replacements))
        if tuple(self.affected_edges) != expected:
            raise ValueError(f"{ctx}: affected_edges {list(self.affected_edges)} are not the "
                             f"edges touching the replaced nodes, {list(expected)}")


def _affected_edges(graph: SceneGraph, changed: Iterable[int]) -> tuple[int, ...]:
    changed = set(changed)
    return tuple(
        k
        for k, e in enumerate(graph.edges)
        if e.subject in changed or e.object in changed
    )


def load_embeddings(path: str | Path, vocab: Vocabulary) -> EmbeddingTable:
    """Read a word-embedding text file (token followed by D floats per line).

    A multi-word category name maps to the mean of its constituent-word
    vectors; words missing from the file are dropped from the mean, and a
    category resolving no word at all is an error.
    """
    import numpy as np
    needed: set[str] = set()
    for name in vocab.object_names:
        needed.update(name.split())

    word_vectors: dict[str, np.ndarray] = {}
    dim = None
    for lineno, line in enumerate(_text_lines(path), start=1):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if not values:
            raise ParseError(f"{path}:{lineno}: no vector components")
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ParseError(
                f"{path}:{lineno}: dimension {len(values)} != {dim} of earlier lines"
            )
        if token in needed and token not in word_vectors:
            try:
                vector = [float(v) for v in values]
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: bad float") from e
            if not all(map(isfinite, vector)):
                raise ParseError(f"{path}:{lineno}: non-finite value in the vector of "
                                 f"{token!r}")
            word_vectors[token] = np.array(vector, dtype=np.float64)
    if dim is None:
        raise ParseError(f"{path}: empty embedding file")

    rows = []
    unresolved = []
    for name in vocab.object_names:
        found = [word_vectors[w] for w in name.split() if w in word_vectors]
        if not found:
            unresolved.append(name)
            continue
        rows.append(np.mean(found, axis=0))
    if unresolved:
        raise ParseError(f"{path}: no embedding for categories: {', '.join(unresolved)}")
    try:
        return EmbeddingTable(np.stack(rows))
    except ValueError as e:
        raise ParseError(f"{path}: {e}") from e


def load_feature_matrix(path: str | Path) -> np.ndarray:
    """Read a TSV feature matrix: header line "N D", then N rows of D floats.

    Memory is sized from the rows actually read, never from the header alone,
    so a header claiming more rows than the file holds is an input error.
    """
    import numpy as np
    lines = _text_lines(path)
    header = next(lines, "").split()
    if len(header) != 2:
        raise ParseError(f"{path}:1: header must be 'N D'")
    try:
        n, d = int(header[0]), int(header[1])
    except ValueError as e:
        raise ParseError(f"{path}:1: header must be two integers") from e
    if n < 0 or d < 1:
        raise ParseError(f"{path}:1: invalid shape {n}x{d}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        row = len(rows)
        if row >= n:
            raise ParseError(f"{path}:{lineno}: more than {n} rows")
        values = line.split()
        if len(values) != d:
            raise ParseError(f"{path}:{lineno}: row {row} has {len(values)} values, expected {d}")
        try:
            rows.append(np.array([float(v) for v in values]))
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: row {row}: bad float") from e
        if not np.isfinite(rows[-1]).all():
            raise ParseError(f"{path}:{lineno}: row {row}: non-finite value")
    if len(rows) != n:
        raise ParseError(f"{path}:1: expected {n} rows, found {len(rows)}")
    return np.stack(rows) if rows else np.empty((0, d), dtype=np.float64)


@_collector_paused()
def load_predictions(path: str | Path, vocab: Vocabulary):
    """The list of `iter_predictions(path, vocab)`."""
    return list(iter_predictions(path, vocab))


def iter_predictions(path: str | Path, vocab: Vocabulary):
    """Yield the predicted graph of each line of a JSON-Lines file (schema in README
    "File formats"), in file order, without numpy: PredictedGraph stores the scores as
    array("d") rows. Neither a decoded line nor a yielded graph is kept once the next
    line is read."""
    return starmap(partial(_predicted_graph, vocab, Struct(f"{vocab.num_predicates}d").pack),
                   iter_jsonl(path))


def _predicted_graph(vocab: Vocabulary, pack, where: str, obj: dict):
    """The predicted graph on one line; `pack` packs one row of predicate scores."""
    from array import array

    from .evaluation import _NOT_BELOW_ONE, PairScores, PredictedGraph, _flagged

    image_id = obj["image_id"]
    ctx = _context(where, image_id)

    if "object_scores" in obj:
        scores = obj["object_scores"]
        try:  # float() alone would read [true, "1"] as [1.0, 1.0]
            types = set(map(type, chain.from_iterable(scores)))
            if not types <= {int, float} or not all(type(row) is list for row in scores):
                raise TypeError("expected arrays of JSON numbers")
            if int in types:
                list(map(float, chain.from_iterable(scores)))  # an int beyond a float
            if len(set(map(len, scores))) > 1:
                raise ValueError("rows differ in length")
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"{ctx}: malformed 'object_scores': {e}") from e
        if not scores or len(scores[0]) != vocab.num_objects:
            raise ParseError(
                f"{ctx}: 'object_scores' must be n x {vocab.num_objects}"
            )
    elif "object_labels" in obj:
        try:
            labels = [json_int(lab) for lab in _array(obj, "object_labels", where, image_id)]
        except TypeError as e:
            raise ParseError(f"{ctx}: malformed 'object_labels': {e}") from e
        for lab in labels:
            if not 0 <= lab < vocab.num_objects:
                raise ParseError(f"{ctx}: object label {lab} out of range")
        # a tuple, which holds no nodes when empty, where an empty list is 1-d
        scores = tuple([0.0] * lab + [1.0] + [0.0] * (vocab.num_objects - lab - 1)
                       for lab in labels)
    else:
        raise ParseError(f"{ctx}: need 'object_scores' or 'object_labels'")

    ends, rows, with_ints, r = [], [], [], vocab.num_predicates
    for k, p in enumerate(_array(obj, "pairs", where, image_id)):
        try:
            ends.append((json_int(p["subject"]), json_int(p["object"])))
            row = p["predicate_scores"]
        except (KeyError, TypeError) as e:
            raise ParseError(f"{ctx}: malformed pair {k}") from e
        types = set(map(type, row)) if type(row) is list else None
        if types is None or len(row) != r or not types <= {int, float}:
            raise ParseError(f"{ctx}: pair {k}: 'predicate_scores' must be {r} JSON numbers")
        rows.append(row)
        if int in types:
            with_ints.append(row)
    try:
        list(map(float, chain.from_iterable(with_ints)))  # an int beyond a float
    except OverflowError as e:
        raise ParseError(f"{ctx}: 'predicate_scores': {e}") from e
    # packed, a row converts about twice as fast as through array("d", row)
    packed = [array("d", pack(*row)) for row in rows]
    if _flagged(b"".join(packed), _NOT_BELOW_ONE):  # a score may lie outside [0, 1)
        for k, row in enumerate(rows):  # a NaN makes the sum NaN wherever min and max put it
            if not (0.0 <= min(row) and max(row) <= 1.0 and not isnan(sum(row))):
                raise ParseError(f"{ctx}: pair {k}: scores must lie in [0, 1]")
    pairs = tuple(PairScores(s, o, row) for (s, o), row in zip(ends, packed))

    boxes = None
    if obj.get("boxes") is not None:
        corners = _array(obj, "boxes", where, image_id)
        try:
            boxes = tuple(BoundingBox(*map(json_number, b)) for b in corners)
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"{ctx}: malformed 'boxes': {e}") from e

    try:
        return PredictedGraph(image_id, scores, pairs, boxes)
    except ValueError as e:
        raise ParseError(f"{ctx}: {e}") from e
