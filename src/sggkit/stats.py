"""Dataset statistics: triplet frequencies, shot subsets, predicate
frequencies and marginal category distributions.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable

# The triplet-set format is ingest's; its reader and writer are re-exported.
from .ingest import (_int_values, graph_line, triplet_set_from_json_obj,
                     triplet_set_to_json_obj)
from .model import (Dataset, SceneGraph, Triplet, Vocabulary, _dataset, _graph,
                    categorical_triplets)

if TYPE_CHECKING:  # numpy loads in the functions that compute with arrays
    from array import array

    import numpy as np

    # keys[a][b] = k for each key (a, b), whose members and counts are rows
    # bounds[k]:bounds[k + 1] of the two columns, ascending by key, then by member.
    _Index = tuple[dict[int, dict[int, int]], array, np.ndarray, np.ndarray]

FEW10_MAX = 10
FEW100_MAX = 100

# The "triplets" rows as this repository writes them, by the text that opens the array:
# compact (`perfbench/gen.py`) and `indent=2` (`sggkit stats`), with sorted keys. Each
# gives a row and its "," with the digits taken out, the text after the last row, and
# the text of a value slot left empty (each ":" of a row opens one).
_ROW_LAYOUTS = {
    b'"triplets":[': (b'{"count":,"o":,"p":,"s":},', b"", (b":,", b":}")),
    b'"triplets": [': (
        b'\n    {\n      "count": ,\n      "o": ,\n      "p": ,\n      "s": \n    },', b"\n  ",
        (b": ,", b": \n"))}
_DIGITS = b"0123456789"
_DIGITS_ONLY = bytes(c if c in _DIGITS else 32 for c in range(256))  # the rest to b" "


class TripletFrequencyTable:
    """Training-set count per categorical triplet, as a dict and as (s, p, o, count)
    int64 columns in row order. A table holds the form it was made from, the dict or,
    through `from_json_obj` and `from_stats_json`, the columns; the other is built on
    first use, as are graphn's two indexes, but for the (s, p) one of a table read from
    rows, which its duplicate check builds from the same sort."""

    def __init__(self, counts: dict[Triplet, int]):
        _check_counts(counts)
        self.counts = counts

    @cached_property
    def counts(self) -> dict[Triplet, int]:
        s, p, o, c = (a.tolist() for a in self._columns)
        return dict(zip(map(Triplet, s, p, o), c))

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        counts = self.counts
        return _columns_of([*chain.from_iterable((*t, c) for t, c in counts.items())], len(counts))

    def _count_values(self):
        """The counts, from the form the table already holds."""
        return self.counts.values() if "counts" in vars(self) else self._columns[3].tolist()

    def count(self, triplet: Triplet) -> int:
        return self.counts.get(triplet, 0)

    def __contains__(self, triplet: Triplet) -> bool:
        return triplet in self.counts

    @property
    def total_triplets(self) -> int:
        return sum(self._count_values())

    @property
    def distinct_triplets(self) -> int:
        return len(self._count_values())

    @cached_property
    def category_bound(self) -> int:
        """One more than the largest subject or object category; 0 when empty."""
        s, _, o, _ = self._columns
        return 1 + int(max(s.max(), o.max())) if len(s) else 0

    @cached_property
    def by_predicate_object(self) -> _Index:
        """Subject categories and counts indexed by (predicate, object category)."""
        s, p, o, c = self._columns
        return _index(p, o, s, c)

    @cached_property
    def by_subject_predicate(self) -> _Index:
        """Object categories and counts indexed by (subject category, predicate)."""
        s, p, o, c = self._columns
        return _index(s, p, o, c)

    @cached_property
    def _predicate_bound(self) -> int:
        """One more than the largest predicate; 0 when empty."""
        p = self._columns[1]
        return 1 + int(p.max()) if len(p) else 0

    def check_vocabulary(self, vocab: Vocabulary) -> None:
        """Reject the first triplet whose ids fall outside `vocab`. No id is negative, so
        a table within both bounds (computed once, then kept) passes at once, as it must:
        `perturb_graph` checks graphn's table on every call."""
        if (self.category_bound <= vocab.num_objects
                and self._predicate_bound <= vocab.num_predicates):
            return
        import numpy as np
        s, p, o, _ = self._columns
        outside = np.flatnonzero(
            (s >= vocab.num_objects) | (o >= vocab.num_objects) | (p >= vocab.num_predicates)
        )
        if outside.size:
            i = outside[0]
            raise ValueError(
                f"triplet (s={s[i]}, p={p[i]}, o={o[i]}) outside the vocabulary "
                f"(|C|={vocab.num_objects}, |R|={vocab.num_predicates})"
            )

    def to_json_obj(self) -> list[dict]:
        """Sorted, diff-stable listing of the table."""
        return [
            {"s": t.subject_category, "p": t.predicate, "o": t.object_category, "count": c}
            for t, c in sorted(self.counts.items())
        ]

    @classmethod
    def from_json_obj(cls, rows: list[dict]) -> "TripletFrequencyTable":
        """The table of `to_json_obj` rows, read straight into columns; ids
        and counts must be JSON integers, and each triplet is listed once."""
        return cls._of_columns(_columns_of(_int_values(rows, ("s", "p", "o", "count")), len(rows)))

    @classmethod
    def from_stats_json(cls, fp) -> "TripletFrequencyTable":
        """`from_json_obj(json.load(fp)["triplets"])` for a text file `fp`, and for a
        binary one read as text-mode reading decodes it: UTF-8, with universal newlines.
        Read straight from the bytes where `_layout_columns` shows the two the same, so
        a binary file's bytes are all the read holds of it; through it otherwise."""
        data = fp.read()
        if was_text := isinstance(data, str):  # kept as bytes alone, read as a binary file
            data = data.encode("utf-8", "surrogatepass")
        if (columns := _layout_columns(data)) is None:
            if was_text:
                text = data.decode("utf-8", "surrogatepass")
            else:
                text = data.decode("utf-8")
                if "\r" in text:
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
            del data
            return cls.from_json_obj(json.loads(text)["triplets"])
        del data  # before the checks, which take memory too
        return cls._of_columns(columns)

    @classmethod
    def _of_columns(cls, columns) -> "TripletFrequencyTable":
        """The table of (s, p, o, count) int64 columns, once no id is negative, every
        count is at least 1 and no triplet is listed twice."""
        import numpy as np
        table = cls.__new__(cls)
        table._columns = s, p, o, c = columns
        if (s < 0).any() or (p < 0).any() or (o < 0).any():
            raise ValueError(_NEGATIVE_ID)
        if (c < 1).any():
            i = int(np.flatnonzero(c < 1)[0])
            raise _count_error(Triplet(int(s[i]), int(p[i]), int(o[i])), int(c[i]))
        # A stable sort by (s, p, o) puts each repeat of a triplet after the row it
        # repeats; it is the (s, p) index's order too, so that index is built here.
        order = np.lexsort((o, p, s))
        repeats = order[_same_as_previous(order, (s, p, o))]
        if repeats.size:
            i = int(repeats.min())
            raise ValueError(f"duplicate triplet {Triplet(int(s[i]), int(p[i]), int(o[i]))} "
                             "in frequency table")
        table.by_subject_predicate = _index(s, p, o, c, order)
        return table


_TOO_WIDE = "frequency table id or count does not fit in 64 bits"
_NEGATIVE_ID = "negative category or predicate id in frequency table"


def _count_error(triplet: Triplet, count: int) -> ValueError:
    return ValueError(f"non-positive count {count} for {triplet}")


def _check_counts(counts: dict[Triplet, int]) -> None:
    """Reject, in the order `from_json_obj` does, a value outside int64, a
    negative id and a count below 1; plain Python, so numpy stays unloaded."""
    if not counts:
        return
    ids = list(chain.from_iterable(counts))
    values = [*ids, *counts.values()]
    if min(values) < -2**63 or max(values) >= 2**63:
        raise ValueError(_TOO_WIDE)
    if min(ids) < 0:
        raise ValueError(_NEGATIVE_ID)
    for triplet, count in counts.items():
        if count < 1:
            raise _count_error(Triplet(*triplet), count)


def _columns_of(values, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(subject, predicate, object, count) int64 columns of the `n` rows of the
    list `values`, which holds them flat, row after row."""
    import numpy as np
    try:
        return tuple(np.fromiter(islice(values, k, None, 4), np.int64, n) for k in range(4))
    except OverflowError as e:
        raise ValueError(_TOO_WIDE) from e


def _layout_columns(text: bytes):
    """The (s, p, o, count) int64 columns of the "triplets" rows of the UTF-8 `text` where
    they are laid out as in `_ROW_LAYOUTS` and shown to be what `json.loads` finds in the
    decoded text; else None. The rows array is taken to close at the first "]" after it,
    and it is shown thus:
    - `outside`, the text with "[]" for the array, has one `"triplets"` and no backslash,
      and decodes as UTF-8 (a BOM kept, as text-mode reading keeps it) to an object whose
      "triplets" is []. With no escape, each '"' in it delimits a string, so that
      `"triplets"` is the top-level key and the array its value;
    - each chunk, its digits taken out, is k rows of the layout, and none of its 4k value
      slots (from a ":" to the "," or "}" or line end after it) is left empty. Its digits
      parse to 4k numbers, one a run, so each slot holds one run and no digit stands
      elsewhere, in a key or between rows: objects of the four keys, each value a run;
    - each run parses to a value whose decimal, counted up to 18 digits, is as long as the
      run: a JSON integer below 10**18, with no leading zero, that `json` decodes alike.
    So the reference decodes the same rows, all JSON integers within int64, and hands
    `_of_columns` the same columns. Any other file goes to the reference, errors and all."""
    import numpy as np
    key = text.find(b'"triplets"')
    opening = text[key:text.find(b"[", key) + 1]
    if key < 0 or opening not in _ROW_LAYOUTS:
        return None
    (row, tail, empty), start = _ROW_LAYOUTS[opening], key + len(opening)
    close = text.find(b"]", start)
    outside = text[:start] + text[close:]
    try:
        if (close < 0 or outside.count(b'"triplets"') != 1 or b"\\" in outside
                or json.loads(outside.decode("utf-8"))["triplets"] != []):
            return None
    except (LookupError, TypeError, ValueError):
        return None
    columns = np.empty((4, text.count(b"}", start, close)), np.int64)
    at, done = start, 0
    while at < close:
        end = text.find(b"},", at + (1 << 18), close)  # chunks of 256K bytes and up
        end = close if end < 0 else end + 2
        chunk = text[at:end]
        skeleton = chunk.translate(None, _DIGITS)
        k = skeleton.count(b"}")
        if (not k or skeleton != (row * k if end < close else (row * k)[:-1] + tail)
                or any(e in chunk for e in empty)):
            return None
        values = np.fromstring(chunk.translate(_DIGITS_ONLY), np.int64, sep=" ")
        if len(values) != 4 * k or len(chunk) - len(skeleton) != 4 * k + np.searchsorted(
                10 ** np.arange(1, 18), values, "right").sum():
            return None
        columns[:, done:done + k] = values.reshape(k, 4).T
        at, done = end, done + k
    return tuple(columns[::-1])  # the layouts list count, o, p, s


def _same_as_previous(order, columns):
    """For each row in `order`, whether it equals the row before it in every one of
    `columns`. Compared column by column, no two keys merge for any int64 ids, and
    only one column is gathered at a time."""
    import numpy as np
    same = np.ones(len(order), bool)
    same[:1] = False
    for column in columns:
        x = column[order]
        same[1:] &= x[1:] == x[:-1]
    return same


def _index(a, b, member, count, order=None) -> _Index:
    """`member` and `count` sorted by (a, b, member), as `order` sorts them if given,
    with keys[a][b] = k for each distinct (a, b), whose rows are bounds[k]:bounds[k + 1]."""
    from array import array

    import numpy as np
    if order is None:
        order = np.lexsort((member, b, a))
    heads = np.flatnonzero(~_same_as_previous(order, (a, b)))
    first = order[heads]
    keys: dict[int, dict[int, int]] = {}
    for k, (x, y) in enumerate(zip(a[first].tolist(), b[first].tolist())):
        keys.setdefault(x, {})[y] = k
    return keys, array("q", [*heads.tolist(), len(order)]), member[order], count[order]


class _Tally:
    """The counts of graphs added one at a time: the edges of each triplet and the
    nodes of each object category. A predicate's edges are summed from its triplets'."""

    def __init__(self, vocab: Vocabulary):
        self.vocabulary = vocab
        self.graphs = 0
        self.triplets: Counter[Triplet] = Counter()
        self.objects = [0] * vocab.num_objects

    def add(self, graph: SceneGraph) -> None:
        self.graphs += 1
        self.triplets.update(categorical_triplets(graph))
        objects = self.objects
        for node in graph.nodes:
            objects[node.category] += 1

    def predicates(self) -> list[int]:
        counts = [0] * self.vocabulary.num_predicates
        for (_, p, _), c in self.triplets.items():
            counts[p] += c
        return counts

    def predicate_frequencies(self) -> list[float]:
        counts = self.predicates()
        total = sum(counts)
        if total == 0:
            raise ValueError("dataset has no edges; predicate frequencies undefined")
        # int / int rounds the exact quotient once, as numpy's float64 division does for
        # counts below 2**53, so the fractions have the same bits.
        return [c / total for c in counts]

    def stats_json(self) -> str:
        """The `sggkit stats` report, `json.dumps` of its "triplets" (`to_json_obj`'s
        rows), "predicate_freq" and "object_hist" with `indent=2` and sorted keys, and a
        newline. The rows, each of `_ROW_LAYOUTS`' indented shape, are formatted directly;
        the dataset has edges, so there is at least one."""
        head = json.dumps({"object_hist": self.objects, "triplets": [],
                           "predicate_freq": self.predicate_frequencies()},
                          indent=2, sort_keys=True, allow_nan=False)
        rows = ",".join(f'\n    {{\n      "count": {c},\n      "o": {o},\n      "p": {p},'
                        f'\n      "s": {s}\n    }}' for (s, p, o), c in sorted(self.triplets.items()))
        return head[:-len("[]\n}")] + f"[{rows}\n  ]\n}}\n"  # head ends '"triplets": []\n}'


def _tally(graphs: Iterable[SceneGraph], vocab: Vocabulary) -> _Tally:
    """The counts of `graphs`, taken one at a time; none is kept."""
    tally = _Tally(vocab)
    for graph in graphs:
        tally.add(graph)
        del graph  # so that two graphs are never held at once
    return tally


def build_frequency_table(train: Dataset) -> TripletFrequencyTable:
    """The table of `train`'s triplets, in the order each first occurs."""
    return TripletFrequencyTable(dict(_tally(train.graphs, train.vocabulary).triplets))


@dataclass(frozen=True)
class SubsetBucket:
    """Filtered dataset for one occurrence bucket plus its triplet set."""

    dataset: Dataset
    triplets: frozenset[Triplet]


@dataclass(frozen=True)
class ShotSubsets:
    zero: SubsetBucket
    few10: SubsetBucket
    few100: SubsetBucket
    all_shot: SubsetBucket


def _split(graph: SceneGraph, counts) -> list[tuple[SceneGraph | None, list[Triplet]]]:
    """For the zero, few10 and few100 buckets in turn, `graph` cut down to its edges whose
    triplet's training count (`counts.get`) falls in the bucket, and those triplets; None
    for a bucket that keeps no edge. A cut graph is built without the constructors'
    checks: its parts are `graph`'s."""
    kept: list[list] = [[], [], []]
    for edge, triplet in zip(graph.edges, categorical_triplets(graph)):
        count = counts.get(triplet, 0)
        if count <= FEW100_MAX:
            kept[0 if count == 0 else 1 if count <= FEW10_MAX else 2].append((edge, triplet))
    return [(_graph(graph.image_id, graph.width, graph.height, graph.nodes,
                    tuple(e for e, _ in pairs)) if pairs else None, [t for _, t in pairs])
            for pairs in kept]


def shot_subsets(test: Dataset, table: TripletFrequencyTable) -> ShotSubsets:
    """Partition test triplets by training occurrence count.

    Buckets: zero (count 0), few10 (1-10), few100 (11-100); the all-shot
    bucket is the unfiltered test set. Graphs keep their full node list but
    only the edges of the bucket; graphs left without edges are dropped. A
    graph may appear in several buckets when its triplets qualify. Each graph
    is split by `_split`, as `sggkit subsets` splits each line it reads.
    """
    buckets: list[tuple[list, set]] = [([], set()), ([], set()), ([], set())]
    for graph in test.graphs:
        for (graphs, triplets), (cut, kept) in zip(buckets, _split(graph, table.counts)):
            if cut is not None:
                graphs.append(cut)
                triplets.update(kept)
    zero, few10, few100 = (SubsetBucket(_dataset(test.vocabulary, tuple(graphs)),
                                        frozenset(triplets)) for graphs, triplets in buckets)
    all_triplets = frozenset(
        t for graph in test.graphs for t in categorical_triplets(graph)
    )
    return ShotSubsets(
        zero=zero,
        few10=few10,
        few100=few100,
        all_shot=SubsetBucket(test, all_triplets),
    )


def _write_split(test: Iterable[SceneGraph], counts, files) -> tuple[int, list, list]:
    """Write each graph of `test`, taken one at a time and not kept, cut by `_split`, as a
    `graph_line` to the file of each bucket that keeps an edge of it; (the graphs read,
    the graphs written to each bucket, each bucket's triplets)."""
    read, graphs, triplets = 0, [0, 0, 0], [set(), set(), set()]
    for graph in test:
        read += 1
        for b, (cut, kept) in enumerate(_split(graph, counts)):
            if cut is not None:
                files[b].write(graph_line(cut))
                graphs[b] += 1
                triplets[b].update(kept)
        del graph, cut  # so that two graphs are never held at once
    return read, graphs, triplets


def predicate_frequencies(train: Dataset) -> list[float]:
    """Per-predicate fraction of training edges; entries sum to 1."""
    return _tally(train.graphs, train.vocabulary).predicate_frequencies()


@dataclass(frozen=True, eq=False)
class Histogram:
    """Category occurrence counts, sortable into top-k tables."""

    counts: list[int]
    names: tuple[str, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def normalized(self) -> list[float]:
        total = self.total
        return [c / total if total else 0.0 for c in self.counts]

    def top_k(self, k: int) -> list[tuple[str, int, float]]:
        """(name, count, fraction) rows, sorted by count descending then id."""
        freq = self.normalized()
        order = sorted(range(len(self.counts)), key=lambda i: (-self.counts[i], i))
        return [(self.names[i], self.counts[i], freq[i]) for i in order[:k]]


def marginal_distributions(dataset: Dataset) -> tuple[Histogram, Histogram]:
    """Object histogram over node occurrences and predicate histogram over edges."""
    vocab = dataset.vocabulary
    tally = _tally(dataset.graphs, vocab)
    return (Histogram(tally.objects, vocab.object_names),
            Histogram(tally.predicates(), vocab.predicate_names))
