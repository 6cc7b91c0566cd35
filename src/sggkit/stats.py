"""Dataset statistics: triplet frequencies, shot subsets, predicate
frequencies and marginal category distributions.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import TYPE_CHECKING

from .ingest import json_int
from .model import Dataset, Triplet, Vocabulary, _dataset, _graph, categorical_triplets

if TYPE_CHECKING:  # numpy loads in the functions that compute with arrays
    import numpy as np

    # Members and counts sorted by key, and the (start, end) of each key's rows in them.
    _Groups = tuple[dict[tuple[int, int], tuple[int, int]], np.ndarray, np.ndarray]

FEW10_MAX = 10
FEW100_MAX = 100

_ROW_KEYS = ("s", "p", "o", "count")


class TripletFrequencyTable:
    """Training-set count per categorical triplet, as a dict and as (s, p, o, count)
    int64 columns. A table holds the form it was made from, the dict or, through
    `from_json_obj` and `from_stats_json`, the columns; the other is built on first use."""

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
    def by_predicate_object(self) -> _Groups:
        """Subject categories and counts grouped by (predicate, object category)."""
        s, p, o, c = self._columns
        return _group(p, o, s, c)

    @cached_property
    def by_subject_predicate(self) -> _Groups:
        """Object categories and counts grouped by (subject category, predicate)."""
        s, p, o, c = self._columns
        return _group(s, p, o, c)

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
        return cls._of_columns(_columns_of(_int_values(rows, _ROW_KEYS), len(rows)))

    @classmethod
    def from_stats_json(cls, fp) -> "TripletFrequencyTable":
        """The table of the "triplets" rows of the stats JSON in the file `fp`,
        accepted and rejected as `from_json_obj(json.load(fp)["triplets"])` would.

        Each object of exactly the four keys with integer values gives its values to
        one flat list as soon as it is decoded, and a bare marker takes its place, so
        no row dict outlives its own decode and the collector has nothing to scan.
        Which markers are rows shows only once the whole file is decoded: unless
        "triplets" holds every marker in order, `from_json_obj` reads it, with each
        marker turned back into the object it replaced."""
        flat: list[int] = []
        markers: list[object] = []

        def row(obj):
            if len(obj) == 4:
                try:
                    values = obj["s"], obj["p"], obj["o"], obj["count"]
                except KeyError:
                    return obj
                if int is type(values[0]) is type(values[1]) is type(values[2]) is type(values[3]):
                    flat.extend(values)
                    markers.append(marker := object())
                    return marker
            return obj

        payload = json.load(fp, object_hook=row)
        if type(payload) is object:  # the file is one row, so it has no "triplets"
            raise KeyError("triplets")
        rows = payload["triplets"]
        if rows == markers:
            columns = _columns_of(flat, len(rows))
            del payload, rows, flat[:], markers[:]  # before the checks, which take memory too
            return cls._of_columns(columns)
        at = {id(m): 4 * i for i, m in enumerate(markers)}

        def restore(value):
            if type(value) is object:
                i = at[id(value)]
                return dict(zip(_ROW_KEYS, flat[i:i + 4]))
            if type(value) is list:
                return [restore(v) for v in value]
            if type(value) is dict:
                return {k: restore(v) for k, v in value.items()}
            return value
        return cls.from_json_obj(restore(rows))

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
        # Equal triplets are equal 24-byte rows; a stable sort puts repeats after their first.
        spo = np.stack((s, p, o), axis=1).view(np.dtype((np.void, 24))).ravel()
        order = np.argsort(spo, kind="stable")
        repeats = order[1:][spo[order[1:]] == spo[order[:-1]]]
        if repeats.size:
            i = int(repeats.min())
            raise ValueError(f"duplicate triplet {Triplet(int(s[i]), int(p[i]), int(o[i]))} "
                             "in frequency table")
        return table


def _int_values(rows: list[dict], keys: tuple[str, ...]) -> list[int]:
    """`keys` of each row, row after row, each a JSON integer (`ingest.json_int`)."""
    flat = list(chain.from_iterable(map(itemgetter(*keys), rows)))
    if not set(map(type, flat)) <= {int}:
        for i, value in enumerate(flat):
            try:
                json_int(value)
            except TypeError as e:
                raise TypeError(f"row {i // len(keys)} {keys[i % len(keys)]!r}: {e}") from None
    return flat


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


def _group(a, b, member, count) -> _Groups:
    """`member` and `count` sorted stably by (a, b), with the (start, end) of each
    distinct (a, b); the keys are compared column by column, so no two merge."""
    import numpy as np
    if not len(a):
        return {}, member, count
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    heads = np.flatnonzero(np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1]))))
    bounds = [*heads.tolist(), len(a)]
    keys = zip(a[heads].tolist(), b[heads].tolist())
    return dict(zip(keys, zip(bounds, bounds[1:]))), member[order], count[order]


def build_frequency_table(train: Dataset) -> TripletFrequencyTable:
    counter: Counter[Triplet] = Counter()
    for graph in train.graphs:
        counter.update(categorical_triplets(graph))
    return TripletFrequencyTable(dict(counter))


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


def _bucket(test: Dataset, keep) -> SubsetBucket:
    """The graphs of `test` cut down to their edges whose triplet `keep` accepts. They are
    built without the constructors' checks: their parts are `test`'s, checked already."""
    graphs = []
    triplets: set[Triplet] = set()
    for graph in test.graphs:
        kept = [(e, t) for e, t in zip(graph.edges, categorical_triplets(graph)) if keep(t)]
        if not kept:
            continue
        graphs.append(_graph(graph.image_id, graph.width, graph.height, graph.nodes,
                             tuple(e for e, _ in kept)))
        triplets.update(t for _, t in kept)
    return SubsetBucket(_dataset(test.vocabulary, tuple(graphs)), frozenset(triplets))


def shot_subsets(test: Dataset, table: TripletFrequencyTable) -> ShotSubsets:
    """Partition test triplets by training occurrence count.

    Buckets: zero (count 0), few10 (1-10), few100 (11-100); the all-shot
    bucket is the unfiltered test set. Graphs keep their full node list but
    only the edges of the bucket; graphs left without edges are dropped. A
    graph may appear in several buckets when its triplets qualify.
    """
    zero = _bucket(test, lambda t: table.count(t) == 0)
    few10 = _bucket(test, lambda t: 1 <= table.count(t) <= FEW10_MAX)
    few100 = _bucket(test, lambda t: FEW10_MAX < table.count(t) <= FEW100_MAX)
    all_triplets = frozenset(
        t for graph in test.graphs for t in categorical_triplets(graph)
    )
    return ShotSubsets(
        zero=zero,
        few10=few10,
        few100=few100,
        all_shot=SubsetBucket(test, all_triplets),
    )


def predicate_frequencies(train: Dataset) -> list[float]:
    """Per-predicate fraction of training edges; entries sum to 1."""
    counts = [0] * train.vocabulary.num_predicates
    for graph in train.graphs:
        for edge in graph.edges:
            counts[edge.predicate] += 1
    total = sum(counts)
    if total == 0:
        raise ValueError("dataset has no edges; predicate frequencies undefined")
    # int / int rounds the exact quotient once, as numpy's float64 division does for
    # counts below 2**53, so the fractions have the same bits.
    return [c / total for c in counts]


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
    obj = [0] * vocab.num_objects
    pred = [0] * vocab.num_predicates
    for graph in dataset.graphs:
        for node in graph.nodes:
            obj[node.category] += 1
        for edge in graph.edges:
            pred[edge.predicate] += 1
    return Histogram(obj, vocab.object_names), Histogram(pred, vocab.predicate_names)


def triplet_set_to_json_obj(triplets) -> list[dict]:
    return [
        {"s": t.subject_category, "p": t.predicate, "o": t.object_category}
        for t in sorted(triplets)
    ]


def triplet_set_from_json_obj(rows: list[dict]) -> frozenset[Triplet]:
    """The set of `triplet_set_to_json_obj` rows; ids must be JSON integers."""
    flat = _int_values(rows, ("s", "p", "o"))
    return frozenset(map(Triplet, flat[0::3], flat[1::3], flat[2::3]))
