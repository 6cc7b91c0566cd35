"""Dataset statistics: triplet frequencies, shot subsets, predicate
frequencies and marginal category distributions.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .ingest import Dataset, json_int
from .model import SceneGraph, Triplet, Vocabulary, categorical_triplets

FEW10_MAX = 10
FEW100_MAX = 100


class TripletFrequencyTable:
    """Training-set count per categorical triplet, held as (s, p, o, count) int64 columns;
    `from_json_obj` reads rows straight into them, and `counts` is built on first use."""

    def __init__(self, counts: dict[Triplet, int]):
        self.counts = counts
        self._columns = _columns_of(chain.from_iterable((*t, c) for t, c in counts.items()),
                                    len(counts))

    @cached_property
    def counts(self) -> dict[Triplet, int]:
        s, p, o, c = (a.tolist() for a in self._columns)
        return dict(zip(map(Triplet, s, p, o), c))

    def count(self, triplet: Triplet) -> int:
        return self.counts.get(triplet, 0)

    def __contains__(self, triplet: Triplet) -> bool:
        return triplet in self.counts

    @property
    def total_triplets(self) -> int:
        return sum(self._columns[3].tolist())

    @property
    def distinct_triplets(self) -> int:
        return len(self._columns[3])

    @cached_property
    def category_bound(self) -> int:
        """One more than the largest subject or object category; 0 when empty."""
        s, _, o, _ = self._columns
        return 1 + int(max(s.max(), o.max())) if len(s) else 0

    @cached_property
    def by_predicate_object(self) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """(predicate, object category) -> (subject categories, counts)."""
        s, p, o, c = self._columns
        return _group(p, o, s, c)

    @cached_property
    def by_subject_predicate(self) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """(subject category, predicate) -> (object categories, counts)."""
        s, p, o, c = self._columns
        return _group(s, p, o, c)

    def check_vocabulary(self, vocab: Vocabulary) -> None:
        """Reject the first triplet whose ids fall outside `vocab`."""
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
        flat = _int_values(rows, ("s", "p", "o", "count"))
        table = cls.__new__(cls)
        table._columns = _columns_of(flat, len(rows))
        # Equal triplets are equal 24-byte rows; a stable sort puts repeats after their first.
        spo = np.stack(table._columns[:3], axis=1).view(np.dtype((np.void, 24))).ravel()
        order = np.argsort(spo, kind="stable")
        repeats = order[1:][spo[order[1:]] == spo[order[:-1]]]
        if repeats.size:
            i = 4 * int(repeats.min())
            raise ValueError(f"duplicate triplet {Triplet(*flat[i:i + 3])} in frequency table")
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


def _columns_of(values, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(subject, predicate, object, count) int64 columns of `n` rows whose
    values come flat, row after row; ids must be >= 0 and counts >= 1."""
    try:
        s, p, o, c = np.fromiter(values, np.int64, 4 * n).reshape(n, 4).T.copy()
    except OverflowError as e:
        raise ValueError("frequency table id or count does not fit in 64 bits") from e
    if (s < 0).any() or (p < 0).any() or (o < 0).any():
        raise ValueError("negative category or predicate id in frequency table")
    if (c < 1).any():
        i = int(np.flatnonzero(c < 1)[0])
        raise ValueError(f"non-positive count {c[i]} for "
                         f"{Triplet(int(s[i]), int(p[i]), int(o[i]))}")
    return s, p, o, c


def _group(a, b, member, count) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """{(a, b): (member, count)}, one entry per distinct (a, b); the values
    are views into one sorted copy, so memory grows with the triplets."""
    if not len(a):
        return {}
    key = a * (int(b.max()) + 1) + b
    order = np.argsort(key, kind="stable")
    key, member, count = key[order], member[order], count[order]
    heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    pairs = zip(a[order[heads]].tolist(), b[order[heads]].tolist())
    bounds = [*heads.tolist(), len(key)]
    return {
        pair: (member[i:j], count[i:j]) for pair, i, j in zip(pairs, bounds, bounds[1:])
    }


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
    graphs = []
    triplets: set[Triplet] = set()
    for graph in test.graphs:
        kept = [
            e
            for e, t in zip(graph.edges, categorical_triplets(graph))
            if keep(t)
        ]
        if not kept:
            continue
        graphs.append(
            SceneGraph(graph.image_id, graph.width, graph.height, graph.nodes, tuple(kept))
        )
        triplets.update(categorical_triplets(graphs[-1]))
    return SubsetBucket(Dataset(test.vocabulary, tuple(graphs)), frozenset(triplets))


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


def predicate_frequencies(train: Dataset) -> np.ndarray:
    """Per-predicate fraction of training edges; entries sum to 1."""
    counts = np.zeros(train.vocabulary.num_predicates, dtype=np.int64)
    for graph in train.graphs:
        for edge in graph.edges:
            counts[edge.predicate] += 1
    total = counts.sum()
    if total == 0:
        raise ValueError("dataset has no edges; predicate frequencies undefined")
    return counts / total


@dataclass(frozen=True, eq=False)
class Histogram:
    """Category occurrence counts, sortable into top-k tables."""

    counts: np.ndarray
    names: tuple[str, ...]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def normalized(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / total

    def top_k(self, k: int) -> list[tuple[str, int, float]]:
        """(name, count, fraction) rows, sorted by count descending then id."""
        freq = self.normalized()
        order = sorted(range(len(self.counts)), key=lambda i: (-self.counts[i], i))
        return [(self.names[i], int(self.counts[i]), float(freq[i])) for i in order[:k]]


def marginal_distributions(dataset: Dataset) -> tuple[Histogram, Histogram]:
    """Object histogram over node occurrences and predicate histogram over edges."""
    vocab = dataset.vocabulary
    obj = np.zeros(vocab.num_objects, dtype=np.int64)
    pred = np.zeros(vocab.num_predicates, dtype=np.int64)
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
