"""Recall evaluation protocol: triplet ranking with and without the graph
constraint, recall@K over shot subsets, mean recall over predicate classes,
IoU-based matching for detection-style predictions, and post-hoc predicate
reweighting.
"""
from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import count, repeat
from operator import indexOf, mul, neg
from typing import Iterable, NamedTuple, Sequence

from .model import (BoundingBox, Dataset, SceneGraph, Triplet, _collector_paused,
                    categorical_triplets, left_sum)

SGGEN_IOU_THRESHOLD = 0.5
MODES = ("sgcls", "predcls", "sggen")
AGGREGATES = ("image", "triplet")
# Once this many candidates (pairs x predicates, summed over the predictions read so far,
# the current one included) are read, evaluation ranks with numpy, before in plain Python,
# which saves numpy's 0.1 s import.
# Set from one-off fresh-process runs (BENCH_20.json crossover); no benchmark verifies it.
MATRIX_CANDIDATES = 1_500_000


class PairScores(NamedTuple):
    subject: int
    object: int
    scores: Sequence[float]  # one score per predicate class


def _row(values) -> array:
    """`values`, a 1-d sequence of real numbers, as an array("d"); TypeError
    for anything else (a 2-d numpy row included, which array("d") would
    flatten when its inner size is 1)."""
    if type(values) is array and values.typecode == "d":
        return values
    if getattr(values, "ndim", 1) != 1:
        raise TypeError("not a 1-d sequence")
    return array("d", values)


def _pair_row(values):
    """`values` as _row converts it, or as it is when it is not a 1-d sequence
    of numbers, so that _check_pair_scores names its shape."""
    try:
        return _row(values)
    except (TypeError, ValueError, OverflowError):
        return values


# _flagged's tables for a native double's top byte (sign, exponent) and the byte under it:
# _NON_FINITE flags NaN and inf, _NOT_BELOW_ONE all but [+0.0, 1.0) (so -0.0 and 1.0 too)
_TOP, _NEXT = (7, 6) if sys.byteorder == "little" else (0, 1)
_NON_FINITE = (bytes(b & 0x7F == 0x7F for b in range(256)), bytes(b >= 0xF0 for b in range(256)))
_NOT_BELOW_ONE = (bytes(0 if b < 0x3F else 1 if b == 0x3F else 3 for b in range(256)),
                  bytes(3 if b >= 0xF0 else 2 for b in range(256)))


def _flagged(doubles: bytes, tables: tuple[bytes, bytes]) -> bool:
    """Whether a double in `doubles` (native, as array("d") holds them) has a top-byte
    flag and a next-byte flag in `tables` with a bit in common; a test at C speed."""
    top, below = tables
    return bool(int.from_bytes(doubles[_TOP::8].translate(top), "little")
                & int.from_bytes(doubles[_NEXT::8].translate(below), "little"))


def _row_sum(row) -> float | None:
    """math.fsum(row); None when the row holds a non-finite value, inf when
    only the exact sum of its finite values overflows."""
    try:
        total = math.fsum(row)
    except OverflowError:
        return math.inf
    except ValueError:  # inf + -inf
        return None
    return total if math.isfinite(total) else None


@dataclass(frozen=True, eq=False)
class PredictedGraph:
    """Model output for one image: per-node object score rows and per-pair
    predicate score vectors; boxes only for detection-style evaluation.

    `object_scores`, a sequence of equal-length rows or a 2-d numpy array, is
    stored as a tuple of array("d") rows, and each pair's scores, a 1-d
    sequence of finite numbers (a NaN or an inf is rejected), as one
    array("d"). An empty list has no column count and is rejected as not
    2-d, as numpy would; the empty tuple, the stored form of a prediction
    without nodes, is accepted. Pair scores that are not a 1-d sequence of
    numbers are kept as they are, and evaluation rejects them by their
    shape."""

    image_id: str
    object_scores: Sequence  # n rows of |C|, row-stochastic (one-hot for GT labels)
    pairs: tuple[PairScores, ...]
    boxes: tuple[BoundingBox, ...] | None = None

    def __post_init__(self):
        rows = self.object_scores
        if hasattr(rows, "ndim"):  # a numpy matrix is stored as its rows
            rows = tuple(rows) if rows.ndim == 2 else None
        try:
            scores = tuple(map(_row, rows)) if rows or type(rows) is tuple else None
        except TypeError:
            scores = None
        if scores is None or len(set(map(len, scores))) > 1:
            raise ValueError(f"image {self.image_id!r}: object_scores must be 2-d")
        sums = list(map(_row_sum, scores))
        if None in sums:
            raise ValueError(f"image {self.image_id!r}: non-finite object scores")
        if max((abs(total - 1.0) for total in sums), default=0.0) > 1e-6:
            raise ValueError(f"image {self.image_id!r}: object score rows must sum to 1")
        object.__setattr__(self, "object_scores", scores)
        pairs = tuple(p if type(p.scores) is array and p.scores.typecode == "d" else
                      PairScores(p.subject, p.object, _pair_row(p.scores)) for p in self.pairs)
        n = len(scores)
        seen = set()
        for p in pairs:
            if p.subject == p.object:
                raise ValueError(f"image {self.image_id!r}: pair with subject == object")
            if not (0 <= p.subject < n and 0 <= p.object < n):
                raise ValueError(f"image {self.image_id!r}: pair node index out of range")
            if (p.subject, p.object) in seen:
                raise ValueError(
                    f"image {self.image_id!r}: duplicate pair ({p.subject}, {p.object})"
                )
            seen.add((p.subject, p.object))
        if _flagged(b"".join([p.scores for p in pairs if type(p.scores) is array]), _NON_FINITE):
            p = next(p for p in pairs if type(p.scores) is array
                     and not all(map(math.isfinite, p.scores)))
            raise ValueError(f"image {self.image_id!r}: pair ({p.subject}, {p.object}) has "
                             "non-finite scores")
        if self.boxes is not None and len(self.boxes) != n:
            raise ValueError(f"image {self.image_id!r}: box count != node count")
        object.__setattr__(self, "pairs", pairs)

    @property
    def num_nodes(self) -> int:
        return len(self.object_scores)


class RankedTriplet(NamedTuple):
    subject: int
    object: int
    subject_label: int
    predicate: int
    object_label: int
    score: float


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _shape(values) -> tuple:
    """The shape numpy gives `values`: a numpy array's own; the length and
    then the first item's shape for another sequence; () for a scalar or a
    string."""
    shape = getattr(values, "shape", None)
    if shape is not None:
        return tuple(shape)
    if isinstance(values, (str, bytes)) or not hasattr(values, "__len__"):
        return ()
    return (len(values),) + (_shape(values[0]) if len(values) else ())


def _predicate_weights(
    f_r: Sequence[float] | None, x: float, num_predicates: int
) -> tuple[list[float], list[int]]:
    """(1 / f_r)^x per predicate, 0 where f_r <= 0, and the indices of those
    zeros; f_r must hold one frequency per predicate."""
    if f_r is None:
        raise ValueError("predicate frequencies f_r required when reweighting")
    if _shape(f_r) != (num_predicates,):
        raise ValueError(f"f_r has shape {_shape(f_r)}; reweighting needs one frequency per "
                         f"predicate, shape ({num_predicates},)")
    if not 0 <= x < math.inf:  # rejects NaN too
        raise ValueError(f"reweighting exponent must be finite and >= 0, got {x}")
    f_r = list(map(float, f_r))
    zero = [i for i, f in enumerate(f_r) if f <= 0]
    try:
        weights = [0.0 if f <= 0 else (1.0 / f) ** x for f in f_r]
        if not all(map(math.isfinite, weights)):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"reweighting weights (1 / f_r)^{x} are not all finite") from None
    return weights, zero


def _check_pair_scores(
    pairs: Sequence[PairScores], num_predicates: int, where: str, owner: str
) -> None:
    for pair in pairs:  # _shape, recursive, only for what is not an array("d") of that length
        if ((type(pair.scores) is not array or len(pair.scores) != num_predicates)
                and _shape(pair.scores) != (num_predicates,)):
            raise ValueError(f"{where}pair ({pair.subject}, {pair.object}) has scores of shape "
                             f"{_shape(pair.scores)}; {owner} has {num_predicates} predicates")


def _check_zero(scores: Sequence[float], zero: list[int]) -> None:
    for i in zero:
        if scores[i] > 0:
            raise ValueError("nonzero score for a predicate with zero training frequency")


def reweight_scores(
    pairs: Sequence[PairScores], f_r: Sequence[float], x: float
) -> tuple[PairScores, ...]:
    """Scale predicate scores by (1 / f_r)^x; x = 0 returns the input as is.

    f_r holds one frequency per entry of a pair's scores. The result is not
    renormalized: it is only used for ranking.
    """
    if x == 0:
        return tuple(pairs)
    if not pairs:
        return ()
    shape = _shape(pairs[0].scores)
    if len(shape) != 1:  # no predicate count: size by f_r, so that the pair is named
        shape = _shape(f_r)
    weights, zero = _predicate_weights(f_r, x, shape[0] if shape else 0)
    _check_pair_scores(pairs, len(weights), "", "f_r")
    for p in pairs:
        _check_zero(p.scores, zero)
    return tuple(PairScores(p.subject, p.object, array("d", map(mul, p.scores, weights)))
                 for p in pairs)


def rank_triplets(
    pred: PredictedGraph, graph_constraint: bool, k: int
) -> list[RankedTriplet]:
    """Top-k candidate triplets by the product of subject, object and
    predicate scores.

    With the graph constraint only the best predicate of each ordered pair
    competes; without it every predicate does. Ties break by (subject index,
    object index, predicate id) ascending so ranking is reproducible.
    """
    return _rank_rows(pred, graph_constraint, k, None)


def _rank_rows(pred, graph_constraint, k, weights) -> list[RankedTriplet]:
    """rank_triplets, each pair's scores reweighted unless `weights` (from
    _predicate_weights) is None; in plain Python.

    A candidate's score is w * v, w being the product of the subject's and the
    object's label scores. w is positive and rounding is monotone, so a pair's
    bound, w times its best score, is the score of its best candidate and no
    other candidate of the pair beats it. The k best bounds are therefore the
    scores of k candidates, and the k-th of them is a floor for the k-th best
    score. Without the graph constraint the pairs are visited by descending
    bound until a bound falls below the floor, which rises to the k-th best
    score collected whenever 2k have piled up; every candidate at or above
    the floor is kept for the final top k."""
    if k < 1:
        return []
    label_scores = list(map(max, pred.object_scores))
    rows = [p.scores for p in pred.pairs]
    scaled = iter  # a row's scores as ranked, reweighted where they are read: no row is copied
    if weights is not None:
        weights, zero = weights
        for row in rows:
            _check_zero(row, zero)
        scaled = partial(map, mul, weights)  # weight * score, the same float as score * weight
    subjects = [p.subject for p in pred.pairs]
    objects = [p.object for p in pred.pairs]
    w = [label_scores[s] * label_scores[o] for s, o in zip(subjects, objects)]
    bounds = list(map(mul, w, map(max, map(scaled, rows))))
    # (-score, subject, object, predicate or -1 for the pair's first best, pair); (s, o)
    # is unique, so no comparison reaches the -1.
    if graph_constraint:
        candidates = sorted(zip(map(neg, bounds), subjects, objects, repeat(-1), count()))
    else:
        order = sorted(range(len(rows)), key=bounds.__getitem__, reverse=True)
        floor = bounds[order[k - 1]] if len(order) >= k else -math.inf
        candidates = []
        for i in order:
            if bounds[i] < floor:
                break
            wi, s, o = w[i], subjects[i], objects[i]
            candidates += [(-x, s, o, p, i)
                           for p, v in enumerate(scaled(rows[i])) if (x := wi * v) >= floor]
            if len(candidates) >= 2 * k:  # keep the k first; none after them can rise
                candidates.sort()
                del candidates[k:]
                floor = -candidates[-1][0]
        candidates.sort()
    del candidates[k:]
    labels = list(map(indexOf, pred.object_scores, label_scores))  # the first best, as argmax
    ranked = []
    for score, s, o, p, i in candidates:
        if p < 0:  # the first best predicate, whose own score keeps the sign of a zero
            row = list(scaled(rows[i]))
            p = indexOf(row, max(row))
            score = -(w[i] * row[p])
        ranked.append(RankedTriplet(s, o, labels[s], p, labels[o], -score))
    return ranked


def _rank_matrix(pred, graph_constraint, k, weights) -> list[RankedTriplet]:
    """_rank_rows with numpy, from matrices that view the rows' bytes: only the
    top k become Python objects. Every pair must hold the same number of scores."""
    import numpy as np

    if not pred.pairs:
        return []
    scores = np.frombuffer(b"".join([p.scores for p in pred.pairs])).reshape(len(pred.pairs), -1)
    if weights is not None:
        weights, zero = weights
        if (scores[:, zero] > 0).any():
            raise ValueError("nonzero score for a predicate with zero training frequency")
        scores = scores * np.asarray(weights)
    object_scores = np.frombuffer(b"".join(pred.object_scores)).reshape(pred.num_nodes, -1)
    labels = object_scores.argmax(axis=1)
    label_scores = object_scores.max(axis=1)
    subjects = np.array([p.subject for p in pred.pairs])
    objects = np.array([p.object for p in pred.pairs])
    if graph_constraint:
        best = scores.argmax(axis=1)
        scores = np.take_along_axis(scores, best[:, None], axis=1)
    flat = ((label_scores[subjects] * label_scores[objects])[:, None] * scores).ravel()
    # Every candidate tied with the k-th best score stays in until the tie-break.
    kept = np.arange(flat.size)
    if flat.size > k:
        kept = np.flatnonzero(flat >= np.partition(flat, flat.size - k)[flat.size - k])
    rows, predicates = np.divmod(kept, scores.shape[1])
    if graph_constraint:
        predicates = best[rows]
    s, o, score = subjects[rows], objects[rows], flat[kept]
    order = np.lexsort((predicates, o, s, -score))[:k]
    s, o = s[order], o[order]
    return list(map(RankedTriplet._make, zip(
        s.tolist(), o.tolist(), labels[s].tolist(), predicates[order].tolist(),
        labels[o].tolist(), score[order].tolist(),
    )))


def _matches(
    ranked: RankedTriplet,
    gt: SceneGraph,
    edge_index: int,
    mode: str,
    pred_boxes: tuple[BoundingBox, ...] | None,
) -> bool:
    edge = gt.edges[edge_index]
    if ranked.predicate != edge.predicate:
        return False
    if ranked.subject_label != gt.nodes[edge.subject].category:
        return False
    if ranked.object_label != gt.nodes[edge.object].category:
        return False
    if mode == "sggen":
        return (
            iou(pred_boxes[ranked.subject], gt.nodes[edge.subject].box) >= SGGEN_IOU_THRESHOLD
            and iou(pred_boxes[ranked.object], gt.nodes[edge.object].box) >= SGGEN_IOU_THRESHOLD
        )
    return ranked.subject == edge.subject and ranked.object == edge.object


def _matched_edges(
    ranked: Sequence[RankedTriplet],
    gt: SceneGraph,
    edge_indices: Sequence[int],
    mode: str,
    pred_boxes: tuple[BoundingBox, ...] | None = None,
) -> list[bool]:
    """Greedy matching, each ranked triplet and each GT instance used once;
    one flag per entry of `edge_indices`. A triplet only matches edges of its
    own predicate, so one pass serves every predicate class."""
    used = [False] * len(edge_indices)
    for r in ranked:
        for slot, edge_index in enumerate(edge_indices):
            if not used[slot] and _matches(r, gt, edge_index, mode, pred_boxes):
                used[slot] = True
                break
    return used


@dataclass(frozen=True)
class RecallResult:
    value: float  # percentage
    per_image: dict[str, float]  # fraction per scored image
    matched: int
    total: int
    per_class: dict[int, float]  # percentage per predicate id with >= 1 eligible GT instance

    @property
    def mean(self) -> float:
        """Mean recall: the per-class percentages averaged uniformly."""
        return left_sum(self.per_class.values()) / len(self.per_class)


def _percent(rows, aggregate: str) -> float:
    """Recall in percent over (image, matched, eligible) rows."""
    if aggregate == "triplet":
        return 100.0 * sum(m for _, m, _ in rows) / sum(t for _, _, t in rows)
    fractions = {i: m / t for i, m, t in rows}  # one value per image id, as per_image
    return 100.0 * left_sum(fractions.values()) / len(fractions)


@_collector_paused()  # its collections, in numpy's import too, would walk the ground truth
def _evaluate(
    predictions, gt, k, mode, subset_filter, graph_constraint, reweight_x, f_r, aggregate
) -> RecallResult:
    """Read the predictions once, as they arrive: check each, rank and match each image
    with eligible GT edges, and keep only its match flags. Then count the matches per
    image and per predicate class of the GT edge, in ground-truth order."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if aggregate not in AGGREGATES:
        raise ValueError(f"unknown aggregate {aggregate!r}; expected one of {AGGREGATES}")
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    num_objects, num_predicates = gt.vocabulary.num_objects, gt.vocabulary.num_predicates
    subset = frozenset(subset_filter) if subset_filter is not None else None
    weights = _predicate_weights(f_r, reweight_x, num_predicates) if reweight_x != 0 else None
    gt_ids = {g.image_id for g in gt.graphs}
    eligible = {}  # image id -> (graph, its eligible edge indices), in ground-truth order
    for graph in gt.graphs:
        edge_indices = [
            i for i, t in enumerate(categorical_triplets(graph)) if subset is None or t in subset
        ]
        if edge_indices:
            eligible[graph.image_id] = graph, edge_indices
    seen, unknown, flags = set(), [], {}  # flags: image id -> its eligible edges' matches
    candidates, rank = 0, _rank_rows
    for pred in predictions:
        if pred.image_id in seen:
            raise ValueError(f"duplicate prediction for image {pred.image_id!r}")
        seen.add(pred.image_id)
        columns = len(pred.object_scores[0]) if pred.object_scores else num_objects
        if columns != num_objects:
            raise ValueError(f"image {pred.image_id!r}: object_scores has {columns} columns; "
                             f"the vocabulary has {num_objects} object categories")
        _check_pair_scores(pred.pairs, num_predicates, f"image {pred.image_id!r}: ",
                           "the vocabulary")
        candidates += len(pred.pairs) * num_predicates
        if candidates >= MATRIX_CANDIDATES:  # from here on numpy ranks faster than it loads
            rank = _rank_matrix
        if pred.image_id not in gt_ids:
            unknown.append(pred.image_id)
        elif pred.image_id in eligible:
            graph, edge_indices = eligible[pred.image_id]
            if mode in ("sgcls", "predcls") and pred.num_nodes != graph.num_nodes:
                raise ValueError(
                    f"image {graph.image_id!r}: prediction has {pred.num_nodes} nodes, "
                    f"ground truth has {graph.num_nodes}"
                )
            if mode == "sggen" and pred.boxes is None:
                raise ValueError(
                    f"image {graph.image_id!r}: sggen evaluation requires predicted boxes")
            flags[pred.image_id] = _matched_edges(
                rank(pred, graph_constraint, k, weights), graph, edge_indices, mode, pred.boxes)
        del pred  # before the next one is read
    if unknown:
        raise ValueError(f"predictions for images absent from ground truth: {sorted(unknown)}")
    missing = sorted(eligible.keys() - flags.keys())
    if missing:
        raise ValueError(f"missing predictions for images: {missing}")
    if not eligible:
        raise ValueError("no ground-truth triplets left after filtering")

    images = []
    classes: dict[int, list[tuple[str, int, int]]] = {}
    for image_id, (graph, edge_indices) in eligible.items():
        used = flags[image_id]
        images.append((image_id, sum(used), len(used)))
        of_class: dict[int, list[bool]] = {}
        for i, u in zip(edge_indices, used):
            of_class.setdefault(graph.edges[i].predicate, []).append(u)
        for predicate, matched in of_class.items():
            classes.setdefault(predicate, []).append((image_id, sum(matched), len(matched)))
    return RecallResult(
        _percent(images, aggregate),
        {i: m / t for i, m, t in images},
        sum(m for _, m, _ in images),
        sum(t for _, _, t in images),
        {p: _percent(classes[p], aggregate) for p in sorted(classes)},
    )


def recall_details(
    predictions: Iterable[PredictedGraph],
    gt: Dataset,
    k: int,
    mode: str = "sgcls",
    subset_filter: Iterable[Triplet] | None = None,
    graph_constraint: bool = False,
    reweight_x: float = 0.0,
    f_r: Sequence[float] | None = None,
    aggregate: str = "image",
) -> RecallResult:
    """Recall@K with per-image and per-class values, from one ranking of each image.

    `predictions` may be any iterable; it is read once, and each image is ranked
    and matched as it arrives, then dropped.

    Per image, ground-truth instances (optionally restricted to a triplet
    subset by categorical composition) are greedily matched against the
    top-K ranked triplets; images with no eligible instance are excluded
    from the mean. The same matches, split by the predicate of the GT edge,
    give `per_class` and the mean recall `mean`.
    """
    return _evaluate(
        predictions, gt, k, mode, subset_filter, graph_constraint, reweight_x, f_r, aggregate
    )


def recall_at_k(*args, **kwargs) -> float:
    """recall_details(...).value: Recall@K in percent."""
    return recall_details(*args, **kwargs).value


def mean_recall(
    predictions: Iterable[PredictedGraph],
    gt: Dataset,
    k: int,
    mode: str = "sgcls",
    subset_filter: Iterable[Triplet] | None = None,
    graph_constraint: bool = False,
    reweight_x: float = 0.0,
    f_r: Sequence[float] | None = None,
    aggregate: str = "image",
) -> float:
    """Recall averaged uniformly over the predicate classes present in the
    eligible GT: recall_details(...).mean. `predictions` may be any iterable,
    read once."""
    return _evaluate(
        predictions, gt, k, mode, subset_filter, graph_constraint, reweight_x, f_r, aggregate
    ).mean
