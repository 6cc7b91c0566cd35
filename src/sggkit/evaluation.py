"""Recall evaluation protocol: triplet ranking with and without the graph
constraint, recall@K over shot subsets, mean recall over predicate classes,
IoU-based matching for detection-style predictions, and post-hoc predicate
reweighting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .model import BoundingBox, Dataset, SceneGraph, Triplet, categorical_triplets

SGGEN_IOU_THRESHOLD = 0.5
MODES = ("sgcls", "predcls", "sggen")
AGGREGATES = ("image", "triplet")


class PairScores(NamedTuple):
    subject: int
    object: int
    scores: np.ndarray  # one score per predicate class


@dataclass(frozen=True, eq=False)
class PredictedGraph:
    """Model output for one image: per-node object score rows and per-pair
    predicate score vectors; boxes only for detection-style evaluation."""

    image_id: str
    object_scores: np.ndarray  # (n, |C|), row-stochastic (one-hot for GT labels)
    pairs: tuple[PairScores, ...]
    boxes: tuple[BoundingBox, ...] | None = None

    def __post_init__(self):
        scores = np.asarray(self.object_scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError(f"image {self.image_id!r}: object_scores must be 2-d")
        if not np.isfinite(scores).all():
            raise ValueError(f"image {self.image_id!r}: non-finite object scores")
        if scores.shape[0] and np.abs(scores.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValueError(f"image {self.image_id!r}: object score rows must sum to 1")
        object.__setattr__(self, "object_scores", scores)
        n = scores.shape[0]
        seen = set()
        for p in self.pairs:
            if p.subject == p.object:
                raise ValueError(f"image {self.image_id!r}: pair with subject == object")
            if not (0 <= p.subject < n and 0 <= p.object < n):
                raise ValueError(f"image {self.image_id!r}: pair node index out of range")
            if (p.subject, p.object) in seen:
                raise ValueError(
                    f"image {self.image_id!r}: duplicate pair ({p.subject}, {p.object})"
                )
            seen.add((p.subject, p.object))
        if self.boxes is not None and len(self.boxes) != n:
            raise ValueError(f"image {self.image_id!r}: box count != node count")

    @property
    def num_nodes(self) -> int:
        return self.object_scores.shape[0]


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


def _predicate_weights(f_r: np.ndarray, x: float) -> tuple[np.ndarray, np.ndarray]:
    """(1 / f_r)^x per predicate, 0 where f_r <= 0, and that zero mask."""
    if not 0 <= x < math.inf:  # rejects NaN too
        raise ValueError(f"reweighting exponent must be finite and >= 0, got {x}")
    f_r = np.asarray(f_r, dtype=np.float64)
    zero = f_r <= 0
    weights = np.zeros_like(f_r)
    with np.errstate(over="ignore"):
        weights[~zero] = (1.0 / f_r[~zero]) ** x
    if not np.isfinite(weights).all():
        raise ValueError(f"reweighting weights (1 / f_r)^{x} are not all finite")
    return weights, zero


def _reweighted(scores: np.ndarray, weights: np.ndarray, zero: np.ndarray) -> np.ndarray:
    if (zero & (scores > 0)).any():
        raise ValueError("nonzero score for a predicate with zero training frequency")
    return scores * weights


def reweight_scores(
    pairs: Sequence[PairScores], f_r: np.ndarray, x: float
) -> tuple[PairScores, ...]:
    """Scale predicate scores by (1 / f_r)^x; x = 0 returns the input as is.

    The result is not renormalized: it is only used for ranking.
    """
    if x == 0:
        return tuple(pairs)
    weights, zero = _predicate_weights(f_r, x)
    return tuple(
        PairScores(p.subject, p.object, _reweighted(p.scores, weights, zero)) for p in pairs
    )


def rank_triplets(
    pred: PredictedGraph, graph_constraint: bool, k: int
) -> list[RankedTriplet]:
    """Top-k candidate triplets by the product of subject, object and
    predicate scores.

    With the graph constraint only the best predicate of each ordered pair
    competes; without it every predicate does. Ties break by (subject index,
    object index, predicate id) ascending so ranking is reproducible.
    """
    return _rank(pred, graph_constraint, k, None)


def _rank(pred, graph_constraint, k, weights) -> list[RankedTriplet]:
    """rank_triplets on the pairs x predicates score matrix, reweighted first
    unless `weights` (from _predicate_weights) is None; only the top k
    become Python objects."""
    if not pred.pairs:
        return []
    scores = np.stack([p.scores for p in pred.pairs])
    if weights is not None:
        scores = _reweighted(scores, *weights)
    labels = pred.object_scores.argmax(axis=1)
    label_scores = pred.object_scores.max(axis=1)
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


def _match_images(
    predictions, gt, k, mode, subset_filter, graph_constraint, reweight_x, f_r, aggregate
) -> list[tuple[str, list[tuple[int, bool]]]]:
    """Rank each image with eligible GT edges once and match its edges.

    Per scored image: its id, then (predicate, matched) per eligible edge.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if aggregate not in AGGREGATES:
        raise ValueError(f"unknown aggregate {aggregate!r}; expected one of {AGGREGATES}")
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    by_id: dict[str, PredictedGraph] = {}
    for p in predictions:
        if p.image_id in by_id:
            raise ValueError(f"duplicate prediction for image {p.image_id!r}")
        by_id[p.image_id] = p
    gt_ids = {g.image_id for g in gt.graphs}
    unknown = sorted(set(by_id) - gt_ids)
    if unknown:
        raise ValueError(f"predictions for images absent from ground truth: {unknown}")
    subset = frozenset(subset_filter) if subset_filter is not None else None
    if reweight_x != 0 and f_r is None:
        raise ValueError("predicate frequencies f_r required when reweighting")
    if reweight_x != 0 and np.shape(f_r) != (gt.vocabulary.num_predicates,):
        raise ValueError(f"f_r has shape {np.shape(f_r)}; reweighting needs one frequency per "
                         f"predicate, shape ({gt.vocabulary.num_predicates},)")
    weights = _predicate_weights(f_r, reweight_x) if reweight_x != 0 else None

    images = []
    missing = []
    for graph in gt.graphs:
        edge_indices = [
            i for i, t in enumerate(categorical_triplets(graph)) if subset is None or t in subset
        ]
        if not edge_indices:
            continue
        pred = by_id.get(graph.image_id)
        if pred is None:
            missing.append(graph.image_id)
            continue
        if mode in ("sgcls", "predcls") and pred.num_nodes != graph.num_nodes:
            raise ValueError(
                f"image {graph.image_id!r}: prediction has {pred.num_nodes} nodes, "
                f"ground truth has {graph.num_nodes}"
            )
        if mode == "sggen" and pred.boxes is None:
            raise ValueError(f"image {graph.image_id!r}: sggen evaluation requires predicted boxes")
        ranked = _rank(pred, graph_constraint, k, weights)
        used = _matched_edges(ranked, graph, edge_indices, mode, pred.boxes)
        predicates = [graph.edges[i].predicate for i in edge_indices]
        images.append((graph.image_id, list(zip(predicates, used))))
    if missing:
        raise ValueError(f"missing predictions for images: {sorted(missing)}")
    if not images:
        raise ValueError("no ground-truth triplets left after filtering")
    return images


def _recall(images, aggregate: str) -> RecallResult:
    per_image = {i: sum(u for _, u in edges) / len(edges) for i, edges in images}
    matched = sum(u for _, edges in images for _, u in edges)
    total = sum(len(edges) for _, edges in images)
    if aggregate == "image":
        value = 100.0 * sum(per_image.values()) / len(per_image)
    else:
        value = 100.0 * matched / total
    return RecallResult(value, per_image, matched, total)


def recall_details(
    predictions: Sequence[PredictedGraph],
    gt: Dataset,
    k: int,
    mode: str = "sgcls",
    subset_filter: Iterable[Triplet] | None = None,
    graph_constraint: bool = False,
    reweight_x: float = 0.0,
    f_r: np.ndarray | None = None,
    aggregate: str = "image",
) -> RecallResult:
    """Recall@K with per-image values.

    Per image, ground-truth instances (optionally restricted to a triplet
    subset by categorical composition) are greedily matched against the
    top-K ranked triplets; images with no eligible instance are excluded
    from the mean.
    """
    images = _match_images(
        predictions, gt, k, mode, subset_filter, graph_constraint, reweight_x, f_r, aggregate
    )
    return _recall(images, aggregate)


def recall_at_k(
    predictions: Sequence[PredictedGraph],
    gt: Dataset,
    k: int,
    mode: str = "sgcls",
    subset_filter: Iterable[Triplet] | None = None,
    graph_constraint: bool = False,
    reweight_x: float = 0.0,
    f_r: np.ndarray | None = None,
    aggregate: str = "image",
) -> float:
    return recall_details(
        predictions, gt, k, mode, subset_filter, graph_constraint, reweight_x, f_r, aggregate
    ).value


@dataclass(frozen=True)
class MeanRecallResult:
    value: float  # percentage
    per_class: dict[int, float]  # percentage per predicate id with >= 1 GT instance


def mean_recall_details(
    predictions: Sequence[PredictedGraph],
    gt: Dataset,
    k: int,
    mode: str = "sgcls",
    subset_filter: Iterable[Triplet] | None = None,
    graph_constraint: bool = False,
    reweight_x: float = 0.0,
    f_r: np.ndarray | None = None,
    aggregate: str = "image",
) -> MeanRecallResult:
    """Recall averaged uniformly over predicate classes present in the GT.

    Each image is ranked and matched once; the matches are then split by
    the predicate of the GT edge.
    """
    images = _match_images(
        predictions, gt, k, mode, subset_filter, graph_constraint, reweight_x, f_r, aggregate
    )
    present = sorted({p for _, edges in images for p, _ in edges})
    per_class = {}
    for predicate in present:
        of_class = [(i, [e for e in edges if e[0] == predicate]) for i, edges in images]
        per_class[predicate] = _recall([m for m in of_class if m[1]], aggregate).value
    return MeanRecallResult(sum(per_class.values()) / len(per_class), per_class)


def mean_recall(
    predictions: Sequence[PredictedGraph],
    gt: Dataset,
    k: int,
    mode: str = "sgcls",
    subset_filter: Iterable[Triplet] | None = None,
    graph_constraint: bool = False,
    reweight_x: float = 0.0,
    f_r: np.ndarray | None = None,
    aggregate: str = "image",
) -> float:
    return mean_recall_details(
        predictions, gt, k, mode, subset_filter, graph_constraint, reweight_x, f_r, aggregate
    ).value
