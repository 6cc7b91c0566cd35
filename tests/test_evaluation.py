from __future__ import annotations

import gc
import math
import re
import weakref
from array import array
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sggkit import evaluation
from sggkit.evaluation import (
    PairScores,
    PredictedGraph,
    RankedTriplet,
    _predicate_weights,
    iou,
    mean_recall,
    rank_triplets,
    recall_at_k,
    recall_details,
    reweight_scores,
)
from sggkit.ingest import Dataset
from sggkit.model import BoundingBox, Triplet, Vocabulary, categorical_triplets

from .conftest import ABOVE, DOG, ON, PERSON, SURFBOARD, box, dataset_of, make_graph


# --- independent naive reference implementations -------------------------

def brute_rank(pred, graph_constraint, k):
    n, num_classes = np.shape(pred.object_scores)
    labels, label_scores = [], []
    for i in range(n):
        best = max(range(num_classes), key=lambda c: (pred.object_scores[i][c], -c))
        labels.append(best)
        label_scores.append(pred.object_scores[i][best])
    candidates = []
    for pair in pred.pairs:
        num_preds = len(pair.scores)
        if graph_constraint:
            chosen = [max(range(num_preds), key=lambda p: (pair.scores[p], -p))]
        else:
            chosen = list(range(num_preds))
        for p in chosen:
            score = label_scores[pair.subject] * label_scores[pair.object] * pair.scores[p]
            candidates.append(
                RankedTriplet(pair.subject, pair.object, labels[pair.subject], p,
                              labels[pair.object], float(score))
            )
    candidates.sort(key=lambda t: (-t.score, t.subject, t.object, t.predicate))
    return candidates[:k]


def brute_image_recall(pred, graph, k, mode, graph_constraint):
    ranked = brute_rank(pred, graph_constraint, k)
    remaining = list(range(len(graph.edges)))
    matched = 0
    for r in ranked:
        for slot in remaining:
            e = graph.edges[slot]
            if r.predicate != e.predicate:
                continue
            if r.subject_label != graph.nodes[e.subject].category:
                continue
            if r.object_label != graph.nodes[e.object].category:
                continue
            if mode == "sggen":
                if iou(pred.boxes[r.subject], graph.nodes[e.subject].box) < 0.5:
                    continue
                if iou(pred.boxes[r.object], graph.nodes[e.object].box) < 0.5:
                    continue
            elif (r.subject, r.object) != (e.subject, e.object):
                continue
            remaining.remove(slot)
            matched += 1
            break
    return matched


def perfect_prediction(graph, vocab):
    scores = np.zeros((graph.num_nodes, vocab.num_objects))
    for i, node in enumerate(graph.nodes):
        scores[i, node.category] = 1.0
    pairs = []
    for e in graph.edges:
        ps = np.zeros(vocab.num_predicates)
        ps[e.predicate] = 1.0
        pairs.append(PairScores(e.subject, e.object, ps))
    return PredictedGraph(graph.image_id, scores, tuple(pairs))


# --------------------------------------------------------------------------

class TestIoU:
    def test_identical(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0

    def test_half_offset_unit_squares(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(0.5, 0, 1.5, 1)) == pytest.approx(1 / 3)

    def test_symmetric_and_bounded(self, rng):
        for _ in range(100):
            vals = rng.uniform(0, 50, size=8)
            a = BoundingBox(vals[0], vals[1], vals[0] + vals[2] + 0.1, vals[1] + vals[3] + 0.1)
            b = BoundingBox(vals[4], vals[5], vals[4] + vals[6] + 0.1, vals[5] + vals[7] + 0.1)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou(b, a))


class TestReweight:
    def pairs_of(self, *score_rows):
        return tuple(
            PairScores(0, 1, np.asarray(row, dtype=np.float64)) for row in score_rows
        )

    def test_x_zero_is_identity(self):
        pairs = self.pairs_of([0.6, 0.4])
        out = reweight_scores(pairs, np.array([0.8, 0.2]), 0.0)
        assert out[0] is pairs[0]
        assert out[0].scores is pairs[0].scores

    def test_equal_frequencies_scale_uniformly(self):
        pairs = self.pairs_of([0.6, 0.4])
        out = reweight_scores(pairs, np.array([0.5, 0.5]), 2.0)
        np.testing.assert_allclose(out[0].scores, [2.4, 1.6])
        assert np.argmax(out[0].scores) == pairs[0].scores.argmax()

    def test_rare_predicate_overtakes(self):
        pairs = self.pairs_of([0.6, 0.4])
        out = reweight_scores(pairs, np.array([0.8, 0.2]), 1.0)
        np.testing.assert_allclose(out[0].scores, [0.75, 2.0])
        assert np.argmax(out[0].scores) == 1

    def test_zero_frequency_with_score_rejected(self):
        pairs = self.pairs_of([0.6, 0.4])
        with pytest.raises(ValueError, match="zero training frequency"):
            reweight_scores(pairs, np.array([1.0, 0.0]), 1.0)

    def test_non_finite_weights_rejected(self):
        pairs = self.pairs_of([0.5, 0.5])
        with pytest.raises(ValueError, match="not all finite"):
            reweight_scores(pairs, np.array([1e-300, 0.5]), 2.0)
        with pytest.raises(ValueError, match="not all finite"):
            reweight_scores(pairs, np.array([np.nan, 0.5]), 1.0)

    @pytest.mark.parametrize("x", [-1.0, float("nan"), float("inf")])
    def test_exponent_must_be_finite_and_non_negative(self, x):
        # with every frequency 1.0 the weights (1 / 1)^x are 1.0 even for NaN
        # and infinity, so only the exponent check catches them
        pairs = self.pairs_of([0.5, 0.5])
        with pytest.raises(ValueError, match="exponent must be finite and >= 0"):
            reweight_scores(pairs, np.array([1.0, 1.0]), x)

    def test_uniform_frequency_preserves_all_rankings(self, vocab, rng):
        f = np.full(3, 1 / 3)
        for _ in range(30):
            scores = rng.uniform(0.01, 1.0, size=(1, 5))
            scores /= scores.sum()
            pairs = (
                PairScores(0, 1, rng.uniform(0, 1, size=3)),
                PairScores(1, 0, rng.uniform(0, 1, size=3)),
            )
            base = PredictedGraph("i", scores.repeat(2, axis=0) / 1, pairs)
            for x in (1.0, 2.0, 3.0):
                rw = PredictedGraph("i", base.object_scores, reweight_scores(pairs, f, x))
                for constraint in (True, False):
                    a = [t[:5] for t in rank_triplets(base, constraint, 50)]
                    b = [t[:5] for t in rank_triplets(rw, constraint, 50)]
                    assert a == b


class TestRankTriplets:
    def test_constraint_keeps_one_per_pair(self, vocab):
        pred = PredictedGraph(
            "i",
            np.full((2, 5), 0.2),
            (PairScores(0, 1, np.array([0.1, 0.7, 0.2])),),
        )
        ranked = rank_triplets(pred, True, 100)
        assert len(ranked) == 1
        assert ranked[0].predicate == 1

    def test_no_constraint_enumerates_predicates(self):
        scores = np.full((2, 5), 0.2)
        pred = PredictedGraph("i", scores, (PairScores(0, 1, np.linspace(0.1, 0.9, 50)),))
        ranked = rank_triplets(pred, False, 100)
        assert len(ranked) == 50

    def test_tie_break_order(self):
        pred = PredictedGraph(
            "i",
            np.full((3, 4), 0.25),
            (
                PairScores(1, 0, np.array([0.5, 0.5])),
                PairScores(0, 2, np.array([0.5, 0.5])),
            ),
        )
        ranked = rank_triplets(pred, False, 10)
        keys = [(t.subject, t.object, t.predicate) for t in ranked]
        assert keys == [(0, 2, 0), (0, 2, 1), (1, 0, 0), (1, 0, 1)]

    def test_matches_brute_force_randomized(self, rng):
        for trial in range(100):
            n = int(rng.integers(2, 5))
            num_obj = int(rng.integers(2, 6))
            num_pred = int(rng.integers(1, 6))
            scores = rng.uniform(0.01, 1, size=(n, num_obj))
            scores /= scores.sum(axis=1, keepdims=True)
            pairs = []
            for s in range(n):
                for o in range(n):
                    if s != o and rng.random() < 0.7:
                        pairs.append(PairScores(s, o, rng.uniform(0, 1, size=num_pred)))
            pred = PredictedGraph("i", scores, tuple(pairs))
            for constraint in (True, False):
                for k in (1, 5, 50):
                    assert rank_triplets(pred, constraint, k) == brute_rank(pred, constraint, k)


def random_instance(rng, with_boxes=False):
    n = int(rng.integers(2, 5))
    num_obj, num_pred = 4, int(rng.integers(2, 6))
    vocab = Vocabulary(
        tuple(f"o{i}" for i in range(num_obj)),
        tuple(f"p{i}" for i in range(num_pred)),
    )
    cats = rng.integers(0, num_obj, size=n).tolist()
    edges = []
    for _ in range(int(rng.integers(1, 6))):
        s = int(rng.integers(n))
        o = int(rng.integers(n - 1))
        if o >= s:
            o += 1
        edges.append((s, int(rng.integers(num_pred)), o))
    graph = make_graph("i", cats, edges)

    scores = rng.uniform(0.01, 1, size=(n, num_obj))
    scores /= scores.sum(axis=1, keepdims=True)
    pairs = []
    for s in range(n):
        for o in range(n):
            if s != o and rng.random() < 0.8:
                pairs.append(PairScores(s, o, rng.uniform(0, 1, size=num_pred)))
    boxes = None
    if with_boxes:
        boxes = tuple(
            BoundingBox(
                g.box.x1 + float(rng.uniform(0, 2)),
                g.box.y1,
                g.box.x2 + float(rng.uniform(0, 2)),
                g.box.y2 + float(rng.uniform(0, 1)),
            )
            for g in graph.nodes
        )
    pred = PredictedGraph("i", scores, tuple(pairs), boxes)
    return vocab, graph, pred


class TestRecallAtK:
    def test_perfect_prediction_is_100(self, vocab, surf_graph):
        ds = dataset_of(vocab, surf_graph)
        preds = [perfect_prediction(surf_graph, vocab)]
        assert recall_at_k(preds, ds, 50, graph_constraint=True) == 100.0

    def test_zero_overlap_is_0(self, vocab, surf_graph):
        ds = dataset_of(vocab, surf_graph)
        scores = np.zeros((3, 5))
        scores[:, DOG] = 1.0
        preds = [PredictedGraph("surf", scores,
                                (PairScores(0, 1, np.array([0, 0, 1.0])),))]
        assert recall_at_k(preds, ds, 50) == 0.0

    def test_matches_brute_force_on_mixed_toy(self, rng):
        for _ in range(200):
            vocab, graph, pred = random_instance(rng)
            ds = Dataset(vocab, (graph,))
            for constraint in (True, False):
                for k in (1, 5, 50):
                    expected = brute_image_recall(pred, graph, k, "sgcls", constraint)
                    got = recall_at_k([pred], ds, k, "sgcls", graph_constraint=constraint)
                    assert got == 100.0 * (expected / graph.num_edges)

    def test_sggen_uses_iou_matching(self, vocab, surf_graph):
        ds = dataset_of(vocab, surf_graph)
        base = perfect_prediction(surf_graph, vocab)
        close = tuple(
            BoundingBox(n.box.x1 + 0.2, n.box.y1, n.box.x2 + 0.2, n.box.y2)
            for n in surf_graph.nodes
        )
        far = tuple(
            BoundingBox(n.box.x1 + 100, n.box.y1, n.box.x2 + 100, n.box.y2)
            for n in surf_graph.nodes
        )
        good = PredictedGraph("surf", base.object_scores, base.pairs, close)
        bad = PredictedGraph("surf", base.object_scores, base.pairs, far)
        assert recall_at_k([good], ds, 50, "sggen", graph_constraint=True) == 100.0
        assert recall_at_k([bad], ds, 50, "sggen", graph_constraint=True) == 0.0

    def test_sggen_brute_force(self, rng):
        for _ in range(60):
            vocab, graph, pred = random_instance(rng, with_boxes=True)
            ds = Dataset(vocab, (graph,))
            expected = brute_image_recall(pred, graph, 10, "sggen", False)
            got = recall_at_k([pred], ds, 10, "sggen", graph_constraint=False)
            assert got == 100.0 * (expected / graph.num_edges)

    def test_monotone_in_k(self, rng):
        for _ in range(30):
            vocab, graph, pred = random_instance(rng)
            ds = Dataset(vocab, (graph,))
            values = [
                recall_at_k([pred], ds, k, graph_constraint=False) for k in (1, 2, 5, 20, 50)
            ]
            assert values == sorted(values)

    def test_missing_prediction_listed(self, vocab, surf_graph):
        other = make_graph("other", [PERSON, SURFBOARD], [(0, ON, 1)])
        ds = dataset_of(vocab, surf_graph, other)
        preds = [perfect_prediction(surf_graph, vocab)]
        with pytest.raises(ValueError, match="other"):
            recall_at_k(preds, ds, 50)

    def test_unknown_prediction_rejected(self, vocab, surf_graph):
        ds = dataset_of(vocab, surf_graph)
        preds = [
            perfect_prediction(surf_graph, vocab),
            perfect_prediction(make_graph("ghost", [PERSON, SURFBOARD], [(0, ON, 1)]), vocab),
        ]
        with pytest.raises(ValueError, match="ghost"):
            recall_at_k(preds, ds, 50)

    def test_subset_filter_restricts_ground_truth(self, vocab, surf_graph):
        ds = dataset_of(vocab, surf_graph)
        preds = [perfect_prediction(surf_graph, vocab)]
        only = {Triplet(PERSON, ON, SURFBOARD)}
        result = recall_details(preds, ds, 50, subset_filter=only, graph_constraint=True)
        assert result.total == 1
        assert result.value == 100.0

    def test_zero_shot_and_seen_partition_all_shot(self, rng):
        # greedily matched counts add across the two composition classes
        for _ in range(50):
            vocab, graph, pred = random_instance(rng)
            ds = Dataset(vocab, (graph,))
            triplets = set(categorical_triplets(graph))
            seen = {t for t in triplets if rng.random() < 0.5}
            zs = triplets - seen
            total = recall_details([pred], ds, 10, graph_constraint=False, aggregate="triplet")
            parts = 0
            for subset in (seen, zs):
                if any(t in subset for t in categorical_triplets(graph)):
                    parts += recall_details(
                        [pred], ds, 10, subset_filter=subset,
                        graph_constraint=False, aggregate="triplet",
                    ).matched
            assert total.matched == parts

    def test_aggregate_triplet_vs_image(self, vocab):
        g1 = make_graph("a", [PERSON, SURFBOARD], [(0, ON, 1)])
        g2 = make_graph("b", [PERSON, SURFBOARD, DOG],
                        [(0, ON, 1), (2, ABOVE, 0), (2, ON, 1), (1, ABOVE, 2)])
        ds = dataset_of(vocab, g1, g2)
        perfect = perfect_prediction(g1, vocab)
        empty = PredictedGraph("b", perfect_prediction(g2, vocab).object_scores, ())
        preds = [perfect, empty]
        by_image = recall_at_k(preds, ds, 50, graph_constraint=True, aggregate="image")
        by_triplet = recall_at_k(preds, ds, 50, graph_constraint=True, aggregate="triplet")
        assert by_image == 50.0  # (1.0 + 0.0) / 2
        assert by_triplet == pytest.approx(100.0 / 5)  # 1 of 5 instances


class TestMeanRecall:
    def test_equal_class_performance_matches_recall(self, vocab, surf_graph):
        ds = dataset_of(vocab, surf_graph)
        preds = [perfect_prediction(surf_graph, vocab)]
        r = recall_at_k(preds, ds, 50, graph_constraint=True)
        mr = mean_recall(preds, ds, 50, graph_constraint=True)
        assert r == mr == 100.0

    def test_two_classes_half(self, vocab):
        graph = make_graph("a", [PERSON, SURFBOARD], [(0, ON, 1), (1, ABOVE, 0)])
        ds = dataset_of(vocab, graph)
        scores = perfect_prediction(graph, vocab).object_scores
        pairs = (
            PairScores(0, 1, np.array([1.0, 0.0, 0.0])),  # correct
            PairScores(1, 0, np.array([1.0, 0.0, 0.0])),  # wrong predicate
        )
        preds = [PredictedGraph("a", scores, pairs)]
        assert mean_recall(preds, ds, 50, graph_constraint=True) == 50.0

    def test_reweighting_trades_recall_for_mean_recall(self):
        # long-tailed toy set: raising x strictly raises mR and lowers R@1
        vocab = Vocabulary(("thing", "other"), ("p0", "p1", "p2", "p3"))
        f_r = np.array([0.7, 0.23, 0.05, 0.02])
        cases = (
            [(0, [0.8, 0.1, 0.1, 0.0])] * 4        # flips wrong at x=1
            + [(0, [0.95, 0.04, 0.01, 0.0])] * 4   # flips wrong at x=2
            + [(2, [0.55, 0.05, 0.4, 0.0])]        # correct from x=1
            + [(1, [0.55, 0.40, 0.002, 0.0])]      # correct from x=1
            + [(3, [0.7, 0.05, 0.2, 0.05])]        # correct at x=2
        )
        graphs, preds = [], []
        for i, (gt_pred, scores) in enumerate(cases):
            graph = make_graph(f"img{i}", [0, 1], [(0, gt_pred, 1)])
            graphs.append(graph)
            one_hot = np.zeros((2, 2))
            one_hot[0, 0] = one_hot[1, 1] = 1.0
            preds.append(
                PredictedGraph(f"img{i}", one_hot, (PairScores(0, 1, np.array(scores)),))
            )
        ds = Dataset(vocab, tuple(graphs))
        recalls, mean_recalls = [], []
        for x in (0.0, 1.0, 2.0):
            recalls.append(
                recall_at_k(preds, ds, 1, "predcls", graph_constraint=True,
                            reweight_x=x, f_r=f_r)
            )
            mean_recalls.append(
                mean_recall(preds, ds, 1, "predcls", graph_constraint=True,
                            reweight_x=x, f_r=f_r)
            )
        assert recalls[0] > recalls[1] > recalls[2]
        assert mean_recalls[0] < mean_recalls[1] < mean_recalls[2]
        assert recalls[0] == pytest.approx(100 * 8 / 11)
        assert mean_recalls[0] == pytest.approx(25.0)
        assert mean_recalls[1] == pytest.approx(62.5)
        assert mean_recalls[2] == pytest.approx(75.0)

    def test_per_class_values(self, vocab):
        graph = make_graph("a", [PERSON, SURFBOARD], [(0, ON, 1), (1, ABOVE, 0)])
        ds = dataset_of(vocab, graph)
        scores = perfect_prediction(graph, vocab).object_scores
        pairs = (
            PairScores(0, 1, np.array([1.0, 0.0, 0.0])),
            PairScores(1, 0, np.array([1.0, 0.0, 0.0])),
        )
        details = recall_details([PredictedGraph("a", scores, pairs)], ds, 50,
                                 graph_constraint=True)
        assert details.per_class == {ON: 100.0, ABOVE: 0.0}


# --- tie-heavy inputs: scores drawn from a few values ----------------------

QUANTA = (0.0, 0.25, 0.5, 1.0)
OBJECT_ROWS = ((1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.25, 0.25, 0.5), (0.0, 0.5, 0.5))


def reweight_first_image(preds, ds, k, reweight_x, f_r):
    return reweight_scores(preds[0].pairs, f_r, reweight_x)


@pytest.mark.parametrize("evaluate", [recall_details, mean_recall, reweight_first_image])
@pytest.mark.parametrize("size", [1, 2, 4])
def test_reweighting_needs_one_frequency_per_predicate(vocab, surf_graph, evaluate, size):
    """One entry used to broadcast to every predicate, unweighted; 2 or 4 raised numpy's
    broadcast error."""
    ds = dataset_of(vocab, surf_graph)
    preds = [perfect_prediction(surf_graph, vocab)]
    with pytest.raises(ValueError, match=rf"f_r has shape \({size},\); .* shape \(3,\)"):
        evaluate(preds, ds, 50, reweight_x=1.0, f_r=np.full(size, 0.5))


def test_reweighting_checks_every_pair_against_f_r():
    """Only the first pair's length was checked; a shorter later pair was broadcast, so
    [0.5] came back as [1.0, 2.0, 2.0]."""
    pairs = (PairScores(0, 1, np.array([0.2, 0.5, 0.3])), PairScores(1, 0, np.array([0.5])))
    with pytest.raises(ValueError, match=r"^pair \(1, 0\) has scores of shape \(1,\); f_r has "
                                         "3 predicates$"):
        reweight_scores(pairs, np.array([0.5, 0.25, 0.25]), 1.0)


@pytest.mark.parametrize("first, shape", [(0.5, r"\(\)"), ([[0.5], [0.5]], r"\(2, 1\)")],
                         ids=["scalar", "nested-list"])
def test_reweighting_names_a_malformed_first_pair(first, shape):
    """The weights were sized by len(pairs[0].scores): a scalar raised a bare TypeError, and
    a (2, 1) first pair was blamed on f_r."""
    pairs = (PairScores(0, 1, first), PairScores(1, 0, np.array([0.5])))
    with pytest.raises(ValueError, match=rf"^pair \(0, 1\) has scores of shape {shape}; f_r has "
                                         "1 predicates$"):
        reweight_scores(pairs, np.array([0.5]), 1.0)


def test_reweighting_no_pairs_is_empty():
    assert reweight_scores((), np.full(3, 0.5), 1.0) == ()


@pytest.mark.parametrize("evaluate", [recall_details, mean_recall])
@pytest.mark.parametrize("object_columns, pair_scores, message", [
    (3, [0.5, 0.5], r"image 'i': pair \(0, 1\) has scores of shape \(2,\); the vocabulary "
                    "has 3 predicates"),
    (3, [0.25] * 4, r"image 'i': pair \(0, 1\) has scores of shape \(4,\); the vocabulary "
                    "has 3 predicates"),
    (4, [1.0, 0.0, 0.0], "image 'i': object_scores has 4 columns; the vocabulary has 3 "
                         "object categories"),
], ids=["2-scores", "4-scores", "4-object-columns"])
def test_prediction_sizes_must_match_the_vocabulary(evaluate, object_columns, pair_scores,
                                                    message):
    """Each of these used to score 0.0 with no error, ranking predicate and object ids
    the vocabulary does not have."""
    ds = Dataset(Vocabulary(("a", "b", "c"), ("p0", "p1", "p2")),
                 (make_graph("i", [0, 1], [(0, 0, 1)]),))
    pred = PredictedGraph("i", np.eye(2, object_columns),
                          (PairScores(0, 1, np.array(pair_scores)),))
    with pytest.raises(ValueError, match=message):
        evaluate([pred], ds, 50)


def quantised_instance(rng, image_id="i", num_pred=3):
    """Ground truth and prediction whose scores take only a few values, so
    many candidates tie, also at the K-th score."""
    n = int(rng.integers(2, 6))
    cats = rng.integers(0, 3, size=n).tolist()
    edges = []
    for _ in range(int(rng.integers(1, 7))):
        s, o = (int(v) for v in rng.choice(n, size=2, replace=False))
        edges.append((s, int(rng.integers(num_pred)), o))
    graph = make_graph(image_id, cats, edges)
    scores = np.array([OBJECT_ROWS[i] for i in rng.integers(len(OBJECT_ROWS), size=n)])
    pairs = tuple(
        PairScores(s, o, rng.choice(QUANTA, size=num_pred))
        for s in range(n) for o in range(n) if s != o and rng.random() < 0.7
    )
    return graph, PredictedGraph(image_id, scores, pairs)


def ks_around(num_candidates):
    """K below, equal to and above the number of candidates."""
    return sorted({1, max(1, num_candidates - 1), max(1, num_candidates), num_candidates + 1,
                   2 * num_candidates + 3})


class TestRankTiesAgainstBruteForce:
    def test_quantised_scores(self, rng):
        for _ in range(150):
            num_pred = int(rng.integers(1, 5))
            _, pred = quantised_instance(rng, num_pred=num_pred)
            for constraint in (True, False):
                num = len(pred.pairs) * (1 if constraint else num_pred)
                for k in ks_around(num):
                    assert rank_triplets(pred, constraint, k) == brute_rank(pred, constraint, k)

    def test_image_without_pairs(self):
        pred = PredictedGraph("i", np.array([OBJECT_ROWS[0], OBJECT_ROWS[1]]), ())
        for constraint in (True, False):
            for k in (1, 5):
                assert rank_triplets(pred, constraint, k) == brute_rank(pred, constraint, k) == []

    def test_reweighted_quantised_scores(self, rng):
        for _ in range(100):
            graph, pred = quantised_instance(rng)
            f_r = rng.choice((0.1, 0.2, 0.4), size=3)
            x = float(rng.choice((0.5, 1.0, 2.0)))
            reweighted = PredictedGraph(
                "i", pred.object_scores, reweight_scores(pred.pairs, f_r, x)
            )
            ds = Dataset(Vocabulary(("a", "b", "c"), ("p0", "p1", "p2")), (graph,))
            for constraint in (True, False):
                for k in ks_around(len(pred.pairs) * (1 if constraint else 3)):
                    assert (rank_triplets(reweighted, constraint, k)
                            == brute_rank(reweighted, constraint, k))
                    expected = brute_image_recall(reweighted, graph, k, "sgcls", constraint)
                    got = recall_details([pred], ds, k, graph_constraint=constraint,
                                         reweight_x=x, f_r=f_r)
                    assert got.matched == expected
                    assert got.value == 100.0 * (expected / graph.num_edges)


def brute_class_recall(instances, predicate, k, graph_constraint, aggregate):
    """Recall on the edges of one predicate alone, through brute_image_recall."""
    counts = []
    for graph, pred in instances:
        alone = make_graph(
            graph.image_id, [n.category for n in graph.nodes],
            [(e.subject, e.predicate, e.object) for e in graph.edges if e.predicate == predicate],
        )
        if alone.num_edges:
            matched = brute_image_recall(pred, alone, k, "sgcls", graph_constraint)
            counts.append((matched, alone.num_edges))
    if aggregate == "image":
        return 100.0 * sum(m / t for m, t in counts) / len(counts)
    return 100.0 * sum(m for m, _ in counts) / sum(t for _, t in counts)


class TestMeanRecallAgainstBruteForce:
    @pytest.mark.parametrize("aggregate", ["image", "triplet"])
    def test_per_class_is_recall_on_that_class_alone(self, rng, aggregate):
        vocab = Vocabulary(("a", "b", "c"), ("p0", "p1", "p2"))
        for _ in range(40):
            instances = [quantised_instance(rng, f"img{i}") for i in range(int(rng.integers(1, 4)))]
            ds = Dataset(vocab, tuple(g for g, _ in instances))
            present = sorted({e.predicate for g in ds.graphs for e in g.edges})
            for constraint in (True, False):
                for k in (1, 3, 20):
                    got = recall_details([p for _, p in instances], ds, k,
                                         graph_constraint=constraint, aggregate=aggregate)
                    expected = {c: brute_class_recall(instances, c, k, constraint, aggregate)
                                for c in present}
                    assert got.per_class == expected
                    assert got.mean == sum(expected.values()) / len(expected)


# --- the numpy ranking this module replaced, as a reference ----------------

def numpy_weights(f_r, x):
    """(1 / f_r)^x per predicate as numpy computes it, 0 where f_r <= 0, and that mask."""
    f_r = np.asarray(f_r, dtype=np.float64)
    zero = f_r <= 0
    weights = np.zeros_like(f_r)
    weights[~zero] = (1.0 / f_r[~zero]) ** x
    return weights, zero


def numpy_rank(pred, graph_constraint, k, weights):
    """The numpy `_rank`, reading the object rows through np.asarray."""
    if not pred.pairs:
        return []
    scores = np.stack([p.scores for p in pred.pairs])
    if weights is not None:
        weights, zero = weights
        if (zero & (scores > 0)).any():
            raise ValueError("nonzero score for a predicate with zero training frequency")
        scores = scores * weights
    object_scores = np.asarray(pred.object_scores)
    labels = object_scores.argmax(axis=1)
    label_scores = object_scores.max(axis=1)
    subjects = np.array([p.subject for p in pred.pairs])
    objects = np.array([p.object for p in pred.pairs])
    if graph_constraint:
        best = scores.argmax(axis=1)
        scores = np.take_along_axis(scores, best[:, None], axis=1)
    flat = ((label_scores[subjects] * label_scores[objects])[:, None] * scores).ravel()
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


# Signed zeros among the few values; frequencies whose (1 / f)^0.5 and (1 / f)^1 are
# exact, so that numpy's weights and the library's are the same floats at both x.
SIGNED_QUANTA = (0.0, -0.0, 0.25, 0.5, 1.0)
SIGNED_OBJECT_ROWS = OBJECT_ROWS + ((1.0, -0.0, 0.0), (-0.0, 0.5, 0.5))
EXACT_FREQUENCIES = (0.0, 0.0625, 0.25, 1.0)


@st.composite
def tie_heavy_instances(draw):
    """Ground truth and a prediction over a 3-object vocabulary, every score from a few
    values, so that many candidates tie, at the K-th score too."""
    num_pred = draw(st.integers(1, 4))
    n = draw(st.integers(2, 5))
    cats = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ordered = [(s, o) for s in range(n) for o in range(n) if s != o]
    edges = draw(st.lists(st.tuples(st.sampled_from(ordered), st.integers(0, num_pred - 1)),
                          min_size=1, max_size=6))
    graph = make_graph("i", cats, [(s, p, o) for (s, o), p in edges])
    rows = draw(st.lists(st.sampled_from(SIGNED_OBJECT_ROWS), min_size=n, max_size=n))
    pairs = tuple(
        PairScores(s, o, draw(st.lists(st.sampled_from(SIGNED_QUANTA), min_size=num_pred,
                                       max_size=num_pred)))
        for s, o in draw(st.lists(st.sampled_from(ordered), unique=True))
    )
    f_r = draw(st.lists(st.sampled_from(EXACT_FREQUENCIES), min_size=num_pred,
                        max_size=num_pred))
    vocab = Vocabulary(("a", "b", "c"), tuple(f"p{i}" for i in range(num_pred)))
    return Dataset(vocab, (graph,)), PredictedGraph("i", rows, pairs), f_r


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_ranking_and_recall_match_the_numpy_ranking(instance):
    ds, pred, f_r = instance
    num_pred = ds.vocabulary.num_predicates
    as_numpy = PredictedGraph("i", np.array(pred.object_scores), tuple(
        PairScores(s, o, np.array(row)) for s, o, row in pred.pairs))
    for constraint in (True, False):
        for k in ks_around(len(pred.pairs) * (1 if constraint else num_pred)):
            expected = numpy_rank(pred, constraint, k, None)
            assert rank_triplets(pred, constraint, k) == expected
            assert rank_triplets(as_numpy, constraint, k) == expected
            assert evaluation._rank_matrix(pred, constraint, k, None) == expected
            for x, matrix_candidates in product((0.0, 0.5, 1.0),
                                                (evaluation.MATRIX_CANDIDATES, 0)):
                def reference(p, gc, kk, weights, x=x):
                    return numpy_rank(p, gc, kk, None if weights is None else numpy_weights(f_r, x))

                def evaluate(x=x):
                    return recall_details([pred], ds, k, graph_constraint=constraint,
                                          reweight_x=x, f_r=f_r)

                try:
                    with patch.object(evaluation, "MATRIX_CANDIDATES", matrix_candidates):
                        got = evaluate()
                except ValueError as e:
                    with pytest.raises(ValueError, match=re.escape(str(e))):
                        with patch.object(evaluation, "_rank_rows", reference), \
                                patch.object(evaluation, "_rank_matrix", reference):
                            evaluate()
                    continue
                with patch.object(evaluation, "_rank_rows", reference), \
                        patch.object(evaluation, "_rank_matrix", reference):
                    want = evaluate()
                assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e300)), min_size=1, max_size=60))
def test_weights_at_x_one_are_numpy_weights_bit_for_bit(f_r):
    weights, zero = _predicate_weights(f_r, 1.0, len(f_r))
    expected, expected_zero = numpy_weights(f_r, 1.0)
    assert np.array(weights).view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert zero == np.flatnonzero(expected_zero).tolist()


# --- the two stored forms --------------------------------------------------

@pytest.mark.parametrize("object_scores", [
    np.full((2, 3, 1), 1 / 3),
    [[[0.5], [0.5]], [[0.5], [0.5]]],
    [],
    0.5,
], ids=["numpy-n-C-1", "lists-n-C-1", "empty-list", "scalar"])
def test_object_scores_that_are_not_2d_are_rejected(object_scores):
    with pytest.raises(ValueError, match=r"^image 'i': object_scores must be 2-d$"):
        PredictedGraph("i", object_scores, ())


def test_a_prediction_without_nodes_is_an_empty_tuple_or_matrix():
    assert PredictedGraph("i", (), ()).num_nodes == 0
    assert PredictedGraph("i", np.zeros((0, 3)), ()).num_nodes == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("as_numpy", [False, True], ids=["rows", "matrix"])
def test_non_finite_pair_scores_are_rejected(bad, as_numpy):
    """A NaN was ranked by where it sat: with the constraint, predicate 2 (0.5) then 0.3 as
    rows, but 0.3 then predicate 1 scored nan as a matrix, which without the constraint
    returned one triplet for K = 2."""
    rows, first, second = [[1, 0], [0, 1]], [0.2, bad, 0.5], [0.3, 0.1, 0.1]
    if as_numpy:
        rows, first, second = np.array(rows, dtype=float), np.array(first), np.array(second)
    with pytest.raises(ValueError, match=r"^image 'i': pair \(0, 1\) has non-finite scores$"):
        PredictedGraph("i", rows, (PairScores(0, 1, first), PairScores(1, 0, second)))


def test_bit_tests_match_the_float_tests():
    """evaluation._flagged reads the sign and exponent bits: _NON_FINITE flags exactly NaN
    and the infinities, _NOT_BELOW_ONE every value but those in [+0.0, 1.0)."""
    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -15, 0.5, 0.9999999999999999, 1.0,
             1.0000000000000002, 1.5, 2.0, 1e308, -1e308, float("inf"), -float("inf"),
             float("nan"), -float("nan"), 3e-5, 0.0625, 0.999]
    values = edges + rng.random(200).tolist() + np.frombuffer(
        rng.integers(0, 256, size=8 * 400, dtype=np.uint8).tobytes()).tolist()

    def below_one(v):
        return 0.0 <= v < 1.0 and math.copysign(1.0, v) > 0

    for v in values:
        doubles = array("d", [v]).tobytes()
        assert evaluation._flagged(doubles, evaluation._NON_FINITE) == (not math.isfinite(v))
        assert evaluation._flagged(doubles, evaluation._NOT_BELOW_ONE) == (not below_one(v))
    for start in range(0, len(values), 7):  # a value's flags are its own, not its neighbours'
        chunk = values[start:start + 7]
        doubles = array("d", chunk).tobytes()
        assert (evaluation._flagged(doubles, evaluation._NON_FINITE)
                == (not all(map(math.isfinite, chunk))))
        assert (evaluation._flagged(doubles, evaluation._NOT_BELOW_ONE)
                == (not all(map(below_one, chunk))))
    assert not evaluation._flagged(b"", evaluation._NON_FINITE)


def test_pair_scores_whose_sum_overflows_are_finite():
    pred = PredictedGraph("i", [[1, 0], [0, 1]], (PairScores(0, 1, [1e308, 1e308, 0.5]),))
    assert rank_triplets(pred, True, 1)[0].score == 1e308


@pytest.mark.parametrize("object_scores", [np.eye(2, 3), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
                         ids=["matrix", "rows"])
@pytest.mark.parametrize("scores, shape", [
    (np.full((3, 1), 0.2), r"\(3, 1\)"),
    (np.full((3, 2), 0.2), r"\(3, 2\)"),
    ([[0.2], [0.3], [0.5]], r"\(3, 1\)"),
    (0.5, r"\(\)"),
], ids=["P-1", "P-2", "nested-list", "scalar"])
def test_pair_scores_that_are_not_1d_are_named_by_their_shape(object_scores, scores, shape):
    """array("d") would flatten a (P, 1) array and fail on the others with a bare TypeError
    and no image id; each is kept as it is, and evaluation names its shape."""
    ds = Dataset(Vocabulary(("a", "b", "c"), ("p0", "p1", "p2")),
                 (make_graph("i", [0, 1], [(0, 0, 1)]),))
    pred = PredictedGraph("i", object_scores, (PairScores(0, 1, scores),))
    with pytest.raises(ValueError, match=rf"^image 'i': pair \(0, 1\) has scores of shape "
                                         rf"{shape}; the vocabulary has 3 predicates$"):
        recall_details([pred], ds, 50)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_evaluation_pauses_the_collector_and_restores_it(enabled):
    """Evaluation ranks with the cyclic collector paused; the caller's state is what it was
    afterwards, also after an error."""
    ds = Dataset(Vocabulary(("a", "b", "c"), ("p0", "p1", "p2")),
                 (make_graph("i", [0, 1], [(0, 0, 1)]),))
    pred = PredictedGraph("i", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                          (PairScores(0, 1, [0.5, 0.25, 0.25]),))
    seen, rank, before = [], evaluation._rank_rows, gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with patch.object(evaluation, "_rank_rows",
                          lambda *a: seen.append(gc.isenabled()) or rank(*a)):
            assert recall_details([pred], ds, 50).value == 100.0
        assert (seen, gc.isenabled()) == ([False], enabled)
        with pytest.raises(ValueError, match="K must be >= 1"):
            recall_details([pred], ds, 0)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if before else gc.disable)()


def test_rows_are_stored_as_arrays_of_doubles():
    pred = PredictedGraph("i", [[1, 0], np.array([0.25, 0.75])],
                          (PairScores(0, 1, [0.5, 1]), PairScores(1, 0, np.array([0.0, 1.0]))))
    assert [type(row) for row in pred.object_scores] == [array, array]
    assert [type(p.scores) for p in pred.pairs] == [array, array]
    assert [row.tolist() for row in pred.object_scores] == [[1.0, 0.0], [0.25, 0.75]]
    assert pred.pairs[0].scores.tolist() == [0.5, 1.0]


def test_arrays_of_other_types_are_stored_as_doubles():
    pred = PredictedGraph("i", [array("f", [1, 0]), [0, 1]],
                          (PairScores(0, 1, array("f", [0.5, 0.25])),))
    assert [row.typecode for row in pred.object_scores] == ["d", "d"]
    assert pred.pairs[0].scores.typecode == "d"
    assert pred.pairs[0].scores.tolist() == [0.5, 0.25]


@pytest.mark.parametrize("reweight_x", [0.0, 1.0])
@pytest.mark.parametrize("matrix_candidates", [evaluation.MATRIX_CANDIDATES, 0],
                         ids=["plain-python", "numpy"])
def test_each_prediction_is_dropped_before_the_next_is_read(rng, matrix_candidates, reweight_x):
    """Evaluation reads any iterable of predictions once, as it arrives, and keeps no image:
    each is dead by the time the next is requested. The result is that of a list."""
    instances = [quantised_instance(rng, f"img{i}") for i in range(8)]
    ds = dataset_of(Vocabulary(("a", "b", "c"), ("p0", "p1", "p2")), *(g for g, _ in instances))
    refs = []

    def stream():
        for _, pred in instances:
            assert [ref() for ref in refs] == [None] * len(refs)
            image = PredictedGraph(pred.image_id, pred.object_scores, pred.pairs)
            refs.append(weakref.ref(image))
            yield image
            del image

    with patch.object(evaluation, "MATRIX_CANDIDATES", matrix_candidates):
        common = dict(reweight_x=reweight_x, f_r=[0.5, 0.25, 0.25])
        got = recall_details(stream(), ds, 20, **common)
        assert len(refs) == 8
        assert got == recall_details([pred for _, pred in instances], ds, 20, **common)


def test_unknown_images_are_reported_after_the_stream():
    """An image absent from the ground truth is reported once every prediction is read, so
    a later image's own error comes first; the unknown ids are then reported sorted."""
    ds = Dataset(Vocabulary(("a", "b"), ("p0",)), (make_graph("i", [0, 1], [(0, 0, 1)]),))

    def pred(image_id, n=2):
        return PredictedGraph(image_id, [[1.0, 0.0]] * n, (PairScores(0, 1, [1.0]),))

    with pytest.raises(ValueError, match="^image 'i': prediction has 3 nodes"):
        recall_details(iter([pred("z"), pred("i", 3)]), ds, 5)
    with pytest.raises(ValueError, match=r"absent from ground truth: \['y', 'z'\]$"):
        recall_details(iter([pred("z"), pred("i"), pred("y")]), ds, 5)
