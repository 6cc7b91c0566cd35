from __future__ import annotations

import numpy as np
import pytest

from sggkit.evaluation import (
    PairScores,
    PredictedGraph,
    RankedTriplet,
    iou,
    mean_recall,
    mean_recall_details,
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
    n, num_classes = pred.object_scores.shape
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
        assert out[0].scores.argmax() == pairs[0].scores.argmax()

    def test_rare_predicate_overtakes(self):
        pairs = self.pairs_of([0.6, 0.4])
        out = reweight_scores(pairs, np.array([0.8, 0.2]), 1.0)
        np.testing.assert_allclose(out[0].scores, [0.75, 2.0])
        assert out[0].scores.argmax() == 1

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
        details = mean_recall_details([PredictedGraph("a", scores, pairs)], ds, 50,
                                      graph_constraint=True)
        assert details.per_class == {ON: 100.0, ABOVE: 0.0}


# --- tie-heavy inputs: scores drawn from a few values ----------------------

QUANTA = (0.0, 0.25, 0.5, 1.0)
OBJECT_ROWS = ((1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.25, 0.25, 0.5), (0.0, 0.5, 0.5))


@pytest.mark.parametrize("evaluate", [recall_details, mean_recall])
@pytest.mark.parametrize("size", [1, 2, 4])
def test_reweighting_needs_one_frequency_per_predicate(vocab, surf_graph, evaluate, size):
    """One entry used to broadcast to every predicate, unweighted; 2 or 4 raised numpy's
    broadcast error."""
    ds = dataset_of(vocab, surf_graph)
    preds = [perfect_prediction(surf_graph, vocab)]
    with pytest.raises(ValueError, match=rf"f_r has shape \({size},\); .* shape \(3,\)"):
        evaluate(preds, ds, 50, reweight_x=1.0, f_r=np.full(size, 0.5))


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
                    got = mean_recall_details([p for _, p in instances], ds, k,
                                              graph_constraint=constraint, aggregate=aggregate)
                    expected = {c: brute_class_recall(instances, c, k, constraint, aggregate)
                                for c in present}
                    assert got.per_class == expected
                    assert got.value == sum(expected.values()) / len(expected)
