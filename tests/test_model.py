from __future__ import annotations

import builtins
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sggkit.ingest import graph_to_obj, load_dataset
from sggkit.model import (
    BoundingBox,
    ObjectNode,
    Relationship,
    SceneGraph,
    Triplet,
    Vocabulary,
    categorical_triplets,
    degree,
)
from sggkit.perturb import PerturbationConfig, perturb_graph
from sggkit.stats import build_frequency_table, shot_subsets

from .conftest import (
    ABOVE, CAT, DOG, NEAR, ON, PERSON, SURFBOARD, WAVE, dataset_of, make_graph, write_jsonl,
)


class TestVocabulary:
    def test_ids_are_positions(self, vocab):
        assert vocab.object_id("person") == 0
        assert vocab.object_id("cat") == 4
        assert vocab.predicate_id("on") == 0

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(("a", "a"), ("on",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Vocabulary((), ("on",))
        with pytest.raises(ValueError):
            Vocabulary(("a", ""), ("on",))


class TestBoundingBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            BoundingBox(5, 0, 5, 10)
        with pytest.raises(ValueError, match="degenerate"):
            BoundingBox(5, 10, 10, 10)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            BoundingBox(-1, 0, 5, 5)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, float("inf"), 5)


class TestSceneGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Relationship(1, 0, 1)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            make_graph("g", [PERSON, DOG], [(0, ON, 2)])

    def test_validate_against_vocab(self, vocab):
        graph = make_graph("g", [99], [])
        with pytest.raises(ValueError, match="category 99"):
            graph.validate(vocab)
        graph = make_graph("g", [PERSON, DOG], [(0, 7, 1)])
        with pytest.raises(ValueError, match="predicate 7"):
            graph.validate(vocab)

    def test_duplicate_edges_kept(self):
        graph = make_graph("g", [PERSON, DOG], [(0, ON, 1), (0, ON, 1)])
        assert graph.num_edges == 2
        assert categorical_triplets(graph) == [Triplet(PERSON, ON, DOG)] * 2


class TestDegree:
    def test_example_graph(self, surf_graph):
        # person takes part in both edges, once as object and once as subject
        assert degree(surf_graph, 0) == 2
        assert degree(surf_graph, 1) == 1
        assert degree(surf_graph, 2) == 1

    def test_isolated_node(self):
        graph = make_graph("g", [PERSON, DOG], [])
        assert degree(graph, 0) == 0

    def test_counts_both_roles(self):
        # node 0: subject in 2 edges, object in 1 on a 4-node toy graph
        graph = make_graph(
            "g", [PERSON, DOG, CAT, WAVE], [(0, ON, 1), (0, NEAR, 2), (3, ABOVE, 0)]
        )
        assert degree(graph, 0) == 3

    def test_out_of_range(self, surf_graph):
        with pytest.raises(IndexError):
            degree(surf_graph, 3)


class TestCategoricalTriplets:
    def test_example_graph(self, surf_graph):
        assert categorical_triplets(surf_graph) == [
            Triplet(WAVE, ABOVE, PERSON),
            Triplet(PERSON, ON, SURFBOARD),
        ]

    def test_empty(self):
        assert categorical_triplets(make_graph("g", [PERSON], [])) == []

    def test_perturbing_node_changes_only_incident_triplets(self, surf_graph):
        before = categorical_triplets(surf_graph)
        changed = surf_graph.with_categories([PERSON, DOG, WAVE])  # node 1 only
        after = categorical_triplets(changed)
        incident = {k for k, e in enumerate(surf_graph.edges) if 1 in (e.subject, e.object)}
        for k, (b, a) in enumerate(zip(before, after)):
            assert (b != a) == (k in incident)


class TestWithCategories:
    def test_keeps_unchanged_nodes_and_the_edge_tuple(self, surf_graph):
        changed = surf_graph.with_categories([PERSON, DOG, WAVE])
        assert changed.nodes[0] is surf_graph.nodes[0]
        assert changed.nodes[2] is surf_graph.nodes[2]
        assert changed.nodes[1] == ObjectNode(DOG, surf_graph.nodes[1].box)
        assert changed.nodes[1].box is surf_graph.nodes[1].box
        assert changed.edges is surf_graph.edges
        assert changed == make_graph("surf", [PERSON, DOG, WAVE], [(2, ABOVE, 0), (0, ON, 1)])

    def test_rejects_a_wrong_length_list(self, surf_graph):
        for categories in ([PERSON, DOG], [PERSON, DOG, WAVE, CAT]):
            with pytest.raises(ValueError, match="length does not match node count"):
                surf_graph.with_categories(categories)

    def test_rejects_a_negative_category(self, surf_graph):
        with pytest.raises(ValueError, match="negative object category -1"):
            surf_graph.with_categories([PERSON, -1, WAVE])


def rebuilt(graph: SceneGraph) -> SceneGraph:
    """`graph` made again through the public, checking constructors."""
    nodes = tuple(ObjectNode(n.category, BoundingBox(n.box.x1, n.box.y1, n.box.x2, n.box.y2))
                  for n in graph.nodes)
    edges = tuple(Relationship(e.subject, e.predicate, e.object) for e in graph.edges)
    return SceneGraph(graph.image_id, graph.width, graph.height, nodes, edges)


def assert_slotted_and_equal_to_rebuilt(graphs) -> None:
    graphs = list(graphs)
    assert graphs
    for graph in graphs:
        parts = [graph, *graph.nodes, *(n.box for n in graph.nodes), *graph.edges]
        assert not any(hasattr(part, "__dict__") for part in parts)
        assert graph == rebuilt(graph)


class TestSlottedModelObjects:
    """Boxes, nodes, edges and graphs keep no instance dict, whichever path built
    them, and equal the same objects made through the constructors."""

    def test_public_constructors(self, surf_graph):
        assert_slotted_and_equal_to_rebuilt([surf_graph])

    def test_with_categories(self, surf_graph):
        assert_slotted_and_equal_to_rebuilt([surf_graph.with_categories([DOG, CAT, WAVE])])

    def test_load_dataset(self, vocab, surf_graph, tmp_path):
        graphs = [surf_graph, make_graph("b", [CAT, DOG], [(1, NEAR, 0)]),
                  make_graph("c", [WAVE], [])]
        write_jsonl(tmp_path / "d.jsonl", [graph_to_obj(g) for g in graphs])
        loaded = load_dataset(tmp_path / "d.jsonl", vocab)
        assert_slotted_and_equal_to_rebuilt(loaded.graphs)
        assert loaded.graphs == tuple(graphs)

    def test_perturb_graph(self, vocab, surf_graph, rng):
        perturbed, record = perturb_graph(surf_graph, PerturbationConfig("rand", intensity=1.0),
                                          vocab, rng)
        assert len(record.replacements) == 3
        assert_slotted_and_equal_to_rebuilt([perturbed])

    def test_shot_subsets(self, vocab, surf_graph):
        train = dataset_of(vocab, surf_graph)
        test = dataset_of(vocab, make_graph("t", [PERSON, SURFBOARD, DOG],
                                            [(0, ON, 1), (2, ON, 1)]))
        subsets = shot_subsets(test, build_frequency_table(train))
        assert_slotted_and_equal_to_rebuilt(
            g for bucket in (subsets.zero, subsets.few10, subsets.all_shot)
            for g in bucket.dataset.graphs)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=10))
    categories = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    edges = []
    if n >= 2:
        for _ in range(m):
            s = draw(st.integers(0, n - 1))
            o = draw(st.integers(0, n - 2))
            if o >= s:
                o += 1
            edges.append((s, draw(st.integers(0, 2)), o))
    return make_graph("h", categories, edges)


@given(random_graphs())
def test_degree_sum_is_twice_edge_count(graph):
    assert sum(degree(graph, i) for i in range(graph.num_nodes)) == 2 * graph.num_edges


@given(random_graphs())
def test_triplets_align_with_edges(graph):
    triplets = categorical_triplets(graph)
    assert len(triplets) == graph.num_edges
    for t, e in zip(triplets, graph.edges):
        assert t.subject_category == graph.nodes[e.subject].category
        assert t.predicate == e.predicate
        assert t.object_category == graph.nodes[e.object].category


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


BUILTIN_SUM = builtins.sum


def compensated_sum(values, start=0):
    """Python 3.12's `sum` compensates float rounding; `math.fsum` stands in for it."""
    values = list(values)
    if values and all(type(v) is float for v in values):
        return start + math.fsum(values)
    return BUILTIN_SUM(values, start)


def graphn_probabilities():
    from sggkit.perturb import graphn_candidates
    from sggkit.stats import TripletFrequencyTable

    # Ten candidates for node 0, each with mean count 10, so each inverse is 0.1.
    table = TripletFrequencyTable({Triplet(c, 0, 11): 10 for c in range(1, 11)})
    graph = SceneGraph("g", 100, 100, (ObjectNode(0, BoundingBox(0, 0, 5, 5)),
                                       ObjectNode(11, BoundingBox(10, 0, 15, 5))),
                       (Relationship(0, 0, 1),))
    return [c.probability for c in graphn_candidates(graph, 0, table, 0)]


def image_recall():
    from sggkit.evaluation import _percent
    return _percent([(f"i{k}", 1, 10) for k in range(10)], "image")


def mean_recall():
    from sggkit.evaluation import RecallResult
    return RecallResult(10.0, {}, 1, 10, {k: 0.1 for k in range(10)}).mean


def prdc_average():
    from sggkit.featmetrics import PRDCResult
    return PRDCResult(0.7, 0.1, 0.1, 0.1).average


@pytest.mark.parametrize("site, expected", [
    (graphn_probabilities, [0.1 / left_to_right([0.1] * 10)] * 10),
    (image_recall, 100.0 * left_to_right([0.1] * 10) / 10),
    (mean_recall, left_to_right([0.1] * 10) / 10),
    (prdc_average, left_to_right([0.7, 0.1, 0.1, 0.1]) / 4.0),
], ids=["graphn-normaliser", "image-recall", "mean-recall", "prdc-average"])
def test_output_float_sums_add_left_to_right(monkeypatch, site, expected):
    """Each float sum on an output path keeps 3.11's left-to-right bits where a
    compensated `sum`, as in 3.12, gives others; these inputs tell the two apart."""
    assert left_to_right([0.1] * 10) != compensated_sum([0.1] * 10)
    assert left_to_right([0.7, 0.1, 0.1, 0.1]) != compensated_sum([0.7, 0.1, 0.1, 0.1])
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert site() == expected
