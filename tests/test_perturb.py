from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import sggkit

from sggkit.cli import main as cli_main
from sggkit.ingest import (
    Dataset,
    EmbeddingTable,
    graph_to_obj,
    load_dataset,
    load_embeddings,
    load_vocabulary,
)
from sggkit.model import (
    BoundingBox,
    ObjectNode,
    Relationship,
    SceneGraph,
    Triplet,
    Vocabulary,
    categorical_triplets,
)
from sggkit.perturb import (
    METHODS,
    CannotPerturbError,
    PerturbationConfig,
    PerturbationRecord,
    PerturbationResources,
    _choice,
    _Stream,
    graph_seed,
    graphn_candidates,
    perturb_dataset,
    perturb_graph,
    sample_nodes,
    semantic_neighbors,
)
from sggkit.stats import (
    TripletFrequencyTable,
    build_frequency_table,
    triplet_set_from_json_obj,
)

from .conftest import (
    ABOVE,
    CAT,
    DOG,
    ON,
    PERSON,
    SURFBOARD,
    WAVE,
    dataset_of,
    make_graph,
    write_jsonl,
    write_vocab,
)

CHI2_P = 0.001


def table_of(spec) -> TripletFrequencyTable:
    return TripletFrequencyTable({Triplet(*t): c for t, c in spec.items()})


def embeddings_for(num_categories, dim=4, seed=99) -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    return EmbeddingTable(rng.normal(size=(num_categories, dim)))


class TestSampleNodes:
    def test_zero_intensity(self, surf_graph, rng):
        assert sample_nodes(surf_graph, 0.0, rng) == []

    def test_full_intensity_returns_all(self, surf_graph, rng):
        assert sorted(sample_nodes(surf_graph, 1.0, rng)) == [0, 1, 2]

    def test_count_rounds_with_floor_one(self, rng):
        graph = make_graph("g", [PERSON] * 10, [])
        assert len(sample_nodes(graph, 0.2, rng)) == 2
        assert len(sample_nodes(graph, 0.01, rng)) == 1  # floor at one node

    def test_degree_weighted_hub_preference(self):
        # star: hub degree 4, four leaves degree 1 -> hub drawn with p = 0.5
        graph = make_graph("star", [PERSON] * 5, [(0, ON, 1), (0, ON, 2), (0, ON, 3), (0, ON, 4)])
        rng = np.random.default_rng(2024)
        trials = 100_000
        hub = sum(sample_nodes(graph, 0.1, rng)[0] == 0 for _ in range(trials))
        sigma = (trials * 0.25) ** 0.5
        assert abs(hub - trials / 2) <= 3 * sigma

    def test_uniform_fallback_for_edgeless(self):
        graph = make_graph("g", [PERSON, DOG, CAT], [])
        rng = np.random.default_rng(5)
        counts = Counter(sample_nodes(graph, 0.34, rng)[0] for _ in range(30_000))
        _, p = chisquare(list(counts.values()))
        assert p > CHI2_P

    def test_without_replacement(self, rng):
        graph = make_graph("g", [PERSON] * 6, [(0, ON, 1), (1, ON, 2)])
        for _ in range(200):
            picked = sample_nodes(graph, 1.0, rng)
            assert len(picked) == len(set(picked)) == 6


class TestPerturbRand:
    def test_two_classes_forced_flip(self, rng):
        vocab = Vocabulary(("a", "b"), ("on",))
        graph = make_graph("g", [0], [])
        cfg = PerturbationConfig("rand", intensity=1.0, master_seed=1)
        perturbed, record = perturb_graph(graph, cfg, vocab, rng)
        assert perturbed.nodes[0].category == 1
        assert record.replacements == ((0, 0, 1),)

    def test_intensity_changes_exact_count(self, vocab, rng):
        graph = make_graph("g", [PERSON] * 10, [(i, ON, i + 1) for i in range(9)])
        cfg = PerturbationConfig("rand", intensity=0.2)
        perturbed, record = perturb_graph(graph, cfg, vocab, rng)
        assert len(record.replacements) == 2
        changed = sum(
            a.category != b.category for a, b in zip(graph.nodes, perturbed.nodes)
        )
        assert changed == 2

    def test_uniform_over_other_categories(self, vocab):
        graph = make_graph("g", [PERSON], [])
        cfg = PerturbationConfig("rand", intensity=1.0)
        rng = np.random.default_rng(0)
        counts = Counter()
        for _ in range(100_000):
            _, record = perturb_graph(graph, cfg, vocab, rng)
            counts[record.replacements[0][2]] += 1
        assert PERSON not in counts
        assert sorted(counts) == [SURFBOARD, WAVE, DOG, CAT]
        _, p = chisquare(list(counts.values()))
        assert p > CHI2_P

    def test_single_class_vocab_cannot_perturb(self, rng):
        vocab = Vocabulary(("only",), ("on",))
        graph = make_graph("g", [0], [])
        with pytest.raises(CannotPerturbError):
            perturb_graph(graph, PerturbationConfig("rand", intensity=1.0), vocab, rng)

    def test_structure_invariant(self, vocab, rng):
        graph = make_graph("g", [PERSON, DOG, CAT], [(0, ON, 1), (2, ABOVE, 0)])
        perturbed, _ = perturb_graph(graph, PerturbationConfig("rand", intensity=1.0), vocab, rng)
        assert perturbed.edges == graph.edges
        assert [n.box for n in perturbed.nodes] == [n.box for n in graph.nodes]
        assert perturbed.num_nodes == graph.num_nodes


class TestSemanticNeighbors:
    def test_hand_computed_cosine(self):
        emb = EmbeddingTable(np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]))
        assert semantic_neighbors(emb, 0, 2) == [1, 2]

    def test_orthonormal_ties_break_by_id(self):
        emb = EmbeddingTable(np.eye(4))
        assert semantic_neighbors(emb, 2, 1) == [0]

    def test_k_equals_all_others(self):
        emb = EmbeddingTable(np.array([[1.0, 0.0], [0.8, 0.6], [-1.0, 0.0]]))
        assert semantic_neighbors(emb, 0, 2) == [1, 2]

    def test_k_too_large_rejected(self):
        emb = EmbeddingTable(np.eye(3))
        with pytest.raises(ValueError):
            semantic_neighbors(emb, 0, 3)

    def test_negative_k_rejected(self):
        # a negative slice bound returned every neighbour but the last
        with pytest.raises(ValueError, match=r"k=-1 must lie in \[0, 4\)"):
            semantic_neighbors(EmbeddingTable(np.eye(4)), 0, -1)

    @pytest.mark.parametrize("category", [-1, 4, 9])
    def test_category_outside_the_table_rejected(self, category):
        # -1 gave category 3's neighbours, 3 among them; 4 raised a bare IndexError
        emb = EmbeddingTable(np.eye(4))
        message = rf"category {category} outside \[0, 4\)"
        with pytest.raises(ValueError, match=message):
            semantic_neighbors(emb, category, 1)
        with pytest.raises(ValueError, match=message):
            semantic_neighbors(emb, category, 0)
        with pytest.raises(ValueError, match=message):
            emb.neighbor_ranking(category)
        assert category not in emb._rankings

    def test_query_never_included(self):
        emb = embeddings_for(8)
        for cat in range(8):
            assert cat not in semantic_neighbors(emb, cat, 7)


class TestPerturbNeigh:
    def test_k1_is_deterministic_nearest(self, rng):
        vocab = Vocabulary(("a", "b", "c"), ("on",))
        emb = EmbeddingTable(np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0]]))
        graph = make_graph("g", [0], [])
        cfg = PerturbationConfig("neigh", intensity=1.0, top_k=1)
        perturbed, _ = perturb_graph(graph, cfg, vocab, rng, PerturbationResources(emb))
        assert perturbed.nodes[0].category == 1

    def test_uniform_over_top_k(self):
        num = 12
        vocab = Vocabulary(tuple(f"c{i}" for i in range(num)), ("on",))
        emb = embeddings_for(num)
        expected = set(semantic_neighbors(emb, 0, 10))
        graph = make_graph("g", [0], [])
        cfg = PerturbationConfig("neigh", intensity=1.0, top_k=10)
        resources = PerturbationResources(emb)
        rng = np.random.default_rng(3)
        counts = Counter()
        for _ in range(100_000):
            _, record = perturb_graph(graph, cfg, vocab, rng, resources)
            counts[record.replacements[0][2]] += 1
        assert set(counts) == expected
        _, p = chisquare(list(counts.values()))
        assert p > CHI2_P

    def test_replacement_always_differs(self, rng):
        num = 6
        vocab = Vocabulary(tuple(f"c{i}" for i in range(num)), ("on",))
        emb = embeddings_for(num)
        graph = make_graph("g", [3, 1], [(0, ON, 1)])
        cfg = PerturbationConfig("neigh", intensity=1.0, top_k=4)
        resources = PerturbationResources(emb)
        for _ in range(300):
            _, record = perturb_graph(graph, cfg, vocab, rng, resources)
            for _, old, new in record.replacements:
                assert old != new


class TestGraphNCandidates:
    def test_current_category_excluded(self):
        table = table_of({(PERSON, ON, SURFBOARD): 4, (CAT, ON, SURFBOARD): 1})
        graph = make_graph("g", [PERSON, SURFBOARD], [(0, ON, 1)])
        cands = graphn_candidates(graph, 0, table, alpha=1)
        assert [(c.category, c.mean_count, c.probability) for c in cands] == [(CAT, 1.0, 1.0)]

    def test_inverse_frequency_probabilities(self):
        table = table_of({(PERSON, ON, SURFBOARD): 4, (CAT, ON, SURFBOARD): 1})
        graph = make_graph("g", [DOG, SURFBOARD], [(0, ON, 1)])
        cands = graphn_candidates(graph, 0, table, alpha=1)
        by_cat = {c.category: c.probability for c in cands}
        assert by_cat[PERSON] == pytest.approx(0.2)
        assert by_cat[CAT] == pytest.approx(0.8)

    def test_alpha_filters_rare_counts(self):
        table = table_of({(PERSON, ON, SURFBOARD): 4, (CAT, ON, SURFBOARD): 1})
        graph = make_graph("g", [DOG, SURFBOARD], [(0, ON, 1)])
        cands = graphn_candidates(graph, 0, table, alpha=2)
        assert [(c.category, c.probability) for c in cands] == [(PERSON, 1.0)]

    def test_multiple_supports_average(self):
        # CAT supported twice for the same node: counts 2 and 6 -> mean 4
        table = table_of({(CAT, ON, SURFBOARD): 2, (CAT, ABOVE, WAVE): 6})
        graph = make_graph("g", [DOG, SURFBOARD, WAVE], [(0, ON, 1), (0, ABOVE, 2)])
        cands = graphn_candidates(graph, 0, table, alpha=0)
        assert [(c.category, c.mean_count) for c in cands] == [(CAT, 4.0)]

    def test_object_role_preserved(self):
        table = table_of({(PERSON, ON, SURFBOARD): 3, (SURFBOARD, ON, PERSON): 7})
        graph = make_graph("g", [PERSON, DOG], [(0, ON, 1)])
        cands = graphn_candidates(graph, 1, table, alpha=0)
        assert [(c.category, c.mean_count) for c in cands] == [(SURFBOARD, 3.0)]

    def test_probabilities_exactly_inverse_count(self):
        table = table_of(
            {(PERSON, ON, SURFBOARD): 2, (CAT, ON, SURFBOARD): 5, (WAVE, ON, SURFBOARD): 10}
        )
        graph = make_graph("g", [DOG, SURFBOARD], [(0, ON, 1)])
        cands = graphn_candidates(graph, 0, table, alpha=0)
        inv = {PERSON: 1 / 2, CAT: 1 / 5, WAVE: 1 / 10}
        norm = sum(inv.values())
        for c in cands:
            assert c.probability == pytest.approx(inv[c.category] / norm, abs=1e-15)

    def test_nan_and_negative_alpha_rejected_inf_accepted(self):
        table = table_of({(PERSON, ON, SURFBOARD): 4, (CAT, ON, SURFBOARD): 1})
        graph = make_graph("g", [DOG, SURFBOARD], [(0, ON, 1)])
        for alpha in (float("nan"), -1):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                graphn_candidates(graph, 0, table, alpha)
        assert graphn_candidates(graph, 0, table, float("inf")) == []

    def test_arrays_sized_by_the_ids_read(self):
        """The largest id, 2**24, sits in a row the call never reads. Sized by the
        table's largest id, the call allocated two 128 MB arrays."""
        import tracemalloc

        table = table_of({(PERSON, ON, SURFBOARD): 4, (CAT, ON, SURFBOARD): 1,
                          (2**24, ABOVE, 2**24): 2})
        graph = make_graph("g", [DOG, SURFBOARD], [(0, ON, 1)])
        table.by_predicate_object, table.by_subject_predicate  # built once per table
        tracemalloc.start()
        try:
            cands = graphn_candidates(graph, 0, table, alpha=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.category for c in cands] == [PERSON, CAT]
        assert peak < 1 << 20

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec = {
                (int(s), int(p), int(o)): int(c)
                for s, p, o, c in rng.integers(1, 6, size=(8, 4))
            }
            table = table_of(spec)
            graph = make_graph(
                "g",
                rng.integers(0, 6, size=3).tolist(),
                [(0, int(rng.integers(0, 5)), 1), (2, int(rng.integers(0, 5)), 0)],
            )
            previous = None
            for alpha in (0, 1, 2, 4, 8):
                cats = {c.category for c in graphn_candidates(graph, 0, table, alpha)}
                if previous is not None:
                    assert cats <= previous
                previous = cats


class TestPerturbGraphN:
    def setup_method(self):
        self.vocab = Vocabulary(("person", "surfboard", "wave", "dog", "cat"), ("on", "above", "near"))
        self.emb = embeddings_for(5)

    def test_alpha_above_all_counts_leaves_graph_unchanged(self, rng):
        table = table_of({(PERSON, ON, SURFBOARD): 4})
        graph = make_graph("g", [PERSON, SURFBOARD], [(0, ON, 1)])
        cfg = PerturbationConfig("graphn", intensity=1.0, top_k=2, alpha=100)
        resources = PerturbationResources(self.emb, table)
        perturbed, record = perturb_graph(graph, cfg, self.vocab, rng, resources)
        assert perturbed == graph
        assert record.replacements == ()
        assert record.affected_edges == ()

    def test_sequential_conditioning_on_partial_state(self):
        # chain a-on-b; after the first node flips, the second node's
        # candidates must reflect the new category
        table = table_of(
            {
                (PERSON, ON, SURFBOARD): 1,
                (DOG, ON, SURFBOARD): 1,
                (DOG, ON, WAVE): 1,
            }
        )
        graph = make_graph("g", [PERSON, SURFBOARD], [(0, ON, 1)])
        cfg = PerturbationConfig("graphn", intensity=1.0, top_k=0, alpha=0)
        resources = PerturbationResources(self.emb, table)
        seen_conditioned = False
        for seed in range(200):
            rng = np.random.default_rng(seed)
            perturbed, record = perturb_graph(graph, cfg, self.vocab, rng, resources)
            order = [n for n, _, _ in record.replacements]
            if order and order[0] == 0 and perturbed.nodes[0].category == DOG:
                # with node 0 now DOG, node 1 candidates are {WAVE} (SURFBOARD is current)
                if len(order) == 2:
                    assert perturbed.nodes[1].category == WAVE
                    seen_conditioned = True
        assert seen_conditioned

    def test_topk_zero_draws_intermediate_directly(self, rng):
        table = table_of({(PERSON, ON, SURFBOARD): 4, (CAT, ON, SURFBOARD): 1})
        graph = make_graph("g", [DOG, SURFBOARD], [(0, ON, 1)])
        cfg = PerturbationConfig("graphn", intensity=0.5, top_k=0, alpha=1)
        resources = PerturbationResources(self.emb, table)
        outcomes = set()
        for _ in range(500):
            perturbed, record = perturb_graph(graph, cfg, self.vocab, rng, resources)
            for node, _, new in record.replacements:
                if node == 0:
                    outcomes.add(new)
        assert outcomes == {PERSON, CAT}

    def test_final_draw_pool_includes_intermediate_and_neighbors(self, rng):
        emb = EmbeddingTable(np.eye(5))
        table = table_of({(CAT, ON, SURFBOARD): 1})
        graph = make_graph("g", [DOG, SURFBOARD], [(0, ON, 1)])
        cfg = PerturbationConfig("graphn", intensity=0.5, top_k=2, alpha=0)
        resources = PerturbationResources(emb, table)
        outcomes = Counter()
        for _ in range(4000):
            _, record = perturb_graph(graph, cfg, self.vocab, rng, resources)
            for node, _, new in record.replacements:
                if node == 0:
                    outcomes[new] += 1
        # intermediate is always CAT; orthonormal ties give neighbors {0, 1}
        assert set(outcomes) == {CAT, PERSON, SURFBOARD}

    def test_skipped_nodes_not_resampled(self, rng):
        # only node 0 has candidates; node 1 must be skipped, leaving one replacement
        table = table_of({(CAT, ON, SURFBOARD): 1, (PERSON, ON, SURFBOARD): 1})
        graph = make_graph("g", [PERSON, SURFBOARD], [(0, ON, 1)])
        cfg = PerturbationConfig("graphn", intensity=1.0, top_k=0, alpha=0)
        resources = PerturbationResources(self.emb, table)
        for _ in range(100):
            _, record = perturb_graph(graph, cfg, self.vocab, rng, resources)
            assert {n for n, _, _ in record.replacements} <= {0, 1}
            assert len(record.replacements) <= 2


class TestPerturbOracleZs:
    def test_person_becomes_dog(self, vocab, rng):
        resources = PerturbationResources(zs_triplets=frozenset({Triplet(DOG, ON, SURFBOARD)}))
        graph = make_graph("g", [PERSON, SURFBOARD], [(0, ON, 1)])
        cfg = PerturbationConfig("oracle_zs", intensity=1.0)
        perturbed, record = perturb_graph(graph, cfg, vocab, rng, resources)
        assert perturbed.nodes[0].category == DOG
        assert perturbed.nodes[1].category == SURFBOARD
        assert record.replacements == ((0, PERSON, DOG),)

    def test_unsatisfiable_node_skipped(self, vocab, rng):
        # node 0 has two incident compositions; no category satisfies both
        resources = PerturbationResources(zs_triplets=frozenset({Triplet(DOG, ON, SURFBOARD)}))
        graph = make_graph("g", [PERSON, SURFBOARD, WAVE], [(0, ON, 1), (0, ON, 2)])
        cfg = PerturbationConfig("oracle_zs", intensity=1.0)
        perturbed, record = perturb_graph(graph, cfg, vocab, rng, resources)
        assert 0 not in {n for n, _, _ in record.replacements}
        assert perturbed.nodes[0].category == PERSON

    def test_every_touched_composition_is_reference(self, vocab):
        rng = np.random.default_rng(77)
        zs = {
            Triplet(s, p, o)
            for s in (DOG, CAT)
            for p in (ON, ABOVE)
            for o in (SURFBOARD, WAVE, DOG, CAT)
            if s != o
        }
        resources = PerturbationResources(zs_triplets=frozenset(zs))
        cfg = PerturbationConfig("oracle_zs", intensity=0.5)
        for i in range(200):
            cats = rng.integers(0, 5, size=4).tolist()
            graph = make_graph(f"g{i}", cats, [(0, ON, 1), (1, ABOVE, 2), (3, ON, 2)])
            perturbed, record = perturb_graph(graph, cfg, vocab, rng, resources)
            triplets = categorical_triplets(perturbed)
            for edge_index in record.affected_edges:
                assert triplets[edge_index] in zs

    def test_reference_index_is_built_once_per_resources(self, vocab, rng, monkeypatch):
        prop = PerturbationResources.__dict__["_zs_index"]
        built = []
        build = prop.func
        monkeypatch.setattr(prop, "func", lambda resources: built.append(1) or build(resources))
        graph = make_graph("g", [PERSON, SURFBOARD], [(0, ON, 1)])
        cfg = PerturbationConfig("oracle_zs", intensity=1.0)
        resources = PerturbationResources(zs_triplets=frozenset({Triplet(DOG, ON, SURFBOARD)}))
        for _ in range(2):
            perturbed, _ = perturb_graph(graph, cfg, vocab, rng, resources)
            assert perturbed.nodes[0].category == DOG
        assert len(built) == 1
        perturb_dataset(dataset_of(vocab, graph), cfg, resources)
        assert len(built) == 1
        again = PerturbationResources(zs_triplets=resources.zs_triplets)
        perturb_graph(graph, cfg, vocab, rng, again)
        assert len(built) == 2

    def test_one_index_serves_vocabularies_of_any_size(self, rng):
        # The index keeps reference categories past |C|; each rule leaves them out.
        resources = PerturbationResources(zs_triplets=frozenset({Triplet(2, 0, 1)}))
        graph = make_graph("g", [0, 1], [(0, 0, 1)])
        cfg = PerturbationConfig("oracle_zs", intensity=1.0)
        small, large = Vocabulary(("a", "b"), ("on",)), Vocabulary(("a", "b", "c"), ("on",))
        assert perturb_graph(graph, cfg, small, rng, resources)[1].replacements == ()
        assert perturb_graph(graph, cfg, large, rng, resources)[1].replacements == ((0, 0, 2),)
        assert perturb_graph(graph, cfg, small, rng, resources)[1].replacements == ()

    def test_empty_reference_rejected(self, vocab, rng):
        graph = make_graph("g", [PERSON, SURFBOARD], [(0, ON, 1)])
        with pytest.raises(ValueError):
            perturb_graph(graph, PerturbationConfig("oracle_zs"), vocab, rng,
                          PerturbationResources(zs_triplets=frozenset()))


class TestPerturbDataset:
    def corpus(self, vocab, n=100, seed=1):
        rng = np.random.default_rng(seed)
        graphs = []
        for i in range(n):
            cats = rng.integers(0, 5, size=4).tolist()
            graphs.append(make_graph(f"img{i}", cats, [(0, ON, 1), (1, ABOVE, 2), (2, ON, 3)]))
        return dataset_of(vocab, *graphs)

    def test_same_seed_identical(self, vocab):
        ds = self.corpus(vocab)
        cfg = PerturbationConfig("rand", intensity=0.2, master_seed=42)
        out1, rec1 = perturb_dataset(ds, cfg)
        out2, rec2 = perturb_dataset(ds, cfg)
        assert out1.graphs == out2.graphs
        assert rec1 == rec2

    def test_order_permutation_invariance(self, vocab):
        ds = self.corpus(vocab)
        cfg = PerturbationConfig("rand", intensity=0.2, master_seed=42)
        _, rec_fwd = perturb_dataset(ds, cfg)
        shuffled = Dataset(vocab, tuple(reversed(ds.graphs)))
        _, rec_rev = perturb_dataset(shuffled, cfg)
        by_id = {r.image_id: r for r in rec_rev}
        for record in rec_fwd:
            assert by_id[record.image_id] == record

    def test_master_seed_changes_output(self, vocab):
        ds = self.corpus(vocab)
        _, rec_a = perturb_dataset(ds, PerturbationConfig("rand", 0.2, master_seed=1))
        _, rec_b = perturb_dataset(ds, PerturbationConfig("rand", 0.2, master_seed=2))
        assert rec_a != rec_b

    def test_missing_resources_rejected(self, vocab):
        ds = self.corpus(vocab, n=2)
        with pytest.raises(ValueError, match="embedding"):
            perturb_dataset(ds, PerturbationConfig("neigh"))
        with pytest.raises(ValueError, match="frequency"):
            perturb_dataset(
                ds,
                PerturbationConfig("graphn"),
                PerturbationResources(embeddings=embeddings_for(5)),
            )
        with pytest.raises(ValueError, match="oracle_zs"):
            perturb_dataset(ds, PerturbationConfig("oracle_zs"))

    @pytest.mark.parametrize("method", ["neigh", "graphn"])
    @pytest.mark.parametrize("vectors", [
        np.eye(3),  # too few rows: a neigh run raised numpy's bare IndexError part-way
        np.vstack([np.eye(5), 2 * np.eye(5)]),  # each category's nearest row lies past |C|
    ], ids=["3-rows", "10-rows"])
    def test_embedding_table_size_must_match_the_vocabulary(self, vocab, rng, method, vectors):
        ds = self.corpus(vocab, n=2)
        cfg = PerturbationConfig(method, intensity=1.0, top_k=1, alpha=0)
        resources = PerturbationResources(EmbeddingTable(vectors), build_frequency_table(ds))
        message = (f"the embedding table has {len(vectors)} rows; the vocabulary has 5 "
                   f"object categories")
        with pytest.raises(ValueError, match=message):
            perturb_dataset(ds, cfg, resources)
        with pytest.raises(ValueError, match=message):
            perturb_graph(ds.graphs[0], cfg, vocab, rng, resources)

    @pytest.mark.parametrize("triplet", [(7, ON, SURFBOARD), (PERSON, 5, SURFBOARD)],
                             ids=["category", "predicate"])
    def test_graphn_table_must_fit_the_vocabulary(self, rng, triplet):
        """Checked before any graph is perturbed: a category past |C| could make a run
        fail part-way, naming the embedding table, and a predicate past |R| passed unseen."""
        vocab = Vocabulary(("person", "surfboard", "wave", "dog", "cat"), ("on", "above"))
        ds = self.corpus(vocab, n=2)
        cfg = PerturbationConfig("graphn", intensity=1.0, top_k=2, alpha=0)
        resources = PerturbationResources(embeddings_for(5), table_of({triplet: 3}))
        s, p, o = triplet
        message = rf"triplet \(s={s}, p={p}, o={o}\) outside the vocabulary \(\|C\|=5, \|R\|=2\)"
        with pytest.raises(ValueError, match=message):
            perturb_dataset(ds, cfg, resources)
        with pytest.raises(ValueError, match=message):
            perturb_graph(ds.graphs[0], cfg, vocab, rng, resources)

    def test_graphn_end_to_end_caps_intensity(self, vocab):
        ds = self.corpus(vocab, n=40)
        table = build_frequency_table(ds)
        cfg = PerturbationConfig("graphn", intensity=0.5, top_k=2, alpha=1, master_seed=3)
        resources = PerturbationResources(embeddings=embeddings_for(5), table=table)
        perturbed, records = perturb_dataset(ds, cfg, resources)
        for graph, out, record in zip(ds.graphs, perturbed.graphs, records):
            budget = max(1, round(0.5 * graph.num_nodes))
            assert len(record.replacements) <= budget
            assert out.edges == graph.edges

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4)),
                           st.integers(1, 9), min_size=1, max_size=45),
           st.sampled_from([0, 2, 4]), st.data())
    def test_graphn_ignores_the_stats_files_row_order(self, counts, alpha, data):
        """The table's indexes sort the rows they are read from, so a stats file's row
        order, in either layout the text reader takes, reaches no draw."""
        vocab = Vocabulary(("person", "surfboard", "wave", "dog", "cat"), ("on", "above", "near"))
        ds = self.corpus(vocab, n=30)
        rows = table_of(counts).to_json_obj()
        shuffled = data.draw(st.permutations(rows))
        cfg = PerturbationConfig("graphn", intensity=0.5, top_k=2, alpha=alpha, master_seed=7)

        def perturbed(rows, **layout):
            text = json.dumps({"triplets": rows}, sort_keys=True, **layout)
            table = TripletFrequencyTable.from_stats_json(io.StringIO(text))
            return perturb_dataset(ds, cfg, PerturbationResources(embeddings_for(5), table))

        graphs, records = perturbed(rows, separators=(",", ":"))
        for layout in ({"separators": (",", ":")}, {"indent": 2}):
            got_graphs, got_records = perturbed(shuffled, **layout)
            assert got_graphs.graphs == graphs.graphs and got_records == records

    def test_seed_hash_is_stable(self):
        # frozen FNV-1a value so the seeding scheme cannot drift silently
        assert graph_seed("img1", 0) == 0xEE1E49C5769E028F
        assert graph_seed("img1", 5) == 0xEE1E49C5769E028F ^ 5
        assert graph_seed("img1", 5) != graph_seed("img2", 5)

    def test_seed_hash_keeps_a_master_seed_past_64_bits(self):
        assert graph_seed("img1", 2**64 + 5) == 2**64 + (0xEE1E49C5769E028F ^ 5)


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            PerturbationConfig("bogus")

    def test_negative_master_seed(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            PerturbationConfig("rand", master_seed=-1)

    def test_bad_intensity(self):
        with pytest.raises(ValueError):
            PerturbationConfig("rand", intensity=1.5)

    def test_bad_alpha_and_topk(self):
        with pytest.raises(ValueError):
            PerturbationConfig("graphn", alpha=-1)
        with pytest.raises(ValueError):
            PerturbationConfig("graphn", top_k=-1)

    def test_nan_alpha_rejected_inf_accepted(self):
        with pytest.raises(ValueError, match="alpha"):
            PerturbationConfig("graphn", alpha=float("nan"))
        assert PerturbationConfig("graphn", alpha=float("inf")).alpha == float("inf")


class TestRecordInvariants:
    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            PerturbationRecord("g", ((0, 1, 2), (0, 2, 3)), ())

    def test_rejects_noop(self):
        with pytest.raises(ValueError):
            PerturbationRecord("g", ((0, 1, 1),), ())

    def test_affected_edges_are_incident_edges(self, vocab, rng):
        graph = make_graph("g", [PERSON, SURFBOARD, WAVE, DOG],
                           [(0, ON, 1), (2, ABOVE, 0), (2, ON, 3)])
        cfg = PerturbationConfig("rand", intensity=0.25)
        _, record = perturb_graph(graph, cfg, vocab, rng)
        (node, _, _), = record.replacements
        expected = tuple(
            k for k, e in enumerate(graph.edges) if node in (e.subject, e.object)
        )
        assert record.affected_edges == expected

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_records_pass_the_graph_check(self, vocab, method):
        ds = TestPerturbDataset().corpus(vocab, n=40)
        resources = PerturbationResources(
            embeddings=embeddings_for(5),
            table=build_frequency_table(ds),
            zs_triplets=frozenset({Triplet(DOG, ON, SURFBOARD), Triplet(CAT, ABOVE, WAVE)}),
        )
        cfg = PerturbationConfig(method, intensity=0.5, top_k=2, alpha=1, master_seed=3)
        perturbed, records = perturb_dataset(ds, cfg, resources)
        assert sum(len(r.replacements) for r in records) > 0
        for graph, record in zip(perturbed.graphs, records):
            record.check(graph)

    # g: person-on-surfboard, wave-above-person, wave-on-dog; node 0 became dog
    @pytest.mark.parametrize("replacements, affected, message", [
        (((0, PERSON, DOG),), (0, 1), None),
        (((0, PERSON, DOG),), (1, 0), "affected_edges"),
        (((0, PERSON, DOG),), (0,), "affected_edges"),
        (((0, PERSON, DOG),), (0, 1, 2), "affected_edges"),
        (((0, PERSON, DOG),), (0, 0, 1), "affected_edges"),
        (((0, PERSON, DOG),), (-2, 1), "affected_edges"),
        (((0, PERSON, CAT),), (0, 1), "node 0 has category 3, not its new category 4"),
        (((4, PERSON, DOG),), (), "replaced node 4 out of range"),
        (((-1, PERSON, DOG),), (), "replaced node -1 out of range"),
    ])
    def test_check_against_the_perturbed_graph(self, replacements, affected, message):
        graph = make_graph("g", [DOG, SURFBOARD, WAVE, DOG],
                           [(0, ON, 1), (2, ABOVE, 0), (2, ON, 3)])
        record = PerturbationRecord("g", replacements, affected)
        if message is None:
            record.check(graph)
        else:
            with pytest.raises(ValueError, match=f"record image 'g': .*{message}"):
                record.check(graph)

    @pytest.mark.parametrize("value", [1.0, 1.5, True, "1", None])
    @pytest.mark.parametrize("field", ["node", "old", "new", "affected_edges"])
    def test_from_json_obj_takes_json_integers_only(self, field, value):
        obj = {"image_id": "g", "replacements": [{"node": 1, "old": 0, "new": 2}],
               "affected_edges": [1]}
        assert PerturbationRecord.from_json_obj(obj).replacements == ((1, 0, 2),)
        if field == "affected_edges":
            obj["affected_edges"] = [value]
        else:
            obj["replacements"][0][field] = value
        with pytest.raises(TypeError, match="expected an integer"):
            PerturbationRecord.from_json_obj(obj)



def brute_neighbors(emb: EmbeddingTable, category: int, k: int) -> list[int]:
    """Reference top-k: a Python sort of every other category by
    (-cosine, id), recomputing all norms per call."""
    v = emb.vectors
    query = v[category]
    sims = (v @ query) / (np.linalg.norm(v, axis=1) * np.linalg.norm(query))
    order = sorted(
        (i for i in range(emb.num_categories) if i != category),
        key=lambda i: (-sims[i], i),
    )
    return order[:k]


def brute_graphn_candidates(graph, node, table, alpha) -> list[tuple[int, float, float]]:
    """Reference graphn scoring: dict-of-list support merging, Python
    int means and a left-to-right sum of the inverse weights."""
    by_po: dict = {}
    by_sp: dict = {}
    for t, c in table.counts.items():
        by_po.setdefault((t.predicate, t.object_category), []).append((t.subject_category, c))
        by_sp.setdefault((t.subject_category, t.predicate), []).append((t.object_category, c))
    categories = [n.category for n in graph.nodes]
    support: dict[int, list[int]] = {}
    for edge in graph.edges:
        if edge.subject == node:
            for cat, count in by_po.get((edge.predicate, categories[edge.object]), ()):
                support.setdefault(cat, []).append(count)
        elif edge.object == node:
            for cat, count in by_sp.get((categories[edge.subject], edge.predicate), ()):
                support.setdefault(cat, []).append(count)
    support.pop(categories[node], None)
    kept = []
    for cat in sorted(support):
        mean_count = sum(support[cat]) / len(support[cat])
        if mean_count < alpha:
            continue
        kept.append((cat, mean_count))
    if not kept:
        return []
    inv = [1.0 / c for _, c in kept]
    norm = sum(inv)
    return [(cat, mean_count, w / norm) for (cat, mean_count), w in zip(kept, inv)]


@st.composite
def graphn_cases(draw):
    """A triplet table with small counts (so means often equal alpha), and a
    graph whose categories may lie beyond the table's."""
    num_cats = draw(st.integers(2, 16))
    num_preds = draw(st.integers(1, 2))
    triplet = st.tuples(st.integers(0, num_cats - 1), st.integers(0, num_preds - 1),
                        st.integers(0, num_cats - 1))
    counts = draw(st.dictionaries(triplet, st.integers(1, 7), max_size=120))
    categories = draw(st.lists(st.integers(0, num_cats + 2), min_size=2, max_size=6))
    n = len(categories)
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, num_preds), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[2]),
        max_size=8,
    ))
    node = draw(st.integers(0, n - 1))
    alpha = draw(st.sampled_from([0, 1, 1.5, 2, 7 / 3, 3, 3.5, 4, 8]))
    return table_of(counts), make_graph("g", categories, edges), node, alpha


@st.composite
def tie_heavy_embeddings(draw):
    """Small-integer rows, so exact ties, orthogonal rows and duplicates occur."""
    num_cats = draw(st.integers(2, 10))
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any),
        min_size=num_cats, max_size=num_cats,
    ))
    duplicate = draw(st.tuples(st.integers(0, num_cats - 1), st.integers(0, num_cats - 1)))
    rows[duplicate[0]] = rows[duplicate[1]]
    return EmbeddingTable(np.array(rows, dtype=float))


class TestBruteForceOracles:
    @settings(max_examples=300, deadline=None)
    @given(graphn_cases())
    def test_graphn_candidates_equal_reference(self, case):
        table, graph, node, alpha = case
        cands = graphn_candidates(graph, node, table, alpha)
        assert [(c.category, c.mean_count, c.probability) for c in cands] == \
            brute_graphn_candidates(graph, node, table, alpha)

    def test_graphn_many_candidates_sum_left_to_right(self):
        # 40 candidates with counts 1, 3, ..., 79: numpy's pairwise sum of
        # their inverses differs from the left-to-right sum in the last bit
        table = table_of({(s, ON, 40): 2 * s + 1 for s in range(40)})
        graph = make_graph("g", [41, 40], [(0, ON, 1)])
        cands = graphn_candidates(graph, 0, table, alpha=0)
        assert len(cands) == 40
        assert [(c.category, c.mean_count, c.probability) for c in cands] == \
            brute_graphn_candidates(graph, 0, table, 0)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_embeddings(), st.data())
    def test_neighbors_equal_reference(self, emb, data):
        for category in range(emb.num_categories):
            k = data.draw(st.integers(0, emb.num_categories - 1))
            assert semantic_neighbors(emb, category, k) == brute_neighbors(emb, category, k)
            # a second call is served from the table's cache
            assert semantic_neighbors(emb, category, k) == brute_neighbors(emb, category, k)


def brute_sample_nodes(graph, intensity, rng) -> list[int]:
    """Reference sampler: numpy's `Generator.choice` with `p` and an `np.delete` per draw."""
    n = graph.num_nodes
    count = min(0 if intensity == 0.0 else max(1, math.floor(intensity * n + 0.5)), n)
    remaining = list(range(n))
    weights = np.zeros(n, dtype=np.float64)
    for e in graph.edges:
        weights[e.subject] += 1
        weights[e.object] += 1
    picked = []
    for _ in range(count):
        total = weights.sum()
        if total > 0:
            idx = rng.choice(len(remaining), p=weights / total)
        else:
            idx = rng.integers(len(remaining))
        picked.append(remaining.pop(idx))
        weights = np.delete(weights, idx)
    return picked


def brute_oracle_zs_perturb(graph, intensity, zs, vocab, rng):
    """Reference oracle_zs run: a boolean is_reference[p, s, o] array whose rows are ANDed
    over the node's incident edges; returns (categories, replacements)."""
    r, c = vocab.num_predicates, vocab.num_objects
    member = np.zeros((r, c, c), dtype=bool)
    for t in zs:
        if 0 <= t.predicate < r and 0 <= t.subject_category < c and 0 <= t.object_category < c:
            member[t.predicate, t.subject_category, t.object_category] = True
    categories = [n.category for n in graph.nodes]
    replacements = []
    for node in brute_sample_nodes(graph, intensity, rng):
        allowed = np.ones(c, dtype=bool)
        isolated = True
        for edge in graph.edges:
            if edge.subject == node:
                allowed &= member[edge.predicate, :, categories[edge.object]]
            elif edge.object == node:
                allowed &= member[edge.predicate, categories[edge.subject]]
            else:
                continue
            isolated = False
        if isolated:
            continue
        allowed[categories[node]] = False
        candidates = np.flatnonzero(allowed)
        if not candidates.size:
            continue
        new = int(candidates[int(rng.integers(candidates.size))])
        replacements.append((node, categories[node], new))
        categories[node] = new
    return categories, tuple(replacements)


@st.composite
def choice_weights(draw) -> list[float]:
    """Probabilities as the samplers build them: degree counts over their total (zeros
    and single entries included), one nonzero weight, or graphn's inverse mean counts."""
    kind = draw(st.sampled_from(["degrees", "one", "inverse_means"]))
    if kind == "degrees":
        weights = draw(st.lists(st.integers(0, 12), min_size=1, max_size=80).filter(any))
        return [w / sum(weights) for w in weights]
    if kind == "one":
        n = draw(st.integers(1, 80))
        hit = draw(st.integers(0, n - 1))
        return [float(i == hit) for i in range(n)]
    means = np.array(draw(st.lists(st.one_of(st.integers(1, 10**6), st.floats(1, 1e6)),
                                   min_size=1, max_size=80)), dtype=np.float64)
    inv = 1.0 / means
    return (inv / sum(inv.tolist())).tolist()


@st.composite
def sampling_cases(draw):
    """A graph (random, star or edgeless; duplicate edges allowed), an intensity and a
    reference set whose ids may lie outside the 5-object, 3-predicate vocabulary."""
    n = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["random", "star", "edgeless"]))
    if shape == "edgeless" or n == 1:
        edges = []
    elif shape == "star":
        leaves = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=12))
        edges = [(0, draw(st.integers(0, 2)), leaf) if draw(st.booleans())
                 else (leaf, draw(st.integers(0, 2)), 0) for leaf in leaves]
    else:
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2),
                                        st.integers(0, n - 1)).filter(lambda e: e[0] != e[2]),
                              max_size=16))
        edges += edges[:draw(st.integers(0, len(edges)))]  # duplicates
    graph = make_graph("g", draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), edges)
    intensity = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))
    zs = draw(st.frozensets(st.builds(Triplet, st.integers(-1, 6), st.integers(-1, 3),
                                      st.integers(-1, 6)), min_size=1, max_size=60))
    return graph, intensity, zs


# A draw: None for `random()`, else the bound of `integers(high)`. The bounds around
# 2**32 take each of the generator's three integer paths and the edges between them.
draws = st.lists(st.one_of(
    st.none(), st.integers(1, 2**63 - 1), st.integers(1, 300),
    st.sampled_from([1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1]),
), max_size=40)


# Like `draws`, with ("permutation", n) for a `permutation(n)` call.
shuffles = st.lists(st.one_of(
    st.none(), st.integers(1, 300), st.sampled_from([2, 2**32 - 1, 2**32, 2**63 - 1]),
    st.tuples(st.just("permutation"), st.one_of(st.integers(0, 2), st.integers(0, 300))),
), max_size=30)
# Seeds of one and two 32-bit words, of three or four (the whole pool), and of more.
seeds = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
                  st.integers(2**64, 2**128 - 1), st.integers(2**128, 2**512))


class TestSameDrawsAsNumpy:
    """The plain-Python draws against the numpy code they replaced: same picks, same
    categories, and the generator left in the same state."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**32 + 1)), draws)
    def test_stream_equals_default_rng(self, seed, calls):
        mine, numpy_rng = _Stream(seed), np.random.default_rng(seed)
        for high in calls:
            if high is None:
                assert mine.random() == numpy_rng.random()
            else:
                assert mine.integers(high) == numpy_rng.integers(high)

    @settings(max_examples=500, deadline=None)
    @given(seeds, shuffles)
    def test_stream_permutation_equals_default_rng(self, seed, calls):
        mine, numpy_rng = _Stream(seed), np.random.default_rng(seed)
        for call in calls:
            if call is None:
                assert mine.random() == numpy_rng.random()
            elif isinstance(call, tuple):
                assert mine.permutation(call[1]) == numpy_rng.permutation(call[1]).tolist()
            else:
                assert mine.integers(call) == numpy_rng.integers(call)
        assert mine.integers(2**32) == numpy_rng.integers(2**32)  # the same half left over

    @pytest.mark.parametrize("seed", [0, 7, 2**64])
    def test_stream_swap_draws_widen_past_32_bits(self, seed):
        """Above 2**32 - 1, numpy's shuffle draws each swap index from 64 bits. A permutation
        that long cannot be built, so numpy shuffles a sequence that only claims that length
        and records the indices it swaps, for the first few indices down from 2**32 + 2."""
        from collections.abc import MutableSequence

        class Enough(Exception):
            pass

        class Claimed(MutableSequence):
            def __init__(self):
                self.swapped = []

            def __len__(self):
                return 2**32 + 3

            def __getitem__(self, i):
                return i

            def __setitem__(self, i, value):  # x[i], x[j] = x[j], x[i] sets x[i], then x[j]
                self.swapped.append(i)
                if len(self.swapped) == 12:
                    raise Enough

            __delitem__ = insert = None

        claimed, mine, indices = Claimed(), _Stream(seed), range(2**32 + 2, 2**32 - 4, -1)
        with pytest.raises(Enough):
            np.random.default_rng(seed).shuffle(claimed)
        assert claimed.swapped[::2] == list(indices)
        assert claimed.swapped[1::2] == [mine._interval(i) for i in indices]

    def test_stream_rejects_a_negative_seed_as_numpy_does(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            np.random.default_rng(-1)
        for seed in (-1, -2**40, -2**200):
            with pytest.raises(ValueError, match="^expected non-negative integer$"):
                _Stream(seed)

    @pytest.mark.parametrize("high", [0, -1])
    def test_stream_rejects_an_empty_range(self, high):
        with pytest.raises(ValueError):
            _Stream(0).integers(high)

    @settings(max_examples=400, deadline=None)
    @given(choice_weights(), st.integers(0, 2**64 - 1))
    def test_choice_equals_generator_choice(self, p, seed):
        mine, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert _choice(mine, p) == numpy_rng.choice(len(p), p=np.array(p))
            assert mine.bit_generator.state == numpy_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(choice_weights())
    def test_choice_at_the_cdf_boundaries(self, p):
        """Random draws land next to a boundary too rarely to test the rounding there, so
        feed _choice the boundaries of numpy's normalised cumulative sum, and the floats
        either side, and bisect that sum as `Generator.choice` does."""
        cdf = np.cumsum(p)
        cdf /= cdf[-1]

        class Draw:
            def random(self):
                return u

        for b in cdf.tolist():
            for u in (math.nextafter(b, 0), b, math.nextafter(b, 1)):
                if 0 <= u < 1:
                    assert _choice(Draw(), p) == int(np.searchsorted(cdf, u, side="right"))

    @settings(max_examples=300, deadline=None)
    @given(sampling_cases(), st.integers(0, 2**64 - 1))
    def test_sample_nodes_equals_reference(self, case, seed):
        graph, intensity, _ = case
        mine, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_nodes(graph, intensity, mine) == brute_sample_nodes(graph, intensity,
                                                                          reference)
        assert mine.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sampling_cases(), st.integers(0, 2**64 - 1))
    def test_oracle_zs_equals_reference(self, vocab, case, seed):
        graph, intensity, zs = case
        mine, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        cfg = PerturbationConfig("oracle_zs", intensity=intensity)
        perturbed, record = perturb_graph(graph, cfg, vocab, mine, PerturbationResources(
            zs_triplets=zs))
        categories, replacements = brute_oracle_zs_perturb(graph, intensity, zs, vocab,
                                                           reference)
        assert [n.category for n in perturbed.nodes] == categories
        assert record.replacements == replacements
        assert mine.bit_generator.state == reference.bit_generator.state


GOLDEN_OBJECTS, GOLDEN_PREDICATES = 16, 6
GOLDEN_FLAGS = ["--intensity", "0.4", "--top-k", "3", "--alpha", "2", "--seed", "5"]
# sha256 of (perturbed dataset, records) written by `sggkit perturb` on the
# inputs of write_golden_inputs. A change to any perturbation byte, e.g. from
# an optimisation that reorders float arithmetic, breaks these on purpose.
GOLDEN_SHA256 = {
    "rand": ("bbb364104808171c7d22bcc0f935c7507cd1a653ab9247d754d2e22857b7da51",
             "974ed6c4d6ed72e8047f3b11afdfbf91f08758b315dfa79c2cab40cd0f133ff1"),
    "neigh": ("6ed674ba433693bdefccebd69f55a81158711a74bdd0ac4366825ee0e74d016f",
              "bd2d5a790ba19d4b06cf4ed548a9eadec33c53901ab7faab3d2125bb089209c4"),
    "graphn": ("6f83c1e6a5b6b7a1d342f918c1ea908f7905bf5c015c39d11b40f931a0302fae",
               "b06bd8edb32fd1d6f13e90964e5cd0ad152d66d3505745b1cfc67e9bac8c820b"),
    "oracle_zs": ("937bdfd6fca1626634ea4aec16b215dbc7df64a83043226144b0a52df2ec2052",
                  "d8b73897b7e7c05cb8ba474f2a21519a296839ed5db3932e8e4fa64cd73aa249"),
}
GOLDEN_VOCAB = Vocabulary(
    tuple(f"c{i}" for i in range(GOLDEN_OBJECTS)), tuple(f"p{i}" for i in range(GOLDEN_PREDICATES))
)


def seeded_graph(rng, image_id) -> SceneGraph:
    """1-8 nodes, up to 2n edges without self-loops; duplicate edges occur."""
    n = int(rng.integers(1, 9))
    nodes = tuple(
        ObjectNode(int(c), BoundingBox(float(i), 0.0, float(i) + 2.5, 4.0))
        for i, c in enumerate(rng.integers(0, GOLDEN_OBJECTS, size=n))
    )
    edges = []
    if n > 1:
        for _ in range(int(rng.integers(0, 2 * n))):
            s, o = rng.choice(n, size=2, replace=False)
            edges.append(Relationship(int(s), int(rng.integers(0, GOLDEN_PREDICATES)), int(o)))
    return SceneGraph(image_id, 64, 48, nodes, tuple(edges))


def write_side_files(root, rng, train: Dataset, suffix: str = "") -> None:
    """Embeddings (small integers, so exact cosine ties, and one duplicated
    row), the triplet table of `train` and a random reference set."""
    vectors = rng.integers(-2, 3, size=(GOLDEN_OBJECTS, 4)).astype(float)
    vectors[~vectors.any(axis=1)] = 1.0
    vectors[5] = vectors[9]
    with open(root / f"emb{suffix}.txt", "w", encoding="utf-8") as f:
        for name, row in zip(GOLDEN_VOCAB.object_names, vectors):
            f.write(name + " " + " ".join(repr(float(v)) for v in row) + "\n")
    table = build_frequency_table(train)
    (root / f"stats{suffix}.json").write_text(json.dumps({"triplets": table.to_json_obj()}))
    zs = sorted({
        (int(s), int(p), int(o))
        for s, p, o in zip(rng.integers(0, GOLDEN_OBJECTS, 400),
                           rng.integers(0, GOLDEN_PREDICATES, 400),
                           rng.integers(0, GOLDEN_OBJECTS, 400))
    })
    (root / f"zs{suffix}.json").write_text(
        json.dumps({"triplets": [{"s": s, "p": p, "o": o} for s, p, o in zs]})
    )


def write_golden_inputs(root) -> None:
    """Vocabulary, a 60-graph dataset and the side files, all from one
    seeded generator; `*_b` side files come from another seed."""
    rng = np.random.default_rng(20201)
    write_vocab(root / "vocab.json", GOLDEN_VOCAB.object_names, GOLDEN_VOCAB.predicate_names)
    train = Dataset(GOLDEN_VOCAB, tuple(seeded_graph(rng, f"tr{i}") for i in range(120)))
    graphs = [seeded_graph(rng, f"img{i}") for i in range(60)]
    write_jsonl(root / "dataset.jsonl", [graph_to_obj(g) for g in graphs])
    write_side_files(root, rng, train)
    rng = np.random.default_rng(7)
    train = Dataset(GOLDEN_VOCAB, tuple(seeded_graph(rng, f"tr{i}") for i in range(120)))
    write_side_files(root, rng, train, "_b")


def perturb_argv(root, method, suffix, out_prefix) -> list[str]:
    extra = {
        "rand": [],
        "neigh": ["--embeddings", root / f"emb{suffix}.txt"],
        "graphn": ["--embeddings", root / f"emb{suffix}.txt",
                   "--stats", root / f"stats{suffix}.json"],
        "oracle_zs": ["--zs", root / f"zs{suffix}.json"],
    }[method]
    return [str(a) for a in [
        "perturb", "--method", method, *GOLDEN_FLAGS, "--dataset", root / "dataset.jsonl",
        "--vocab", root / "vocab.json", *extra,
        "--out-dataset", root / f"{out_prefix}.jsonl",
        "--out-records", root / f"{out_prefix}_records.jsonl",
    ]]


def output_bytes(root, out_prefix) -> tuple[bytes, bytes]:
    return (root / f"{out_prefix}.jsonl").read_bytes(), \
        (root / f"{out_prefix}_records.jsonl").read_bytes()


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_golden_inputs(root)
    return root


@pytest.mark.parametrize("method", METHODS)
def test_golden_output_hashes(golden_dir, method):
    assert cli_main(perturb_argv(golden_dir, method, "", f"golden_{method}")) == 0
    digests = tuple(hashlib.sha256(b).hexdigest() for b in output_bytes(golden_dir, f"golden_{method}"))
    assert digests == GOLDEN_SHA256[method]


def load_resources(root, method, suffix, vocab) -> PerturbationResources:
    if method == "oracle_zs":
        rows = json.loads((root / f"zs{suffix}.json").read_text())["triplets"]
        return PerturbationResources(zs_triplets=triplet_set_from_json_obj(rows))
    table = None
    if method == "graphn":
        rows = json.loads((root / f"stats{suffix}.json").read_text())["triplets"]
        table = TripletFrequencyTable.from_json_obj(rows)
    return PerturbationResources(load_embeddings(root / f"emb{suffix}.txt", vocab), table)


@pytest.mark.parametrize("method", ["neigh", "graphn", "oracle_zs"])
def test_runs_in_one_process_match_fresh_processes(golden_dir, method):
    """Lookups built for one run's embeddings, table or reference set must
    not leak into a later run in the same process, even when the later
    inputs reuse the memory (and so the id) of the earlier ones."""
    src = os.path.dirname(os.path.dirname(sggkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    vocab = load_vocabulary(golden_dir / "vocab.json")
    fresh = {}
    for suffix in ("", "_b"):
        out = f"fresh_{method}{suffix}"
        subprocess.run([sys.executable, "-m", "sggkit.cli",
                        *perturb_argv(golden_dir, method, suffix, out)],
                       env=env, capture_output=True, check=True)
        lines = (golden_dir / f"{out}_records.jsonl").read_text().splitlines()
        fresh[suffix] = (load_dataset(golden_dir / f"{out}.jsonl", vocab).graphs,
                         [PerturbationRecord.from_json_obj(json.loads(line)) for line in lines])
    assert fresh[""] != fresh["_b"]
    dataset = load_dataset(golden_dir / "dataset.jsonl", vocab)
    cfg = PerturbationConfig(method, intensity=0.4, top_k=3, alpha=2, master_seed=5)
    for suffix in ("", "_b", "", "_b"):
        resources = load_resources(golden_dir, method, suffix, vocab)
        out, records = perturb_dataset(dataset, cfg, resources)
        assert (out.graphs, records) == fresh[suffix]
        del resources, out, records
        gc.collect()


@pytest.fixture(scope="module")
def shuffle_case(golden_dir):
    """The golden dataset and each method's resources, loaded once."""
    vocab = load_vocabulary(golden_dir / "vocab.json")
    dataset = load_dataset(golden_dir / "dataset.jsonl", vocab)
    graphn = load_resources(golden_dir, "graphn", "", vocab)
    resources = PerturbationResources(
        graphn.embeddings, graphn.table,
        load_resources(golden_dir, "oracle_zs", "", vocab).zs_triplets,
    )
    reference = {}
    for method in METHODS:
        cfg = PerturbationConfig(method, intensity=0.5, top_k=3, alpha=2, master_seed=11)
        out, records = perturb_dataset(dataset, cfg, resources)
        reference[method] = cfg, {r.image_id: (g, r) for g, r in zip(out.graphs, records)}
    return dataset, resources, reference


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(range(60)))
def test_shuffled_input_gives_same_per_image_output(shuffle_case, method, order):
    dataset, resources, reference = shuffle_case
    cfg, expected = reference[method]
    shuffled = Dataset(dataset.vocabulary, tuple(dataset.graphs[i] for i in order))
    out, records = perturb_dataset(shuffled, cfg, resources)
    assert [r.image_id for r in records] == [g.image_id for g in shuffled.graphs]
    assert {r.image_id: (g, r) for g, r in zip(out.graphs, records)} == expected


@pytest.mark.parametrize("method", METHODS)
def test_perturb_graph_matches_the_dataset_run(shuffle_case, method):
    """perturb_graph, seeded as perturb_dataset seeds the image, gives that
    image's graph and record: both go through one frame."""
    dataset, resources, reference = shuffle_case
    cfg, expected = reference[method]
    replaced = 0
    for graph in dataset.graphs:
        seed = graph_seed(graph.image_id, cfg.master_seed)
        perturbed, record = perturb_graph(graph, cfg, dataset.vocabulary,
                                          np.random.default_rng(seed), resources)
        assert (perturbed, record) == expected[graph.image_id]
        record.check(perturbed)
        assert perturbed.with_categories(n.category for n in graph.nodes) == graph
        changed = {i for i, (a, b) in enumerate(zip(graph.nodes, perturbed.nodes))
                   if a.category != b.category}
        assert changed == {n for n, _, _ in record.replacements}
        assert perturbed.edges is graph.edges
        assert all(a is b for a, b in zip(graph.nodes, perturbed.nodes) if a.category == b.category)
        assert all(graph.nodes[n].category == old for n, old, _ in record.replacements)
        sampled = sample_nodes(graph, cfg.intensity, np.random.default_rng(seed))
        assert changed <= set(sampled)
        replaced += len(changed)
    assert replaced > 0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("categories, predicate, message", [
    ([PERSON, 5], ON, r"node 1 category 5 out of range \(\|C\|=5\)"),
    ([PERSON, DOG], 3, r"edge 0 predicate 3 out of range \(\|R\|=3\)"),
])
def test_perturb_graph_rejects_a_graph_outside_the_vocabulary(vocab, rng, method, categories,
                                                               predicate, message):
    resources = PerturbationResources(embeddings_for(5), table_of({(PERSON, ON, DOG): 2}),
                                      frozenset({Triplet(DOG, ON, SURFBOARD)}))
    graph = make_graph("g", categories, [(0, predicate, 1)])
    cfg = PerturbationConfig(method, intensity=1.0, top_k=2, alpha=0)
    with pytest.raises(ValueError, match=message):
        perturb_graph(graph, cfg, vocab, rng, resources)
