"""Scene-graph node perturbation strategies.

Four strategies share one frame, `_perturb`: pick nodes with degree-weighted
sampling, then ask the strategy's choice rule for each picked node's new
category, in sample order and given the categories replaced so far. Boxes,
edges and node count never change; only categories do.

  rand       uniform replacement over all other categories
  neigh      uniform replacement among the top-k cosine neighbors of the
             current category in a word-embedding space
  graphn     sequential replacement driven by dataset statistics: candidate
             categories must form known compositions with the node's current
             neighborhood, are weighted by inverse occurrence count (with an
             alpha cutoff on rare counts), then diversified through semantic
             neighbors. A node with no surviving candidate, or whose draw
             lands on its current category, is left alone, so intensity is an
             upper bound here
  oracle_zs  upper-bound strategy that only produces compositions from a
             supplied reference triplet set: a node takes a category only if
             every incident composition is then a reference one. Isolated
             nodes (no composition evidence) and nodes no category satisfies
             are left alone
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .ingest import (  # PerturbationRecord and _affected_edges are re-exported
    Dataset, EmbeddingTable, PerturbationRecord, _affected_edges, _dataset, _graph, _new, _set,
)
from .model import ObjectNode, SceneGraph, Triplet, Vocabulary
from .stats import TripletFrequencyTable

METHODS = ("rand", "neigh", "graphn", "oracle_zs")

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


class CannotPerturbError(ValueError):
    """The vocabulary or configuration admits no replacement."""


def fnv1a64(data: bytes) -> int:
    h = FNV64_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV64_PRIME) & _U64
    return h


def graph_seed(image_id: str, master_seed: int) -> int:
    """Stable per-image seed, independent of processing order."""
    return fnv1a64(image_id.encode("utf-8")) ^ (master_seed & _U64)


@dataclass(frozen=True)
class PerturbationConfig:
    method: str
    intensity: float = 0.2
    top_k: int = 5
    alpha: float = 2.0
    master_seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must lie in [0, 1], got {self.intensity}")
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if not self.alpha >= 0:  # rejects NaN too; inf means no cutoff
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


def _num_to_sample(intensity: float, n: int) -> int:
    if intensity == 0.0:
        return 0
    return max(1, math.floor(intensity * n + 0.5))


def _choice(rng: np.random.Generator, p: Sequence[float]) -> int:
    """The index numpy's `Generator.choice(len(p), p=p)` draws, leaving `rng` in the same
    state: it divides the left-to-right running sum of `p` by its last entry and bisects
    one `random()` in the result."""
    cdf = list(accumulate(p))
    return bisect_right([c / cdf[-1] for c in cdf], rng.random())


def sample_nodes(graph: SceneGraph, intensity: float, rng: np.random.Generator) -> list[int]:
    """Draw max(1, round(intensity * n)) distinct nodes, weighted by degree.

    Sampling is without replacement via successive draws; once every
    remaining node has degree 0 the draws fall back to uniform, so edgeless
    graphs remain perturbable.
    """
    n = graph.num_nodes
    count = min(_num_to_sample(intensity, n), n)
    if count == 0:
        return []
    remaining = list(range(n))
    weights = [0] * n
    for e in graph.edges:
        weights[e.subject] += 1
        weights[e.object] += 1
    picked = []
    for _ in range(count):
        total = sum(weights)
        if total > 0:  # int / int rounds once, as numpy's float64 division does
            idx = _choice(rng, [w / total for w in weights])
        else:
            idx = int(rng.integers(len(remaining)))
        picked.append(remaining.pop(idx))
        del weights[idx]
    return picked


def _perturb(
    graph: SceneGraph,
    cfg: PerturbationConfig,
    choose: Callable[[SceneGraph, list[int], int, np.random.Generator], int | None],
    rng: np.random.Generator,
    num_objects: int,
) -> tuple[SceneGraph, PerturbationRecord]:
    """The frame every method shares: sample nodes, then ask `choose` for
    each one's new category given the current, partly perturbed categories.
    None or the current category leaves the node alone; a category outside
    [0, num_objects) is a ValueError."""
    categories = [n.category for n in graph.nodes]
    replacements = []
    for node in sample_nodes(graph, cfg.intensity, rng):
        old = categories[node]
        new = choose(graph, categories, node, rng)
        if new is None or new == old:
            continue
        if not 0 <= new < num_objects:
            raise ValueError(f"graph {graph.image_id!r}: node {node} category {new} "
                             f"out of range (|C|={num_objects})")
        categories[node] = new
        replacements.append((node, old, new))
    record = PerturbationRecord(
        graph.image_id, tuple(replacements), _affected_edges(graph, (r[0] for r in replacements))
    )
    if not replacements:
        return graph, record
    # Only the replaced nodes are new, and their categories were checked above; the
    # unchanged nodes and the edges are the input graph's own, so no check runs again.
    nodes = list(graph.nodes)
    for node, _, new in replacements:
        nodes[node] = replaced = _new(ObjectNode)
        _set(replaced, "category", new), _set(replaced, "box", graph.nodes[node].box)
    return _graph(graph.image_id, graph.width, graph.height, tuple(nodes), graph.edges), record


def _rand_rule(num_objects: int) -> Callable:
    if num_objects < 2:
        raise CannotPerturbError("need at least 2 object categories")

    def choose(graph, categories, node, rng):
        draw = int(rng.integers(num_objects - 1))
        return draw if draw < categories[node] else draw + 1
    return choose


def semantic_neighbors(emb: EmbeddingTable, category: int, k: int) -> list[int]:
    """Top-k categories by cosine similarity to `category`, query excluded.

    Ties break toward the lower category id. `k` and `category` must both
    lie in [0, number of categories).
    """
    if not 0 <= k < emb.num_categories:
        raise ValueError(f"k={k} must lie in [0, {emb.num_categories}), the number of categories")
    return list(emb.neighbor_ranking(category)[:k])


def _check_embeddings(cfg: PerturbationConfig, emb: EmbeddingTable, num_objects: int) -> None:
    if emb.num_categories != num_objects:
        raise ValueError(f"the embedding table has {emb.num_categories} rows; the vocabulary "
                         f"has {num_objects} object categories")
    if cfg.top_k >= emb.num_categories:
        raise ValueError(f"top_k (--top-k) is {cfg.top_k}; it must be below the "
                         f"embedding table's {emb.num_categories} categories")


def _neigh_rule(cfg: PerturbationConfig, num_objects: int, emb: EmbeddingTable | None) -> Callable:
    if emb is None:
        raise ValueError("method 'neigh' requires an embedding table")
    if num_objects < 2:
        raise CannotPerturbError("need at least 2 object categories")
    if cfg.top_k < 1:
        raise CannotPerturbError("neigh requires top_k >= 1")
    _check_embeddings(cfg, emb, num_objects)

    def choose(graph, categories, node, rng):
        neighbors = semantic_neighbors(emb, categories[node], cfg.top_k)
        return neighbors[int(rng.integers(len(neighbors)))]
    return choose


@dataclass(frozen=True)
class GraphNCandidate:
    category: int
    mean_count: float
    probability: float


def _graphn_scores(
    categories: Sequence[int],
    graph: SceneGraph,
    node: int,
    table: TripletFrequencyTable,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(candidate categories, mean counts, probabilities), ascending by category.

    The means equal Python's int / int while a category's summed counts stay
    below 2**53, far above any training-set count.
    """
    total = np.zeros(table.category_bound, dtype=np.int64)
    support = np.zeros(table.category_bound, dtype=np.int64)
    for edge in graph.edges:
        if edge.subject == node:
            hit = table.by_predicate_object.get((edge.predicate, categories[edge.object]))
        elif edge.object == node:
            hit = table.by_subject_predicate.get((categories[edge.subject], edge.predicate))
        else:
            continue
        if hit is not None:
            cats, counts = hit
            total[cats] += counts
            support[cats] += 1
    if categories[node] < table.category_bound:
        support[categories[node]] = 0
    cats = np.flatnonzero(support)
    means = total[cats] / support[cats]
    kept = ~(means < alpha)  # the `mean < alpha` cutoff exactly
    cats, means = cats[kept], means[kept]
    inv = 1.0 / means
    # Python's sum adds left to right; np.sum's pairwise order can change
    # the last bit of the probabilities that the graphn draw consumes.
    return cats, means, inv / sum(inv.tolist())


def graphn_candidates(
    graph: SceneGraph,
    node: int,
    table: TripletFrequencyTable,
    alpha: float,
) -> list[GraphNCandidate]:
    """Replacement candidates for `node` under the graphn scheme.

    A category qualifies when substituting it for the node (keeping the
    node's role on each incident edge) yields a composition present in the
    table. Multiple supporting compositions average their counts; candidates
    with mean count < alpha are dropped, the node's current category is
    excluded, and the rest get probability proportional to the inverse mean
    count.
    """
    if node < 0 or node >= graph.num_nodes:
        raise IndexError(f"node {node} out of range (n={graph.num_nodes})")
    if not alpha >= 0:  # rejects NaN too; inf means no cutoff
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    scores = _graphn_scores([n.category for n in graph.nodes], graph, node, table, alpha)
    return [GraphNCandidate(*row) for row in zip(*(a.tolist() for a in scores))]


def _graphn_rule(
    cfg: PerturbationConfig, num_objects: int, emb: EmbeddingTable | None,
    table: TripletFrequencyTable | None,
) -> Callable:
    if emb is None or table is None:
        raise ValueError("method 'graphn' requires an embedding table and a triplet "
                         "frequency table")
    _check_embeddings(cfg, emb, num_objects)

    def choose(graph, categories, node, rng):
        cats, _, probs = _graphn_scores(categories, graph, node, table, cfg.alpha)
        if not cats.size:
            return None
        intermediate = int(cats[_choice(rng, probs.tolist())])
        pool = [intermediate, *semantic_neighbors(emb, intermediate, cfg.top_k)]
        return pool[int(rng.integers(len(pool)))]
    return choose


def _oracle_zs_rule(resources: PerturbationResources, num_categories: int) -> Callable:
    if not resources.zs_triplets:
        raise ValueError("method 'oracle_zs' requires a non-empty reference triplet set")
    by_predicate_object, by_subject_predicate = resources._zs_index
    empty: frozenset[int] = frozenset()

    def choose(graph, categories, node, rng):
        allowed = None  # None until an incident edge gives composition evidence
        for edge in graph.edges:
            if edge.subject == node:
                fit = by_predicate_object.get((edge.predicate, categories[edge.object]), empty)
            elif edge.object == node:
                fit = by_subject_predicate.get((categories[edge.subject], edge.predicate), empty)
            else:
                continue
            allowed = fit if allowed is None else allowed & fit
        if allowed is None:  # isolated
            return None
        # Ascending, as the category ids of a boolean mask; reference categories outside
        # the vocabulary are left out.
        current = categories[node]
        candidates = [c for c in sorted(allowed) if 0 <= c < num_categories and c != current]
        if not candidates:
            return None
        return candidates[int(rng.integers(len(candidates)))]
    return choose


@dataclass(frozen=True)
class PerturbationResources:
    """Method-specific inputs: embeddings (neigh, graphn), a triplet table
    (graphn) and a reference triplet set (oracle_zs)."""

    embeddings: EmbeddingTable | None = None
    table: TripletFrequencyTable | None = None
    zs_triplets: frozenset[Triplet] | None = None

    @cached_property
    def _zs_index(self) -> tuple[dict[tuple[int, int], set[int]], ...]:
        """The reference set as (predicate, object) -> subjects and (subject, predicate) ->
        objects; built on first use and kept, as `zs_triplets` is immutable."""
        by_predicate_object: dict[tuple[int, int], set[int]] = {}
        by_subject_predicate: dict[tuple[int, int], set[int]] = {}
        for s, p, o in self.zs_triplets:
            by_predicate_object.setdefault((p, o), set()).add(s)
            by_subject_predicate.setdefault((s, p), set()).add(o)
        return by_predicate_object, by_subject_predicate


def _rule(
    cfg: PerturbationConfig, vocab: Vocabulary, resources: PerturbationResources | None
) -> Callable:
    """`cfg.method`'s choice rule, sized from `vocab`. A missing resource or a
    vocabulary or configuration that admits no replacement raises here."""
    resources = resources or PerturbationResources()
    if cfg.method == "rand":
        return _rand_rule(vocab.num_objects)
    if cfg.method == "neigh":
        return _neigh_rule(cfg, vocab.num_objects, resources.embeddings)
    if cfg.method == "graphn":
        return _graphn_rule(cfg, vocab.num_objects, resources.embeddings, resources.table)
    return _oracle_zs_rule(resources, vocab.num_objects)


def perturb_graph(
    graph: SceneGraph,
    cfg: PerturbationConfig,
    vocab: Vocabulary,
    rng: np.random.Generator,
    resources: PerturbationResources | None = None,
) -> tuple[SceneGraph, PerturbationRecord]:
    """Perturb one graph with `cfg.method`, drawing from `rng`.

    The graph is checked against `vocab` first, since every rule is sized
    from it. Seeded with `graph_seed(graph.image_id, cfg.master_seed)`, this
    gives the graph and record `perturb_dataset` gives for that image. The
    rule is made on every call, from lookups built once per `resources`:
    oracle_zs's reference index is kept on the resources object, and the
    neighbour rankings and table groups on the tables themselves.
    """
    graph.validate(vocab)
    return _perturb(graph, cfg, _rule(cfg, vocab, resources), rng, vocab.num_objects)


def perturb_dataset(
    dataset: Dataset,
    cfg: PerturbationConfig,
    resources: PerturbationResources | None = None,
) -> tuple[Dataset, list[PerturbationRecord]]:
    """Perturb every graph with an order-independent per-image seed.

    Each graph gets its own generator seeded from a stable 64-bit hash of
    its image id XORed with the master seed, so results do not depend on
    processing order or parallelism. One record is emitted per graph, empty
    when nothing changed. A missing resource or a vocabulary or
    configuration that admits no replacement is raised before any graph is
    perturbed.
    """
    vocab = dataset.vocabulary
    rule = _rule(cfg, vocab, resources)
    perturbed = []
    records = []
    for graph in dataset.graphs:
        rng = np.random.default_rng(graph_seed(graph.image_id, cfg.master_seed))
        new_graph, record = _perturb(graph, cfg, rule, rng, vocab.num_objects)
        perturbed.append(new_graph)
        records.append(record)
    # `_perturb` checked every category it changed against |C|; the rest of each graph
    # comes from `dataset`, which was checked when it was built.
    return _dataset(vocab, tuple(perturbed)), records
