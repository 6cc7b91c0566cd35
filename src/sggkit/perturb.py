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
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .ingest import (  # PerturbationRecord and _affected_edges are re-exported
    Dataset, EmbeddingTable, PerturbationRecord, _affected_edges, _new, _set,
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
    perturbed = _new(SceneGraph)
    _set(perturbed, "image_id", graph.image_id), _set(perturbed, "width", graph.width)
    _set(perturbed, "height", graph.height), _set(perturbed, "nodes", tuple(nodes))
    _set(perturbed, "edges", graph.edges)
    return perturbed, record


def _rand_rule(num_objects: int) -> Callable:
    if num_objects < 2:
        raise CannotPerturbError("need at least 2 object categories")

    def choose(graph, categories, node, rng):
        draw = int(rng.integers(num_objects - 1))
        return draw if draw < categories[node] else draw + 1
    return choose


def semantic_neighbors(emb: EmbeddingTable, category: int, k: int) -> list[int]:
    """Top-k categories by cosine similarity to `category`, query excluded.

    Ties break toward the lower category id.
    """
    if k >= emb.num_categories:
        raise ValueError(f"k={k} must be < number of categories {emb.num_categories}")
    if k == 0:
        return []
    return list(emb.neighbor_ranking(category)[:k])


def _check_top_k(cfg: PerturbationConfig, emb: EmbeddingTable) -> None:
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
    _check_top_k(cfg, emb)

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
    # the last bit of the probabilities that rng.choice consumes.
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
    cfg: PerturbationConfig, emb: EmbeddingTable | None, table: TripletFrequencyTable | None
) -> Callable:
    if emb is None or table is None:
        raise ValueError("method 'graphn' requires an embedding table and a triplet "
                         "frequency table")
    _check_top_k(cfg, emb)

    def choose(graph, categories, node, rng):
        cats, _, probs = _graphn_scores(categories, graph, node, table, cfg.alpha)
        if not cats.size:
            return None
        intermediate = int(cats[rng.choice(cats.size, p=probs)])
        pool = [intermediate, *semantic_neighbors(emb, intermediate, cfg.top_k)]
        return pool[int(rng.integers(len(pool)))]
    return choose


def _reference_membership(
    triplets: Iterable[Triplet], num_predicates: int, num_categories: int
) -> np.ndarray:
    """Boolean is_reference[predicate, subject, object]. Triplets outside
    these ranges can never be formed here, so they are left out."""
    member = np.zeros((num_predicates, num_categories, num_categories), dtype=bool)
    inside = [
        t for t in triplets
        if 0 <= t.predicate < num_predicates
        and 0 <= t.subject_category < num_categories
        and 0 <= t.object_category < num_categories
    ]
    if inside:
        s, p, o = np.array(inside, dtype=np.intp).T
        member[p, s, o] = True
    return member


def _oracle_zs_rule(
    zs_triplets: Iterable[Triplet] | None, num_predicates: int, num_categories: int
) -> Callable:
    if not zs_triplets:
        raise ValueError("method 'oracle_zs' requires a non-empty reference triplet set")
    member = _reference_membership(zs_triplets, num_predicates, num_categories)

    def choose(graph, categories, node, rng):
        allowed = np.ones(num_categories, dtype=bool)
        isolated = True
        for edge in graph.edges:
            if edge.subject == node:
                allowed &= member[edge.predicate, :, categories[edge.object]]
            elif edge.object == node:
                allowed &= member[edge.predicate, categories[edge.subject]]
            else:
                continue
            isolated = False
        if isolated:  # no composition evidence
            return None
        allowed[categories[node]] = False
        candidates = np.flatnonzero(allowed)
        if not candidates.size:
            return None
        return int(candidates[int(rng.integers(candidates.size))])
    return choose


@dataclass(frozen=True)
class PerturbationResources:
    """Method-specific inputs: embeddings (neigh, graphn), a triplet table
    (graphn) and a reference triplet set (oracle_zs)."""

    embeddings: EmbeddingTable | None = None
    table: TripletFrequencyTable | None = None
    zs_triplets: frozenset[Triplet] | None = None


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
        return _graphn_rule(cfg, resources.embeddings, resources.table)
    return _oracle_zs_rule(resources.zs_triplets, vocab.num_predicates, vocab.num_objects)


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
    rule is built on every call (for oracle_zs, an |R| x |C| x |C| table);
    `perturb_dataset` builds it once for all its graphs.
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
    result = _new(Dataset)
    _set(result, "vocabulary", vocab), _set(result, "graphs", tuple(perturbed))
    return result, records
