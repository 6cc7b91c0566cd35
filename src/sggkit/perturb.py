"""Scene-graph node perturbation strategies.

Four strategies share one frame, `_perturb`: pick nodes with degree-weighted
sampling, then ask the strategy's choice rule for each picked node's new
category. Boxes, edges and node count never change; only categories do.

  rand       uniform replacement over all other categories
  neigh      uniform replacement among the top-k cosine neighbors of the
             current category in a word-embedding space
  graphn     sequential replacement driven by dataset statistics: candidate
             categories must form known compositions with the node's current
             neighborhood, are weighted by inverse occurrence count (with an
             alpha cutoff on rare counts), then diversified through semantic
             neighbors
  oracle_zs  upper-bound strategy that only produces compositions from a
             supplied reference triplet set
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .ingest import Dataset, EmbeddingTable, json_int
from .model import SceneGraph, Triplet, Vocabulary
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


@dataclass(frozen=True)
class PerturbationRecord:
    """Per-graph ledger of replacements: which nodes changed and which edges
    (by index into the perturbed graph) now carry perturbed compositions."""

    image_id: str
    replacements: tuple[tuple[int, int, int], ...]  # (node, old category, new category)
    affected_edges: tuple[int, ...]

    def __post_init__(self):
        nodes = [n for n, _, _ in self.replacements]
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node index in perturbation record")
        for n, old, new in self.replacements:
            if old == new:
                raise ValueError(f"no-op replacement recorded for node {n}")

    def to_json_obj(self) -> dict:
        return {
            "image_id": self.image_id,
            "replacements": [
                {"node": n, "old": old, "new": new} for n, old, new in self.replacements
            ],
            "affected_edges": list(self.affected_edges),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PerturbationRecord":
        return cls(
            obj["image_id"],
            tuple((json_int(r["node"]), json_int(r["old"]), json_int(r["new"]))
                  for r in obj["replacements"]),
            tuple(json_int(e) for e in obj["affected_edges"]),
        )

    def check(self, graph: SceneGraph) -> None:
        """Raise ValueError unless this record describes `graph`, the
        perturbed graph of its image: each replaced node exists and now has
        its new category, and affected_edges is the ascending list of every
        edge touching a replaced node."""
        ctx = f"record image {self.image_id!r}"
        for n, _, new in self.replacements:
            if not 0 <= n < graph.num_nodes:
                raise ValueError(f"{ctx}: replaced node {n} out of range (n={graph.num_nodes})")
            if graph.nodes[n].category != new:
                raise ValueError(f"{ctx}: node {n} has category {graph.nodes[n].category}, "
                                 f"not its new category {new}")
        expected = _affected_edges(graph, (n for n, _, _ in self.replacements))
        if tuple(self.affected_edges) != expected:
            raise ValueError(f"{ctx}: affected_edges {list(self.affected_edges)} are not the "
                             f"edges touching the replaced nodes, {list(expected)}")


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


def _affected_edges(graph: SceneGraph, changed: Iterable[int]) -> tuple[int, ...]:
    changed = set(changed)
    return tuple(
        k
        for k, e in enumerate(graph.edges)
        if e.subject in changed or e.object in changed
    )


def _perturb(
    graph: SceneGraph,
    cfg: PerturbationConfig,
    choose: Callable[[SceneGraph, list[int], int, np.random.Generator], int | None],
    rng: np.random.Generator,
) -> tuple[SceneGraph, PerturbationRecord]:
    """The frame every method shares: sample nodes, then ask `choose` for
    each one's new category given the current, partly perturbed categories.
    None or the current category leaves the node alone."""
    categories = [n.category for n in graph.nodes]
    replacements = []
    for node in sample_nodes(graph, cfg.intensity, rng):
        old = categories[node]
        new = choose(graph, categories, node, rng)
        if new is None or new == old:
            continue
        categories[node] = new
        replacements.append((node, old, new))
    record = PerturbationRecord(
        graph.image_id, tuple(replacements), _affected_edges(graph, (r[0] for r in replacements))
    )
    return graph.with_categories(categories), record


def _rand_rule(num_objects: int) -> Callable:
    if num_objects < 2:
        raise CannotPerturbError("need at least 2 object categories")

    def choose(graph, categories, node, rng):
        draw = int(rng.integers(num_objects - 1))
        return draw if draw < categories[node] else draw + 1
    return choose


def perturb_rand(
    graph: SceneGraph,
    cfg: PerturbationConfig,
    vocab: Vocabulary,
    rng: np.random.Generator,
) -> tuple[SceneGraph, PerturbationRecord]:
    """Replace each sampled node by a uniform draw over the other categories."""
    return _perturb(graph, cfg, _rand_rule(vocab.num_objects), rng)


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


def perturb_neigh(
    graph: SceneGraph,
    cfg: PerturbationConfig,
    vocab: Vocabulary,
    emb: EmbeddingTable,
    rng: np.random.Generator,
) -> tuple[SceneGraph, PerturbationRecord]:
    """Replace each sampled node by a uniform draw over its top-k neighbors."""
    return _perturb(graph, cfg, _neigh_rule(cfg, vocab.num_objects, emb), rng)


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


def perturb_graphn(
    graph: SceneGraph,
    cfg: PerturbationConfig,
    vocab: Vocabulary,
    emb: EmbeddingTable,
    table: TripletFrequencyTable,
    rng: np.random.Generator,
) -> tuple[SceneGraph, PerturbationRecord]:
    """Sequential statistics-aware perturbation.

    Nodes are processed in sample order; each step scores candidates against
    the current, partially perturbed categories, draws an intermediate
    category by inverse-frequency probability, then draws the final category
    uniformly from that category plus its top-k semantic neighbors. Nodes
    with no surviving candidate are skipped, as are draws that land back on
    the node's current category, so intensity is an upper bound here.
    """
    return _perturb(graph, cfg, _graphn_rule(cfg, emb, table), rng)


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
    zs_triplets: Iterable[Triplet] | None, num_predicates: int, num_categories: int,
    covered: int,
) -> Callable:
    """Membership covers `covered` >= num_categories categories, enough for
    every category of the graphs perturbed; candidates are below
    num_categories."""
    if not zs_triplets:
        raise ValueError("method 'oracle_zs' requires a non-empty reference triplet set")
    member = _reference_membership(zs_triplets, num_predicates, covered)

    def choose(graph, categories, node, rng):
        allowed = np.ones(covered, dtype=bool)
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
        candidates = np.flatnonzero(allowed[:num_categories])
        if not candidates.size:
            return None
        return int(candidates[int(rng.integers(candidates.size))])
    return choose


def perturb_oracle_zs(
    graph: SceneGraph,
    cfg: PerturbationConfig,
    zs_triplets: frozenset[Triplet] | set[Triplet],
    rng: np.random.Generator,
    num_categories: int | None = None,
) -> tuple[SceneGraph, PerturbationRecord]:
    """Replace sampled nodes only when every incident composition lands in
    the reference triplet set; every touched composition is then a reference
    one by construction.

    Sequential like graphn: later candidates are validated against already
    perturbed neighbors. Nodes with no incident edges carry no composition
    evidence and are skipped.
    """
    top = max((n.category for n in graph.nodes), default=0)
    if num_categories is None:
        num_categories = 1 + max(
            [top, *(max(t.subject_category, t.object_category) for t in zs_triplets)]
        )
    num_predicates = 1 + max((e.predicate for e in graph.edges), default=0)
    rule = _oracle_zs_rule(zs_triplets, num_predicates, num_categories,
                           max(num_categories, 1 + top))
    return _perturb(graph, cfg, rule, rng)


@dataclass(frozen=True)
class PerturbationResources:
    """Method-specific inputs for a dataset-level run."""

    embeddings: EmbeddingTable | None = None
    table: TripletFrequencyTable | None = None
    zs_triplets: frozenset[Triplet] | None = None


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
    resources = resources or PerturbationResources()
    vocab = dataset.vocabulary
    if cfg.method == "rand":
        rule = _rand_rule(vocab.num_objects)
    elif cfg.method == "neigh":
        rule = _neigh_rule(cfg, vocab.num_objects, resources.embeddings)
    elif cfg.method == "graphn":
        rule = _graphn_rule(cfg, resources.embeddings, resources.table)
    else:
        rule = _oracle_zs_rule(resources.zs_triplets, vocab.num_predicates,
                               vocab.num_objects, vocab.num_objects)
    perturbed = []
    records = []
    for graph in dataset.graphs:
        rng = np.random.default_rng(graph_seed(graph.image_id, cfg.master_seed))
        new_graph, record = _perturb(graph, cfg, rule, rng)
        perturbed.append(new_graph)
        records.append(record)
    return Dataset(dataset.vocabulary, tuple(perturbed)), records
