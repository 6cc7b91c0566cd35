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

Every draw is a `random()` or an `integers(high)` call on a generator.
`perturb_dataset` seeds one per image with `_Stream`, a plain-Python copy of
numpy's `default_rng` (SeedSequence, PCG64, Lemire's bounded integers), so
rand and oracle_zs run without numpy; `perturb_graph` and `sample_nodes`
take a `numpy.random.Generator` or any object with those two methods.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Sequence

# PerturbationRecord and _affected_edges are re-exported.
from .ingest import EmbeddingTable, PerturbationRecord, _affected_edges
from .model import Dataset, SceneGraph, Triplet, Vocabulary, _dataset, left_sum

if TYPE_CHECKING:  # numpy loads in the function that computes with arrays, stats with graphn
    import numpy as np

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
    """Stable per-image seed, independent of processing order; as wide as the master seed."""
    return fnv1a64(image_id.encode("utf-8")) ^ master_seed


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
        if self.master_seed < 0:
            raise ValueError("expected non-negative integer")  # _Stream's, numpy's message
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must lie in [0, 1], got {self.intensity}")
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if not self.alpha >= 0:  # rejects NaN too; inf drops every graphn candidate
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


# numpy's `default_rng(seed)` in plain Python. SeedSequence(seed) hashes the seed's 32-bit
# words into a pool of four and mixes the pool; eight more hashes of it give PCG64's
# 128-bit state and increment. The hash constants depend on no seed, so they are made once.
_U32 = 0xFFFFFFFF
_U128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_steps(const: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pairs of SeedSequence's first `n` hashes from `const`."""
    steps = []
    for _ in range(n):
        steps.append((const, const * mult & _U32))
        const = steps[-1][1]
    return steps


def _hashmix(value: int, step: tuple[int, int]) -> int:
    value = (value ^ step[0]) * step[1] & _U32
    return value ^ value >> 16


_POOL_STEPS = _hash_steps(0x43B0D7E5, 0x931E8875, 16)
_POOL_PAD = [_hashmix(0, step) for step in _POOL_STEPS[:4]]  # the pool words past the seed's
_MIX_STEPS = [(src, dst, *step) for (src, dst), step in zip(
    ((src, dst) for src in range(4) for dst in range(4) if src != dst), _POOL_STEPS[4:])]
_STATE_STEPS = [(i % 4, *step) for i, step in enumerate(_hash_steps(0x8B51F9DD, 0x58F38DED, 8))]


def _wide_pool(seed: int) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """The pool and mix steps of a seed of three or more 32-bit words. SeedSequence hashes
    the first four words into the pool; after the pool's own mix it mixes each later word
    into every pool word, its hashes running on from the pool's."""
    if seed < 0:
        raise ValueError("expected non-negative integer")  # numpy's message
    words = [seed >> shift & _U32 for shift in range(0, seed.bit_length(), 32)]
    pool = [_hashmix(w, step) for w, step in zip(words, _POOL_STEPS[:4])]
    hashes = _hash_steps(_POOL_STEPS[-1][1], 0x931E8875, 4 * (len(words) - 4))
    steps = _MIX_STEPS + [(4 + i // 4, i % 4, *step) for i, step in enumerate(hashes)]
    return pool + _POOL_PAD[len(pool):] + words[4:], steps


class _Stream:
    """The draws of `numpy.random.default_rng(seed)` for any int `seed` >= 0, bit for
    bit: `random()`, `integers(high)` for `high` >= 1 with numpy's int64 path, and
    `permutation(n)` for an int `n`. A 32-bit draw takes a half of a 64-bit output, and
    a half left over is kept across `random()` calls, as PCG64's `has_uint32` buffer is."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        steps = _MIX_STEPS
        if seed >> 64:  # three or more 32-bit words, or a negative seed
            pool, steps = _wide_pool(seed)
        elif seed >> 32:
            pool = [_hashmix(seed & _U32, _POOL_STEPS[0]), _hashmix(seed >> 32, _POOL_STEPS[1]),
                    *_POOL_PAD[2:]]
        else:
            pool = [_hashmix(seed, _POOL_STEPS[0]), *_POOL_PAD[1:]]
        for src, dst, xor, mult in steps:  # pool[dst] = mix(pool[dst], hash(pool[src]))
            h = (pool[src] ^ xor) * mult & _U32
            h = (0xCA01F9DD * pool[dst] - 0x4973F715 * (h ^ h >> 16)) & _U32
            pool[dst] = h ^ h >> 16
        w = []
        for src, xor, mult in _STATE_STEPS:
            h = (pool[src] ^ xor) * mult & _U32
            w.append(h ^ h >> 16)
        # Little-endian 64-bit words; each 128-bit value is (high word, low word).
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        initseq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._inc = inc = (initseq << 1 | 1) & _U128
        self._state = ((inc + initstate) * _PCG64_MULT + inc) & _U128
        self._half = None

    def _next64(self) -> int:
        """PCG64's XSL-RR output: advance, then rotate the xor of the state's halves."""
        self._state = state = (self._state * _PCG64_MULT + self._inc) & _U128
        x = (state >> 64 ^ state) & _U64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _U64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _U32

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0 ** -53

    def permutation(self, n: int) -> list[int]:
        """`range(n)` shuffled as numpy's `Generator.permutation(n)` shuffles it: Fisher-Yates
        from the last index down to 1, swapping each index i with `_interval(i)`."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            order[i], order[j] = order[j], order[i]
        return order

    def _interval(self, i: int) -> int:
        """Uniform on [0, i], as numpy's `random_interval`: draw under the smallest all-ones
        mask >= i and reject what lies above i, in 32-bit draws up to 2**32 - 1 and in
        64-bit ones above."""
        draw = self._next32 if i <= _U32 else self._next64
        mask = (1 << i.bit_length()) - 1
        j = draw() & mask
        while j > i:
            j = draw() & mask
        return j

    def integers(self, high: int) -> int:
        """Uniform on [0, high), by Lemire's multiply-and-reject: 32-bit below a bound
        of 2**32 and 64-bit above it. A bound of 1 draws nothing, and one of 2**32
        returns the next 32-bit half as it is."""
        if high < 1:
            raise ValueError(f"high must be >= 1, got {high}")
        if high == 1:
            return 0
        if high < 1 << 32:
            m = self._next32() * high
            if m & _U32 < high:
                threshold = (1 << 32) % high
                while m & _U32 < threshold:
                    m = self._next32() * high
            return m >> 32
        if high == 1 << 32:
            return self._next32()
        m = self._next64() * high
        if m & _U64 < high:
            threshold = (1 << 64) % high
            while m & _U64 < threshold:
                m = self._next64() * high
        return m >> 64


def _num_to_sample(intensity: float, n: int) -> int:
    if intensity == 0.0:
        return 0
    return max(1, math.floor(intensity * n + 0.5))


def _choice(rng: np.random.Generator | _Stream, p: Sequence[float]) -> int:
    """The index numpy's `Generator.choice(len(p), p=p)` draws, leaving `rng` in the same
    state: it divides the left-to-right running sum of `p` by its last entry and bisects
    one `random()` in the result."""
    cdf = list(accumulate(p))
    return bisect_right([c / cdf[-1] for c in cdf], rng.random())


def sample_nodes(
    graph: SceneGraph, intensity: float, rng: np.random.Generator | _Stream
) -> list[int]:
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
    choose: Callable[[SceneGraph, list[int], int, np.random.Generator | _Stream],
                     int | None],
    rng: np.random.Generator | _Stream,
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
    return (graph.with_categories(categories) if replacements else graph), record


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
    import numpy as np

    hits, bound = [], 0
    for edge in graph.edges:
        if edge.subject == node:
            index, a, b = table.by_predicate_object, edge.predicate, categories[edge.object]
        elif edge.object == node:
            index, a, b = table.by_subject_predicate, categories[edge.subject], edge.predicate
        else:
            continue
        keys, bounds, members, counts = index
        k = keys.get(a, {}).get(b)
        if k is not None:
            i, j = bounds[k], bounds[k + 1]
            hits.append((members[i:j], counts[i:j]))
            # Members ascend within a key, so a slice's last member is its largest.
            bound = max(bound, members.item(j - 1) + 1)
    total = np.zeros(bound, dtype=np.int64)
    support = np.zeros(bound, dtype=np.int64)
    for cats, summand in hits:
        total[cats] += summand
        support[cats] += 1
    if categories[node] < bound:
        support[categories[node]] = 0
    cats = np.flatnonzero(support)
    means = total[cats] / support[cats]
    kept = ~(means < alpha)  # the `mean < alpha` cutoff exactly
    cats, means = cats[kept], means[kept]
    inv = 1.0 / means
    # np.sum's pairwise order can change the last bit of the probabilities that the
    # graphn draw consumes.
    return cats, means, inv / left_sum(inv.tolist())


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
    if not alpha >= 0:  # rejects NaN too; inf drops every candidate
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    scores = _graphn_scores([n.category for n in graph.nodes], graph, node, table, alpha)
    return [GraphNCandidate(*row) for row in zip(*(a.tolist() for a in scores))]


def _graphn_rule(
    cfg: PerturbationConfig, vocab: Vocabulary, emb: EmbeddingTable | None,
    table: TripletFrequencyTable | None,
) -> Callable:
    if emb is None or table is None:
        raise ValueError("method 'graphn' requires an embedding table and a triplet "
                         "frequency table")
    _check_embeddings(cfg, emb, vocab.num_objects)
    table.check_vocabulary(vocab)

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
        return _graphn_rule(cfg, vocab, resources.embeddings, resources.table)
    return _oracle_zs_rule(resources, vocab.num_objects)


def perturb_graph(
    graph: SceneGraph,
    cfg: PerturbationConfig,
    vocab: Vocabulary,
    rng: np.random.Generator | _Stream,
    resources: PerturbationResources | None = None,
) -> tuple[SceneGraph, PerturbationRecord]:
    """Perturb one graph with `cfg.method`, drawing from `rng`.

    The graph is checked against `vocab` first, since every rule is sized
    from it. Seeded with `graph_seed(graph.image_id, cfg.master_seed)`, this
    gives the graph and record `perturb_dataset` gives for that image. The
    rule is made on every call, from lookups built once per `resources`:
    oracle_zs's reference index is kept on the resources object, the neighbour
    rankings on the embedding table, and graphn's two indexes on the triplet
    table: its member and count columns sorted by (predicate, object, subject)
    and by (subject, predicate, object), with a nested dict from each key to its
    rows, which `_graphn_scores` slices.
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
        rng = _Stream(graph_seed(graph.image_id, cfg.master_seed))
        new_graph, record = _perturb(graph, cfg, rule, rng, vocab.num_objects)
        perturbed.append(new_graph)
        records.append(record)
    # `_perturb` checked every category it changed against |C|; the rest of each graph
    # comes from `dataset`, which was checked when it was built.
    return _dataset(vocab, tuple(perturbed)), records
