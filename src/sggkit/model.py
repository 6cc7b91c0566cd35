"""Scene-graph data model: vocabularies, boxes, nodes, edges, triplets, datasets.

All types are immutable after construction and safe to share across workers.
Boxes, nodes, edges and graphs are slotted, so an instance keeps no dict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple


class Triplet(NamedTuple):
    """Categorical composition of an edge: (subject category, predicate, object category)."""

    subject_category: int
    predicate: int
    object_category: int


@dataclass(frozen=True)
class Vocabulary:
    """Ordered object and predicate category names; ids are list positions.

    Predicate index 0 is reserved for the background/no-edge class when the
    background-aware edge loss mode is used; the vocabulary itself does not
    enforce that convention.
    """

    object_names: tuple[str, ...]
    predicate_names: tuple[str, ...]
    _object_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    _predicate_ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "object_names", tuple(self.object_names))
        object.__setattr__(self, "predicate_names", tuple(self.predicate_names))
        for kind, names in (("object", self.object_names), ("predicate", self.predicate_names)):
            if not names:
                raise ValueError(f"vocabulary has no {kind} names")
            for name in names:
                if not isinstance(name, str) or not name:
                    raise ValueError(f"empty {kind} name in vocabulary")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {kind} names in vocabulary")
        object.__setattr__(self, "_object_ids", {n: i for i, n in enumerate(self.object_names)})
        object.__setattr__(self, "_predicate_ids", {n: i for i, n in enumerate(self.predicate_names)})

    @property
    def num_objects(self) -> int:
        return len(self.object_names)

    @property
    def num_predicates(self) -> int:
        return len(self.predicate_names)

    def object_id(self, name: str) -> int:
        return self._object_ids[name]

    def predicate_id(self, name: str) -> int:
        return self._predicate_ids[name]


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box in corner format (x1, y1) top-left, (x2, y2) bottom-right."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"non-finite box coordinates {coords}")
        if min(coords) < 0:
            raise ValueError(f"negative box coordinates {coords}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"degenerate box {coords}: requires x1 < x2 and y1 < y2")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True, slots=True)
class ObjectNode:
    category: int
    box: BoundingBox

    def __post_init__(self):
        if self.category < 0:
            raise ValueError(f"negative object category {self.category}")


@dataclass(frozen=True, slots=True)
class Relationship:
    """Directed labeled edge: subject node index, predicate id, object node index."""

    subject: int
    predicate: int
    object: int

    def __post_init__(self):
        if self.subject == self.object:
            raise ValueError(f"self-loop relationship on node {self.subject}")
        if min(self.subject, self.object) < 0 or self.predicate < 0:
            raise ValueError("negative index in relationship")


@dataclass(frozen=True, slots=True)
class SceneGraph:
    """A directed labeled graph over image objects.

    Duplicate edges are permitted (they occur in real annotations) and are
    kept with their multiplicity.
    """

    image_id: str
    width: int
    height: int
    nodes: tuple[ObjectNode, ...]
    edges: tuple[Relationship, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"graph {self.image_id!r}: non-positive image size")
        n = len(self.nodes)
        for k, edge in enumerate(self.edges):
            if edge.subject >= n or edge.object >= n:
                raise ValueError(
                    f"graph {self.image_id!r}: edge {k} references node out of range (n={n})"
                )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def validate(self, vocab: Vocabulary) -> None:
        """Check category and predicate ids against a vocabulary."""
        for i, node in enumerate(self.nodes):
            if node.category >= vocab.num_objects:
                raise ValueError(
                    f"graph {self.image_id!r}: node {i} category {node.category} "
                    f"out of range (|C|={vocab.num_objects})"
                )
        for k, edge in enumerate(self.edges):
            if edge.predicate >= vocab.num_predicates:
                raise ValueError(
                    f"graph {self.image_id!r}: edge {k} predicate {edge.predicate} "
                    f"out of range (|R|={vocab.num_predicates})"
                )

    def incident_edges(self, node: int) -> list[int]:
        """Indices of edges where `node` appears as subject or object."""
        if node < 0 or node >= self.num_nodes:
            raise IndexError(f"node {node} out of range (n={self.num_nodes})")
        return [k for k, e in enumerate(self.edges) if e.subject == node or e.object == node]

    def with_categories(self, categories: Iterable[int]) -> "SceneGraph":
        """Copy of this graph with node categories replaced; boxes and edges unchanged.
        Each node whose category is unchanged, and the edge tuple, are this graph's own;
        each other node is a new `ObjectNode`, checked."""
        categories = list(categories)
        if len(categories) != self.num_nodes:
            raise ValueError("category list length does not match node count")
        nodes = tuple(node if c == node.category else ObjectNode(c, node.box)
                      for c, node in zip(categories, self.nodes))
        return _graph(self.image_id, self.width, self.height, nodes, self.edges)


@dataclass(frozen=True)
class Dataset:
    vocabulary: Vocabulary
    graphs: tuple[SceneGraph, ...]

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        for g in self.graphs:
            g.validate(self.vocabulary)

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)


# The trusted build path: model objects made from values the caller has already checked
# as the constructors (and, for a graph, `validate`) would. Each is filled one field at a
# time, as the generated `__init__` does, without its checks. No other module builds
# model objects this way.
_new, _set = object.__new__, object.__setattr__


def _node(category: int, x1: float, y1: float, x2: float, y2: float) -> ObjectNode:
    box, node = _new(BoundingBox), _new(ObjectNode)
    _set(box, "x1", x1), _set(box, "y1", y1), _set(box, "x2", x2), _set(box, "y2", y2)
    _set(node, "category", category), _set(node, "box", box)
    return node


def _edge(subject: int, predicate: int, object_: int) -> Relationship:
    edge = _new(Relationship)
    _set(edge, "subject", subject), _set(edge, "predicate", predicate), _set(edge, "object", object_)
    return edge


def _graph(image_id: str, width: int, height: int, nodes: tuple, edges: tuple) -> SceneGraph:
    graph = _new(SceneGraph)
    _set(graph, "image_id", image_id), _set(graph, "width", width), _set(graph, "height", height)
    _set(graph, "nodes", nodes), _set(graph, "edges", edges)
    return graph


def _dataset(vocab: Vocabulary, graphs: tuple[SceneGraph, ...]) -> Dataset:
    dataset = _new(Dataset)
    _set(dataset, "vocabulary", vocab), _set(dataset, "graphs", graphs)
    return dataset


def degree(graph: SceneGraph, node: int) -> int:
    """Sum of in and out degrees of a node."""
    if node < 0 or node >= graph.num_nodes:
        raise IndexError(f"node {node} out of range (n={graph.num_nodes})")
    return sum(1 for e in graph.edges if e.subject == node) + sum(
        1 for e in graph.edges if e.object == node
    )


def categorical_triplets(graph: SceneGraph) -> list[Triplet]:
    """Per-edge categorical compositions, edge order and multiplicity preserved."""
    return [
        Triplet(graph.nodes[e.subject].category, e.predicate, graph.nodes[e.object].category)
        for e in graph.edges
    ]
