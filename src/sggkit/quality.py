"""Perturbation quality metrics: hit rate against reference triplet sets and
masked-LM semantic plausibility via an external scoring service.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence
from urllib.parse import urlsplit

from .ingest import PerturbationRecord
from .model import Dataset, SceneGraph, Triplet, Vocabulary, categorical_triplets

if TYPE_CHECKING:  # hit rates and plausibility need neither numpy nor the triplet table
    import numpy as np

    from .perturb import _Stream
    from .stats import TripletFrequencyTable

DEFAULT_MASK_TOKEN = "[MASK]"
PHRASE_SEPARATOR = " . "


@dataclass(frozen=True)
class HitRateResult:
    """Percentage of perturbed composition instances found in a reference set."""

    value: float
    hits: int
    total: int

    @property
    def empty(self) -> bool:
        """True when nothing was perturbed; the 0.0 value is then a convention."""
        return self.total == 0


def _records_by_image(
    records: Sequence[PerturbationRecord], dataset: Dataset
) -> dict[str, PerturbationRecord]:
    """Records keyed by image id, each checked against its perturbed graph.
    A repeated id or one missing from the dataset is a ValueError."""
    graphs = {g.image_id: g for g in dataset.graphs}
    by_id: dict[str, PerturbationRecord] = {}
    for record in records:
        if record.image_id in by_id:
            raise ValueError(f"duplicate perturbation record for image {record.image_id!r}")
        if record.image_id not in graphs:
            raise ValueError(f"record image {record.image_id!r} missing from perturbed dataset")
        record.check(graphs[record.image_id])
        by_id[record.image_id] = record
    return by_id


def _hit_counts(
    records: Iterable[PerturbationRecord],
    graphs: Iterable[SceneGraph],
    references: Sequence[frozenset[Triplet]],
) -> tuple[list[int], int]:
    """(hits in each of `references`, total) over the perturbed compositions of `graphs`,
    taken one at a time and not kept: each graph with a record is checked against it, and
    the triplets of its affected edges are counted with multiplicity. A repeated record
    is a ValueError at once; a record whose image no graph has, after the last graph."""
    by_id: dict[str, PerturbationRecord] = {}
    for record in records:
        if record.image_id in by_id:
            raise ValueError(f"duplicate perturbation record for image {record.image_id!r}")
        by_id[record.image_id] = record
    unseen = set(by_id)
    hits, total = [0] * len(references), 0
    for graph in graphs:
        record = by_id.get(graph.image_id)
        if record is not None:
            unseen.discard(record.image_id)
            record.check(graph)
            triplets = categorical_triplets(graph)
            for edge_index in record.affected_edges:
                triplet = triplets[edge_index]
                total += 1
                for i, reference in enumerate(references):
                    if triplet in reference:
                        hits[i] += 1
        del graph, record  # so that two graphs are never held at once
    missing = [image_id for image_id in by_id if image_id in unseen]
    if missing:
        raise ValueError(f"record image {missing[0]!r} missing from perturbed dataset")
    return hits, total


def hit_rate(
    records: Sequence[PerturbationRecord],
    perturbed: Dataset,
    reference: Iterable[Triplet],
) -> HitRateResult:
    """Fraction (as a percentage) of perturbed-edge compositions that match
    the reference set; instances are counted with multiplicity. Graphs
    without a record count nothing. Counted by `_hit_counts`, as `sggkit
    hit-rate` counts each graph it reads against every reference at once."""
    (hits,), total = _hit_counts(records, perturbed.graphs, [frozenset(reference)])
    return HitRateResult(100.0 * hits / total if total else 0.0, hits, total)


@dataclass(frozen=True)
class PlausibilityQuery:
    """Space-joined triplet phrases with exactly one masked category mention."""

    text: str
    target: str

    def __post_init__(self):
        if not self.target:
            raise ValueError("empty query target")


def build_query(
    graph: SceneGraph,
    masked_node: int,
    vocab: Vocabulary,
    rng: np.random.Generator | _Stream,
    mask_token: str = DEFAULT_MASK_TOKEN,
) -> PlausibilityQuery:
    """Textual query for a scene graph with one node mention masked out.

    Every edge becomes a "subject predicate object" phrase; one incident
    edge of the masked node is chosen at random and the node's mention in
    that phrase is replaced by the mask token, then all phrases are
    shuffled and joined. `rng` is a numpy `Generator` or a `perturb._Stream`,
    which draws the same numbers from the same seed.
    """
    incident = graph.incident_edges(masked_node)
    if not incident:
        raise ValueError(f"node {masked_node} is isolated; no context to query")
    masked_edge = incident[int(rng.integers(len(incident)))]

    phrases = []
    for k, edge in enumerate(graph.edges):
        subject = vocab.object_names[graph.nodes[edge.subject].category]
        pred = vocab.predicate_names[edge.predicate]
        obj = vocab.object_names[graph.nodes[edge.object].category]
        if k == masked_edge:
            if edge.subject == masked_node:
                subject = mask_token
            else:
                obj = mask_token
        phrases.append(f"{subject} {pred} {obj}")
    order = rng.permutation(len(phrases))
    text = PHRASE_SEPARATOR.join(phrases[i] for i in order)
    if text.count(mask_token) != 1:
        raise ValueError("query must contain exactly one mask token")
    return PlausibilityQuery(text, vocab.object_names[graph.nodes[masked_node].category])


class PlausibilityScorer(Protocol):
    def score(self, text: str, target: str) -> float: ...


class ScorerError(RuntimeError):
    """The scoring backend could not produce a score."""


class HttpScorer:
    """Client for the plausibility wire protocol.

    POST <endpoint>/score with {"text": ..., "target": ...}; the response
    must be a 200 with {"score": <finite number>}. Each attempt opens its
    own connection, straight to the endpoint (no proxy), and waits at most
    `timeout` seconds (finite, > 0) per socket operation. A transport
    error, a non-200 status, a body that is not JSON or a missing,
    non-numeric or non-finite score is retried with a short backoff before
    raising.
    """

    def __init__(self, endpoint: str, timeout: float = 10.0, retries: int = 3,
                 backoff: float = 0.5):
        if not endpoint:
            raise ValueError("empty scorer endpoint")
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        if not isinstance(timeout, (int, float)) or not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")
        parts = urlsplit(endpoint)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"scorer endpoint must be an http:// or https:// URL, "
                             f"got {endpoint!r}")
        if not parts.hostname:
            raise ValueError(f"scorer endpoint has no host: {endpoint!r}")
        if parts.username is not None or parts.query or parts.fragment:
            raise ValueError(f"scorer endpoint must not carry credentials, a query or a "
                             f"fragment: {endpoint!r}")
        # http.client (and ssl with it) loads here, not at import: the CLI's
        # other commands never pay for it.
        import http.client

        self._connection = (http.client.HTTPSConnection if parts.scheme == "https"
                            else http.client.HTTPConnection)
        try:
            self._host, self._port = parts.hostname, parts.port
            self._connection(self._host, self._port)  # checks the host; connects nowhere
        except (ValueError, http.client.InvalidURL) as e:
            raise ValueError(f"bad scorer endpoint {endpoint!r}: {e}") from e
        self._path = parts.path.rstrip("/") + "/score"
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    def score(self, text: str, target: str) -> float:
        import http.client

        body = json.dumps({"text": text, "target": target}).encode()
        headers = {"Content-Type": "application/json", "Connection": "close"}
        last_error = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(self.backoff * attempt)
            conn = self._connection(self._host, self._port, timeout=self.timeout)
            try:
                conn.request("POST", self._path, body, headers)
                response = conn.getresponse()
                payload = response.read()
                if response.status != 200:
                    last_error = f"HTTP {response.status} {response.reason}"
                    continue
                value = json.loads(payload)["score"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError(f"non-numeric score {value!r}")
                if not math.isfinite(value):
                    raise ValueError(f"non-finite score {value!r}")
                return float(value)
            except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError,
                    OverflowError) as e:  # OverflowError: an integer score beyond float
                last_error = e
            finally:
                conn.close()
        raise ScorerError(f"scoring failed after {self.retries} attempts: {last_error}")


class FrequencyStubScorer:
    """Offline stand-in for a language model: log(1 + training count) of the
    masked composition. Useful for deterministic tests; a frequent
    composition outranks an unseen one by construction."""

    def __init__(self, table: TripletFrequencyTable, vocab: Vocabulary,
                 mask_token: str = DEFAULT_MASK_TOKEN):
        self.table = table
        self.vocab = vocab
        self.mask_token = mask_token

    def _parse_phrase(self, phrase: str) -> Triplet:
        tokens = phrase.split()
        object_names = set(self.vocab.object_names)
        predicate_names = set(self.vocab.predicate_names)
        for i in range(1, len(tokens)):
            subject = " ".join(tokens[:i])
            if subject not in object_names:
                continue
            for j in range(i + 1, len(tokens)):
                pred = " ".join(tokens[i:j])
                obj = " ".join(tokens[j:])
                if pred in predicate_names and obj in object_names:
                    return Triplet(
                        self.vocab.object_id(subject),
                        self.vocab.predicate_id(pred),
                        self.vocab.object_id(obj),
                    )
        raise ValueError(f"cannot parse phrase {phrase!r} against the vocabulary")

    def score(self, text: str, target: str) -> float:
        masked = [p for p in text.split(PHRASE_SEPARATOR) if self.mask_token in p]
        if len(masked) != 1:
            raise ValueError("query must contain exactly one masked phrase")
        phrase = masked[0].replace(self.mask_token, target)
        return math.log1p(self.table.count(self._parse_phrase(phrase)))


@dataclass(frozen=True)
class PlausibilityReport:
    mean: float
    per_graph: dict[str, float]
    skipped: int

    @property
    def scored(self) -> int:
        return len(self.per_graph)


def score_graphs(
    scorer: PlausibilityScorer,
    dataset: Dataset,
    rng: np.random.Generator | _Stream,
    records: Sequence[PerturbationRecord] | None = None,
    mask_token: str = DEFAULT_MASK_TOKEN,
    max_workers: int = 1,
) -> PlausibilityReport:
    """Score one masked node per graph and average.

    With records, the masked node is a uniformly chosen perturbed node (one
    with graph context); without, a uniformly chosen non-isolated node.
    Graphs offering no such node are skipped and counted. Queries are built
    sequentially for determinism; up to max_workers (>= 1) queries run
    concurrently. `rng` is a numpy `Generator` or a `perturb._Stream`; both
    give the same queries from the same seed. The mean is numpy's `np.mean`
    of the scores, bit for bit, and NaN when no graph was scored. The
    dataset is dropped once the queries are built, so a caller that keeps
    no reference to it frees it before the first request.
    """
    from concurrent.futures import ThreadPoolExecutor
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    by_id = {} if records is None else _records_by_image(records, dataset)

    queries: list[tuple[str, PlausibilityQuery]] = []
    skipped = 0
    for graph in dataset.graphs:
        if records is not None:
            record = by_id.get(graph.image_id)
            if record is None:
                raise ValueError(f"no perturbation record for image {graph.image_id!r}")
            candidates = [
                n for n, _, _ in record.replacements if graph.incident_edges(n)
            ]
        else:
            candidates = [n for n in range(graph.num_nodes) if graph.incident_edges(n)]
        if not candidates:
            skipped += 1
            continue
        node = candidates[int(rng.integers(len(candidates)))]
        queries.append((graph.image_id, build_query(graph, node, dataset.vocabulary, rng, mask_token)))

    del dataset, by_id  # the requests need only the queries

    def run(item):
        image_id, query = item
        try:
            return image_id, scorer.score(query.text, query.target)
        except ScorerError as e:
            raise ScorerError(f"image {image_id!r}: {e}") from e

    if max_workers > 1 and len(queries) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run, queries))
    else:
        results = [run(q) for q in queries]

    per_graph = dict(results)
    scores = list(per_graph.values())
    mean = (0.0 + _pairwise_sum(scores)) / len(scores) if scores else float("nan")
    return PlausibilityReport(mean, per_graph, skipped)


def _pairwise_sum(values: list[float]) -> float:
    """The float64 sum of `values` in numpy's pairwise order, which `np.mean` and `np.sum`
    add in; `0.0 +` it, over the count, is `np.mean`. Below 8 values it adds them in turn
    to 0.0; up to 128 it keeps 8 running sums, one per position mod 8, combines them
    pairwise and adds the tail; above 128 it splits at half the count, rounded down to a
    multiple of 8. `sum` would compensate from Python 3.12 on."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        end = n - n % 8
        r = values[:8]
        for i in range(8, end, 8):
            r = [a + b for a, b in zip(r, values[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[end:]:
            total += value
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
