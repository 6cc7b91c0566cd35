"""Perturbation quality metrics: hit rate against reference triplet sets and
masked-LM semantic plausibility via an external scoring service.
"""
from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol, Sequence
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


def _with_records(
    records: Iterable[PerturbationRecord], graphs: Iterable[SceneGraph]
) -> Iterator[tuple[SceneGraph, PerturbationRecord | None]]:
    """(graph, its record or None) for each of `graphs`, taken one at a time and not kept,
    each record checked against its graph as the graph arrives. The records are indexed
    first: a repeated one is a ValueError before any graph is read; a record whose image
    no graph has, after the last graph."""
    by_id: dict[str, PerturbationRecord] = {}
    for record in records:
        if record.image_id in by_id:
            raise ValueError(f"duplicate perturbation record for image {record.image_id!r}")
        by_id[record.image_id] = record
    unseen = set(by_id)
    for graph in graphs:
        record = by_id.get(graph.image_id)
        if record is not None:
            unseen.discard(record.image_id)
            record.check(graph)
        yield graph, record
        del graph, record  # so that two graphs are never held at once
    missing = [image_id for image_id in by_id if image_id in unseen]
    if missing:
        raise ValueError(f"record image {missing[0]!r} missing from perturbed dataset")


def _hit_counts(
    records: Iterable[PerturbationRecord],
    graphs: Iterable[SceneGraph],
    references: Sequence[frozenset[Triplet]],
) -> tuple[list[int], int]:
    """(hits in each of `references`, total) over the perturbed compositions of `graphs`,
    paired with their records by `_with_records`: the triplets of each record's affected
    edges are counted with multiplicity; a graph without a record counts nothing."""
    hits, total = [0] * len(references), 0
    for graph, record in _with_records(records, graphs):
        if record is not None:
            triplets = categorical_triplets(graph)
            for edge_index in record.affected_edges:
                triplet = triplets[edge_index]
                total += 1
                for i, reference in enumerate(references):
                    if triplet in reference:
                        hits[i] += 1
        del graph, record  # so that two graphs are never held at once
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


# The reply to an HTTP/1.0 request, read until the server closes (RFC 9112 section 6.1: it
# is never chunked), and the characters that `http.client` refuses in a host or a path.
_STATUS_LINE = re.compile(rb"HTTP/\d\.\d (\d{3})(?: ([^\r\n]*))?")
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_NOT_IN_URL = re.compile(r"[\x00-\x20\x7f]")


def _parse_reply(reply: bytes) -> tuple[int, str, bytes]:
    """(status, reason, body) of a whole HTTP/1.0 reply. One without the blank line that
    ends its headers, with a status line that is not `HTTP/x.y NNN ...`, with a
    Transfer-Encoding or with a body unlike its Content-Length is a ValueError."""
    end = _HEAD_END.search(reply)
    if end is None:
        raise ValueError("malformed reply: no blank line after the headers")
    status_line, *header_lines = reply[:end.start()].split(b"\n")
    status = _STATUS_LINE.fullmatch(status_line.rstrip(b"\r"))
    if status is None:
        raise ValueError(f"malformed reply: status line {status_line[:80]!r}")
    length = None
    for line in header_lines:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"transfer-encoding":
            raise ValueError("malformed reply: Transfer-Encoding in a reply to HTTP/1.0")
        if name == b"content-length":
            length = value.strip()
    body = reply[end.end():]
    if length is not None and not (length.isdigit() and int(length) == len(body)):
        raise ValueError(f"malformed reply: a {len(body)}-byte body, "
                         f"Content-Length {length[:20]!r}")
    return int(status[1]), (status[2] or b"").decode("latin-1"), body


class HttpScorer:
    """Client for the plausibility wire protocol.

    POST <endpoint>/score with {"text": ..., "target": ...}; the response
    must be a 200 with {"score": <finite number>}. Each attempt sends one
    HTTP/1.0 request with `Connection: close` over a socket of its own,
    straight to the endpoint (no proxy), and reads the reply until the
    server closes, waiting at most `timeout` seconds (finite, > 0) per socket
    operation. An `https` endpoint verifies the server with `ssl`'s default
    context, and only it loads `ssl`. A transport or TLS error, a reply
    that `_parse_reply` finds malformed, a non-200 status, a body that is
    not JSON or a missing, non-numeric or non-finite score is retried with
    a short backoff before raising.
    """

    def __init__(self, endpoint: str, timeout: float = 10.0, retries: int = 3,
                 backoff: float = 0.5):
        if not endpoint:
            raise ValueError("empty scorer endpoint")
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        if not isinstance(timeout, (int, float)) or not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")
        try:
            parts = urlsplit(endpoint)
        except ValueError as e:  # an unclosed IPv6 bracket
            raise ValueError(f"bad scorer endpoint {endpoint!r}: {e}") from e
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"scorer endpoint must be an http:// or https:// URL, "
                             f"got {endpoint!r}")
        if not parts.hostname:
            raise ValueError(f"scorer endpoint has no host: {endpoint!r}")
        if parts.username is not None or parts.query or parts.fragment:
            raise ValueError(f"scorer endpoint must not carry credentials, a query or a "
                             f"fragment: {endpoint!r}")
        self._host, path = parts.hostname, parts.path.rstrip("/") + "/score"
        try:
            port = parts.port
            self._port = port if port is not None else 443 if parts.scheme == "https" else 80
            if _NOT_IN_URL.search(self._host) or _NOT_IN_URL.search(path):
                raise ValueError("a space or control character in the host or path")
            host = parts.netloc.encode("ascii" if parts.netloc.isascii() else "idna")
            self._head = (b"POST %s HTTP/1.0\r\nHost: %s\r\nContent-Type: application/json"
                          b"\r\nConnection: close\r\nContent-Length: "
                          % (path.encode("ascii"), host))
        except ValueError as e:  # UnicodeError too
            raise ValueError(f"bad scorer endpoint {endpoint!r}: {e}") from e
        self._tls = None
        if parts.scheme == "https":
            import ssl  # here, not at import: no other endpoint or command pays for it

            self._tls = ssl.create_default_context()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    def _exchange(self, request: bytes) -> tuple[int, str, bytes]:
        """(status, reason, body) of `request`, sent over a socket of its own."""
        import socket

        sock = socket.create_connection((self._host, self._port), self.timeout)
        try:
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
            sock.sendall(request)
            reply = bytearray()
            while chunk := sock.recv(65536):
                reply += chunk
        finally:
            sock.close()
        return _parse_reply(bytes(reply))

    def score(self, text: str, target: str) -> float:
        body = json.dumps({"text": text, "target": target}).encode()
        request = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)
        last_error = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(self.backoff * attempt)
            try:
                status, reason, payload = self._exchange(request)
                if status != 200:
                    last_error = f"HTTP {status} {reason}"
                    continue
                value = json.loads(payload)["score"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError(f"non-numeric score {value!r}")
                if not math.isfinite(value):
                    raise ValueError(f"non-finite score {value!r}")
                return float(value)
            except (OSError, ValueError, KeyError, TypeError,
                    OverflowError) as e:  # OverflowError: an integer score beyond float
                last_error = e
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
        self._object_names = set(vocab.object_names)
        self._predicate_names = set(vocab.predicate_names)

    def _parse_phrase(self, phrase: str) -> Triplet:
        tokens = phrase.split()
        object_names, predicate_names = self._object_names, self._predicate_names
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
    Graphs offering no such node are skipped and counted. The queries are
    built first, in dataset order, by `_build_queries`, which `sggkit
    plausibility` runs on the graphs as it reads them; up to max_workers
    (>= 1) queries then run concurrently. `rng` is a numpy `Generator` or a
    `perturb._Stream`; both give the same queries from the same seed. The
    mean is numpy's `np.mean` of the scores, bit for bit, and NaN when no
    graph was scored. The dataset is dropped once the queries are built, so
    a caller that keeps no reference to it frees it before the first request.
    """
    queries, skipped = _build_queries(dataset.graphs, dataset.vocabulary, rng, records,
                                      mask_token)
    del dataset  # the requests need only the queries
    return _score_queries(scorer, queries, skipped, max_workers)


def _build_queries(
    graphs: Iterable[SceneGraph],
    vocab: Vocabulary,
    rng: np.random.Generator | _Stream,
    records: Iterable[PerturbationRecord] | None,
    mask_token: str,
) -> tuple[list[tuple[str, PlausibilityQuery]], int]:
    """((image id, query) of each graph scored, in order; the count skipped), from
    `graphs` taken one at a time and not kept, with `records` paired and checked by
    `_with_records`. With records, a graph without one is a ValueError at once."""
    queries: list[tuple[str, PlausibilityQuery]] = []
    skipped = 0
    for graph, record in _with_records(() if records is None else records, graphs):
        if records is None:
            candidates = [n for n in range(graph.num_nodes) if graph.incident_edges(n)]
        elif record is None:
            raise ValueError(f"no perturbation record for image {graph.image_id!r}")
        else:
            candidates = [n for n, _, _ in record.replacements if graph.incident_edges(n)]
        if candidates:
            node = candidates[int(rng.integers(len(candidates)))]
            queries.append((graph.image_id, build_query(graph, node, vocab, rng, mask_token)))
        else:
            skipped += 1
        del graph, record  # so that two graphs are never held at once
    return queries, skipped


def _score_queries(
    scorer: PlausibilityScorer,
    queries: list[tuple[str, PlausibilityQuery]],
    skipped: int,
    max_workers: int,
) -> PlausibilityReport:
    """The report of `_build_queries`' queries, up to max_workers (>= 1) in flight."""
    from concurrent.futures import ThreadPoolExecutor
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")

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
