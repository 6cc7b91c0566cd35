"""Per-layer metrics of one traced iteration, computed from its spans.

A span's self time is its duration minus the part of it that its child
spans cover; a layer's busy time is the sum of its spans' self times. Spans
are named ``<layer>.<what>``. A layer that a workload does not call reports
0 for its times and counts.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

LAYERS = ("ingest", "stats", "perturb", "quality", "evaluation", "featmetrics", "cli")
METHODS = ("rand", "neigh", "graphn", "oracle_zs")
EVALS = ("recall", "recall_gc", "mean_recall", "sggen")
MIB = 2**20
SERVICE_MS = 5.0  # the scoring stub's fixed service time per query

# The host's speed drifts (see README.md), so every command process times a
# fixed pure-Python loop before and after its work, and end-to-end times are
# scaled to a host that runs the loop in REFERENCE_LOOP_S.
CALIBRATION_LOOP = 150_000
REFERENCE_LOOP_S = 0.008

# (name, unit, which direction is better), in the order they are printed.
# Counts of work done are better lower: the same outputs from less work.
PER_LAYER = [
    ("ingest.read_s", "s", "lower"),
    ("ingest.read_mb_per_s", "MB/s", "higher"),
    ("ingest.graphs_read", "count", "lower"),
    ("ingest.write_s", "s", "lower"),
    ("ingest.bytes_written", "B", "lower"),
    ("stats.table_build_s", "s", "lower"),
    ("stats.table_load_s", "s", "lower"),
    ("stats.subsets_s", "s", "lower"),
    ("stats.distinct_triplets", "count", "lower"),
    *[(f"perturb.{m}_s", "s", "lower") for m in METHODS],
    ("perturb.nodes_sampled", "count", "lower"),
    *[(f"perturb.{m}_replaced", "count", "higher") for m in METHODS],
    *[(f"perturb.{m}_replace_ratio", "ratio", "higher") for m in METHODS],
    ("quality.hit_rate_s", "s", "lower"),
    ("quality.compositions_scored", "count", "lower"),
    ("quality.score_s", "s", "lower"),
    ("quality.requests", "count", "lower"),
    ("quality.retries", "count", "lower"),
    ("quality.failures", "count", "lower"),
    ("quality.request_p50_ms", "ms", "lower"),
    ("quality.request_p99_ms", "ms", "lower"),
    ("quality.client_overhead_ms", "ms", "lower"),
    ("quality.connections_per_request", "ratio", "lower"),
    ("quality.in_flight_mean", "ratio", "higher"),
    *[(f"evaluation.{e}_s", "s", "lower") for e in EVALS],
    ("evaluation.images_scored", "count", "lower"),
    ("evaluation.candidates", "count", "lower"),
    ("evaluation.candidates_per_s", "1/s", "higher"),
    ("featmetrics.prdc_s", "s", "lower"),
    ("featmetrics.frechet_s", "s", "lower"),
    ("featmetrics.peak_alloc_mb", "MB", "lower"),
    ("featmetrics.distance_pairs", "count", "lower"),
    ("featmetrics.bytes_computed", "B", "lower"),
    ("cli.import_s", "s", "lower"),
    *[(f"{layer}.busy_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]

MAXIMA = {"stats.distinct_triplets", "featmetrics.peak_alloc_bytes"}


def calibrate() -> float:
    """Seconds the calibration loop takes here and now; fastest of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i
        best = min(best, time.perf_counter() - start)
    return best


def nodes_sampled(node_counts, intensity: float) -> int:
    """Nodes the degree-weighted sampler draws, by the README sampling law:
    max(1, round(intensity * n)) per graph, at most n, none at intensity 0."""
    if intensity == 0:
        return 0
    return sum(min(n, max(1, int(intensity * n + 0.5))) for n in node_counts)


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def request_samples(iteration: dict) -> list[float]:
    """Client-side seconds of every score() call in a pass."""
    return [x for c in iteration["commands"] if c["report"]
            for x in c["report"].get("samples", {}).get("quality.request_s", [])]


def summarize(iterations: list[dict]) -> dict[str, float]:
    """Medians over traced passes of every PER_LAYER metric except
    trace.overhead_s, which needs the untraced passes too. Request
    percentiles pool the samples of all the passes."""
    per_pass = [compute(it) for it in iterations]
    m = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    request_s = [x for it in iterations for x in request_samples(it)]
    if len(request_s) >= 2:
        cuts = statistics.quantiles(request_s, n=100, method="inclusive")
        m["quality.request_p50_ms"] = 1000 * statistics.median(request_s)
        m["quality.request_p99_ms"] = 1000 * cuts[98]
        m["quality.client_overhead_ms"] = m["quality.request_p50_ms"] - SERVICE_MS
    else:
        m["quality.request_p50_ms"] = m["quality.request_p99_ms"] = 0.0
        m["quality.client_overhead_ms"] = 0.0
    m["quality.in_flight_mean"] = _ratio(sum(request_s), sum(p["quality.score_s"] for p in per_pass))
    return m


def compute(iteration: dict) -> dict[str, float]:
    """The metrics of one traced pass that do not pool samples across passes."""
    spans, counters, import_s = {}, defaultdict(float), 0.0
    for k, command in enumerate(iteration["commands"]):
        report = command["report"] or {}
        for s in report.get("spans", []):
            parent = None if s["parent"] is None else (k, s["parent"])
            spans[(k, s["id"])] = (s["name"], s["start"], s["end"], parent)
        for name, value in report.get("counters", {}).items():
            counters[name] = max(counters[name], value) if name in MAXIMA else counters[name] + value
        if "import_end" in report:
            import_s += report["import_end"] - report["import_start"]

    children = defaultdict(list)
    for sid, (_, start, end, parent) in spans.items():
        if parent is not None:
            children[parent].append((start, end))
    by_name, busy = defaultdict(float), defaultdict(float)
    for sid, (name, start, end, _) in spans.items():
        own = end - start - _union((max(a, start), min(b, end)) for a, b in children[sid])
        by_name[name] += own
        busy[name.split(".")[0]] += own

    m = {}
    m["ingest.read_s"] = by_name["ingest.read"]
    m["ingest.read_mb_per_s"] = _ratio(counters["ingest.bytes_read"] / MIB, m["ingest.read_s"])
    m["ingest.graphs_read"] = counters["ingest.graphs_read"]
    m["ingest.write_s"] = by_name["ingest.write"]
    m["ingest.bytes_written"] = counters["ingest.bytes_written"]
    m["stats.table_build_s"] = by_name["stats.table_build"]
    m["stats.table_load_s"] = by_name["stats.table_load"]
    m["stats.subsets_s"] = by_name["stats.subsets"]
    m["stats.distinct_triplets"] = counters["stats.distinct_triplets"]
    for method in METHODS:
        m[f"perturb.{method}_s"] = by_name[f"perturb.{method}"]
    m["perturb.nodes_sampled"] = sum(counters[f"perturb.{x}_sampled"] for x in METHODS)
    for method in METHODS:
        m[f"perturb.{method}_replaced"] = counters[f"perturb.{method}_replaced"]
    for method in METHODS:
        m[f"perturb.{method}_replace_ratio"] = _ratio(
            counters[f"perturb.{method}_replaced"], counters[f"perturb.{method}_sampled"])

    m["quality.hit_rate_s"] = by_name["quality.hit_rate"]
    m["quality.compositions_scored"] = counters["quality.compositions_scored"]
    m["quality.score_s"] = by_name["quality.score"]
    stub = iteration.get("stub") or {"requests": 0, "failures": 0, "connections": 0}
    m["quality.requests"] = stub["requests"]
    m["quality.retries"] = max(0, stub["requests"] - counters["quality.scored"])
    m["quality.failures"] = stub["failures"]
    m["quality.connections_per_request"] = _ratio(stub["connections"], stub["requests"])

    for e in EVALS:
        m[f"evaluation.{e}_s"] = by_name[f"evaluation.{e}"]
    m["evaluation.images_scored"] = counters["evaluation.images_scored"]
    m["evaluation.candidates"] = counters["evaluation.candidates"]
    m["evaluation.candidates_per_s"] = _ratio(counters["evaluation.candidates"], busy["evaluation"])

    m["featmetrics.prdc_s"] = by_name["featmetrics.prdc"]
    m["featmetrics.frechet_s"] = by_name["featmetrics.frechet"]
    m["featmetrics.peak_alloc_mb"] = counters["featmetrics.peak_alloc_bytes"] / MIB
    m["featmetrics.distance_pairs"] = counters["featmetrics.distance_pairs"]
    m["featmetrics.bytes_computed"] = counters["featmetrics.bytes_computed"]

    m["cli.import_s"] = import_s
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
    m["trace.unattributed_s"] = iteration["wall"] - _union((s[1], s[2]) for s in spans.values())
    return m
