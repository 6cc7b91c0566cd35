"""Run one sggkit command in a fresh process, the way a user runs it.

    python3 perfbench/child.py REPORT TRACE ARGV...

The command goes through the public entry point ``sggkit.cli.main(ARGV)``.
Before that, ``sggkit.cli`` is imported and ARGV parsed once, so that the
moment the command is ready to start work can be recorded.

With TRACE=1 the public library functions that the subcommands call are
wrapped, in this process only, with spans (name, start, end, parent, run
id) and counters. Spans stay in memory; REPORT (JSON) is written once,
when the command has returned.
"""
from __future__ import annotations

import time

from layers import calibrate, nodes_sampled

BEFORE = time.monotonic()
CALIBRATION = calibrate()
START = time.monotonic()

import inspect
import json
import os
import sys
import threading
import tracemalloc
import types


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.lock = threading.Lock()
        self.stack: list[int] = []

    def add_span(self, name: str, start: float, end: float, parent: int | None) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "start": start, "end": end,
                           "parent": parent, "run": self.run_id})
        return len(self.spans) - 1

    def count(self, name: str, value: float) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        with self.lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def sample(self, name: str, value: float) -> None:
        with self.lock:
            self.samples.setdefault(name, []).append(value)

    def wrap(self, owner, attr: str, name, after=None, malloc: bool = False) -> None:
        """Replace owner.attr by a spanned call. `name` is a span name or a
        function of the bound arguments; `after(arguments, result)` counts."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return  # absent in this version of the program: nothing to trace
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        signature = inspect.signature(func)
        tracer = self

        def spanned(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            label = name(bound.arguments) if callable(name) else name
            parent = tracer.stack[-1] if tracer.stack else None
            sid = tracer.add_span(label, time.monotonic(), 0.0, parent)
            tracer.stack.append(sid)
            if malloc:
                tracemalloc.start()
            try:
                result = func(*args, **kwargs)
            finally:
                if malloc:
                    tracer.maximum("featmetrics.peak_alloc_bytes", tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer.stack.pop()
                tracer.spans[sid]["end"] = time.monotonic()
            if after is not None:
                try:
                    after(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, OSError):
                    # The program's interface moved; keep its outcome, flag the gap.
                    tracer.count("trace.hook_errors", 1)
            return result

        spanned.__wrapped__ = func
        setattr(owner, attr, classmethod(spanned) if is_classmethod else spanned)


def install(tracer: Tracer, cli) -> None:
    """Span every call from the CLI into ingest, stats, perturb, quality,
    evaluation and featmetrics, with the counters the benchmark reports."""
    from sggkit import evaluation, featmetrics, ingest, perturb, quality, stats

    def read(a, result):
        tracer.count("ingest.bytes_read", os.path.getsize(a["path"]))

    def read_graphs(a, result):
        read(a, result)
        tracer.count("ingest.graphs_read", len(result))

    def wrote(a, result):
        tracer.count("ingest.bytes_written", os.path.getsize(a["path"]))

    for fn in ("load_vocabulary", "load_embeddings", "load_feature_matrix"):
        tracer.wrap(ingest, fn, "ingest.read", read)
    for fn in ("load_dataset", "load_predictions"):
        tracer.wrap(ingest, fn, "ingest.read", read_graphs)
    tracer.wrap(ingest, "save_dataset", "ingest.write", wrote)
    # Inline parsing and report writing that still live in the CLI module.
    tracer.wrap(cli, "_load_records", "ingest.read", read)
    tracer.wrap(cli, "_write_json", "ingest.write", wrote)
    tracer.wrap(cli, "_write_csv", "ingest.write", wrote)
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(cli.json.__dict__)
    tracer.wrap(json_proxy, "load", "ingest.read",
                lambda a, r: tracer.count("ingest.bytes_read", os.fstat(a["fp"].fileno()).st_size))
    cli.json = json_proxy

    def table(a, result):
        tracer.maximum("stats.distinct_triplets", result.distinct_triplets)

    tracer.wrap(stats, "build_frequency_table", "stats.table_build", table)
    tracer.wrap(stats.TripletFrequencyTable, "from_json_obj", "stats.table_load", table)
    tracer.wrap(stats, "shot_subsets", "stats.subsets")
    for fn in ("predicate_frequencies", "marginal_distributions",
               "triplet_set_to_json_obj", "triplet_set_from_json_obj"):
        tracer.wrap(stats, fn, "stats.other")

    def perturbed(a, result):
        method = a["cfg"].method
        counts = (g.num_nodes for g in a["dataset"].graphs)
        tracer.count(f"perturb.{method}_sampled", nodes_sampled(counts, a["cfg"].intensity))
        tracer.count(f"perturb.{method}_replaced", sum(len(r.replacements) for r in result[1]))

    tracer.wrap(perturb, "perturb_dataset", lambda a: f"perturb.{a['cfg'].method}", perturbed)

    tracer.wrap(quality, "hit_rate", "quality.hit_rate",
                lambda a, r: tracer.count("quality.compositions_scored", r.total))
    tracer.wrap(quality, "score_graphs", "quality.score",
                lambda a, r: tracer.count("quality.scored", r.scored))
    score = quality.HttpScorer.score

    def timed_score(self, text, target):
        t0 = time.monotonic()
        try:
            return score(self, text, target)
        finally:
            tracer.sample("quality.request_s", time.monotonic() - t0)

    quality.HttpScorer.score = timed_score

    def eval_name(a):
        if a.get("mode") == "sggen":
            return "evaluation.sggen"
        return "evaluation.recall_gc" if a.get("graph_constraint") else "evaluation.recall"

    def candidates(a):
        tracer.count("evaluation.candidates",
                     sum(len(p.pairs) * p.pairs[0].scores.shape[0]
                         for p in a["predictions"] if p.pairs))

    def recalled(a, result):
        candidates(a)
        tracer.count("evaluation.images_scored", len(result.per_image))

    tracer.wrap(evaluation, "recall_details", eval_name, recalled)
    tracer.wrap(evaluation, "mean_recall", "evaluation.mean_recall", lambda a, r: candidates(a))

    def distances(a, result):
        n, d = a["real"].shape
        m = a["fake"].shape[0]
        pairs = n * n + m * m + n * m  # real-real, fake-fake and real-fake matrices
        tracer.count("featmetrics.distance_pairs", pairs)
        tracer.count("featmetrics.bytes_computed", pairs * d * 8)

    tracer.wrap(featmetrics, "precision_recall_density_coverage", "featmetrics.prdc",
                distances, malloc=True)
    tracer.wrap(featmetrics, "frechet_distance", "featmetrics.frechet", malloc=True)


def peak_rss_kb() -> int:
    """High-water RSS of this process image. Unlike ru_maxrss, it does not
    include the memory of the parent that forked it before exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    report = {"start": START, "exit": None, "calibrating_before_s": START - BEFORE}
    tracer = Tracer(os.path.basename(report_path))
    try:
        report["import_start"] = time.monotonic()
        from sggkit import cli
        report["import_end"] = time.monotonic()
        src = os.path.realpath(os.environ["PERFBENCH_SRC"])
        if not os.path.realpath(cli.__file__).startswith(src + os.sep):
            print(f"perfbench: sggkit imported from {cli.__file__}, not {src}", file=sys.stderr)
            report["exit"] = 3
            return 3
        cli.build_parser().parse_args(argv)
        report["ready"] = time.monotonic()
        if trace:
            install(tracer, cli)
            tracer.add_span("cli.import", report["import_start"], report["import_end"], None)
            tracer.add_span("cli.parse", report["import_end"], report["ready"], None)
            tracer.stack.append(tracer.add_span("cli.main", report["ready"], 0.0, None))
        report["exit"] = cli.main(argv)
        return report["exit"]
    finally:
        report["end"] = time.monotonic()
        report["peak_rss_kb"] = peak_rss_kb()
        report["calibration_s"] = [CALIBRATION, calibrate()]
        report["calibrating_after_s"] = time.monotonic() - report["end"]
        if trace and tracer.stack:
            tracer.spans[tracer.stack[0]]["end"] = report["end"]
        report.update(spans=tracer.spans, counters=tracer.counters, samples=tracer.samples)
        with open(report_path, "w", encoding="utf-8") as f:
            json.dump(report, f)


if __name__ == "__main__":
    sys.exit(main())
