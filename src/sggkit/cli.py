"""Command-line frontend.

Subcommands wire the library into reproducible batch workflows: dataset
statistics, shot-subset extraction, perturbation, hit-rate and plausibility
scoring, recall evaluation and feature-distribution metrics. Reports are
JSON (CSV optional where tabular), data goes to files, logs to stderr.
Each subcommand imports only the library modules it runs; the parser's
choices and defaults are literals, which tests pin to the library's own.

Exit codes: 0 success, 1 I/O or runtime-environment failure, 2 usage or
validation error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the commands import their library modules when they run
    from . import ingest

LM_ENDPOINT_ENV = "SGG_LM_ENDPOINT"


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _json_text(payload) -> str:
    """Strict JSON: a NaN or infinity is a ValueError."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: str | Path, payload) -> None:
    """`_json_text(payload)`, made before the file is opened, so no truncated report is
    left behind."""
    text = _json_text(payload)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    import csv
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_side_file(path: str | Path, parse, binary: bool = False):
    """parse(the open side file: stats or a triplet set; in binary if `binary`). Malformed
    JSON, a missing key or a bad row is a ValueError that names the file."""
    with open(path, "rb", buffering=0) if binary else open(path, encoding="utf-8") as f:
        try:
            return parse(f)
        except KeyError as e:
            raise ValueError(f"{path}: missing key {e}") from e
        except (ValueError, TypeError) as e:
            raise ValueError(f"{path}: {e}") from e


def _load_triplet_set(path: str | Path):
    from . import ingest

    def parse(f):
        payload = json.load(f)
        return ingest.triplet_set_from_json_obj(
            payload["triplets"] if isinstance(payload, dict) else payload)
    return _load_side_file(path, parse)


def _frequency_table(path: str | Path, vocab):
    """The triplet table of a stats file, read from its bytes, within `vocab`."""
    from . import stats

    def parse(f):
        table = stats.TripletFrequencyTable.from_stats_json(f)
        table.check_vocabulary(vocab)
        return table
    return _load_side_file(path, parse, binary=True)


def _predicate_freq(payload, num_predicates: int) -> list:
    try:
        f_r = payload["predicate_freq"]
        valid = type(f_r) is list and len(f_r) == num_predicates and all(
            (type(f) is float or type(f) is int) and math.isfinite(f) and f >= 0 for f in f_r)
    except (KeyError, TypeError, OverflowError):  # OverflowError: an int beyond any float
        valid = False
    if not valid:
        raise ValueError(f"'predicate_freq' must be {num_predicates} finite, non-negative numbers")
    return f_r


def cmd_stats(args) -> int:
    from . import ingest, outputs, stats
    vocab = ingest.load_vocabulary(args.vocab)
    tally = stats._tally(ingest.iter_dataset(args.train, vocab), vocab)
    if tally.graphs == 0:
        raise ValueError(f"{args.train}: empty dataset")
    text = tally.stats_json()
    with outputs.replacing(args.out) as (f,):
        f.write(text)
    _log(
        f"stats: {tally.graphs} graphs, {sum(tally.triplets.values())} triplet instances, "
        f"{len(tally.triplets)} distinct -> {args.out}"
    )
    return 0


def cmd_subsets(args) -> int:
    from . import ingest, outputs, stats
    vocab = ingest.load_vocabulary(args.vocab)
    train = stats._tally(ingest.iter_dataset(args.train, vocab), vocab)
    if train.graphs == 0:
        raise ValueError(f"{args.train}: empty dataset")
    names = ("zs", "few10", "few100")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with outputs.replacing(*(out_dir / f"{name}.jsonl" for name in names),
                           *(out_dir / f"{name}_triplets.json" for name in names)) as files:
        read, graphs, triplets = stats._write_split(ingest.iter_dataset(args.test, vocab),
                                                    train.triplets, files[:3])
        if read == 0:
            raise ValueError(f"{args.test}: empty dataset")
        for f, bucket in zip(files[3:], triplets):
            f.write(_json_text({"triplets": stats.triplet_set_to_json_obj(bucket)}))
    for name, n, bucket in zip(names, graphs, triplets):
        _log(f"subsets: {name}: {n} graphs, {len(bucket)} triplets")
    return 0


def cmd_perturb(args) -> int:
    from . import ingest, outputs, perturb
    outputs.resolve((args.out_dataset, args.out_records))  # before any input is read
    vocab = ingest.load_vocabulary(args.vocab)
    cfg = perturb.PerturbationConfig(
        method=args.method,
        intensity=args.intensity,
        top_k=args.top_k,
        alpha=args.alpha,
        master_seed=args.seed,
    )
    embeddings = table = zs_triplets = None
    if args.method in ("neigh", "graphn"):
        if not args.embeddings:
            raise ValueError(f"--embeddings is required for method {args.method!r}")
        embeddings = ingest.load_embeddings(args.embeddings, vocab)
    if args.method == "graphn":
        from . import stats
        if args.stats:
            table = _frequency_table(args.stats, vocab)
        else:  # a first pass over the dataset counts its triplets
            counts = stats._tally(ingest.iter_dataset(args.dataset, vocab), vocab).triplets
            table = stats.TripletFrequencyTable(dict(counts))
            del counts
    if args.method == "oracle_zs":
        if not args.zs:
            raise ValueError("--zs is required for method 'oracle_zs'")
        zs_triplets = _load_triplet_set(args.zs)
    resources = perturb.PerturbationResources(embeddings, table, zs_triplets)
    # the rule is made here, before the first line is read
    perturbed = perturb._perturbed(ingest.iter_dataset(args.dataset, vocab), cfg, vocab,
                                   resources)
    with outputs.replacing(args.out_dataset, args.out_records) as files:
        graphs, changed, touched = outputs.write_perturbed(perturbed, *files)
    _log(
        f"perturb[{args.method}]: {changed} nodes changed, {touched} compositions touched "
        f"across {graphs} graphs"
    )
    return 0


def _load_records(path: str | Path) -> list[ingest.PerturbationRecord]:
    from . import ingest
    records = []
    for where, obj in ingest.iter_jsonl(path):
        try:
            records.append(ingest.PerturbationRecord.from_json_obj(obj))
        except KeyError as e:
            raise ValueError(f"{where}: missing key {e}") from e
        except (TypeError, ValueError) as e:
            raise ValueError(f"{where}: malformed record: {e}") from e
    return records


def cmd_hit_rate(args) -> int:
    from . import ingest, quality
    vocab = ingest.load_vocabulary(args.vocab)
    records = _load_records(args.records)
    references = []
    for spec_arg in args.reference:
        name, _, path = spec_arg.partition("=")
        if not path:
            raise ValueError(f"--reference must be NAME=PATH, got {spec_arg!r}")
        if not name or any(name == seen for seen, _ in references):
            raise ValueError(f"--reference names must be distinct and non-empty, got {spec_arg!r}")
        references.append((name, _load_triplet_set(path)))
    hits, total = quality._hit_counts(records, ingest.iter_dataset(args.perturbed, vocab),
                                      [reference for _, reference in references])
    results = {}
    rows = []
    for (name, _), n in zip(references, hits):
        result = quality.HitRateResult(100.0 * n / total if total else 0.0, n, total)
        if result.empty:
            _log(f"hit-rate: warning: no perturbed compositions; {name} rate is 0 by convention")
        results[name] = {"value": result.value, "hits": result.hits, "total": result.total}
        rows.append([name, result.value, result.hits, result.total])
        _log(f"hit-rate: {name}: {result.value:.2f}% ({result.hits}/{result.total})")
    if args.csv:
        _write_csv(args.out, ["reference", "value", "hits", "total"], rows)
    else:
        _write_json(args.out, {"hit_rates": results})
    return 0


def cmd_plausibility(args) -> int:
    from . import ingest, perturb, quality
    endpoint = args.endpoint or os.environ.get(LM_ENDPOINT_ENV)
    if not endpoint:
        raise ValueError(
            f"no scoring endpoint: set --endpoint or the {LM_ENDPOINT_ENV} environment variable"
        )
    scorer = quality.HttpScorer(endpoint, timeout=args.timeout, retries=args.retries)
    vocab = ingest.load_vocabulary(args.vocab)
    # the records, then each graph as it is read; the requests hold the queries alone
    queries, skipped = quality._build_queries(
        ingest.iter_dataset(args.dataset, vocab),
        vocab,
        records=_load_records(args.records) if args.records else None,
        rng=perturb._Stream(args.seed),
        mask_token=args.mask_token,
    )
    report = quality._score_queries(scorer, queries, skipped, args.jobs)
    del queries  # not held while the report is written
    _write_json(
        args.out,
        {
            "mean_score": report.mean if report.scored else None,
            "scored": report.scored,
            "skipped": report.skipped,
            "per_graph": report.per_graph,
        },
    )
    _log(f"plausibility: mean {report.mean:.4f} over {report.scored} graphs "
         f"({report.skipped} skipped)")
    return 0


def cmd_eval(args) -> int:
    from . import evaluation, ingest
    if args.per_image and (args.metric != "recall" or args.csv):
        raise ValueError("--per-image needs --metric recall and a JSON report; it cannot be "
                         "combined with --metric mean-recall or --csv")
    if not 0 <= args.reweight_x < math.inf:
        raise ValueError(f"--reweight-x must be finite and >= 0, got {args.reweight_x}")
    vocab = ingest.load_vocabulary(args.vocab)
    gt = ingest.load_dataset(args.gt, vocab)
    subset = _load_triplet_set(args.subset) if args.subset else None
    f_r = None
    if args.reweight_x != 0:
        if not args.stats:
            raise ValueError("--stats (for predicate frequencies) is required when --reweight-x > 0")
        f_r = _load_side_file(args.stats,
                              lambda f: _predicate_freq(json.load(f), vocab.num_predicates))
    k = args.k if args.k is not None else (50 if args.mode == "predcls" else 100)
    # read, ranked and matched one image at a time; the report is written after the last
    predictions = ingest.iter_predictions(args.predictions, vocab)
    common = dict(
        mode=args.mode,
        subset_filter=subset,
        graph_constraint=args.graph_constraint,
        reweight_x=args.reweight_x,
        f_r=f_r,
        aggregate=args.aggregate,
    )
    per_image = None
    if args.metric == "recall":
        result = evaluation.recall_details(predictions, gt, k, **common)
        value = result.value
        if args.per_image:
            per_image = {i: 100.0 * v for i, v in result.per_image.items()}
    else:
        value = evaluation.mean_recall(predictions, gt, k, **common)
    report = {
        "metric": args.metric,
        "K": k,
        "mode": args.mode,
        "graph_constraint": args.graph_constraint,
        "subset": args.subset,
        "reweight_x": args.reweight_x,
        "value": value,
    }
    if per_image is not None:
        report["per_image"] = per_image
    if args.csv:
        _write_csv(args.out, list(report), [list(report.values())])
    else:
        _write_json(args.out, report)
    _log(f"eval: {args.metric}@{k} [{args.mode}] = {value:.4f}")
    return 0


def cmd_feat_metrics(args) -> int:
    import numpy as np
    from . import featmetrics, ingest
    real = ingest.load_feature_matrix(args.real)
    fake = ingest.load_feature_matrix(args.fake)
    for path, features in ((args.real, real), (args.fake, fake)):
        # The library says the same without the file; k+1 >= 2 also fits a Gaussian.
        if args.k >= 1 and len(features) <= args.k:
            raise ValueError(f"{path}: need at least k+1 = {args.k + 1} points, "
                             f"got {len(features)}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        result = featmetrics.precision_recall_density_coverage(real, fake, args.k)
        fd = featmetrics.frechet_distance(real, fake)
    report = {
        "k": args.k,
        "n_real": int(real.shape[0]),
        "n_fake": int(fake.shape[0]),
        "precision": result.precision,
        "recall": result.recall,
        "density": result.density,
        "coverage": result.coverage,
        "average": result.average,
        "frechet_distance": fd,
    }
    overflowed = [name for name, value in report.items() if not math.isfinite(value)]
    if overflowed:
        raise ValueError(f"{args.real} and {args.fake}: {', '.join(overflowed)} not finite: "
                         "the features are too large for float64 arithmetic")
    if args.csv:
        header = list(report)
        _write_csv(args.out, header, [[report[h] for h in header]])
    else:
        _write_json(args.out, report)
    _log(
        f"feat-metrics: P={result.precision:.4f} R={result.recall:.4f} "
        f"D={result.density:.4f} C={result.coverage:.4f} FD={fd:.6f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sggkit",
        description="Scene-graph augmentation and evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="triplet frequency table, predicate frequencies, marginals")
    p.add_argument("--train", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("subsets", help="write zero-/10-/100-shot test subsets")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_subsets)

    p = sub.add_parser("perturb", help="perturb node categories of a dataset")
    p.add_argument("--method", required=True, choices=("rand", "neigh", "graphn", "oracle_zs"))
    p.add_argument("--intensity", "-L", type=float, default=0.2)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--alpha", type=float, default=2.0,
                   help="graphn's rarity cutoff: drop each candidate whose mean triplet count "
                        "is below it (0 keeps every candidate; inf leaves every graph unchanged)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--embeddings", help="word-embedding text file (neigh/graphn)")
    p.add_argument("--stats", help="stats.json with the triplet table (graphn); "
                                   "defaults to counting the input dataset")
    p.add_argument("--zs", help="reference triplet set JSON (oracle_zs)")
    p.add_argument("--out-dataset", required=True)
    p.add_argument("--out-records", required=True)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("hit-rate", help="perturbed-composition hit rates against references")
    p.add_argument("--records", required=True)
    p.add_argument("--perturbed", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--reference", action="append", required=True, metavar="NAME=PATH",
                   help="triplet set to score against; repeatable")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_hit_rate)

    p = sub.add_parser("plausibility", help="mean masked-LM plausibility score")
    p.add_argument("--dataset", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--records", help="perturbation records; omit to score ground truth graphs")
    p.add_argument("--endpoint", help=f"scoring service base URL (or ${LM_ENDPOINT_ENV})")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--mask-token", default="[MASK]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=min(8, os.cpu_count() or 1),
                   help="max in-flight scoring queries")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plausibility)

    p = sub.add_parser("eval", help="recall / mean-recall evaluation")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--metric", choices=("recall", "mean-recall"), default="recall")
    p.add_argument("--mode", choices=("sgcls", "predcls", "sggen"), default="sgcls")
    p.add_argument("--k", type=int, default=None,
                   help="default: 100 (sgcls/sggen) or 50 (predcls)")
    p.add_argument("--graph-constraint", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--subset", help="triplet set JSON restricting ground truth")
    p.add_argument("--reweight-x", type=float, default=0.0)
    p.add_argument("--stats", help="stats.json supplying predicate frequencies for reweighting")
    p.add_argument("--aggregate", choices=("image", "triplet"), default="image")
    p.add_argument("--per-image", action="store_true", help="include per-image recalls")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("feat-metrics", help="distribution metrics between two feature files")
    p.add_argument("--real", required=True)
    p.add_argument("--fake", required=True)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_feat_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as e:
        _log(f"error: {e}")
        return 2
    except RuntimeError as e:
        from .quality import ScorerError  # loaded already if it was raised
        if not isinstance(e, ScorerError):
            raise
        _log(f"error: {e}")
        return 1
    except OSError as e:
        _log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
