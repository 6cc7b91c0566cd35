#!/usr/bin/env python3
"""The sggkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it tests the sources under ``src/``.
NAME is augment, evaluate, features, plausibility, or ``all`` for the four
in turn. Inputs are generated from the seed (``gen.py``) and cached under
``.perfbench/``; generation is not timed. For S seconds the workload's
command sequence then runs again and again, one fresh ``sggkit`` process per
command, one command at a time (a closed loop with one client). After every
pass the outputs are checked.

With ``--trace 0`` it reports the end-to-end metrics: times are medians
over the passes, scaled to a reference host speed (see ``calibrated``). With ``--trace 1`` traced and untraced passes alternate, and it
reports the per-layer metrics of the traced passes (see ``layers.py``).
Each metric is printed as ``name value unit``; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import gen
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench"
COMMAND_TIMEOUT_S = 120
JOBS = 2
INTENSITY = 0.2
PERTURB_FLAGS = ["--intensity", str(INTENSITY), "--top-k", "5", "--alpha", "5"]

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_share", "ratio")]

# Input sizes. "tiny" exists for the benchmark's own smoke test.
SIZES = {
    "full": {
        "augment": {"n_train": 600, "n_test": 300},
        "evaluate": {"n_images": 20},
        "features": {"n": 250},
        "plausibility": {"n_graphs": 550},
    },
    "tiny": {
        "augment": {"n_train": 60, "n_test": 40},
        "evaluate": {"n_images": 8},
        "features": {"n": 40},
        "plausibility": {"n_graphs": 30},
    },
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PERFBENCH_SRC"] = str(SRC)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_command(argv: list[str], report: Path, log: Path, traced: bool) -> dict:
    """Run one sggkit command in its own process and wait for it."""
    report.unlink(missing_ok=True)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log, "w") as err:
        spawn = time.monotonic()
        try:
            exit_code = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(report), "1" if traced else "0", *argv],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, timeout=COMMAND_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            exit_code = -signal.SIGKILL  # killed and reaped by subprocess.run
        exited = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    data = read_json(report) if report.exists() else {}
    calibrating = data.get("calibrating_before_s", 0.0) + data.get("calibrating_after_s", 0.0)
    wall = exited - spawn - calibrating
    setup = data.get("ready", exited) - spawn - data.get("calibrating_before_s", 0.0)
    used = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    cpu = min(max(used - calibrating, 0.0), wall)
    speed = layers.REFERENCE_LOOP_S / statistics.fmean(data.get("calibration_s", [layers.REFERENCE_LOOP_S]))
    return {
        "exit": exit_code,
        "wall": wall,
        "setup": setup,
        "speed": speed,
        # Scaled to the reference host: CPU time scales with host speed,
        # time spent waiting (on the scoring service) does not.
        "wall_ref": wall - cpu + cpu * speed,
        "setup_ref": setup * speed,
        "rss_mb": data.get("peak_rss_kb", 0) / 1024,
        "report": data,
    }


def read_json(path: Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def finite_in(value, lo: float, hi: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and lo <= value <= hi


class Context:
    def __init__(self, seed: int, size: str, inputs: Path, work: Path):
        self.seed, self.size = seed, size
        self.inputs, self.work = inputs, work
        self.i = str(inputs.relative_to(ROOT))
        self.w = str(work.relative_to(ROOT))
        self.endpoint = None


class Workload:
    """Inputs, command sequence and output checks of one workload."""

    name: str
    traced_passes = 1  # traced passes a --trace 1 run needs at least

    def prepare(self, inputs: Path, seed: int, size: dict) -> None:
        raise NotImplementedError

    def commands(self, c: Context) -> list[list[str]]:
        raise NotImplementedError

    def checks(self, c: Context, stub: dict | None) -> dict[str, bool]:
        raise NotImplementedError


class Augment(Workload):
    """stats -> subsets -> perturb x4 -> hit-rate x2 on a training slice."""

    name = "augment"

    def prepare(self, inputs: Path, seed: int, size: dict) -> None:
        gen.make_augment(inputs, seed, **size)

    def commands(self, c: Context) -> list[list[str]]:
        i, w = c.i, c.w
        vocab = ["--vocab", f"{i}/vocab.json"]
        train = f"{i}/train.jsonl"
        zs, few10 = f"{w}/subsets/zs_triplets.json", f"{w}/subsets/few10_triplets.json"
        extra = {
            "rand": [],
            "neigh": ["--embeddings", f"{i}/embeddings.txt"],
            "graphn": ["--embeddings", f"{i}/embeddings.txt", "--stats", f"{i}/full_stats.json"],
            "oracle_zs": ["--zs", zs],
        }
        cmds = [
            ["stats", "--train", train, *vocab, "--out", f"{w}/stats.json"],
            ["subsets", "--train", train, "--test", f"{i}/test.jsonl", *vocab,
             "--out-dir", f"{w}/subsets"],
        ]
        for m in layers.METHODS:
            cmds.append(["perturb", "--method", m, *PERTURB_FLAGS, "--seed", str(c.seed),
                         "--dataset", train, *vocab, *extra[m],
                         "--out-dataset", f"{w}/{m}.jsonl", "--out-records", f"{w}/{m}_records.jsonl"])
        for m in ("graphn", "oracle_zs"):
            cmds.append(["hit-rate", "--records", f"{w}/{m}_records.jsonl",
                         "--perturbed", f"{w}/{m}.jsonl", *vocab,
                         "--reference", f"zs={zs}", "--reference", f"few10={few10}",
                         "--out", f"{w}/{m}_hits.json"])
        return cmds

    def checks(self, c: Context, stub: dict | None) -> dict[str, bool]:
        node_counts = [len(g["objects"]) for g in read_jsonl(c.inputs / "train.jsonl")]
        sampled = layers.nodes_sampled(node_counts, INTENSITY)
        out = {}
        for m in layers.METHODS:
            records = read_jsonl(c.work / f"{m}_records.jsonl")
            replaced = sum(len(r["replacements"]) for r in records)
            out[f"{m}: one record per graph"] = len(records) == len(node_counts)
            out[f"{m}: replaced <= sampled"] = replaced <= sampled
        for m in ("graphn", "oracle_zs"):
            rates = read_json(c.work / f"{m}_hits.json")["hit_rates"]
            for ref in ("zs", "few10"):
                r = rates[ref]
                out[f"{m} hit rate {ref} in range"] = (
                    finite_in(r["value"], 0, 100) and 0 <= r["hits"] <= r["total"])
        zs = read_json(c.work / "oracle_zs_hits.json")["hit_rates"]["zs"]
        out["oracle_zs hits zs exactly 100%"] = zs["value"] == 100.0 and zs["total"] > 0
        return out


class Evaluate(Workload):
    """Four eval runs over all-pairs predictions."""

    name = "evaluate"
    RUNS = {  # output name -> flags, expected K
        "recall": (["--mode", "sgcls", "--k", "100"], 100),
        "recall_gc": (["--mode", "predcls", "--k", "50", "--graph-constraint",
                       "--subset", "{i}/zs_triplets.json"], 50),
        "mean_recall": (["--metric", "mean-recall", "--mode", "sgcls", "--k", "100",
                         "--reweight-x", "1", "--stats", "{i}/stats.json"], 100),
        "sggen": (["--mode", "sggen", "--k", "100"], 100),
    }

    def prepare(self, inputs: Path, seed: int, size: dict) -> None:
        gen.make_evaluate(inputs, seed, **size)

    def commands(self, c: Context) -> list[list[str]]:
        base = ["eval", "--predictions", f"{c.i}/predictions.jsonl", "--gt", f"{c.i}/gt.jsonl",
                "--vocab", f"{c.i}/vocab.json"]
        return [base + [f.format(i=c.i) for f in flags] + ["--out", f"{c.w}/{name}.json"]
                for name, (flags, _) in self.RUNS.items()]

    def checks(self, c: Context, stub: dict | None) -> dict[str, bool]:
        out = {}
        for name, (_, k) in self.RUNS.items():
            report = read_json(c.work / f"{name}.json")
            out[f"{name}: value finite in [0, 100]"] = finite_in(report["value"], 0, 100)
            out[f"{name}: K = {k}"] = report["K"] == k
        return out


class Features(Workload):
    """feat-metrics (PRDC and Frechet distance) on two feature matrices."""

    name = "features"

    def prepare(self, inputs: Path, seed: int, size: dict) -> None:
        gen.make_features(inputs, seed, **size)

    def commands(self, c: Context) -> list[list[str]]:
        return [["feat-metrics", "--real", f"{c.i}/real.tsv", "--fake", f"{c.i}/fake.tsv",
                 "-k", "5", "--out", f"{c.w}/feat.json"]]

    def checks(self, c: Context, stub: dict | None) -> dict[str, bool]:
        r = read_json(c.work / "feat.json")
        n = SIZES[c.size]["features"]["n"]
        return {
            "precision, recall, coverage in [0, 1]": all(
                finite_in(r[k], 0, 1) for k in ("precision", "recall", "coverage")),
            "density finite and >= 0": finite_in(r["density"], 0, math.inf),
            "frechet distance finite and >= 0": finite_in(r["frechet_distance"], 0, math.inf),
            "point counts": r["n_real"] == n and r["n_fake"] == n,
        }


class Plausibility(Workload):
    """plausibility --jobs 2 on generated graphn-shaped graphs against the stub service."""

    name = "plausibility"
    traced_passes = 2

    def prepare(self, inputs: Path, seed: int, size: dict) -> None:
        gen.make_plausibility(inputs, seed, intensity=INTENSITY, **size)

    def commands(self, c: Context) -> list[list[str]]:
        return [["plausibility", "--dataset", f"{c.i}/perturbed.jsonl",
                 "--vocab", f"{c.i}/vocab.json", "--records", f"{c.i}/records.jsonl",
                 "--endpoint", c.endpoint, "--seed", str(c.seed), "--jobs", str(JOBS),
                 "--out", f"{c.w}/plausibility.json"]]

    def checks(self, c: Context, stub: dict | None) -> dict[str, bool]:
        r = read_json(c.work / "plausibility.json")
        graphs = SIZES[c.size]["plausibility"]["n_graphs"]
        return {
            "mean and every score finite": math.isfinite(r["mean_score"]) and all(
                math.isfinite(v) for v in r["per_graph"].values()),
            "one query per graph": r["scored"] == graphs and r["skipped"] == 0,
            "service saw every query": stub is not None and stub["requests"] >= r["scored"],
            "service answered every query": stub is not None and stub["failures"] == 0,
        }


WORKLOADS = {w.name: w for w in (Augment(), Evaluate(), Features(), Plausibility())}


class Stub:
    """The scoring service in its own process, for the plausibility workload."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("scoring stub did not start")
        self.url = f"http://127.0.0.1:{int(line)}"
        self.opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def counts(self) -> dict:
        with self.opener.open(self.url + "/stats", timeout=10) as resp:
            return json.load(resp)

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_hashes(work: Path) -> dict[str, str]:
    return {str(p.relative_to(work)): sha256(p) for p in sorted(work.rglob("*")) if p.is_file()}


def prepare_inputs(workload, base: Path, seed: int, size: str) -> Path:
    """Generate the inputs of one seed once; later runs reuse them."""
    inputs = base / "inputs"
    if (inputs / ".done").exists():
        return inputs
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    workload.prepare(inputs, seed, SIZES[size][workload.name])
    (inputs / ".done").write_text(json.dumps(output_hashes(inputs), indent=1) + "\n")
    return inputs


def run_pass(workload, ctx: Context, stub: Stub | None, traced: bool, index: int) -> dict:
    """One pass over the workload's commands, then its output checks."""
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)
    logs = ctx.work.parent / "logs"
    logs.mkdir(exist_ok=True)
    before = stub.counts() if stub else None
    commands = []
    start = time.monotonic()
    for k, argv in enumerate(workload.commands(ctx)):
        stem = logs / f"{index:03d}-{k}-{argv[0]}"
        commands.append(run_command(argv, stem.with_suffix(".json"), stem.with_suffix(".log"), traced))
    stub_delta = None
    if stub:
        after = stub.counts()
        stub_delta = {k: after[k] - before[k] for k in after}

    checks = {f"command {k} exit 0": c["exit"] == 0 for k, c in enumerate(commands)}
    if all(checks.values()):
        try:
            checks.update(workload.checks(ctx, stub_delta))
        except (OSError, ValueError, KeyError, TypeError) as e:
            checks[f"outputs readable ({type(e).__name__}: {e})"] = False
    hashes = output_hashes(ctx.work)
    reference = ctx.work.parent / "outputs.sha256.json"
    if reference.exists():
        checks["outputs identical to earlier runs of this seed"] = hashes == read_json(reference)
    elif all(checks.values()):
        reference.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    return {
        "traced": traced,
        "wall": sum(c["wall"] for c in commands),
        "setup": sum(c["setup"] for c in commands),
        "speed": statistics.fmean(c["speed"] for c in commands),
        "rss_mb": max(c["rss_mb"] for c in commands),
        "commands": commands,
        "stub": stub_delta,
        "checks": checks,
        "elapsed": time.monotonic() - start,
    }


def calibrated(passes: list[dict], key: str) -> float:
    """Sum over the workload's commands of each command's median time among
    the passes, scaled to the reference host speed measured in that
    command's own process (`wall_ref`, `setup_ref`)."""
    return sum(statistics.median(p["commands"][k][key] for p in passes)
               for k in range(len(passes[0]["commands"])))


def run_workload(workload, seed: int, seconds: float, trace: bool, size: str) -> dict:
    params = SIZES[size][workload.name]
    base = CACHE / workload.name / "_".join(f"{k}{v}" for k, v in params.items()) / f"seed-{seed}"
    inputs = prepare_inputs(workload, base, seed, size)
    ctx = Context(seed, size, inputs, base / "work")
    warm = subprocess.run([sys.executable, "-c", "import sggkit.cli"], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import sggkit from {SRC}")
    stub = Stub() if workload.name == "plausibility" else None
    passes = []
    try:
        if stub:
            ctx.endpoint = stub.url
        deadline = time.monotonic() + seconds
        needed = 2 * workload.traced_passes if trace else 1
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(workload, ctx, stub, traced, len(passes)))
            # Start another pass if it is likely to end before the deadline
            # or at most half a pass after it.
            typical = statistics.median(p["elapsed"] for p in passes)
            if len(passes) >= needed and time.monotonic() + typical / 2 > deadline:
                break
    finally:
        if stub:
            stub.close()

    # Operations: each command (its exit check) and each output check.
    attempted = sum(len(p["checks"]) for p in passes)
    failed = sum(sum(not ok for ok in p["checks"].values()) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = layers.summarize(traced)
        # Each traced pass against the untraced pass just before it, which
        # ran on the host in nearly the same state.
        ref = [sum(c["wall_ref"] for c in p["commands"]) for p in passes]
        values["trace.overhead_s"] = statistics.median(
            ref[i] - ref[i - 1] for i, p in enumerate(passes) if p["traced"])
        units = [(name, unit) for name, unit, _ in layers.PER_LAYER]
    else:
        values = {
            "wall_s": calibrated(plain, "wall_ref"),
            "setup_s": calibrated(plain, "setup_ref"),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
            "ok_share": 1 - failed / attempted,
        }
        units = END_TO_END
    if trace:
        spans = [s for p in passes if p["traced"]
                 for c in p["commands"] for s in c["report"].get("spans", [])]
        (base / "trace.json").write_text(json.dumps(spans) + "\n")
    return {
        "workload": workload.name,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sggkit benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that running commands and the stub are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "sggkit" / "cli.py").is_file():
        print(f"perfbench: no sggkit sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), args.size)
               for n in names]
    metrics = {}
    for r in results:
        plain = [p for p in r["passes"] if not p["traced"]]
        print(f"# {r['workload']}: seed {args.seed}, {len(r['passes'])} passes "
              f"({len(plain)} untraced), {r['attempted']} operations, {r['failed']} failed")
        hook_errors = sum(c["report"].get("counters", {}).get("trace.hook_errors", 0)
                          for p in r["passes"] for c in p["commands"])
        if hook_errors:
            print(f"#   WARNING: {hook_errors:.0f} trace counters could not be read; "
                  "child.py needs updating for this version of sggkit")
        for k, p in enumerate(r["passes"]):
            print(f"#   pass {k}{' (traced)' if p['traced'] else ''}: wall {p['wall']:.3f} s, "
                  f"setup {p['setup']:.3f} s, speed {p['speed']:.3f}, peak RSS {p['rss_mb']:.1f} MB")
            for name, ok in p["checks"].items():
                if not ok:
                    print(f"#   FAILED: {name}")
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        print(f"{prefix}failed_share {r['failed'] / r['attempted']!r} ratio")
        for name, m in r["metrics"].items():
            print(f"{prefix}{name} {m['value']!r} {m['unit']}")
            metrics[prefix + name] = m
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
