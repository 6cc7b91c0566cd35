"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v`; a per-criterion PASS/FAIL
summary is printed at the end of the session.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest, chisquare

from sggkit.cli import main
from sggkit.evaluation import PairScores, PredictedGraph, rank_triplets, recall_at_k, mean_recall
from sggkit.featmetrics import (
    frechet_distance,
    precision_recall_density_coverage,
    summarize_feature_report,
)
from sggkit.ingest import Dataset, EmbeddingTable, graph_to_obj, load_dataset, load_vocabulary
from sggkit.losses import box_margin_l1, edge_loss, node_loss, total_loss, ProbTable
from sggkit.model import BoundingBox, Triplet, Vocabulary, categorical_triplets
from sggkit.perturb import (
    PerturbationConfig,
    PerturbationRecord,
    PerturbationResources,
    graphn_candidates,
    perturb_dataset,
    perturb_graph,
)
from sggkit.quality import HttpScorer, build_query, hit_rate
from sggkit.stats import TripletFrequencyTable, build_frequency_table, shot_subsets

from .conftest import make_graph, write_jsonl, write_vocab
from .lm_stub import stub_lm_server
from .test_evaluation import brute_image_recall, brute_rank, random_instance
from .test_featmetrics import naive_prdc

VG_ENV = "SGGKIT_VG_DIR"


def criterion(label):
    def mark(fn):
        fn._criterion = label
        return fn

    return mark


def run_cli(args):
    return main([str(a) for a in args])


# --- criterion 1 -----------------------------------------------------------

@criterion("01 oracle-zs exactness")
def test_oracle_zs_exactness(tmp_path):
    started = time.monotonic()
    num_objects = 10
    target = num_objects - 1  # category appearing only in the reference set
    objects = [f"c{i}" for i in range(num_objects)]
    predicates = ["on", "above", "near"]
    write_vocab(tmp_path / "vocab.json", objects, predicates)

    rng = np.random.default_rng(123)
    graphs = []
    for i in range(1000):
        n = int(rng.integers(2, 6))
        cats = rng.integers(0, target, size=n).tolist()
        edges = []
        for _ in range(int(rng.integers(1, 5))):
            s = int(rng.integers(n))
            o = int(rng.integers(n - 1))
            if o >= s:
                o += 1
            edges.append((s, int(rng.integers(3)), o))
        graphs.append(make_graph(f"g{i}", cats, edges))
    write_jsonl(tmp_path / "toy.jsonl", [graph_to_obj(g) for g in graphs])

    zs = {Triplet(target, p, o) for p in range(3) for o in range(num_objects)} | {
        Triplet(s, p, target) for p in range(3) for s in range(num_objects)
    }
    (tmp_path / "zs.json").write_text(
        json.dumps({"triplets": [{"s": t[0], "p": t[1], "o": t[2]} for t in sorted(zs)]})
    )

    assert run_cli(["perturb", "--method", "oracle_zs", "--intensity", "0.5",
                    "--seed", "11", "--dataset", tmp_path / "toy.jsonl",
                    "--vocab", tmp_path / "vocab.json", "--zs", tmp_path / "zs.json",
                    "--out-dataset", tmp_path / "out.jsonl",
                    "--out-records", tmp_path / "records.jsonl"]) == 0
    assert run_cli(["hit-rate", "--records", tmp_path / "records.jsonl",
                    "--perturbed", tmp_path / "out.jsonl",
                    "--vocab", tmp_path / "vocab.json",
                    "--reference", f"zs={tmp_path / 'zs.json'}",
                    "--out", tmp_path / "hit.json"]) == 0

    payload = json.loads((tmp_path / "hit.json").read_text())
    assert payload["hit_rates"]["zs"]["total"] > 500
    assert payload["hit_rates"]["zs"]["value"] == 100.0

    # direct check: every perturbed composition lies in the reference set
    vocab = load_vocabulary(tmp_path / "vocab.json")
    perturbed = load_dataset(tmp_path / "out.jsonl", vocab)
    by_id = {g.image_id: g for g in perturbed.graphs}
    with open(tmp_path / "records.jsonl") as f:
        for line in f:
            record = PerturbationRecord.from_json_obj(json.loads(line))
            triplets = categorical_triplets(by_id[record.image_id])
            for edge_index in record.affected_edges:
                assert triplets[edge_index] in zs
    assert time.monotonic() - started < 5.0


# --- criterion 2 -----------------------------------------------------------

@criterion("02a shot-subset fidelity (synthetic fixture)")
def test_shot_subsets_synthetic_fixture(vocab):
    # compositions with pinned training counts around every bucket boundary
    pool = {
        Triplet(0, 0, 1): 0,
        Triplet(1, 0, 2): 1,
        Triplet(2, 0, 3): 10,
        Triplet(3, 0, 4): 11,
        Triplet(4, 0, 0): 100,
        Triplet(0, 1, 2): 101,
    }
    table = TripletFrequencyTable({t: c for t, c in pool.items() if c > 0})
    comps = sorted(pool)
    rng = np.random.default_rng(42)
    graphs = []
    contents = []
    for i in range(100):
        picked = [comps[j] for j in rng.choice(len(comps), size=int(rng.integers(1, 4)),
                                               replace=False)]
        cats, edges = [], []
        for t in picked:
            base = len(cats)
            cats.extend([t.subject_category, t.object_category])
            edges.append((base, t.predicate, base + 1))
        graphs.append(make_graph(f"g{i}", cats, edges))
        contents.append(picked)
    test = Dataset(vocab, tuple(graphs))
    subsets = shot_subsets(test, table)

    def expected_bucket(low, high):
        ids, filtered = [], {}
        for graph, picked in zip(graphs, contents):
            kept = [t for t in picked if low <= pool[t] <= high]
            if kept:
                ids.append(graph.image_id)
                filtered[graph.image_id] = Counter(kept)
        return ids, filtered

    for bucket, (low, high) in (
        (subsets.zero, (0, 0)),
        (subsets.few10, (1, 10)),
        (subsets.few100, (11, 100)),
    ):
        ids, filtered = expected_bucket(low, high)
        assert [g.image_id for g in bucket.dataset.graphs] == ids
        for graph in bucket.dataset.graphs:
            assert Counter(categorical_triplets(graph)) == filtered[graph.image_id]
    assert len(subsets.all_shot.dataset) == 100


@criterion("02b shot-subset fidelity (reference split)")
def test_shot_subsets_reference_split():
    vg_dir = os.environ.get(VG_ENV)
    if not vg_dir:
        pytest.skip(f"{VG_ENV} not set; reference split files unavailable")
    vg = Path(vg_dir)
    vocab = load_vocabulary(vg / "vocab.json")
    train = load_dataset(vg / "train.jsonl", vocab)
    test = load_dataset(vg / "test.jsonl", vocab)
    assert len(train) == 57723
    assert len(test) == 26446
    subsets = shot_subsets(test, build_frequency_table(train))
    assert len(subsets.zero.dataset) == 4519
    assert len(subsets.few10.dataset) == 9602
    assert len(subsets.few100.dataset) == 16528


# --- criterion 3 -----------------------------------------------------------

@criterion("03 graphn sampling law")
def test_graphn_sampling_law():
    started = time.monotonic()
    vocab = Vocabulary(("A", "B", "C", "D"), ("on",))
    A, B, C, D = range(4)
    table = TripletFrequencyTable({Triplet(A, 0, B): 4, Triplet(C, 0, B): 1})
    emb = EmbeddingTable(np.eye(4))
    graph = make_graph("g", [D, B], [(0, 0, 1)])

    # alpha = 2 filters exactly the count-1 candidate
    low = {c.category: c.probability for c in graphn_candidates(graph, 0, table, alpha=1)}
    assert low[A] == pytest.approx(0.2) and low[C] == pytest.approx(0.8)
    high = graphn_candidates(graph, 0, table, alpha=2)
    assert [(c.category, c.probability) for c in high] == [(A, 1.0)]

    cfg = PerturbationConfig("graphn", intensity=0.5, top_k=0, alpha=1)
    resources = PerturbationResources(emb, table)
    rng = np.random.default_rng(2718)
    counts = Counter()
    for _ in range(100_000):
        _, record = perturb_graph(graph, cfg, vocab, rng, resources)
        for node, _, new in record.replacements:
            counts[new] += 1
    assert set(counts) == {A, C}
    drawn = counts[A] + counts[C]
    assert drawn > 10_000
    _, p = chisquare([counts[A], counts[C]], [0.2 * drawn, 0.8 * drawn])
    assert p > 0.001
    assert time.monotonic() - started < 10.0


# --- criterion 4 -----------------------------------------------------------

def _trend_world():
    """Zipf long-tail composition world with a frequent and a rare category
    cluster; a third of rare compositions exist only in the test set."""
    num_f, num_q = 6, 6
    objects = [f"f{i}" for i in range(num_f)] + [f"q{i}" for i in range(num_q)]
    vocab = Vocabulary(tuple(objects), ("on",))
    f_ids = list(range(num_f))
    q_ids = list(range(num_f, num_f + num_q))

    vectors = np.zeros((len(objects), 2))
    for rank, i in enumerate(f_ids):
        vectors[i] = (1.0, 0.01 * rank)
    for rank, i in enumerate(q_ids):
        vectors[i] = (0.01 * rank, 1.0)
    emb = EmbeddingTable(vectors)

    f_pairs = [(a, b) for a in f_ids for b in f_ids if a != b]
    counts = {}
    for rank, (a, b) in enumerate(f_pairs, start=1):
        counts[Triplet(a, 0, b)] = max(2, math.ceil(400 / rank))
    train_q = [
        Triplet(q, 0, f) for qi, q in enumerate(q_ids) for fi, f in enumerate(f_ids)
        if (qi + fi) % 3 == 0
    ]
    for t in train_q:
        counts[t] = 1
    table = TripletFrequencyTable(counts)

    zs_comps = [
        Triplet(q, 0, f) for qi, q in enumerate(q_ids) for fi, f in enumerate(f_ids)
        if (qi + fi) % 3 == 1
    ]
    test_comps = [Triplet(a, 0, b) for a, b in f_pairs] + zs_comps
    test_graphs = [
        make_graph(f"te{i}", [t.subject_category, t.object_category], [(0, 0, 1)])
        for i, t in enumerate(test_comps)
    ]
    subsets = shot_subsets(Dataset(vocab, tuple(test_graphs)), table)
    assert set(subsets.zero.triplets) == set(zs_comps)
    return vocab, emb, table, subsets


@criterion("04 hit-rate alpha trend")
def test_hit_rate_alpha_trend():
    started = time.monotonic()
    vocab, emb, table, subsets = _trend_world()
    weights = np.array([c for c in table.counts.values()], dtype=float)
    comps = list(table.counts)
    weights /= weights.sum()

    zs_wins = all_wins = 0
    seeds = range(10)
    for seed in seeds:
        corpus_rng = np.random.default_rng(1000 + seed)
        graphs = []
        for i in range(150):
            t = comps[int(corpus_rng.choice(len(comps), p=weights))]
            graphs.append(
                make_graph(f"s{seed}g{i}", [t.subject_category, t.object_category], [(0, 0, 1)])
            )
        dataset = Dataset(vocab, tuple(graphs))
        rates = {}
        for alpha in (1.0, 20.0):
            cfg = PerturbationConfig("graphn", intensity=0.5, top_k=3, alpha=alpha,
                                     master_seed=seed)
            perturbed, records = perturb_dataset(
                dataset, cfg, PerturbationResources(embeddings=emb, table=table)
            )
            rates[alpha] = (
                hit_rate(records, perturbed, subsets.zero.triplets).value,
                hit_rate(records, perturbed, subsets.all_shot.triplets).value,
            )
        zs_wins += rates[1.0][0] > rates[20.0][0]
        all_wins += rates[20.0][1] > rates[1.0][1]

    assert binomtest(zs_wins, len(list(seeds)), alternative="greater").pvalue < 0.05
    assert binomtest(all_wins, len(list(seeds)), alternative="greater").pvalue < 0.05
    assert time.monotonic() - started < 60.0


# --- criterion 5 -----------------------------------------------------------

@criterion("05 recall oracle equivalence")
def test_recall_oracle_equivalence():
    rng = np.random.default_rng(55)
    for _ in range(200):
        vocab, graph, pred = random_instance(rng)
        ds = Dataset(vocab, (graph,))
        for constraint in (True, False):
            for k in (1, 5, 50):
                assert rank_triplets(pred, constraint, k) == brute_rank(pred, constraint, k)
                expected = brute_image_recall(pred, graph, k, "sgcls", constraint)
                got = recall_at_k([pred], ds, k, "sgcls", graph_constraint=constraint)
                assert got == 100.0 * (expected / graph.num_edges)


# --- criterion 6 -----------------------------------------------------------

@criterion("06 reweighting identities and trend")
def test_reweighting_identities_and_trend():
    from sggkit.evaluation import reweight_scores

    rng = np.random.default_rng(66)

    # exponent zero: bitwise identity
    pairs = (PairScores(0, 1, rng.uniform(0, 1, size=4)),)
    out = reweight_scores(pairs, np.array([0.4, 0.3, 0.2, 0.1]), 0.0)
    assert out[0] is pairs[0] and out[0].scores is pairs[0].scores

    # uniform frequencies: every induced ranking unchanged for any exponent
    for _ in range(30):
        scores = rng.uniform(0.01, 1, size=(2, 3))
        scores /= scores.sum(axis=1, keepdims=True)
        pairs = (
            PairScores(0, 1, rng.uniform(0, 1, size=4)),
            PairScores(1, 0, rng.uniform(0, 1, size=4)),
        )
        base = PredictedGraph("i", scores, pairs)
        f_uniform = np.full(4, 0.25)
        for x in (0.5, 1.0, 3.0):
            rw = PredictedGraph("i", scores, reweight_scores(pairs, f_uniform, x))
            for constraint in (True, False):
                assert (
                    [t[:5] for t in rank_triplets(base, constraint, 20)]
                    == [t[:5] for t in rank_triplets(rw, constraint, 20)]
                )

    # constructed long-tail set: mR strictly rises, R@1 strictly falls
    vocab = Vocabulary(("thing", "other"), ("p0", "p1", "p2", "p3"))
    f_r = np.array([0.7, 0.23, 0.05, 0.02])
    cases = (
        [(0, [0.8, 0.1, 0.1, 0.0])] * 4
        + [(0, [0.95, 0.04, 0.01, 0.0])] * 4
        + [(2, [0.55, 0.05, 0.4, 0.0])]
        + [(1, [0.55, 0.40, 0.002, 0.0])]
        + [(3, [0.7, 0.05, 0.2, 0.05])]
    )
    graphs, preds = [], []
    one_hot = np.eye(2)
    for i, (gt_pred, row) in enumerate(cases):
        graphs.append(make_graph(f"img{i}", [0, 1], [(0, gt_pred, 1)]))
        preds.append(
            PredictedGraph(f"img{i}", one_hot, (PairScores(0, 1, np.array(row)),))
        )
    ds = Dataset(vocab, tuple(graphs))
    recalls = [
        recall_at_k(preds, ds, 1, "predcls", graph_constraint=True, reweight_x=x, f_r=f_r)
        for x in (0.0, 1.0, 2.0)
    ]
    mean_recalls = [
        mean_recall(preds, ds, 1, "predcls", graph_constraint=True, reweight_x=x, f_r=f_r)
        for x in (0.0, 1.0, 2.0)
    ]
    assert recalls[0] > recalls[1] > recalls[2]
    assert mean_recalls[0] < mean_recalls[1] < mean_recalls[2]


# --- criterion 7 -----------------------------------------------------------

@criterion("07 feature metrics")
def test_feature_metrics():
    rng = np.random.default_rng(77)

    x = rng.normal(size=(40, 4))
    identity = precision_recall_density_coverage(x, x, k=5)
    assert identity.precision == 1.0
    assert identity.recall == 1.0
    assert identity.coverage == 1.0

    for _ in range(50):
        real = rng.normal(size=(int(rng.integers(8, 40)), int(rng.integers(1, 5))))
        fake = rng.normal(size=(int(rng.integers(8, 40)), real.shape[1])) + 0.3
        k = int(rng.integers(1, 5))
        got = precision_recall_density_coverage(real, fake, k)
        want = naive_prdc(real.tolist(), fake.tolist(), k)
        for g, w in zip(got.as_tuple(), want):
            assert abs(g - w) <= 1e-12

    report = summarize_feature_report(
        {"nodes": {
            "test": (0.74, 0.75, 1.02, 0.97),
            "test-zs": (0.66, 0.70, 0.99, 0.94),
        }},
        ("test", "test-zs"),
    )
    by_condition = {r["condition"]: r["average_display"] for r in report["rows"]}
    assert by_condition["test"] == 0.87
    assert by_condition["test-zs"] == 0.82
    assert report["drops"][0]["drop_percent"] == 6

    base = rng.normal(size=(60, 4))
    shift = np.array([1.5, -0.5, 2.0, 0.25])
    assert frechet_distance(base, base + shift) == pytest.approx(
        float(shift @ shift), abs=1e-6
    )


# --- criterion 8 -----------------------------------------------------------

@criterion("08 loss arithmetic")
def test_loss_arithmetic():
    uniform_nodes = ProbTable(np.full((4, 151), 1 / 151), np.zeros(4, dtype=int))
    assert node_loss(uniform_nodes) == pytest.approx(math.log(151), abs=1e-9)

    uniform_edges = ProbTable(np.full((2, 51), 1 / 51), np.zeros(2, dtype=int))
    assert edge_loss([(uniform_edges, 2)], "density_normalized") == pytest.approx(
        math.log(51), abs=1e-9
    )

    rng = np.random.default_rng(88)
    s = 100.0
    for _ in range(10_000):
        vals = rng.uniform(0, s, size=8)
        a = BoundingBox(vals[0], vals[1], vals[0] + vals[2] + 0.01, vals[1] + vals[3] + 0.01)
        b = BoundingBox(vals[4], vals[5], vals[4] + vals[6] + 0.01, vals[5] + vals[7] + 0.01)
        value = box_margin_l1(a, b, s)
        assert 0.05 * s <= value <= 0.5 * s

    assert total_loss(1, 1, -1, -1, gamma=5) == 12.0
    assert total_loss(2.5, 1.5, 0, 0, gamma=7) == 4.0
    assert total_loss(0, 0, 0.25, 0.75, gamma=2) == -2.0


# --- criterion 9 -----------------------------------------------------------

@criterion("09 determinism of the command line")
def test_cli_determinism(tmp_path):
    objects = [f"c{i}" for i in range(6)]
    predicates = ["on", "above"]
    write_vocab(tmp_path / "vocab.json", objects, predicates)
    rng = np.random.default_rng(99)
    graphs = []
    for i in range(40):
        cats = rng.integers(0, 6, size=3).tolist()
        graphs.append(make_graph(f"g{i}", cats, [(0, int(rng.integers(2)), 1),
                                                 (2, int(rng.integers(2)), 0)]))
    write_jsonl(tmp_path / "train.jsonl", [graph_to_obj(g) for g in graphs])
    write_jsonl(tmp_path / "test.jsonl", [graph_to_obj(g) for g in graphs[:15]])
    with open(tmp_path / "glove.txt", "w") as f:
        emb_rng = np.random.default_rng(5)
        for name in objects:
            f.write(name + " " + " ".join(f"{v:.5f}" for v in emb_rng.normal(size=3)) + "\n")
    with open(tmp_path / "real.tsv", "w") as f:
        f.write("12 2\n")
        for row in np.random.default_rng(1).normal(size=(12, 2)):
            f.write(f"{row[0]} {row[1]}\n")
    vocab = load_vocabulary(tmp_path / "vocab.json")
    test_ds = load_dataset(tmp_path / "test.jsonl", vocab)
    write_jsonl(
        tmp_path / "preds.jsonl",
        [
            {
                "image_id": g.image_id,
                "object_labels": [n.category for n in g.nodes],
                "pairs": [
                    {"subject": e.subject, "object": e.object,
                     "predicate_scores": [1.0 if p == e.predicate else 0.0 for p in range(2)]}
                    for e in g.edges
                ],
            }
            for g in test_ds.graphs
        ],
    )

    invocations = {
        "stats": ["stats", "--train", tmp_path / "train.jsonl",
                  "--vocab", tmp_path / "vocab.json", "--out", tmp_path / "stats.json"],
        "subsets": ["subsets", "--train", tmp_path / "train.jsonl",
                    "--test", tmp_path / "test.jsonl", "--vocab", tmp_path / "vocab.json",
                    "--out-dir", tmp_path / "subsets"],
        "perturb": ["perturb", "--method", "graphn", "--intensity", "0.4", "--seed", "3",
                    "--top-k", "2", "--alpha", "1",
                    "--dataset", tmp_path / "train.jsonl", "--vocab", tmp_path / "vocab.json",
                    "--embeddings", tmp_path / "glove.txt",
                    "--out-dataset", tmp_path / "pert.jsonl",
                    "--out-records", tmp_path / "records.jsonl"],
        "hit-rate": ["hit-rate", "--records", tmp_path / "records.jsonl",
                     "--perturbed", tmp_path / "pert.jsonl",
                     "--vocab", tmp_path / "vocab.json",
                     "--reference", f"zs={tmp_path / 'subsets' / 'zs_triplets.json'}",
                     "--out", tmp_path / "hit.json"],
        "eval": ["eval", "--predictions", tmp_path / "preds.jsonl",
                 "--gt", tmp_path / "test.jsonl", "--vocab", tmp_path / "vocab.json",
                 "--graph-constraint", "--per-image", "--out", tmp_path / "eval.json"],
        "feat-metrics": ["feat-metrics", "--real", tmp_path / "real.tsv",
                         "--fake", tmp_path / "real.tsv", "-k", "2",
                         "--out", tmp_path / "fm.json"],
    }
    outputs = {
        "stats": [tmp_path / "stats.json"],
        "subsets": [tmp_path / "subsets" / f"{n}{s}" for n in ("zs", "few10", "few100")
                    for s in (".jsonl", "_triplets.json")],
        "perturb": [tmp_path / "pert.jsonl", tmp_path / "records.jsonl"],
        "hit-rate": [tmp_path / "hit.json"],
        "eval": [tmp_path / "eval.json"],
        "feat-metrics": [tmp_path / "fm.json"],
    }

    first = {}
    for name, args in invocations.items():
        assert run_cli(args) == 0, name
        first[name] = [p.read_bytes() for p in outputs[name]]
    for name, args in invocations.items():
        assert run_cli(args) == 0, name
        assert [p.read_bytes() for p in outputs[name]] == first[name], name

    # plausibility round trips byte-identically against a deterministic backend
    with stub_lm_server(lambda text, target: float(len(text))) as (url, _):
        args = ["plausibility", "--dataset", tmp_path / "train.jsonl",
                "--vocab", tmp_path / "vocab.json", "--endpoint", url,
                "--seed", "4", "--jobs", "1", "--out", tmp_path / "plaus.json"]
        assert run_cli(args) == 0
        plaus_first = (tmp_path / "plaus.json").read_bytes()
        assert run_cli(args) == 0
        assert (tmp_path / "plaus.json").read_bytes() == plaus_first

    # permuting the input order leaves each image's perturbation unchanged
    with open(tmp_path / "train.jsonl") as f:
        lines = f.readlines()
    (tmp_path / "shuffled.jsonl").write_text("".join(reversed(lines)))
    args = ["perturb", "--method", "graphn", "--intensity", "0.4", "--seed", "3",
            "--top-k", "2", "--alpha", "1", "--vocab", tmp_path / "vocab.json",
            "--embeddings", tmp_path / "glove.txt",
            "--dataset", tmp_path / "shuffled.jsonl",
            "--out-dataset", tmp_path / "pert2.jsonl",
            "--out-records", tmp_path / "records2.jsonl"]
    assert run_cli(args) == 0
    straight = {g.image_id: g for g in load_dataset(tmp_path / "pert.jsonl", vocab).graphs}
    shuffled = {g.image_id: g for g in load_dataset(tmp_path / "pert2.jsonl", vocab).graphs}
    assert straight == shuffled


# --- criterion 10 ----------------------------------------------------------

@criterion("10 plausibility wire protocol")
def test_plausibility_wire_protocol(rng):
    vocab = Vocabulary(("person", "shorts"), ("wearing",))
    graph = make_graph("fixture", [0, 1], [(0, 0, 1)])
    query = build_query(graph, 1, vocab, rng)
    assert query.text == "person wearing [MASK]"
    assert query.target == "shorts"

    def canned(text, target):
        assert target == "shorts"
        return 9.8

    with stub_lm_server(canned) as (url, state):
        scorer = HttpScorer(url, timeout=5, retries=2)
        assert scorer.score(query.text, query.target) == 9.8
    path, payload = state["requests"][0]
    assert path == "/score"
    assert payload == {"text": "person wearing [MASK]", "target": "shorts"}
