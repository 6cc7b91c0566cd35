"""Seeded synthetic inputs for the sggkit benchmark.

Everything here depends only on numpy and the standard library, never on
sggkit, so a change to the program cannot change its own inputs. The same
seed and size always give byte-identical files.

Settings follow the Visual-Genome-shaped baseline in ROADMAP.md: 150 object
classes and 51 predicates (id 0 is background and never labels a
ground-truth edge), Zipf class marginals with exponents 0.9 (objects) and
1.3 (predicates), 2-21 nodes and 1-11 edges per graph, 300-d embeddings.
The (node count, edge count) pairs of a batch are a fixed multiset that the
seed only shuffles, so every seed hands the program the same amount of work.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

NUM_OBJECTS = 150
NUM_PREDICATES = 51
OBJECT_EXPONENT = 0.9
PREDICATE_EXPONENT = 1.3
NODES = (2, 21)
EDGES = (1, 11)
EMBEDDING_DIM = 300
FEATURE_DIM = 256
FULL_TRAIN_GRAPHS = 57_723
SCORE_UNITS = 1024  # object score rows are multiples of 1/1024, so they sum to 1 exactly
GRAPHN_REPLACE_RATIO = 0.874  # share of sampled nodes graphn replaces, ROADMAP baseline

# Streams of one seed: each input kind draws from its own generator.
TRAIN, TEST, FULL, EMBED, EVAL, FEATURES, REPLACE = range(7)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _zipf(n: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** exponent
    return p / p.sum()


OBJECT_PMF = _zipf(NUM_OBJECTS, OBJECT_EXPONENT)
PREDICATE_PMF = np.concatenate([[0.0], _zipf(NUM_PREDICATES - 1, PREDICATE_EXPONENT)])


def vocabulary() -> dict:
    return {
        "objects": [f"obj{i:03d}" for i in range(NUM_OBJECTS)],
        "predicates": ["__background__"] + [f"rel{i:02d}" for i in range(1, NUM_PREDICATES)],
    }


class Graphs:
    """Structure-of-arrays batch of scene graphs."""

    def __init__(self, rng: np.random.Generator, n: int, prefix: str):
        self.prefix = prefix
        # Graph i of the unshuffled batch has NODES[0] + i % 20 nodes and
        # EDGES[0] + i % 11 edges; the seed only shuffles these pairs.
        order = rng.permutation(n)
        self.nodes = np.resize(np.arange(NODES[0], NODES[1] + 1), n)[order]
        self.edges = np.resize(np.arange(EDGES[0], EDGES[1] + 1), n)[order]
        self.node_start = np.concatenate([[0], np.cumsum(self.nodes)[:-1]])
        self.edge_start = np.concatenate([[0], np.cumsum(self.edges)[:-1]])
        self.categories = rng.choice(NUM_OBJECTS, size=int(self.nodes.sum()), p=OBJECT_PMF)
        owner = np.repeat(np.arange(n), self.edges)
        size = self.nodes[owner]
        self.subject = (rng.random(owner.size) * size).astype(np.int64)
        obj = (rng.random(owner.size) * (size - 1)).astype(np.int64)
        self.object = obj + (obj >= self.subject)
        self.predicate = rng.choice(NUM_PREDICATES, size=owner.size, p=PREDICATE_PMF)
        self.subject_category = self.categories[self.node_start[owner] + self.subject]
        self.object_category = self.categories[self.node_start[owner] + self.object]
        self.width = rng.integers(320, 1025, size=n)
        self.height = rng.integers(240, 769, size=n)
        # Box corners as fractions of the image, turned into pixels in box_list.
        self.boxes = rng.random((int(self.nodes.sum()), 4))

    def __len__(self) -> int:
        return self.nodes.size

    def image_id(self, g: int) -> str:
        return f"{self.prefix}{g}"

    def box_list(self, g: int) -> list[list[float]]:
        w, h = float(self.width[g]), float(self.height[g])
        out = []
        for u in self.boxes[self.node_start[g]:self.node_start[g] + self.nodes[g]]:
            x1 = round(u[0] * (w - 16), 1)
            y1 = round(u[1] * (h - 16), 1)
            x2 = round(x1 + 8 + u[2] * (w - x1 - 8), 1)
            y2 = round(y1 + 8 + u[3] * (h - y1 - 8), 1)
            out.append([x1, y1, x2, y2])
        return out

    def graph_obj(self, g: int) -> dict:
        n0, e0 = self.node_start[g], self.edge_start[g]
        cats = self.categories[n0:n0 + self.nodes[g]].tolist()
        return {
            "image_id": self.image_id(g),
            "width": int(self.width[g]),
            "height": int(self.height[g]),
            "objects": [{"category": c, "box": b} for c, b in zip(cats, self.box_list(g))],
            "relationships": [
                {"subject": int(s), "predicate": int(p), "object": int(o)}
                for s, p, o in zip(
                    self.subject[e0:e0 + self.edges[g]],
                    self.predicate[e0:e0 + self.edges[g]],
                    self.object[e0:e0 + self.edges[g]],
                )
            ],
        }

    def triplet_keys(self) -> np.ndarray:
        return _key(self.subject_category, self.predicate, self.object_category)


def _key(s, p, o):
    return (np.asarray(s) * NUM_PREDICATES + np.asarray(p)) * NUM_OBJECTS + np.asarray(o)


def _unkey(keys: np.ndarray):
    s, rest = np.divmod(keys, NUM_PREDICATES * NUM_OBJECTS)
    p, o = np.divmod(rest, NUM_OBJECTS)
    return s, p, o


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, objs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for obj in objs:
            f.write(json.dumps(obj, separators=(",", ":")) + "\n")


def write_dataset(path: Path, graphs: Graphs) -> None:
    _write_jsonl(path, (graphs.graph_obj(g) for g in range(len(graphs))))


def write_embeddings(path: Path, seed: int) -> None:
    """GloVe layout: token then EMBEDDING_DIM floats, one object name per line."""
    rng = _rng(seed, EMBED)
    # A few shared directions make cosine neighbours non-trivial.
    centers = rng.standard_normal((12, EMBEDDING_DIM))
    vectors = centers[rng.integers(0, 12, NUM_OBJECTS)] + 0.8 * rng.standard_normal(
        (NUM_OBJECTS, EMBEDDING_DIM)
    )
    with open(path, "w", encoding="utf-8") as f:
        for name, v in zip(vocabulary()["objects"], vectors):
            f.write(name + " " + " ".join(f"{x:.5f}" for x in v) + "\n")


def full_split_stats(train: Graphs, seed: int) -> dict:
    """stats.json payload for a full training split whose first graphs are
    `train`: the triplet table at full size (graphn's working set)."""
    rest = Graphs(_rng(seed, FULL), FULL_TRAIN_GRAPHS - len(train), "full")
    keys = np.concatenate([train.triplet_keys(), rest.triplet_keys()])
    uniq, counts = np.unique(keys, return_counts=True)
    s, p, o = _unkey(uniq)
    pred_counts = np.bincount(np.concatenate([train.predicate, rest.predicate]),
                              minlength=NUM_PREDICATES)
    obj_hist = np.bincount(np.concatenate([train.categories, rest.categories]),
                           minlength=NUM_OBJECTS)
    return {
        "triplets": [
            {"count": int(c), "o": int(oo), "p": int(pp), "s": int(ss)}
            for ss, pp, oo, c in zip(s, p, o, counts)
        ],
        "predicate_freq": (pred_counts / pred_counts.sum()).tolist(),
        "object_hist": obj_hist.tolist(),
    }


def make_augment(out: Path, seed: int, n_train: int, n_test: int) -> None:
    """Train and test slices, embeddings and the full-split stats.json."""
    _write_json(out / "vocab.json", vocabulary())
    train = Graphs(_rng(seed, TRAIN), n_train, "tr")
    write_dataset(out / "train.jsonl", train)
    write_dataset(out / "test.jsonl", Graphs(_rng(seed, TEST), n_test, "te"))
    write_embeddings(out / "embeddings.txt", seed)
    _write_json(out / "full_stats.json", full_split_stats(train, seed))


def make_plausibility(out: Path, seed: int, n_graphs: int, intensity: float) -> None:
    """A graphn-shaped perturbed dataset and its perturbation records.

    In each graph, max(1, round(intensity * n)) nodes that have an edge are
    sampled. The first is always replaced, each other one with probability
    GRAPHN_REPLACE_RATIO, by a different Zipf-drawn class. So every graph
    offers exactly one scoring query, whatever the seed.
    """
    _write_json(out / "vocab.json", vocabulary())
    graphs = Graphs(_rng(seed, TRAIN), n_graphs, "pl")
    rng = _rng(seed, REPLACE)
    perturbed, records = [], []
    for g in range(len(graphs)):
        obj = graphs.graph_obj(g)
        edges, nodes = obj["relationships"], obj["objects"]
        linked = sorted({e["subject"] for e in edges} | {e["object"] for e in edges})
        count = min(len(linked), max(1, int(intensity * len(nodes) + 0.5)))
        sampled = rng.choice(linked, size=count, replace=False)
        keep = rng.random(count) < GRAPHN_REPLACE_RATIO
        keep[0] = True
        replacements = []
        for node in sorted(int(n) for n in sampled[keep]):
            old = nodes[node]["category"]
            new = int(rng.choice(NUM_OBJECTS, p=OBJECT_PMF))
            if new == old:
                new = (old + 1) % NUM_OBJECTS
            nodes[node]["category"] = new
            replacements.append({"node": node, "old": old, "new": new})
        touched = {r["node"] for r in replacements}
        affected = [k for k, e in enumerate(edges) if touched & {e["subject"], e["object"]}]
        perturbed.append(obj)
        records.append({"image_id": obj["image_id"], "replacements": replacements,
                        "affected_edges": affected})
    _write_jsonl(out / "perturbed.jsonl", perturbed)
    _write_jsonl(out / "records.jsonl", records)


def make_evaluate(out: Path, seed: int, n_images: int) -> None:
    """Ground truth, all-pairs predictions with boxes, predicate frequencies
    and a zero-shot triplet subset."""
    rng = _rng(seed, EVAL)
    _write_json(out / "vocab.json", vocabulary())
    gt = Graphs(rng, n_images, "ev")
    write_dataset(out / "gt.jsonl", gt)

    train_keys = Graphs(_rng(seed, FULL), FULL_TRAIN_GRAPHS, "full").triplet_keys()
    gt_keys = np.unique(gt.triplet_keys())
    zs = gt_keys[~np.isin(gt_keys, train_keys)]
    s, p, o = _unkey(zs)
    _write_json(out / "zs_triplets.json", {
        "triplets": [{"o": int(oo), "p": int(pp), "s": int(ss)} for ss, pp, oo in zip(s, p, o)]
    })
    _write_json(out / "stats.json", {"predicate_freq": PREDICATE_PMF.tolist()})

    with open(out / "predictions.jsonl", "w", encoding="utf-8") as f:
        for g in range(n_images):
            f.write(json.dumps(_prediction(rng, gt, g), separators=(",", ":")) + "\n")


def _prediction(rng: np.random.Generator, gt: Graphs, g: int) -> dict:
    n = int(gt.nodes[g])
    n0, e0 = gt.node_start[g], gt.edge_start[g]
    truth = gt.categories[n0:n0 + n]
    # Object rows: most mass on one class (the true one 70% of the time),
    # the rest spread over four others, in exact 1/1024 units.
    scores = []
    for c in truth:
        peak = c if rng.random() < 0.7 else int(rng.integers(NUM_OBJECTS))
        row = np.zeros(NUM_OBJECTS, dtype=np.int64)
        top = int(rng.integers(SCORE_UNITS // 2, SCORE_UNITS - 64))
        row[peak] = top
        others = rng.choice(NUM_OBJECTS, size=4, replace=False)
        split = rng.multinomial(SCORE_UNITS - top, [0.25] * 4)
        np.add.at(row, others, split)
        scores.append([v / SCORE_UNITS for v in row.tolist()])

    gt_pred = {}
    for s, p, o in zip(gt.subject[e0:e0 + gt.edges[g]], gt.predicate[e0:e0 + gt.edges[g]],
                       gt.object[e0:e0 + gt.edges[g]]):
        gt_pred.setdefault((int(s), int(o)), int(p))
    pairs = []
    for s in range(n):
        for o in range(n):
            if s == o:
                continue
            logits = rng.standard_normal(NUM_PREDICATES) + 2.0 * np.log(PREDICATE_PMF + 1e-12)
            if (s, o) in gt_pred and rng.random() < 0.6:
                logits[gt_pred[(s, o)]] += 4.0
            logits[0] = -np.inf
            e = np.exp(logits - logits[1:].max())
            ps = np.round(e / e.sum(), 4)
            pairs.append({"subject": s, "object": o, "predicate_scores": ps.tolist()})

    # Detection boxes: ground truth jittered by up to 10% of each side.
    boxes = []
    for x1, y1, x2, y2 in gt.box_list(g):
        dx, dy = 0.1 * (x2 - x1), 0.1 * (y2 - y1)
        j = rng.uniform(-1, 1, 4)
        nx1, ny1 = max(0.0, x1 + j[0] * dx), max(0.0, y1 + j[1] * dy)
        nx2, ny2 = max(nx1 + 1, x2 + j[2] * dx), max(ny1 + 1, y2 + j[3] * dy)
        boxes.append([round(nx1, 1), round(ny1, 1), round(nx2, 1), round(ny2, 1)])
    return {"image_id": gt.image_id(g), "object_scores": scores, "pairs": pairs, "boxes": boxes}


def make_features(out: Path, seed: int, n: int) -> None:
    """Two n x FEATURE_DIM matrices: a reference set and a shifted, wider one."""
    rng = _rng(seed, FEATURES)
    real = rng.standard_normal((n, FEATURE_DIM))
    fake = 0.2 + 1.1 * rng.standard_normal((n, FEATURE_DIM))
    for name, m in (("real.tsv", real), ("fake.tsv", fake)):
        with open(out / name, "w", encoding="utf-8") as f:
            f.write(f"{m.shape[0]} {m.shape[1]}\n")
            for row in m:
                f.write("\t".join(f"{x:.6f}" for x in row) + "\n")
