from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sggkit import featmetrics
from sggkit.featmetrics import (
    frechet_distance,
    knn_radii,
    precision_recall_density_coverage,
    summarize_feature_report,
)


def naive_distance(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def naive_radii(points, k):
    radii = []
    for i, p in enumerate(points):
        dists = sorted(naive_distance(p, q) for j, q in enumerate(points) if j != i)
        radii.append(dists[k - 1])
    return radii


def naive_prdc(real, fake, k):
    r_radii = naive_radii(real, k)
    f_radii = naive_radii(fake, k)
    precision = sum(
        any(naive_distance(r, f) <= r_radii[i] for i, r in enumerate(real)) for f in fake
    ) / len(fake)
    recall = sum(
        any(naive_distance(f, r) <= f_radii[j] for j, f in enumerate(fake)) for r in real
    ) / len(real)
    density = sum(
        sum(naive_distance(r, f) <= r_radii[i] for i, r in enumerate(real)) for f in fake
    ) / (k * len(fake))
    coverage = sum(
        any(naive_distance(r, f) <= r_radii[i] for f in fake) for i, r in enumerate(real)
    ) / len(real)
    return precision, recall, density, coverage


# The whole-matrix broadcast the row-blocked code replaced, kept as an exact
# oracle: every output must equal it bit for bit, whatever the block size.
def broadcast_distances(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def broadcast_radii(x, k):
    d = broadcast_distances(x, x)
    np.fill_diagonal(d, np.inf)
    return np.partition(d, k - 1, axis=1)[:, k - 1]


def broadcast_prdc(real, fake, k):
    real_radii = broadcast_radii(real, k)
    fake_radii = broadcast_radii(fake, k)
    d = broadcast_distances(real, fake)
    in_real_balls = d <= real_radii[:, None]
    precision = float(in_real_balls.any(axis=0).mean())
    recall = float((d <= fake_radii[None, :]).any(axis=1).mean())
    density = float(in_real_balls.sum(axis=0).mean() / k)
    coverage = float(in_real_balls.any(axis=1).mean())
    return precision, recall, density, coverage


def feature_sets(n_real, n_fake, d, seed):
    """Two overlapping sets; each holds 6 copies of one shared point, so
    radii of 0 (k <= 5) and distances of exactly 0 both occur."""
    rng = np.random.default_rng(seed)
    real = rng.normal(size=(n_real, d))
    fake = rng.normal(size=(n_fake, d)) + rng.normal(scale=0.3)
    shared = rng.normal(size=d)
    real[-6:] = shared
    fake[:6] = shared
    return real, fake


# (n_real, n_fake, d, k): m != n, d up to 300, and n = k + 1
BLOCK_CASES = [(23, 17, 300, 5), (41, 29, 64, 3), (6, 35, 7, 5), (30, 6, 2, 5), (50, 50, 9, 1)]


def rows_budget(rows, m, d):
    """A block budget that makes an n x m distance matrix over d dims take
    `rows` rows per block: 1, a non-divisor of n, or all n."""
    return rows * m * d * 8


def non_divisor(n):
    return next(r for r in range(2, n) if n % r) if n > 2 else 1


class TestRowBlocksExact:
    @pytest.mark.parametrize("case", BLOCK_CASES)
    @pytest.mark.parametrize("rows", ["one", "non-divisor", "all"])
    def test_radii_equal_broadcast(self, monkeypatch, case, rows):
        n_real, n_fake, d, k = case
        for x in feature_sets(n_real, n_fake, d, seed=n_real * d):
            n = x.shape[0]
            r = {"one": 1, "non-divisor": non_divisor(n), "all": n}[rows]
            monkeypatch.setattr(featmetrics, "BLOCK_BYTES", rows_budget(r, n, d))
            assert list(featmetrics._row_blocks(n, n, d))[0] == (0, r)
            np.testing.assert_array_equal(knn_radii(x, k), broadcast_radii(x, k))

    @pytest.mark.parametrize("case", BLOCK_CASES)
    @pytest.mark.parametrize("rows", ["one", "non-divisor", "all"])
    def test_prdc_equals_broadcast(self, monkeypatch, case, rows):
        n_real, n_fake, d, k = case
        real, fake = feature_sets(n_real, n_fake, d, seed=n_fake * d)
        r = {"one": 1, "non-divisor": non_divisor(n_real), "all": n_real}[rows]
        monkeypatch.setattr(featmetrics, "BLOCK_BYTES", rows_budget(r, n_fake, d))
        assert list(featmetrics._row_blocks(n_real, n_fake, d))[0] == (0, r)
        result = precision_recall_density_coverage(real, fake, k)
        assert result.as_tuple() == broadcast_prdc(real, fake, k)

    def test_zero_radii_and_exact_hits_occur(self):
        real, fake = feature_sets(23, 17, 300, seed=0)
        assert (knn_radii(real, 5)[-6:] == 0.0).all()
        assert precision_recall_density_coverage(real, fake, 5).precision >= 6 / 17

    def test_default_budget_equals_broadcast_at_bench_size(self):
        real, fake = feature_sets(250, 250, 256, seed=1)
        result = precision_recall_density_coverage(real, fake, 5)
        assert result.as_tuple() == broadcast_prdc(real, fake, 5)


class TestGramBlocks:
    """The Gram passes themselves run in blocks of 1 row, a non-divisor of n
    and all n rows, and still equal the broadcast."""

    @staticmethod
    def record_block_rows(monkeypatch, rows_of, against):
        """Row counts of the Gram blocks of rows of `rows_of` against `against`."""
        seen = []
        gram = featmetrics._gram

        def recording(a, b, a_sq, b_sq):
            if a.base is rows_of and b is against:
                seen.append(a.shape[0])
            return gram(a, b, a_sq, b_sq)

        monkeypatch.setattr(featmetrics, "_gram", recording)
        return seen

    @pytest.mark.parametrize("case", BLOCK_CASES)
    @pytest.mark.parametrize("rows", ["one", "non-divisor", "all"])
    def test_radii_equal_broadcast(self, monkeypatch, case, rows):
        n_real, n_fake, d, k = case
        for x in feature_sets(n_real, n_fake, d, seed=n_real * d):
            n = x.shape[0]
            r = {"one": 1, "non-divisor": non_divisor(n), "all": n}[rows]
            monkeypatch.setattr(featmetrics, "BLOCK_BYTES", r * n * featmetrics._GRAM_ITEMSIZE)
            seen = self.record_block_rows(monkeypatch, x, x)
            np.testing.assert_array_equal(knn_radii(x, k), broadcast_radii(x, k))
            assert (seen[0], max(seen), sum(seen)) == (r, r, n)

    @pytest.mark.parametrize("case", BLOCK_CASES)
    @pytest.mark.parametrize("rows", ["one", "non-divisor", "all"])
    def test_prdc_equals_broadcast(self, monkeypatch, case, rows):
        n_real, n_fake, d, k = case
        real, fake = feature_sets(n_real, n_fake, d, seed=n_fake * d)
        r = {"one": 1, "non-divisor": non_divisor(n_real), "all": n_real}[rows]
        monkeypatch.setattr(featmetrics, "BLOCK_BYTES", r * n_fake * featmetrics._GRAM_ITEMSIZE)
        seen = self.record_block_rows(monkeypatch, real, fake)
        result = precision_recall_density_coverage(real, fake, k)
        assert result.as_tuple() == broadcast_prdc(real, fake, k)
        assert (seen[0], max(seen), sum(seen)) == (r, r, n_real)


def test_prdc_memory_is_bounded_by_blocks():
    # The broadcast needs 1000 x 1000 x 64 float64s (512 MB) per matrix; even
    # one whole 1000 x 1000 distance matrix (7.6 MiB) would break this bound.
    rng = np.random.default_rng(12)
    real, fake = rng.normal(size=(1000, 64)), rng.normal(size=(1000, 64))
    tracemalloc.start()
    try:
        precision_recall_density_coverage(real, fake, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < featmetrics.BLOCK_BYTES + 2 * 2**20


# Sets on which the Gram values decide badly. At an offset like 1000.1 the
# coordinates are fl(1000.1) + j/8 exactly, so every difference, square and
# per-pair sum is exact, while the Gram expansion rounds; equal distances, and
# so points exactly on a radius, are common.
OFFSET = 1000.1


def offset_quantised(n, d, seed, levels=5):
    rng = np.random.default_rng(seed)
    return OFFSET + rng.integers(0, levels, size=(n, d)) / 8


def duplicated(n, d, seed, distinct=4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(distinct, d))[rng.integers(0, distinct, size=n)]


def offset_noise(n, d, seed):
    """Noise of 1e-3 on an offset of 1e4: ε outgrows the squared distances,
    so nearly every pair falls inside the band."""
    rng = np.random.default_rng(seed)
    return 1e4 + 1e-3 * rng.normal(size=(n, d))


def on_a_radius():
    """k = 1: the radius of the real point 0 is 5, and each fake point lies at
    distance exactly 5 from it (3-4-5 triangles)."""
    real = OFFSET + np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [-4.0, 3.0]])
    fake = OFFSET + np.array([[5.0, 0.0], [0.0, -5.0], [-3.0, -4.0], [4.0, -3.0], [9.0, 12.0]])
    return real, fake


def assert_equals_broadcast(real, fake, k):
    for x in (real, fake):
        np.testing.assert_array_equal(knn_radii(x, k), broadcast_radii(x, k))
    assert precision_recall_density_coverage(real, fake, k).as_tuple() == broadcast_prdc(
        real, fake, k)


ADVERSARIAL = {
    "offset-quantised-d1": lambda: (offset_quantised(40, 1, 1), offset_quantised(30, 1, 2)),
    "offset-quantised-d3": lambda: (offset_quantised(40, 3, 3), offset_quantised(30, 3, 4)),
    "offset-quantised-d16": lambda: (offset_quantised(30, 16, 5, levels=2),
                                     offset_quantised(25, 16, 6, levels=2)),
    "duplicates": lambda: (duplicated(30, 8, 7), duplicated(20, 8, 8)),
    "offset-duplicates": lambda: (OFFSET + duplicated(30, 8, 9), OFFSET + duplicated(20, 8, 10)),
    "offset-noise": lambda: (offset_noise(30, 8, 11), offset_noise(20, 8, 12)),
    "on-a-radius": on_a_radius,
}


class TestGramBand:
    """The Gram values may only decide what the exact expression would."""

    @pytest.mark.parametrize("name", ADVERSARIAL)
    @pytest.mark.parametrize("k", [1, 3])
    def test_adversarial_sets_equal_broadcast(self, name, k):
        assert_equals_broadcast(*ADVERSARIAL[name](), k)

    @pytest.mark.parametrize("name", ["offset-quantised-d3", "duplicates", "on-a-radius"])
    def test_one_row_and_one_pair_blocks(self, monkeypatch, name):
        monkeypatch.setattr(featmetrics, "BLOCK_BYTES", 1)
        assert_equals_broadcast(*ADVERSARIAL[name](), 2)

    def test_on_a_radius_is_on_the_radius(self):
        real, fake = on_a_radius()
        assert knn_radii(real, 1)[0] == 5.0
        assert (broadcast_distances(real[:1], fake)[0, :4] == 5.0).all()

    @pytest.mark.parametrize("name", [n for n in ADVERSARIAL if n.startswith("offset-quantised")])
    def test_ties_on_a_radius_are_common(self, name):
        real, fake = ADVERSARIAL[name]()
        radii = broadcast_radii(real, 3)
        d = broadcast_distances(real, real)
        np.fill_diagonal(d, np.inf)
        assert ((d == radii[:, None]).sum(axis=1) > 1).mean() > 0.5
        assert (broadcast_distances(real, fake) == radii[:, None]).any()

    # 1e155: the squared norms overflow; 9.4e153: they do not, but their sum
    # exceeds the guard's limit; 1e150: Gram values are finite and far off.
    @pytest.mark.parametrize("scale", [1e155, 9.4e153, 1e150])
    @pytest.mark.filterwarnings("ignore:overflow encountered")  # distances of mixed rows
    def test_large_norms(self, scale):
        x = np.array([[scale, 0.0], [scale, 1.0], [scale, 3.0]])
        np.testing.assert_array_equal(knn_radii(x, 1), [1.0, 1.0, 2.0])
        assert precision_recall_density_coverage(x, x, 1).as_tuple() == (1.0, 1.0, 2.0, 1.0)
        mixed = np.vstack([x, [[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]]])
        assert_equals_broadcast(mixed, x[::-1], 1)

    def test_exact_expression_sees_few_pairs(self, monkeypatch):
        real, fake = feature_sets(250, 250, 256, seed=1)
        seen = []
        exact = featmetrics._pairwise_distances

        def counting(a, b):
            out = exact(a, b)
            seen.append(out.size)
            return out

        monkeypatch.setattr(featmetrics, "_pairwise_distances", counting)
        result = precision_recall_density_coverage(real, fake, 5)
        assert result.as_tuple() == broadcast_prdc(real, fake, 5)
        assert 0 < sum(seen) < 0.05 * (250 * 250 * 3)


@pytest.mark.parametrize("make, share", [(duplicated, 0.1), (offset_noise, 0.9)])
def test_prdc_memory_is_bounded_when_most_pairs_are_exact(monkeypatch, make, share):
    # However many pairs fall inside the band, their indices and gathered
    # rows are held a budget's worth at a time.
    real, fake = make(1000, 64, 13), make(1000, 64, 14)
    seen = []
    exact = featmetrics._pairwise_distances

    def counting(a, b):
        out = exact(a, b)
        seen.append(out.size)
        return out

    monkeypatch.setattr(featmetrics, "_pairwise_distances", counting)
    tracemalloc.start()
    try:
        precision_recall_density_coverage(real, fake, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(seen) > share * 3 * 1000 * 1000
    assert peak < featmetrics.BLOCK_BYTES + 2 * 2**20


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quantised_sets_equal_broadcast(data):
    d = data.draw(st.integers(1, 4), label="d")
    k = data.draw(st.integers(1, 4), label="k")
    offset = data.draw(st.sampled_from([0.0, OFFSET, -3e7]), label="offset")
    rows = st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                    min_size=k + 1, max_size=12)
    real = offset + np.array(data.draw(rows, label="real"), dtype=float) / 8
    fake = offset + np.array(data.draw(rows, label="fake"), dtype=float) / 8
    assert_equals_broadcast(real, fake, k)


def write_tsv(path, x):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{x.shape[0]} {x.shape[1]}\n")
        for row in x:
            f.write("\t".join(repr(v) for v in row.tolist()) + "\n")


def test_prdc_report_does_not_depend_on_blas_threads(tmp_path):
    # The Gram values differ with the BLAS thread count; the decisions taken
    # from them may not. The Fréchet distance is left out: the LAPACK
    # eigendecomposition it rests on changes in its last digits with the
    # thread count (143.01733572539086 with one thread and 143.0173356895126
    # with two, on these sets).
    real, fake = feature_sets(250, 250, 256, seed=1)
    write_tsv(tmp_path / "real.tsv", real)
    write_tsv(tmp_path / "fake.tsv", fake)
    src = os.path.dirname(os.path.dirname(featmetrics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("OPENBLAS_NUM_THREADS", None)
    reports = []
    for threads in (None, "1"):
        out = tmp_path / f"feat-{threads}.json"
        run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "sggkit.cli", "feat-metrics",
                        "--real", tmp_path / "real.tsv", "--fake", tmp_path / "fake.tsv",
                        "-k", "5", "--out", out], env=run_env, check=True, capture_output=True)
        reports.append(json.loads(out.read_text()))
    for report in reports:
        del report["frechet_distance"]
    assert reports[0] == reports[1]
    prdc = tuple(reports[0][m] for m in ("precision", "recall", "density", "coverage"))
    assert prdc == broadcast_prdc(real, fake, 5)


class TestKnnRadii:
    def test_collinear_points(self):
        x = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_array_equal(knn_radii(x, 1), [1.0, 1.0, 2.0])

    def test_duplicates_give_zero_radius(self):
        x = np.array([[2.0, 2.0], [2.0, 2.0], [5.0, 5.0]])
        radii = knn_radii(x, 1)
        assert radii[0] == radii[1] == 0.0

    def test_k_is_max_distance_when_all_others(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        radii = knn_radii(x, 5)
        for i in range(6):
            expected = max(naive_distance(x[i], x[j]) for j in range(6) if j != i)
            assert radii[i] == pytest.approx(expected, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="k\\+1"):
            knn_radii(np.zeros((3, 2)), 3)


class TestPrdc:
    def test_identity_case(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 4))
        result = precision_recall_density_coverage(x, x, k=5)
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.coverage == 1.0
        assert result.density >= 1.0
        # in general position each point falls into exactly k+1 balls
        assert result.density == pytest.approx((5 + 1) / 5)

    def test_far_away_fake_scores_zero(self):
        rng = np.random.default_rng(3)
        real = rng.normal(size=(30, 3))
        fake = rng.normal(size=(30, 3)) + 1000.0
        result = precision_recall_density_coverage(real, fake, k=3)
        assert result.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n_real = int(rng.integers(8, 50))
            n_fake = int(rng.integers(8, 50))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            real = rng.normal(size=(n_real, d))
            fake = rng.normal(size=(n_fake, d)) + rng.normal(scale=0.5)
            result = precision_recall_density_coverage(real, fake, k)
            expected = naive_prdc(real.tolist(), fake.tolist(), k)
            for got, want in zip(result.as_tuple(), expected):
                assert abs(got - want) <= 1e-12

    def test_isometry_invariance(self):
        rng = np.random.default_rng(5)
        real = rng.normal(size=(25, 3))
        fake = rng.normal(size=(20, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(size=3)
        base = precision_recall_density_coverage(real, fake, 4)
        moved = precision_recall_density_coverage(real @ q + shift, fake @ q + shift, 4)
        for got, want in zip(moved.as_tuple(), base.as_tuple()):
            assert got == pytest.approx(want, abs=1e-9)

    def test_ranges(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            real = rng.normal(size=(15, 2))
            fake = rng.normal(size=(15, 2), scale=rng.uniform(0.1, 3))
            r = precision_recall_density_coverage(real, fake, 2)
            assert 0 <= r.precision <= 1
            assert 0 <= r.recall <= 1
            assert 0 <= r.coverage <= 1
            assert r.density >= 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensionality"):
            precision_recall_density_coverage(np.zeros((9, 2)), np.zeros((9, 3)), 1)


class TestFrechetDistance:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 4))
        assert frechet_distance(x, x) <= 1e-8

    def test_point_masses(self):
        a = np.array([[0.0], [0.0]])
        b = np.array([[3.0], [3.0]])
        assert frechet_distance(a, b) == pytest.approx(9.0, abs=1e-12)

    def test_translated_copy(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 4))
        v = np.array([1.0, -2.0, 0.5, 3.0])
        fd = frechet_distance(x, x + v)
        assert fd == pytest.approx(float(v @ v), abs=1e-6)

    def test_symmetry_and_mean_lower_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(30, 3))
            b = rng.normal(size=(25, 3), scale=rng.uniform(0.5, 2))
            fd_ab = frechet_distance(a, b)
            fd_ba = frechet_distance(b, a)
            assert fd_ab == pytest.approx(fd_ba, abs=1e-8)
            mean_gap = a.mean(axis=0) - b.mean(axis=0)
            assert fd_ab >= float(mean_gap @ mean_gap) - 1e-9

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            frechet_distance(np.zeros((1, 2)), np.zeros((5, 2)))


class TestSummarizeReport:
    # published GT/GAN quadruples for the six group/condition pairs and the
    # displayed average + relative drop each is expected to reproduce
    FIXTURE = {
        "nodes_gt": ((0.74, 0.75, 1.02, 0.97), (0.66, 0.70, 0.99, 0.94), 0.87, 0.82, 6),
        "edges_gt": ((0.73, 0.72, 0.97, 0.97), (0.53, 0.59, 0.99, 0.87), 0.85, 0.75, 12),
        "global_gt": ((0.30, 0.31, 0.96, 0.99), (0.20, 0.35, 0.73, 0.91), 0.64, 0.55, 14),
        "nodes_gan": ((0.55, 0.42, 0.77, 0.82), (0.47, 0.41, 0.60, 0.75), 0.64, 0.56, 13),
        "edges_gan": ((0.54, 0.50, 0.59, 0.75), (0.38, 0.50, 0.36, 0.58), 0.60, 0.46, 23),
        "global_gan": ((0.14, 0.22, 0.43, 0.83), (0.11, 0.29, 0.23, 0.68), 0.41, 0.33, 20),
    }

    def test_reference_quadruples(self):
        rows = {
            group: {"test": a, "test-zs": b}
            for group, (a, b, *_) in self.FIXTURE.items()
        }
        report = summarize_feature_report(rows, ("test", "test-zs"))
        averages = {
            (r["group"], r["condition"]): r["average_display"] for r in report["rows"]
        }
        drops = {d["group"]: d["drop_percent"] for d in report["drops"]}
        for group, (_, _, avg_a, avg_b, drop) in self.FIXTURE.items():
            assert averages[(group, "test")] == avg_a
            assert averages[(group, "test-zs")] == avg_b
            assert drops[group] == drop

    def test_identical_conditions_drop_zero(self):
        rows = {"nodes": {"a": (0.5, 0.5, 1.0, 1.0), "b": (0.5, 0.5, 1.0, 1.0)}}
        report = summarize_feature_report(rows, ("a", "b"))
        assert report["drops"][0]["drop_percent"] == 0

    def test_missing_condition_rejected(self):
        with pytest.raises(ValueError, match="lacks condition"):
            summarize_feature_report({"nodes": {"a": (1, 1, 1, 1)}}, ("a", "b"))
