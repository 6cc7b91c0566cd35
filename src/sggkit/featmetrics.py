"""Distribution metrics over feature sets: k-NN manifold precision, recall,
density and coverage, plus the Gaussian-fit Fréchet distance.

All computations are exact (no approximate neighbor index) and operate on
raw Euclidean distances; normalize features beforehand if that matters for
your data.

Distance matrices are never held whole: they are computed one block of rows
at a time, each block's difference array bounded by `BLOCK_BYTES`, so memory
grows as O((n + m) * d) plus one block rather than as n * m * d. Every
distance is the same per-pair expression (difference, square, sum over the
last axis, square root) whatever the block size, so results are exact and
do not depend on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

DEFAULT_K = 5


def _as_features(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-d array with at least one column")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x


# Bytes of one (rows, m, d) float64 difference block. At 250 x 256, 1 MiB
# blocks (which stay in a core's L2 cache) ran faster than 8 MiB ones.
BLOCK_BYTES = 1 << 20


def _row_blocks(n: int, m: int, d: int):
    """Row ranges [i0, i1) of an n x m distance matrix over d-dim points."""
    step = max(1, BLOCK_BYTES // (m * d * 8))
    for i0 in range(0, n, step):
        yield i0, min(i0 + step, n)


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Direct differences, not the Gram-matrix expansion: keeps distances
    # bitwise reproducible against a naive per-pair computation.
    diff = a[:, None, :] - b[None, :, :]
    diff *= diff
    return np.sqrt(diff.sum(axis=-1))


def knn_radii(x: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest other point."""
    x = _as_features(x, "feature set")
    n = x.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n <= k:
        raise ValueError(f"need at least k+1 = {k + 1} points, got {n}")
    radii = np.empty(n)
    for i0, i1 in _row_blocks(n, n, x.shape[1]):
        d = _pairwise_distances(x[i0:i1], x)
        d[np.arange(i1 - i0), np.arange(i0, i1)] = np.inf
        radii[i0:i1] = np.partition(d, k - 1, axis=1)[:, k - 1]
    return radii


@dataclass(frozen=True)
class PRDCResult:
    precision: float
    recall: float
    density: float
    coverage: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.precision, self.recall, self.density, self.coverage)

    @property
    def average(self) -> float:
        return sum(self.as_tuple()) / 4.0


def precision_recall_density_coverage(
    real: np.ndarray, fake: np.ndarray, k: int = DEFAULT_K
) -> PRDCResult:
    """k-NN manifold metrics of a generated set against a reference set.

    Membership tests use closed balls (distance <= radius), so comparing a
    set against itself yields precision = recall = coverage = 1.
    """
    real = _as_features(real, "real features")
    fake = _as_features(fake, "fake features")
    if real.shape[1] != fake.shape[1]:
        raise ValueError("real and fake features must share dimensionality")
    real_radii = knn_radii(real, k)
    fake_radii = knn_radii(fake, k)
    n_real, n_fake = real.shape[0], fake.shape[0]

    in_some_real_ball = np.zeros(n_fake, dtype=bool)
    real_ball_counts = np.zeros(n_fake, dtype=np.int64)
    covered = np.empty(n_real, dtype=bool)
    recalled = np.empty(n_real, dtype=bool)
    for i0, i1 in _row_blocks(n_real, n_fake, real.shape[1]):
        d = _pairwise_distances(real[i0:i1], fake)  # (block, n_fake)
        in_real_balls = d <= real_radii[i0:i1, None]
        in_some_real_ball |= in_real_balls.any(axis=0)
        real_ball_counts += in_real_balls.sum(axis=0)
        covered[i0:i1] = in_real_balls.any(axis=1)
        recalled[i0:i1] = (d <= fake_radii[None, :]).any(axis=1)

    precision = float(in_some_real_ball.mean())
    recall = float(recalled.mean())
    density = float(real_ball_counts.mean() / k)
    coverage = float(covered.mean())
    return PRDCResult(precision, recall, density, coverage)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def frechet_distance(real: np.ndarray, fake: np.ndarray) -> float:
    """Fréchet distance between Gaussians fit to the two sets.

    |mu1 - mu2|^2 + Tr(S1 + S2 - 2 (S1 S2)^{1/2}) with unbiased covariances;
    the cross term is computed through a symmetric eigendecomposition with
    negative eigenvalues clamped to zero.
    """
    real = _as_features(real, "real features")
    fake = _as_features(fake, "fake features")
    if real.shape[0] < 2 or fake.shape[0] < 2:
        raise ValueError("need at least 2 points per set to fit a Gaussian")
    if real.shape[1] != fake.shape[1]:
        raise ValueError("real and fake features must share dimensionality")
    mu1, mu2 = real.mean(axis=0), fake.mean(axis=0)
    s1 = np.atleast_2d(np.cov(real, rowvar=False))
    s2 = np.atleast_2d(np.cov(fake, rowvar=False))
    root1 = _psd_sqrt(s1)
    cross = root1 @ s2 @ root1
    cross = (cross + cross.T) / 2.0
    eigs = np.clip(np.linalg.eigvalsh(cross), 0.0, None)
    diff = mu1 - mu2
    fd = float(diff @ diff + np.trace(s1) + np.trace(s2) - 2.0 * np.sqrt(eigs).sum())
    return max(fd, 0.0)


def _display_average(metrics) -> Decimal:
    total = sum(Decimal(repr(float(m))) for m in metrics)
    return (total / 4).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


def summarize_feature_report(
    rows: dict[str, dict[str, tuple[float, float, float, float]]],
    conditions: tuple[str, str],
) -> dict:
    """Tabular report over metric quadruples with per-row averages and the
    relative drop of the average between the two conditions.

    `rows` maps a group name (e.g. "nodes") to per-condition quadruples
    (precision, recall, density, coverage). Averages are shown at two
    decimals and the drop, in percent of the first condition's average, is
    computed from those displayed values, both rounded half up.
    """
    ref, other = conditions
    out_rows = []
    drops = []
    for group, per_condition in rows.items():
        for condition in conditions:
            if condition not in per_condition:
                raise ValueError(f"group {group!r} lacks condition {condition!r}")
        averages = {}
        for condition, metrics in per_condition.items():
            if len(metrics) != 4:
                raise ValueError(f"group {group!r}: expected 4 metrics, got {len(metrics)}")
            display = _display_average(metrics)
            averages[condition] = display
            p, r, d, c = (float(m) for m in metrics)
            out_rows.append(
                {
                    "group": group,
                    "condition": condition,
                    "precision": p,
                    "recall": r,
                    "density": d,
                    "coverage": c,
                    "average": (p + r + d + c) / 4.0,
                    "average_display": float(display),
                }
            )
        drop = (
            100 * (averages[ref] - averages[other]) / averages[ref]
        ).quantize(Decimal("1"), rounding=ROUND_HALF_UP)
        drops.append(
            {"group": group, "from": ref, "to": other, "drop_percent": int(drop)}
        )
    return {"conditions": list(conditions), "rows": out_rows, "drops": drops}
