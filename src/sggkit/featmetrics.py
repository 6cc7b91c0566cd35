"""Distribution metrics over feature sets: k-NN manifold precision, recall,
density and coverage, plus the Gaussian-fit Fréchet distance.

All computations are exact (no approximate neighbor index) and operate on
raw Euclidean distances; normalize features beforehand if that matters for
your data.

Every distance is the per-pair expression of `_pairwise_distances`
(difference, square, sum over the last axis, square root), and every result
equals what that expression gives on the whole matrix, bit for bit. The
expression runs only where it decides something. Distance matrices are
never held whole: one block of rows at a time, squared distances come from
a BLAS Gram product, ‖a‖² + ‖b‖² − 2·a·bᵀ, with a per-row bound ε on how far
they can be from the per-pair sums. A radius test, or a k-th-neighbour
candidate, is decided from the Gram value when that value lies more than ε
from the threshold; the pairs inside that band are recomputed exactly. The
decisions hold for any summation order BLAS uses, so results depend neither
on the block size nor on the BLAS build or thread count. Memory grows as
O((n + m) * d) plus at most two blocks of `BLOCK_BYTES`: one of Gram
distances and one of the pairs being recomputed, however many pairs fall
inside the band.

Speed depends on that share. On features spread well beyond their common
offset, about 1% of pairs fall inside the band. Where ε outgrows the squared
distances, as with a common offset far larger than the spread (1e4 plus
noise of 1e-3), nearly every pair is recomputed and the Gram product is
extra work. Duplicate rows put every pair of copies inside the band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .model import left_sum

DEFAULT_K = 5


def _as_features(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-d array with at least one column")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x


# Bytes of the arrays that one block keeps alive at once.
BLOCK_BYTES = 1 << 20
# Bytes per pair in a row block of Gram distances: the float64 block and
# either a partitioned copy of it or up to five boolean masks.
_GRAM_ITEMSIZE = 16
# Bytes per pair recomputed exactly: twice the 64 or so of its indices,
# distance, radii and results, so that these, the rows `_exact_distances`
# gathers and the Gram block `knn_radii` keeps fit in two blocks.
_PAIR_ITEMSIZE = 128
# Bytes per coordinate of a pair recomputed exactly: its two gathered rows.
_EXACT_ITEMSIZE = 16

_U = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -1022  # smallest normal float64
_NORM_SUM_MAX = 2.0 ** 1020  # beyond it the Gram expression could overflow


def _row_blocks(n: int, *row_shape: int, itemsize: int = 8):
    """Row ranges [i0, i1) of n rows, each `row_shape` items of `itemsize`
    bytes: at most BLOCK_BYTES per range and at least one row."""
    step = max(1, BLOCK_BYTES // (math.prod(row_shape) * itemsize))
    for i0 in range(0, n, step):
        yield i0, min(i0 + step, n)


def _true_pairs(mask: np.ndarray):
    """Block-relative (i, j) of the True entries of a 2-d mask, in chunks of
    whole rows holding at most BLOCK_BYTES / _PAIR_ITEMSIZE entries, or one
    row, so that the index arrays stay within the budget however many
    entries are True."""
    ends = np.cumsum(np.count_nonzero(mask, axis=1))
    most = max(1, BLOCK_BYTES // _PAIR_ITEMSIZE)
    s0 = 0
    while s0 < ends.size:
        before = ends[s0 - 1] if s0 else 0
        s1 = max(s0 + 1, int(np.searchsorted(ends, before + most, side="right")))
        i, j = np.nonzero(mask[s0:s1])
        i += s0
        yield i, j
        s0 = s1


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Direct differences of paired rows, a[p] against b[p], squared and
    # summed in a's place: the reference expression every distance here
    # equals bit for bit. The Gram values only decide which pairs need it.
    a -= b
    a *= a
    return np.sqrt(a.sum(axis=-1))


def _exact_distances(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """`_pairwise_distances` of the index pairs (a[i[p]], b[j[p]]), a block
    of pairs at a time, gathered into two buffers that every block reuses."""
    out = np.empty(i.size)
    blocks = list(_row_blocks(i.size, a.shape[1], itemsize=_EXACT_ITEMSIZE))
    if not blocks:
        return out
    step = blocks[0][1]
    ai, bj = np.empty((step, a.shape[1])), np.empty((step, a.shape[1]))
    for p0, p1 in blocks:
        # mode "clip" lets take write straight into the buffer; every index
        # is in range.
        x = np.take(a, i[p0:p1], axis=0, out=ai[:p1 - p0], mode="clip")
        y = np.take(b, j[p0:p1], axis=0, out=bj[:p1 - p0], mode="clip")
        out[p0:p1] = _pairwise_distances(x, y)
    return out


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


# Why ε bounds the Gram error. Take one pair (a, b) of d-dim rows, u = 2**-53,
# S = ‖a‖² + ‖b‖² and the exact D = Σ (a_l − b_l)². Standard bounds (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 3) hold for any order
# of summation, blocked or not, with or without FMA: a sum of n terms errs by
# at most (n − 1)·u·Σ|terms|, a length-d dot product by d·u·Σ|a_l·b_l|, up
# to O(u²) terms.
# - The per-pair sum s (`_pairwise_distances` before its square root) rounds
#   each difference, each square and d − 1 additions of non-negative terms:
#   |s − D| ≤ (d + 2)·u·D ≤ (2d + 4)·u·S, since D ≤ 2S.
# - The Gram value G = ((−2·a·b) + ‖a‖²) + ‖b‖² errs by d·u·S through the two
#   norms, by d·u·S through the doubled dot product (Σ|a_l·b_l| ≤ S/2), and by
#   2·u·S in each of its two additions, whose results stay below 2S:
#   |G − D| ≤ (2d + 4)·u·S.
# So |G − s| ≤ (4d + 8)·u·S. ε takes twice that, with S the row's largest
# ‖a‖² + ‖b_j‖² as computed. The spare half covers the O(u²) terms, the
# rounding of ε itself and that of the tests that use it (see `_decide`),
# which cost a few u·S. A product that underflows loses at most 2**-1022,
# even when flushed to zero, and fewer than 8(d + 2) products enter one
# pair's test: hence the second term of ε. Where S could exceed 2**1020 an
# intermediate could overflow, so ε is inf there: the whole row is exact, and
# wherever ε is finite, G is too.
@np.errstate(over="ignore", invalid="ignore")
def _gram(a: np.ndarray, b: np.ndarray, a_sq: np.ndarray, b_sq: np.ndarray):
    """Gram squared distances G (rows of a by rows of b) and each row's ε,
    with |G[i, j] − s[i, j]| <= ε[i] / 2 for the per-pair sum s."""
    g = a @ b.T
    g *= -2.0
    g += a_sq[:, None]
    g += b_sq
    norm_sum = a_sq + b_sq.max()
    eps = (8 * a.shape[1] + 16) * (_U * norm_sum + _TINY)
    eps[~(norm_sum <= _NORM_SUM_MAX)] = np.inf
    return g, eps


@np.errstate(invalid="ignore")
def _decide(g: np.ndarray, r: np.ndarray, eps):
    """(inside, unsure) for the test sqrt(s) <= r over a Gram block, with r
    and ε vectors or scalars broadcast against it: `inside` is the answer
    wherever `unsure` is False.

    With |G − s| <= ε/2, G <= r²(1 − 4u) − ε gives s <= r², and
    G > r²(1 + 4u) + ε gives s > (r + ulp(r)/2)², so the rounded square root
    is <= r or > r: 4u absorbs the roundings of r·r and of its scaling, and
    the threshold's own rounding, at most u·(r² + ε), comes out of 4u and
    ε's spare half, as does the half ulp, at most u·r² < 2u·S. Any NaN fails
    both tests and is unsure; rows whose ε is not finite are left for the
    caller to mark unsure throughout.
    """
    r2 = r * r
    inside = g <= r2 * (1 - 4 * _U) - eps
    unsure = g > r2 * (1 + 4 * _U) + eps
    unsure |= inside
    np.logical_not(unsure, out=unsure)
    return inside, unsure


def knn_radii(x: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest other point."""
    x = _as_features(x, "feature set")
    n = x.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n <= k:
        raise ValueError(f"need at least k+1 = {k + 1} points, got {n}")
    sq = _sq_norms(x)
    radii = np.empty(n)
    for i0, i1 in _row_blocks(n, n, itemsize=_GRAM_ITEMSIZE):
        g, eps = _gram(x[i0:i1], x, sq[i0:i1], sq)
        rows = np.arange(i1 - i0)
        g[rows, rows + i0] = np.inf
        # With t the k-th smallest G of a row, the k nearest j all have
        # G <= t + ε: k points have s <= t + ε/2, so the k-th smallest s is
        # at most that, and G <= s + ε/2 for each. t + 2ε leaves room for
        # rounding; the exact distances of the candidates give the radius.
        t = np.partition(g, k - 1, axis=1)[:, k - 1].copy()
        candidate = g <= (t + 2 * eps)[:, None]
        candidate[~np.isfinite(eps)] = True
        candidate[rows, rows + i0] = False
        g.fill(np.inf)
        for i, j in _true_pairs(candidate):
            g[i, j] = _exact_distances(x, x, i + i0, j)
        g.partition(k - 1, axis=1)
        radii[i0:i1] = g[:, k - 1]
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
        return left_sum(self.as_tuple()) / 4.0


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
    real_sq, fake_sq = _sq_norms(real), _sq_norms(fake)
    for i0, i1 in _row_blocks(n_real, n_fake, itemsize=_GRAM_ITEMSIZE):
        g, eps = _gram(real[i0:i1], fake, real_sq[i0:i1], fake_sq)
        in_real_balls, unsure = _decide(g, real_radii[i0:i1, None], eps[:, None])
        # The fake radii vary by column and ε by row; the block's largest ε
        # bounds every row's, so the thresholds stay one vector.
        in_fake_balls, unsure_fake = _decide(g, fake_radii, eps.max())
        del g  # only the masks stay while the band is resolved
        unsure |= unsure_fake
        unsure[~np.isfinite(eps)] = True
        for i, j in _true_pairs(unsure):
            rows = i + i0
            d = _exact_distances(real, fake, rows, j)
            in_real_balls[i, j] = d <= real_radii[rows]
            in_fake_balls[i, j] = d <= fake_radii[j]
        in_some_real_ball |= in_real_balls.any(axis=0)
        real_ball_counts += in_real_balls.sum(axis=0)
        covered[i0:i1] = in_real_balls.any(axis=1)
        recalled[i0:i1] = in_fake_balls.any(axis=1)

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
