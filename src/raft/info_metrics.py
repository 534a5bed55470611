"""Mutual information, the feature-space quality score, and column distances."""

from __future__ import annotations

import hashlib
import math
from enum import Enum

import numpy as np

from .dataset import MAX_DISCRETE_LABELS, FeatureSet, default_bins, discretize


class PairwiseDistanceKind(Enum):
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"


def content_hash(arr: np.ndarray) -> bytes:
    """Stable 128-bit digest of an array's raw bytes."""
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


def _is_discrete(v: np.ndarray) -> bool:
    return bool(np.all(v == np.floor(v))) and np.unique(v).size <= MAX_DISCRETE_LABELS


def as_labels(v: np.ndarray, bins: int) -> np.ndarray:
    """Integer labels for MI: discrete vectors keep their values (densely
    recoded), continuous ones go through equal-frequency binning."""
    v = np.asarray(v, dtype=np.float64)
    if _is_discrete(v):
        _, codes = np.unique(v, return_inverse=True)
        return codes.astype(np.int64)
    return discretize(v, bins)


def _plugin_mi(lx: np.ndarray, ly: np.ndarray) -> float:
    """Maximum-likelihood MI (nats) from the joint label histogram.

    The positive cells are taken in row-major order, each ratio's log is
    ``math.log``'s, and the terms are summed strictly left to right
    (``np.cumsum``).  numpy's SIMD log differs from ``math.log`` in the last
    bit on some inputs, and ``np.sum`` adds pairwise, so either would change
    the result's bits.
    """
    n = lx.size
    kx = int(lx.max()) + 1
    ky = int(ly.max()) + 1
    joint = np.bincount(lx * ky + ly, minlength=kx * ky).reshape(kx, ky) / n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    i, j = np.nonzero(joint)
    p = joint[i, j]
    logs = [math.log(r) for r in (p / (px[i] * py[j])).tolist()]
    mi = float(np.cumsum(p * logs)[-1])
    return mi if mi > 0.0 else 0.0


class MICache:
    """Memoizes labelizations and pairwise MI values by content hash.

    Single-threaded use; a concurrent caller should hold one cache per worker.
    """

    def __init__(self) -> None:
        self._labels: dict[tuple[bytes, int], np.ndarray] = {}
        self._mi: dict[tuple[bytes, bytes, int], float] = {}

    def labels(self, v: np.ndarray, bins: int) -> tuple[bytes, np.ndarray]:
        h = content_hash(np.asarray(v, dtype=np.float64))
        key = (h, bins)
        if key not in self._labels:
            self._labels[key] = as_labels(v, bins)
        return h, self._labels[key]

    def mi(self, x: np.ndarray, y: np.ndarray, bins: int) -> float:
        """MI of two vectors (see ``labelled_mi``)."""
        return self.labelled_mi(self.labels(x, bins), self.labels(y, bins), bins)

    def labelled_mi(self, x: tuple[bytes, np.ndarray], y: tuple[bytes, np.ndarray],
                    bins: int) -> float:
        """MI of two ``labels`` results; the operand with the smaller content
        hash is the row variable, so both argument orders sum the same terms."""
        (hx, lx), (hy, ly) = (x, y) if x[0] <= y[0] else (y, x)
        key = (hx, hy, bins)
        if key not in self._mi:
            self._mi[key] = _plugin_mi(lx, ly)
        return self._mi[key]


def mutual_information(
    x: np.ndarray, y_vec: np.ndarray, bins: int, cache: MICache | None = None
) -> float:
    """Plug-in MI between two vectors (nats); exactly symmetric in (x, y),
    because ``MICache.mi`` orders the operands by content hash."""
    x = np.asarray(x, dtype=np.float64)
    y_vec = np.asarray(y_vec, dtype=np.float64)
    if x.shape != y_vec.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("inputs must be equal-length vectors with >= 2 entries")
    return (MICache() if cache is None else cache).mi(x, y_vec, bins)


def feature_set_quality(
    fs: FeatureSet, bins: int | None = None, cache: MICache | None = None
) -> float:
    """Relevance-minus-redundancy score of a feature space.

    Averages MI(feature, target) and subtracts the normalized sum of
    MI(f_i, f_j) over ordered distinct pairs (self-pairs excluded, |F|^2
    normalization kept).
    """
    bins = default_bins(fs.n_rows) if bins is None else bins
    cache = MICache() if cache is None else cache
    n = fs.n_cols
    target = cache.labels(fs.target.values, bins)
    cols = [cache.labels(fs.column(i), bins) for i in range(n)]
    relevance = 0.0
    for col in cols:
        relevance += cache.labelled_mi(col, target, bins)
    redundancy = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            redundancy += cache.labelled_mi(cols[i], cols[j], bins)
    return -(2.0 * redundancy) / (n * n) + relevance / n


def pairwise_distance(f_i: np.ndarray, f_j: np.ndarray, kind: PairwiseDistanceKind) -> float:
    """Euclidean or cosine distance between two columns.

    Euclidean is computed with overflow-safe scaling; cosine with a zero-norm
    operand is defined as 1 (orthogonal convention).
    """
    a = np.asarray(f_i, dtype=np.float64)
    b = np.asarray(f_j, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("vectors must have equal length")
    if kind is PairwiseDistanceKind.EUCLIDEAN:
        with np.errstate(over="ignore"):
            diff = a - b
        if not np.all(np.isfinite(diff)):
            # the subtraction itself overflowed; difference the rescaled operands
            scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
            diff = a / scale - b / scale
        else:
            scale = float(np.max(np.abs(diff)))
            if scale == 0.0:
                return 0.0
            diff = diff / scale
        with np.errstate(over="ignore"):
            dist = scale * math.sqrt(float(np.dot(diff, diff)))
        # a true distance beyond the float64 range clamps to the max finite value
        return float(min(dist, np.finfo(np.float64).max))
    # cosine is scale-invariant: max-normalize each operand to dodge overflow
    ma = float(np.max(np.abs(a)))
    mb = float(np.max(np.abs(b)))
    if ma == 0.0 or mb == 0.0:
        return 1.0
    an = a / ma
    bn = b / mb
    cos = float(np.dot(an, bn)) / (
        math.sqrt(float(np.dot(an, an))) * math.sqrt(float(np.dot(bn, bn)))
    )
    return float(np.clip(1.0 - cos, 0.0, 2.0))
