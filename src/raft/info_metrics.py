"""Mutual information, the feature-space quality score, and column distances."""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import MAX_DISCRETE_LABELS, FeatureSet, content_hash, discretize


class PairwiseDistanceKind(Enum):
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"


def as_labels(values: np.ndarray, bins: int) -> np.ndarray:
    """Integer MI labels of a vector, or of each column of a (rows x columns)
    matrix: an integer-valued column with at most ``MAX_DISCRETE_LABELS``
    distinct values is densely recoded, any other goes through ``discretize``.
    A non-finite entry raises ``ValueError`` on either path."""
    x = np.asarray(values, dtype=np.float64)
    mat = x[:, None] if x.ndim == 1 else x
    labels = np.empty(mat.shape, dtype=np.int64)
    binned = np.ones(mat.shape[1], dtype=bool)
    for j in np.flatnonzero(np.all(mat == np.floor(mat), axis=0)):
        distinct, codes = np.unique(mat[:, j], return_inverse=True)
        if np.isinf(distinct[[0, -1]]).any():  # inf == floor(inf) passes the integer test
            raise ValueError("column must be finite")
        if distinct.size <= MAX_DISCRETE_LABELS:
            labels[:, j], binned[j] = codes, False
    if binned.any():
        labels[:, binned] = discretize(mat if binned.all() else mat[:, binned], bins)
    return labels[:, 0] if x.ndim == 1 else labels


# Label entries (and joint cells) per MI batch, and (row, column) entries per
# labelling pass: the temporaries of either stay under a MiB.
_CHUNK_ENTRIES = 2 ** 14


class Labels(NamedTuple):
    """A vector's content hash, MI labels and sum of T[c] over its label counts."""
    key: bytes
    codes: np.ndarray
    xlogx: float


def _xlogx_sums(labels: np.ndarray, table: np.ndarray) -> list[float]:
    """Sum of T[c] over the label counts of each column of a (rows x columns)
    label matrix.  A column's counts are summed left to right (``np.cumsum``);
    the zero counts past its own largest label add exactly 0."""
    n = labels.shape[1]
    k = int(labels.max(initial=0)) + 1
    counts = np.bincount((labels + k * np.arange(n)).ravel(), minlength=n * k).reshape(n, k)
    return np.cumsum(table[counts], axis=1)[:, -1].tolist()


def _count_mi(pairs: Sequence[tuple[Labels, Labels]], table: np.ndarray, k: int) -> np.ndarray:
    """Plug-in MI (nats) of each pair of label vectors (labels below ``k``)
    from integer counts: MI = log m + (sum T[c] - sum T[c_x] - sum T[c_y]) / m
    over the joint and the marginal counts.  Each table is summed left to
    right (``np.cumsum``) in row-major order; the empty cells of the k x k
    joint add exactly 0, so the bits depend only on the two label vectors."""
    xs, ys = (np.array([pair[i].codes for pair in pairs]) for i in (0, 1))
    sx, sy = (np.array([pair[i].xlogx for pair in pairs]) for i in (0, 1))
    p, m = xs.shape
    cells = xs * k + ys + (np.arange(p) * (k * k))[:, None]
    joint = table[np.bincount(cells.ravel(), minlength=p * k * k)].reshape(p, k * k)
    mi = math.log(m) + (np.cumsum(joint, axis=1)[:, -1] - sx - sy) / m
    return np.where(mi > 0.0, mi, 0.0)


class MICache:
    """The run's one MI estimator at a fixed bin count.  Memoizes
    labelizations, T tables (one per row count) and pairwise MI values by
    each column's content hash, handed in as ``keys`` (a feature set's
    ``keys`` and its target's ``key``), so nothing is hashed here.
    ``labels`` takes a vector or a (rows x columns) matrix, whose new columns
    are labelled together, with the bits each would get alone.

    Single-threaded use; a concurrent caller should hold one cache per worker.
    """

    def __init__(self, bins: int) -> None:
        self.bins = bins
        self._labels: dict[bytes, Labels] = {}
        self._xlogx: dict[int, np.ndarray] = {}
        self._mi: dict[tuple[bytes, bytes], float] = {}

    def _table(self, m: int) -> np.ndarray:
        """T[c] = c*log(c) for every count c in 0..m, each log from ``math.log``
        (numpy's SIMD log differs from it in the last bit on some inputs)."""
        if m not in self._xlogx:
            self._xlogx[m] = np.array([0.0] + [c * math.log(c) for c in range(1, m + 1)])
        return self._xlogx[m]

    def labels(self, values: np.ndarray, keys: Sequence[bytes]) -> Labels | list[Labels]:
        """The ``Labels`` of a vector, or a list of them, one per column of a
        matrix; ``keys`` holds one content hash per column."""
        x = np.asarray(values, dtype=np.float64)
        if x.ndim == 1:
            return self.labels(x[:, None], keys)[0]
        todo = [j for j, key in enumerate(keys) if key not in self._labels]
        table = self._table(x.shape[0])
        step = max(1, _CHUNK_ENTRIES // x.shape[0])  # columns per labelling pass
        for start in range(0, len(todo), step):
            chunk = todo[start:start + step]
            labels = as_labels(x[:, chunk], self.bins)
            # one small array per column: a memo entry pins no chunk-sized block
            for j, codes, xlogx in zip(chunk, labels.T, _xlogx_sums(labels, table)):
                self._labels[keys[j]] = Labels(keys[j], np.ascontiguousarray(codes), xlogx)
        return [self._labels[key] for key in keys]

    def mi(self, fs: FeatureSet) -> list[float]:
        """The MI of each column of ``fs`` with its target (see ``pair_mi``)."""
        target = self.labels(fs.target.values, (fs.target.key,))
        return self.pair_mi([(col, target) for col in self.labels(fs.values, fs.keys)])

    def pair_mi(self, pairs: Sequence[tuple[Labels, Labels]]) -> list[float]:
        """MI of each pair of ``labels`` results, the unmemoized ones batched
        through ``_count_mi``.  The operand with the smaller content hash is
        the row variable, so both argument orders sum the same terms."""
        ordered = [(x, y) if x.key <= y.key else (y, x) for x, y in pairs]
        keys = [(x.key, y.key) for x, y in ordered]
        todo = [p for p, key in enumerate(keys) if key not in self._mi]
        m, k = ordered[0][0].codes.size, max(self.bins, MAX_DISCRETE_LABELS)
        step = max(1, _CHUNK_ENTRIES // max(m, k * k))
        for start in range(0, len(todo), step):
            batch = todo[start:start + step]
            values = _count_mi([ordered[p] for p in batch], self._table(m), k)
            self._mi.update(zip([keys[p] for p in batch], values.tolist()))
        return [self._mi[key] for key in keys]


def mutual_information(x: np.ndarray, y_vec: np.ndarray, bins: int) -> float:
    """Plug-in MI between two vectors (nats) at ``bins``; exactly symmetric
    in (x, y), because ``MICache.pair_mi`` orders the operands by content
    hash."""
    x = np.asarray(x, dtype=np.float64)
    y_vec = np.asarray(y_vec, dtype=np.float64)
    if x.shape != y_vec.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("inputs must be equal-length vectors with >= 2 entries")
    cache = MICache(bins)
    pair = tuple(cache.labels(v, (content_hash(v),)) for v in (x, y_vec))
    return cache.pair_mi([pair])[0]


def feature_set_quality(fs: FeatureSet, cache: MICache) -> float:
    """Relevance-minus-redundancy score of a feature space.

    Averages MI(feature, target) and subtracts the normalized sum of
    MI(f_i, f_j) over ordered distinct pairs (self-pairs excluded, |F|^2
    normalization kept).
    """
    n = fs.n_cols
    target = cache.labels(fs.target.values, (fs.target.key,))
    cols = cache.labels(fs.values, fs.keys)
    pairs = [(col, target) for col in cols]
    pairs += [(cols[i], cols[j]) for i in range(n) for j in range(i + 1, n)]
    mis = cache.pair_mi(pairs)
    # each sum strictly left to right, pairs in the order listed
    relevance, redundancy = (float(np.cumsum([0.0, *part])[-1]) for part in (mis[:n], mis[n:]))
    return -(2.0 * redundancy) / (n * n) + relevance / n


def column_distances(a: np.ndarray, others: np.ndarray, kind: PairwiseDistanceKind) -> np.ndarray:
    """Euclidean or cosine distance from column ``a`` to each row of
    ``others``, each row's value depending only on its own pair.  Euclidean
    scales each difference by its largest entry; cosine with a zero-norm
    operand is 1 (orthogonal convention)."""
    if kind is PairwiseDistanceKind.EUCLIDEAN:
        with np.errstate(over="ignore", invalid="ignore"):  # overflowed rows are set below
            diff = others - a
            scale = np.max(np.abs(diff), axis=1)
            over = ~np.isfinite(scale)
            scale[scale == 0.0] = 1.0  # identical columns: a zero difference stays zero
            diff /= scale[:, None]
            dist = scale * np.sqrt((diff * diff).sum(axis=1))
        # a true distance beyond the float64 range clamps to the max finite value;
        # one overflowed difference entry already puts a row beyond it
        dist[over] = np.finfo(np.float64).max
        return np.minimum(dist, np.finfo(np.float64).max)
    # cosine is scale-invariant: max-normalize each operand to dodge overflow
    ma = np.max(np.abs(a))
    mo = np.max(np.abs(others), axis=1)
    with np.errstate(invalid="ignore"):  # a zero operand gives NaN, replaced below
        an = a / ma
        on = others / mo[:, None]
        cos = (on * an).sum(axis=1) / (np.sqrt((an * an).sum()) * np.sqrt((on * on).sum(axis=1)))
    return np.where((mo == 0.0) | (ma == 0.0), 1.0, np.clip(1.0 - cos, 0.0, 2.0))


def pairwise_distance(f_i: np.ndarray, f_j: np.ndarray, kind: PairwiseDistanceKind) -> float:
    """Euclidean or cosine distance between two columns (``column_distances``
    on one pair)."""
    a, b = (np.asarray(v, dtype=np.float64) for v in (f_i, f_j))
    if a.shape != b.shape:
        raise ValueError("vectors must have equal length")
    return float(column_distances(a, b[None, :], kind)[0])
