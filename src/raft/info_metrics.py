"""Mutual information, the feature-space quality score, and Euclidean column distances."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import MAX_DISCRETE_LABELS, FeatureSet, Target, discretize


def as_labels(mat: np.ndarray, bins: int) -> np.ndarray:
    """Integer MI labels of each column of a finite (rows x columns) float64
    matrix: an integer-valued column with at most ``MAX_DISCRETE_LABELS``
    distinct values is densely recoded, any other goes through ``discretize``."""
    labels = np.empty(mat.shape, dtype=np.int64)
    binned = np.ones(mat.shape[1], dtype=bool)
    for j in np.flatnonzero(np.all(mat == np.floor(mat), axis=0)):
        distinct, codes = np.unique(mat[:, j], return_inverse=True)
        if distinct.size <= MAX_DISCRETE_LABELS:
            labels[:, j], binned[j] = codes, False
    if binned.any():
        labels[:, binned] = discretize(mat if binned.all() else mat[:, binned], bins)
    return labels


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


def _count_mi(pairs: Sequence[tuple[Labels, Labels]], table: np.ndarray,
              n_labels: int) -> np.ndarray:
    """Plug-in MI (nats) of each pair of label vectors (labels below
    ``n_labels``) from integer counts: MI = log m + (sum T[c] - sum T[c_x] -
    sum T[c_y]) / m over the joint and the marginal counts.  Each table is
    summed left to right (``np.cumsum``) in row-major order; the empty cells
    of the n_labels x n_labels joint add exactly 0, so the bits depend only
    on the two label vectors."""
    xs, ys = (np.array([pair[i].codes for pair in pairs]) for i in (0, 1))
    sx, sy = (np.array([pair[i].xlogx for pair in pairs]) for i in (0, 1))
    p, m = xs.shape
    # the stored codes are narrow: widen before any product, so no cell index wraps
    cells = xs.astype(np.intp) * n_labels + ys + (np.arange(p) * n_labels ** 2)[:, None]
    joint = table[np.bincount(cells.ravel(), minlength=p * n_labels ** 2)].reshape(p, -1)
    mi = math.log(m) + (np.cumsum(joint, axis=1)[:, -1] - sx - sy) / m
    return np.where(mi > 0.0, mi, 0.0)


class MICache:
    """The run's one MI estimator at a fixed bin count.  Memoizes
    labelizations, T tables (one per row count) and pairwise MI values by
    each column's content hash, handed in as ``keys`` (a feature set's
    ``keys`` and its target's ``key``), so nothing is hashed here.
    ``labels`` and ``mi`` take one form of input, a sequence of column
    vectors: ``fs.values.T``, a list, or ``[target.values]``.  New columns
    are labelled together, a pass at a time, with the bits each would get
    alone.  Codes are stored at the narrowest
    unsigned dtype for labels below ``max(bins, MAX_DISCRETE_LABELS)``:
    uint8 up to 256 bins.  Nothing is evicted.

    Single-threaded use; a concurrent caller should hold one cache per worker.
    """

    def __init__(self, bins: int) -> None:
        self.bins = bins
        self._k = max(bins, MAX_DISCRETE_LABELS)  # labels lie in [0, k)
        self._codes_dtype = np.min_scalar_type(self._k - 1)
        self._labels: dict[bytes, Labels] = {}
        self._xlogx: dict[int, np.ndarray] = {}
        self._mi: dict[tuple[bytes, bytes], float] = {}

    def _table(self, m: int) -> np.ndarray:
        """T[c] = c*log(c) for every count c in 0..m, each log from ``math.log``
        (numpy's SIMD log differs from it in the last bit on some inputs)."""
        if m not in self._xlogx:
            self._xlogx[m] = np.array([0.0] + [c * math.log(c) for c in range(1, m + 1)])
        return self._xlogx[m]

    def labels(self, columns: Sequence[np.ndarray], keys: Sequence[bytes]) -> list[Labels]:
        """The ``Labels`` of each column; ``keys`` holds one content hash per
        column.  Only one labelling pass's columns are stacked at a time."""
        todo = [j for j, key in enumerate(keys) if key not in self._labels]
        m = len(columns[0])
        table, step = self._table(m), max(1, _CHUNK_ENTRIES // m)  # step: columns per pass
        for start in range(0, len(todo), step):
            chunk = todo[start:start + step]
            # (rows x chunk), column-major as a fancy index would give it
            labels = as_labels(np.array([columns[j] for j in chunk], np.float64).T, self.bins)
            # one small array per column: a memo entry pins no chunk-sized block
            for j, codes, xlogx in zip(chunk, labels.T, _xlogx_sums(labels, table)):
                self._labels[keys[j]] = Labels(keys[j], codes.astype(self._codes_dtype), xlogx)
        return [self._labels[key] for key in keys]

    def mi(self, columns: Sequence[np.ndarray], keys: Sequence[bytes],
           target: Target) -> list[float]:
        """The MI of each column with ``target`` (see ``pair_mi``)."""
        target_labels = self.labels([target.values], (target.key,))[0]
        return self.pair_mi([(col, target_labels) for col in self.labels(columns, keys)])

    def pair_mi(self, pairs: Sequence[tuple[Labels, Labels]]) -> list[float]:
        """MI of each pair of ``labels`` results, the unmemoized ones batched
        through ``_count_mi``.  The operand with the smaller content hash is
        the row variable, so both argument orders sum the same terms."""
        ordered = [(x, y) if x.key <= y.key else (y, x) for x, y in pairs]
        keys = [(x.key, y.key) for x, y in ordered]
        todo = [p for p, key in enumerate(keys) if key not in self._mi]
        m, k = ordered[0][0].codes.size, self._k
        step = max(1, _CHUNK_ENTRIES // max(m, k * k))
        for start in range(0, len(todo), step):
            batch = todo[start:start + step]
            values = _count_mi([ordered[p] for p in batch], self._table(m), k)
            self._mi.update(zip([keys[p] for p in batch], values.tolist()))
        return [self._mi[key] for key in keys]


def feature_set_quality(fs: FeatureSet, cache: MICache) -> float:
    """Relevance-minus-redundancy score of a feature space.

    Averages MI(feature, target) and subtracts the normalized sum of
    MI(f_i, f_j) over ordered distinct pairs (self-pairs excluded, |F|^2
    normalization kept).
    """
    n = fs.n_cols
    target = cache.labels([fs.target.values], (fs.target.key,))[0]
    cols = cache.labels(fs.values.T, fs.keys)
    pairs = [(col, target) for col in cols]
    pairs += [(cols[i], cols[j]) for i in range(n) for j in range(i + 1, n)]
    mis = cache.pair_mi(pairs)
    # each sum strictly left to right, pairs in the order listed
    relevance, redundancy = (float(np.cumsum([0.0, *part])[-1]) for part in (mis[:n], mis[n:]))
    return -(2.0 * redundancy) / (n * n) + relevance / n


def column_distances(a: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Euclidean distance from column ``a`` to each row of ``others``, each
    row's value depending only on its own pair: the paper's generic pair-wise
    d, fixed to Euclidean.  Each difference is scaled by its largest entry."""
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
