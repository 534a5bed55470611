"""Agglomerative grouping of feature columns under the group distance.

Each search step builds one average-linkage merge sequence (a dendrogram) and
cuts it once, at the mean pair score: the merge order does not depend on the
threshold, which only decides how long a prefix of the merges is applied.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import FeatureSet
from .info_metrics import MICache, column_distances


def pair_score_matrix(fs: FeatureSet, cache: MICache) -> np.ndarray:
    """N x N matrix of d(f_i, f_j) * |MI(f_i,y) - MI(f_j,y)| (zero diagonal),
    d the Euclidean ``column_distances`` and each MI(f, y) from the run's ``cache``."""
    n = fs.n_cols
    cols = fs.values.T
    mi_y = np.array(cache.mi(cols, fs.keys, fs.target))
    scores = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 1):
        scores[i, i + 1:] = column_distances(cols[i], cols[i + 1:]) * np.abs(
            mi_y[i] - mi_y[i + 1:])
    return scores + scores.T


def merge_sequence(scores: np.ndarray) -> list[tuple[float, int, int]]:
    """Average-linkage merges of every column, in merge order, as
    ``(height, a, b)``.

    A cluster is named by its smallest member, ``a < b``, and the merged
    cluster keeps the name ``a``.  The height between two clusters is the
    running sum of their raw member-pair scores divided by ``|lo| * |hi|``:
    merging ``b`` into ``a`` adds ``b``'s row of linkage sums to ``a``'s
    (Müllner, arXiv:1109.2378).  Sums of integer-valued scores are exact, so
    there the height equals ``np.mean(scores[np.ix_(lo, hi)])``.  Ties pick the
    lexicographically smallest ``(a, b)``.  The sequence stops at the first
    height that is not finite.
    """
    n = scores.shape[0]
    sums = np.array(scores, dtype=np.float64)
    size = np.ones(n)
    live = np.ones(n, dtype=bool)
    dist = np.full((n, n), np.inf)
    upper = np.triu_indices(n, k=1)
    dist[upper] = scores[upper]
    merges: list[tuple[float, int, int]] = []
    for _ in range(n - 1):
        a, b = divmod(int(np.argmin(dist)), n)  # first minimum in row-major order
        height = float(dist[a, b])
        if not math.isfinite(height):
            break
        merges.append((height, a, b))
        row = sums[a] + sums[b]
        sums[a], sums[:, a] = row, row
        size[a] += size[b]
        live[b] = False
        dist[b, :] = np.inf
        dist[:, b] = np.inf
        others = np.flatnonzero(live)
        others = others[others != a]
        # the pair is stored at [smaller name, larger name]
        lo, hi = np.minimum(others, a), np.maximum(others, a)
        dist[lo, hi] = row[others] / (size[a] * size[others])
    return merges


def cut(merges: list[tuple[float, int, int]], n: int,
        threshold: float) -> tuple[tuple[int, ...], ...]:
    """The clusters of ``n`` columns after replaying ``merges`` up to the first
    one whose height is not strictly below ``threshold``: a partition of
    0..n-1 into nonempty groups, each sorted ascending, the groups in order
    of their smallest member."""
    members: dict[int, tuple[int, ...]] = {i: (i,) for i in range(n)}
    for height, a, b in merges:
        if not height < threshold:
            break
        members[a] = tuple(sorted(members[a] + members.pop(b)))
    return tuple(members[name] for name in sorted(members))


def adaptive_cluster(fs: FeatureSet, cache: MICache) -> tuple[tuple[int, ...], ...]:
    """Cut the step's merge sequence at the mean initial pairwise score; the
    groups partition the column indices as ``cut``'s do.  Falls back to
    singletons when the cut leaves one group or the mean is not positive, and
    to the single trivial group when there is only one column.

    A lower cut would not help: each column pair joins at one merge, so the
    mean is a weighted mean of the merge heights.  The cut leaves one group
    only when rounding puts every height just below the mean, above half of it.
    """
    n = fs.n_cols
    if n == 1:
        return ((0,),)
    scores = pair_score_matrix(fs, cache)
    threshold = float(np.mean(scores[np.triu_indices(n, k=1)]))
    if threshold > 0.0:
        result = cut(merge_sequence(scores), n, threshold)
        if len(result) >= 2:
            return result
    return tuple((i,) for i in range(n))
