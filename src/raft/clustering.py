"""Agglomerative grouping of feature columns under the group distance.

Each search step builds one average-linkage merge sequence (a dendrogram) and
cuts it at each threshold it tries: the merge order does not depend on the
threshold, which only decides how long a prefix of the merges is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureSet
from .info_metrics import MICache, PairwiseDistanceKind, column_distances


@dataclass(frozen=True)
class ClusterSet:
    """Disjoint, covering partition of column indices; groups sorted by their
    smallest member, members sorted ascending."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        flat = [i for g in self.groups for i in g]
        n = len(flat)
        if n == 0 or sorted(flat) != list(range(n)):
            raise ValueError(f"groups do not partition 0..{n - 1}: {self.groups}")
        for g in self.groups:
            if list(g) != sorted(g):
                raise ValueError(f"group members must be sorted ascending: {g}")

    def __len__(self) -> int:
        return len(self.groups)


def pair_score_matrix(fs: FeatureSet, kind: PairwiseDistanceKind, cache: MICache) -> np.ndarray:
    """N x N matrix of d(f_i, f_j) * |MI(f_i,y) - MI(f_j,y)| (zero diagonal),
    each MI(f, y) from the run's ``cache``."""
    n = fs.n_cols
    cols = np.ascontiguousarray(fs.values.T, dtype=np.float64)
    mi_y = np.array(cache.mi(fs))
    scores = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 1):
        scores[i, i + 1:] = column_distances(cols[i], cols[i + 1:], kind) * np.abs(
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


def cut(merges: list[tuple[float, int, int]], n: int, threshold: float) -> ClusterSet:
    """The clusters of ``n`` columns after replaying ``merges`` up to the first
    one whose height is not strictly below ``threshold``."""
    members: dict[int, tuple[int, ...]] = {i: (i,) for i in range(n)}
    for height, a, b in merges:
        if not height < threshold:
            break
        members[a] = tuple(sorted(members[a] + members.pop(b)))
    return ClusterSet(tuple(members[name] for name in sorted(members)))


def adaptive_cluster(
    fs: FeatureSet, kind: PairwiseDistanceKind, delta: float, cache: MICache
) -> ClusterSet:
    """Cut the step's merge sequence at threshold = delta * mean initial
    pairwise score, halving the threshold until at least two groups come out.

    Falls back to singletons when halving cannot help (all scores identical),
    and to the single trivial group when there is only one column.
    """
    n = fs.n_cols
    if n == 1:
        return ClusterSet(((0,),))
    scores = pair_score_matrix(fs, kind, cache)
    merges = merge_sequence(scores)
    threshold = delta * float(np.mean(scores[np.triu_indices(n, k=1)]))
    for _ in range(12):
        if threshold <= 0.0:
            break
        result = cut(merges, n, threshold)
        if len(result) >= 2:
            return result
        threshold /= 2.0
    return ClusterSet(tuple((i,) for i in range(n)))


def cluster_columns(fs: FeatureSet, cluster: tuple[int, ...] | list[int]) -> FeatureSet:
    """Restrict a feature set to one cluster's columns (same target, shared
    metas and column keys)."""
    if len(cluster) == 0:
        raise ValueError("cluster must be nonempty")
    idx = list(cluster)
    if idx != sorted(idx):
        raise ValueError(f"cluster indices must be sorted ascending: {cluster}")
    if idx[0] < 0 or idx[-1] >= fs.n_cols:
        raise IndexError(f"cluster index out of range for {fs.n_cols} columns: {cluster}")
    return fs.take(idx)
