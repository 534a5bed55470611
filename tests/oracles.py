"""Independent brute-force reference implementations used to freeze expected
values.  Everything here is deliberately naive and avoids the library's own
code paths."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from raft.clustering import cut, merge_sequence
from raft.dataset import (TRAIN_FRACTION, DatasetError, FeatureMeta, FeatureSet, Ident, Target,
                          TaskKind, content_hash, discretize)
from raft.evaluator import MAX_BINS, MAX_DEPTH, MIN_LEAF, N_TREES
from raft.info_metrics import as_labels, column_distances
from raft.neural_core import AE_HIDDEN, DenseNet, derive_seed, fan_uniform, init_dense
from raft.state_repr import _finite, _population_std, _standardize_columns, correlation_adjacency
from raft.transform import Batch


# ---------------------------------------------------------------------------
# quantiles / discretization
# ---------------------------------------------------------------------------

def column_bins(x, bins: int) -> np.ndarray:
    """``discretize`` of one vector: the labels of a one-column matrix."""
    return discretize(np.asarray(x, dtype=np.float64)[:, None], bins)[:, 0]


def column_labels(x, bins: int) -> np.ndarray:
    """``as_labels`` of one vector: the labels of a one-column matrix."""
    return as_labels(np.asarray(x, dtype=np.float64)[:, None], bins)[:, 0]


def quantile_oracle(data, q: float) -> float:
    s = sorted(float(v) for v in data)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def discretize_oracle(data, bins: int) -> list[int]:
    values = [float(v) for v in data]
    if bins == 1 or min(values) == max(values):
        return [0] * len(values)
    edges = sorted({quantile_oracle(values, i / bins) for i in range(1, bins)})
    return [sum(1 for e in edges if e < v) for v in values]


def discretize_quantile_oracle(values, bins: int) -> np.ndarray:
    """``discretize`` as it was before ``linear_quantiles``: the edges of every
    column from one ``np.quantile`` call along axis 0.  A column with a
    non-finite edge is binned halved, values and edges."""
    x = np.asarray(values, dtype=np.float64)
    labels = np.zeros(x.shape, dtype=np.int64)
    if bins > 1:
        q = np.arange(1, bins) / bins
        edges = np.quantile(x, q, axis=0, method="linear")
        over = ~np.all(np.isfinite(edges), axis=0)
        x = np.where(over, x / 2.0, x)
        edges = np.sort(np.where(over, np.quantile(x, q, axis=0, method="linear"), edges), axis=0)
        distinct = np.ones(edges.shape, dtype=bool)
        distinct[1:] = edges[1:] != edges[:-1]
        for edge, new in zip(edges, distinct):
            labels += new & (edge < x)
    return labels


def per_column_labels_oracle(values: np.ndarray, bins: int) -> tuple[np.ndarray, list[float]]:
    """MI labels (rows x columns) and each column's sum of c*log(c) over its
    label counts, as they were made one column at a time: ``np.unique`` for an
    integer-valued column with at most 20 distinct values, else one
    ``np.quantile`` and ``np.searchsorted`` per column, and the counts summed
    left to right."""
    table = np.array([0.0] + [c * math.log(c) for c in range(1, values.shape[0] + 1)])
    labels, sums = [], []
    for col in np.asarray(values, dtype=np.float64).T:
        if np.all(col == np.floor(col)) and np.unique(col).size <= 20:
            codes = np.unique(col, return_inverse=True)[1].astype(np.int64)
        elif bins == 1 or col.min() == col.max():
            codes = np.zeros(col.size, dtype=np.int64)
        else:
            edges = np.unique(np.quantile(col, np.arange(1, bins) / bins, method="linear"))
            codes = np.searchsorted(edges, col, side="left").astype(np.int64)
        labels.append(codes)
        sums.append(float(np.cumsum(table[np.bincount(codes)])[-1]))
    return np.column_stack(labels), sums


# ---------------------------------------------------------------------------
# mutual information / quality / group distance
# ---------------------------------------------------------------------------

def mi_oracle(labels_x, labels_y) -> float:
    """Plug-in MI from already-discrete label sequences (nats)."""
    n = len(labels_x)
    joint = Counter(zip(labels_x, labels_y))
    px = Counter(labels_x)
    py = Counter(labels_y)
    mi = 0.0
    for (a, b), c in sorted(joint.items()):
        p = c / n
        mi += p * math.log(p / ((px[a] / n) * (py[b] / n)))
    return mi


def quality_oracle(columns_labels, target_labels) -> float:
    """U from pre-discretized columns: naive double loop over ordered pairs."""
    n = len(columns_labels)
    redundancy = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                redundancy += mi_oracle(columns_labels[i], columns_labels[j])
    relevance = sum(mi_oracle(col, target_labels) for col in columns_labels)
    return -redundancy / (n * n) + relevance / n


def plugin_mi_oracle(lx: np.ndarray, ly: np.ndarray) -> float:
    """The scalar plug-in MI estimator as it was before vectorisation: a
    double loop over the joint table, one ``math.log`` and one running sum
    per positive cell in row-major order."""
    n = lx.size
    kx = int(lx.max()) + 1
    ky = int(ly.max()) + 1
    joint = np.bincount(lx * ky + ly, minlength=kx * ky).reshape(kx, ky) / n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mi = 0.0
    for i in range(kx):
        pi = px[i]
        for j in range(ky):
            p = joint[i, j]
            if p > 0.0:
                mi += p * math.log(p / (pi * py[j]))
    return float(mi) if mi > 0.0 else 0.0


def count_mi_oracle(lx: np.ndarray, ly: np.ndarray) -> float:
    """The count-table MI kernel as a loop: the joint table counted with a
    ``Counter``, ``c * math.log(c)`` per cell, the joint table and each
    marginal summed left to right in row-major order, then
    MI = log m + (joint - row marginal - column marginal) / m."""
    m = lx.size
    k = max(int(lx.max()), int(ly.max())) + 1

    def xlogx_sum(counts, cells) -> float:
        total = 0.0
        for cell in cells:
            c = counts.get(cell, 0)
            if c > 0:
                total += c * math.log(c)
        return total

    joint = xlogx_sum(Counter(zip(lx.tolist(), ly.tolist())),
                      [(a, b) for a in range(k) for b in range(k)])
    rows = xlogx_sum(Counter(lx.tolist()), range(k))
    cols = xlogx_sum(Counter(ly.tolist()), range(k))
    mi = math.log(m) + (joint - rows - cols) / m
    return mi if mi > 0.0 else 0.0


def scalar_quality_oracle(fs: FeatureSet, bins: int, pair_mi=plugin_mi_oracle) -> float:
    """``feature_set_quality`` as a loop: both operands of every pair hashed
    and labelled again, the one with the smaller content hash as the row
    variable, and ``pair_mi`` per pair (by default the ratio-form estimator
    from before the count-table kernel)."""
    def mi(x, y):
        lx, ly = column_labels(x, bins), column_labels(y, bins)
        if content_hash(np.asarray(y, dtype=np.float64)) < content_hash(
                np.asarray(x, dtype=np.float64)):
            lx, ly = ly, lx
        return pair_mi(lx, ly)

    n = fs.n_cols
    y = np.asarray(fs.target.values, dtype=np.float64)
    relevance = 0.0
    for i in range(n):
        relevance += mi(fs.column(i), y)
    redundancy = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            redundancy += mi(fs.column(i), fs.column(j))
    return -(2.0 * redundancy) / (n * n) + relevance / n


def pairwise_distance(f_i: np.ndarray, f_j: np.ndarray) -> float:
    """Euclidean distance between two columns (``column_distances`` on one
    pair)."""
    a, b = (np.asarray(v, dtype=np.float64) for v in (f_i, f_j))
    if a.shape != b.shape:
        raise ValueError("vectors must have equal length")
    return float(column_distances(a, b[None, :])[0])


def euclidean_oracle(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def group_distance_oracle(cols_i, cols_j, mi_to_target_i, mi_to_target_j) -> float:
    total = 0.0
    for a, ma in zip(cols_i, mi_to_target_i):
        for b, mb in zip(cols_j, mi_to_target_j):
            total += euclidean_oracle(list(a), list(b)) * abs(ma - mb)
    return total / (len(cols_i) * len(cols_j))


# ---------------------------------------------------------------------------
# agglomerative clustering
# ---------------------------------------------------------------------------

def agglomerative_oracle(columns, mi_to_target, threshold: float) -> tuple[tuple[int, ...], ...]:
    """From-scratch merge loop recomputing the group distance from raw member
    columns at every step; same strict-< stop rule and lexicographic
    tie-break."""
    clusters = [(i,) for i in range(len(columns))]
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = group_distance_oracle(
                    [columns[i] for i in clusters[a]],
                    [columns[j] for j in clusters[b]],
                    [mi_to_target[i] for i in clusters[a]],
                    [mi_to_target[j] for j in clusters[b]],
                )
                if best is None or d < best[0]:
                    best = (d, a, b)
        if best is None or not best[0] < threshold:
            break
        d, a, b = best
        merged = tuple(sorted(clusters[a] + clusters[b]))
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)]
        clusters.append(merged)
        clusters.sort(key=lambda c: c[0])
    return tuple(clusters)


def merge_loop_oracle(scores: np.ndarray, threshold: float) -> tuple[tuple[int, ...], ...]:
    """The merge loop one threshold at a time, as `clustering` ran it before
    the merge sequence: start from singletons, re-average every cluster pair
    from the raw scores, and merge the first closest pair (in position order,
    clusters sorted by smallest member) while its distance is strictly below
    the threshold."""
    clusters: list[tuple[int, ...]] = [(i,) for i in range(scores.shape[0])]
    while len(clusters) > 1:
        best_dist = None
        best_pair = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = float(np.mean(scores[np.ix_(clusters[a], clusters[b])]))
                if best_dist is None or d < best_dist:
                    best_dist = d
                    best_pair = (a, b)
        if best_dist is None or not best_dist < threshold:
            break
        a, b = best_pair
        merged = tuple(sorted(clusters[a] + clusters[b]))
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)]
        clusters.append(merged)
        clusters.sort(key=lambda c: c[0])
    return tuple(clusters)


def mean_linkage_oracle(scores: np.ndarray) -> list[tuple[float, int, int]]:
    """Average-linkage merges as `clustering.merge_sequence` computed them
    before its running sums: after each merge, every height to the merged
    cluster is re-averaged from the raw scores with
    ``np.mean(scores[np.ix_(lo, hi)])``."""
    n = scores.shape[0]
    members: dict[int, tuple[int, ...]] = {i: (i,) for i in range(n)}
    dist = np.full((n, n), np.inf)
    upper = np.triu_indices(n, k=1)
    dist[upper] = scores[upper]
    merges: list[tuple[float, int, int]] = []
    for _ in range(n - 1):
        a, b = divmod(int(np.argmin(dist)), n)
        height = float(dist[a, b])
        if not math.isfinite(height):
            break
        merges.append((height, a, b))
        members[a] = tuple(sorted(members[a] + members.pop(b)))
        dist[b, :] = np.inf
        dist[:, b] = np.inf
        for c in members:
            if c != a:
                lo, hi = min(a, c), max(a, c)
                dist[lo, hi] = np.mean(scores[np.ix_(members[lo], members[hi])])
    return merges


def halving_cluster_oracle(scores: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """`clustering.adaptive_cluster`'s rule on a score matrix as it was before
    its halving rounds were deleted: cut the merge sequence at the mean pair
    score, halving the threshold up to 12 times until at least two groups come
    out, else singletons."""
    n = scores.shape[0]
    merges = merge_sequence(scores)
    threshold = float(np.mean(scores[np.triu_indices(n, k=1)]))
    for _ in range(12):
        if threshold <= 0.0:
            break
        result = cut(merges, n, threshold)
        if len(result) >= 2:
            return result
        threshold /= 2.0
    return tuple((i,) for i in range(n))


# ---------------------------------------------------------------------------
# train/valid split
# ---------------------------------------------------------------------------

def split_oracle(fs: FeatureSet, seed: int) -> tuple[FeatureSet, FeatureSet]:
    """``split_train_valid`` as it was with two branches: a stratified loop
    over the classes, and a separate unstratified shuffle of all the rows
    when the target is a regression or a class has a single sample."""
    ratio = TRAIN_FRACTION
    m = fs.n_rows
    rng = np.random.default_rng(seed)
    stratify = False
    if fs.target.kind is TaskKind.CLASSIFICATION:
        counts = np.bincount(fs.target.values)
        counts = counts[counts > 0]
        if np.all(counts >= 2):
            stratify = True
    if stratify:
        train_parts = []
        valid_parts = []
        for label in np.unique(fs.target.values):
            idx = np.flatnonzero(fs.target.values == label)
            perm = idx[rng.permutation(idx.size)]
            n_tr = math.floor(ratio * idx.size)
            train_parts.append(perm[:n_tr])
            valid_parts.append(perm[n_tr:])
        train_idx = np.sort(np.concatenate(train_parts))
        valid_idx = np.sort(np.concatenate(valid_parts))
    else:
        perm = rng.permutation(m)
        n_tr = math.floor(ratio * m)
        train_idx = np.sort(perm[:n_tr])
        valid_idx = np.sort(perm[n_tr:])
    if train_idx.size < 2 or valid_idx.size < 2:
        raise DatasetError(f"the split leaves a side with fewer than 2 rows for {m} rows")
    return fs.subset_rows(train_idx), fs.subset_rows(valid_idx)


# ---------------------------------------------------------------------------
# feature generation
# ---------------------------------------------------------------------------

def dedup_oracle(batch: Batch, fs: FeatureSet, tol: float = 1e-12) -> Batch:
    """``dedup`` as it was before vectorisation: one ``np.all`` per earlier
    column, existing columns first, then the batch columns kept so far."""
    kept: Batch = []
    existing = [fs.values[:, i] for i in range(fs.n_cols)]
    for col, meta in batch:
        if float(np.ptp(col)) <= tol:
            continue
        duplicate = False
        with np.errstate(over="ignore"):
            for other in existing + [c for c, _ in kept]:
                if np.all(np.abs(col - other) <= tol):
                    duplicate = True
                    break
        if not duplicate:
            kept.append((col, meta))
    return kept


def select_features(fs: FeatureSet, max_size: int, cache) -> FeatureSet:
    """The ``max_size`` columns of ``fs`` of largest MI with the target, read
    from the MI cache ``cache`` (ties keep the lower index), in their order;
    ``fs`` itself when it has no more columns."""
    if fs.n_cols <= max_size:
        return fs
    scores = cache.mi(fs.values.T, fs.keys, fs.target)
    ranked = sorted(range(fs.n_cols), key=lambda i: (-scores[i], i))
    return fs.take(sorted(ranked[:max_size]))


def appended_then_selected_oracle(fs: FeatureSet, batch: Batch, max_size: int,
                                  bins: int) -> FeatureSet:
    """``generation_step``'s assembly as it was before selection moved ahead
    of it: every post-dedup batch column appended to ``fs`` by
    ``np.concatenate``, then, past ``max_size``, the ``max_size`` columns of
    largest MI with the target (ties keep the lower index) taken in order by
    a fancy index.  Each MI is ``count_mi_oracle`` of ``as_labels`` codes,
    the operand with the smaller content hash as the row variable."""
    if len(batch) == 0:
        return fs
    values = np.concatenate([fs.values] + [c[:, None] for c, _ in batch], axis=1)
    keys = fs.keys + tuple(content_hash(c) for c, _ in batch)
    merged = fs.with_columns(values, tuple(fs.columns) + tuple(m for _, m in batch), keys)
    if merged.n_cols <= max_size:
        return merged
    target_key = content_hash(np.asarray(fs.target.values, dtype=np.float64))
    target = column_labels(fs.target.values, bins)
    scores = []
    for j, key in enumerate(keys):
        col = column_labels(merged.values[:, j], bins)
        scores.append(count_mi_oracle(col, target) if key <= target_key
                      else count_mi_oracle(target, col))
    ranked = sorted(range(merged.n_cols), key=lambda i: (-scores[i], i))
    return merged.take(sorted(ranked[:max_size]))


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def forest_oracle(fs: FeatureSet, seed: int) -> tuple[list, np.ndarray]:
    """Reference forest of the evaluator's shape: at every node, sort each
    candidate feature of the node's rows on its own (stable argsort) and scan
    its thresholds one feature at a time, with np.var / np.mean / np.cumsum /
    np.sum on the sorted column.  `fit_forest` must match it bit for bit.  Returns
    (trees, raw importances); a tree is nested tuples ("leaf", value) /
    ("split", feature, threshold, left, right).  A regression target is
    scaled as `fit_forest` scales it, and the leaf values back."""
    x = fs.values
    classification = fs.target.kind is TaskKind.CLASSIFICATION
    scale = 0
    if classification:
        y = np.asarray(fs.target.values, dtype=np.int64)
        n_classes = int(y.max()) + 1
    else:
        y = np.asarray(fs.target.values, dtype=np.float64)
        scale = math.frexp(float(np.max(np.abs(y))))[1]  # max|y| * 2^-scale in [0.5, 1)
        y = np.ldexp(y, -scale)
        n_classes = 0
    n_feat = x.shape[1]
    if classification:
        m_feats = min(math.ceil(math.sqrt(n_feat)), n_feat)
    else:
        m_feats = min(math.ceil(n_feat / 3), n_feat)
    importances = np.zeros(n_feat, dtype=np.float64)

    def impurity(y_node):
        if classification:
            counts = np.bincount(y_node, minlength=n_classes)
            p = counts / counts.sum()
            return float(1.0 - np.sum(p * p))
        return float(np.var(y_node))

    def leaf(y_node):
        if classification:
            return ("leaf", float(np.argmax(np.bincount(y_node, minlength=n_classes))))
        return ("leaf", math.ldexp(float(np.mean(y_node)), scale))

    def best_split(rows, y_node, feats):
        n = rows.size
        lo, hi = MIN_LEAF - 1, n - MIN_LEAF - 1
        best = None
        for feature in feats:
            col = x[rows, feature]
            order = np.argsort(col, kind="stable")
            xs, ys = col[order], y_node[order]
            valid = (xs[:-1] < xs[1:])[lo:hi + 1]
            n_left = np.arange(lo + 1, hi + 2, dtype=np.float64)
            n_right = n - n_left
            if classification:
                onehot = ys[:, None] == np.arange(n_classes)[None, :]
                cum = np.cumsum(onehot, axis=0)[lo:hi + 1].astype(np.float64)
                total = np.bincount(ys, minlength=n_classes).astype(np.float64)
                gini_l = 1.0 - np.sum((cum / n_left[:, None]) ** 2, axis=1)
                gini_r = 1.0 - np.sum(((total - cum) / n_right[:, None]) ** 2, axis=1)
                scores = (n_left * gini_l + n_right * gini_r) / n
            else:
                c1 = np.cumsum(ys)[lo:hi + 1]
                c2 = np.cumsum(ys * ys)[lo:hi + 1]
                s1, s2 = float(np.sum(ys)), float(np.sum(ys * ys))
                scores = ((c2 - c1 * c1 / n_left)
                          + ((s2 - c2) - (s1 - c1) ** 2 / n_right)) / n
            scores = np.where(valid, scores, np.inf)
            pos = int(np.argmin(scores))
            score = float(scores[pos])
            if math.isfinite(score) and (best is None or score < best[2]):
                i = lo + pos
                best = (int(feature), float((xs[i] + xs[i + 1]) / 2.0), score)
        return best

    def build(rows, depth, rng, n_total):
        y_node = y[rows]
        node_imp = impurity(y_node)
        if depth >= MAX_DEPTH or rows.size < 2 * MIN_LEAF or node_imp == 0.0:
            return leaf(y_node)
        feats = np.sort(rng.choice(n_feat, size=m_feats, replace=False))
        best = best_split(rows, y_node, feats)
        if best is None:
            return leaf(y_node)
        feature, threshold, score = best
        mask = x[rows, feature] <= threshold
        left_rows, right_rows = rows[mask], rows[~mask]
        if left_rows.size < MIN_LEAF or right_rows.size < MIN_LEAF:
            return leaf(y_node)
        importances[feature] += (rows.size / n_total) * (node_imp - score)
        left = build(left_rows, depth + 1, rng, n_total)
        right = build(right_rows, depth + 1, rng, n_total)
        return ("split", feature, threshold, left, right)

    m = x.shape[0]
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(N_TREES):
        rng = np.random.default_rng(ss)
        rows = rng.integers(0, m, size=m)
        trees.append(build(rows, 0, rng, rows.size))
    return trees, importances


def binned_forest_oracle(fs: FeatureSet, seed: int) -> tuple[list, np.ndarray]:
    """Reference for `fit_forest`, in plain Python loops, at its shape.  Each
    column's distinct training values are ranked 1..D and rank r goes to bin
    (r - 1) * min(MAX_BINS, D) // D.  A tree draws its bootstrap sample, then
    grows breadth-first: a level's nodes are visited in order, and one
    `rng.random((nodes searched, columns))` call gives each searched node its
    features (the columns of its row by ascending draw, as many as the task
    draws, sorted).  Per candidate feature, the node's histogram is summed in
    sample order and scanned bin by bin, the first strictly better score
    winning.  Sums over classes run from the lowest class up.  A regression
    target is scaled as `fit_forest` scales it, and the leaf values back.
    Returns (trees, raw importances) in `forest_oracle`'s tuple form."""
    x = fs.values
    classification = fs.target.kind is TaskKind.CLASSIFICATION
    scale = 0
    if classification:
        y = [int(v) for v in fs.target.values]
        n_classes = max(y) + 1
    else:
        y = [float(v) for v in fs.target.values]
        scale = math.frexp(max(abs(v) for v in y))[1]  # max|y| * 2^-scale in [0.5, 1)
        y = [math.ldexp(v, -scale) for v in y]
        n_classes = 0
    n_rows, n_feat = x.shape
    if classification:
        m_feats = min(math.ceil(math.sqrt(n_feat)), n_feat)
    else:
        m_feats = min(math.ceil(n_feat / 3), n_feat)
    col = [[float(v) for v in x[:, f]] for f in range(n_feat)]
    bins = []
    for f in range(n_feat):
        rank = {v: i + 1 for i, v in enumerate(sorted(set(col[f])))}
        n_bins = min(MAX_BINS, len(rank))
        bins.append([(rank[v] - 1) * n_bins // len(rank) for v in col[f]])
    importances = np.zeros(n_feat, dtype=np.float64)

    def class_sum(values):
        total = 0.0
        for v in values:
            total += v
        return total

    def impurity_and_value(rows):
        n = len(rows)
        if classification:
            counts = [0] * n_classes
            for r in rows:
                counts[y[r]] += 1
            gini = 1.0 - class_sum((c / n) * (c / n) for c in counts)
            return gini, float(counts.index(max(counts)))
        total = 0.0
        for r in rows:
            total += y[r]
        mean = total / n
        sq = 0.0
        for r in rows:
            sq += (y[r] - mean) * (y[r] - mean)
        return sq / n, mean

    def score_cuts(rows, f):
        """(score, cut) per valid cut of feature f, cuts ascending."""
        n = len(rows)
        top = max(bins[f][r] for r in rows) + 1
        out = []
        if classification:
            hist = [[0] * n_classes for _ in range(top)]
            for r in rows:
                hist[bins[f][r]][y[r]] += 1
            total = [sum(h[c] for h in hist) for c in range(n_classes)]
            cum = [0] * n_classes
            for b in range(top):
                cum = [cum[c] + hist[b][c] for c in range(n_classes)]
                nl = sum(cum)
                nr = n - nl
                if nl < MIN_LEAF or nr < MIN_LEAF:
                    continue
                gl = 1.0 - class_sum((c / nl) * (c / nl) for c in cum)
                gr = 1.0 - class_sum(((t - c) / nr) * ((t - c) / nr)
                                     for t, c in zip(total, cum))
                out.append(((nl * gl + nr * gr) / n, b))
            return out
        h1, h2, hc = [0.0] * top, [0.0] * top, [0] * top
        for r in rows:
            b = bins[f][r]
            h1[b] += y[r]
            h2[b] += y[r] * y[r]
            hc[b] += 1
        run1, run2, runc = [], [], []
        c1 = c2 = 0.0
        nl = 0
        for b in range(top):
            c1, c2, nl = c1 + h1[b], c2 + h2[b], nl + hc[b]
            run1.append(c1)
            run2.append(c2)
            runc.append(nl)
        s1, s2 = run1[-1], run2[-1]
        for b in range(top):
            c1, c2, nl = run1[b], run2[b], runc[b]
            nr = n - nl
            if nl < MIN_LEAF or nr < MIN_LEAF:
                continue
            sse_l = c2 - c1 * c1 / nl
            sse_r = (s2 - c2) - (s1 - c1) * (s1 - c1) / nr
            out.append(((sse_l + sse_r) / n, b))
        return out

    def as_tuple(node):
        if "split" not in node:
            return ("leaf", math.ldexp(node["value"], scale))
        f, t = node["split"]
        return ("split", f, t, as_tuple(node["left"]), as_tuple(node["right"]))

    trees = []
    for ss in np.random.SeedSequence(seed).spawn(N_TREES):
        rng = np.random.default_rng(ss)
        sample = rng.integers(0, n_rows, size=n_rows)
        root = {"rows": [int(r) for r in sample]}
        level = [root]
        for depth in range(MAX_DEPTH + 1):
            searched = []
            for node in level:
                node["imp"], node["value"] = impurity_and_value(node["rows"])
                if (depth < MAX_DEPTH and len(node["rows"]) >= 2 * MIN_LEAF
                        and node["imp"] != 0.0):
                    searched.append(node)
            draws = rng.random((len(searched), n_feat)) if searched else []
            next_level = []
            for node, draw in zip(searched, draws):
                rows = node["rows"]
                by_draw = sorted(range(n_feat), key=lambda f: draw[f])
                best = None
                for f in sorted(by_draw[:m_feats]):
                    for score, b in score_cuts(rows, f):
                        if best is None or score < best[0]:
                            best = (score, f, b)
                if best is None:
                    continue
                score, f, b = best
                below = max(col[f][r] for r in rows if bins[f][r] <= b)
                above = min(col[f][r] for r in rows if bins[f][r] > b)
                threshold = (below + above) / 2.0
                if not math.isfinite(threshold):
                    threshold = below / 2.0 + above / 2.0
                left = [r for r in rows if col[f][r] <= threshold]
                right = [r for r in rows if col[f][r] > threshold]
                if len(left) < MIN_LEAF or len(right) < MIN_LEAF:
                    continue
                importances[f] += (len(rows) / n_rows) * (node["imp"] - score)
                node["split"] = (f, threshold)
                node["left"], node["right"] = {"rows": left}, {"rows": right}
                next_level += [node["left"], node["right"]]
            level = next_level
        trees.append(as_tuple(root))
    return trees, importances


def forest_predict_oracle(trees: list, x: np.ndarray, classification: bool) -> np.ndarray:
    """Row-by-row descent; classification takes the most common vote, the
    lowest class among equally common ones."""
    out = []
    for row in np.asarray(x, dtype=np.float64):
        votes = []
        for node in trees:
            while node[0] == "split":
                node = node[3] if row[node[1]] <= node[2] else node[4]
            votes.append(node[1])
        if classification:
            counts = Counter(int(v) for v in votes)
            top = max(counts.values())
            out.append(min(c for c, k in counts.items() if k == top))
        else:
            total = 0.0
            for v in votes:
                total += v
            out.append(total / len(votes))
    return np.asarray(out)


def classification_metric_oracle(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Macro F1 from three boolean masks per label, over the labels either
    array holds."""
    labels = np.unique(np.concatenate([y_true, y_pred])).astype(np.int64)
    f1s = []
    for label in labels:
        tp = int(np.sum((y_pred == label) & (y_true == label)))
        fp = int(np.sum((y_pred == label) & (y_true != label)))
        fn = int(np.sum((y_pred != label) & (y_true == label)))
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    return float(np.mean(f1s))


# ---------------------------------------------------------------------------
# encoders (frozen copies of the code before the lean rewrites)
# ---------------------------------------------------------------------------

def si_state_oracle(fs: FeatureSet) -> np.ndarray:
    """``state_si`` as it was before ``linear_quantiles``: each stage's
    quartiles from one ``np.quantile`` call."""
    def seven_stats(mat, axis, count_scale):
        count = np.full(mat.shape[1 - axis], mat.shape[axis] / count_scale, dtype=np.float64)
        q1, q2, q3 = np.quantile(mat, [0.25, 0.5, 0.75], axis=axis, method="linear")
        return np.stack([count, _population_std(mat, axis), mat.min(axis=axis),
                         mat.max(axis=axis), q1, q2, q3])

    scale = float(fs.n_rows)
    meta = seven_stats(seven_stats(fs.values, 0, scale), 1, scale).T
    return _finite(meta.reshape(-1))


def reconstruction_loss(encoder: DenseNet, decoder: DenseNet, data: np.ndarray) -> float:
    """Mean squared error of the autoencoder's reconstruction of the rows."""
    def out(net, x):
        return np.maximum(x @ net.w1 + net.b1, 0.0) @ net.w2 + net.b2

    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    return float(np.mean((out(decoder, out(encoder, data)) - data) ** 2))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function with each sign's half computed on its mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def gae_reconstruction_loss(adj: np.ndarray, z: np.ndarray) -> float:
    """Mean binary cross-entropy of sigmoid(Z Z^T) against the adjacency."""
    s = z @ z.T
    # max(s,0) - s*a + log(1+exp(-|s|)) is the overflow-safe BCE-with-logits
    loss = np.maximum(s, 0.0) - s * adj + np.log1p(np.exp(-np.abs(s)))
    return float(loss.mean())


def gcn_forward(adj: np.ndarray, feats: np.ndarray, w: np.ndarray) -> np.ndarray:
    """ReLU(D^-1/2 A D^-1/2 X W) for a symmetric nonnegative adjacency with
    self-loops (all degrees must be positive)."""
    adj = np.asarray(adj, dtype=np.float64)
    feats = np.asarray(feats, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if np.any(adj < 0.0) or not np.allclose(adj, adj.T):
        raise ValueError("adjacency must be symmetric and nonnegative")
    if feats.shape[0] != adj.shape[0]:
        raise ValueError("feature rows must match the node count")
    deg = adj.sum(axis=1)
    if np.any(deg <= 0.0):
        raise ValueError("every node needs positive degree (add self-loops)")
    dinv = 1.0 / np.sqrt(deg)
    return np.maximum((adj * dinv[:, None] * dinv[None, :]) @ feats @ w, 0.0)


def _dense_backward_oracle(net: DenseNet, x: np.ndarray, up: np.ndarray):
    """Recomputes the forward pass and also returns the input gradient."""
    z1 = x @ net.w1 + net.b1
    a1 = np.maximum(z1, 0.0)
    dz1 = (up @ net.w2.T) * (z1 > 0.0)
    grads = (x.T @ dz1, dz1.sum(axis=0), a1.T @ up, up.sum(axis=0))
    return grads, dz1 @ net.w1.T


def sgd_oracle(net: DenseNet, grads, lr: float, clip: float = 5.0) -> DenseNet:
    """Clip to a joint L2 norm, then check every clipped entry for finiteness."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > clip and norm > 0.0:
        grads = tuple(g * (clip / norm) for g in grads)
    if not all(np.all(np.isfinite(g)) for g in grads):
        return net
    w1, b1, w2, b2 = grads
    return net_of(net.w1 - lr * w1, net.b1 - lr * b1, net.w2 - lr * w2, net.b2 - lr * b2)


def autoencoder_oracle(data: np.ndarray, latent: int, epochs: int, seed: int, lr: float = 1e-3):
    """Full-batch autoencoder descent, AE_HIDDEN wide, with a forward pass
    inside each backward pass and the encoder's input gradient computed and
    discarded."""
    def out(net, x):
        return np.maximum(x @ net.w1 + net.b1, 0.0) @ net.w2 + net.b2

    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    b, dim = data.shape
    rng = np.random.default_rng(seed)
    enc = init_dense(dim, AE_HIDDEN, latent, rng)
    dec = init_dense(latent, AE_HIDDEN, dim, rng)
    for _ in range(epochs):
        z = out(enc, data)
        upstream = 2.0 * (out(dec, z) - data) / (b * dim)
        dec_grads, dz = _dense_backward_oracle(dec, z, upstream)
        enc_grads, _ = _dense_backward_oracle(enc, data, dz)
        dec = sgd_oracle(dec, dec_grads, lr)
        enc = sgd_oracle(enc, enc_grads, lr)
    return enc, dec, float(np.mean((out(dec, out(enc, data)) - data) ** 2))


def gae_state_oracle(fs: FeatureSet, k: int, epochs: int, seed: int,
                     lr: float = 1e-2, clip: float = 5.0) -> np.ndarray:
    """``state_gae`` with D^-1/2 A D^-1/2 and its product with the features
    recomputed inside every epoch's gradient."""
    def propagate(adj, feats):
        deg = adj.sum(axis=1)
        dinv = 1.0 / np.sqrt(deg)
        return (adj * dinv[:, None] * dinv[None, :]) @ feats

    adj = correlation_adjacency(fs.values)
    feats = _standardize_columns(fs.values).T
    w = fan_uniform(np.random.default_rng(derive_seed(seed, "gae")), fs.n_rows, k)
    n = adj.shape[0]
    for _ in range(epochs):
        prop = propagate(adj, feats)
        pre = prop @ w
        z = np.maximum(pre, 0.0)
        g = (_sigmoid(z @ z.T) - adj) / (n * n)
        grad = prop.T @ (((g + g.T) @ z) * (pre > 0.0))
        norm = math.sqrt(float(np.sum(grad * grad)))
        if norm > clip and norm > 0.0:
            grad = grad * (clip / norm)
        if not np.all(np.isfinite(grad)):
            break
        w = w - lr * grad
    return _finite(np.maximum(propagate(adj, feats) @ w, 0.0).mean(axis=0))


# ---------------------------------------------------------------------------
# agent update (a frozen copy of the update on per-array gradient tuples)
# ---------------------------------------------------------------------------

def _oracle_logits(net: DenseNet, x: np.ndarray) -> np.ndarray:
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return np.maximum(x2 @ net.w1 + net.b1, 0.0) @ net.w2 + net.b2


def _oracle_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _oracle_log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _oracle_param_grads(net: DenseNet, x: np.ndarray, up: np.ndarray) -> tuple:
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return _dense_backward_oracle(net, x2, up.reshape(x2.shape[0], -1))[0]


def _grads_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def advantage_and_losses_oracle(transitions, actor: DenseNet, critic: DenseNet, gamma: float,
                                beta: float):
    """(critic loss, actor objective, actor grads, critic grads), the grads as
    (w1, b1, w2, b2) tuples summed one transition at a time."""
    n = len(transitions)
    critic_grads = tuple(np.zeros_like(a) for a in (critic.w1, critic.b1, critic.w2, critic.b2))
    actor_grads = tuple(np.zeros_like(a) for a in (actor.w1, actor.b1, actor.w2, actor.b2))
    critic_loss = 0.0
    actor_objective = 0.0
    for t in transitions:
        v_s = float(_oracle_logits(critic, t.state)[0, 0])
        v_next = float(_oracle_logits(critic, t.next_state)[0, 0])
        delta = t.reward + gamma * v_next - v_s
        critic_loss += delta * delta / n
        critic_grads = _grads_add(critic_grads, _oracle_param_grads(
            critic, t.state, np.array([-2.0 * delta / n])))
        logit_vec = _oracle_logits(actor, t.actor_rows).reshape(-1)
        probs = _oracle_softmax(logit_vec)
        onehot = np.zeros_like(probs)
        onehot[t.action] = 1.0
        with np.errstate(divide="ignore"):
            logp = np.where(probs > 0.0, np.log(probs), 0.0)
        entropy = -float(np.sum(probs * logp))
        dlogits = (onehot - probs) * delta + beta * (-probs * (logp + entropy))
        actor_grads = _grads_add(actor_grads,
                                 _oracle_param_grads(actor, t.actor_rows, dlogits / n))
        actor_objective += (float(_oracle_log_softmax(logit_vec)[t.action]) * delta
                            + beta * entropy) / n
    return float(critic_loss), float(actor_objective), actor_grads, critic_grads


def update_agents_oracle(nets, episode, gamma: float, beta: float, actor_lr: float,
                         critic_lr: float):
    """One ``sgd_oracle`` step per net of each (actor, critic) pair on its
    batch; an empty batch or a non-finite loss leaves the pair as it is.
    Returns the pairs and the losses."""
    updated, report = [], {}
    for name, (actor, critic), transitions in zip(("head", "op", "tail"), nets, episode):
        if not transitions:
            updated.append((actor, critic))
            continue
        critic_loss, actor_objective, actor_grads, critic_grads = advantage_and_losses_oracle(
            transitions, actor, critic, gamma, beta)
        report[f"{name}_critic_loss"] = critic_loss
        report[f"{name}_actor_objective"] = actor_objective
        if not (math.isfinite(critic_loss) and math.isfinite(actor_objective)):
            updated.append((actor, critic))
            continue
        updated.append((sgd_oracle(actor, tuple(-g for g in actor_grads), actor_lr),
                        sgd_oracle(critic, critic_grads, critic_lr)))
    return updated, report


# ---------------------------------------------------------------------------
# finite differences for network gradients
# ---------------------------------------------------------------------------

def net_of(w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> DenseNet:
    """A net holding copies of the four arrays."""
    params = np.concatenate([np.ravel(a) for a in (w1, b1, w2, b2)]).astype(np.float64)
    return DenseNet(params, w1.shape[0], w1.shape[1], w2.shape[1])


def numeric_gradients(loss_fn, net: DenseNet, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn(net) w.r.t. every parameter, flat
    in the layout of ``net.params``."""
    grad = np.zeros_like(net.params)
    for i in range(net.params.size):
        plus = net.params.copy()
        plus[i] += h
        minus = net.params.copy()
        minus[i] -= h
        grad[i] = (loss_fn(replace(net, params=plus))
                   - loss_fn(replace(net, params=minus))) / (2 * h)
    return grad


def assert_grads_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4,
                       atol: float = 1e-6) -> None:
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol,
                               err_msg="gradient mismatch")


# ---------------------------------------------------------------------------
# small fixtures
# ---------------------------------------------------------------------------

def random_feature_set(rng: np.random.Generator, m: int, n: int,
                       classification: bool = False) -> FeatureSet:
    values = rng.standard_normal((m, n))
    columns = tuple(FeatureMeta.from_lineage(Ident(f"c{i}")) for i in range(n))
    if classification:
        labels = rng.integers(0, 2, size=m).astype(np.int64)
        labels[0] = 0
        labels[1] = 1  # both classes always present
        target = Target(labels, TaskKind.CLASSIFICATION, "y")
    else:
        target = Target(rng.standard_normal(m), TaskKind.REGRESSION, "y")
    return FeatureSet(values, columns, target)


def two_class_blobs(m: int = 80, n_features: int = 4, seed: int = 7) -> FeatureSet:
    """Linearly separable-ish two-class classification fixture."""
    rng = np.random.default_rng(seed)
    half = m // 2
    a = rng.standard_normal((half, n_features)) + 2.0
    b = rng.standard_normal((m - half, n_features)) - 2.0
    values = np.vstack([a, b])
    labels = np.concatenate([np.zeros(half, dtype=np.int64),
                             np.ones(m - half, dtype=np.int64)])
    perm = rng.permutation(m)
    columns = tuple(FeatureMeta.from_lineage(Ident(f"x{i}")) for i in range(n_features))
    return FeatureSet(values[perm], columns,
                      Target(labels[perm], TaskKind.CLASSIFICATION, "label"))


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class ScriptedPolicy:
    """Replays fixed (head, op, tail) choices, one per step in order, through
    the search loop's policy calls; it encodes no state and learns nothing."""

    def __init__(self, choices) -> None:
        self.choices = iter(choices)

    def choose(self, fs: FeatureSet, views) -> tuple[int, str, int]:
        return next(self.choices)

    def observe(self, fs_next: FeatureSet, r_head: float, r_op: float, r_tail: float) -> None:
        pass

    def end_episode(self) -> dict[str, float]:
        return {}
