"""Downstream-task utility: an in-house random forest plus task metrics.

Trees use axis-aligned splits with Gini impurity (classification) or variance
(regression), midpoint thresholds, and deterministic tie-breaking by lowest
feature index then lowest threshold.  Determinism per seed is exact: each tree
draws its bootstrap sample and its nodes' feature subsets from its own spawned
generator.

Split search.  `fit_forest` puts each column's training values into
min(MAX_BINS, D) bins of whole distinct values, D being their count, so a
column with at most MAX_BINS distinct values keeps every candidate split.  The
trees grow together, a level at a time, in groups whose level rows fit in
_GROUP_ROWS.  A level's searched nodes draw their feature subsets, one draw
per tree, and are split in contiguous passes within _PASS_ENTRIES (row, drawn
feature) entries and _PASS_CELLS histogram cells (node, drawn feature, bin,
class).  A pass's histogram holds class counts, or row counts and sums of y
and y*y, each bin summed in sample order.  Running sums over the bins score
every cut; the row-major first minimum picks each node's split, at the
midpoint of its largest value in the bins up to the cut and its smallest value
above them.  Sums over classes run from the lowest class up and importance
gains are added tree by tree, so no bit depends on the groups or the passes,
and `tests/oracles.py` replays every bit in plain loops.  A fitted forest is
flat per-node arrays, and `predict` sends every (tree, row) pair down at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureSet, TaskKind, split_train_valid
from .neural_core import NumericError
from enum import Enum


class MetricKind(Enum):
    F1_MACRO = "f1_macro"
    PRECISION_MACRO = "precision_macro"
    RECALL_MACRO = "recall_macro"
    ONE_MINUS_RAE = "one_minus_rae"
    ONE_MINUS_MAE = "one_minus_mae"
    ONE_MINUS_MSE = "one_minus_mse"
    ONE_MINUS_RMSE = "one_minus_rmse"

    @property
    def task(self) -> TaskKind:
        if self in (MetricKind.F1_MACRO, MetricKind.PRECISION_MACRO, MetricKind.RECALL_MACRO):
            return TaskKind.CLASSIFICATION
        return TaskKind.REGRESSION

    @staticmethod
    def parse(text: str) -> "MetricKind":
        for kind in MetricKind:
            if kind.value == text:
                return kind
        raise ValueError(f"unknown metric {text!r}")


def default_metric(task: TaskKind) -> MetricKind:
    return MetricKind.F1_MACRO if task is TaskKind.CLASSIFICATION else MetricKind.ONE_MINUS_RAE


MAX_BINS = 32  # split candidates per column and node: bins of whole distinct values
_PASS_ENTRIES = 2 ** 16  # per split pass: (training row, drawn feature) entries
_PASS_CELLS = 2 ** 15  # per split pass: histogram cells (node, drawn feature, bin, class)
_GROUP_ROWS = 2 ** 16  # per tree group: training rows of one level, over its trees


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 10
    max_depth: int = 8
    min_leaf: int = 2
    seed: int = 0
    bootstrap: bool = True
    max_features: int | None = None  # None: ceil(sqrt(N)) clf / ceil(N/3) reg


@dataclass
class RandomForest:
    """Every tree's nodes in flat arrays.  Tree t starts at node roots[t].  A
    split node i sends a row to node child[i] when its value of feature[i] is
    at most threshold[i] (so a NaN goes right), else to child[i] + 1.  A leaf
    has feature -1 and predicts value[i]."""
    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    child: np.ndarray
    task: TaskKind
    n_classes: int
    n_features: int
    importances_raw: np.ndarray
    cfg: ForestConfig


def _gini(counts, n) -> np.ndarray:
    """1 - sum over classes of (count / n)^2, the per-class counts (an array's
    first axis, or any iterable) summed from the lowest class up."""
    classes = iter(counts)
    total = next(classes) / n
    total *= total
    for c in classes:
        p = c / n
        p *= p
        total += p
    return np.subtract(1.0, total, out=total)


def _bin_codes(x: np.ndarray) -> np.ndarray:
    """Each entry's bin, a row per column: a column with D distinct values has
    min(MAX_BINS, D) bins of whole distinct values, the value of rank r
    (from 1) falling in bin (r - 1) * bins // D."""
    at = np.argsort(x, axis=0)
    xs = np.take_along_axis(x, at, axis=0)
    rank = np.ones(x.shape, dtype=np.int64)  # in sorted order
    np.not_equal(xs[1:], xs[:-1], out=rank[1:])
    del xs
    np.cumsum(rank, axis=0, out=rank)
    distinct = rank[-1].copy()
    rank -= 1
    rank *= np.minimum(distinct, MAX_BINS)
    rank //= distinct
    bins = np.empty(x.shape[::-1], dtype=np.uint8)  # a row per column; MAX_BINS <= 256
    np.put_along_axis(bins.T, at, rank, axis=0)
    return bins


def _best_cuts(bins: np.ndarray, n_bins: int, y: np.ndarray, rows: np.ndarray,
               feats: np.ndarray, n_node: np.ndarray, n_classes: int,
               min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Every node's best split from one histogram over (node, slot, bin), the
    slots being the node's drawn features in ascending order.  A split puts
    the bins up to a cut left; per node, the row-major first minimum over
    (slot, cut) wins, which prefers the lower feature, then the lower cut.
    Returns the winning flat (slot, cut) index and its score (inf: none)."""
    k, m = feats.shape
    width = k * n_bins
    # cells (class, node, bin) of one slot; regression sums counts, y and y*y
    cell = np.repeat(np.arange(0, width, n_bins), n_node)
    y_rows = y.take(rows)
    if n_classes:
        cell += y_rows * width
    weights = (None,) if n_classes else (None, y_rows, y_rows * y_rows)
    hist = np.empty((n_classes or 3, k, m, n_bins), dtype=np.int64 if n_classes else np.float64)
    # slot by slot, so that no array holds a (row, slot) entry; a histogram
    # cell's sum runs over its rows in sample order either way
    for j in range(m):
        at = np.repeat(feats[:, j] * bins.shape[1], n_node)
        at += rows
        np.add(cell, bins.ravel().take(at), out=at)
        for h, w in zip(hist.reshape(len(weights), -1, m, n_bins), weights):
            h[:, j] = np.bincount(at, weights=w, minlength=h.shape[0] * n_bins).reshape(-1, n_bins)
    del cell, y_rows, at, weights
    np.cumsum(hist, axis=3, out=hist)
    n_node = n_node[:, None, None]
    n_left = hist.sum(axis=0) if n_classes else hist[0]
    invalid = (n_left < min_leaf) | (n_left > n_node - min_leaf)
    if n_classes:
        n_right = n_node - n_left
        scores = _gini(hist, np.maximum(n_left, 1)) * n_left
        scores += _gini((h[..., -1:] - h for h in hist), np.maximum(n_right, 1)) * n_right
    else:
        # in place, sse_l + sse_r with sse_l = c2 - c1*c1 / max(nl, 1) and
        # sse_r = (s2 - c2) - (s1 - c1)^2 / max(nr, 1); x / max(n, 1) is x where n is 0
        c1, c2 = hist[1], hist[2]
        d = c1[..., -1:] - c1
        d *= d
        c1 *= c1
        np.divide(c1, n_left, out=c1, where=n_left > 0)
        np.subtract(c2, c1, out=c1)
        n_right = np.subtract(n_node, n_left, out=n_left)
        np.divide(d, n_right, out=d, where=n_right > 0)
        np.subtract(c2[..., -1:].copy(), c2, out=c2)
        c2 -= d
        c1 += c2
        scores = c1
    scores /= n_node
    np.copyto(scores, np.inf, where=invalid)
    scores = scores.reshape(k, m * n_bins)
    best = scores.argmin(axis=1)
    return best, scores[np.arange(k), best]


def _split_level(x: np.ndarray, bins: np.ndarray, n_bins: int, y: np.ndarray,
                 rows: np.ndarray, n_node: np.ndarray, feats: np.ndarray, n_classes: int,
                 min_leaf: int):
    """Splits a pass of searched nodes, whose training rows are `rows`, node by
    node.  Returns each node's feature, threshold, score and whether it split,
    and the children's rows and sizes: each split node's left, then right."""
    best, score = _best_cuts(bins, n_bins, y, rows, feats, n_node, n_classes, min_leaf)
    nd = np.repeat(np.arange(n_node.size), n_node)
    feature = feats[np.arange(n_node.size), best // n_bins]
    # the threshold is the midpoint of a node's largest value in the bins up
    # to its cut and its smallest value above them
    f_rows = feature.take(nd)
    v = x.ravel().take(rows * x.shape[1] + f_rows)
    in_cut = bins.ravel().take(f_rows * bins.shape[1] + rows) <= (best % n_bins).take(nd)
    starts = np.cumsum(n_node) - n_node
    below = np.maximum.reduceat(np.where(in_cut, v, -np.inf), starts)
    above = np.minimum.reduceat(np.where(in_cut, np.inf, v), starts)
    with np.errstate(over="ignore"):  # halve first where the sum overflows
        threshold = below + above
    threshold = np.where(np.isfinite(threshold), threshold / 2.0, below / 2.0 + above / 2.0)
    right = ~(v <= threshold.take(nd))
    n_left = n_node - np.add.reduceat(right, starts)
    split = np.isfinite(score) & (n_left >= min_leaf) & (n_node - n_left >= min_leaf)
    kept = split.take(nd)
    order = np.argsort(2 * nd[kept] + right[kept], kind="stable")
    sizes = np.stack([n_left[split], n_node[split] - n_left[split]], axis=1).ravel()
    return feature, threshold, score, split, rows[kept][order], sizes


def _node_stats(y_rows: np.ndarray, sizes: np.ndarray, n_classes: int):
    """Each node's value (majority class or mean) and impurity (Gini or
    variance), from its rows' targets, node by node, each in sample order."""
    k = sizes.size
    node_of = np.repeat(np.arange(k), sizes)
    if n_classes:
        counts = np.bincount(y_rows * k + node_of, minlength=n_classes * k).reshape(n_classes, k)
        return counts.argmax(axis=0).astype(np.float64), _gini(counts, sizes)
    values = np.bincount(node_of, weights=y_rows, minlength=k) / sizes
    dev = y_rows - values[node_of]
    dev *= dev
    return values, np.bincount(node_of, weights=dev, minlength=k) / sizes


def _grow_group(x: np.ndarray, bins: np.ndarray, y: np.ndarray, n_classes: int,
                cfg: ForestConfig, m_feats: int, rngs: list[np.random.Generator],
                importances: np.ndarray, base: int) -> list[tuple[np.ndarray, ...]]:
    """Grows trees together, a level at a time, numbering nodes from `base`.
    `rows` holds the training rows of the level's nodes, tree by tree, node by
    node, each node's in sample order.  Returns each level's feature, threshold,
    value and first-child arrays, and adds the importance gains tree by tree."""
    n_total, n_feat = x.shape
    n_bins = int(bins.max()) + 1
    pass_nodes = max(1, _PASS_CELLS // (m_feats * n_bins * max(n_classes, 1)))
    pass_rows = _PASS_ENTRIES // m_feats
    rows = np.concatenate([rng.integers(0, n_total, size=n_total) if cfg.bootstrap
                           else np.arange(n_total) for rng in rngs])
    tree, sizes = np.arange(len(rngs)), np.full(len(rngs), n_total)
    levels, gains = [], []
    for depth in range(cfg.max_depth + 1):
        k = sizes.size
        values, impurity = _node_stats(y.take(rows), sizes, n_classes)
        feature, threshold, child = np.full(k, -1), np.zeros(k), np.full(k, -1)
        levels.append((feature, threshold, values, child))
        searched = (sizes >= 2 * cfg.min_leaf) & (impurity != 0.0)
        if depth == cfg.max_depth or not searched.any():
            break
        rows = rows[np.repeat(searched, sizes)]
        searched = np.flatnonzero(searched)
        n_node = sizes[searched]
        # each tree's searched nodes get their feature subsets in one draw
        # from the tree's own generator
        per_tree = np.bincount(tree[searched], minlength=len(rngs)).tolist()
        feats = np.concatenate([rng.random((c, n_feat)) for rng, c in zip(rngs, per_tree) if c])
        feats = np.sort(np.argsort(feats, axis=1)[:, :m_feats], axis=1)
        ends = np.cumsum(n_node)
        # contiguous passes of at least one node, each within both bounds
        parts, first = [], 0
        while first < searched.size:
            lo = ends[first] - n_node[first]
            last = min(first + pass_nodes,
                       max(first + 1, int(np.searchsorted(ends, lo + pass_rows, "right"))))
            parts.append(_split_level(x, bins, n_bins, y, rows[lo:ends[last - 1]],
                                      n_node[first:last], feats[first:last], n_classes,
                                      cfg.min_leaf))
            first = last
        f, t, score, split, next_rows, next_sizes = (np.concatenate(a) for a in zip(*parts))
        at = searched[split]
        feature[at], threshold[at] = f[split], t[split]
        child[at] = base + k + 2 * np.arange(at.size)
        gains.append((tree[at], f[split], (sizes[at] / n_total) * (impurity[at] - score[split])))
        if not at.size:
            break
        base += k
        rows, sizes, tree = next_rows, next_sizes, np.repeat(tree[at], 2)
    if gains:
        tree_of, feature_of, gain = (np.concatenate(a) for a in zip(*gains))
        order = np.argsort(tree_of, kind="stable")
        np.add.at(importances, feature_of[order], gain[order])
    return levels


def fit_forest(train: FeatureSet, cfg: ForestConfig) -> RandomForest:
    """Bootstrap-sampled trees with per-node feature subsampling.

    Raises NumericError when a regression target is so large that the split
    search's squared sums could overflow to inf or NaN."""
    x = train.values
    task = train.target.kind
    if task is TaskKind.CLASSIFICATION:
        y = np.asarray(train.target.values, dtype=np.int64)
        n_classes = train.target.num_classes
        if np.unique(y).size < 2:
            raise ValueError("classification training target has a single class")
    else:
        y = np.asarray(train.target.values, dtype=np.float64)
        n_classes = 0
        # a running sum over a tree's sample of y.size rows, or the difference
        # of two, is at most 2 * y.size * max|y| in magnitude; the scan squares it
        bound = 2.0 * y.size * float(np.max(np.abs(y)))
        if not math.isfinite(bound * bound):
            raise NumericError("the regression target is too large for the split search")
    n_feat = x.shape[1]
    if cfg.max_features is not None:
        m_feats = min(cfg.max_features, n_feat)
    elif task is TaskKind.CLASSIFICATION:
        m_feats = min(math.ceil(math.sqrt(n_feat)), n_feat)
    else:
        m_feats = min(math.ceil(n_feat / 3), n_feat)
    x = np.ascontiguousarray(x)
    bins = _bin_codes(x)
    importances = np.zeros(n_feat, dtype=np.float64)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)]
    group = max(1, _GROUP_ROWS // x.shape[0])
    levels, roots = [], []
    for first in range(0, cfg.n_trees, group):
        base = sum(level[0].size for level in levels)
        roots.append(base + np.arange(len(rngs[first:first + group])))
        levels += _grow_group(x, bins, y, n_classes, cfg, m_feats, rngs[first:first + group],
                              importances, base)
    feature, threshold, value, child = (np.concatenate(a) for a in zip(*levels))
    return RandomForest(np.concatenate(roots), feature, threshold, value, child, task,
                        n_classes, n_feat, importances, cfg)


def predict(forest: RandomForest, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} features, got {x.shape[1]}")
    # every (tree, row) pair descends together, one level per step
    n_rows = x.shape[0]
    node = np.repeat(forest.roots, n_rows)
    row = np.tile(np.arange(n_rows), forest.roots.size)
    live = np.flatnonzero(forest.feature[node] >= 0)
    while live.size:
        at = node[live]
        node[live] = forest.child[at] + ~(x[row[live], forest.feature[at]] <= forest.threshold[at])
        live = live[forest.feature[node[live]] >= 0]
    per_tree = forest.value[node].reshape(forest.roots.size, n_rows)
    if forest.task is TaskKind.CLASSIFICATION:
        # (rows, classes) vote counts; argmax keeps the lowest class on ties
        counts = (per_tree[:, :, None] == np.arange(forest.n_classes)).sum(axis=0)
        return np.argmax(counts, axis=1)
    return per_tree.mean(axis=0)


def feature_importances(forest: RandomForest) -> np.ndarray:
    """Impurity-decrease importances normalized to sum to 1 (uniform when all
    trees are stumps with no splits)."""
    total = forest.importances_raw.sum()
    if total <= 0.0:
        return np.full(forest.n_features, 1.0 / forest.n_features)
    return forest.importances_raw / total


def metric_only(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    metric: MetricKind,
    train_mean: float | None = None,
) -> float:
    """Pure metric arithmetic, exposed for direct testing."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size < 1:
        raise ValueError("predictions must match the target length")
    if metric.task is TaskKind.REGRESSION:
        yt = y_true.astype(np.float64)
        yp = y_pred.astype(np.float64)
        err = np.abs(yt - yp)
        if metric is MetricKind.ONE_MINUS_MAE:
            return 1.0 - float(np.mean(err))
        if metric is MetricKind.ONE_MINUS_MSE:
            return 1.0 - float(np.mean(err * err))
        if metric is MetricKind.ONE_MINUS_RMSE:
            return 1.0 - math.sqrt(float(np.mean(err * err)))
        if train_mean is None:
            raise ValueError("one_minus_rae needs the training-target mean")
        denom = float(np.sum(np.abs(yt - train_mean)))
        num = float(np.sum(err))
        if denom == 0.0:
            return 1.0 if num == 0.0 else 0.0
        return 1.0 - num / denom
    labels = np.unique(np.concatenate([y_true, y_pred])).astype(np.int64)
    precisions, recalls, f1s = [], [], []
    for label in labels:
        tp = int(np.sum((y_pred == label) & (y_true == label)))
        fp = int(np.sum((y_pred == label) & (y_true != label)))
        fn = int(np.sum((y_pred != label) & (y_true == label)))
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    if metric is MetricKind.PRECISION_MACRO:
        return float(np.mean(precisions))
    if metric is MetricKind.RECALL_MACRO:
        return float(np.mean(recalls))
    return float(np.mean(f1s))


def downstream_score(
    fs: FeatureSet,
    split_seed: int,
    metric: MetricKind,
    cfg: ForestConfig,
    ratio: float = 0.8,
) -> float:
    """Hold-out score: split, fit the forest on train, score validation."""
    if metric.task is not fs.target.kind:
        raise ValueError(f"metric {metric.value} incompatible with {fs.target.kind.value} target")
    train, valid = split_train_valid(fs, ratio, split_seed)
    forest = fit_forest(train, cfg)
    y_pred = predict(forest, valid.values)
    train_mean = float(np.mean(np.asarray(train.target.values, dtype=np.float64)))
    return metric_only(valid.target.values, y_pred, metric, train_mean=train_mean)
