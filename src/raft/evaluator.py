"""Downstream-task utility: an in-house random forest plus task metrics.

Trees use axis-aligned splits with Gini impurity (classification) or variance
(regression), midpoint thresholds, and deterministic tie-breaking by lowest
feature index then lowest threshold.  Determinism per seed is exact: each tree
draws its bootstrap sample and its nodes' feature subsets from its own spawned
generator.

Split search (histograms, trees grown together level by level).  `fit_forest`
ranks every column's training values once per fit and puts a column with D
distinct values into min(MAX_BINS, D) bins of whole distinct values, so a
column with at most MAX_BINS distinct values keeps every candidate split.
Consecutive trees grow as one group, as many as fit in _CHUNK_CELLS (training
row, drawn feature) entries and at least one, a level at a time.  Per level,
each tree gives its searched nodes their feature subsets in one draw, in
breadth-first order, and the group's searched nodes go to the split search in
contiguous runs of at most _CHUNK_CELLS histogram cells (node, drawn feature,
bin, class) and at least one node.  One `np.bincount` builds a run's histogram
of class counts, or of row counts and sums of y and y*y, each bin summed in
sample order.  Running sums over the bins score every cut, and the row-major
first minimum picks each node's split.  The threshold is the midpoint between
the node's largest value in the bins up to the cut and its smallest value
above them.  Sums over classes run from the lowest class up, node means and
variances are sums in sample order, and importance gains are added tree by
tree, so no bit depends on the grouping, and `tests/oracles.py` can replay
every bit in plain loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
_CHUNK_CELLS = 2 ** 14  # per split pass: histogram cells; per tree group: (row, feature) entries


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 10
    max_depth: int = 8
    min_leaf: int = 2
    seed: int = 0
    bootstrap: bool = True
    max_features: int | None = None  # None: ceil(sqrt(N)) clf / ceil(N/3) reg


@dataclass
class _Node:
    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class RandomForest:
    trees: list[_Node]
    task: TaskKind
    n_classes: int
    n_features: int
    importances_raw: np.ndarray
    cfg: ForestConfig


def _gini(counts: np.ndarray, n) -> np.ndarray:
    """1 - sum over classes of (counts / n)^2, for class counts along the first
    axis, the classes summed in order."""
    p = counts[0] / n
    total = p * p
    for c in range(1, counts.shape[0]):
        p = counts[c] / n
        total = total + p * p
    return 1.0 - total


def _value_ranks(xt: np.ndarray) -> np.ndarray:
    """Per row, each entry's rank among the distinct values of its row."""
    at = np.argsort(xt, axis=1)
    xs = np.take_along_axis(xt, at, axis=1)
    new_value = np.ones(xs.shape, dtype=np.int64)
    new_value[:, 1:] = xs[:, 1:] != xs[:, :-1]
    ranks = np.empty_like(at)
    np.put_along_axis(ranks, at, np.cumsum(new_value, axis=1), axis=1)
    return ranks


def _bin_codes(xt: np.ndarray) -> np.ndarray:
    """Per row, each entry's bin: a row with D distinct values has min(MAX_BINS, D)
    bins of whole distinct values, rank r falling in bin (r - 1) * bins // D."""
    ranks = _value_ranks(xt)
    distinct = ranks.max(axis=1, keepdims=True)
    return (ranks - 1) * np.minimum(distinct, MAX_BINS) // distinct


def _best_cuts(bins: np.ndarray, n_bins: int, rows: np.ndarray, y_rows: np.ndarray,
               nd: np.ndarray, feats: np.ndarray, n_node: np.ndarray, n_classes: int,
               min_leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Every node's best split from one histogram over (node, slot, bin), the
    slots being the node's drawn features in ascending order.  A split puts
    the bins up to a cut left; per node, the row-major first minimum over
    (slot, cut) wins, which prefers the lower feature, then the lower cut.
    Returns the winning flat (slot, cut) index and its score (inf: none)."""
    k, m = feats.shape
    shape = (k, m, n_bins)
    g = k * m * n_bins
    cell = ((nd * m)[:, None] + np.arange(m)) * n_bins + bins[feats[nd], rows[:, None]]
    n_node = n_node[:, None, None]
    # a pass may hold _CHUNK_CELLS (row, slot) entries and as many histogram
    # cells: each large array is dropped once used, to bound the peak memory
    if n_classes:
        cell += (y_rows * g)[:, None]
        hist = np.bincount(cell.ravel(), minlength=n_classes * g)
        del cell
        cum = hist.reshape((n_classes,) + shape).cumsum(axis=3)  # exact counts
        del hist
        n_left = cum.sum(axis=0)
        n_right = n_node - n_left
        gini_l = _gini(cum, np.maximum(n_left, 1))
        gini_r = _gini(cum[..., -1:] - cum, np.maximum(n_right, 1))
        scores = (n_left * gini_l + n_right * gini_r) / n_node
    else:
        # per-bin sums in sample order, then running sums over the bins
        cell = cell.ravel()
        y_rows = np.repeat(y_rows, m)
        n_left = np.bincount(cell, minlength=g).reshape(shape).cumsum(axis=2)
        c1 = np.bincount(cell, weights=y_rows, minlength=g).reshape(shape).cumsum(axis=2)
        c2 = np.bincount(cell, weights=y_rows * y_rows, minlength=g).reshape(shape).cumsum(axis=2)
        del cell, y_rows
        n_right = n_node - n_left
        d = c1[..., -1:] - c1
        sse_l = c2 - c1 * c1 / np.maximum(n_left, 1)
        sse_r = (c2[..., -1:] - c2) - d * d / np.maximum(n_right, 1)
        scores = (sse_l + sse_r) / n_node
    scores = np.where((n_left >= min_leaf) & (n_right >= min_leaf), scores, np.inf)
    scores = scores.reshape(k, m * n_bins)
    best = scores.argmin(axis=1)
    return best, scores[np.arange(k), best]


def _midpoints(below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """(below + above) / 2, halving first where the sum overflows."""
    with np.errstate(over="ignore"):
        total = below + above
    return np.where(np.isfinite(total), total / 2.0, below / 2.0 + above / 2.0)


def _split_level(xt: np.ndarray, bins: np.ndarray, n_bins: int, rows: np.ndarray,
                 y_rows: np.ndarray, node_of: np.ndarray, sizes: np.ndarray,
                 searched: np.ndarray, feats: np.ndarray, n_classes: int, min_leaf: int):
    """Splits a run of a level's searched nodes.  `rows`, `y_rows` and
    `node_of` cover the run's nodes and any unsearched ones between them;
    `sizes` covers the whole level.  Returns {node: (feature, threshold,
    score)} for the nodes that split, and their children's rows and sizes:
    each split node's left rows, then its right rows."""
    local = np.full(sizes.size, -1)
    local[searched] = np.arange(searched.size)
    nd = local[node_of]
    at = np.flatnonzero(nd >= 0)
    nd, r = nd[at], rows[at]
    best, score = _best_cuts(bins, n_bins, r, y_rows[at], nd, feats, sizes[searched],
                             n_classes, min_leaf)
    feature = feats[np.arange(searched.size), best // n_bins]
    # the threshold is the midpoint of a node's largest value in the bins up
    # to its cut and its smallest value above them
    f_rows = feature[nd]
    v = xt[f_rows, r]
    in_cut = bins[f_rows, r] <= (best % n_bins)[nd]
    starts = np.concatenate(([0], np.cumsum(sizes[searched])[:-1]))
    threshold = _midpoints(np.maximum.reduceat(np.where(in_cut, v, -np.inf), starts),
                           np.minimum.reduceat(np.where(in_cut, np.inf, v), starts))
    left = v <= threshold[nd]
    n_left = np.bincount(nd[left], minlength=searched.size)
    keep = np.isfinite(score) & (n_left >= min_leaf) & (sizes[searched] - n_left >= min_leaf)
    splits = dict(zip(searched[keep].tolist(), zip(
        feature[keep].tolist(), threshold[keep].tolist(), score[keep].tolist())))
    kept = keep[nd]
    child = 2 * (np.cumsum(keep) - 1)[nd[kept]] + ~left[kept]
    return (splits, r[kept][np.argsort(child, kind="stable")],
            np.bincount(child, minlength=2 * len(splits)))


def _grow_group(xt: np.ndarray, bins: np.ndarray, y: np.ndarray, n_classes: int,
                cfg: ForestConfig, m_feats: int, rngs: list[np.random.Generator],
                importances: np.ndarray) -> list[_Node]:
    """Grows consecutive trees together, a level at a time.  `rows` holds the
    training rows of the level's nodes, tree by tree, node by node, and each
    node's in sample order.  Importance gains are added tree by tree."""
    n_feat, n_total = xt.shape
    n_bins = int(bins.max()) + 1
    run_nodes = max(1, _CHUNK_CELLS // (m_feats * n_bins * max(n_classes, 1)))
    roots = [_Node() for _ in rngs]
    gains: list[list[tuple[int, float]]] = [[] for _ in rngs]
    rows = np.concatenate([rng.integers(0, n_total, size=n_total) if cfg.bootstrap
                           else np.arange(n_total) for rng in rngs])
    nodes, tree_of, sizes = roots, np.arange(len(rngs)), np.full(len(rngs), n_total)
    for depth in range(cfg.max_depth + 1):
        k = len(nodes)
        node_of = np.repeat(np.arange(k), sizes)
        y_rows = y[rows]
        if n_classes:
            counts = np.bincount(y_rows * k + node_of, minlength=n_classes * k)
            counts = counts.reshape(n_classes, k)
            impurity = _gini(counts, sizes)
            values = counts.argmax(axis=0).astype(np.float64)
        else:
            values = np.bincount(node_of, weights=y_rows, minlength=k) / sizes
            dev = y_rows - values[node_of]
            impurity = np.bincount(node_of, weights=dev * dev, minlength=k) / sizes
        searched = np.flatnonzero((sizes >= 2 * cfg.min_leaf) & (impurity != 0.0))
        splits = {}
        if depth < cfg.max_depth and searched.size:
            # each tree's searched nodes get their feature subsets in one draw
            # from the tree's own generator
            per_tree = np.bincount(tree_of[searched], minlength=len(rngs)).tolist()
            feats = np.concatenate([np.argsort(rng.random((c, n_feat)), axis=1)[:, :m_feats]
                                    for rng, c in zip(rngs, per_tree) if c])
            feats.sort(axis=1)
            ends = np.cumsum(sizes)
            next_rows, next_sizes = [], []
            for i in range(0, searched.size, run_nodes):
                run = searched[i:i + run_nodes]
                lo, hi = ends[run[0]] - sizes[run[0]], ends[run[-1]]
                run_splits, run_rows, run_sizes = _split_level(
                    xt, bins, n_bins, rows[lo:hi], y_rows[lo:hi], node_of[lo:hi], sizes, run,
                    feats[i:i + run_nodes], n_classes, cfg.min_leaf)
                splits.update(run_splits)
                next_rows.append(run_rows)
                next_sizes.append(run_sizes)
        next_nodes = []
        for j, (node, t, size, imp, value) in enumerate(zip(
                nodes, tree_of.tolist(), sizes.tolist(), impurity.tolist(), values.tolist())):
            if j not in splits:
                node.value = value  # only leaves carry a value
                continue
            node.feature, node.threshold, score = splits[j]
            gains[t].append((node.feature, (size / n_total) * (imp - score)))
            node.left, node.right = _Node(), _Node()
            next_nodes += (node.left, node.right)
        if not next_nodes:
            break
        nodes, tree_of = next_nodes, np.repeat(tree_of[sorted(splits)], 2)
        rows, sizes = np.concatenate(next_rows), np.concatenate(next_sizes)
    for tree_gains in gains:
        for f, gain in tree_gains:
            importances[f] += gain
    return roots


def fit_forest(train: FeatureSet, cfg: ForestConfig) -> RandomForest:
    """Bootstrap-sampled trees with per-node feature subsampling.

    Raises NumericError when a regression target is so large that the split
    search's squared sums could overflow to inf or NaN."""
    x = train.values
    task = train.target.kind
    if task is TaskKind.CLASSIFICATION:
        y = np.asarray(train.target.values, dtype=np.int64)
        n_classes = int(y.max()) + 1
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
    xt = np.ascontiguousarray(x.T)
    bins = _bin_codes(xt)
    importances = np.zeros(n_feat, dtype=np.float64)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)]
    group = max(1, _CHUNK_CELLS // (x.shape[0] * m_feats))
    trees = [tree for first in range(0, cfg.n_trees, group)
             for tree in _grow_group(xt, bins, y, n_classes, cfg, m_feats,
                                     rngs[first:first + group], importances)]
    return RandomForest(trees, task, n_classes, n_feat, importances, cfg)


def _predict_tree(node: _Node, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0], dtype=np.float64)
    stack = [(node, np.arange(x.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        mask = x[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[mask]))
        stack.append((nd.right, idx[~mask]))
    return out


def predict(forest: RandomForest, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} features, got {x.shape[1]}")
    per_tree = np.stack([_predict_tree(t, x) for t in forest.trees])
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
