"""Downstream-task utility: an in-house random forest plus task metrics.

Trees use axis-aligned splits with Gini impurity (classification) or variance
(regression), midpoint thresholds, and deterministic tie-breaking by lowest
feature index then lowest threshold.  Determinism per seed is exact: each tree
draws its bootstrap sample and per-node feature subsets from its own spawned
generator.

Split search.  `fit_forest` ranks every column's values once per fit (equal
values share a rank).  A node packs, for each candidate feature, the pair
(rank, position in the node's row list) into one integer and sorts those
integers; the pairs are unique, so the result is exactly the order a stable
argsort of the node's values gives.  All candidates are then scanned in one
pass over a (features, rows) array: running sums along each row are sequential
and row totals pairwise, the same summation order as `np.cumsum` and `np.sum`
on one sorted column.  So every threshold, leaf value and importance is
bit-equal to sorting and scanning one feature at a time.
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


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.add.reduce(p * p))


def _variance(y: np.ndarray) -> float:
    """np.var's arithmetic without its wrapper: mean, centre, square, mean."""
    n = y.size
    if n == 0:
        return 0.0
    d = y - np.add.reduce(y) / n
    return float(np.add.reduce(d * d) / n)


class _TreeBuilder:
    """Grows one tree.  A node is its list of training rows in sample order
    (a bootstrap sample repeats rows).

    `ranks[f, r]` is the rank of x[r, f] among the distinct values of column
    f, so equal values share a rank.  At a node, candidate feature f gives row
    i of the node's list the key (ranks[f, rows[i]], i).  The keys are unique,
    so one plain sort of them orders the node's values exactly as a stable
    argsort of x[rows, f] does, ties by list position."""

    def __init__(self, xt: np.ndarray, ranks: np.ndarray, y: np.ndarray, task: TaskKind,
                 n_classes: int, cfg: ForestConfig, rng: np.random.Generator,
                 importances: np.ndarray) -> None:
        self.xt = xt  # (n_features, n_rows), C-contiguous
        self.ranks = ranks
        self.y = y
        self.task = task
        self.n_classes = n_classes
        self.cfg = cfg
        self.rng = rng
        self.importances = importances
        self.n_total = y.size  # a tree's sample has as many rows as the training set
        n_feat = xt.shape[0]
        if cfg.max_features is not None:
            self.m_feats = min(cfg.max_features, n_feat)
        elif task is TaskKind.CLASSIFICATION:
            self.m_feats = min(math.ceil(math.sqrt(n_feat)), n_feat)
        else:
            self.m_feats = min(math.ceil(n_feat / 3), n_feat)

    def build(self, rows: np.ndarray, depth: int) -> _Node:
        y_node = self.y[rows]
        if depth >= self.cfg.max_depth or rows.size < 2 * self.cfg.min_leaf:
            return self._leaf(y_node)
        node_imp = self._impurity(y_node)
        if node_imp == 0.0:
            return self._leaf(y_node)
        feats = self.rng.choice(self.xt.shape[0], size=self.m_feats, replace=False)
        feats.sort()
        best = self._best_split(rows, y_node, feats)
        if best is None:
            return self._leaf(y_node)
        feature, threshold, score = best
        mask = self.xt[feature, rows] <= threshold
        left_rows = np.compress(mask, rows)
        right_rows = np.compress(~mask, rows)
        if left_rows.size < self.cfg.min_leaf or right_rows.size < self.cfg.min_leaf:
            return self._leaf(y_node)
        self.importances[feature] += (rows.size / self.n_total) * (node_imp - score)
        return _Node(
            feature=feature,
            threshold=threshold,
            left=self.build(left_rows, depth + 1),
            right=self.build(right_rows, depth + 1),
        )

    def _impurity(self, y_node: np.ndarray) -> float:
        if self.task is TaskKind.CLASSIFICATION:
            return _gini(np.bincount(y_node, minlength=self.n_classes))
        return _variance(y_node)

    def _leaf(self, y_node: np.ndarray) -> _Node:
        """Only leaves carry a value; prediction never reads an inner node's."""
        if self.task is TaskKind.CLASSIFICATION:
            return _Node(value=float(np.argmax(np.bincount(y_node, minlength=self.n_classes))))
        return _Node(value=float(np.add.reduce(y_node) / y_node.size))

    def _best_split(self, rows: np.ndarray, y_node: np.ndarray, feats: np.ndarray):
        """Score every threshold of every candidate feature in one pass.  Per
        feature the first minimum wins (thresholds ascend); across features
        the first minimum in ascending index order wins, so a later feature
        replaces an earlier one only when strictly better."""
        n = rows.size
        min_leaf = self.cfg.min_leaf
        # split after position i puts i+1 rows left; both sides >= min_leaf
        # (build only calls with n >= 2 * min_leaf, so hi >= lo)
        lo, hi = min_leaf - 1, n - min_leaf - 1
        bits = n.bit_length()
        keys = (self.ranks[feats[:, None], rows] << bits) | np.arange(n)
        keys.sort(axis=1)
        at = keys & ((1 << bits) - 1)  # (k, n): each candidate's list positions by value
        value_rank = keys >> bits
        valid = (value_rank[:, :-1] < value_rank[:, 1:])[:, lo:hi + 1]
        ys = y_node[at]
        n_left = np.arange(lo + 1, hi + 2, dtype=np.float64)
        n_right = n - n_left
        if self.task is TaskKind.CLASSIFICATION:
            onehot = ys[:, :, None] == np.arange(self.n_classes)
            cum = onehot.cumsum(axis=1, dtype=np.float64)[:, lo:hi + 1]  # exact counts
            total = np.bincount(y_node, minlength=self.n_classes).astype(np.float64)
            gini_l = 1.0 - np.add.reduce((cum / n_left[:, None]) ** 2, axis=2)
            gini_r = 1.0 - np.add.reduce(((total - cum) / n_right[:, None]) ** 2, axis=2)
            scores = (n_left * gini_l + n_right * gini_r) / n
        else:
            # row sums and running sums over each row: the same summation
            # order as np.sum / np.cumsum of one sorted column
            sq = ys * ys
            c1 = ys.cumsum(axis=1)[:, lo:hi + 1]
            c2 = sq.cumsum(axis=1)[:, lo:hi + 1]
            s1 = np.add.reduce(ys, axis=1)[:, None]
            s2 = np.add.reduce(sq, axis=1)[:, None]
            sse_l = c2 - c1 * c1 / n_left
            sse_r = (s2 - c2) - (s1 - c1) ** 2 / n_right
            scores = (sse_l + sse_r) / n
        scores = np.where(valid, scores, np.inf)
        best = None
        for j, score in enumerate(np.minimum.reduce(scores, axis=1).tolist()):
            if math.isfinite(score) and (best is None or score < best[1]):
                best = (j, score)
        if best is None:
            return None
        j, score = best
        i = lo + int(scores[j].argmin())
        below, above = self.xt[feats[j], rows[at[j, i:i + 2]]]
        return int(feats[j]), float((below + above) / 2.0), score


def _value_ranks(xt: np.ndarray) -> np.ndarray:
    """Per row, each entry's rank among the distinct values of its row."""
    at = np.argsort(xt, axis=1)
    xs = np.take_along_axis(xt, at, axis=1)
    new_value = np.ones(xs.shape, dtype=np.int64)
    new_value[:, 1:] = xs[:, 1:] != xs[:, :-1]
    ranks = np.empty_like(at)
    np.put_along_axis(ranks, at, np.cumsum(new_value, axis=1), axis=1)
    return ranks


def fit_forest(train: FeatureSet, cfg: ForestConfig) -> RandomForest:
    """Bootstrap-sampled trees with per-node feature subsampling.

    Raises NumericError when a regression target's sum of squares overflows:
    the split search's squared errors would then be inf or NaN."""
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
        with np.errstate(over="ignore"):
            sum_sq = float(np.dot(y, y))
        if not math.isfinite(sum_sq):
            raise NumericError("the regression target's sum of squares overflows")
    m = x.shape[0]
    xt = np.ascontiguousarray(x.T)
    ranks = _value_ranks(xt)
    importances = np.zeros(x.shape[1], dtype=np.float64)
    trees = []
    for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(ss)
        rows = rng.integers(0, m, size=m) if cfg.bootstrap else np.arange(m)
        builder = _TreeBuilder(xt, ranks, y, task, n_classes, cfg, rng, importances)
        trees.append(builder.build(rows, depth=0))
    return RandomForest(trees, task, n_classes, x.shape[1], importances, cfg)


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
