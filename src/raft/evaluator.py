"""Downstream-task utility: an in-house random forest plus each task's metric.

As in the paper, every space is scored by one random forest of one shape:
N_TREES trees of depth at most MAX_DEPTH, each on a bootstrap sample, with at
least MIN_LEAF rows per leaf and ceil(sqrt(N)) (classification) or ceil(N/3)
(regression) of the N columns drawn at each node.  Only the seed varies.
Trees use axis-aligned splits with Gini impurity (classification) or variance
(regression), midpoint thresholds, and deterministic tie-breaking by lowest
feature index then lowest threshold.  Determinism per seed is exact: each tree
draws its bootstrap sample and its nodes' feature subsets from its own spawned
generator.

Split search.  `fit_forest` puts each column's training values into
min(MAX_BINS, D) bins of whole distinct values, D being their count, so a
column with at most MAX_BINS distinct values keeps every candidate split.  The
training matrix is column-major, so its transpose and the bin codes both hold
a contiguous row per column, read through one flat index per entry.  The
trees grow together, a level at a time, in groups whose level rows fit in
_GROUP_ROWS.  A level's searched nodes draw their feature subsets, one draw
per tree, and are split in contiguous passes within _PASS_ENTRIES (row, drawn
feature) entries and _PASS_CELLS histogram cells (node, drawn feature, bin,
class).  A pass's histogram holds class counts, or row counts and sums of y
and y*y, each bin summed in sample order, y being scaled first by the power
of two that puts max|y| in [0.5, 1): whatever the target's scale, no sum of
squares overflows or underflows, and a split moves by no bit where y stays in
float64's normal range.  Running sums over the bins score every cut; the
row-major first minimum picks each node's split, at the midpoint of its
largest value in the bins up to the cut and its smallest value above them.
Sums over classes run from the lowest class up and importance gains are added
tree by tree, so no bit depends on the groups or the passes, and
`tests/oracles.py` replays every bit in plain loops.  A fitted forest is flat
per-node arrays, and `predict` sends every (tree, row) pair down at once.

Working memory.  `fit_forest` owns one scratch buffer per fit, sized from
_PASS_ENTRIES, _PASS_CELLS and _GROUP_ROWS for the fit's largest stage, and
drops it with the fit.  Every level's node statistics and every pass's
histogram, scores and split lay their arrays over it.  Allocated and freed per
pass, the same arrays were trimmed from the heap and faulted in again at the
next pass, and a module-level buffer would outlive the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dataset import DatasetError, FeatureSet, TaskKind, split_train_valid


class MetricKind(Enum):
    """Each task's one score: macro F1, or 1 - relative absolute error."""

    F1_MACRO = "f1_macro"
    ONE_MINUS_RAE = "one_minus_rae"

    @property
    def task(self) -> TaskKind:
        return TaskKind.CLASSIFICATION if self is MetricKind.F1_MACRO else TaskKind.REGRESSION


def task_metric(task: TaskKind) -> MetricKind:
    return MetricKind.F1_MACRO if task is TaskKind.CLASSIFICATION else MetricKind.ONE_MINUS_RAE


MAX_BINS = 32  # split candidates per column and node: bins of whole distinct values
_PASS_ENTRIES = 2 ** 16  # per split pass: (training row, drawn feature) entries
_PASS_CELLS = 2 ** 15  # per split pass: histogram cells (node, drawn feature, bin, class)
# Kept for tall fits (over 6,553 rows at 10 trees; the benchmark's are one group):
# a default 80,000x4 fit peaks at 7.3 MiB grouped, 37.2 MiB as one group, with
# bit-equal predictions and importances (ROADMAP item 12).
_GROUP_ROWS = 2 ** 16  # per tree group: training rows of one level, over its trees
N_TREES = 10  # trees per forest
MAX_DEPTH = 8  # levels below a tree's root
MIN_LEAF = 2  # training rows per leaf, at least


@dataclass(frozen=True)
class ForestConfig:
    """A forest's seed, the one thing about it that varies: the shape is
    N_TREES, MAX_DEPTH, MIN_LEAF and the task's feature-draw rule."""

    seed: int


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


def _gini(counts, n, out=None, p=None) -> np.ndarray:
    """1 - sum over classes of (count / n)^2, the per-class counts (an array's
    first axis, or any iterable) summed from the lowest class up; written into
    ``out``, with ``p`` for each class's term, when given."""
    classes = iter(counts)
    total = np.divide(next(classes), n, out=out)
    total *= total
    for c in classes:
        p = np.divide(c, n, out=p)
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


class _Scratch:
    """One fit's working memory.  ``fit_forest`` allocates it once, sized for
    the fit's largest stage, and drops it with the fit.  Each stage lays its
    arrays over it from the start: a level's node statistics, and each split
    pass's histogram fill, scoring and split.  The fill and the scoring lay
    the histogram first, so it survives from one to the other.  Passes reuse
    one buffer instead of freeing their temporaries, which the allocator
    would trim from the heap and fault in again at the next pass."""

    def __init__(self, n_rows: int, n_trees: int, n_bins: int, m_feats: int, n_classes: int,
                 y_dtype: np.dtype) -> None:
        self.n_bins, self.m_feats, self.n_classes, self.y_dtype = n_bins, m_feats, n_classes, y_dtype
        self.pass_nodes = max(1, _PASS_CELLS // (m_feats * n_bins * max(n_classes, 1)))
        self.pass_rows = _PASS_ENTRIES // m_feats
        # a level of n_trees trees holds at most their samples and n_trees * 2^depth
        # nodes, and a pass at least one node
        level = n_trees * n_rows
        rows = min(level, max(self.pass_rows, n_rows))
        nodes = min(self.pass_nodes, n_trees << (MAX_DEPTH - 1))
        stages = (self.level(level), self.fill(rows, nodes), self.score(nodes), self.split(rows))
        self._buf = np.empty(max(map(_nbytes, stages)), np.uint8)

    def lay(self, specs: list[tuple[tuple[int, ...], np.dtype]]) -> list[np.ndarray]:
        """Arrays of the given (shape, dtype) over consecutive stretches of the
        buffer from its start, each starting at a multiple of 8 bytes."""
        arrays, at = [], 0
        for shape, dtype in specs:
            arrays.append(np.ndarray(shape, dtype, self._buf, at))
            at += _aligned(arrays[-1].nbytes)
        return arrays

    def level(self, n: int):
        """A level's n rows: their targets and a deviation each."""
        return [((n,), self.y_dtype), ((n,), np.float64)]

    def _hist(self, nodes: int):
        """A pass's histogram over (node, slot, bin) per class, or per count,
        sum of y and sum of y*y."""
        return (self.n_classes or 3, nodes, self.m_feats, self.n_bins), np.float64

    def fill(self, r: int, nodes: int):
        """The histogram, then the pass's r rows' targets, squared targets and
        bins."""
        return [self._hist(nodes), ((r,), self.y_dtype), ((r,), np.float64), ((r,), np.uint8)]

    def score(self, nodes: int):
        """The histogram, then per (node, slot, bin) two masks, and the left and
        right counts, their divisor and three Gini terms, or the squared right
        sums of y."""
        cells = (nodes, self.m_feats, self.n_bins)
        return [self._hist(nodes), ((2, *cells), bool),
                ((6 if self.n_classes else 1, *cells), np.float64)]

    def split(self, r: int):
        """A pass's r rows' values and bins, and whether each is in its cut and
        goes right."""
        return [((r,), np.float64), ((r,), np.uint8), ((r,), bool), ((r,), bool)]


def _aligned(nbytes: int) -> int:
    """``nbytes`` rounded up to a multiple of 8."""
    return -nbytes % 8 + nbytes


def _nbytes(specs: list[tuple[tuple[int, ...], np.dtype]]) -> int:
    """The bytes ``_Scratch.lay`` takes for the arrays of ``specs``."""
    return sum(_aligned(math.prod(shape) * np.dtype(dtype).itemsize) for shape, dtype in specs)


def _best_cuts(bins: np.ndarray, y: np.ndarray, rows: np.ndarray, feats: np.ndarray,
               n_node: np.ndarray, n_classes: int, ws: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Every node's best split from one histogram over (node, slot, bin), the
    slots being the node's drawn features in ascending order.  A split puts
    the bins up to a cut left; per node, the row-major first minimum over
    (slot, cut) wins, which prefers the lower feature, then the lower cut.
    Returns the winning flat (slot, cut) index and its score (inf: none)."""
    k, m = feats.shape
    n_bins = ws.n_bins
    width = k * n_bins
    hist, y_rows, y_sq, codes = ws.lay(ws.fill(rows.size, k))
    # cells (class, node, bin) of one slot; regression sums counts, y and y*y
    cell = np.repeat(np.arange(0, width, n_bins), n_node)
    # mode="clip" lets take write into `out` unbuffered; every index is in range
    y.take(rows, out=y_rows, mode="clip")
    if n_classes:
        y_rows *= width
        cell += y_rows
        weights = (None,)
    else:
        weights = (None, y_rows, np.multiply(y_rows, y_rows, out=y_sq))
    # slot by slot, so that no array holds a (row, slot) entry; a histogram
    # cell's sum runs over its rows in sample order either way
    for j in range(m):
        at = np.repeat(feats[:, j] * bins.shape[1], n_node)
        at += rows
        np.add(cell, bins.ravel().take(at, out=codes, mode="clip"), out=at)
        for h, w in zip(hist.reshape(len(weights), -1, m, n_bins), weights):
            h[:, j] = np.bincount(at, weights=w, minlength=h.shape[0] * n_bins).reshape(-1, n_bins)
    np.cumsum(hist, axis=3, out=hist)
    _, (invalid, mask), terms = ws.lay(ws.score(k))
    # counts are whole numbers, exact as floats, so that no ufunc below casts
    # an operand (numpy casts through a buffer of its own)
    n_node = n_node.astype(np.float64)[:, None, None]
    if n_classes:
        n_left, n_right, div, left, right, p = terms
        np.add.reduce(hist, axis=0, out=n_left)
    else:
        n_left, [d] = hist[0], terms
    np.less(n_left, MIN_LEAF, out=invalid)
    invalid |= np.greater(n_left, n_node - MIN_LEAF, out=mask)
    if n_classes:
        np.subtract(n_node, n_left, out=n_right)
        scores = _gini(hist, np.maximum(n_left, 1, out=div), left, p)
        scores *= n_left
        # n_left is spent: it takes each class's right counts in turn
        right_counts = (np.subtract(h[..., -1:], h, out=n_left) for h in hist)
        right = _gini(right_counts, np.maximum(n_right, 1, out=div), right, p)
        right *= n_right
        scores += right
    else:
        # in place, sse_l + sse_r with sse_l = c2 - c1*c1 / max(nl, 1) and
        # sse_r = (s2 - c2) - (s1 - c1)^2 / max(nr, 1); x / max(n, 1) is x where n is 0
        c1, c2 = hist[1], hist[2]
        np.subtract(c1[..., -1:], c1, out=d)
        d *= d
        c1 *= c1
        np.divide(c1, n_left, out=c1, where=np.greater(n_left, 0, out=mask))
        np.subtract(c2, c1, out=c1)
        n_right = np.subtract(n_node, n_left, out=n_left)
        np.divide(d, n_right, out=d, where=np.greater(n_right, 0, out=mask))
        np.subtract(c2[..., -1:].copy(), c2, out=c2)
        c2 -= d
        c1 += c2
        scores = c1
    scores /= n_node
    np.copyto(scores, np.inf, where=invalid)
    scores = scores.reshape(k, m * n_bins)
    best = scores.argmin(axis=1)
    return best, scores[np.arange(k), best]


def _split_level(x: np.ndarray, bins: np.ndarray, y: np.ndarray, rows: np.ndarray,
                 n_node: np.ndarray, feats: np.ndarray, n_classes: int, ws: _Scratch):
    """Splits a pass of searched nodes, whose training rows are `rows`, node by
    node.  Returns each node's feature, threshold, score and whether it split,
    and the children's rows and sizes: each split node's left, then right."""
    k = n_node.size
    best, score = _best_cuts(bins, y, rows, feats, n_node, n_classes, ws)
    v, codes, in_cut, right = ws.lay(ws.split(rows.size))
    n_bins = ws.n_bins
    feature = feats[np.arange(k), best // n_bins]
    # the threshold is the midpoint of a node's largest value in the bins up
    # to its cut and its smallest value above them
    at = np.repeat(feature * bins.shape[1], n_node)
    at += rows  # x.T and bins both hold a row per column
    x.T.ravel().take(at, out=v, mode="clip")
    cut = np.repeat((best % n_bins).astype(np.uint8), n_node)  # MAX_BINS <= 256
    np.less_equal(bins.ravel().take(at, out=codes, mode="clip"), cut, out=in_cut)
    del at, cut
    starts = np.cumsum(n_node) - n_node
    below = np.maximum.reduceat(np.where(in_cut, v, -np.inf), starts)
    above = np.minimum.reduceat(np.where(in_cut, np.inf, v), starts)
    with np.errstate(over="ignore"):  # halve first where the sum overflows
        threshold = below + above
    threshold = np.where(np.isfinite(threshold), threshold / 2.0, below / 2.0 + above / 2.0)
    np.less_equal(v, np.repeat(threshold, n_node), out=right)
    np.logical_not(right, out=right)
    n_left = n_node - np.add.reduceat(right, starts)
    split = np.isfinite(score) & (n_left >= MIN_LEAF) & (n_node - n_left >= MIN_LEAF)
    sizes = np.stack([n_left[split], n_node[split] - n_left[split]], axis=1).ravel()
    # a row's key is 2 * node + side, and 2 * k + side in an unsplit node,
    # past every kept row's; a pass has at most _PASS_CELLS nodes, so the key
    # fits 16 bits, where numpy's stable sort is a radix sort
    node_key = np.where(split, 2 * np.arange(k), 2 * k).astype(np.min_scalar_type(2 * k + 1))
    key = np.repeat(node_key, n_node)
    key += right
    order = np.argsort(key, kind="stable")[:int(sizes.sum())]
    return feature, threshold, score, split, rows.take(order), sizes


def _node_stats(y: np.ndarray, rows: np.ndarray, sizes: np.ndarray, n_classes: int,
                ws: _Scratch):
    """Each node's value (majority class or mean) and impurity (Gini or
    variance), from its rows' targets, node by node, each in sample order."""
    k = sizes.size
    node_of = np.repeat(np.arange(k), sizes)
    y_rows, dev = ws.lay(ws.level(rows.size))
    y.take(rows, out=y_rows, mode="clip")
    if n_classes:
        y_rows *= k
        y_rows += node_of
        counts = np.bincount(y_rows, minlength=n_classes * k).reshape(n_classes, k)
        return counts.argmax(axis=0).astype(np.float64), _gini(counts, sizes)
    values = np.bincount(node_of, weights=y_rows, minlength=k) / sizes
    np.subtract(y_rows, values.take(node_of, out=dev, mode="clip"), out=dev)
    dev *= dev
    return values, np.bincount(node_of, weights=dev, minlength=k) / sizes


def _grow_group(x: np.ndarray, bins: np.ndarray, y: np.ndarray, n_classes: int,
                m_feats: int, rngs: list[np.random.Generator], importances: np.ndarray,
                base: int, ws: _Scratch) -> list[tuple[np.ndarray, ...]]:
    """Grows trees together, a level at a time, numbering nodes from `base`.
    `rows` holds the training rows of the level's nodes, tree by tree, node by
    node, each node's in sample order.  Returns each level's feature, threshold,
    value and first-child arrays, and adds the importance gains tree by tree."""
    n_total, n_feat = x.shape
    rows = np.concatenate([rng.integers(0, n_total, size=n_total) for rng in rngs])
    tree, sizes = np.arange(len(rngs)), np.full(len(rngs), n_total)
    levels, gains = [], []
    for depth in range(MAX_DEPTH + 1):
        k = sizes.size
        values, impurity = _node_stats(y, rows, sizes, n_classes, ws)
        feature, threshold, child = np.full(k, -1), np.zeros(k), np.full(k, -1)
        levels.append((feature, threshold, values, child))
        searched = (sizes >= 2 * MIN_LEAF) & (impurity != 0.0)
        if depth == MAX_DEPTH or not searched.any():
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
            last = min(first + ws.pass_nodes,
                       max(first + 1, int(np.searchsorted(ends, lo + ws.pass_rows, "right"))))
            parts.append(_split_level(x, bins, y, rows[lo:ends[last - 1]], n_node[first:last],
                                      feats[first:last], n_classes, ws))
            first = last
        # this level's rows go before the next level's are joined, and the
        # passes' parts after
        del rows
        f, t, score, split, rows, next_sizes = (np.concatenate(a) for a in zip(*parts))
        del parts
        at = searched[split]
        feature[at], threshold[at] = f[split], t[split]
        child[at] = base + k + 2 * np.arange(at.size)
        gains.append((tree[at], f[split], (sizes[at] / n_total) * (impurity[at] - score[split])))
        if not at.size:
            break
        base += k
        sizes, tree = next_sizes, np.repeat(tree[at], 2)
    if gains:
        tree_of, feature_of, gain = (np.concatenate(a) for a in zip(*gains))
        order = np.argsort(tree_of, kind="stable")
        np.add.at(importances, feature_of[order], gain[order])
    return levels


def fit_forest(train: FeatureSet, cfg: ForestConfig) -> RandomForest:
    """Bootstrap-sampled trees with per-node feature subsampling.

    Raises DatasetError when a classification sample holds one class (a split
    can leave a lone sample's class out).  A regression forest fits y times
    the power of two 2^-e that puts max|y| in [0.5, 1): its leaf values are
    scaled back by 2^e, and ``importances_raw`` keeps the scaled units, whose
    shares are the same."""
    x = train.values
    task = train.target.kind
    scale = 0  # the exponent e
    if task is TaskKind.CLASSIFICATION:
        y = np.asarray(train.target.values, dtype=np.int64)
        n_classes = train.target.class_counts.size
        if y.min() == y.max():
            raise DatasetError("classification training target has a single class")
    else:
        y = np.asarray(train.target.values, dtype=np.float64)
        scale = _exponent(y)
        y = np.ldexp(y, -scale)
        n_classes = 0
    n_feat = x.shape[1]
    m_feats = math.ceil(math.sqrt(n_feat) if task is TaskKind.CLASSIFICATION else n_feat / 3)
    bins = _bin_codes(x)
    importances = np.zeros(n_feat, dtype=np.float64)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(N_TREES)]
    group = max(1, _GROUP_ROWS // x.shape[0])
    ws = _Scratch(x.shape[0], min(group, N_TREES), int(bins.max()) + 1, m_feats, n_classes,
                  y.dtype)
    levels, roots = [], []
    for first in range(0, N_TREES, group):
        base = sum(level[0].size for level in levels)
        roots.append(base + np.arange(len(rngs[first:first + group])))
        levels += _grow_group(x, bins, y, n_classes, m_feats, rngs[first:first + group],
                              importances, base, ws)
    feature, threshold, value, child = (np.concatenate(a) for a in zip(*levels))
    return RandomForest(np.concatenate(roots), feature, threshold, np.ldexp(value, scale), child,
                        task, n_classes, n_feat, importances)


def _exponent(y: np.ndarray) -> int:
    """The e for which 2^-e puts max|y| in [0.5, 1) (0 where y is all 0)."""
    return math.frexp(float(np.max(np.abs(y))))[1]


def predict(forest: RandomForest, x: np.ndarray) -> np.ndarray:
    """The forest's prediction for each row of a (rows, n_features) float64
    matrix."""
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


def metric_only(y_true: np.ndarray, y_pred: np.ndarray, metric: MetricKind,
                train_mean: float) -> float:
    """Pure metric arithmetic; ``train_mean``, the training target's mean, is
    1 - RAE's baseline prediction and unread by macro F1.  ``y_true`` and
    ``y_pred`` are nonempty vectors of one length."""
    if metric.task is TaskKind.REGRESSION:
        err = np.abs(y_true - y_pred)
        denom = float(np.sum(np.abs(y_true - train_mean)))
        num = float(np.sum(err))
        if denom == 0.0:
            return 1.0 if num == 0.0 else 0.0
        return 1.0 - num / denom
    labels, codes = np.unique(np.concatenate([y_true, y_pred], axis=None), return_inverse=True)
    k, n = labels.size, y_true.size
    # rows are true labels, columns predicted ones, over every label either holds
    confusion = np.bincount(codes[:n] * k + codes[n:], minlength=k * k).reshape(k, k)
    tp = np.diagonal(confusion).astype(np.float64)
    precision = _ratio(tp, confusion.sum(axis=0))
    recall = _ratio(tp, confusion.sum(axis=1))
    return float(np.mean(_ratio(2 * precision * recall, precision + recall)))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den per label, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def downstream_score(
    fs: FeatureSet,
    split_seed: int,
    metric: MetricKind,
    cfg: ForestConfig,
) -> float:
    """Hold-out score: ``split_train_valid``'s training rows fit the forest,
    and the rest score it under ``metric``, the target's ``task_metric``.  A
    regression target is scored times the power of two 2^-e that puts its
    max|y| over all rows in [0.5, 1), the forest's leaf values with it: 1 - RAE
    is a ratio, so its bits do not move where the values stay in float64's
    normal range, and no mean or sum of errors overflows, whatever y's scale."""
    train, valid = split_train_valid(fs, split_seed)
    forest = fit_forest(train, cfg)
    y_true, y_train = valid.target.values, train.target.values
    if metric is MetricKind.ONE_MINUS_RAE:
        scale = _exponent(fs.target.values)
        forest = replace(forest, value=np.ldexp(forest.value, -scale))
        y_true, y_train = np.ldexp(y_true, -scale), np.ldexp(y_train, -scale)
    y_pred = predict(forest, valid.values)
    train_mean = float(np.mean(np.asarray(y_train, dtype=np.float64)))
    return metric_only(y_true, y_pred, metric, train_mean)
