"""Independent brute-force reference implementations used to freeze expected
values.  Everything here is deliberately naive and avoids the library's own
code paths."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from raft.dataset import FeatureSet, TaskKind
from raft.evaluator import ForestConfig
from raft.info_metrics import PairwiseDistanceKind
from raft.neural_core import DenseNet, Grads


# ---------------------------------------------------------------------------
# quantiles / discretization
# ---------------------------------------------------------------------------

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


def euclidean_oracle(a, b) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def cosine_oracle(a, b) -> float:
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    return 1.0 - sum(x * y for x, y in zip(a, b)) / (na * nb)


def group_distance_oracle(cols_i, cols_j, mi_to_target_i, mi_to_target_j,
                          kind: PairwiseDistanceKind) -> float:
    dist = euclidean_oracle if kind is PairwiseDistanceKind.EUCLIDEAN else cosine_oracle
    total = 0.0
    for a, ma in zip(cols_i, mi_to_target_i):
        for b, mb in zip(cols_j, mi_to_target_j):
            total += dist(list(a), list(b)) * abs(ma - mb)
    return total / (len(cols_i) * len(cols_j))


# ---------------------------------------------------------------------------
# agglomerative clustering
# ---------------------------------------------------------------------------

def agglomerative_oracle(columns, mi_to_target, kind: PairwiseDistanceKind,
                         threshold: float) -> tuple[tuple[int, ...], ...]:
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
                    kind,
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


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def forest_oracle(fs: FeatureSet, cfg: ForestConfig) -> tuple[list, np.ndarray]:
    """Reference forest: at every node, sort each candidate feature of the
    node's rows on its own (stable argsort) and scan its thresholds one
    feature at a time, with np.var / np.mean / np.cumsum / np.sum on the
    sorted column.  `fit_forest` must match it bit for bit.  Returns
    (trees, raw importances); a tree is nested tuples ("leaf", value) /
    ("split", feature, threshold, left, right)."""
    x = fs.values
    classification = fs.target.kind is TaskKind.CLASSIFICATION
    if classification:
        y = np.asarray(fs.target.values, dtype=np.int64)
        n_classes = int(y.max()) + 1
    else:
        y = np.asarray(fs.target.values, dtype=np.float64)
        n_classes = 0
    n_feat = x.shape[1]
    if cfg.max_features is not None:
        m_feats = min(cfg.max_features, n_feat)
    elif classification:
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
        return ("leaf", float(np.mean(y_node)))

    def best_split(rows, y_node, feats):
        n = rows.size
        lo, hi = cfg.min_leaf - 1, n - cfg.min_leaf - 1
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
        if depth >= cfg.max_depth or rows.size < 2 * cfg.min_leaf or node_imp == 0.0:
            return leaf(y_node)
        feats = np.sort(rng.choice(n_feat, size=m_feats, replace=False))
        best = best_split(rows, y_node, feats)
        if best is None:
            return leaf(y_node)
        feature, threshold, score = best
        mask = x[rows, feature] <= threshold
        left_rows, right_rows = rows[mask], rows[~mask]
        if left_rows.size < cfg.min_leaf or right_rows.size < cfg.min_leaf:
            return leaf(y_node)
        importances[feature] += (rows.size / n_total) * (node_imp - score)
        left = build(left_rows, depth + 1, rng, n_total)
        right = build(right_rows, depth + 1, rng, n_total)
        return ("split", feature, threshold, left, right)

    m = x.shape[0]
    trees = []
    for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(ss)
        rows = rng.integers(0, m, size=m) if cfg.bootstrap else np.arange(m)
        trees.append(build(rows, 0, rng, rows.size))
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


# ---------------------------------------------------------------------------
# finite differences for network gradients
# ---------------------------------------------------------------------------

_PARAM_NAMES = ("w1", "b1", "w2", "b2")


def net_with(net: DenseNet, name: str, array: np.ndarray) -> DenseNet:
    return replace(net, **{name: array})


def numeric_gradients(loss_fn, net: DenseNet, h: float = 1e-5) -> Grads:
    """Central finite differences of loss_fn(net) w.r.t. every parameter."""
    out = {}
    for name in _PARAM_NAMES:
        base = getattr(net, name)
        grad = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = base.copy()
            plus[idx] += h
            minus = base.copy()
            minus[idx] -= h
            grad[idx] = (loss_fn(net_with(net, name, plus))
                         - loss_fn(net_with(net, name, minus))) / (2 * h)
        out[name] = grad
    return Grads(out["w1"], out["b1"], out["w2"], out["b2"])


def assert_grads_close(analytic: Grads, numeric: Grads, rtol: float = 1e-4,
                       atol: float = 1e-6) -> None:
    for name in _PARAM_NAMES:
        a = getattr(analytic, name)
        b = getattr(numeric, name)
        np.testing.assert_allclose(a, b, rtol=rtol, atol=atol,
                                   err_msg=f"gradient mismatch in {name}")


# ---------------------------------------------------------------------------
# small fixtures
# ---------------------------------------------------------------------------

def random_feature_set(rng: np.random.Generator, m: int, n: int,
                       classification: bool = False) -> FeatureSet:
    from raft.dataset import FeatureMeta, Ident, Target, TaskKind

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
