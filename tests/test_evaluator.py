import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raft import evaluator
from raft.dataset import FeatureMeta, FeatureSet, Ident, Target, TaskKind
from raft.evaluator import (
    MAX_BINS,
    N_TREES,
    ForestConfig,
    MetricKind,
    RandomForest,
    downstream_score,
    feature_importances,
    fit_forest,
    metric_only,
    predict,
    task_metric,
)
from raft.state_repr import EncoderKind, StateEncoder
from raft.synthetic import product_sign_classification
from oracles import (binned_forest_oracle, classification_metric_oracle, forest_oracle,
                     forest_predict_oracle, random_feature_set)


def clf_set(values, labels):
    values = np.asarray(values, dtype=float)
    cols = tuple(FeatureMeta.from_lineage(Ident(f"x{i}")) for i in range(values.shape[1]))
    return FeatureSet(values, cols,
                      Target(np.asarray(labels, dtype=np.int64), TaskKind.CLASSIFICATION, "y"))


def reg_set(values, target):
    values = np.asarray(values, dtype=float)
    cols = tuple(FeatureMeta.from_lineage(Ident(f"x{i}")) for i in range(values.shape[1]))
    return FeatureSet(values, cols,
                      Target(np.asarray(target, dtype=float), TaskKind.REGRESSION, "y"))


def macro_f1(y_true, y_pred):
    """``metric_only``'s macro F1, which reads no training-target mean."""
    return metric_only(y_true, y_pred, MetricKind.F1_MACRO, 0.0)


# ---------------------------------------------------------------------------
# metric arithmetic
# ---------------------------------------------------------------------------

def test_perfect_regression_metrics_are_one():
    y = np.array([1.0, 2.0, 3.0])
    assert metric_only(y, y, MetricKind.ONE_MINUS_RAE, train_mean=2.0) == 1.0


def test_regression_metrics_one_iff_exact():
    y = np.array([1.0, 2.0, 3.0])
    yp = np.array([1.0, 2.0, 3.0 + 1e-6])
    assert metric_only(y, yp, MetricKind.ONE_MINUS_RAE, train_mean=2.0) < 1.0


def test_one_minus_rae_mean_prediction_is_zero():
    y = np.array([1.0, 3.0])
    pred = np.array([2.0, 2.0])
    assert metric_only(y, pred, MetricKind.ONE_MINUS_RAE, train_mean=2.0) == 0.0


def test_one_minus_rae_degenerate_normalizer():
    y = np.array([2.0, 2.0])
    assert metric_only(y, y, MetricKind.ONE_MINUS_RAE, train_mean=2.0) == 1.0
    assert metric_only(y, np.array([2.0, 3.0]), MetricKind.ONE_MINUS_RAE,
                       train_mean=2.0) == 0.0


def test_macro_f1_hand_value():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 1])
    # class 0: P=1, R=1/2, F1=2/3; class 1: P=2/3, R=1, F1=4/5
    assert macro_f1(y_true, y_pred) == pytest.approx(
        (2.0 / 3.0 + 0.8) / 2.0, abs=1e-12)


def test_macro_metrics_from_confusion_matrix():
    # confusion matrix [[2, 1], [0, 3]]: true 0 predicted 0 twice / 1 once, etc.
    y_true = np.array([0, 0, 0, 1, 1, 1])
    y_pred = np.array([0, 0, 1, 1, 1, 1])
    f1 = macro_f1(y_true, y_pred)
    assert f1 == pytest.approx((0.8 + 6.0 / 7.0) / 2.0, abs=1e-9)  # 0.828571...


def test_macro_metrics_bounded():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = int(rng.integers(2, 40))
        y_true = rng.integers(0, 4, size=m)
        y_pred = rng.integers(0, 4, size=m)
        assert 0.0 <= macro_f1(y_true, y_pred) <= 1.0


@st.composite
def label_pairs(draw):
    """(y_true, y_pred) integer labels; y_pred may hold labels y_true lacks."""
    m = draw(st.integers(1, 40))
    true_labels = st.integers(-3, 3)
    y_true = draw(st.lists(true_labels, min_size=m, max_size=m))
    y_pred = draw(st.lists(st.one_of(true_labels, st.integers(4, 9)), min_size=m, max_size=m))
    return np.array(y_true), np.array(y_pred)


@given(label_pairs())
@settings(max_examples=300, deadline=None)
def test_macro_metrics_match_the_per_label_oracle_bit_for_bit(pair):
    y_true, y_pred = pair
    got = macro_f1(y_true, y_pred)
    assert repr(got) == repr(classification_metric_oracle(y_true, y_pred))


def test_task_metric():
    assert task_metric(TaskKind.CLASSIFICATION) is MetricKind.F1_MACRO
    assert task_metric(TaskKind.REGRESSION) is MetricKind.ONE_MINUS_RAE
    assert {kind.value: kind.task for kind in MetricKind} == {
        "f1_macro": TaskKind.CLASSIFICATION, "one_minus_rae": TaskKind.REGRESSION}


# ---------------------------------------------------------------------------
# trees and forests
# ---------------------------------------------------------------------------

def test_every_tree_matches_a_hand_trace():
    # two values, one per class: at seed 0 every bootstrap sample holds both
    # classes twice or more, so each root splits at 0.5 into two pure leaves
    x = np.repeat([0.0, 1.0], 10)[:, None]
    y = x[:, 0].astype(np.int64)
    forest = fit_forest(clf_set(x, y), ForestConfig(seed=0))
    assert _tree_tuples(forest) == [("split", 0, 0.5, ("leaf", 0.0), ("leaf", 1.0))] * N_TREES
    np.testing.assert_array_equal(predict(forest, x), y)


def test_tie_break_prefers_lower_feature_index():
    x0 = np.arange(1.0, 21.0)
    x = np.column_stack([x0, x0])  # identical columns, both drawn: identical best splits
    y = (x0 >= 9).astype(np.int64)
    forest = fit_forest(clf_set(x, y), ForestConfig(seed=0))
    split = forest.feature[forest.feature >= 0]
    assert split.size and not split.any()


def test_a_duplicated_lone_column_does_not_change_the_forest():
    # both columns are drawn at every node, and the lower index wins each tie
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 1))
    y = (x[:, 0] + 0.5 * rng.standard_normal(30) > 0).astype(np.int64)
    one = fit_forest(clf_set(x, y), ForestConfig(seed=5))
    two = fit_forest(clf_set(np.column_stack([x, x]), y), ForestConfig(seed=5))
    assert _tree_tuples(one) == _tree_tuples(two)
    np.testing.assert_array_equal(predict(one, x), predict(two, np.column_stack([x, x])))


def test_separable_classes_memorized():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 2)) + 4.0
    b = rng.standard_normal((10, 2)) - 4.0
    x = np.vstack([a, b])
    y = np.array([0] * 10 + [1] * 10, dtype=np.int64)
    fs = clf_set(x, y)
    forest = fit_forest(fs, ForestConfig(seed=3))
    np.testing.assert_array_equal(predict(forest, x), y)


def test_constant_target_regression_predicts_constant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 2))
    fs = reg_set(x, np.full(12, 7.5))
    forest = fit_forest(fs, ForestConfig(seed=4))
    np.testing.assert_allclose(predict(forest, x), 7.5, rtol=0, atol=0)


def test_single_class_training_rejected():
    x = np.arange(8.0)[:, None]
    fs = clf_set(x, np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError, match="single class"):
        fit_forest(fs, ForestConfig(seed=0))


def test_forest_deterministic_per_seed():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 4))
    y = rng.standard_normal(40)
    fs = reg_set(x, y)
    f1 = fit_forest(fs, ForestConfig(seed=9))
    f2 = fit_forest(fs, ForestConfig(seed=9))
    np.testing.assert_array_equal(predict(f1, x), predict(f2, x))
    np.testing.assert_array_equal(f1.importances_raw, f2.importances_raw)


def test_importances_normalized():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 5))
    y = x[:, 2] * 3.0 + 0.1 * rng.standard_normal(50)
    fs = reg_set(x, y)
    forest = fit_forest(fs, ForestConfig(seed=6))
    shares = feature_importances(forest)
    assert shares.sum() == pytest.approx(1.0, abs=1e-9)
    assert int(np.argmax(shares)) == 2  # the informative column dominates


def test_importances_uniform_when_no_splits():
    x = np.ones((6, 3))
    x[0, 0] = 2.0  # keep matrix finite-variance but target constant
    fs = reg_set(x, np.full(6, 1.0))
    forest = fit_forest(fs, ForestConfig(seed=7))
    np.testing.assert_allclose(feature_importances(forest), [1 / 3] * 3)


def test_a_target_scaled_by_a_power_of_two_makes_the_same_splits():
    # a fit scales y to max|y| in [0.5, 1) first, so y * 2^k fits the same
    # trees with leaf values times 2^k, where the split search's squares
    # would overflow (k = 1000) or underflow to a stump (k = -1000)
    rng = np.random.default_rng(19)
    x = rng.standard_normal((60, 4))
    y = rng.uniform(1.0, 2.0, 60)
    cfg = ForestConfig(seed=2)
    base = fit_forest(reg_set(x, y), cfg)
    assert np.count_nonzero(base.feature >= 0) > N_TREES
    for k in (-1000, -600, 0, 600, 1000):
        forest = fit_forest(reg_set(x, np.ldexp(y, k)), cfg)
        for name in ("roots", "feature", "threshold", "child", "importances_raw"):
            assert np.array_equal(getattr(forest, name), getattr(base, name)), (k, name)
        assert np.array_equal(forest.value, np.ldexp(base.value, k))
        assert np.array_equal(predict(forest, x), np.ldexp(predict(base, x), k))


def test_a_target_scaled_by_a_power_of_two_scores_the_same_bits():
    # 1 - RAE is scored in the forest's power-of-two units, so its mean and
    # error sums do not overflow even where max|y| is near float64's maximum
    # (k = 1019, max|y| 4.9e307), and the ratio's bits stay y's where y stays normal
    rng = np.random.default_rng(19)
    x = rng.standard_normal((60, 4))
    y = x[:, 0] ** 2 + rng.uniform(1.0, 2.0, 60)
    cfg = ForestConfig(seed=2)
    base = downstream_score(reg_set(x, y), 5, MetricKind.ONE_MINUS_RAE, cfg)
    assert 0.0 < base < 1.0
    for k in (-1000, -600, -1, 1, 10, 600, 1000, 1019):
        got = downstream_score(reg_set(x, np.ldexp(y, k)), 5, MetricKind.ONE_MINUS_RAE, cfg)
        assert got.hex() == base.hex(), k


def _tree_tuples(forest):
    """Each tree as nested tuples, in the oracles' form, read from the flat
    node arrays."""
    def walk(i):
        if forest.feature[i] < 0:
            return ("leaf", float(forest.value[i]))
        return ("split", int(forest.feature[i]), float(forest.threshold[i]),
                walk(forest.child[i]), walk(forest.child[i] + 1))

    return [walk(root) for root in forest.roots]


def _tie_heavy_set(classification):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((120, 5))
    x[:, 0] = np.round(x[:, 0])      # few distinct values: long runs of ties
    x[:, 1] = np.round(x[:, 1], 1)   # 39 distinct values: bins of one or two
    x[:, 3] = np.round(3 * x[:, 3], 2)  # 112 distinct values, some tied
    x[:, 4] = 2.5                    # constant column: never splittable
    if classification:
        # 9 classes: from 8 classes up numpy sums a class axis pairwise
        y = (np.round(2 * x[:, 0]) + 3 * (x[:, 2] > 0) + (x[:, 3] > 0)).astype(np.int64) % 9
        return clf_set(x, y)
    return reg_set(x, np.round(x[:, 0] * x[:, 1] + x[:, 3], 1))


@pytest.mark.parametrize("classification", [False, True])
def test_forest_matches_per_feature_oracle_bit_for_bit(classification):
    fs = _tie_heavy_set(classification)
    forest = fit_forest(fs, ForestConfig(seed=3))
    trees, importances = binned_forest_oracle(fs, 3)
    assert _tree_tuples(forest) == trees
    assert forest.importances_raw.tobytes() == importances.tobytes()
    x = np.vstack([fs.values, np.random.default_rng(13).standard_normal((20, 5))])
    np.testing.assert_array_equal(predict(forest, x),
                                  forest_predict_oracle(trees, x, classification))


def test_forest_is_exact_when_every_value_has_its_own_bin():
    # at most MAX_BINS distinct values per column keeps every candidate split,
    # and with ceil(sqrt(2)) = 2 columns drawn at every node the draw order
    # cannot matter
    rng = np.random.default_rng(21)
    x = np.column_stack([rng.integers(0, 30, 90),
                         np.round(np.clip(rng.standard_normal(90), -1.5, 1.5), 1)])
    assert max(np.unique(col).size for col in x.T) <= MAX_BINS
    y = ((x[:, 0] > 14) + (x[:, 1] > 0.3) + (x[:, 0] % 4 == 1)).astype(np.int64) % 3
    fs = clf_set(x, y)
    trees, _ = forest_oracle(fs, 8)
    assert _tree_tuples(fit_forest(fs, ForestConfig(seed=8))) == trees


_BOUNDS = ("_PASS_ENTRIES", "_PASS_CELLS", "_GROUP_ROWS")


@pytest.mark.parametrize("classification", [False, True])
def test_forest_bits_do_not_depend_on_the_chunking(monkeypatch, classification):
    fs = _tie_heavy_set(classification)
    cfg = ForestConfig(seed=4)
    x = np.vstack([fs.values, np.random.default_rng(14).standard_normal((20, 5))])

    def fitted():
        forest = fit_forest(fs, cfg)
        # repr tells every float bit pattern apart, -0.0 from 0.0 too
        return (repr(_tree_tuples(forest)), forest.importances_raw.tobytes(),
                predict(forest, x).tobytes())

    # by default the trees grow as one group, and a level's nodes fit in one
    # pass (120 rows x at most 3 drawn features each)
    assert fs.n_rows * N_TREES <= evaluator._GROUP_ROWS
    assert fs.n_rows * 3 * N_TREES <= evaluator._PASS_ENTRIES
    want = fitted()
    # one node per pass and one tree per group; a few nodes per pass; everything at once
    for bound in (1, 2 ** 10, 2 ** 40):
        for name in _BOUNDS:
            monkeypatch.setattr(evaluator, name, bound)
        assert fitted() == want


def _passes(monkeypatch, fs, cfg):
    """(nodes, drawn features, cells per node and feature, rows) of every
    `_best_cuts` call of one fit, and the tree count of every group."""
    calls, groups = [], []
    best_cuts, grow_group = evaluator._best_cuts, evaluator._grow_group

    def spy_cuts(bins, y, rows, feats, n_node, n_classes, ws):
        calls.append((*feats.shape, ws.n_bins * max(n_classes, 1), rows.size))
        return best_cuts(bins, y, rows, feats, n_node, n_classes, ws)

    def spy_group(x, bins, y, n_classes, m_feats, rngs, importances, base, ws):
        groups.append(len(rngs))
        return grow_group(x, bins, y, n_classes, m_feats, rngs, importances, base, ws)

    monkeypatch.setattr(evaluator, "_best_cuts", spy_cuts)
    monkeypatch.setattr(evaluator, "_grow_group", spy_group)
    fit_forest(fs, cfg)
    monkeypatch.setattr(evaluator, "_best_cuts", best_cuts)
    monkeypatch.setattr(evaluator, "_grow_group", grow_group)
    return calls, groups


@pytest.mark.parametrize("classification", [False, True])
@pytest.mark.parametrize("cells", [None, 2 ** 11, 2 ** 8])
def test_split_passes_stay_within_the_chunk_bound(monkeypatch, classification, cells):
    fs = _tie_heavy_set(classification)
    cfg = ForestConfig(seed=5)
    default_calls, default_groups = _passes(monkeypatch, fs, cfg)
    if cells is not None:
        for name in _BOUNDS:
            monkeypatch.setattr(evaluator, name, cells)
    calls, groups = _passes(monkeypatch, fs, cfg)
    for nodes, m, cells_per_feature, n_rows in calls:
        # the histogram: (node, drawn feature, bin, class) cells
        assert nodes == 1 or nodes * m * cells_per_feature <= evaluator._PASS_CELLS
        # the (row, drawn feature) entries
        assert nodes == 1 or n_rows * m <= evaluator._PASS_ENTRIES
    # a group's level holds at most its trees' bootstrap samples
    assert all(trees == 1 or trees * fs.n_rows <= evaluator._GROUP_ROWS for trees in groups)
    assert default_groups == [N_TREES]
    assert groups == ([2] * 5 if cells == 2 ** 8 else [N_TREES])
    # one tree's level has at most fs.n_rows rows, so more than that means
    # several trees in one pass; 2^8 cells hold less than one classifying node
    many_nodes = any(nodes > 1 for nodes, *_ in calls)
    many_trees = any(n_rows > fs.n_rows for *_, n_rows in calls)
    assert many_nodes == many_trees == (cells != 2 ** 8 or not classification)
    assert len(calls) > len(default_calls) if cells else calls == default_calls


def test_split_between_huge_values_is_finite():
    # (below + above) / 2 overflows here; halving first keeps the split
    below, above = 1.5e308, 1.75e308
    x = np.repeat([below, above], 10)[:, None]
    y = (x[:, 0] == above).astype(np.int64)
    forest = fit_forest(clf_set(x, y), ForestConfig(seed=0))
    threshold = below / 2.0 + above / 2.0
    assert below < threshold < above
    assert _tree_tuples(forest) == [("split", 0, threshold, ("leaf", 0.0), ("leaf", 1.0))] * N_TREES
    np.testing.assert_array_equal(predict(forest, x), y)


def test_classification_vote_tie_goes_to_lowest_class():
    # four stumps: roots 0-3 split x <= 0.0, leaves 4-11 hold their votes;
    # row 0 (x <= 0) gets votes 2, 0, 2, 0: a tie, won by class 0;
    # row 1 (x > 0) gets votes 1, 2, 2, 1 and ties at class 1
    leaves = [2.0, 1.0, 0.0, 2.0, 2.0, 2.0, 0.0, 1.0]
    forest = RandomForest(np.arange(4), np.array([0] * 4 + [-1] * 8), np.zeros(12),
                          np.array([0.0] * 4 + leaves), np.array([4, 6, 8, 10] + [-1] * 8),
                          TaskKind.CLASSIFICATION, 3, 1, np.zeros(1))
    out = predict(forest, np.array([[-1.0], [1.0], [0.0]]))
    np.testing.assert_array_equal(out, [0, 1, 0])
    assert out.dtype == np.int64


def _forest_of(trees, n_features, n_classes=0):
    """The oracles' nested-tuple trees as one flat forest, breadth first, with
    the roots first; n_classes 0 makes a regression forest."""
    nodes, feature, threshold, value, child = list(trees), [], [], [], []
    for node in nodes:  # children are appended as their parents are read
        split = node[0] == "split"
        feature.append(node[1] if split else -1)
        threshold.append(node[2] if split else 0.0)
        value.append(0.0 if split else node[1])
        child.append(len(nodes) if split else -1)
        if split:
            nodes += [node[3], node[4]]
    task = TaskKind.CLASSIFICATION if n_classes else TaskKind.REGRESSION
    return RandomForest(np.arange(len(trees)), np.array(feature), np.array(threshold),
                        np.array(value), np.array(child), task, n_classes, n_features,
                        np.zeros(n_features))


def test_predict_on_root_leaf_trees_matches_the_oracle():
    x = np.random.default_rng(15).standard_normal((30, 3))
    forest = fit_forest(reg_set(x, np.full(30, -2.25)), ForestConfig(seed=1))
    trees = _tree_tuples(forest)
    assert trees == [("leaf", -2.25)] * N_TREES
    np.testing.assert_array_equal(predict(forest, x), forest_predict_oracle(trees, x, False))
    votes = [("leaf", 1.0), ("leaf", 0.0), ("leaf", 1.0)]
    np.testing.assert_array_equal(predict(_forest_of(votes, 3, n_classes=2), x),
                                  forest_predict_oracle(votes, x, True))


@pytest.mark.parametrize("n_classes", [0, 3])
def test_predict_on_trees_of_unequal_depth_matches_the_oracle(n_classes):
    deep = ("split", 1, 0.5,
            ("split", 0, -1.0, ("leaf", 2.0),
             ("split", 2, 0.25, ("leaf", 0.0), ("split", 0, 1.0, ("leaf", 1.0), ("leaf", 2.0)))),
            ("leaf", 1.0))
    trees = [("leaf", 1.0), ("split", 0, 0.0, ("leaf", 0.0), ("leaf", 2.0)), deep,
             ("split", 2, -0.5, deep, ("leaf", 0.0))]
    forest = _forest_of(trees, 3, n_classes)
    assert _tree_tuples(forest) == trees
    x = np.random.default_rng(16).standard_normal((300, 3))
    np.testing.assert_array_equal(predict(forest, x),
                                  forest_predict_oracle(trees, x, n_classes > 0))


@pytest.mark.parametrize("classification", [False, True])
def test_predict_at_a_threshold_and_one_ulp_either_side_matches_the_oracle(classification):
    fs = _tie_heavy_set(classification)
    forest = fit_forest(fs, ForestConfig(seed=6))
    trees = _tree_tuples(forest)
    rows = []
    for i, (f, t) in enumerate(zip(forest.feature, forest.threshold)):
        if f < 0:
            continue
        for value in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)):
            row = fs.values[i % fs.n_rows].copy()
            row[f] = value
            rows.append(row)
    x = np.array(rows)
    np.testing.assert_array_equal(predict(forest, x),
                                  forest_predict_oracle(trees, x, classification))
    # a row equal to a threshold goes left, one ulp above it goes right
    stump = _forest_of([("split", 0, 0.75, ("leaf", -1.0), ("leaf", 1.0))], 1)
    np.testing.assert_array_equal(
        predict(stump, np.array([[np.nextafter(0.75, 0.0)], [0.75], [np.nextafter(0.75, 1.0)]])),
        [-1.0, -1.0, 1.0])


@pytest.mark.parametrize("classification", [False, True])
def test_a_nan_entry_goes_right_as_in_the_oracle(classification):
    fs = _tie_heavy_set(classification)
    forest = fit_forest(fs, ForestConfig(seed=7))
    x = np.vstack([fs.values[:40]] * 2)
    x[np.arange(80), np.arange(80) % 5] = np.nan  # one NaN entry per row
    np.testing.assert_array_equal(predict(forest, x),
                                  forest_predict_oracle(_tree_tuples(forest), x, classification))
    stump = _forest_of([("split", 0, 0.0, ("leaf", -1.0), ("leaf", 1.0))], 2)
    np.testing.assert_array_equal(predict(stump, np.array([[np.nan, 0.0], [-np.inf, np.nan]])),
                                  [1.0, -1.0])


def _tall_regression_set():
    """The shape of the benchmark's regression spaces: 1600 training rows, 16
    columns, y = (x0 + x1)^2 + noise."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal((1600, 16))
    return reg_set(x, (x[:, 0] + x[:, 1]) ** 2 + 0.1 * rng.standard_normal(1600))


def _wide_classification_set():
    """The shape of the benchmark's wide classification spaces: 400 training
    rows, 24 columns, label = [x0 * x1 + x2 > 0]."""
    return product_sign_classification(400, 24, 18)


def test_a_tall_regression_fit_makes_at_most_three_split_passes_per_level(monkeypatch):
    passes = []
    node_stats, best_cuts = evaluator._node_stats, evaluator._best_cuts

    def spy_stats(*args):
        passes.append(0)  # once per level, before its passes
        return node_stats(*args)

    def spy_cuts(*args):
        passes[-1] += 1
        return best_cuts(*args)

    monkeypatch.setattr(evaluator, "_node_stats", spy_stats)
    monkeypatch.setattr(evaluator, "_best_cuts", spy_cuts)
    fit_forest(_tall_regression_set(), ForestConfig(seed=0))
    # one group of all ten trees: levels 0-7 are searched, level 8 is not
    assert len(passes) == 9 and passes[-1] == 0
    assert 1 <= min(passes[:-1]) and max(passes) <= 3


# measured 1595 and 1249 KiB with numpy 2.4.6; the bounds left 10% headroom
# over 1635 and 1182 KiB, measured before each fit had one scratch buffer
@pytest.mark.parametrize("make, bound_kib", [(_tall_regression_set, 1800),
                                             (_wide_classification_set, 1300)])
def test_one_fit_stays_within_its_memory_bound(make, bound_kib):
    # numpy reports its array buffers to tracemalloc
    fs = make()
    fit_forest(fs, ForestConfig(seed=0))
    tracemalloc.start()
    try:
        fit_forest(fs, ForestConfig(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_kib * 1024


# measured 755 KiB with numpy 2.4.6, with and without per-call epoch arrays
# in the AE and the GAE (they never lowered it); the bound leaves 10% headroom
def test_one_encoder_miss_stays_within_its_memory_bound():
    fs = random_feature_set(np.random.default_rng(0), 1000, 32)
    StateEncoder(EncoderKind.ALL, 20, 0).encode(fs)
    tracemalloc.start()
    try:
        StateEncoder(EncoderKind.ALL, 20, 0).encode(fs)  # a new encoder misses
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 830 * 1024


# ---------------------------------------------------------------------------
# downstream_score
# ---------------------------------------------------------------------------

def test_downstream_score_reproducible():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 4))
    y = x[:, 0] - x[:, 1] + 0.1 * rng.standard_normal(60)
    fs = reg_set(x, y)
    cfg = ForestConfig(seed=11)
    a = downstream_score(fs, split_seed=3, metric=MetricKind.ONE_MINUS_RAE, cfg=cfg)
    b = downstream_score(fs, split_seed=3, metric=MetricKind.ONE_MINUS_RAE, cfg=cfg)
    assert a == b


def test_downstream_score_constant_target_rejected_at_ingestion_level():
    # a constant regression target yields 1-RAE of 1.0 (every tree predicts it)
    rng = np.random.default_rng(10)
    fs = reg_set(rng.standard_normal((20, 2)), np.full(20, 3.0))
    score = downstream_score(fs, 1, MetricKind.ONE_MINUS_RAE, ForestConfig(seed=2))
    assert score == 1.0
