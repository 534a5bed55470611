import math

import numpy as np
import pytest

from raft import evaluator
from raft.dataset import FeatureMeta, FeatureSet, Ident, Target, TaskKind
from raft.evaluator import (
    MAX_BINS,
    ForestConfig,
    MetricKind,
    RandomForest,
    _Node,
    default_metric,
    downstream_score,
    feature_importances,
    fit_forest,
    metric_only,
    predict,
)
from raft.neural_core import NumericError

from oracles import binned_forest_oracle, forest_oracle, forest_predict_oracle


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


# ---------------------------------------------------------------------------
# metric arithmetic
# ---------------------------------------------------------------------------

def test_perfect_regression_metrics_are_one():
    y = np.array([1.0, 2.0, 3.0])
    for metric in (MetricKind.ONE_MINUS_RAE, MetricKind.ONE_MINUS_MAE,
                   MetricKind.ONE_MINUS_MSE, MetricKind.ONE_MINUS_RMSE):
        assert metric_only(y, y, metric, train_mean=2.0) == 1.0


def test_regression_metrics_one_iff_exact():
    y = np.array([1.0, 2.0, 3.0])
    yp = np.array([1.0, 2.0, 3.0 + 1e-6])
    for metric in (MetricKind.ONE_MINUS_RAE, MetricKind.ONE_MINUS_MAE,
                   MetricKind.ONE_MINUS_MSE, MetricKind.ONE_MINUS_RMSE):
        assert metric_only(y, yp, metric, train_mean=2.0) < 1.0


def test_one_minus_rae_mean_prediction_is_zero():
    y = np.array([1.0, 3.0])
    pred = np.array([2.0, 2.0])
    assert metric_only(y, pred, MetricKind.ONE_MINUS_RAE, train_mean=2.0) == 0.0


def test_one_minus_mae_simple():
    assert metric_only(np.array([1.0, 2, 3]), np.array([1.0, 2, 3]),
                       MetricKind.ONE_MINUS_MAE) == 1.0


def test_one_minus_rae_degenerate_normalizer():
    y = np.array([2.0, 2.0])
    assert metric_only(y, y, MetricKind.ONE_MINUS_RAE, train_mean=2.0) == 1.0
    assert metric_only(y, np.array([2.0, 3.0]), MetricKind.ONE_MINUS_RAE,
                       train_mean=2.0) == 0.0


def test_macro_f1_hand_value():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 1])
    # class 0: P=1, R=1/2, F1=2/3; class 1: P=2/3, R=1, F1=4/5
    assert metric_only(y_true, y_pred, MetricKind.F1_MACRO) == pytest.approx(
        (2.0 / 3.0 + 0.8) / 2.0, abs=1e-12)


def test_macro_metrics_from_confusion_matrix():
    # confusion matrix [[2, 1], [0, 3]]: true 0 predicted 0 twice / 1 once, etc.
    y_true = np.array([0, 0, 0, 1, 1, 1])
    y_pred = np.array([0, 0, 1, 1, 1, 1])
    f1 = metric_only(y_true, y_pred, MetricKind.F1_MACRO)
    assert f1 == pytest.approx((0.8 + 6.0 / 7.0) / 2.0, abs=1e-9)  # 0.828571...
    prec = metric_only(y_true, y_pred, MetricKind.PRECISION_MACRO)
    assert prec == pytest.approx((1.0 + 0.75) / 2.0, abs=1e-12)
    rec = metric_only(y_true, y_pred, MetricKind.RECALL_MACRO)
    assert rec == pytest.approx((2.0 / 3.0 + 1.0) / 2.0, abs=1e-12)


def test_macro_metrics_bounded():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = int(rng.integers(2, 40))
        y_true = rng.integers(0, 4, size=m)
        y_pred = rng.integers(0, 4, size=m)
        for metric in (MetricKind.F1_MACRO, MetricKind.PRECISION_MACRO,
                       MetricKind.RECALL_MACRO):
            v = metric_only(y_true, y_pred, metric)
            assert 0.0 <= v <= 1.0


def test_default_metric():
    assert default_metric(TaskKind.CLASSIFICATION) is MetricKind.F1_MACRO
    assert default_metric(TaskKind.REGRESSION) is MetricKind.ONE_MINUS_RAE


# ---------------------------------------------------------------------------
# trees and forests
# ---------------------------------------------------------------------------

def test_single_tree_matches_hand_trace():
    # one feature, clean step at 4.5: the root splits there and both leaves are pure
    x = np.arange(1.0, 11.0)[:, None]
    y = (x[:, 0] >= 5).astype(np.int64)
    fs = clf_set(x, y)
    forest = fit_forest(fs, ForestConfig(n_trees=1, bootstrap=False, max_features=1, seed=0))
    root = forest.trees[0]
    assert root.feature == 0
    assert root.threshold == 4.5
    assert root.left.is_leaf and root.right.is_leaf
    assert root.left.value == 0.0 and root.right.value == 1.0
    np.testing.assert_array_equal(predict(forest, x), y)


def test_tie_break_prefers_lower_feature_index():
    x0 = np.arange(1.0, 11.0)
    x = np.column_stack([x0, x0])  # identical columns: identical best splits
    y = (x0 >= 5).astype(np.int64)
    fs = clf_set(x, y)
    forest = fit_forest(fs, ForestConfig(n_trees=1, bootstrap=False, max_features=2, seed=0))
    assert forest.trees[0].feature == 0


def test_duplicated_column_does_not_change_single_tree_predictions():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 3))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    base = clf_set(x, y)
    dup = clf_set(np.column_stack([x, x[:, 0]]), y)
    cfg = ForestConfig(n_trees=1, bootstrap=False, max_features=4, seed=5)
    p1 = predict(fit_forest(base, cfg), x)
    p2 = predict(fit_forest(dup, cfg), np.column_stack([x, x[:, 0]]))
    np.testing.assert_array_equal(p1, p2)


def test_separable_classes_memorized():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 2)) + 4.0
    b = rng.standard_normal((10, 2)) - 4.0
    x = np.vstack([a, b])
    y = np.array([0] * 10 + [1] * 10, dtype=np.int64)
    fs = clf_set(x, y)
    forest = fit_forest(fs, ForestConfig(n_trees=5, max_depth=4, seed=3))
    np.testing.assert_array_equal(predict(forest, x), y)


def test_constant_target_regression_predicts_constant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 2))
    fs = reg_set(x, np.full(12, 7.5))
    forest = fit_forest(fs, ForestConfig(n_trees=3, seed=4))
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
    forest = fit_forest(fs, ForestConfig(n_trees=2, seed=7))
    np.testing.assert_allclose(feature_importances(forest), [1 / 3] * 3)


@pytest.mark.parametrize("bootstrap", [True, False])
def test_fit_forest_overflow_bound_holds_at_its_edge(bootstrap):
    # just inside the bound the split search runs without an overflow warning
    # (the suite turns RuntimeWarning into an error); just outside it raises
    rng = np.random.default_rng(19)
    x = rng.standard_normal((60, 4))
    y = rng.uniform(1.0, 2.0, 60)  # one sign: running sums reach m * max|y|
    edge = math.sqrt(np.finfo(np.float64).max) / (2 * 60 * float(np.max(np.abs(y))))
    cfg = ForestConfig(n_trees=4, seed=2, bootstrap=bootstrap)
    forest = fit_forest(reg_set(x, y * (edge * 0.999)), cfg)
    assert np.all(np.isfinite(predict(forest, x)))
    with pytest.raises(NumericError):
        fit_forest(reg_set(x, y * (edge * 1.001)), cfg)


def _tree_tuples(node):
    if node.is_leaf:
        return ("leaf", node.value)
    return ("split", node.feature, node.threshold,
            _tree_tuples(node.left), _tree_tuples(node.right))


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
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("max_features", [None, 1, 5])
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_matches_per_feature_oracle_bit_for_bit(classification, min_leaf,
                                                       max_features, bootstrap):
    fs = _tie_heavy_set(classification)
    cfg = ForestConfig(n_trees=4, max_depth=6, min_leaf=min_leaf, seed=3,
                       bootstrap=bootstrap, max_features=max_features)
    forest = fit_forest(fs, cfg)
    trees, importances = binned_forest_oracle(fs, cfg)
    assert [_tree_tuples(t) for t in forest.trees] == trees
    assert forest.importances_raw.tobytes() == importances.tobytes()
    x = np.vstack([fs.values, np.random.default_rng(13).standard_normal((20, 5))])
    np.testing.assert_array_equal(predict(forest, x),
                                  forest_predict_oracle(trees, x, classification))


@pytest.mark.parametrize("min_leaf", [1, 3])
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_is_exact_when_every_value_has_its_own_bin(min_leaf, bootstrap):
    # at most MAX_BINS distinct values per column keeps every candidate split,
    # and with every column drawn at every node the draw order cannot matter
    rng = np.random.default_rng(21)
    x = np.column_stack([rng.integers(0, 30, 90), rng.integers(0, 4, 90) * 0.5,
                         np.round(np.clip(rng.standard_normal(90), -1.5, 1.5), 1),
                         np.full(90, -1.0)])
    assert max(np.unique(col).size for col in x.T) <= MAX_BINS
    y = ((x[:, 0] > 14) + (x[:, 2] > 0.3) + (x[:, 1] == 1.0)).astype(np.int64) % 3
    fs = clf_set(x, y)
    cfg = ForestConfig(n_trees=4, max_depth=6, min_leaf=min_leaf, seed=8,
                       bootstrap=bootstrap, max_features=4)
    trees, _ = forest_oracle(fs, cfg)
    assert [_tree_tuples(t) for t in fit_forest(fs, cfg).trees] == trees


@pytest.mark.parametrize("classification", [False, True])
@pytest.mark.parametrize("min_leaf", [1, 2, 3])
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_bits_do_not_depend_on_the_chunking(monkeypatch, classification, min_leaf,
                                                   bootstrap):
    fs = _tie_heavy_set(classification)
    cfg = ForestConfig(n_trees=6, max_depth=6, min_leaf=min_leaf, seed=4, bootstrap=bootstrap)
    x = np.vstack([fs.values, np.random.default_rng(14).standard_normal((20, 5))])

    def fitted():
        forest = fit_forest(fs, cfg)
        # repr tells every float bit pattern apart, -0.0 from 0.0 too
        return (repr([_tree_tuples(t) for t in forest.trees]),
                forest.importances_raw.tobytes(), predict(forest, x).tobytes())

    # by default the six trees grow as one group (120 rows x 3 drawn features)
    assert fs.n_rows * 3 * cfg.n_trees <= evaluator._CHUNK_CELLS
    want = fitted()
    # one node per pass and one tree per group; a few of each; everything at once
    for cells in (1, 2 ** 10, 2 ** 40):
        monkeypatch.setattr(evaluator, "_CHUNK_CELLS", cells)
        assert fitted() == want


@pytest.mark.parametrize("classification", [False, True])
@pytest.mark.parametrize("cells", [None, 2 ** 11, 2 ** 8])
def test_split_passes_stay_within_the_chunk_bound(monkeypatch, classification, cells):
    if cells is not None:
        monkeypatch.setattr(evaluator, "_CHUNK_CELLS", cells)
    bound = evaluator._CHUNK_CELLS
    fs = _tie_heavy_set(classification)
    calls = []
    best_cuts = evaluator._best_cuts

    def spy(bins, n_bins, rows, y_rows, nd, feats, n_node, n_classes, min_leaf):
        calls.append((*feats.shape, n_bins * max(n_classes, 1), rows.size))
        return best_cuts(bins, n_bins, rows, y_rows, nd, feats, n_node, n_classes, min_leaf)

    monkeypatch.setattr(evaluator, "_best_cuts", spy)
    fit_forest(fs, ForestConfig(n_trees=10, max_depth=8, min_leaf=1, seed=5))
    for nodes, m, cells_per_feature, n_rows in calls:
        # the histogram: (node, drawn feature, bin, class) cells
        assert nodes == 1 or nodes * m * cells_per_feature <= bound
        # the (row, drawn feature) entries; one tree's level has at most
        # fs.n_rows rows, so more than that means several trees
        assert n_rows <= fs.n_rows or n_rows * m <= bound
    many_nodes = any(nodes > 1 for nodes, *_ in calls)
    many_trees = any(n_rows > fs.n_rows for *_, n_rows in calls)
    assert many_nodes == (cells != 2 ** 8 or not classification)
    assert many_trees == (cells != 2 ** 8)


def test_split_between_huge_values_is_finite():
    # (below + above) / 2 overflows here; halving first keeps the split
    x = np.linspace(1.5e308, 1.75e308, 20)[:, None]
    y = (np.arange(20) >= 10).astype(np.int64)
    cfg = ForestConfig(n_trees=1, bootstrap=False, max_features=1, seed=0)
    forest = fit_forest(clf_set(x, y), cfg)
    root = forest.trees[0]
    assert root.threshold == x[9, 0] / 2.0 + x[10, 0] / 2.0
    assert x[9, 0] < root.threshold < x[10, 0]
    assert root.left.value == 0.0 and root.right.value == 1.0
    np.testing.assert_array_equal(predict(forest, x), y)


def test_classification_vote_tie_goes_to_lowest_class():
    def stump(left, right):
        return _Node(feature=0, threshold=0.0, left=_Node(value=left), right=_Node(value=right))

    # row 0 (x <= 0) gets votes 2, 0, 2, 0: a tie, won by class 0;
    # row 1 (x > 0) gets votes 1, 2, 2, 1 and ties at class 1
    trees = [stump(2.0, 1.0), stump(0.0, 2.0), stump(2.0, 2.0), stump(0.0, 1.0)]
    forest = RandomForest(trees, TaskKind.CLASSIFICATION, 3, 1, np.zeros(1), ForestConfig())
    out = predict(forest, np.array([[-1.0], [1.0], [0.0]]))
    np.testing.assert_array_equal(out, [0, 1, 0])
    assert out.dtype == np.int64


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


def test_downstream_score_metric_task_mismatch():
    rng = np.random.default_rng(9)
    fs = reg_set(rng.standard_normal((20, 2)), rng.standard_normal(20))
    with pytest.raises(ValueError, match="incompatible"):
        downstream_score(fs, 0, MetricKind.F1_MACRO, ForestConfig())


def test_downstream_score_constant_target_rejected_at_ingestion_level():
    # a constant regression target yields 1-MAE of 1.0 (every tree predicts it)
    rng = np.random.default_rng(10)
    fs = reg_set(rng.standard_normal((20, 2)), np.full(20, 3.0))
    score = downstream_score(fs, 1, MetricKind.ONE_MINUS_MAE, ForestConfig(seed=2))
    assert score == 1.0
