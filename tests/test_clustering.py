import numpy as np
import pytest

from raft.clustering import (
    ClusterSet,
    adaptive_cluster,
    cluster_columns,
    cut,
    merge_sequence,
    pair_score_matrix,
)
from raft.info_metrics import MICache, PairwiseDistanceKind, mutual_information, pairwise_distance
from oracles import (
    agglomerative_oracle,
    cosine_oracle,
    euclidean_oracle,
    mean_linkage_oracle,
    merge_loop_oracle,
    random_feature_set,
)

EUC = PairwiseDistanceKind.EUCLIDEAN
COS = PairwiseDistanceKind.COSINE


def cluster_at(fs, kind, threshold, bins):
    """The clusters of `fs` at one threshold, cut from its merge sequence."""
    return cut(merge_sequence(pair_score_matrix(fs, kind, MICache(bins))), fs.n_cols, threshold)


def test_identical_columns_collapse_to_one_cluster():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(20)
    fs = random_feature_set(rng, 20, 3)
    fs = fs.with_columns(np.column_stack([col, col, col]), fs.columns)
    got = cluster_at(fs, EUC, threshold=0.5, bins=4)
    assert got.groups == ((0, 1, 2),)


def test_tiny_threshold_keeps_singletons():
    rng = np.random.default_rng(1)
    fs = random_feature_set(rng, 25, 5)
    got = cluster_at(fs, EUC, threshold=1e-12, bins=4)
    assert got.groups == ((0,), (1,), (2,), (3,), (4,))


@pytest.mark.parametrize("kind", [EUC, COS])
def test_matches_brute_force_oracle_at_median_threshold(kind):
    rng = np.random.default_rng(2)
    fs = random_feature_set(rng, 30, 6)
    bins = 5
    scores = pair_score_matrix(fs, kind, MICache(bins))
    threshold = float(np.median(scores[np.triu_indices(6, k=1)]))
    got = cluster_at(fs, kind, threshold, bins)
    y = np.asarray(fs.target.values, dtype=float)
    mi_y = [mutual_information(fs.column(i), y, bins) for i in range(6)]
    cols = [fs.column(i) for i in range(6)]
    want = agglomerative_oracle(cols, mi_y, kind, threshold)
    assert got.groups == want


def test_partition_validity_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        fs = random_feature_set(rng, int(rng.integers(5, 40)), n)
        threshold = float(rng.uniform(0.001, 2.0))
        got = cluster_at(fs, EUC, threshold, bins=4)
        flat = sorted(i for g in got.groups for i in g)
        assert flat == list(range(n))


def test_threshold_monotonicity():
    rng = np.random.default_rng(4)
    for _ in range(15):
        fs = random_feature_set(rng, 20, 6)
        thresholds = sorted(rng.uniform(0.01, 3.0, size=3))
        counts = [len(cluster_at(fs, EUC, t, bins=4)) for t in thresholds]
        assert counts == sorted(counts, reverse=True)


def test_permutation_invariance_up_to_relabeling():
    rng = np.random.default_rng(5)
    fs = random_feature_set(rng, 30, 5)
    bins = 4
    scores = pair_score_matrix(fs, EUC, MICache(bins))
    upper = scores[np.triu_indices(5, k=1)]
    assert np.unique(upper).size == upper.size  # no exact ties on this fixture
    threshold = float(np.median(upper))
    base = cluster_at(fs, EUC, threshold, bins)
    perm = np.array([3, 0, 4, 1, 2])
    fs_p = fs.with_columns(fs.values[:, perm], tuple(fs.columns[i] for i in perm))
    permuted = cluster_at(fs_p, EUC, threshold, bins)
    inverse = {int(p): i for i, p in enumerate(perm)}
    relabeled = sorted(tuple(sorted(perm[i] for i in g)) for g in permuted.groups)
    assert relabeled == sorted(tuple(g) for g in base.groups)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 30])
def test_cut_matches_merge_loop_oracle(n):
    # random scores, and small integers whose many ties exercise the
    # first-minimum tie-break and the strict < at a threshold equal to a score
    rng = np.random.default_rng(100 + n)
    for values in (rng.random((n, n)), rng.integers(0, 4, size=(n, n)).astype(float)):
        scores = np.triu(values, k=1)
        scores = scores + scores.T
        merges = merge_sequence(scores)
        upper = scores[np.triu_indices(n, k=1)]
        thresholds = [*np.quantile(upper, [0.1, 0.5, 0.9]), float(upper[-1]), float(upper.max()) + 1]
        for threshold in thresholds:
            assert cut(merges, n, threshold).groups == merge_loop_oracle(scores, threshold)


@pytest.mark.parametrize("n", [2, 3, 8, 21, 40])
def test_merge_heights_are_mean_member_scores(n):
    # integer scores sum exactly, so the running sums give np.mean's bits;
    # random floats are summed in another order, within a few ulps
    rng = np.random.default_rng(300 + n)
    for exact, values in ((True, rng.integers(0, 5, size=(n, n)).astype(float)),
                          (False, rng.random((n, n)))):
        scores = np.triu(values, k=1)
        scores = scores + scores.T
        merges = merge_sequence(scores)
        want = mean_linkage_oracle(scores)
        assert [(a, b) for _, a, b in merges] == [(a, b) for _, a, b in want]
        assert len(merges) == n - 1
        for (height, _, _), (mean, _, _) in zip(merges, want):
            if exact:
                assert height == mean
            else:
                assert height == pytest.approx(mean, rel=1e-15, abs=0.0)


def distance_space(rng, m=40):
    """Columns that stress the row pass: an identical pair, a near-duplicate
    pair, a +-1e200 column, an all-zero column, a discrete one, and two
    +-1e308 columns whose difference overflows."""
    base = rng.standard_normal(m)
    huge = 1e200 * rng.choice([-1.0, 1.0], size=m)
    top = 1e308 * rng.choice([-1.0, 1.0], size=m)
    cols = [base, base.copy(), base + 1e-9 * rng.standard_normal(m), huge,
            np.zeros(m), np.round(rng.standard_normal(m) * 2.0), rng.standard_normal(m) * 50.0,
            top, -top]
    fs = random_feature_set(rng, m, len(cols), classification=True)
    return fs.with_columns(np.column_stack(cols), fs.columns)


@pytest.mark.parametrize("kind", [EUC, COS])
def test_pair_scores_match_distance_oracle_loop(kind):
    rng = np.random.default_rng(13)
    fs = distance_space(rng)
    bins = 5
    scores = pair_score_matrix(fs, kind, MICache(bins))
    y = np.asarray(fs.target.values, dtype=float)
    mi_y = [mutual_information(fs.column(i), y, bins) for i in range(fs.n_cols)]
    np.testing.assert_array_equal(scores, scores.T)
    assert np.all(np.diag(scores) == 0.0)
    for i in range(fs.n_cols):
        for j in range(i + 1, fs.n_cols):
            a, b = fs.column(i), fs.column(j)
            got = pairwise_distance(a, b, kind)
            # the matrix is the same pass as the single pair, bit for bit
            assert scores[i, j] == got * abs(mi_y[i] - mi_y[j])
            assert got == pairwise_distance(b, a, kind)
            assert 0.0 <= got <= np.finfo(np.float64).max
            if kind is EUC:
                s = float(max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0))  # the oracle overflows at 1e200
                want = min(s * euclidean_oracle(a / s, b / s), np.finfo(np.float64).max)
                assert got == pytest.approx(want, rel=1e-12)
            else:
                # scale-invariant, so the oracle sees each operand at unit size;
                # 1 - cos cancels near cos = 1 in any implementation: ulp(1) absolute
                sa, sb = (max(np.max(np.abs(v)), 1.0) for v in (a, b))
                assert got == pytest.approx(cosine_oracle(a / sa, b / sb), rel=1e-12, abs=1e-15)
    assert pairwise_distance(fs.column(0), fs.column(1), kind) == 0.0
    if kind is COS:
        assert pairwise_distance(fs.column(4), fs.column(0), kind) == 1.0


def test_cluster_set_rejects_bad_partition():
    with pytest.raises(ValueError):
        ClusterSet(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        ClusterSet(((0, 2),))
    with pytest.raises(ValueError):
        ClusterSet(((1, 0),))


def test_adaptive_cluster_returns_at_least_two_groups_when_possible():
    rng = np.random.default_rng(6)
    for _ in range(10):
        fs = random_feature_set(rng, 20, int(rng.integers(2, 7)))
        got = adaptive_cluster(fs, EUC, delta=1.0, cache=MICache(4))
        assert len(got) >= 2


def test_adaptive_cluster_identical_columns_fall_back_to_singletons():
    rng = np.random.default_rng(7)
    col = rng.standard_normal(15)
    fs = random_feature_set(rng, 15, 3)
    fs = fs.with_columns(np.column_stack([col, col, col]), fs.columns)
    got = adaptive_cluster(fs, EUC, delta=1.0, cache=MICache(4))
    assert got.groups == ((0,), (1,), (2,))


def test_adaptive_cluster_single_column():
    rng = np.random.default_rng(8)
    fs = random_feature_set(rng, 15, 1)
    got = adaptive_cluster(fs, EUC, delta=1.0, cache=MICache(4))
    assert got.groups == ((0,),)


# ---------------------------------------------------------------------------
# cluster_columns
# ---------------------------------------------------------------------------

def test_cluster_columns_single():
    rng = np.random.default_rng(9)
    fs = random_feature_set(rng, 10, 3)
    view = cluster_columns(fs, (0,))
    assert view.n_cols == 1
    assert view.columns[0] is fs.columns[0]
    np.testing.assert_array_equal(view.values[:, 0], fs.values[:, 0])


def test_cluster_columns_preserves_order():
    rng = np.random.default_rng(10)
    fs = random_feature_set(rng, 10, 3)
    view = cluster_columns(fs, (0, 2))
    assert view.names() == [fs.columns[0].name, fs.columns[2].name]


def test_cluster_columns_empty_rejected():
    rng = np.random.default_rng(11)
    fs = random_feature_set(rng, 10, 3)
    with pytest.raises(ValueError):
        cluster_columns(fs, ())


def test_cluster_columns_out_of_range():
    rng = np.random.default_rng(12)
    fs = random_feature_set(rng, 10, 3)
    with pytest.raises(IndexError):
        cluster_columns(fs, (0, 7))
