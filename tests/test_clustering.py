import numpy as np
import pytest

from raft import clustering
from raft.clustering import (
    adaptive_cluster,
    cut,
    merge_sequence,
    pair_score_matrix,
)
from raft.info_metrics import MICache
from oracles import (
    agglomerative_oracle,
    euclidean_oracle,
    halving_cluster_oracle,
    mean_linkage_oracle,
    merge_loop_oracle,
    pairwise_distance,
    random_feature_set,
)

def cluster_at(fs, threshold, bins):
    """The clusters of `fs` at one threshold, cut from its merge sequence."""
    return cut(merge_sequence(pair_score_matrix(fs, MICache(bins))), fs.n_cols, threshold)


def test_pair_score_matrix_equals_its_transpose():
    rng = np.random.default_rng(5)
    fs = random_feature_set(rng, 40, 7)
    values = fs.values.copy()
    values[:, 0] = 0.0
    values[:, 1] = 3.5
    values[:, 2] = np.where(values[:, 2] > 0, 1e300, -1e300)
    values[:, 3] *= 1e-5
    scores = pair_score_matrix(fs.with_columns(values, fs.columns), MICache(5))
    assert np.array_equal(scores.view(np.uint64), scores.T.view(np.uint64))


def test_identical_columns_collapse_to_one_cluster():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(20)
    fs = random_feature_set(rng, 20, 3)
    fs = fs.with_columns(np.column_stack([col, col, col]), fs.columns)
    got = cluster_at(fs, threshold=0.5, bins=4)
    assert got == ((0, 1, 2),)


def test_tiny_threshold_keeps_singletons():
    rng = np.random.default_rng(1)
    fs = random_feature_set(rng, 25, 5)
    got = cluster_at(fs, threshold=1e-12, bins=4)
    assert got == ((0,), (1,), (2,), (3,), (4,))


def test_matches_brute_force_oracle_at_median_threshold():
    rng = np.random.default_rng(2)
    fs = random_feature_set(rng, 30, 6)
    bins = 5
    scores = pair_score_matrix(fs, MICache(bins))
    threshold = float(np.median(scores[np.triu_indices(6, k=1)]))
    got = cluster_at(fs, threshold, bins)
    mi_y = MICache(bins).mi(fs.values.T, fs.keys, fs.target)
    cols = [fs.column(i) for i in range(6)]
    want = agglomerative_oracle(cols, mi_y, threshold)
    assert got == want


def test_partition_validity_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        fs = random_feature_set(rng, int(rng.integers(5, 40)), n)
        threshold = float(rng.uniform(0.001, 2.0))
        got = cluster_at(fs, threshold, bins=4)
        flat = sorted(i for g in got for i in g)
        assert flat == list(range(n))  # disjoint and covering
        assert all(g and list(g) == sorted(g) for g in got)  # nonempty, members ascending
        assert [g[0] for g in got] == sorted(g[0] for g in got)  # by smallest member


def test_threshold_monotonicity():
    rng = np.random.default_rng(4)
    for _ in range(15):
        fs = random_feature_set(rng, 20, 6)
        thresholds = sorted(rng.uniform(0.01, 3.0, size=3))
        counts = [len(cluster_at(fs, t, bins=4)) for t in thresholds]
        assert counts == sorted(counts, reverse=True)


def test_permutation_invariance_up_to_relabeling():
    rng = np.random.default_rng(5)
    fs = random_feature_set(rng, 30, 5)
    bins = 4
    scores = pair_score_matrix(fs, MICache(bins))
    upper = scores[np.triu_indices(5, k=1)]
    assert np.unique(upper).size == upper.size  # no exact ties on this fixture
    threshold = float(np.median(upper))
    base = cluster_at(fs, threshold, bins)
    perm = np.array([3, 0, 4, 1, 2])
    fs_p = fs.with_columns(fs.values[:, perm], tuple(fs.columns[i] for i in perm))
    permuted = cluster_at(fs_p, threshold, bins)
    inverse = {int(p): i for i, p in enumerate(perm)}
    relabeled = sorted(tuple(sorted(perm[i] for i in g)) for g in permuted)
    assert relabeled == sorted(tuple(g) for g in base)


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
            assert cut(merges, n, threshold) == merge_loop_oracle(scores, threshold)


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


def test_pair_scores_match_distance_oracle_loop():
    rng = np.random.default_rng(13)
    fs = distance_space(rng)
    bins = 5
    scores = pair_score_matrix(fs, MICache(bins))
    mi_y = MICache(bins).mi(fs.values.T, fs.keys, fs.target)
    np.testing.assert_array_equal(scores, scores.T)
    assert np.all(np.diag(scores) == 0.0)
    for i in range(fs.n_cols):
        for j in range(i + 1, fs.n_cols):
            a, b = fs.column(i), fs.column(j)
            got = pairwise_distance(a, b)
            # the matrix is the same pass as the single pair, bit for bit
            assert scores[i, j] == got * abs(mi_y[i] - mi_y[j])
            assert got == pairwise_distance(b, a)
            assert 0.0 <= got <= np.finfo(np.float64).max
            s = float(max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0))  # the oracle overflows at 1e200
            want = min(s * euclidean_oracle(a / s, b / s), np.finfo(np.float64).max)
            assert got == pytest.approx(want, rel=1e-12)
    assert pairwise_distance(fs.column(0), fs.column(1)) == 0.0


def test_adaptive_cluster_returns_at_least_two_groups_when_possible():
    rng = np.random.default_rng(6)
    for _ in range(10):
        fs = random_feature_set(rng, 20, int(rng.integers(2, 7)))
        got = adaptive_cluster(fs, MICache(4))
        assert len(got) >= 2


def test_adaptive_cluster_identical_columns_fall_back_to_singletons():
    rng = np.random.default_rng(7)
    col = rng.standard_normal(15)
    fs = random_feature_set(rng, 15, 3)
    fs = fs.with_columns(np.column_stack([col, col, col]), fs.columns)
    got = adaptive_cluster(fs, MICache(4))
    assert got == ((0,), (1,), (2,))


def test_adaptive_cluster_single_column():
    rng = np.random.default_rng(8)
    fs = random_feature_set(rng, 15, 1)
    got = adaptive_cluster(fs, MICache(4))
    assert got == ((0,),)



def score_case(rng, kind, n):
    """A symmetric n x n score matrix with a zero diagonal: uniform, all
    equal, equal to within a few ulps, small integers, near 1e307 (its mean
    overflows) or mostly zero."""
    if kind == "random":
        upper = rng.uniform(0.0, 1.0, (n, n))
    elif kind == "equal":
        upper = np.full((n, n), rng.uniform(0.1, 10.0))
    elif kind == "near_equal":
        v = rng.uniform(0.1, 10.0)
        upper = v + v * 2.0**-52 * rng.integers(-3, 4, (n, n))
    elif kind == "integer":
        upper = rng.integers(0, 4, (n, n)).astype(np.float64)
    elif kind == "overflowing":
        upper = rng.uniform(0.5e307, 1.7e307, (n, n))
    else:
        upper = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.1)
    upper = np.triu(upper, 1)
    return upper + upper.T


@pytest.mark.parametrize("kind", ["random", "equal", "near_equal", "integer", "overflowing",
                                  "sparse"])
def test_adaptive_cluster_equals_the_halving_rule(monkeypatch, kind):
    """One cut at the mean gives what halving the threshold up to 12 times
    gave; the equal, near-equal and overflowing cases reach the old rule's
    second round, where it returned singletons."""
    rng = np.random.default_rng(3)
    second_rounds = 0
    for _ in range(150):
        n = int(rng.integers(2, 30))
        scores = score_case(rng, kind, n)
        monkeypatch.setattr(clustering, "pair_score_matrix", lambda fs, cache: scores)
        with np.errstate(over="ignore"):  # the overflowing mean warns
            got = adaptive_cluster(random_feature_set(rng, 4, n), MICache(2))
            want = halving_cluster_oracle(scores)
            mean = float(np.mean(scores[np.triu_indices(n, k=1)]))
            first = cut(merge_sequence(scores), n, mean)
        assert got == want
        if mean > 0.0 and len(first) == 1:
            second_rounds += 1
            assert got == tuple((i,) for i in range(n))
    assert (second_rounds > 0) == (kind in ("equal", "near_equal", "overflowing"))


def test_adaptive_cluster_equals_the_halving_rule_on_feature_sets():
    rng = np.random.default_rng(9)
    for _ in range(40):
        fs = random_feature_set(rng, int(rng.integers(4, 40)), int(rng.integers(2, 12)))
        assert adaptive_cluster(fs, MICache(4)) == halving_cluster_oracle(
            pair_score_matrix(fs, MICache(4)))
