import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raft.dataset import (
    DatasetError,
    FeatureMeta,
    FeatureSet,
    Ident,
    Target,
    TaskKind,
    content_hash,
    discretize,
)
from raft import info_metrics
from raft.info_metrics import (
    Labels,
    MICache,
    PairwiseDistanceKind,
    as_labels,
    feature_set_quality,
    mutual_information,
    pairwise_distance,
)
from oracles import (
    cosine_oracle,
    count_mi_oracle,
    euclidean_oracle,
    mi_oracle,
    per_column_labels_oracle,
    plugin_mi_oracle,
    quality_oracle,
    scalar_quality_oracle,
)

EUC = PairwiseDistanceKind.EUCLIDEAN
COS = PairwiseDistanceKind.COSINE


def make_fs(values, target_values, kind=TaskKind.REGRESSION):
    values = np.asarray(values, dtype=float)
    cols = tuple(FeatureMeta.from_lineage(Ident(f"c{i}")) for i in range(values.shape[1]))
    return FeatureSet(values, cols, Target(np.asarray(target_values), kind, "y"))


# ---------------------------------------------------------------------------
# mutual_information
# ---------------------------------------------------------------------------

def test_mi_identical_binary_vectors_is_ln2():
    x = np.array([0.0, 0, 1, 1])
    assert mutual_information(x, x, bins=4) == pytest.approx(math.log(2), abs=1e-12)


def test_mi_constant_vector_is_zero():
    assert mutual_information(np.array([3.0, 3, 3, 3]), np.array([0.0, 1, 2, 3]), 4) == 0.0


def test_mi_independent_uniform_joint_is_zero():
    x = np.array([0.0, 0, 1, 1])
    y = np.array([0.0, 1, 0, 1])
    assert mutual_information(x, y, 4) == 0.0


def test_mi_length_mismatch():
    with pytest.raises(ValueError):
        mutual_information(np.array([1.0, 2]), np.array([1.0, 2, 3]), 2)


def test_mi_symmetry_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(2, 60))
        y = rng.standard_normal(x.size)
        assert mutual_information(x, y, 5) == mutual_information(y, x, 5)


@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=2, max_value=40))
@settings(max_examples=40, deadline=None)
def test_mi_self_dominates_cross(seed, m):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, size=m).astype(float)
    y = rng.integers(0, 4, size=m).astype(float)
    bins = 4
    assert mutual_information(x, x, bins) >= mutual_information(x, y, bins) - 1e-12


def test_mi_matches_oracle_on_discrete_pairs():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = int(rng.integers(2, 100))
        x = rng.integers(0, 6, size=m).astype(float)
        y = rng.integers(0, 6, size=m).astype(float)
        got = mutual_information(x, y, bins=8)
        want = mi_oracle(list(x.astype(int)), list(y.astype(int)))
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_integer_valued_column_with_inf_is_rejected(bad):
    # inf == floor(inf), so an infinite entry passes the integer-valued test
    with pytest.raises(ValueError, match="column must be finite"):
        mutual_information(np.array([bad, 1, 2, 1]), np.array([0, 1, 0, 1]), 4)
    with pytest.raises(ValueError, match="column must be finite"):
        mutual_information(np.array([0.0, 1, 0, 1]), np.array([1, bad, 2, 1]), 4)
    mat = np.column_stack([[0.0, 1, 2, 1], [bad, 1, 2, 1]])
    with pytest.raises(ValueError, match="column must be finite"):
        as_labels(mat, 4)
    with pytest.raises(ValueError, match="column must be finite"):
        MICache(4).labels(mat, [content_hash(col) for col in mat.T])


def test_as_labels_discrete_passthrough_and_binning():
    np.testing.assert_array_equal(as_labels(np.array([5.0, 7, 5, 9]), 2), [0, 1, 0, 2])
    cont = np.linspace(0.0, 1.0, 30) ** 2
    np.testing.assert_array_equal(as_labels(cont, 3), discretize(cont, 3))


def test_mi_cache_hits_are_consistent():
    cache = MICache(5)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    lx, ly = (cache.labels(v, (content_hash(v),)) for v in (x, y))
    assert cache.pair_mi([(lx, ly)]) == [mutual_information(x, y, 5)]
    assert cache.pair_mi([(ly, lx)]) == cache.pair_mi([(lx, ly)])


# ---------------------------------------------------------------------------
# feature_set_quality
# ---------------------------------------------------------------------------

def test_quality_single_feature_equals_relevance():
    y = np.array([0.0, 1, 0, 1])
    f = np.array([0.0, 0, 1, 1])
    fs = make_fs(f[:, None], y)
    bins = 4
    assert feature_set_quality(fs, MICache(bins)) == pytest.approx(
        mutual_information(f, y, bins), abs=1e-15)


def test_quality_duplicated_column_formula():
    y = np.array([0.0, 1, 0, 1, 1, 0])
    f = np.array([0.0, 1, 1, 0, 1, 0])
    fs = make_fs(np.column_stack([f, f]), y)
    bins = 4
    i_fy = mutual_information(f, y, bins)
    i_ff = mutual_information(f, f, bins)
    assert feature_set_quality(fs, MICache(bins)) == pytest.approx(i_fy - i_ff / 2.0, abs=1e-12)


def test_quality_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    m, n, bins = 50, 3, 4
    values = rng.integers(0, 4, size=(m, n)).astype(float)
    y = rng.integers(0, 3, size=m).astype(float)
    fs = make_fs(values, y)
    got = feature_set_quality(fs, MICache(bins))
    cols_labels = [list(values[:, i].astype(int)) for i in range(n)]
    want = quality_oracle(cols_labels, list(y.astype(int)))
    assert got == pytest.approx(want, abs=1e-12)


def test_quality_permutation_invariant():
    rng = np.random.default_rng(23)
    values = rng.standard_normal((40, 5))
    y = rng.standard_normal(40)
    fs = make_fs(values, y)
    perm = rng.permutation(5)
    fs_p = make_fs(values[:, perm], y)
    assert feature_set_quality(fs, MICache(5)) == pytest.approx(
        feature_set_quality(fs_p, MICache(5)), abs=1e-12)


def test_quality_duplicating_features_lowers_redundancy_contribution():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = int(rng.integers(10, 50))
        n = int(rng.integers(2, 4))
        values = rng.integers(0, 3, size=(m, n)).astype(float)
        labels = [list(values[:, i].astype(int)) for i in range(n)]
        dup = labels + labels

        def redundancy(cols):
            k = len(cols)
            total = 0.0
            for i in range(k):
                for j in range(k):
                    if i != j:
                        total += mi_oracle(cols[i], cols[j])
            return -total / (k * k)

        entropies = [mi_oracle(c, c) for c in labels]
        if any(h > 0 for h in entropies):
            assert redundancy(dup) < redundancy(labels)
        else:
            assert redundancy(dup) == pytest.approx(redundancy(labels), abs=1e-12)


# ---------------------------------------------------------------------------
# the count-table kernel: bit-exact against its loop oracle, within 1e-12 of
# the ratio-form estimator (absolute: near MI = 0 a relative bound breaks down)
# ---------------------------------------------------------------------------

def random_labels(rng, m, k):
    """m labels below k, k - 1 among them; a random subset of the others is
    never drawn, so the joint table gets empty rows and columns."""
    support = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
    labels = rng.choice(support, size=m).astype(np.int64)
    labels[0] = k - 1
    return labels


def pair_mi(lx: np.ndarray, ly: np.ndarray) -> float:
    """``MICache(2).pair_mi`` on one pair of label vectors (labels below 20),
    ``lx`` the row variable: its key sorts first."""
    cache = MICache(2)
    sx, sy = info_metrics._xlogx_sums(np.column_stack([lx, ly]), cache._table(lx.size))
    return cache.pair_mi([(Labels(b"x", lx, sx), Labels(b"y", ly, sy))])[0]


@pytest.mark.parametrize("kx", range(1, 17))
def test_plugin_mi_equals_scalar_oracle_on_random_labels(kx):
    rng = np.random.default_rng(kx)
    for ky in range(1, 17):
        for _ in range(3):
            m = int(rng.integers(2, 400))
            lx = random_labels(rng, m, kx)
            ly = random_labels(rng, m, ky)
            for a, b in ((lx, ly), (ly, lx)):
                assert pair_mi(a, b) == count_mi_oracle(a, b)
                assert pair_mi(a, b) == pytest.approx(plugin_mi_oracle(a, b), abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_plugin_mi_equals_scalar_oracle_on_binned_and_discrete_columns(seed):
    # the label tables the search builds: equal-frequency bins of related
    # continuous columns, and discrete columns recoded densely
    rng = np.random.default_rng(100 + seed)
    for _ in range(25):
        m = int(rng.integers(20, 600))
        bins = int(rng.integers(2, 17))
        x = rng.standard_normal(m)
        y = x * rng.uniform(-2.0, 2.0) + rng.standard_normal(m)
        d = rng.integers(-3, int(rng.integers(-2, 14)), size=m).astype(float)
        for a, b in ((x, y), (x, d), (d, y), (d, np.round(y))):
            la, lb = as_labels(a, bins), as_labels(b, bins)
            for u, v in ((la, lb), (lb, la)):
                assert pair_mi(u, v) == count_mi_oracle(u, v)
                assert pair_mi(u, v) == pytest.approx(plugin_mi_oracle(u, v), abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_quality_equals_scalar_pair_loop_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    m = int(rng.integers(10, 300))
    n = int(rng.integers(1, 9))
    columns = [rng.standard_normal(m) for _ in range(n)]
    columns.append(np.round(columns[0] * 2.0))  # discrete
    columns.append(columns[-1].copy())  # duplicate
    columns.append(np.full(m, 1.5))  # constant
    values = np.column_stack([columns[i] for i in rng.permutation(len(columns))])
    classification = seed % 2 == 1
    y = rng.integers(0, 3, size=m) if classification else rng.standard_normal(m)
    if classification:
        y[:3] = [0, 1, 2]
    fs = make_fs(values, y, TaskKind.CLASSIFICATION if classification else TaskKind.REGRESSION)
    bins = int(rng.integers(2, 17))
    cache = MICache(bins)
    want = scalar_quality_oracle(fs, bins, count_mi_oracle)
    assert feature_set_quality(fs, cache) == want
    assert feature_set_quality(fs, cache) == want  # every pair from the memo
    assert feature_set_quality(fs, MICache(bins)) == want
    assert want == pytest.approx(scalar_quality_oracle(fs, bins), abs=1e-12)


def wide_space(seed, m=150, n=30):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((m, n))
    values[:, 1] = values[:, 0] + 0.1 * rng.standard_normal(m)
    values[:, 2] = np.round(values[:, 2] * 2.0)  # discrete
    y = (values[:, 0] * values[:, 3] > 0.0).astype(np.int64)
    return make_fs(values, y, TaskKind.CLASSIFICATION)


def test_quality_bits_do_not_depend_on_the_batch_size(monkeypatch):
    fs = wide_space(5)
    bins = 12
    k = max(bins, info_metrics.MAX_DISCRETE_LABELS)
    pairs = fs.n_cols * (fs.n_cols + 1) // 2
    assert pairs > info_metrics._CHUNK_ENTRIES // max(fs.n_rows, k * k)  # several batches
    want = feature_set_quality(fs, MICache(bins))
    monkeypatch.setattr(info_metrics, "_CHUNK_ENTRIES", 1)  # one pair per batch
    assert feature_set_quality(fs, MICache(bins)) == want


def test_plugin_mi_of_one_pair_equals_its_value_in_a_batch():
    fs = wide_space(6)
    bins = 9
    cache = MICache(bins)
    cols = [cache.labels(fs.column(i), (fs.keys[i],)) for i in range(fs.n_cols)]
    cols.append(cache.labels(fs.target.values, (fs.target.key,)))
    pairs = [(a, b) for a in cols for b in cols]
    for (a, b), got in zip(pairs, cache.pair_mi(pairs)):
        x, y = (a, b) if a.key <= b.key else (b, a)
        assert got == count_mi_oracle(x.codes, y.codes)


# ---------------------------------------------------------------------------
# a matrix's columns labelled together, with the bits each gets alone
# ---------------------------------------------------------------------------

def label_matrix(rng, m):
    """Columns of every kind the labelling tells apart, in shuffled order."""
    normal = rng.standard_normal(m)
    columns = [
        normal,
        rng.standard_normal(m) * 1e-200, rng.standard_normal(m) * 1e200,  # mixed scales
        normal * 1e300,
        rng.choice([-1e300, 1e300], m),  # integer-valued, two labels
        rng.integers(-5, 10, m).astype(float),  # discrete
        rng.integers(-200, 200, m).astype(float),  # integer-valued, > 20 values
        rng.permutation(np.arange(m) % 20) - 7.0,  # 20 values where m >= 20: still discrete
        rng.permutation(np.arange(m) % 21) * 3.0,  # 21 values where m >= 21: binned
        np.round(normal * 3.0) / 4.0,  # tied, not integer-valued
        rng.choice([0.1, 0.2, 0.3], m),
        rng.choice([-0.0, 0.0, 1.5], m),
        np.full(m, 2.5), np.full(m, -7.0), np.zeros(m),  # constant
        np.where(normal > 0.5, 1e300, -1e-300),
        normal.copy(),  # a duplicate
    ]
    return np.column_stack([columns[i] for i in rng.permutation(len(columns))])


@pytest.mark.parametrize("chunk", [1, 2 ** 8, info_metrics._CHUNK_ENTRIES, 2 ** 40],
                         ids=["one", "small", "default", "huge"])
def test_batched_labels_match_per_column_oracle(monkeypatch, chunk):
    monkeypatch.setattr(info_metrics, "_CHUNK_ENTRIES", chunk)
    labelled = []
    real_as_labels = info_metrics.as_labels

    def spy(values, bins):
        labelled.append(np.shape(values))
        return real_as_labels(values, bins)

    monkeypatch.setattr(info_metrics, "as_labels", spy)
    rng = np.random.default_rng(61)
    for m in (7, 60, 400, 1700):
        values = label_matrix(rng, m)
        for bins in range(1, 17):
            want, sums = per_column_labels_oracle(values, bins)
            got = real_as_labels(values, bins)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            labelled.clear()
            cache = MICache(bins)
            keys = [content_hash(col) for col in values.T]
            labels = cache.labels(values, keys)
            assert np.array_equal(np.column_stack([l.codes for l in labels]), want)
            assert [l.xlogx for l in labels] == sums
            # each column labelled once, in chunks within the bound, and never again
            assert sum(shape[1] for shape in labelled) == values.shape[1]
            assert all(rows * cols <= max(rows, chunk) for rows, cols in labelled)
            assert all(a is b for a, b in zip(cache.labels(values, keys), labels))
            assert sum(shape[1] for shape in labelled) == values.shape[1]


def test_vector_labels_are_the_one_column_case():
    rng = np.random.default_rng(62)
    values = label_matrix(rng, 90)
    for bins in (1, 2, 5, 16):
        want, sums = per_column_labels_oracle(values, bins)
        for j, col in enumerate(values.T):
            assert np.array_equal(as_labels(col, bins), want[:, j])
            label = MICache(bins).labels(col, (content_hash(col),))
            assert np.array_equal(label.codes, want[:, j]) and label.xlogx == sums[j]


@pytest.mark.parametrize("seed", range(4))
def test_matrix_mi_equals_per_column_calls_cold_and_warm(seed):
    rng = np.random.default_rng(70 + seed)
    m = int(rng.integers(8, 500))
    values = label_matrix(rng, m)
    classification = seed % 2 == 1
    y = rng.integers(0, 3, m) if classification else rng.standard_normal(m)
    fs = make_fs(values, y, TaskKind.CLASSIFICATION if classification else TaskKind.REGRESSION)
    y = y.astype(float)
    bins = int(rng.integers(1, 17))
    batched, single = MICache(bins), MICache(bins)
    got = batched.mi(fs)
    want = [single.mi(fs.take([j]))[0] for j in range(fs.n_cols)]
    assert got == want
    assert want == [mutual_information(col, y, bins) for col in values.T]
    assert batched._labels.keys() == single._labels.keys()
    assert batched._mi.keys() == single._mi.keys()
    # the memo is keyed by the columns' and the target's content hashes
    assert set(batched._labels) == {content_hash(col) for col in values.T} | {content_hash(y)}
    # warm: each cache answers the other kind of call from its memo
    assert single.mi(fs) == want
    assert [batched.mi(fs.take([j]))[0] for j in range(fs.n_cols)] == want
    assert batched._labels.keys() == single._labels.keys()
    assert batched._mi.keys() == single._mi.keys()


def test_feature_set_rejects_a_target_of_another_length():
    # so ``MICache.mi`` never sees a column and a target of different lengths
    cols = tuple(FeatureMeta.from_lineage(Ident(f"c{i}")) for i in range(3))
    for rows in (4, 6):
        with pytest.raises(DatasetError, match="target length does not match row count"):
            FeatureSet(np.ones((5, 3)), cols, Target(np.arange(float(rows)),
                                                     TaskKind.REGRESSION, "y"))


# ---------------------------------------------------------------------------
# pairwise_distance
# ---------------------------------------------------------------------------

def test_euclidean_identical_is_zero():
    v = np.array([1.0, 2, 3])
    assert pairwise_distance(v, v, EUC) == 0.0


def test_cosine_orthogonal_is_one():
    assert pairwise_distance(np.array([1.0, 0]), np.array([0.0, 1]), COS) == pytest.approx(1.0)


def test_euclidean_3_4_5():
    assert pairwise_distance(np.array([0.0, 3]), np.array([4.0, 0]), EUC) == pytest.approx(5.0)


def test_cosine_zero_vector_convention():
    assert pairwise_distance(np.zeros(3), np.array([1.0, 2, 3]), COS) == 1.0


def test_distances_match_oracles():
    rng = np.random.default_rng(41)
    for _ in range(40):
        a = rng.standard_normal(10) * rng.uniform(0.1, 50)
        b = rng.standard_normal(10) * rng.uniform(0.1, 50)
        assert pairwise_distance(a, b, EUC) == pytest.approx(euclidean_oracle(a, b), abs=1e-10)
        assert pairwise_distance(a, b, COS) == pytest.approx(cosine_oracle(a, b), abs=1e-12)


def test_euclidean_finite_on_huge_values():
    a = np.full(4, 1e308)
    b = np.full(4, -1e308)
    assert np.isfinite(pairwise_distance(a, b, EUC))


def test_euclidean_rows_whose_difference_overflows_read_the_max():
    # an overflowed difference entry means the true distance is beyond the
    # float64 range, so the row clamps; the other rows keep their distance
    big = np.finfo(np.float64).max
    half_ulp = 2.0 ** 970  # big + half_ulp rounds to inf, anything less to big
    rng = np.random.default_rng(43)
    m = 5
    a = rng.uniform(-1.0, 1.0, m) * big
    a[0] = big
    others = rng.uniform(-1.0, 1.0, (600, m)) * big
    others[::5] *= 1e-300  # small rows, far from every edge
    others[1::5] = a / 2 + rng.uniform(-1.0, 1.0, (120, m)) * big / 4  # differences stay finite
    others[2::5, 0] = -half_ulp  # just past the edge in the first entry
    others[3::5, 0] = -np.nextafter(half_ulp, 0.0)  # just inside it
    others[3::5, 1:] = a[1:]
    got = info_metrics.column_distances(a, others, EUC)
    with np.errstate(over="ignore"):
        over = ~np.all(np.isfinite(others - a), axis=1)
    assert over[2::5].all() and not over[1::5].any() and not over[3::5].any()
    assert over.sum() > 200
    assert np.all(got[over] == big)
    for row, dist in zip(others[~over], got[~over]):
        s = float(max(np.max(np.abs(a)), np.max(np.abs(row)), 1.0))
        want = min(s * euclidean_oracle(a / s, row / s), big)
        assert dist == pytest.approx(want, rel=1e-12)
    for i in range(0, 600, 37):  # each row depends only on its own pair
        assert got[i] == pairwise_distance(a, others[i], EUC)
