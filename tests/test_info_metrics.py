import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raft.dataset import FeatureMeta, FeatureSet, Ident, Target, TaskKind, discretize
from raft.info_metrics import (
    MICache,
    PairwiseDistanceKind,
    as_labels,
    feature_set_quality,
    mutual_information,
    pairwise_distance,
)
from oracles import (
    cosine_oracle,
    euclidean_oracle,
    mi_oracle,
    quality_oracle,
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


def test_as_labels_discrete_passthrough_and_binning():
    np.testing.assert_array_equal(as_labels(np.array([5.0, 7, 5, 9]), 2), [0, 1, 0, 2])
    cont = np.linspace(0.0, 1.0, 30) ** 2
    np.testing.assert_array_equal(as_labels(cont, 3), discretize(cont, 3))


def test_mi_cache_hits_are_consistent():
    cache = MICache()
    rng = np.random.default_rng(9)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    assert mutual_information(x, y, 5, cache) == mutual_information(x, y, 5)
    assert mutual_information(y, x, 5, cache) == mutual_information(x, y, 5, cache)


# ---------------------------------------------------------------------------
# feature_set_quality
# ---------------------------------------------------------------------------

def test_quality_single_feature_equals_relevance():
    y = np.array([0.0, 1, 0, 1])
    f = np.array([0.0, 0, 1, 1])
    fs = make_fs(f[:, None], y)
    bins = 4
    assert feature_set_quality(fs, bins) == pytest.approx(
        mutual_information(f, y, bins), abs=1e-15)


def test_quality_duplicated_column_formula():
    y = np.array([0.0, 1, 0, 1, 1, 0])
    f = np.array([0.0, 1, 1, 0, 1, 0])
    fs = make_fs(np.column_stack([f, f]), y)
    bins = 4
    i_fy = mutual_information(f, y, bins)
    i_ff = mutual_information(f, f, bins)
    assert feature_set_quality(fs, bins) == pytest.approx(i_fy - i_ff / 2.0, abs=1e-12)


def test_quality_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    m, n, bins = 50, 3, 4
    values = rng.integers(0, 4, size=(m, n)).astype(float)
    y = rng.integers(0, 3, size=m).astype(float)
    fs = make_fs(values, y)
    got = feature_set_quality(fs, bins)
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
    assert feature_set_quality(fs, 5) == pytest.approx(feature_set_quality(fs_p, 5), abs=1e-12)


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
