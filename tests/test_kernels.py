import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dire import (DimensionError, DireWeights, NumericalError, ParameterError,
                  Rng, bench_kernels, cd_loss, cdm_loss, coverage, edm_loss,
                  knn_distances, nearest_distances, pairwise_cosine_matrix,
                  pairwise_cosine_matrix_naive, pairwise_euclidean_matrix,
                  pairwise_euclidean_matrix_naive, rng_normal)
from dire.kernels import (KNN_GROUP, ROW_BLOCK, _kth_smallest_rows, _right_cols,
                          _sq_dist_rows)


# Pure-Python triple-loop oracles, independent of any numpy vectorization.

def oracle_cosine(a, b, eps=1e-12):
    a, b = a.tolist(), b.tolist()
    out = [[0.0] * len(b) for _ in a]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            dot = na = nb = 0.0
            for x, y in zip(ai, bj):
                dot += x * y
                na += x * x
                nb += y * y
            out[i][j] = dot / max(math.sqrt(na) * math.sqrt(nb), eps)
    return np.array(out)


def oracle_euclidean(a, b):
    a, b = a.tolist(), b.tolist()
    out = [[0.0] * len(b) for _ in a]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            s = 0.0
            for x, y in zip(ai, bj):
                s += (x - y) * (x - y)
            out[i][j] = math.sqrt(s)
    return np.array(out)


class TestCosineMatrix:
    def test_orthonormal_rows(self):
        out = pairwise_cosine_matrix(np.eye(2), np.eye(2))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-15)

    def test_45_degrees(self):
        out = pairwise_cosine_matrix(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[1 / math.sqrt(2)]], atol=1e-15)

    def test_matches_triple_loop_oracle(self):
        rng = Rng(42)
        a = rng_normal(rng.split(0), 7, 5)
        b = rng_normal(rng.split(1), 4, 5)
        for fn in (pairwise_cosine_matrix, pairwise_cosine_matrix_naive):
            np.testing.assert_allclose(fn(a, b), oracle_cosine(a, b), atol=1e-10)

    def test_zero_row_gives_zero_similarity(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        out = pairwise_cosine_matrix(a, a)
        assert out[0, 0] == 0.0 and out[0, 1] == 0.0 and out[1, 1] == 1.0

    def test_entries_bounded(self):
        m = rng_normal(Rng(3), 20, 6)
        out = pairwise_cosine_matrix(m, m)
        assert out.min() >= -1.0 - 1e-12 and out.max() <= 1.0 + 1e-12

    def test_symmetry_and_scale_invariance(self):
        m = rng_normal(Rng(4), 12, 5)
        c = pairwise_cosine_matrix(m, m)
        assert np.abs(c - c.T).max() < 1e-12
        scaled = m.copy()
        scaled[3] *= 17.0
        assert np.abs(pairwise_cosine_matrix(scaled, scaled) - c).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pairwise_cosine_matrix(np.eye(2), np.eye(3))


class TestEuclideanMatrix:
    def test_three_four_five(self):
        out = pairwise_euclidean_matrix(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[5.0]])

    # inputs that need coercion too: one object is coerced once, and keeps its pin
    @pytest.mark.parametrize("form", ["float64", "float32", "list", "fortran"])
    @pytest.mark.parametrize("n", [9, 2 * ROW_BLOCK + 3])
    def test_zero_diagonal_same_object(self, n, form):
        m = rng_normal(Rng(5), n, 4)
        m = {"float64": m, "float32": m.astype(np.float32), "list": m.tolist(),
             "fortran": np.asfortranarray(m)}[form]
        out = pairwise_euclidean_matrix(m, m)
        assert np.array_equal(np.diag(out), np.zeros(n))
        assert np.abs(out - out.T).max() < 1e-12
        assert np.array_equal(nearest_distances(m, m), np.zeros(n))

    def test_matches_per_pair_oracle(self):
        rng = Rng(6)
        a = rng_normal(rng.split(0), 8, 4)
        b = rng_normal(rng.split(1), 3, 4)
        for fn in (pairwise_euclidean_matrix, pairwise_euclidean_matrix_naive):
            np.testing.assert_allclose(fn(a, b), oracle_euclidean(a, b), atol=1e-9)

    @pytest.mark.parametrize("n, m, d", [(1, 1, 1), (7, 5, 3), (33, 17, 64)])
    def test_naive_equals_per_pair_loop(self, n, m, d):
        rng = Rng(n)
        a = rng_normal(rng.split(0), n, d)
        b = rng_normal(rng.split(1), m, d)
        per_pair = np.empty((n, m))
        for i in range(n):
            for j in range(m):
                diff = a[i] - b[j]
                per_pair[i, j] = math.sqrt(np.dot(diff, diff))
        assert np.array_equal(pairwise_euclidean_matrix_naive(a, b), per_pair)

    def test_triangle_inequality(self):
        m = rng_normal(Rng(7), 15, 6)
        d = pairwise_euclidean_matrix(m, m)
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j, k = rng.integers(0, 15, size=3)
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


class TestRegularizerPairSums:
    """The regularizer's reduced pair sums against this file's oracles."""

    def test_identical_rows_diagonal_included(self):
        m = np.array([[1.0, 0.0], [1.0, 0.0]])
        value, _ = cd_loss(m, DireWeights(reduction="sum"))
        assert value == pytest.approx(4.0)

    def test_cdm_mean_matches_oracle(self):
        rng = Rng(8)
        a = rng_normal(rng.split(0), 6, 3)
        b = rng_normal(rng.split(1), 6, 3)
        value, _ = cdm_loss(a, b, DireWeights(reduction="mean"))
        assert 1.0 - value == pytest.approx(oracle_cosine(a, b).mean(), abs=1e-12)

    def test_edm_three_four_five_sum_and_mean(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert edm_loss(a, b, DireWeights(reduction="sum"))[0] == pytest.approx(5.0)
        assert edm_loss(a, b, DireWeights(reduction="mean"))[0] == pytest.approx(2.5)


class TestKnnDistances:
    def test_one_dimensional_k1(self):
        x = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_allclose(knn_distances(x, 1), [1.0, 1.0, 2.0])

    def test_one_dimensional_k2(self):
        x = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_allclose(knn_distances(x, 2), [3.0, 2.0, 3.0])

    def test_matches_full_sort_oracle(self):
        x = rng_normal(Rng(11), 50, 4)
        got = knn_distances(x, 5)
        for i in range(50):
            dists = sorted(np.linalg.norm(x - x[i], axis=1)[np.arange(50) != i])
            assert got[i] == pytest.approx(dists[4], abs=1e-9)

    def test_k_out_of_range(self):
        x = rng_normal(Rng(0), 5, 2)
        for k in (0, 5, 6):
            with pytest.raises(ParameterError):
                knn_distances(x, k)


def full_matrix_knn(x, k):
    """k-NN radii from the whole N x N distance matrix."""
    d = pairwise_euclidean_matrix(x, x)
    np.fill_diagonal(d, np.inf)
    return np.partition(d, k - 1, axis=1)[:, k - 1]


def _duplicated_rows():
    x = np.repeat(rng_normal(Rng(70), 300, 8), 4, axis=0)
    return x[np.random.default_rng(70).permutation(len(x))]


def _group_columns(n, t, count):
    """The first `count` columns of interleaved column group t at width n."""
    return t + (n // KNN_GROUP) * np.arange(count)


def _neighbours_in_one_group():
    """Spread rows, and five near-copies of row 0 in one column group."""
    x = 10.0 * rng_normal(Rng(71), 1000, 6)
    x[_group_columns(1000, 3, 5)] = x[0] + 1e-3 * rng_normal(Rng(72), 5, 6)
    return x


def _overflowing():
    """Finite rows whose squared norms overflow: the squared-distance block
    holds inf and NaN."""
    x = rng_normal(Rng(73), 900, 4)
    x[::7] *= 1e200
    return x


def _nan_beside_the_nearest():
    """Row 0 and the first ten rows of column group 2 form a tight cluster
    near |x| = 8e153, and the group's eleventh row lies along it at 1e155:
    the cluster's squared distances to that row are NaN, in the group that
    holds all of the cluster's nearest neighbours."""
    x = rng_normal(Rng(83), 1000, 4)
    u = np.array([0.5, 0.5, 0.5, 0.5])
    *members, far = _group_columns(1000, 2, 11)
    cluster = [0, *members]
    x[cluster] = 8e153 * (u + 1e-3 * rng_normal(Rng(84), len(cluster), 4))
    x[far] = 1e155 * u
    return x


def _all_overflowing():
    """Every row overflows: a row holds only inf and NaN."""
    return 1e200 * rng_normal(Rng(82), 700, 4)


# (builder, k): the k-groups-or-fewer fallback, the group path on either
# side of it, ragged tails over several row blocks, ties and NaN. The ids
# say "tile" for a column group so that they stay comparable across changes.
SELECTION_CASES = {
    "n=k+1,k=1": (lambda: rng_normal(Rng(74), 2, 8), 1),
    "n=k+1,k=5": (lambda: rng_normal(Rng(75), 6, 8), 5),
    "n=tile*(k+1)-1": (lambda: rng_normal(Rng(76), KNN_GROUP * 6 - 1, 8), 5),
    "n=tile*(k+1)": (lambda: rng_normal(Rng(77), KNN_GROUP * 6, 8), 5),
    "n=tile*(k+1)+1": (lambda: rng_normal(Rng(78), KNN_GROUP * 6 + 1, 8), 5),
    "n=tile*2+1,k=1": (lambda: rng_normal(Rng(79), KNN_GROUP * 2 + 1, 8), 1),
    "row-blocks,ragged,k=1": (lambda: rng_normal(Rng(80), 8 * ROW_BLOCK + 45, 8), 1),
    "row-blocks,ragged,k=5": (lambda: rng_normal(Rng(81), 8 * ROW_BLOCK + 45, 8), 5),
    "duplicate-rows,k=1": (_duplicated_rows, 1),
    "duplicate-rows,k=5": (_duplicated_rows, 5),
    "identical-rows,k=1": (lambda: np.full((900, 5), 0.3), 1),
    "identical-rows,k=5": (lambda: np.full((900, 5), 0.3), 5),
    "neighbours-in-one-tile": (_neighbours_in_one_group, 5),
    "overflow,k=1": (_overflowing, 1),
    "overflow,k=5": (_overflowing, 5),
    "nan-beside-the-nearest": (_nan_beside_the_nearest, 5),
    "all-overflow": (_all_overflowing, 5),
}


def peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedKnn:
    """The streamed k-NN and nearest-neighbour passes against the full
    matrix: same values bit for bit, at block boundaries too."""

    # one row block and its edges, and the multi-block sizes 511, 512, 1027
    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK + 3, 511, 512, 1027])
    @pytest.mark.parametrize("k", [1, 5])
    def test_radii_equal_full_matrix(self, n, k):
        x = rng_normal(Rng(n), n, 8)
        assert np.array_equal(knn_distances(x, k), full_matrix_knn(x, k))

    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, 2 * ROW_BLOCK + 3, 511, 1027])
    def test_nearest_equals_full_matrix_min(self, n):
        r = Rng(60 + n)
        a, b = rng_normal(r.split(0), n, 8), rng_normal(r.split(1), 37, 8)
        assert np.array_equal(nearest_distances(a, b),
                              pairwise_euclidean_matrix(a, b).min(axis=1))
        assert np.array_equal(nearest_distances(a, a), np.zeros(n))

    @pytest.mark.parametrize("k", [1, 5])
    def test_same_object_coverage(self, k):
        x = rng_normal(Rng(61), 2 * ROW_BLOCK + 3, 8)
        nearest = pairwise_euclidean_matrix(x, x).min(axis=1)
        assert coverage(x, x, k) == float(np.mean(nearest <= full_matrix_knn(x, k))) == 1.0

    # the overflow cases warn from the GEMMs and the elementwise passes
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(SELECTION_CASES))
    def test_tile_selection_equals_full_matrix(self, name):
        build, k = SELECTION_CASES[name]
        x = build()
        y = x[::3] + 0.5
        got = knn_distances(x, k)
        assert np.array_equal(got, full_matrix_knn(x, k), equal_nan=True)
        assert np.array_equal(nearest_distances(x, y),
                              pairwise_euclidean_matrix(x, y).min(axis=1), equal_nan=True)
        if name == "neighbours-in-one-tile":
            assert x.shape[0] // KNN_GROUP > k and got[0] < 0.01

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 1100), dim=st.integers(1, 12), k=st.integers(1, 12),
           seed=st.integers(0, 2**16), grid=st.booleans())
    def test_radii_equal_full_matrix_property(self, n, dim, k, seed, grid):
        k = min(k, n - 1)
        x = rng_normal(Rng(seed), n, dim)
        if grid:  # a coarse grid: many exactly tied distances
            x = np.round(2.0 * x)
        assert np.array_equal(knn_distances(x, k), full_matrix_knn(x, k))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, ROW_BLOCK), n=st.integers(2, 3000),
           seed=st.integers(0, 2**16), ties=st.booleans(), non_finite=st.booleans())
    def test_kth_smallest_rows_equals_partition_property(self, data, rows, n, seed,
                                                         ties, non_finite):
        k = data.draw(st.one_of(st.integers(1, min(20, n - 1)), st.integers(1, n - 1)),
                      label="k")
        gen = np.random.default_rng(seed)
        d = gen.normal(size=(rows, n))
        if ties:
            d = np.round(2.0 * d)
        if non_finite:
            u = gen.random((rows, n))
            d[u < 0.05] = np.nan
            d[(u >= 0.05) & (u < 0.08)] = np.inf
            d[u > 0.98] = -np.inf
        want = np.partition(d, k - 1, axis=1)[:, k - 1]
        assert np.array_equal(_kth_smallest_rows(d, k), want, equal_nan=True)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 600), dim=st.integers(4, 16), k=st.integers(1, 10),
           seed=st.integers(0, 2**16))
    def test_radii_follow_a_row_permutation(self, n, dim, k, seed):
        # a permuted X moves rows between GEMM blocks, which may round the
        # block differently, so the radii agree to rounding, not bit for bit
        k = min(k, n - 1)
        x = rng_normal(Rng(seed), n, dim)
        p = np.random.default_rng(seed).permutation(n)
        np.testing.assert_allclose(knn_distances(x[p], k), knn_distances(x, k)[p],
                                   rtol=1e-12, atol=0.0)

    def test_memory_within_two_row_blocks(self):
        n = 8000
        r = Rng(65)
        x, b = rng_normal(r.split(0), n, 32), rng_normal(r.split(1), n, 32)
        two_blocks = 2 * ROW_BLOCK * n * 8
        assert peak_traced_bytes(knn_distances, x, 5) <= two_blocks
        assert peak_traced_bytes(nearest_distances, x, b) <= two_blocks

    def test_memory_well_under_one_n_by_n_matrix(self):
        n = 4096
        r = Rng(62)
        x = rng_normal(r.split(0), n, 32)
        n_by_n = n * n * 8  # 128 MiB
        assert peak_traced_bytes(knn_distances, x, 5) < n_by_n / 4
        assert peak_traced_bytes(nearest_distances, x, rng_normal(r.split(1), n, 32)) < n_by_n / 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        x = rng_normal(Rng(63), 10, 3)
        x[4, 1] = bad
        clean = rng_normal(Rng(64), 10, 3)
        with pytest.raises(NumericalError):
            knn_distances(x, 2)
        with pytest.raises(NumericalError):
            nearest_distances(x, clean)
        with pytest.raises(NumericalError):
            nearest_distances(clean, x)


def three_step_sq_dist(a, b):
    """The squared-distance sequence the augmented GEMM replaced: GEMM
    against a transposed copy, `*= -2`, `+= |a|^2`, `+= |b|^2`. Leading
    axes broadcast as a stack."""
    g = a @ np.swapaxes(b, -1, -2).copy()
    g *= -2.0
    g += np.einsum("...f,...f->...", a, a)[..., None]
    g += np.einsum("...f,...f->...", b, b)[..., None, :]
    return g


def augmented_sq_dist(a, b):
    return _sq_dist_rows(a, _right_cols(b))


def assert_within_ulps(got, want, a, b, ulps=4):
    """Entries agree to `ulps` units of roundoff of |a|^2 + |b|^2."""
    scale = (np.einsum("...f,...f->...", a, a)[..., None]
             + np.einsum("...f,...f->...", b, b)[..., None, :])
    assert np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * scale)


class TestAugmentedGemm:
    """One GEMM of [a, |a|^2, 1] against [-2 b^T; 1; |b|^2] adds the same
    terms in the same order as the three-step sequence, so on OpenBLAS's
    Haswell kernels its bits are that sequence's on blocks of 4+ rows, in
    every whole group of 8 columns, for D + 2 <= 384. The tail columns,
    blocks of 1-3 rows and deeper D sum in another order, within a few ulps."""

    @pytest.mark.parametrize("dim", [1, 2, 16, 32, 256])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_full_row_blocks_bit_equal(self, dim, scale):
        r = Rng(90 + dim)
        a = scale * rng_normal(r.split(0), ROW_BLOCK, dim)
        b = scale * rng_normal(r.split(1), 1000, dim)
        assert np.array_equal(augmented_sq_dist(a, b), three_step_sq_dist(a, b))

    @pytest.mark.parametrize("k", [10, 50])
    def test_edm_stack_bit_equal(self, k):
        r = Rng(91 + k)
        x = rng_normal(r.split(0), 10 * k, 32).reshape(10, k, 32)
        y = rng_normal(r.split(1), 10 * 64, 32).reshape(10, 64, 32)
        assert np.array_equal(augmented_sq_dist(x, y), three_step_sq_dist(x, y))

    @pytest.mark.parametrize("columns", [1001, 1003, 1004, 1007])
    def test_tail_columns_within_ulps(self, columns):
        r = Rng(92)
        a = rng_normal(r.split(0), ROW_BLOCK, 16)
        b = rng_normal(r.split(1), columns, 16)
        got, want = augmented_sq_dist(a, b), three_step_sq_dist(a, b)
        whole = columns - columns % 8
        assert np.array_equal(got[:, :whole], want[:, :whole])
        assert_within_ulps(got, want, a, b)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_ragged_blocks_within_ulps(self, rows, scale):
        r = Rng(93 + rows)
        a = scale * rng_normal(r.split(0), rows, 32)
        b = scale * rng_normal(r.split(1), 1000, 32)
        assert_within_ulps(augmented_sq_dist(a, b), three_step_sq_dist(a, b), a, b)

    def test_one_synthetic_point_per_class_within_ulps(self):
        r = Rng(94)
        x = rng_normal(r.split(0), 10, 32).reshape(10, 1, 32)
        y = rng_normal(r.split(1), 10 * 64, 32).reshape(10, 64, 32)
        assert_within_ulps(augmented_sq_dist(x, y), three_step_sq_dist(x, y), x, y)

    def test_deep_features_within_ulps(self):
        # D + 2 > 384 splits the GEMM's k loop into two passes
        r = Rng(95)
        a = rng_normal(r.split(0), ROW_BLOCK, 512)
        b = rng_normal(r.split(1), 1000, 512)
        assert_within_ulps(augmented_sq_dist(a, b), three_step_sq_dist(a, b), a, b)


class TestOracleEquivalenceSweep:
    def test_random_shapes(self):
        rng = np.random.default_rng(123)
        for case in range(20):
            n, m = rng.integers(1, 65, size=2)
            d = int(rng.integers(1, 33))
            r = Rng(1000 + case)
            a = rng_normal(r.split(0), int(n), d)
            b = rng_normal(r.split(1), int(m), d)
            fast_c = pairwise_cosine_matrix(a, b)
            naive_c = pairwise_cosine_matrix_naive(a, b)
            assert np.abs(fast_c - naive_c).max() <= 1e-9 * max(1.0, np.abs(naive_c).max())
            fast_e = pairwise_euclidean_matrix(a, b)
            naive_e = pairwise_euclidean_matrix_naive(a, b)
            assert np.abs(fast_e - naive_e).max() <= 1e-9 * max(1.0, naive_e.max())


class TestBench:
    def test_small_shape_report(self):
        reports = bench_kernels([(64, 64, 16)], reps=3, seed=0)
        assert len(reports) == 2
        for r in reports:
            assert (r.n, r.m, r.d) == (64, 64, 16)
            assert r.max_dev <= 1e-9
            assert r.speedup > 1.0

    def test_reps_validated(self):
        with pytest.raises(ParameterError):
            bench_kernels([(8, 8, 4)], reps=2)

    def test_unknown_kernel(self):
        with pytest.raises(ParameterError):
            bench_kernels([(8, 8, 4)], reps=3, kernels=("manhattan",))


class TestCallerThread:
    """Every kernel runs its row blocks on the caller's thread."""

    @pytest.mark.parametrize("kernel", [pairwise_cosine_matrix, pairwise_euclidean_matrix])
    def test_errstate_applies_to_every_row_block(self, kernel):
        x = _all_overflowing()
        assert x.shape[0] > 2 * ROW_BLOCK and np.all(np.isfinite(x))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            kernel(x, x[::2])

    def test_import_starts_no_thread_pool(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, dire; "
                "print('concurrent.futures' in sys.modules, dire.kernels.worker_count())")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "1"]
