import math
import tracemalloc

import numpy as np
import pytest

from dire import (DimensionError, DireWeights, NumericalError, ParameterError,
                  Rng, bench_kernels, cd_loss, cdm_loss, coverage, edm_loss,
                  knn_distances, nearest_distances, pairwise_cosine_matrix,
                  pairwise_cosine_matrix_naive, pairwise_euclidean_matrix,
                  pairwise_euclidean_matrix_naive, rng_normal)
from dire.kernels import ROW_BLOCK


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

    def test_zero_diagonal_same_object(self):
        m = rng_normal(Rng(5), 9, 4)
        out = pairwise_euclidean_matrix(m, m)
        assert np.array_equal(np.diag(out), np.zeros(9))
        assert np.abs(out - out.T).max() < 1e-12

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

    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK + 3])
    @pytest.mark.parametrize("k", [1, 5])
    def test_radii_equal_full_matrix(self, n, k):
        x = rng_normal(Rng(n), n, 8)
        assert np.array_equal(knn_distances(x, k), full_matrix_knn(x, k))

    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, 2 * ROW_BLOCK + 3])
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


class TestWorkerCount:
    def test_env_parsing(self, monkeypatch):
        from dire import worker_count
        monkeypatch.setenv("DIRE_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("DIRE_THREADS", "0")
        assert worker_count() >= 1
        monkeypatch.setenv("DIRE_THREADS", "junk")
        with pytest.raises(ParameterError):
            worker_count()

    def test_parallel_result_matches_serial(self):
        rng = Rng(21)
        a = rng_normal(rng.split(0), 300, 8)
        b = rng_normal(rng.split(1), 40, 8)
        serial = pairwise_cosine_matrix(a, b, block=64, workers=1)
        parallel = pairwise_cosine_matrix(a, b, block=64, workers=4)
        assert np.array_equal(serial, parallel)
