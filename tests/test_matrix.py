import numpy as np
import pytest

from dire import DimensionError, ParameterError, Rng, rng_normal, row_l2_normalize


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_normal(Rng(7), 4, 3)
        b = rng_normal(Rng(7), 4, 3)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(rng_normal(Rng(7), 4, 3), rng_normal(Rng(8), 4, 3))

    def test_split_streams_are_independent_and_deterministic(self):
        r = Rng(11)
        a = rng_normal(r.split(0), 3, 3)
        b = rng_normal(r.split(1), 3, 3)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, rng_normal(Rng(11).split(0), 3, 3))

    @pytest.mark.parametrize("seed", [-1, 2**63, 1.5, True])
    def test_seed_must_be_int64_and_non_negative(self, seed):
        with pytest.raises(ParameterError, match="^Rng: seed must be "):
            Rng(seed)

    def test_sequential_draws_advance_state(self):
        r = Rng(3)
        assert not np.array_equal(rng_normal(r, 2, 2), rng_normal(r, 2, 2))


class TestRngNormal:
    def test_zero_std_gives_exact_mean(self):
        m = rng_normal(Rng(7), 2, 2, mean=0.0, std=0.0)
        assert np.array_equal(m, np.zeros((2, 2)))

    def test_sample_statistics(self):
        m = rng_normal(Rng(7), 1000, 1, mean=0.0, std=1.0)
        assert abs(m.mean()) < 0.1
        assert abs(m.std() - 1.0) < 0.1

    def test_zero_rows_rejected(self):
        with pytest.raises(DimensionError):
            rng_normal(Rng(0), 0, 3)
        with pytest.raises(DimensionError):
            rng_normal(Rng(0), 3, 0)

    def test_negative_std_rejected(self):
        with pytest.raises(ParameterError):
            rng_normal(Rng(0), 2, 2, std=-1.0)

    @pytest.mark.parametrize("std", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "huge-int"])
    def test_non_finite_std_rejected(self, std):
        with pytest.raises(ParameterError, match="^rng_normal: std must be finite"):
            rng_normal(Rng(0), 2, 2, std=std)


class TestRowNormalize:
    def test_three_four_five(self):
        out = row_l2_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_preserved(self):
        out = row_l2_normalize(np.array([[0.0, 0.0]]))
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_row_under_norm_floor_maps_to_zero(self):
        out = row_l2_normalize(np.array([[6e-14, 8e-14], [3.0, 4.0]]))
        assert np.array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.6, 0.8], atol=1e-15)

    def test_output_rows_unit_norm(self):
        m = rng_normal(Rng(5), 5, 3)
        norms = np.linalg.norm(row_l2_normalize(m), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
