import numpy as np
import pytest

from dire import (DireWeights, EmbeddingSet, ParameterError, Rng, cd_loss,
                  cdm_loss, dire_loss, edm_loss, finite_diff_check,
                  finite_diff_grad, pairwise_cosine_matrix,
                  pairwise_euclidean_matrix, rng_normal, row_l2_normalize)
from dire.losses import ALL_COMPONENTS, RealSide, batched_dire_loss

SUM = DireWeights(reduction="sum")
MEAN = DireWeights(reduction="mean")


class TestDireWeights:
    def test_defaults_valid(self):
        w = DireWeights()
        assert w.r_c >= 0 and w.r_e >= 0 and w.reduction in ("sum", "mean")

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            DireWeights(r_c=-0.5)

    def test_bad_reduction_rejected(self):
        with pytest.raises(ParameterError):
            DireWeights(reduction="max")


class TestCdLoss:
    def test_single_point_sum(self):
        value, grad = cd_loss(np.array([[3.0, 4.0]]), SUM)
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_identity_rows_sum(self):
        value, grad = cd_loss(np.eye(2), SUM)
        assert value == pytest.approx(2.0)
        err = finite_diff_check(lambda m: cd_loss(m, SUM), np.eye(2), h=1e-5)
        assert err < 1e-4

    def test_value_matches_kernel_sum(self):
        x = rng_normal(Rng(3), 6, 4)
        value, _ = cd_loss(x, SUM)
        assert value == pytest.approx(pairwise_cosine_matrix(x, x).sum(), abs=1e-12)

    def test_excluded_diagonal_matches_matrix_sum_minus_trace(self):
        x = rng_normal(Rng(3), 6, 4)
        full = pairwise_cosine_matrix(x, x)
        value, _ = cd_loss(x, DireWeights(reduction="sum", include_diagonal_cd=False))
        assert value == pytest.approx(full.sum() - np.trace(full), abs=1e-12)

    def test_zero_row_contributes_nothing(self):
        x = rng_normal(Rng(4), 5, 3)
        x[2] = 0.0
        rest = np.delete(x, 2, axis=0)
        for diag in (True, False):
            w = DireWeights(reduction="sum", include_diagonal_cd=diag)
            value, grad = cd_loss(x, w)
            rest_value, rest_grad = cd_loss(rest, w)
            assert value == pytest.approx(rest_value, abs=1e-12)
            assert np.array_equal(grad[2], np.zeros(3))
            np.testing.assert_allclose(np.delete(grad, 2, axis=0), rest_grad, atol=1e-12)

    def test_finite_differences(self):
        x = rng_normal(Rng(5), 6, 4)
        for w in (SUM, MEAN, DireWeights(reduction="mean", include_diagonal_cd=False)):
            assert finite_diff_check(lambda m: cd_loss(m, w), x, h=1e-5) < 1e-4

    def test_scale_invariance(self):
        x = rng_normal(Rng(7), 5, 4)
        v1, g1 = cd_loss(x, MEAN)
        c = 3.7
        v2, g2 = cd_loss(c * x, MEAN)
        assert v2 == pytest.approx(v1, abs=1e-10)
        np.testing.assert_allclose(g2, g1 / c, rtol=1e-8)

    def test_excluded_diagonal_single_point(self):
        w = DireWeights(reduction="mean", include_diagonal_cd=False)
        value, grad = cd_loss(np.array([[1.0, 2.0]]), w)
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0)


class TestCdmLoss:
    def test_perfect_alignment(self):
        x = np.array([[1.0, 2.0, 0.0]])
        value, grad = cdm_loss(x, x.copy(), MEAN)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair(self):
        value, _ = cdm_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), MEAN)
        assert value == pytest.approx(1.0)

    def test_finite_differences(self):
        r = Rng(11)
        x = rng_normal(r.split(0), 5, 4)
        y = rng_normal(r.split(1), 9, 4)
        for w in (SUM, MEAN):
            assert finite_diff_check(lambda m: cdm_loss(m, y, w), x, h=1e-5) < 1e-4

    def test_mean_range(self):
        r = Rng(13)
        x = rng_normal(r.split(0), 4, 3)
        y = rng_normal(r.split(1), 6, 3)
        value, _ = cdm_loss(x, y, MEAN)
        assert 0.0 <= value <= 2.0

    def test_dim_mismatch(self):
        with pytest.raises(ParameterError):
            cdm_loss(np.eye(2), np.eye(3), MEAN)

    def test_zero_rows_contribute_nothing(self):
        r = Rng(15)
        x = rng_normal(r.split(0), 4, 3)
        y = rng_normal(r.split(1), 5, 3)
        x0, y0 = x.copy(), y.copy()
        x0[1] = 0.0
        y0[3] = 0.0
        value, grad = cdm_loss(x0, y0, SUM)
        rest_value, rest_grad = cdm_loss(np.delete(x0, 1, axis=0),
                                         np.delete(y0, 3, axis=0), SUM)
        assert value == pytest.approx(rest_value, abs=1e-12)
        assert np.array_equal(grad[1], np.zeros(3))
        np.testing.assert_allclose(np.delete(grad, 1, axis=0), rest_grad, atol=1e-12)


class TestEdmLoss:
    def test_coincident_pair_guarded(self):
        x = np.array([[1.0, 2.0]])
        value, grad = edm_loss(x, x.copy(), SUM)
        assert value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_three_four_five_gradient(self):
        value, grad = edm_loss(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]), SUM)
        assert value == pytest.approx(5.0)
        np.testing.assert_allclose(grad, [[-0.6, -0.8]], atol=1e-12)

    def test_finite_differences_away_from_singularity(self):
        r = Rng(17)
        x = rng_normal(r.split(0), 4, 3)
        y = rng_normal(r.split(1), 7, 3) + 5.0  # well separated
        for w in (SUM, MEAN):
            assert finite_diff_check(lambda m: edm_loss(m, y, w), x, h=1e-5) < 1e-4

    def test_zero_loss_fixed_point(self):
        # every synthetic coincides with every real: all real identical
        y = np.tile([[1.0, -1.0, 2.0]], (4, 1))
        x = np.tile([[1.0, -1.0, 2.0]], (2, 1))
        ev, eg = edm_loss(x, y, MEAN)
        cv, cg = cdm_loss(x, y, MEAN)
        assert ev == pytest.approx(0.0, abs=1e-9)
        assert cv == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(eg, 0.0, atol=1e-9)


class TestDireLoss:
    def _sets(self, seed=19):
        r = Rng(seed)
        syn = EmbeddingSet({c: rng_normal(r.split(c), 4, 3) for c in range(2)})
        real = EmbeddingSet({c: rng_normal(r.split(10 + c), 9, 3) for c in range(2)})
        return syn, real

    def test_weights_off_gives_zero(self):
        syn, real = self._sets()
        w = DireWeights(r_c=0.0, r_e=0.0)
        per_class, total = dire_loss(syn, real, w)
        assert total.l_syn == 0.0
        np.testing.assert_allclose(total.grad, 0.0)

    def test_single_identical_point_sum(self):
        w = DireWeights(r_c=2.0, r_e=0.5, reduction="sum")
        point = np.array([[1.0, 1.0]])
        syn = EmbeddingSet({0: point})
        real = EmbeddingSet({0: point.copy()})
        per_class, total = dire_loss(syn, real, w)
        # cd = 1 (diagonal), cdm = 0, edm = 0
        assert total.l_syn == pytest.approx(w.r_c * 1.0)

    def test_total_equals_per_class_recomputation(self):
        syn, real = self._sets()
        w = DireWeights(r_c=1.3, r_e=0.2, reduction="mean")
        per_class, total = dire_loss(syn, real, w)
        expect = 0.0
        for c in syn.classes():
            cd, _ = cd_loss(syn[c], w)
            cdm, _ = cdm_loss(syn[c], real[c], w)
            edm, _ = edm_loss(syn[c], real[c], w)
            expect += w.r_c * (cd + cdm) + w.r_e * edm
            assert per_class[c].l_syn == pytest.approx(
                w.r_c * (cd + cdm) + w.r_e * edm, abs=1e-12)
        assert total.l_syn == pytest.approx(expect, abs=1e-12)
        assert total.grad.shape == (8, 3)

    def test_component_masking(self):
        syn, real = self._sets()
        w = DireWeights(r_c=1.0, r_e=1.0)
        _, only_cd = dire_loss(syn, real, w, components=("cd",))
        assert only_cd.cdm == 0.0 and only_cd.edm == 0.0 and only_cd.cd != 0.0
        _, only_edm = dire_loss(syn, real, w, components=("edm",))
        assert only_edm.cd == 0.0 and only_edm.cdm == 0.0 and only_edm.edm != 0.0
        with pytest.raises(ParameterError):
            dire_loss(syn, real, w, components=("cd", "huber"))

    def test_missing_class_rejected(self):
        syn, _ = self._sets()
        real = EmbeddingSet({0: np.eye(3)})
        with pytest.raises(ParameterError, match="class 1"):
            dire_loss(syn, real, DireWeights())

    def test_gradient_via_finite_differences(self):
        syn, real = self._sets(23)
        w = DireWeights(r_c=0.7, r_e=0.3, reduction="mean")
        x0 = syn[0]

        def loss_fn(m):
            per, tot = dire_loss(EmbeddingSet({0: m, 1: syn[1]}), real, w)
            return tot.l_syn, per[0].grad

        assert finite_diff_check(loss_fn, x0, h=1e-5) < 1e-4


class TestFiniteDiffHarness:
    def test_quadratic_sanity(self):
        def quad(m):
            return 0.5 * float(np.sum(m * m)), m

        e = rng_normal(Rng(29), 3, 4)
        assert finite_diff_check(quad, e, h=1e-5) < 1e-8

    def test_grad_only_helper(self):
        e = rng_normal(Rng(31), 2, 3)
        num = finite_diff_grad(lambda m: 0.5 * float(np.sum(m * m)), e, h=1e-6)
        np.testing.assert_allclose(num, e, atol=1e-8)

    def test_h_must_be_positive(self):
        with pytest.raises(ParameterError):
            finite_diff_grad(lambda m: 0.0, np.eye(2), h=0.0)


class TestOrthogonalityPressure:
    def test_descent_reaches_zero_sum_floor(self):
        # minimizing the signed pairwise-cosine sum drives the configuration
        # to the zero-sum manifold (loss floor K/K^2 under mean reduction
        # with the diagonal included reaches 0 only when sum_i x_i = 0)
        w = DireWeights(reduction="mean")
        x = row_l2_normalize(rng_normal(Rng(0), 4, 4))
        for _ in range(2000):
            _, g = cd_loss(x, w)
            x = row_l2_normalize(x - 1.0 * g)
        value, _ = cd_loss(x, w)
        assert value < 1e-6
        assert np.linalg.norm(x.sum(axis=0)) < 1e-3


# --- per-class oracle: each term on its own, from its textbook form -------

def _oracle_unit_rows(x):
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    inv = np.where(norms >= 1e-12, 1.0 / np.maximum(norms, 1e-12), 0.0)
    return x * inv[:, None], inv


def _oracle_cosine_grad(unit, inv, t):
    """Gradient of sum_{i,j} cos(x_i, y_j) w.r.t. x, with t = sum_j of the
    unit rows of y."""
    return inv[:, None] * (t[None, :] - (unit @ t)[:, None] * unit)


def _oracle_cd(x, w):
    k = x.shape[0]
    count = k * k if w.include_diagonal_cd else k * k - k
    unit, inv = _oracle_unit_rows(x)
    s = unit.sum(axis=0)
    value = float(s @ s)
    if not w.include_diagonal_cd:
        value -= int(np.count_nonzero(inv))
    # both orderings of each pair contribute, hence the factor 2
    grad = 2.0 * _oracle_cosine_grad(unit, inv, s)
    if w.reduction == "mean":
        if count == 0:
            return 0.0, np.zeros_like(x)
        value /= count
        grad = grad / count
    return value, grad


def _oracle_cdm(x, y, w):
    unit, inv = _oracle_unit_rows(x)
    t = _oracle_unit_rows(y)[0].sum(axis=0)
    total = float(unit.sum(axis=0) @ t)
    grad = -_oracle_cosine_grad(unit, inv, t)
    if w.reduction == "mean":
        count = x.shape[0] * y.shape[0]
        total /= count
        grad = grad / count
    return 1.0 - total, grad


def _oracle_edm(x, y, w):
    dist = pairwise_euclidean_matrix(x, y)
    value = float(np.sum(dist))
    wmat = 1.0 / np.maximum(dist, 1e-12)
    grad = x * wmat.sum(axis=1)[:, None] - wmat @ y
    if w.reduction == "mean":
        count = x.shape[0] * y.shape[0]
        value /= count
        grad = grad / count
    return value, grad


def _oracle_dire(e_syn, e_real, w, components=ALL_COMPONENTS):
    """{class: (cd, cdm, edm, l_syn, grad)}, each term switched on or off."""
    out = {}
    for c in e_syn.classes():
        x, y = e_syn[c], e_real[c]
        grad = np.zeros_like(x)
        cd = cdm = edm = 0.0
        if "cd" in components:
            cd, g = _oracle_cd(x, w)
            grad += w.r_c * g
        if "cdm" in components:
            cdm, g = _oracle_cdm(x, y, w)
            grad += w.r_c * g
        if "edm" in components:
            edm, g = _oracle_edm(x, y, w)
            grad += w.r_e * g
        out[c] = (cd, cdm, edm, w.r_c * (cd + cdm) + w.r_e * edm, grad)
    return out


def _oracle_total(per_class):
    """Summed values and the class-ordered gradient stack of `_oracle_dire`."""
    rows = [per_class[c] for c in sorted(per_class)]
    return tuple(sum(r[i] for r in rows) for i in range(4)) + (np.vstack([r[4] for r in rows]),)


def _assert_close(got, want):
    """Values and gradients at the batched form's tolerance."""
    assert len(got) == len(want)
    for g, v in zip(got[:-1], want[:-1]):
        assert g == pytest.approx(v, rel=1e-12, abs=1e-14)
    np.testing.assert_allclose(got[-1], want[-1], rtol=1e-12, atol=1e-15)


def _assert_public_matches_oracle(e_syn, e_real, w, components=ALL_COMPONENTS):
    """cd_loss, cdm_loss, edm_loss and dire_loss against the oracle."""
    want = _oracle_dire(e_syn, e_real, w, components)
    per_class, total = dire_loss(e_syn, e_real, w, components)
    for c in e_syn.classes():
        x, y = e_syn[c], e_real[c]
        _assert_close(cd_loss(x, w), _oracle_cd(x, w))
        _assert_close(cdm_loss(x, y, w), _oracle_cdm(x, y, w))
        _assert_close(edm_loss(x, y, w), _oracle_edm(x, y, w))
        b = per_class[c]
        _assert_close((b.cd, b.cdm, b.edm, b.l_syn, b.grad), want[c])
    _assert_close((total.cd, total.cdm, total.edm, total.l_syn, total.grad),
                  _oracle_total(want))


def _ragged_world(k, real_sizes, cap=None, f=4, seed=41):
    """Synthetic (C, K, F) block and a real set with the given class sizes,
    optionally capped per class like recover's draw."""
    r = Rng(seed)
    x = np.stack([rng_normal(r.split(c), k, f) for c in range(len(real_sizes))])
    real = EmbeddingSet({c: rng_normal(r.split(100 + c), n, f) + 0.5 * c
                         for c, n in enumerate(real_sizes)}).subsample(cap, r.split(200))
    return x, real


def _assert_matches_oracle(x, real, w, components=ALL_COMPONENTS):
    """batched_dire_loss, and the public per-class functions built on it,
    against the oracle class by class."""
    classes = real.classes()
    e_syn = EmbeddingSet(dict(enumerate(x)))
    grad = np.zeros_like(x)
    values = batched_dire_loss(x, RealSide.prepare(real, classes), w, components, grad)
    _assert_close(values + (grad.reshape(-1, x.shape[2]),),
                  _oracle_total(_oracle_dire(e_syn, real, w, components)))
    _assert_public_matches_oracle(e_syn, real, w, components)


class TestBatchedDireLoss:
    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("sizes, cap", [
        ((5, 9, 3), None),       # unequal classes, no cap
        ((4, 12, 7), 6),         # cap above some class sizes
        ((8, 8, 8), 8),          # equal classes, no padding
    ], ids=["uncapped", "cap-above-some", "equal"])
    def test_matches_per_class_oracle(self, reduction, diagonal, sizes, cap):
        x, real = _ragged_world(4, sizes, cap)
        w = DireWeights(r_c=1.3, r_e=0.4, reduction=reduction,
                        include_diagonal_cd=diagonal)
        _assert_matches_oracle(x, real, w)

    @pytest.mark.parametrize("components", [("cd",), ("cdm",), ("edm",), ("cd", "edm")])
    def test_component_subsets(self, components):
        x, real = _ragged_world(3, (6, 2, 9))
        _assert_matches_oracle(x, real, DireWeights(r_c=0.7, r_e=0.9), components)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_single_point_per_class(self, reduction, diagonal):
        x, real = _ragged_world(1, (5, 3))
        w = DireWeights(reduction=reduction, include_diagonal_cd=diagonal)
        _assert_matches_oracle(x, real, w)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_zero_norm_synthetic_row(self, reduction):
        x, real = _ragged_world(3, (4, 7))
        x[1, 2] = 0.0
        _assert_matches_oracle(x, real, DireWeights(reduction=reduction))

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_dire_loss_unequal_synthetic_classes(self, reduction):
        # one block cannot hold classes of 2, 5 and 1 points; dire_loss
        # runs each class on its own
        r = Rng(43)
        _, real = _ragged_world(1, (6, 3, 8))
        e_syn = EmbeddingSet({c: rng_normal(r.split(c), k, 4)
                              for c, k in enumerate((2, 5, 1))})
        w = DireWeights(r_c=1.3, r_e=0.4, reduction=reduction)
        _assert_public_matches_oracle(e_syn, real, w)
        assert dire_loss(e_syn, real, w)[1].grad.shape == (8, 4)

    def test_padded_layout(self):
        x, real = _ragged_world(3, (2, 11))
        prepared = RealSide.prepare(real, real.classes())
        assert prepared.y.shape == (2, 11, 4)
        assert prepared.mask.sum(axis=1).tolist() == [2.0, 11.0]
        assert np.all(prepared.y[0, 2:] == 0.0)
        # the EDM GEMM's right operand [-2 y^T; 1; |y|^2], 0 on the padding
        right = prepared.right
        assert right.shape == (2, 6, 11)
        assert np.array_equal(right[:, :4], -2.0 * prepared.y.transpose(0, 2, 1))
        assert np.all(right[:, 4] == 1.0)
        assert np.array_equal(right[:, 5], np.einsum("crf,crf->cr", prepared.y, prepared.y))
        assert np.all(right[0, 5, 2:] == 0.0)

    def test_gradient_accumulates_into_given_array(self):
        x, real = _ragged_world(3, (4, 4))
        w = DireWeights()
        fresh = np.zeros_like(x)
        batched_dire_loss(x, RealSide.prepare(real, [0, 1]), w, ALL_COMPONENTS, fresh)
        base = np.full_like(x, 0.25)
        batched_dire_loss(x, RealSide.prepare(real, [0, 1]), w, ALL_COMPONENTS, base)
        np.testing.assert_allclose(base, fresh + 0.25, rtol=1e-15, atol=1e-15)

    def test_missing_class_rejected(self):
        _, real = _ragged_world(2, (3, 3))
        with pytest.raises(ParameterError, match="class 5"):
            RealSide.prepare(real, [0, 5])

    def test_mismatched_blocks_rejected(self):
        x, real = _ragged_world(2, (3, 3))
        with pytest.raises(ParameterError, match="block"):
            batched_dire_loss(x[:, :, :3], RealSide.prepare(real, [0, 1]), MEAN,
                              ALL_COMPONENTS, np.zeros_like(x[:, :, :3]))
