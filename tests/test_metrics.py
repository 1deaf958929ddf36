import numpy as np
import pytest

from dire import (DimensionError, EmbeddingSet, NumericalError, ParameterError,
                  Rng, as_matrix, coverage, intra_class_cosine, metrics_report,
                  pairwise_cosine_matrix, rng_normal, row_l2_normalize,
                  vendi_score)


def jacobi(s: np.ndarray, max_sweeps: int = 100, tol: float = 1e-12):
    """Cyclic Jacobi rotations on a symmetric matrix.

    Returns (eigenvalues, eigenvectors-as-columns), unsorted. Converges when
    the off-diagonal Frobenius norm drops below tol * |S|_F; raises after
    max_sweeps otherwise.
    """
    a = s.copy()
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return np.array([a[0, 0]]), v
    scale = max(float(np.linalg.norm(s)), np.finfo(np.float64).tiny)
    diag_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        # norm over off-diagonal entries only; the sum-minus-diagonal form
        # cancels catastrophically and floors around |S| * sqrt(eps)
        off = float(np.sqrt(np.sum(a[diag_mask] ** 2)))
        if off < tol * scale:
            return np.diag(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # stable rotation angle: tan(2θ) = 2 a_pq / (a_qq - a_pp)
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - sn * row_q
                a[q, :] = sn * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - sn * col_q
                a[:, q] = sn * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - sn * vq
                v[:, q] = sn * vp + c * vq
    raise NumericalError(f"jacobi eigensolver: no convergence in {max_sweeps} sweeps")


def sym_eig(s, max_sweeps: int = 100):
    """Eigenvalues (descending) and matching eigenvector columns of the
    symmetrized input (S + S^T)/2, by cyclic Jacobi: Vendi's oracle."""
    s = as_matrix(s, "S")
    if s.shape[0] != s.shape[1]:
        raise DimensionError(f"sym_eig: matrix must be square, got {s.shape}")
    sym = 0.5 * (s + s.T)
    vals, vecs = jacobi(sym, max_sweeps=max_sweeps)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def sym_eigenvalues(s, max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of the symmetrized input, in descending order."""
    return sym_eig(s, max_sweeps=max_sweeps)[0]


def oracle_vendi(emb):
    """Independent route: numpy's dense symmetric solver + direct entropy."""
    unit = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    k = unit @ unit.T / emb.shape[0]
    lam = np.maximum(np.linalg.eigvalsh(k), 0.0)
    lam = lam / lam.sum()
    lam = lam[lam > 0]
    return float(np.exp(-np.sum(lam * np.log(lam))))


def jacobi_vendi(emb):
    """Vendi through the hand-written Jacobi solver on the full n x n cosine
    kernel: an independent route to the same spectrum."""
    unit = row_l2_normalize(emb)
    lam = sym_eigenvalues(pairwise_cosine_matrix(unit, unit) / emb.shape[0])
    lam = np.maximum(lam, 0.0)
    if lam.sum() <= 0.0:
        return 1.0
    lam = lam / lam.sum()
    lam = lam[lam > 0.0]
    return float(np.exp(-np.sum(lam * np.log(lam))))


class TestJacobiEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(sym_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])

    def test_classic_2x2(self):
        vals = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-12)

    def test_reconstruction(self):
        s = rng_normal(Rng(13), 8, 8)
        s = 0.5 * (s + s.T)
        vals, vecs = sym_eig(s)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, s, atol=1e-8)

    def test_matches_lapack_solver(self):
        for seed in range(5):
            s = rng_normal(Rng(seed), 10, 10)
            s = 0.5 * (s + s.T)
            np.testing.assert_allclose(sym_eigenvalues(s),
                                       np.linalg.eigvalsh(s)[::-1], atol=1e-9)

    def test_eigenvalue_sum_equals_trace(self):
        s = rng_normal(Rng(17), 12, 12)
        s = 0.5 * (s + s.T)
        assert sym_eigenvalues(s).sum() == pytest.approx(np.trace(s), abs=1e-9)

    def test_descending_order(self):
        s = rng_normal(Rng(19), 7, 7)
        vals = sym_eigenvalues(s)
        assert np.all(np.diff(vals) <= 0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            sym_eigenvalues(np.ones((2, 3)))

    def test_sweep_budget_enforced(self):
        s = rng_normal(Rng(23), 16, 16)
        s = 0.5 * (s + s.T)
        with pytest.raises(NumericalError):
            sym_eigenvalues(s, max_sweeps=1)


class TestVendiScore:
    def test_identical_vectors(self):
        emb = np.tile([[1.0, 2.0, 3.0]], (6, 1))
        assert vendi_score(emb) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_vectors(self):
        assert vendi_score(np.eye(5)) == pytest.approx(5.0, abs=1e-9)

    def test_matches_independent_solver(self):
        emb = rng_normal(Rng(29), 12, 6)
        assert vendi_score(emb) == pytest.approx(oracle_vendi(emb), abs=1e-9)

    def test_permutation_and_scaling_invariance(self):
        emb = rng_normal(Rng(31), 10, 4)
        base = vendi_score(emb)
        perm = emb[np.random.default_rng(0).permutation(10)]
        assert vendi_score(perm) == pytest.approx(base, abs=1e-9)
        scaled = emb * np.linspace(0.5, 3.0, 10)[:, None]
        assert vendi_score(scaled) == pytest.approx(base, abs=1e-9)

    def test_bounds(self):
        for seed in range(5):
            emb = rng_normal(Rng(seed), 9, 3)
            v = vendi_score(emb)
            assert 1.0 - 1e-9 <= v <= 9.0 + 1e-9


def _with_zero_row(emb):
    return np.vstack([emb[:2], np.zeros((1, emb.shape[1])), emb[2:]])


VENDI_ORACLE_CASES = {
    "n<D": rng_normal(Rng(51), 6, 12),
    "n=D": rng_normal(Rng(52), 9, 9),
    "n>D": rng_normal(Rng(53), 30, 5),
    "zero-row-n<D": _with_zero_row(rng_normal(Rng(54), 5, 10)),
    "zero-row-n>D": _with_zero_row(rng_normal(Rng(55), 12, 4)),
    "single-row": rng_normal(Rng(56), 1, 6),
    "identical-rows": np.tile([[0.3, -1.2, 2.0]], (5, 1)),
    "all-zero-rows": np.zeros((4, 3)),
}


class TestVendiLapackRoute:
    """`vendi_score` runs `eigvalsh` on the min(n, D) side; the Jacobi route
    over the n x n kernel is the oracle."""

    @pytest.mark.parametrize("name", sorted(VENDI_ORACLE_CASES))
    def test_matches_jacobi_oracle(self, name):
        emb = VENDI_ORACLE_CASES[name]
        assert vendi_score(emb) == pytest.approx(jacobi_vendi(emb), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        emb = rng_normal(Rng(57), 8, 3)
        emb[3, 2] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            vendi_score(emb)


class TestCoverage:
    def test_self_coverage_is_one(self):
        x = rng_normal(Rng(37), 20, 3)
        assert coverage(x, x, 5) == 1.0
        assert coverage(x, x.copy(), 5) == 1.0

    def test_far_synthetic_point(self):
        real = rng_normal(Rng(41), 10, 3)
        syn = np.full((1, 3), 1e6)
        assert coverage(real, syn, 2) == 0.0

    def test_matches_brute_force_indicator(self):
        r = Rng(43)
        real = rng_normal(r.split(0), 40, 3)
        syn = rng_normal(r.split(1), 10, 3)
        got = coverage(real, syn, 5)
        hits = 0
        for i in range(40):
            others = np.linalg.norm(real - real[i], axis=1)[np.arange(40) != i]
            radius = np.sort(others)[4]
            if np.min(np.linalg.norm(syn - real[i], axis=1)) <= radius:
                hits += 1
        assert got == hits / 40

    def test_monotone_in_k(self):
        r = Rng(47)
        real = rng_normal(r.split(0), 30, 4)
        syn = rng_normal(r.split(1), 5, 4)
        values = [coverage(real, syn, k) for k in range(1, 8)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("side", ["real", "syn"])
    def test_non_finite_side_raises(self, side):
        r = Rng(59)
        sets = {"real": rng_normal(r.split(0), 20, 3), "syn": rng_normal(r.split(1), 4, 3)}
        sets[side][1, 0] = np.nan
        with pytest.raises(NumericalError):
            coverage(sets["real"], sets["syn"], 5)

    def test_errors(self):
        real = rng_normal(Rng(0), 10, 3)
        with pytest.raises(ParameterError):
            coverage(real, real, 10)
        with pytest.raises(DimensionError):
            coverage(real, rng_normal(Rng(1), 4, 2), 2)


class TestIntraClassCosine:
    def test_identical_pair(self):
        es = EmbeddingSet({0: np.array([[1.0, 2.0], [1.0, 2.0]])})
        per_class, mean = intra_class_cosine(es)
        assert per_class[0] == pytest.approx(1.0)
        assert mean == pytest.approx(1.0)

    def test_orthonormal_class(self):
        per_class, mean = intra_class_cosine(EmbeddingSet({0: np.eye(3)}))
        assert abs(per_class[0]) <= 1e-12
        assert abs(mean) <= 1e-12

    def test_matches_double_loop(self):
        r = Rng(53)
        es = EmbeddingSet({c: rng_normal(r.split(c), 5, 4) for c in range(3)})
        per_class, mean = intra_class_cosine(es)
        for idx, c in enumerate(es.classes()):
            m = es[c]
            tot = cnt = 0
            for i in range(5):
                for j in range(5):
                    if i == j:
                        continue
                    tot += m[i] @ m[j] / (np.linalg.norm(m[i]) * np.linalg.norm(m[j]))
                    cnt += 1
            assert per_class[idx] == pytest.approx(tot / cnt, abs=1e-12)

    def test_small_class_rejected_naming_class(self):
        es = EmbeddingSet({0: np.eye(3), 4: np.ones((1, 3))})
        with pytest.raises(ParameterError, match="class 4"):
            intra_class_cosine(es)


class TestMetricsReport:
    def _toy_sets(self):
        rng = Rng(2024)
        real = {c: rng_normal(rng.split(c), 30, 5, mean=c, std=1.0) for c in range(3)}
        syn = {c: rng_normal(rng.split(100 + c), 6, 5, mean=c, std=1.5) for c in range(3)}
        return EmbeddingSet(real), EmbeddingSet(syn)

    def test_golden_values(self):
        # frozen from a one-time run of brute-force coverage, eigvalsh-based
        # vendi, and double-loop similarity oracles on this seeded instance
        real, syn = self._toy_sets()
        rep = metrics_report(real, syn, k=5)
        assert rep.coverage == pytest.approx(0.35555555555555557, abs=1e-12)
        assert rep.vendi == pytest.approx(3.592314198318485, abs=1e-9)
        assert rep.mean_intra_class_cosine == pytest.approx(0.15120665338463493, abs=1e-9)
        assert rep.k_used == 5
        assert rep.n_real == 90 and rep.n_syn == 18

    def test_syn_equals_real(self):
        real, _ = self._toy_sets()
        rep = metrics_report(real, real, k=5)
        assert rep.coverage == 1.0
        per_real, mean_real = intra_class_cosine(real)
        assert rep.mean_intra_class_cosine == pytest.approx(mean_real)
        vendi_real = float(np.mean([vendi_score(real[c]) for c in real.classes()]))
        assert rep.vendi == pytest.approx(vendi_real)

    def test_invariants(self):
        real, syn = self._toy_sets()
        rep = metrics_report(real, syn, k=3)
        assert 0.0 <= rep.coverage <= 1.0
        assert 1.0 - 1e-9 <= rep.vendi <= rep.n_syn
        assert -1.0 <= rep.mean_intra_class_cosine <= 1.0

    def test_scopes(self):
        real, syn = self._toy_sets()
        pooled = metrics_report(real, syn, k=5, vendi_scope="pooled")
        assert pooled.vendi == pytest.approx(vendi_score(syn.pooled()), abs=1e-9)
        per_cls_cov = metrics_report(real, syn, k=5, coverage_scope="per_class")
        expect = np.mean([coverage(real[c], syn[c], 5) for c in real.classes()])
        assert per_cls_cov.coverage == pytest.approx(expect)
        with pytest.raises(ParameterError):
            metrics_report(real, syn, k=5, vendi_scope="both")

    def test_class_mismatch_rejected(self):
        real, _ = self._toy_sets()
        syn = EmbeddingSet({0: np.eye(5), 1: np.eye(5)})
        with pytest.raises(ParameterError):
            metrics_report(real, syn, k=5)

    def test_to_dict_roundtrip_fields(self):
        real, syn = self._toy_sets()
        d = metrics_report(real, syn, k=5).to_dict()
        assert set(d) == {"coverage", "vendi", "mean_intra_class_cosine",
                          "per_class_cosine", "k_used", "n_real", "n_syn"}


class TestEmbeddingSet:
    def test_from_labeled_groups_and_rows(self):
        emb = np.arange(12, dtype=float).reshape(6, 2)
        labels = np.array([1, 0, 1, 0, 1, 0])
        es = EmbeddingSet.from_labeled(emb, labels)
        assert es.classes() == [0, 1]
        assert np.array_equal(es[0], emb[[1, 3, 5]])
        assert np.array_equal(es[1], emb[[0, 2, 4]])

    def test_subsample_cap_and_determinism(self):
        es = EmbeddingSet({0: rng_normal(Rng(1), 40, 3), 1: rng_normal(Rng(2), 5, 3)})
        sub1 = es.subsample(8, Rng(7))
        sub2 = es.subsample(8, Rng(7))
        assert sub1[0].shape == (8, 3)
        assert sub1[1].shape == (5, 3)  # below cap, untouched
        assert np.array_equal(sub1[0], sub2[0])

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionError):
            EmbeddingSet({0: np.eye(2), 1: np.eye(3)})
