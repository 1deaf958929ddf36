"""Quantitative diversity metrics: coverage, Vendi score, intra-class cosine.

Coverage asks what fraction of real points have at least one synthetic
point inside their k-th-nearest-neighbor ball (closed, so a synthetic copy
of a real point always counts). Both distance passes stream row blocks, so
coverage never holds an N x N matrix. The Vendi score is the exponential of
the Shannon entropy of the eigenvalues of the n-normalized cosine similarity
matrix, an effective count of distinct samples in [1, n]. Intra-class
cosine is the mean off-diagonal pairwise cosine within each class; lower
means more diverse. It is the regularizer's mean CD value without the
diagonal, by the same identity: for the unit rows u_i of `matrix.unit_rows`
and s = sum_i u_i, sum_{i != j} cos = s.s - sum_i |u_i|^2, so no K x K
matrix is formed: no metric holds more than one row block of pairs.

Vendi runs LAPACK's `eigvalsh` on the min(n, D) side: the nonzero spectrum
of U U^T / n equals that of U^T U / n for the unit rows U.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DimensionError, NumericalError, ParameterError
from .kernels import knn_distances, nearest_distances
from .matrix import as_matrix, row_l2_normalize, unit_rows


def coverage(real_emb, syn_emb, k: int = 5) -> float:
    """Fraction of real embeddings whose closed k-NN ball (radius = distance
    to their k-th nearest other real point) contains a synthetic embedding."""
    real_emb = as_matrix(real_emb, "real")
    syn_emb = as_matrix(syn_emb, "syn")
    if real_emb.shape[1] != syn_emb.shape[1]:
        raise DimensionError(
            f"coverage: feature dims differ, {real_emb.shape[1]} vs {syn_emb.shape[1]}")
    if syn_emb.shape[0] < 1:
        raise ParameterError("coverage: need at least one synthetic embedding")
    radii = knn_distances(real_emb, k)  # validates 1 <= k <= N-1
    return covered_fraction(real_emb, radii, syn_emb)


def covered_fraction(real_emb, radii, syn_emb) -> float:
    """`coverage` against radii the caller computed once with
    `knn_distances(real_emb, k)`, so every synthetic set scored against the
    same real set shares one k-NN pass."""
    return float(np.mean(nearest_distances(real_emb, syn_emb) <= radii))


def vendi_score(emb) -> float:
    """exp(Shannon entropy) of the eigenvalues of K/n, where K is the
    pairwise cosine matrix of the row-normalized embeddings.

    The eigenvalues come from the min(n, D)-sided Gram matrix of the unit
    rows, which shares K/n's nonzero spectrum. They are clamped at 0 and
    renormalized to sum 1 before the entropy, absorbing solver round-off.
    n identical rows give 1.0; n mutually orthogonal rows give n.
    """
    emb = as_matrix(emb, "embeddings")
    n, dim = emb.shape
    if n < 1:
        raise ParameterError("vendi_score: need at least one embedding")
    if not np.all(np.isfinite(emb)):
        raise NumericalError("vendi_score: embeddings have non-finite values")
    unit = row_l2_normalize(emb)
    gram = unit @ unit.T if n <= dim else unit.T @ unit
    lam = np.linalg.eigvalsh(gram / n)
    lam = np.maximum(lam, 0.0)
    total = lam.sum()
    if total <= 0.0:
        return 1.0
    lam = lam / total
    nz = lam[lam > 0.0]
    entropy = float(-np.sum(nz * np.log(nz)))
    return float(np.exp(entropy))


def intra_class_cosine(emb_set: EmbeddingSet):
    """Per-class mean of off-diagonal pairwise cosines, plus the unweighted
    mean over classes. Every class needs at least two members."""
    per_class = []
    for c in emb_set.classes():
        m = emb_set[c]
        k = m.shape[0]
        if k < 2:
            raise ParameterError(f"intra_class_cosine: class {c} has {k} member(s), need >= 2")
        unit = unit_rows(m)[0]
        s = unit.sum(axis=0)
        off_sum = float(s @ s - np.einsum("ij,ij->", unit, unit))
        per_class.append(off_sum / (k * k - k))
    per_class = np.array(per_class)
    return per_class, float(per_class.mean())


@dataclass
class MetricsReport:
    """Diversity evaluation of a synthetic set against a real set."""
    coverage: float
    vendi: float
    mean_intra_class_cosine: float
    per_class_cosine: dict[int, float] = field(default_factory=dict)
    k_used: int = 5
    n_real: int = 0
    n_syn: int = 0

    def to_dict(self):
        return {
            "coverage": self.coverage,
            "vendi": self.vendi,
            "mean_intra_class_cosine": self.mean_intra_class_cosine,
            "per_class_cosine": {str(c): v for c, v in self.per_class_cosine.items()},
            "k_used": self.k_used,
            "n_real": self.n_real,
            "n_syn": self.n_syn,
        }


def metrics_report(real: EmbeddingSet, syn: EmbeddingSet, k: int = 5,
                   coverage_scope: str = "pooled",
                   vendi_scope: str = "per_class") -> MetricsReport:
    """Aggregate the three metrics for a real/synthetic embedding pair.

    Scopes: "pooled" evaluates one number over all classes together,
    "per_class" averages the per-class values. Coverage defaults to pooled
    (one neighborhood structure over the whole real set); Vendi defaults to
    the per-class mean, which tracks the intra-class redundancy the
    regularizer targets - the pooled variant is dominated by cross-class
    geometry once classes are well separated. Intra-class cosine is
    per-class by construction.
    """
    _require_same_classes(real, syn)
    for name, scope in (("coverage_scope", coverage_scope), ("vendi_scope", vendi_scope)):
        if scope not in ("pooled", "per_class"):
            raise ParameterError(f"metrics_report: {name} must be 'pooled' or "
                                 f"'per_class', got {scope!r}")
    if coverage_scope == "pooled":
        cov = coverage(real.pooled(), syn.pooled(), k)
    else:
        cov = float(np.mean([coverage(real[c], syn[c], k) for c in real.classes()]))
    return report_with_coverage(real, syn, cov, k, vendi_scope)


def report_with_coverage(real: EmbeddingSet, syn: EmbeddingSet, cov: float,
                         k: int = 5, vendi_scope: str = "per_class") -> MetricsReport:
    """`metrics_report` around a coverage value the caller already has, for
    example from `covered_fraction` against shared radii. Intra-class cosine
    and Vendi depend on the synthetic side alone."""
    _require_same_classes(real, syn)
    per_class, mean_cos = intra_class_cosine(syn)
    if vendi_scope == "pooled":
        ven = vendi_score(syn.pooled())
    else:
        ven = float(np.mean([vendi_score(syn[c]) for c in syn.classes()]))
    return MetricsReport(
        coverage=cov, vendi=ven, mean_intra_class_cosine=mean_cos,
        per_class_cosine={c: float(v) for c, v in zip(syn.classes(), per_class)},
        k_used=k, n_real=real.total(), n_syn=syn.total())


def _require_same_classes(real: EmbeddingSet, syn: EmbeddingSet):
    if real.classes() != syn.classes():
        raise ParameterError(
            f"metrics_report: class sets differ, {real.classes()} vs {syn.classes()}")
