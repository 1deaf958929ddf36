"""Diversity regularizer: the CD, CDM, and EDM terms with analytic gradients.

Per class, with synthetic embeddings X (K x D) and real embeddings Y (R x D):

  CD   = reduce_{i,j} cos(x_i, x_j)          spread synthetic points apart
  CDM  = 1 - reduce_{i,j} cos(x_i, y_j)      align directions with real data
  EDM  = reduce_{i,j} |x_i - y_j|            pull magnitudes toward real data

`reduce` is a sum or a mean over all ordered pairs; mean is the default so
the weights transfer across synthetic-set sizes, sum preserves the raw
double-sum form. The combined value per class is
r_c * (CD + CDM) + r_e * EDM.

The cosine terms need no pairwise matrix. With unit rows x_i/|x_i| (0 for
rows whose norm is under 1e-12) summed to s = sum_i x_i/|x_i|, and t the
same sum over Y, the double sums are sum_ij cos(x_i, x_j) = s.s and
sum_ij cos(x_i, y_j) = s.t. Leaving out the diagonal subtracts one per
nonzero row. EDM forms the K x R distance block once and takes its value
and its gradient from it.

Gradients are with respect to X only; Y is constant. Differentiating s.t
gives row i the gradient (t - (u_i.t) u_i) / |x_i| with u_i the unit row;
CD uses s in place of t and doubles it, since each pair appears in both
orders. Rows under the norm floor get a zero cosine gradient, as any other
subgradient choice would explode. Each distance term differentiates to
(x - y)/|x - y| with a 1e-12 denominator floor (zero gradient at coincident
pairs).

`batched_dire_loss` is the form `recover` runs: all classes at once on a
(C, K, F) block of synthetic embeddings against a `RealSide` prepared once
per run. The real side is zero-padded to the largest class with a row mask;
zero rows add nothing to the unit sums t_c, and the mask takes the padding
out of the EDM distances, their inverses and the per-class divisors. By
linearity the CD and CDM gradients are one cosine gradient with the
direction r_c (2 a_cd s_c - a_cdm t_c), a_* being the reduction's divisors.
It is the only implementation of the terms: `cd_loss`, `cdm_loss` and
`edm_loss` run one class as a C = 1 block, and `dire_loss` runs each class
that way in turn. The per-class oracle they are checked against lives in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .embeddings import EmbeddingSet
from .errors import ParameterError
from .kernels import _right_cols, _root, _sq_dist_rows
from .matrix import as_matrix

EDM_DIST_FLOOR = 1e-12
_NORM_FLOOR = 1e-12

ALL_COMPONENTS = ("cd", "cdm", "edm")


@dataclass
class DireWeights:
    """Weights and reduction conventions for the regularizer."""
    r_c: float = 1.0
    r_e: float = 0.1
    reduction: str = "mean"
    include_diagonal_cd: bool = True

    def __post_init__(self):
        for name, v in (("r_c", self.r_c), ("r_e", self.r_e)):
            if not np.isfinite(v) or v < 0:
                raise ParameterError(f"DireWeights: {name} must be finite and >= 0, got {v}")
        if self.reduction not in ("sum", "mean"):
            raise ParameterError(
                f"DireWeights: reduction must be 'sum' or 'mean', got {self.reduction!r}")


@dataclass
class LossBreakdown:
    """Per-class (or total) regularizer values and the gradient w.r.t. the
    synthetic embeddings that produced them."""
    cd: float
    cdm: float
    edm: float
    l_syn: float
    grad: np.ndarray


def _unit_rows(x: np.ndarray):
    """(rows scaled to unit length, inverse norms), both 0 on rows whose
    norm is under the floor."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    inv = np.where(norms >= _NORM_FLOOR, 1.0 / np.maximum(norms, _NORM_FLOOR), 0.0)
    return x * inv[:, None], inv


@dataclass
class RealSide:
    """Real embeddings of C classes, prepared once for `batched_dire_loss`.

    `y` is the (C, R, F) block zero-padded to the largest class, `mask` its
    (C, R) row mask (1 on real rows), `right` the (C, F + 2, R) right
    operand [-2 y^T; 1; |y|^2] of the EDM distance GEMM
    (`kernels._sq_dist_rows`) and `t` the (C, F) sums of the unit rows.
    """
    y: np.ndarray
    right: np.ndarray
    mask: np.ndarray
    t: np.ndarray

    @classmethod
    def prepare(cls, e_real: EmbeddingSet, classes) -> "RealSide":
        """Classes in the given order, all of `e_real`'s rows for each."""
        for c in classes:
            if c not in e_real:
                raise ParameterError(f"RealSide: class {c} missing from real embeddings")
        blocks = [e_real[c] for c in classes]
        y = np.zeros((len(blocks), max(b.shape[0] for b in blocks), e_real.dim))
        mask = np.zeros(y.shape[:2])
        for i, b in enumerate(blocks):
            y[i, :b.shape[0]] = b
            mask[i, :b.shape[0]] = 1.0
        unit = _unit_rows(y.reshape(-1, y.shape[2]))[0].reshape(y.shape)
        return cls(y=y, right=_right_cols(y), mask=mask, t=unit.sum(axis=1))


def batched_dire_loss(x: np.ndarray, real: RealSide, w: DireWeights,
                      components, grad: np.ndarray):
    """The regularizer over all classes at once.

    `x` is the (C, K, F) block of synthetic embeddings, class i against row
    i of `real`. Adds the gradient into `grad` (C, K, F) in place and
    returns the totals (cd, cdm, edm, l_syn) over classes, the values
    `dire_loss` gives up to rounding.
    """
    if x.shape[0] != real.y.shape[0] or x.shape[2] != real.y.shape[2]:
        raise ParameterError(
            f"batched_dire_loss: synthetic block {x.shape} vs real block {real.y.shape}")
    k = x.shape[1]
    # reduction divisors of the synthetic x real terms, per class
    per_pair = (1.0 / (k * real.mask.sum(axis=1)) if w.reduction == "mean"
                else np.ones(x.shape[0]))
    cd = cdm = edm = 0.0
    if "cd" in components or "cdm" in components:
        unit, inv = _unit_rows(x.reshape(-1, x.shape[2]))
        unit, inv = unit.reshape(x.shape), inv.reshape(x.shape[:2])
        s = unit.sum(axis=1)
        direction = np.zeros_like(s)
        if "cd" in components:
            pairs = k * k if w.include_diagonal_cd else k * k - k
            a = 1.0 if w.reduction == "sum" else (1.0 / pairs if pairs else 0.0)
            raw = np.einsum("cf,cf->c", s, s)
            if not w.include_diagonal_cd:
                raw -= np.count_nonzero(inv, axis=1)
            cd = float(raw.sum()) * a
            direction += (2.0 * a) * s
        if "cdm" in components:
            cdm = float(np.sum(1.0 - np.einsum("cf,cf->c", s, real.t) * per_pair))
            direction -= per_pair[:, None] * real.t
        direction *= w.r_c
        along = np.einsum("ckf,cf->ck", unit, direction)
        grad += inv[..., None] * (direction[:, None, :] - along[..., None] * unit)
    if "edm" in components:
        d = _root(_sq_dist_rows(x, real.right))
        mask = real.mask[:, None, :]
        d *= mask
        edm = float(d.sum(axis=(1, 2)) @ per_pair)
        np.maximum(d, EDM_DIST_FLOOR, out=d)
        np.divide(mask, d, out=d)  # 1/|x_i - y_j| on real pairs, 0 on padding
        g = x * d.sum(axis=2)[..., None]
        g -= d @ real.y
        g *= (w.r_e * per_pair)[:, None, None]
        grad += g
    return cd, cdm, edm, w.r_c * (cd + cdm) + w.r_e * edm


def _one_class(name, x, y, w: DireWeights, components):
    """Class x against real rows y as a C = 1 block of `batched_dire_loss`:
    ((cd, cdm, edm, l_syn), gradient w.r.t. x)."""
    x = as_matrix(x, "E_syn")
    y = as_matrix(y, "E_real")
    if x.shape[1] != y.shape[1]:
        raise ParameterError(f"{name}: feature dims differ, {x.shape[1]} vs {y.shape[1]}")
    grad = np.zeros_like(x)
    if "cdm" in components or "edm" in components:
        real = RealSide.prepare(EmbeddingSet({0: y}), [0])
    else:  # CD reads only the real side's shape and mask: nothing to prepare
        real = RealSide(y=y[None], right=None, mask=np.ones((1, y.shape[0])), t=None)
    values = batched_dire_loss(x[None], real, w, components, grad[None])
    return values, grad


def cd_loss(e_syn_c, w: DireWeights):
    """Pairwise cosine similarity of a synthetic class against itself.

    The diagonal (each point against itself) is included by default; those
    terms are the constant 1 and carry no gradient. Returns (value, K x D
    gradient).
    """
    # the CD path reads only the real side's shape, so x stands in for it
    (cd, _, _, _), grad = _one_class("cd_loss", e_syn_c, e_syn_c,
                                     replace(w, r_c=1.0), ("cd",))
    return cd, grad


def cdm_loss(e_syn_c, e_real_c, w: DireWeights):
    """1 - reduced pairwise cosine between synthetic and real embeddings.

    Mean reduction keeps the value in [0, 2]; sum reduction subtracts the
    raw double sum. Returns (value, gradient w.r.t. the synthetic side).
    """
    (_, cdm, _, _), grad = _one_class("cdm_loss", e_syn_c, e_real_c,
                                      replace(w, r_c=1.0), ("cdm",))
    return cdm, grad


def edm_loss(e_syn_c, e_real_c, w: DireWeights):
    """Reduced pairwise Euclidean distance between synthetic and real
    embeddings. Returns (value, gradient w.r.t. the synthetic side)."""
    (_, _, edm, _), grad = _one_class("edm_loss", e_syn_c, e_real_c,
                                      replace(w, r_e=1.0), ("edm",))
    return edm, grad


def dire_loss(e_syn: EmbeddingSet, e_real: EmbeddingSet, w: DireWeights,
              components=ALL_COMPONENTS):
    """Full regularizer over all classes.

    Per class combines the enabled components as r_c*(cd + cdm) + r_e*edm;
    disabled components contribute exactly 0 to value and gradient. Every
    real embedding given is used; `recover` caps the real side once before
    its loop. Classes may differ in size, as each runs on its own. Returns
    (per_class, total): per_class maps class id to its LossBreakdown, total
    sums the values and stacks the gradients in ascending class order.
    """
    components = tuple(components)
    for comp in components:
        if comp not in ALL_COMPONENTS:
            raise ParameterError(f"dire_loss: unknown component {comp!r}")
    for c in e_syn.classes():
        if c not in e_real:
            raise ParameterError(f"dire_loss: class {c} missing from real embeddings")
    per_class: dict[int, LossBreakdown] = {}
    for c in e_syn.classes():
        values, grad = _one_class("dire_loss", e_syn[c], e_real[c], w, components)
        per_class[c] = LossBreakdown(*values, grad=grad)
    parts = per_class.values()
    total = LossBreakdown(cd=sum(b.cd for b in parts), cdm=sum(b.cdm for b in parts),
                          edm=sum(b.edm for b in parts), l_syn=sum(b.l_syn for b in parts),
                          grad=np.vstack([b.grad for b in parts]))
    return per_class, total


def finite_diff_grad(value_fn, e, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix."""
    if h <= 0:
        raise ParameterError(f"finite_diff_grad: h must be > 0, got {h}")
    e = as_matrix(e, "E")
    num = np.zeros_like(e)
    for i in range(e.shape[0]):
        for j in range(e.shape[1]):
            bump = e.copy()
            bump[i, j] += h
            up = value_fn(bump)
            bump[i, j] -= 2 * h
            down = value_fn(bump)
            num[i, j] = (up - down) / (2 * h)
    return num


def finite_diff_check(loss_fn, e, h: float = 1e-5) -> float:
    """Max relative disagreement between a loss's analytic gradient and
    central differences; `loss_fn` maps a matrix to (value, gradient).
    Denominator per coordinate is max(|analytic|, |numeric|, 1e-8)."""
    e = as_matrix(e, "E")
    _, analytic = loss_fn(e)
    numeric = finite_diff_grad(lambda m: loss_fn(m)[0], e, h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
