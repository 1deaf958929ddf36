"""Recover stage: gradient-based synthesis of a condensed dataset.

Starting from seeded Gaussian noise with a fixed class layout (ipc points
per class, class-blocked), each iteration descends the total objective

    L_total = L_ce + L_bn + L_syn

where L_ce is mean teacher cross-entropy against the hard labels, L_bn
matches batch feature statistics to the statistics stored at squeeze time,
and L_syn is the diversity regularizer with any subset of its components
enabled. Real embeddings are extracted once up front (the teacher is
frozen); all gradients flow to the synthetic points through the teacher's
explicit backward pass.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet
from .errors import ConfigError, NumericalError, ParameterError
from .losses import ALL_COMPONENTS, DireWeights, dire_loss
from .matrix import Rng, rng_normal
from .teacher import (LabeledDataset, TeacherModel, _cross_entropy_and_dlogits,
                      extract_features, forward_activations, input_gradient)


@dataclass
class RunConfig:
    """All synthesis hyperparameters. Defaults are the desk benchmark."""
    ipc: int = 10
    iters: int = 500
    lr: float = 0.1
    lambda_bn: float = 1.0
    r_c: float = 1.0
    r_e: float = 0.1
    reduction: str = "mean"
    include_diagonal_cd: bool = True
    components: tuple = ALL_COMPONENTS
    real_cap: int | None = 256
    seed: int = 0
    init_std: float = 0.1
    temperature: float = 1.0
    optimizer: str = "gd"
    momentum: float = 0.9

    def __post_init__(self):
        if self.ipc < 1:
            raise ConfigError(f"ipc must be >= 1, got {self.ipc}")
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.lambda_bn < 0:
            raise ConfigError(f"lambda_bn must be >= 0, got {self.lambda_bn}")
        if self.r_c < 0 or self.r_e < 0:
            raise ConfigError(f"r_c and r_e must be >= 0, got {self.r_c}, {self.r_e}")
        if self.reduction not in ("sum", "mean"):
            raise ConfigError(f"reduction must be 'sum' or 'mean', got {self.reduction!r}")
        self.components = tuple(self.components)
        for comp in self.components:
            if comp not in ALL_COMPONENTS:
                raise ConfigError(f"components: unknown component {comp!r}")
        if self.real_cap is not None and self.real_cap < 1:
            raise ConfigError(f"real_cap must be >= 1 or null, got {self.real_cap}")
        if self.init_std < 0:
            raise ConfigError(f"init_std must be >= 0, got {self.init_std}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.optimizer not in ("gd", "momentum"):
            raise ConfigError(f"optimizer must be 'gd' or 'momentum', got {self.optimizer!r}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")

    def dire_weights(self) -> DireWeights:
        return DireWeights(r_c=self.r_c, r_e=self.r_e, reduction=self.reduction,
                           include_diagonal_cd=self.include_diagonal_cd)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["components"] = list(self.components)
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Build from parsed JSON, rejecting unknown keys and mistyped values
        with a ConfigError that names the key."""
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        unknown = set(raw) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
        for key, value in raw.items():
            kind = type(defaults[key])
            if key == "components":
                ok = isinstance(value, list) and all(isinstance(c, str) for c in value)
            elif kind is bool or isinstance(value, bool):  # bools are not numbers
                ok = kind is bool and isinstance(value, bool)
            else:
                ok = ((key == "real_cap" and value is None)
                      or isinstance(value, (int, float) if kind is float else kind))
            if not ok:
                want = "a list of strings" if key == "components" else kind.__name__
                raise ConfigError(f"{key} must be {want}, got {value!r}")
        return cls(**raw)


@dataclass
class SynthesisLoss:
    """One iteration's loss values."""
    l_ce: float
    l_bn: float
    cd: float
    cdm: float
    edm: float
    l_syn: float
    total: float

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclass
class SyntheticDataset:
    points: np.ndarray
    labels: np.ndarray
    soft_labels: object = None
    iterations: int = 0
    final_loss: SynthesisLoss | None = None
    trace: list = field(default_factory=list)

    def ipc(self) -> int:
        _, counts = np.unique(self.labels, return_counts=True)
        return int(counts[0])


TRACE_CSV_HEADER = "iter,l_ce,l_bn,cd,cdm,edm,total"


def trace_to_csv(trace) -> str:
    lines = [TRACE_CSV_HEADER]
    for i, row in enumerate(trace, start=1):
        lines.append(f"{i},{row.l_ce:.9g},{row.l_bn:.9g},{row.cd:.9g},"
                     f"{row.cdm:.9g},{row.edm:.9g},{row.total:.9g}")
    return "\n".join(lines) + "\n"


def total_loss_and_grad(teacher: TeacherModel, s_points, hard_labels,
                        e_real: EmbeddingSet, cfg: RunConfig):
    """Assemble L_ce + L_bn + L_syn on the current synthetic points.

    Returns (SynthesisLoss, gradient w.r.t. s_points). The statistics term
    couples the full batch; the regularizer is evaluated per class on the
    feature-layer activations and scattered back to point order.
    """
    if teacher.feature_mean is None or teacher.feature_var is None:
        raise ParameterError("total_loss_and_grad: teacher has no stored feature stats")
    hard_labels = np.asarray(hard_labels, dtype=np.int64)
    acts = forward_activations(teacher, s_points)
    logits = acts[-1]
    feats = acts[teacher.feature_layer]
    n = feats.shape[0]

    l_ce, dlogits = _cross_entropy_and_dlogits(logits, hard_labels)

    mu = feats.mean(axis=0)
    var = feats.var(axis=0)
    dmu = mu - teacher.feature_mean
    dvar = var - teacher.feature_var
    l_bn = cfg.lambda_bn * float(np.sum(dmu ** 2) + np.sum(dvar ** 2))
    dfeats = cfg.lambda_bn * (2.0 * dmu / n + 4.0 * dvar * (feats - mu) / n)

    if cfg.components and (cfg.r_c > 0 or cfg.r_e > 0):
        e_syn = EmbeddingSet.from_labeled(feats, hard_labels)
        per_class, total = dire_loss(e_syn, e_real, cfg.dire_weights(),
                                     components=cfg.components,
                                     real_cap=cfg.real_cap, cap_seed=cfg.seed)
        for c, breakdown in per_class.items():
            dfeats[e_syn.rows[c]] += breakdown.grad
        cd, cdm, edm, l_syn = total.cd, total.cdm, total.edm, total.l_syn
    else:
        cd = cdm = edm = l_syn = 0.0

    loss = SynthesisLoss(l_ce=l_ce, l_bn=l_bn, cd=cd, cdm=cdm, edm=edm,
                         l_syn=l_syn, total=l_ce + l_bn + l_syn)
    for name, v in (("l_ce", l_ce), ("l_bn", l_bn), ("l_syn", l_syn)):
        if not np.isfinite(v):
            raise NumericalError(f"total_loss_and_grad: non-finite {name}")
    grad = input_gradient(teacher, acts, dlogits=dlogits, dfeatures=dfeats)
    return loss, grad


def class_blocked_labels(n_classes: int, ipc: int) -> np.ndarray:
    return np.repeat(np.arange(n_classes, dtype=np.int64), ipc)


def recover(teacher: TeacherModel, real_train: LabeledDataset,
            cfg: RunConfig) -> SyntheticDataset:
    """Synthesize ipc points per class by descending L_total for cfg.iters
    steps from seeded Gaussian noise. Hard labels are fixed; real embeddings
    are extracted once before the loop."""
    labels = class_blocked_labels(real_train.n_classes, cfg.ipc)
    init_rng = Rng(cfg.seed).split(7001)
    points = rng_normal(init_rng, labels.shape[0], real_train.points.shape[1],
                        0.0, cfg.init_std)

    real_emb = extract_features(teacher, real_train.points)
    e_real = EmbeddingSet.from_labeled(real_emb, real_train.labels)

    velocity = np.zeros_like(points)
    trace = []
    loss = None
    for t in range(1, cfg.iters + 1):
        try:
            loss, grad = total_loss_and_grad(teacher, points, labels, e_real, cfg)
        except NumericalError as exc:
            raise NumericalError(f"recover: iteration {t}: {exc}") from exc
        if cfg.optimizer == "momentum":
            velocity = cfg.momentum * velocity + grad
            points = points - cfg.lr * velocity
        else:
            points = points - cfg.lr * grad
        if not np.all(np.isfinite(points)):
            raise NumericalError(f"recover: non-finite points after iteration {t}")
        trace.append(loss)
    return SyntheticDataset(points=points, labels=labels, soft_labels=None,
                            iterations=cfg.iters, final_loss=loss, trace=trace)
