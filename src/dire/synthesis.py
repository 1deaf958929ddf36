"""Recover stage: gradient-based synthesis of a condensed dataset.

Starting from seeded Gaussian noise with a fixed class layout (ipc points
per class, class-blocked), each iteration descends the total objective

    L_total = L_ce + L_bn + L_syn

where L_ce is mean teacher cross-entropy against the hard labels, L_bn
matches batch feature statistics to the statistics stored at squeeze time,
and L_syn is the diversity regularizer with any subset of its components
enabled. Real embeddings are extracted, capped and prepared once up front
into an `Objective` (the teacher is frozen); all gradients flow to the
synthetic points through the teacher's explicit backward pass. The trace is
one (iters, len(TRACE_COLUMNS)) array whose row t - 1 holds iteration t's
terms, as the `Objective` call returned them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import (ConfigError, DimensionError, NumericalError, ParameterError,
                     check_number)
from .losses import ALL_COMPONENTS, DireWeights, RealSide, batched_dire_loss
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

    def __post_init__(self):
        for key, low in (("ipc", 1), ("iters", 1), ("seed", 0)):
            check_number(getattr(self, key), key, low, integer=True, error=ConfigError)
        for key in ("lr", "lambda_bn", "r_c", "r_e", "init_std"):
            check_number(getattr(self, key), key, 0, error=ConfigError)
        check_number(self.temperature, "temperature", 0, strict=True, error=ConfigError)
        if self.real_cap is not None:
            check_number(self.real_cap, "real_cap", 1, integer=True, error=ConfigError)
        if self.reduction not in ("sum", "mean"):
            raise ConfigError(f"reduction must be 'sum' or 'mean', got {self.reduction!r}")
        self.components = tuple(self.components)
        for comp in self.components:
            if comp not in ALL_COMPONENTS:
                raise ConfigError(f"components: unknown component {comp!r}")

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
        with a ConfigError that names the key. Numbers and the reduction are
        typed by __post_init__'s checks."""
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
        comps = raw.get("components", [])
        if not (isinstance(comps, list) and all(isinstance(c, str) for c in comps)):
            raise ConfigError(f"components must be a list of strings, got {comps!r}")
        if not isinstance(raw.get("include_diagonal_cd", True), bool):
            raise ConfigError(
                f"include_diagonal_cd must be bool, got {raw['include_diagonal_cd']!r}")
        return cls(**raw)


@dataclass
class SyntheticDataset:
    """Recovered points, their fixed hard labels and the trace: one row per
    iteration, in TRACE_COLUMNS order."""
    points: np.ndarray
    labels: np.ndarray
    trace: np.ndarray
    soft_labels: object = None


TRACE_COLUMNS = ("l_ce", "l_bn", "cd", "cdm", "edm", "total")


def trace_to_csv(trace: np.ndarray) -> str:
    lines = ["iter," + ",".join(TRACE_COLUMNS)]
    lines += [f"{i}," + ",".join(f"{v:.9g}" for v in row)
              for i, row in enumerate(trace.tolist(), start=1)]
    return "\n".join(lines) + "\n"


class Objective:
    """L_total = L_ce + L_bn + L_syn over constants prepared once: the
    one-hot rows of the checked labels, the class layout and, when the
    regularizer is on, the padded real side. Calling it on the synthetic
    points returns (row, gradient w.r.t. the points), the row being this
    evaluation's float64 values in TRACE_COLUMNS order.

    The statistics term couples the full batch. The regularizer runs on the
    feature-layer activations, all classes at once, against all of `e_real`
    (cfg.real_cap is applied by `recover`, not here). Labels must be
    class-blocked with an equal count per class, as `class_blocked_labels`
    makes them.
    """

    def __init__(self, teacher: TeacherModel, hard_labels, e_real: EmbeddingSet,
                 cfg: RunConfig):
        if teacher.feature_mean is None or teacher.feature_var is None:
            raise ParameterError("Objective: teacher has no stored feature stats")
        labels = np.asarray(hard_labels, dtype=np.int64)
        if (labels.ndim != 1 or labels.size == 0 or labels.min() < 0
                or labels.max() >= teacher.n_classes):
            raise ParameterError("Objective: labels must be a non-empty 1-D "
                                 f"array in [0, {teacher.n_classes})")
        classes = np.unique(labels)
        self.k = labels.size // classes.size
        # the regularizer reshapes features to (C, K, F): never mix classes
        if not np.array_equal(labels, np.repeat(classes, self.k)):
            raise ParameterError("Objective: labels must be class-blocked "
                                 "with an equal count per class")
        self.teacher, self.cfg = teacher, cfg
        self.targets = np.eye(teacher.n_classes)[labels]
        self.real = None
        if cfg.components and (cfg.r_c > 0 or cfg.r_e > 0):
            self.real = RealSide.prepare(e_real, classes.tolist())
            self.weights = cfg.dire_weights()

    def __call__(self, s_points):
        teacher, cfg = self.teacher, self.cfg
        acts = forward_activations(teacher, s_points)
        feats = acts[teacher.feature_layer]
        n = feats.shape[0]
        if n != self.targets.shape[0]:
            raise DimensionError(
                f"Objective: {n} points vs {self.targets.shape[0]} labels")

        l_ce, dlogits = _cross_entropy_and_dlogits(acts[-1], self.targets)

        mu = feats.mean(axis=0)
        var = feats.var(axis=0)
        dmu = mu - teacher.feature_mean
        dvar = var - teacher.feature_var
        l_bn = cfg.lambda_bn * float(np.sum(dmu ** 2) + np.sum(dvar ** 2))
        dfeats = cfg.lambda_bn * (2.0 * dmu / n + 4.0 * dvar * (feats - mu) / n)

        if self.real is not None:
            shape = (-1, self.k, feats.shape[1])
            cd, cdm, edm, l_syn = batched_dire_loss(
                feats.reshape(shape), self.real, self.weights, cfg.components,
                dfeats.reshape(shape))
        else:
            cd = cdm = edm = l_syn = 0.0

        for name, v in (("l_ce", l_ce), ("l_bn", l_bn), ("l_syn", l_syn)):
            if not np.isfinite(v):
                raise NumericalError(f"Objective: non-finite {name}")
        row = np.array([l_ce, l_bn, cd, cdm, edm, l_ce + l_bn + l_syn])
        grad = input_gradient(teacher, acts, dlogits=dlogits, dfeatures=dfeats)
        return row, grad


def class_blocked_labels(n_classes: int, ipc: int) -> np.ndarray:
    return np.repeat(np.arange(n_classes, dtype=np.int64), ipc)


def recover(teacher: TeacherModel, real_train: LabeledDataset,
            cfg: RunConfig) -> SyntheticDataset:
    """Synthesize ipc points per class by descending L_total for cfg.iters
    steps from seeded Gaussian noise. Hard labels are fixed; real embeddings
    are extracted and capped to cfg.real_cap per class (a draw seeded by
    cfg.seed) once before the loop."""
    labels = class_blocked_labels(real_train.n_classes, cfg.ipc)
    init_rng = Rng(cfg.seed).split(7001)
    points = rng_normal(init_rng, labels.shape[0], real_train.points.shape[1],
                        0.0, cfg.init_std)

    real_emb = extract_features(teacher, real_train.points)
    e_real = EmbeddingSet.from_labeled(real_emb, real_train.labels).subsample(
        cfg.real_cap, Rng(cfg.seed))

    objective = Objective(teacher, labels, e_real, cfg)

    trace = np.empty((cfg.iters, len(TRACE_COLUMNS)))
    for t in range(1, cfg.iters + 1):
        try:
            trace[t - 1], grad = objective(points)
        except NumericalError as exc:
            raise NumericalError(f"recover: iteration {t}: {exc}") from exc
        points = points - cfg.lr * grad
        if not np.all(np.isfinite(points)):
            raise NumericalError(f"recover: non-finite points after iteration {t}")
    return SyntheticDataset(points=points, labels=labels, trace=trace)
