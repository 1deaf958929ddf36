"""Desk-scale squeeze and relabel stages.

The original-data stand-in is a Gaussian mixture with class means on the
unit sphere. The teacher is a small tanh MLP trained by minibatch SGD; its
designated hidden layer doubles as the feature extractor, and per-feature
mean/variance of that layer over the training set are stored on the model
as the normalization-statistics analog used during synthesis. Relabeling is
temperature softmax over teacher logits; students are fresh MLPs trained on
the synthetic set and scored on held-out real data.

All forward/backward passes are explicit numpy so input gradients can be
verified against finite differences. One layer loop (`_activations`) serves
both `forward_activations` and every SGD step.

`extract_features`, `teacher_logits` and `relabel` run FORWARD_BLOCK rows
at a time and write each block's top layer straight into its output rows,
so they never hold an N x hidden activation. Up to one block this is one
GEMM per layer. A longer input equals the same calls on its
FORWARD_BLOCK-row slices bit for bit, which is what lets the CLI stream
files through them; against one whole-input GEMM, the ragged last block may
round differently in the last bits (on 80 000 rows, 1.3-1.6% of the
soft-label entries moved, by at most 2.8e-14 relative).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, TrainingError
from .matrix import Rng, as_matrix, rng_normal

# rows per forward block: inputs of at most this many rows take one GEMM per
# layer, larger ones hold one block's hidden activations, not N x hidden
FORWARD_BLOCK = 4096


@dataclass
class LabeledDataset:
    points: np.ndarray
    labels: np.ndarray
    n_classes: int
    split: str = "train"

    def __post_init__(self):
        self.points = as_matrix(self.points, "points")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1 or self.labels.shape[0] != self.points.shape[0]:
            raise DimensionError(
                f"LabeledDataset: {self.points.shape[0]} points vs {self.labels.shape} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ParameterError(
                f"LabeledDataset: labels must lie in [0, {self.n_classes})")
        if self.split == "train":
            present = np.unique(self.labels)
            if present.size != self.n_classes:
                missing = sorted(set(range(self.n_classes)) - set(present.tolist()))
                raise ParameterError(f"LabeledDataset: train split missing classes {missing}")

    def __len__(self):
        return self.points.shape[0]


@dataclass
class SoftLabels:
    probs: np.ndarray
    temperature: float

    def __post_init__(self):
        self.probs = as_matrix(self.probs, "probs")
        if not np.isfinite(self.probs).all():
            raise ParameterError("SoftLabels: non-finite probability")
        if np.any(self.probs < 0):
            raise ParameterError("SoftLabels: negative probability")
        sums = self.probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ParameterError("SoftLabels: rows must sum to 1")


@dataclass
class TeacherModel:
    """Tanh MLP with a designated hidden feature layer and stored feature
    statistics. weights[l] maps activation l to pre-activation l+1; the last
    layer is linear (logits)."""
    weights: list
    biases: list
    feature_layer: int
    feature_mean: np.ndarray | None = None
    feature_var: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n_hidden = len(self.weights) - 1
        if n_hidden < 1:
            raise ParameterError("TeacherModel: need at least one hidden layer")
        if not 1 <= self.feature_layer <= n_hidden:
            raise ParameterError(
                f"TeacherModel: feature_layer must be a hidden layer in [1, {n_hidden}]")
        if len(self.biases) != len(self.weights):
            raise DimensionError(
                f"TeacherModel: {len(self.weights)} weight layers vs {len(self.biases)} biases")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if l + 1 < len(self.weights) and w.shape[1] != self.weights[l + 1].shape[0]:
                raise DimensionError(
                    f"TeacherModel: layer {l} has {w.shape[1]} outputs but layer "
                    f"{l + 1} takes {self.weights[l + 1].shape[0]} inputs")
            if np.shape(b) != (w.shape[1],):
                raise DimensionError(
                    f"TeacherModel: layer {l} bias has shape {np.shape(b)}, "
                    f"expected ({w.shape[1]},)")
        for name in ("feature_mean", "feature_var"):
            stat = getattr(self, name)
            if stat is not None and np.shape(stat) != (self.feature_dim,):
                raise DimensionError(
                    f"TeacherModel: {name} has shape {np.shape(stat)}, "
                    f"expected ({self.feature_dim},)")
        if self.feature_var is not None and np.any(np.asarray(self.feature_var) < 0):
            raise ParameterError("TeacherModel: negative stored feature variance")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def feature_dim(self) -> int:
        return self.weights[self.feature_layer - 1].shape[1]

    def hidden_sizes(self) -> tuple:
        return tuple(w.shape[1] for w in self.weights[:-1])


def softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax with max subtraction."""
    return _softmax_in_place(np.array(z, dtype=np.float64))


def _softmax_in_place(z: np.ndarray) -> np.ndarray:
    """Row softmax of the float64 block z, written over z."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def mixture_split(n_classes: int, dim: int, n_per_class: int, spread: float):
    """Check gen_mixture's parameters; returns the (train, test) rows per
    class, an 80/20 split."""
    if n_classes < 2:
        raise ParameterError(f"gen_mixture: need n_classes >= 2, got {n_classes}")
    if dim < 2:
        raise ParameterError(f"gen_mixture: need dim >= 2, got {dim}")
    if n_classes > 2 * dim:
        raise ParameterError(
            f"gen_mixture: frame supports at most 2*dim={2 * dim} classes, got {n_classes}")
    if n_per_class < 10:
        raise ParameterError(f"gen_mixture: need n_per_class >= 10, got {n_per_class}")
    if spread < 0:
        raise ParameterError(f"gen_mixture: spread must be >= 0, got {spread}")
    n_train = int(n_per_class * 0.8)
    return n_train, n_per_class - n_train


def mixture_classes(n_classes: int, dim: int, n_per_class: int, spread: float,
                    seed: int):
    """Generator of gen_mixture's rows, one class at a time in class order:
    (train rows, test rows) of that class, fresh arrays."""
    n_train, _ = mixture_split(n_classes, dim, n_per_class, spread)
    rng = Rng(seed)
    frame = np.zeros((n_classes, dim))
    for c in range(n_classes):
        frame[c, c % dim] = 1.0 if c < dim else -1.0
    q, r = np.linalg.qr(rng_normal(rng.split(0), dim, dim))
    q = q * np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
    means = frame @ q.T
    for c in range(n_classes):
        pts = rng_normal(rng.split(1).split(c), n_per_class, dim, 0.0, spread)
        pts += means[c]
        order = rng.split(2).split(c).generator.permutation(n_per_class)
        rows = pts[order[:n_train]], pts[order[n_train:]]
        del pts, order  # before the next class is drawn
        yield rows


def gen_mixture(n_classes: int, dim: int, n_per_class: int, spread: float,
                seed: int):
    """Gaussian mixture with class means on the unit sphere.

    Means are a fixed +/- canonical-basis frame passed through a seeded
    random rotation, so inter-mean geometry is identical across seeds.
    Returns seeded (train, test) splits, 80/20 per class, filled from
    `mixture_classes`.
    """
    n_train, n_test = mixture_split(n_classes, dim, n_per_class, spread)
    train_pts = np.empty((n_classes * n_train, dim))
    test_pts = np.empty((n_classes * n_test, dim))
    for c, (train_rows, test_rows) in enumerate(
            mixture_classes(n_classes, dim, n_per_class, spread, seed)):
        train_pts[c * n_train:(c + 1) * n_train] = train_rows
        test_pts[c * n_test:(c + 1) * n_test] = test_rows
    del train_rows, test_rows  # the last class's rows, before the labels are formed
    classes = np.arange(n_classes, dtype=np.int64)
    train = LabeledDataset(train_pts, np.repeat(classes, n_train), n_classes, "train")
    test = LabeledDataset(test_pts, np.repeat(classes, n_test), n_classes, "test")
    return train, test


def init_mlp(dim: int, hidden_sizes, n_classes: int, seed: int):
    """Seeded Gaussian init scaled by 1/sqrt(fan_in); zero biases."""
    rng = Rng(seed)
    sizes = [dim] + list(hidden_sizes) + [n_classes]
    weights, biases = [], []
    for l in range(len(sizes) - 1):
        scale = 1.0 / np.sqrt(sizes[l])
        weights.append(rng_normal(rng.split(l), sizes[l], sizes[l + 1], 0.0, scale))
        biases.append(np.zeros(sizes[l + 1]))
    return weights, biases


def _checked_input(model: TeacherModel, x) -> np.ndarray:
    x = as_matrix(x, "X")
    if x.shape[1] != model.input_dim:
        raise DimensionError(
            f"forward: input dim {x.shape[1]} != model dim {model.input_dim}")
    return x


def _layer(model: TeacherModel, a: np.ndarray, l: int, out=None) -> np.ndarray:
    """Activation l+1 from activation l, in `out` or one fresh buffer:
    z = a @ w; z += b, then tanh in place on hidden layers. `a` is never
    written."""
    z = np.matmul(a, model.weights[l], out=out)
    z += model.biases[l]
    if l + 1 < len(model.weights):
        np.tanh(z, out=z)
    return z


def _forward(model: TeacherModel, x, depth: int) -> np.ndarray:
    """Activation `depth` of x, FORWARD_BLOCK rows at a time. Layer `depth`
    of each block is written straight into that block's rows of the output,
    so besides the output only one block's activation below it is held."""
    x = _checked_input(model, x)
    out = np.empty((x.shape[0], model.weights[depth - 1].shape[1]))
    for lo in range(0, x.shape[0], FORWARD_BLOCK):
        a = x[lo:lo + FORWARD_BLOCK]
        for l in range(depth - 1):
            a = _layer(model, a, l)
        _layer(model, a, depth - 1, out=out[lo:lo + FORWARD_BLOCK])
    return out


def _activations(model: TeacherModel, x: np.ndarray) -> list:
    """All layer activations of the checked float64 block x; x is the first
    entry, not a copy."""
    acts = [x]
    for l in range(len(model.weights)):
        acts.append(_layer(model, acts[-1], l))
    return acts


def forward_activations(model: TeacherModel, x):
    """All layer activations: [input, tanh hidden..., logits]."""
    return _activations(model, _checked_input(model, x))


def teacher_logits(model: TeacherModel, x) -> np.ndarray:
    return _forward(model, x, len(model.weights))


def extract_features(model: TeacherModel, x) -> np.ndarray:
    """Activation of the designated hidden layer; the layers above it are
    never computed."""
    return _forward(model, x, model.feature_layer)


def input_gradient(model: TeacherModel, acts, dlogits=None, dfeatures=None):
    """Backpropagate upstream gradients to the input.

    `dlogits` enters at the output layer, `dfeatures` at the feature layer;
    either may be None. `acts` comes from forward_activations on the same
    input.
    """
    n_hidden = len(model.weights) - 1
    g = dlogits @ model.weights[-1].T if dlogits is not None else None
    for layer in range(n_hidden, 0, -1):
        if layer == model.feature_layer and dfeatures is not None:
            g = dfeatures if g is None else g + dfeatures
        if g is None:
            g = np.zeros_like(acts[layer])
        g = (g * (1.0 - acts[layer] ** 2)) @ model.weights[layer - 1].T
    return g if g is not None else np.zeros_like(acts[0])


def _cross_entropy_and_dlogits(logits, targets, want_loss=True):
    """Mean softmax cross-entropy and its logits gradient, computed in place:
    `logits` is overwritten by the gradient, which is returned. `targets`
    holds one probability row per logits row (one-hot rows for hard labels).
    With want_loss=False the loss is None."""
    n = logits.shape[0]
    z = logits
    z -= z.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))  # log-probabilities
    loss = -float((targets * z).sum(axis=1).mean()) if want_loss else None
    np.exp(z, out=z)
    z -= targets
    z /= n
    return loss, z


def check_sgd_options(epochs: int, lr: float, batch_size: int = 1) -> None:
    """The rules every SGD run's options obey, checked by `_sgd_train` and,
    before any other work, by callers that train last, like `pipeline.ablate`
    (which leaves batch_size at the smallest valid value)."""
    if epochs < 0:
        raise ParameterError(f"training: need epochs >= 0, got {epochs}")
    if batch_size < 1:
        raise ParameterError(f"training: batch_size must be >= 1, got {batch_size}")
    if lr < 0:
        raise ParameterError(f"training: lr must be >= 0, got {lr}")


def _sgd_train(points, targets, hidden_sizes, n_classes, epochs, lr, seed,
               batch_size):
    """Minibatch SGD on mean softmax cross-entropy against hard labels or
    soft target rows, from the seeded init_mlp model; zero epochs return
    that model untouched. Each epoch gathers its shuffled rows and target
    rows once. Each step runs forward_activations' layers, the CE gradient
    and a backward pass in input_gradient's floating-point order with
    in-place elementwise ops, and updates the model's arrays in place.
    Weights are checked for finiteness once per epoch."""
    check_sgd_options(epochs, lr, batch_size)
    weights, biases = init_mlp(points.shape[1], hidden_sizes, n_classes, seed)
    model = TeacherModel(weights, biases, feature_layer=len(hidden_sizes))
    if targets.ndim == 1:
        targets = np.eye(n_classes)[targets]
    n = points.shape[0]
    shuffle = Rng(seed).split(1000)
    for epoch in range(epochs):
        order = shuffle.split(epoch).generator.permutation(n)
        xs, ts = points[order], targets[order]
        for lo in range(0, n, batch_size):
            acts = _activations(model, xs[lo:lo + batch_size])
            _, g = _cross_entropy_and_dlogits(acts[-1], ts[lo:lo + batch_size],
                                              want_loss=False)
            for layer in range(len(weights) - 1, -1, -1):
                dw = acts[layer].T @ g
                db = g.sum(axis=0)
                if layer > 0:  # propagate through pre-update weights
                    slope = acts[layer]
                    np.multiply(slope, slope, out=slope)
                    np.subtract(1.0, slope, out=slope)
                    g = g @ weights[layer].T
                    g *= slope
                dw *= lr
                weights[layer] -= dw
                db *= lr
                biases[layer] -= db
        if not all(np.isfinite(p).all() for p in weights + biases):
            raise TrainingError(f"training diverged at epoch {epoch}")
    return model


def model_accuracy(model: TeacherModel, data: LabeledDataset) -> float:
    pred = teacher_logits(model, data.points).argmax(axis=1)
    return float(np.mean(pred == data.labels))


def squeeze_train(train: LabeledDataset, hidden_sizes=(32,), epochs: int = 30,
                  lr: float = 0.1, seed: int = 0, batch_size: int = 32) -> TeacherModel:
    """Train the teacher and store feature-layer statistics.

    After SGD finishes, one pass over the training set records per-feature
    mean and population variance of the feature layer; synthesis matches
    batch statistics against these.
    """
    if epochs < 1:
        raise ParameterError(f"squeeze_train: need epochs >= 1, got {epochs}")
    model = _sgd_train(train.points, train.labels, hidden_sizes, train.n_classes,
                       epochs, lr, seed, batch_size)
    feats = extract_features(model, train.points)
    model.feature_mean = feats.mean(axis=0)
    model.feature_var = feats.var(axis=0)
    model.meta = {"epochs": epochs, "lr": lr, "seed": seed,
                  "train_accuracy": model_accuracy(model, train)}
    return model


def relabel(model: TeacherModel, synthetic, temperature: float = 1.0) -> SoftLabels:
    """Soft labels = softmax(teacher logits / temperature)."""
    if temperature <= 0:
        raise ParameterError(f"relabel: temperature must be > 0, got {temperature}")
    points = getattr(synthetic, "points", synthetic)
    logits = teacher_logits(model, points)
    logits /= temperature
    return SoftLabels(_softmax_in_place(logits), temperature)


def evaluate_student(points, labels, test: LabeledDataset, hidden_sizes=(32,),
                     epochs: int = 60, lr: float = 0.1, seed: int = 0,
                     batch_size: int = 32) -> float:
    """Train a fresh student on (points, labels) and return its top-1
    accuracy on the test split. `labels` may be hard class ids or
    SoftLabels; epochs=0 scores the seeded initialization as-is."""
    points = as_matrix(points, "points")
    if isinstance(labels, SoftLabels):
        targets = labels.probs
        if targets.shape[0] != points.shape[0]:
            raise DimensionError("evaluate_student: soft labels do not match points")
        n_classes = targets.shape[1]
        if n_classes < test.n_classes:
            raise DimensionError(
                f"evaluate_student: soft labels have {n_classes} classes, "
                f"fewer than the test split's {test.n_classes}")
    else:
        targets = np.asarray(labels, dtype=np.int64)
        if targets.shape[0] != points.shape[0]:
            raise DimensionError("evaluate_student: labels do not match points")
        n_classes = test.n_classes
        if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
            raise ParameterError(f"evaluate_student: labels must lie in [0, {n_classes})")
    model = _sgd_train(points, targets, hidden_sizes, n_classes, epochs, lr, seed,
                       batch_size)
    return model_accuracy(model, test)
