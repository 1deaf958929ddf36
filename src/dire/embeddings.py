"""Per-class partitioned embedding sets."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError
from .matrix import as_matrix, Rng


class EmbeddingSet:
    """Embeddings grouped by integer class id.

    Keeps the original row indices of each class so gradients computed on
    the grouped view can be scattered back to the caller's row order.
    """

    def __init__(self, by_class: dict[int, np.ndarray],
                 rows: dict[int, np.ndarray] | None = None):
        if not by_class:
            raise ParameterError("EmbeddingSet: no classes")
        self.by_class = {int(c): as_matrix(m, f"class {c}") for c, m in by_class.items()}
        dims = {m.shape[1] for m in self.by_class.values()}
        if len(dims) != 1:
            raise DimensionError(f"EmbeddingSet: mixed feature dims {sorted(dims)}")
        self.dim = dims.pop()
        self.rows = None
        if rows is not None:
            self.rows = {int(c): np.asarray(ix, dtype=np.int64) for c, ix in rows.items()}

    @classmethod
    def from_labeled(cls, emb, labels) -> "EmbeddingSet":
        emb = as_matrix(emb, "embeddings")
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != emb.shape[0]:
            raise DimensionError(
                f"EmbeddingSet: {emb.shape[0]} embeddings vs {labels.shape} labels")
        by_class, rows = {}, {}
        for c in np.unique(labels):
            ix = np.nonzero(labels == c)[0]
            by_class[int(c)] = emb[ix]
            rows[int(c)] = ix
        return cls(by_class, rows)

    def classes(self) -> list[int]:
        return sorted(self.by_class)

    def __getitem__(self, c: int) -> np.ndarray:
        return self.by_class[int(c)]

    def __contains__(self, c: int) -> bool:
        return int(c) in self.by_class

    def pooled(self) -> np.ndarray:
        """All embeddings stacked in class order."""
        return np.vstack([self.by_class[c] for c in self.classes()])

    def total(self) -> int:
        return sum(m.shape[0] for m in self.by_class.values())

    def subsample(self, cap: int | None, rng: Rng) -> "EmbeddingSet":
        """At most `cap` embeddings per class, chosen by a seeded draw
        without replacement. cap=None returns self unchanged."""
        if cap is None:
            return self
        if cap < 1:
            raise ParameterError(f"subsample: cap must be >= 1, got {cap}")
        out = {}
        for c in self.classes():
            m = self.by_class[c]
            if m.shape[0] <= cap:
                out[c] = m
            else:
                ix = rng.split(c).generator.choice(m.shape[0], size=cap, replace=False)
                out[c] = m[np.sort(ix)]
        return EmbeddingSet(out)
