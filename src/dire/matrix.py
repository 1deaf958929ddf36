"""Dense float64 matrix helpers and seeded, counter-based random generation.

Matrices are plain 2-D C-contiguous float64 numpy arrays. Randomness goes
through :class:`Rng`, a thin wrapper over the Philox counter-based bit
generator: equal seeds give equal streams on every platform, and independent
substreams can be split off deterministically for per-class or per-stage work.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D C-contiguous float64 array, validating shape."""
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name}: expected 2-D array, got ndim={m.ndim}")
    return m


class Rng:
    """Deterministic random stream with explicit seed threading.

    Backed by the Philox counter-based generator; no global state. `split`
    derives an independent substream identified by an integer key, so
    parallel per-class synthesis stays reproducible regardless of order.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self._key)
        self.generator = np.random.Generator(np.random.Philox(ss))

    def split(self, key: int) -> "Rng":
        """Independent substream for the given integer key."""
        return Rng(self.seed, self._key + (int(key),))

    def __repr__(self):
        return f"Rng(seed={self.seed}, key={self._key})"


def rng_normal(rng: Rng, rows: int, cols: int, mean: float = 0.0,
               std: float = 1.0) -> np.ndarray:
    """rows x cols matrix of i.i.d. N(mean, std^2) draws from `rng`."""
    if rows < 1 or cols < 1:
        raise DimensionError(f"rng_normal: need rows, cols >= 1, got {rows}x{cols}")
    if std < 0:
        raise ParameterError(f"rng_normal: std must be >= 0, got {std}")
    out = rng.generator.normal(loc=mean, scale=std, size=(rows, cols))
    return np.ascontiguousarray(out, dtype=np.float64)


def row_l2_normalize(m, eps: float = 1e-12) -> np.ndarray:
    """Divide each row by max(its l2 norm, eps). Near-zero rows pass through
    scaled by 1/eps at most; exactly-zero rows stay zero."""
    if eps <= 0:
        raise ParameterError(f"row_l2_normalize: eps must be > 0, got {eps}")
    m = as_matrix(m)
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    return m / np.maximum(norms, eps)[:, None]
