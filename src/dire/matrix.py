"""Dense float64 matrix helpers and seeded, counter-based random generation.

Matrices are plain 2-D C-contiguous float64 numpy arrays. Randomness goes
through :class:`Rng`, a thin wrapper over the Philox counter-based bit
generator: equal seeds give equal streams on every platform, and independent
substreams can be split off deterministically for per-class or per-stage work.

`unit_rows` owns the unit-row rule for the regularizer and the metrics:
each row over its l2 norm, 0 for rows whose norm is under UNIT_ROW_FLOOR.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, check_number

UNIT_ROW_FLOOR = 1e-12


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
        check_number(seed, "seed", 0, integer=True, where="Rng: ")
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
    check_number(std, "std", 0, where="rng_normal: ")
    out = rng.generator.normal(loc=mean, scale=std, size=(rows, cols))
    return np.ascontiguousarray(out, dtype=np.float64)


def unit_rows(m: np.ndarray):
    """(rows scaled to unit length, inverse norms), both 0 on rows whose
    norm is under UNIT_ROW_FLOOR."""
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    inv = np.where(norms >= UNIT_ROW_FLOOR, 1.0 / np.maximum(norms, UNIT_ROW_FLOOR), 0.0)
    return m * inv[:, None], inv


def row_l2_normalize(m) -> np.ndarray:
    """The unit rows of `unit_rows`, for any 2-D input."""
    return unit_rows(as_matrix(m))[0]
