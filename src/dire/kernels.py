"""Pairwise similarity/distance kernels: naive references and fast variants.

The naive implementations walk row pairs in Python and exist as the
benchmark baseline and as a cross-check; the fast variants compute the same
values through blocked BLAS matmuls with precomputed norms, optionally
fanning row blocks out to a thread pool. Every blocked kernel forms blocks of
ROW_BLOCK = 128 rows, so a block against N = 8000 columns is 8 MiB.

The k-NN and nearest-neighbour distances stream the same row blocks and keep
only a per-row result, so their memory is O(ROW_BLOCK * N), never N x N.
They select on the squared-distance block and clamp and root only the
selected values; clamping and the root are non-decreasing, so the values
equal a selection over the rooted block bit for bit. The k-NN selection
partitions only a candidate set: the k column tiles of KNN_TILE = 128
entries whose minima are smallest, plus the ragged last columns, which hold
every row's k smallest entries.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError
from .matrix import as_matrix, Rng, rng_normal

COSINE_EPS = 1e-12
# BLAS may round the last (columns mod 8) entries of a GEMM differently for
# other row-block heights, so every blocked kernel shares this one height
ROW_BLOCK = 128
KNN_TILE = 128


def worker_count() -> int:
    """Worker cap from DIRE_THREADS (0 or unset = one per CPU)."""
    raw = os.environ.get("DIRE_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ParameterError(f"DIRE_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ParameterError(f"DIRE_THREADS must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def _check_pair(a, b):
    a, b = as_matrix(a, "A"), as_matrix(b, "B")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"pairwise kernel: feature dims differ, {a.shape[1]} vs {b.shape[1]}")
    if a.shape[1] < 1:
        raise DimensionError("pairwise kernel: need at least one feature")
    return a, b


def _sq_norms(m: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", m, m)


def _row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq_norms(m))


def _blocks(n: int, block: int):
    return [(s, min(s + block, n)) for s in range(0, n, block)]


def _sq_dist_rows(a_rows, bt, na2_rows, nb2):
    """Squared distance rows |a|^2 + |b|^2 - 2<a,b> of one row block, not yet
    clamped: rounding can leave them negative, and finite rows near the
    overflow threshold can give inf or NaN. Every blocked Euclidean kernel
    forms its block through this one sequence on the same row blocks, so
    they agree bit for bit. Leading axes broadcast as a stack: (C, K, F)
    rows against (C, F, R) columns give (C, K, R) entries."""
    g = a_rows @ bt
    g *= -2.0
    g += na2_rows[..., None]
    g += nb2[..., None, :]
    return g


def _root(g):
    """|a - b| from squared distances in place: negatives clamped to 0."""
    np.maximum(g, 0.0, out=g)
    return np.sqrt(g, out=g)


def _euclid_rows(a_rows, bt, na2_rows, nb2):
    """Distance rows |a_i - b_j| of one row block: `_sq_dist_rows`, clamped
    and rooted."""
    return _root(_sq_dist_rows(a_rows, bt, na2_rows, nb2))


def _kth_smallest_rows(d, k):
    """k-th smallest entry of each row of d, equal to
    `np.partition(d, k - 1, axis=1)[:, k - 1]`; d may be overwritten.

    The k smallest entries of a row lie in the k column tiles of KNN_TILE
    entries with the smallest minima (plus a ragged tail), because every
    other tile's minimum is at least the k-th of those k minima, each of
    which is an entry. So only that candidate set is partitioned. `fmin`
    skips NaN as `partition` does, which puts NaN last."""
    rows, n = d.shape
    tiles = n // KNN_TILE
    if tiles <= k:
        d.partition(k - 1, axis=1)
        return d[:, k - 1]
    head = d[:, :tiles * KNN_TILE].reshape(rows, tiles, KNN_TILE)
    mins = np.fmin.reduce(head, axis=2)
    pick = np.argpartition(mins, k - 1, axis=1)[:, :k, None]
    cand = np.concatenate((np.take_along_axis(head, pick, axis=1).reshape(rows, -1),
                           d[:, tiles * KNN_TILE:]), axis=1)
    cand.partition(k - 1, axis=1)
    return cand[:, k - 1]


def _map_blocks(fn, spans, workers):
    """Run fn over row spans, returning results in span order."""
    if workers <= 1 or len(spans) <= 1:
        return [fn(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in spans]
        return [f.result() for f in futures]


def pairwise_cosine_matrix(a, b, eps: float = COSINE_EPS,
                           block: int = ROW_BLOCK, workers: int | None = None):
    """N x M matrix of cos(A_i, B_j) = <A_i, B_j> / max(|A_i| |B_j|, eps).

    Zero rows produce similarity 0. Entries land in [-1, 1] up to rounding.
    """
    a, b = _check_pair(a, b)
    na, nb = _row_norms(a), _row_norms(b)
    out = np.empty((a.shape[0], b.shape[0]))
    bt = b.T.copy()  # contiguous for repeated GEMM against row blocks

    def one_block(lo, hi):
        g = a[lo:hi] @ bt
        denom = np.maximum(na[lo:hi, None] * nb[None, :], eps)
        np.divide(g, denom, out=g)
        out[lo:hi] = g

    _map_blocks(one_block, _blocks(a.shape[0], block),
                workers if workers is not None else worker_count())
    return out


def pairwise_cosine_matrix_naive(a, b, eps: float = COSINE_EPS):
    """Reference nested-loop cosine: one dot product per row pair."""
    a, b = _check_pair(a, b)
    dot = np.dot
    na = np.empty(a.shape[0])
    for i in range(a.shape[0]):
        na[i] = math.sqrt(dot(a[i], a[i]))
    nb = np.empty(b.shape[0])
    for j in range(b.shape[0]):
        nb[j] = math.sqrt(dot(b[j], b[j]))
    b_rows = list(b)
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        out[i] = list(map(a[i].dot, b_rows))
        out[i] /= np.maximum(na[i] * nb, eps)
    return out


def pairwise_euclidean_matrix(a, b, block: int = ROW_BLOCK,
                              workers: int | None = None):
    """N x M matrix of |A_i - B_j|, via the |a|^2 + |b|^2 - 2<a,b> expansion
    with negative radicands clamped to 0. Passing the same array object for
    both sides pins the diagonal to exactly 0."""
    a, b = _check_pair(a, b)
    same = a is b
    na2 = _sq_norms(a)
    nb2 = na2 if same else _sq_norms(b)
    out = np.empty((a.shape[0], b.shape[0]))
    bt = b.T.copy()

    def one_block(lo, hi):
        g = _euclid_rows(a[lo:hi], bt, na2[lo:hi], nb2)
        if same:
            for i in range(lo, hi):
                g[i - lo, i] = 0.0
        out[lo:hi] = g

    _map_blocks(one_block, _blocks(a.shape[0], block),
                workers if workers is not None else worker_count())
    return out


def pairwise_euclidean_matrix_naive(a, b):
    """Reference nested-loop Euclidean distance: one difference and one dot
    product per pair."""
    a, b = _check_pair(a, b)
    dot = np.dot
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        diff = a[i] - b
        out[i] = list(map(dot, diff, diff))
        np.sqrt(out[i], out=out[i])
    return out


def _require_finite(m: np.ndarray, what: str):
    if not np.all(np.isfinite(m)):
        raise NumericalError(f"{what} has non-finite values")


def knn_distances(x, k: int) -> np.ndarray:
    """Distance from each row of X to its k-th nearest other row.

    Self-distances are excluded. Ties in distance do not affect the k-th
    order statistic, so partial selection is exact. Each row block is
    selected on its squared distances as it is formed, and only the N
    selected values are clamped and rooted: both maps are non-decreasing,
    so the values equal a selection over `pairwise_euclidean_matrix(x, x)`
    bit for bit without its N x N memory.
    """
    x = as_matrix(x, "X")
    n = x.shape[0]
    if not 1 <= k <= n - 1:
        raise ParameterError(f"knn_distances: need 1 <= k <= {n - 1}, got k={k}")
    _require_finite(x, "knn_distances: X")
    n2 = _sq_norms(x)
    xt = x.T.copy()
    out = np.empty(n)
    for lo, hi in _blocks(n, ROW_BLOCK):
        d = _sq_dist_rows(x[lo:hi], xt, n2[lo:hi], n2)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        out[lo:hi] = _kth_smallest_rows(d, k)
        del d  # free this block before the next one is formed
    return _root(out)


def nearest_distances(a, b) -> np.ndarray:
    """Distance from each row of A to its nearest row of B, equal to
    `pairwise_euclidean_matrix(a, b).min(axis=1)` bit for bit, streamed in
    row blocks so memory is O(ROW_BLOCK * M). The minimum is taken on the
    squared block and only it is clamped and rooted."""
    a, b = _check_pair(a, b)
    if b.shape[0] < 1:
        raise ParameterError("nearest_distances: B has no rows")
    _require_finite(a, "nearest_distances: A")
    _require_finite(b, "nearest_distances: B")
    if a is b:  # the matrix kernel pins this diagonal to 0
        return np.zeros(a.shape[0])
    na2, nb2 = _sq_norms(a), _sq_norms(b)
    bt = b.T.copy()
    out = np.empty(a.shape[0])
    for lo, hi in _blocks(a.shape[0], ROW_BLOCK):
        out[lo:hi] = _sq_dist_rows(a[lo:hi], bt, na2[lo:hi], nb2).min(axis=1)
    return _root(out)


@dataclass
class BenchReport:
    """One timing comparison between the naive and fast kernel variants."""
    kernel: str
    n: int
    m: int
    d: int
    naive_s: float
    fast_s: float
    speedup: float
    max_dev: float

    def to_dict(self):
        return asdict(self)


_BENCH_KERNELS = {
    "cosine": (pairwise_cosine_matrix_naive, pairwise_cosine_matrix),
    "euclidean": (pairwise_euclidean_matrix_naive, pairwise_euclidean_matrix),
}

BENCH_CSV_HEADER = "kernel,N,M,D,naive_s,fast_s,speedup,max_dev"


def bench_kernels(shapes, reps: int = 5, kernels=("cosine", "euclidean"),
                  seed: int = 0) -> list[BenchReport]:
    """Median-of-reps wall times for naive vs fast kernels on each shape.

    Both variants run on identical inputs; the report records their maximum
    absolute deviation as a correctness gate alongside the speedup.
    """
    if reps < 3:
        raise ParameterError(f"bench_kernels: need reps >= 3, got {reps}")
    reports = []
    for idx, (n, m, d) in enumerate(shapes):
        rng = Rng(seed).split(idx)
        a = rng_normal(rng.split(0), n, d)
        b = rng_normal(rng.split(1), m, d)
        for name in kernels:
            if name not in _BENCH_KERNELS:
                raise ParameterError(f"unknown bench kernel {name!r}")
            naive_fn, fast_fn = _BENCH_KERNELS[name]
            naive_times, fast_times = [], []
            ref = fast = None
            for _ in range(reps):
                t0 = time.perf_counter()
                ref = naive_fn(a, b)
                naive_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                fast = fast_fn(a, b)
                fast_times.append(time.perf_counter() - t0)
            naive_s = float(np.median(naive_times))
            fast_s = float(np.median(fast_times))
            max_dev = float(np.max(np.abs(ref - fast)))
            reports.append(BenchReport(
                kernel=name, n=n, m=m, d=d, naive_s=naive_s, fast_s=fast_s,
                speedup=naive_s / max(fast_s, 1e-12), max_dev=max_dev))
    return reports


def bench_to_csv(reports) -> str:
    lines = [BENCH_CSV_HEADER]
    for r in reports:
        lines.append(f"{r.kernel},{r.n},{r.m},{r.d},"
                     f"{r.naive_s:.6g},{r.fast_s:.6g},{r.speedup:.6g},{r.max_dev:.6g}")
    return "\n".join(lines) + "\n"
