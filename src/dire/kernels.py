"""Pairwise similarity/distance kernels: naive references and fast variants.

The naive implementations walk row pairs in Python and exist as the
benchmark baseline and as a cross-check; the fast variants compute the same
values through blocked BLAS matmuls with precomputed norms, optionally
fanning row blocks out to a thread pool. Reductions always accumulate in
fixed block order, so results do not depend on the worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DimensionError, ParameterError
from .matrix import as_matrix, Rng, rng_normal

COSINE_EPS = 1e-12
ROW_BLOCK = 512


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


def _row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", m, m))


def _blocks(n: int, block: int):
    return [(s, min(s + block, n)) for s in range(0, n, block)]


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


def _reduce(total: float, count: int, reduction: str) -> float:
    if reduction == "sum":
        return total
    if reduction == "mean":
        return total / count
    raise ParameterError(f"reduction must be 'sum' or 'mean', got {reduction!r}")


def pairwise_cosine_sum(a, b, reduction: str = "sum", eps: float = COSINE_EPS,
                        block: int = ROW_BLOCK) -> float:
    """Sum (or mean) of all N*M pairwise cosines, diagonal included when
    A and B are the same set. Accumulates block sums in fixed order."""
    a, b = _check_pair(a, b)
    na, nb = _row_norms(a), _row_norms(b)
    bt = b.T.copy()
    total = 0.0
    for lo, hi in _blocks(a.shape[0], block):
        g = a[lo:hi] @ bt
        denom = np.maximum(na[lo:hi, None] * nb[None, :], eps)
        total += float(np.sum(g / denom))
    return _reduce(total, a.shape[0] * b.shape[0], reduction)


def pairwise_euclidean_matrix(a, b, block: int = ROW_BLOCK,
                              workers: int | None = None):
    """N x M matrix of |A_i - B_j|, via the |a|^2 + |b|^2 - 2<a,b> expansion
    with negative radicands clamped to 0. Passing the same array object for
    both sides pins the diagonal to exactly 0."""
    a, b = _check_pair(a, b)
    same = a is b
    na2 = np.einsum("ij,ij->i", a, a)
    nb2 = na2 if same else np.einsum("ij,ij->i", b, b)
    out = np.empty((a.shape[0], b.shape[0]))
    bt = b.T.copy()

    def one_block(lo, hi):
        g = a[lo:hi] @ bt
        g *= -2.0
        g += na2[lo:hi, None]
        g += nb2[None, :]
        np.maximum(g, 0.0, out=g)
        np.sqrt(g, out=g)
        if same:
            for i in range(lo, hi):
                g[i - lo, i] = 0.0
        out[lo:hi] = g

    _map_blocks(one_block, _blocks(a.shape[0], block),
                workers if workers is not None else worker_count())
    return out


def pairwise_euclidean_matrix_naive(a, b):
    """Reference nested-loop Euclidean distance: one difference per pair."""
    a, b = _check_pair(a, b)
    dot = np.dot
    b_rows = list(b)
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        ai, row = a[i], out[i]
        for j, bj in enumerate(b_rows):
            d = ai - bj
            row[j] = math.sqrt(dot(d, d))
    return out


def pairwise_euclidean_sum(a, b, reduction: str = "sum",
                           block: int = ROW_BLOCK) -> float:
    a, b = _check_pair(a, b)
    same = a is b
    na2 = np.einsum("ij,ij->i", a, a)
    nb2 = na2 if same else np.einsum("ij,ij->i", b, b)
    bt = b.T.copy()
    total = 0.0
    for lo, hi in _blocks(a.shape[0], block):
        g = a[lo:hi] @ bt
        g *= -2.0
        g += na2[lo:hi, None]
        g += nb2[None, :]
        np.maximum(g, 0.0, out=g)
        np.sqrt(g, out=g)
        if same:
            for i in range(lo, hi):
                g[i - lo, i] = 0.0
        total += float(np.sum(g))
    return _reduce(total, a.shape[0] * b.shape[0], reduction)


def knn_distances(x, k: int) -> np.ndarray:
    """Distance from each row of X to its k-th nearest other row.

    Self-distances are excluded. Ties in distance do not affect the k-th
    order statistic, so plain partial selection is exact.
    """
    x = as_matrix(x, "X")
    n = x.shape[0]
    if not 1 <= k <= n - 1:
        raise ParameterError(f"knn_distances: need 1 <= k <= {n - 1}, got k={k}")
    d = pairwise_euclidean_matrix(x, x)
    np.fill_diagonal(d, np.inf)
    return np.partition(d, k - 1, axis=1)[:, k - 1]


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
