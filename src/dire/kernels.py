"""Pairwise similarity/distance kernels: naive references and fast variants.

The naive implementations walk row pairs in Python and exist as the
benchmark baseline and as a cross-check; the fast variants compute the same
values through blocked BLAS matmuls with precomputed norms. Every blocked
kernel runs one loop over blocks of ROW_BLOCK = 128 rows on the caller's
thread, so the caller's `np.errstate` applies to every block; a block against
N = 8000 columns is 8 MiB.

Every Euclidean kernel forms its squared distances |a|^2 + |b|^2 - 2<a,b>
as one GEMM of left rows [a, |a|^2, 1], built per row block, against right
columns [-2 b^T; 1; |b|^2], built once per call, so no full-width pass
follows the GEMM. It reproduces the three-step sequence that the tests
keep as its oracle (a GEMM against b^T, then `*= -2`, `+= |a|^2`,
`+= |b|^2`): scaling by -2 is exact, so every product and partial sum of
the k loop is exactly -2 times the oracle's, and a GEMM that accumulates k
in order then adds |a|^2 and |b|^2 last, in that order, each with one
rounding. On OpenBLAS 0.3.31's Haswell kernels that gives the oracle's bits
on blocks of 4 or more rows, in every whole group of 8 columns, for
D + 2 <= 384. The last (columns mod 8) columns, blocks of 1-3 rows
(the small-GEMM path) and deeper D (the k loop split in two) sum in another
order, so an entry there may differ by a few ulps of |a|^2 + |b|^2.

The k-NN and nearest-neighbour distances stream the same row blocks and keep
only a per-row result, so their memory is O(ROW_BLOCK * N), never N x N.
They select on the squared-distance block and clamp and root only the
selected values; clamping and the root are non-decreasing, so the values
equal a selection over the rooted block bit for bit. The k-NN selection
partitions only a candidate set: of the w = N // KNN_GROUP interleaved
column groups (group t holds columns t, t + w, ..., t + 15w), the k whose
minima are smallest, plus the fewer than KNN_GROUP last columns; they hold
every row's k smallest entries. Interleaving makes each group minimum one
elementwise `fmin` over 16 contiguous runs of w entries, and the candidates
number 16k plus the tail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError
from .matrix import as_matrix, Rng, rng_normal

COSINE_EPS = 1e-12
# BLAS may round the last (columns mod 8) entries of a GEMM differently for
# other row-block heights, so every blocked kernel shares this one height
ROW_BLOCK = 128
KNN_GROUP = 16


def worker_count() -> int:
    """Threads the kernels run on: always 1, the caller's. Kept only for the
    env record of `perfbench/child.py`; it goes with the next change to the
    benchmark."""
    return 1


def _check_pair(a, b):
    """Coerce both sides. One object passed as both is coerced once, so
    `a is b` still holds after coercion."""
    same = a is b
    a = as_matrix(a, "A")
    b = a if same else as_matrix(b, "B")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"pairwise kernel: feature dims differ, {a.shape[1]} vs {b.shape[1]}")
    if a.shape[1] < 1:
        raise DimensionError("pairwise kernel: need at least one feature")
    return a, b


def _sq_norms(m: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis."""
    return np.einsum("...f,...f->...", m, m)


def _row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(_sq_norms(m))


def _blocks(n: int):
    return [(s, min(s + ROW_BLOCK, n)) for s in range(0, n, ROW_BLOCK)]


def _right_cols(b):
    """Right operand [-2 b^T; 1; |b|^2] of `_sq_dist_rows`: (..., F + 2, M)
    for rows b (..., M, F), built once per call."""
    f = b.shape[-1]
    right = np.empty(b.shape[:-2] + (f + 2, b.shape[-2]))
    np.multiply(np.swapaxes(b, -1, -2), -2.0, out=right[..., :f, :])
    right[..., f, :] = 1.0
    right[..., f + 1, :] = _sq_norms(b)
    return right


def _sq_dist_rows(a_rows, right, out=None):
    """Squared distance rows |a|^2 + |b|^2 - 2<a,b> of one row block: the
    left rows [a, |a|^2, 1] times `_right_cols(b)`, one GEMM (see the module
    docstring for why its bits are the three-step oracle's). Not yet
    clamped: rounding can leave them negative, and finite rows near the
    overflow threshold can give inf or NaN. Every blocked Euclidean kernel
    forms its block through this one GEMM on the same row blocks, so they
    agree bit for bit. Leading axes broadcast as a stack: (C, K, F) rows
    against (C, F + 2, R) columns give (C, K, R) entries."""
    f = a_rows.shape[-1]
    left = np.empty(a_rows.shape[:-1] + (f + 2,))
    left[..., :f] = a_rows
    left[..., f] = _sq_norms(a_rows)
    left[..., f + 1] = 1.0
    return np.matmul(left, right, out=out)


def _root(g):
    """|a - b| from squared distances in place: negatives clamped to 0."""
    np.maximum(g, 0.0, out=g)
    return np.sqrt(g, out=g)


def _kth_smallest_rows(d, k):
    """k-th smallest entry of each row of d, equal to
    `np.partition(d, k - 1, axis=1)[:, k - 1]`; d may be overwritten.

    With w = n // KNN_GROUP, group t holds columns t, t + w, ...,
    t + (KNN_GROUP - 1) w; the last n % KNN_GROUP columns form a tail. The k
    smallest entries of a row lie in the k groups with the smallest minima
    plus the tail, because every other group's minimum is at least the k-th
    of those k minima, each of which is an entry. So only that candidate set
    is partitioned. `fmin` skips NaN as `partition` does, which puts NaN
    last. With w <= k the whole row is partitioned."""
    rows, n = d.shape
    w = n // KNN_GROUP
    if w <= k:
        d.partition(k - 1, axis=1)
        return d[:, k - 1]
    body = d[:, :w * KNN_GROUP].reshape(rows, KNN_GROUP, w)
    mins = np.fmin.reduce(body, axis=1)
    pick = np.argpartition(mins, k - 1, axis=1)[:, :k]
    groups = body.transpose(0, 2, 1)[np.arange(rows)[:, None], pick]
    cand = np.concatenate((groups.reshape(rows, -1), d[:, w * KNN_GROUP:]), axis=1)
    cand.partition(k - 1, axis=1)
    return cand[:, k - 1]


def pairwise_cosine_matrix(a, b):
    """N x M matrix of cos(A_i, B_j) = <A_i, B_j> / max(|A_i| |B_j|, COSINE_EPS).

    Zero rows produce similarity 0. Entries land in [-1, 1] up to rounding.
    """
    a, b = _check_pair(a, b)
    na, nb = _row_norms(a), _row_norms(b)
    out = np.empty((a.shape[0], b.shape[0]))
    bt = b.T.copy()  # contiguous for repeated GEMM against row blocks
    for lo, hi in _blocks(a.shape[0]):
        denom = np.maximum(na[lo:hi, None] * nb[None, :], COSINE_EPS)
        np.divide(a[lo:hi] @ bt, denom, out=out[lo:hi])
    return out


def pairwise_cosine_matrix_naive(a, b):
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
        out[i] /= np.maximum(na[i] * nb, COSINE_EPS)
    return out


def pairwise_euclidean_matrix(a, b):
    """N x M matrix of |A_i - B_j|, via the |a|^2 + |b|^2 - 2<a,b> expansion
    (`_sq_dist_rows`) with negative radicands clamped to 0. Passing the same
    object for both sides pins the diagonal to exactly 0."""
    a, b = _check_pair(a, b)
    out = np.empty((a.shape[0], b.shape[0]))
    right = _right_cols(b)
    for lo, hi in _blocks(a.shape[0]):
        _root(_sq_dist_rows(a[lo:hi], right, out=out[lo:hi]))
    if a is b:
        np.fill_diagonal(out, 0.0)
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
    right = _right_cols(x)
    out = np.empty(n)
    for lo, hi in _blocks(n):
        d = _sq_dist_rows(x[lo:hi], right)
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
    right = _right_cols(b)
    out = np.empty(a.shape[0])
    for lo, hi in _blocks(a.shape[0]):
        out[lo:hi] = _sq_dist_rows(a[lo:hi], right).min(axis=1)
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
