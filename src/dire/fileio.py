"""File formats and run manifests.

Matrices travel as EMB1, a little-endian binary with a fixed header
(magic "EMB1", u16 format version, u32 rows, u32 cols) followed by
rows*cols float64 values in row-major order; round-trips are bit-exact and
non-finite payloads are rejected at write and at read time. Teacher
checkpoints use the DIRT container: layer dimensions and weights, the
feature-layer index, and the stored feature statistics, none of which may
be non-finite on read. Configs and manifests are JSON; labels are
single-column CSV. Manifests record a 64-bit FNV-1a digest per input and
output file so reruns can be checked for bit-identical artifacts.

FNV-1a (h <- (h ^ b) * P mod 2^64) runs here without a byte loop. P is odd with
P mod 256 = 179, so bit j of the next low byte (s ^ b) * 179 is bit j of s ^ b
flipped by bits < j only: each bit plane of the low bytes s_i is a prefix XOR.
With d_i = (s_i ^ b_i) - s_i, h_m = h_0 P^m + sum_{i<m} d_i P^(m-i) mod 2^64.

The closing sum, P^m (h_0 + sum_i d_i P^-i), splits i = 256 q + r. Each P^-r
(r < 256) is cut into eight 8-bit limbs, so one float32 GEMM of the d_i, in
rows of 256, against that (256, 8) limb table gives every row's sum per limb.
The GEMM is exact: |d_i| <= 255 and each limb <= 255, so every partial sum
of a row is an integer of magnitude at most 256 * 255 * 255 = 16 646 400 <
2^24, in any summation order, fused multiply-adds included. One wrapping
uint64 multiply-and-sum of those (row, limb) sums against P^(-256 q) * 2^(8 l)
then closes the chunk.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, FormatError, ParameterError
from .matrix import as_matrix
from .synthesis import RunConfig
from .teacher import TeacherModel

EMB_MAGIC = b"EMB1"
EMB_VERSION = 1
EMB_HEADER = struct.Struct("<4sHII")  # magic, version, rows, cols
_FINITE_PIECE = 1 << 16  # values per finiteness check, a 64 KiB boolean

# labels per write: one join of all 100 000 labels of a 10 x 10 000 split held
# 6.4 MiB of str objects at once and ran slower than these blocks
_LABEL_BLOCK = 1 << 12

CKPT_MAGIC = b"DIRT"
CKPT_VERSION = 1


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all(), in pieces whose boolean temporaries stay small."""
    flat = a.reshape(-1)
    return all(np.isfinite(flat[lo:lo + _FINITE_PIECE]).all()
               for lo in range(0, flat.size, _FINITE_PIECE))


def _write_f64(fh, a) -> None:
    """Write `a` as little-endian float64 from its own buffer, without a
    bytes copy when it is already contiguous little-endian float64."""
    a = np.ascontiguousarray(a, dtype="<f8")
    if a.size:  # a memoryview of an empty 2-D array cannot be cast
        fh.write(memoryview(a).cast("B"))


def write_emb(path, m) -> None:
    m = as_matrix(m)
    if not _all_finite(m):
        raise ParameterError(f"write_emb: refusing to write non-finite values to {path}")
    with open(path, "wb") as fh:
        fh.write(EMB_HEADER.pack(EMB_MAGIC, EMB_VERSION, m.shape[0], m.shape[1]))
        _write_f64(fh, m)


def read_emb(path) -> np.ndarray:
    """The matrix in an EMB1 file, read into one fresh array. The header is
    checked against the file size before anything is allocated."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < EMB_HEADER.size:
            raise FormatError(f"{path}: truncated header, {size} < {EMB_HEADER.size} bytes")
        magic, version, rows, cols = EMB_HEADER.unpack(fh.read(EMB_HEADER.size))
        if magic != EMB_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte offset 0")
        if version != EMB_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
        expected = EMB_HEADER.size + 8 * rows * cols
        if size != expected:
            raise FormatError(
                f"{path}: payload truncated at byte offset {size} (expected {expected})")
        out = np.empty((rows, cols), dtype=np.float64)
        got = fh.readinto(out.reshape(-1).view(np.uint8))
    if got != out.nbytes:  # the file shrank after fstat
        raise FormatError(f"{path}: payload truncated at byte offset "
                          f"{EMB_HEADER.size + got} (expected {expected})")
    if sys.byteorder == "big":
        out.byteswap(inplace=True)
    if not _all_finite(out):
        raise FormatError(f"{path}: non-finite value in payload")
    return out


def write_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w") as fh:
        fh.write("label\n")
        for lo in range(0, labels.size, _LABEL_BLOCK):
            fh.write("".join(f"{v}\n" for v in labels[lo:lo + _LABEL_BLOCK].tolist()))


def read_labels(path) -> np.ndarray:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != "label":
        raise FormatError(f"{path}: expected 'label' header line")
    try:
        return np.array([int(s) for s in lines[1:]], dtype=np.int64)
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer label ({exc})") from exc


def write_teacher(path, model: TeacherModel) -> None:
    """DIRT checkpoint: layer count, per-layer dims + weights + biases,
    feature-layer index, stored feature statistics."""
    if model.feature_mean is None or model.feature_var is None:
        raise ParameterError("write_teacher: model has no stored feature statistics")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHI", CKPT_MAGIC, CKPT_VERSION, len(model.weights)))
        for w, b in zip(model.weights, model.biases):
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
            _write_f64(fh, w)
            _write_f64(fh, b)
        fh.write(struct.pack("<I", model.feature_layer))
        fh.write(struct.pack("<I", model.feature_mean.shape[0]))
        _write_f64(fh, model.feature_mean)
        _write_f64(fh, model.feature_var)


def read_teacher(path) -> TeacherModel:
    data = Path(path).read_bytes()
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(data):
            raise FormatError(f"{path}: truncated at byte offset {off}")
        vals = struct.unpack_from(fmt, data, off)
        off += size
        return vals

    def take_f64(count):
        nonlocal off
        size = 8 * count
        if off + size > len(data):
            raise FormatError(f"{path}: truncated at byte offset {off}")
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=off).astype(np.float64)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: non-finite value in the block at byte offset {off}")
        off += size
        return arr

    magic, version, n_layers = take("<4sHI")
    if magic != CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte offset 0")
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
    weights, biases = [], []
    for _ in range(n_layers):
        rows, cols = take("<II")
        weights.append(take_f64(rows * cols).reshape(rows, cols))
        biases.append(take_f64(cols))
    (feature_layer,) = take("<I")
    (feat_dim,) = take("<I")
    mean = take_f64(feat_dim)
    var = take_f64(feat_dim)
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes at offset {off}")
    return TeacherModel(weights=weights, biases=biases, feature_layer=feature_layer,
                        feature_mean=mean, feature_var=var)


def load_config(path) -> RunConfig:
    """Parse a JSON RunConfig; unknown keys and invariant violations raise
    ConfigError naming the offending key."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return RunConfig.from_dict(raw)


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"


FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
DIGEST_CHUNK = 1 << 18
_GEMM_BYTES = 1 << 16  # bytes per closing GEMM, so its int16/float32 scratch stays 128/256 KiB


def _powers(base: int, count: int) -> np.ndarray:
    """base^0 .. base^(count - 1) mod 2^64; uint64 products wrap."""
    steps = np.full(count, base, np.uint64)
    steps[0] = 1
    return np.cumprod(steps)


# P^-i mod 2^64 for i = 256 q + r is P^(-256 q) * P^-r: limb l of P^-r (8 bits
# from bit 8 l) sits at [r, l] of the limb table, P^(-256 q) * 2^(8 l) at [q, l]
# of the weights
_P_INV = pow(FNV_PRIME, -1, 1 << 64)
_LIMB_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)
_INV_POWER_LIMBS = (_powers(_P_INV, 256)[:, None] >> _LIMB_SHIFTS
                    & np.uint64(0xFF)).astype(np.float32)
_LIMB_WEIGHTS = _powers(pow(_P_INV, 256, 1 << 64), DIGEST_CHUNK // 256)[:, None] << _LIMB_SHIFTS
_WORD_SHIFTS = tuple(np.uint64(s) for s in (2, 4, 8, 16, 32))
_ONE = np.uint64(1)
_TOP_BIT = np.int64(63)


def _fnv1a64_update(h: int, chunks) -> int:
    """FNV-1a state after feeding h the bytes of each chunk in turn (uint8
    arrays of at most DIGEST_CHUNK bytes). The scratch arrays are made at the
    first chunk's size, and again only for a longer chunk."""
    x = None
    for data in chunks:
        m = data.size
        b = data
        if m % 256:  # zero padding comes after every real byte and has d_i = 0
            b = np.zeros(m + (-m % 256), np.uint8)
            b[:m] = data
        n = b.size
        if x is None or n > x.size:
            x, u = np.empty(n, np.uint8), np.empty(n, np.uint8)
            tmp, prefix, carry = (np.empty(n // 64, np.uint64) for _ in range(3))
            d = np.empty(min(n, _GEMM_BYTES), np.int16)
            f = np.empty(min(n, _GEMM_BYTES), np.float32)
        xn, un, tn, pn, cn = x[:n], u[:n], tmp[:n // 64], prefix[:n // 64], carry[:n // 64]
        parities, signs = pn[:-1].view(np.int64), cn[1:].view(np.int64)
        for j in range(8):
            # xn = s ^ b with bits >= j of s still 0, so bit j of xn * 179 is
            # bit j of s_(i+1) ^ s_i, and bit j of s_i the XOR of those before i
            np.multiply(xn if j else b, 179, out=un)
            un &= 1 << j
            words = np.packbits(un, bitorder="little").view("<u8")
            np.left_shift(words, _ONE, out=tn)
            np.bitwise_xor(words, tn, out=pn)
            for shift in _WORD_SHIFTS:  # inclusive prefix XOR inside each word
                np.left_shift(pn, shift, out=tn)
                pn ^= tn
            # bit j of s entering each word, as 0 or all ones: bit j of h,
            # then the parities of the words before
            cn[:1] = -((h >> j) & 1) & _MASK64
            np.right_shift(parities, _TOP_BIT, out=signs)
            np.bitwise_xor.accumulate(cn, out=cn)
            pn ^= words  # exclusive: s_i does not see byte i
            pn ^= cn
            bits = np.unpackbits(pn.view(np.uint8), bitorder="little")
            if j:
                bits *= 1 << j  # twice as fast as <<= on uint8
                xn ^= bits
            else:
                np.bitwise_xor(b, bits, out=xn)
        np.bitwise_xor(xn, b, out=un)  # s_i
        tail = 0  # sum_i d_i P^-i with d_i = x_i - s_i
        for lo in range(0, n, _GEMM_BYTES):
            k = min(n - lo, _GEMM_BYTES)
            dk, fk = d[:k], f[:k]
            np.subtract(xn[lo:lo + k], un[lo:lo + k], out=dk, dtype=np.int16)
            np.copyto(fk, dk)
            limbs = (fk.reshape(-1, 256) @ _INV_POWER_LIMBS).astype(np.int64).view(np.uint64)
            tail += int(np.vdot(limbs, _LIMB_WEIGHTS[lo // 256:][:k // 256]))
        h = pow(FNV_PRIME, m, 1 << 64) * (h + tail) & _MASK64
    return h


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a. Integrity check for manifests, not cryptographic."""
    b = np.frombuffer(data, dtype=np.uint8)
    return _fnv1a64_update(FNV_OFFSET, (b[lo:lo + DIGEST_CHUNK]
                                        for lo in range(0, b.size, DIGEST_CHUNK)))


def digest_file(path) -> str:
    """FNV-1a hex of a file, read through one DIGEST_CHUNK buffer."""
    buf = np.empty(DIGEST_CHUNK, np.uint8)  # not zeroed: a small file touches few pages
    with open(path, "rb", buffering=0) as fh:
        h = _fnv1a64_update(FNV_OFFSET, (buf[:n] for n in iter(lambda: fh.readinto(buf), 0)))
    return f"{h:016x}"


@dataclass
class ExperimentManifest:
    """What a CLI stage ran and what it produced."""
    subcommand: str
    argv: list
    tool_version: str = __version__
    config: dict | None = None
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def record_input(self, path):
        self.inputs[str(path)] = digest_file(path)

    def record_output(self, path):
        self.outputs[str(path)] = digest_file(path)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"


def write_manifest(path, manifest: ExperimentManifest) -> None:
    Path(path).write_text(manifest.to_json())


def read_manifest(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: malformed manifest JSON ({exc})") from exc
