"""The benchmark's workloads: CLI stage chains and their output checks.

Every stage is an argv for ``dire.cli.main``, run in-process. Paths are
relative to the workload's work directory, which is the child's cwd. All
stages receive the workload seed as ``--seed``.

Why these workloads (the numbers are from the seed commit on 2 CPUs):

* ``desk`` is the paper's desk benchmark, the chain users run. `recover`
  (through the regularizer in `losses`) and `squeeze` (in `teacher`) do most
  of its work. The regularizer-off arm runs the same recover loop without
  the regularizer, so a regularizer change has a bypass case in the same run.
* ``metrics-pooled`` is a diversity audit of a larger condensed set (real
  N=8000, n=200 synthetic): `metrics` and `kernels` work on one big matrix
  instead of many tiny ones, pooled Vendi runs the interpreted Jacobi solver
  at n=200, and coverage materialises N x N distances (peak RSS about 1.1
  GB). `losses` is never called in the measured part, so a regularizer
  change must show nothing there.
* ``artifacts`` writes and reads about 48 MB of EMB files with manifests, so
  `fileio` (FNV-1a digests) dominates; `losses` and `metrics` do not run.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TEACHER = ["--hidden", "32", "--epochs", "200", "--lr", "0.5"]
ARMS = {
    "on": ["--rc", "1", "--re", "0.1", "--components", "cd,cdm,edm"],
    "off": ["--rc", "0", "--re", "0", "--components", ""],
}


def gen_data(out, per_class, seed):
    return ["gen-data", "--classes", "10", "--dim", "16", "--per-class",
            str(per_class), "--seed", str(seed), "--out", out]


def squeeze(data, out, seed):
    return ["squeeze", "--data", data, *TEACHER, "--seed", str(seed), "--out", out]


def extract(points, out):
    return ["extract", "--teacher", "teacher.ckpt", "--points", points, "--out", out]


def recover(data, out, ipc, iters, seed, flags):
    return ["recover", "--teacher", "teacher.ckpt", "--data", data, "--out", out,
            "--ipc", str(ipc), "--iters", str(iters), "--seed", str(seed), *flags]


def metrics(real, labels_real, syn, labels_syn, *scope):
    return ["metrics", "--real", real, "--labels-real", labels_real,
            "--syn", syn, "--labels-syn", labels_syn, *scope]


@dataclass
class Workload:
    """Set-up stages, the measured chain, and what to check afterwards.

    `observe(stdouts)` runs after each repetition, outside the timed part,
    and returns what must repeat bit-exactly. `check(seed, observations)`
    runs once at the end and returns a list of problems.
    """
    name: str
    setup_reps: int
    setup: Callable[[int], list]
    chain: Callable[[int], list]
    observe: Callable[[list], dict]
    check: Callable[[int, list], list]
    quality: Callable[[dict], dict] = field(default=lambda obs: {})


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def manifest(path):
    return json.loads(Path(path).read_text())


def read_emb(path):
    """EMB1 reader independent of dire.fileio: 14-byte header, then f8 rows."""
    data = Path(path).read_bytes()
    magic, version, rows, cols = struct.unpack_from("<4sHII", data, 0)
    if magic != b"EMB1" or len(data) != 14 + 8 * rows * cols:
        raise ValueError(f"{path}: not a well-formed EMB1 file")
    return np.frombuffer(data, dtype="<f8", offset=14).reshape(rows, cols)


def fnv1a64(data: bytes) -> str:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def same_across_reps(observations, what):
    first = observations[0]
    return [f"{what}: repetition {i} differs from repetition 0 in {key}"
            for i, obs in enumerate(observations[1:], start=1)
            for key in first if obs.get(key) != first[key]]


# -- desk ------------------------------------------------------------------

REFERENCE = Path(__file__).with_name("reference.json")
QUALITY_KEYS = ("coverage", "vendi", "similarity", "accuracy")
# relative; a floating-point reordering in the program may move the last bits
QUALITY_RTOL = 1e-6


def desk_chain(seed):
    steps = [gen_data("desk", 500, seed), squeeze("desk", "teacher.ckpt", seed),
             extract("desk.train.emb", "real.feat.emb")]
    for arm, flags in ARMS.items():
        steps += [
            recover("desk", arm, 10, 500, seed, flags),
            extract(f"{arm}.syn.emb", f"{arm}.feat.emb"),
            ["evaluate", "--points", f"{arm}.syn.emb", "--soft", f"{arm}.soft.emb",
             "--data", "desk", "--seed", str(seed)],
            metrics("real.feat.emb", "desk.train.labels.csv", f"{arm}.feat.emb",
                    f"{arm}.syn.labels.csv"),
        ]
    return steps


def desk_observe(stdouts):
    obs = {}
    for i, arm in enumerate(ARMS):
        evaluate, report = stdouts[5 + 4 * i], stdouts[6 + 4 * i]
        rep = last_json(report)
        obs[arm] = {"coverage": rep["coverage"], "vendi": rep["vendi"],
                    "similarity": rep["mean_intra_class_cosine"],
                    "accuracy": last_json(evaluate)["accuracy"]}
        obs[f"{arm}.recover_outputs"] = manifest(f"{arm}.recover.manifest.json")["outputs"]
    return obs


def desk_quality(obs):
    return obs["on"]


def desk_check(seed, observations):
    problems = same_across_reps(observations, "desk")
    ref = json.loads(REFERENCE.read_text())["desk"].get(str(seed))
    if ref is None:
        print(f"perfbench: desk: no reference quality recorded for seed {seed}; "
              "checked repeatability only")
        return problems
    got = desk_quality(observations[0])
    for key in QUALITY_KEYS:
        if not np.isclose(got[key], ref[key], rtol=QUALITY_RTOL, atol=0.0):
            problems.append(f"desk: {key} {got[key]!r} != reference {ref[key]!r} "
                            f"(seed {seed}, rtol {QUALITY_RTOL})")
    return problems


# -- metrics-pooled --------------------------------------------------------

def pooled_setup(seed):
    return [gen_data("pool", 1000, seed), squeeze("pool", "teacher.ckpt", seed),
            recover("pool", "syn", 20, 100, seed, ARMS["on"])]


def pooled_chain(seed):
    args = ("real.feat.emb", "pool.train.labels.csv", "syn.feat.emb", "syn.syn.labels.csv")
    return [extract("pool.train.emb", "real.feat.emb"), extract("syn.syn.emb", "syn.feat.emb"),
            metrics(*args, "--vendi-scope", "pooled"), metrics(*args)]


def pooled_observe(stdouts):
    return {"pooled": last_json(stdouts[2]), "per_class": last_json(stdouts[3])}


def vendi_eigh(x):
    """Vendi score through numpy's dense symmetric solver."""
    unit = x / np.maximum(np.linalg.norm(x, axis=1), 1e-12)[:, None]
    lam = np.maximum(np.linalg.eigvalsh(unit @ unit.T / x.shape[0]), 0.0)
    lam = lam / lam.sum()
    lam = lam[lam > 0.0]
    return float(np.exp(-np.sum(lam * np.log(lam))))


COVERAGE_ROWS = 500
K = 5


def coverage_rows(real, syn, rows):
    """Brute-force coverage flags of the given real rows: explicit
    differences, no norm expansion. Returns (covered, radius, nearest syn)."""
    radius, nearest = np.empty(len(rows)), np.empty(len(rows))
    for lo in range(0, len(rows), 50):
        ix = rows[lo:lo + 50]
        d = np.sqrt(((real[ix, None, :] - real[None, :, :]) ** 2).sum(axis=2))
        d[np.arange(len(ix)), ix] = np.inf
        radius[lo:lo + 50] = np.partition(d, K - 1, axis=1)[:, K - 1]
        nearest[lo:lo + 50] = np.sqrt(
            ((real[ix, None, :] - syn[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    return nearest <= radius, radius, nearest


def pooled_check(seed, observations):
    from dire.kernels import knn_distances, pairwise_euclidean_matrix

    problems = same_across_reps(observations, "metrics-pooled")
    obs = observations[0]
    real, syn = read_emb("real.feat.emb"), read_emb("syn.feat.emb")
    labels = np.loadtxt("syn.syn.labels.csv", skiprows=1, dtype=np.int64)
    for scope, want in (
            ("pooled", vendi_eigh(syn)),
            ("per_class", float(np.mean([vendi_eigh(syn[labels == c])
                                         for c in np.unique(labels)])))):
        if not np.isclose(obs[scope]["vendi"], want, rtol=1e-9, atol=0.0):
            problems.append(f"metrics-pooled: {scope} vendi {obs[scope]['vendi']!r} "
                            f"!= eigvalsh {want!r}")

    # coverage: brute force on a seeded row subsample against the program's
    # own kernels on the same rows; flips allowed only at numerical ties
    n = real.shape[0]
    rows = np.sort(np.random.default_rng(seed).choice(n, COVERAGE_ROWS, replace=False))
    covered, radius, nearest = coverage_rows(real, syn, rows)
    prog_radius = knn_distances(real, K)[rows]
    prog_nearest = pairwise_euclidean_matrix(real[rows], syn).min(axis=1)
    tie = np.abs(nearest - radius) <= 1e-9 * radius
    bad = (covered != (prog_nearest <= prog_radius)) & ~tie
    if bad.any() or not np.allclose(prog_radius, radius, rtol=1e-9, atol=1e-12):
        problems.append(f"metrics-pooled: coverage flags differ from brute force on "
                        f"{int(bad.sum())} of {COVERAGE_ROWS} rows")
    cov = obs["pooled"]["coverage"]
    if abs(cov * n - round(cov * n)) > 1e-6 or obs["per_class"]["coverage"] != cov:
        problems.append(f"metrics-pooled: coverage {cov!r} is not one count over N={n}")
    p = covered.mean()
    if abs(p - cov) > 5.0 * np.sqrt(cov * (1 - cov) / COVERAGE_ROWS) + 2.0 / COVERAGE_ROWS:
        problems.append(f"metrics-pooled: coverage {cov!r} far from the brute-force "
                        f"row sample {p!r}")
    return problems


# -- artifacts -------------------------------------------------------------

ARTIFACT_MANIFESTS = {
    "big.gen-data.manifest.json": ((), ("big.train.emb", "big.train.labels.csv",
                                        "big.test.emb", "big.test.labels.csv")),
    "big.feat.emb.extract.manifest.json": (("teacher.ckpt", "big.train.emb"), ("big.feat.emb",)),
    "big.soft.emb.relabel.manifest.json": (("teacher.ckpt", "big.train.emb"), ("big.soft.emb",)),
}


def artifacts_setup(seed):
    return [gen_data("desk", 500, seed), squeeze("desk", "teacher.ckpt", seed)]


def artifacts_chain(seed):
    return [gen_data("big", 10000, seed), extract("big.train.emb", "big.feat.emb"),
            ["relabel", "--teacher", "teacher.ckpt", "--points", "big.train.emb",
             "--out", "big.soft.emb"]]


def artifacts_observe(stdouts):
    return {name: {kind: manifest(name)[kind] for kind in ("inputs", "outputs")}
            for name in ARTIFACT_MANIFESTS}


def artifacts_check(seed, observations):
    from dire.fileio import read_teacher
    from dire.teacher import extract_features, relabel

    problems = same_across_reps(observations, "artifacts")
    digests = {}
    for name, (inputs, outputs) in ARTIFACT_MANIFESTS.items():
        m = observations[0][name]
        for kind, want in (("inputs", inputs), ("outputs", outputs)):
            if sorted(m[kind]) != sorted(want):
                problems.append(f"artifacts: {name} {kind} {sorted(m[kind])} != {sorted(want)}")
            for path, digest in m[kind].items():
                if not re.fullmatch(r"[0-9a-f]{16}", digest):
                    problems.append(f"artifacts: {name}: bad digest {digest!r} for {path}")
                if digests.setdefault(path, digest) != digest:
                    problems.append(f"artifacts: {path} has two digests across manifests")
    for path in ("teacher.ckpt", "big.train.labels.csv", "big.test.labels.csv"):
        if path in digests and digests[path] != fnv1a64(Path(path).read_bytes()):
            problems.append(f"artifacts: manifest digest of {path} is not its FNV-1a")

    model = read_teacher("teacher.ckpt")
    points = read_emb("big.train.emb")
    for path, want in (("big.feat.emb", extract_features(model, points)),
                       ("big.soft.emb", relabel(model, points, 1.0).probs)):
        got = read_emb(path)
        if got.shape != want.shape or got.tobytes() != np.ascontiguousarray(want).tobytes():
            problems.append(f"artifacts: {path} is not bit-identical to the library result")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload("desk", 5, lambda seed: [], desk_chain, desk_observe, desk_check,
             desk_quality),
    Workload("metrics-pooled", 3, pooled_setup, pooled_chain, pooled_observe, pooled_check),
    Workload("artifacts", 3, artifacts_setup, artifacts_chain, artifacts_observe,
             artifacts_check),
)}
