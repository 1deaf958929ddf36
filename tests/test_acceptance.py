"""Acceptance suite: one test per release criterion, each at its stated
tolerance, with a PASS/FAIL line printed per criterion.

Criterion 8 encodes a claim that the descent experiment refutes: minimizing
the signed pairwise-cosine sum drives unit vectors to zero-sum
configurations, where the mean off-diagonal |cos| is pinned at >= 1/3 by
    sum_{i != j} cos(x_i, x_j) = |sum_i x_i|^2 - K,
so the < 0.05 target is unreachable by any descent trajectory we could
produce (150 seeded runs across step sizes bottom out at 0.15). The test
asserts the stated target anyway and fails honestly rather than moving it.
"""

import math
import time

import numpy as np
import pytest

import dire
from dire import (DireWeights, EmbeddingSet, Objective, Rng, RunConfig,
                  cd_loss, cdm_loss, coverage, dire_loss, edm_loss,
                  finite_diff_check, gen_mixture, intra_class_cosine,
                  pairwise_cosine_matrix, pairwise_euclidean_matrix, read_emb,
                  recover, rng_normal, row_l2_normalize, squeeze_train,
                  vendi_score, write_emb)
from dire.cli import main as cli_main
from dire.fileio import digest_file, read_manifest
from dire.kernels import bench_kernels
from dire.synthesis import TRACE_COLUMNS, class_blocked_labels
from dire.teacher import extract_features


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# --- criterion 1: kernel oracle equivalence, 100 cases, < 10 s ----------

def _oracle_cosine(a, b, eps=1e-12):
    a, b = a.tolist(), b.tolist()
    out = [[0.0] * len(b) for _ in a]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            dot = na = nb = 0.0
            for x, y in zip(ai, bj):
                dot += x * y
                na += x * x
                nb += y * y
            out[i][j] = dot / max(math.sqrt(na) * math.sqrt(nb), eps)
    return np.array(out)


def _oracle_euclidean(a, b):
    a, b = a.tolist(), b.tolist()
    out = [[0.0] * len(b) for _ in a]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            s = 0.0
            for x, y in zip(ai, bj):
                d = x - y
                s += d * d
            out[i][j] = math.sqrt(s)
    return np.array(out)


def test_criterion_1_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(100):
        n, m = rng.integers(1, 65, size=2)
        d = int(rng.integers(1, 33))
        r = Rng(5000 + case)
        a = rng_normal(r.split(0), int(n), d)
        b = rng_normal(r.split(1), int(m), d)
        oc = _oracle_cosine(a, b)
        oe = _oracle_euclidean(a, b)
        worst = max(
            worst,
            float(np.abs(pairwise_cosine_matrix(a, b) - oc).max()
                  / max(1.0, np.abs(oc).max())),
            float(np.abs(pairwise_euclidean_matrix(a, b) - oe).max()
                  / max(1.0, oe.max())))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report("1 kernel-oracle-equivalence", ok,
                  f"(worst rel dev {worst:.2e}, {elapsed:.1f}s)")


# --- criterion 2: gradient suite, 20 instances each, < 30 s -------------

def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    h = 1e-5
    worst = {"cd": 0.0, "cdm": 0.0, "edm": 0.0, "l_syn": 0.0, "total": 0.0}

    train, _ = gen_mixture(2, 4, 20, 0.2, seed=77)
    teacher = squeeze_train(train, (6,), epochs=15, lr=0.2, seed=77)
    e_real_t = EmbeddingSet.from_labeled(extract_features(teacher, train.points),
                                         train.labels)
    total_labels = class_blocked_labels(2, 2)
    total_cfg = RunConfig(ipc=2, iters=1, seed=0, real_cap=None)

    for inst in range(20):
        r = Rng(9000 + inst)
        k = int(r.split(0).generator.integers(2, 9))
        rr = int(r.split(1).generator.integers(2, 9))
        d = int(r.split(2).generator.integers(2, 7))
        x = rng_normal(r.split(3), k, d)
        y = rng_normal(r.split(4), rr, d) + 2.0  # keep clear of edm singularity
        assert pairwise_euclidean_matrix(x, y).min() > 10 * h
        w = DireWeights(r_c=0.8, r_e=0.4,
                        reduction="mean" if inst % 2 else "sum")
        worst["cd"] = max(worst["cd"],
                          finite_diff_check(lambda m: cd_loss(m, w), x, h))
        worst["cdm"] = max(worst["cdm"],
                           finite_diff_check(lambda m: cdm_loss(m, y, w), x, h))
        worst["edm"] = max(worst["edm"],
                           finite_diff_check(lambda m: edm_loss(m, y, w), x, h))

        y2 = rng_normal(r.split(5), rr, d) - 2.0

        def syn_loss(m):
            per, tot = dire_loss(EmbeddingSet({0: m, 1: y2}),
                                 EmbeddingSet({0: y, 1: y2 + 4.0}), w)
            return tot.l_syn, per[0].grad

        worst["l_syn"] = max(worst["l_syn"], finite_diff_check(syn_loss, x, h))

        pts = rng_normal(r.split(6), 4, 4)

        def total_fn(m):
            row, grad = Objective(teacher, total_labels, e_real_t, total_cfg)(m)
            return row[TRACE_COLUMNS.index("total")], grad

        worst["total"] = max(worst["total"], finite_diff_check(total_fn, pts, h))

    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 30.0
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    assert report("2 gradient-suite", ok, f"({detail}, {elapsed:.1f}s)")


# --- criterion 3: metric trivial values exact ----------------------------

def test_criterion_3_metric_trivial_values():
    identical = np.tile([[2.0, -1.0, 0.5]], (7, 1))
    v1 = vendi_score(identical)
    vn = vendi_score(np.eye(6))
    x = rng_normal(Rng(33), 25, 4)
    cov_same_object = coverage(x, x, 5)
    cov_copy = coverage(x, x.copy(), 5)
    per_class, _ = intra_class_cosine(EmbeddingSet({0: np.eye(3)}))
    ok = (abs(v1 - 1.0) <= 1e-9 and abs(vn - 6.0) <= 1e-9
          and cov_same_object == 1.0 and cov_copy == 1.0
          and abs(per_class[0]) <= 1e-12)
    assert report("3 metric-trivial-values", ok,
                  f"(vendi_ident={v1:.12f}, vendi_orth={vn:.12f})")


# --- criterion 4: coverage brute-force equivalence, 20 instances ---------

def test_criterion_4_coverage_brute_force():
    rng = np.random.default_rng(4)
    for inst in range(20):
        n = int(rng.integers(10, 60))
        m = int(rng.integers(1, 20))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(6, n - 1) + 1))
        r = Rng(4000 + inst)
        real = rng_normal(r.split(0), n, d)
        syn = rng_normal(r.split(1), m, d)
        got = coverage(real, syn, k)
        hits = 0
        for i in range(n):
            others = np.linalg.norm(real - real[i], axis=1)[np.arange(n) != i]
            radius = np.sort(others)[k - 1]
            if np.min(np.linalg.norm(syn - real[i], axis=1)) <= radius:
                hits += 1
        assert got == hits / n, f"instance {inst}: {got} != {hits / n}"
    assert report("4 coverage-brute-force", True, "(20/20 exact)")


# --- criteria 5 & 7: directional effect and second extractor ------------

def _second_extractor(train, seed):
    return squeeze_train(train, (24,), epochs=200, lr=0.5, seed=seed + 1000)


@pytest.fixture(scope="module")
def directional_runs():
    """Criteria 5 and 7 from one set of recovers: the teacher's report and
    the second extractor's."""
    t0 = time.perf_counter()
    comparisons = dire.directional_comparison(
        seeds=range(5), extractor_factories=(None, _second_extractor))
    return comparisons, time.perf_counter() - t0


def test_criterion_5_directional_effect(directional_runs):
    (comparison, _), elapsed = directional_runs
    med = comparison.medians()
    ok = (med["coverage_on"] > med["coverage_off"]
          and med["vendi_on"] > med["vendi_off"]
          and med["similarity_on"] < med["similarity_off"]
          and med["accuracy_on"] >= med["accuracy_off"] - 0.005
          and elapsed < 300.0)
    detail = (f"(cov {med['coverage_on']:.3f}>{med['coverage_off']:.3f}, "
              f"vendi {med['vendi_on']:.2f}>{med['vendi_off']:.2f}, "
              f"sim {med['similarity_on']:.3f}<{med['similarity_off']:.3f}, "
              f"acc {med['accuracy_on']:.3f} vs {med['accuracy_off']:.3f}, "
              f"{elapsed:.0f}s)")
    assert report("5 directional-effect", ok, detail)


def test_criterion_7_cross_extractor(directional_runs):
    (_, comparison), _ = directional_runs
    med = comparison.medians()
    ok = (med["coverage_on"] > med["coverage_off"]
          and med["vendi_on"] > med["vendi_off"]
          and med["similarity_on"] < med["similarity_off"])
    detail = (f"(cov {med['coverage_on']:.3f}>{med['coverage_off']:.3f}, "
              f"vendi {med['vendi_on']:.2f}>{med['vendi_off']:.2f}, "
              f"sim {med['similarity_on']:.3f}<{med['similarity_off']:.3f})")
    assert report("7 cross-extractor", ok, detail)


# --- criterion 6: ablation harness ---------------------------------------

def test_criterion_6_ablation_harness():
    train, test, teacher = dire.make_benchmark(0)
    cfg = RunConfig(seed=0)
    ablation = dire.ablate(teacher, train, test, cfg)
    ok = len(ablation.rows) == 7
    for col in ("norm_coverage", "norm_similarity", "norm_vendi"):
        vals = np.array([getattr(r, col) for r in ablation.rows])
        ok = ok and vals.min() == 0.0 and vals.max() == 1.0

    syn = recover(teacher, train, cfg)
    syn.soft_labels = dire.relabel(teacher, syn, cfg.temperature)
    rep, acc = dire.evaluate_synthetic(teacher, train, test, syn,
                                       student_seed=cfg.seed)
    full_row = next(r for r in ablation.rows if r.mask == ("cd", "cdm", "edm"))
    ok = ok and full_row.coverage == rep.coverage and full_row.vendi == rep.vendi \
        and full_row.accuracy == acc
    assert report("6 ablation-harness", ok,
                  f"({len(ablation.rows)} masks, full-row match)")


# --- criterion 8: orthogonality property (known spec defect) --------------

def test_criterion_8_orthogonality_property():
    """Stated target: descent on the cosine-diversity term alone (mean
    reduction, unit-norm projection, K=D=4) reaches mean off-diagonal
    |cos| < 0.05 within 2000 steps.

    This is asserted exactly as stated. It fails: the descent provably
    converges to zero-sum configurations where the mean off-diagonal |cos|
    cannot drop below 1/3 (see module docstring and the decisions log).
    """
    w = DireWeights(reduction="mean")
    best = 1.0
    for seed in range(5):
        x = row_l2_normalize(rng_normal(Rng(seed), 4, 4))
        reached = 1.0
        for _ in range(2000):
            _, g = cd_loss(x, w)
            x = row_l2_normalize(x - 1.0 * g)
            cos = pairwise_cosine_matrix(x, x)
            off = (np.abs(cos).sum() - np.trace(np.abs(cos))) / 12
            reached = min(reached, off)
        best = min(best, reached)
    ok = best < 0.05
    report("8 orthogonality-property", ok,
           f"(best mean off-diag |cos| reached = {best:.3f}; "
           f"zero-sum floor is 1/3, target 0.05 unreachable)")
    assert ok, (
        f"best mean off-diagonal |cos| over 5 seeds x 2000 steps is {best:.3f}; "
        "minimizing the signed pairwise-cosine sum converges to zero-sum "
        "configurations where this quantity is bounded below by 1/3 "
        "(sum_{i!=j} cos = |sum x|^2 - K), so the stated 0.05 target cannot "
        "be met. Kept red on purpose; see notes in the repository docs.")


# --- criterion 9: blocked kernel performance ------------------------------

def test_criterion_9_performance():
    t0 = time.perf_counter()
    reports = bench_kernels([(4096, 4096, 512)], reps=3, kernels=("cosine",),
                            seed=0)
    elapsed = time.perf_counter() - t0
    r = reports[0]
    ok = r.speedup >= 5.0 and r.max_dev <= 1e-9 and elapsed < 120.0
    assert report("9 performance", ok,
                  f"(speedup {r.speedup:.1f}x, dev {r.max_dev:.1e}, {elapsed:.0f}s)")


# --- criterion 10: I/O round trips and manifest-driven rerun ---------------

def test_criterion_10_io_roundtrips(tmp_path):
    # EMB1 bit-exactness
    m = rng_normal(Rng(10), 17, 9)
    emb_path = tmp_path / "m.emb"
    write_emb(emb_path, m)
    emb_ok = np.array_equal(read_emb(emb_path), m)

    # teacher checkpoint round trip reproduces extract_features exactly
    train, _ = gen_mixture(3, 5, 30, 0.2, seed=10)
    teacher = squeeze_train(train, (8,), epochs=5, lr=0.1, seed=10)
    ckpt = tmp_path / "t.ckpt"
    dire.write_teacher(ckpt, teacher)
    again = dire.read_teacher(ckpt)
    probe = rng_normal(Rng(11), 6, 5)
    ckpt_ok = np.array_equal(extract_features(teacher, probe),
                             extract_features(again, probe))

    # manifest-driven rerun reproduces digest-identical artifacts
    data = str(tmp_path / "toy")
    ck = str(tmp_path / "teacher2.ckpt")
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(["gen-data", "--classes", "3", "--dim", "5",
                     "--per-class", "30", "--spread", "0.2", "--seed", "1",
                     "--out", data]) == 0
    assert cli_main(["squeeze", "--data", data, "--hidden", "8",
                     "--epochs", "5", "--lr", "0.1", "--seed", "1",
                     "--out", ck]) == 0
    assert cli_main(["recover", "--teacher", ck, "--data", data,
                     "--ipc", "2", "--iters", "10", "--seed", "1",
                     "--out", out1]) == 0
    manifest = read_manifest(out1 + ".recover.manifest.json")
    argv = [a if a != out1 else out2 for a in manifest["argv"]]
    assert cli_main(argv) == 0
    rerun_ok = all(
        digest_file(out1 + sfx) == digest_file(out2 + sfx)
        for sfx in (".syn.emb", ".syn.labels.csv", ".soft.emb", ".trace.csv"))

    ok = emb_ok and ckpt_ok and rerun_ok
    assert report("10 io-roundtrips", ok,
                  f"(emb={emb_ok}, ckpt={ckpt_ok}, rerun={rerun_ok})")
