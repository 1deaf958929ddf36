import dataclasses

import numpy as np
import pytest

from dire import (ConfigError, DimensionError, EmbeddingSet, NumericalError,
                  Objective, ParameterError, RunConfig, Rng, ablate, dire_loss,
                  extract_features, finite_diff_check, gen_mixture, recover,
                  rng_normal, squeeze_train)
from dire.losses import RealSide
from dire.synthesis import TRACE_COLUMNS, class_blocked_labels, trace_to_csv
from dire.teacher import forward_activations, input_gradient


@pytest.fixture(scope="module")
def small_world():
    train, test = gen_mixture(3, 6, 40, 0.15, seed=2)
    teacher = squeeze_train(train, (10,), epochs=25, lr=0.2, seed=2)
    e_real = EmbeddingSet.from_labeled(extract_features(teacher, train.points),
                                       train.labels)
    return train, test, teacher, e_real


def small_cfg(**kw):
    base = dict(ipc=3, iters=40, lr=0.1, seed=0, real_cap=None)
    base.update(kw)
    return RunConfig(**base)


def col(rows, name):
    """The TRACE_COLUMNS column `name` of one trace row or of a whole trace."""
    return rows[..., TRACE_COLUMNS.index(name)]


class TestRunConfig:
    def test_validation_names_key(self):
        cases = [(dict(ipc=0), "ipc"), (dict(iters=0), "iters"),
                 (dict(lr=-0.1), "lr"), (dict(reduction="x"), "reduction"),
                 (dict(temperature=0.0), "temperature"),
                 (dict(init_std=-1.0), "init_std")]
        # NaN and inf pass every range check, so finiteness is a check of its own
        cases += [({key: value}, key)
                  for key in ("lr", "lambda_bn", "r_c", "r_e", "init_std", "temperature")
                  for value in (float("nan"), float("inf"))]
        for kw, key in cases:
            with pytest.raises(ConfigError, match=key):
                RunConfig(**kw)

    @pytest.mark.parametrize("key", ["lr", "lambda_bn", "r_c", "r_e", "init_std",
                                     "temperature", "ipc", "iters", "real_cap", "seed"])
    def test_from_dict_rejects_int_beyond_range_naming_key(self, key):
        # JSON integers of any size reach the float fields too
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            RunConfig.from_dict({key: 10**400})

    def test_from_dict_rejects_unknown_key(self):
        # "optimizer" and "momentum" were fields once; they now fail by name
        for key in ("learning_rate", "optimizer", "momentum"):
            with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
                RunConfig.from_dict({key: 0.1})

    def test_roundtrip(self):
        cfg = RunConfig(ipc=4, components=("cd", "edm"), real_cap=None)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_zero_lr_allowed(self):
        assert RunConfig(lr=0.0).lr == 0.0


class TestTotalLossAndGrad:
    """`Objective`: one trace row of L_total's terms and its gradient."""

    def test_all_masked_off_is_ce_only(self, small_world):
        train, _, teacher, e_real = small_world
        labels = class_blocked_labels(3, 3)
        pts = rng_normal(Rng(5), 9, 6)
        cfg_off = small_cfg(r_c=0.0, r_e=0.0, components=(), lambda_bn=0.0)
        row, grad = Objective(teacher, labels, e_real, cfg_off)(pts)
        assert row.dtype == np.float64 and row.shape == (len(TRACE_COLUMNS),)
        assert all(col(row, name) == 0.0 for name in ("l_bn", "cd", "cdm", "edm"))
        assert col(row, "total") == pytest.approx(col(row, "l_ce"))

        # gradient must equal the pure cross-entropy input gradient
        from dire.teacher import (_cross_entropy_and_dlogits,
                                  forward_activations, input_gradient)
        acts = forward_activations(teacher, pts)
        _, dlogits = _cross_entropy_and_dlogits(acts[-1], np.eye(3)[labels])
        ce_grad = input_gradient(teacher, acts, dlogits=dlogits)
        np.testing.assert_allclose(grad, ce_grad, atol=1e-12)

    def test_class_means_beat_noise_on_ce(self, small_world):
        train, _, teacher, e_real = small_world
        labels = class_blocked_labels(3, 3)
        cfg = small_cfg()
        means = np.vstack([np.tile(train.points[train.labels == c].mean(axis=0), (3, 1))
                           for c in range(3)])
        noise = rng_normal(Rng(1), 9, 6)
        objective = Objective(teacher, labels, e_real, cfg)
        row_means, _ = objective(means)
        row_noise, _ = objective(noise)
        assert col(row_means, "l_ce") < col(row_noise, "l_ce")

    def test_full_gradient_finite_differences(self, small_world):
        train, _, teacher, e_real = small_world
        tr2, _ = gen_mixture(2, 4, 20, 0.2, seed=9)
        tch2 = squeeze_train(tr2, (6,), epochs=15, lr=0.2, seed=9)
        er2 = EmbeddingSet.from_labeled(extract_features(tch2, tr2.points), tr2.labels)
        labels = class_blocked_labels(2, 2)
        cfg = small_cfg(ipc=2)
        pts = rng_normal(Rng(7), 4, 4)

        def loss_fn(m):
            row, grad = Objective(tch2, labels, er2, cfg)(m)
            return col(row, "total"), grad

        assert finite_diff_check(loss_fn, pts, h=1e-5) < 1e-4

    def test_breakdown_composition(self, small_world):
        train, _, teacher, e_real = small_world
        labels = class_blocked_labels(3, 3)
        pts = rng_normal(Rng(3), 9, 6)
        cfg = small_cfg(r_c=2.0, r_e=0.5)
        row, _ = Objective(teacher, labels, e_real, cfg)(pts)
        l_ce, l_bn, cd, cdm, edm, total = (col(row, name) for name in TRACE_COLUMNS)
        assert total == l_ce + l_bn + (cfg.r_c * (cd + cdm) + cfg.r_e * edm)

    def test_regularizer_matches_per_class_oracle(self, small_world):
        train, _, teacher, e_real = small_world
        labels = class_blocked_labels(3, 3)
        pts = rng_normal(Rng(4), 9, 6)
        cfg = small_cfg(r_c=1.5, r_e=0.3, lambda_bn=0.0)
        row, grad = Objective(teacher, labels, e_real, cfg)(pts)
        ce_only, ce_grad = Objective(
            teacher, labels, e_real, small_cfg(r_c=0.0, r_e=0.0, lambda_bn=0.0))(pts)
        feats = extract_features(teacher, pts)
        _, want = dire_loss(EmbeddingSet.from_labeled(feats, labels), e_real,
                            cfg.dire_weights())
        for key in ("cd", "cdm", "edm"):
            assert col(row, key) == pytest.approx(getattr(want, key), rel=1e-12)
        l_syn = cfg.r_c * (col(row, "cd") + col(row, "cdm")) + cfg.r_e * col(row, "edm")
        assert l_syn == pytest.approx(want.l_syn, rel=1e-12)
        assert col(row, "l_ce") == col(ce_only, "l_ce")
        vjp = input_gradient(teacher, forward_activations(teacher, pts), dfeatures=want.grad)
        np.testing.assert_allclose(grad - ce_grad, vjp, rtol=1e-9, atol=1e-14)

    @pytest.mark.parametrize("labels", [
        np.array([0, 1, 2, 0, 1, 2, 0, 1, 2]),   # shuffled, equal counts
        np.array([0, 0, 0, 0, 1, 1, 2, 2, 2]),   # blocked, unequal counts
    ], ids=["shuffled", "unequal-counts"])
    def test_labels_must_be_class_blocked(self, small_world, labels):
        train, _, teacher, e_real = small_world
        with pytest.raises(ParameterError, match="class-blocked"):
            Objective(teacher, labels, e_real, small_cfg())

    def test_labels_outside_the_teacher_or_the_points_rejected(self, small_world):
        train, _, teacher, e_real = small_world
        pts = rng_normal(Rng(0), 9, 6)
        with pytest.raises(ParameterError, match="labels"):
            Objective(teacher, np.repeat([1, 2, 3], 3), e_real, small_cfg())
        with pytest.raises(DimensionError, match="9 points vs 6 labels"):
            Objective(teacher, class_blocked_labels(3, 2), e_real, small_cfg())(pts)

    def test_missing_feature_stats_rejected(self, small_world):
        train, _, teacher, e_real = small_world
        bare = dataclasses.replace(teacher, feature_mean=None)
        with pytest.raises(ParameterError, match="feature stats"):
            Objective(bare, class_blocked_labels(3, 3), e_real, small_cfg())


class TestRecover:
    def test_zero_lr_returns_seeded_init(self, small_world):
        train, _, teacher, _ = small_world
        cfg = small_cfg(iters=1, lr=0.0)
        syn = recover(teacher, train, cfg)
        from dire.matrix import rng_normal as rn
        expected = rn(Rng(cfg.seed).split(7001), 9, 6, 0.0, cfg.init_std)
        assert np.array_equal(syn.points, expected)

    def test_bit_identical_reruns(self, small_world):
        train, _, teacher, _ = small_world
        cfg = small_cfg()
        a = recover(teacher, train, cfg)
        b = recover(teacher, train, cfg)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.trace, b.trace)

    def test_labels_fixed_and_blocked(self, small_world):
        train, _, teacher, _ = small_world
        syn = recover(teacher, train, small_cfg())
        assert np.array_equal(syn.labels, np.repeat(np.arange(3), 3))
        assert np.bincount(syn.labels).tolist() == [3, 3, 3]

    def test_gradient_flow_moves_points(self, small_world):
        train, _, teacher, _ = small_world
        cfg = small_cfg(iters=1)
        syn = recover(teacher, train, cfg)
        init = recover(teacher, train, dataclasses.replace(cfg, lr=0.0)).points
        assert np.linalg.norm(syn.points - init) > 0

    def test_loss_decreases(self, small_world):
        train, _, teacher, _ = small_world
        syn = recover(teacher, train, small_cfg(iters=150))
        first, last = col(syn.trace[[0, -1]], "total")
        assert last < first

    def test_non_finite_loss_reports_iteration(self, small_world):
        train, _, teacher, _ = small_world
        poisoned = dataclasses.replace(
            teacher, weights=[w.copy() for w in teacher.weights])
        poisoned.weights[0][0, 0] = np.nan
        with pytest.raises(NumericalError, match="iteration"):
            recover(poisoned, train, small_cfg(iters=5))

    def test_real_cap_drawn_once_per_recover(self, small_world, monkeypatch):
        train, _, teacher, _ = small_world
        calls = []
        subsample = EmbeddingSet.subsample

        def counting_subsample(self, *args, **kwargs):
            calls.append(1)
            return subsample(self, *args, **kwargs)
        monkeypatch.setattr(EmbeddingSet, "subsample", counting_subsample)
        recover(teacher, train, small_cfg(iters=5, real_cap=4))
        assert len(calls) == 1

    def test_real_side_prepared_once_per_recover(self, small_world, monkeypatch):
        train, _, teacher, _ = small_world
        calls = []
        prepare = RealSide.prepare.__func__

        def counting_prepare(cls, *args, **kwargs):
            calls.append(1)
            return prepare(cls, *args, **kwargs)
        monkeypatch.setattr(RealSide, "prepare", classmethod(counting_prepare))
        recover(teacher, train, small_cfg(iters=5))
        assert len(calls) == 1

    def test_real_cap_changes_points(self, small_world):
        train, _, teacher, _ = small_world
        capped = recover(teacher, train, small_cfg(iters=5, real_cap=2))
        full = recover(teacher, train, small_cfg(iters=5, real_cap=None))
        assert not np.array_equal(capped.points, full.points)

    def test_trace_csv_columns(self, small_world):
        train, _, teacher, _ = small_world
        syn = recover(teacher, train, small_cfg(iters=3))
        lines = trace_to_csv(syn.trace).strip().splitlines()
        assert lines[0] == "iter,l_ce,l_bn,cd,cdm,edm,total"
        assert len(lines) == 4

    def test_trace_csv_bytes(self):
        trace = np.array([[2.0, -0.5, 1e-300, 0.123456789012, -1234.5678912345, 1.23456789e11],
                          [0.0, -3.0, 7.0, 1e-300, -2.5e-7, 100.0]])
        assert trace_to_csv(trace) == (
            "iter,l_ce,l_bn,cd,cdm,edm,total\n"
            "1,2,-0.5,1e-300,0.123456789,-1234.56789,1.23456789e+11\n"
            "2,0,-3,7,1e-300,-2.5e-07,100\n")

    def test_recover_is_objective_steps(self, small_world):
        train, _, teacher, _ = small_world
        cfg = small_cfg(iters=3, real_cap=8)
        syn = recover(teacher, train, cfg)
        labels = class_blocked_labels(3, cfg.ipc)
        points = rng_normal(Rng(cfg.seed).split(7001), 9, 6, 0.0, cfg.init_std)
        e_real = EmbeddingSet.from_labeled(
            extract_features(teacher, train.points), train.labels).subsample(
                cfg.real_cap, Rng(cfg.seed))
        objective = Objective(teacher, labels, e_real, cfg)
        assert syn.trace.shape == (3, len(TRACE_COLUMNS))
        for t in range(3):
            row, grad = objective(points)
            assert np.array_equal(syn.trace[t], row)
            points = points - cfg.lr * grad
        assert np.array_equal(syn.points, points)


class TestAblate:
    def test_report_shape_and_normalization(self, small_world):
        train, test, teacher, _ = small_world
        cfg = small_cfg(iters=30)
        report = ablate(teacher, train, test, cfg, k=3,
                        student_hidden=(8,), student_epochs=8)
        assert len(report.rows) == 7
        for col in ("norm_coverage", "norm_similarity", "norm_vendi"):
            vals = np.array([getattr(r, col) for r in report.rows])
            assert vals.min() == 0.0 and vals.max() == 1.0
            assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_duplicate_masks_identical(self, small_world):
        train, test, teacher, _ = small_world
        cfg = small_cfg(iters=20)
        report = ablate(teacher, train, test, cfg, masks=[("cd",), ("cd",)],
                        k=3, student_hidden=(8,), student_epochs=5)
        a, b = report.rows
        assert (a.coverage, a.similarity, a.vendi, a.accuracy) == \
               (b.coverage, b.similarity, b.vendi, b.accuracy)

    def test_full_mask_matches_standalone_recover(self, small_world):
        train, test, teacher, _ = small_world
        cfg = small_cfg(iters=25)
        report = ablate(teacher, train, test, cfg,
                        masks=[("cd", "cdm", "edm")], k=3,
                        student_hidden=(8,), student_epochs=5)
        from dire import evaluate_synthetic, relabel
        syn = recover(teacher, train, cfg)
        syn.soft_labels = relabel(teacher, syn, cfg.temperature)
        rep, acc = evaluate_synthetic(teacher, train, test, syn, k=3,
                                      student_hidden=(8,), student_epochs=5,
                                      student_seed=cfg.seed)
        row = report.rows[0]
        assert row.coverage == rep.coverage
        assert row.vendi == rep.vendi
        assert row.accuracy == acc

    def test_real_side_radii_computed_once(self, small_world, monkeypatch):
        import dire.kernels
        import dire.metrics
        import dire.pipeline
        calls = []
        knn = dire.kernels.knn_distances

        def counting_knn(*args, **kwargs):
            calls.append(1)
            return knn(*args, **kwargs)
        for mod in (dire.kernels, dire.metrics, dire.pipeline):
            if hasattr(mod, "knn_distances"):
                monkeypatch.setattr(mod, "knn_distances", counting_knn)
        train, test, teacher, _ = small_world
        report = ablate(teacher, train, test, small_cfg(iters=5), k=3,
                        student_hidden=(8,), student_epochs=2)
        assert len(report.rows) == 7
        assert len(calls) == 1

    @pytest.mark.parametrize("option", [dict(student_lr=-5.0), dict(student_epochs=-1)],
                             ids=["lr-neg", "epochs-neg"])
    def test_student_options_checked_before_any_recover(self, small_world, monkeypatch,
                                                         option):
        import dire.pipeline

        def no_recover(*args, **kwargs):
            raise AssertionError("recover ran before the student options were checked")
        monkeypatch.setattr(dire.pipeline, "recover", no_recover)
        train, test, teacher, _ = small_world
        with pytest.raises(ParameterError, match="^training: "):
            ablate(teacher, train, test, small_cfg(), **option)

    def test_empty_masks_rejected(self, small_world):
        train, test, teacher, _ = small_world
        with pytest.raises(Exception):
            ablate(teacher, train, test, small_cfg(), masks=[])
