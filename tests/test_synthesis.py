import dataclasses

import numpy as np
import pytest

from dire import (ConfigError, EmbeddingSet, NumericalError, RunConfig, Rng,
                  ablate, extract_features, finite_diff_check, gen_mixture,
                  recover, rng_normal, squeeze_train, total_loss_and_grad)
from dire.synthesis import class_blocked_labels, trace_to_csv


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


class TestRunConfig:
    def test_validation_names_key(self):
        for kw, key in ((dict(ipc=0), "ipc"), (dict(iters=0), "iters"),
                        (dict(lr=-0.1), "lr"), (dict(reduction="x"), "reduction"),
                        (dict(temperature=0.0), "temperature"),
                        (dict(optimizer="adam"), "optimizer"),
                        (dict(init_std=-1.0), "init_std")):
            with pytest.raises(ConfigError, match=key):
                RunConfig(**kw)

    def test_from_dict_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            RunConfig.from_dict({"learning_rate": 0.1})

    def test_roundtrip(self):
        cfg = RunConfig(ipc=4, components=("cd", "edm"), real_cap=None)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_zero_lr_allowed(self):
        assert RunConfig(lr=0.0).lr == 0.0


class TestTotalLossAndGrad:
    def test_all_masked_off_is_ce_only(self, small_world):
        train, _, teacher, e_real = small_world
        labels = class_blocked_labels(3, 3)
        pts = rng_normal(Rng(5), 9, 6)
        cfg_off = small_cfg(r_c=0.0, r_e=0.0, components=(), lambda_bn=0.0)
        loss, grad = total_loss_and_grad(teacher, pts, labels, e_real, cfg_off)
        assert loss.l_bn == 0.0 and loss.l_syn == 0.0
        assert loss.total == pytest.approx(loss.l_ce)

        # gradient must equal the pure cross-entropy input gradient
        from dire.teacher import (_cross_entropy_and_dlogits,
                                  forward_activations, input_gradient)
        acts = forward_activations(teacher, pts)
        _, dlogits = _cross_entropy_and_dlogits(acts[-1], labels)
        ce_grad = input_gradient(teacher, acts, dlogits=dlogits)
        np.testing.assert_allclose(grad, ce_grad, atol=1e-12)

    def test_class_means_beat_noise_on_ce(self, small_world):
        train, _, teacher, e_real = small_world
        labels = class_blocked_labels(3, 3)
        cfg = small_cfg()
        means = np.vstack([np.tile(train.points[train.labels == c].mean(axis=0), (3, 1))
                           for c in range(3)])
        noise = rng_normal(Rng(1), 9, 6)
        loss_means, _ = total_loss_and_grad(teacher, means, labels, e_real, cfg)
        loss_noise, _ = total_loss_and_grad(teacher, noise, labels, e_real, cfg)
        assert loss_means.l_ce < loss_noise.l_ce

    def test_full_gradient_finite_differences(self, small_world):
        train, _, teacher, e_real = small_world
        tr2, _ = gen_mixture(2, 4, 20, 0.2, seed=9)
        tch2 = squeeze_train(tr2, (6,), epochs=15, lr=0.2, seed=9)
        er2 = EmbeddingSet.from_labeled(extract_features(tch2, tr2.points), tr2.labels)
        labels = class_blocked_labels(2, 2)
        cfg = small_cfg(ipc=2)
        pts = rng_normal(Rng(7), 4, 4)

        def loss_fn(m):
            loss, grad = total_loss_and_grad(tch2, m, labels, er2, cfg)
            return loss.total, grad

        assert finite_diff_check(loss_fn, pts, h=1e-5) < 1e-4

    def test_breakdown_composition(self, small_world):
        train, _, teacher, e_real = small_world
        labels = class_blocked_labels(3, 3)
        pts = rng_normal(Rng(3), 9, 6)
        cfg = small_cfg(r_c=2.0, r_e=0.5)
        loss, _ = total_loss_and_grad(teacher, pts, labels, e_real, cfg)
        assert loss.l_syn == pytest.approx(
            cfg.r_c * (loss.cd + loss.cdm) + cfg.r_e * loss.edm, rel=1e-12)
        assert loss.total == pytest.approx(loss.l_ce + loss.l_bn + loss.l_syn)

    def test_missing_feature_stats_rejected(self, small_world):
        train, _, teacher, e_real = small_world
        bare = dataclasses.replace(teacher, feature_mean=None)
        with pytest.raises(Exception):
            total_loss_and_grad(bare, rng_normal(Rng(0), 9, 6),
                                class_blocked_labels(3, 3), e_real, small_cfg())


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
        assert a.final_loss.total == b.final_loss.total

    def test_labels_fixed_and_blocked(self, small_world):
        train, _, teacher, _ = small_world
        syn = recover(teacher, train, small_cfg())
        assert np.array_equal(syn.labels, np.repeat(np.arange(3), 3))
        assert syn.ipc() == 3

    def test_gradient_flow_moves_points(self, small_world):
        train, _, teacher, _ = small_world
        cfg = small_cfg(iters=1)
        syn = recover(teacher, train, cfg)
        init = recover(teacher, train, dataclasses.replace(cfg, lr=0.0)).points
        assert np.linalg.norm(syn.points - init) > 0

    def test_loss_decreases(self, small_world):
        train, _, teacher, _ = small_world
        syn = recover(teacher, train, small_cfg(iters=150))
        first = syn.trace[0].total
        last = syn.trace[-1].total
        assert last < first

    def test_momentum_variant_differs_and_is_deterministic(self, small_world):
        train, _, teacher, _ = small_world
        gd = recover(teacher, train, small_cfg())
        mom_cfg = small_cfg(optimizer="momentum")
        mom1 = recover(teacher, train, mom_cfg)
        mom2 = recover(teacher, train, mom_cfg)
        assert not np.array_equal(gd.points, mom1.points)
        assert np.array_equal(mom1.points, mom2.points)

    def test_non_finite_loss_reports_iteration(self, small_world):
        train, _, teacher, _ = small_world
        poisoned = dataclasses.replace(
            teacher, weights=[w.copy() for w in teacher.weights])
        poisoned.weights[0][0, 0] = np.nan
        with pytest.raises(NumericalError, match="iteration"):
            recover(poisoned, train, small_cfg(iters=5))

    def test_trace_csv_columns(self, small_world):
        train, _, teacher, _ = small_world
        syn = recover(teacher, train, small_cfg(iters=3))
        lines = trace_to_csv(syn.trace).strip().splitlines()
        assert lines[0] == "iter,l_ce,l_bn,cd,cdm,edm,total"
        assert len(lines) == 4


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

    def test_empty_masks_rejected(self, small_world):
        train, test, teacher, _ = small_world
        with pytest.raises(Exception):
            ablate(teacher, train, test, small_cfg(), masks=[])
