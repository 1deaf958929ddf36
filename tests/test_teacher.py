import tracemalloc

import numpy as np
import pytest

from dire import (DimensionError, ParameterError, Rng, SoftLabels,
                  TeacherModel, evaluate_student, extract_features,
                  finite_diff_grad, gen_mixture, model_accuracy, relabel,
                  rng_normal, softmax, squeeze_train, teacher_logits)
from dire.teacher import (FORWARD_BLOCK, _sgd_train, forward_activations, init_mlp,
                          input_gradient)


class TestGenMixture:
    def test_deterministic(self):
        a_train, a_test = gen_mixture(4, 6, 20, 0.2, seed=5)
        b_train, b_test = gen_mixture(4, 6, 20, 0.2, seed=5)
        assert np.array_equal(a_train.points, b_train.points)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_zero_spread_collapses_to_means(self):
        train, _ = gen_mixture(3, 4, 10, 0.0, seed=1)
        for c in range(3):
            pts = train.points[train.labels == c]
            assert np.all(pts == pts[0])
            assert np.linalg.norm(pts[0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_class_frame_distance(self):
        train, _ = gen_mixture(2, 2, 50, 0.0, seed=3)
        m0 = train.points[train.labels == 0][0]
        m1 = train.points[train.labels == 1][0]
        assert np.linalg.norm(m0 - m1) >= np.sqrt(2) - 1e-9

    def test_split_sizes(self):
        train, test = gen_mixture(3, 5, 50, 0.1, seed=0)
        assert len(train) == 3 * 40 and len(test) == 3 * 10
        assert sorted(np.unique(train.labels)) == [0, 1, 2]

    def test_equals_per_class_lists_stacked(self):
        # oracle: each class's gathered rows in lists, stacked at the end
        n_classes, dim, per, spread, seed = 5, 6, 30, 0.3, 4
        train, test = gen_mixture(n_classes, dim, per, spread, seed)
        rng = Rng(seed)
        frame = np.zeros((n_classes, dim))
        for c in range(n_classes):
            frame[c, c % dim] = 1.0 if c < dim else -1.0
        q, r = np.linalg.qr(rng_normal(rng.split(0), dim, dim))
        means = frame @ (q * np.sign(np.diag(r))).T
        parts = {"train": [], "test": []}
        for c in range(n_classes):
            pts = means[c][None, :] + rng_normal(rng.split(1).split(c), per, dim, 0.0, spread)
            order = rng.split(2).split(c).generator.permutation(per)
            parts["train"].append(pts[order[:24]])
            parts["test"].append(pts[order[24:]])
        assert np.array_equal(train.points, np.vstack(parts["train"]))
        assert np.array_equal(test.points, np.vstack(parts["test"]))
        assert np.array_equal(train.labels, np.repeat(np.arange(n_classes), 24))
        assert np.array_equal(test.labels, np.repeat(np.arange(n_classes), 6))

    def test_peak_memory_near_its_output(self):
        tracemalloc.start()
        try:
            train, test = gen_mixture(10, 16, 10_000, 0.2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = sum(a.nbytes for a in (train.points, train.labels, test.points, test.labels))
        assert peak <= 1.3 * out

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_mixture(1, 4, 20, 0.1, 0)
        with pytest.raises(ParameterError):
            gen_mixture(3, 1, 20, 0.1, 0)
        with pytest.raises(ParameterError):
            gen_mixture(3, 4, 5, 0.1, 0)
        with pytest.raises(ParameterError):
            gen_mixture(3, 4, 20, -0.1, 0)
        with pytest.raises(ParameterError):
            gen_mixture(9, 4, 20, 0.1, 0)  # frame supports 2*dim classes


class TestSqueezeTrain:
    def test_separable_two_class(self):
        train, test = gen_mixture(2, 8, 100, 0.05, seed=7)
        model = squeeze_train(train, (16,), epochs=20, lr=0.2, seed=7)
        assert model.meta["train_accuracy"] > 0.99
        assert model_accuracy(model, test) > 0.99

    def test_zero_lr_keeps_seeded_init(self):
        train, _ = gen_mixture(2, 4, 20, 0.1, seed=1)
        from dire.teacher import init_mlp
        w0, b0 = init_mlp(4, (8,), 2, seed=9)
        model = squeeze_train(train, (8,), epochs=3, lr=0.0, seed=9)
        for got, want in zip(model.weights, w0):
            assert np.array_equal(got, want)

    def test_feature_stats_match_recomputation(self):
        train, _ = gen_mixture(3, 6, 30, 0.2, seed=2)
        model = squeeze_train(train, (12,), epochs=5, lr=0.1, seed=2)
        feats = extract_features(model, train.points)
        np.testing.assert_allclose(model.feature_mean, feats.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.feature_var, feats.var(axis=0), atol=1e-9)
        assert np.all(model.feature_var >= 0)

    def test_determinism(self):
        train, _ = gen_mixture(3, 6, 30, 0.2, seed=4)
        m1 = squeeze_train(train, (12,), epochs=5, lr=0.1, seed=4)
        m2 = squeeze_train(train, (12,), epochs=5, lr=0.1, seed=4)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)

    def test_divergence_names_epoch(self):
        from dire import LabeledDataset, TrainingError
        train, _ = gen_mixture(2, 4, 20, 0.1, seed=6)
        poisoned = train.points.copy()
        poisoned[0, 0] = np.nan
        bad = LabeledDataset(poisoned, train.labels, train.n_classes, "train")
        with pytest.raises(TrainingError, match="epoch 0"):
            squeeze_train(bad, (6,), epochs=2, lr=0.1, seed=6)


def _oracle_cross_entropy_grad(logits, targets):
    """The per-step CE gradient the SGD loop must reproduce bit for bit."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    if targets.ndim == 1:
        onehot = np.zeros_like(logits)
        onehot[np.arange(n), targets] = 1.0
        return (np.exp(log_probs) - onehot) / n
    return (np.exp(log_probs) - targets) / n


def _oracle_sgd(points, targets, hidden_sizes, n_classes, epochs, lr, seed, batch_size):
    """Minibatch SGD one step at a time through forward_activations, the
    loop the lean trainer replaced; its weights are the oracle."""
    weights, biases = init_mlp(points.shape[1], hidden_sizes, n_classes, seed)
    model = TeacherModel(weights, biases, feature_layer=len(hidden_sizes))
    shuffle = Rng(seed).split(1000)
    for epoch in range(epochs):
        order = shuffle.split(epoch).generator.permutation(points.shape[0])
        for lo in range(0, points.shape[0], batch_size):
            ix = order[lo:lo + batch_size]
            acts = forward_activations(model, points[ix])
            g = _oracle_cross_entropy_grad(acts[-1], targets[ix])
            for layer in range(len(model.weights) - 1, -1, -1):
                dw = acts[layer].T @ g
                db = g.sum(axis=0)
                if layer > 0:
                    g = (g @ model.weights[layer].T) * (1.0 - acts[layer] ** 2)
                model.weights[layer] -= lr * dw
                model.biases[layer] -= lr * db
    return model


class TestSgdMatchesPerStepOracle:
    @pytest.mark.parametrize("hidden, batch_size, soft", [
        ((12,), 32, False),      # hard targets, as squeeze trains
        ((12,), 32, True),       # soft targets, as evaluate_student trains
        ((12,), 7, False),       # batch size that does not divide N = 72
        ((10, 8), 16, False),    # two hidden layers
        ((10, 8), 5, True),
    ], ids=["hard", "soft", "ragged-batch", "two-hidden", "two-hidden-soft"])
    def test_weights_bit_identical(self, hidden, batch_size, soft):
        train, _ = gen_mixture(3, 6, 30, 0.3, seed=8)
        targets = (relabel(squeeze_train(train, (6,), epochs=3, seed=1), train.points).probs
                   if soft else train.labels)
        got = _sgd_train(train.points, targets, hidden, 3, 4, 0.3, 5, batch_size)
        want = _oracle_sgd(train.points, targets, hidden, 3, 4, 0.3, 5, batch_size)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)

    def test_zero_epochs_return_seeded_init(self):
        train, _ = gen_mixture(3, 6, 30, 0.3, seed=8)
        got = _sgd_train(train.points, train.labels, (10, 8), 3, 0, 0.3, 5, 16)
        weights, biases = init_mlp(6, (10, 8), 3, 5)
        assert got.feature_layer == 2
        for a, b in zip(got.weights + got.biases, weights + biases):
            assert np.array_equal(a, b)

    def test_squeeze_teacher_bit_identical(self):
        train, _ = gen_mixture(4, 8, 50, 0.3, seed=3)
        got = squeeze_train(train, (16,), epochs=6, lr=0.5, seed=3)
        want = _oracle_sgd(train.points, train.labels, (16,), 4, 6, 0.5, 3, 32)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)


class TestFeatureExtraction:
    def _model(self, seed=0, hidden=(10,), dim=5, classes=3):
        train, _ = gen_mixture(classes, dim, 30, 0.2, seed=seed)
        return squeeze_train(train, hidden, epochs=5, lr=0.1, seed=seed)

    def test_zero_weight_teacher_broadcasts_bias(self):
        weights = [np.zeros((4, 6)), np.zeros((6, 2))]
        biases = [np.full(6, 0.3), np.zeros(2)]
        model = TeacherModel(weights, biases, feature_layer=1)
        feats = extract_features(model, rng_normal(Rng(1), 5, 4))
        np.testing.assert_allclose(feats, np.tanh(0.3), atol=1e-15)

    def test_duplicate_rows_identical_features(self):
        model = self._model()
        x = rng_normal(Rng(2), 1, 5)
        feats = extract_features(model, np.vstack([x, x]))
        assert np.array_equal(feats[0], feats[1])

    def test_vjp_matches_finite_differences(self):
        for seed in range(10):
            model = self._model(seed=seed)
            x = rng_normal(Rng(100 + seed), 3, 5)
            upstream = rng_normal(Rng(200 + seed), 3, 10)
            analytic = input_gradient(model, forward_activations(model, x),
                                      dfeatures=upstream)

            def val(m):
                return float(np.sum(upstream * extract_features(model, m)))

            numeric = finite_diff_grad(val, x, h=1e-5)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-5

    def test_dimension_checks(self):
        model = self._model()
        with pytest.raises(DimensionError):
            extract_features(model, np.ones((2, 9)))

    def test_feature_layer_must_be_hidden(self):
        with pytest.raises(ParameterError):
            TeacherModel([np.zeros((4, 6)), np.zeros((6, 2))],
                         [np.zeros(6), np.zeros(2)], feature_layer=2)

    @pytest.mark.parametrize("weights, biases, stats", [
        ([(4, 6), (5, 2)], [6, 2], 6),
        ([(4, 6), (6, 2)], [5, 2], 6),
        ([(4, 6), (6, 2)], [6, 3], 6),
        ([(4, 6), (6, 2)], [6], 6),
        ([(4, 6), (6, 2)], [6, 2], 2),
    ], ids=["layer-dims", "hidden-bias", "output-bias", "bias-count", "stats"])
    def test_inconsistent_checkpoint_rejected(self, weights, biases, stats):
        with pytest.raises(DimensionError):
            TeacherModel([np.zeros(s) for s in weights], [np.zeros(n) for n in biases],
                         feature_layer=1, feature_mean=np.zeros(stats),
                         feature_var=np.ones(stats))


class TestRelabel:
    def _model(self):
        train, _ = gen_mixture(4, 6, 40, 0.1, seed=3)
        return squeeze_train(train, (12,), epochs=15, lr=0.2, seed=3), train

    def test_rows_sum_to_one(self):
        model, train = self._model()
        soft = relabel(model, train.points, temperature=2.0)
        np.testing.assert_allclose(soft.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(soft.probs >= 0)

    def test_high_temperature_limit(self):
        model, train = self._model()
        soft = relabel(model, train.points[:10], temperature=1e9)
        assert np.abs(soft.probs - 0.25).max() < 1e-6

    def test_unit_temperature_argmax_is_hard_prediction(self):
        model, train = self._model()
        soft = relabel(model, train.points, temperature=1.0)
        hard = teacher_logits(model, train.points).argmax(axis=1)
        assert np.array_equal(soft.probs.argmax(axis=1), hard)

    def test_temperature_validated(self):
        model, train = self._model()
        with pytest.raises(ParameterError):
            relabel(model, train.points, temperature=0.0)

    def test_softmax_overflow_safe(self):
        z = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
        p = softmax(z)
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(axis=1), 1.0)


def _oracle_forward(model, x):
    """The forward pass before the in-place rewrite, np.tanh(a @ w + b)."""
    acts = [x]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.tanh(acts[-1] @ w + b))
    acts.append(acts[-1] @ model.weights[-1] + model.biases[-1])
    return acts


def _oracle_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _read_only(x):
    """x as a read-only array over a bytes copy, as np.frombuffer gives it."""
    return np.frombuffer(x.tobytes(), dtype=np.float64).reshape(x.shape)


class TestInPlaceForwardMatchesOracle:
    @pytest.fixture(scope="class", params=[((12,), 1), ((10, 8), 1)],
                    ids=["one-hidden", "two-hidden-feature-1"])
    def case(self, request):
        hidden, feature_layer = request.param
        train, _ = gen_mixture(4, 6, 40, 0.2, seed=5)
        trained = squeeze_train(train, hidden, epochs=5, lr=0.2, seed=5)
        model = TeacherModel(trained.weights, trained.biases, feature_layer)
        return model, _read_only(train.points)

    def test_forward_activations(self, case):
        model, x = case
        for got, want in zip(forward_activations(model, x), _oracle_forward(model, x),
                             strict=True):
            assert np.array_equal(got, want)

    def test_features_and_logits(self, case):
        model, x = case
        want = _oracle_forward(model, x)
        assert np.array_equal(extract_features(model, x), want[model.feature_layer])
        assert np.array_equal(teacher_logits(model, x), want[-1])

    @pytest.mark.parametrize("temperature", [1.0, 0.5])
    def test_relabel(self, case, temperature):
        model, x = case
        want = _oracle_softmax(_oracle_forward(model, x)[-1] / temperature)
        assert np.array_equal(relabel(model, x, temperature).probs, want)

    def test_softmax(self, case):
        model, x = case
        logits = _read_only(teacher_logits(model, x))
        assert np.array_equal(softmax(logits), _oracle_softmax(logits))

    def test_read_only_input_is_unchanged(self, case):
        model, x = case
        before = x.copy()
        assert not x.flags.writeable
        forward_activations(model, x)
        extract_features(model, x)
        relabel(model, x, 0.5)
        assert np.array_equal(x, before)


B = FORWARD_BLOCK


class TestBlockedForward:
    """Inputs longer than FORWARD_BLOCK run as blocks of it from row 0, so a
    caller that splits at multiples of it (like the CLI's streamed stages)
    gets the same bits as one call."""

    @pytest.fixture(scope="class", params=[((32,), 1), ((12, 8), 1)],
                    ids=["one-hidden", "two-hidden-feature-1"])
    def model(self, request):
        hidden, feature_layer = request.param
        weights, biases = init_mlp(16, hidden, 10, seed=6)
        return TeacherModel(weights, biases, feature_layer)

    CALLS = {"features": extract_features, "logits": teacher_logits,
             "probs": lambda m, x: relabel(m, x, 0.7).probs}

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_equals_calls_on_block_slices(self, model, n, call):
        fn = self.CALLS[call]
        x = _read_only(rng_normal(Rng(n), n, 16))
        got = fn(model, x)
        want = np.concatenate([fn(model, x[lo:lo + B]) for lo in range(0, n, B)])
        assert got.flags.c_contiguous and np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, B - 1, B])
    def test_one_block_is_the_plain_layer_chain(self, model, n):
        x = rng_normal(Rng(n + 1), n, 16)
        want = _oracle_forward(model, x)
        assert np.array_equal(extract_features(model, x), want[model.feature_layer])
        assert np.array_equal(teacher_logits(model, x), want[-1])
        assert np.array_equal(relabel(model, x, 0.7).probs, _oracle_softmax(want[-1] / 0.7))

    def test_no_rows(self, model):
        x = np.zeros((0, 16))
        assert extract_features(model, x).shape == (0, model.feature_dim)
        assert relabel(model, x).probs.shape == (0, 10)


def _traced_peak(fn, *args):
    """(result, peak bytes traced while fn ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestForwardMemory:
    N, D, H, C = 20_000, 16, 32, 10

    @pytest.fixture(scope="class")
    def case(self):
        weights, biases = init_mlp(self.D, (self.H,), self.C, seed=3)
        return TeacherModel(weights, biases, 1), rng_normal(Rng(4), self.N, self.D)

    def test_extract_features_holds_one_block(self, case):
        feats, peak = _traced_peak(extract_features, *case)
        assert peak <= 1.1 * feats.nbytes

    def test_relabel_holds_hidden_and_logits(self, case):
        _, peak = _traced_peak(relabel, *case)
        assert peak <= 1.1 * (self.N * self.H + self.N * self.C) * 8

    def test_relabel_never_holds_n_by_hidden(self, case):
        soft, peak = _traced_peak(relabel, *case)
        assert peak <= soft.probs.nbytes + 2 * FORWARD_BLOCK * self.H * 8 < self.N * self.H * 8


class TestEvaluateStudent:
    def test_untrained_student_near_chance(self):
        train, test = gen_mixture(10, 8, 30, 0.2, seed=11)
        acc = evaluate_student(train.points, train.labels, test, (16,),
                               epochs=0, lr=0.1, seed=11)
        assert abs(acc - 0.1) <= 0.15

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_zero_epochs_score_seeded_init(self, soft):
        train, test = gen_mixture(4, 6, 30, 0.2, seed=11)
        # soft rows may be wider than the test split; the student follows them
        n_classes = 5 if soft else 4
        labels = (SoftLabels(np.full((len(train), 5), 0.2), temperature=1.0) if soft
                  else train.labels)
        init = TeacherModel(*init_mlp(6, (16,), n_classes, 11), feature_layer=1)
        acc = evaluate_student(train.points, labels, test, (16,), epochs=0, seed=11)
        assert acc == model_accuracy(init, test)

    def test_real_copy_matches_teacher_ballpark(self):
        train, test = gen_mixture(4, 8, 100, 0.15, seed=13)
        teacher = squeeze_train(train, (16,), epochs=30, lr=0.2, seed=13)
        teacher_acc = model_accuracy(teacher, test)
        student_acc = evaluate_student(train.points, train.labels, test, (16,),
                                       epochs=30, lr=0.2, seed=14)
        assert student_acc >= teacher_acc - 0.02

    def test_deterministic(self):
        train, test = gen_mixture(3, 6, 40, 0.2, seed=17)
        args = (train.points, train.labels, test, (8,))
        a = evaluate_student(*args, epochs=10, lr=0.1, seed=5)
        b = evaluate_student(*args, epochs=10, lr=0.1, seed=5)
        assert a == b

    def test_soft_labels_accepted(self):
        train, test = gen_mixture(3, 6, 40, 0.2, seed=19)
        teacher = squeeze_train(train, (8,), epochs=10, lr=0.2, seed=19)
        soft = relabel(teacher, train.points, temperature=1.0)
        acc = evaluate_student(train.points, soft, test, (8,),
                               epochs=10, lr=0.1, seed=19)
        assert acc > 0.5

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_must_be_positive(self, batch_size):
        train, test = gen_mixture(3, 4, 10, 0.2, seed=1)
        with pytest.raises(ParameterError, match="batch_size"):
            squeeze_train(train, (4,), epochs=1, batch_size=batch_size)
        with pytest.raises(ParameterError, match="batch_size"):
            evaluate_student(train.points, train.labels, test, (4,), epochs=1,
                             batch_size=batch_size)

    @pytest.mark.parametrize("lr", [-5.0, -1e-3])
    def test_lr_must_be_non_negative(self, lr):
        train, test = gen_mixture(3, 4, 10, 0.2, seed=1)
        with pytest.raises(ParameterError, match="lr"):
            squeeze_train(train, (4,), epochs=1, lr=lr)
        with pytest.raises(ParameterError, match="lr"):
            evaluate_student(train.points, train.labels, test, (4,), epochs=1, lr=lr)

    @pytest.mark.parametrize("bad_label", [-1, 3])
    def test_hard_labels_outside_test_classes_rejected(self, bad_label):
        train, test = gen_mixture(3, 4, 10, 0.2, seed=1)
        labels = train.labels.copy()
        labels[-1] = bad_label
        for epochs in (0, 1):
            with pytest.raises(ParameterError, match="labels"):
                evaluate_student(train.points, labels, test, (4,), epochs=epochs)

    def test_soft_labels_must_cover_test_classes(self):
        train, test = gen_mixture(3, 4, 10, 0.2, seed=1)
        soft = SoftLabels(np.full((len(train), 2), 0.5), temperature=1.0)
        with pytest.raises(DimensionError, match="classes"):
            evaluate_student(train.points, soft, test, (4,), epochs=1)

    def test_soft_label_invariants_enforced(self):
        bad = np.array([[0.5, 0.4]])
        with pytest.raises(ParameterError):
            SoftLabels(bad, temperature=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_soft_labels_rejected(self, bad):
        with pytest.raises(ParameterError, match="non-finite"):
            SoftLabels(np.array([[0.5, 0.5], [bad, 0.0]]), temperature=1.0)
