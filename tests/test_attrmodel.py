import dataclasses
import logging

import numpy as np
import pytest

import simexplain as se
from simexplain.attrmodel import (
    AttributeModel,
    FeatureExtractor,
    TrainConfig,
    build_samples,
    heatmap_loss,
    huber_loss,
    loss_and_grad,
    scale_labels,
    softmax,
    train,
)
from simexplain.dataio import load_model, save_model
from simexplain.errors import InvalidArgumentError

DIMS = (14, 14, 2)


@pytest.fixture(scope="module")
def extractor():
    return FeatureExtractor(DIMS, n_filters=10, seed=3)


class TestFeatureExtractor:
    def test_output_shape(self, extractor, rng):
        z = extractor.features(rng.random(DIMS))
        assert z.shape == (10, 7, 7)
        assert np.all(z >= 0.0)

    def test_deterministic_from_seed(self, rng):
        a = FeatureExtractor(DIMS, n_filters=4, seed=8)
        b = FeatureExtractor(DIMS, n_filters=4, seed=8)
        np.testing.assert_array_equal(a.weight, b.weight)
        img = rng.random(DIMS)
        np.testing.assert_array_equal(a.features(img), b.features(img))

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidArgumentError):
            FeatureExtractor((15, 14, 2))

    def test_dim_mismatch(self, extractor, rng):
        with pytest.raises(InvalidArgumentError):
            extractor.features(rng.random((14, 14, 3)))


class TestForward:
    def test_zero_head_gives_uniform(self, extractor, rng):
        model = AttributeModel(extractor, np.zeros((5, 10)), np.zeros(5))
        pred = model.forward(rng.random(DIMS))
        np.testing.assert_allclose(pred.confidences, 0.2, atol=1e-12)

    def test_constant_logit_shift_invariant(self, extractor, rng):
        w = rng.normal(size=(5, 10))
        img = rng.random(DIMS)
        base = AttributeModel(extractor, w, np.zeros(5)).forward(img)
        shifted = AttributeModel(extractor, w, np.full(5, 3.7)).forward(img)
        np.testing.assert_allclose(base.confidences, shifted.confidences, atol=1e-12)

    def test_confidences_sum_to_one(self, extractor, rng):
        for _ in range(20):
            model = AttributeModel(extractor, rng.normal(size=(6, 10)), rng.normal(size=6))
            pred = model.forward(rng.random(DIMS))
            assert abs(pred.confidences.sum() - 1.0) <= 1e-6
            assert pred.maps.shape == (6, 7, 7)

    def test_maps_returned_unnormalized(self, extractor, rng):
        model = AttributeModel(extractor, rng.normal(size=(3, 10)), rng.normal(size=3))
        pred = model.forward(rng.random(DIMS))
        gap = pred.maps.mean(axis=(1, 2))
        np.testing.assert_allclose(pred.confidences, softmax(gap), atol=1e-12)


class TestHuberLoss:
    def test_zero_at_exact_match(self):
        labels = np.array([0.5, 0.5, 0.0])
        assert huber_loss(labels, labels) == 0.0

    def test_hand_example(self):
        # single positive attribute: scaled labels are [1, 0]
        value = huber_loss(np.array([0.6, 0.4]), np.array([1.0, 0.0]))
        assert value == 0.5 * 0.4**2 + 0.5 * 0.4**2
        assert value == pytest.approx(0.16, abs=1e-12)

    def test_linear_branch_unreachable_in_training_range(self, rng):
        # softmax confidences and scaled labels both live in [0, 1]
        for _ in range(200):
            conf = softmax(rng.normal(size=6) * 3)
            row = np.zeros(6)
            row[rng.choice(6, size=int(rng.integers(1, 4)), replace=False)] = 1
            diff = scale_labels(row) - conf
            assert np.all(np.abs(diff) <= 1.0)

    def test_linear_branch_formula(self):
        # outside the training range the verbatim linear branch applies
        assert huber_loss(np.array([-2.0]), np.array([1.0])) == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            huber_loss(np.ones(3), np.ones(4))


class TestScaleLabels:
    def test_scaling(self):
        np.testing.assert_array_equal(scale_labels(np.array([1, 0, 1, 0])),
                                      np.array([0.5, 0.0, 0.5, 0.0]))

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            scale_labels(np.zeros(4))


class TestHeatmapLoss:
    def test_zero_when_exact_copies_present(self, rng):
        maps = [rng.random((7, 7)) for _ in range(3)]
        assert heatmap_loss(maps, maps) == 0.0

    def test_k1_all_ones_vs_zeros(self):
        value = heatmap_loss([np.ones((7, 7))], [np.zeros((7, 7))])
        assert value == 7.0  # sqrt(49)

    def test_min_upper_bound(self, rng):
        maps = [rng.random((7, 7)) for _ in range(4)]
        gts = [rng.random((7, 7)) for _ in range(3)]
        loss = heatmap_loss(maps, gts)
        first_only = np.mean([np.linalg.norm(m - gts[0]) for m in maps])
        assert loss <= first_only + 1e-12

    def test_resolution_mismatch(self, rng):
        with pytest.raises(InvalidArgumentError):
            heatmap_loss([rng.random((7, 7))], [rng.random((5, 5))])

    def test_empty_inputs_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            heatmap_loss([], [rng.random((7, 7))])


class TestLossGradients:
    def test_head_gradient_matches_finite_differences(self, rng):
        spec = se.SyntheticSpec(n_images=20, side=28, n_attributes=4, seed=7)
        ds = se.generate_dataset(spec)
        ex = FeatureExtractor((28, 28, 3), n_filters=12, seed=1)
        bank = {img_id: [se.normalize_map(rng.random((7, 7)))] for img_id, _ in ds.images[:8]}
        samples = build_samples(ds, [i for i, _ in ds.images[:8]], ex, bank, k_maps=5)
        W = rng.normal(scale=0.1, size=(4, 12))
        b = rng.normal(scale=0.05, size=4)
        _, dW, db = loss_and_grad(W, b, samples, lam=5e-3)
        eps = 1e-6
        for _ in range(10):
            a, d = int(rng.integers(4)), int(rng.integers(12))
            Wp, Wm = W.copy(), W.copy()
            Wp[a, d] += eps
            Wm[a, d] -= eps
            fp = loss_and_grad(Wp, b, samples, 5e-3)[0]
            fm = loss_and_grad(Wm, b, samples, 5e-3)[0]
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - dW[a, d]) <= 1e-4 * max(abs(fd), 1e-8)

    def test_lambda_zero_ignores_maps(self, rng):
        spec = se.SyntheticSpec(n_images=12, side=28, n_attributes=4, seed=7)
        ds = se.generate_dataset(spec)
        ex = FeatureExtractor((28, 28, 3), n_filters=8, seed=1)
        ids = [i for i, _ in ds.images[:6]]
        bank = {i: [se.normalize_map(rng.random((7, 7)))] for i in ids}
        with_maps = build_samples(ds, ids, ex, bank, 5)
        without = build_samples(ds, ids, ex, None, 5)
        W = rng.normal(scale=0.1, size=(4, 8))
        b = np.zeros(4)
        la, dWa, dba = loss_and_grad(W, b, with_maps, lam=0.0)
        lb, dWb, dbb = loss_and_grad(W, b, without, lam=0.0)
        assert la == lb
        np.testing.assert_array_equal(dWa, dWb)


@pytest.fixture(scope="module")
def tiny_training_setup():
    spec = se.SyntheticSpec(n_images=24, side=28, n_attributes=4, seed=9)
    ds = se.generate_dataset(spec)
    scorer = se.motif_scorer_for(ds, seed=5)
    cfg = dataclasses.replace(se.SaliencyConfig(seed=9), method=se.Method.SLIDING_WINDOW,
                              sliding=se.SlidingCfg(windows_query=81, window_area_frac=0.1))
    from conftest import build_bank
    bank = build_bank(ds, scorer, cfg)
    return ds, bank


class TestTraining:
    @pytest.fixture
    def tiny(self, tiny_training_setup):
        return tiny_training_setup

    def test_seed_deterministic(self, tiny):
        ds, bank = tiny
        cfg = TrainConfig(epochs=10, seed=4, n_filters=8)
        a = train(ds, bank, cfg)
        b = train(ds, bank, cfg)
        np.testing.assert_array_equal(a.head_weights, b.head_weights)
        np.testing.assert_array_equal(a.head_bias, b.head_bias)

    def test_empty_bank_equals_lambda_zero(self, tiny, caplog):
        ds, bank = tiny
        cfg = TrainConfig(epochs=10, seed=4, n_filters=8)
        with caplog.at_level(logging.WARNING):
            ablated = train(ds, {}, cfg)
        assert "disabled" in caplog.text
        baseline = train(ds, bank, dataclasses.replace(cfg, lam=0.0))
        np.testing.assert_array_equal(ablated.head_weights, baseline.head_weights)

    def test_classifier_recovers_planted_attribute(self):
        # single-motif images; hotter learning rate sharpens calibration
        spec = se.SyntheticSpec(n_images=64, seed=18, n_attributes=6, max_attrs_per_image=1)
        ds = se.generate_dataset(spec)
        scorer = se.motif_scorer_for(ds, seed=5)
        cfg = dataclasses.replace(se.SaliencyConfig(seed=18), method=se.Method.SLIDING_WINDOW)
        from conftest import build_bank
        bank = build_bank(ds, scorer, cfg)
        model = train(ds, bank, TrainConfig(epochs=300, lr=5e-3, seed=18, n_filters=64))
        test_ids = ds.image_ids_for_split("test")
        hits = sum(
            int(int(np.argmax(model.forward(ds.image(i)).confidences)) == int(ds.gt_attributes(i)[0]))
            for i in test_ids
        )
        assert hits / len(test_ids) >= 0.8

    def test_no_train_pairs_rejected(self):
        spec = se.SyntheticSpec(n_images=16, side=28, n_attributes=4, seed=9)
        ds = se.generate_dataset(spec)
        empty = se.Dataset(images=ds.images, labels=ds.labels, pairs=(), catalog=ds.catalog)
        with pytest.raises(InvalidArgumentError):
            train(empty, {}, TrainConfig(epochs=1, n_filters=8))


class TestModelRoundTrip:
    def test_save_load_forward_identical(self, tmp_path, rng):
        ex = FeatureExtractor(DIMS, n_filters=6, seed=2)
        w = rng.normal(size=(3, 6)).astype(np.float32).astype(np.float64)
        b = rng.normal(size=3).astype(np.float32).astype(np.float64)
        model = AttributeModel(ex, w, b)
        save_model(tmp_path / "m.sane", model)
        loaded = load_model(tmp_path / "m.sane", DIMS)
        img = rng.random(DIMS)
        np.testing.assert_array_equal(loaded.forward(img).confidences,
                                      model.forward(img).confidences)
