import dataclasses
import logging

import numpy as np
import pytest

import simexplain as se
import simexplain.metrics as metrics
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


def _nearest_map(m, maps):
    dists = [float(np.linalg.norm(m - n)) for n in maps]
    j = int(np.argmin(dists))
    return j, dists[j]


def _normalize_backprop(n, upstream):
    lo_idx = np.unravel_index(np.argmin(n), n.shape)
    hi_idx = np.unravel_index(np.argmax(n), n.shape)
    span = n[hi_idx] - n[lo_idx]
    if span == 0.0:
        return np.zeros_like(n)
    n_hat = (n - n[lo_idx]) / span
    g_sum = upstream.sum()
    weighted = float((upstream * n_hat).sum())
    grad = upstream.copy()
    grad[lo_idx] -= g_sum
    grad[hi_idx] -= weighted
    grad[lo_idx] += weighted
    return grad / span


def per_sample_loss_and_grad(head_w, head_b, batch, lam):
    """The loss one image at a time: softmax confidences, the Huber term on
    labelled rows, and for each bank map the nearest ground-truth
    activation map (first minimum wins), backpropagated through min-max."""
    dW, db = np.zeros_like(head_w), np.zeros_like(head_b)
    total = 0.0
    for i in range(len(batch)):
        z = batch.features[i]
        gt_attrs = np.flatnonzero(batch.gt[i])
        maps = [batch.maps[i, k] for k in range(batch.maps.shape[1]) if batch.has_map[i, k]]
        zbar = z.mean(axis=(1, 2))
        conf = softmax(head_w @ zbar + head_b)
        if batch.gt[i].any():
            diff = batch.labels[i] - conf
            quad = np.abs(diff) <= 1.0
            total += float(np.where(quad, 0.5 * diff * diff, diff).sum())
            dconf = np.where(quad, -diff, -1.0)
            dlogits = conf * (dconf - float(dconf @ conf))
            dW += np.outer(dlogits, zbar)
            db += dlogits
        if lam > 0.0 and maps and len(gt_attrs):
            maps_n = np.einsum("ad,dij->aij", head_w[gt_attrs], z) + head_b[gt_attrs, None, None]
            normed = [se.normalize_map(m) for m in maps_n]
            upstream = [np.zeros_like(maps_n[0]) for _ in gt_attrs]
            hm = 0.0
            for m in maps:
                j, dist = _nearest_map(m, normed)
                hm += dist
                if dist > 0.0:
                    upstream[j] += (normed[j] - m) / dist
            scale = lam / len(maps)
            total += scale * hm
            for j, a_idx in enumerate(gt_attrs):
                gn = _normalize_backprop(maps_n[j], upstream[j]) * scale
                dW[a_idx] += np.einsum("ij,dij->d", gn, z)
                db[a_idx] += gn.sum()
    n = max(len(batch), 1)
    return total / n, dW / n, db / n


class TestBatchedLoss:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_sample_loop(self, seed, caplog):
        rng = np.random.default_rng(seed)
        ds = se.generate_dataset(se.SyntheticSpec(n_images=24, side=28, n_attributes=4, seed=seed))
        labels = np.array(ds.labels)
        labels[0] = 0             # no ground truth: no Huber term, no map term
        labels[1] = [0, 1, 1, 0]  # attributes 1 and 2 get equal maps below: a tie
        labels[2] = [1, 0, 0, 1]  # attribute 3 gets a constant map
        ds = se.Dataset(images=ds.images, labels=labels, pairs=ds.pairs, catalog=ds.catalog)
        ids = [i for i, _ in ds.images[:14]]
        bank = {i: [se.normalize_map(rng.random((7, 7))) for _ in range(int(rng.integers(1, 4)))]
                for i in ids[:10]}  # the last four have no maps
        bank[ids[1]].append(np.zeros((7, 7)))
        bank[ids[3]].insert(0, np.zeros((7, 7)))
        bank[ids[4]].append(bank[ids[4]][0])
        with caplog.at_level(logging.WARNING):
            batch = build_samples(ds, ids, FeatureExtractor((28, 28, 3), n_filters=6, seed=seed), bank, 4)
        assert f"image {ids[0]} has no ground-truth attributes" in caplog.text
        assert batch.has_map.sum(axis=1).tolist()[10:] == [0, 0, 0, 0]
        W = rng.normal(scale=0.3, size=(4, 6))
        b = rng.normal(scale=0.1, size=4)
        W[2], b[2] = W[1], b[1]
        W[3], b[3] = 0.0, 0.0
        for lam in (0.0, 5e-3, 1.0):
            for rows in (np.arange(len(batch)), rng.permutation(len(batch))[:5], np.arange(0)):
                part = batch.take(rows)
                loss, dW, db = loss_and_grad(W, b, part, lam)
                want = per_sample_loss_and_grad(W, b, part, lam)
                assert abs(loss - want[0]) <= 1e-12
                np.testing.assert_allclose(dW, want[1], rtol=0, atol=1e-12)
                np.testing.assert_allclose(db, want[2], rtol=0, atol=1e-12)


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

    def test_validation_map_ties_keep_the_later_epoch(self, tiny, monkeypatch):
        ds, bank = tiny
        assert ds.image_ids_for_split("val")

        def weights(scores, epochs=4):
            seen = iter(scores)
            monkeypatch.setattr(metrics, "mean_average_precision", lambda conf, labels: next(seen))
            return train(ds, bank, TrainConfig(epochs=epochs, seed=4, n_filters=8)).head_weights

        rising = weights([0.1, 0.2, 0.3, 0.4])
        first = weights([0.1], epochs=1)
        assert not np.array_equal(rising, first)
        np.testing.assert_array_equal(weights([0.5] * 4), rising)
        np.testing.assert_array_equal(weights([0.4, 0.3, 0.2, 0.1]), first)

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
        loaded = load_model(tmp_path / "m.sane", DIMS, 3)
        img = rng.random(DIMS)
        np.testing.assert_array_equal(loaded.forward(img).confidences,
                                      model.forward(img).confidences)
