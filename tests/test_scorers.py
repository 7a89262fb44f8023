import numpy as np
import pytest

import simexplain as se
from simexplain import scorers
from simexplain.core import make_rng
from simexplain.errors import InvalidArgumentError, UnsupportedError
from simexplain.scorers import _cosine_grad_pair, cosine, score_image_stack

from conftest import ConstantScorer

DIMS = (12, 12, 3)


@pytest.fixture(scope="module")
def linear():
    return se.LinearToyScorer.random(DIMS, embed_dim=8, seed=4)


class TestCosine:
    def test_self_similarity(self, linear, rng):
        x = rng.random(DIMS)
        assert linear.score(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self, linear, rng):
        x = rng.random(DIMS)
        # negated pixels are out of [0,1] but the scorer is range-agnostic
        assert linear.score(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry(self, linear, rng):
        for _ in range(10):
            a, b = rng.random(DIMS), rng.random(DIMS)
            assert linear.score(a, b) == linear.score(b, a)

    def test_scale_invariance(self, linear, rng):
        a, b = rng.random(DIMS), rng.random(DIMS)
        for c in (0.25, 0.5, 2.0):
            assert linear.score(a, c * b) == pytest.approx(linear.score(a, b), abs=1e-6)

    def test_blank_images_guarded(self, linear):
        zero = np.zeros(DIMS)
        assert linear.score(zero, zero) == 0.0

    def test_range_clipped(self, linear, rng):
        scores = linear.score_batch(rng.random(DIMS), [rng.random(DIMS) for _ in range(20)])
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)


class TestBatching:
    def test_batch_equals_single_zero_ulp(self, linear, rng):
        ref = rng.random(DIMS)
        queries = [rng.random(DIMS) for _ in range(2000)]
        batch = linear.score_batch(ref, queries)
        singles = np.array([linear.score(ref, q) for q in queries])
        np.testing.assert_array_equal(batch, singles)

    def test_chunked_flat_path_matches(self, linear, rng):
        ref = rng.random(DIMS)
        stack = rng.random((700, *DIMS))  # crosses the internal chunk size
        flat = linear.score_batch_flat(ref, stack.reshape(700, -1))
        listed = linear.score_batch(ref, list(stack))
        np.testing.assert_array_equal(flat, listed)

    def test_embedded_rows_score_like_pixel_rows(self, linear, rng):
        ref = rng.random(DIMS)
        flat = rng.random((700, *DIMS)).reshape(700, -1)  # crosses the internal chunk size
        flat[[3, 600]] = 0.0  # blank rows: guarded norms, zero scores
        flat[4] = -flat[5]
        rows = linear.embed_batch_flat(flat)
        assert rows.shape == (700, linear.embed_dim)
        embedded = linear.score_batch_flat(ref, rows)
        pixels = linear.score_batch_flat(ref, flat)
        np.testing.assert_array_equal(embedded, pixels)
        assert embedded.tobytes() == pixels.tobytes()  # signed zeros too

    def test_score_image_stack_helper(self, linear, rng):
        ref = rng.random(DIMS)
        stack = rng.random((5, *DIMS))
        np.testing.assert_array_equal(score_image_stack(linear, ref, stack),
                                      linear.score_batch(ref, list(stack)))

    def test_order_preserved(self, linear, rng):
        ref = rng.random(DIMS)
        queries = [rng.random(DIMS) for _ in range(7)]
        batch = linear.score_batch(ref, queries)
        batch_rev = linear.score_batch(ref, queries[::-1])
        np.testing.assert_array_equal(batch, batch_rev[::-1])


class TestEmbedAndGrad:
    def test_embed_consistent_with_score(self, linear, rng):
        a, b = rng.random(DIMS), rng.random(DIMS)
        via_embed = cosine(linear.embed(a).data, linear.embed(b).data)
        assert linear.score(a, b) == pytest.approx(via_embed, abs=1e-6)

    def test_gradient_matches_central_differences(self, rng):
        for _ in range(5):
            u, v = rng.normal(size=8), rng.normal(size=8)
            du, dv, c = _cosine_grad_pair(u, v)
            assert c == pytest.approx(cosine(u, v), abs=1e-15)
            eps = 1e-5
            for side, grad in ((0, du), (1, dv)):
                for k in range(8):
                    plus, minus = [u.copy(), v.copy()], [u.copy(), v.copy()]
                    plus[side][k] += eps
                    minus[side][k] -= eps
                    fd = (cosine(*plus) - cosine(*minus)) / (2 * eps)
                    assert abs(fd - grad[k]) <= 1e-4 * max(abs(fd), 1e-6)

    def test_zero_query_gradient_finite(self, rng):
        for u, v in ((rng.normal(size=8), np.zeros(8)), (np.zeros(8), rng.normal(size=8))):
            du, dv, c = _cosine_grad_pair(u, v)
            assert c == 0.0
            assert np.all(np.isfinite(du)) and np.all(np.isfinite(dv))

    def test_dim_mismatch_rejected(self, linear, rng):
        with pytest.raises(InvalidArgumentError):
            linear.score(rng.random((8, 8, 3)), rng.random((8, 8, 3)))

    def test_missing_capability(self, rng):
        const = ConstantScorer(DIMS)
        with pytest.raises(UnsupportedError):
            const.embed(rng.random(DIMS))


class TestPlantedScorer:
    def test_masking_planted_region_lowers_score(self, rng):
        region = se.Rect(2, 3, 5, 5)
        scorer = se.LinearToyScorer.planted(DIMS, region, seed=7)
        query = rng.random(DIMS)
        masked = query.copy()
        masked[2:7, 3:8, :] = 0.0
        assert scorer.score(query, masked) < scorer.score(query, query)

    def test_outside_region_is_inert(self, rng):
        region = se.Rect(2, 3, 5, 5)
        scorer = se.LinearToyScorer.planted(DIMS, region, seed=7)
        ref, query = rng.random(DIMS), rng.random(DIMS)
        poked = query.copy()
        poked[9:, 9:, :] = 0.0
        assert scorer.score(ref, poked) == scorer.score(ref, query)

    def test_region_bounds_validated(self):
        with pytest.raises(InvalidArgumentError):
            se.LinearToyScorer.planted(DIMS, se.Rect(8, 8, 8, 8))


@pytest.fixture(scope="module")
def triplet_dataset():
    return se.generate_dataset(se.SyntheticSpec(n_images=32, seed=6))


class TestTripletScorer:
    @pytest.fixture
    def dataset(self, triplet_dataset):
        return triplet_dataset

    def test_seed_deterministic(self, dataset):
        a = se.TripletToyScorer.train_on(dataset, seed=4, epochs=20)
        b = se.TripletToyScorer.train_on(dataset, seed=4, epochs=20)
        np.testing.assert_array_equal(a.weight, b.weight)

    def test_separates_heldout_pairs(self, dataset):
        scorer = se.TripletToyScorer.train_on(dataset, seed=4, epochs=60)
        val_pairs = dataset.pairs_for_split("val")
        similar = [scorer.score(dataset.image(p.reference_id), dataset.image(p.query_id))
                   for p in val_pairs]
        ids = [i for i, _ in dataset.images]
        rng = np.random.default_rng(3)
        dissimilar = []
        for p in val_pairs:
            gt = set(dataset.gt_attributes(p.query_id))
            pool = [i for i in ids if not gt & set(dataset.gt_attributes(i))]
            if pool:
                other = pool[int(rng.integers(len(pool)))]
                dissimilar.append(scorer.score(dataset.image(other), dataset.image(p.query_id)))
        assert np.mean(similar) > np.mean(dissimilar)

    def test_margin_recorded(self, dataset):
        scorer = se.TripletToyScorer.train_on(dataset, seed=4, epochs=5, margin=0.3)
        assert scorer.margin == 0.3


def _full_triplet_fit(dataset, embed_dim=16, margin=0.2, epochs=200, lr=0.05, seed=0):
    """The triplet fit as it ran before it stopped at its fixed point: every
    one of ``epochs`` epochs, active or not. Returns the weight and the
    epochs in which some triplet updated it."""
    rng = make_rng(seed, 0x7219)
    h, w, c = dataset.dims
    flats = {img_id: img.data.astype(np.float64).reshape(-1) for img_id, img in dataset.images}
    ids = [img_id for img_id, _ in dataset.images]
    triplets = []
    for pair in dataset.pairs_for_split("train"):
        anchor_attrs = set(dataset.gt_attributes(pair.query_id))
        disjoint = [i for i in ids
                    if i != pair.query_id and not anchor_attrs & set(dataset.gt_attributes(i))]
        pool = disjoint or [i for i in ids if i != pair.query_id]
        triplets.append((pair.query_id, pair.reference_id, pool[rng.integers(len(pool))]))
    weight = rng.normal(scale=0.1, size=(embed_dim, h * w * c))
    active = []
    for epoch in range(epochs):
        for k in rng.permutation(len(triplets)):
            a, p, n = (flats[i] for i in triplets[k])
            ea, ep, en = (weight @ a, weight @ p, weight @ n)
            dpa, dpp, cos_ap = _cosine_grad_pair(ea, ep)
            dna, dnn, cos_an = _cosine_grad_pair(ea, en)
            if margin - cos_ap + cos_an <= 0.0:
                continue
            weight -= lr * (np.outer(dna - dpa, a) - np.outer(dpp, p) + np.outer(dnn, n))
            if not active or active[-1] != epoch:
                active.append(epoch)
    return weight, active


class TestTripletFixedPoint:
    """The fit stops after its first epoch without an update; the weight is
    the one the full 200-epoch loop returns, byte for byte."""

    # (spec, seed, epochs in which the full loop updates, epochs the fit runs)
    CASES = {
        # the study workload's size: no triplet ever violates the margin
        "no_active_step": (dict(n_images=24, n_attributes=4, pairs_per_query=2, seed=7), 7, [], 1),
        # updates in epochs 0-2, as in the default-size fit at seed 7
        "settles_in_epoch_2": (dict(n_images=12, side=20, n_attributes=4, pairs_per_query=2, seed=6), 6,
                               [0, 1, 2], 4),
        # a triplet flips in every epoch, so every epoch runs
        "never_settles": (dict(n_images=8, side=20, n_attributes=4, pairs_per_query=2, seed=0), 0,
                          list(range(200)), 200),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_weight_equals_the_full_loop(self, case, monkeypatch):
        spec, seed, active_epochs, epochs_run = self.CASES[case]
        dataset = se.generate_dataset(se.SyntheticSpec(**spec))
        reference, active = _full_triplet_fit(dataset, seed=seed)
        assert active == active_epochs
        calls = []

        def counted(u, v):
            calls.append(1)
            return _cosine_grad_pair(u, v)

        monkeypatch.setattr(scorers, "_cosine_grad_pair", counted)
        fitted = se.TripletToyScorer.train_on(dataset, seed=seed)
        assert fitted.weight.tobytes() == reference.tobytes()
        # two cosine gradients per triplet per epoch: 56 at the study size, 11,200 for the full loop
        assert len(calls) == 2 * len(dataset.pairs_for_split("train")) * epochs_run
