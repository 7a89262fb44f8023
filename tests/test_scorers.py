import numpy as np
import pytest

import simexplain as se
from simexplain.errors import InvalidArgumentError, UnsupportedError
from simexplain.scorers import cosine, score_image_stack

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

    def test_gradient_matches_central_differences(self, linear, rng):
        ref, query = rng.random(DIMS), rng.random(DIMS)
        _, d_ref, d_query = linear.score_and_grads(ref, query)
        eps = 1e-3
        for side, grad in (("query", d_query), ("ref", d_ref)):
            for _ in range(10):
                i, j, c = (int(rng.integers(d)) for d in DIMS)
                plus = {"ref": ref.copy(), "query": query.copy()}
                minus = {"ref": ref.copy(), "query": query.copy()}
                plus[side][i, j, c] += eps
                minus[side][i, j, c] -= eps
                fd = (linear.score(plus["ref"], plus["query"])
                      - linear.score(minus["ref"], minus["query"])) / (2 * eps)
                assert abs(fd - grad[i, j, c]) <= 1e-4 * max(abs(fd), 1e-8)

    def test_zero_query_gradient_finite(self, linear, rng):
        for ref, query in ((rng.random(DIMS), np.zeros(DIMS)), (np.zeros(DIMS), rng.random(DIMS))):
            score, d_ref, d_query = linear.score_and_grads(ref, query)
            assert score == 0.0
            assert np.all(np.isfinite(d_ref)) and np.all(np.isfinite(d_query))

    def test_score_and_grads_score_is_score(self, linear, rng):
        pairs = [(rng.random(DIMS), rng.random(DIMS)) for _ in range(20)]
        pairs += [(np.zeros(DIMS), rng.random(DIMS)), (rng.random(DIMS), np.zeros(DIMS))]
        for ref, query in pairs:
            got = np.float64(linear.score_and_grads(ref, query)[0])
            assert got.tobytes() == np.float64(linear.score(ref, query)).tobytes()

    def test_dim_mismatch_rejected(self, linear, rng):
        with pytest.raises(InvalidArgumentError):
            linear.score(rng.random((8, 8, 3)), rng.random((8, 8, 3)))

    def test_missing_capability(self, rng):
        const = se.ConstantScorer(DIMS)
        with pytest.raises(UnsupportedError):
            const.embed(rng.random(DIMS))
        with pytest.raises(UnsupportedError):
            const.score_and_grads(rng.random(DIMS), rng.random(DIMS))


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
