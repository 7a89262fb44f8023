import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simexplain as se
from simexplain import metrics
from simexplain.errors import InvalidArgumentError, InvalidDataError
from simexplain.explain import PairFeatures
from simexplain.external import _ScoreOnly
from simexplain.metrics import (
    RemovalResult,
    attribute_removal_delta,
    average_precision,
    deletion_curve,
    insertion_curve,
    map_metric,
    mean_and_stderr,
    mean_average_precision,
)
from simexplain.scorers import Scorer, score_image_stack

from conftest import ConstantScorer

DIMS = (4, 4, 2)


def brute_force_curve(scorer, ref, query, smap, insertion):
    """Independent oracle: explicit per-pixel composites and longhand trapezoid."""
    h, w, c = query.shape
    order = sorted(range(h * w), key=lambda k: (-smap.ravel()[k], k))
    n = h * w
    fracs = [k / n for k in range(n + 1)]
    scores = []
    flat = query.reshape(-1, c)
    for k in range(n + 1):
        chosen = order[:k]
        img = np.zeros_like(flat) if insertion else flat.copy()
        for p in chosen:
            img[p] = flat[p] if insertion else 0.0
        scores.append(scorer.score(ref, img.reshape(h, w, c)))
    scores = np.array(scores)
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return 0.5
    norm = (scores - lo) / (hi - lo)
    auc = 0.0
    for k in range(n):
        auc += (fracs[k + 1] - fracs[k]) * (norm[k] + norm[k + 1]) / 2.0
    return auc


class TestInsertionDeletion:
    def test_matches_brute_force(self, rng):
        for trial in range(6):
            scorer = se.LinearToyScorer.random(DIMS, embed_dim=5, seed=trial)
            ref, query = rng.random(DIMS), rng.random(DIMS)
            smap = rng.random((4, 4))
            ins = insertion_curve(scorer, ref, query, smap, step_frac=1 / 16)
            dele = deletion_curve(scorer, ref, query, smap, step_frac=1 / 16)
            assert abs(ins.auc - brute_force_curve(scorer, ref, query, smap, True)) < 1e-9
            assert abs(dele.auc - brute_force_curve(scorer, ref, query, smap, False)) < 1e-9

    @pytest.mark.parametrize("curve", [insertion_curve, deletion_curve])
    def test_keep_masks_equal_copy_and_fill_stacks(self, curve, rng, monkeypatch):
        # the curve stack built the old way, by copying the selected pixels
        # onto a blank image (insertion) or zeroing them (deletion), has
        # the same bits as query times the keep masks of the curve's steps,
        # and so the same raw scores
        scorer = se.LinearToyScorer.random(DIMS, embed_dim=5, seed=3)
        ref, query, smap = rng.random(DIMS), rng.random(DIMS), rng.random((3, 3))
        seen = []
        real = metrics.score_masked

        def recording(scorer, refs, query, keep):
            seen.append(keep)
            return real(scorer, refs, query, keep)

        monkeypatch.setattr(metrics, "score_masked", recording)
        result = curve(scorer, ref, query, smap, step_frac=0.25)
        order = metrics._pixel_order(smap, 4, 4)
        flat = query.reshape(-1, 2)
        old = []
        for count in np.rint(np.array([0, 0.25, 0.5, 0.75, 1.0]) * 16).astype(int):
            img = np.zeros_like(flat) if curve is insertion_curve else flat.copy()
            img[order[:count]] = flat[order[:count]] if curve is insertion_curve else 0.0
            old.append(img.reshape(DIMS))
        old = np.array(old)
        [steps] = seen
        keep = steps.block(0, len(steps))
        assert (query[None] * keep[..., None]).tobytes() == old.tobytes()
        # the embedding scorer embeds from the keep masks, summing in
        # another order; the score-only wrapper scores the stack itself
        np.testing.assert_allclose(result.raw_scores, score_image_stack(scorer, ref, old), rtol=0, atol=1e-9)
        score_only = curve(_ScoreOnly(scorer), ref, query, smap, step_frac=0.25)
        assert score_only.raw_scores.tobytes() == score_image_stack(scorer, ref, old).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), scale=st.floats(0.1, 10.0), shift=st.floats(-5.0, 5.0),
           steps=st.sampled_from([4, 16, 300]))
    def test_auc_invariant_under_positive_affine_scores(self, seed, scale, shift, steps):
        # the wrapper has no keep_kernel, so score_masked scores its
        # blocks one by one (300 steps span three blocks)
        inner = se.LinearToyScorer.random(DIMS, embed_dim=5, seed=seed % 5)

        class AffineScoreOnly(Scorer):
            dims = DIMS

            @property
            def caps(self):
                return dataclasses.replace(inner.caps, can_embed=False)

            def score_batch(self, ref, queries):
                return scale * inner.score_batch(ref, queries) + shift

        rng = np.random.default_rng(seed)
        ref, query, smap = rng.random(DIMS), rng.random(DIMS), rng.random((4, 4))
        for curve in (insertion_curve, deletion_curve):
            base = curve(inner, ref, query, smap, step_frac=1 / steps)
            moved = curve(AffineScoreOnly(), ref, query, smap, step_frac=1 / steps)
            assert moved.degenerate == base.degenerate
            assert moved.auc == pytest.approx(base.auc, abs=1e-9)

    def test_shared_endpoints(self, rng):
        scorer = se.LinearToyScorer.random(DIMS, embed_dim=5, seed=1)
        ref, query = rng.random(DIMS), rng.random(DIMS)
        smap = rng.random((4, 4))
        ins = insertion_curve(scorer, ref, query, smap, step_frac=0.25)
        dele = deletion_curve(scorer, ref, query, smap, step_frac=0.25)
        original = scorer.score(ref, query)
        assert ins.raw_scores[-1] == pytest.approx(original, abs=1e-12)
        assert dele.raw_scores[0] == pytest.approx(original, abs=1e-12)
        blank = scorer.score(ref, np.zeros(DIMS))
        assert dele.raw_scores[-1] == pytest.approx(blank, abs=1e-12)
        assert ins.raw_scores[0] == pytest.approx(blank, abs=1e-12)
        # the blank steps embed to exact zeros, which score exactly 0
        assert ins.raw_scores[0] == dele.raw_scores[-1] == 0.0

    def test_constant_scorer_convention(self, rng):
        const = ConstantScorer(DIMS, value=0.7)
        curve = insertion_curve(const, rng.random(DIMS), rng.random(DIMS), rng.random((4, 4)))
        assert curve.degenerate
        assert curve.auc == 0.5
        assert np.all(curve.scores == 0.5)

    @pytest.mark.parametrize("curve", [insertion_curve, deletion_curve])
    def test_non_finite_scores_rejected(self, curve, rng):
        nan_scorer = ConstantScorer(DIMS, value=float("nan"))
        with pytest.raises(InvalidDataError):
            curve(nan_scorer, rng.random(DIMS), rng.random(DIMS), rng.random((4, 4)))

    def test_auc_in_unit_interval(self, rng):
        for seed in range(5):
            scorer = se.LinearToyScorer.random(DIMS, embed_dim=4, seed=seed)
            curve = insertion_curve(scorer, rng.random(DIMS), rng.random(DIMS),
                                    rng.random((4, 4)), step_frac=0.125)
            assert 0.0 <= curve.auc <= 1.0

    def test_low_res_map_upsampled(self, rng):
        scorer = se.LinearToyScorer.random((8, 8, 1), embed_dim=4, seed=0)
        curve = insertion_curve(scorer, rng.random((8, 8, 1)), rng.random((8, 8, 1)),
                                rng.random((2, 2)), step_frac=0.25)
        assert curve.fractions.size == 5

    def test_bad_step_rejected(self, rng):
        scorer = se.LinearToyScorer.random(DIMS, embed_dim=4, seed=0)
        with pytest.raises(InvalidArgumentError):
            insertion_curve(scorer, rng.random(DIMS), rng.random(DIMS),
                            rng.random((4, 4)), step_frac=0.0)

    def test_raster_tie_break_stable(self):
        scorer = se.LinearToyScorer.random(DIMS, embed_dim=4, seed=0)
        rng = np.random.default_rng(0)
        ref, query = rng.random(DIMS), rng.random(DIMS)
        flat_map = np.full((4, 4), 0.5)
        a = insertion_curve(scorer, ref, query, flat_map, step_frac=0.25)
        b = insertion_curve(scorer, ref, query, flat_map, step_frac=0.25)
        np.testing.assert_array_equal(a.raw_scores, b.raw_scores)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(np.array([0.9, 0.8, 0.2, 0.1]),
                                 np.array([1, 1, 0, 0])) == 1.0

    def test_hand_derived_toy(self):
        # two positives landing at ranks 2 and 3 of four: AP = (1/2 + 2/3)/2
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 1, 1, 0])
        assert average_precision(scores, labels) == pytest.approx(7 / 12, abs=1e-12)

    def test_no_positives_is_none(self):
        assert average_precision(np.array([1.0, 2.0]), np.array([0, 0])) is None

    def test_mean_ap_skips_empty_attributes(self):
        conf = np.array([[0.9, 0.1], [0.1, 0.9]])
        labels = np.array([[1, 0], [0, 0]])
        assert mean_average_precision(conf, labels) == 1.0

    def test_perfect_model_scores_100(self, small_dataset):
        rows = {img_id: small_dataset.labels[small_dataset.row(img_id)]
                for img_id, _ in small_dataset.images}

        class PerfectModel:
            def forward(self, image):
                for img_id, img in small_dataset.images:
                    if np.array_equal(img.data, image.data):
                        conf = rows[img_id].astype(np.float64) + 1e-6
                        return type("P", (), {"confidences": conf / conf.sum()})
                raise KeyError

        assert map_metric(PerfectModel(), small_dataset, "test") == 100.0


def _gt_table(gt) -> PairFeatures:
    """A feature table that holds only the ground-truth rows ``gt``."""
    gt = np.asarray(gt, dtype=bool)
    return PairFeatures(np.zeros(gt.shape), np.zeros(gt.shape), gt)


class TestTop1Accuracy:
    """The one top-1 rule, ``PairFeatures.top1_accuracy``."""

    def test_forced_membership_single_attribute(self):
        assert _gt_table([[True]] * 5).top1_accuracy([0] * 5) == 100.0

    def test_counts_membership_not_equality(self):
        table = _gt_table([[False, True, True], [True, False, False]])
        assert table.top1_accuracy([1, 2]) == 50.0
        with pytest.raises(InvalidArgumentError, match="one attribute per pair"):
            table.top1_accuracy([1])

    def test_pairs_without_ground_truth_are_no_misses(self):
        table = _gt_table([[True, False], [False, False], [False, True], [False, False]])
        assert table.top1_accuracy([0, 0, 0, 1]) == 50.0
        assert table.top1_accuracy([0, 1, 1, 0]) == 100.0
        assert type(table.top1_accuracy([0, 0, 0, 0])) is float  # prints as a plain number

    def test_empty_rejected(self):
        # no pair at all, and pairs of which none has ground truth
        for n in (0, 4):
            with pytest.raises(InvalidArgumentError, match="ground-truth attributes"):
                _gt_table(np.zeros((n, 3), dtype=bool)).top1_accuracy([0] * n)


@pytest.fixture(scope="module")
def removal_setup():
    ds = se.generate_dataset(se.SyntheticSpec(n_images=32, seed=6))
    scorer = se.planted_scorer_for(ds, seed=5)  # keys only on attribute 0's slot
    return ds, scorer


class TestRemoval:
    @pytest.fixture
    def setup(self, removal_setup):
        return removal_setup

    def test_ignored_attribute_small_delta(self, setup):
        ds, scorer = setup
        pairs = ds.pairs_for_split("test")[:8]
        ignored = [3] * len(pairs)  # scorer has zero weight on attr 3's slot
        res = attribute_removal_delta(scorer, ds, pairs, ignored,
                                      corpus_ids=[i for i, _ in ds.images])
        assert abs(res.mean_delta) < 5.0

    def test_planted_attribute_larger_delta(self, setup):
        ds, scorer = setup
        pairs = [p for p in ds.pairs if 0 in ds.gt_attributes(p.query_id)][:8]
        assert pairs, "suite needs pairs whose query carries the planted attribute"
        planted = [0] * len(pairs)
        ignored = [3] * len(pairs)
        corpus = [i for i, _ in ds.images]
        d_planted = attribute_removal_delta(scorer, ds, pairs, planted, corpus_ids=corpus)
        d_ignored = attribute_removal_delta(scorer, ds, pairs, ignored, corpus_ids=corpus)
        assert d_planted.mean_delta > d_ignored.mean_delta
        assert d_planted.mean_delta > 0.0

    def test_no_candidates_skipped(self, setup):
        ds, scorer = setup
        pairs = ds.pairs_for_split("test")[:2]
        labels = np.ones((ds.n_images, ds.n_attributes), dtype=np.int8)
        res = attribute_removal_delta(scorer, ds, pairs, [0, 0], [i for i, _ in ds.images], labels=labels)
        assert res.n_skipped == 2 and res.n_used == 0

    def test_pair_without_attribute_is_skipped(self, setup):
        ds, scorer = setup
        pairs = ds.pairs_for_split("test")[:3]
        attrs = [int(ds.gt_attributes(p.query_id)[0]) for p in pairs[1:]]
        corpus = [i for i, _ in ds.images]
        with_none = attribute_removal_delta(scorer, ds, pairs, [None, *attrs], corpus)
        without = attribute_removal_delta(scorer, ds, pairs[1:], attrs, corpus)
        assert with_none == RemovalResult(without.mean_delta, without.n_used, without.n_skipped + 1)
        assert without.n_used > 0

    def test_order_independence(self, setup):
        ds, scorer = setup
        pairs = ds.pairs_for_split("test")[:6]
        attrs = [int(ds.gt_attributes(p.query_id)[0]) for p in pairs]
        corpus = [i for i, _ in ds.images]
        fwd = attribute_removal_delta(scorer, ds, pairs, attrs, corpus_ids=corpus)
        rev = attribute_removal_delta(scorer, ds, pairs[::-1], attrs[::-1], corpus_ids=corpus)
        assert fwd.mean_delta == pytest.approx(rev.mean_delta, abs=1e-12)

    def test_length_mismatch(self, setup):
        ds, scorer = setup
        with pytest.raises(InvalidArgumentError):
            attribute_removal_delta(scorer, ds, ds.pairs[:2], [0], [i for i, _ in ds.images])

    def test_requires_embedding_scorer(self, setup):
        ds, _ = setup
        with pytest.raises(InvalidArgumentError, match="embedding-capable"):
            attribute_removal_delta(ConstantScorer(ds.dims), ds, ds.pairs[:2], [0, 0], [i for i, _ in ds.images])


class TestHelpers:
    def test_mean_and_stderr(self):
        m, s = mean_and_stderr([1.0, 2.0, 3.0])
        assert m == 2.0
        assert s == pytest.approx(1.0 / np.sqrt(3), abs=1e-12)
        assert mean_and_stderr([4.0]) == (4.0, 0.0)
        assert mean_and_stderr([]) == (0.0, 0.0)
