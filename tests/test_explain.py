import dataclasses

import numpy as np
import pytest

import simexplain as se
from simexplain.errors import InvalidArgumentError
from simexplain.explain import (
    CONFIDENCE_ONLY_PHI,
    ExplainConfig,
    PairFeatures,
    PhiWeights,
    Prior,
    estimate_prior,
    explain_pair,
    fit_phi,
    pair_features,
    rank_attributes,
)
from simexplain.synth import _PATTERNS, _palette, _render_motif, motif_slots

from conftest import ConstantScorer


class TestPrior:
    def test_uniform(self):
        p = Prior.uniform(4)
        np.testing.assert_allclose(p.p, 0.25)

    def test_must_sum_to_one(self):
        with pytest.raises(InvalidArgumentError):
            Prior(np.array([0.5, 0.4]))

    def test_nonnegative(self):
        with pytest.raises(InvalidArgumentError):
            Prior(np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # comparisons with NaN are false, so a sum or sign check alone lets it through
        with pytest.raises(InvalidArgumentError, match="finite"):
            Prior(np.array([bad, 0.1, 0.7, 0.1]))


class TestPhiWeights:
    def test_not_all_zero(self):
        with pytest.raises(InvalidArgumentError):
            PhiWeights(0.0, 0.0, 0.0)

    def test_documented_defaults(self):
        phi = PhiWeights()
        assert (phi.phi1, phi.phi2, phi.phi3) == (0.1, 0.9, 0.05)


class TestExplanationScores:
    """e_i = phi1 * confidence_i + phi2 * map_match_i + phi3 * prior_i, through
    ``PhiWeights.combine`` and the full ``explain_pair`` path."""

    @pytest.fixture
    def parts(self, rng):
        A = 5
        conf = rng.random(A)
        conf /= conf.sum()
        match = rng.uniform(-1.0, 1.0, A)
        prior = Prior(np.full(A, 0.2))
        return conf, match, prior

    def test_pure_map_ranking(self, trained_setup, sliding_cfg):
        _, dataset, scorer, model = trained_setup
        pair = dataset.pairs[0]
        query = dataset.image(pair.query_id)
        cfg = ExplainConfig(saliency=sliding_cfg, phi=PhiWeights(0.0, 1.0, 0.0))
        result = explain_pair(scorer, model, dataset.image(pair.reference_id), query, cfg)
        m_q = se.to_match_resolution(result.saliency, model.extractor.grid)
        maps = model.forward(query).maps
        from simexplain.scorers import cosine
        for r in result.ranked:
            assert r.score == r.map_match
            assert r.map_match == pytest.approx(cosine(m_q.ravel(), se.normalize_map(maps[r.attribute]).ravel()),
                                                abs=1e-12)

    def test_pure_confidence_ranking(self, parts):
        conf, match, prior = parts
        e = PhiWeights(1.0, 0.0, 0.0).combine(conf, match, prior)
        assert np.argmax(e) == np.argmax(conf)

    def test_prior_scale_phi3_inverse_exact(self, parts):
        # scaling the prior by 2 while halving phi3 leaves e bit-identical
        # (power-of-two scaling is exact in binary floats)
        conf, match, _ = parts
        p = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        prior = Prior(p)
        doubled = Prior.uniform(5)
        object.__setattr__(doubled, "p", 2.0 * p)  # bypass the sum-to-1 check
        e1 = PhiWeights(0.2, 0.5, 0.1).combine(conf, match, prior)
        e2 = PhiWeights(0.2, 0.5, 0.05).combine(conf, match, doubled)
        np.testing.assert_array_equal(e1, e2)

    def test_affine_transform_keeps_ranking(self, parts, rng):
        conf, match, prior = parts
        e = PhiWeights(0.3, 0.6, 0.1).combine(conf, match, prior)
        np.testing.assert_array_equal(rank_attributes(e), rank_attributes(e + 123.456))
        np.testing.assert_array_equal(rank_attributes(e), rank_attributes(2.5 * e - 7.0))

    def test_degenerate_map_zeroes_cosine_term(self, trained_setup, sliding_cfg):
        _, dataset, _, model = trained_setup
        query = dataset.image(dataset.pairs[0].query_id)
        cfg = ExplainConfig(saliency=sliding_cfg, phi=PhiWeights(0.5, 0.5, 0.0))
        result = explain_pair(ConstantScorer(dataset.dims), model, query, query, cfg)
        assert not result.saliency.data.any()
        conf = model.forward(query).confidences
        for r in result.ranked:
            assert r.map_match == 0.0
            assert r.score == pytest.approx(0.5 * conf[r.attribute], abs=1e-12)

    def test_attribute_count_mismatch(self, trained_setup, sliding_cfg):
        _, dataset, scorer, model = trained_setup
        query = dataset.image(dataset.pairs[0].query_id)
        cfg = ExplainConfig(saliency=sliding_cfg, prior=Prior.uniform(model.n_attributes + 1))
        with pytest.raises(InvalidArgumentError):
            explain_pair(scorer, model, query, query, cfg)

    def test_model_of_another_catalog_refused(self, trained_setup, small_dataset):
        _, _, _, model = trained_setup  # 6 attributes, against the dataset's 8
        pairs = small_dataset.pairs[:2]
        maps = [se.SaliencyMap(np.ones((7, 7)), se.Method.SLIDING_WINDOW)] * len(pairs)
        with pytest.raises(InvalidArgumentError, match="6 attributes, not the dataset's 8"):
            pair_features(model, maps, small_dataset, pairs)


def _features(winners, A):
    """A crafted feature table, one row per entry of ``winners``, whose
    map-match argmax over the ground truth (every attribute) is forced."""
    n = len(winners)
    match = np.zeros((n, A))
    match[np.arange(n), winners] = 1.0
    return PairFeatures(np.full((n, A), 1.0 / A), match, np.ones((n, A), dtype=bool))


class TestPairFeatures:
    def test_top1_is_first_ranked_on_crafted_ties(self, rng):
        # exact ties within one signal and across signals (0.5 of confidence
        # against 0.5 of map match), at the front, the middle and the end
        conf = np.array([[1.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.25, 0.25, 0.25],
                         [0.0, 0.5, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 1.0]])
        match = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        table = PairFeatures(conf, match, np.zeros(conf.shape, dtype=bool))
        prior = Prior.uniform(3)
        np.testing.assert_array_equal(table.top1(prior, PhiWeights(1.0, 0.5, 0.05)), [0, 1, 0, 0, 1, 2])
        # many ties from a coarse value set, under several mixes and priors
        grid = np.array([0.0, 0.25, 0.5])
        table = PairFeatures(rng.choice(grid, (200, 4)), rng.choice(grid, (200, 4)), np.zeros((200, 4), dtype=bool))
        for phi in (PhiWeights(1.0, 0.5, 0.0), PhiWeights(0.5, 0.5, 0.1), CONFIDENCE_ONLY_PHI, PhiWeights()):
            for prior in (Prior.uniform(4), Prior(np.array([0.5, 0.25, 0.125, 0.125]))):
                expected = [rank_attributes(phi.combine(c, m, prior))[0]
                            for c, m in zip(table.confidences, table.map_match)]
                np.testing.assert_array_equal(table.top1(prior, phi), expected)


class TestEstimatePrior:
    def test_single_attribute_dataset(self):
        feats = _features([0] * 7, A=1)
        est = estimate_prior(feats, 1)
        np.testing.assert_array_equal(est.prior.p, [1.0])

    def test_smoothed_counts(self):
        feats = _features([0] * 30 + [1] * 10, 2)
        est = estimate_prior(feats, 2)
        np.testing.assert_allclose(est.prior.p, [31 / 42, 11 / 42], atol=1e-12)
        assert est.n_used == 40 and est.n_skipped == 0

    def test_pairs_without_gt_skipped(self):
        feats = _features([0, 0, 0, 1], 2)
        feats.gt[3] = False
        est = estimate_prior(feats, 2)
        assert est.n_skipped == 1
        assert est.n_used == 3
        np.testing.assert_allclose(est.prior.p, [4 / 5, 1 / 5], atol=1e-12)

    def test_winner_is_first_maximum_inside_gt(self):
        # attribute 0 has the largest match but is not ground truth; 1 and 3 tie
        match = np.array([[0.9, 0.5, 0.1, 0.5]])
        feats = PairFeatures(np.full((1, 4), 0.25), match, np.array([[False, True, True, True]]))
        np.testing.assert_allclose(estimate_prior(feats, 4).prior.p, [1 / 5, 2 / 5, 1 / 5, 1 / 5], atol=1e-12)


class TestFitPhi:
    def test_confidence_perfect_validation(self):
        # confidence ranking is perfect, map matching is anti-informative
        A = 4
        gt = np.arange(16) % A  # exactly one ground-truth attribute per pair
        conf = np.full((16, A), 0.1)
        conf[np.arange(16), gt] = 0.7
        match = np.full((16, A), 0.5)
        match[np.arange(16), (gt + 1) % A] = 1.0  # map match points at a wrong attribute
        feats = PairFeatures(conf, match, np.eye(A, dtype=bool)[gt])
        phi = fit_phi(feats, Prior.uniform(A))
        # fitted mix reproduces the perfect confidence ranking
        np.testing.assert_array_equal(feats.top1(Prior.uniform(A), phi), gt)
        # dominance condition for this construction: 0.6*phi1 > 0.5*phi2
        assert phi.phi1 > 0 and 0.6 * phi.phi1 > 0.5 * phi.phi2

    def test_grid_contains_documented_optima(self):
        axis = np.arange(int(round(1 / 0.05)) + 1) * 0.05
        for v in (0.1, 0.9, 0.4, 0.6):
            assert np.isclose(axis, v).any()

    def test_degenerate_step_returns_vertex(self):
        feats = _features([0] * 4, 2)
        phi = fit_phi(feats, Prior.uniform(2), grid_step=1.0)
        assert phi is not None
        assert any(v != 0 for v in (phi.phi1, phi.phi2, phi.phi3))

    def test_tie_prefers_larger_phi2(self):
        # all mixes score identically: every signal points at the only GT attr
        feats = _features([0] * 3, 1)
        phi = fit_phi(feats, Prior.uniform(1), grid_step=0.5)
        assert phi.phi2 == 1.0

    def test_invalid_step(self):
        for step in (0.0, -0.1, 1.5, np.nan):
            with pytest.raises(InvalidArgumentError):
                fit_phi(_features([0], 2), Prior.uniform(2), grid_step=step)

    def test_table_without_ground_truth_refused(self):
        # no pair, or only pairs whose query has no ground truth: every mix
        # would tie at no accuracy, so the fit refuses instead of picking one
        for n in (0, 3):
            feats = _features([0] * n, 2)
            feats.gt[:] = False
            with pytest.raises(InvalidArgumentError, match="ground-truth attributes"):
                fit_phi(feats, Prior.uniform(2))


class TestExplainPair:
    def _image(self, spec, attrs, seed):
        rng = np.random.default_rng(seed)
        img = rng.random((56, 56, 3)) * spec.noise
        slots = motif_slots(spec)
        colors = _palette(spec)
        for a in attrs:
            _render_motif(img, slots[a], colors[a], _PATTERNS[a % len(_PATTERNS)], 1.0)
        return np.clip(img, 0.0, 1.0)

    def test_self_pair_recovers_planted_attribute(self, trained_setup, sliding_cfg):
        spec, _, scorer, model = trained_setup
        cfg = ExplainConfig(saliency=sliding_cfg, phi=PhiWeights(0.0, 1.0, 0.0))
        img = self._image(spec, [2], 103)
        result = explain_pair(scorer, model, img, img, cfg)
        assert result.top1 == 2
        assert len(result.ranked) == model.n_attributes
        scores = [r.score for r in result.ranked]
        assert scores == sorted(scores, reverse=True)

    def test_different_references_change_top1(self, trained_setup, sliding_cfg):
        spec, _, scorer, model = trained_setup
        cfg = ExplainConfig(saliency=sliding_cfg, phi=PhiWeights(0.0, 1.0, 0.0))
        query = self._image(spec, [0, 1], 100)
        ref_a = self._image(spec, [0], 101)
        ref_b = self._image(spec, [1], 102)
        top_a = explain_pair(scorer, model, ref_a, query, cfg).top1
        top_b = explain_pair(scorer, model, ref_b, query, cfg).top1
        assert top_a != top_b

    def test_ranked_covers_catalog_once(self, trained_setup, sliding_cfg):
        spec, dataset, scorer, model = trained_setup
        pair = dataset.pairs[0]
        cfg = ExplainConfig(saliency=sliding_cfg)
        result = explain_pair(scorer, model, dataset.image(pair.reference_id),
                              dataset.image(pair.query_id), cfg,
                              query_id=pair.query_id, reference_id=pair.reference_id)
        attrs = sorted(r.attribute for r in result.ranked)
        assert attrs == list(range(model.n_attributes))
