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
    explanation_scores,
    fit_phi,
    rank_attributes,
)
from simexplain.synth import _PATTERNS, _palette, _render_motif, motif_slots


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


class TestPhiWeights:
    def test_not_all_zero(self):
        with pytest.raises(InvalidArgumentError):
            PhiWeights(0.0, 0.0, 0.0)

    def test_documented_defaults(self):
        assert PhiWeights().as_tuple() == (0.1, 0.9, 0.05)


class TestExplanationScores:
    @pytest.fixture
    def parts(self, rng):
        A = 5
        conf = rng.random(A)
        conf /= conf.sum()
        maps = rng.random((A, 7, 7))
        maps = np.stack([se.normalize_map(m) for m in maps])
        m_q = se.normalize_map(rng.random((7, 7)))
        prior = Prior(np.full(A, 0.2))
        return m_q, conf, maps, prior

    def test_pure_map_ranking(self, parts):
        m_q, conf, maps, prior = parts
        e = explanation_scores(m_q, conf, maps, prior, PhiWeights(0.0, 1.0, 0.0))
        from simexplain.scorers import cosine
        match = [cosine(m_q.ravel(), maps[a].ravel()) for a in range(5)]
        np.testing.assert_allclose(e, match, atol=1e-12)

    def test_pure_confidence_ranking(self, parts):
        m_q, conf, maps, prior = parts
        e = explanation_scores(m_q, conf, maps, prior, PhiWeights(1.0, 0.0, 0.0))
        assert np.argmax(e) == np.argmax(conf)

    def test_prior_scale_phi3_inverse_exact(self, parts):
        # scaling the prior by 2 while halving phi3 leaves e bit-identical
        # (power-of-two scaling is exact in binary floats)
        m_q, conf, maps, _ = parts
        p = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        prior = Prior(p)
        doubled = Prior.uniform(5)
        object.__setattr__(doubled, "p", 2.0 * p)  # bypass the sum-to-1 check
        e1 = explanation_scores(m_q, conf, maps, prior, PhiWeights(0.2, 0.5, 0.1))
        e2 = explanation_scores(m_q, conf, maps, doubled, PhiWeights(0.2, 0.5, 0.05))
        np.testing.assert_array_equal(e1, e2)

    def test_affine_transform_keeps_ranking(self, parts, rng):
        m_q, conf, maps, prior = parts
        e = explanation_scores(m_q, conf, maps, prior, PhiWeights(0.3, 0.6, 0.1))
        np.testing.assert_array_equal(rank_attributes(e), rank_attributes(e + 123.456))
        np.testing.assert_array_equal(rank_attributes(e), rank_attributes(2.5 * e - 7.0))

    def test_degenerate_map_zeroes_cosine_term(self, parts):
        _, conf, maps, prior = parts
        zero_map = np.zeros((7, 7))
        e = explanation_scores(zero_map, conf, maps, prior, PhiWeights(0.5, 0.5, 0.0))
        np.testing.assert_allclose(e, 0.5 * conf, atol=1e-12)

    def test_attribute_count_mismatch(self, parts):
        m_q, conf, maps, prior = parts
        with pytest.raises(InvalidArgumentError):
            explanation_scores(m_q, conf[:3], maps, prior, PhiWeights())


def _features(winners, A, n_per=1):
    """Crafted PairFeatures whose map-match argmax over GT is forced."""
    out = []
    for w in winners:
        for _ in range(n_per):
            match = np.zeros(A)
            match[w] = 1.0
            out.append(PairFeatures(
                query_id="q", reference_id="r",
                m_q=np.zeros((7, 7)),
                confidences=np.full(A, 1.0 / A),
                map_match=match,
                gt=np.arange(A),
            ))
    return out


class TestEstimatePrior:
    def test_single_attribute_dataset(self):
        feats = _features([0], A=1, n_per=7)
        est = estimate_prior(feats, 1)
        np.testing.assert_array_equal(est.prior.p, [1.0])

    def test_smoothed_counts(self):
        feats = _features([0], 2, 30) + _features([1], 2, 10)
        est = estimate_prior(feats, 2)
        np.testing.assert_allclose(est.prior.p, [31 / 42, 11 / 42], atol=1e-12)
        assert est.n_used == 40 and est.n_skipped == 0

    def test_pairs_without_gt_skipped(self):
        feats = _features([0], 2, 3)
        feats.append(PairFeatures("q", "r", np.zeros((7, 7)), np.full(2, 0.5),
                                  np.zeros(2), np.array([], dtype=np.intp)))
        est = estimate_prior(feats, 2)
        assert est.n_skipped == 1
        assert est.n_used == 3


class TestFitPhi:
    def test_confidence_perfect_validation(self):
        # confidence ranking is perfect, map matching is anti-informative
        A = 4
        feats = []
        for k in range(16):
            gt = np.array([k % A])  # exactly one ground-truth attribute
            conf = np.full(A, 0.1)
            conf[gt[0]] = 0.7
            match = np.full(A, 0.5)
            match[(gt[0] + 1) % A] = 1.0  # map match points at a wrong attribute
            feats.append(PairFeatures("q", "r", np.zeros((7, 7)), conf, match, gt))
        phi = fit_phi(feats, Prior.uniform(A))
        hits = 0
        for f in feats:
            e = phi.phi1 * f.confidences + phi.phi2 * f.map_match
            hits += int(int(np.argmax(e)) in set(f.gt.tolist()))
        assert hits == 16  # fitted mix reproduces the perfect confidence ranking
        # dominance condition for this construction: 0.6*phi1 > 0.5*phi2
        assert phi.phi1 > 0 and 0.6 * phi.phi1 > 0.5 * phi.phi2

    def test_grid_contains_documented_optima(self):
        axis = np.arange(int(round(1 / 0.05)) + 1) * 0.05
        for v in (0.1, 0.9, 0.4, 0.6):
            assert np.isclose(axis, v).any()

    def test_degenerate_step_returns_vertex(self):
        feats = _features([0], 2, 4)
        phi = fit_phi(feats, Prior.uniform(2), grid_step=1.0)
        assert phi is not None
        assert any(v != 0 for v in phi.as_tuple())

    def test_tie_prefers_larger_phi2(self):
        # all mixes score identically: every signal points at the only GT attr
        feats = _features([0], 1, 3)
        phi = fit_phi(feats, Prior.uniform(1), grid_step=0.5)
        assert phi.phi2 == 1.0

    def test_invalid_step(self):
        with pytest.raises(InvalidArgumentError):
            fit_phi([], Prior.uniform(2), grid_step=0.0)


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
