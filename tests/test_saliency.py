import dataclasses
import math

import numpy as np
import pytest

import simexplain as se
from simexplain.core import resize_average_pool
from simexplain.errors import (
    ConvergenceError,
    InvalidArgumentError,
    OptimizationError,
    UnsupportedError,
)
from simexplain.saliency import (
    MaskObjective,
    _window_origins,
    _window_side,
    grid_segments,
    sample_rise_masks,
    slic_like_segments,
)
from simexplain.scorers import Scorer

DIMS = (28, 28, 3)


def small_cfg(method, seed=0, **kw):
    cfg = se.SaliencyConfig(
        method=method,
        seed=seed,
        sliding=se.SlidingCfg(windows_query=81, window_area_frac=0.1, windows_ref=9),
        rise=se.RiseCfg(n_masks=200, grid=7, keep_prob=0.5, n_ref_masks=6),
        lime=se.LimeCfg(n_samples=300, n_segments=49),
        mask=se.MaskCfg(grid=7, iters=60, lr=0.1),
    )
    return dataclasses.replace(cfg, **kw)


@pytest.fixture(scope="module")
def planted():
    region = se.Rect(6, 8, 10, 10)
    return region, se.LinearToyScorer.planted(DIMS, region, embed_dim=8, seed=2)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(7)
    return rng.random(DIMS), rng.random(DIMS)


class TestDefaultsMatchDocumentedValues:
    def test_sliding_defaults(self):
        cfg = se.SlidingCfg()
        assert (cfg.windows_query, cfg.window_area_frac, cfg.windows_ref) == (625, 0.12, 36)

    def test_rise_defaults(self):
        cfg = se.RiseCfg()
        assert (cfg.n_masks, cfg.grid, cfg.keep_prob, cfg.n_ref_masks) == (2000, 8, 0.5, 30)

    def test_lime_defaults(self):
        assert se.LimeCfg().n_samples == 1000

    def test_mask_defaults(self):
        cfg = se.MaskCfg()
        assert (cfg.grid, cfg.iters, cfg.lr) == (14, 500, 0.1)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            se.RiseCfg(keep_prob=1.0)
        with pytest.raises(InvalidArgumentError):
            se.SlidingCfg(window_area_frac=1.5)
        with pytest.raises(InvalidArgumentError):
            se.MaskCfg(perturb="sparkle")


class TestDegenerateScorer:
    @pytest.mark.parametrize("method", [se.Method.SLIDING_WINDOW, se.Method.RISE, se.Method.LIME])
    def test_constant_scorer_degenerates(self, method, images):
        const = se.ConstantScorer(DIMS, value=0.4)
        smap = se.generate(const, images[0], images[1], small_cfg(method))
        assert smap.degenerate

    def test_constant_scorer_mask_fd(self, images):
        const = se.ConstantScorer(DIMS, value=0.4)
        cfg = small_cfg(se.Method.MASK, mask=se.MaskCfg(grid=5, iters=5, lr=0.1, fd_fallback=True))
        smap = se.generate(const, images[0], images[1], cfg)
        assert smap.degenerate

    def test_all_ones_masks_degenerate(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.RISE, rise=se.RiseCfg(n_masks=50, grid=7, keep_prob=1 - 1e-12))
        assert se.generate(scorer, images[0], images[1], cfg).degenerate


class TestSlidingWindow:
    def test_window_side_arithmetic(self):
        assert _window_side(0.12, 56, 56) == round(math.sqrt(0.12 * 56 * 56)) == 19

    def test_origins_cover_extent(self):
        origins = _window_origins(56, 19, 25)
        assert origins[0] == 0 and origins[-1] == 56 - 19
        assert len(origins) == 25

    def test_window_larger_than_image_rejected(self, rng):
        # a square window sized from the full area exceeds the short side
        # of a non-square image
        from simexplain.saliency import _occlusion_variants
        with pytest.raises(InvalidArgumentError):
            _occlusion_variants(rng.random((10, 4, 1)), 4, 0.9)

    def test_untouched_support_gets_zero(self, planted):
        region, scorer = planted
        rng = np.random.default_rng(0)
        query = rng.random(DIMS)
        smap = se.sliding_window(scorer, query, query, small_cfg(se.Method.SLIDING_WINDOW))
        # occlusions away from the planted region cannot move a score whose
        # weights are zero there, so far corners normalize to exactly 0
        assert smap.data[-1, -1] == 0.0
        assert smap.data[:, :2].max() <= smap.data[region.top:region.top + region.height,
                                                   region.left:region.left + region.width].max()

    def test_map_peaks_inside_planted_region(self, planted):
        region, scorer = planted
        rng = np.random.default_rng(1)
        query = rng.random(DIMS)
        smap = se.sliding_window(scorer, query, query, small_cfg(se.Method.SLIDING_WINDOW))
        r, c = np.unravel_index(np.argmax(smap.data), smap.data.shape)
        assert region.covers(int(r), int(c))


class TestRise:
    def test_mask_statistics_within_3_sigma(self):
        cfg = se.RiseCfg(n_masks=400, grid=6, keep_prob=0.5)
        masks = sample_rise_masks(cfg, 28, 28, seed=5)
        freq = masks.lowres.mean(axis=0)
        sigma = math.sqrt(0.5 * 0.5 / 400)
        assert np.all(np.abs(freq - 0.5) <= 3 * sigma + 1e-12)

    def test_upsampled_masks_are_continuous(self):
        cfg = se.RiseCfg(n_masks=4, grid=7, keep_prob=0.5)
        masks = sample_rise_masks(cfg, 28, 28, seed=5)
        assert masks.upsampled.min() >= 0.0 and masks.upsampled.max() <= 1.0
        jumps = np.abs(np.diff(masks.upsampled, axis=2)).max()
        assert jumps < 0.5  # bilinear cells blend, no hard 0->1 steps

    def test_reproducible_from_seed(self):
        cfg = se.RiseCfg(n_masks=10, grid=5, keep_prob=0.4)
        a = sample_rise_masks(cfg, 20, 20, seed=9)
        b = sample_rise_masks(cfg, 20, 20, seed=9)
        np.testing.assert_array_equal(a.upsampled, b.upsampled)

    def test_cell_weight_tracks_planted_mass(self):
        # seed-averaged map vs analytic |weight| mass per low-res cell
        dims = (56, 56, 3)
        scorer = se.LinearToyScorer.planted(dims, se.Rect(10, 18, 20, 22), embed_dim=16, seed=2)
        query = np.ones(dims) * 0.8
        maps = []
        for seed in (3, 5, 7, 11, 13):
            cfg = se.SaliencyConfig(method=se.Method.RISE, seed=seed)
            maps.append(se.rise(scorer, query, query, cfg).data.astype(np.float64))
        pooled = resize_average_pool(np.mean(maps, axis=0), 8, 8).ravel()
        weight_img = np.abs(scorer.weight.reshape(16, 56, 56, 3)).sum(axis=(0, 3))
        mass = resize_average_pool(weight_img, 8, 8).ravel()
        r = np.corrcoef(pooled, mass)[0, 1]
        assert r > 0.8

    def test_dual_identity_reduces_to_fixed(self, planted, images, monkeypatch):
        _, scorer = planted
        fixed = se.rise(scorer, images[0], images[1], small_cfg(se.Method.RISE, seed=3))
        monkeypatch.setattr("simexplain.saliency._rise_ref_variants",
                            lambda scorer, ref, cfg: [ref])
        dual = se.rise(scorer, images[0], images[1],
                       small_cfg(se.Method.RISE, seed=3, fixed_reference=False))
        np.testing.assert_array_equal(fixed.data, dual.data)
        assert not dual.fixed_reference

    def test_dual_mode_runs(self, planted, images):
        _, scorer = planted
        smap = se.generate(scorer, images[0], images[1],
                           small_cfg(se.Method.RISE, seed=3, fixed_reference=False))
        assert not smap.fixed_reference
        assert smap.normalized

    def test_raw_map_argmax_survives_normalization(self, planted, images):
        # recompute the raw score-weighted mask sum and check that the
        # normalized map published by rise() keeps its argmax pixel
        _, scorer = planted
        cfg = small_cfg(se.Method.RISE, seed=3)
        from simexplain.scorers import score_image_stack
        masks = sample_rise_masks(cfg.rise, 28, 28, cfg.seed)
        stack = images[1][None, :, :, :] * masks.upsampled[:, :, :, None]
        scores = score_image_stack(scorer, images[0], stack)
        raw = np.einsum("n,nhw->hw", scores, masks.upsampled) / (len(masks) * cfg.rise.keep_prob)
        published = se.rise(scorer, images[0], images[1], cfg)
        assert np.argmax(raw) == np.argmax(published.data)


class TestLime:
    def test_grid_segments_cover_all(self):
        seg = grid_segments(28, 28, 49)
        assert seg.shape == (28, 28)
        assert set(np.unique(seg)) == set(range(49))

    def test_slic_like_segments_valid(self, images):
        seg = slic_like_segments(images[0], 16)
        assert seg.shape == (28, 28)
        assert seg.max() < 16

    def test_planted_superpixel_wins(self):
        dims = (56, 56, 3)
        region = se.Rect(16, 16, 16, 16)  # exactly covers four 8x8 superpixels
        scorer = se.LinearToyScorer.planted(dims, region, embed_dim=16, seed=2)
        rng = np.random.default_rng(4)
        query = rng.random(dims)
        query[16:32, 16:32, :] = 0.9
        cfg = se.SaliencyConfig(method=se.Method.LIME, seed=9)
        smap = se.lime(scorer, query, query, cfg)
        seg = grid_segments(56, 56, 49)
        peak_seg = int(seg.ravel()[np.argmax(smap.data)])
        cells = np.argwhere(seg == peak_seg)
        assert np.all((cells >= 16) & (cells < 32))

    def test_dual_unsupported(self, planted, images):
        _, scorer = planted
        with pytest.raises(UnsupportedError):
            se.lime(scorer, images[0], images[1],
                    small_cfg(se.Method.LIME, fixed_reference=False))

    def test_nonconvergence_surfaces(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.LIME,
                        lime=se.LimeCfg(n_samples=200, n_segments=49,
                                        lasso_alpha=1e-9, max_sweeps=1))
        with pytest.raises(ConvergenceError) as err:
            se.lime(scorer, images[0], images[1], cfg)
        assert err.value.iterations == 1

    def test_map_paints_whole_superpixels(self, planted, images):
        _, scorer = planted
        smap = se.lime(scorer, images[0], images[1], small_cfg(se.Method.LIME))
        seg = grid_segments(28, 28, 49)
        for s in range(10):
            values = smap.data[seg == s]
            assert np.all(values == values.flat[0])


class TestMask:
    def test_gradient_matches_finite_differences(self, planted, images):
        _, scorer = planted
        rng = np.random.default_rng(0)
        for dual in (False, True):
            problem = MaskObjective(scorer, images[0], images[1],
                                    se.MaskCfg(grid=5), dual=dual, seed=1)
            theta = rng.normal(scale=0.5, size=problem.n_params)
            _, grad = problem.value_and_grad(theta)
            eps = 1e-3
            for _ in range(10):
                k = int(rng.integers(problem.n_params))
                tp, tm = theta.copy(), theta.copy()
                tp[k] += eps
                tm[k] -= eps
                fd = (problem.value(tp) - problem.value(tm)) / (2 * eps)
                assert abs(fd - grad[k]) <= 1e-4 * max(abs(fd), 1e-8)

    def test_tv_domination_degenerates(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.MASK,
                        mask=se.MaskCfg(grid=5, iters=30, lr=0.1, tv_weight=1e9, l1_weight=0.0))
        assert se.mask_learn(scorer, images[0], images[1], cfg).degenerate

    def test_no_grad_no_fallback_unsupported(self, images):
        const = se.ConstantScorer(DIMS)
        with pytest.raises(UnsupportedError):
            se.mask_learn(const, images[0], images[1], small_cfg(se.Method.MASK))

    def test_divergence_raises_with_trace(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.MASK,
                        mask=se.MaskCfg(grid=5, iters=5, lr=0.1, tv_weight=float("inf")))
        with pytest.raises(OptimizationError) as err:
            se.mask_learn(scorer, images[0], images[1], cfg)
        assert isinstance(err.value.trace, list)

    def test_finds_planted_region(self, planted):
        region, scorer = planted
        rng = np.random.default_rng(1)
        query = rng.random(DIMS)
        cfg = small_cfg(se.Method.MASK, mask=se.MaskCfg(grid=7, iters=300, lr=0.1,
                                                        tv_weight=0.01, l1_weight=0.005))
        smap = se.mask_learn(scorer, query, query, cfg)
        assert not smap.degenerate
        up = se.resize_map(smap.data, 28, 28, mode="bilinear")
        r, c = np.unravel_index(np.argmax(up), up.shape)
        pad = 4
        assert region.top - pad <= r < region.top + region.height + pad
        assert region.left - pad <= c < region.left + region.width + pad

    def test_fd_fallback_matches_analytic_direction(self, planted, images):
        _, scorer = planted
        cfg_fd = se.MaskCfg(grid=5, iters=1, lr=0.1, fd_fallback=True)
        analytic = MaskObjective(scorer, images[0], images[1], se.MaskCfg(grid=5), seed=1)
        theta = np.zeros(analytic.n_params)
        _, g_true = analytic.value_and_grad(theta)

        class NoGrad(Scorer):
            dims = DIMS
            caps = dataclasses.replace(scorer.caps, can_grad=False)
            score = staticmethod(scorer.score)
            score_batch = staticmethod(scorer.score_batch)

        fd_problem = MaskObjective(NoGrad(), images[0], images[1], cfg_fd, seed=1)
        _, g_fd = fd_problem.value_and_grad(theta)
        cos = float(g_true @ g_fd / (np.linalg.norm(g_true) * np.linalg.norm(g_fd)))
        assert cos > 0.99

    def test_dual_mask_runs(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.MASK, fixed_reference=False,
                        mask=se.MaskCfg(grid=5, iters=20, lr=0.1))
        smap = se.mask_learn(scorer, images[0], images[1], cfg)
        assert smap.data.shape == (5, 5)
        assert not smap.fixed_reference


class TestDeterminismAndInvariants:
    @pytest.mark.parametrize("method", list(se.Method))
    def test_bit_identical_repeats(self, method, planted, images):
        _, scorer = planted
        cfg = small_cfg(method, seed=11)
        a = se.generate(scorer, images[0], images[1], cfg)
        b = se.generate(scorer, images[0], images[1], cfg)
        assert a == b

    def test_different_seeds_differ(self, planted, images):
        _, scorer = planted
        a = se.generate(scorer, images[0], images[1], small_cfg(se.Method.RISE, seed=1))
        b = se.generate(scorer, images[0], images[1], small_cfg(se.Method.RISE, seed=2))
        assert not np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("method", list(se.Method))
    def test_output_is_normalized(self, method, planted, images):
        _, scorer = planted
        smap = se.generate(scorer, images[0], images[1], small_cfg(method))
        assert smap.normalized
        if smap.data.any():
            assert smap.data.min() == 0.0 and smap.data.max() == 1.0

    @pytest.mark.parametrize("method", [se.Method.SLIDING_WINDOW, se.Method.RISE])
    def test_affine_score_transform_keeps_argmax(self, method, planted):
        region, scorer = planted

        class Affine(Scorer):
            dims = DIMS

            @property
            def caps(self):
                return scorer.caps

            def score(self, ref, query):
                return 2.0 * scorer.score(ref, query) + 0.3

            def score_batch(self, ref, queries):
                return 2.0 * scorer.score_batch(ref, queries) + 0.3

        rng = np.random.default_rng(1)
        query = rng.random(DIMS)
        base = se.generate(scorer, query, query, small_cfg(method, seed=5))
        moved = se.generate(Affine(), query, query, small_cfg(method, seed=5))
        assert np.argmax(base.data) == np.argmax(moved.data)
