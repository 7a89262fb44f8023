import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simexplain as se
from simexplain import saliency
from simexplain.core import make_rng, resize_average_pool
from simexplain.errors import (
    ConvergenceError,
    InvalidArgumentError,
    InvalidDataError,
    OptimizationError,
    UnsupportedError,
)
from simexplain.external import _ScoreOnly
from simexplain.saliency import (
    _CHUNK,
    _STREAM_QUERY_MASKS,
    MaskObjective,
    _interp_matrix,
    _masked,
    _Boxes,
    _Nested,
    _occlusion_boxes,
    _occlusion_keep,
    _references,
    _Selections,
    _window_origins,
    _window_side,
    grid_segments,
    map_codes,
    query_maps,
    sample_rise_masks,
    score_masked,
    slic_like_segments,
)
from simexplain.scorers import Scorer, _cosine_grad_pair, score_image_stack

from conftest import ConstantScorer, assert_query_maps_equal_single_pairs

DIMS = (28, 28, 3)
# one float32 ulp at 1.0, the largest value of a normalized map
F32_ULP = 2.0 ** -23


def full_masks(masks) -> np.ndarray:
    """All of a RISE draw's masks at full resolution, built _CHUNK at a time."""
    return np.concatenate([masks.block(s, s + _CHUNK) for s in range(0, len(masks), _CHUNK)])


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
        for bad in ({"lr": math.nan}, {"lr": -0.1}, {"lr": 0.0}, {"lr": math.inf}, {"tv_weight": -1.0},
                    {"tv_weight": math.inf}, {"l1_weight": math.nan}, {"l1_weight": -0.5}):
            with pytest.raises(InvalidArgumentError):
                se.MaskCfg(**bad)
        for alpha in (math.nan, math.inf, -1.0):
            with pytest.raises(InvalidArgumentError):
                se.LimeCfg(lasso_alpha=alpha)
        # the boundary values stay valid
        se.MaskCfg(tv_weight=0.0, l1_weight=0.0)
        se.LimeCfg(lasso_alpha=0.0)


    @pytest.mark.parametrize("key, count, nearest", [("windows_query", 50, "49 or 64"), ("windows_query", 2, "1 or 4"),
                                                     ("windows_query", 8, "4 or 9"), ("windows_ref", 35, "25 or 36")])
    def test_non_square_window_count_rejected(self, key, count, nearest):
        # 50 windows would be a 7 x 7 lattice of 49, 2 one window, 8 nine
        with pytest.raises(InvalidArgumentError, match=f"{key} must be a square number, such as {nearest}"):
            se.SlidingCfg(**{key: count})
        se.SlidingCfg(**{key: math.isqrt(count) ** 2})

    @pytest.mark.parametrize("count, nearest", [(50, "49 or 64"), (57, "49 or 64"), (2, "1 or 4"), (15, "9 or 16")])
    def test_non_square_segment_count_rejected(self, count, nearest):
        # the grid segmentation has g x g cells: 50 would give 49 segments
        # and 57 would give 64
        with pytest.raises(InvalidArgumentError, match=f"n_segments must be a square number, such as {nearest}"):
            se.LimeCfg(n_segments=count)
        square = se.LimeCfg(n_segments=math.isqrt(count) ** 2).n_segments
        assert len(np.unique(saliency.grid_segments(28, 28, square))) == square


class TestDegenerateScorer:
    @pytest.mark.parametrize("method", [se.Method.SLIDING_WINDOW, se.Method.RISE, se.Method.LIME])
    def test_constant_scorer_degenerates(self, method, images):
        const = ConstantScorer(DIMS, value=0.4)
        smap = se.generate(const, images[0], images[1], small_cfg(method))
        assert smap.degenerate

    @pytest.mark.parametrize("method", [se.Method.SLIDING_WINDOW, se.Method.RISE, se.Method.LIME])
    def test_non_finite_scores_rejected(self, method, images):
        nan_scorer = ConstantScorer(DIMS, value=float("nan"))
        with pytest.raises(InvalidDataError):
            se.generate(nan_scorer, images[0], images[1], small_cfg(method))

    def test_all_ones_masks_degenerate(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.RISE, rise=se.RiseCfg(n_masks=50, grid=7, keep_prob=1 - 1e-12))
        assert se.generate(scorer, images[0], images[1], cfg).degenerate


def assert_dual_identity_reduces_to_fixed(method, planted, images, monkeypatch):
    """With one all-ones reference keep mask the dual-mode reference
    variant is the reference itself, so dual and fixed maps are equal."""
    _, scorer = planted
    fixed = se.generate(scorer, images[0], images[1], small_cfg(method, seed=3))
    monkeypatch.setattr("simexplain.saliency._reference_keep", lambda cfg, h, w: np.ones((1, h, w)))
    dual = se.generate(scorer, images[0], images[1], small_cfg(method, seed=3, fixed_reference=False))
    np.testing.assert_array_equal(fixed.data, dual.data)
    assert not dual.fixed_reference


class TestSlidingWindow:
    def test_dual_identity_reduces_to_fixed(self, planted, images, monkeypatch):
        assert_dual_identity_reduces_to_fixed(se.Method.SLIDING_WINDOW, planted, images, monkeypatch)

    def test_window_side_arithmetic(self):
        assert _window_side(0.12, 56, 56) == round(math.sqrt(0.12 * 56 * 56)) == 19

    def test_origins_cover_extent(self):
        origins = _window_origins(56, 19, 25)
        assert origins[0] == 0 and origins[-1] == 56 - 19
        assert len(origins) == 25

    def test_window_larger_than_image_rejected(self):
        # a square window sized from the full area exceeds the short side
        # of a non-square image
        with pytest.raises(InvalidArgumentError):
            _occlusion_keep(10, 4, 4, 0.9)

    def test_keep_masks_equal_copy_and_zero_occlusions(self, images):
        # the occlusion stack built the old way, by copying the query and
        # zeroing each window, has the same bits as query * keep
        query = images[1]
        keep = _occlusion_keep(28, 28, 81, 0.1)
        assert keep.dtype == bool
        side = _window_side(0.1, 28, 28)
        old = []
        for r in _window_origins(28, side, 9):
            for c in _window_origins(28, side, 9):
                v = query.copy()
                v[r:r + side, c:c + side, :] = 0.0
                old.append(v)
        assert (query[None] * keep[..., None]).tobytes() == np.array(old).tobytes()

    def test_untouched_support_gets_zero(self, planted):
        region, scorer = planted
        rng = np.random.default_rng(0)
        query = rng.random(DIMS)
        smap = se.generate(scorer, query, query, small_cfg(se.Method.SLIDING_WINDOW))
        # occlusions away from the planted region cannot move a score whose
        # weights are zero there, so far corners normalize to exactly 0
        assert smap.data[-1, -1] == 0.0
        assert smap.data[:, :2].max() <= smap.data[region.top:region.top + region.height,
                                                   region.left:region.left + region.width].max()

    def test_map_peaks_inside_planted_region(self, planted):
        region, scorer = planted
        rng = np.random.default_rng(1)
        query = rng.random(DIMS)
        smap = se.generate(scorer, query, query, small_cfg(se.Method.SLIDING_WINDOW))
        r, c = np.unravel_index(np.argmax(smap.data), smap.data.shape)
        assert region.covers(int(r), int(c))


class TestRise:
    def test_mask_statistics_within_3_sigma(self):
        # each pixel of an upsampled mask blends Bernoulli(0.5) cells, so
        # its mean over 400 masks stays within 3 sigma of the keep rate
        cfg = se.RiseCfg(n_masks=400, grid=6, keep_prob=0.5)
        masks = full_masks(sample_rise_masks(cfg, 28, 28, seed=5))
        assert masks.shape == (400, 28, 28)
        sigma = math.sqrt(0.5 * 0.5 / 400)
        assert np.all(np.abs(masks.mean(axis=0) - 0.5) <= 3 * sigma + 1e-12)

    def test_upsampled_masks_are_continuous(self):
        cfg = se.RiseCfg(n_masks=4, grid=7, keep_prob=0.5)
        masks = full_masks(sample_rise_masks(cfg, 28, 28, seed=5))
        assert masks.min() >= 0.0 and masks.max() <= 1.0
        jumps = np.abs(np.diff(masks, axis=2)).max()
        assert jumps < 0.5  # bilinear cells blend, no hard 0->1 steps

    @settings(max_examples=300, deadline=None)
    @given(grid=st.integers(1, 16), height=st.integers(1, 64), width=st.integers(1, 64),
           seed=st.integers(0, 2**16))
    def test_upsampled_grids_need_no_clip(self, grid, height, width, seed):
        # an upsampled 0/1 grid is a convex combination of 0 and 1, and its
        # rounding keeps it in [0, 1]; an all-ones grid is the closest to
        # leaving it, so the block builder needs no clip and the map may
        # be summed in grid space
        masks = sample_rise_masks(se.RiseCfg(n_masks=8, grid=grid), height, width, seed)
        masks = dataclasses.replace(masks, grids=np.concatenate([np.ones((1, grid, grid)), masks.grids[1:]]))
        full = masks.block(0, len(masks))
        assert full.min() >= 0.0 and full.max() <= 1.0

    def test_reproducible_from_seed(self):
        cfg = se.RiseCfg(n_masks=10, grid=5, keep_prob=0.4)
        a = sample_rise_masks(cfg, 20, 20, seed=9)
        b = sample_rise_masks(cfg, 20, 20, seed=9)
        for field in ("grids", "dy", "dx"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        np.testing.assert_array_equal(full_masks(a), full_masks(b))

    def test_cell_weight_tracks_planted_mass(self):
        # seed-averaged map vs analytic |weight| mass per low-res cell
        dims = (56, 56, 3)
        scorer = se.LinearToyScorer.planted(dims, se.Rect(10, 18, 20, 22), embed_dim=16, seed=2)
        query = np.ones(dims) * 0.8
        maps = []
        for seed in (3, 5, 7, 11, 13):
            cfg = se.SaliencyConfig(method=se.Method.RISE, seed=seed)
            maps.append(se.generate(scorer, query, query, cfg).data.astype(np.float64))
        pooled = resize_average_pool(np.mean(maps, axis=0), 8, 8).ravel()
        weight_img = np.abs(scorer.weight.reshape(16, 56, 56, 3)).sum(axis=(0, 3))
        mass = resize_average_pool(weight_img, 8, 8).ravel()
        r = np.corrcoef(pooled, mass)[0, 1]
        assert r > 0.8

    def test_dual_identity_reduces_to_fixed(self, planted, images, monkeypatch):
        assert_dual_identity_reduces_to_fixed(se.Method.RISE, planted, images, monkeypatch)

    def test_dual_mode_runs(self, planted, images):
        _, scorer = planted
        smap = se.generate(scorer, images[0], images[1],
                           small_cfg(se.Method.RISE, seed=3, fixed_reference=False))
        assert not smap.fixed_reference
        assert smap.normalized

    def test_raw_map_argmax_survives_normalization(self, planted, images):
        # recompute the raw score-weighted mask sum and check that the
        # normalized map generate() publishes keeps its argmax pixel
        _, scorer = planted
        cfg = small_cfg(se.Method.RISE, seed=3)
        masks = full_masks(sample_rise_masks(cfg.rise, 28, 28, cfg.seed))
        stack = images[1][None, :, :, :] * masks[:, :, :, None]
        scores = score_image_stack(scorer, images[0], stack)
        raw = np.einsum("n,nhw->hw", scores, masks) / (len(masks) * cfg.rise.keep_prob)
        published = se.generate(scorer, images[0], images[1], cfg)
        assert np.argmax(raw) == np.argmax(published.data)


class TestDualEmbedOnce:
    @pytest.mark.parametrize("method, n_query, n_ref", [
        (se.Method.RISE, 200, 6),
        (se.Method.SLIDING_WINDOW, 81 + 1, 9),  # the windows plus the unoccluded query
    ])
    def test_embedded_path_equals_per_reference_loop(self, method, n_query, n_ref, planted, images,
                                                     monkeypatch):
        from simexplain.external import _ScoreOnly

        from simexplain import saliency

        _, scorer = planted
        cfg = small_cfg(method, seed=3, fixed_reference=False)
        reference_path = se.generate(_ScoreOnly(scorer), images[0], images[1], cfg)
        embedded = []
        project, project_codes = scorer.embed_batch_flat, saliency.embed_codes

        def counting(rows):
            # the reference variants
            embedded.append(rows.shape[0])
            return project(rows)

        def counting_codes(kernel, codes):
            # the query rows, embedded from their grids or keep masks
            embedded.append(codes.shape[0])
            return project_codes(kernel, codes)

        def counting_boxes(boxes, kernel):
            # the occlusion rows, embedded from a summed-area table
            embedded.append(len(boxes))
            return project_boxes(boxes, kernel)

        project_boxes = saliency._Boxes.embed
        monkeypatch.setattr(scorer, "embed_batch_flat", counting)
        monkeypatch.setattr(saliency, "embed_codes", counting_codes)
        monkeypatch.setattr(saliency._Boxes, "embed", counting_boxes)
        fast = se.generate(scorer, images[0], images[1], cfg)
        if method is se.Method.RISE:
            # rows from the grids sum in another order than the masked copies
            np.testing.assert_allclose(fast.data, reference_path.data, rtol=0, atol=F32_ULP)
        else:
            assert fast.data.tobytes() == reference_path.data.tobytes()
        # each query variant (from its grid or box) and each reference
        # variant is embedded once
        assert sum(embedded) == n_query + n_ref


class TestBlocks:
    """score_masked and the RISE block builder work through their masks
    _CHUNK at a time; every count around a block edge gives the one-shot
    result."""

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("n_refs", [1, 3])
    @pytest.mark.parametrize("score_only", [False, True], ids=["embedding", "score-only"])
    def test_score_masked_equals_whole_stack(self, n, n_refs, score_only, planted, images):
        _, scorer = planted
        rng = np.random.default_rng(n)
        masks = sample_rise_masks(se.RiseCfg(n_masks=n, grid=7), *DIMS[:2], seed=n)
        refs = [images[0]] + [rng.random(DIMS) for _ in range(n_refs - 1)]
        expected = _stack_scores(scorer, refs, images[1], full_masks(masks))
        got = score_masked(_ScoreOnly(scorer) if score_only else scorer, refs, images[1], masks)
        if score_only:
            assert got.tobytes() == expected.tobytes()
        else:
            # the keep kernel sums each embedding in another order
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    @pytest.mark.parametrize("height, width, grid", [(28, 28, 7), (30, 17, 5)])
    def test_rise_masks_equal_one_shot_formula(self, n, height, width, grid):
        cfg = se.RiseCfg(n_masks=n, grid=grid, keep_prob=0.4)
        rng = make_rng(9, _STREAM_QUERY_MASKS)
        lowres = (rng.random((n, grid, grid)) < cfg.keep_prob).astype(np.float64)
        cell_h, cell_w = math.ceil(height / grid), math.ceil(width / grid)
        oversize = np.einsum("ri,nij,jc->nrc", _interp_matrix(grid, (grid + 1) * cell_h), lowres,
                             _interp_matrix(grid, (grid + 1) * cell_w).T, optimize=True)
        dy = rng.integers(0, cell_h, size=n)
        dx = rng.integers(0, cell_w, size=n)
        cropped = np.array([oversize[k, dy[k]:dy[k] + height, dx[k]:dx[k] + width] for k in range(n)])
        one_shot = np.clip(cropped, 0.0, 1.0)
        assert full_masks(sample_rise_masks(cfg, height, width, seed=9)).tobytes() == one_shot.tobytes()


def _stack_scores(scorer, refs, query, keep) -> np.ndarray:
    """The reference for score_masked: the masked copies of the query under
    the (N, H, W) keep masks, scored as one stack against each reference,
    summed in reference order and averaged."""
    stack = _masked(query, keep)
    total = np.zeros(len(keep))
    for ref in refs:
        total += score_image_stack(scorer, ref, stack)
    return total / len(refs)


def _method_masks(kind: str, n: int, rng):
    """n keep masks of one kind a method or curve makes, in their code form,
    the first keeping no pixel."""
    h, w = DIMS[:2]
    if kind == "rise":
        masks = sample_rise_masks(se.RiseCfg(n_masks=n, grid=7), h, w, seed=n)
        masks.grids[0] = 0.0
    elif kind == "occlusion":
        windows = _occlusion_boxes(h, w, 81, 0.1)
        sides = [side[np.arange(n) % 81] for side in (windows.top, windows.bottom, windows.left, windows.right)]
        masks = _Boxes(*sides, (h, w))
        masks.top[0], masks.bottom[0], masks.left[0], masks.right[0] = 0, h, 0, w
    elif kind == "lime":
        masks = _Selections(rng.random((n, 49)) < 0.5, grid_segments(h, w, 49))
        masks.keep[0] = False
    else:  # the curves' top-k pixel selections
        masks = _code_form("insertion", n, rng)
        masks.counts[0] = 0
    return masks


class TestFactorizedKernel:
    """score_masked embeds query * keep from the codes of the keep masks
    alone, through the query's keep kernel. It sums in another order than
    embedding the masked copies of the form's own blocks, so the two paths
    agree within 1e-9, and a score-only scorer, which is given those
    copies, keeps their bits; each row is still independent of N."""

    KINDS = ["rise", "occlusion", "lime", "curve"]

    @pytest.fixture(scope="class")
    def scorer(self):
        return se.LinearToyScorer.random(DIMS, embed_dim=8, seed=5)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_agrees_with_stack_path(self, kind, n, scorer, images):
        ref, query = images
        masks = _method_masks(kind, n, np.random.default_rng(n))
        stack = _masked(query, masks.block(0, n))
        rows = masks.embed(scorer.keep_kernel(query))
        stack_rows = scorer.embed_batch_flat(stack.reshape(n, -1))
        np.testing.assert_allclose(rows.emb, stack_rows.emb, rtol=0, atol=1e-9)
        np.testing.assert_allclose(rows.norms, stack_rows.norms, rtol=0, atol=1e-9)
        got = score_masked(scorer, [ref], query, masks)
        expected = score_image_stack(scorer, ref, stack)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
        assert got[0] == 0.0 and expected[0] == 0.0
        assert score_masked(_ScoreOnly(scorer), [ref], query, masks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("score_only", [False, True], ids=["embedding", "score-only"])
    def test_keep_masks_of_another_shape_rejected(self, score_only, scorer, images):
        scorer = _ScoreOnly(scorer) if score_only else scorer
        rng = np.random.default_rng(0)
        for masks in (sample_rise_masks(se.RiseCfg(n_masks=2, grid=7), 28, 27, seed=0),
                      _Selections(rng.random((2, 4)) < 0.5, grid_segments(27, 28, 4)),
                      _code_form("boxes", 2, rng, shape=(28, 27)), _code_form("insertion", 2, rng, shape=(27, 28))):
            with pytest.raises(InvalidArgumentError, match="code form"):
                score_masked(scorer, [images[0]], images[1], masks)

    @pytest.mark.parametrize("score_only", [False, True], ids=["embedding", "score-only"])
    def test_arrays_are_refused_before_any_scorer_call(self, score_only, images, monkeypatch):
        # the pixel-array mask form is retired: an (N, H, W) array, boolean
        # or float, is no code form
        inner = se.LinearToyScorer.random(DIMS, embed_dim=8, seed=5)
        calls = []
        for name in ("keep_kernel", "embed_batch_flat", "score_batch", "score_batch_flat"):
            monkeypatch.setattr(inner, name, lambda *args, name=name: calls.append(name))
        scorer = _ScoreOnly(inner) if score_only else inner
        for keep in (np.ones((3, 28, 28), dtype=bool), np.random.default_rng(0).random((3, 28, 28))):
            with pytest.raises(InvalidArgumentError, match="code form"):
                score_masked(scorer, [images[0]], images[1], keep)
        assert calls == []

    @pytest.mark.parametrize("kind", KINDS + ["boxes", "nested"])
    def test_rows_equal_single_mask_calls_zero_ulp(self, kind, scorer, images):
        ref, query = images
        n, rng = 2 * _CHUNK + 3, np.random.default_rng(1)
        if kind == "boxes":
            forms = [_code_form(kind, n, rng)]
        elif kind == "nested":
            forms = [_code_form(direction, n, rng) for direction in ("insertion", "deletion")]
        else:
            forms = [_method_masks(kind, n, rng)]
        for masks in forms:
            batch = score_masked(scorer, [ref], query, masks)
            singles = np.concatenate([score_masked(scorer, [ref], query, _part(masks, slice(i, i + 1)))
                                      for i in range(n)])
            assert batch.tobytes() == singles.tobytes()


def _code_form(kind: str, n: int, rng, shape=DIMS[:2]):
    """n random boxes (the first empty, the second the whole image), or n
    insertion or deletion steps over a random pixel order (the first of
    count 0, the last of count H*W)."""
    h, w = shape
    if kind == "boxes":
        rows = np.sort(rng.integers(0, h + 1, size=(n, 2)), axis=1)
        cols = np.sort(rng.integers(0, w + 1, size=(n, 2)), axis=1)
        rows[0] = cols[0] = 0
        rows[1:2], cols[1:2] = (0, h), (0, w)
        return _Boxes(rows[:, 0], rows[:, 1], cols[:, 0], cols[:, 1], shape)
    counts = rng.integers(0, h * w + 1, size=n)
    counts[0], counts[-1] = 0, h * w
    return _Nested(rng.permutation(h * w), counts, kind == "insertion", shape)


def _part(masks, part):
    """The masks ``part`` (a slice or index array) of a code form, as a
    form of their own."""
    if isinstance(masks, saliency.RiseMasks):
        return dataclasses.replace(masks, grids=masks.grids[part], dy=masks.dy[part], dx=masks.dx[part])
    if isinstance(masks, _Selections):
        return dataclasses.replace(masks, keep=masks.keep[part])
    if isinstance(masks, _Boxes):
        return _Boxes(*(side[part] for side in (masks.top, masks.bottom, masks.left, masks.right)), masks.shape)
    return dataclasses.replace(masks, counts=masks.counts[part])


def _occlusion_keep_by_window(height: int, width: int, n_windows: int, area_frac: float) -> np.ndarray:
    """The occlusion keep masks drawn one window at a time into a stack of
    ones: the reference for the boxes."""
    g = math.isqrt(n_windows)
    side = _window_side(area_frac, height, width)
    keep = np.ones((g * g, height, width), dtype=bool)
    origins = [(r, c) for r in _window_origins(height, side, g) for c in _window_origins(width, side, g)]
    for k, (r, c) in enumerate(origins):
        keep[k, r:r + side, c:c + side] = False
    return keep


class TestBoxesAndNested:
    """Occlusion windows embed as the whole image's row less a box, from a
    summed-area table of the keep kernel, and curve steps as prefix or
    suffix sums of its columns in the pixel order. Both sum in another
    order than embedding their masked copies, so rows agree within 1e-9;
    their blocks are the full-resolution masks byte for byte, so a
    score-only scorer keeps the bits of scoring those copies."""

    @pytest.fixture(scope="class")
    def scorer(self):
        return se.LinearToyScorer.random(DIMS, embed_dim=8, seed=5)

    @pytest.mark.parametrize("kind", ["boxes", "insertion", "deletion"])
    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_rows_agree_with_pixels(self, kind, n, scorer, images):
        ref, query = images
        form = _code_form(kind, n, np.random.default_rng(n))
        keep = form.block(0, n)
        rows = form.embed(scorer.keep_kernel(query))
        stack_rows = scorer.embed_batch_flat(_masked(query, keep).reshape(n, -1))
        np.testing.assert_allclose(rows.emb, stack_rows.emb, rtol=0, atol=1e-9)
        np.testing.assert_allclose(rows.norms, stack_rows.norms, rtol=0, atol=1e-9)
        expected = _stack_scores(scorer, [ref], query, keep)
        np.testing.assert_allclose(score_masked(scorer, [ref], query, form), expected, rtol=0, atol=1e-9)
        assert score_masked(_ScoreOnly(scorer), [ref], query, form).tobytes() == expected.tobytes()
        # _CHUNK-sized blocks give the whole stack's masks
        assert np.concatenate([form.block(s, s + _CHUNK) for s in range(0, n, _CHUNK)]).tobytes() == keep.tobytes()

    def test_empty_steps_embed_and_score_to_exact_zero(self, scorer, images):
        # deletion rows are suffix sums, not the whole less a prefix, so
        # the last deletion step is 0 and not a residual under NORM_EPS
        ref, query = images
        h, w = DIMS[:2]
        for kind, empty in (("insertion", 0), ("deletion", -1)):
            steps = _code_form(kind, 9, np.random.default_rng(4))
            rows = steps.embed(scorer.keep_kernel(query))
            assert rows.emb[empty].tobytes() == np.zeros(rows.shape[1]).tobytes()
            assert score_masked(scorer, [ref], query, steps)[empty] == 0.0

    @pytest.mark.parametrize("height, width, n_windows, area_frac",
                             [(28, 28, 81, 0.1), (56, 56, 625, 0.12), (30, 17, 9, 0.2), (28, 28, 1, 0.1)])
    def test_occlusion_boxes_block_and_cover(self, height, width, n_windows, area_frac):
        boxes = _occlusion_boxes(height, width, n_windows, area_frac)
        keep = _occlusion_keep_by_window(height, width, n_windows, area_frac)
        assert _occlusion_keep(height, width, n_windows, area_frac).tobytes() == keep.tobytes()
        # the windows, then the unoccluded image as an empty box
        whole = np.concatenate([keep, np.ones((1, height, width), dtype=bool)])
        assert boxes.block(0, len(boxes)).tobytes() == whole.tobytes()
        np.testing.assert_array_equal(boxes.cover, (~keep).sum(axis=0))

    @pytest.mark.parametrize("insertion", [True, False])
    def test_nested_block_equals_selection_masks(self, insertion):
        # the masks as the curves selected pixels: by rank below the count
        h, w = DIMS[:2]
        steps = _code_form("insertion" if insertion else "deletion", 40, np.random.default_rng(8))
        rank = np.empty(h * w, dtype=np.intp)
        rank[steps.order] = np.arange(h * w)
        selected = rank[None, :] < steps.counts[:, None]
        keep = (selected if insertion else ~selected).reshape(-1, h, w)
        assert steps.block(0, len(steps)).tobytes() == keep.tobytes()

    def test_sliding_window_drops_equal_masked_window_sums(self, planted, images):
        # the drops are summed window by window over each box's slice, in
        # the order and with the bits of a masked add over each window
        _, scorer = planted
        cfg = small_cfg(se.Method.SLIDING_WINDOW)
        codes = map_codes(cfg, *DIMS[:2])
        assert isinstance(codes.masks, _Boxes) and len(codes.masks) == 81 + 1
        masks, aggregate = saliency._sliding_window(codes, images[1])
        scores = score_masked(scorer, [images[0]], images[1], masks)
        occluded = ~masks.block(0, len(masks))[:-1]
        drop_sum = np.zeros(DIMS[:2])
        for s_occ, window in zip(scores[:-1], occluded):
            np.add(drop_sum, float(scores[-1]) - s_occ, out=drop_sum, where=window)
        cover = occluded.sum(axis=0)
        expected = np.divide(drop_sum, cover, out=np.zeros_like(drop_sum), where=cover > 0)
        assert aggregate(scores).tobytes() == expected.tobytes()


def _traced_peak(fn, *args) -> int:
    """Bytes fn(*args) allocates at its peak, beyond what was live before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockMemory:
    BIG = (56, 56, 3)

    @pytest.fixture(scope="class")
    def inputs(self):
        masks = sample_rise_masks(se.RiseCfg(n_masks=1000), *self.BIG[:2], seed=0)
        query = np.random.default_rng(0).random(self.BIG)
        return masks, query, se.LinearToyScorer.random(self.BIG, seed=0)

    def test_score_masked_peak_is_a_block_not_the_stack(self, inputs):
        masks, query, scorer = inputs
        full_stack = len(masks) * query.nbytes  # the (1000, 56, 56, 3) float64 stack, 75 MB
        assert _traced_peak(score_masked, scorer, [query, query], query, masks) < full_stack / 4

    def test_score_only_peak_does_not_grow_with_mask_count(self, inputs):
        masks, query, scorer = inputs
        few = _traced_peak(score_masked, _ScoreOnly(scorer), [query], query, _part(masks, slice(0, _CHUNK + 1)))
        many = _traced_peak(score_masked, _ScoreOnly(scorer), [query], query, masks)
        assert many < few + 2**20

    def test_score_only_holds_each_block_once(self, inputs):
        # the wrapper hands the block's rows to the inner scorer as they are,
        # so no second copy of a masked block is made
        masks, query, scorer = inputs
        block = _CHUNK * query.nbytes  # 128 masked 56x56x3 float64 images, 9.6 MB
        assert _traced_peak(score_masked, _ScoreOnly(scorer), [query], query, masks) < 1.5 * block

    @staticmethod
    def _rise_peak(scorer, query, n_masks: int) -> int:
        cfg = se.SaliencyConfig(method=se.Method.RISE, rise=se.RiseCfg(n_masks=n_masks))
        return _traced_peak(se.generate, scorer, query, query, cfg)

    def test_rise_peak_grows_only_by_grids_and_rows(self, inputs):
        # per mask: its (g, g) grid and (D,) row, plus 16 float64 values of
        # bookkeeping (offsets, norm, score); a full-resolution mask alone
        # would be 56 * 56 float64 values
        _, query, scorer = inputs
        g, d = se.RiseCfg().grid, scorer.embed_dim
        growth = self._rise_peak(scorer, query, 2500) - self._rise_peak(scorer, query, 500)
        assert growth < 2000 * 8 * (g * g + d + 16)

    def test_rise_score_only_peak_grows_by_less_than_a_block(self, inputs):
        _, query, scorer = inputs
        score_only = _ScoreOnly(scorer)
        growth = self._rise_peak(score_only, query, 1000) - self._rise_peak(score_only, query, _CHUNK + 1)
        assert growth < _CHUNK * self.BIG[0] * self.BIG[1] * 8  # one block of full-resolution masks


def _triplet(dims, seed=0):
    """A triplet scorer with its initial weights: the trained model's
    linear structure without a dataset to fit."""
    return se.TripletToyScorer(make_rng(seed, 1).normal(scale=0.1, size=(8, math.prod(dims))), dims)


class TestCodePath:
    """RISE and LIME embed their masked queries from low-dimensional codes
    (grid cells at a crop offset, superpixel choices) through the query's
    keep kernel, and RISE sums its map per offset in grid space. Both sum
    in another order than the materialized-mask path (the masked copies of
    the full keep masks, scored as one stack), so scores agree within
    1e-12 and RISE map sums within 1e-12 per mask; a score-only scorer gets
    those blocks of masks and the stack's score bits."""

    TOL = 1e-12

    @staticmethod
    def _scorer(kind, dims):
        if kind == "planted":
            return se.LinearToyScorer.planted(dims, se.Rect(6, 4, 10, 8), embed_dim=8, seed=2)
        return _triplet(dims)

    @pytest.mark.parametrize("dims", [(28, 28, 3), (30, 17, 3)], ids=["square", "30x17"])
    @pytest.mark.parametrize("kind", ["planted", "triplet"])
    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "dual"])
    # grid 1; a grid larger than either side (one offset); fewer masks than offsets
    @pytest.mark.parametrize("grid, n_masks", [(7, 200), (1, 40), (40, 50), (5, 3)])
    def test_rise_equals_materialized_masks(self, dims, kind, fixed, grid, n_masks):
        h, w, _ = dims
        scorer = self._scorer(kind, dims)
        rng = np.random.default_rng(grid)
        ref, query = rng.random(dims), rng.random(dims)
        cfg = small_cfg(se.Method.RISE, seed=4, fixed_reference=fixed,
                        rise=se.RiseCfg(n_masks=n_masks, grid=grid, n_ref_masks=4))
        refs = _references(ref, map_codes(cfg, h, w))
        masks = sample_rise_masks(cfg.rise, h, w, cfg.seed)
        full = full_masks(masks)
        scores = score_masked(scorer, refs, query, masks)
        expected = _stack_scores(scorer, refs, query, full)
        np.testing.assert_allclose(scores, expected, rtol=0, atol=self.TOL)
        np.testing.assert_allclose(masks.weighted_sum(scores), np.einsum("n,nhw->hw", scores, full),
                                   rtol=0, atol=self.TOL * n_masks)
        assert score_masked(_ScoreOnly(scorer), refs, query, masks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dims", [(28, 28, 3), (30, 17, 3)], ids=["square", "30x17"])
    @pytest.mark.parametrize("kind", ["planted", "triplet"])
    @pytest.mark.parametrize("segmentation", ["grid", "slic_like"])
    def test_lime_equals_materialized_masks(self, dims, kind, segmentation):
        h, w, _ = dims
        scorer = self._scorer(kind, dims)
        rng = np.random.default_rng(5)
        ref, query = rng.random(dims), rng.random(dims)
        segments = grid_segments(h, w, 49) if segmentation == "grid" else slic_like_segments(query, 49)
        keep = rng.random((300, int(segments.max()) + 1)) < 0.5
        codes = _Selections(keep, segments)
        expected = _stack_scores(scorer, [ref], query, keep[:, segments])
        np.testing.assert_allclose(score_masked(scorer, [ref], query, codes), expected, rtol=0, atol=self.TOL)
        assert score_masked(_ScoreOnly(scorer), [ref], query, codes).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_rows_are_batch_invariant(self, n, images):
        # the first n codes embed to the first n rows of the whole draw, and
        # each row to the row of that code alone
        scorer = se.LinearToyScorer.random(DIMS, embed_dim=8, seed=5)
        kernel = scorer.keep_kernel(images[1])
        total = 2 * _CHUNK + 3
        rise = sample_rise_masks(se.RiseCfg(n_masks=total, grid=7), *DIMS[:2], seed=1)
        lime = _Selections(np.random.default_rng(1).random((total, 49)) < 0.5, grid_segments(*DIMS[:2], 49))
        for whole in (rise, lime):
            every = whole.embed(kernel)
            first = _part(whole, slice(0, n)).embed(kernel)
            assert first.emb.tobytes() == every.emb[:n].tobytes()
            assert first.norms.tobytes() == every.norms[:n].tobytes()
            singles = np.concatenate([_part(whole, slice(i, i + 1)).embed(kernel).emb for i in range(n)])
            assert singles.tobytes() == first.emb.tobytes()

    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "dual"])
    def test_rise_groups_its_offsets_once(self, fixed, images, monkeypatch):
        # embed and weighted_sum read the one grouping the query masks got
        # when they were built; the reference masks of dual mode are built
        # from a RiseMasks of their own
        cfg = small_cfg(se.Method.RISE, seed=4, fixed_reference=fixed)
        scorer = se.LinearToyScorer.random(DIMS, embed_dim=8, seed=5)
        before = se.generate(scorer, images[0], images[1], cfg)
        grouped = []
        real = saliency._group_offsets
        monkeypatch.setattr(saliency, "_group_offsets", lambda dy, dx: grouped.append(dy.size) or real(dy, dx))
        after = se.generate(scorer, images[0], images[1], cfg)
        assert grouped == [cfg.rise.n_masks] + ([] if fixed else [cfg.rise.n_ref_masks])
        assert after.data.tobytes() == before.data.tobytes()


class TestLime:
    def test_grid_segments_cover_all(self):
        seg = grid_segments(28, 28, 49)
        assert seg.shape == (28, 28)
        assert set(np.unique(seg)) == set(range(49))

    def test_slic_like_segments_valid(self, images):
        seg = slic_like_segments(images[0], 16)
        assert seg.shape == (28, 28)
        assert seg.max() < 16

    def test_slic_like_empty_segment_keeps_its_center(self):
        # a black band in the five left columns: segments there go empty
        # after the first round, and a center reset to the zero vector
        # (black, top left) would split the band's top rows apart
        image = np.ones((12, 12, 3))
        image[:, :5] = 0.0
        labels = slic_like_segments(image, 9)
        assert len(np.unique(labels[:4, :5])) == 1

    def test_planted_superpixel_wins(self):
        dims = (56, 56, 3)
        region = se.Rect(16, 16, 16, 16)  # exactly covers four 8x8 superpixels
        scorer = se.LinearToyScorer.planted(dims, region, embed_dim=16, seed=2)
        rng = np.random.default_rng(4)
        query = rng.random(dims)
        query[16:32, 16:32, :] = 0.9
        cfg = se.SaliencyConfig(method=se.Method.LIME, seed=9)
        smap = se.generate(scorer, query, query, cfg)
        seg = grid_segments(56, 56, 49)
        peak_seg = int(seg.ravel()[np.argmax(smap.data)])
        cells = np.argwhere(seg == peak_seg)
        assert np.all((cells >= 16) & (cells < 32))

    def test_dual_unsupported(self, planted, images):
        _, scorer = planted
        with pytest.raises(UnsupportedError):
            se.generate(scorer, images[0], images[1],
                        small_cfg(se.Method.LIME, fixed_reference=False))

    def test_nonconvergence_surfaces(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.LIME,
                        lime=se.LimeCfg(n_samples=200, n_segments=49,
                                        lasso_alpha=1e-9, max_sweeps=1))
        with pytest.raises(ConvergenceError) as err:
            se.generate(scorer, images[0], images[1], cfg)
        assert err.value.iterations == 1

    def test_map_paints_whole_superpixels(self, planted, images):
        _, scorer = planted
        smap = se.generate(scorer, images[0], images[1], small_cfg(se.Method.LIME))
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

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("perturb", ["delete", "blur", "noise"])
    def test_preserve_sign_negates_the_score_term(self, dual, perturb):
        # with no regularizer the loss is sign * score, so -1 flips value
        # and gradient exactly
        scorer = se.LinearToyScorer.random((28, 28, 3), embed_dim=6, seed=8)
        rng = np.random.default_rng(4)
        ref, query = rng.random((28, 28, 3)), rng.random((28, 28, 3))
        out = {}
        for sign in (1.0, -1.0):
            cfg = se.MaskCfg(grid=7, tv_weight=0.0, l1_weight=0.0, perturb=perturb, preserve_sign=sign)
            problem = MaskObjective(scorer, ref, query, cfg, dual=dual, seed=1)
            out[sign] = problem.value_and_grad(np.linspace(-2.0, 2.0, problem.n_params))
        assert out[-1.0][0] == -out[1.0][0] != 0.0
        np.testing.assert_array_equal(out[-1.0][1], -out[1.0][1])
        assert np.any(out[1.0][1] != 0.0)

    @pytest.mark.parametrize("sign", [0.5, 0.0, float("nan")])
    def test_preserve_sign_must_be_plus_or_minus_one(self, sign):
        with pytest.raises(InvalidArgumentError, match="preserve_sign"):
            se.MaskCfg(preserve_sign=sign)

    @pytest.mark.parametrize("dual", [False, True])
    def test_separable_upsample_equals_dense_matrix(self, dual):
        """The objective (separable cell kernels, Laplacian TV, L1 as
        g*g - sum(m)) against a pixel-path oracle: each masked image
        composed through the dense upsampling matrix, TV as squared
        differences of adjacent cells, L1 as sum(1 - m)."""
        h, w, g = 30, 17, 5  # a non-square image, so a swapped axis shows
        tv_weight, l1_weight = 0.3, 0.07
        scorer = se.LinearToyScorer.random((h, w, 3), embed_dim=6, seed=8)
        rng = np.random.default_rng(3)
        ref, query = rng.random((h, w, 3)), rng.random((h, w, 3))
        U = np.einsum("ri,cj->rcij", _interp_matrix(g, h), _interp_matrix(g, w)).reshape(h * w, g * g)

        def tv_value_grad(m):
            dr = m[1:, :] - m[:-1, :]
            dc = m[:, 1:] - m[:, :-1]
            grad = np.zeros_like(m)
            grad[1:, :] += 2.0 * dr
            grad[:-1, :] -= 2.0 * dr
            grad[:, 1:] += 2.0 * dc
            grad[:, :-1] -= 2.0 * dc
            return float((dr**2).sum() + (dc**2).sum()), grad

        for perturb in ("delete", "noise", "blur"):
            cfg = se.MaskCfg(grid=g, tv_weight=tv_weight, l1_weight=l1_weight, perturb=perturb)
            problem = MaskObjective(scorer, ref, query, cfg, dual=dual, seed=1)
            theta = rng.normal(size=problem.n_params)
            masks = [1.0 / (1.0 + np.exp(-p.reshape(g, g))) for p in np.split(theta, len(problem.parts))]
            # the pixel path: compose each masked image through the dense U,
            # embed the pixels, and chain the pixel gradient back through U
            composed = []
            for (img, base), m in zip(problem.parts, masks):
                M = (U @ m.ravel()).reshape(h, w, 1)
                composed.append(img * M + base * (1.0 - M))
            seen = [composed[1] if dual else ref, composed[0]]
            rows = scorer.embed_batch_flat(np.stack(seen).reshape(2, -1))
            d_ref, d_query, _ = _cosine_grad_pair(rows.emb[0], rows.emb[1])
            expected_value = scorer.score(*seen)
            expected = []
            for (img, base), d, m in zip(problem.parts, (d_query, d_ref), masks):
                tv, tv_grad = tv_value_grad(m)
                expected_value += tv_weight * tv + l1_weight * float((1.0 - m).sum())
                g_pix = (d @ scorer.weight).reshape(h, w, 3)
                dm = (U.T @ (g_pix * (img - base)).sum(axis=2).ravel()).reshape(g, g) + tv_weight * tv_grad - l1_weight
                expected.append((dm * m * (1.0 - m)).ravel())
            value, grad = problem.value_and_grad(theta)
            assert abs(value - expected_value) <= 1e-12
            assert problem.value(theta) == value
            np.testing.assert_allclose(grad, np.concatenate(expected), rtol=0, atol=1e-12)

    def test_tv_domination_degenerates(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.MASK,
                        mask=se.MaskCfg(grid=5, iters=30, lr=0.1, tv_weight=1e9, l1_weight=0.0))
        assert se.generate(scorer, images[0], images[1], cfg).degenerate

    def test_no_grad_no_fallback_unsupported(self, images):
        const = ConstantScorer(DIMS)
        with pytest.raises(UnsupportedError, match="keep_kernel"):
            se.generate(const, images[0], images[1], small_cfg(se.Method.MASK))

    def test_divergence_raises_with_trace(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.MASK,
                        # a finite weight: the TV term overflows after the first step
                        mask=se.MaskCfg(grid=5, iters=5, lr=1.0, tv_weight=1e308))
        with pytest.raises(OptimizationError) as err:
            se.generate(scorer, images[0], images[1], cfg)
        assert isinstance(err.value.trace, list)

    def test_finds_planted_region(self, planted):
        region, scorer = planted
        rng = np.random.default_rng(1)
        query = rng.random(DIMS)
        cfg = small_cfg(se.Method.MASK, mask=se.MaskCfg(grid=7, iters=300, lr=0.1,
                                                        tv_weight=0.01, l1_weight=0.005))
        smap = se.generate(scorer, query, query, cfg)
        assert not smap.degenerate
        up = se.resize_bilinear(smap.data, 28, 28)
        r, c = np.unravel_index(np.argmax(up), up.shape)
        pad = 4
        assert region.top - pad <= r < region.top + region.height + pad
        assert region.left - pad <= c < region.left + region.width + pad

    @pytest.mark.parametrize("fixed", [True, False])
    def test_scorer_is_asked_only_while_the_objective_is_built(self, fixed, planted, images, monkeypatch):
        _, scorer = planted
        calls = []  # (scorer method, whether an objective evaluation was running)
        evaluating, evaluations = [False], []
        for name in ("keep_kernel", "embed_batch_flat", "score_batch_flat", "score_batch", "score", "embed"):
            def counting(*args, _inner=getattr(scorer, name), _name=name):
                calls.append((_name, evaluating[0]))
                return _inner(*args)

            monkeypatch.setattr(scorer, name, counting)
        evaluate = MaskObjective._evaluate

        def tracked(self, *args, **kwargs):
            evaluations.append(1)
            evaluating[0] = True
            try:
                return evaluate(self, *args, **kwargs)
            finally:
                evaluating[0] = False

        monkeypatch.setattr(MaskObjective, "_evaluate", tracked)
        cfg = small_cfg(se.Method.MASK, fixed_reference=fixed, mask=se.MaskCfg(grid=5, iters=20))
        se.generate(scorer, images[0], images[1], cfg)
        # one evaluation per Adam step and one for the final iterate; the
        # scorer gave the keep kernels behind e0 and K of each masked image,
        # and of the fixed reference
        assert len(evaluations) == 20 + 1
        assert calls == [("keep_kernel", False)] * (3 if fixed else 4)

    def test_dual_mask_runs(self, planted, images):
        _, scorer = planted
        cfg = small_cfg(se.Method.MASK, fixed_reference=False,
                        mask=se.MaskCfg(grid=5, iters=20, lr=0.1))
        smap = se.generate(scorer, images[0], images[1], cfg)
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


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Rank correlation of two maps, tied values sharing their mean rank."""
    def ranks(x):
        _, inv, counts = np.unique(np.ravel(x), return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - counts + (counts - 1) / 2)[inv]
    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])


class TestModelRandomization:
    """The model-randomization sanity check (Adebayo et al., arXiv:1810.03292):
    a map must change when the model's weights are replaced by random ones.
    At default sizes and seed 7, over the first 6 test pairs, the planted
    scorer against ``LinearToyScorer.random`` gives a mean Spearman
    correlation of 0.38 (RISE) and 0.06 (sliding window), per pair
    -0.02..0.57 and -0.32..0.44; the bound is 0.5 on the mean."""

    BOUND = 0.5

    @pytest.fixture(scope="class")
    def dataset(self):
        return se.generate_dataset(se.SyntheticSpec(seed=7))

    def _mean_correlations(self, dataset, scorer, randomized) -> dict:
        out = {}
        for method in (se.Method.RISE, se.Method.SLIDING_WINDOW):
            cfg = dataclasses.replace(se.SaliencyConfig(seed=7), method=method)
            rho = []
            for p in dataset.pairs_for_split("test")[:6]:
                ref, query = dataset.image(p.reference_id), dataset.image(p.query_id)
                rho.append(_spearman(se.generate(scorer, ref, query, cfg).data,
                                     se.generate(randomized, ref, query, cfg).data))
            out[method.name] = float(np.mean(rho))
        return out

    def test_planted_maps_depend_on_the_weights(self, dataset):
        rho = self._mean_correlations(dataset, se.planted_scorer_for(dataset, seed=7),
                                      se.LinearToyScorer.random(dataset.dims, seed=7))
        assert all(r < self.BOUND for r in rho.values()), rho

    @pytest.mark.xfail(strict=True, reason="triplet training barely moves the weights")
    def test_triplet_maps_depend_on_the_weights(self, dataset):
        """Known failure. Training moves the triplet weight by 1.3% of its norm
        (|W0| = 39.0, |W - W0| = 0.49 at seed 7): the fit makes 12 updates,
        all in epochs 0-2, and then stops at its fixed point. So the maps are
        mostly those of the random initial projection: against weights
        redrawn from the initial distribution (normal, scale 0.1) the mean
        correlations are 0.77 (RISE, per pair 0.49..0.90) and 0.77 (sliding
        window, 0.56..0.88)."""
        trained = se.TripletToyScorer.train_on(dataset, seed=7)
        redrawn = se.TripletToyScorer(make_rng(7, 1).normal(scale=0.1, size=trained.weight.shape), dataset.dims)
        rho = self._mean_correlations(dataset, trained, redrawn)
        assert all(r < self.BOUND for r in rho.values()), rho


# (method, fixed) of every map a scorer of each kind can make; the learned
# mask needs keep_kernel, and LIME is fixed-reference only
QUERY_MAP_CASES = {
    "kernel": [(m, fixed) for m in se.Method for fixed in (True, False) if fixed or m is not se.Method.LIME],
    "score_only": [(m, fixed) for m in (se.Method.SLIDING_WINDOW, se.Method.RISE, se.Method.LIME)
                   for fixed in (True, False) if fixed or m is not se.Method.LIME],
}


class TestQueryMaps:
    """The maps of one query against several references, made with the
    query's masked rows embedded once, have the bits of single pairs."""

    @pytest.mark.parametrize("kind, method, fixed",
                             [(kind, m, f) for kind, cases in QUERY_MAP_CASES.items() for m, f in cases],
                             ids=lambda v: getattr(v, "name", str(v)).lower())
    def test_group_equals_single_pairs(self, kind, method, fixed, images):
        scorer = se.LinearToyScorer.random(DIMS, embed_dim=8, seed=5)
        if kind == "score_only":
            scorer = _ScoreOnly(scorer)
        cfg = small_cfg(method, seed=2, fixed_reference=fixed)
        # a blank reference embeds to 0, so every score is 0: a degenerate map
        ref2 = np.random.default_rng(3).random(DIMS)
        got = assert_query_maps_equal_single_pairs(scorer, [images[0], np.zeros(DIMS), ref2, images[0]],
                                                   images[1], cfg)
        assert (not got[0].degenerate) and (got[1].degenerate or method is se.Method.MASK)

    def test_codes_of_another_config_are_refused(self, images):
        # the codes carry their config, so only their image size can disagree
        scorer = se.LinearToyScorer.random(DIMS, embed_dim=8, seed=5)
        with pytest.raises(InvalidArgumentError, match="image size"):
            query_maps(scorer, [images[0]], images[1], map_codes(small_cfg(se.Method.RISE), DIMS[0], DIMS[1] + 1))
