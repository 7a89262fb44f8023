"""Perturbation-based saliency generators for pairwise similarity models.

Four methods share one contract: perturb the query (and optionally the
reference), read how the similarity score reacts, and aggregate the
reactions into an importance grid over the query.

* sliding_window - regular occlusion windows, per-pixel drop averaging
* rise           - random low-res keep masks, score-weighted mask sum
* lime           - superpixel deletions explained by a Lasso surrogate
* mask_learn     - a low-res keep mask learned with Adam against the score

In fixed-reference mode only the query is manipulated. In dual mode each
query manipulation is scored against M reference manipulations and the
attributed score is their mean, after which aggregation proceeds exactly
as in fixed mode (fixed mode is the M=1 identity special case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ImageTensor, Method, SaliencyMap, make_rng, normalize_map
from .errors import InvalidArgumentError, OptimizationError, UnsupportedError
from .optim import Adam, lasso_coordinate_descent
from .scorers import Scorer, score_image_stack

# rng stream tags so every randomness source is independent of the others
_STREAM_QUERY_MASKS = 1
_STREAM_REF_MASKS = 2
_STREAM_LIME = 3
_STREAM_MASK_NOISE = 4


@dataclass(frozen=True)
class SlidingCfg:
    windows_query: int = 625
    window_area_frac: float = 0.12
    windows_ref: int = 36

    def __post_init__(self):
        if self.windows_query < 1 or self.windows_ref < 1:
            raise InvalidArgumentError("window counts must be >= 1")
        if not 0.0 < self.window_area_frac < 1.0:
            raise InvalidArgumentError("window_area_frac must lie in (0, 1)")


@dataclass(frozen=True)
class RiseCfg:
    n_masks: int = 2000
    grid: int = 8
    keep_prob: float = 0.5
    n_ref_masks: int = 30

    def __post_init__(self):
        if self.n_masks < 1 or self.grid < 1 or self.n_ref_masks < 1:
            raise InvalidArgumentError("RISE counts must be >= 1")
        if not 0.0 < self.keep_prob < 1.0:
            raise InvalidArgumentError("keep_prob must lie in (0, 1)")


@dataclass(frozen=True)
class LimeCfg:
    n_samples: int = 1000
    segmentation: str = "grid"  # "grid" | "slic_like"
    n_segments: int = 49
    # default tuned so roughly a quarter of the superpixel coefficients
    # stay nonzero on the synthetic suite
    lasso_alpha: float = 0.004
    keep_prob: float = 0.5
    max_sweeps: int = 2000

    def __post_init__(self):
        if self.n_samples < 1 or self.n_segments < 1 or self.max_sweeps < 1:
            raise InvalidArgumentError("LIME counts must be >= 1")
        if self.segmentation not in ("grid", "slic_like"):
            raise InvalidArgumentError(f"unknown segmentation {self.segmentation!r}")
        if not 0.0 < self.keep_prob < 1.0:
            raise InvalidArgumentError("keep_prob must lie in (0, 1)")
        if self.lasso_alpha < 0.0:
            raise InvalidArgumentError("lasso_alpha must be >= 0")


@dataclass(frozen=True)
class MaskCfg:
    grid: int = 14
    iters: int = 500
    lr: float = 0.1
    tv_weight: float = 0.02
    l1_weight: float = 0.01
    perturb: str = "delete"  # "delete" | "noise" | "blur"
    # +1 learns the smallest deletion that kills a match; -1 flips the
    # score term for explaining dissimilar pairs.
    preserve_sign: float = 1.0
    fd_fallback: bool = False

    def __post_init__(self):
        if self.grid < 1 or self.iters < 1:
            raise InvalidArgumentError("mask grid/iters must be >= 1")
        if self.perturb not in ("delete", "noise", "blur"):
            raise InvalidArgumentError(f"unknown perturb operator {self.perturb!r}")
        if self.preserve_sign not in (1.0, -1.0):
            raise InvalidArgumentError("preserve_sign must be +1 or -1")


@dataclass(frozen=True)
class SaliencyConfig:
    method: Method = Method.RISE
    fixed_reference: bool = True
    seed: int = 0
    sliding: SlidingCfg = field(default_factory=SlidingCfg)
    rise: RiseCfg = field(default_factory=RiseCfg)
    lime: LimeCfg = field(default_factory=LimeCfg)
    mask: MaskCfg = field(default_factory=MaskCfg)


@dataclass(frozen=True)
class MaskSet:
    """Random keep masks: low-res Bernoulli grids plus their upsampled,
    randomly cropped image-resolution versions."""

    lowres: np.ndarray     # (N, grid, grid) in {0, 1}
    upsampled: np.ndarray  # (N, H, W) in [0, 1]
    seed: int

    def __len__(self) -> int:
        return self.lowres.shape[0]


def _image_array(image, dims: tuple[int, int, int] | None = None) -> np.ndarray:
    arr = image.data if isinstance(image, ImageTensor) else np.asarray(image)
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 3:
        raise InvalidArgumentError(f"expected an (H, W, C) image, got shape {arr.shape}")
    if dims is not None and arr.shape != tuple(dims):
        raise InvalidArgumentError(f"image shape {arr.shape} does not match scorer dims {dims}")
    return arr


def _mean_scores(scorer: Scorer, ref_variants: list[np.ndarray], stack: np.ndarray) -> np.ndarray:
    """Attributed score per query variant: mean over reference variants."""
    total = np.zeros(stack.shape[0], dtype=np.float64)
    for ref_v in ref_variants:
        total += score_image_stack(scorer, ref_v, stack)
    return total / len(ref_variants)


def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Aligned-corner linear interpolation as an (n_out, n_in) matrix."""
    from .core import _axis_positions

    lo, hi, frac = _axis_positions(n_in, n_out)
    R = np.zeros((n_out, n_in), dtype=np.float64)
    R[np.arange(n_out), lo] += 1.0 - frac
    R[np.arange(n_out), hi] += frac
    return R


def sample_rise_masks(cfg: RiseCfg, height: int, width: int, seed: int,
                      stream: int = _STREAM_QUERY_MASKS, count: int | None = None) -> MaskSet:
    """Draw RISE keep masks: Bernoulli(keep_prob) on a grid x grid lattice,
    bilinearly upsampled one cell oversize, then randomly cropped so the
    lattice never aligns with the image."""
    rng = make_rng(seed, stream)
    n = cfg.n_masks if count is None else count
    g = cfg.grid
    lowres = (rng.random((n, g, g)) < cfg.keep_prob).astype(np.float64)

    cell_h = math.ceil(height / g)
    cell_w = math.ceil(width / g)
    up_h, up_w = (g + 1) * cell_h, (g + 1) * cell_w
    rows = _interp_matrix(g, up_h)
    cols_t = _interp_matrix(g, up_w).T
    oversize = np.einsum("ri,nij,jc->nrc", rows, lowres, cols_t, optimize=True)

    dy = rng.integers(0, cell_h, size=n)
    dx = rng.integers(0, cell_w, size=n)
    cropped = np.empty((n, height, width), dtype=np.float64)
    for k in range(n):
        cropped[k] = oversize[k, dy[k]:dy[k] + height, dx[k]:dx[k] + width]
    return MaskSet(lowres=lowres, upsampled=np.clip(cropped, 0.0, 1.0), seed=seed)


def _degenerate_result(scores: np.ndarray) -> bool:
    return scores.size > 0 and float(scores.max()) == float(scores.min())


def _rise_ref_variants(scorer, ref: np.ndarray, cfg: SaliencyConfig) -> list[np.ndarray]:
    if cfg.fixed_reference:
        return [ref]
    ref_masks = sample_rise_masks(cfg.rise, ref.shape[0], ref.shape[1], cfg.seed,
                                  stream=_STREAM_REF_MASKS, count=cfg.rise.n_ref_masks)
    return [ref * m[:, :, None] for m in ref_masks.upsampled]


def rise(scorer: Scorer, ref, query, cfg: SaliencyConfig) -> SaliencyMap:
    """Score-weighted average of random keep masks."""
    ref = _image_array(ref, scorer.dims)
    query = _image_array(query, scorer.dims)
    h, w, _ = query.shape
    masks = sample_rise_masks(cfg.rise, h, w, cfg.seed)
    stack = query[None, :, :, :] * masks.upsampled[:, :, :, None]
    scores = _mean_scores(scorer, _rise_ref_variants(scorer, ref, cfg), stack)
    if _degenerate_result(scores):
        raw = np.zeros((h, w))
    else:
        raw = np.einsum("n,nhw->hw", scores, masks.upsampled) / (len(masks) * cfg.rise.keep_prob)
    return _finish(raw, Method.RISE, cfg)


def _window_side(area_frac: float, height: int, width: int) -> int:
    side = int(round(math.sqrt(area_frac * height * width)))
    return max(side, 1)


def _window_origins(extent: int, side: int, n: int) -> np.ndarray:
    if side > extent:
        raise InvalidArgumentError(f"occlusion window side {side} exceeds image extent {extent}")
    if n == 1:
        return np.zeros(1, dtype=np.intp)
    return np.rint(np.arange(n) * ((extent - side) / (n - 1))).astype(np.intp)


def _occlusion_variants(img: np.ndarray, n_windows: int, area_frac: float):
    """Zero-filled square occlusions on a regular origin lattice."""
    h, w, _ = img.shape
    g = max(int(round(math.sqrt(n_windows))), 1)
    side = _window_side(area_frac, h, w)
    rows = _window_origins(h, side, g)
    cols = _window_origins(w, side, g)
    variants = np.empty((g * g, *img.shape), dtype=np.float64)
    boxes = []
    k = 0
    for r in rows:
        for c in cols:
            v = img.copy()
            v[r:r + side, c:c + side, :] = 0.0
            variants[k] = v
            boxes.append((int(r), int(c), side))
            k += 1
    return variants, boxes


def sliding_window(scorer: Scorer, ref, query, cfg: SaliencyConfig) -> SaliencyMap:
    """Per-pixel similarity drop, averaged over every occlusion covering
    the pixel: saliency = s_full - mean(s_occluded)."""
    ref = _image_array(ref, scorer.dims)
    query = _image_array(query, scorer.dims)
    h, w, _ = query.shape

    if cfg.fixed_reference:
        ref_variants = [ref]
    else:
        ref_occl, _ = _occlusion_variants(ref, cfg.sliding.windows_ref, cfg.sliding.window_area_frac)
        ref_variants = list(ref_occl)

    variants, boxes = _occlusion_variants(query, cfg.sliding.windows_query, cfg.sliding.window_area_frac)
    occluded = _mean_scores(scorer, ref_variants, variants)
    base = float(_mean_scores(scorer, ref_variants, query[None, :, :, :])[0])

    all_scores = np.append(occluded, base)
    if _degenerate_result(all_scores):
        return _finish(np.zeros((h, w)), Method.SLIDING_WINDOW, cfg)

    drop_sum = np.zeros((h, w))
    cover = np.zeros((h, w))
    for (r, c, side), s_occ in zip(boxes, occluded):
        drop_sum[r:r + side, c:c + side] += base - s_occ
        cover[r:r + side, c:c + side] += 1.0
    raw = np.divide(drop_sum, cover, out=np.zeros_like(drop_sum), where=cover > 0)
    return _finish(raw, Method.SLIDING_WINDOW, cfg)


# ---------------------------------------------------------------------------
# LIME
# ---------------------------------------------------------------------------


def grid_segments(height: int, width: int, n_segments: int) -> np.ndarray:
    """Near-equal rectangular superpixels, labels in raster order."""
    from .core import pool_boundaries

    g = max(int(round(math.sqrt(n_segments))), 1)
    rb = pool_boundaries(height, g)
    cb = pool_boundaries(width, g)
    labels = np.empty((height, width), dtype=np.intp)
    for i in range(g):
        for j in range(g):
            labels[rb[i]:rb[i + 1], cb[j]:cb[j + 1]] = i * g + j
    return labels


def slic_like_segments(image: np.ndarray, n_segments: int, iterations: int = 5,
                       spatial_weight: float = 0.5) -> np.ndarray:
    """Lightweight SLIC-style segmentation in (color, xy) feature space.

    Deterministic: centers start on the grid segmentation and every pixel
    is reassigned to its globally nearest center each round. Empty
    segments keep their previous center.
    """
    h, w, c = image.shape
    labels = grid_segments(h, w, n_segments)
    n = labels.max() + 1
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    scale = max(h, w)
    feats = np.concatenate(
        [image.reshape(-1, c), spatial_weight * np.stack([ys.ravel() / scale, xs.ravel() / scale], axis=1)],
        axis=1,
    )
    flat = labels.ravel()
    for _ in range(iterations):
        centers = np.zeros((n, feats.shape[1]))
        for s in range(n):
            member = feats[flat == s]
            if member.size:
                centers[s] = member.mean(axis=0)
        dists = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        flat = dists.argmin(axis=1)
    return flat.reshape(h, w)


def lime(scorer: Scorer, ref, query, cfg: SaliencyConfig) -> SaliencyMap:
    """Lasso surrogate over random superpixel deletions.

    The map paints each superpixel with its nonnegative-clipped
    regression coefficient; region selection beyond the painting is out
    of scope. Fixed-reference only.
    """
    if not cfg.fixed_reference:
        raise UnsupportedError("the superpixel surrogate is defined for fixed-reference mode only")
    ref = _image_array(ref, scorer.dims)
    query = _image_array(query, scorer.dims)
    h, w, _ = query.shape

    if cfg.lime.segmentation == "grid":
        segments = grid_segments(h, w, cfg.lime.n_segments)
    else:
        segments = slic_like_segments(query, cfg.lime.n_segments)
    n_seg = int(segments.max()) + 1

    rng = make_rng(cfg.seed, _STREAM_LIME)
    keep = (rng.random((cfg.lime.n_samples, n_seg)) < cfg.lime.keep_prob).astype(np.float64)
    pixel_keep = keep[:, segments.ravel()].reshape(cfg.lime.n_samples, h, w)
    stack = query[None, :, :, :] * pixel_keep[:, :, :, None]
    scores = score_image_stack(scorer, ref, stack)
    if _degenerate_result(scores):
        return _finish(np.zeros((h, w)), Method.LIME, cfg)

    X = keep - keep.mean(axis=0, keepdims=True)
    y = scores - scores.mean()
    coef = lasso_coordinate_descent(X, y, alpha=cfg.lime.lasso_alpha * cfg.lime.n_samples,
                                    max_sweeps=cfg.lime.max_sweeps)
    painted = np.maximum(coef, 0.0)[segments]
    return _finish(painted, Method.LIME, cfg)


# ---------------------------------------------------------------------------
# Mask
# ---------------------------------------------------------------------------

_UPSAMPLE_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def _upsample_matrix(grid: int, height: int, width: int) -> np.ndarray:
    """Bilinear upsample (grid x grid -> H x W) as an (H*W, grid*grid) matrix."""
    key = (grid, height, width)
    if key not in _UPSAMPLE_CACHE:
        rows = _interp_matrix(grid, height)
        cols = _interp_matrix(grid, width)
        # up(m) = rows @ m @ cols.T  =>  U[(r, c), (i, j)] = rows[r, i] * cols[c, j]
        U = np.einsum("ri,cj->rcij", rows, cols).reshape(height * width, grid * grid)
        _UPSAMPLE_CACHE[key] = U
    return _UPSAMPLE_CACHE[key]


def box_blur(img: np.ndarray, radius: int = 5) -> np.ndarray:
    """Separable mean filter with clamped borders."""
    out = img.astype(np.float64, copy=True)
    for axis in (0, 1):
        padded = np.concatenate(
            [np.repeat(out.take([0], axis=axis), radius, axis=axis), out,
             np.repeat(out.take([-1], axis=axis), radius, axis=axis)], axis=axis)
        csum = np.cumsum(padded, axis=axis)
        zero = np.zeros_like(csum.take([0], axis=axis))
        csum = np.concatenate([zero, csum], axis=axis)
        width = 2 * radius + 1
        n = out.shape[axis]
        hi = csum.take(range(width, width + n), axis=axis)
        lo = csum.take(range(0, n), axis=axis)
        out = (hi - lo) / width
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _tv_value_grad(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared-difference total variation and its gradient."""
    dr = m[1:, :] - m[:-1, :]
    dc = m[:, 1:] - m[:, :-1]
    value = float((dr**2).sum() + (dc**2).sum())
    grad = np.zeros_like(m)
    grad[1:, :] += 2.0 * dr
    grad[:-1, :] -= 2.0 * dr
    grad[:, 1:] += 2.0 * dc
    grad[:, :-1] -= 2.0 * dc
    return value, grad


class MaskObjective:
    """Differentiable objective for the learned-mask method.

    Parameters are unconstrained logits theta; the keep mask is
    sigmoid(theta) upsampled bilinearly to image resolution. The loss is

        sign * score(ref', query') + tv_weight * (TV(m_q) [+ TV(m_r)])
                                   + l1_weight * (sum(1 - m_q) [+ sum(1 - m_r)])

    where query' = q * M + base * (1 - M). In dual mode theta holds the
    query mask logits followed by the reference mask logits.
    """

    def __init__(self, scorer: Scorer, ref: np.ndarray, query: np.ndarray,
                 cfg: MaskCfg, dual: bool = False, seed: int = 0):
        self.scorer = scorer
        self.cfg = cfg
        self.dual = dual
        self.query = query
        self.ref = ref
        h, w, _ = query.shape
        self.U = _upsample_matrix(cfg.grid, h, w)
        rng = make_rng(seed, _STREAM_MASK_NOISE)
        self.base_query = self._perturb_base(query, rng)
        self.base_ref = self._perturb_base(ref, rng) if dual else None
        self._use_fd = not scorer.caps.can_grad
        if self._use_fd and not cfg.fd_fallback:
            raise UnsupportedError(
                "mask learning needs a gradient-capable scorer; enable fd_fallback to use forward differences"
            )

    def _perturb_base(self, img: np.ndarray, rng) -> np.ndarray:
        if self.cfg.perturb == "delete":
            return np.zeros_like(img)
        if self.cfg.perturb == "blur":
            return box_blur(img)
        return rng.random(img.shape)

    @property
    def n_params(self) -> int:
        g2 = self.cfg.grid * self.cfg.grid
        return 2 * g2 if self.dual else g2

    def _compose(self, img: np.ndarray, base: np.ndarray, m: np.ndarray) -> np.ndarray:
        h, w, _ = img.shape
        M = (self.U @ m.ravel()).reshape(h, w, 1)
        return img * M + base * (1.0 - M)

    def _split(self, theta: np.ndarray) -> list[np.ndarray]:
        g = self.cfg.grid
        parts = [theta[: g * g].reshape(g, g)]
        if self.dual:
            parts.append(theta[g * g:].reshape(g, g))
        return parts

    def _score_and_pixel_grads(self, perturbed_q, perturbed_r, want_grad: bool):
        if perturbed_r is None:
            ref_img = self.ref
        else:
            ref_img = perturbed_r
        score = self.scorer.score(ref_img, perturbed_q)
        if not want_grad:
            return score, None, None
        if self._use_fd:
            return score, None, None
        gq = self.scorer.grad_query(ref_img, perturbed_q)
        gr = self.scorer.grad_query(perturbed_q, ref_img) if self.dual else None
        return score, gq, gr

    def value(self, theta: np.ndarray) -> float:
        return self._evaluate(theta, want_grad=False)[0]

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self._evaluate(theta, want_grad=True)

    def _evaluate(self, theta: np.ndarray, want_grad: bool):
        theta = np.asarray(theta, dtype=np.float64)
        masks = [_sigmoid(p) for p in self._split(theta)]
        perturbed_q = self._compose(self.query, self.base_query, masks[0])
        perturbed_r = self._compose(self.ref, self.base_ref, masks[1]) if self.dual else None

        score, gq, gr = self._score_and_pixel_grads(perturbed_q, perturbed_r, want_grad)
        value = self.cfg.preserve_sign * score
        tv_parts = [_tv_value_grad(m) for m in masks]
        for m, (tv_val, _) in zip(masks, tv_parts):
            value += self.cfg.tv_weight * tv_val + self.cfg.l1_weight * float((1.0 - m).sum())
        if not want_grad:
            return value, None
        if not math.isfinite(value):
            # caller raises on the value; gradients would only produce nan noise
            return value, np.zeros_like(theta)
        reg_grads = [self.cfg.tv_weight * tv_grad - self.cfg.l1_weight for _, tv_grad in tv_parts]

        score_grads = []
        if self._use_fd:
            score_grads = self._fd_score_grads(masks, score)
        else:
            pairs = [(gq, self.query, self.base_query)]
            if self.dual:
                pairs.append((gr, self.ref, self.base_ref))
            for g_pix, img, base in pairs:
                d_mask_pixels = (g_pix * (img - base)).sum(axis=2)
                score_grads.append((self.U.T @ d_mask_pixels.ravel()).reshape(masks[0].shape))

        grad_parts = []
        for m, s_grad, r_grad in zip(masks, score_grads, reg_grads):
            dm = self.cfg.preserve_sign * s_grad + r_grad
            grad_parts.append((dm * m * (1.0 - m)).ravel())
        return value, np.concatenate(grad_parts)

    def _fd_score_grads(self, masks: list[np.ndarray], base_score: float, h_step: float = 1e-3):
        """Forward differences of the score term directly on mask cells."""
        grads = []
        imgs = [(self.query, self.base_query)]
        if self.dual:
            imgs.append((self.ref, self.base_ref))
        for which, (img, base) in enumerate(imgs):
            grad = np.zeros_like(masks[which])
            for idx in np.ndindex(*masks[which].shape):
                bumped = [m.copy() for m in masks]
                bumped[which][idx] = min(bumped[which][idx] + h_step, 1.0)
                step = bumped[which][idx] - masks[which][idx]
                if step <= 0:
                    continue
                pq = self._compose(self.query, self.base_query, bumped[0])
                pr = self._compose(self.ref, self.base_ref, bumped[1]) if self.dual else None
                s = self.scorer.score(pr if pr is not None else self.ref, pq)
                grad[idx] = (s - base_score) / step
            grads.append(grad)
        return grads


def mask_learn(scorer: Scorer, ref, query, cfg: SaliencyConfig) -> SaliencyMap:
    """Learn the keep mask with Adam and return 1 - mask (high = important).

    The best-loss iterate is kept, not the last one: Adam's sign-scaled
    steps oscillate around sharp valleys (e.g. under a dominating TV
    weight), and the best iterate is the meaningful solution there.
    """
    ref = _image_array(ref, scorer.dims)
    query = _image_array(query, scorer.dims)
    problem = MaskObjective(scorer, ref, query, cfg.mask, dual=not cfg.fixed_reference, seed=cfg.seed)
    theta = np.zeros(problem.n_params)
    opt = Adam(lr=cfg.mask.lr)
    trace: list[float] = []
    best_theta = theta.copy()
    best_value = math.inf
    for _ in range(cfg.mask.iters):
        value, grad = problem.value_and_grad(theta)
        trace.append(float(value))
        if not math.isfinite(value) or not np.all(np.isfinite(grad)):
            raise OptimizationError("mask optimization diverged (non-finite loss)", trace=trace[-10:])
        if value < best_value:
            best_value = value
            best_theta = theta.copy()
        theta = opt.step(theta, grad)
    final_value = problem.value(theta)
    if math.isfinite(final_value) and final_value < best_value:
        best_theta = theta
    g = cfg.mask.grid
    keep = _sigmoid(best_theta[: g * g].reshape(g, g))
    return _finish(1.0 - keep, Method.MASK, cfg)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_GENERATORS = {
    Method.SLIDING_WINDOW: sliding_window,
    Method.RISE: rise,
    Method.LIME: lime,
    Method.MASK: mask_learn,
}


def _finish(raw: np.ndarray, method: Method, cfg: SaliencyConfig) -> SaliencyMap:
    return SaliencyMap(
        normalize_map(raw),
        method=method,
        fixed_reference=cfg.fixed_reference,
        normalized=True,
    )


def generate(scorer: Scorer, ref, query, cfg: SaliencyConfig) -> SaliencyMap:
    """Run the configured generator. Deterministic in (seed, cfg, scorer,
    images); an all-equal score response yields the degenerate zero map
    rather than an error."""
    return _GENERATORS[cfg.method](scorer, ref, query, cfg)
