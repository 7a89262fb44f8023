"""Perturbation-based saliency generators for pairwise similarity models.

Four methods share one contract: perturb the query (and optionally the
reference), read how the similarity score reacts, and aggregate the
reactions into an importance grid over the query. ``generate`` is the
entry point: it checks both images against the scorer, runs the method
the config names, and normalizes the resulting grid.

* sliding window - regular occlusion windows, per-pixel drop averaging
* RISE           - random low-res keep masks, score-weighted mask sum
* LIME           - superpixel deletions explained by a Lasso surrogate
* mask           - a low-res keep mask learned with Adam against the score

In fixed-reference mode only the query is manipulated. In dual mode each
query manipulation is scored against M reference manipulations and the
attributed score is their mean, after which aggregation proceeds exactly
as in fixed mode (fixed mode is the M=1 identity special case).

Sliding window, RISE and LIME perturb an image the same way: they
multiply it by (N, H, W) keep masks (boolean occlusions, upsampled random
grids, superpixel selections), and ``score_masked`` scores the masked
queries; the insertion/deletion curves in ``metrics`` use it too. An
embedding scorer (one with ``embed_masked``) never gets masked copies: it
embeds the masked queries from the keep masks, ``_CHUNK`` masks at a
time, and the (N, D) rows are scored against each reference
manipulation, so dual mode does fixed mode's scorer work plus M reference
embeddings. Any other scorer (external, score-only) gets the masked copies
built ``_CHUNK`` at a time and scores each block against each reference
manipulation: M x N images. RISE upsamples its masks in the same blocks,
so no (N, H, W, C) stack exists and memory beyond the (N, H, W) masks
does not grow with N. A non-finite score raises ``InvalidDataError``. The
learned mask embeds its upsampled cells once, through ``embed_masked``,
and its Adam steps call no scorer (see ``MaskObjective``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Method, SaliencyMap, _as_image, make_rng, normalize_map
from .errors import InvalidArgumentError, InvalidDataError, OptimizationError, UnsupportedError
from .optim import Adam, lasso_coordinate_descent
from .scorers import EmbeddedRows, Scorer, _cosine_grad_pair, score_image_stack

# Masks per block, in masked-query embedding, masked-stack scoring and RISE
# upsampling: 128 masked 56x56x3 float64 images are 9.6 MB, and a multiple
# of the stub's max_batch (64) keeps external round trips as few as one
# whole stack needs.
_CHUNK = 128

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


def _masked(image: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The (N, H, W, C) copies of an (H, W, C) image under (N, H, W) keep
    masks. For pixels in [0, 1] a 1 (or True) keeps a value bit for bit
    and a 0 (or False) writes +0.0, the same bits a copy-and-fill gives."""
    out = np.empty(keep.shape + image.shape[2:], dtype=np.float64)
    # one multiply per channel: a broadcast over a trailing axis of C
    # elements runs numpy's inner loop C elements at a time
    for c in range(image.shape[2]):
        np.multiply(keep, image[:, :, c], out=out[..., c])
    return out


def score_masked(scorer: Scorer, ref_variants, query: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Attributed score of ``query * keep[n]`` for each of the (N, H, W)
    keep masks: the mean of its scores against the reference variants.

    A scorer with ``embed_masked`` embeds the masked queries from the keep
    masks ``_CHUNK`` at a time, without building them, and the (N, D) rows
    are then scored against each reference variant; any other scorer
    scores each block of ``_CHUNK`` masked copies against each variant.
    """
    n = keep.shape[0]
    starts = range(0, n, _CHUNK)
    total = np.zeros(n, dtype=np.float64)
    embed = getattr(scorer, "embed_masked", None)
    if embed is not None:
        parts = [embed(query, keep[s:s + _CHUNK]) for s in starts]
        rows = EmbeddedRows(np.concatenate([p.emb for p in parts]), np.concatenate([p.norms for p in parts]))
        for ref_v in ref_variants:
            total += scorer.score_batch_flat(ref_v, rows)
    else:
        for s in starts:
            stack = _masked(query, keep[s:s + _CHUNK])
            for ref_v in ref_variants:
                total[s:s + _CHUNK] += score_image_stack(scorer, ref_v, stack)
            del stack  # free this block before the next one is built
    if not np.all(np.isfinite(total)):
        raise InvalidDataError(f"{type(scorer).__name__} returned non-finite scores")
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
                      stream: int = _STREAM_QUERY_MASKS, count: int | None = None) -> np.ndarray:
    """Draw (N, H, W) RISE keep masks in [0, 1]: Bernoulli(keep_prob) on a
    grid x grid lattice, bilinearly upsampled one cell oversize, then
    randomly cropped so the lattice never aligns with the image. The
    upsampling runs ``_CHUNK`` masks at a time, so the only N-sized array
    is the output."""
    rng = make_rng(seed, stream)
    n = cfg.n_masks if count is None else count
    g = cfg.grid
    lowres = (rng.random((n, g, g)) < cfg.keep_prob).astype(np.float64)

    cell_h = math.ceil(height / g)
    cell_w = math.ceil(width / g)
    dy = rng.integers(0, cell_h, size=n)
    dx = rng.integers(0, cell_w, size=n)
    rows = _interp_matrix(g, (g + 1) * cell_h)
    cols_t = _interp_matrix(g, (g + 1) * cell_w).T
    masks = np.empty((n, height, width), dtype=np.float64)
    for start in range(0, n, _CHUNK):
        oversize = np.einsum("ri,nij,jc->nrc", rows, lowres[start:start + _CHUNK], cols_t, optimize=True)
        for k, big in enumerate(oversize, start):
            masks[k] = big[dy[k]:dy[k] + height, dx[k]:dx[k] + width]
    return np.clip(masks, 0.0, 1.0, out=masks)


def _degenerate_result(scores: np.ndarray) -> bool:
    return scores.size > 0 and float(scores.max()) == float(scores.min())


def _reference_keep(cfg: SaliencyConfig, height: int, width: int) -> np.ndarray:
    """The keep masks of the reference's dual-mode variants: RISE masks
    from their own stream, or the reference's occlusion windows."""
    if cfg.method is Method.RISE:
        return sample_rise_masks(cfg.rise, height, width, cfg.seed,
                                 stream=_STREAM_REF_MASKS, count=cfg.rise.n_ref_masks)
    return _occlusion_keep(height, width, cfg.sliding.windows_ref, cfg.sliding.window_area_frac)


def _references(ref: np.ndarray, cfg: SaliencyConfig) -> list[np.ndarray]:
    """The reference variants each query score is averaged over: the
    reference itself in fixed mode, its masked copies in dual mode."""
    if cfg.fixed_reference:
        return [ref]
    return list(_masked(ref, _reference_keep(cfg, ref.shape[0], ref.shape[1])))


def _rise(scorer: Scorer, ref: np.ndarray, query: np.ndarray, cfg: SaliencyConfig) -> np.ndarray | None:
    """Score-weighted average of random keep masks."""
    h, w, _ = query.shape
    masks = sample_rise_masks(cfg.rise, h, w, cfg.seed)
    scores = score_masked(scorer, _references(ref, cfg), query, masks)
    if _degenerate_result(scores):
        return None
    return np.einsum("n,nhw->hw", scores, masks) / (masks.shape[0] * cfg.rise.keep_prob)


def _window_side(area_frac: float, height: int, width: int) -> int:
    side = int(round(math.sqrt(area_frac * height * width)))
    return max(side, 1)


def _window_origins(extent: int, side: int, n: int) -> np.ndarray:
    if side > extent:
        raise InvalidArgumentError(f"occlusion window side {side} exceeds image extent {extent}")
    if n == 1:
        return np.zeros(1, dtype=np.intp)
    return np.rint(np.arange(n) * ((extent - side) / (n - 1))).astype(np.intp)


def _occlusion_keep(height: int, width: int, n_windows: int, area_frac: float) -> np.ndarray:
    """Boolean keep masks of square occlusions, one per window of a
    regular origin lattice, in raster order."""
    g = max(int(round(math.sqrt(n_windows))), 1)
    side = _window_side(area_frac, height, width)
    keep = np.ones((g * g, height, width), dtype=bool)
    origins = itertools.product(_window_origins(height, side, g), _window_origins(width, side, g))
    for k, (r, c) in enumerate(origins):
        keep[k, r:r + side, c:c + side] = False
    return keep


def _sliding_window(scorer: Scorer, ref: np.ndarray, query: np.ndarray,
                    cfg: SaliencyConfig) -> np.ndarray | None:
    """Per-pixel similarity drop, averaged over every occlusion covering
    the pixel: saliency = s_full - mean(s_occluded)."""
    h, w, _ = query.shape
    keep = _occlusion_keep(h, w, cfg.sliding.windows_query, cfg.sliding.window_area_frac)
    # the unoccluded query scores as the last row of the same stack
    all_scores = score_masked(scorer, _references(ref, cfg), query,
                              np.concatenate([keep, np.ones((1, h, w), dtype=bool)]))
    if _degenerate_result(all_scores):
        return None
    base, occluded = float(all_scores[-1]), ~keep
    drop_sum = np.zeros((h, w))
    for s_occ, window in zip(all_scores[:-1], occluded):
        # one window at a time, so each pixel sums its drops in window order
        np.add(drop_sum, base - s_occ, out=drop_sum, where=window)
    cover = occluded.sum(axis=0)
    return np.divide(drop_sum, cover, out=np.zeros_like(drop_sum), where=cover > 0)


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


def slic_like_segments(image: np.ndarray, n_segments: int) -> np.ndarray:
    """Lightweight SLIC-style segmentation in (color, xy) feature space.

    Deterministic: centers start on the grid segmentation and every pixel
    is reassigned to its globally nearest center in each of five rounds.
    Empty segments keep their previous center.
    """
    spatial_weight = 0.5
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
    centers = np.zeros((n, feats.shape[1]))
    for _ in range(5):
        for s in range(n):
            member = feats[flat == s]
            if member.size:
                centers[s] = member.mean(axis=0)
        dists = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        flat = dists.argmin(axis=1)
    return flat.reshape(h, w)


def _lime(scorer: Scorer, ref: np.ndarray, query: np.ndarray, cfg: SaliencyConfig) -> np.ndarray | None:
    """Lasso surrogate over random superpixel deletions.

    The map paints each superpixel with its nonnegative-clipped
    regression coefficient; region selection beyond the painting is out
    of scope. Fixed-reference only.
    """
    if not cfg.fixed_reference:
        raise UnsupportedError("the superpixel surrogate is defined for fixed-reference mode only")
    h, w, _ = query.shape
    if cfg.lime.segmentation == "grid":
        segments = grid_segments(h, w, cfg.lime.n_segments)
    else:
        segments = slic_like_segments(query, cfg.lime.n_segments)
    n_seg = int(segments.max()) + 1

    rng = make_rng(cfg.seed, _STREAM_LIME)
    # boolean selections multiply and centre with the same bits as 1.0/0.0
    keep = rng.random((cfg.lime.n_samples, n_seg)) < cfg.lime.keep_prob
    scores = score_masked(scorer, [ref], query, keep[:, segments])
    if _degenerate_result(scores):
        return None

    X = keep - keep.mean(axis=0, keepdims=True)
    y = scores - scores.mean()
    coef = lasso_coordinate_descent(X, y, alpha=cfg.lime.lasso_alpha * cfg.lime.n_samples,
                                    max_sweeps=cfg.lime.max_sweeps)
    return np.maximum(coef, 0.0)[segments]


# ---------------------------------------------------------------------------
# Mask
# ---------------------------------------------------------------------------

def box_blur(img: np.ndarray) -> np.ndarray:
    """Separable 11-pixel mean filter with clamped borders."""
    radius = 5
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
    query mask logits followed by the reference mask logits. M is linear
    in m, so under ``embed_masked`` a masked image embeds to
    ``e0 + m.ravel() @ K``: e0 embeds the base and row k of K embeds
    (img - base) under the k-th upsampled cell. The scorer is asked only
    when the objective is built; a step calls none. Any other scorer needs
    ``fd_fallback``: forward differences of scores of composed images.
    """

    def __init__(self, scorer: Scorer, ref: np.ndarray, query: np.ndarray,
                 cfg: MaskCfg, dual: bool = False, seed: int = 0):
        self.scorer = scorer
        self.cfg = cfg
        self.dual = dual
        self.ref = ref
        h, w, _ = query.shape
        # the bilinear upsample is separable: up(m) = rows @ m @ cols.T
        self.rows = _interp_matrix(cfg.grid, h)
        self.cols = _interp_matrix(cfg.grid, w)
        rng = make_rng(seed, _STREAM_MASK_NOISE)
        # (image, perturbation base) of each masked part: the query, then
        # the reference in dual mode
        self.parts = [(query, self._perturb_base(query, rng))]
        if dual:
            self.parts.append((ref, self._perturb_base(ref, rng)))
        embed = getattr(scorer, "embed_masked", None)
        if embed is None and not cfg.fd_fallback:
            raise UnsupportedError(
                "mask learning needs a scorer with embed_masked; enable fd_fallback to use forward differences"
            )
        self.kernels = None  # (e0, K) of each part; None on the forward-difference path
        if embed is not None:
            # the upsampled cells, basis[i * g + j] = rows[:, i] (x) cols[:, j]
            basis = np.einsum("ri,cj->ijrc", self.rows, self.cols).reshape(cfg.grid ** 2, h, w)
            whole = np.ones((1, h, w))
            self.kernels = [(embed(base, whole).emb[0], embed(img - base, basis).emb) for img, base in self.parts]
            self.ref_emb = None if dual else embed(ref, whole).emb[0]

    def _perturb_base(self, img: np.ndarray, rng) -> np.ndarray:
        if self.cfg.perturb == "delete":
            return np.zeros_like(img)
        if self.cfg.perturb == "blur":
            return box_blur(img)
        return rng.random(img.shape)

    @property
    def n_params(self) -> int:
        return len(self.parts) * self.cfg.grid * self.cfg.grid

    def _compose(self, img: np.ndarray, base: np.ndarray, m: np.ndarray) -> np.ndarray:
        M = (self.rows @ m @ self.cols.T)[..., None]
        return img * M + base * (1.0 - M)

    def _perturbed(self, masks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(reference, query) as the scorer sees them under the masks."""
        images = [self._compose(img, base, m) for (img, base), m in zip(self.parts, masks)]
        return (images[1] if self.dual else self.ref), images[0]

    def value(self, theta: np.ndarray) -> float:
        return self._evaluate(theta, want_grad=False)[0]

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self._evaluate(theta, want_grad=True)

    def _evaluate(self, theta: np.ndarray, want_grad: bool):
        g = self.cfg.grid
        theta = np.asarray(theta, dtype=np.float64)
        masks = [_sigmoid(p.reshape(g, g)) for p in np.split(theta, len(self.parts))]
        if self.kernels is None:
            score = self.scorer.score(*self._perturbed(masks))
        else:
            embs = [e0 + m.ravel() @ K for (e0, K), m in zip(self.kernels, masks)]
            d_ref, d_query, score = _cosine_grad_pair(embs[1] if self.dual else self.ref_emb, embs[0])
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

        if self.kernels is None:
            score_grads = self._fd_score_grads(masks, score)
        else:
            score_grads = [(K @ d).reshape(g, g) for (_, K), d in zip(self.kernels, (d_query, d_ref))]

        grad_parts = []
        for m, s_grad, r_grad in zip(masks, score_grads, reg_grads):
            dm = self.cfg.preserve_sign * s_grad + r_grad
            grad_parts.append((dm * m * (1.0 - m)).ravel())
        return value, np.concatenate(grad_parts)

    def _fd_score_grads(self, masks: list[np.ndarray], base_score: float):
        """Forward differences (step 1e-3) of the score term directly on mask cells."""
        h_step = 1e-3
        grads = []
        for which, mask in enumerate(masks):
            grad = np.zeros_like(mask)
            for idx in np.ndindex(*mask.shape):
                bumped = [m.copy() for m in masks]
                bumped[which][idx] = min(bumped[which][idx] + h_step, 1.0)
                step = bumped[which][idx] - mask[idx]
                if step <= 0:
                    continue
                grad[idx] = (self.scorer.score(*self._perturbed(bumped)) - base_score) / step
            grads.append(grad)
        return grads


def _mask(scorer: Scorer, ref: np.ndarray, query: np.ndarray, cfg: SaliencyConfig) -> np.ndarray:
    """Learn the keep mask with Adam and return 1 - mask (high = important).

    The best-loss iterate is kept, not the last one: Adam's sign-scaled
    steps oscillate around sharp valleys (e.g. under a dominating TV
    weight), and the best iterate is the meaningful solution there.
    """
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
    return 1.0 - _sigmoid(best_theta[: g * g].reshape(g, g))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# Each returns the raw importance grid, or None for a degenerate (all-equal)
# score response.
_GENERATORS = {
    Method.SLIDING_WINDOW: _sliding_window,
    Method.RISE: _rise,
    Method.LIME: _lime,
    Method.MASK: _mask,
}


def generate(scorer: Scorer, ref, query, cfg: SaliencyConfig) -> SaliencyMap:
    """The normalized saliency map of ``query`` against ``ref`` under the
    method ``cfg`` names. Deterministic in (seed, cfg, scorer, images); an
    all-equal score response yields the degenerate zero map rather than
    an error."""
    ref, query = _as_image(ref, scorer.dims), _as_image(query, scorer.dims)
    raw = _GENERATORS[cfg.method](scorer, ref, query, cfg)
    return SaliencyMap(normalize_map(np.zeros(query.shape[:2]) if raw is None else raw),
                       method=cfg.method, fixed_reference=cfg.fixed_reference, normalized=True)
