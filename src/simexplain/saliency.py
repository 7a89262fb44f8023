"""Perturbation-based saliency generators for pairwise similarity models.

Four methods share one contract: perturb the query (and optionally the
reference), read how the similarity score reacts, and aggregate the
reactions into an importance grid over the query. A config travels as
one ``MapCodes`` value from ``map_codes``: the config with the work that
only it and the image size decide (RISE's mask draw, grouped by crop
offset as it is built; the occlusion windows; LIME's grid segments and
selections; the dual-mode reference masks). A caller making many maps
builds it once per config; ``generate``, the one-pair case, builds its
own. ``query_maps(scorer, refs, query, codes)`` is the entry point, and
the three perturbation methods share its one skeleton: expand each
reference into its variants, score the query's masks against all of them
in one pass, give a reference whose scores are all equal the degenerate
zero map, and hand every other reference's scores to the method's
aggregation (RISE's weighted mask sum, the sliding window's drop average,
LIME's Lasso surrogate). The learned mask is one Adam fit per pair. Every map has the
bits its pair gets alone.

* sliding window - regular occlusion windows, per-pixel drop averaging
* RISE           - random low-res keep masks, score-weighted mask sum
* LIME           - superpixel deletions explained by a Lasso surrogate
* mask           - a low-res keep mask learned with Adam against the score

In fixed-reference mode only the query is manipulated. In dual mode each
query manipulation is scored against M reference manipulations and the
attributed score is their mean, after which aggregation proceeds exactly
as in fixed mode (fixed mode is the M=1 identity special case).

Sliding window, RISE, LIME and the insertion/deletion curves in
``metrics`` perturb an image one way: ``score_masked`` scores the query
times keep masks held as codes, in one of four forms. A RISE mask is a
g x g 0/1 grid upsampled and cropped at one of ceil(H/g) * ceil(W/g)
offsets (``RiseMasks``), a LIME sample a choice of superpixels
(``_Selections``), an occlusion window the whole image less one box
(``_Boxes``), and a curve step a prefix or the rest of one pixel order
(``_Nested``). A scorer with ``keep_kernel`` is linear in the keep mask,
so a masked query embeds from the query's (D, H*W) keep kernel G alone:
through one (D, g*g) kernel per RISE offset, one (S, D) kernel for the
superpixels, four lookups per box in one summed-area table of G, and a
prefix (insertion) or suffix (deletion) sum of G's columns in the pixel
order per curve step. No masked copy exists, and the (N, D) rows,
embedded once per query, are scored against each reference manipulation
of each reference, so dual mode does fixed mode's scorer work plus M
reference embeddings per map. A scorer whose caps say
``can_score_masks`` (an external peer) is sent the codes themselves,
each form whole in its own wire form, one request per reference
manipulation, and runs this same ``score_masked`` on its side. Any other
scorer (score-only, or a peer without that request) gets blocks of
``_CHUNK`` masked copies built from the codes, each block built once per
query and scored against every reference manipulation: M x N images,
never an N-sized stack. RISE sums its map per offset in grid space on
both paths. A non-finite score raises ``InvalidDataError``. The learned
mask embeds its g x g upsampled cells once, from the keep kernel through
the separable upsample and never at full resolution, and an Adam step is
a few small numpy calls on the cells and no scorer call (see
``MaskObjective``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import Method, SaliencyMap, _as_image, make_rng, normalize_map
from .errors import InvalidArgumentError, InvalidDataError, OptimizationError, UnsupportedError
from .optim import Adam, lasso_coordinate_descent
from .scorers import NORM_EPS, EmbeddedRows, Scorer, _with_norms, embed_codes, score_image_stack

# Masks per block of the masked copies built for score-only scorers: 128
# masked 56x56x3 float64 images are 9.6 MB, and a multiple of the stub's
# score_batch bound, max_batch (64), keeps the round trips of a peer
# without score_masks as few as one whole stack needs.
_CHUNK = 128

# rng stream tags so every randomness source is independent of the others
_STREAM_QUERY_MASKS = 1
_STREAM_REF_MASKS = 2
_STREAM_LIME = 3
_STREAM_MASK_NOISE = 4


def _require_square(cfg, *names: str) -> None:
    """Refuse a field of ``cfg`` named in ``names`` that is no square
    number, naming the two squares nearest it: no count is rounded."""
    for name in names:
        n = getattr(cfg, name)
        root = math.isqrt(n)
        if root * root != n:
            raise InvalidArgumentError(f"{name} must be a square number, such as {root * root} or "
                                       f"{(root + 1) ** 2}, got {n}")


@dataclass(frozen=True)
class SlidingCfg:
    windows_query: int = 625
    window_area_frac: float = 0.12
    windows_ref: int = 36

    def __post_init__(self):
        if self.windows_query < 1 or self.windows_ref < 1:
            raise InvalidArgumentError("window counts must be >= 1")
        # the windows lie on a square lattice of origins
        _require_square(self, "windows_query", "windows_ref")
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
        # the grid segmentation is g x g cells
        _require_square(self, "n_segments")
        if self.segmentation not in ("grid", "slic_like"):
            raise InvalidArgumentError(f"unknown segmentation {self.segmentation!r}")
        if not 0.0 < self.keep_prob < 1.0:
            raise InvalidArgumentError("keep_prob must lie in (0, 1)")
        if not 0.0 <= self.lasso_alpha < math.inf:
            raise InvalidArgumentError("lasso_alpha must be finite and >= 0")


@dataclass(frozen=True)
class MaskCfg:
    """The learned mask. Its 500-step Adam run amplifies a 1e-15 change in
    summation order, so its maps are not stable across numerically
    equivalent code changes. Most delete- and blur-operator maps keep
    their bits or move by at most 3e-11, but not all: the seed-7
    delete-operator maps of pairs img057:img060, img057:img010,
    img057:img016 and img060:img016 move by up to 0.041 over one such
    change. That change, separable cell kernels and the Laplacian TV in
    place of a dense cell basis and slice differences, moved the objective
    by at most 4e-16 relative, kept every other seed-7 delete and blur map
    of the benchmark's test pairs bit for bit (fixed and dual), and moved
    noise-operator maps by up to 4.3e-3 (fixed) and 0.054 (dual)."""

    grid: int = 14
    iters: int = 500
    lr: float = 0.1
    tv_weight: float = 0.02
    l1_weight: float = 0.01
    perturb: str = "delete"  # "delete" | "noise" | "blur"
    # +1 learns the smallest deletion that kills a match; -1 flips the
    # score term for explaining dissimilar pairs.
    preserve_sign: float = 1.0

    def __post_init__(self):
        if self.grid < 1 or self.iters < 1:
            raise InvalidArgumentError("mask grid/iters must be >= 1")
        if self.perturb not in ("delete", "noise", "blur"):
            raise InvalidArgumentError(f"unknown perturb operator {self.perturb!r}")
        if self.preserve_sign not in (1.0, -1.0):
            raise InvalidArgumentError("preserve_sign must be +1 or -1")
        # comparisons with NaN are false, so these also reject NaN
        if not (0.0 < self.lr < math.inf and 0.0 <= self.tv_weight < math.inf and 0.0 <= self.l1_weight < math.inf):
            raise InvalidArgumentError("mask lr must be finite and > 0, tv_weight and l1_weight finite and >= 0")


@dataclass(frozen=True)
class SaliencyConfig:
    method: Method = Method.RISE
    fixed_reference: bool = True
    seed: int = 0
    sliding: SlidingCfg = field(default_factory=SlidingCfg)
    rise: RiseCfg = field(default_factory=RiseCfg)
    lime: LimeCfg = field(default_factory=LimeCfg)
    mask: MaskCfg = field(default_factory=MaskCfg)

    def __post_init__(self):
        if self.method is Method.LIME and not self.fixed_reference:
            raise UnsupportedError("the superpixel surrogate is defined for fixed-reference mode only")


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


@dataclass(frozen=True, eq=False)
class _Boxes:
    """Keep masks that drop one box each: mask n keeps every pixel but rows
    top[n]:bottom[n] of columns left[n]:right[n]. An empty box keeps the
    whole image."""

    top: np.ndarray     # (N,) in [0, H], each <= bottom
    bottom: np.ndarray  # (N,) in [0, H]
    left: np.ndarray    # (N,) in [0, W], each <= right
    right: np.ndarray   # (N,) in [0, W]
    shape: tuple[int, int]

    def __len__(self) -> int:
        return self.top.shape[0]

    def block(self, start: int, stop: int) -> np.ndarray:
        """Masks start..stop as (n, H, W) boolean keep masks."""
        boxes = list(zip(self.top[start:stop], self.bottom[start:stop], self.left[start:stop], self.right[start:stop]))
        keep = np.ones((len(boxes), *self.shape), dtype=bool)
        for k, (t, b, l, r) in enumerate(boxes):
            keep[k, t:b, l:r] = False
        return keep

    @cached_property
    def cover(self) -> np.ndarray:
        """(H, W) count of the boxes holding each pixel."""
        h, w = self.shape
        # a 2-D difference array of the box corners, summed back up
        corners = np.zeros((h + 1, w + 1), dtype=np.intp)
        for rows, cols, sign in ((self.top, self.left, 1), (self.top, self.right, -1),
                                 (self.bottom, self.left, -1), (self.bottom, self.right, 1)):
            np.add.at(corners, (rows, cols), sign)
        return corners.cumsum(axis=0).cumsum(axis=1)[:h, :w]

    def embed(self, keep_kernel: np.ndarray) -> EmbeddedRows:
        """The rows of the masked queries, from the query's (D, H*W) keep
        kernel G: the whole image's row minus the box's sum of G, four
        lookups in one summed-area table of G (Crow, SIGGRAPH 1984)."""
        h, w = self.shape
        table = np.zeros((h + 1, w + 1, keep_kernel.shape[0]))
        # table[y, x] sums G over the pixels above y and left of x
        table[1:, 1:] = keep_kernel.T.reshape(h, w, -1).cumsum(axis=0).cumsum(axis=1)
        t, b, l, r = self.top, self.bottom, self.left, self.right
        # differences of rows first: a box whose rows or whose columns hold
        # no weight of G sums to exactly 0, and its row is the whole image's
        box = (table[b, r] - table[b, l]) - (table[t, r] - table[t, l])
        return _with_norms(table[h, w] - box)


@dataclass(frozen=True, eq=False)
class _Nested:
    """The steps of an insertion or deletion curve: step n keeps the first
    counts[n] pixels of ``order`` (insertion) or all the others
    (deletion)."""

    order: np.ndarray   # (H*W,) a permutation of the raster pixel indices
    counts: np.ndarray  # (N,) in [0, H*W]
    insertion: bool
    shape: tuple[int, int]

    def __len__(self) -> int:
        return self.counts.shape[0]

    def block(self, start: int, stop: int) -> np.ndarray:
        """Steps start..stop as (n, H, W) boolean keep masks."""
        rank = np.empty(self.order.size, dtype=np.intp)
        rank[self.order] = np.arange(self.order.size)
        selected = rank[None, :] < self.counts[start:stop, None]
        return (selected if self.insertion else ~selected).reshape(-1, *self.shape)

    def embed(self, keep_kernel: np.ndarray) -> EmbeddedRows:
        """The rows of the masked queries, from the query's (D, H*W) keep
        kernel G: prefix sums of G's columns in ``order`` for insertion,
        suffix sums for deletion, so an empty step is exactly 0."""
        cols = keep_kernel.T[self.order]
        # sums[k]: the sum of the kept pixels of a step of count k
        sums = np.zeros((cols.shape[0] + 1, cols.shape[1]))
        if self.insertion:
            np.cumsum(cols, axis=0, out=sums[1:])
        else:
            np.cumsum(cols[::-1], axis=0, out=sums[-2::-1])
        return _with_norms(sums[self.counts])


def score_masked(scorer: Scorer, ref_variants, query: np.ndarray, masks) -> np.ndarray:
    """Attributed score of the query times each keep mask: the mean of its
    scores against the reference variants. ``masks`` is a code form
    (``RiseMasks``, ``_Selections``, ``_Boxes``, ``_Nested``) of the
    query's (H, W); anything else is refused before any scorer call.
    A scorer with ``keep_kernel`` embeds the codes, and one whose caps say
    ``can_score_masks`` (an external peer) is sent them; any other scorer
    scores blocks of ``_CHUNK`` masked copies."""
    if not isinstance(masks, (RiseMasks, _Selections, _Boxes, _Nested)) or masks.shape != query.shape[:2]:
        raise InvalidArgumentError(f"masks must be a code form of the query's {query.shape[:2]} size, "
                                   f"got {type(masks).__name__} of {getattr(masks, 'shape', None)}")
    [scores] = _score_refs(scorer, [ref_variants], query, masks)
    return scores


def _score_refs(scorer: Scorer, ref_sets, query: np.ndarray, masks) -> list[np.ndarray]:
    """``score_masked`` of one query against each set of reference
    variants in ``ref_sets``, in order. The query's masked rows are
    embedded once for every set, and a score-only scorer's blocks of
    masked copies are built once and scored against every set; each
    set's scores keep the bits they have alone."""
    kernel_of = getattr(scorer, "keep_kernel", None)
    if kernel_of is not None:
        rows = masks.embed(kernel_of(query))
        scores_against = lambda ref_v: scorer.score_batch_flat(ref_v, rows)
    elif scorer.caps.can_score_masks:
        scores_against = lambda ref_v: scorer.score_masks(ref_v, query, masks)
    else:
        return _score_blocks(scorer, list(ref_sets), query, masks)
    # each set's scores summed in variant order
    return [_finite_mean(scorer, sum(scores_against(ref_v) for ref_v in ref_variants), len(ref_variants))
            for ref_variants in ref_sets]


def _score_blocks(scorer: Scorer, ref_sets: list, query: np.ndarray, masks) -> list[np.ndarray]:
    """Mean score, against each set of reference variants, of the masked
    copies of the query under the keep masks of the code form ``masks``,
    built ``_CHUNK`` at a time and each block scored against every set
    before the next is built."""
    totals = [np.zeros(len(masks), dtype=np.float64) for _ in ref_sets]
    for s in range(0, len(masks), _CHUNK):
        stack = _masked(query, masks.block(s, s + _CHUNK))
        for total, ref_variants in zip(totals, ref_sets):
            for ref_v in ref_variants:
                total[s:s + _CHUNK] += score_image_stack(scorer, ref_v, stack)
        del stack  # free this block before the next one is built
    return [_finite_mean(scorer, total, len(ref_variants)) for total, ref_variants in zip(totals, ref_sets)]


def _finite_mean(scorer: Scorer, total: np.ndarray, count: int) -> np.ndarray:
    if not np.all(np.isfinite(total)):
        raise InvalidDataError(f"{type(scorer).__name__} returned non-finite scores")
    return total / count


def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Aligned-corner linear interpolation as an (n_out, n_in) matrix."""
    from .core import _axis_positions

    lo, hi, frac = _axis_positions(n_in, n_out)
    R = np.zeros((n_out, n_in), dtype=np.float64)
    R[np.arange(n_out), lo] += 1.0 - frac
    R[np.arange(n_out), hi] += frac
    return R


@dataclass(frozen=True, eq=False)
class RiseMasks:
    """N RISE keep masks in grid form. Mask n is the (H, W) crop at
    (dy[n], dx[n]) of ``rows @ grids[n] @ cols.T``, its 0/1 grid
    bilinearly upsampled one cell oversize. The offsets take
    ceil(H / g) * ceil(W / g) values (49 at default size), and the masks
    at one offset share one linear map from grid to image, so they are
    embedded and summed in grid space. Upsampled 0/1 grids are convex
    combinations of 0 and 1, so every mask lies in [0, 1] unclipped."""

    grids: np.ndarray  # (N, g, g) of 0.0 and 1.0
    dy: np.ndarray     # (N,) row offsets in [0, ceil(H / g))
    dx: np.ndarray     # (N,) column offsets in [0, ceil(W / g))
    rows: np.ndarray   # ((g + 1) * ceil(H / g), g) upsampling matrix
    cols: np.ndarray   # ((g + 1) * ceil(W / g), g)
    shape: tuple[int, int]
    # each row offset in use with the (column offset, mask indices) of each
    # of its column offsets, grouped as the masks are built
    offsets: list = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "offsets", _group_offsets(self.dy, self.dx))

    @classmethod
    def of_grids(cls, grids: np.ndarray, dy: np.ndarray, dx: np.ndarray, shape: tuple[int, int]) -> "RiseMasks":
        """The masks of (N, g, g) 0/1 grids cropped at (dy, dx) for an
        (H, W) image: the one place that builds the upsampling matrices."""
        g = grids.shape[1]
        h, w = shape
        return cls(grids, dy, dx, _interp_matrix(g, (g + 1) * math.ceil(h / g)),
                   _interp_matrix(g, (g + 1) * math.ceil(w / g)), (h, w))

    def __len__(self) -> int:
        return self.grids.shape[0]

    def block(self, start: int, stop: int) -> np.ndarray:
        """Masks start..stop at full resolution, (n, H, W)."""
        h, w = self.shape
        oversize = np.einsum("ri,nij,jc->nrc", self.rows, self.grids[start:stop], self.cols.T, optimize=True)
        return np.array([big[y:y + h, x:x + w]
                         for big, y, x in zip(oversize, self.dy[start:stop], self.dx[start:stop])])

    def embed(self, keep_kernel: np.ndarray) -> EmbeddedRows:
        """The rows of the masked queries, from the query's (D, H*W) keep
        kernel G: mask n embeds to ``grids[n].ravel() @ K.T``, where the
        (D, g*g) kernel of its offset is K[d] = rows_dy.T @ G[d] @ cols_dx."""
        h, w = self.shape
        g = keep_kernel.reshape(-1, h, w)
        emb = np.empty((len(self), g.shape[0]), dtype=np.float64)
        for y, at_y in self.offsets:
            half = self.rows[y:y + h].T @ g  # (D, g, W), once per row offset
            for x, idx in at_y:
                kernel = (half @ self.cols[x:x + w]).reshape(g.shape[0], -1)
                emb[idx] = embed_codes(kernel, self.grids[idx].reshape(idx.size, -1))
        return _with_norms(emb)

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_n weights[n] * mask n, each offset's masks summed as grids."""
        h, w = self.shape
        out = np.zeros((h, w), dtype=np.float64)
        for y, at_y in self.offsets:
            right = sum(np.einsum("n,nij->ij", weights[idx], self.grids[idx]) @ self.cols[x:x + w].T
                        for x, idx in at_y)
            out += self.rows[y:y + h] @ right
        return out


def _group_offsets(dy: np.ndarray, dx: np.ndarray) -> list:
    """Each row offset of ``dy`` with the (column offset, mask indices) of
    each of its column offsets, in ``np.unique`` order and draw order
    within an offset, so every per-offset sum keeps one order."""
    groups = []
    for y in np.unique(dy):
        at_y = dy == y
        groups.append((y, [(x, np.flatnonzero(at_y & (dx == x))) for x in np.unique(dx[at_y])]))
    return groups


def sample_rise_masks(cfg: RiseCfg, height: int, width: int, seed: int,
                      stream: int = _STREAM_QUERY_MASKS, count: int | None = None) -> RiseMasks:
    """Draw N RISE keep masks in grid form: Bernoulli(keep_prob) on a
    grid x grid lattice, bilinearly upsampled one cell oversize, then
    randomly cropped so the lattice never aligns with the image."""
    rng = make_rng(seed, stream)
    n = cfg.n_masks if count is None else count
    g = cfg.grid
    grids = (rng.random((n, g, g)) < cfg.keep_prob).astype(np.float64)
    dy = rng.integers(0, math.ceil(height / g), size=n)
    dx = rng.integers(0, math.ceil(width / g), size=n)
    return RiseMasks.of_grids(grids, dy, dx, (height, width))


def _reference_keep(cfg: SaliencyConfig, height: int, width: int) -> np.ndarray:
    """The keep masks of the reference's dual-mode variants: RISE masks
    from their own stream, or the reference's occlusion windows."""
    if cfg.method is Method.RISE:
        masks = sample_rise_masks(cfg.rise, height, width, cfg.seed,
                                  stream=_STREAM_REF_MASKS, count=cfg.rise.n_ref_masks)
        return masks.block(0, len(masks))
    return _occlusion_keep(height, width, cfg.sliding.windows_ref, cfg.sliding.window_area_frac)


def _references(ref: np.ndarray, codes: MapCodes) -> list[np.ndarray]:
    """The reference variants each query score is averaged over: the
    reference itself in fixed mode, its masked copies in dual mode."""
    if codes.ref_keep is None:
        return [ref]
    return list(_masked(ref, codes.ref_keep))


def _rise(codes: MapCodes, query: np.ndarray):
    """Score-weighted average of random keep masks."""
    masks = codes.masks
    scale = len(masks) * codes.cfg.rise.keep_prob
    return masks, lambda scores: masks.weighted_sum(scores) / scale


def _window_side(area_frac: float, height: int, width: int) -> int:
    side = int(round(math.sqrt(area_frac * height * width)))
    return max(side, 1)


def _window_origins(extent: int, side: int, n: int) -> np.ndarray:
    if side > extent:
        raise InvalidArgumentError(f"occlusion window side {side} exceeds image extent {extent}")
    if n == 1:
        return np.zeros(1, dtype=np.intp)
    return np.rint(np.arange(n) * ((extent - side) / (n - 1))).astype(np.intp)


def _occlusion_boxes(height: int, width: int, n_windows: int, area_frac: float) -> _Boxes:
    """Square occlusions, one per window of a regular origin lattice of
    ``n_windows`` (a square) origins, in raster order, and then the empty
    box of the unoccluded image."""
    g = math.isqrt(n_windows)
    side = _window_side(area_frac, height, width)
    top, left = (o.ravel() for o in np.meshgrid(_window_origins(height, side, g), _window_origins(width, side, g),
                                                 indexing="ij"))
    return _Boxes(np.append(top, 0), np.append(top + side, 0), np.append(left, 0), np.append(left + side, 0),
                  (height, width))


def _occlusion_keep(height: int, width: int, n_windows: int, area_frac: float) -> np.ndarray:
    """Boolean keep masks of the square occlusions of ``_occlusion_boxes``."""
    boxes = _occlusion_boxes(height, width, n_windows, area_frac)
    return boxes.block(0, len(boxes) - 1)


def _sliding_window(codes: MapCodes, query: np.ndarray):
    """Per-pixel similarity drop, averaged over every occlusion covering
    the pixel: saliency = s_full - mean(s_occluded)."""
    boxes = codes.masks

    def aggregate(scores: np.ndarray) -> np.ndarray:
        # the unoccluded query scores as the last row, an empty box
        base = float(scores[-1])
        drop_sum = np.zeros(codes.shape)
        for s_occ, t, b, l, r in zip(scores[:-1], boxes.top, boxes.bottom, boxes.left, boxes.right):
            # one window at a time, so each pixel sums its drops in window order
            drop_sum[t:b, l:r] += base - s_occ
        return np.divide(drop_sum, boxes.cover, out=np.zeros_like(drop_sum), where=boxes.cover > 0)

    return boxes, aggregate


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


@dataclass(frozen=True, eq=False)
class _Selections:
    """LIME's samples in code form: sample n keeps superpixel s of the
    query where keep[n, s]."""

    keep: np.ndarray      # (N, S) bool
    segments: np.ndarray  # (H, W) labels in [0, S)

    @property
    def shape(self) -> tuple[int, int]:
        return self.segments.shape

    def __len__(self) -> int:
        return self.keep.shape[0]

    def block(self, start: int, stop: int) -> np.ndarray:
        """Samples start..stop as (n, H, W) boolean keep masks."""
        return self.keep[start:stop][:, self.segments]

    def embed(self, keep_kernel: np.ndarray) -> EmbeddedRows:
        """The rows of the masked queries, from the query's (D, H*W) keep
        kernel: sample n embeds to ``keep[n] @ K``, where row s of the
        (S, D) kernel K embeds the indicator of superpixel s."""
        basis = self.segments.ravel() == np.arange(self.keep.shape[1])[:, None]
        return _with_norms(embed_codes(embed_codes(keep_kernel, basis).T, self.keep))


def _lime_selections(cfg: SaliencyConfig, segments: np.ndarray) -> _Selections:
    """LIME's random superpixel selections over ``segments``."""
    rng = make_rng(cfg.seed, _STREAM_LIME)
    # boolean selections multiply and centre with the same bits as 1.0/0.0
    keep = rng.random((cfg.lime.n_samples, int(segments.max()) + 1)) < cfg.lime.keep_prob
    return _Selections(keep, segments)


def _lime(codes: MapCodes, query: np.ndarray):
    """Lasso surrogate over random superpixel deletions.

    The map paints each superpixel with its nonnegative-clipped
    regression coefficient; region selection beyond the painting is out
    of scope. Fixed-reference only (``SaliencyConfig`` refuses dual mode).
    """
    cfg = codes.cfg
    selections = codes.masks
    if selections is None:  # the segments follow the query
        selections = _lime_selections(cfg, slic_like_segments(query, cfg.lime.n_segments))
    X = selections.keep - selections.keep.mean(axis=0, keepdims=True)

    def aggregate(scores: np.ndarray) -> np.ndarray:
        coef = lasso_coordinate_descent(X, scores - scores.mean(), alpha=cfg.lime.lasso_alpha * cfg.lime.n_samples,
                                        max_sweeps=cfg.lime.max_sweeps)
        return np.maximum(coef, 0.0)[selections.segments]

    return selections, aggregate


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


def _with_raw_norm(emb: np.ndarray) -> tuple[np.ndarray, float]:
    """An embedding with its unguarded norm."""
    return emb, math.sqrt(float(emb @ emb))


def _grid_laplacian(g: int) -> np.ndarray:
    """The (g*g, g*g) Laplacian of the g x g grid's 4-neighbour graph. For
    cells m in raster order, m @ L @ m sums the squared differences of
    adjacent cells, and 2 L m is its gradient."""
    diff = np.diff(np.eye(g), axis=0)  # one row per adjacent pair of a line
    path = diff.T @ diff
    return np.kron(path, np.eye(g)) + np.kron(np.eye(g), path)


class MaskObjective:
    """Differentiable objective for the learned-mask method.

    Parameters are unconstrained logits theta; the keep mask is
    sigmoid(theta) upsampled bilinearly to image resolution. The loss is

        sign * score(ref', query') + tv_weight * (TV(m_q) [+ TV(m_r)])
                                   + l1_weight * (sum(1 - m_q) [+ sum(1 - m_r)])

    where query' = q * M + base * (1 - M) and TV sums the squared
    differences of adjacent cells. In dual mode theta holds the query mask
    logits followed by the reference mask logits. M is linear in m, so for
    a scorer with ``keep_kernel`` a masked image embeds to ``e0 + m @ K``:
    e0 embeds the base, and row k of K embeds (img - base) under the k-th
    upsampled cell. The upsample is separable, so column d of K is the
    raveled (g, g) product ``rows.T @ G[d] @ cols`` of the keep kernel G of
    (img - base), seen as (D, H, W), and the (H, g) and (W, g)
    interpolation matrices; no full-resolution cell is formed. TV is the
    quadratic form of the grid Laplacian L, so its value is m @ L m and its
    gradient 2 L m. The scorer is asked only when the objective is built;
    an evaluation is a few small numpy calls and calls no scorer. A scorer
    without ``keep_kernel`` raises ``UnsupportedError``.
    """

    def __init__(self, scorer: Scorer, ref: np.ndarray, query: np.ndarray,
                 cfg: MaskCfg, dual: bool = False, seed: int = 0):
        kernel_of = getattr(scorer, "keep_kernel", None)
        if kernel_of is None:
            raise UnsupportedError("the learned mask needs a scorer with keep_kernel")
        self.cfg = cfg
        self.dual = dual
        h, w, _ = query.shape
        rng = make_rng(seed, _STREAM_MASK_NOISE)
        # (image, perturbation base) of each masked part: the query, then
        # the reference in dual mode
        self.parts = [(img, self._perturb_base(img, rng)) for img in ([query, ref] if dual else [query])]
        rows, cols = _interp_matrix(cfg.grid, h), _interp_matrix(cfg.grid, w)
        whole = np.ones((1, h * w))
        # (e0, K) of each part, K as (g*g, D)
        self.kernels = [(embed_codes(kernel_of(base), whole)[0],
                         (rows.T @ kernel_of(img - base).reshape(-1, h, w) @ cols).reshape(-1, cfg.grid ** 2).T)
                        for img, base in self.parts]
        # the fixed reference's embedding and norm, or none in dual mode
        self.fixed_ref = [] if dual else [_with_raw_norm(embed_codes(kernel_of(ref), whole)[0])]
        self.laplacian = _grid_laplacian(cfg.grid)

    def _perturb_base(self, img: np.ndarray, rng) -> np.ndarray:
        if self.cfg.perturb == "delete":
            return np.zeros_like(img)
        if self.cfg.perturb == "blur":
            return box_blur(img)
        return rng.random(img.shape)

    @property
    def n_params(self) -> int:
        return len(self.parts) * self.cfg.grid * self.cfg.grid

    def value(self, theta: np.ndarray) -> float:
        return self._evaluate(theta, want_grad=False)[0]

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self._evaluate(theta, want_grad=True)

    def _evaluate(self, theta: np.ndarray, want_grad: bool):
        cfg = self.cfg
        m = _sigmoid(np.asarray(theta, dtype=np.float64)).reshape(len(self.parts), -1)  # a row of cells per part
        # (embedding, norm) of the query, then of the reference; the cosine
        # and its gradients are those of _cosine_grad_pair
        sides = [_with_raw_norm(e0 + cells @ K) for (e0, K), cells in zip(self.kernels, m)] + self.fixed_ref
        (query, raw_nq), (ref, raw_nr) = sides
        scale = max(raw_nr, NORM_EPS) * max(raw_nq, NORM_EPS)
        score = float(ref @ query) / scale
        lap = m @ self.laplacian
        value = (cfg.preserve_sign * score + cfg.tv_weight * float(np.vdot(m, lap))
                 + cfg.l1_weight * (m.size - float(m.sum())))
        if not want_grad:
            return value, None
        if not math.isfinite(value):
            # caller raises on the value; gradients would only produce nan noise
            return value, np.zeros(m.size)
        grad = np.empty_like(m)  # row k: the score's gradient in the cells of part k
        # each masked part's side of the cosine, against the other side
        for row, (_, K), (own, raw), (other, _) in zip(grad, self.kernels, sides, sides[::-1]):
            d = other / scale
            if raw > NORM_EPS:  # else the norm is frozen at the guard and the score linear in this side
                d = d - score * own / (raw * raw)
            np.matmul(K, d, out=row)
        dm = cfg.preserve_sign * grad + (cfg.tv_weight * (2.0 * lap) - cfg.l1_weight)
        return value, (dm * m * (1.0 - m)).ravel()


def _learn_mask(scorer: Scorer, ref: np.ndarray, query: np.ndarray, cfg: SaliencyConfig) -> np.ndarray:
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


@dataclass(frozen=True, eq=False)
class MapCodes:
    """A saliency config with the work of it that no image changes, for
    (H, W) images: the one handle by which a map's config travels. Built
    once by ``map_codes`` and shared by every map made under the config,
    whatever the pair.

    ``masks`` are the query's keep masks as codes: RISE's ``RiseMasks``,
    grouped by offset; the occlusion windows and then the whole image as
    ``_Boxes``, the last one empty, with the count of windows covering
    each pixel; LIME's selections over grid segments. It is None for the
    learned mask and for ``slic_like`` LIME, whose segments follow the
    query. ``ref_keep`` holds the keep masks of the reference variants in
    dual-mode RISE and sliding window, and is None otherwise."""

    cfg: SaliencyConfig
    shape: tuple[int, int]
    masks: object
    ref_keep: np.ndarray | None


def map_codes(cfg: SaliencyConfig, height: int, width: int) -> MapCodes:
    """The per-config work of the maps ``cfg`` makes of (height, width)
    images: mask draws, occlusion windows, grid segments."""
    masks = None
    if cfg.method is Method.RISE:
        masks = sample_rise_masks(cfg.rise, height, width, cfg.seed)
    elif cfg.method is Method.SLIDING_WINDOW:
        masks = _occlusion_boxes(height, width, cfg.sliding.windows_query, cfg.sliding.window_area_frac)
    elif cfg.method is Method.LIME and cfg.lime.segmentation == "grid":
        masks = _lime_selections(cfg, grid_segments(height, width, cfg.lime.n_segments))
    dual = not cfg.fixed_reference and cfg.method in (Method.RISE, Method.SLIDING_WINDOW)
    return MapCodes(cfg, (height, width), masks, _reference_keep(cfg, height, width) if dual else None)


# The perturbation methods. Each takes a config's codes and one query and
# returns the query's keep masks as codes, with the function that turns one
# reference's attributed scores into its raw importance grid; what only the
# query decides is prepared there, once per query.
_AGGREGATIONS = {
    Method.SLIDING_WINDOW: _sliding_window,
    Method.RISE: _rise,
    Method.LIME: _lime,
}


def query_maps(scorer: Scorer, refs, query, codes: MapCodes) -> list[SaliencyMap]:
    """The normalized saliency map of ``query`` against each of ``refs``,
    in order, under the config of ``codes``, which must be built for the
    images' (H, W). A perturbation method scores the query's masks against
    every reference in one pass, its masked rows embedded once, and
    aggregates each reference's scores; an all-equal response is the
    degenerate zero map. The learned mask runs one Adam fit per pair. Each
    map has the bits that ``generate`` gives its pair alone."""
    refs = [_as_image(ref, scorer.dims) for ref in refs]
    query = _as_image(query, scorer.dims)
    if codes.shape != query.shape[:2]:
        raise InvalidArgumentError("the map codes were built for another image size")
    cfg = codes.cfg
    if cfg.method is Method.MASK:
        raws = [_learn_mask(scorer, ref, query, cfg) for ref in refs]
    else:
        masks, aggregate = _AGGREGATIONS[cfg.method](codes, query)
        all_scores = _score_refs(scorer, (_references(ref, codes) for ref in refs), query, masks)
        # an all-equal score response carries no signal: the zero map
        raws = [np.zeros(codes.shape) if scores.max() == scores.min() else aggregate(scores)
                for scores in all_scores]
    return [SaliencyMap(normalize_map(raw), method=cfg.method, fixed_reference=cfg.fixed_reference, normalized=True)
            for raw in raws]


def generate(scorer: Scorer, ref, query, cfg: SaliencyConfig) -> SaliencyMap:
    """The normalized saliency map of ``query`` against ``ref`` under the
    method ``cfg`` names: ``query_maps`` of one reference, with codes built
    for the scorer's image size. Deterministic in (seed, cfg, scorer,
    images); an all-equal score response yields the degenerate zero map
    rather than an error."""
    [smap] = query_maps(scorer, [ref], query, map_codes(cfg, *scorer.dims[:2]))
    return smap


def map_by_query(fn, pairs, map_fn) -> list:
    """``fn(query, refs)``, a list with one result per reference, for the
    (reference, query) keys in ``pairs`` grouped by query: one call per
    query, in order of first appearance, made through the order-preserving
    ``map_fn(fn, items)``. The results come back in pair order."""
    groups: dict = {}
    for k, (_, query) in enumerate(pairs):
        groups.setdefault(query, []).append(k)
    items = [(query, [pairs[k][0] for k in idx]) for query, idx in groups.items()]
    results = [None] * len(pairs)
    for idx, out in zip(groups.values(), map_fn(lambda item: fn(*item), items)):
        for k, result in zip(idx, out):
            results[k] = result
    return results
