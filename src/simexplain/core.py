"""Core value types and grid operations.

Everything downstream (scorers, saliency generators, the attribute model,
metrics) is built on the immutable types here: float image tensors in
[0, 1], low-resolution saliency maps, the dataset model, and normalized
similarity curves. Grids are always row-major 2-D float arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrityError, InvalidArgumentError, InvalidDataError

# Canonical resolution at which saliency maps are compared with attribute
# activation maps. Everything is average-pooled to this grid before any
# map-to-map similarity is computed.
MATCH_RESOLUTION = 7

TRAIN, VAL, TEST = "train", "val", "test"
SPLITS = (TRAIN, VAL, TEST)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


class Method(enum.IntEnum):
    """Saliency generator identifier, stable across the on-disk format."""

    SLIDING_WINDOW = 0
    RISE = 1
    LIME = 2
    MASK = 3


@dataclass(frozen=True, eq=False)
class ImageTensor:
    """H x W x C float grid with values in [0, 1].

    The unit of scorer input and of every perturbation. Instances are
    immutable; the backing array is marked read-only.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise InvalidArgumentError(f"image must be rank-3 (H, W, C), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise InvalidArgumentError(f"image dims must all be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidDataError("image contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InvalidDataError("image values must lie in [0, 1]")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def __eq__(self, other) -> bool:
        return isinstance(other, ImageTensor) and np.array_equal(self.data, other.data)


@dataclass(frozen=True, eq=False)
class SaliencyMap:
    """Low-resolution importance grid over a query image.

    ``normalized`` means the values were min-max rescaled: either
    min == 0 and max == 1, or the map is the all-zero degenerate constant
    map (see :func:`normalize_map`).
    """

    data: np.ndarray
    method: Method
    fixed_reference: bool = True
    normalized: bool = False

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise InvalidArgumentError(f"saliency map must be a nonempty 2-D grid, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidDataError("saliency map contains non-finite values")
        if self.normalized and arr.any():
            if arr.min() != 0.0 or arr.max() != 1.0:
                raise InvalidDataError("normalized map must span [0, 1] or be all zeros")
        object.__setattr__(self, "data", _freeze(arr))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def degenerate(self) -> bool:
        """True for the all-zero constant map produced by a no-signal input."""
        return self.normalized and not self.data.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SaliencyMap)
            and self.method == other.method
            and self.fixed_reference == other.fixed_reference
            and self.normalized == other.normalized
            and np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True)
class AttributeCatalog:
    """Ordered attribute vocabulary."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        if not names:
            raise InvalidArgumentError("catalog must contain at least one attribute")
        if any(not isinstance(n, str) or not n for n in names):
            raise InvalidArgumentError("attribute names must be nonempty strings")
        if len(set(names)) != len(names):
            raise InvalidArgumentError("attribute names must be unique")
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class Pair:
    query_id: str
    reference_id: str
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise InvalidArgumentError(f"unknown split {self.split!r}, expected one of {SPLITS}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Images, binary attribute labels, and (query, reference) pairs.

    ``labels`` is an N x A {0,1} matrix whose rows follow image order.
    ``meta`` carries generator provenance (motif regions etc.); it is
    optional and never consulted by the algorithms themselves.
    """

    images: tuple[tuple[str, ImageTensor], ...]
    labels: np.ndarray
    pairs: tuple[Pair, ...]
    catalog: AttributeCatalog
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        images = tuple(self.images)
        labels = np.asarray(self.labels, dtype=np.int8)
        pairs = tuple(self.pairs)
        ids = [i for i, _ in images]
        if len(set(ids)) != len(ids):
            raise IntegrityError("duplicate image ids in dataset")
        if labels.shape != (len(images), len(self.catalog)):
            raise IntegrityError(
                f"label matrix shape {labels.shape} does not match {len(images)} images x {len(self.catalog)} attributes"
            )
        shapes = {img.shape for _, img in images}
        if len(shapes) > 1:
            raise IntegrityError(f"dataset images differ in shape: {', '.join(map(str, sorted(shapes)))}")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise InvalidDataError("label values must be 0 or 1")
        known = set(ids)
        dangling = sorted(
            {p.query_id for p in pairs if p.query_id not in known}
            | {p.reference_id for p in pairs if p.reference_id not in known}
        )
        if dangling:
            raise IntegrityError(f"pairs reference unknown image ids: {', '.join(dangling)}")
        seen_pairs: dict[tuple[str, str], str] = {}
        for p in pairs:
            prev = seen_pairs.setdefault((p.query_id, p.reference_id), p.split)
            if prev != p.split:
                raise IntegrityError(
                    f"pair ({p.query_id}, {p.reference_id}) appears in splits {prev} and {p.split}"
                )
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_index", {img_id: k for k, (img_id, _) in enumerate(images)})

    @property
    def n_images(self) -> int:
        return len(self.images)

    @property
    def n_attributes(self) -> int:
        return len(self.catalog)

    @property
    def dims(self) -> tuple[int, int, int]:
        """The (H, W, C) shape that every image of the dataset has."""
        if not self.images:
            raise IntegrityError("dataset has no images")
        return self.images[0][1].shape

    def image(self, image_id: str) -> ImageTensor:
        return self.images[self.row(image_id)][1]

    def row(self, image_id: str) -> int:
        try:
            return self._index[image_id]
        except KeyError:
            raise IntegrityError(f"unknown image id: {image_id}") from None

    def gt_attributes(self, image_id: str) -> np.ndarray:
        """Indices of ground-truth attributes for one image."""
        return np.flatnonzero(self.labels[self.row(image_id)])

    def pairs_for_split(self, split: str) -> list[Pair]:
        return [p for p in self.pairs if p.split == split]

    def image_ids_for_split(self, split: str) -> list[str]:
        """Unique ids appearing in the split's pairs, in first-seen order."""
        seen: dict[str, None] = {}
        for p in self.pairs_for_split(split):
            seen.setdefault(p.query_id)
            seen.setdefault(p.reference_id)
        return list(seen)


@dataclass(frozen=True, eq=False)
class Curve:
    """Normalized similarity as a function of inserted/deleted pixel fraction.

    ``scores`` holds the per-pair min-max normalized values used for the
    AUC; ``raw_scores`` keeps the unnormalized similarities for endpoint
    checks. ``degenerate`` flags a flat raw curve, whose AUC is 0.5 by
    convention.
    """

    fractions: np.ndarray
    scores: np.ndarray
    auc: float
    raw_scores: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        fr = np.asarray(self.fractions, dtype=np.float64)
        sc = np.asarray(self.scores, dtype=np.float64)
        raw = np.asarray(self.raw_scores, dtype=np.float64)
        if fr.shape != sc.shape or fr.shape != raw.shape:
            raise InvalidArgumentError("curve arrays must have equal lengths")
        if fr.size < 2 or fr[0] != 0.0 or fr[-1] != 1.0 or np.any(np.diff(fr) <= 0):
            raise InvalidArgumentError("fractions must increase strictly from 0 to 1")
        object.__setattr__(self, "fractions", _freeze(fr))
        object.__setattr__(self, "scores", _freeze(sc))
        object.__setattr__(self, "raw_scores", _freeze(raw))


# ---------------------------------------------------------------------------
# Grid operations
# ---------------------------------------------------------------------------


def _as_grid(grid: np.ndarray | SaliencyMap) -> np.ndarray:
    arr = grid.data if isinstance(grid, SaliencyMap) else np.asarray(grid)
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidArgumentError(f"expected a nonempty 2-D grid, got shape {arr.shape}")
    return arr


def _as_image(image, dims: tuple[int, int, int]) -> np.ndarray:
    """An ImageTensor or array as a float64 (H, W, C) array, checked to
    have the dims of the scorer or model that reads it."""
    arr = image.data if isinstance(image, ImageTensor) else np.asarray(image)
    if arr.shape != tuple(dims):
        raise InvalidArgumentError(f"image shape {arr.shape} does not match dims {tuple(dims)}")
    return arr.astype(np.float64, copy=False)


def _axis_positions(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aligned-corner sample positions: index pairs and fractional weights."""
    if n_in == 1 or n_out == 1:
        lo = np.zeros(n_out, dtype=np.intp)
        return lo, lo, np.zeros(n_out)
    pos = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    lo = np.minimum(pos.astype(np.intp), n_in - 2)
    frac = pos - lo
    return lo, lo + 1, frac


def _check_out_dims(out_rows: int, out_cols: int) -> None:
    if out_rows < 1 or out_cols < 1:
        raise InvalidArgumentError(f"output dims must be >= 1, got ({out_rows}, {out_cols})")


def resize_bilinear(grid: np.ndarray | SaliencyMap, out_rows: int, out_cols: int) -> np.ndarray:
    """Aligned-corner bilinear resample to (out_rows, out_cols).

    Computed as v0 + f*(v1 - v0) so constant grids are reproduced exactly
    and aligned samples (fraction 0) copy input values bit-for-bit.
    """
    _check_out_dims(out_rows, out_cols)
    g = _as_grid(grid)
    r0, r1, fr = _axis_positions(g.shape[0], out_rows)
    c0, c1, fc = _axis_positions(g.shape[1], out_cols)
    top = g[r0][:, c0] + fc[None, :] * (g[r0][:, c1] - g[r0][:, c0])
    bot = g[r1][:, c0] + fc[None, :] * (g[r1][:, c1] - g[r1][:, c0])
    return top + fr[:, None] * (bot - top)


def pool_boundaries(n_in: int, n_out: int) -> np.ndarray:
    """Near-equal partition boundaries: cell i covers [b[i], b[i+1])."""
    return ((np.arange(n_out + 1) * n_in) // n_out).astype(np.intp)


def _pool_ranges(n_in: int, n_out: int) -> list[tuple[int, int]]:
    """Per-cell input ranges; cells replicate (overlap) when upsampling."""
    bounds = pool_boundaries(n_in, n_out)
    return [(int(bounds[i]), max(int(bounds[i + 1]), int(bounds[i]) + 1)) for i in range(n_out)]


def resize_average_pool(grid: np.ndarray | SaliencyMap, out_rows: int, out_cols: int) -> np.ndarray:
    """Partition input cells into near-equal rectangles and average each:
    the canonical downsample for map matching."""
    _check_out_dims(out_rows, out_cols)
    g = _as_grid(grid)
    row_ranges = _pool_ranges(g.shape[0], out_rows)
    col_ranges = _pool_ranges(g.shape[1], out_cols)
    out = np.empty((out_rows, out_cols), dtype=np.float64)
    for i, (r0, r1) in enumerate(row_ranges):
        band = g[r0:r1]
        for j, (c0, c1) in enumerate(col_ranges):
            out[i, j] = band[:, c0:c1].mean()
    return out


def normalize_map(grid: np.ndarray | SaliencyMap) -> np.ndarray:
    """Min-max rescale to [0, 1].

    A constant grid has no usable signal: it maps to all zeros (the
    degenerate map) so downstream cosine matching treats it as
    uninformative rather than uniformly important.
    """
    g = _as_grid(grid)
    if not np.all(np.isfinite(g)):
        raise InvalidDataError("cannot normalize a grid with NaN/Inf values")
    lo = g.min()
    hi = g.max()
    if hi == lo:
        return np.zeros_like(g)
    return (g - lo) / (hi - lo)


def to_match_resolution(grid: np.ndarray | SaliencyMap, grid_size: int = MATCH_RESOLUTION) -> np.ndarray:
    """Pool any grid to the canonical comparison resolution and normalize."""
    return normalize_map(resize_average_pool(grid, grid_size, grid_size))


def trapezoid_auc(fractions: np.ndarray, scores: np.ndarray) -> float:
    fr = np.asarray(fractions, dtype=np.float64)
    sc = np.asarray(scores, dtype=np.float64)
    return float(np.sum(np.diff(fr) * (sc[:-1] + sc[1:]) * 0.5))


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic per-stage generator: same (seed, stream) -> same draws."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *[int(s) for s in stream]])
