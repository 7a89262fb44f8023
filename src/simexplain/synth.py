"""Synthetic desk-scale dataset with attribute-localized motifs.

Each attribute owns a fixed slot on the image and a fixed visual pattern
(solid color, stripes, or checker). An image's ground-truth labels are
exactly the motifs rendered into it, so planted-ground-truth oracles
exist for every saliency and explanation test: the slot of an attribute
is known, and a scorer keyed to that slot is constructible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AttributeCatalog, Dataset, ImageTensor, Pair, _is_int, make_rng
from .errors import InvalidArgumentError, ParseError
from .scorers import LinearToyScorer, Rect

_STREAM_IMAGES = 41
_STREAM_SPLITS = 42
_STREAM_LABELS = 43

_PATTERNS = ("solid", "hstripes", "vstripes", "checker")


@dataclass(frozen=True)
class SyntheticSpec:
    n_images: int = 64
    side: int = 56
    n_attributes: int = 8
    channels: int = 3
    noise: float = 0.05
    seed: int = 0
    max_attrs_per_image: int = 3
    pairs_per_query: int = 3
    similarity_attribute: int = 0
    split_fracs: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        if self.n_images < 4 or self.side < 14 or self.n_attributes < 1 or self.channels < 1:
            raise InvalidArgumentError("spec too small to generate a usable dataset")
        if not 0.0 <= self.noise < 0.5:
            raise InvalidArgumentError("noise must lie in [0, 0.5)")
        if not 0 <= self.similarity_attribute < self.n_attributes:
            raise InvalidArgumentError("similarity_attribute out of range")
        if self.max_attrs_per_image < 1 or self.pairs_per_query < 1:
            raise InvalidArgumentError("max_attrs_per_image and pairs_per_query must be >= 1")
        if not all(0.0 <= f <= 1.0 for f in self.split_fracs):
            raise InvalidArgumentError("split fractions must be finite and in [0, 1]")
        if abs(sum(self.split_fracs) - 1.0) > 1e-9:
            raise InvalidArgumentError("split fractions must sum to 1")
        _, slot, starts = _layout(self)
        # every column of the layout is used and the rows reuse its offsets,
        # so slots are disjoint exactly when neighbouring offsets are a slot apart
        if np.any(np.diff(starts) < slot):
            raise InvalidArgumentError(f"{self.n_attributes} motif slots overlap on a {self.side}-pixel side")


def _layout(spec: SyntheticSpec) -> tuple[int, int, list[int]]:
    """Columns of the layout grid, slot side, and the slot offsets along
    either axis."""
    g = math.ceil(math.sqrt(spec.n_attributes))
    slot = max(spec.side // (g + 1), 6)
    margin = 2
    if g == 1:
        return g, slot, [margin]
    span = spec.side - slot - 2 * margin
    return g, slot, [margin + int(round(i * span / (g - 1))) for i in range(g)]


def motif_slots(spec: SyntheticSpec) -> list[Rect]:
    """One disjoint square slot per attribute, raster order on a layout grid."""
    g, slot, starts = _layout(spec)
    return [Rect(top=starts[a // g], left=starts[a % g], height=slot, width=slot)
            for a in range(spec.n_attributes)]


def _palette(spec: SyntheticSpec) -> np.ndarray:
    """Well-separated per-attribute colors; the dominant channel cycles."""
    colors = np.full((spec.n_attributes, spec.channels), 0.15)
    for a in range(spec.n_attributes):
        colors[a, a % spec.channels] = 0.95
        colors[a, (a // spec.channels) % spec.channels] = max(
            colors[a, (a // spec.channels) % spec.channels], 0.55
        )
    return colors


def _render_motif(img: np.ndarray, slot: Rect, color: np.ndarray, pattern: str, amp: float) -> None:
    rr = slice(slot.top, slot.top + slot.height)
    cc = slice(slot.left, slot.left + slot.width)
    block = np.zeros((slot.height, slot.width, img.shape[2]))
    ys, xs = np.meshgrid(np.arange(slot.height), np.arange(slot.width), indexing="ij")
    if pattern == "solid":
        on = np.ones_like(ys, dtype=bool)
    elif pattern == "hstripes":
        on = (ys // 3) % 2 == 0
    elif pattern == "vstripes":
        on = (xs // 3) % 2 == 0
    else:  # checker
        on = ((ys // 3) + (xs // 3)) % 2 == 0
    block[on] = np.clip(color * amp, 0.0, 1.0)
    block[~on] = 0.06
    img[rr, cc, :] = block


def generate_dataset(spec: SyntheticSpec) -> Dataset:
    """Build the dataset in memory; byte-deterministic in the seed."""
    slots = motif_slots(spec)
    colors = _palette(spec)
    label_rng = make_rng(spec.seed, _STREAM_LABELS)
    image_rng = make_rng(spec.seed, _STREAM_IMAGES)

    ids = [f"img{k:03d}" for k in range(spec.n_images)]
    labels = np.zeros((spec.n_images, spec.n_attributes), dtype=np.int8)
    images = []
    for k in range(spec.n_images):
        n_attrs = int(label_rng.integers(1, spec.max_attrs_per_image + 1))
        attrs = np.sort(label_rng.choice(spec.n_attributes, size=min(n_attrs, spec.n_attributes), replace=False))
        labels[k, attrs] = 1
        img = image_rng.random((spec.side, spec.side, spec.channels)) * spec.noise
        for a in attrs:
            amp = 0.9 + 0.1 * image_rng.random()
            _render_motif(img, slots[a], colors[a], _PATTERNS[a % len(_PATTERNS)], amp)
        images.append((ids[k], ImageTensor(np.clip(img, 0.0, 1.0))))

    split_rng = make_rng(spec.seed, _STREAM_SPLITS)
    order = split_rng.permutation(spec.n_images)
    n_train = int(round(spec.split_fracs[0] * spec.n_images))
    n_val = int(round(spec.split_fracs[1] * spec.n_images))
    split_of = {}
    for pos, k in enumerate(order):
        if pos < n_train:
            split_of[ids[k]] = "train"
        elif pos < n_train + n_val:
            split_of[ids[k]] = "val"
        else:
            split_of[ids[k]] = "test"

    pairs = []
    for k, img_id in enumerate(ids):
        split = split_of[img_id]
        shared = []
        for j, other_id in enumerate(ids):
            if j == k or split_of[other_id] != split:
                continue
            overlap = int((labels[k] & labels[j]).sum())
            if overlap > 0:
                shared.append((-overlap, j, other_id))
        shared.sort()
        for _, _, ref_id in shared[: spec.pairs_per_query]:
            pairs.append(Pair(img_id, ref_id, split))

    catalog = AttributeCatalog(tuple(f"attr{a:02d}" for a in range(spec.n_attributes)))
    meta = {
        "generator": "synthetic-motifs",
        "seed": spec.seed,
        "noise": spec.noise,
        "similarity_attribute": spec.similarity_attribute,
        "motif_slots": {
            f"attr{a:02d}": [s.top, s.left, s.height, s.width] for a, s in enumerate(slots)
        },
    }
    return Dataset(images=tuple(images), labels=labels, pairs=tuple(pairs), catalog=catalog, meta=meta)


def slots_from_meta(dataset: Dataset) -> dict[int, Rect]:
    """Recover motif slots recorded by the generator: ``meta.motif_slots``
    maps catalog names to [top, left, height, width] inside the image."""
    raw = dataset.meta.get("motif_slots")
    if not raw:
        raise InvalidArgumentError("dataset meta carries no motif slots")
    if not isinstance(raw, dict):
        raise ParseError("meta.motif_slots must be an object mapping attribute names to slots")
    rows, cols = dataset.dims[:2]
    out = {}
    for name, slot in raw.items():
        if name not in dataset.catalog.names:
            raise ParseError(f"meta.motif_slots names {name!r}, which the catalog lacks")
        if not (isinstance(slot, list) and len(slot) == 4 and _is_int(*slot)):
            raise ParseError(f"meta.motif_slots[{name!r}] must be four integers [top, left, height, width]")
        top, left, h, w = slot
        if min(top, left) < 0 or min(h, w) < 1 or top + h > rows or left + w > cols:
            raise ParseError(f"meta.motif_slots[{name!r}] = {slot} does not lie inside the {rows}x{cols} image")
        out[dataset.catalog.index(name)] = Rect(top, left, h, w)
    return out


def planted_scorer_for(dataset: Dataset, embed_dim: int = 16, seed: int = 0) -> LinearToyScorer:
    """Scorer keyed to the slot of the designated similarity-relevant attribute."""
    slots = slots_from_meta(dataset)
    attribute = dataset.meta.get("similarity_attribute", 0)
    if not _is_int(attribute) or attribute not in slots:
        raise ParseError(f"meta.similarity_attribute {attribute!r} is not the index of a motif slot")
    return LinearToyScorer.planted(dataset.dims, slots[attribute], embed_dim=embed_dim, seed=seed)


def motif_scorer_for(dataset: Dataset, embed_dim: int = 24, seed: int = 0) -> LinearToyScorer:
    """Scorer keyed to every motif slot."""
    slots = slots_from_meta(dataset)
    return LinearToyScorer.planted(dataset.dims, [slots[a] for a in sorted(slots)], embed_dim=embed_dim, seed=seed)
