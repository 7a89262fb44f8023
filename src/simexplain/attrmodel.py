"""Attribute explanation model.

A fixed random filter bank turns an image into a D-channel feature grid
at the canonical match resolution; a trainable linear head produces one
activation map per attribute. Global average pooling plus softmax turns
the maps into confidences. Training combines a Huber regression loss on
the confidences with a map-matching loss that pulls at least one
ground-truth activation map toward each precomputed saliency map.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import (MATCH_RESOLUTION, Dataset, SaliencyMap, _as_image, make_rng, normalize_map,
                   to_match_resolution)
from .errors import InvalidArgumentError
from .optim import Adam

log = logging.getLogger(__name__)

_STREAM_EXTRACTOR = 21
_STREAM_TRAIN = 22


class FeatureExtractor:
    """Fixed (untrained) bank of local filters producing a (D, g, g) grid.

    Each grid cell sees one image block; the same filter weights apply to
    every block, so image sides must be divisible by the grid. The bank
    is fully determined by (dims, n_filters, grid, seed).
    """

    def __init__(self, dims: tuple[int, int, int], n_filters: int = 64,
                 grid: int = MATCH_RESOLUTION, seed: int = 0):
        h, w, c = dims
        if h % grid or w % grid:
            raise InvalidArgumentError(f"image sides {h}x{w} must be divisible by the {grid}x{grid} feature grid")
        self.dims = (h, w, c)
        self.grid = grid
        self.n_filters = n_filters
        self.seed = int(seed)
        self.block = (h // grid, w // grid)
        patch_len = self.block[0] * self.block[1] * c
        rng = make_rng(self.seed, _STREAM_EXTRACTOR)
        # Gain 4 keeps filter responses (and hence activation-map spans)
        # near unit scale, which balances the two training loss terms.
        self.weight = rng.normal(scale=4.0 / np.sqrt(patch_len), size=(n_filters, patch_len))
        self.bias = rng.normal(scale=0.1, size=n_filters)

    def features(self, image) -> np.ndarray:
        """ReLU filter responses per block, shape (n_filters, grid, grid)."""
        g = self.grid
        bh, bw = self.block
        patches = (
            _as_image(image, self.dims)
            .reshape(g, bh, g, bw, self.dims[2])
            .transpose(0, 2, 1, 3, 4)
            .reshape(g * g, -1)
        )
        z = patches @ self.weight.T + self.bias
        np.maximum(z, 0.0, out=z)
        return z.T.reshape(self.n_filters, g, g)


@dataclass(frozen=True, eq=False)
class AttrPrediction:
    """Softmax confidences (sum 1) plus un-normalized activation maps."""

    confidences: np.ndarray  # (A,)
    maps: np.ndarray         # (A, g, g)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


class AttributeModel:
    """Feature extractor plus linear attribute head."""

    def __init__(self, extractor: FeatureExtractor, head_weights: np.ndarray, head_bias: np.ndarray):
        head_weights = np.asarray(head_weights, dtype=np.float64)
        head_bias = np.asarray(head_bias, dtype=np.float64)
        if head_weights.ndim != 2 or head_weights.shape[1] != extractor.n_filters:
            raise InvalidArgumentError(
                f"head must be (A, {extractor.n_filters}), got {head_weights.shape}"
            )
        if head_bias.shape != (head_weights.shape[0],):
            raise InvalidArgumentError("head bias length must match attribute count")
        if not (np.all(np.isfinite(head_weights)) and np.all(np.isfinite(head_bias))):
            raise InvalidArgumentError("head parameters must be finite")
        self.extractor = extractor
        self.head_weights = head_weights
        self.head_bias = head_bias

    @property
    def n_attributes(self) -> int:
        return self.head_weights.shape[0]

    def activation_maps(self, features: np.ndarray) -> np.ndarray:
        return np.einsum("ad,dij->aij", self.head_weights, features) + self.head_bias[:, None, None]

    def forward(self, image) -> AttrPrediction:
        z = self.extractor.features(image)
        maps = self.activation_maps(z)
        logits = maps.mean(axis=(1, 2))
        return AttrPrediction(confidences=softmax(logits), maps=maps)

    @classmethod
    def init(cls, extractor: FeatureExtractor, n_attributes: int, seed: int = 0) -> "AttributeModel":
        rng = make_rng(seed, _STREAM_TRAIN, 0)
        w = rng.normal(scale=0.1, size=(n_attributes, extractor.n_filters))
        b = np.zeros(n_attributes)
        return cls(extractor, w, b)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def scale_labels(label_row: np.ndarray) -> np.ndarray:
    """Binary labels scaled by the ground-truth count: positives get 1/A_gt."""
    row = np.asarray(label_row, dtype=np.float64)
    total = row.sum()
    if total <= 0:
        raise InvalidArgumentError("cannot scale an all-zero label row")
    return row / total


def huber_loss(confidences: np.ndarray, scaled_labels: np.ndarray) -> float:
    """Piecewise regression loss summed over attributes.

    diff = label - confidence; quadratic 0.5*diff^2 where |diff| <= 1,
    otherwise the raw diff. With softmax confidences and scaled labels
    |diff| <= 1 always holds, so the linear branch is unreachable there.
    """
    conf = np.asarray(confidences, dtype=np.float64)
    labels = np.asarray(scaled_labels, dtype=np.float64)
    if conf.shape != labels.shape:
        raise InvalidArgumentError("confidence/label length mismatch")
    diff = labels - conf
    per_attr = np.where(np.abs(diff) <= 1.0, 0.5 * diff * diff, diff)
    return float(per_attr.sum())


def _nearest_map(m: np.ndarray, maps: Sequence[np.ndarray]) -> tuple[int, float]:
    """Index of the map in ``maps`` closest to ``m`` in L2, and that distance."""
    dists = [float(np.linalg.norm(m - n)) for n in maps]
    j = int(np.argmin(dists))
    return j, dists[j]


def heatmap_loss(saliency_maps: Sequence[np.ndarray], gt_maps: Sequence[np.ndarray]) -> float:
    """Mean over saliency maps of the distance to the best-matching
    ground-truth activation map: (1/K) sum_m min_n ||m - n||_2."""
    if not len(saliency_maps):
        raise InvalidArgumentError("need at least one saliency map")
    if not len(gt_maps):
        raise InvalidArgumentError("need at least one ground-truth activation map")
    sal = [np.asarray(m, dtype=np.float64) for m in saliency_maps]
    gts = [np.asarray(n, dtype=np.float64) for n in gt_maps]
    for arr in sal + gts:
        if arr.shape != sal[0].shape:
            raise InvalidArgumentError(f"map resolution mismatch: {arr.shape} vs {sal[0].shape}")
    return sum(_nearest_map(m, gts)[1] for m in sal) / len(sal)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 300
    lr: float = 5e-4
    lam: float = 5e-3
    k_maps: int = 5
    seed: int = 0
    batch_size: int = 16
    n_filters: int = 64

    def __post_init__(self):
        if min(self.epochs, self.k_maps, self.batch_size, self.n_filters) < 1:
            raise InvalidArgumentError("epochs, k_maps, batch_size, n_filters must be >= 1")
        if not (0.0 < self.lr < np.inf and 0.0 <= self.lam < np.inf):
            raise InvalidArgumentError("lr must be finite and > 0, lambda finite and >= 0")


@dataclass
class _Sample:
    image_id: str
    features: np.ndarray            # (D, g, g)
    scaled: np.ndarray | None       # (A,) or None when the row is all zero
    gt_attrs: np.ndarray            # indices into the catalog
    maps: list[np.ndarray] = field(default_factory=list)  # (g, g) normalized


def _normalize_backprop(n: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum(upstream * minmax(n)) with respect to n.

    Min-max normalization is piecewise smooth; at the (measure-zero)
    degenerate plateau the subgradient 0 is used.
    """
    lo_idx = np.unravel_index(np.argmin(n), n.shape)
    hi_idx = np.unravel_index(np.argmax(n), n.shape)
    span = n[hi_idx] - n[lo_idx]
    if span == 0.0:
        return np.zeros_like(n)
    n_hat = (n - n[lo_idx]) / span
    g_sum = upstream.sum()
    weighted = float((upstream * n_hat).sum())
    grad = upstream.copy()
    grad[lo_idx] -= g_sum
    grad[hi_idx] -= weighted
    grad[lo_idx] += weighted
    return grad / span


def loss_and_grad(
    head_w: np.ndarray,
    head_b: np.ndarray,
    samples: Sequence[_Sample],
    lam: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean total loss over samples and its head gradients."""
    dW = np.zeros_like(head_w)
    db = np.zeros_like(head_b)
    total = 0.0
    n_used = 0
    for s in samples:
        z = s.features
        zbar = z.mean(axis=(1, 2))
        logits = head_w @ zbar + head_b
        conf = softmax(logits)
        sample_loss = 0.0

        if s.scaled is not None:
            diff = s.scaled - conf
            quad = np.abs(diff) <= 1.0
            sample_loss += float(np.where(quad, 0.5 * diff * diff, diff).sum())
            dconf = np.where(quad, -diff, -1.0)
            dlogits = conf * (dconf - float(dconf @ conf))
            dW += np.outer(dlogits, zbar)
            db += dlogits

        if lam > 0.0 and s.maps and len(s.gt_attrs):
            maps_n = np.einsum("ad,dij->aij", head_w[s.gt_attrs], z) + head_b[s.gt_attrs, None, None]
            normed = [normalize_map(m) for m in maps_n]
            upstream = [np.zeros_like(maps_n[0]) for _ in s.gt_attrs]
            hm = 0.0
            for m in s.maps:
                j, dist = _nearest_map(m, normed)
                hm += dist
                if dist > 0.0:
                    upstream[j] += (normed[j] - m) / dist
            scale = lam / len(s.maps)
            sample_loss += scale * hm
            for j, a_idx in enumerate(s.gt_attrs):
                gn = _normalize_backprop(maps_n[j], upstream[j]) * scale
                dW[a_idx] += np.einsum("ij,dij->d", gn, z)
                db[a_idx] += gn.sum()

        total += sample_loss
        n_used += 1
    if n_used == 0:
        return 0.0, dW, db
    return total / n_used, dW / n_used, db / n_used


def build_samples(
    dataset: Dataset,
    image_ids: Sequence[str],
    extractor: FeatureExtractor,
    saliency_bank: Mapping[str, Sequence] | None,
    k_maps: int,
) -> list[_Sample]:
    samples = []
    for img_id in image_ids:
        row = dataset.labels[dataset.row(img_id)]
        if row.sum() == 0:
            log.warning("image %s has no ground-truth attributes; skipping its label loss", img_id)
            scaled = None
        else:
            scaled = scale_labels(row)
        maps: list[np.ndarray] = []
        if saliency_bank:
            for entry in list(saliency_bank.get(img_id, ()))[:k_maps]:
                if isinstance(entry, SaliencyMap):
                    maps.append(to_match_resolution(entry, extractor.grid))
                else:
                    arr = np.asarray(entry, dtype=np.float64)
                    if arr.shape != (extractor.grid, extractor.grid):
                        raise InvalidArgumentError(
                            f"bank map for {img_id} has shape {arr.shape}, expected {(extractor.grid, extractor.grid)}"
                        )
                    maps.append(arr)
        samples.append(_Sample(
            image_id=img_id,
            features=extractor.features(dataset.image(img_id)),
            scaled=scaled,
            gt_attrs=dataset.gt_attributes(img_id),
            maps=maps,
        ))
    return samples


def train(dataset: Dataset, saliency_bank: Mapping[str, Sequence] | None, cfg: TrainConfig) -> AttributeModel:
    """Fit the linear head with Adam; keep the best validation-mAP epoch.

    ``saliency_bank`` maps a training image id to its saliency maps
    against up to K similar references. An empty bank degrades to the
    plain attribute-classifier baseline (the map-matching term is
    skipped with a warning).
    """
    from .metrics import mean_average_precision

    extractor = FeatureExtractor(dataset.dims, n_filters=cfg.n_filters, seed=cfg.seed)

    lam = cfg.lam
    if lam > 0.0 and not saliency_bank:
        log.warning("saliency bank is empty: training with the map-matching term disabled")
        lam = 0.0

    train_ids = dataset.image_ids_for_split("train")
    val_ids = dataset.image_ids_for_split("val")
    if not train_ids:
        raise InvalidArgumentError("dataset has no train pairs, nothing to fit")
    samples = build_samples(dataset, train_ids, extractor, saliency_bank, cfg.k_maps)

    A = dataset.n_attributes
    model = AttributeModel.init(extractor, A, seed=cfg.seed)
    W, b = model.head_weights.copy(), model.head_bias.copy()
    opt = Adam(lr=cfg.lr)
    rng = make_rng(cfg.seed, _STREAM_TRAIN, 1)

    val_features = [extractor.features(dataset.image(i)) for i in val_ids]
    val_labels = dataset.labels[[dataset.row(i) for i in val_ids]] if val_ids else None

    def val_map(Wc, bc) -> float:
        if not val_ids:
            return 0.0
        conf = []
        for z in val_features:
            logits = Wc @ z.mean(axis=(1, 2)) + bc
            conf.append(softmax(logits))
        return mean_average_precision(np.asarray(conf), val_labels)

    # Ties go to the later epoch: once validation mAP saturates, the most
    # trained weights at that plateau are the better-calibrated model.
    best = (-np.inf, W.copy(), b.copy())
    for _ in range(cfg.epochs):
        order = rng.permutation(len(samples))
        for start in range(0, len(order), cfg.batch_size):
            batch = [samples[k] for k in order[start:start + cfg.batch_size]]
            _, dW, db = loss_and_grad(W, b, batch, lam)
            flat = opt.step(np.concatenate([W.ravel(), b]), np.concatenate([dW.ravel(), db]))
            W = flat[: A * extractor.n_filters].reshape(A, extractor.n_filters)
            b = flat[A * extractor.n_filters:]
        score = val_map(W, b)
        if score >= best[0]:
            best = (score, W.copy(), b.copy())
    return AttributeModel(extractor, best[1], best[2])
