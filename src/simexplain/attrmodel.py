"""Attribute explanation model.

A fixed random filter bank turns an image into a D-channel feature grid
at the canonical match resolution; a trainable linear head produces one
activation map per attribute. Global average pooling plus softmax turns
the maps into confidences. Training combines a Huber regression loss on
the confidences with a map-matching loss that pulls, for each
precomputed saliency map, the nearest min-max normalized ground-truth
activation map toward it. ``loss_and_grad`` computes both over a whole
minibatch at once, through the same helpers as ``huber_loss`` and
``heatmap_loss``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .core import MATCH_RESOLUTION, Dataset, SaliencyMap, _as_image, make_rng, to_match_resolution
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
    """Softmax over the last axis."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def scale_labels(label_rows: np.ndarray) -> np.ndarray:
    """Binary labels scaled by each row's ground-truth count: positives get 1/A_gt."""
    rows = np.asarray(label_rows, dtype=np.float64)
    total = rows.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise InvalidArgumentError("cannot scale an all-zero label row")
    return rows / total


def _huber(conf: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Huber loss summed over the last axis, and its gradient in ``conf``."""
    diff = labels - conf
    quad = np.abs(diff) <= 1.0
    return np.where(quad, 0.5 * diff * diff, diff).sum(axis=-1), np.where(quad, -diff, -1.0)


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
    return float(_huber(conf, labels)[0])


def _distances(sal: np.ndarray, gts: np.ndarray) -> np.ndarray:
    """L2 distance table (..., K, A) from maps (..., K, G) to maps (..., A, G)."""
    diff = sal[..., :, None, :] - gts[..., None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


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
    dist = _distances(np.reshape(sal, (len(sal), -1)), np.reshape(gts, (len(gts), -1)))
    return float(dist.min(axis=-1).sum() / len(sal))


def _minmax(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Min-max normalization over the last axis, as ``normalize_map`` does,
    with the first argmin and argmax and the span (0 for a constant map)."""
    lo, hi = maps.argmin(axis=-1)[..., None], maps.argmax(axis=-1)[..., None]
    low = np.take_along_axis(maps, lo, -1)
    span = np.take_along_axis(maps, hi, -1) - low
    return np.divide(maps - low, span, out=np.zeros_like(maps), where=span > 0), lo, hi, span


def _minmax_backprop(upstream: np.ndarray, normed: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     span: np.ndarray) -> np.ndarray:
    """Gradient of sum(upstream * minmax(n)) in n, per last-axis row.

    Min-max normalization is piecewise smooth; on the (measure-zero)
    constant plateau the subgradient 0 is used.
    """
    g_sum = upstream.sum(axis=-1, keepdims=True)
    weighted = (upstream * normed).sum(axis=-1, keepdims=True)
    grad = upstream.copy()
    np.put_along_axis(grad, lo, np.take_along_axis(upstream, lo, -1) - g_sum + weighted, -1)
    np.put_along_axis(grad, hi, np.take_along_axis(upstream, hi, -1) - weighted, -1)
    return np.divide(grad, span, out=np.zeros_like(grad), where=span > 0)


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


@dataclass(frozen=True, eq=False)
class _Batch:
    """Training samples, one row per image."""

    features: np.ndarray  # (N, D, g, g)
    labels: np.ndarray    # (N, A) scaled labels, 0 on rows without ground truth
    gt: np.ndarray        # (N, A) ground-truth attributes
    maps: np.ndarray      # (N, K, g, g) normalized bank maps, 0 past has_map
    has_map: np.ndarray   # (N, K)

    def __len__(self) -> int:
        return len(self.features)

    def take(self, rows) -> "_Batch":
        return _Batch(*(getattr(self, f.name)[rows] for f in fields(self)))


def loss_and_grad(head_w: np.ndarray, head_b: np.ndarray, batch: _Batch,
                  lam: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean total loss over the batch's samples and its head gradients."""
    n = len(batch)
    if n == 0:
        return 0.0, np.zeros_like(head_w), np.zeros_like(head_b)
    z = batch.features.reshape(n, head_w.shape[1], -1)  # (N, D, G)
    zbar = z.mean(axis=-1)
    conf = softmax(zbar @ head_w.T + head_b)
    labelled = batch.gt.any(axis=-1)
    value, dconf = _huber(conf, batch.labels)
    loss = np.where(labelled, value, 0.0)
    dconf = np.where(labelled[:, None], dconf, 0.0)
    dlogits = conf * (dconf - (dconf * conf).sum(axis=-1, keepdims=True))
    dW, db = dlogits.T @ zbar, dlogits.sum(axis=0)

    if lam > 0.0:
        sal = batch.maps.reshape(n, batch.maps.shape[1], -1)  # (N, K, G)
        acts = head_w @ z + head_b[:, None]                     # (N, A, G)
        normed, lo, hi, span = _minmax(acts)
        # the first nearest ground-truth map, attributes in index order
        dist = np.where(batch.gt[:, None, :], _distances(sal, normed), np.inf)
        nearest = dist.argmin(axis=-1)
        d = np.take_along_axis(dist, nearest[..., None], -1)
        used = batch.has_map & labelled[:, None]
        n_maps = used.sum(axis=-1)
        scale = np.divide(lam, n_maps, out=np.zeros(n), where=n_maps > 0)
        loss += scale * np.where(used, d[..., 0], 0.0).sum(axis=-1)
        rows = np.arange(n)[:, None]
        step = np.divide(normed[rows, nearest] - sal, d, out=np.zeros_like(sal),
                         where=used[..., None] & (d > 0))
        upstream = np.zeros_like(acts)
        np.add.at(upstream, (rows, nearest), step)
        gn = _minmax_backprop(upstream, normed, lo, hi, span) * scale[:, None, None]
        dW += np.tensordot(gn, z, axes=([0, 2], [0, 2]))
        db += gn.sum(axis=(0, 2))
    return float(loss.sum() / n), dW / n, db / n


def build_samples(
    dataset: Dataset,
    image_ids: Sequence[str],
    extractor: FeatureExtractor,
    saliency_bank: Mapping[str, Sequence] | None,
    k_maps: int,
) -> _Batch:
    raw = dataset.labels[[dataset.row(i) for i in image_ids]].astype(np.float64)
    gt = raw > 0
    labelled = gt.any(axis=1)
    for img_id, ok in zip(image_ids, labelled):
        if not ok:
            log.warning("image %s has no ground-truth attributes; skipping its label loss", img_id)
    scaled = np.zeros_like(raw)
    scaled[labelled] = scale_labels(raw[labelled])
    g = extractor.grid
    entries = [list((saliency_bank or {}).get(i, ()))[:k_maps] for i in image_ids]
    maps = np.zeros((len(image_ids), max(map(len, entries), default=0), g, g))
    for img_id, row, out in zip(image_ids, entries, maps):
        for k, entry in enumerate(row):
            arr = to_match_resolution(entry, g) if isinstance(entry, SaliencyMap) else np.asarray(entry, float)
            if arr.shape != (g, g):
                raise InvalidArgumentError(f"bank map for {img_id} has shape {arr.shape}, expected {(g, g)}")
            out[k] = arr
    features = np.array([extractor.features(dataset.image(i)) for i in image_ids], dtype=np.float64)
    return _Batch(
        features=features.reshape(len(image_ids), extractor.n_filters, g, g),
        labels=scaled, gt=gt, maps=maps,
        has_map=np.arange(maps.shape[1]) < np.array([len(e) for e in entries], dtype=int)[:, None],
    )


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

    val_zbar = np.array([extractor.features(dataset.image(i)).mean(axis=(1, 2)) for i in val_ids])
    val_labels = dataset.labels[[dataset.row(i) for i in val_ids]]

    # Ties go to the later epoch: once validation mAP saturates, the most
    # trained weights at that plateau are the better-calibrated model.
    best = (-np.inf, W.copy(), b.copy())
    for _ in range(cfg.epochs):
        order = rng.permutation(len(samples))
        for start in range(0, len(order), cfg.batch_size):
            _, dW, db = loss_and_grad(W, b, samples.take(order[start:start + cfg.batch_size]), lam)
            flat = opt.step(np.concatenate([W.ravel(), b]), np.concatenate([dW.ravel(), db]))
            W = flat[: A * extractor.n_filters].reshape(A, extractor.n_filters)
            b = flat[A * extractor.n_filters:]
        score = mean_average_precision(softmax(val_zbar @ W.T + b), val_labels) if val_ids else 0.0
        if score >= best[0]:
            best = (score, W.copy(), b.copy())
    return AttributeModel(extractor, best[1], best[2])
