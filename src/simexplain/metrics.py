"""Quantitative evaluation: insertion/deletion curves, attribute
recognition mAP and the attribute-removal similarity drop. Top-1
explanation accuracy is the rule of ``explain.PairFeatures``.

Every metric is a pure function of its pair, so evaluation order never
changes a per-pair result. Reported values are scaled by 100.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Curve, Dataset, Pair, _as_grid, _as_image, resize_bilinear, trapezoid_auc
from .errors import InvalidArgumentError
from .saliency import _Nested, score_masked
from .scorers import Scorer, cosines

log = logging.getLogger(__name__)


def _pixel_order(smap, height: int, width: int) -> np.ndarray:
    """Pixel indices by saliency descending; raster order breaks ties."""
    grid = _as_grid(smap)
    if grid.shape != (height, width):
        grid = resize_bilinear(grid, height, width)
    return np.argsort(-grid.ravel(), kind="stable")


def _step_fractions(step_frac: float) -> np.ndarray:
    if not 0.0 < step_frac <= 1.0:
        raise InvalidArgumentError("step_frac must lie in (0, 1]")
    n_steps = max(int(round(1.0 / step_frac)), 1)
    return np.arange(n_steps + 1) / n_steps


def _curve_from_raw(fractions: np.ndarray, raw: np.ndarray) -> Curve:
    lo, hi = float(raw.min()), float(raw.max())
    if hi == lo:
        # Flat response carries no ranking signal; by convention the
        # normalized curve sits at 0.5 and so does its AUC.
        norm = np.full_like(raw, 0.5)
        return Curve(fractions, norm, auc=0.5, raw_scores=raw, degenerate=True)
    norm = (raw - lo) / (hi - lo)
    return Curve(fractions, norm, auc=trapezoid_auc(fractions, norm), raw_scores=raw)


def _composite_curve(
    scorer: Scorer,
    ref,
    query,
    smap,
    step_frac: float,
    keep_selected: bool,
) -> Curve:
    """Score the query with its top-k% salient pixels kept (insertion) or
    zeroed (deletion) at each step of the sweep."""
    query_arr = _as_image(query, scorer.dims)
    h, w, _ = query_arr.shape
    fractions = _step_fractions(step_frac)
    # step k selects the top round(fractions[k] * h * w) pixels
    steps = _Nested(_pixel_order(smap, h, w), np.rint(fractions * h * w).astype(np.intp), keep_selected, (h, w))
    return _curve_from_raw(fractions, score_masked(scorer, [ref], query_arr, steps))


def insertion_curve(scorer: Scorer, ref, query, smap, step_frac: float = 0.01) -> Curve:
    """Copy the top-k% salient pixels onto a blank image, k sweeping 0..100.

    Scores are min-max normalized per pair across the sweep; AUC is the
    trapezoid area of the normalized curve.
    """
    return _composite_curve(scorer, ref, query, smap, step_frac, keep_selected=True)


def deletion_curve(scorer: Scorer, ref, query, smap, step_frac: float = 0.01) -> Curve:
    """Zero-fill the top-k% salient pixels of the original query."""
    return _composite_curve(scorer, ref, query, smap, step_frac, keep_selected=False)


# ---------------------------------------------------------------------------
# Attribute recognition / explanation metrics
# ---------------------------------------------------------------------------


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """AP of ranking `scores` against binary `labels`; None when there are
    no positives. Ranking is descending with stable order on ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    hits = labels[order].astype(np.float64)
    cum_hits = np.cumsum(hits)
    ranks = np.arange(1, labels.size + 1)
    precision_at_hit = (cum_hits / ranks) * hits
    return float(precision_at_hit.sum() / n_pos)


def mean_average_precision(confidences: np.ndarray, labels: np.ndarray) -> float:
    """Macro mAP over attributes (fraction in [0, 1]); attributes with no
    positive image are skipped."""
    conf = np.asarray(confidences, dtype=np.float64)
    lab = np.asarray(labels)
    if conf.shape != lab.shape:
        raise InvalidArgumentError("confidence and label matrices must share a shape")
    aps = []
    skipped = 0
    for a in range(conf.shape[1]):
        ap = average_precision(conf[:, a], lab[:, a])
        if ap is None:
            skipped += 1
        else:
            aps.append(ap)
    if skipped:
        log.info("mAP skipped %d attribute(s) with no positives", skipped)
    return float(np.mean(aps)) if aps else 0.0


def map_metric(model, dataset: Dataset, split: str) -> float:
    """Attribute-recognition mAP (x100) over the images of one split."""
    ids = dataset.image_ids_for_split(split)
    if not ids:
        raise InvalidArgumentError(f"split {split!r} has no images")
    conf = np.stack([model.forward(dataset.image(i)).confidences for i in ids])
    labels = dataset.labels[[dataset.row(i) for i in ids]]
    return 100.0 * mean_average_precision(conf, labels)


# ---------------------------------------------------------------------------
# Attribute removal
# ---------------------------------------------------------------------------


def embed_images(scorer: Scorer, dataset: Dataset, ids: Sequence[str],
                 embeddings: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """``embeddings`` (a new dict when None) with the scorer's embedding of
    each image in ``ids`` it lacks added by id: a caller that passes one
    dict to every call embeds each image once."""
    embeddings = {} if embeddings is None else embeddings
    for i in ids:
        if i not in embeddings:
            embeddings[i] = scorer.embed(dataset.image(i)).data
    return embeddings


@dataclass(frozen=True)
class RemovalResult:
    mean_delta: float  # x100 similarity points
    n_used: int
    n_skipped: int


def attribute_removal_delta(
    scorer: Scorer,
    dataset: Dataset,
    pairs: Sequence[Pair],
    explained_attrs: Sequence[int | None],
    corpus_ids: Sequence[str],
    labels: np.ndarray | None = None,
    embeddings: dict[str, np.ndarray] | None = None,
) -> RemovalResult:
    """Similarity drop when the explained attribute is "removed".

    For each pair, retrieve the corpus image most similar to the query
    (by ``scorers.cosines`` of scorer embeddings, one batch per pair, the
    first on a tie) among images lacking the explained attribute in
    ``labels`` (the dataset's ground truth by default), and report
    mean(s(ref, query) - s(ref, retrieved)) x100. A pair without an
    explained attribute (None) or without an eligible corpus image is
    skipped. The corpus and query embeddings go through ``embed_images``
    with ``embeddings``.
    """
    if len(explained_attrs) != len(pairs):
        raise InvalidArgumentError("need exactly one explained attribute per pair")
    if not scorer.caps.can_embed:
        raise InvalidArgumentError("attribute removal needs an embedding-capable scorer")
    labels = dataset.labels if labels is None else labels
    corpus_ids = list(corpus_ids)
    embeddings = embed_images(scorer, dataset, [*corpus_ids, *(p.query_id for p in pairs)], embeddings)

    deltas = []
    skipped = 0
    for pair, attr in zip(pairs, explained_attrs):
        candidates = [] if attr is None else [
            cid for cid in corpus_ids if cid != pair.query_id and not labels[dataset.row(cid), attr]]
        if not candidates:
            skipped += 1
            continue
        sims = cosines(embeddings[pair.query_id], np.stack([embeddings[cid] for cid in candidates]))
        retrieved = candidates[int(np.argmax(sims))]
        ref_img = dataset.image(pair.reference_id)
        original = scorer.score(ref_img, dataset.image(pair.query_id))
        replaced = scorer.score(ref_img, dataset.image(retrieved))
        deltas.append(original - replaced)
    if skipped:
        log.warning("attribute removal skipped %d pair(s) with no attribute or no eligible corpus image", skipped)
    mean = 100.0 * float(np.mean(deltas)) if deltas else 0.0
    return RemovalResult(mean_delta=mean, n_used=len(deltas), n_skipped=skipped)


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def mean_and_stderr(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0, 0.0
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
