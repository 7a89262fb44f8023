"""Quantitative evaluation: insertion/deletion curves, attribute
recognition mAP, top-1 explanation accuracy, and the attribute-removal
similarity drop.

Every metric is a pure function of its pair, so evaluation order never
changes a per-pair result. Reported values are scaled by 100.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Curve, Dataset, ImageTensor, Pair, SaliencyMap, resize_map, trapezoid_auc
from .errors import InvalidArgumentError
from .scorers import Scorer, cosine, score_image_stack

log = logging.getLogger(__name__)


def _pixel_order(smap, height: int, width: int) -> np.ndarray:
    """Pixel indices by saliency descending; raster order breaks ties."""
    grid = smap.data if isinstance(smap, SaliencyMap) else np.asarray(smap)
    if grid.shape != (height, width):
        grid = resize_map(grid, height, width, mode="bilinear")
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
    query_arr = query.data if isinstance(query, ImageTensor) else np.asarray(query)
    query_arr = query_arr.astype(np.float64, copy=False)
    h, w, c = query_arr.shape
    order = _pixel_order(smap, h, w)
    fractions = _step_fractions(step_frac)
    counts = np.rint(fractions * h * w).astype(np.intp)

    flat_query = query_arr.reshape(-1, c)
    stack = np.empty((fractions.size, h * w, c), dtype=np.float64)
    for k, count in enumerate(counts):
        selected = order[:count]
        if keep_selected:
            img = np.zeros_like(flat_query)
            img[selected] = flat_query[selected]
        else:
            img = flat_query.copy()
            img[selected] = 0.0
        stack[k] = img
    raw = score_image_stack(scorer, ref, stack.reshape(fractions.size, h, w, c))
    return _curve_from_raw(fractions, raw)


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


def top1_accuracy_from_attrs(pred_attrs: Sequence[int], gt_sets: Sequence[Sequence[int]]) -> float:
    """Fraction (x100) of pairs whose predicted attribute is ground truth."""
    if len(pred_attrs) != len(gt_sets) or not pred_attrs:
        raise InvalidArgumentError("need one prediction per pair, at least one pair")
    hits = sum(int(a in set(gt)) for a, gt in zip(pred_attrs, gt_sets))
    return 100.0 * hits / len(pred_attrs)


# ---------------------------------------------------------------------------
# Attribute removal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemovalResult:
    mean_delta: float  # x100 similarity points
    n_used: int
    n_skipped: int


def removal_delta_core(
    scorer: Scorer,
    dataset: Dataset,
    pairs: Sequence[Pair],
    explained_attrs: Sequence[int],
    attr_labels: np.ndarray,
    corpus_ids: Sequence[str],
    confidence_of: Callable[[str, int], float] | None = None,
    confidence_threshold: float | None = None,
) -> RemovalResult:
    """Similarity drop when the explained attribute is "removed".

    For each pair, retrieve the corpus image most similar to the query
    (scorer embeddings, cosine) among images lacking the explained
    attribute in ``attr_labels`` (plus, optionally, a low model
    confidence for it), and report mean(s(ref, query) - s(ref,
    retrieved)) x100. Pairs with no eligible corpus image are skipped.
    """
    if len(explained_attrs) != len(pairs):
        raise InvalidArgumentError("need exactly one explained attribute per pair")
    if not scorer.caps.can_embed:
        raise InvalidArgumentError("attribute removal needs an embedding-capable scorer")
    corpus_ids = list(corpus_ids)
    embeddings = {i: scorer.embed(dataset.image(i)).data for i in corpus_ids}

    deltas = []
    skipped = 0
    for pair, attr in zip(pairs, explained_attrs):
        query_emb = scorer.embed(dataset.image(pair.query_id)).data
        candidates = []
        for cid in corpus_ids:
            if cid == pair.query_id or attr_labels[dataset.row(cid), attr]:
                continue
            if confidence_of is not None and confidence_threshold is not None:
                if confidence_of(cid, attr) >= confidence_threshold:
                    continue
            candidates.append(cid)
        if not candidates:
            skipped += 1
            continue
        sims = [cosine(query_emb, embeddings[cid]) for cid in candidates]
        retrieved = candidates[int(np.argmax(sims))]
        ref_img = dataset.image(pair.reference_id)
        original = scorer.score(ref_img, dataset.image(pair.query_id))
        replaced = scorer.score(ref_img, dataset.image(retrieved))
        deltas.append(original - replaced)
    if skipped:
        log.warning("attribute removal skipped %d pair(s) with no eligible corpus image", skipped)
    mean = 100.0 * float(np.mean(deltas)) if deltas else 0.0
    return RemovalResult(mean_delta=mean, n_used=len(deltas), n_skipped=skipped)


def attribute_removal_delta(
    scorer: Scorer,
    dataset: Dataset,
    pairs: Sequence[Pair],
    explained_attrs: Sequence[int],
    corpus_ids: Sequence[str] | None = None,
    model=None,
    use_confidence_gate: bool = False,
) -> RemovalResult:
    """Ground-truth-label removal metric over a test corpus.

    With ``use_confidence_gate`` the retrieved image must additionally
    have model confidence below 0.5/A for the removed attribute.
    """
    if corpus_ids is None:
        corpus_ids = dataset.image_ids_for_split("test")
    confidence_of = None
    threshold = None
    if use_confidence_gate:
        if model is None:
            raise InvalidArgumentError("confidence gating needs the attribute model")
        cache: dict[str, np.ndarray] = {}

        def confidence_of(cid: str, attr: int) -> float:
            if cid not in cache:
                cache[cid] = model.forward(dataset.image(cid)).confidences
            return float(cache[cid][attr])

        threshold = 0.5 / dataset.n_attributes
    return removal_delta_core(
        scorer, dataset, pairs, explained_attrs, dataset.labels, corpus_ids,
        confidence_of=confidence_of, confidence_threshold=threshold,
    )


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
