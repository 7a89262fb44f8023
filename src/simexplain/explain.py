"""Ranked attribute explanations for a scored image pair.

An attribute's explanation score mixes three signals: the model's
attribute confidence, the cosine match between the pair's saliency map
and the attribute's activation map, and a validation-set prior over
winning attributes. The mixing weights come from a grid search on held
out pairs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .attrmodel import AttributeModel
from .core import Dataset, Pair, SaliencyMap, normalize_map, to_match_resolution
from .errors import InvalidArgumentError
from .saliency import SaliencyConfig, generate
from .scorers import Scorer, cosine

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Prior:
    """How often each attribute wins the map match on held-out pairs."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidArgumentError("prior must be a nonempty vector")
        if not np.isfinite(arr).all():
            raise InvalidArgumentError("prior entries must be finite")
        if arr.min() < 0 or abs(arr.sum() - 1.0) > 1e-6:
            raise InvalidArgumentError("prior must be nonnegative and sum to 1")
        object.__setattr__(self, "p", arr)

    @classmethod
    def uniform(cls, n: int) -> "Prior":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class PhiWeights:
    phi1: float = 0.1
    phi2: float = 0.9
    phi3: float = 0.05

    def __post_init__(self):
        vals = (self.phi1, self.phi2, self.phi3)
        if not all(map(math.isfinite, vals)):
            raise InvalidArgumentError("phi weights must be finite")
        if all(v == 0.0 for v in vals):
            raise InvalidArgumentError("phi weights must not all be zero")

    def combine(self, confidences: np.ndarray, map_match: np.ndarray, prior: Prior) -> np.ndarray:
        """e_i = phi1 * confidence_i + phi2 * map_match_i + phi3 * prior_i."""
        return self.phi1 * confidences + self.phi2 * map_match + self.phi3 * prior.p


CONFIDENCE_ONLY_PHI = PhiWeights(1.0, 0.0, 0.0)


@dataclass(frozen=True)
class RankedAttribute:
    attribute: int
    score: float
    confidence: float
    map_match: float
    prior: float


@dataclass(frozen=True)
class ExplanationResult:
    query_id: str
    reference_id: str
    saliency: SaliencyMap
    ranked: tuple[RankedAttribute, ...]

    @property
    def top1(self) -> int:
        return self.ranked[0].attribute


@dataclass(frozen=True)
class ExplainConfig:
    saliency: SaliencyConfig = field(default_factory=SaliencyConfig)
    phi: PhiWeights = field(default_factory=PhiWeights)
    prior: Prior | None = None


def rank_attributes(e: np.ndarray) -> np.ndarray:
    """Indices sorted by explanation score descending, ties to lower index."""
    return np.argsort(-np.asarray(e), kind="stable")


@dataclass(frozen=True)
class PairFeatures:
    """The ranking inputs of P pairs over A attributes, one row per pair."""

    confidences: np.ndarray  # (P, A)
    map_match: np.ndarray    # (P, A) cosine of each pair's map vs each normalized activation map
    gt: np.ndarray           # (P, A) bool, the query's ground-truth attributes

    def top1(self, prior: Prior, phi: PhiWeights) -> np.ndarray:
        """Each pair's attribute ranked first under ``phi`` and ``prior``:
        the first maximum, the tie rule of :func:`rank_attributes`."""
        return np.argmax(phi.combine(self.confidences, self.map_match, prior), axis=1)

    @cached_property
    def _n_labelled(self) -> int:
        """:func:`_require_labelled` of the table, counted once: :func:`fit_phi`
        applies the rule at every grid point."""
        return _require_labelled(self.gt)

    def top1_accuracy(self, attrs: Sequence[int]) -> float:
        """The top-1 rule: the percent of the pairs whose query has ground
        truth for which ``attrs[i]``, the attribute given for pair i, is
        ground truth. A pair without ground truth is no miss; a table
        without a labelled pair is refused."""
        if len(attrs) != len(self.gt):
            raise InvalidArgumentError(f"need one attribute per pair: {len(attrs)} for {len(self.gt)} pairs")
        n_labelled = self._n_labelled
        hits = int(np.count_nonzero(self.gt[np.arange(len(self.gt)), attrs]))
        return 100.0 * hits / n_labelled


def _ground_truth(dataset: Dataset, pairs: Sequence[Pair]) -> np.ndarray:
    """(P, A) bool: the ground-truth attributes of each pair's query."""
    return dataset.labels[[dataset.row(p.query_id) for p in pairs]].astype(bool)


def _require_labelled(gt: np.ndarray) -> int:
    """How many pairs (rows of ``gt``) have a query with ground-truth
    attributes; without one, a split can neither be fit nor scored top-1."""
    n_labelled = int(gt.any(axis=1).sum())
    if not n_labelled:
        raise InvalidArgumentError(f"top-1 accuracy needs a pair whose query has ground-truth attributes: "
                                   f"{len(gt)} pair(s) given, none labelled")
    return n_labelled


def _features_of(model: AttributeModel, smap: SaliencyMap, query) -> tuple[np.ndarray, np.ndarray]:
    """saliency map -> match-resolution map -> (confidences, cosine match with each attribute map)."""
    m_q = to_match_resolution(smap, model.extractor.grid)
    pred = model.forward(query)
    return pred.confidences, np.array([cosine(m_q, normalize_map(m)) for m in pred.maps])


def pair_features(
    model: AttributeModel,
    maps: Sequence[SaliencyMap],
    dataset: Dataset,
    pairs: Sequence[Pair],
) -> PairFeatures:
    """The features of all pairs from their saliency maps; ``maps[i]`` belongs to ``pairs[i]``."""
    shape = (len(pairs), model.n_attributes)
    table = PairFeatures(np.zeros(shape), np.zeros(shape), _ground_truth(dataset, pairs))
    for i, (smap, p) in enumerate(zip(maps, pairs, strict=True)):
        table.confidences[i], table.map_match[i] = _features_of(model, smap, dataset.image(p.query_id))
    return table


@dataclass(frozen=True)
class PriorEstimate:
    prior: Prior
    n_used: int
    n_skipped: int


def estimate_prior(features: PairFeatures, n_attributes: int) -> PriorEstimate:
    """Count map-match winners (each pair's first maximum inside its ground
    truth), add-one smoothed over the whole catalog so unseen attributes
    keep mass."""
    used = features.gt.any(axis=1)
    winners = np.where(features.gt, features.map_match, -np.inf)[used].argmax(axis=1)
    counts = np.bincount(winners, minlength=n_attributes).astype(np.float64)
    n_used = int(used.sum())
    skipped = used.size - n_used
    if skipped:
        log.warning("prior estimation skipped %d pair(s) without ground-truth attributes", skipped)
    prior = Prior((counts + 1.0) / (counts.sum() + n_attributes))
    return PriorEstimate(prior=prior, n_used=n_used, n_skipped=skipped)


def explain_pair(
    scorer: Scorer,
    model: AttributeModel,
    ref,
    query,
    cfg: ExplainConfig,
    query_id: str = "query",
    reference_id: str = "reference",
) -> ExplanationResult:
    """Full path: saliency map -> attribute prediction -> ranked scores."""
    prior = cfg.prior if cfg.prior is not None else Prior.uniform(model.n_attributes)
    if prior.p.size != model.n_attributes:
        raise InvalidArgumentError(f"prior has {prior.p.size} entries for {model.n_attributes} attributes")
    smap = generate(scorer, ref, query, cfg.saliency)
    confidences, map_match = _features_of(model, smap, query)
    e = cfg.phi.combine(confidences, map_match, prior)
    ranked = tuple(
        RankedAttribute(
            attribute=int(a),
            score=float(e[a]),
            confidence=float(confidences[a]),
            map_match=float(map_match[a]),
            prior=float(prior.p[a]),
        )
        for a in rank_attributes(e)
    )
    return ExplanationResult(query_id=query_id, reference_id=reference_id, saliency=smap, ranked=ranked)


def fit_phi(features: PairFeatures, prior: Prior, grid_step: float = 0.05) -> PhiWeights:
    """Exhaustive grid search maximizing :meth:`PairFeatures.top1_accuracy`
    on held-out pairs: phi1 and phi2 on a ``grid_step`` grid over [0, 1],
    phi3 in {0, 0.05, 0.1}.

    Ties prefer a larger map-matching weight, then a smaller confidence
    weight, then a smaller prior weight.
    """
    if not 0.0 < grid_step <= 1.0:
        raise InvalidArgumentError("grid_step must lie in (0, 1]")

    axis = np.arange(int(round(1.0 / grid_step)) + 1) * grid_step
    grid = [PhiWeights(float(p1), float(p2), p3)
            for p1 in axis for p2 in axis for p3 in (0.0, 0.05, 0.1) if p1 or p2 or p3]
    return max(grid, key=lambda phi: (features.top1_accuracy(features.top1(prior, phi)),
                                      phi.phi2, -phi.phi1, -phi.phi3))
