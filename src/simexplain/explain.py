"""Ranked attribute explanations for a scored image pair.

An attribute's explanation score mixes three signals: the model's
attribute confidence, the cosine match between the pair's saliency map
and the attribute's activation map, and a validation-set prior over
winning attributes. The mixing weights come from a grid search on held
out pairs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attrmodel import AttributeModel
from .core import Dataset, Pair, SaliencyMap, normalize_map
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
        if not all(np.isfinite(vals)):
            raise InvalidArgumentError("phi weights must be finite")
        if all(v == 0.0 for v in vals):
            raise InvalidArgumentError("phi weights must not all be zero")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.phi1, self.phi2, self.phi3)

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


def explanation_scores(
    m_q: np.ndarray,
    confidences: np.ndarray,
    normalized_maps: np.ndarray,
    prior: Prior,
    phi: PhiWeights,
) -> np.ndarray:
    """e_i = phi1 * confidence_i + phi2 * cos(m_q, map_i) + phi3 * prior_i.

    ``m_q`` must be normalized at the same resolution as the activation
    maps. A degenerate (all-zero) map zeroes the cosine term for every
    attribute via the guarded norms.
    """
    conf = np.asarray(confidences, dtype=np.float64)
    A = conf.size
    if normalized_maps.shape[0] != A or prior.p.size != A:
        raise InvalidArgumentError("confidences, maps and prior must agree on the attribute count")
    return phi.combine(conf, _map_match(m_q, normalized_maps), prior)


def _map_match(m_q: np.ndarray, normalized_maps: np.ndarray) -> np.ndarray:
    m_flat = np.asarray(m_q, dtype=np.float64).ravel()
    return np.array([cosine(m_flat, m.ravel()) for m in normalized_maps])


def rank_attributes(e: np.ndarray) -> np.ndarray:
    """Indices sorted by explanation score descending, ties to lower index."""
    return np.argsort(-np.asarray(e), kind="stable")


@dataclass(frozen=True)
class PairFeatures:
    """Per-pair quantities every ranking variant reuses."""

    query_id: str
    reference_id: str
    m_q: np.ndarray          # match-resolution, normalized
    confidences: np.ndarray  # (A,)
    map_match: np.ndarray    # (A,) cosine of m_q vs each normalized activation map
    gt: np.ndarray           # ground-truth attribute indices of the query

    def top1(self, prior: Prior, phi: PhiWeights) -> int:
        """The attribute ranked first under ``phi`` and ``prior``."""
        return int(rank_attributes(phi.combine(self.confidences, self.map_match, prior))[0])


def _features_of(model: AttributeModel, scorer: Scorer, ref, query, saliency_cfg: SaliencyConfig,
                 query_id: str, reference_id: str, gt: np.ndarray) -> tuple[SaliencyMap, PairFeatures]:
    """saliency map -> match-resolution map -> attribute maps -> cosine match."""
    smap = generate(scorer, ref, query, saliency_cfg)
    m_q = smap.at_match_resolution(model.extractor.grid)
    pred = model.forward(query)
    maps = np.stack([normalize_map(m) for m in pred.maps])
    return smap, PairFeatures(query_id=query_id, reference_id=reference_id, m_q=m_q,
                              confidences=pred.confidences, map_match=_map_match(m_q, maps), gt=gt)


def pair_features(
    model: AttributeModel,
    scorer: Scorer,
    dataset: Dataset,
    pairs: Sequence[Pair],
    saliency_cfg: SaliencyConfig,
) -> list[PairFeatures]:
    return [
        _features_of(model, scorer, dataset.image(p.reference_id), dataset.image(p.query_id), saliency_cfg,
                     p.query_id, p.reference_id, dataset.gt_attributes(p.query_id))[1]
        for p in pairs
    ]


@dataclass(frozen=True)
class PriorEstimate:
    prior: Prior
    n_used: int
    n_skipped: int


def estimate_prior(features: Sequence[PairFeatures], n_attributes: int) -> PriorEstimate:
    """Count map-match winners among ground-truth attributes, add-one
    smoothed over the whole catalog so unseen attributes keep mass."""
    counts = np.zeros(n_attributes, dtype=np.float64)
    skipped = 0
    for f in features:
        if f.gt.size == 0:
            skipped += 1
            continue
        winner = f.gt[int(np.argmax(f.map_match[f.gt]))]
        counts[winner] += 1.0
    used = len(features) - skipped
    if skipped:
        log.warning("prior estimation skipped %d pair(s) without ground-truth attributes", skipped)
    prior = Prior((counts + 1.0) / (counts.sum() + n_attributes))
    return PriorEstimate(prior=prior, n_used=used, n_skipped=skipped)


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
    smap, f = _features_of(model, scorer, ref, query, cfg.saliency, query_id, reference_id,
                           gt=np.empty(0, dtype=np.intp))
    e = cfg.phi.combine(f.confidences, f.map_match, prior)
    ranked = tuple(
        RankedAttribute(
            attribute=int(a),
            score=float(e[a]),
            confidence=float(f.confidences[a]),
            map_match=float(f.map_match[a]),
            prior=float(prior.p[a]),
        )
        for a in rank_attributes(e)
    )
    return ExplanationResult(query_id=query_id, reference_id=reference_id, saliency=smap, ranked=ranked)


def _accuracy_for_phi(features: Sequence[PairFeatures], prior: Prior, phi: PhiWeights) -> float:
    hits = 0
    used = 0
    for f in features:
        if f.gt.size == 0:
            continue
        hits += int(f.top1(prior, phi) in set(f.gt.tolist()))
        used += 1
    return hits / used if used else 0.0


def fit_phi(
    features: Sequence[PairFeatures],
    prior: Prior,
    grid_step: float = 0.05,
    phi3_values: Sequence[float] = (0.0, 0.05, 0.1),
) -> PhiWeights:
    """Exhaustive grid search maximizing top-1 accuracy on held-out pairs.

    Ties prefer a larger map-matching weight, then a smaller confidence
    weight, then a smaller prior weight, evaluated in a fixed grid order.
    """
    if grid_step <= 0 or grid_step > 1:
        raise InvalidArgumentError("grid_step must lie in (0, 1]")

    n_steps = int(round(1.0 / grid_step))
    axis = np.arange(n_steps + 1) * grid_step
    best_key = None
    best_phi = None
    for p1 in axis:
        for p2 in axis:
            for p3 in phi3_values:
                if p1 == 0.0 and p2 == 0.0 and p3 == 0.0:
                    continue
                phi = PhiWeights(float(p1), float(p2), float(p3))
                acc = _accuracy_for_phi(features, prior, phi)
                key = (acc, p2, -p1, -p3)
                if best_key is None or key > best_key:
                    best_key = key
                    best_phi = phi
    return best_phi
