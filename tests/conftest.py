import dataclasses

import numpy as np
import pytest

import simexplain as se
from simexplain.attrmodel import TrainConfig, train
from simexplain.core import _as_image
from simexplain.scorers import Scorer, ScorerCaps


class ConstantScorer(Scorer):
    """Returns the same score for every input; the no-signal edge case."""

    def __init__(self, dims: tuple[int, int, int], value: float = 0.5):
        self.dims = dims
        self.value = float(value)

    @property
    def caps(self) -> ScorerCaps:
        return ScorerCaps(can_embed=False, max_batch=4096)

    def score_batch(self, ref, queries) -> np.ndarray:
        _as_image(ref, self.dims)
        for q in queries:
            _as_image(q, self.dims)
        return np.full(len(queries), self.value, dtype=np.float64)


def build_bank(dataset, scorer, cfg, k=5):
    """Fixed-reference saliency maps for train queries, up to k per query."""
    bank = {}
    count = {}
    for p in dataset.pairs_for_split("train"):
        if count.get(p.query_id, 0) >= k:
            continue
        count[p.query_id] = count.get(p.query_id, 0) + 1
        smap = se.generate(scorer, dataset.image(p.reference_id), dataset.image(p.query_id), cfg)
        bank.setdefault(p.query_id, []).append(smap)
    return bank


def maps_of(dataset, scorer, pairs, cfg):
    """The saliency map of each pair, in pair order."""
    return [se.generate(scorer, dataset.image(p.reference_id), dataset.image(p.query_id), cfg) for p in pairs]


@pytest.fixture(scope="session")
def small_dataset():
    return se.generate_dataset(se.SyntheticSpec(n_images=24, seed=3))


@pytest.fixture(scope="session")
def sliding_cfg():
    return dataclasses.replace(se.SaliencyConfig(seed=17), method=se.Method.SLIDING_WINDOW)


@pytest.fixture(scope="session")
def trained_setup(sliding_cfg):
    """Dataset + motif scorer + attribute model trained with map supervision."""
    spec = se.SyntheticSpec(n_images=48, seed=17, n_attributes=6, max_attrs_per_image=2)
    dataset = se.generate_dataset(spec)
    scorer = se.motif_scorer_for(dataset, seed=5)
    bank = build_bank(dataset, scorer, sliding_cfg)
    model = train(dataset, bank, TrainConfig(epochs=300, seed=17, n_filters=64))
    return spec, dataset, scorer, model


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
