import dataclasses

import numpy as np
import pytest

import simexplain as se
from simexplain.attrmodel import TrainConfig, train
from simexplain.core import _as_image
from simexplain.saliency import map_codes, query_maps
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


class KernelCounter(se.LinearToyScorer):
    """A linear scorer that records the query of each keep kernel it builds."""

    def __init__(self, inner):
        super().__init__(inner.weight, inner.dims)
        self.kernels = []

    def keep_kernel(self, query):
        self.kernels.append(np.asarray(getattr(query, "data", query), dtype=np.float64).tobytes())
        return super().keep_kernel(query)


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


def assert_query_maps_equal_single_pairs(scorer, refs, query, cfg):
    """query_maps of a group, and of its last reference alone with the
    same codes, give each map the bytes generate gives its pair."""
    want = [se.generate(scorer, ref, query, cfg) for ref in refs]
    codes = map_codes(cfg, *query.shape[:2])
    got = query_maps(scorer, refs, query, codes)
    [alone] = query_maps(scorer, refs[-1:], query, codes)
    for smap, single in zip([*got, alone], [*want, want[-1]]):
        assert smap.data.tobytes() == single.data.tobytes()
        assert (smap.method, smap.fixed_reference, smap.degenerate) == (
            single.method, single.fixed_reference, single.degenerate)
    return got


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
