"""Similarity scorers: in-process toy embedding models behind the uniform
score / embed / gradient interface that the perturbation methods consume.

All built-in scorers are linear embeddings compared with epsilon-guarded
cosine similarity. Embeddings are computed with non-optimized einsum on
purpose: its per-row accumulation order is independent of batch size, so
score(), score_batch() and any chunking of it are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ImageTensor, make_rng
from .errors import InvalidArgumentError, UnsupportedError

NORM_EPS = 1e-12
_CHUNK = 512


@dataclass(frozen=True)
class ScorerCaps:
    can_score: bool = True
    can_embed: bool = False
    can_grad: bool = False
    max_batch: int = 1024

    def __post_init__(self):
        if not self.can_score:
            raise InvalidArgumentError("every scorer must support score()")
        if self.max_batch < 1:
            raise InvalidArgumentError("max_batch must be >= 1")


@dataclass(frozen=True, eq=False)
class Embedding:
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64).ravel()
        if arr.size < 1:
            raise InvalidArgumentError("embedding must have dim >= 1")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgumentError("embedding contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.size


@dataclass(frozen=True)
class Rect:
    """Pixel rectangle [top, top+height) x [left, left+width)."""

    top: int
    left: int
    height: int
    width: int

    def covers(self, row: int, col: int) -> bool:
        return self.top <= row < self.top + self.height and self.left <= col < self.left + self.width


def cosine(u: np.ndarray, v: np.ndarray, eps: float = NORM_EPS) -> float:
    """Cosine similarity with epsilon-guarded norms (blank inputs give 0)."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu = max(float(np.sqrt(u @ u)), eps)
    nv = max(float(np.sqrt(v @ v)), eps)
    return float(np.clip((u @ v) / (nu * nv), -1.0, 1.0))


def _as_flat(image, expected_shape: tuple[int, int, int]) -> np.ndarray:
    arr = image.data if isinstance(image, ImageTensor) else np.asarray(image)
    if arr.shape != expected_shape:
        raise InvalidArgumentError(f"image shape {arr.shape} does not match scorer dims {expected_shape}")
    return arr.astype(np.float64, copy=False).reshape(-1)


class Scorer:
    """Interface of the similarity model under explanation."""

    dims: tuple[int, int, int]

    @property
    def caps(self) -> ScorerCaps:
        raise NotImplementedError

    def score(self, ref, query) -> float:
        return float(self.score_batch(ref, [query])[0])

    def score_batch(self, ref, queries: Sequence) -> np.ndarray:
        raise NotImplementedError

    def embed(self, image) -> Embedding:
        raise UnsupportedError(f"{type(self).__name__} cannot embed")

    def grad_query(self, ref, query) -> np.ndarray:
        raise UnsupportedError(f"{type(self).__name__} has no gradient capability")

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class LinearEmbeddingScorer(Scorer):
    """Linear projection of the flattened image, compared by cosine."""

    def __init__(self, weight: np.ndarray, dims: tuple[int, int, int]):
        weight = np.asarray(weight, dtype=np.float64)
        h, w, c = dims
        if weight.ndim != 2 or weight.shape[1] != h * w * c:
            raise InvalidArgumentError(
                f"weight must be (D, {h * w * c}) for dims {dims}, got {weight.shape}"
            )
        if not np.all(np.isfinite(weight)):
            raise InvalidArgumentError("weight contains non-finite values")
        self.weight = weight
        self.dims = (h, w, c)

    @property
    def caps(self) -> ScorerCaps:
        return ScorerCaps(can_embed=True, can_grad=True, max_batch=4096)

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[0]

    def _embed_flat(self, flat_batch: np.ndarray) -> np.ndarray:
        # optimize=False keeps the accumulation per row independent of the
        # batch shape, which makes batch/single/chunked calls bit-identical.
        return np.einsum("np,dp->nd", flat_batch, self.weight, optimize=False)

    def embed(self, image) -> Embedding:
        flat = _as_flat(image, self.dims)
        return Embedding(self._embed_flat(flat[None, :])[0])

    def _ref_norm(self, ref_emb: np.ndarray) -> float:
        # same einsum path as the per-query norms so score(a, b) and
        # score(b, a) round identically
        return max(float(np.sqrt(np.einsum("d,d->", ref_emb, ref_emb, optimize=False))), NORM_EPS)

    def score_batch(self, ref, queries: Sequence) -> np.ndarray:
        flat = np.array([_as_flat(q, self.dims) for q in queries], dtype=np.float64)
        return self.score_batch_flat(ref, flat.reshape(len(queries), self.weight.shape[1]))

    def score_batch_flat(self, ref, flat_queries: np.ndarray) -> np.ndarray:
        """score_batch over pre-flattened rows; avoids per-image stacking."""
        ref_emb = self.embed(ref).data
        nu = self._ref_norm(ref_emb)
        n = flat_queries.shape[0]
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, _CHUNK):
            emb = self._embed_flat(flat_queries[start:start + _CHUNK].astype(np.float64, copy=False))
            dots = np.einsum("nd,d->n", emb, ref_emb, optimize=False)
            norms = np.maximum(np.sqrt(np.einsum("nd,nd->n", emb, emb, optimize=False)), NORM_EPS)
            out[start:start + emb.shape[0]] = dots / (norms * nu)
        return np.clip(out, -1.0, 1.0)

    def grad_query(self, ref, query) -> np.ndarray:
        """d score / d query pixels, shape (H, W, C).

        With u = W.ref fixed and v = W.query, the guarded cosine has
        dc/dv = u/(|u||v|) - c v/|v|^2; below the norm guard the
        denominator freezes and the score is linear in v.
        """
        u = self.embed(ref).data
        v = self.embed(query).data
        nu = max(float(np.sqrt(u @ u)), NORM_EPS)
        raw_nv = float(np.sqrt(v @ v))
        nv = max(raw_nv, NORM_EPS)
        dot = float(u @ v)
        dc_dv = u / (nu * nv)
        if raw_nv > NORM_EPS:
            dc_dv = dc_dv - (dot / (nu * nv)) * v / (nv * nv)
        grad_flat = dc_dv @ self.weight
        return grad_flat.reshape(self.dims)


class LinearToyScorer(LinearEmbeddingScorer):
    """Linear scorer whose weight can be concentrated on planted regions.

    Pixels outside the planted regions carry ``background_weight``-scaled
    weight (zero by default), so occlusions there provably do not move
    the score.
    """

    def __init__(self, weight: np.ndarray, dims: tuple[int, int, int],
                 plant_regions: tuple[Rect, ...] = ()):
        super().__init__(weight, dims)
        self.plant_regions = tuple(plant_regions)

    @classmethod
    def random(cls, dims: tuple[int, int, int], embed_dim: int = 16, seed: int = 0) -> "LinearToyScorer":
        h, w, c = dims
        rng = make_rng(seed, 0x11EA5)
        weight = rng.normal(size=(embed_dim, h * w * c))
        return cls(weight, dims)

    @classmethod
    def planted(
        cls,
        dims: tuple[int, int, int],
        regions: Rect | Sequence[Rect],
        embed_dim: int = 16,
        seed: int = 0,
        background_weight: float = 0.0,
    ) -> "LinearToyScorer":
        h, w, c = dims
        if isinstance(regions, Rect):
            regions = [regions]
        for r in regions:
            if r.top < 0 or r.left < 0 or r.top + r.height > h or r.left + r.width > w:
                raise InvalidArgumentError(f"planted region {r} exceeds image bounds {dims}")
        rng = make_rng(seed, 0x9141)
        weight = background_weight * rng.normal(size=(embed_dim, h, w, c))
        for r in regions:
            patch = rng.normal(size=(embed_dim, r.height, r.width, c))
            weight[:, r.top:r.top + r.height, r.left:r.left + r.width, :] = patch
        return cls(weight.reshape(embed_dim, -1), dims, plant_regions=tuple(regions))


class ConstantScorer(Scorer):
    """Returns the same score for every input; the no-signal edge case."""

    def __init__(self, dims: tuple[int, int, int], value: float = 0.5):
        self.dims = dims
        self.value = float(value)

    @property
    def caps(self) -> ScorerCaps:
        return ScorerCaps(can_embed=False, can_grad=False, max_batch=4096)

    def score_batch(self, ref, queries: Sequence) -> np.ndarray:
        _as_flat(ref, self.dims)
        for q in queries:
            _as_flat(q, self.dims)
        return np.full(len(queries), self.value, dtype=np.float64)


def score_image_stack(scorer: Scorer, ref, stack: np.ndarray) -> np.ndarray:
    """Score an (N, H, W, C) stack against one reference, order preserved.

    Uses the flat fast path when the scorer provides one; both paths are
    bitwise identical for the built-in scorers.
    """
    flat = np.asarray(stack).reshape(stack.shape[0], -1)
    fast = getattr(scorer, "score_batch_flat", None)
    if fast is not None:
        return fast(ref, flat)
    return scorer.score_batch(ref, list(stack))


def _cosine_grad_pair(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """d cos(u, v) / du and / dv plus the cosine value, norms assumed > eps."""
    nu = max(float(np.sqrt(u @ u)), NORM_EPS)
    nv = max(float(np.sqrt(v @ v)), NORM_EPS)
    c = float(u @ v) / (nu * nv)
    du = v / (nu * nv) - c * u / (nu * nu)
    dv = u / (nu * nv) - c * v / (nv * nv)
    return du, dv, c


class TripletToyScorer(LinearEmbeddingScorer):
    """Linear embedding fit with a cosine triplet hinge on a dataset.

    Trained with plain per-sample SGD: for each (anchor, positive,
    negative) the loss is max(0, margin - cos(a, p) + cos(a, n)).
    Training is seed-deterministic.
    """

    def __init__(self, weight: np.ndarray, dims: tuple[int, int, int], margin: float = 0.2):
        super().__init__(weight, dims)
        self.margin = float(margin)

    @classmethod
    def train_on(
        cls,
        dataset,
        embed_dim: int = 16,
        margin: float = 0.2,
        epochs: int = 200,
        lr: float = 0.05,
        seed: int = 0,
    ) -> "TripletToyScorer":
        rng = make_rng(seed, 0x7219)
        h, w, c = dataset.images[0][1].shape
        flats = {img_id: img.data.astype(np.float64).reshape(-1) for img_id, img in dataset.images}
        ids = [img_id for img_id, _ in dataset.images]

        triplets = []
        for pair in dataset.pairs_for_split("train"):
            anchor_attrs = set(dataset.gt_attributes(pair.query_id))
            disjoint = [
                i for i in ids
                if i != pair.query_id and not anchor_attrs & set(dataset.gt_attributes(i))
            ]
            pool = disjoint or [i for i in ids if i != pair.query_id]
            negative = pool[rng.integers(len(pool))]
            triplets.append((pair.query_id, pair.reference_id, negative))
        if not triplets:
            raise InvalidArgumentError("dataset has no train pairs to build triplets from")

        weight = rng.normal(scale=0.1, size=(embed_dim, h * w * c))
        for _ in range(epochs):
            order = rng.permutation(len(triplets))
            for k in order:
                a_id, p_id, n_id = triplets[k]
                a, p, n = flats[a_id], flats[p_id], flats[n_id]
                ea, ep, en = (weight @ a, weight @ p, weight @ n)
                dpa, dpp, cos_ap = _cosine_grad_pair(ea, ep)
                dna, dnn, cos_an = _cosine_grad_pair(ea, en)
                if margin - cos_ap + cos_an <= 0.0:
                    continue
                # dL/dW = -(d cos_ap/dW) + (d cos_an/dW)
                grad = np.outer(dna - dpa, a) - np.outer(dpp, p) + np.outer(dnn, n)
                weight -= lr * grad
        return cls(weight, (h, w, c), margin=margin)
