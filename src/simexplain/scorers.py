"""Similarity scorers: in-process toy embedding models behind the uniform
score / embed interface that the perturbation methods consume.

Every scorer answers ``score_batch_flat`` over flattened pixel rows (the
base class forwards it to ``score_batch``). All built-in scorers are
linear embeddings compared with epsilon-guarded cosine similarity.
Embeddings use non-optimized einsum on purpose: its per-row accumulation
order is independent of batch size, so score(), score_batch() and any
chunking of it are bitwise identical, as is a stack embedded once with
``embed_batch_flat`` and then scored against many references.
``keep_kernel(query)`` is the (D, H*W) matrix G that embeds
``query * keep`` as ``G @ keep.ravel()``. The saliency methods embed keep
masks held as codes (RISE grids, LIME superpixels, occlusion boxes,
curve steps) from a kernel folded from G or from sums of its columns:
each row is bitwise independent of N and of block edges, and agrees
within 1e-9 with embedding the masked copy, which sums in another order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _as_image, make_rng
from .errors import InvalidArgumentError, UnsupportedError

NORM_EPS = 1e-12


@dataclass(frozen=True)
class ScorerCaps:
    can_embed: bool = False
    # the most queries per score_batch request; only an external peer's is read
    max_batch: int = 1024
    # the scorer answers score_masks(ref, query, masks) on keep-mask codes
    can_score_masks: bool = False

    def __post_init__(self):
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


@dataclass(frozen=True, eq=False)
class EmbeddedRows:
    """A stack of query rows embedded once: the (N, D) embeddings and their
    guarded norms, ready to be scored against any number of references."""

    emb: np.ndarray    # (N, D)
    norms: np.ndarray  # (N,), each max(|emb_i|, NORM_EPS)

    @property
    def shape(self) -> tuple[int, int]:
        return self.emb.shape


@dataclass(frozen=True)
class Rect:
    """Pixel rectangle [top, top+height) x [left, left+width)."""

    top: int
    left: int
    height: int
    width: int

    def covers(self, row: int, col: int) -> bool:
        return self.top <= row < self.top + self.height and self.left <= col < self.left + self.width


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

    def score_batch_flat(self, ref, rows: np.ndarray) -> np.ndarray:
        """score_batch over (N, H*W*C) pixel rows, order preserved."""
        return self.score_batch(ref, list(np.asarray(rows).reshape(-1, *self.dims)))

    def embed(self, image) -> Embedding:
        raise UnsupportedError(f"{type(self).__name__} cannot embed")

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
        return ScorerCaps(can_embed=True)

    @property
    def embed_dim(self) -> int:
        return self.weight.shape[0]

    def embed(self, image) -> Embedding:
        return Embedding(self._embed_one(image).emb[0])

    def score_batch(self, ref, queries: Sequence) -> np.ndarray:
        flat = np.array([_as_image(q, self.dims) for q in queries], dtype=np.float64)
        return self.score_batch_flat(ref, flat.reshape(len(queries), self.weight.shape[1]))

    def embed_batch_flat(self, rows: np.ndarray) -> EmbeddedRows:
        """Embed (N, H*W*C) pixel rows."""
        # optimize=False keeps the accumulation per row independent of the
        # batch shape, which makes batch/single/chunked calls bit-identical.
        emb = np.einsum("np,dp->nd", rows.astype(np.float64, copy=False), self.weight, optimize=False)
        return _with_norms(emb)

    def keep_kernel(self, query) -> np.ndarray:
        """The (D, H*W) matrix G that embeds ``query * keep`` as
        ``G @ keep.ravel()``: G[d, p] = sum_c weight[d, p, c] * query[p, c]."""
        h, w, c = self.dims
        query = _as_image(query, self.dims)
        return np.einsum("dpc,pc->dp", self.weight.reshape(-1, h * w, c), query.reshape(h * w, c), optimize=False)

    def _embed_one(self, image) -> EmbeddedRows:
        return self.embed_batch_flat(_as_image(image, self.dims).reshape(1, -1))

    def score_batch_flat(self, ref, queries) -> np.ndarray:
        """score_batch over pre-flattened rows, or over rows that
        embed_batch_flat already embedded; both give the same bits. The
        reference goes through the same routine, so score(a, b) and
        score(b, a) round identically."""
        if not isinstance(queries, EmbeddedRows):
            queries = self.embed_batch_flat(queries)
        return _cosines(self._embed_one(ref), queries)


class LinearToyScorer(LinearEmbeddingScorer):
    """Linear scorer whose weight can be concentrated on planted regions.

    Pixels outside the planted regions carry ``background_weight``-scaled
    weight (zero by default), so occlusions there provably do not move
    the score.
    """

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
        return cls(weight.reshape(embed_dim, -1), dims)


def score_image_stack(scorer: Scorer, ref, stack: np.ndarray) -> np.ndarray:
    """Score an (N, H, W, C) stack against one reference, order preserved."""
    return scorer.score_batch_flat(ref, np.asarray(stack).reshape(stack.shape[0], -1))


def embed_codes(kernel: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The (N, D) embeddings ``codes @ kernel.T`` of (N, K) keep codes over
    a basis whose k-th element embeds to ``kernel[:, k]``. Non-optimized
    einsum, so each row is bitwise independent of N."""
    # einsum sums in the order of the memory layout, and fancy-indexed
    # codes need not be in C order
    codes = np.ascontiguousarray(codes, dtype=np.float64)
    return np.einsum("nk,dk->nd", codes, kernel, optimize=False)


def _with_norms(emb: np.ndarray) -> EmbeddedRows:
    """(N, D) embeddings with their guarded norms: the one place that
    computes them."""
    return EmbeddedRows(emb, np.maximum(np.sqrt(np.einsum("nd,nd->n", emb, emb, optimize=False)), NORM_EPS))


def _cosines(ref: EmbeddedRows, queries: EmbeddedRows) -> np.ndarray:
    """Cosine of each query row with the one reference row, clipped."""
    dots = np.einsum("nd,d->n", queries.emb, ref.emb[0], optimize=False)
    return np.clip(dots / (queries.norms * ref.norms[0]), -1.0, 1.0)


def cosines(u, rows) -> np.ndarray:
    """The guarded cosine of the vector ``u`` with each of ``rows``, an
    (N, ...) array or rows already embedded, in the order of ``rows``: the
    routine the scorers score with, so a zero vector gives exactly 0."""
    if not isinstance(rows, EmbeddedRows):
        rows = _with_norms(np.asarray(rows, dtype=np.float64).reshape(len(rows), -1))
    return _cosines(_with_norms(np.asarray(u, dtype=np.float64).reshape(1, -1)), rows)


def _cosine_grad_pair(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """d cos(u, v) / du and / dv plus the cosine value.

    With guarded norms, dc/dv = u/(|u||v|) - c v/|v|^2 and symmetrically
    for u; below the norm guard a norm freezes, the score is linear in
    that side and its second term drops.
    """
    raw_nu, raw_nv = float(np.sqrt(u @ u)), float(np.sqrt(v @ v))
    nu, nv = max(raw_nu, NORM_EPS), max(raw_nv, NORM_EPS)
    c = float(u @ v) / (nu * nv)
    du = v / (nu * nv)
    dv = u / (nu * nv)
    if raw_nu > NORM_EPS:
        du = du - c * u / (nu * nu)
    if raw_nv > NORM_EPS:
        dv = dv - c * v / (nv * nv)
    return du, dv, c


class TripletToyScorer(LinearEmbeddingScorer):
    """Linear embedding fit with a cosine triplet hinge on a dataset.

    Trained with plain per-sample SGD: for each (anchor, positive,
    negative) the loss is max(0, margin - cos(a, p) + cos(a, n)).
    Training is seed-deterministic.

    ``epochs`` is an upper bound: the fit stops after the first epoch in
    which no triplet violates the margin. Such an epoch leaves the weight
    unchanged, so every later epoch would compute the same hinge values
    from the same weight and skip every triplet again; the permutations
    it would draw come from the fit's own rng, which nothing reads after
    the fit. The weight returned is the one the full loop returns, bit
    for bit.
    """

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
        h, w, c = dataset.dims
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
        # weight @ x of each image since the last update, the same product
        # bit for bit as computing it again from the unchanged weight
        embedded: dict[str, np.ndarray] = {}
        for _ in range(epochs):
            order = rng.permutation(len(triplets))
            moved = False
            for k in order:
                for img_id in triplets[k]:
                    if img_id not in embedded:
                        embedded[img_id] = weight @ flats[img_id]
                ea, ep, en = (embedded[img_id] for img_id in triplets[k])
                dpa, dpp, cos_ap = _cosine_grad_pair(ea, ep)
                dna, dnn, cos_an = _cosine_grad_pair(ea, en)
                if margin - cos_ap + cos_an <= 0.0:
                    continue
                a, p, n = (flats[img_id] for img_id in triplets[k])
                # dL/dW = -(d cos_ap/dW) + (d cos_an/dW)
                grad = np.outer(dna - dpa, a) - np.outer(dpp, p) + np.outer(dnn, n)
                weight -= lr * grad
                embedded.clear()
                moved = True
            if not moved:
                break
        return cls(weight, (h, w, c))
