"""Saliency-guided attribute discovery.

Mines pseudo-attributes without annotations: references that attend to
the same region of a query are assumed to match it for the same reason,
so their salient patches are cropped, embedded with the similarity
model, and clustered. Each cluster is treated as a discovered attribute;
an image inherits every cluster its patches land in.

Similarities are the scorers' guarded cosine (``scorers.cosines``), and
the clustered unit embeddings divide by the scorers' guarded norm.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import Dataset, _as_grid, make_rng, pool_boundaries, resize_bilinear
from .errors import InvalidArgumentError
from .metrics import RemovalResult, attribute_removal_delta, embed_images
# generate stays bound here: perfbench's traced run wraps each module's
# name for it, though this module makes its maps through query_maps
from .saliency import SaliencyConfig, generate, map_by_query, map_codes, query_maps  # noqa: F401
from .scorers import Scorer, _with_norms, cosines

_STREAM_KMEANS = 31
_STREAM_RANDOM_ASSIGN = 32


@dataclass(frozen=True)
class DiscoveryConfig:
    k_nn: int = 10
    peak_grid: int = 7
    top_n: int = 5
    patch: int = 30
    n_clusters: int = 4
    seed: int = 0
    saliency: SaliencyConfig = field(default_factory=SaliencyConfig)

    def __post_init__(self):
        if min(self.k_nn, self.peak_grid, self.top_n, self.patch, self.n_clusters) < 1:
            raise InvalidArgumentError("discovery counts must be >= 1")


@dataclass(frozen=True)
class PatchRecord:
    source_image_id: str   # reference image the patch was cropped from
    query_id: str
    center: tuple[int, int]
    cluster: int


@dataclass(frozen=True)
class ClusterAssignment:
    labels_by_image: dict[str, tuple[int, ...]]
    centroids: np.ndarray
    patches: tuple[PatchRecord, ...]

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]


def peak_bin(smap, grid: int) -> int:
    """Grid cell (raster index) containing the argmax pixel; ties resolve
    to the first pixel in raster order."""
    data = _as_grid(smap)
    rows, cols = data.shape
    flat_idx = int(np.argmax(data))
    r, c = divmod(flat_idx, cols)
    rb = pool_boundaries(rows, grid)
    cb = pool_boundaries(cols, grid)
    cell_r = int(np.searchsorted(rb, r, side="right")) - 1
    cell_c = int(np.searchsorted(cb, c, side="right")) - 1
    return cell_r * grid + cell_c


def _modal(values) -> int | None:
    """The most common of ``values``, ties to the smallest; None if empty."""
    counts = Counter(values)
    return min(counts, key=lambda v: (-counts[v], v)) if counts else None


def kmeans(points: np.ndarray, n_clusters: int, seed: int) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Seeded Lloyd iterations (at most 50) with empty-cluster reseeding.

    An empty cluster is re-centered on the point farthest from its
    current centroid. Returns (labels, centroids, objective trace); the
    objective is non-increasing across iterations.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < n_clusters:
        raise InvalidArgumentError(
            f"only {n} points for n_clusters={n_clusters}"
        )
    rng = make_rng(seed, _STREAM_KMEANS)
    centroids = pts[rng.choice(n, size=n_clusters, replace=False)].copy()
    labels = np.zeros(n, dtype=np.intp)
    trace: list[float] = []
    for _ in range(50):
        dists = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        trace.append(float(dists[np.arange(n), labels].sum()))
        new_centroids = centroids.copy()
        for k in range(n_clusters):
            members = pts[labels == k]
            if len(members):
                new_centroids[k] = members.mean(axis=0)
            else:
                own = ((pts - centroids[labels]) ** 2).sum(axis=1)
                new_centroids[k] = pts[int(np.argmax(own))]
        if np.array_equal(new_centroids, centroids):
            break
        centroids = new_centroids
    return labels, centroids, trace


def _upsampled_patch_embedding(scorer: Scorer, image: np.ndarray, center: tuple[int, int], patch: int) -> tuple[np.ndarray, tuple[int, int]]:
    h, w, _ = image.shape
    top = min(max(center[0] - patch // 2, 0), h - patch)
    left = min(max(center[1] - patch // 2, 0), w - patch)
    crop = image[top:top + patch, left:left + patch, :]
    upsampled = np.stack(
        [resize_bilinear(crop[:, :, c], h, w) for c in range(crop.shape[2])], axis=2
    )
    return scorer.embed(np.clip(upsampled, 0.0, 1.0)).data, (top, left)


def _unit_rows(emb: np.ndarray) -> np.ndarray:
    """Each (N, D) row over its guarded norm, the scorers' own."""
    rows = _with_norms(emb)
    return rows.emb / rows.norms[:, None]


def discover(dataset: Dataset, scorer: Scorer, cfg: DiscoveryConfig,
             map_fn: Callable[[Callable, list], list] | None = None,
             embeddings: dict[str, np.ndarray] | None = None) -> ClusterAssignment:
    """Six steps: k-NN references per query, query-side saliency, modal
    peak-bin filtering, salient-patch cropping from each kept reference,
    patch embedding, and k-means over all patches.

    A query's references are the ``k_nn`` other images whose embeddings
    have the highest cosine with its own, ties to the lower index; never
    the query itself, so a ``k_nn`` of N - 1 or more takes all the others.

    The maps are made in two passes, each one ``map_fn(fn, items)`` call
    with one item per query: an order-preserving map, serial by default,
    that the command line runs over its thread pool. The result does not
    depend on it. The masks are built once for both passes. The image
    embeddings go through ``embed_images`` with ``embeddings``. A scorer
    that cannot embed, or a patch larger than the image side, is refused
    before any of this work."""
    if not scorer.caps.can_embed:
        raise InvalidArgumentError("discovery needs an embedding-capable scorer")
    h, w, _ = dataset.dims
    if cfg.patch > min(h, w):
        raise InvalidArgumentError(f"patch side {cfg.patch} exceeds image side {min(h, w)}")
    map_fn = map_fn or (lambda fn, items: [fn(x) for x in items])
    ids = [img_id for img_id, _ in dataset.images]
    table = embed_images(scorer, dataset, ids, embeddings)
    embeddings = np.stack([table[i] for i in ids])
    codes = map_codes(cfg.saliency, h, w)

    def peaks_of(qi: int, ref_idx: list[int]) -> list[tuple[int, tuple[int, int]]]:
        """The peak bin and the upsampled argmax pixel of the map of query
        ``qi`` against each reference in ``ref_idx`` (image indices)."""
        smaps = query_maps(scorer, [dataset.image(ids[ri]) for ri in ref_idx], dataset.image(ids[qi]), codes)
        return [(peak_bin(smap, cfg.peak_grid), divmod(int(np.argmax(resize_bilinear(smap.data, h, w))), w))
                for smap in smaps]

    rows = _with_norms(embeddings)
    neighbors = [[int(ri) for ri in np.argsort(-cosines(emb, rows), kind="stable") if ri != qi][: cfg.k_nn]
                 for qi, emb in enumerate(embeddings)]
    pairs = [(ri, qi) for qi, neighbor_idx in enumerate(neighbors) for ri in neighbor_idx]
    peaks = dict(zip(pairs, map_by_query(peaks_of, pairs, map_fn)))
    kept = []
    for qi, neighbor_idx in enumerate(neighbors):
        bins = [peaks[ri, qi][0] for ri in neighbor_idx]
        modal_bin = _modal(bins)
        kept.append([ri for ri, b in zip(neighbor_idx, bins) if b == modal_bin][: cfg.top_n])
    # a kept reference's patch is centred on its own query-side map; that of
    # a mutual neighbour was made in the first pass
    pairs = [(qi, ri) for qi, kept_idx in enumerate(kept) for ri in kept_idx if (qi, ri) not in peaks]
    peaks.update(zip(pairs, map_by_query(peaks_of, pairs, map_fn)))

    patch_embs: list[np.ndarray] = []
    patch_meta: list[tuple[str, str, tuple[int, int]]] = []
    for qi, kept_idx in enumerate(kept):
        for ri in kept_idx:
            ref_id = ids[ri]
            emb, topleft = _upsampled_patch_embedding(
                scorer, dataset.image(ref_id).data.astype(np.float64), peaks[qi, ri][1], cfg.patch
            )
            patch_embs.append(emb)
            patch_meta.append((ref_id, ids[qi], topleft))

    if len(patch_embs) < cfg.n_clusters:
        raise InvalidArgumentError(
            f"harvested only {len(patch_embs)} patches for {cfg.n_clusters} clusters; "
            "use a smaller n_clusters or a larger k_nn"
        )
    labels, centroids, _ = kmeans(_unit_rows(np.stack(patch_embs)), cfg.n_clusters, cfg.seed)

    patches = tuple(
        PatchRecord(source_image_id=src, query_id=q, center=c, cluster=int(k))
        for (src, q, c), k in zip(patch_meta, labels)
    )
    by_image: dict[str, set[int]] = {}
    for rec in patches:
        by_image.setdefault(rec.source_image_id, set()).add(rec.cluster)
    labels_by_image = {img_id: tuple(sorted(clusters)) for img_id, clusters in by_image.items()}
    return ClusterAssignment(labels_by_image=labels_by_image, centroids=centroids, patches=patches)


# ---------------------------------------------------------------------------
# Removal evaluation with discovered attributes
# ---------------------------------------------------------------------------


def _cluster_label_matrix(dataset: Dataset, labels_by_image: dict[str, Sequence[int]], n_clusters: int) -> np.ndarray:
    mat = np.zeros((dataset.n_images, n_clusters), dtype=np.int8)
    for img_id, clusters in labels_by_image.items():
        for k in clusters:
            mat[dataset.row(img_id), k] = 1
    return mat


def removal_eval_discovered(
    assignment: ClusterAssignment,
    scorer: Scorer,
    dataset: Dataset,
    pairs: Sequence,
    seed: int = 0,
    embeddings: dict[str, np.ndarray] | None = None,
) -> dict[str, RemovalResult]:
    """Removal deltas treating cluster ids as attributes, with the two
    reference baselines: random assignment and full-frame clustering.

    Each variant retrieves only among images its labeling covers: an
    image the patch clustering never touched has unknown attributes, not
    absent ones. The baseline and all three variants embed through
    ``embed_images`` with ``embeddings``.
    """
    n_clusters = assignment.n_clusters
    all_ids = [img_id for img_id, _ in dataset.images]
    patch_labels = assignment.labels_by_image
    patch_attrs = [_modal(rec.cluster for rec in assignment.patches if rec.source_image_id == p.query_id)
                   for p in pairs]

    rng = make_rng(seed, _STREAM_RANDOM_ASSIGN)
    random_labels = {img_id: (int(rng.integers(n_clusters)),) for img_id in all_ids}

    embeddings = embed_images(scorer, dataset, all_ids, embeddings)
    frame_labels_arr, _, _ = kmeans(_unit_rows(np.stack([embeddings[i] for i in all_ids])), n_clusters, seed)
    frame_labels = {img_id: (int(frame_labels_arr[k]),) for k, img_id in enumerate(all_ids)}

    variants = {
        "patch": (patch_labels, patch_attrs, [i for i in all_ids if i in patch_labels]),
        "random": (random_labels, [random_labels[p.query_id][0] for p in pairs], all_ids),
        "full_frame": (frame_labels, [frame_labels[p.query_id][0] for p in pairs], all_ids),
    }
    return {name: attribute_removal_delta(scorer, dataset, pairs, attrs, corpus,
                                          labels=_cluster_label_matrix(dataset, labels, n_clusters),
                                          embeddings=embeddings)
            for name, (labels, attrs, corpus) in variants.items()}
