import dataclasses
from collections import Counter

import numpy as np
import pytest

import simexplain as se
import simexplain.discovery as discovery
from simexplain.discovery import (
    ClusterAssignment,
    DiscoveryConfig,
    discover,
    kmeans,
    peak_bin,
    removal_eval_discovered,
)
from simexplain.errors import InvalidArgumentError
from simexplain.synth import slots_from_meta

from conftest import ConstantScorer


class TestPeakBin:
    def test_corner_peak(self):
        grid = np.zeros((14, 14))
        grid[0, 0] = 1.0
        assert peak_bin(grid, 7) == 0

    def test_uniform_ties_to_first(self):
        assert peak_bin(np.full((14, 14), 0.3), 7) == 0

    def test_planted_region_centroid(self):
        # bump peaking at the region centroid (34, 44) -> cell (4, 5)
        ys, xs = np.meshgrid(np.arange(56), np.arange(56), indexing="ij")
        grid = np.exp(-((ys - 34.0) ** 2 + (xs - 44.0) ** 2) / 20.0)
        assert peak_bin(grid, 7) == 4 * 7 + 5

    def test_flat_region_ties_to_first_raster_pixel(self):
        grid = np.zeros((56, 56))
        grid[30:38, 40:48] = 1.0
        # argmax is the region's first raster pixel (30, 40) -> cell (3, 5)
        assert peak_bin(grid, 7) == 3 * 7 + 5

    def test_uneven_grid_boundaries(self):
        grid = np.zeros((10, 10))
        grid[9, 9] = 1.0
        assert peak_bin(grid, 3) == 8


class TestKMeans:
    def test_objective_non_increasing(self, rng):
        pts = rng.normal(size=(60, 4))
        _, _, trace = kmeans(pts, 4, seed=1)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_deterministic(self, rng):
        pts = rng.normal(size=(40, 3))
        a = kmeans(pts, 3, seed=7)
        b = kmeans(pts, 3, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_separated_blobs_recovered(self, rng):
        blob_a = rng.normal(loc=0.0, scale=0.1, size=(20, 2))
        blob_b = rng.normal(loc=5.0, scale=0.1, size=(20, 2))
        labels, _, _ = kmeans(np.concatenate([blob_a, blob_b]), 2, seed=0)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]

    def test_empty_cluster_reseeded(self):
        # duplicated points force an empty cluster on the first update
        pts = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5 + [[20.0, 20.0]])
        labels, centroids, _ = kmeans(pts, 3, seed=2)
        assert len(set(labels.tolist())) == 3

    def test_too_few_points(self, rng):
        with pytest.raises(InvalidArgumentError, match="n_clusters"):
            kmeans(rng.normal(size=(2, 2)), 3, seed=0)


@pytest.fixture(scope="module")
def two_motif_setup():
    spec = se.SyntheticSpec(n_images=28, seed=2, n_attributes=2,
                            max_attrs_per_image=1, pairs_per_query=3)
    ds = se.generate_dataset(spec)
    scorer = se.motif_scorer_for(ds, seed=5)
    scfg = dataclasses.replace(se.SaliencyConfig(seed=2), method=se.Method.SLIDING_WINDOW)
    cfg = DiscoveryConfig(k_nn=6, top_n=3, n_clusters=2, seed=2, saliency=scfg)
    assignment = discover(ds, scorer, cfg)
    return ds, scorer, cfg, assignment


class TestDiscover:
    def test_patches_inside_bounds(self, two_motif_setup):
        ds, _, cfg, assignment = two_motif_setup
        side = ds.images[0][1].height
        for rec in assignment.patches:
            assert 0 <= rec.center[0] <= side - cfg.patch
            assert 0 <= rec.center[1] <= side - cfg.patch

    def test_cluster_purity_against_planted_motifs(self, two_motif_setup):
        ds, _, cfg, assignment = two_motif_setup
        slots = slots_from_meta(ds)
        clusters = {}
        for rec in assignment.patches:
            cy = rec.center[0] + cfg.patch // 2
            cx = rec.center[1] + cfg.patch // 2
            label = next((a for a, s in slots.items() if s.covers(cy, cx)), None)
            clusters.setdefault(rec.cluster, []).append(label)
        agree = sum(Counter(labs).most_common(1)[0][1] for labs in clusters.values())
        total = sum(len(labs) for labs in clusters.values())
        assert agree / total >= 0.9

    def test_labels_consistent_with_patches(self, two_motif_setup):
        _, _, _, assignment = two_motif_setup
        for rec in assignment.patches:
            assert rec.cluster in assignment.labels_by_image[rec.source_image_id]

    def test_multi_label_images_possible(self, two_motif_setup):
        _, _, _, assignment = two_motif_setup
        by_image = {}
        for rec in assignment.patches:
            by_image.setdefault(rec.source_image_id, set()).add(rec.cluster)
        for img_id, clusters in by_image.items():
            assert tuple(sorted(clusters)) == assignment.labels_by_image[img_id]

    def test_requires_embedding_scorer(self, two_motif_setup):
        ds, _, cfg, _ = two_motif_setup
        const = ConstantScorer(ds.images[0][1].shape)
        with pytest.raises(InvalidArgumentError, match="embedding-capable"):
            discover(ds, const, cfg)

    def test_too_many_clusters_suggests_fix(self, two_motif_setup):
        ds, scorer, cfg, _ = two_motif_setup
        greedy = dataclasses.replace(cfg, n_clusters=10_000)
        with pytest.raises(InvalidArgumentError, match="k_nn"):
            discover(ds, scorer, greedy)

    def test_each_ordered_pair_map_made_once(self, monkeypatch):
        ds = se.generate_dataset(se.SyntheticSpec(n_images=12, seed=2, n_attributes=2,
                                                  max_attrs_per_image=1, pairs_per_query=3))
        scorer = se.motif_scorer_for(ds, seed=5)
        scfg = dataclasses.replace(se.SaliencyConfig(seed=2), method=se.Method.SLIDING_WINDOW,
                                   sliding=dataclasses.replace(se.SaliencyConfig().sliding,
                                                               windows_query=9, windows_ref=4))
        made = []
        real = discovery.generate

        def recording(scorer, ref, query, cfg):
            made.append((ref.data.tobytes(), query.data.tobytes()))
            return real(scorer, ref, query, cfg)

        monkeypatch.setattr(discovery, "generate", recording)
        cfg = DiscoveryConfig(k_nn=4, top_n=3, n_clusters=2, seed=2, saliency=scfg)
        assignment = discover(ds, scorer, cfg)
        assert len(made) == len(set(made))
        # mutual neighbours: some patches come from query-side maps, made once
        assert len(made) < ds.n_images * cfg.k_nn + len(assignment.patches)


class TestRemovalEval:
    def test_patch_beats_random(self, two_motif_setup):
        ds, scorer, _, assignment = two_motif_setup
        pairs = ds.pairs_for_split("test")
        results = removal_eval_discovered(assignment, scorer, ds, pairs, seed=2)
        assert set(results) == {"patch", "random", "full_frame"}
        assert results["patch"].mean_delta > results["random"].mean_delta

    def test_random_baseline_near_zero_on_blind_scorer(self, two_motif_setup):
        ds, _, _, assignment = two_motif_setup
        blind = se.LinearToyScorer.random(ds.images[0][1].shape, embed_dim=8, seed=11)
        pairs = ds.pairs_for_split("test")
        results = removal_eval_discovered(assignment, blind, ds, pairs, seed=2)
        assert abs(results["random"].mean_delta) < 10.0
