"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (visible with `pytest -s tests/test_acceptance.py`).

The paper-scale numbers are not reproducible at desk scale; these
criteria check exact oracle equivalence where an oracle exists and the
directional trends everywhere else.
"""

import dataclasses
import hashlib
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import simexplain as se
from simexplain.attrmodel import FeatureExtractor, TrainConfig, build_samples, loss_and_grad, train
from simexplain.cli import main
from simexplain.explain import CONFIDENCE_ONLY_PHI, estimate_prior, fit_phi, pair_features
from simexplain.external import ExternalScorer
from simexplain.metrics import (
    attribute_removal_delta,
    deletion_curve,
    insertion_curve,
    map_metric,
    top1_accuracy_from_attrs,
)
from simexplain.optim import lasso_coordinate_descent, soft_threshold
from simexplain.saliency import MaskObjective
from simexplain.scorers import cosine

from conftest import build_bank, maps_of


@contextmanager
def criterion(n: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {n:2d}] FAIL - {description}")
        raise
    print(f"[criterion {n:2d}] PASS - {description} ({time.perf_counter() - start:.1f}s)")


# --------------------------------------------------------------------------
# 1. insertion/deletion AUC equals exhaustive brute force
# --------------------------------------------------------------------------


def _brute_force_auc(scorer, ref, query, smap, insertion: bool) -> float:
    h, w, c = query.shape
    flat_map = smap.ravel()
    order = sorted(range(h * w), key=lambda k: (-flat_map[k], k))
    flat = query.reshape(-1, c)
    scores = []
    for k in range(h * w + 1):
        img = np.zeros_like(flat) if insertion else flat.copy()
        for p in order[:k]:
            img[p] = flat[p] if insertion else 0.0
        scores.append(scorer.score(ref, img.reshape(h, w, c)))
    scores = np.asarray(scores)
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return 0.5
    norm = (scores - lo) / (hi - lo)
    fracs = [k / (h * w) for k in range(h * w + 1)]
    return sum((fracs[k + 1] - fracs[k]) * (norm[k] + norm[k + 1]) / 2.0 for k in range(h * w))


def test_criterion_1_auc_oracle_equivalence():
    with criterion(1, "insertion/deletion AUC == brute force within 1e-9, 50 instances, <5s"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        dims = (4, 4, 2)
        for trial in range(50):
            scorer = se.LinearToyScorer.random(dims, embed_dim=5, seed=trial)
            ref = rng.random(dims)
            query = rng.random(dims)
            smap = rng.random((4, 4))
            ins = insertion_curve(scorer, ref, query, smap, step_frac=1 / 16)
            dele = deletion_curve(scorer, ref, query, smap, step_frac=1 / 16)
            assert abs(ins.auc - _brute_force_auc(scorer, ref, query, smap, True)) < 1e-9
            assert abs(dele.auc - _brute_force_auc(scorer, ref, query, smap, False)) < 1e-9
        assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------------------
# 2. gradient checks against central finite differences
# --------------------------------------------------------------------------


def test_criterion_2_gradient_checks():
    with criterion(2, "mask objective and head gradients match central FD (<1e-4), 5 seeds, <30s"):
        start = time.perf_counter()
        dims = (28, 28, 3)
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            scorer = se.LinearToyScorer.random(dims, embed_dim=8, seed=seed)
            ref, query = rng.random(dims), rng.random(dims)
            problem = MaskObjective(scorer, ref, query, se.MaskCfg(grid=5), seed=seed)
            theta = rng.normal(scale=0.5, size=problem.n_params)
            _, grad = problem.value_and_grad(theta)
            eps = 1e-3
            for _ in range(10):
                k = int(rng.integers(problem.n_params))
                tp, tm = theta.copy(), theta.copy()
                tp[k] += eps
                tm[k] -= eps
                fd = (problem.value(tp) - problem.value(tm)) / (2 * eps)
                assert abs(fd - grad[k]) <= 1e-4 * max(abs(fd), 1e-8)

            ds = se.generate_dataset(se.SyntheticSpec(n_images=16, side=28,
                                                      n_attributes=4, seed=seed))
            extractor = FeatureExtractor((28, 28, 3), n_filters=10, seed=seed)
            bank = {img_id: [se.normalize_map(rng.random((7, 7)))] for img_id, _ in ds.images[:8]}
            samples = build_samples(ds, [i for i, _ in ds.images[:8]], extractor, bank, 5)
            W = rng.normal(scale=0.1, size=(4, 10))
            b = rng.normal(scale=0.05, size=4)
            _, dW, db = loss_and_grad(W, b, samples, lam=5e-3)
            heps = 1e-6
            for _ in range(10):
                a, d = int(rng.integers(4)), int(rng.integers(10))
                Wp, Wm = W.copy(), W.copy()
                Wp[a, d] += heps
                Wm[a, d] -= heps
                fd = (loss_and_grad(Wp, b, samples, 5e-3)[0]
                      - loss_and_grad(Wm, b, samples, 5e-3)[0]) / (2 * heps)
                assert abs(fd - dW[a, d]) <= 1e-4 * max(abs(fd), 1e-8)
        assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------------------
# 3. planted-region localization with paper-default RISE
# --------------------------------------------------------------------------


def test_criterion_3_planted_region_localization():
    with criterion(3, "fixed-ref RISE (2000, 8x8, 0.5): >=70% of top-5% mass planted; "
                      "insertion AUC beats random by >=0.1; <60s"):
        start = time.perf_counter()
        dims = (56, 56, 3)
        region = se.Rect(top=12, left=20, height=16, width=16)
        scorer = se.LinearToyScorer.planted(dims, region, embed_dim=16, seed=2)
        rng = np.random.default_rng(9)
        query = rng.random(dims)
        ref = query.copy()
        inside_fracs = []
        map_aucs = []
        random_aucs = []
        for seed in range(5):
            cfg = se.SaliencyConfig(method=se.Method.RISE, seed=seed)
            assert cfg.rise.n_masks == 2000 and cfg.rise.grid == 8 and cfg.rise.keep_prob == 0.5
            smap = se.generate(scorer, ref, query, cfg)
            data = smap.data.astype(np.float64)
            n_top = int(round(0.05 * data.size))
            top = np.argsort(-data.ravel(), kind="stable")[:n_top]
            rows, cols = np.unravel_index(top, data.shape)
            inside = ((rows >= region.top) & (rows < region.top + region.height)
                      & (cols >= region.left) & (cols < region.left + region.width))
            inside_fracs.append(inside.mean())
            map_aucs.append(insertion_curve(scorer, ref, query, smap).auc)
            random_map = np.random.default_rng(100 + seed).random((56, 56))
            random_aucs.append(insertion_curve(scorer, ref, query, random_map).auc)
        assert np.mean(inside_fracs) >= 0.70
        assert np.mean(map_aucs) - np.mean(random_aucs) >= 0.1
        assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# 4. Lasso coordinate descent vs the soft-threshold closed form
# --------------------------------------------------------------------------


def test_criterion_4_lasso_correctness():
    with criterion(4, "coordinate descent == soft-threshold closed form (1e-8), 20 instances"):
        rng = np.random.default_rng(404)
        for _ in range(20):
            n = int(rng.integers(20, 60))
            p = int(rng.integers(3, min(n, 15)))
            X, _ = np.linalg.qr(rng.normal(size=(n, p)))
            y = rng.normal(size=n)
            alpha = float(rng.uniform(0.01, 0.8))
            beta = lasso_coordinate_descent(X, y, alpha)
            closed = soft_threshold(X.T @ y, alpha)
            np.testing.assert_allclose(beta, closed, atol=1e-8)


# --------------------------------------------------------------------------
# 5. Table-2-style trends on the synthetic suite
# --------------------------------------------------------------------------


def test_criterion_5_trend_reproduction():
    with criterion(5, "trends: (a) mAP(lam) >= mAP(0); (b) fitted-phi top1 >= confidence+2; "
                      "(c) removal random < confidence < full; <10min"):
        start = time.perf_counter()
        seed = 13
        spec = se.SyntheticSpec(n_images=96, seed=seed, pairs_per_query=4,
                                n_attributes=12, noise=0.1)
        ds = se.generate_dataset(spec)
        scorer = se.motif_scorer_for(ds, seed=5)
        scfg = dataclasses.replace(se.SaliencyConfig(seed=seed),
                                   method=se.Method.SLIDING_WINDOW)
        bank = build_bank(ds, scorer, scfg)

        cfg = TrainConfig(epochs=300, lr=5e-4, lam=5e-3, k_maps=5, seed=seed, n_filters=64)
        assert (cfg.epochs, cfg.lr, cfg.lam, cfg.k_maps) == (300, 5e-4, 5e-3, 5)
        model = train(ds, bank, cfg)
        baseline = train(ds, None, dataclasses.replace(cfg, lam=0.0))

        map_sup = map_metric(model, ds, "val")
        map_base = map_metric(baseline, ds, "val")
        assert map_sup >= map_base  # (a)

        val_pairs = ds.pairs_for_split("val")
        test_pairs = ds.pairs_for_split("test")
        val_features = pair_features(model, maps_of(ds, scorer, val_pairs, scfg), ds, val_pairs)
        prior = estimate_prior(val_features, ds.n_attributes).prior
        phi = fit_phi(val_features, prior)
        test_features = pair_features(model, maps_of(ds, scorer, test_pairs, scfg), ds, test_pairs)

        full = test_features.top1(prior, phi).tolist()
        conf = test_features.top1(prior, CONFIDENCE_ONLY_PHI).tolist()
        rng = np.random.default_rng([seed, 77])
        random_attrs = [int(rng.integers(ds.n_attributes)) for _ in full]
        gt_sets = [np.flatnonzero(row).tolist() for row in test_features.gt]

        acc_full = top1_accuracy_from_attrs(full, gt_sets)
        acc_conf = top1_accuracy_from_attrs(conf, gt_sets)
        assert acc_full >= acc_conf + 2.0  # (b)

        corpus = ds.image_ids_for_split("test")
        d_full = attribute_removal_delta(scorer, ds, test_pairs, full, corpus_ids=corpus)
        d_conf = attribute_removal_delta(scorer, ds, test_pairs, conf, corpus_ids=corpus)
        d_rand = attribute_removal_delta(scorer, ds, test_pairs, random_attrs, corpus_ids=corpus)
        assert d_rand.mean_delta < d_conf.mean_delta < d_full.mean_delta  # (c)
        assert time.perf_counter() - start < 600.0


# --------------------------------------------------------------------------
# 6. loss unit values
# --------------------------------------------------------------------------


def test_criterion_6_loss_unit_values():
    with criterion(6, "Huber and heatmap losses reproduce the hand-derived values"):
        value = se.huber_loss(np.array([0.6, 0.4]), np.array([1.0, 0.0]))
        assert value == 0.5 * 0.4**2 + 0.5 * 0.4**2
        assert value == pytest.approx(0.16, abs=1e-12)
        assert se.huber_loss(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
        assert se.heatmap_loss([np.ones((7, 7))], [np.zeros((7, 7))]) == 7.0


# --------------------------------------------------------------------------
# 7. end-to-end determinism
# --------------------------------------------------------------------------


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_criterion_7_pipeline_determinism(tmp_path):
    with criterion(7, "two pipeline runs with one seed produce byte-identical outputs"):
        args = ["pipeline", "--seed", "23", "--n-images", "24", "--attributes", "6",
                "--epochs", "10", "--rise-masks", "200", "--methods", "rise",
                "--limit", "4", "--jobs", "1", "--scorer", "triplet"]
        for sub in ("run_a", "run_b"):
            assert main(args + ["--out", str(tmp_path / sub)]) == 0
        a = _tree_digest(tmp_path / "run_a")
        b = _tree_digest(tmp_path / "run_b")
        assert set(a) == set(b)
        assert a["report.json"] == b["report.json"]
        smaps = [k for k in a if k.endswith(".smap")]
        assert smaps
        for k in smaps:
            assert a[k] == b[k]
        assert a == b  # every file, not just the required ones


# --------------------------------------------------------------------------
# 8. external-scorer protocol round trip
# --------------------------------------------------------------------------


def test_criterion_8_protocol_roundtrip():
    with criterion(8, "stdio stub == in-process scorer within 1e-6 over 500 pairs, chunked"):
        dims = (12, 12, 3)
        reference = se.LinearToyScorer.random(dims, embed_dim=8, seed=77)
        command = [sys.executable, "-m", "simexplain", "serve-stub",
                   "--dims", "12,12,3", "--embed-dim", "8", "--seed", "77",
                   "--max-batch", "64"]
        rng = np.random.default_rng(88)
        refs = [rng.random(dims).astype(np.float32) for _ in range(5)]
        queries = [rng.random(dims).astype(np.float32) for _ in range(500)]
        with ExternalScorer(command=command) as ext:
            assert ext.caps.max_batch == 64
            for ref in refs:  # 5 x 100 queries, chunked at 64 by the client
                batch = queries[:100]
                got = ext.score_batch(ref, batch)
                want = reference.score_batch(ref, batch)
                np.testing.assert_allclose(got, want, atol=1e-6)
            singles = [ext.score(refs[0], q) for q in queries[:20]]
            expected = [reference.score(refs[0], q) for q in queries[:20]]
            np.testing.assert_allclose(singles, expected, atol=1e-6)


# --------------------------------------------------------------------------
# 9. discovery trends
# --------------------------------------------------------------------------


def test_criterion_9_discovery_trend():
    with criterion(9, "patch removal beats random baseline; cluster purity >= 0.9, 3 seeds"):
        from collections import Counter

        from simexplain.discovery import DiscoveryConfig, discover, removal_eval_discovered
        from simexplain.synth import slots_from_meta

        for seed in (1, 2, 3):
            spec = se.SyntheticSpec(n_images=28, seed=seed, n_attributes=2,
                                    max_attrs_per_image=1, pairs_per_query=3)
            ds = se.generate_dataset(spec)
            scorer = se.motif_scorer_for(ds, seed=5)
            scfg = dataclasses.replace(se.SaliencyConfig(seed=seed),
                                       method=se.Method.SLIDING_WINDOW)
            cfg = DiscoveryConfig(k_nn=6, top_n=3, n_clusters=2, seed=seed, saliency=scfg)
            assignment = discover(ds, scorer, cfg)

            slots = slots_from_meta(ds)
            clusters = {}
            for rec in assignment.patches:
                cy = rec.center[0] + cfg.patch // 2
                cx = rec.center[1] + cfg.patch // 2
                motif = next((a for a, s in slots.items() if s.covers(cy, cx)), None)
                clusters.setdefault(rec.cluster, []).append(motif)
            agree = sum(Counter(v).most_common(1)[0][1] for v in clusters.values())
            purity = agree / sum(len(v) for v in clusters.values())
            assert purity >= 0.9

            results = removal_eval_discovered(assignment, scorer, ds,
                                              ds.pairs_for_split("test"), seed=seed)
            assert results["patch"].mean_delta > results["random"].mean_delta


# --------------------------------------------------------------------------
# 10. saliency maps are not symmetric in the pair
# --------------------------------------------------------------------------


def test_criterion_10_non_symmetry():
    with criterion(10, "m_q != m_r (cosine < 0.99) on >=90% of 100 pairs"):
        spec = se.SyntheticSpec(n_images=64, seed=21, max_attrs_per_image=4)
        ds = se.generate_dataset(spec)
        scorer = se.motif_scorer_for(ds, seed=5)
        cfg = dataclasses.replace(se.SaliencyConfig(seed=21),
                                  method=se.Method.SLIDING_WINDOW)
        pairs = list(ds.pairs)[:100]
        assert len(pairs) == 100
        asymmetric = 0
        for p in pairs:
            query, ref = ds.image(p.query_id), ds.image(p.reference_id)
            m_q = se.generate(scorer, ref, query, cfg).data.ravel()
            m_r = se.generate(scorer, query, ref, cfg).data.ravel()
            asymmetric += int(cosine(m_q, m_r) < 0.99)
        assert asymmetric >= 90
