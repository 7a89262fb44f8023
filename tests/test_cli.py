import dataclasses
import hashlib
import inspect
import json
import re
import shlex
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import simexplain as se
import simexplain.cli as cli
import simexplain.discovery as se_discovery
import simexplain.explain as se_explain
import simexplain.saliency as se_saliency
from simexplain.cli import build_config, build_parser, load_saliency_bank, main
from simexplain.dataio import (GRID_MAGIC, SMAP_MAGIC, load_dataset, load_model, load_saliency, save_dataset,
                               save_grid)
from simexplain.errors import IntegrityError, InvalidArgumentError, ParseError
from simexplain.synth import motif_slots

from conftest import KernelCounter


def tree_hashes(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _fit(**fields) -> bytes:
    """A fit file of the 8-attribute dataset of ``cli_workspace``, with
    ``fields`` replaced."""
    fit = {"phi1": 0.1, "phi2": 0.9, "phi3": 0.05, "prior": [0.125] * 8, "n_used": 4, "n_skipped": 0}
    return json.dumps({**fit, **fields}).encode()


class TestSyntheticGenerator:
    def test_counts(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "d"), "--n-images", "64",
                     "--attributes", "8", "--seed", "7"]) == 0
        ds = load_dataset(tmp_path / "d" / "manifest.json")
        assert ds.n_images == 64 and ds.n_attributes == 8
        assert len(list((tmp_path / "d" / "images").glob("*.grid"))) == 64
        label_rows = (tmp_path / "d" / "labels.txt").read_text().strip().splitlines()
        assert len(label_rows) == 64 and all(len(r.split(",")) == 8 for r in label_rows)

    def test_pairs_share_a_motif(self, tmp_path):
        ds = se.generate_dataset(se.SyntheticSpec(n_images=32, seed=5))
        for p in ds.pairs:
            q = set(ds.gt_attributes(p.query_id))
            r = set(ds.gt_attributes(p.reference_id))
            assert q & r

    def test_regeneration_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            main(["synth", "--out", str(tmp_path / sub), "--n-images", "24", "--seed", "9"])
        assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")

    def test_labels_match_rendered_motifs(self):
        spec = se.SyntheticSpec(n_images=16, seed=3)
        ds = se.generate_dataset(spec)
        slots = motif_slots(spec)
        for img_id, img in ds.images:
            row = ds.labels[ds.row(img_id)]
            for a, slot in enumerate(slots):
                block = img.data[slot.top:slot.top + slot.height,
                                 slot.left:slot.left + slot.width, :]
                if row[a]:
                    assert block.max() > 0.5  # motif pattern present
                else:
                    assert block.max() <= max(spec.noise, 0.06) + 1e-6

    @pytest.mark.parametrize("fracs", [(1.5, -0.25, -0.25), (float("nan"), 0.5, 0.5), (0.0, 0.0, float("inf"))])
    def test_split_fractions_outside_the_unit_interval_rejected(self, fracs):
        with pytest.raises(InvalidArgumentError, match="split fractions"):
            se.SyntheticSpec(split_fracs=fracs)

    def test_split_fractions_from_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"split_fracs": [1.5, -0.25, -0.25]}}))
        assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("side, n_attributes", [
        (14, 1), (14, 3), (15, 4), (16, 4), (21, 8), (22, 8), (27, 16), (28, 16), (56, 64), (56, 81),
    ])
    def test_spec_accepted_only_with_disjoint_motif_slots(self, side, n_attributes):
        layout = SimpleNamespace(side=side, n_attributes=n_attributes)
        cover = np.zeros((side, side), dtype=int)
        for s in motif_slots(layout):
            cover[s.top:s.top + s.height, s.left:s.left + s.width] += 1
        if cover.max() == 1:
            se.SyntheticSpec(side=side, n_attributes=n_attributes)
        else:
            with pytest.raises(InvalidArgumentError, match="overlap"):
                se.SyntheticSpec(side=side, n_attributes=n_attributes)

    def test_overlapping_side_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "d"), "--side", "14"]) == 2
        assert "overlap" in capsys.readouterr().err

    def test_splits_partition_pairs(self):
        ds = se.generate_dataset(se.SyntheticSpec(n_images=32, seed=5))
        train = set(ds.image_ids_for_split("train"))
        val = set(ds.image_ids_for_split("val"))
        test = set(ds.image_ids_for_split("test"))
        assert not (train & val) and not (train & test) and not (val & test)


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Dataset + saliency maps + trained model shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--n-images", "24", "--seed", "11"]) == 0
    maps_dir = root / "maps"
    assert main(["saliency", "--dataset", str(data / "manifest.json"),
                 "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                 "--split", "train", "--out", str(maps_dir), "--jobs", "1"]) == 0
    model = root / "model.sane"
    assert main(["train-attr", "--dataset", str(data / "manifest.json"),
                 "--maps", str(maps_dir), "--out", str(model),
                 "--epochs", "20", "--seed", "11"]) == 0
    return root, data / "manifest.json", maps_dir, model


class TestCliCommands:
    def test_saliency_outputs(self, cli_workspace):
        root, manifest, maps_dir, _ = cli_workspace
        smaps = list(maps_dir.glob("*.smap"))
        assert smaps
        assert (maps_dir / "run_config.json").exists()
        one = load_saliency(smaps[0])
        assert one.method is se.Method.SLIDING_WINDOW
        assert (maps_dir / (smaps[0].stem + ".pgm")).exists()

    def test_bank_loader_groups_by_query(self, cli_workspace):
        _, manifest, maps_dir, _ = cli_workspace
        bank = load_saliency_bank(maps_dir, load_dataset(manifest), 5)
        assert bank
        for query_id, maps in bank.items():
            assert query_id.startswith("img")
            assert all(isinstance(m, se.SaliencyMap) for m in maps)

    def test_bank_loader_keeps_each_querys_first_maps_in_name_order(self, cli_workspace):
        _, manifest, maps_dir, _ = cli_workspace
        names = sorted(path.stem for path in maps_dir.glob("*.smap"))
        first = {}
        for name in names:
            first.setdefault(name.split("__")[0], name)
        assert len(first) < len(names)  # some query has more than one map
        bank = load_saliency_bank(maps_dir, load_dataset(manifest), 1)
        assert {q: [m.data.tobytes() for m in maps] for q, maps in bank.items()} == {
            q: [load_saliency(maps_dir / f"{name}.smap").data.tobytes()] for q, name in first.items()}

    def test_bank_keys_ids_that_hold_the_separator(self, tmp_path):
        """Image ids like img__000: `saliency --split train` and then
        `train-attr` load every kept map under its real query."""
        ds = se.generate_dataset(se.SyntheticSpec(n_images=16, seed=3))
        rename = {img_id: img_id.replace("img", "img__") for img_id, _ in ds.images}
        ds = dataclasses.replace(
            ds, images=tuple((rename[img_id], img) for img_id, img in ds.images),
            pairs=tuple(dataclasses.replace(p, query_id=rename[p.query_id], reference_id=rename[p.reference_id])
                        for p in ds.pairs))
        common = ["--dataset", str(save_dataset(ds, tmp_path / "data")), "--seed", "3"]
        maps, model = tmp_path / "maps", tmp_path / "model.sane"
        assert main(["saliency", *common, "--method", "sliding_window", "--scorer", "motif", "--split", "train",
                     "--jobs", "1", "--out", str(maps)]) == 0
        assert main(["train-attr", *common, "--maps", str(maps), "--k", "2", "--epochs", "2",
                     "--out", str(model)]) == 0
        kept: dict = {}
        for name in sorted(f"{p.query_id}__{p.reference_id}" for p in ds.pairs_for_split("train")):
            kept.setdefault(name[:len("img__000")], []).append(name)
        kept = {query: names[:2] for query, names in kept.items()}
        assert any(len(names) == 2 for names in kept.values())
        assert json.loads(model.with_name("model.sane.config.json").read_text())["bank_images"] == len(kept)
        bank = load_saliency_bank(maps, ds, 2)
        assert {q: [m.data.tobytes() for m in ms] for q, ms in bank.items()} == {
            q: [load_saliency(maps / f"{name}.smap").data.tobytes() for name in names] for q, names in kept.items()}

    @pytest.mark.parametrize("name, splits", [("a__nobody", 0), ("a__b__c", 2)])
    def test_bank_name_without_one_split_into_ids_is_refused(self, name, splits, tmp_path):
        (tmp_path / f"{name}.smap").write_bytes(b"")  # refused by its name, before it is read
        ids = SimpleNamespace(images=[(img_id, None) for img_id in ("a", "a__b", "b__c", "c")])
        with pytest.raises(ParseError, match=f"splits into {splits} <query>__<reference> pairs"):
            load_saliency_bank(tmp_path, ids, 5)

    def test_single_pair_saliency(self, cli_workspace, tmp_path):
        _, manifest, _, _ = cli_workspace
        ds = load_dataset(manifest)
        pair = ds.pairs[0]
        out = tmp_path / "one"
        code = main(["saliency", "--dataset", str(manifest), "--method", "rise",
                     "--scorer", "motif", "--seed", "3",
                     "--pair", f"{pair.query_id}:{pair.reference_id}", "--out", str(out)])
        assert code == 0
        assert (out / f"{pair.query_id}__{pair.reference_id}.smap").exists()

    def test_explain_writes_full_ranking(self, cli_workspace, tmp_path):
        _, manifest, _, model = cli_workspace
        ds = load_dataset(manifest)
        pair = ds.pairs_for_split("test")[0]
        prior = [2.0 * (a + 1) / (ds.n_attributes * (ds.n_attributes + 1)) for a in range(ds.n_attributes)]
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps({"phi1": 0.2, "phi2": 0.7, "phi3": 0.1, "prior": prior}))
        out = tmp_path / "expl.json"
        code = main(["explain", "--dataset", str(manifest), "--model", str(model),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                     "--pair", f"{pair.query_id}:{pair.reference_id}",
                     "--phi-file", str(fit), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["ranked"]) == ds.n_attributes
        assert (tmp_path / "expl.smap").exists()
        scores = [r["score"] for r in payload["ranked"]]
        assert scores == sorted(scores, reverse=True)
        assert payload["phi"] == {"phi1": 0.2, "phi2": 0.7, "phi3": 0.1}
        assert [r["prior"] for r in payload["ranked"]] == [prior[r["attribute"]] for r in payload["ranked"]]

    def test_prior_and_fit_phi(self, cli_workspace, tmp_path):
        """`fit-phi` writes the prior, its pair counts and phi in one file."""
        _, manifest, _, model = cli_workspace
        phi_path = tmp_path / "phi.json"
        code = main(["fit-phi", "--dataset", str(manifest), "--model", str(model),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                     "--grid-step", "0.25", "--out", str(phi_path)])
        assert code == 0
        fit = json.loads(phi_path.read_text())
        assert set(fit) == {"phi1", "phi2", "phi3", "prior", "n_used", "n_skipped"}
        assert np.isclose(sum(fit["prior"]), 1.0)
        assert len(fit["prior"]) == load_dataset(manifest).n_attributes
        assert fit["n_used"] + fit["n_skipped"] == len(load_dataset(manifest).pairs_for_split("val"))
        assert fit["n_used"] > 0

    def test_explain_reads_the_whole_pipeline_fit(self, tmp_path):
        """`pipeline` writes the fit in `fit-phi`'s form, and `explain
        --phi-file` ranks with its prior, not a uniform one."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"saliency": {"sliding": {"windows_query": 9, "windows_ref": 4}}}))
        run = tmp_path / "run"
        assert main(["pipeline", "--out", str(run), "--n-images", "16", "--attributes", "3", "--epochs", "2",
                     "--rise-masks", "20", "--methods", "sliding_window", "--limit", "1", "--seed", "3",
                     "--jobs", "1", "--config", str(cfg)]) == 0
        fit = json.loads((run / "phi.json").read_text())
        assert set(fit) == {"phi1", "phi2", "phi3", "prior", "n_used", "n_skipped"}
        assert not (run / "prior.json").exists()
        assert len(set(fit["prior"])) > 1  # fitted, not uniform
        pair = load_dataset(run / "dataset").pairs_for_split("test")[0]
        out = tmp_path / "expl.json"
        assert main(["explain", "--dataset", str(run / "dataset"), "--model", str(run / "model.sane"),
                     "--method", "sliding_window", "--seed", "3", "--config", str(cfg),
                     "--pair", f"{pair.query_id}:{pair.reference_id}", "--phi-file", str(run / "phi.json"),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["phi"] == {key: fit[key] for key in ("phi1", "phi2", "phi3")}
        assert [r["prior"] for r in payload["ranked"]] == [fit["prior"][r["attribute"]] for r in payload["ranked"]]

    def test_eval_report_schema(self, cli_workspace, tmp_path):
        _, manifest, _, model = cli_workspace
        report_path = tmp_path / "report.json"
        code = main(["eval", "--dataset", str(manifest), "--model", str(model),
                     "--scorer", "motif", "--seed", "11",
                     "--suite", "insertion,deletion,map,top1,removal",
                     "--methods", "sliding_window", "--insertion-step", "0.1",
                     "--limit", "4", "--jobs", "1", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        entry = report["saliency"]["sliding_window_fixed"]
        assert 0.0 <= entry["insertion_auc"] <= 100.0
        assert 0.0 <= entry["deletion_auc"] <= 100.0
        assert "map" in report["attribute"]
        assert set(report["attribute"]["top1"]) == {"random", "confidence_only", "full"}
        assert set(report["attribute"]["removal"]) == {"random", "confidence_only", "full"}
        assert (tmp_path / "report.json.config.json").exists()

    @staticmethod
    def _fast_config(tmp_path):
        cfg = {"saliency": {"sliding": {"windows_query": 36, "windows_ref": 4},
                            "rise": {"n_masks": 64, "n_ref_masks": 4},
                            "lime": {"n_samples": 80},
                            "mask": {"iters": 10}}}
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_discover_command(self, tmp_path, monkeypatch):
        """discover makes its maps in two passes through the pool; its
        result and montage are the same bytes at any --jobs."""
        data = tmp_path / "motifs"
        main(["synth", "--out", str(data), "--n-images", "20", "--attributes", "2",
              "--max-attrs", "1", "--seed", "4"])
        pools = []
        real = cli._parallel_map
        monkeypatch.setattr(cli, "_parallel_map", lambda fn, items, jobs:
                            pools.append((len(items), jobs)) or real(fn, items, jobs))
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"clusters_{jobs}.json"
            code = main(["discover", "--dataset", str(data / "manifest.json"),
                         "--method", "sliding_window", "--scorer", "motif", "--seed", "4",
                         "--k", "5", "--clusters", "2", "--top-n", "3", "--jobs", jobs,
                         "--config", str(self._fast_config(tmp_path)), "--out", str(out)])
            assert code == 0
            outputs.append((out.read_bytes(), out.with_suffix(".pgm").read_bytes()))
        payload = json.loads(outputs[0][0])
        assert payload["n_clusters"] == 2
        assert set(payload["removal"]) == {"patch", "random", "full_frame"}
        assert outputs[0] == outputs[1]
        # one item per query: 20 queries with 5 neighbours each, then the
        # queries of the reverse maps not made yet
        assert pools[0][0] == 20 and [jobs for _, jobs in pools] == [1, 1, 2, 2]


class TestCliPlumbing:
    def test_missing_dataset_is_validation_error(self, tmp_path):
        code = main(["saliency", "--dataset", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_compute_error_exit_code(self, tmp_path):
        data = tmp_path / "d"
        main(["synth", "--out", str(data), "--n-images", "16", "--seed", "2"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"saliency": {"lime": {"n_samples": 100, "lasso_alpha": 1e-12, "max_sweeps": 1}}}))
        code = main(["saliency", "--dataset", str(data / "manifest.json"),
                     "--method", "lime", "--scorer", "motif", "--seed", "2",
                     "--split", "train", "--limit", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "maps"), "--jobs", "1"])
        assert code == 3

    @pytest.mark.parametrize("edit", [
        lambda meta: meta["motif_slots"].update(attr00=[1, 2, 3]),
        lambda meta: meta["motif_slots"].update(attr00=[1, 2, 3, "4"]),
        lambda meta: meta["motif_slots"].update(attr00=[1, 2, 3, 4.0]),
        lambda meta: meta["motif_slots"].update(attr00=[-1, 2, 3, 4]),
        lambda meta: meta["motif_slots"].update(attr00=[50, 2, 10, 4]),
        lambda meta: meta["motif_slots"].update(nosuch=[1, 2, 3, 4]),
        lambda meta: meta.update(motif_slots=[[1, 2, 3, 4]]),
        lambda meta: meta.update(similarity_attribute=99),
    ], ids=["three-numbers", "string", "float", "negative", "outside", "unknown-name", "not-object",
            "similarity-attribute"])
    def test_bad_motif_slots_are_parse_errors(self, edit, tmp_path):
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--n-images", "8", "--seed", "2"]) == 0
        tree = json.loads((data / "manifest.json").read_text())
        edit(tree["meta"])
        (data / "manifest.json").write_text(json.dumps(tree))
        code = main(["saliency", "--dataset", str(data / "manifest.json"), "--scorer", "planted",
                     "--method", "sliding_window", "--split", "train", "--limit", "1",
                     "--out", str(tmp_path / "maps"), "--jobs", "1"])
        assert code == 2
        with pytest.raises(ParseError):
            se.planted_scorer_for(load_dataset(data / "manifest.json"))

    def test_jobs_do_not_change_bits(self, cli_workspace, tmp_path):
        _, manifest, _, model = cli_workspace
        reports = []
        for jobs in ("1", "3"):
            out = tmp_path / f"report_{jobs}.json"
            assert main(["eval", "--dataset", str(manifest), "--model", str(model),
                         "--scorer", "motif", "--seed", "11",
                         "--suite", "insertion,deletion", "--methods", "sliding_window",
                         "--insertion-step", "0.2", "--limit", "4", "--jobs", jobs,
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_dual_method_row_recorded(self, cli_workspace, tmp_path):
        _, manifest, _, model = cli_workspace
        out = tmp_path / "dual.json"
        cfg = TestCliCommands._fast_config(tmp_path)
        assert main(["eval", "--dataset", str(manifest), "--model", str(model),
                     "--scorer", "motif", "--seed", "11",
                     "--suite", "insertion", "--methods", "rise,rise_dual",
                     "--insertion-step", "0.25", "--limit", "2", "--jobs", "1",
                     "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {"rise_fixed", "rise_dual"} <= set(report["saliency"])

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"saliency": {"rize": {}}}))
        code = main(["synth", "--out", str(tmp_path / "d"), "--seed", "1",
                     "--config", str(cfg)])
        # synth does not use the saliency section, but every command validates it
        assert code == 2
        with pytest.raises(ParseError):
            build_config(se.SaliencyConfig, {"rize": {}}, "saliency")

    # json reads NaN and Infinity, so the config types reject them
    @pytest.mark.parametrize("dc_type, text", [
        (se.SaliencyConfig, '{"mask": {"lr": NaN}}'),
        (se.SaliencyConfig, '{"mask": {"lr": -0.1}}'),
        (se.SaliencyConfig, '{"mask": {"lr": Infinity}}'),
        (se.SaliencyConfig, '{"mask": {"tv_weight": -1.0}}'),
        (se.SaliencyConfig, '{"mask": {"l1_weight": NaN}}'),
        (se.SaliencyConfig, '{"lime": {"lasso_alpha": NaN}}'),
        (se.SaliencyConfig, '{"lime": {"lasso_alpha": Infinity}}'),
        (se.TrainConfig, '{"lr": NaN}'),
        (se.TrainConfig, '{"lam": Infinity}'),
    ], ids=["mask-lr-nan", "mask-lr-negative", "mask-lr-inf", "mask-tv-negative", "mask-l1-nan",
            "lime-alpha-nan", "lime-alpha-inf", "train-lr-nan", "train-lam-inf"])
    def test_non_finite_and_out_of_range_numbers_rejected(self, dc_type, text):
        with pytest.raises(InvalidArgumentError):
            build_config(dc_type, json.loads(text), "section")

    def test_nan_in_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"saliency": {"mask": {"lr": NaN}}}')
        assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(cfg)]) == 2
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("sign", ["0.5", "NaN"])
    def test_bad_preserve_sign_in_config_exits_2(self, sign, tmp_path, capsys):
        cfg = tmp_path / "sign.json"
        cfg.write_text(f'{{"saliency": {{"mask": {{"preserve_sign": {sign}}}}}}}')
        assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(cfg)]) == 2
        assert "preserve_sign" in capsys.readouterr().err

    @pytest.mark.parametrize("key, count, nearest", [("windows_query", 50, "49 or 64"),
                                                     ("windows_ref", 8, "4 or 9")])
    def test_non_square_window_count_in_config_exits_2(self, key, count, nearest, tmp_path, capsys):
        # the windows lie on a square lattice: no count is rounded silently
        cfg = tmp_path / "windows.json"
        cfg.write_text(json.dumps({"saliency": {"sliding": {key: count}}}))
        assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(cfg)]) == 2
        assert key in (err := capsys.readouterr().err) and nearest in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("count, nearest", [(50, "49 or 64"), (57, "49 or 64"), (2, "1 or 4")])
    def test_non_square_segment_count_in_config_exits_2(self, count, nearest, tmp_path, capsys):
        # the grid segmentation is g x g cells: no count is rounded silently
        cfg = tmp_path / "segments.json"
        cfg.write_text(json.dumps({"saliency": {"lime": {"n_segments": count}}}))
        assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(cfg)]) == 2
        assert "n_segments" in (err := capsys.readouterr().err) and nearest in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flags", [["--dims", "100000,100000,3"], ["--embed-dim", "100000"]],
                             ids=["dims", "embed-dim"])
    def test_serve_stub_refuses_a_weight_it_cannot_hold(self, flags, monkeypatch, capsys):
        """The weight's size is checked by arithmetic: the refused stub
        draws no weight and serves nothing."""
        called = []
        monkeypatch.setattr(cli.LinearToyScorer, "random", lambda *a, **kw: called.append("random"))
        monkeypatch.setattr(cli, "serve_stdio", lambda *a, **kw: called.append("serve"))
        assert main(["serve-stub", *flags]) == 2
        err = capsys.readouterr().err
        assert "--dims" in err and "--embed-dim" in err and str(2 ** 26) in err
        assert called == []

    def test_removed_fd_fallback_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "fd.json"
        cfg.write_text(json.dumps({"saliency": {"mask": {"fd_fallback": True}}}))
        assert main(["synth", "--out", str(tmp_path / "d"), "--seed", "1", "--config", str(cfg)]) == 2
        assert "fd_fallback" in capsys.readouterr().err

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="n_maskz"):
            build_config(se.SaliencyConfig, {"rise": {"n_maskz": 10}}, "saliency")

    def test_config_values_applied(self):
        cfg = build_config(se.SaliencyConfig, {"rise": {"n_masks": 123}, "method": "rise"}, "saliency",
                           seed=5, rise={"grid": 4})
        assert cfg.rise.n_masks == 123 and cfg.rise.grid == 4
        assert cfg.seed == 5
        assert cfg.method is se.Method.RISE

    _FAST = {"sliding": {"windows_query": 9, "windows_ref": 4}, "rise": {"n_masks": 20, "n_ref_masks": 2}}
    _SALIENCY = ["saliency", "--dataset", "{manifest}", "--scorer", "motif", "--pair", "{pair}",
                 "--out", "{tmp}/maps"]
    _DISCOVER = ["discover", "--dataset", "{manifest}", "--scorer", "motif", "--k", "1", "--top-n", "1",
                 "--clusters", "2", "--out", "{tmp}/clusters.json"]
    _SYNTH = ["synth", "--n-images", "8", "--out", "{tmp}/d"]

    # (argv, config, expected): the expected values of the echoed run
    # config by dotted key, or 2 for a config error. Defaults sit under
    # the file, the file under the flags the user passed.
    @pytest.mark.parametrize("argv, config, expected", [
        (_SALIENCY, {"saliency": {**_FAST, "method": "sliding_window"}},
         {"maps/run_config.json": {"saliency.method": "sliding_window", "saliency.fixed_reference": True}}),
        (_SALIENCY + ["--method", "rise"], {"saliency": {**_FAST, "method": "sliding_window"}},
         {"maps/run_config.json": {"saliency.method": "rise"}}),
        (["fit-phi", "--dataset", "{manifest}", "--model", "{model}", "--scorer", "motif", "--grid-step", "0.5",
          "--out", "{tmp}/phi.json"], {"saliency": {**_FAST, "method": "sliding_window"}},
         {"phi.json.config.json": {"saliency.method": "sliding_window"}}),
        (_DISCOVER, {"saliency": {**_FAST, "method": "sliding_window"}},
         {"clusters.json.config.json": {"discovery.saliency.method": "sliding_window"}}),
        (_SALIENCY, {"saliency": {**_FAST, "method": "sliding_window", "fixed_reference": False}},
         {"maps/run_config.json": {"saliency.fixed_reference": False}}),
        (_SALIENCY + ["--fixed-ref"], {"saliency": {**_FAST, "method": "sliding_window", "fixed_reference": False}},
         {"maps/run_config.json": {"saliency.fixed_reference": True}}),
        (["synth", "--out", "{tmp}/d"], {"synth": {"n_images": 12}}, {"d/run_config.json": {"spec.n_images": 12}}),
        (_SYNTH, None, 2),
        (["pipeline", "--out", "{tmp}/run", "--epochs", "2", "--methods", "sliding_window", "--limit", "1",
          "--jobs", "1"], {"synth": {"n_images": 16, "n_attributes": 3}, "saliency": _FAST},
         {"run/run_config.json": {"spec.n_images": 16, "spec.n_attributes": 3, "saliency.rise.n_masks": 20}}),
        (_SYNTH, {"saliency": {"seed": 3}}, 2),
        (_SYNTH, {"train": {"seed": 3}}, 2),
        (_SYNTH, {"synth": {"seed": 3}}, 2),
        (_SYNTH, {"discovery": {"seed": 3}}, 2),
        (_SYNTH, {"seed": 3}, 2),
        (_SYNTH, {"jobs": 2}, 2),
        (_SYNTH, {"explain": {}}, 2),
        (_DISCOVER, {"saliency": _FAST, "discovery": {"saliency": {"method": "sliding_window"}}}, 2),
        (_SYNTH, {"synth": {"n_images": "12"}}, 2),
        (_SYNTH, {"saliency": {"rise": {"n_masks": 2.5}}}, 2),
        (_SYNTH, {"saliency": {"fixed_reference": "no"}}, 2),
        (_SYNTH, {"saliency": {"rise": {"n_masks": True}}}, 2),
        (_SYNTH, {"synth": {"noise": False}}, 2),
        (_SYNTH, {"saliency": {"lime": {"segmentation": 1}}}, 2),
        (_SYNTH, {"synth": {"split_fracs": [0.6, 0.4]}}, 2),
        (_SYNTH, {"synth": {"split_fracs": [0.6, "0.2", 0.2]}}, 2),
        (["synth", "--out", "{tmp}/d", "--n-images", "8"], {"synth": {"noise": 0, "split_fracs": [0.5, 0.25, 0.25]}},
         {"d/run_config.json": {"spec.noise": 0, "spec.split_fracs": [0.5, 0.25, 0.25]}}),
    ])
    def test_config_rule(self, argv, config, expected, cli_workspace, tmp_path):
        _, manifest, _, model = cli_workspace
        pair = load_dataset(manifest).pairs_for_split("test")[0]
        cfg = tmp_path / "cfg.json"
        if config is not None:  # no file at all must fail too
            cfg.write_text(json.dumps(config))
        argv = [a.format(manifest=manifest, model=model, pair=f"{pair.query_id}:{pair.reference_id}",
                         tmp=tmp_path) for a in argv] + ["--seed", "11", "--config", str(cfg)]
        if expected == 2:
            args = build_parser().parse_args(argv)
            with pytest.raises(ParseError):
                args.func(args)
            assert main(argv) == 2
            return
        assert main(argv) == 0
        for echo, values in expected.items():
            tree = json.loads((tmp_path / echo).read_text())
            for dotted, want in values.items():
                got = tree
                for key in dotted.split("."):
                    got = got[key]
                assert got == want, dotted

    def test_json_output_mode(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "d"), "--n-images", "16",
                     "--seed", "2", "--json"])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        payload = json.loads(line)
        assert payload["n_images"] == 16

    def test_provenance_echo_deterministic(self, tmp_path):
        for sub in ("x", "y"):
            main(["synth", "--out", str(tmp_path / sub), "--n-images", "16", "--seed", "2"])
        a = (tmp_path / "x" / "run_config.json").read_bytes()
        b = (tmp_path / "y" / "run_config.json").read_bytes()
        assert a == b

    @pytest.fixture
    def spawned(self, monkeypatch):
        """Every child process started during the test; killed afterwards."""
        procs = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            proc = real_popen(*args, **kwargs)
            procs.append(proc)
            return proc

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        yield procs
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    @pytest.mark.parametrize("command", [
        ["saliency", "--method", "lime", "--dual", "--pair", "{pair}", "--out", "{tmp}/maps"],
        # discover refuses an oversized patch once its scorer is built
        ["discover", "--method", "sliding_window", "--patch", "500", "--out", "{tmp}/clusters.json"],
    ])
    def test_failed_command_closes_external_scorer(self, command, spawned, tmp_path):
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--n-images", "8", "--seed", "2"]) == 0
        pair = load_dataset(data / "manifest.json").pairs[0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"saliency": {"sliding": {"windows_query": 9, "windows_ref": 4}}}))
        stub = f"{shlex.quote(sys.executable)} -m simexplain serve-stub"
        argv = [a.format(pair=f"{pair.query_id}:{pair.reference_id}", tmp=tmp_path) for a in command]
        code = main([*argv, "--dataset", str(data / "manifest.json"), "--seed", "2", "--config", str(cfg),
                     "--scorer", "external", "--external-cmd", stub])
        assert code == 2
        # LIME in dual mode is refused as its config is built, before the
        # stub starts; discover fails once the stub is running
        assert len(spawned) == (command[0] == "discover")
        assert all(proc.poll() is not None for proc in spawned)  # the stub child was shut down

    def test_discover_needs_an_embedding_scorer_and_closes_it(self, spawned, tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--n-images", "8", "--seed", "2"]) == 0
        stub = f"{shlex.quote(sys.executable)} -m simexplain serve-stub --no-embed"
        out = tmp_path / "clusters.json"
        assert main(["discover", "--dataset", str(data / "manifest.json"), "--out", str(out), "--seed", "2",
                     "--scorer", "external", "--external-cmd", stub]) == 2
        assert "embedding-capable" in capsys.readouterr().err
        assert not out.exists()
        assert len(spawned) == 1
        assert spawned[0].poll() is not None  # the stub child was shut down

    def test_mask_needs_keep_kernel_and_closes_external_scorer(self, spawned, tmp_path, capsys):
        # the external transport scores images; it has no keep_kernel
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--n-images", "8", "--seed", "2"]) == 0
        pair = load_dataset(data / "manifest.json").pairs[0]
        stub = f"{shlex.quote(sys.executable)} -m simexplain serve-stub"
        code = main(["saliency", "--method", "mask", "--pair", f"{pair.query_id}:{pair.reference_id}",
                     "--out", str(tmp_path / "maps"), "--dataset", str(data / "manifest.json"), "--seed", "2",
                     "--scorer", "external", "--external-cmd", stub])
        assert code == 2
        err = capsys.readouterr().err
        assert "keep_kernel" in err and "fd_fallback" not in err
        assert len(spawned) == 1
        assert spawned[0].poll() is not None  # the stub child was shut down

    @pytest.mark.parametrize("stub_flags, config, message", [
        (["--no-embed"], {"saliency": {"rise": {"n_masks": 20}, "sliding": {"windows_query": 9, "windows_ref": 4}}},
         "embedding-capable"),
        ([], {"saliency": {"method": "mask"}}, "keep_kernel"),
    ], ids=["removal-needs-embed", "mask-needs-keep-kernel"])
    def test_pipeline_refused_late_writes_nothing(self, stub_flags, config, message, spawned, tmp_path, capsys):
        """pipeline writes its outputs only after its last computation, so a
        refusal at the removal suite or at the first bank map leaves no run
        directory, and the stub child is shut down."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        stub = shlex.join([sys.executable, "-m", "simexplain", "serve-stub", *stub_flags])
        out = tmp_path / "run"
        code = main(["pipeline", "--n-images", "16", "--attributes", "3", "--epochs", "2", "--rise-masks", "20",
                     "--methods", "sliding_window", "--limit", "1", "--seed", "3", "--jobs", "1",
                     "--config", str(cfg), "--scorer", "external", "--external-cmd", stub, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert len(spawned) == 1
        assert spawned[0].poll() is not None  # the stub child was shut down

    @pytest.mark.parametrize("external_cmd, code, message", [
        ("  ", 2, "--external-cmd"),
        ("'unterminated", 2, "--external-cmd"),
        ("no-such-scorer-binary", 3, "no-such-scorer-binary"),
    ], ids=["blank", "unparseable", "missing-program"])
    def test_bad_external_cmd_exits_cleanly(self, external_cmd, code, message, tmp_path, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--n-images", "8", "--seed", "2"]) == 0
        capsys.readouterr()
        assert main(["saliency", "--dataset", str(data / "manifest.json"), "--out", str(tmp_path / "maps"),
                     "--scorer", "external", "--external-cmd", external_cmd]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, files", [
        (["--model", "{tmp}/missing.sane"], {}),
        (["--model", "{tmp}/short.sane"], {"short.sane": b"SANE1\x00\x01"}),
        (["--phi-file", "{tmp}/missing.json"], {}),
        (["--phi-file", "{tmp}/f.json"], {"f.json": b"{"}),
        (["--phi-file", "{tmp}/f.json"], {"f.json": b"{}"}),
        (["--phi-file", "{tmp}/f.json"], {"f.json": _fit(prior="abc")}),
        (["--phi-file", "{tmp}/f.json"], {"f.json": _fit(phi1="x")}),
        (["--phi-file", "{tmp}/f.json"], {"f.json": b'{"phi1": 0.1, "phi2": 0.9, "phi3": 0.05}'}),
        (["--phi-file", "{tmp}/f.json"], {"f.json": _fit(prior=[0.5, 0.5])}),
        (["--phi-file", "{tmp}/f.json"], {"f.json": b"[0.1, 0.9, 0.05]"}),
    ])
    def test_bad_user_files_are_parse_errors(self, flags, files, cli_workspace, tmp_path):
        _, manifest, _, model = cli_workspace
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        pair = load_dataset(manifest).pairs_for_split("test")[0]
        argv = ["explain", "--dataset", str(manifest), "--model", str(model),
                "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                "--pair", f"{pair.query_id}:{pair.reference_id}", "--out", str(tmp_path / "e.json"),
                *[f.format(tmp=tmp_path) for f in flags]]
        args = build_parser().parse_args(argv)
        with pytest.raises(ParseError):
            args.func(args)
        assert main(argv) == 2

    def test_non_finite_prior_exits_2(self, cli_workspace, tmp_path, capsys):
        _, manifest, _, model = cli_workspace
        ds = load_dataset(manifest)
        pair = ds.pairs_for_split("test")[0]
        rest = [0.9 / (ds.n_attributes - 1)] * (ds.n_attributes - 1)
        (tmp_path / "p.json").write_bytes(_fit(prior=[float("nan"), *rest]))
        out = tmp_path / "e.json"
        assert main(["explain", "--dataset", str(manifest), "--model", str(model),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                     "--pair", f"{pair.query_id}:{pair.reference_id}", "--phi-file", str(tmp_path / "p.json"),
                     "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["phi1", "phi2", "phi3", "prior"])
    def test_fit_file_without_a_key_exits_2_naming_it(self, missing, cli_workspace, tmp_path, capsys):
        """A phi-only file is refused, not ranked under a uniform prior."""
        _, manifest, _, model = cli_workspace
        pair = load_dataset(manifest).pairs_for_split("test")[0]
        fit = json.loads(_fit())
        del fit[missing]
        (tmp_path / "f.json").write_text(json.dumps(fit))
        out = tmp_path / "e.json"
        assert main(["explain", "--dataset", str(manifest), "--model", str(model),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                     "--pair", f"{pair.query_id}:{pair.reference_id}", "--phi-file", str(tmp_path / "f.json"),
                     "--out", str(out)]) == 2
        assert repr(missing) in capsys.readouterr().err
        assert not out.exists()

    def test_nan_grid_step_exits_2(self, cli_workspace, tmp_path, capsys):
        _, manifest, _, model = cli_workspace
        out = tmp_path / "phi.json"
        with pytest.raises(SystemExit) as exc:
            main(["fit-phi", "--dataset", str(manifest), "--model", str(model),
                  "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                  "--grid-step", "nan", "--out", str(out)])
        assert exc.value.code == 2
        assert "--grid-step" in capsys.readouterr().err
        assert not out.exists()

    # {header field offset: new value}, or None for one trailing byte
    @pytest.mark.parametrize("fields", [
        pytest.param({29: 0}, id="29-0"),          # grid 0
        pytest.param({29: 5}, id="29-5"),          # grid 5 does not divide the 56-pixel sides
        pytest.param({33: 0}, id="33-0"),          # no attributes
        pytest.param({25: 0}, id="25-0"),          # no filters
        pytest.param({25: 2 ** 31}, id="25-2147483648"),  # a head far larger than the file
        pytest.param(None, id="None-None"),        # one trailing byte
        pytest.param({13: 112}, id="112x56-image"),  # not the dataset's 56x56 images
        # 32768x32768 images in a file of consistent size: refused before allocating
        pytest.param({13: 2 ** 15, 17: 2 ** 15, 29: 1}, id="32768x32768-image"),
    ])
    def test_bad_model_header_is_parse_error(self, fields, cli_workspace, tmp_path):
        _, manifest, _, model = cli_workspace
        raw = bytearray(model.read_bytes())
        if fields is None:
            raw += b"\0"
        else:
            for offset, value in fields.items():
                raw[offset:offset + 4] = struct.pack("<I", value)
        bad = tmp_path / "bad.sane"
        bad.write_bytes(bytes(raw))
        dataset = load_dataset(manifest)
        with pytest.raises(ParseError):
            load_model(bad, dataset.dims, dataset.n_attributes)
        pair = dataset.pairs_for_split("test")[0]
        assert main(["explain", "--dataset", str(manifest), "--model", str(bad),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                     "--pair", f"{pair.query_id}:{pair.reference_id}",
                     "--out", str(tmp_path / "e.json")]) == 2

    @pytest.mark.parametrize("error", [IntegrityError, ParseError], ids=["28x28x3-image", "lying-header"])
    def test_bad_image_file_is_validation_error(self, error, tmp_path):
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--n-images", "16", "--seed", "2"]) == 0
        manifest = data / "manifest.json"
        first = data / json.loads(manifest.read_text())["images"][0]["path"]
        if error is IntegrityError:  # one image smaller than the other 56x56 ones
            save_grid(first, np.zeros((28, 28, 3)))
        else:  # a header claiming 65535^3 floats, about 2^50 bytes
            first.write_bytes(GRID_MAGIC + struct.pack("<III", 65535, 65535, 65535) + b"\0" * 16)
        with pytest.raises(error):
            load_dataset(manifest)
        assert main(["saliency", "--dataset", str(manifest), "--method", "sliding_window",
                     "--scorer", "triplet", "--seed", "2", "--split", "train", "--limit", "1",
                     "--out", str(tmp_path / "maps"), "--jobs", "1"]) == 2

    def test_lying_map_header_is_parse_error(self, cli_workspace, tmp_path):
        _, manifest, _, _ = cli_workspace
        maps = tmp_path / "maps"
        maps.mkdir()
        pair = load_dataset(manifest).pairs_for_split("train")[0]
        (maps / f"{pair.query_id}__{pair.reference_id}.smap").write_bytes(
            SMAP_MAGIC + struct.pack("<IIBBB", 4_000_000_000, 4_000_000_000, 1, 1, 1))
        assert main(["train-attr", "--dataset", str(manifest), "--maps", str(maps),
                     "--out", str(tmp_path / "m.sane"), "--epochs", "1", "--seed", "11"]) == 2

    def test_unopenable_map_file_exits_2(self, cli_workspace, tmp_path, capsys):
        _, manifest, _, _ = cli_workspace
        pair = load_dataset(manifest).pairs_for_split("train")[0]
        smap = tmp_path / "maps" / f"{pair.query_id}__{pair.reference_id}.smap"
        smap.mkdir(parents=True)  # a directory where a map file belongs
        out = tmp_path / "m.sane"
        assert main(["train-attr", "--dataset", str(manifest), "--maps", str(smap.parent),
                     "--out", str(out), "--epochs", "1", "--seed", "11"]) == 2
        assert f"{smap}: cannot open saliency map file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("holds", [None, "notes.txt"])
    def test_maps_path_without_smap_files_exits_2(self, holds, cli_workspace, tmp_path, capsys):
        _, manifest, _, _ = cli_workspace
        maps = tmp_path / "maps"
        if holds:  # a directory without .smap files; else no directory at all
            maps.mkdir()
            (maps / holds).write_text("not a map")
        out = tmp_path / "m.sane"
        assert main(["train-attr", "--dataset", str(manifest), "--maps", str(maps),
                     "--out", str(out), "--epochs", "1", "--seed", "11"]) == 2
        assert f"{maps}: not a directory of .smap" in capsys.readouterr().err
        assert not out.exists()

    def test_head_beyond_float32_exits_2_without_a_model_file(self, cli_workspace, tmp_path, capsys):
        _, manifest, maps, _ = cli_workspace
        out = tmp_path / "m.sane"
        assert main(["train-attr", "--dataset", str(manifest), "--maps", str(maps),
                     "--out", str(out), "--epochs", "20", "--lr", "1e40", "--seed", "11"]) == 2
        assert "float32" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_generates_each_validation_map_once(self, tmp_path, monkeypatch):
        seen = Counter()
        real = cli.pair_features

        def counting(model, maps, dataset, pairs):
            seen.update((p.query_id, p.reference_id) for p in pairs)
            return real(model, maps, dataset, pairs)

        monkeypatch.setattr(cli, "pair_features", counting)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"saliency": {"sliding": {"windows_query": 9, "windows_ref": 4}}}))
        out = tmp_path / "run"
        assert main(["pipeline", "--out", str(out), "--n-images", "16", "--attributes", "3",
                     "--epochs", "2", "--rise-masks", "20", "--methods", "sliding_window",
                     "--limit", "2", "--seed", "3", "--jobs", "1", "--config", str(cfg)]) == 0
        val = load_dataset(out / "dataset").pairs_for_split("val")
        assert val
        assert [seen[(p.query_id, p.reference_id)] for p in val] == [1] * len(val)

    def test_pipeline_trains_from_the_maps_it_made(self, tmp_path):
        # a run into a directory an earlier run used must not train on that run's maps
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"saliency": {"sliding": {"windows_query": 9, "windows_ref": 4}}}))

        def pipeline(out, seed):
            assert main(["pipeline", "--out", str(out), "--n-images", "16", "--attributes", "3",
                         "--epochs", "2", "--rise-masks", "20", "--scorer", "motif", "--methods", "sliding_window",
                         "--limit", "1", "--seed", seed, "--jobs", "1", "--config", str(cfg)]) == 0
            return (out / "model.sane").read_bytes()

        pipeline(tmp_path / "used", "3")
        assert pipeline(tmp_path / "used", "4") == pipeline(tmp_path / "fresh", "4")

    @staticmethod
    def _record_maps(monkeypatch) -> list:
        """Record the (reference, query, config) key of every map a command
        makes, wherever it makes it: one entry per reference of each
        per-query call, and one per single-pair call."""
        made = []
        for module in (cli, se_discovery):
            def recording(scorer, refs, query, codes, _real=module.query_maps):
                made.extend((ref.data.tobytes(), query.data.tobytes(), codes.cfg) for ref in refs)
                return _real(scorer, refs, query, codes)

            monkeypatch.setattr(module, "query_maps", recording)

        def recording_one(scorer, ref, query, cfg, _real=se_explain.generate):
            made.append((ref.data.tobytes(), query.data.tobytes(), cfg))
            return _real(scorer, ref, query, cfg)

        monkeypatch.setattr(se_explain, "generate", recording_one)
        return made

    def test_pipeline_makes_each_map_once(self, tmp_path, monkeypatch):
        made = self._record_maps(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"saliency": {"sliding": {"windows_query": 9, "windows_ref": 4}}}))
        # the rise row's test maps are also the ones the top1/removal suites rank
        assert main(["pipeline", "--out", str(tmp_path / "run"), "--n-images", "16", "--attributes", "3",
                     "--epochs", "2", "--rise-masks", "20", "--methods", "rise,sliding_window",
                     "--limit", "2", "--seed", "3", "--jobs", "2", "--config", str(cfg)]) == 0
        assert made and max(Counter(made).values()) == 1

    def test_each_config_builds_its_masks_once_per_command(self, tmp_path, monkeypatch):
        """One RISE mask draw per stream and one offset grouping per config
        per command, whichever maps, passes and pool items read them."""
        draws, groupings = [], []
        sample, group = se_saliency.sample_rise_masks, se_saliency._group_offsets
        monkeypatch.setattr(se_saliency, "sample_rise_masks", lambda *a, **kw: draws.append(
            kw.get("stream", se_saliency._STREAM_QUERY_MASKS)) or sample(*a, **kw))
        monkeypatch.setattr(se_saliency, "_group_offsets", lambda dy, dx: groupings.append(dy.size) or group(dy, dx))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"saliency": {"rise": {"n_masks": 20, "n_ref_masks": 4},
                                                "sliding": {"windows_query": 9, "windows_ref": 4}}}))
        run = tmp_path / "run"
        assert main(["pipeline", "--out", str(run), "--n-images", "16", "--attributes", "3", "--epochs", "2",
                     "--methods", "rise,rise_dual,sliding_window", "--limit", "2", "--seed", "3", "--jobs", "2",
                     "--config", str(cfg)]) == 0
        # the fixed config's masks serve the bank, the fit and the test maps;
        # the dual config draws its query masks and its reference masks
        assert sorted(draws) == [1, 1, 2] and sorted(groupings) == [4, 20, 20]
        draws.clear()
        groupings.clear()
        assert main(["discover", "--dataset", str(run / "dataset" / "manifest.json"), "--method", "rise",
                     "--seed", "3", "--k", "3", "--clusters", "2", "--top-n", "2", "--jobs", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "d.json")]) == 0
        assert draws == [1] and groupings == [20]

    @pytest.mark.parametrize("method", ["rise", "sliding_window", "lime"])
    def test_maps_embed_each_query_once(self, method):
        """``_maps`` asks for one keep kernel per query, however many of its
        pairs share that query, and returns the maps in pair order."""
        ds = se.generate_dataset(se.SyntheticSpec(n_images=16, n_attributes=3, seed=3))
        pairs = ds.pairs_for_split("train")
        queries = {p.query_id for p in pairs}
        assert len(pairs) > len(queries)
        scorer = KernelCounter(se.motif_scorer_for(ds, seed=3))
        cfg = build_config(se.SaliencyConfig, {"method": method, "sliding": {"windows_query": 9},
                                               "rise": {"n_masks": 20}, "lime": {"n_samples": 40}}, "saliency", seed=3)
        maps = cli._maps(scorer, ds, pairs, se_saliency.map_codes(cfg, *ds.dims[:2]), 2)
        assert sorted(scorer.kernels) == sorted(ds.image(q).data.astype(np.float64).tobytes() for q in queries)
        assert [m.data.tobytes() for m in maps] == [
            se.generate(scorer, ds.image(p.reference_id), ds.image(p.query_id), cfg).data.tobytes() for p in pairs]

    def test_eval_makes_each_map_once(self, cli_workspace, tmp_path, monkeypatch):
        _, manifest, _, model = cli_workspace
        made = self._record_maps(monkeypatch)
        cfg = TestCliCommands._fast_config(tmp_path)
        assert main(["eval", "--dataset", str(manifest), "--model", str(model),
                     "--scorer", "motif", "--seed", "11", "--suite", "insertion,top1",
                     "--methods", "rise,rise_dual,sliding_window", "--insertion-step", "0.25",
                     "--limit", "2", "--jobs", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "r.json")]) == 0
        assert made and max(Counter(made).values()) == 1

    @pytest.mark.parametrize("command", ["pipeline", "eval"])
    @pytest.mark.parametrize("methods", ["rise,bogus", "rise,bogus_dual", pytest.param("", id="empty"),
                                         pytest.param(",", id="no-name")])
    def test_unknown_method_fails_before_any_work(self, command, methods, cli_workspace, tmp_path, monkeypatch):
        _, manifest, _, model = cli_workspace
        made = self._record_maps(monkeypatch)
        out = tmp_path / "run"
        argv = {"pipeline": ["pipeline", "--n-images", "16", "--attributes", "3", "--epochs", "2"],
                "eval": ["eval", "--dataset", str(manifest), "--model", str(model), "--scorer", "motif"]}[command]
        assert main([*argv, "--methods", methods, "--jobs", "1", "--out", str(out)]) == 2
        assert made == []
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [
        (["pipeline", "--methods", "rise,lime_dual"], {}),
        (["pipeline"], {"saliency": {"method": "lime", "fixed_reference": False}}),
        (["eval", "--methods", "lime_dual"], {}),
    ], ids=["pipeline-methods", "pipeline-config", "eval-methods"])
    def test_lime_dual_is_refused_before_any_work(self, command, config, cli_workspace, tmp_path, monkeypatch,
                                                  capsys):
        """LIME in dual mode is refused as its config is built: no scorer,
        no map and no file comes first."""
        _, manifest, _, model = cli_workspace
        made = self._record_maps(monkeypatch)
        scorers = []
        make_scorer = cli.make_scorer
        monkeypatch.setattr(cli, "make_scorer", lambda *a: scorers.append(a) or make_scorer(*a))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = {"pipeline": ["--n-images", "16", "--attributes", "3", "--epochs", "2"],
                "eval": ["--dataset", str(manifest), "--model", str(model), "--scorer", "motif"]}[command[0]]
        out = tmp_path / "run"
        capsys.readouterr()
        assert main([*command, *argv, "--jobs", "1", "--config", str(cfg), "--out", str(out)]) == 2
        assert "fixed-reference mode only" in capsys.readouterr().err
        assert made == [] and scorers == [] and not out.exists()

    @pytest.mark.parametrize("curve_suite", ["insertion", "deletion"])
    def test_eval_scores_only_the_curves_it_reports(self, curve_suite, cli_workspace, tmp_path, monkeypatch):
        _, manifest, _, model = cli_workspace
        called = []
        for name in ("insertion_curve", "deletion_curve"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _n=name, _real=real: called.append(_n) or _real(*a))
        out = tmp_path / "r.json"
        assert main(["eval", "--dataset", str(manifest), "--model", str(model),
                     "--scorer", "motif", "--seed", "11", "--suite", curve_suite,
                     "--methods", "sliding_window", "--insertion-step", "0.25",
                     "--limit", "2", "--jobs", "1", "--config", str(TestCliCommands._fast_config(tmp_path)),
                     "--out", str(out)]) == 0
        assert called == [f"{curve_suite}_curve"] * 2
        assert set(json.loads(out.read_text())["saliency"]["sliding_window_fixed"]) == {
            f"{curve_suite}_auc", f"{curve_suite}_stderr"}

    @staticmethod
    def _split_workspace(tmp_path, split_fracs) -> tuple[Path, Path, Path]:
        """A 16-image dataset split by ``split_fracs``, a model trained on it
        without maps, and the config file (split and fast saliency) of both."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"split_fracs": split_fracs},
                                   "saliency": {"sliding": {"windows_query": 9, "windows_ref": 4},
                                                "rise": {"n_masks": 20, "n_ref_masks": 2}}}))
        data, model = tmp_path / "d", tmp_path / "m.sane"
        assert main(["synth", "--out", str(data), "--n-images", "16", "--attributes", "4", "--seed", "3",
                     "--config", str(cfg)]) == 0
        assert main(["train-attr", "--dataset", str(data / "manifest.json"), "--out", str(model),
                     "--epochs", "2", "--seed", "3", "--config", str(cfg)]) == 0
        return data / "manifest.json", model, cfg

    @pytest.mark.parametrize("command", [
        ["fit-phi", "--grid-step", "0.5"],
        ["eval", "--suite", "top1", "--limit", "2"],
        ["eval", "--suite", "removal", "--limit", "2"],
        ["pipeline", "--n-images", "16", "--attributes", "4", "--epochs", "5", "--rise-masks", "100", "--limit", "2"],
    ], ids=["fit-phi", "eval-top1", "eval-removal", "pipeline"])
    def test_split_without_validation_pairs_exits_2(self, command, tmp_path, monkeypatch, capsys):
        manifest, model, cfg = self._split_workspace(tmp_path, [0.8, 0.0, 0.2])
        ds = load_dataset(manifest)
        assert not ds.pairs_for_split("val") and ds.pairs_for_split("test")
        if command[0] != "pipeline":  # pipeline makes the same dataset itself
            command = [*command, "--dataset", str(manifest), "--model", str(model), "--scorer", "motif"]
        out = tmp_path / "out"
        capsys.readouterr()
        made = self._record_maps(monkeypatch)
        assert main([*command, "--seed", "3", "--jobs", "1", "--config", str(cfg), "--out", str(out)]) == 2
        assert "ground-truth attributes" in capsys.readouterr().err
        assert made == [] and not out.exists()  # refused before it writes or maps anything

    def test_pipeline_without_test_pairs_exits_2_before_writing(self, tmp_path, monkeypatch, capsys):
        manifest, _, cfg = self._split_workspace(tmp_path, [0.8, 0.2, 0.0])
        assert not load_dataset(manifest).pairs_for_split("test")
        made = self._record_maps(monkeypatch)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["pipeline", "--n-images", "16", "--attributes", "4", "--epochs", "5", "--rise-masks", "100",
                     "--limit", "2", "--seed", "3", "--jobs", "1", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no pairs" in capsys.readouterr().err
        assert made == [] and not out.exists()

    def test_curve_suites_over_no_test_pairs_exit_2(self, tmp_path, monkeypatch, capsys):
        manifest, model, cfg = self._split_workspace(tmp_path, [0.8, 0.2, 0.0])
        assert not load_dataset(manifest).pairs_for_split("test")
        made = self._record_maps(monkeypatch)
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["eval", "--dataset", str(manifest), "--model", str(model), "--scorer", "motif",
                     "--suite", "insertion,deletion", "--methods", "rise", "--seed", "3", "--jobs", "1",
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert "no pairs" in capsys.readouterr().err
        assert made == [] and not out.exists()

    def test_eval_without_test_pairs_makes_no_validation_map(self, tmp_path, monkeypatch, capsys):
        """The ranking suites fit on the validation pairs; an empty test
        split is refused before that fit makes a map."""
        manifest, model, cfg = self._split_workspace(tmp_path, [0.8, 0.2, 0.0])
        made = self._record_maps(monkeypatch)
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["eval", "--dataset", str(manifest), "--model", str(model), "--scorer", "motif",
                     "--methods", "rise", "--seed", "3", "--jobs", "1", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no pairs" in capsys.readouterr().err
        assert made == [] and not out.exists()

    @pytest.mark.parametrize("command", [
        ["fit-phi", "--grid-step", "0.5"],
        ["eval", "--suite", "top1", "--limit", "2"],
        ["eval", "--suite", "removal", "--limit", "2"],
    ], ids=["fit-phi", "eval-top1", "eval-removal"])
    def test_unlabelled_validation_pairs_exit_2_before_any_map(self, command, tmp_path, monkeypatch, capsys):
        manifest, model, cfg = self._split_workspace(tmp_path, [0.6, 0.2, 0.2])
        ds = load_dataset(manifest)
        val = ds.pairs_for_split("val")
        assert val and ds.pairs_for_split("test")
        labels = ds.labels.copy()
        labels[[ds.row(p.query_id) for p in val]] = 0
        save_dataset(dataclasses.replace(ds, labels=labels), tmp_path / "unlabelled")
        made = self._record_maps(monkeypatch)
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main([*command, "--dataset", str(tmp_path / "unlabelled" / "manifest.json"), "--model", str(model),
                     "--scorer", "motif", "--seed", "3", "--jobs", "1", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "ground-truth attributes" in capsys.readouterr().err
        assert made == [] and not out.exists()

    def test_pipeline_trains_the_model_of_saliency_and_train_attr(self, tmp_path):
        """With more pairs per query than k_maps, `pipeline` and `saliency
        --split train` + `train-attr` keep the same bank maps, each query's
        first k_maps in name order, and write the same model."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"pairs_per_query": 4}, "train": {"k_maps": 2},
                                   "saliency": {"method": "sliding_window",
                                                "sliding": {"windows_query": 9, "windows_ref": 4}}}))
        common = ["--seed", "5", "--config", str(cfg)]
        run, maps = tmp_path / "run", tmp_path / "maps"
        assert main(["pipeline", *common, "--n-images", "16", "--attributes", "3", "--epochs", "3",
                     "--methods", "sliding_window", "--limit", "1", "--jobs", "1", "--out", str(run)]) == 0
        manifest = str(run / "dataset" / "manifest.json")
        assert main(["saliency", *common, "--dataset", manifest, "--split", "train", "--jobs", "1",
                     "--out", str(maps)]) == 0
        assert main(["train-attr", *common, "--dataset", manifest, "--maps", str(maps), "--epochs", "3",
                     "--out", str(tmp_path / "model.sane")]) == 0
        kept = {path.name: path.read_bytes() for path in (run / "maps").glob("*.smap")}
        assert len(kept) < len(list(maps.glob("*.smap")))
        assert kept == {name: (maps / name).read_bytes() for name in kept}
        assert (tmp_path / "model.sane").read_bytes() == (run / "model.sane").read_bytes()

    def test_discover_patch_beyond_the_image_exits_2_before_any_map(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--n-images", "16", "--seed", "3"]) == 0
        made = self._record_maps(monkeypatch)
        out = tmp_path / "d.json"
        capsys.readouterr()
        assert main(["discover", "--dataset", str(data / "manifest.json"), "--seed", "3", "--patch", "500",
                     "--jobs", "1", "--out", str(out)]) == 2
        assert "patch side 500" in capsys.readouterr().err
        assert made == [] and not out.exists()

    def test_discover_more_clusters_than_images_exits_2_before_any_map(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--n-images", "24", "--seed", "3"]) == 0
        made = self._record_maps(monkeypatch)
        out = tmp_path / "d.json"
        capsys.readouterr()
        assert main(["discover", "--dataset", str(data / "manifest.json"), "--seed", "3", "--clusters", "30",
                     "--jobs", "1", "--out", str(out)]) == 2
        assert "n_clusters 30 exceeds the 24 images" in capsys.readouterr().err
        assert made == [] and not out.exists()

    def test_top1_leaves_queries_without_ground_truth_out(self, cli_workspace):
        """A test pair whose query has no ground truth is no miss: the report's
        top-1 accuracy counts the labelled pairs only."""
        _, manifest, _, model_path = cli_workspace
        ds = load_dataset(manifest)
        pairs = ds.pairs_for_split("test")[:4]
        labels = ds.labels.copy()
        labels[ds.row(pairs[0].query_id)] = 0
        ds = dataclasses.replace(ds, labels=labels)
        model = load_model(model_path, ds.dims, ds.n_attributes)
        scorer = cli.make_scorer("motif", ds, 11)
        cfg = build_config(se.SaliencyConfig, {"method": "sliding_window",
                                               "sliding": {"windows_query": 9, "windows_ref": 4}}, "saliency", seed=11)
        codes = se_saliency.map_codes(cfg, *ds.dims[:2])
        report, (estimate, phi) = cli.run_eval(ds, model, scorer, codes, ["top1"], [], seed=11, limit_pairs=4,
                                               jobs=1)
        fitted_estimate, fitted_phi = cli._fit_explanation(model, scorer, ds, ds.pairs_for_split("val"), codes, 1)
        assert phi == fitted_phi and estimate.prior.p.tobytes() == fitted_estimate.prior.p.tobytes()
        assert report["attribute"]["phi"] == [phi.phi1, phi.phi2, phi.phi3]
        features = se_explain.pair_features(model, cli._maps(scorer, ds, pairs, codes, 1), ds, pairs)
        hits = int(features.gt[np.arange(len(pairs)), features.top1(estimate.prior, phi)].sum())
        n_labelled = sum(p.query_id != pairs[0].query_id for p in pairs)
        assert 0 < n_labelled < len(pairs) and hits > 0
        assert report["attribute"]["top1"]["full"] == 100.0 * hits / n_labelled

    @pytest.mark.parametrize("command", ["explain", "fit-phi"])
    def test_model_of_another_catalog_exits_2(self, command, tmp_path, monkeypatch, capsys):
        """An 8-attribute model on a 4-attribute dataset (explain) and a
        4-attribute model on an 8-attribute dataset (fit-phi)."""
        for n in ("8", "4"):
            assert main(["synth", "--out", str(tmp_path / f"d{n}"), "--n-images", "16", "--attributes", n,
                         "--seed", "1"]) == 0
            assert main(["train-attr", "--dataset", str(tmp_path / f"d{n}"), "--out", str(tmp_path / f"m{n}.sane"),
                         "--epochs", "1", "--seed", "1"]) == 0
        data, model, argv = {"explain": ("d4", "m8.sane", ["--pair", "img000:img001"]),
                             "fit-phi": ("d8", "m4.sane", ["--grid-step", "0.5"])}[command]
        made = self._record_maps(monkeypatch)
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert main([command, *argv, "--dataset", str(tmp_path / data), "--model", str(tmp_path / model),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{model[1]} attributes" in err and f"dataset's {data[1]}" in err
        assert made == [] and not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "train-attr"])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_u64_exits_2_before_writing(self, command, seed, cli_workspace, tmp_path, capsys):
        _, manifest, maps, _ = cli_workspace
        out = tmp_path / "out"
        argv = {"pipeline": ["pipeline", "--n-images", "16", "--attributes", "3", "--epochs", "2"],
                "train-attr": ["train-attr", "--dataset", str(manifest), "--maps", str(maps), "--epochs", "1"]}[command]
        argv += ["--out", str(out), "--seed"]
        assert build_parser().parse_args([*argv, str(2 ** 64 - 1)]).seed == 2 ** 64 - 1
        with pytest.raises(SystemExit) as exc:
            main([*argv, seed])
        assert exc.value.code == 2
        assert "[0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite", [pytest.param("", id="empty"), pytest.param(" , ", id="no-name")])
    def test_empty_suite_fails_before_any_work(self, suite, cli_workspace, tmp_path, monkeypatch, capsys):
        _, manifest, _, model = cli_workspace
        made = self._record_maps(monkeypatch)
        out = tmp_path / "r.json"
        assert main(["eval", "--dataset", str(manifest), "--model", str(model), "--scorer", "motif",
                     "--suite", suite, "--jobs", "1", "--out", str(out)]) == 2
        assert "--suite" in capsys.readouterr().err
        assert made == []
        assert not out.exists()

    # (0 and below make no progress; 1e-12 asks for 10^12 curve steps and
    # 1e-4 for 3e8 phi candidates, so those are only ever parsed here)
    @pytest.mark.parametrize("command, flag, bad, good", [
        *[("eval", "--insertion-step", bad, "0.01") for bad in ("0", "-0.5", "1.5", "nan", "inf", "x", "1e-12")],
        *[("fit-phi", "--grid-step", bad, "0.05") for bad in ("0", "-0.5", "1.5", "nan", "inf", "x", "1e-4")],
    ])
    def test_step_flags_out_of_range_exit_2(self, command, flag, bad, good, capsys):
        argv = [command, *self._REQUIRED[command], flag]
        build_parser().parse_args(argv + [good])  # everything else parses
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [bad])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a number in" in capsys.readouterr().err

    # The arguments each command needs besides the one under test.
    _REQUIRED = {
        "synth": ["--out", "o"],
        "saliency": ["--dataset", "d", "--out", "o"],
        "train-attr": ["--dataset", "d", "--out", "o"],
        "fit-phi": ["--dataset", "d", "--model", "m", "--out", "o"],
        "explain": ["--dataset", "d", "--model", "m", "--pair", "a:b", "--out", "o"],
        "eval": ["--dataset", "d", "--model", "m", "--out", "o"],
        "discover": ["--dataset", "d", "--out", "o"],
        "serve-stub": [],
        "pipeline": ["--out", "o"],
    }

    @pytest.mark.parametrize("command, flag, bad, good", [
        *[(command, "--jobs", bad, "2") for command in ("saliency", "fit-phi", "eval", "discover", "pipeline")
          for bad in ("0", "-1")],
        *[(command, "--limit", bad, "2") for command in ("saliency", "eval", "pipeline") for bad in ("0", "-1")],
        *[("serve-stub", "--dims", bad, "56,56,3") for bad in ("56,56", "56,56,x", "56,0,3", "56,56,3,1")],
        *[("serve-stub", "--embed-dim", bad, "16") for bad in ("0", "-3")],
    ])
    def test_out_of_range_input_exits_2(self, command, flag, bad, good, capsys):
        argv = [command, *self._REQUIRED[command], flag]
        build_parser().parse_args(argv + [good])  # everything else parses
        with pytest.raises(SystemExit) as exc:
            main(argv + [bad])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    # Each command that writes, with inputs it would run on, and the kind of
    # path its --out names.
    _WRITES = {
        "synth": (["synth", "--n-images", "8"], "directory"),
        "saliency": (["saliency", "--dataset", "{manifest}", "--scorer", "motif", "--method", "sliding_window",
                      "--pair", "{pair}"], "directory"),
        "pipeline": (["pipeline", "--n-images", "16", "--attributes", "3", "--epochs", "2"], "directory"),
        "train-attr": (["train-attr", "--dataset", "{manifest}", "--epochs", "1"], "file"),
        "fit-phi": (["fit-phi", "--dataset", "{manifest}", "--model", "{model}", "--scorer", "motif",
                     "--method", "sliding_window", "--grid-step", "0.5"], "file"),
        "explain": (["explain", "--dataset", "{manifest}", "--model", "{model}", "--scorer", "motif",
                     "--method", "sliding_window", "--pair", "{pair}"], "file"),
        "eval": (["eval", "--dataset", "{manifest}", "--model", "{model}", "--scorer", "motif", "--suite", "map"],
                 "file"),
        "discover": (["discover", "--dataset", "{manifest}", "--method", "sliding_window", "--k", "1",
                      "--top-n", "1", "--clusters", "2"], "file"),
    }

    # The suffix of the second output a file command writes at --out.
    _SECOND = {"explain": ".smap", "discover": ".pgm"}

    @pytest.mark.parametrize("command, bad", [
        *[(command, bad) for command in _WRITES for bad in ("other-kind", "under-a-file")],
        *[(command, "echo-is-a-directory") for command, (_, kind) in _WRITES.items() if kind == "file"],
        *[(command, bad) for command in _SECOND for bad in ("second-is-out", "second-is-a-directory")],
    ])
    def test_bad_out_path_exits_2_before_any_work(self, command, bad, cli_workspace, tmp_path, monkeypatch,
                                                  capsys):
        """An --out of the other kind (a file where the command writes a
        directory, a directory where it writes a file) or under a file is
        refused as the arguments are parsed, and so is a file --out whose
        configuration echo or second output exists as a directory, or whose
        second output would overwrite it."""
        _, manifest, _, model = cli_workspace
        pair = load_dataset(manifest).pairs_for_split("test")[0]
        argv, kind = self._WRITES[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"saliency": {"sliding": {"windows_query": 9, "windows_ref": 4}}}))
        (tmp_path / "afile").write_text("not a directory")
        (tmp_path / "adir").mkdir()
        if bad == "echo-is-a-directory":
            (tmp_path / "res.json.config.json").mkdir()
        if bad == "second-is-a-directory":
            (tmp_path / f"res{self._SECOND[command]}").mkdir()
        out = {"other-kind": tmp_path / ("afile" if kind == "directory" else "adir"),
               "under-a-file": tmp_path / "afile" / "out",
               "echo-is-a-directory": tmp_path / "res.json",
               "second-is-out": tmp_path / f"res{self._SECOND.get(command)}",
               "second-is-a-directory": tmp_path / "res.json"}[bad]
        before = sorted(tmp_path.rglob("*"))
        made = self._record_maps(monkeypatch)
        for name in ("load_dataset", "generate_dataset", "make_scorer"):
            monkeypatch.setattr(cli, name, lambda *a, _n=name, _real=getattr(cli, name), **k:
                                made.append(_n) or _real(*a, **k))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([a.format(manifest=manifest, model=model, pair=f"{pair.query_id}:{pair.reference_id}")
                  for a in argv] + ["--seed", "11", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --out: {out}" in err and "Traceback" not in err
        assert made == []
        assert sorted(tmp_path.rglob("*")) == before


_COMMON = ["--seed", "--config", "--json", "--verbose"]
_SCORER = ["--scorer", "--external-cmd"]


# Each subcommand's own flags beyond the common ones, whether it takes the
# scorer flags, and which flags it requires.
@pytest.mark.parametrize("command, scorer, flags, required", [
    ("synth", False, ["--out", "--n-images", "--side", "--attributes", "--noise", "--max-attrs",
                      "--pairs-per-query"], ["--out"]),
    ("saliency", True, ["--dataset", "--out", "--method", "--fixed-ref", "--dual", "--pair", "--split",
                        "--limit", "--jobs"], ["--dataset", "--out"]),
    ("train-attr", False, ["--dataset", "--out", "--maps", "--epochs", "--lr", "--lam", "--k"],
     ["--dataset", "--out"]),
    ("pipeline", True, ["--out", "--n-images", "--attributes", "--epochs", "--rise-masks", "--methods",
                        "--limit", "--jobs"], ["--out"]),
    ("fit-phi", True, ["--dataset", "--model", "--out", "--method", "--split", "--grid-step", "--jobs"],
     ["--dataset", "--model", "--out"]),
    ("explain", True, ["--dataset", "--model", "--out", "--method", "--pair", "--phi-file"],
     ["--dataset", "--model", "--out", "--pair"]),
    ("eval", True, ["--dataset", "--model", "--out", "--suite", "--methods", "--insertion-step", "--limit",
                    "--jobs"],
     ["--dataset", "--model", "--out"]),
    ("discover", True, ["--dataset", "--out", "--method", "--k", "--clusters", "--top-n", "--patch", "--jobs"],
     ["--dataset", "--out"]),
    ("serve-stub", False, ["--dims", "--embed-dim", "--no-embed"], []),
])
def test_cli_surface(command, scorer, flags, required):
    """Every subcommand takes exactly its flags and requires exactly its
    required ones, however the parser declares them."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
    assert sorted(o for a in actions for o in a.option_strings) == sorted(
        _COMMON + (_SCORER if scorer else []) + flags)
    assert sorted(o for a in actions if a.required for o in a.option_strings) == sorted(required)


def _reads(func) -> set[str]:
    """The ``args`` attributes ``func`` reads, in its own source or in that
    of a cli function it hands ``args`` to (``run_config`` reads --seed and
    --config)."""
    source = inspect.getsource(func)
    names = set(re.findall(r"\bargs\.(\w+)", source)) | set(re.findall(r'getattr\(args, "(\w+)"', source))
    for helper in set(re.findall(r"\b(\w+)\(args\b", source)) - {func.__name__}:
        if callable(getattr(cli, helper, None)):
            names |= _reads(getattr(cli, helper))
    return names


@pytest.mark.parametrize("command", ["synth", "saliency", "train-attr", "fit-phi", "explain", "eval", "discover",
                                     "serve-stub", "pipeline"])
def test_every_flag_is_read(command):
    """A subcommand registers only flags that its command, or ``main``
    (--json, --verbose), reads."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    parser = sub.choices[command]
    read = _reads(parser.get_default("func")) | _reads(main)
    unread = {(command, a.dest) for a in parser._actions if a.option_strings and a.dest != "help"} - {
        (command, dest) for dest in read}
    assert unread == set()
