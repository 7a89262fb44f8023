import hashlib
import json
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import simexplain as se
import simexplain.cli as cli
from simexplain.cli import build_parser, build_saliency_config, load_saliency_bank, main
from simexplain.dataio import load_dataset, load_saliency
from simexplain.errors import ParseError
from simexplain.synth import motif_slots


def tree_hashes(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


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
        _, _, maps_dir, _ = cli_workspace
        bank = load_saliency_bank(maps_dir)
        assert bank
        for query_id, maps in bank.items():
            assert query_id.startswith("img")
            assert all(isinstance(m, se.SaliencyMap) for m in maps)

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
        out = tmp_path / "expl.json"
        code = main(["explain", "--dataset", str(manifest), "--model", str(model),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                     "--pair", f"{pair.query_id}:{pair.reference_id}",
                     "--phi", "0.1,0.9,0.05", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["ranked"]) == ds.n_attributes
        assert (tmp_path / "expl.smap").exists()
        scores = [r["score"] for r in payload["ranked"]]
        assert scores == sorted(scores, reverse=True)

    def test_prior_and_fit_phi(self, cli_workspace, tmp_path):
        _, manifest, _, model = cli_workspace
        prior_path = tmp_path / "prior.json"
        code = main(["prior", "--dataset", str(manifest), "--model", str(model),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                     "--out", str(prior_path)])
        assert code == 0
        prior = json.loads(prior_path.read_text())
        assert np.isclose(sum(prior["prior"]), 1.0)
        phi_path = tmp_path / "phi.json"
        code = main(["fit-phi", "--dataset", str(manifest), "--model", str(model),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "11",
                     "--grid-step", "0.25", "--out", str(phi_path)])
        assert code == 0
        phi = json.loads(phi_path.read_text())
        assert {"phi1", "phi2", "phi3"} <= set(phi)

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

    def test_bench_table(self, cli_workspace, tmp_path):
        _, manifest, _, _ = cli_workspace
        out = tmp_path / "bench.json"
        code = main(["bench", "--dataset", str(manifest), "--scorer", "motif",
                     "--seed", "1", "--config", str(self._fast_config(tmp_path)),
                     "--out", str(out)])
        assert code == 0
        table = json.loads(out.read_text())["timings"]
        methods = {(row["method"], row["fixed_reference"]) for row in table}
        assert ("lime", False) not in methods
        assert ("sliding_window", True) in methods

    @staticmethod
    def _fast_config(tmp_path):
        cfg = {"saliency": {"sliding": {"windows_query": 36, "windows_ref": 4},
                            "rise": {"n_masks": 64, "n_ref_masks": 4},
                            "lime": {"n_samples": 80},
                            "mask": {"iters": 10}}}
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_discover_command(self, tmp_path):
        data = tmp_path / "motifs"
        main(["synth", "--out", str(data), "--n-images", "20", "--attributes", "2",
              "--max-attrs", "1", "--seed", "4"])
        out = tmp_path / "clusters.json"
        code = main(["discover", "--dataset", str(data / "manifest.json"),
                     "--method", "sliding_window", "--scorer", "motif", "--seed", "4",
                     "--k", "5", "--clusters", "2", "--top-n", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n_clusters"] == 2
        assert set(payload["removal"]) == {"patch", "random", "full_frame"}
        assert out.with_suffix(".pgm").exists()


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
        # synth ignores the saliency section, but loading still validates it
        assert code in (0, 2)
        with pytest.raises(ParseError):
            build_saliency_config({"rize": {}})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="n_maskz"):
            build_saliency_config({"rise": {"n_maskz": 10}})

    def test_config_values_applied(self):
        cfg = build_saliency_config({"rise": {"n_masks": 123}, "method": "rise"}, seed=5)
        assert cfg.rise.n_masks == 123
        assert cfg.seed == 5
        assert cfg.method is se.Method.RISE

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
        ["discover", "--method", "sliding_window", "--k", "1", "--top-n", "1", "--clusters", "999",
         "--out", "{tmp}/clusters.json"],
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
        assert len(spawned) == 1
        assert spawned[0].poll() is not None  # the stub child was shut down

    @pytest.mark.parametrize("flags, files", [
        (["--model", "{tmp}/missing.sane"], {}),
        (["--model", "{tmp}/short.sane"], {"short.sane": b"SANE1\x00\x01"}),
        (["--prior", "{tmp}/missing.json"], {}),
        (["--prior", "{tmp}/p.json"], {"p.json": b"{"}),
        (["--prior", "{tmp}/p.json"], {"p.json": b"{}"}),
        (["--prior", "{tmp}/p.json"], {"p.json": b'{"prior": "abc"}'}),
        (["--phi", "a,b,c"], {}),
        (["--phi-file", "{tmp}/missing.json"], {}),
        (["--phi-file", "{tmp}/f.json"], {"f.json": b'{"phi1": 0.1}'}),
        (["--phi-file", "{tmp}/f.json"], {"f.json": b'{"phi1": "x", "phi2": 0, "phi3": 0}'}),
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

    def test_pipeline_generates_each_validation_map_once(self, tmp_path, monkeypatch):
        seen = Counter()
        real = cli.pair_features

        def counting(model, scorer, dataset, pairs, saliency_cfg):
            seen.update((p.query_id, p.reference_id) for p in pairs)
            return real(model, scorer, dataset, pairs, saliency_cfg)

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
