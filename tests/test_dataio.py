import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simexplain as se
from simexplain import dataio
from simexplain.attrmodel import FeatureExtractor, AttributeModel
from simexplain.dataio import load_model, save_model
from simexplain.errors import IntegrityError, InvalidArgumentError, InvalidDataError, ParseError


class TestGridFile:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        data = rng.random((5, 4, 3)).astype(np.float32)
        path = tmp_path / "x.grid"
        dataio.save_grid(path, data)
        loaded = dataio.load_grid(path)
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(ParseError, match="magic"):
            dataio.load_grid(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "x.grid"
        dataio.save_grid(path, rng.random((4, 4, 1)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError, match="truncated"):
            dataio.load_grid(path)

    def test_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "x.grid"
        dataio.save_grid(path, rng.random((2, 2, 1)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError, match="trailing"):
            dataio.load_grid(path)

    def test_header_larger_than_file(self, tmp_path):
        # 33 bytes whose header claims 65535^3 floats, about 2^50 bytes
        path = tmp_path / "lie.grid"
        path.write_bytes(dataio.GRID_MAGIC + struct.pack("<III", 65535, 65535, 65535) + b"\0" * 16)
        with pytest.raises(ParseError, match="header promises"):
            dataio.load_grid(path)


class TestSaliencyFile:
    def test_roundtrip_identity(self, tmp_path, rng):
        smap = se.SaliencyMap(rng.random((7, 7)).astype(np.float32),
                              method=se.Method.LIME, fixed_reference=False)
        path = tmp_path / "m.smap"
        dataio.save_saliency(path, smap)
        loaded = dataio.load_saliency(path)
        assert loaded == smap

    def test_flags_preserved(self, tmp_path):
        smap = se.SaliencyMap(np.array([[0.0, 1.0]], dtype=np.float32),
                              method=se.Method.MASK, fixed_reference=True, normalized=True)
        path = tmp_path / "m.smap"
        dataio.save_saliency(path, smap)
        loaded = dataio.load_saliency(path)
        assert loaded.method is se.Method.MASK
        assert loaded.fixed_reference and loaded.normalized

    def test_unknown_method_byte(self, tmp_path, rng):
        path = tmp_path / "m.smap"
        dataio.save_saliency(path, se.SaliencyMap(rng.random((2, 2)), method=se.Method.RISE))
        raw = bytearray(path.read_bytes())
        raw[13] = 99  # method byte follows magic(5) + dims(8)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="method"):
            dataio.load_saliency(path)

    @pytest.mark.parametrize("offset", [14, 15])  # fixed_reference, normalized
    def test_flag_byte_other_than_0_or_1(self, offset, tmp_path):
        path = tmp_path / "m.smap"
        dataio.save_saliency(path, se.SaliencyMap(np.zeros((2, 2)), method=se.Method.RISE))
        raw = bytearray(path.read_bytes())
        raw[offset] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="flag"):
            dataio.load_saliency(path)

    def test_header_larger_than_file(self, tmp_path):
        path = tmp_path / "lie.smap"
        path.write_bytes(dataio.SMAP_MAGIC + struct.pack("<IIBBB", 4_000_000_000, 4_000_000_000, 1, 1, 1))
        with pytest.raises(ParseError, match="header promises"):
            dataio.load_saliency(path)


class TestManifest:
    def test_synthetic_dataset_roundtrip(self, tmp_path):
        ds = se.generate_dataset(se.SyntheticSpec(n_images=64, seed=1))
        dataio.save_dataset(ds, tmp_path)
        loaded = dataio.load_dataset(tmp_path / "manifest.json")
        assert loaded.n_images == 64
        assert loaded.n_attributes == 8
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.pairs == ds.pairs
        assert loaded.catalog == ds.catalog
        for (id_a, img_a), (id_b, img_b) in zip(loaded.images, ds.images):
            assert id_a == id_b
            np.testing.assert_array_equal(img_a.data, img_b.data)

    def test_missing_field_named(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"catalog": ["a"]}))
        with pytest.raises(ParseError, match="images"):
            dataio.load_dataset(tmp_path / "manifest.json")

    def test_unknown_key_rejected(self, tmp_path):
        tree = {"catalog": ["a"], "images": [], "labels": "l.txt", "pairs": "p.txt", "extra": 1}
        (tmp_path / "manifest.json").write_text(json.dumps(tree))
        with pytest.raises(ParseError, match="extra"):
            dataio.load_dataset(tmp_path / "manifest.json")

    def test_missing_image_file_lists_id(self, tmp_path):
        tree = {"catalog": ["a"], "images": [{"id": "img42", "path": "images/img42.grid"}],
                "labels": "l.txt", "pairs": "p.txt"}
        (tmp_path / "manifest.json").write_text(json.dumps(tree))
        with pytest.raises(IntegrityError, match="img42"):
            dataio.load_dataset(tmp_path / "manifest.json")

    def test_label_row_length_checked(self, tmp_path):
        ds = se.generate_dataset(se.SyntheticSpec(n_images=16, seed=1))
        dataio.save_dataset(ds, tmp_path)
        (tmp_path / "labels.txt").write_text("1,0\n" * 16)
        with pytest.raises(ParseError, match="label"):
            dataio.load_dataset(tmp_path / "manifest.json")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError, match="missing"):
            dataio.load_dataset(tmp_path / "nope.json")

    @staticmethod
    def _edit_manifest(**fields):
        def edit(root):
            tree = json.loads((root / "manifest.json").read_text())
            tree.update(fields)
            (root / "manifest.json").write_text(json.dumps(tree))
        return edit

    @staticmethod
    def _edit_first_image(**fields):
        def edit(root):
            tree = json.loads((root / "manifest.json").read_text())
            tree["images"][0].update(fields)
            (root / "manifest.json").write_text(json.dumps(tree))
        return edit

    @pytest.mark.parametrize("edit", [
        _edit_manifest(catalog=5),
        _edit_manifest(catalog=[1, 2, 3, 4, 5, 6, 7, 8]),
        _edit_manifest(catalog=["a"] * 8),
        _edit_manifest(images=5),
        _edit_manifest(labels=5),
        _edit_manifest(pairs=5),
        _edit_manifest(meta=5),
        _edit_first_image(path=5),
        _edit_first_image(id=5),
        _edit_manifest(pairs="images"),
        _edit_manifest(labels="images"),
        lambda root: (root / "labels.txt").write_bytes(b"\xff\xfe1,0\n"),
        lambda root: (root / "pairs.txt").write_bytes(b"\xff\n"),
        lambda root: (root / "manifest.json").write_bytes(b"\xff{}"),
        lambda root: (root / "pairs.txt").write_text((root / "pairs.txt").read_text().replace("test", "tset")),
    ], ids=["catalog-number", "catalog-numbers", "catalog-duplicates", "images-number", "labels-number",
            "pairs-number", "meta-number", "image-path-number", "image-id-number", "pairs-directory",
            "labels-directory", "labels-not-utf8", "pairs-not-utf8", "manifest-not-utf8", "unknown-split"])
    def test_bad_manifest_input_is_parse_error(self, edit, tmp_path):
        dataio.save_dataset(se.generate_dataset(se.SyntheticSpec(n_images=16, seed=1)), tmp_path)
        edit(tmp_path)
        with pytest.raises(ParseError):
            dataio.load_dataset(tmp_path)

    @pytest.mark.parametrize("bad_id", ["a,b", "../escaped", "", "a\nb", "a\rb", "x/y", "x\\y", "..", " pad"])
    def test_unsaveable_image_id_refused(self, bad_id, tmp_path):
        # a comma id would save a pair list load_dataset refuses, and a
        # '../' id would write its GRID1 file outside images/
        ds = se.generate_dataset(se.SyntheticSpec(n_images=4, seed=1))
        (_, first), (other, second) = ds.images[:2]
        bad = se.Dataset(images=((bad_id, first), (other, second)), labels=ds.labels[:2],
                         pairs=(se.Pair(bad_id, other, "train"),), catalog=ds.catalog)
        out = tmp_path / "out"
        with pytest.raises(InvalidArgumentError, match="cannot be saved"):
            dataio.save_dataset(bad, out)
        assert list(tmp_path.iterdir()) == []

    def test_directory_resolves_to_manifest(self, tmp_path):
        ds = se.generate_dataset(se.SyntheticSpec(n_images=16, seed=1))
        dataio.save_dataset(ds, tmp_path)
        loaded = dataio.load_dataset(tmp_path)
        assert loaded.n_images == 16


class TestPgm:
    def test_header_and_size(self, tmp_path, rng):
        path = tmp_path / "x.pgm"
        dataio.write_pgm(path, rng.random((3, 5)))
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "5 3"
        assert lines[2] == "255"
        assert len(lines) == 6


class TestModelFile:
    def test_roundtrip(self, tmp_path, rng):
        extractor = FeatureExtractor((14, 14, 2), n_filters=6, seed=9)
        model = AttributeModel(extractor, rng.normal(size=(3, 6)), rng.normal(size=3))
        path = tmp_path / "model.sane"
        save_model(path, model)
        loaded = load_model(path, (14, 14, 2), 3)
        assert loaded.extractor.seed == 9
        np.testing.assert_array_equal(loaded.extractor.weight, extractor.weight)
        np.testing.assert_allclose(loaded.head_weights, model.head_weights, atol=1e-7)
        np.testing.assert_allclose(loaded.head_bias, model.head_bias, atol=1e-7)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_is_invalid_data(self, value, tmp_path):
        extractor = FeatureExtractor((14, 14, 2), n_filters=6, seed=9)
        head = np.zeros((3, 6))
        head[1, 2] = value
        path = tmp_path / "model.sane"
        save_model(path, AttributeModel(extractor, np.zeros((3, 6)), np.zeros(3)))
        raw = bytearray(path.read_bytes())
        raw[37:37 + 72] = head.astype("<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidDataError, match="finite"):
            load_model(path, (14, 14, 2), 3)

    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_head_beyond_float32_refused_before_writing(self, where, tmp_path):
        extractor = FeatureExtractor((14, 14, 2), n_filters=6, seed=9)
        w, b = np.zeros((3, 6)), np.zeros(3)
        (w if where == "weights" else b)[1] = -1e40
        path = tmp_path / "model.sane"
        with pytest.raises(InvalidDataError, match="float32"):
            save_model(path, AttributeModel(extractor, w, b))
        assert not path.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_u64_refused_before_writing(self, seed, tmp_path):
        extractor = FeatureExtractor((14, 14, 2), n_filters=6, seed=seed)
        path = tmp_path / "model.sane"
        with pytest.raises(InvalidDataError, match="u64"):
            save_model(path, AttributeModel(extractor, np.zeros((3, 6)), np.zeros(3)))
        assert not path.exists()

    def test_float32_extremes_round_trip(self, tmp_path):
        extractor = FeatureExtractor((14, 14, 2), n_filters=6, seed=9)
        big = float(np.finfo(np.float32).max)
        path = tmp_path / "model.sane"
        save_model(path, AttributeModel(extractor, np.full((3, 6), big), np.full(3, -big)))
        loaded = load_model(path, (14, 14, 2), 3)
        assert np.all(loaded.head_weights == big) and np.all(loaded.head_bias == -big)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.sane"
        path.write_bytes(b"WRONG" + b"\x00" * 40)
        with pytest.raises(ParseError, match="magic"):
            load_model(path, (14, 14, 2), 3)


@pytest.fixture(scope="module")
def written_files(tmp_path_factory):
    """One file of each format the program writes: a dataset (manifest,
    labels, pairs, GRID1 images), an SMAP1 map and a SANE1 model."""
    root = tmp_path_factory.mktemp("written")
    dataset = se.generate_dataset(se.SyntheticSpec(n_images=4, side=28, n_attributes=3, seed=2))
    dataio.save_dataset(dataset, root / "dataset")
    smap = se.SaliencyMap(np.linspace(0.0, 1.0, 12).reshape(3, 4), method=se.Method.RISE, normalized=True)
    dataio.save_saliency(root / "map.smap", smap)
    rng = np.random.default_rng(0)
    extractor = FeatureExtractor(dataset.dims, n_filters=4)
    save_model(root / "model.sane", AttributeModel(extractor, rng.normal(size=(3, 4)), rng.normal(size=3)))
    load = {"map.smap": lambda: dataio.load_saliency(root / "map.smap"),
            "model.sane": lambda: load_model(root / "model.sane", dataset.dims, dataset.n_attributes)}
    for name in ("manifest.json", "labels.txt", "pairs.txt", "images/img000.grid"):
        load[f"dataset/{name}"] = lambda: dataio.load_dataset(root / "dataset")
    return root, load


@pytest.mark.parametrize("name", ["dataset/manifest.json", "dataset/labels.txt", "dataset/pairs.txt",
                                  "dataset/images/img000.grid", "map.smap", "model.sane"])
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_damaged_file_fails_only_as_bad_data(name, written_files, data):
    """A truncated file, or one with a changed byte, loads or fails with
    ParseError, IntegrityError or InvalidDataError, and nothing else."""
    root, load = written_files
    path = root / name
    original = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        damaged = original[:data.draw(st.integers(0, len(original) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, len(original) - 1), label="offset")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != original[at]), label="byte")
        damaged = original[:at] + bytes([byte]) + original[at + 1:]
    path.write_bytes(damaged)
    try:
        load[name]()
    except (ParseError, IntegrityError, InvalidDataError):
        pass
    finally:
        path.write_bytes(original)
