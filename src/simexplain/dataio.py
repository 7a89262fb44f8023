"""On-disk formats: GRID1 tensors, SMAP1 saliency maps, SANE1 attribute
models, dataset manifests.

All binary payloads are little-endian 32-bit floats so files round-trip
bit-exactly across platforms and implementations.

    GRID1: magic "GRID1" | u32 rows | u32 cols | u32 channels | f32 data
    SMAP1: magic "SMAP1" | u32 rows | u32 cols | u8 method
           | u8 fixed_reference | u8 normalized | f32 data
    SANE1: magic "SANE1" | u64 extractor seed | u32 height | u32 width
           | u32 channels | u32 n_filters | u32 grid | u32 attributes
           | f32 head weights (attributes x n_filters) | f32 head bias
    manifest: UTF-8 JSON tree naming the catalog, image files, the label
           matrix file, and the pair list file
    labels: text, one comma-separated 0/1 row per image, manifest order
    pairs:  text lines "query_id,reference_id,split"
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .attrmodel import AttributeModel, FeatureExtractor
from .core import SPLITS, AttributeCatalog, Dataset, ImageTensor, Method, Pair, SaliencyMap
from .errors import IntegrityError, InvalidArgumentError, InvalidDataError, ParseError

GRID_MAGIC = b"GRID1"
SMAP_MAGIC = b"SMAP1"
MODEL_MAGIC = b"SANE1"


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ParseError(f"truncated file while reading {what}")
    return buf


def _read_payload(fh, n_floats: int, path) -> bytes:
    """The f32 payload that ends the file, once the file size agrees with
    the header's claim; a lying, truncated or padded header is a ParseError."""
    size, expected = os.fstat(fh.fileno()).st_size, fh.tell() + 4 * n_floats
    if size != expected:
        problem = "truncated file" if size < expected else "trailing bytes after data"
        raise ParseError(f"{path}: {problem}: {size} bytes, but its header promises {expected}")
    return _read_exact(fh, 4 * n_floats, "data")


def save_grid(path: str | Path, data: np.ndarray) -> None:
    """Write an (R, C) or (R, C, CH) float array as a GRID1 file."""
    arr = np.asarray(data, dtype="<f4")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ParseError(f"grid payload must be rank 2 or 3, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<III", *arr.shape))
        fh.write(np.ascontiguousarray(arr).tobytes())


def load_grid(path: str | Path) -> np.ndarray:
    """Read a GRID1 file as an (R, C, CH) float32 array."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 5, "magic") != GRID_MAGIC:
            raise ParseError(f"{path}: bad magic, expected GRID1")
        rows, cols, ch = struct.unpack("<III", _read_exact(fh, 12, "dims"))
        if min(rows, cols, ch) < 1:
            raise ParseError(f"{path}: dims field has zero entry ({rows}, {cols}, {ch})")
        payload = _read_payload(fh, rows * cols * ch, path)
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols, ch).copy()


def save_saliency(path: str | Path, smap: SaliencyMap) -> None:
    arr = np.asarray(smap.data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(SMAP_MAGIC)
        fh.write(struct.pack("<II", *arr.shape))
        fh.write(struct.pack("<BBB", int(smap.method), int(smap.fixed_reference), int(smap.normalized)))
        fh.write(np.ascontiguousarray(arr).tobytes())


def load_saliency(path: str | Path) -> SaliencyMap:
    with open(path, "rb") as fh:
        if _read_exact(fh, 5, "magic") != SMAP_MAGIC:
            raise ParseError(f"{path}: bad magic, expected SMAP1")
        rows, cols = struct.unpack("<II", _read_exact(fh, 8, "dims"))
        if min(rows, cols) < 1:
            raise ParseError(f"{path}: dims field has zero entry ({rows}, {cols})")
        method_b, fixed_b, norm_b = struct.unpack("<BBB", _read_exact(fh, 3, "flags"))
        try:
            method = Method(method_b)
        except ValueError:
            raise ParseError(f"{path}: unknown method byte {method_b}") from None
        if fixed_b > 1 or norm_b > 1:
            raise ParseError(f"{path}: flag bytes must be 0 or 1, got {fixed_b} and {norm_b}")
        payload = _read_payload(fh, rows * cols, path)
    data = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).copy()
    return SaliencyMap(data, method=method, fixed_reference=bool(fixed_b), normalized=bool(norm_b))


def save_model(path: str | Path, model: AttributeModel) -> None:
    ex = model.extractor
    h, w, c = ex.dims
    head = np.concatenate([model.head_weights.ravel(), model.head_bias])
    if not np.all(np.abs(head) <= np.finfo(np.float32).max):
        raise InvalidDataError(f"{path}: head weights exceed the float32 range of a SANE1 file")
    if not 0 <= ex.seed < 2 ** 64:
        raise InvalidDataError(f"{path}: extractor seed {ex.seed} is outside the u64 range of a SANE1 file")
    header = MODEL_MAGIC + struct.pack("<QIIIIII", ex.seed, h, w, c, ex.n_filters, ex.grid, model.n_attributes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(head.astype("<f4").tobytes())


def load_model(path: str | Path, dims: tuple[int, int, int], n_attributes: int) -> AttributeModel:
    """Read a SANE1 model that serves images of shape ``dims`` over a catalog
    of ``n_attributes``; a header promising other sides or another catalog
    size is refused before anything is allocated."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"{path}: cannot open model file: {exc}") from exc
    with fh:
        if _read_exact(fh, 5, "magic") != MODEL_MAGIC:
            raise ParseError(f"{path}: bad magic, expected SANE1")
        seed, h, w, c, n_filters, grid, A = struct.unpack("<QIIIIII", _read_exact(fh, 32, "header"))
        if min(h, w, c, n_filters, grid, A) < 1 or h % grid or w % grid:
            raise ParseError(f"{path}: bad header: {h}x{w}x{c} image, {n_filters} filters, "
                             f"grid {grid}, {A} attributes")
        if (h, w, c) != tuple(dims):
            raise ParseError(f"{path}: model is for {h}x{w}x{c} images, not {'x'.join(map(str, dims))}")
        if A != n_attributes:
            raise ParseError(f"{path}: model is for {A} attributes, not the dataset's {n_attributes}")
        head = np.frombuffer(_read_payload(fh, A * (n_filters + 1), path), dtype="<f4")
    head_w, head_b = head[:A * n_filters].reshape(A, n_filters), head[A * n_filters:]
    if not np.all(np.isfinite(head)):
        raise InvalidDataError(f"{path}: head weights are not all finite")
    extractor = FeatureExtractor((h, w, c), n_filters=n_filters, grid=grid, seed=seed)
    return AttributeModel(extractor, head_w, head_b)


def write_pgm(path: str | Path, grid: np.ndarray) -> None:
    """8-bit text portable graymap preview of a [0, 1] grid."""
    g = np.clip(np.asarray(grid, dtype=np.float64), 0.0, 1.0)
    q = np.rint(g * 255).astype(np.uint8)
    lines = [f"P2", f"{q.shape[1]} {q.shape[0]}", "255"]
    lines += [" ".join(str(v) for v in row) for row in q]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Dataset manifest
# ---------------------------------------------------------------------------

# Each manifest field and the JSON type it must have.
_MANIFEST_FIELDS = {"catalog": list, "images": list, "labels": str, "pairs": str, "meta": dict}


def _field(tree: dict, key: str, path, default=None) -> object:
    """A manifest field, checked to have its type; only a field with a
    default may be absent."""
    if key not in tree and default is None:
        raise ParseError(f"{path}: manifest missing required field '{key}'")
    value = tree.get(key, default)
    if not isinstance(value, _MANIFEST_FIELDS[key]):
        raise ParseError(f"{path}: manifest field '{key}' must be a JSON {_MANIFEST_FIELDS[key].__name__}")
    return value


def _read_text(path: Path, what: str) -> str:
    """A UTF-8 text file of the dataset; a missing, unreadable or
    undecodable one is a ParseError."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParseError(f"{what} file missing: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: unreadable {what} file: {exc}") from exc


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load a dataset described by a JSON manifest.

    Accepts either the manifest file or a dataset directory containing
    ``manifest.json``. Paths inside the manifest are resolved relative to
    the manifest file.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    try:
        tree = json.loads(_read_text(manifest_path, "manifest"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{manifest_path}: not valid JSON: {exc}") from exc
    if not isinstance(tree, dict):
        raise ParseError(f"{manifest_path}: manifest root must be an object")
    unknown = set(tree) - set(_MANIFEST_FIELDS)
    if unknown:
        raise ParseError(f"{manifest_path}: unknown manifest field(s): {', '.join(sorted(unknown))}")

    try:
        catalog = AttributeCatalog(tuple(_field(tree, "catalog", manifest_path)))
    except InvalidArgumentError as exc:
        raise ParseError(f"{manifest_path}: bad catalog: {exc}") from exc
    base = manifest_path.parent

    images = []
    for k, entry in enumerate(_field(tree, "images", manifest_path)):
        if not isinstance(entry, dict) or not all(isinstance(entry.get(key), str) for key in ("id", "path")):
            raise ParseError(f"{manifest_path}: images[{k}] must carry a string 'id' and 'path'")
        img_path = base / entry["path"]
        if not img_path.is_file():
            raise IntegrityError(f"{manifest_path}: image file missing for id {entry['id']}: {img_path}")
        images.append((entry["id"], ImageTensor(load_grid(img_path))))

    labels_path = base / _field(tree, "labels", manifest_path)
    labels = _load_label_matrix(labels_path, n_rows=len(images), n_cols=len(catalog))

    pairs = _load_pairs(base / _field(tree, "pairs", manifest_path))
    meta = _field(tree, "meta", manifest_path, default={})
    return Dataset(images=tuple(images), labels=labels, pairs=pairs, catalog=catalog, meta=meta)


def _load_label_matrix(path: Path, n_rows: int, n_cols: int) -> np.ndarray:
    rows = []
    for ln, line in enumerate(_read_text(path, "label matrix").splitlines()):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ParseError(f"{path}:{ln + 1}: expected {n_cols} label columns, got {len(cells)}")
        try:
            row = [int(c) for c in cells]
        except ValueError:
            raise ParseError(f"{path}:{ln + 1}: labels must be integers 0/1") from None
        if any(v not in (0, 1) for v in row):
            raise ParseError(f"{path}:{ln + 1}: labels must be 0 or 1")
        rows.append(row)
    if len(rows) != n_rows:
        raise ParseError(f"{path}: expected {n_rows} label rows, got {len(rows)}")
    return np.asarray(rows, dtype=np.int8)


def _load_pairs(path: Path) -> tuple[Pair, ...]:
    pairs = []
    for ln, line in enumerate(_read_text(path, "pair list").splitlines()):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3 or parts[2] not in SPLITS:
            raise ParseError(f"{path}:{ln + 1}: expected 'query_id,reference_id,split', split in {SPLITS}")
        pairs.append(Pair(parts[0], parts[1], parts[2]))
    return tuple(pairs)


# Characters an image id may not hold: the pair list separates fields
# with commas and records with line breaks, and the id names a file
# inside images/.
_ID_FORBIDDEN = (",", "\n", "\r", "/", "\\")


def _check_image_id(img_id) -> None:
    """Refuse an id that ``load_dataset`` could not read back, or whose
    GRID1 file would land outside ``images/``."""
    if (not isinstance(img_id, str) or not img_id or img_id != img_id.strip() or img_id == ".."
            or any(ch in img_id for ch in _ID_FORBIDDEN)):
        raise InvalidArgumentError(
            f"image id {img_id!r} cannot be saved: an id is a non-empty string other than '..', "
            "without surrounding whitespace, commas, line breaks or path separators")


def save_dataset(dataset: Dataset, out_dir: str | Path) -> Path:
    """Write a dataset as manifest + GRID1 images + labels + pairs.

    Output is byte-deterministic for a given dataset. Returns the
    manifest path. Image ids that would not round-trip are refused
    before anything is written.
    """
    for img_id, _ in dataset.images:
        _check_image_id(img_id)
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    entries = []
    for img_id, img in dataset.images:
        rel = f"images/{img_id}.grid"
        save_grid(out / rel, img.data)
        entries.append({"id": img_id, "path": rel})

    label_lines = [",".join(str(int(v)) for v in row) for row in dataset.labels]
    (out / "labels.txt").write_text("\n".join(label_lines) + "\n", encoding="utf-8")

    pair_lines = [f"{p.query_id},{p.reference_id},{p.split}" for p in dataset.pairs]
    (out / "pairs.txt").write_text("\n".join(pair_lines) + "\n", encoding="utf-8")

    manifest = {
        "catalog": list(dataset.catalog.names),
        "images": entries,
        "labels": "labels.txt",
        "pairs": "pairs.txt",
        "meta": dataset.meta,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest_path


def dump_json(path: str | Path, payload: dict) -> None:
    """Deterministic JSON writer used for every report/config echo."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
