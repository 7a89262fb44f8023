"""simexplain command line: dataset generation, saliency maps, attribute
model training, explanation, evaluation, discovery.

Every command echoes its fully resolved configuration next to its
outputs, never mutates inputs, and exits 0 on success, 2 on validation
errors, 3 on compute errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import shlex
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .attrmodel import AttributeModel, TrainConfig, train
from .core import Dataset, Method, Pair, SaliencyMap, make_rng
from .dataio import (dump_json, load_dataset, load_model, load_saliency, save_dataset, save_model, save_saliency,
                     write_pgm)
from .discovery import DiscoveryConfig, discover, removal_eval_discovered
from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    OptimizationError,
    ParseError,
    SimExplainError,
    TransportError,
)
from .explain import (
    CONFIDENCE_ONLY_PHI,
    ExplainConfig,
    PhiWeights,
    Prior,
    PriorEstimate,
    _ground_truth,
    _require_labelled,
    estimate_prior,
    explain_pair,
    fit_phi,
    pair_features,
)
from .external import ExternalScorer, _ScoreOnly, serve_stdio
from .metrics import (
    attribute_removal_delta,
    deletion_curve,
    insertion_curve,
    map_metric,
    mean_and_stderr,
)
# generate stays bound here: perfbench's traced run wraps each module's
# name for it, though this module makes its maps through query_maps
from .saliency import MapCodes, SaliencyConfig, generate, map_by_query, map_codes, query_maps  # noqa: F401
from .scorers import LinearToyScorer, Scorer, TripletToyScorer
from .synth import SyntheticSpec, generate_dataset, motif_scorer_for, planted_scorer_for

log = logging.getLogger(__name__)

_METHOD_NAMES = {m.name.lower(): m for m in Method}


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _parse_method(name: str) -> Method:
    try:
        return _METHOD_NAMES[name]
    except (KeyError, TypeError):
        raise ParseError(f"unknown saliency method {name!r}; choose from {sorted(_METHOD_NAMES)}") from None


# The sections of a --config file, in build order: discovery explains
# with the saliency section.
_SECTIONS = {"saliency": SaliencyConfig, "train": TrainConfig, "synth": SyntheticSpec,
             "discovery": DiscoveryConfig}


# The value types a leaf field of each type accepts: no bool passes for a
# number, though an int passes for a float.
_LEAF_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _leaf(value, kind, where: str):
    """A config-file value as field type ``kind``: a ``Method`` field takes
    a method name, a tuple field a list of its length, checked item by
    item, and any other field a value of its type."""
    if kind is Method:
        return _parse_method(value)
    if typing.get_origin(kind) is tuple:
        items = typing.get_args(kind)
        if not isinstance(value, (list, tuple)) or len(value) != len(items):
            raise ParseError(f"{where}: expected a list of {len(items)} values, got {value!r}")
        return tuple(_leaf(v, k, f"{where}[{i}]") for i, (v, k) in enumerate(zip(value, items)))
    if not isinstance(value, _LEAF_TYPES[kind]) or (isinstance(value, bool) and kind is not bool):
        raise ParseError(f"{where}: expected {kind.__name__}, got {value!r}")
    return value


def build_config(dc_type, tree, where: str, **flags):
    """``dc_type``'s defaults, the config-file section ``tree`` on top, and
    every flag that is not None on top of that.

    A nested dataclass field reads a subsection (its flags come as a dict)
    and every other field a value of its type (see ``_leaf``), even where
    a flag overrides it. ``seed`` and a field holding a whole run-config
    section are no config keys: the command sets them.
    """
    if not isinstance(tree, dict):
        raise ParseError(f"{where}: config section must be an object")
    hints = typing.get_type_hints(dc_type)
    keys = {f.name for f in dataclasses.fields(dc_type)
            if f.name != "seed" and hints[f.name] not in _SECTIONS.values()}
    unknown = set(tree) - keys
    if unknown:
        hint = " (--seed sets every seed)" if "seed" in unknown else ""
        raise ParseError(f"{where}: unknown config key(s): {', '.join(sorted(unknown))}{hint}")
    values = {name: value if dataclasses.is_dataclass(hints[name])
              else _leaf(value, hints[name], f"{where}.{name}") for name, value in tree.items()}
    for name, flag in flags.items():
        if isinstance(flag, dict):
            values[name] = build_config(hints[name], values.get(name, {}), f"{where}.{name}", **flag)
        elif flag is not None:
            values[name] = _parse_method(flag) if hints[name] is Method else flag
    for name, value in values.items():
        kind = hints[name]
        if dataclasses.is_dataclass(kind) and not isinstance(value, kind):
            values[name] = build_config(kind, value, f"{where}.{name}")
    return dc_type(**values)


def _read_json(path: str | Path, what: str):
    """Parse a user-supplied JSON file; a missing or malformed one is a ParseError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {what} is not readable JSON: {exc}") from exc


def run_config(args, **flags: dict) -> dict:
    """Every section of the ``--config`` file built under ``--seed`` and
    the command's flags for it (``flags[section]``), so a bad key in any
    section fails every command."""
    tree = {} if args.config is None else _read_json(args.config, "config")
    if not isinstance(tree, dict):
        raise ParseError(f"{args.config}: config root must be an object")
    unknown = set(tree) - set(_SECTIONS)
    if unknown:
        raise ParseError(f"{args.config}: unknown config section(s): {', '.join(sorted(unknown))}")
    built: dict = {}
    for name, dc_type in _SECTIONS.items():
        extra = {"saliency": built["saliency"]} if name == "discovery" else {}
        built[name] = build_config(dc_type, tree.get(name, {}), name, seed=args.seed,
                                   **extra, **flags.get(name, {}))
    return built


def _config_payload(obj) -> object:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _config_payload(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Method):
        return obj.name.lower()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _config_payload(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_config_payload(v) for v in obj]
    return obj


def _make_out(args) -> Path:
    """``--out``, once the directory the command writes in exists: ``--out``
    itself for a directory, its parent for a file."""
    (args.out if args.out_kind == "directory" else args.out.parent).mkdir(parents=True, exist_ok=True)
    return args.out


def _echo_path(out: Path, kind: str) -> Path:
    """Where a command echoes its resolved configuration: in a directory
    ``--out`` as run_config.json, beside a file one as <name>.config.json."""
    return out / "run_config.json" if kind == "directory" else out.with_name(out.name + ".config.json")


def _echo_config(args, resolved: dict) -> None:
    """Write the resolved configuration at ``_echo_path``."""
    dump_json(_echo_path(args.out, args.out_kind), _config_payload(resolved))


def _write_result(args, payload: dict, resolved: dict) -> None:
    """Write a command's JSON result at ``--out``, next to the echo of its
    configuration."""
    dump_json(_make_out(args), payload)
    _echo_config(args, resolved)


def _parallel_map(fn, items, jobs: int) -> list:
    """Order-preserving map: the results, and the first exception, come in
    item order, so parallelism never changes the output."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _parse_methods(text: str, saliency_cfg: SaliencyConfig) -> list[tuple[str, SaliencyConfig]]:
    """``--methods`` as (name, config) entries: ``saliency_cfg`` with the
    method each name gives. A "_dual" suffix evaluates the
    both-images-manipulated variant, so fixed and dual rows can sit side
    by side in one report. A config no method can run, or an empty list,
    is refused here."""
    names = [m.strip() for m in text.split(",") if m.strip()]
    if not names:
        raise ParseError(f"--methods names no method: {text!r}")
    return [(name, dataclasses.replace(saliency_cfg, method=_parse_method(name.removesuffix("_dual")),
                                       fixed_reference=saliency_cfg.fixed_reference and not name.endswith("_dual")))
            for name in names]


def _seed(text: str) -> int:
    """An argparse type: a seed in [0, 2**64), the range of the seed field
    of a SANE1 model file."""
    if not text.strip().isdigit() or int(text) >= 2 ** 64:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    """An argparse type: a count, so 0 or -1 exits 2 instead of meaning "all"."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _step(least: float):
    """An argparse type: a step as a fraction of the whole, in [least, 1],
    so a step that would make no progress, or a runaway number of steps,
    exits 2 before any work."""
    def parse(text: str) -> float:
        try:
            ok = least <= float(text) <= 1.0  # NaN fails both comparisons
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected a number in [{least:g}, 1], got {text!r}")
        return float(text)
    return parse


def _out_path(text: str, kind: str, second: str | None) -> Path:
    """An argparse type: ``--out`` as a path a command can write a
    ``kind`` ("directory" or "file") at. An existing path must be of that
    kind and the nearest existing ancestor a directory; nothing is created.
    A file ``--out`` has its configuration echo beside it and, if
    ``second`` is a suffix, a second output at ``--out`` with that suffix:
    neither may exist as a directory, and the second may not be ``--out``."""
    path = Path(text)
    if path.exists():
        if path.is_dir() != (kind == "directory"):
            raise argparse.ArgumentTypeError(f"{text} exists and is not a {kind}")
    else:
        parent = next(p for p in path.parents if p.exists())
        if not parent.is_dir():
            raise argparse.ArgumentTypeError(f"{text}: {parent} is not a directory")
    if kind == "file":
        beside = [_echo_path(path, kind)] + ([path.with_suffix(second)] if second else [])
        if path in beside:
            raise argparse.ArgumentTypeError(f"{text}: the command writes its {second} output there too; "
                                             f"give --out another suffix")
        for other in beside:
            if other.is_dir():
                raise argparse.ArgumentTypeError(f"{text}: {other} exists and is not a file")
    return path


def _dims(text: str) -> tuple[int, int, int]:
    """An argparse type: H,W,C as exactly three positive integers."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected H,W,C as three positive integers, got {text!r}")
    return tuple(_positive_int(v) for v in parts)


def _default_jobs() -> int:
    return min(4, os.cpu_count() or 1)


def _maps(scorer: Scorer, dataset: Dataset, pairs: list[Pair], codes: MapCodes, jobs: int) -> list[SaliencyMap]:
    """The saliency map of each pair under the config of ``codes``, in pair
    order. The pairs are grouped by query, one ``--jobs`` item per query,
    and ``query_maps`` embeds each query's masked rows once for all its
    references. A command builds each config's codes once and passes them
    to all its calls."""

    def group_maps(query_id: str, ref_ids: list[str]) -> list[SaliencyMap]:
        return query_maps(scorer, [dataset.image(r) for r in ref_ids], dataset.image(query_id), codes)

    return map_by_query(group_maps, [(p.reference_id, p.query_id) for p in pairs],
                        lambda fn, items: _parallel_map(fn, items, jobs))


# ---------------------------------------------------------------------------
# Scorer selection
# ---------------------------------------------------------------------------


def make_scorer(name: str, dataset: Dataset | None, seed: int, external_cmd: str | None = None) -> Scorer:
    """The scorer ``--scorer`` names, with 16-dimensional embeddings (24 for motif)."""
    if name == "external":
        try:
            command = shlex.split(external_cmd or "")
        except ValueError as exc:
            raise ParseError(f"--external-cmd is not a command line: {exc}") from exc
        if not command:
            raise ParseError("--scorer external requires a non-blank --external-cmd")
        return ExternalScorer(command=command)
    if dataset is None:
        raise ParseError(f"scorer {name!r} needs a dataset")
    dims = dataset.dims
    if name == "triplet":
        return TripletToyScorer.train_on(dataset, seed=seed)
    if name == "planted":
        return planted_scorer_for(dataset, seed=seed)
    if name == "motif":
        return motif_scorer_for(dataset, seed=seed)
    if name == "random":
        return LinearToyScorer.random(dims, seed=seed)
    raise ParseError(f"unknown scorer {name!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> dict:
    spec = run_config(args, synth={
        "n_images": args.n_images, "side": args.side, "n_attributes": args.attributes, "noise": args.noise,
        "max_attrs_per_image": args.max_attrs, "pairs_per_query": args.pairs_per_query,
    })["synth"]
    dataset = generate_dataset(spec)
    manifest = save_dataset(dataset, args.out)
    _echo_config(args, {"command": "synth", "spec": _config_payload(spec)})
    return {
        "manifest": str(manifest),
        "n_images": dataset.n_images,
        "n_attributes": dataset.n_attributes,
        "n_pairs": len(dataset.pairs),
    }


def _select_pairs(dataset: Dataset, pair_arg: str | None, split: str | None, limit: int | None) -> list[Pair]:
    if pair_arg:
        try:
            q, r = pair_arg.split(":")
        except ValueError:
            raise ParseError("--pair must look like query_id:reference_id") from None
        split_of = next((p.split for p in dataset.pairs if p.query_id == q and p.reference_id == r), "test")
        return [Pair(q, r, split_of)]
    return dataset.pairs_for_split(split or "test")[:limit]


def cmd_saliency(args) -> dict:
    dataset = load_dataset(args.dataset)
    cfg = run_config(args, saliency={"method": args.method, "fixed_reference": args.fixed_reference})["saliency"]
    pairs = _select_pairs(dataset, args.pair, args.split, args.limit)
    with make_scorer(args.scorer, dataset, args.seed, args.external_cmd) as scorer:
        maps = _maps(scorer, dataset, pairs, map_codes(cfg, *dataset.dims[:2]), args.jobs)
    out = _make_out(args)
    for pair, smap in zip(pairs, maps):
        stem = f"{pair.query_id}__{pair.reference_id}"
        save_saliency(out / f"{stem}.smap", smap)
        write_pgm(out / f"{stem}.pgm", smap.data)
    _echo_config(args, {"command": "saliency", "saliency": _config_payload(cfg), "pairs": len(pairs)})
    return {"out": str(out), "maps": len(maps)}


def load_saliency_bank(maps_dir: str | Path) -> dict[str, list[SaliencyMap]]:
    """Group <query>__<reference>.smap files by query id (sorted order).
    A path that is not a directory holding .smap files is refused."""
    paths = sorted(Path(maps_dir).glob("*.smap"))
    if not paths:
        raise ParseError(f"{maps_dir}: not a directory of .smap saliency maps")
    bank: dict[str, list[SaliencyMap]] = {}
    for path in paths:
        stem = path.stem
        if "__" not in stem:
            raise ParseError(f"{path}: bank file names must be <query>__<reference>.smap")
        query_id = stem.split("__", 1)[0]
        bank.setdefault(query_id, []).append(load_saliency(path))
    return bank


def cmd_train_attr(args) -> dict:
    dataset = load_dataset(args.dataset)
    bank = load_saliency_bank(args.maps) if args.maps else {}
    cfg = run_config(args, train={"epochs": args.epochs, "lr": args.lr, "lam": args.lam,
                                  "k_maps": args.k})["train"]
    model = train(dataset, bank, cfg)
    save_model(_make_out(args), model)
    _echo_config(args, {"command": "train-attr", "train": _config_payload(cfg), "bank_images": len(bank)})
    val_map = map_metric(model, dataset, "val") if dataset.image_ids_for_split("val") else None
    return {"model": str(args.out), "val_map": val_map}


def _fit_explanation(model: AttributeModel, scorer: Scorer, dataset: Dataset, pairs: list[Pair],
                     codes: MapCodes, jobs: int, grid_step: float = 0.05) -> tuple[PriorEstimate, PhiWeights]:
    """Held-out pair features -> attribute prior -> phi grid search: the one
    fit of the explanation, behind `fit-phi`, `eval` and `pipeline`, with
    the maps of ``codes``. A split without a labelled pair is refused."""
    features = pair_features(model, _maps(scorer, dataset, pairs, codes, jobs), dataset, pairs)
    estimate = estimate_prior(features, dataset.n_attributes)
    return estimate, fit_phi(features, estimate.prior, grid_step)


def _fit_payload(estimate: PriorEstimate, phi: PhiWeights) -> dict:
    """The fit file that `fit-phi` and `pipeline` write: phi, the prior and
    the counts of held-out pairs the prior used and skipped."""
    return {"phi1": phi.phi1, "phi2": phi.phi2, "phi3": phi.phi3, "prior": [float(v) for v in estimate.prior.p],
            "n_used": estimate.n_used, "n_skipped": estimate.n_skipped}


def _load_fit(path: str, n_attributes: int) -> tuple[PhiWeights, Prior]:
    """phi and the prior of a fit file; a missing or ill-typed key, or a
    prior without one entry per attribute, is a ParseError naming it."""
    tree = _read_json(path, "fit")
    if not isinstance(tree, dict):
        raise ParseError(f"{path}: fit file root must be an object")

    def value(key, kind):
        if key not in tree:
            raise ParseError(f"{path}: fit file has no {key!r}")
        return _leaf(tree[key], kind, f"{path}: {key}")

    phi = PhiWeights(*(value(key, float) for key in ("phi1", "phi2", "phi3")))
    return phi, Prior(value("prior", tuple[(float,) * n_attributes]))


def cmd_fit_phi(args) -> dict:
    dataset = load_dataset(args.dataset)
    model = load_model(args.model, dataset.dims, dataset.n_attributes)
    cfg = run_config(args, saliency={"method": args.method})["saliency"]
    with make_scorer(args.scorer, dataset, args.seed, args.external_cmd) as scorer:
        estimate, phi = _fit_explanation(model, scorer, dataset, dataset.pairs_for_split(args.split),
                                         map_codes(cfg, *dataset.dims[:2]), args.jobs, args.grid_step)
    _write_result(args, _fit_payload(estimate, phi), {"command": "fit-phi", "saliency": _config_payload(cfg),
                  "split": args.split, "grid_step": args.grid_step})
    return {"out": str(args.out), "phi": [phi.phi1, phi.phi2, phi.phi3]}


def cmd_explain(args) -> dict:
    dataset = load_dataset(args.dataset)
    model = load_model(args.model, dataset.dims, dataset.n_attributes)
    saliency_cfg = run_config(args, saliency={"method": args.method})["saliency"]
    phi, prior = _load_fit(args.phi_file, dataset.n_attributes) if args.phi_file else (PhiWeights(), None)
    cfg = ExplainConfig(saliency=saliency_cfg, phi=phi, prior=prior)
    [pair] = _select_pairs(dataset, args.pair, None, None)
    with make_scorer(args.scorer, dataset, args.seed, args.external_cmd) as scorer:
        result = explain_pair(
            scorer, model,
            dataset.image(pair.reference_id), dataset.image(pair.query_id), cfg,
            query_id=pair.query_id, reference_id=pair.reference_id,
        )
    smap_path = args.out.with_suffix(args.out_second)
    payload = {
        "query": result.query_id,
        "reference": result.reference_id,
        "saliency_path": smap_path.name,
        "phi": {"phi1": phi.phi1, "phi2": phi.phi2, "phi3": phi.phi3},
        "ranked": [{**dataclasses.asdict(r), "name": dataset.catalog.names[r.attribute]} for r in result.ranked],
    }
    _write_result(args, payload, {"command": "explain", "saliency": _config_payload(saliency_cfg),
                                  "pair": args.pair})
    save_saliency(smap_path, result.saliency)
    return {"out": str(args.out), "top1": dataset.catalog.names[result.top1]}


def _test_pairs(dataset: Dataset, suites: list[str], limit: int | None) -> list[Pair]:
    """The test pairs a report evaluates; none is refused unless `map`, which
    scores test images, is the only suite."""
    pairs = dataset.pairs_for_split("test")[:limit]
    if not pairs and set(suites) - {"map"}:
        raise InvalidArgumentError("the test split has no pairs to evaluate")
    return pairs


def run_eval(
    dataset: Dataset,
    model: AttributeModel,
    scorer: Scorer,
    codes: MapCodes,
    suites: list[str],
    methods: list[tuple[str, SaliencyConfig]],
    seed: int,
    insertion_step: float = 0.01,
    limit_pairs: int | None = None,
    jobs: int = 1,
    prior: Prior | None = None,
    phi: PhiWeights | None = None,
) -> dict:
    """Shared evaluation harness behind `eval` and `pipeline`.

    ``codes`` are those of the command's saliency config, whose maps the
    `top1` and `removal` suites rank with the ``prior`` and ``phi`` the
    caller fitted on the validation pairs. ``methods`` holds the parsed
    ``--methods`` entries, whose curves reuse ``codes`` for that config
    and build each other config's once. Each config's test maps are made
    once and shared by every suite that reads them.
    """
    report: dict = {"schema_version": 1, "saliency": {}, "attribute": {}, "counts": {}}
    test_pairs = _test_pairs(dataset, suites, limit_pairs)
    report["counts"]["test_pairs"] = len(test_pairs)
    report["counts"]["val_pairs"] = len(dataset.pairs_for_split("val"))
    test_maps: dict[SaliencyConfig, list[SaliencyMap]] = {}

    def maps_for(cfg: SaliencyConfig) -> list[SaliencyMap]:
        if cfg not in test_maps:
            cfg_codes = codes if cfg == codes.cfg else map_codes(cfg, *codes.shape)
            test_maps[cfg] = _maps(scorer, dataset, test_pairs, cfg_codes, jobs)
        return test_maps[cfg]

    curve_suites = [(name, fn) for name, fn in (("insertion", insertion_curve), ("deletion", deletion_curve))
                    if name in suites]
    for _, cfg in (methods if curve_suites else []):

        def curves(pair_map: tuple[Pair, SaliencyMap]) -> list[float]:
            pair, smap = pair_map
            ref, query = dataset.image(pair.reference_id), dataset.image(pair.query_id)
            return [fn(scorer, ref, query, smap, insertion_step).auc * 100 for _, fn in curve_suites]

        results = _parallel_map(curves, list(zip(test_pairs, maps_for(cfg))), jobs)
        entry = {}
        for k, (name, _) in enumerate(curve_suites):
            entry[f"{name}_auc"], entry[f"{name}_stderr"] = mean_and_stderr([r[k] for r in results])
        report["saliency"][f"{cfg.method.name.lower()}_{'fixed' if cfg.fixed_reference else 'dual'}"] = entry

    if "map" in suites:
        report["attribute"]["map"] = map_metric(model, dataset, "test")

    if {"top1", "removal"} & set(suites):
        if prior is None or phi is None:
            raise InvalidArgumentError("the top1 and removal suites need a fitted prior and phi")
        report["attribute"]["phi"] = [phi.phi1, phi.phi2, phi.phi3]
        test_features = pair_features(model, maps_for(codes.cfg), dataset, test_pairs)
        full_attrs = test_features.top1(prior, phi).tolist()
        conf_attrs = test_features.top1(prior, CONFIDENCE_ONLY_PHI).tolist()
        rng = make_rng(seed, 77)
        random_attrs = [int(rng.integers(dataset.n_attributes)) for _ in full_attrs]

        if "top1" in suites:
            report["attribute"]["top1"] = {
                "random": test_features.top1_accuracy(random_attrs),
                "confidence_only": test_features.top1_accuracy(conf_attrs),
                "full": test_features.top1_accuracy(full_attrs),
            }
        if "removal" in suites:
            corpus = dataset.image_ids_for_split("test")
            embeddings: dict = {}
            removal = {}
            for name, attrs in (("random", random_attrs), ("confidence_only", conf_attrs), ("full", full_attrs)):
                res = attribute_removal_delta(scorer, dataset, test_pairs, attrs, corpus_ids=corpus,
                                              embeddings=embeddings)
                removal[name] = {"delta": res.mean_delta, "n_used": res.n_used, "n_skipped": res.n_skipped}
            report["attribute"]["removal"] = removal
    return report


_SUITES = ["insertion", "deletion", "map", "top1", "removal"]


def cmd_eval(args) -> dict:
    saliency_cfg = run_config(args)["saliency"]
    methods = _parse_methods(args.methods, saliency_cfg)
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not suites:
        raise ParseError(f"--suite names no suite: {args.suite!r}")
    unknown = set(suites) - set(_SUITES)
    if unknown:
        raise ParseError(f"unknown suite(s): {', '.join(sorted(unknown))}")
    dataset = load_dataset(args.dataset)
    model = load_model(args.model, dataset.dims, dataset.n_attributes)
    codes = map_codes(saliency_cfg, *dataset.dims[:2])
    with make_scorer(args.scorer, dataset, args.seed, args.external_cmd) as scorer:
        prior = phi = None
        if {"top1", "removal"} & set(suites):
            estimate, phi = _fit_explanation(model, scorer, dataset, dataset.pairs_for_split("val"),
                                             codes, args.jobs)
            prior = estimate.prior
        report = run_eval(dataset, model, scorer, codes, suites, methods,
                          seed=args.seed, insertion_step=args.insertion_step,
                          limit_pairs=args.limit, jobs=args.jobs, prior=prior, phi=phi)
    _write_result(args, report, {"command": "eval", "saliency": _config_payload(saliency_cfg),
                                 "suites": suites, "methods": [name for name, _ in methods], "seed": args.seed})
    return {"out": str(args.out), **report.get("attribute", {})}


def cmd_discover(args) -> dict:
    dataset = load_dataset(args.dataset)
    cfg = run_config(args, saliency={"method": args.method}, discovery={
        "k_nn": args.k, "n_clusters": args.clusters, "top_n": args.top_n, "patch": args.patch,
    })["discovery"]
    with make_scorer(args.scorer, dataset, args.seed, args.external_cmd) as scorer:
        embeddings: dict = {}
        assignment = discover(dataset, scorer, cfg, lambda fn, items: _parallel_map(fn, items, args.jobs),
                              embeddings=embeddings)
        deltas = removal_eval_discovered(assignment, scorer, dataset, dataset.pairs_for_split("test"),
                                         seed=args.seed, embeddings=embeddings)
    payload = {
        "n_clusters": assignment.n_clusters,
        "labels_by_image": {k: list(v) for k, v in sorted(assignment.labels_by_image.items())},
        "patches": [
            {"source": p.source_image_id, "query": p.query_id,
             "top_left": list(p.center), "cluster": p.cluster}
            for p in assignment.patches
        ],
        "removal": {k: {"delta": v.mean_delta, "n_used": v.n_used, "n_skipped": v.n_skipped}
                    for k, v in deltas.items()},
    }
    _write_result(args, payload, {"command": "discover", "discovery": _config_payload(cfg)})
    _write_montage(args.out.with_suffix(args.out_second), dataset, assignment)
    return {"out": str(args.out), "removal": payload["removal"]}


def _write_montage(path: Path, dataset: Dataset, assignment) -> None:
    """Rows of six example patches per cluster, as one grayscale sheet."""
    patch_size, per_cluster = 28, 6
    rows = []
    for k in range(assignment.n_clusters):
        records = [p for p in assignment.patches if p.cluster == k][:per_cluster]
        tiles = []
        for rec in records:
            img = dataset.image(rec.source_image_id).data.mean(axis=2)
            top, left = rec.center
            side = min(patch_size, img.shape[0] - top, img.shape[1] - left)
            tile = np.zeros((patch_size, patch_size))
            tile[:side, :side] = img[top:top + side, left:left + side]
            tiles.append(tile)
        while len(tiles) < per_cluster:
            tiles.append(np.zeros((patch_size, patch_size)))
        rows.append(np.concatenate(tiles, axis=1))
    if rows:
        write_pgm(path, np.concatenate(rows, axis=0))


def cmd_serve_stub(args) -> dict:
    run_config(args)
    scorer = LinearToyScorer.random(args.dims, embed_dim=args.embed_dim, seed=args.seed)
    if args.no_embed:
        scorer = _ScoreOnly(scorer)
    serve_stdio(scorer, max_batch=args.max_batch)
    return {}


def cmd_pipeline(args) -> dict:
    """synth -> scorer -> saliency bank -> train-attr -> fit-phi (prior, phi) -> eval,
    every output written once the last of them is computed."""
    seed = args.seed
    run_cfg = run_config(args, synth={"n_images": args.n_images, "n_attributes": args.attributes},
                         saliency={"rise": {"n_masks": args.rise_masks}}, train={"epochs": args.epochs})
    spec, saliency_cfg, train_cfg = run_cfg["synth"], run_cfg["saliency"], run_cfg["train"]
    methods = _parse_methods(args.methods, saliency_cfg)
    dataset = generate_dataset(spec)
    # the refusals of the fit and of run_eval, before any work
    _require_labelled(_ground_truth(dataset, dataset.pairs_for_split("val")))
    _test_pairs(dataset, _SUITES, args.limit)

    # the bank: each train query's first k_maps pairs
    train_pairs = dataset.pairs_for_split("train")
    bank_pairs = [p for k, p in enumerate(train_pairs)
                  if sum(q.query_id == p.query_id for q in train_pairs[:k]) < train_cfg.k_maps]

    codes = map_codes(saliency_cfg, *dataset.dims[:2])
    with make_scorer(args.scorer, dataset, args.seed, args.external_cmd) as scorer:
        written = {f"{pair.query_id}__{pair.reference_id}.smap": (pair.query_id, smap)
                   for pair, smap in zip(bank_pairs, _maps(scorer, dataset, bank_pairs, codes, args.jobs))}
        bank: dict[str, list[SaliencyMap]] = {}
        for name in sorted(written):  # the order load_saliency_bank reads the files in
            query_id, smap = written[name]
            bank.setdefault(query_id, []).append(smap)
        model = train(dataset, bank, train_cfg)
        estimate, phi = _fit_explanation(model, scorer, dataset, dataset.pairs_for_split("val"), codes, args.jobs)
        report = run_eval(dataset, model, scorer, codes, _SUITES, methods, seed=seed,
                          limit_pairs=args.limit, jobs=args.jobs, prior=estimate.prior, phi=phi)

    out = _make_out(args)
    save_dataset(dataset, out / "dataset")
    (out / "maps").mkdir(exist_ok=True)
    for name, (_, smap) in written.items():
        save_saliency(out / "maps" / name, smap)
    save_model(out / "model.sane", model)
    dump_json(out / "phi.json", _fit_payload(estimate, phi))
    dump_json(out / "report.json", report)
    _echo_config(args, {
        "command": "pipeline",
        "seed": seed,
        "spec": _config_payload(spec),
        "saliency": _config_payload(saliency_cfg),
        "train": _config_payload(train_cfg),
        "methods": [name for name, _ in methods],
    })
    return {"out": str(out), "report": str(out / "report.json")}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simexplain",
                                     description="Explain image-similarity models.")
    parser.add_argument("--version", action="version", version=f"simexplain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, out, files=(), scorer="triplet", method=False, jobs=False, second=None):
        """A subcommand with the common flags, ``--out`` (``out``, the kind
        it names: "directory", "file" or None for no output; ``second``, the
        suffix of a second output written at ``--out`` with it), the scorer
        flags (``scorer`` is their default scorer; None for no scorer), the
        required input file flags ``files`` and, if ``method``, ``--method``
        and, if ``jobs``, ``--jobs``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, out_kind=out, out_second=second)
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--config", default=None, help="JSON run-config file")
        if jobs:
            p.add_argument("--jobs", type=_positive_int, default=_default_jobs())
        p.add_argument("--json", action="store_true", help="print a machine-readable result line")
        p.add_argument("--verbose", action="store_true")
        if scorer:
            p.add_argument("--scorer", default=scorer, choices=["triplet", "planted", "motif", "random", "external"],
                           help="similarity model under explanation")
            p.add_argument("--external-cmd", default=None, help="command line of an external scorer process")
        for flag in files:
            p.add_argument(f"--{flag}", required=True)
        if out:
            p.add_argument("--out", type=lambda text: _out_path(text, out, second), required=True,
                           help=f"output {out}")
        if method:
            p.add_argument("--method", default=None, choices=sorted(_METHOD_NAMES))
        return p

    p = command("synth", cmd_synth, "generate a synthetic motif dataset", "directory", scorer=None)
    for flag, kind in (("--n-images", int), ("--side", int), ("--attributes", int), ("--noise", float),
                       ("--max-attrs", int), ("--pairs-per-query", int)):
        p.add_argument(flag, type=kind, default=None)

    p = command("saliency", cmd_saliency, "write saliency maps for pairs", "directory", ("dataset",), method=True,
                jobs=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--fixed-ref", dest="fixed_reference", action="store_const", const=True, default=None)
    group.add_argument("--dual", dest="fixed_reference", action="store_const", const=False)
    p.add_argument("--pair", default=None, help="query_id:reference_id")
    p.add_argument("--split", default=None, choices=["train", "val", "test"])
    p.add_argument("--limit", type=_positive_int, default=None)

    p = command("train-attr", cmd_train_attr, "train the attribute model", "file", ("dataset",), scorer=None)
    p.add_argument("--maps", default=None, help="saliency bank directory")
    for flag, kind in (("--epochs", int), ("--lr", float), ("--lam", float), ("--k", int)):
        p.add_argument(flag, type=kind, default=None)

    p = command("fit-phi", cmd_fit_phi, "fit the attribute prior and the explanation weights on held-out pairs",
                "file", ("dataset", "model"), method=True, jobs=True)
    p.add_argument("--split", default="val", choices=["train", "val", "test"])
    p.add_argument("--grid-step", type=_step(0.01), default=0.05)

    p = command("explain", cmd_explain, "explain one pair", "file", ("dataset", "model"), method=True,
                second=".smap")
    p.add_argument("--pair", required=True, help="query_id:reference_id")
    p.add_argument("--phi-file", default=None, help="fit file of fit-phi or pipeline: phi and the prior")

    p = command("eval", cmd_eval, "run the metric suites", "file", ("dataset", "model"), jobs=True)
    p.add_argument("--suite", default=",".join(_SUITES))
    p.add_argument("--methods", default="rise,sliding_window")
    p.add_argument("--insertion-step", type=_step(1e-4), default=0.01)
    p.add_argument("--limit", type=_positive_int, default=None, help="cap on test pairs")

    p = command("discover", cmd_discover, "mine pseudo-attributes from salient patches", "file", ("dataset",),
                scorer="motif", method=True, jobs=True, second=".pgm")
    p.add_argument("--k", type=int, default=None, help="k-NN neighbors per query")
    for flag in ("--clusters", "--top-n", "--patch"):
        p.add_argument(flag, type=int, default=None)

    p = command("serve-stub", cmd_serve_stub, "serve the reference external scorer", None, scorer=None)
    p.add_argument("--dims", type=_dims, default="56,56,3")
    p.add_argument("--embed-dim", type=_positive_int, default=16)
    p.add_argument("--max-batch", type=_positive_int, default=64)
    p.add_argument("--no-embed", action="store_true")

    p = command("pipeline", cmd_pipeline, "synth through eval, end to end", "directory", jobs=True)
    for flag in ("--n-images", "--attributes", "--epochs", "--rise-masks"):
        p.add_argument(flag, type=int, default=None)
    p.add_argument("--methods", default="rise,sliding_window")
    p.add_argument("--limit", type=_positive_int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        result = args.func(args)
    except (ConvergenceError, OptimizationError, TransportError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3
    except SimExplainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(result, sort_keys=True))
    else:
        for key, value in result.items():
            print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
