"""simexplain command line: dataset generation, saliency maps, attribute
model training, explanation, evaluation, discovery, benchmarking.

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
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .attrmodel import AttributeModel, TrainConfig, load_model, save_model, train
from .core import Dataset, Method, Pair, SaliencyMap
from .dataio import dump_json, load_dataset, load_saliency, save_dataset, save_saliency, write_pgm
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
    estimate_prior,
    explain_pair,
    fit_phi,
    pair_features,
)
from .external import ExternalScorer, TcpServer, _ScoreOnly, serve_stdio
from .metrics import (
    attribute_removal_delta,
    deletion_curve,
    insertion_curve,
    map_metric,
    mean_and_stderr,
    top1_accuracy_from_attrs,
)
from .saliency import LimeCfg, MaskCfg, RiseCfg, SaliencyConfig, SlidingCfg, generate
from .scorers import LinearToyScorer, Scorer, TripletToyScorer
from .synth import SyntheticSpec, generate_dataset, motif_scorer_for, planted_scorer_for

log = logging.getLogger(__name__)

_METHOD_NAMES = {
    "sliding_window": Method.SLIDING_WINDOW,
    "rise": Method.RISE,
    "lime": Method.LIME,
    "mask": Method.MASK,
}


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _build_dataclass(dc_type, mapping: dict, where: str):
    """Construct a flat config dataclass, rejecting unknown keys."""
    known = {f.name for f in dataclasses.fields(dc_type)}
    unknown = set(mapping) - known
    if unknown:
        raise ParseError(f"{where}: unknown config key(s): {', '.join(sorted(unknown))}")
    return dc_type(**mapping)


_NESTED_SALIENCY = {"sliding": SlidingCfg, "rise": RiseCfg, "lime": LimeCfg, "mask": MaskCfg}


def _parse_method(name: str) -> Method:
    try:
        return _METHOD_NAMES[name]
    except KeyError:
        raise ParseError(f"unknown saliency method {name!r}; choose from {sorted(_METHOD_NAMES)}") from None


def build_saliency_config(tree: dict | None, method: str | None = None,
                          fixed_reference: bool | None = None, seed: int | None = None) -> SaliencyConfig:
    tree = dict(tree or {})
    unknown = set(tree) - ({"method", "fixed_reference", "seed"} | set(_NESTED_SALIENCY))
    if unknown:
        raise ParseError(f"saliency config: unknown key(s): {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, dc in _NESTED_SALIENCY.items():
        if key in tree:
            kwargs[key] = _build_dataclass(dc, tree[key], f"saliency.{key}")
    if "method" in tree:
        kwargs["method"] = _parse_method(tree["method"])
    if "fixed_reference" in tree:
        kwargs["fixed_reference"] = bool(tree["fixed_reference"])
    if "seed" in tree:
        kwargs["seed"] = int(tree["seed"])
    if method is not None:
        kwargs["method"] = _parse_method(method)
    if fixed_reference is not None:
        kwargs["fixed_reference"] = fixed_reference
    if seed is not None:
        kwargs["seed"] = seed
    return SaliencyConfig(**kwargs)


_RUN_CONFIG_KEYS = {"seed", "jobs", "saliency", "train", "synth", "discovery", "explain"}


def _read_json(path: str | Path, what: str):
    """Parse a user-supplied JSON file; a missing or malformed one is a ParseError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {what} is not readable JSON: {exc}") from exc


def load_run_config(path: str | None) -> dict:
    if path is None:
        return {}
    tree = _read_json(path, "config")
    if not isinstance(tree, dict):
        raise ParseError(f"{path}: config root must be an object")
    unknown = set(tree) - _RUN_CONFIG_KEYS
    if unknown:
        raise ParseError(f"{path}: unknown config section(s): {', '.join(sorted(unknown))}")
    return tree


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


def _with_flags(cfg, **flags):
    """``cfg`` with every flag the user passed (not None) applied."""
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _echo_config(out: Path, resolved: dict) -> None:
    target = out / "run_config.json" if out.is_dir() else out.with_name(out.name + ".config.json")
    dump_json(target, _config_payload(resolved))


def _write_result(out: Path, payload: dict, resolved: dict) -> None:
    """Write a command's JSON result next to the echo of its configuration."""
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_json(out, payload)
    _echo_config(out, resolved)


def _parallel_map(fn, items, jobs: int) -> list:
    """Order-preserving map; results land by index so parallelism never
    changes the output."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    results = [None] * len(items)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(fn, item): k for k, item in enumerate(items)}
        for fut, k in futures.items():
            results[k] = fut.result()
    return results


def _default_jobs() -> int:
    return min(4, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Scorer selection
# ---------------------------------------------------------------------------


def make_scorer(name: str, dataset: Dataset | None, seed: int, external_cmd: str | None = None,
                embed_dim: int = 16) -> Scorer:
    if name == "external":
        if not external_cmd:
            raise ParseError("--scorer external requires --external-cmd")
        return ExternalScorer(command=shlex.split(external_cmd))
    if dataset is None:
        raise ParseError(f"scorer {name!r} needs a dataset")
    dims = dataset.images[0][1].shape
    if name == "triplet":
        return TripletToyScorer.train_on(dataset, embed_dim=embed_dim, seed=seed)
    if name == "planted":
        return planted_scorer_for(dataset, embed_dim=embed_dim, seed=seed)
    if name == "motif":
        return motif_scorer_for(dataset, embed_dim=max(embed_dim, 24), seed=seed)
    if name == "random":
        return LinearToyScorer.random(dims, embed_dim=embed_dim, seed=seed)
    raise ParseError(f"unknown scorer {name!r}")


def _add_scorer_args(p: argparse.ArgumentParser, default: str = "triplet") -> None:
    p.add_argument("--scorer", default=default,
                   choices=["triplet", "planted", "motif", "random", "external"],
                   help="similarity model under explanation")
    p.add_argument("--scorer-seed", type=int, default=None,
                   help="seed for scorer construction (defaults to --seed)")
    p.add_argument("--external-cmd", default=None, help="command line of an external scorer process")


def _resolve_scorer(args, dataset: Dataset | None) -> Scorer:
    seed = args.scorer_seed if args.scorer_seed is not None else args.seed
    return make_scorer(args.scorer, dataset, seed, getattr(args, "external_cmd", None))


def _saliency_config(args, **flags) -> SaliencyConfig:
    """The run config's saliency section under the command's own flags."""
    return build_saliency_config(load_run_config(args.config).get("saliency"), seed=args.seed, **flags)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> dict:
    spec = SyntheticSpec(
        n_images=args.n_images,
        side=args.side,
        n_attributes=args.attributes,
        noise=args.noise,
        seed=args.seed,
        max_attrs_per_image=args.max_attrs,
        pairs_per_query=args.pairs_per_query,
    )
    dataset = generate_dataset(spec)
    out = Path(args.out)
    manifest = save_dataset(dataset, out)
    _echo_config(out, {"command": "synth", "spec": _config_payload(spec)})
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
    pairs = dataset.pairs_for_split(split or "test")
    return pairs[:limit] if limit else pairs


def cmd_saliency(args) -> dict:
    dataset = load_dataset(args.dataset)
    cfg = _saliency_config(args, method=args.method, fixed_reference=not args.dual)
    pairs = _select_pairs(dataset, args.pair, args.split, args.limit)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with _resolve_scorer(args, dataset) as scorer:
        def one(pair: Pair) -> str:
            smap = generate(scorer, dataset.image(pair.reference_id), dataset.image(pair.query_id), cfg)
            stem = f"{pair.query_id}__{pair.reference_id}"
            save_saliency(out / f"{stem}.smap", smap)
            write_pgm(out / f"{stem}.pgm", smap.data)
            return stem

        written = _parallel_map(one, pairs, args.jobs)
    _echo_config(out, {"command": "saliency", "saliency": _config_payload(cfg), "pairs": len(pairs)})
    return {"out": str(out), "maps": len(written)}


def load_saliency_bank(maps_dir: str | Path) -> dict[str, list[SaliencyMap]]:
    """Group <query>__<reference>.smap files by query id (sorted order)."""
    bank: dict[str, list[SaliencyMap]] = {}
    for path in sorted(Path(maps_dir).glob("*.smap")):
        stem = path.stem
        if "__" not in stem:
            raise ParseError(f"{path}: bank file names must be <query>__<reference>.smap")
        query_id = stem.split("__", 1)[0]
        bank.setdefault(query_id, []).append(load_saliency(path))
    return bank


def cmd_train_attr(args) -> dict:
    dataset = load_dataset(args.dataset)
    bank = load_saliency_bank(args.maps) if args.maps else {}
    tree = load_run_config(args.config).get("train", {})
    cfg = _with_flags(_build_dataclass(TrainConfig, tree, "train"),
                      epochs=args.epochs, lr=args.lr, lam=args.lam, k_maps=args.k, seed=args.seed)
    model = train(dataset, bank, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(out, model)
    _echo_config(out, {"command": "train-attr", "train": _config_payload(cfg), "bank_images": len(bank)})
    val_map = map_metric(model, dataset, "val") if dataset.image_ids_for_split("val") else None
    return {"model": str(out), "val_map": val_map}


def _fit_explanation(model: AttributeModel, scorer: Scorer, dataset: Dataset, pairs: list[Pair],
                     saliency_cfg: SaliencyConfig,
                     grid_step: float = 0.05) -> tuple[PriorEstimate, PhiWeights]:
    """Held-out pair features -> attribute prior -> phi grid search."""
    features = pair_features(model, scorer, dataset, pairs, saliency_cfg)
    estimate = estimate_prior(features, dataset.n_attributes)
    return estimate, fit_phi(features, estimate.prior, grid_step)


def cmd_prior(args) -> dict:
    dataset = load_dataset(args.dataset)
    model = load_model(args.model)
    cfg = _saliency_config(args, method=args.method)
    pairs = dataset.pairs_for_split(args.split)
    if not pairs:
        raise InvalidArgumentError("prior estimation needs at least one validation pair")
    with _resolve_scorer(args, dataset) as scorer:
        estimate = estimate_prior(pair_features(model, scorer, dataset, pairs, cfg), dataset.n_attributes)
    out = Path(args.out)
    _write_result(out, {
        "prior": [float(v) for v in estimate.prior.p],
        "n_used": estimate.n_used,
        "n_skipped": estimate.n_skipped,
    }, {"command": "prior", "saliency": _config_payload(cfg), "split": args.split})
    return {"out": str(out), "n_used": estimate.n_used, "n_skipped": estimate.n_skipped}


def _load_prior(path: str | None, n_attributes: int) -> Prior | None:
    if not path:
        return None
    tree = _read_json(path, "prior")
    try:
        p = np.asarray(tree["prior"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: 'prior' must be a list of numbers: {exc!r}") from exc
    if p.size != n_attributes:
        raise ParseError(f"{path}: prior length {p.size} does not match {n_attributes} attributes")
    return Prior(p)


def _parse_phi(text: str | None, path: str | None) -> PhiWeights | None:
    if not text and not path:
        return None
    try:
        if text:
            parts = [float(v) for v in text.split(",")]
        else:
            tree = _read_json(path, "phi")
            parts = [tree["phi1"], tree["phi2"], tree["phi3"]]
        if len(parts) != 3:
            raise ParseError("--phi must be three comma-separated floats")
        return PhiWeights(*parts)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"phi weights {text or path!r} are not three numbers: {exc!r}") from exc


def cmd_fit_phi(args) -> dict:
    dataset = load_dataset(args.dataset)
    model = load_model(args.model)
    cfg = _saliency_config(args, method=args.method)
    with _resolve_scorer(args, dataset) as scorer:
        estimate, phi = _fit_explanation(model, scorer, dataset, dataset.pairs_for_split(args.split),
                                         cfg, args.grid_step)
    out = Path(args.out)
    _write_result(out, {"phi1": phi.phi1, "phi2": phi.phi2, "phi3": phi.phi3,
                        "prior": [float(v) for v in estimate.prior.p]},
                  {"command": "fit-phi", "saliency": _config_payload(cfg),
                   "split": args.split, "grid_step": args.grid_step})
    return {"out": str(out), "phi": [phi.phi1, phi.phi2, phi.phi3]}


def cmd_explain(args) -> dict:
    dataset = load_dataset(args.dataset)
    model = load_model(args.model)
    saliency_cfg = _saliency_config(args, method=args.method)
    phi = _parse_phi(args.phi, args.phi_file) or PhiWeights()
    prior = _load_prior(args.prior, dataset.n_attributes)
    cfg = ExplainConfig(saliency=saliency_cfg, phi=phi, prior=prior)
    [pair] = _select_pairs(dataset, args.pair, None, None)
    with _resolve_scorer(args, dataset) as scorer:
        result = explain_pair(
            scorer, model,
            dataset.image(pair.reference_id), dataset.image(pair.query_id), cfg,
            query_id=pair.query_id, reference_id=pair.reference_id,
        )
    out = Path(args.out)
    smap_path = out.with_suffix(".smap")
    payload = {
        "query": result.query_id,
        "reference": result.reference_id,
        "saliency_path": smap_path.name,
        "phi": {"phi1": phi.phi1, "phi2": phi.phi2, "phi3": phi.phi3},
        "ranked": [
            {
                "attribute": r.attribute,
                "name": dataset.catalog.names[r.attribute],
                "score": r.score,
                "confidence": r.confidence,
                "map_match": r.map_match,
                "prior": r.prior,
            }
            for r in result.ranked
        ],
    }
    _write_result(out, payload, {"command": "explain", "saliency": _config_payload(saliency_cfg),
                                 "pair": args.pair})
    save_saliency(smap_path, result.saliency)
    return {"out": str(out), "top1": dataset.catalog.names[result.top1]}


def run_eval(
    dataset: Dataset,
    model: AttributeModel,
    scorer: Scorer,
    saliency_cfg: SaliencyConfig,
    suites: list[str],
    methods: list[str],
    seed: int,
    insertion_step: float = 0.01,
    limit_pairs: int | None = None,
    jobs: int = 1,
    prior: Prior | None = None,
    phi: PhiWeights | None = None,
) -> dict:
    """Shared evaluation harness behind `eval` and `pipeline`.

    The `top1` and `removal` suites rank with the ``prior`` and ``phi``
    the caller fitted on the validation pairs.
    """
    report: dict = {"schema_version": 1, "saliency": {}, "attribute": {}, "counts": {}}
    test_pairs = dataset.pairs_for_split("test")
    if limit_pairs:
        test_pairs = test_pairs[:limit_pairs]
    report["counts"]["test_pairs"] = len(test_pairs)
    report["counts"]["val_pairs"] = len(dataset.pairs_for_split("val"))

    if "insertion" in suites or "deletion" in suites:
        for method_name in methods:
            # a "_dual" suffix evaluates the both-images-manipulated variant,
            # so fixed and dual rows can sit side by side in one report
            dual = method_name.endswith("_dual")
            base_name = method_name[: -len("_dual")] if dual else method_name
            cfg = dataclasses.replace(saliency_cfg, method=_parse_method(base_name),
                                      fixed_reference=saliency_cfg.fixed_reference and not dual)

            def curves(pair: Pair):
                ref = dataset.image(pair.reference_id)
                query = dataset.image(pair.query_id)
                smap = generate(scorer, ref, query, cfg)
                ins = insertion_curve(scorer, ref, query, smap, insertion_step).auc
                dele = deletion_curve(scorer, ref, query, smap, insertion_step).auc
                return ins, dele

            results = _parallel_map(curves, test_pairs, jobs)
            ins_mean, ins_se = mean_and_stderr([r[0] * 100 for r in results])
            del_mean, del_se = mean_and_stderr([r[1] * 100 for r in results])
            key = f"{base_name}_{'fixed' if cfg.fixed_reference else 'dual'}"
            entry = {}
            if "insertion" in suites:
                entry["insertion_auc"] = ins_mean
                entry["insertion_stderr"] = ins_se
            if "deletion" in suites:
                entry["deletion_auc"] = del_mean
                entry["deletion_stderr"] = del_se
            report["saliency"][key] = entry

    if "map" in suites:
        report["attribute"]["map"] = map_metric(model, dataset, "test")

    if {"top1", "removal"} & set(suites):
        if prior is None or phi is None:
            raise InvalidArgumentError("the top1 and removal suites need a fitted prior and phi")
        report["attribute"]["phi"] = [phi.phi1, phi.phi2, phi.phi3]
        test_features = pair_features(model, scorer, dataset, test_pairs, saliency_cfg)
        full_attrs = [f.top1(prior, phi) for f in test_features]
        conf_attrs = [f.top1(prior, CONFIDENCE_ONLY_PHI) for f in test_features]
        rng = np.random.default_rng([seed, 77])
        random_attrs = [int(rng.integers(dataset.n_attributes)) for _ in test_features]
        gt_sets = [f.gt.tolist() for f in test_features]

        if "top1" in suites:
            report["attribute"]["top1"] = {
                "random": top1_accuracy_from_attrs(random_attrs, gt_sets),
                "confidence_only": top1_accuracy_from_attrs(conf_attrs, gt_sets),
                "full": top1_accuracy_from_attrs(full_attrs, gt_sets),
            }
        if "removal" in suites:
            corpus = dataset.image_ids_for_split("test")
            removal = {}
            for name, attrs in (("random", random_attrs), ("confidence_only", conf_attrs), ("full", full_attrs)):
                res = attribute_removal_delta(scorer, dataset, test_pairs, attrs, corpus_ids=corpus)
                removal[name] = {"delta": res.mean_delta, "n_used": res.n_used, "n_skipped": res.n_skipped}
            report["attribute"]["removal"] = removal
    return report


def cmd_eval(args) -> dict:
    dataset = load_dataset(args.dataset)
    model = load_model(args.model)
    saliency_cfg = _saliency_config(args)
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    known = {"insertion", "deletion", "map", "top1", "removal"}
    unknown = set(suites) - known
    if unknown:
        raise ParseError(f"unknown suite(s): {', '.join(sorted(unknown))}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    with _resolve_scorer(args, dataset) as scorer:
        prior = phi = None
        if {"top1", "removal"} & set(suites):
            estimate, phi = _fit_explanation(model, scorer, dataset, dataset.pairs_for_split("val"),
                                             saliency_cfg)
            prior = estimate.prior
        report = run_eval(dataset, model, scorer, saliency_cfg, suites, methods,
                          seed=args.seed, insertion_step=args.insertion_step,
                          limit_pairs=args.limit, jobs=args.jobs, prior=prior, phi=phi)
    out = Path(args.out)
    _write_result(out, report, {"command": "eval", "saliency": _config_payload(saliency_cfg),
                                "suites": suites, "methods": methods, "seed": args.seed})
    return {"out": str(out), **report.get("attribute", {})}


def cmd_discover(args) -> dict:
    dataset = load_dataset(args.dataset)
    saliency_cfg = _saliency_config(args, method=args.method)
    tree = load_run_config(args.config).get("discovery", {})
    base = _build_dataclass(DiscoveryConfig, {k: v for k, v in tree.items() if k != "saliency"}, "discovery")
    cfg = _with_flags(base, k_nn=args.k, n_clusters=args.clusters, top_n=args.top_n, patch=args.patch,
                      seed=args.seed, saliency=saliency_cfg)
    with _resolve_scorer(args, dataset) as scorer:
        assignment = discover(dataset, scorer, cfg)
        deltas = removal_eval_discovered(assignment, scorer, dataset,
                                         dataset.pairs_for_split("test"), seed=args.seed)
    out = Path(args.out)
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
    _write_result(out, payload, {"command": "discover", "discovery": _config_payload(cfg)})
    _write_montage(out.with_suffix(".pgm"), dataset, assignment)
    return {"out": str(out), "removal": payload["removal"]}


def _write_montage(path: Path, dataset: Dataset, assignment, per_cluster: int = 6) -> None:
    """Rows of example patches per cluster, as one grayscale sheet."""
    patch_size = 28
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


def cmd_bench(args) -> dict:
    dataset = load_dataset(args.dataset)
    pairs = dataset.pairs_for_split("test") or list(dataset.pairs)
    pair = pairs[0]
    ref, query = dataset.image(pair.reference_id), dataset.image(pair.query_id)
    table = []
    with _resolve_scorer(args, dataset) as scorer:
        for method_name in ("sliding_window", "rise", "lime", "mask"):
            for fixed in (True, False):
                if method_name == "lime" and not fixed:
                    continue
                cfg = _saliency_config(args, method=method_name, fixed_reference=fixed)
                start = time.perf_counter()
                try:
                    generate(scorer, ref, query, cfg)
                    elapsed = time.perf_counter() - start
                    table.append({"method": method_name, "fixed_reference": fixed,
                                  "seconds": round(elapsed, 4)})
                except SimExplainError as exc:
                    table.append({"method": method_name, "fixed_reference": fixed,
                                  "error": str(exc)})
    out = Path(args.out)
    _write_result(out, {"pair": f"{pair.query_id}:{pair.reference_id}", "timings": table},
                  {"command": "bench", "seed": args.seed})
    return {"out": str(out), "timings": table}


def cmd_serve_stub(args) -> dict:
    h, w, c = (int(v) for v in args.dims.split(","))
    scorer = LinearToyScorer.random((h, w, c), embed_dim=args.embed_dim, seed=args.seed)
    if args.no_embed:
        scorer = _ScoreOnly(scorer)
    if args.tcp_port is not None:
        server = TcpServer(scorer, port=args.tcp_port, max_batch=args.max_batch)
        print(f"listening on 127.0.0.1:{server.port}", flush=True)
        server.serve_forever()
    else:
        serve_stdio(scorer, max_batch=args.max_batch)
    return {}


def cmd_pipeline(args) -> dict:
    """synth -> scorer -> saliency bank -> train-attr -> prior -> phi -> eval."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_cfg = load_run_config(args.config)
    seed = args.seed

    synth_tree = dict(run_cfg.get("synth", {}))
    synth_tree.update(n_images=args.n_images, n_attributes=args.attributes, seed=seed)
    spec = _build_dataclass(SyntheticSpec, synth_tree, "synth")
    dataset = generate_dataset(spec)
    save_dataset(dataset, out / "dataset")

    saliency_cfg = build_saliency_config(run_cfg.get("saliency"), seed=seed)
    saliency_cfg = dataclasses.replace(saliency_cfg,
                                       rise=_with_flags(saliency_cfg.rise, n_masks=args.rise_masks))
    train_cfg = _with_flags(_build_dataclass(TrainConfig, run_cfg.get("train", {}), "train"),
                            seed=seed, epochs=args.epochs)

    maps_dir = out / "maps"
    maps_dir.mkdir(exist_ok=True)
    train_pairs = dataset.pairs_for_split("train")
    per_query: dict[str, int] = {}
    bank_pairs = []
    for p in train_pairs:
        if per_query.get(p.query_id, 0) >= train_cfg.k_maps:
            continue
        per_query[p.query_id] = per_query.get(p.query_id, 0) + 1
        bank_pairs.append(p)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]

    with _resolve_scorer(args, dataset) as scorer:
        def bank_one(pair: Pair) -> None:
            smap = generate(scorer, dataset.image(pair.reference_id), dataset.image(pair.query_id), saliency_cfg)
            save_saliency(maps_dir / f"{pair.query_id}__{pair.reference_id}.smap", smap)

        _parallel_map(bank_one, bank_pairs, args.jobs)

        bank = load_saliency_bank(maps_dir)
        model = train(dataset, bank, train_cfg)
        save_model(out / "model.sane", model)

        estimate, phi = _fit_explanation(model, scorer, dataset, dataset.pairs_for_split("val"), saliency_cfg)
        dump_json(out / "prior.json", {"prior": [float(v) for v in estimate.prior.p],
                                       "n_used": estimate.n_used, "n_skipped": estimate.n_skipped})
        dump_json(out / "phi.json", {"phi1": phi.phi1, "phi2": phi.phi2, "phi3": phi.phi3})

        suites = ["insertion", "deletion", "map", "top1", "removal"]
        report = run_eval(dataset, model, scorer, saliency_cfg, suites, methods,
                          seed=seed, limit_pairs=args.limit, jobs=args.jobs, prior=estimate.prior, phi=phi)
    dump_json(out / "report.json", report)
    _echo_config(out, {
        "command": "pipeline",
        "seed": seed,
        "spec": _config_payload(spec),
        "saliency": _config_payload(saliency_cfg),
        "train": _config_payload(train_cfg),
        "methods": methods,
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

    def common(p, scorer_default="triplet", with_scorer=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="JSON run-config file")
        p.add_argument("--jobs", type=int, default=_default_jobs())
        p.add_argument("--json", action="store_true", help="print a machine-readable result line")
        p.add_argument("--verbose", action="store_true")
        if with_scorer:
            _add_scorer_args(p, scorer_default)

    p = sub.add_parser("synth", help="generate a synthetic motif dataset")
    common(p, with_scorer=False)
    p.add_argument("--out", required=True)
    p.add_argument("--n-images", type=int, default=64)
    p.add_argument("--side", type=int, default=56)
    p.add_argument("--attributes", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--max-attrs", type=int, default=3)
    p.add_argument("--pairs-per-query", type=int, default=3)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("saliency", help="write saliency maps for pairs")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", default="rise", choices=sorted(_METHOD_NAMES))
    group = p.add_mutually_exclusive_group()
    group.add_argument("--fixed-ref", dest="dual", action="store_false", default=False)
    group.add_argument("--dual", dest="dual", action="store_true")
    p.add_argument("--pair", default=None, help="query_id:reference_id")
    p.add_argument("--split", default=None, choices=["train", "val", "test"])
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("train-attr", help="train the attribute model")
    common(p, with_scorer=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--maps", default=None, help="saliency bank directory")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_train_attr)

    p = sub.add_parser("prior", help="estimate the attribute prior on held-out pairs")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--method", default="rise", choices=sorted(_METHOD_NAMES))
    p.add_argument("--split", default="val", choices=["train", "val", "test"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prior)

    p = sub.add_parser("fit-phi", help="grid-search the explanation weights")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--method", default="rise", choices=sorted(_METHOD_NAMES))
    p.add_argument("--split", default="val", choices=["train", "val", "test"])
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_phi)

    p = sub.add_parser("explain", help="explain one pair")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--method", default="rise", choices=sorted(_METHOD_NAMES))
    p.add_argument("--pair", required=True, help="query_id:reference_id")
    p.add_argument("--phi", default=None, help="phi1,phi2,phi3")
    p.add_argument("--phi-file", default=None)
    p.add_argument("--prior", default=None, help="prior.json path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("eval", help="run the metric suites")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--suite", default="insertion,deletion,map,top1,removal")
    p.add_argument("--methods", default="rise,sliding_window")
    p.add_argument("--insertion-step", type=float, default=0.01)
    p.add_argument("--limit", type=int, default=None, help="cap on test pairs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("discover", help="mine pseudo-attributes from salient patches")
    common(p, scorer_default="motif")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", default="rise", choices=sorted(_METHOD_NAMES))
    p.add_argument("--k", type=int, default=None, help="k-NN neighbors per query")
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--top-n", type=int, default=None)
    p.add_argument("--patch", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("bench", help="wall-time table per saliency method")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve-stub", help="serve the reference external scorer")
    common(p, with_scorer=False)
    p.add_argument("--dims", default="56,56,3")
    p.add_argument("--embed-dim", type=int, default=16)
    p.add_argument("--max-batch", type=int, default=64)
    p.add_argument("--tcp-port", type=int, default=None)
    p.add_argument("--no-embed", action="store_true")
    p.set_defaults(func=cmd_serve_stub)

    p = sub.add_parser("pipeline", help="synth through eval, end to end")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--n-images", type=int, default=64)
    p.add_argument("--attributes", type=int, default=8)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--rise-masks", type=int, default=None)
    p.add_argument("--methods", default="rise,sliding_window")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_pipeline)

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
