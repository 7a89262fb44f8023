"""Per-layer metrics from the spans of a traced run.

A layer is a module of the library. Unless a metric says otherwise it
covers the measured requests only, not set-up or the warm-up request.
Busy time is the summed duration of a layer's spans; self time subtracts
the part of each span that its direct child spans cover.

Counts and busy times are per measured request (unit ``.../req``), so
they mean the work one request costs whatever the throughput: a run
lasts a fixed time, and a raw total would grow with a speed-up.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import Span

SCORER_CALLS = ("scorers.score", "scorers.score_batch", "scorers.score_batch_flat",
                "scorers.embed", "scorers.grad_query", "scorers.other")
SCORING = {"scorers.score", "scorers.score_batch", "scorers.score_batch_flat"}
COMMANDS = ("cli.pipeline", "cli.discover")


def _b64_len(n_bytes: int) -> int:
    return 4 * math.ceil(n_bytes / 3)


class SpanIndex:
    def __init__(self, spans: list[Span]):
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def ancestor(self, span: Span, names) -> Span | None:
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return parent
            parent = self.by_id.get(parent.parent)
        return None

    def self_time(self, span: Span) -> float:
        return max(0.0, span.duration - sum(c.duration for c in self.children[span.id]))


def _total(spans, name) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _count(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(spans: list[Span], measured: set, context: dict) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit). `measured` holds the request ids of the
    measured requests; `context` carries what spans cannot show: the
    epochs per `train` call, the external scorer's max_batch and image
    size in bytes, and the files a session wrote."""
    index = SpanIndex(spans)
    m = [s for s in spans if s.request in measured]
    out: dict[str, tuple[float, str]] = {}
    n_requests = max(1, len(measured))

    def per_request(value: float, unit: str) -> tuple[float, str]:
        return value / n_requests, f"{unit}/req"

    # saliency
    gens = [s for s in m if s.name == "saliency.generate"]
    gen_ids = {s.id for s in gens}
    out["saliency.maps"] = per_request(len(gens), "count")
    out["saliency.busy_s"] = per_request(sum(s.duration for s in gens), "s")
    out["saliency.p50_s"] = (_median([s.duration for s in gens]), "s")
    out["saliency.sample_s"] = per_request(_total(m, "saliency.sample"), "s")
    out["saliency.score_s"] = per_request(sum(c.duration for g in gens for c in index.children[g.id]
                                              if c.name == "saliency.score_stack" or c.name in SCORER_CALLS), "s")
    out["saliency.self_s"] = per_request(sum(index.self_time(g) for g in gens), "s")
    out["saliency.segment_s"] = per_request(_total(m, "saliency.segment"), "s")
    out["saliency.degenerate_maps"] = per_request(sum(1 for g in gens if g.attrs.get("degenerate")), "count")
    strata = defaultdict(list)
    for g in gens:
        strata[(g.attrs["method"], g.attrs["mode"])].append(g)
    for (method, mode), group in sorted(strata.items()):
        out[f"saliency.{method}.{mode}.maps"] = per_request(len(group), "count")
        out[f"saliency.{method}.{mode}.busy_s"] = per_request(sum(g.duration for g in group), "s")
        out[f"saliency.{method}.{mode}.p50_s"] = (_median([g.duration for g in group]), "s")

    # scorers: images per map counts every scorer call made inside generate
    calls = [s for s in m if s.name in SCORER_CALLS]
    in_map = defaultdict(int)
    for s in calls:
        gen = index.ancestor(s, ("saliency.generate",))
        if gen is not None and gen.id in gen_ids:
            in_map[(gen.attrs["method"], gen.attrs["mode"])] += s.attrs.get("images", 0) if s.attrs else 0
    scored = sum(s.attrs["images"] for s in calls if s.name in SCORING)
    embedded = sum(s.attrs["images"] for s in calls if s.name == "scorers.embed")
    busy = sum(s.duration for s in calls)
    out["scorers.fit_s"] = (_median([s.duration for s in spans if s.name == "scorers.fit"]), "s")
    out["scorers.images_scored"] = per_request(scored, "count")
    out["scorers.images_embedded"] = per_request(embedded, "count")
    out["scorers.grad_calls"] = per_request(_count(calls, "scorers.grad_query"), "count")
    out["scorers.busy_s"] = per_request(busy, "s")
    out["scorers.images_per_map"] = (sum(in_map.values()) / len(gens) if gens else 0.0, "images/map")
    out["scorers.other_calls"] = per_request(_count(calls, "scorers.other"), "count")
    for (method, mode), group in sorted(strata.items()):
        out[f"scorers.images_per_map.{method}.{mode}"] = (in_map[(method, mode)] / len(group), "images/map")

    # external: round trips and payload follow from batch sizes, max_batch
    # and the image size the scorer's hello announced
    max_batch = context.get("external_max_batch")
    if max_batch:
        trips = sum(math.ceil(s.attrs["images"] / max_batch) for s in calls if s.name in SCORING)
        embeds = _count(calls, "scorers.embed")
        wire = _b64_len(context["external_image_bytes"])
        payload = sum((s.attrs["images"] + math.ceil(s.attrs["images"] / max_batch)) * wire
                      for s in calls if s.name in SCORING) + embeds * wire
        out["external.start_s"] = (_median([s.duration for s in spans if s.name == "external.start"]), "s")
        out["external.busy_s"] = per_request(busy, "s")
        out["external.roundtrips"] = per_request(trips + embeds, "count")
        out["external.payload_mb"] = per_request(payload / 1e6, "MB")
        out["external.s_per_image"] = (busy / (scored + embedded) if scored + embedded else 0.0, "s")
    else:
        out["external.start_s"] = (0, "s")
        out["external.busy_s"] = per_request(0, "s")
        out["external.roundtrips"] = per_request(0, "count")
        out["external.payload_mb"] = per_request(0, "MB")
        out["external.s_per_image"] = (0, "s")

    # optim
    out["optim.lasso_calls"] = per_request(_count(m, "optim.lasso"), "count")
    out["optim.lasso_s"] = per_request(_total(m, "optim.lasso"), "s")
    out["optim.adam_steps"] = per_request(_count(m, "optim.adam_step"), "count")
    out["optim.adam_s"] = per_request(_total(m, "optim.adam_step"), "s")

    # metrics
    out["metrics.curves"] = per_request(_count(m, "metrics.curve"), "count")
    out["metrics.curve_s"] = per_request(_total(m, "metrics.curve"), "s")
    out["metrics.removal_s"] = per_request(_total(m, "metrics.removal"), "s")
    out["metrics.map_s"] = per_request(_total(m, "metrics.map"), "s")

    # attrmodel
    trains = [s for s in m if s.name == "attrmodel.train"]
    epochs = context.get("epochs_per_train", 0) * len(trains)
    train_s = sum(s.duration for s in trains)
    build_s = sum(c.duration for t in trains for c in index.children[t.id] if c.name == "attrmodel.build_samples")
    out["attrmodel.train_s"] = per_request(train_s, "s")
    out["attrmodel.epoch_s"] = ((train_s - build_s) / epochs if epochs else 0.0, "s")
    out["attrmodel.loss_and_grad_s"] = per_request(_total(m, "attrmodel.loss_and_grad"), "s")
    out["attrmodel.forward_calls"] = per_request(_count(m, "attrmodel.forward"), "count")
    out["attrmodel.forward_s"] = per_request(_total(m, "attrmodel.forward"), "s")

    # explain
    features = [s for s in m if s.name == "explain.pair_features"]
    out["explain.pair_features_pairs"] = per_request(sum(s.attrs["pairs"] for s in features), "count")
    out["explain.pair_features_s"] = per_request(sum(s.duration for s in features), "s")
    out["explain.prior_s"] = per_request(_total(m, "explain.prior"), "s")
    out["explain.fit_phi_s"] = per_request(_total(m, "explain.fit_phi"), "s")

    # discovery
    out["discovery.discover_s"] = per_request(_total(m, "discovery.discover"), "s")
    out["discovery.maps"] = per_request(sum(1 for g in gens if index.ancestor(g, ("discovery.discover",))), "count")
    out["discovery.kmeans_s"] = per_request(_total(m, "discovery.kmeans"), "s")
    out["discovery.removal_eval_s"] = per_request(_total(m, "discovery.removal_eval"), "s")

    # cli: a map is useful the first time its (reference, query, config)
    # appears within one command
    by_command = defaultdict(set)
    cli_calls = 0
    for g in gens:
        command = index.ancestor(g, COMMANDS)
        if command is not None:
            cli_calls += 1
            by_command[command.id].add(g.attrs["key"])
    distinct = sum(len(keys) for keys in by_command.values())
    pools = [s for s in m if s.name == "cli.pool"]
    pool_capacity = sum(s.attrs["jobs"] * s.duration for s in pools)
    out["cli.run_eval_s"] = per_request(_total(m, "cli.run_eval"), "s")
    out["cli.generate_calls"] = per_request(cli_calls, "count")
    out["cli.distinct_maps"] = per_request(distinct, "count")
    out["cli.map_useful_ratio"] = (distinct / cli_calls if cli_calls else 0.0, "ratio")
    out["cli.pool_busy_frac"] = (_total(m, "cli.pool_task") / pool_capacity if pool_capacity else 0.0, "ratio")

    # synth and dataio
    out["synth.generate_s"] = (_median([s.duration for s in spans if s.name == "synth.generate"]), "s")
    out["dataio.save_s"] = per_request(_total(m, "dataio.save"), "s")
    out["dataio.load_s"] = per_request(_total(m, "dataio.load"), "s")
    out["dataio.files_written"] = (context.get("files_written", 0), "count")

    # self time per layer, and how much of the client's time named spans cover
    layer_self = defaultdict(float)
    for s in m:
        layer_self[s.name.split(".", 1)[0]] += index.self_time(s)
    for layer, value in sorted(layer_self.items()):
        out[f"self.{layer}_s"] = per_request(value, "s")
    units = [s for s in m if s.name == "client.command"] or [s for s in m if s.name == "client.request"]
    covered = 0.0
    for unit in units:
        for child in index.children[unit.id]:
            if child.name in COMMANDS:
                covered += sum(c.duration for c in index.children[child.id])
            else:
                covered += child.duration
    wall = sum(u.duration for u in units)
    out["trace.coverage"] = (covered / wall if wall else 0.0, "ratio")
    pipeline_units = [u for u in units if any(c.name == "cli.pipeline" for c in index.children[u.id])]
    if pipeline_units:
        named = sum(c.duration for u in pipeline_units for p in index.children[u.id] for c in index.children[p.id])
        out["trace.pipeline_coverage"] = (named / sum(u.duration for u in pipeline_units), "ratio")
    out["trace.spans"] = per_request(len(m), "count")
    return out
