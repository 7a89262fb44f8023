"""Span recording for the traced run, from outside the library.

The traced run replaces the names that the library modules bind (for
example ``simexplain.cli.generate`` or ``simexplain.saliency.sample_rise_masks``)
with wrappers that record one span per call, and wraps the scorer in
:class:`CountingScorer`. Spans live in memory and are written once, after
the run. Nothing here edits ``src/``; :meth:`Patches.undo` restores every
name it replaced.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    parent: int        # 0 at the root of a thread
    name: str
    start: float       # perf_counter seconds
    end: float
    thread: int
    request: object    # the client request the span belongs to
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. Each thread keeps its own stack of open spans, so a
    span's parent is the innermost span open on the same thread; pool
    workers are re-parented through :meth:`adopt`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name: str, fn, args=(), kwargs=None, attrs: dict | None = None,
             parent: int | None = None, result_attrs=None):
        """Run fn(*args, **kwargs) inside a span named `name`;
        `result_attrs(result)` may add attributes once the call returns."""
        stack = self._stack()
        span_id = next(self._ids)
        parent_id = (stack[-1] if stack else 0) if parent is None else parent
        stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            if result_attrs is not None:
                attrs = {**(attrs or {}), **result_attrs(result)}
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent_id, name, start, end,
                                   threading.get_ident(), self.request, attrs))

    def wrap(self, name: str, fn, attrs_of=None, result_attrs=None):
        """A function that records a span around each call of `fn`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of is not None else None
            return self.call(name, fn, args, kwargs, attrs, result_attrs=result_attrs)

        return traced

    def adopt(self, fn, parent: int, name: str):
        """Wrap a pool task so its span hangs under `parent` on any thread."""

        @functools.wraps(fn)
        def task(*args, **kwargs):
            return self.call(name, fn, args, kwargs, parent=parent)

        return task

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                    "end": s.end, "thread": s.thread, "request": s.request, "attrs": s.attrs,
                }, default=str) + "\n")


# ---------------------------------------------------------------------------
# Counting scorer proxy
# ---------------------------------------------------------------------------


def _images_in(name: str, args) -> int:
    # args are the bound method's: (ref, queries) for the batch calls
    if name == "score_batch":
        return len(args[1])
    if name == "score_batch_flat":
        return int(args[1].shape[0])
    return 1


class CountingScorer:
    """Forwards every attribute of the wrapped scorer.

    Calls to ``score``, ``score_batch``, ``score_batch_flat``, ``embed`` and
    ``grad_query`` record a ``scorers.<name>`` span carrying the number of
    images. Any other callable the library reaches for is forwarded too,
    but lands in a ``scorers.other`` span, so a new capability shows up in
    the counts instead of hiding. ``getattr`` on a capability the wrapped
    scorer lacks still raises ``AttributeError``, so capability probes in
    the library see exactly what they would see without the proxy.
    """

    COUNTED = ("score", "score_batch", "score_batch_flat", "embed", "grad_query")
    _LIFECYCLE = ("close", "__enter__", "__exit__")

    def __init__(self, inner, tracer: Tracer):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", tracer)

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if not callable(value) or name in self._LIFECYCLE:
            return value
        tracer = self._tracer
        if name in self.COUNTED:
            return tracer.wrap(f"scorers.{name}", value,
                               lambda args, kwargs, _n=name: {"images": _images_in(_n, args)})
        return tracer.wrap("scorers.other", value, lambda args, kwargs, _n=name: {"attr": _n})

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._inner.close()
        return False


# ---------------------------------------------------------------------------
# Patch table: the names each library module binds, and the span they get
# ---------------------------------------------------------------------------


def _generate_attrs(args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return {"method": cfg.method.name.lower(), "mode": "fixed" if cfg.fixed_reference else "dual",
            "key": (_image_key(args[1]), _image_key(args[2]), cfg)}


def _image_key(image) -> int:
    data = getattr(image, "data", image)
    return hash(data.tobytes())


def _pairs_attrs(args, kwargs):
    return {"pairs": len(args[3])}


def _map_attrs(smap):
    return {"degenerate": bool(smap.degenerate)}


# (module, attribute, span name, attrs function). A dotted attribute
# names a method on a class the module defines.
FUNCTION_SPANS = [
    ("simexplain.saliency", "sample_rise_masks", "saliency.sample", None),
    ("simexplain.saliency", "score_image_stack", "saliency.score_stack", None),
    ("simexplain.saliency", "grid_segments", "saliency.segment", None),
    ("simexplain.saliency", "slic_like_segments", "saliency.segment", None),
    ("simexplain.saliency", "lasso_coordinate_descent", "optim.lasso", None),
    ("simexplain.optim", "Adam.step", "optim.adam_step", None),
    ("simexplain.metrics", "insertion_curve", "metrics.curve", None),
    ("simexplain.metrics", "deletion_curve", "metrics.curve", None),
    ("simexplain.metrics", "mean_average_precision", "metrics.mean_ap", None),
    ("simexplain.cli", "insertion_curve", "metrics.curve", None),
    ("simexplain.cli", "deletion_curve", "metrics.curve", None),
    ("simexplain.cli", "attribute_removal_delta", "metrics.removal", None),
    ("simexplain.cli", "map_metric", "metrics.map", None),
    ("simexplain.attrmodel", "build_samples", "attrmodel.build_samples", None),
    ("simexplain.attrmodel", "loss_and_grad", "attrmodel.loss_and_grad", None),
    ("simexplain.attrmodel", "AttributeModel.forward", "attrmodel.forward", None),
    ("simexplain.cli", "train", "attrmodel.train", None),
    ("simexplain.cli", "pair_features", "explain.pair_features", _pairs_attrs),
    ("simexplain.cli", "estimate_prior", "explain.prior", None),
    ("simexplain.cli", "fit_phi", "explain.fit_phi", None),
    ("simexplain.cli", "discover", "discovery.discover", None),
    ("simexplain.cli", "removal_eval_discovered", "discovery.removal_eval", None),
    ("simexplain.discovery", "kmeans", "discovery.kmeans", None),
    ("simexplain.cli", "run_eval", "cli.run_eval", None),
    ("simexplain.cli", "cmd_pipeline", "cli.pipeline", None),
    ("simexplain.cli", "cmd_discover", "cli.discover", None),
    ("simexplain.synth", "generate_dataset", "synth.generate", None),
    ("simexplain.cli", "generate_dataset", "synth.generate", None),
    ("simexplain.cli", "save_dataset", "dataio.save", None),
    ("simexplain.cli", "save_saliency", "dataio.save", None),
    ("simexplain.cli", "save_model", "dataio.save", None),
    ("simexplain.cli", "dump_json", "dataio.save", None),
    ("simexplain.cli", "write_pgm", "dataio.save", None),
    ("simexplain.cli", "load_dataset", "dataio.load", None),
    ("simexplain.cli", "load_saliency", "dataio.load", None),
] + [
    (module, "generate", "saliency.generate", _generate_attrs)
    for module in ("simexplain.saliency", "simexplain.cli", "simexplain.explain", "simexplain.discovery")
]


class Patches:
    """Installs the traced wrappers and the scorer proxy; `undo` restores."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Patches":
        tracer = self.tracer
        for module_name, dotted, span_name, attrs_of in FUNCTION_SPANS:
            owner = importlib.import_module(module_name)
            *outer, attr = dotted.split(".")
            for part in outer:
                owner = getattr(owner, part)
            result_attrs = _map_attrs if span_name == "saliency.generate" else None
            self._replace(owner, attr, tracer.wrap(span_name, owner.__dict__[attr], attrs_of, result_attrs))

        cli = importlib.import_module("simexplain.cli")
        make_scorer = cli.make_scorer

        def traced_make_scorer(*args, **kwargs):
            return CountingScorer(tracer.call("scorers.fit", make_scorer, args, kwargs), tracer)

        self._replace(cli, "make_scorer", traced_make_scorer)

        parallel_map = cli._parallel_map

        def traced_parallel_map(fn, items, jobs):
            items = list(items)

            def run():
                task = tracer.adopt(fn, tracer.current(), "cli.pool_task")
                return parallel_map(task, items, jobs)

            return tracer.call("cli.pool", run, attrs={"jobs": jobs, "items": len(items)})

        self._replace(cli, "_parallel_map", traced_parallel_map)
        return self

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
