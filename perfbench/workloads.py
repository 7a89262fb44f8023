"""The four closed-loop workloads. One client sends each request only after
the previous one has finished.

Every workload builds its inputs from the seed alone, calls the library
through module attributes (so the traced run's wrappers see each call)
and never edits the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from simexplain import cli, external, metrics, saliency, scorers, synth
from simexplain.core import Method

import gate
from tracing import CountingScorer, Tracer

METHODS = {"sliding_window": Method.SLIDING_WINDOW, "rise": Method.RISE,
           "lime": Method.LIME, "mask": Method.MASK}


@dataclass
class Outcome:
    """One request as the client saw it."""

    index: int                 # position in the request stream
    label: str                 # latency stratum: "<method>/<mode>" or "session"
    seconds: float
    cpu: float = 0.0           # CPU seconds, see cpu_seconds()
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)  # what the reference stores

    @property
    def ok(self) -> bool:
        return not self.problems


def cpu_seconds() -> float:
    """CPU time of this process and of its children, live (the stub
    scorer, read from /proc) or already waited for.

    Steal time on a shared host stretches wall time but not CPU time, so
    this is the steady measure of the work a request or a set-up costs."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = process_time() + reaped.ru_utime + reaped.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    for children in Path("/proc/self/task").glob("*/children"):
        for pid in children.read_text().split():
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue  # the child exited between the two reads
            total += (int(fields[11]) + int(fields[12])) / tick
    return total


def _timed(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), inside a span when the run is traced."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, args, kwargs)


class ExplainWorkload:
    """Requests are (test pair, method): `generate`, then the insertion and
    deletion curves, on one scorer built in set-up. A round sends every
    method of the workload for one pair."""

    def __init__(self, methods: tuple[str, ...], fixed: bool,
                 n_pairs: int | None = None, use_external: bool = False):
        self.methods = methods
        self.fixed = fixed
        self.n_pairs = n_pairs
        self.use_external = use_external
        self.round_len = len(methods)
        self.scorer = None
        self.wire: dict = {}

    def setup(self, seed: int, tracer: Tracer | None) -> None:
        self.close()
        self.dataset = _timed(tracer, "synth.generate", synth.generate_dataset, synth.SyntheticSpec(seed=seed))
        if self.use_external:
            command = [sys.executable, "-m", "simexplain", "serve-stub", "--seed", str(seed)]
            scorer = _timed(tracer, "external.start", external.ExternalScorer, command=command)
            # the peer's hello fixes the wire: images per chunk and f32 bytes per image
            self.wire = {"external_max_batch": scorer.caps.max_batch,
                         "external_image_bytes": 4 * math.prod(scorer.dims)}
        else:
            scorer = _timed(tracer, "scorers.fit", scorers.TripletToyScorer.train_on, self.dataset, seed=seed)
        self.scorer = CountingScorer(scorer, tracer) if tracer is not None else scorer
        pairs = self.dataset.pairs_for_split("test")[: self.n_pairs]
        self.stream = [(p, m) for p in pairs for m in self.methods]
        self.configs = {m: saliency.SaliencyConfig(method=METHODS[m], fixed_reference=self.fixed, seed=seed)
                        for m in self.methods}

    def request(self, index: int) -> Outcome:
        pair, method = self.stream[index % len(self.stream)]
        cfg = self.configs[method]
        ref = self.dataset.image(pair.reference_id)
        query = self.dataset.image(pair.query_id)
        mode = "fixed" if self.fixed else "dual"
        start, start_cpu = perf_counter(), cpu_seconds()
        try:
            smap = saliency.generate(self.scorer, ref, query, cfg)
            ins = metrics.insertion_curve(self.scorer, ref, query, smap).auc
            dele = metrics.deletion_curve(self.scorer, ref, query, smap).auc
        except Exception as exc:  # a failed request is counted, the loop goes on
            return Outcome(index, f"{method}/{mode}", perf_counter() - start,
                           problems=[f"{type(exc).__name__}: {exc}"])
        seconds, cpu = perf_counter() - start, cpu_seconds() - start_cpu
        shape = (cfg.mask.grid,) * 2 if method == "mask" else ref.shape[:2]
        problems = gate.check_map(smap.data, shape) + gate.check_auc(ins) + gate.check_auc(dele)
        record = {"pair": f"{pair.query_id}:{pair.reference_id}", "method": method, "mode": mode,
                  "map": gate.map_summary(smap.data), "insertion_auc": ins, "deletion_auc": dele}
        return Outcome(index, f"{method}/{mode}", seconds, cpu, problems,
                       {"insertion_auc": 100.0 * ins, "deletion_auc": 100.0 * dele,
                        "degenerate": bool(smap.degenerate)}, record)

    def reference_problems(self, outcome: Outcome, reference: list[dict]) -> list[str]:
        return gate.compare_request(outcome.record, reference[outcome.index % len(reference)])

    def layer_context(self, outcomes: list[Outcome]) -> dict:
        """What the per-layer metrics need and spans cannot show."""
        return dict(self.wire)

    def stream_length(self) -> int:
        return len(self.stream)

    def close(self) -> None:
        if self.scorer is not None:
            self.scorer.close()
            self.scorer = None


class StudyWorkload:
    """A user session through the command line: `pipeline` at reduced
    sizes, then `discover` on the dataset it wrote. Every session repeats
    the same inputs, so each must write byte-identical reports."""

    round_len = 1
    # Sizes chosen so one session takes a few seconds on one core; the
    # default-size pipeline (64 images) is reproduced by reproduce.py.
    # Four attributes and two pairs per query give every seed nearly the
    # same number of pairs per split (maps per session vary by about 3%
    # over seeds, against 14% with six attributes and three pairs).
    EPOCHS = 10
    PIPELINE = ["--n-images", "24", "--attributes", "4", "--epochs", str(EPOCHS),
                "--rise-masks", "150", "--methods", "rise,sliding_window", "--limit", "4"]
    DISCOVER = ["--method", "sliding_window", "--k", "2", "--top-n", "1", "--clusters", "3"]
    CONFIG = {"synth": {"pairs_per_query": 2}, "saliency": {"sliding": {"windows_query": 100}}}

    def __init__(self, workdir: Path, jobs: int):
        self.workdir = workdir
        self.jobs = jobs
        self.first: dict[str, str] = {}

    def setup(self, seed: int, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = self.workdir / "config.json"
        self.config.write_text(json.dumps(self.CONFIG), encoding="utf-8")

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return _timed(self.tracer, "client.command", cli.main, argv)

    def request(self, index: int) -> Outcome:
        out = self.workdir / "session"
        shutil.rmtree(out, ignore_errors=True)
        seed = str(self.seed)
        start, start_cpu = perf_counter(), cpu_seconds()
        try:
            rc_pipe = self._main(["pipeline", "--seed", seed, "--jobs", str(self.jobs),
                                  "--config", str(self.config), "--out", str(out),
                                  *self.PIPELINE])
            mid = perf_counter()
            rc_disc = self._main(["discover", "--seed", seed, "--jobs", str(self.jobs),
                                  "--dataset", str(out / "dataset" / "manifest.json"),
                                  "--config", str(self.config), "--out", str(out / "discover.json"),
                                  *self.DISCOVER]) if rc_pipe == 0 else None
            end, cpu = perf_counter(), cpu_seconds() - start_cpu
            if rc_pipe != 0 or rc_disc != 0:
                return Outcome(index, "session", end - start,
                               problems=[f"pipeline exit {rc_pipe}, discover exit {rc_disc}"])
            problems, values, record = self._read_outputs(out)
        except Exception as exc:  # a failed session is counted, the loop goes on
            return Outcome(index, "session", perf_counter() - start,
                           problems=[f"{type(exc).__name__}: {exc}"])
        values.update(pipeline_s=mid - start, discover_s=end - mid)
        return Outcome(index, "session", end - start, cpu, problems, values, record)

    def _read_outputs(self, out: Path) -> tuple[list[str], dict, dict]:
        """Gate problems, figures and reference record of one session's
        `report.json` and `discover.json`."""
        report_bytes = (out / "report.json").read_bytes()
        discover_bytes = (out / "discover.json").read_bytes()
        report = json.loads(report_bytes)
        payload = json.loads(discover_bytes)
        digests = {"report": hashlib.sha256(report_bytes).hexdigest(),
                   "discover": hashlib.sha256(discover_bytes).hexdigest()}
        problems = gate.check_report(report) + gate.check_discover(payload)
        for key, digest in digests.items():
            if self.first.setdefault(key, digest) != digest:
                problems.append(f"{key}.json differs from the first session of this run")
        attr = report["attribute"]
        rows = report["saliency"].values()
        values = {
            "insertion_auc": float(np.mean([r["insertion_auc"] for r in rows])),
            "deletion_auc": float(np.mean([r["deletion_auc"] for r in rows])),
            "top1_full_pct": attr["top1"]["full"],
            "top1_gap_pct": attr["top1"]["full"] - attr["top1"]["confidence_only"],
            "removal_delta_full": attr["removal"]["full"]["delta"],
            "files_written": sum(1 for p in out.rglob("*") if p.is_file()),
        }
        record = {"report": report, "report_sha256": digests["report"],
                  "discover": payload, "discover_sha256": digests["discover"]}
        return problems, values, record

    def reference_problems(self, outcome: Outcome, reference: dict) -> list[str]:
        return gate.compare_session(outcome.record, reference)

    def layer_context(self, outcomes: list[Outcome]) -> dict:
        """What the per-layer metrics need and spans cannot show."""
        written = [o.values["files_written"] for o in outcomes if o.ok]
        return {"epochs_per_train": self.EPOCHS, "files_written": statistics.median(written) if written else 0}

    def stream_length(self) -> int:
        return 1

    def close(self) -> None:
        shutil.rmtree(self.workdir / "session", ignore_errors=True)


def build(name: str, workdir: Path, jobs: int):
    if name == "explain-fixed":
        return ExplainWorkload(("sliding_window", "rise", "lime", "mask"), fixed=True)
    if name == "explain-dual":
        return ExplainWorkload(("mask", "sliding_window", "rise"), fixed=False, n_pairs=6)
    if name == "explain-external":
        return ExplainWorkload(("sliding_window", "lime", "rise"), fixed=True, use_external=True)
    if name == "study":
        return StudyWorkload(workdir, jobs)
    raise KeyError(name)
