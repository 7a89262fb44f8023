"""The benchmark's own tests: python3 -m pytest perfbench -q

They check the pieces the benchmark's figures rest on: the scorer proxy
changes no output, the correctness gate counts a corrupted output as
failed, and per-layer counts do not grow with the length of a run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import simexplain as se  # noqa: E402
from simexplain import saliency  # noqa: E402
from simexplain.optim import Adam  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import CountingScorer, Patches, Span, Tracer  # noqa: E402
from workloads import ExplainWorkload, Outcome, StudyWorkload  # noqa: E402


@pytest.fixture(scope="module")
def pair():
    dataset = se.generate_dataset(se.SyntheticSpec(n_images=8, seed=5))
    p = dataset.pairs[0]
    scorer = se.LinearToyScorer.random(dataset.images[0][1].shape, seed=5)
    return scorer, dataset.image(p.reference_id), dataset.image(p.query_id)


@pytest.mark.parametrize("method", [se.Method.RISE, se.Method.SLIDING_WINDOW])
@pytest.mark.parametrize("fixed", [True, False])
def test_proxy_maps_are_byte_equal(pair, method, fixed):
    scorer, ref, query = pair
    cfg = dataclasses.replace(se.SaliencyConfig(seed=3), method=method, fixed_reference=fixed,
                              rise=se.RiseCfg(n_masks=300, n_ref_masks=4),
                              sliding=se.SlidingCfg(windows_query=49, windows_ref=4))
    tracer = Tracer()
    raw = saliency.generate(scorer, ref, query, cfg)
    proxied = saliency.generate(CountingScorer(scorer, tracer), ref, query, cfg)
    assert proxied.data.tobytes() == raw.data.tobytes()
    assert proxied.method == raw.method and proxied.fixed_reference == raw.fixed_reference
    images = sum(s.attrs["images"] for s in tracer.spans if s.name == "scorers.score_batch_flat")
    per_ref = 300 if method == se.Method.RISE else 49 + 1
    assert images == per_ref * (1 if fixed else 4)


def test_proxy_forwards_and_counts_unknown_capabilities(pair):
    scorer, ref, query = pair

    class Extended:
        dims = scorer.dims
        caps = scorer.caps

        def embed_batch(self, images):
            return [scorer.embed(i) for i in images]

    tracer = Tracer()
    proxy = CountingScorer(Extended(), tracer)
    assert len(proxy.embed_batch([ref, query])) == 2
    assert [s.attrs for s in tracer.spans] == [{"attr": "embed_batch"}]
    assert proxy.dims == scorer.dims
    with pytest.raises(AttributeError):
        proxy.score_batch_flat  # noqa: B018  (capability probes must still fail)


def test_patches_restore_every_name():
    import simexplain.cli as cli

    before = {name: getattr(cli, name) for name in ("generate", "make_scorer", "_parallel_map", "train")}
    step = Adam.step
    patches = Patches(Tracer()).install()
    assert cli.generate is not before["generate"]
    patches.undo()
    assert {name: getattr(cli, name) for name in before} == before
    assert Adam.step is step


def _record(data, ins=0.6, dele=0.3):
    return {"pair": "q:r", "method": "rise", "mode": "fixed", "map": gate.map_summary(data),
            "insertion_auc": ins, "deletion_auc": dele}


def test_gate_structural_checks():
    good = np.linspace(0.0, 1.0, 56 * 56).reshape(56, 56)
    assert gate.check_map(good, (56, 56)) == []
    assert gate.check_map(good, (14, 14))
    assert gate.check_map(np.where(good > 0.5, np.nan, good), (56, 56))
    assert gate.check_map(good * 1.5, (56, 56))
    assert gate.check_auc(0.5) == [] and gate.check_auc(1.2) and gate.check_auc(float("nan"))


def test_gate_reference_comparison_catches_corruption():
    rng = np.random.default_rng(0)
    data = rng.random((56, 56))
    want = _record(data)
    assert gate.compare_request(_record(data), want) == []
    assert gate.compare_request(_record(data + 1e-9), want) == []
    assert gate.compare_request(_record(data.T), want)
    assert gate.compare_request(_record(data, ins=0.6 + 2 * gate.AUC_TOL), want)
    report = {"counts": {"test_pairs": 6}, "attribute": {"top1": {"full": 50.0}}}
    assert gate.compare_values(report, report) == []
    assert gate.compare_values({"counts": {"test_pairs": 5}, "attribute": {"top1": {"full": 50.0}}}, report)
    assert gate.compare_values({"counts": {"test_pairs": 6}, "attribute": {"top1": {"full": 50.1}}}, report)


def test_corrupted_request_is_counted_as_failed(monkeypatch):
    workload = ExplainWorkload(("sliding_window",), fixed=True)
    workload.setup(11, None)
    try:
        clean = workload.request(0)
        assert clean.ok, clean.problems

        real = saliency.generate

        def out_of_range(*args):
            smap = real(*args)
            return se.SaliencyMap(smap.data * 2.0, method=smap.method)

        monkeypatch.setattr(saliency, "generate", out_of_range)
        assert not workload.request(0).ok

        def mirrored(*args):
            smap = real(*args)
            return se.SaliencyMap(smap.data[::-1].copy(), method=smap.method, normalized=True)

        monkeypatch.setattr(saliency, "generate", mirrored)
        subtle = workload.request(0)
    finally:
        workload.close()
    assert subtle.ok  # in range and of the right shape: only the reference can tell
    assert workload.reference_problems(subtle, [clean.record])


def test_latency_summaries():
    assert run.tail_percentile(19) == 100
    assert run.tail_percentile(36) == 72
    outcomes = [Outcome(i, label, t) for i, (label, t) in
                enumerate([("a", 1.0), ("a", 3.0), ("b", 10.0), ("b", 30.0)])]
    assert run.stratified(outcomes, 0.5) == pytest.approx((2.0 + 20.0) / 2)


def test_unreadable_session_output_is_counted_as_failed(monkeypatch, tmp_path):
    discover = {"n_clusters": 1, "patches": [{"cluster": 0}], "removal": {}}

    def fake_main(argv, report_text):
        target = Path(argv[argv.index("--out") + 1])
        if argv[0] == "pipeline":
            target.mkdir(parents=True)
            (target / "report.json").write_text(report_text, encoding="utf-8")
        else:
            target.write_text(json.dumps(discover), encoding="utf-8")
        return 0

    workload = StudyWorkload(tmp_path, jobs=1)
    workload.setup(7, None)
    for report_text in ('{"attribute": {"top1"', json.dumps({"attribute": {}})):
        monkeypatch.setattr(workloads.cli, "main", lambda argv, _t=report_text: fake_main(argv, _t))
        outcome = workload.request(0)
        assert not outcome.ok and outcome.problems
    workload.close()


def test_gate_reports_a_report_without_counts():
    report = {"attribute": {"map": 50.0, "top1": {}, "removal": {}, "phi": [1.0, 1.0, 1.0]}, "saliency": {}}
    assert gate.check_report(report) == ["report lacks 'counts'"]


def _spans(n_requests: int) -> list[Span]:
    """Each request: one RISE map scoring 300 images, then one curve."""
    spans, ids = [], iter(range(1, 10_000))
    for r in range(n_requests):
        root, gen = next(ids), next(ids)
        spans += [
            Span(next(ids), gen, "scorers.score_batch_flat", r + 0.1, r + 0.5, 0, r, {"images": 300}),
            Span(gen, root, "saliency.generate", r, r + 0.6, 0, r,
                 {"method": "rise", "mode": "fixed", "key": r, "degenerate": False}),
            Span(next(ids), root, "metrics.curve", r + 0.6, r + 0.9, 0, r, None),
            Span(root, 0, "client.request", r, r + 1.0, 0, r, None),
        ]
    return spans


def test_per_layer_counts_are_per_request():
    short = layers.summarize(_spans(2), {0, 1}, {})
    long = layers.summarize(_spans(6), set(range(6)), {})
    for name in ("saliency.maps", "saliency.busy_s", "scorers.images_scored", "scorers.busy_s",
                 "metrics.curves", "trace.spans"):
        assert short[name][0] == pytest.approx(long[name][0]), name
    assert long["scorers.images_scored"] == (300.0, "count/req")
    assert long["scorers.images_per_map"] == (300.0, "images/map")


def test_benchmark_json_units_match_the_metrics():
    table = layers.summarize(_spans(1), {0}, {"external_max_batch": 64, "external_image_bytes": 4})
    table["trace.request_p50_s"] = (0.0, "s")  # added by run.py from the end-to-end figures
    assert {m["name"]: m["unit"] for m in run.SPEC["per_layer"]} == {k: table[k][1] for k in run.PER_LAYER}
    assert set(run.END_TO_END).isdisjoint(run.UNBOUNDED)
