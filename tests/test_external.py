import dataclasses
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simexplain as se
from simexplain import external
from simexplain.errors import InvalidArgumentError, TransportError, UnsupportedError
from simexplain.external import (
    ExternalScorer,
    _encode_bits,
    _handle_line,
    _masks_of,
    _ScoreOnly,
    decode_f32,
    encode_f32,
)
from simexplain.metrics import deletion_curve, insertion_curve
from simexplain.saliency import (
    LimeCfg,
    RiseCfg,
    SaliencyConfig,
    SlidingCfg,
    _masked,
    _Selections,
    sample_rise_masks,
    score_masked,
)

from conftest import ConstantScorer, assert_query_maps_equal_single_pairs

DIMS = (10, 10, 3)


def stub_command(*extra):
    return [sys.executable, "-m", "simexplain", "serve-stub",
            "--dims", "10,10,3", "--embed-dim", "6", "--seed", "31", *extra]


HELLO = {"caps": ["score", "embed"], "max_batch": 4, "dims": list(DIMS)}


@pytest.fixture
def spawned(monkeypatch):
    """Every child process started while the test runs; one still running
    at its end is killed."""
    procs = []
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        procs.append(real_popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    yield procs
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def scripted_peer(hello, reply=None):
    """A stdio peer answering hello with `hello` and any other request with
    `reply`; the request id is added to each reply that is a JSON object."""
    script = ("import json, sys\n"
              f"hello, reply = json.loads({json.dumps([hello, reply])!r})\n"
              "for line in sys.stdin:\n"
              "    req = json.loads(line)\n"
              "    out = hello if req['op'] == 'hello' else reply\n"
              "    if isinstance(out, dict):\n"
              "        out = {'id': req['id'], **out}\n"
              "    print(json.dumps(out), flush=True)\n")
    return [sys.executable, "-c", script]


def bool_masks(rng, n, shape=DIMS[:2]):
    """n random boolean keep masks, as choices of one-pixel superpixels."""
    h, w = shape
    return _Selections(rng.random((n, h * w)) < 0.5, np.arange(h * w).reshape(h, w))


@pytest.fixture(scope="module")
def reference():
    return se.LinearToyScorer.random(DIMS, embed_dim=6, seed=31)


class TestCodec:
    def test_roundtrip(self, rng):
        arr = rng.random(30).astype(np.float32)
        np.testing.assert_array_equal(decode_f32(encode_f32(arr)).astype(np.float32), arr)

    def test_bad_base64(self):
        with pytest.raises(InvalidArgumentError):
            decode_f32("not@@base64!!")


class TestStdioRoundTrip:
    def test_scores_match_in_process(self, reference, rng):
        with ExternalScorer(command=stub_command()) as ext:
            assert ext.dims == DIMS
            assert ext.caps.can_embed and ext.caps.max_batch == external._MAX_BATCH == 64
            ref = rng.random(DIMS).astype(np.float32)
            queries = [rng.random(DIMS).astype(np.float32) for _ in range(40)]
            got = ext.score_batch(ref, queries)
            want = reference.score_batch(ref, queries)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_chunked_equals_reference(self, reference, rng):
        # 150 queries at max_batch=64 force three protocol chunks
        with ExternalScorer(command=stub_command()) as ext:
            ref = rng.random(DIMS).astype(np.float32)
            queries = [rng.random(DIMS).astype(np.float32) for _ in range(150)]
            np.testing.assert_allclose(ext.score_batch(ref, queries),
                                       reference.score_batch(ref, queries), atol=1e-6)

    def test_each_chunk_is_encoded_just_before_its_request(self, rng):
        # 150 queries at max_batch=64: the reference, then each chunk's
        # queries, are base64-encoded right before the request that sends them
        events = []
        with ExternalScorer(command=stub_command()) as ext:
            encode, call = ext._encode_image, ext._call
            ext._encode_image = lambda image: events.append("encode") or encode(image)
            ext._call = lambda payload: events.append("call") or call(payload)
            ext.score_batch(rng.random(DIMS), [rng.random(DIMS) for _ in range(150)])
        assert events == ["encode"] * 65 + ["call"] + ["encode"] * 64 + ["call"] + ["encode"] * 22 + ["call"]

    def test_scripted_peer_max_batch_chunks_the_queries(self, monkeypatch, rng):
        # the client chunks at the max_batch the peer's hello advertises
        with ExternalScorer(command=scripted_peer(HELLO, {"scores": [0.5, -0.5, 0.25, 0.0]})) as ext:
            sent = []
            call = ext._call
            monkeypatch.setattr(ext, "_call", lambda payload: sent.append(len(payload["queries"])) or call(payload))
            got = ext.score_batch(rng.random(DIMS), [rng.random(DIMS) for _ in range(8)])
        assert sent == [4, 4]
        np.testing.assert_array_equal(got, [0.5, -0.5, 0.25, 0.0] * 2)

    def test_embed_roundtrip(self, reference, rng):
        with ExternalScorer(command=stub_command()) as ext:
            img = rng.random(DIMS).astype(np.float32)
            got = ext.embed(img)
            want = reference.embed(img)
            assert got.dim == want.dim
            np.testing.assert_allclose(got.data, want.data, rtol=1e-5, atol=1e-5)

    def test_embed_unsupported(self, rng):
        with ExternalScorer(command=stub_command("--no-embed")) as ext:
            assert not ext.caps.can_embed
            with pytest.raises(UnsupportedError):
                ext.embed(rng.random(DIMS).astype(np.float32))

    def test_requests_start_no_thread(self, monkeypatch, rng):
        # the deadline watchdog starts with the child and ends with it:
        # threads that come and go per request race anything that lists
        # this process's tasks
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        with ExternalScorer(command=stub_command()) as ext:
            assert len(started) == 1
            for _ in range(3):
                ext.score_batch(rng.random(DIMS), [rng.random(DIMS) for _ in range(20)])
                score_masked(ext, [rng.random(DIMS)], rng.random(DIMS), bool_masks(rng, 20))
            assert len(started) == 1
        assert not started[0].is_alive()

    def test_concurrent_submitters_share_one_connection(self, reference, rng):
        with ExternalScorer(command=stub_command()) as ext:
            ref = rng.random(DIMS).astype(np.float32)
            queries = [rng.random(DIMS).astype(np.float32) for _ in range(24)]
            want = reference.score_batch(ref, queries)

            # more submitters than cores, switching often, share the one
            # connection: an interleaved request would mismatch its id
            results = [None] * 4

            def worker(k):
                results[k] = ext.score_batch(ref, queries)

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(results))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            np.testing.assert_allclose(results[0], want, atol=1e-6)
            for got in results[1:]:
                np.testing.assert_array_equal(results[0], got)

    def test_single_score(self, reference, rng):
        with ExternalScorer(command=stub_command()) as ext:
            a, b = rng.random(DIMS).astype(np.float32), rng.random(DIMS).astype(np.float32)
            assert ext.score(a, b) == pytest.approx(reference.score(a, b), abs=1e-6)


class TestTransportRecovery:
    def test_one_retry_on_dead_peer(self, tmp_path, reference, rng):
        # a one-shot server answers a single request per process lifetime,
        # so every call after the handshake must go through the retry path
        script = tmp_path / "oneshot.py"
        script.write_text(
            "import sys, itertools\n"
            "from simexplain.scorers import LinearToyScorer\n"
            "from simexplain.external import _handle_line\n"
            "scorer = LinearToyScorer.random((10, 10, 3), embed_dim=6, seed=31)\n"
            "last = [0]\n"
            "for line in itertools.islice(sys.stdin, 1):\n"
            "    sys.stdout.write(_handle_line(line, scorer, last) + '\\n')\n"
            "    sys.stdout.flush()\n"
        )
        with ExternalScorer(command=[sys.executable, str(script)]) as ext:
            ref = rng.random(DIMS).astype(np.float32)
            q = rng.random(DIMS).astype(np.float32)
            got = ext.score_batch(ref, [q])
            assert got[0] == pytest.approx(reference.score(ref, q), abs=1e-6)

    def test_hung_stdio_peer_misses_the_deadline(self, monkeypatch, spawned, rng):
        deadline = 0.5
        monkeypatch.setattr(external, "_DEADLINE_S", deadline)
        # answers the hello, then reads every other request and never replies
        peer = ("import json, sys\n"
                "for line in sys.stdin:\n"
                "    req = json.loads(line)\n"
                "    if req['op'] == 'hello':\n"
                f"        print(json.dumps({{'id': req['id'], **{HELLO!r}}}), flush=True)\n")
        ext = ExternalScorer(command=[sys.executable, "-c", peer])
        raised = []

        def call():
            try:
                ext.score_batch(rng.random(DIMS), [rng.random(DIMS)])
            except Exception as exc:
                raised.append(exc)

        start = time.monotonic()
        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(timeout=10 * deadline)
        elapsed = time.monotonic() - start
        try:
            assert not worker.is_alive(), "the call is still blocked on the hung peer"
            assert len(raised) == 1 and isinstance(raised[0], TransportError)
            # the request and its one retry each wait out the deadline
            assert 2 * deadline <= elapsed < 4 * deadline
            assert len(spawned) == 2
            assert all(proc.returncode is not None for proc in spawned)  # killed and reaped
        finally:
            while worker.is_alive():  # a call blocked past its deadline holds the scorer's lock
                for proc in spawned:
                    proc.kill()
                worker.join(timeout=1)
            ext.close()


class TestServerValidation:
    def _call(self, scorer, line, last):
        return json.loads(_handle_line(line, scorer, last))

    def test_unknown_op(self, reference):
        out = self._call(reference, json.dumps({"id": 1, "op": "dance"}), [0])
        assert out["error"]["code"] == "bad_input"

    def test_ids_must_increase(self, reference):
        last = [0]
        self._call(reference, json.dumps({"id": 5, "op": "hello"}), last)
        out = self._call(reference, json.dumps({"id": 5, "op": "hello"}), last)
        assert out["error"]["code"] == "bad_input"

    def test_oversized_batch_rejected(self, reference, rng):
        ref = encode_f32(rng.random(DIMS))
        queries = [ref] * (external._MAX_BATCH + 1)
        out = self._call(reference, json.dumps(
            {"id": 1, "op": "score_batch", "ref": ref, "queries": queries}), [0])
        assert out["error"]["code"] == "bad_input"

    def test_unparseable_line(self, reference):
        out = self._call(reference, "this is not json", [0])
        assert out["error"]["code"] == "bad_input"

    # 1e400 and Infinity parse as inf, which has no int; the nesting is past
    # the parser's depth; the other ids are no JSON integer
    MALFORMED_LINES = {
        "id-1e400": '{"id":1e400,"op":"hello"}',
        "id-infinity": '{"id":Infinity,"op":"hello"}',
        "nested-100000": "[" * 100_000 + "]" * 100_000,
        "id-true": '{"id":true,"op":"hello"}',
        "id-string": '{"id":"7","op":"hello"}',
        "id-fraction": '{"id":2.9,"op":"hello"}',
    }

    @pytest.mark.parametrize("line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
    def test_malformed_line_is_bad_input_under_id_0(self, reference, line):
        last = [0]
        out = self._call(reference, line, last)
        assert out["id"] == 0 and out["error"]["code"] == "bad_input", out
        assert last == [0]

    def test_non_utf8_line_is_bad_input_and_the_stub_stays_up(self):
        # under strict stdin decoding, the default in UTF-8 locales, such a
        # line once ended the stub before it answered the hello
        done = subprocess.run(stub_command(), input=b'\xff\xfe\n{"id":1,"op":"hello"}\n', capture_output=True,
                              env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"}, timeout=60)
        assert done.returncode == 0, done.stderr
        replies = [json.loads(line) for line in done.stdout.splitlines()]
        assert len(replies) == 2, replies
        assert replies[0]["id"] == 0 and replies[0]["error"]["code"] == "bad_input", replies
        assert replies[1]["id"] == 1 and "caps" in replies[1], replies

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--verbose"], ["--json", "--verbose"]],
                             ids=["plain", "json", "verbose", "json-verbose"])
    def test_stdout_carries_the_replies_only(self, flags):
        # --json once printed the command's result, {}, after the last reply
        done = subprocess.run(stub_command(*flags), input=b'{"id":1,"op":"hello"}\n', capture_output=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        [line] = done.stdout.decode().splitlines()
        assert json.loads(line)["caps"], line

    def test_queries_not_a_list_rejected(self, reference, rng):
        out = self._call(reference, json.dumps(
            {"id": 1, "op": "score_batch", "ref": encode_f32(rng.random(DIMS)), "queries": 5}), [0])
        assert out["error"]["code"] == "bad_input"

    def test_embed_on_scoreonly(self, rng):
        wrapped = _ScoreOnly(se.LinearToyScorer.random(DIMS, embed_dim=6, seed=31))
        out = self._call(wrapped, json.dumps(
            {"id": 1, "op": "embed", "image": encode_f32(rng.random(DIMS))}), [0])
        assert out["error"]["code"] == "unsupported"

    @staticmethod
    def _strict(line: str) -> dict:
        """A reply parsed as RFC 8259 JSON, which has no NaN or Infinity."""
        def refuse(constant):
            raise AssertionError(f"reply is not JSON: it holds {constant}")
        return json.loads(line, parse_constant=refuse)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("op, field", [("score_batch", "ref"), ("score_batch", "queries"),
                                           ("score_masks", "ref"), ("score_masks", "query"), ("embed", "image")])
    def test_non_finite_image_is_bad_input(self, reference, rng, op, field, value):
        good = encode_f32(rng.random(DIMS))
        image = rng.random(DIMS)
        image[4, 7, 1] = value
        bad = encode_f32(image)
        request = {"score_batch": {"id": 1, "op": op, "ref": good, "queries": [good, good]},
                   "score_masks": json.loads(masks_request("selections")),
                   "embed": {"id": 1, "op": op, "image": good}}[op]
        request[field] = [good, bad] if field == "queries" else bad
        out = self._strict(_handle_line(json.dumps(request), reference, [0]))
        assert out["error"]["code"] == "bad_input" and "finite" in out["error"]["msg"], out

    def test_non_finite_scores_are_bad_input(self):
        # a scorer whose scores are NaN makes score_masked raise InvalidDataError
        out = self._strict(_handle_line(masks_request("selections"), ConstantScorer(DIMS, value=float("nan")), [0]))
        assert out["error"]["code"] == "bad_input" and "non-finite" in out["error"]["msg"], out


class TestClientValidation:
    def test_empty_command_is_invalid(self):
        with pytest.raises(InvalidArgumentError):
            ExternalScorer(command=[])

    def test_dead_command_is_transport_error(self):
        with pytest.raises(TransportError):
            ExternalScorer(command=[sys.executable, "-c", "raise SystemExit(1)"])

    def test_missing_program_is_transport_error(self, tmp_path):
        missing = str(tmp_path / "no-such-scorer")
        with pytest.raises(TransportError, match="no-such-scorer"):
            ExternalScorer(command=[missing])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5, -2.0])
    def test_score_outside_cosine_range_is_transport_error(self, rng, bad):
        with ExternalScorer(command=scripted_peer(HELLO, {"scores": [0.5, -0.25, bad]})) as ext:
            with pytest.raises(TransportError, match="-1, 1"):
                ext.score_batch(rng.random(DIMS), [rng.random(DIMS) for _ in range(3)])

    def test_failed_hello_stops_the_child(self, spawned):
        # answers the hello without dims, then waits for its stdin to close
        peer = ("import sys\n"
                "sys.stdin.readline()\n"
                "print('{\"id\": 1, \"caps\": [\"score\"], \"max_batch\": 4}', flush=True)\n"
                "sys.stdin.read()\n")
        with pytest.raises(TransportError, match="dims"):
            ExternalScorer(command=[sys.executable, "-c", peer])
        assert len(spawned) == 1
        assert spawned[0].poll() is not None

    @pytest.mark.parametrize("line", ['"[" * 100_000 + "]" * 100_000', repr(json.dumps({**HELLO, "id": True})),
                                      repr(json.dumps({**HELLO, "id": 1.0}))],
                             ids=["nested-100000", "id-true", "id-float"])
    def test_malformed_reply_line_is_transport_error(self, spawned, line):
        # a line nested past the parser's depth, or a reply whose id equals
        # the request's without being its integer (True == 1 == 1.0)
        peer = f"import sys\nline = {line}\nfor _ in sys.stdin:\n    print(line, flush=True)\n"
        with pytest.raises(TransportError, match="not a JSON reply"):
            ExternalScorer(command=[sys.executable, "-c", peer])
        assert len(spawned) == 2  # the hello and its one retry
        assert all(proc.poll() is not None for proc in spawned)

    @pytest.mark.parametrize("reply", [[1, 2], {"error": "boom"}], ids=["list", "error-string"])
    def test_malformed_reply_is_transport_error(self, reply, rng):
        with ExternalScorer(command=scripted_peer(HELLO, reply)) as ext:
            with pytest.raises(TransportError):
                ext.score_batch(rng.random(DIMS), [rng.random(DIMS)])

    @pytest.mark.parametrize("data", [5, "!!notb64", encode_f32(np.full(3, np.nan))],
                             ids=["number", "not-base64", "nan"])
    def test_unusable_embedding_is_transport_error(self, data, rng):
        with ExternalScorer(command=scripted_peer(HELLO, {"dim": 3, "data": data})) as ext:
            with pytest.raises(TransportError, match="embedding"):
                ext.embed(rng.random(DIMS))

    def test_unusable_max_batch_is_transport_error(self):
        with pytest.raises(TransportError, match="max_batch"):
            ExternalScorer(command=scripted_peer({**HELLO, "max_batch": "many"}))


# ---------------------------------------------------------------------------
# score_masks: keep-mask codes on the wire
# ---------------------------------------------------------------------------

CODE_DIMS = (20, 20, 3)

# each map (100, 50 or 60 masks) and each curve (101 steps) goes whole in
# one request, with more masks than the stub's score_batch bound (64)
CODE_CFGS = {
    "rise": SaliencyConfig(method=se.Method.RISE, seed=3, rise=RiseCfg(n_masks=100, grid=4)),
    "sliding_window": SaliencyConfig(method=se.Method.SLIDING_WINDOW, seed=3, sliding=SlidingCfg(windows_query=49)),
    "lime-grid": SaliencyConfig(method=se.Method.LIME, seed=3, lime=LimeCfg(n_samples=60, n_segments=16)),
    "lime-slic_like": SaliencyConfig(method=se.Method.LIME, seed=3,
                                     lime=LimeCfg(n_samples=60, n_segments=16, segmentation="slic_like")),
}


def code_stub(*extra):
    return [sys.executable, "-m", "simexplain", "serve-stub", "--dims", "20,20,3", "--embed-dim", "6",
            "--seed", "31", *extra]


@pytest.fixture(scope="module")
def code_peers():
    """A stub with the keep kernel and a score-only (--no-embed) stub."""
    with ExternalScorer(command=code_stub()) as kernel, ExternalScorer(command=code_stub("--no-embed")) as score_only:
        yield {"kernel": kernel, "score_only": score_only}


def f32_exact(rng, shape):
    """Images that cross the wire unchanged."""
    return rng.random(shape).astype(np.float32).astype(np.float64)


def record_ops(ext, monkeypatch):
    ops = []
    call = ext._call
    monkeypatch.setattr(ext, "_call", lambda payload: ops.append(payload["op"]) or call(payload))
    return ops


class TestMaskCodes:
    """A peer that advertises score_masks is sent each code form and runs
    the in-process score_masked on it, so its scores have the in-process
    bits whenever the images are exact in float32."""

    @pytest.mark.parametrize("peer", ["kernel", "score_only"])
    @pytest.mark.parametrize("name", CODE_CFGS)
    def test_maps_and_curves_equal_in_process(self, code_peers, monkeypatch, name, peer):
        ext = code_peers[peer]
        assert ext.caps.can_score_masks
        local = se.LinearToyScorer.random(CODE_DIMS, embed_dim=6, seed=31)
        if peer == "score_only":
            local = _ScoreOnly(local)
        rng = np.random.default_rng(5)
        ref, query = f32_exact(rng, CODE_DIMS), f32_exact(rng, CODE_DIMS)
        cfg = CODE_CFGS[name]
        ops = record_ops(ext, monkeypatch)
        want = se.generate(local, ref, query, cfg)
        got = se.generate(ext, ref, query, cfg)
        assert not want.degenerate
        assert got.data.tobytes() == want.data.tobytes()
        for curve in (insertion_curve, deletion_curve):  # 101 steps each
            assert (curve(ext, ref, query, want).raw_scores.tobytes()
                    == curve(local, ref, query, want).raw_scores.tobytes())
        assert set(ops) == {"score_masks"}

    @pytest.mark.parametrize("peer", ["kernel", "score_only"])
    @pytest.mark.parametrize("name, fixed", [(name, True) for name in CODE_CFGS]
                             + [("rise", False), ("sliding_window", False)])
    def test_query_maps_equal_single_pairs(self, code_peers, monkeypatch, name, fixed, peer):
        # one score_masks stream per reference, each map with its pair's bits
        ext = code_peers[peer]
        rng = np.random.default_rng(6)
        refs = [f32_exact(rng, CODE_DIMS), np.zeros(CODE_DIMS), f32_exact(rng, CODE_DIMS)]
        cfg = CODE_CFGS[name]
        cfg = dataclasses.replace(cfg, fixed_reference=fixed, rise=dataclasses.replace(cfg.rise, n_ref_masks=3),
                                  sliding=dataclasses.replace(cfg.sliding, windows_ref=4))
        ops = record_ops(ext, monkeypatch)
        got = assert_query_maps_equal_single_pairs(ext, refs, f32_exact(rng, CODE_DIMS), cfg)
        assert got[1].degenerate and not got[0].degenerate
        assert set(ops) == {"score_masks"}

    def test_float64_images_and_float_masks_within_1e6(self, code_peers, rng):
        # the images go as float32, the boolean and the float (RISE) masks
        # as their codes; two references, as in dual mode, whose masked
        # variants are not f32-exact
        local = se.LinearToyScorer.random(CODE_DIMS, embed_dim=6, seed=31)
        refs = [rng.random(CODE_DIMS) for _ in range(2)]
        query = rng.random(CODE_DIMS)
        for masks in (bool_masks(rng, 30, CODE_DIMS[:2]),
                      sample_rise_masks(RiseCfg(n_masks=30, grid=4), *CODE_DIMS[:2], seed=1)):
            want = score_masked(local, refs, query, masks)
            for ext in code_peers.values():
                np.testing.assert_allclose(score_masked(ext, refs, query, masks), want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("peer", ["kernel", "score_only"])
    def test_arrays_are_refused_before_any_request(self, code_peers, monkeypatch, rng, peer):
        # the pixel-array mask form is retired: an (N, H, W) array, boolean
        # or float, is no code form and never reaches the wire
        ext = code_peers[peer]
        ops = record_ops(ext, monkeypatch)
        for keep in (rng.random((3, *CODE_DIMS[:2])) < 0.5, rng.random((3, *CODE_DIMS[:2]))):
            with pytest.raises(InvalidArgumentError, match="code form"):
                score_masked(ext, [rng.random(CODE_DIMS)], rng.random(CODE_DIMS), keep)
        assert ops == []

    def test_peer_without_score_masks_gets_masked_images(self, monkeypatch, rng):
        with ExternalScorer(command=scripted_peer(HELLO, {"scores": [0.5, 0.25, -0.5]})) as ext:
            assert not ext.caps.can_score_masks
            ops = record_ops(ext, monkeypatch)
            got = score_masked(ext, [rng.random(DIMS)], rng.random(DIMS), bool_masks(rng, 3))
            np.testing.assert_array_equal(got, [0.5, 0.25, -0.5])
            assert ops == ["score_batch"]


class _CountingWriter:
    """Counts the bytes written to the peer's stdin."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()

    def close(self):
        self.inner.close()


@pytest.fixture(scope="module")
def default_peer():
    """A stub at default size, 56x56x3."""
    with ExternalScorer(command=[sys.executable, "-m", "simexplain", "serve-stub", "--seed", "7"]) as ext:
        yield ext


@pytest.fixture
def roundtrips(monkeypatch):
    """The op of every request any connection sends while the test runs."""
    ops = []
    roundtrip = external._Connection.roundtrip
    monkeypatch.setattr(external._Connection, "roundtrip",
                        lambda conn, payload: ops.append(payload["op"]) or roundtrip(conn, payload))
    return ops


class TestRequestCounts:
    """At default sizes a fixed-mode map and a curve each take one
    score_masks request, and a dual-mode map one per reference variant."""

    @pytest.mark.parametrize("method, fixed, requests", [
        (se.Method.RISE, True, 1), (se.Method.LIME, True, 1), (se.Method.SLIDING_WINDOW, True, 1),
        # M = 30 and 36 reference variants at default sizes
        (se.Method.RISE, False, 30), (se.Method.SLIDING_WINDOW, False, 36),
    ], ids=["rise", "lime", "sliding_window", "rise-dual", "sliding_window-dual"])
    def test_one_request_per_map_and_curve(self, default_peer, roundtrips, method, fixed, requests):
        rng = np.random.default_rng(8)
        ref, query = rng.random((56, 56, 3)), rng.random((56, 56, 3))
        smap = se.generate(default_peer, ref, query, SaliencyConfig(method=method, seed=7, fixed_reference=fixed))
        assert not smap.degenerate
        assert roundtrips == ["score_masks"] * requests
        for curve in (insertion_curve, deletion_curve):
            curve(default_peer, ref, query, smap)
        assert roundtrips == ["score_masks"] * (requests + 2)

    def test_an_empty_form_sends_no_request(self, default_peer, roundtrips, rng):
        got = default_peer.score_masks(rng.random((56, 56, 3)), rng.random((56, 56, 3)),
                                       bool_masks(rng, 0, (56, 56)))
        assert got.shape == (0,) and roundtrips == []


class TestPayload:
    """Bytes the client writes at default size (56x56x3). Each map and each
    curve is one request, the reference and the query, 2 x 50,176 bytes of
    base64 f32, and the codes of its masks."""

    def _bytes_of(self, ext, work):
        writer = _CountingWriter(ext._conn._tx)
        ext._conn._tx = writer
        try:
            work()
        finally:
            ext._conn._tx = writer.inner
        return writer.bytes

    def test_rise_map(self, default_peer):
        # 2,000 masks in one request: 0.10 MB of images, 0.03 MB of grids
        # and offsets; in 32 requests of 64 masks they were 3.2 MB, and as
        # masked images 102 MB
        rng = np.random.default_rng(7)
        ref, query = rng.random((56, 56, 3)), rng.random((56, 56, 3))
        cfg = SaliencyConfig(method=se.Method.RISE, seed=7)
        written = self._bytes_of(default_peer, lambda: se.generate(default_peer, ref, query, cfg))
        assert written < 0.15e6

    def test_sliding_window_map_and_curves(self, default_peer):
        # 626 window masks and 2 x 101 curve masks in three requests: 0.30 MB
        # of images and 0.04 MB of codes; in 14 requests of 64 masks they
        # were 1.5 MB, and as masked images 42 MB
        rng = np.random.default_rng(7)
        ref, query = rng.random((56, 56, 3)), rng.random((56, 56, 3))
        cfg = SaliencyConfig(method=se.Method.SLIDING_WINDOW, seed=7)

        def work():
            smap = se.generate(default_peer, ref, query, cfg)
            insertion_curve(default_peer, ref, query, smap)
            deletion_curve(default_peer, ref, query, smap)

        assert self._bytes_of(default_peer, work) < 0.4e6


def masks_request(kind, **fields):
    """A score_masks request line of three masks at DIMS in wire form
    `kind`, with `fields` replaced: a valid one, or for "bits" and "f32" one
    in the retired pixel form, as boolean or float32 masks."""
    rng = np.random.default_rng(2)
    h, w, _ = DIMS
    n = 3
    msg = {"id": 1, "op": "score_masks", "ref": encode_f32(rng.random(DIMS)),
           "query": encode_f32(rng.random(DIMS)), "n": n}
    if kind == "bits":
        msg.update(form="pixels", bits=_encode_bits(rng.random((n, h, w)) < 0.5))
    elif kind == "f32":
        msg.update(form="pixels", keep=encode_f32(rng.random((n, h, w))))
    elif kind == "rise":  # g 4 at 10 px: offsets in [0, 3)
        msg.update(form="rise", g=4, grids=_encode_bits(rng.random((n, 4, 4)) < 0.5),
                   dy=[0, 1, 2], dx=[2, 1, 0])
    elif kind == "selections":
        msg.update(form="selections", s=4, keep=_encode_bits(rng.random((n, 4)) < 0.5),
                   segments=(np.arange(h * w) % 4).tolist())
    elif kind == "boxes":  # an empty box, one inside, one to the bottom-right corner
        msg.update(form="boxes", top=[0, 2, 0], bottom=[0, 5, 10], left=[0, 1, 9], right=[0, 7, 10])
    else:
        msg.update(form="nested", order=rng.permutation(h * w).tolist(), counts=[0, 37, 100], insertion=True)
    msg.update(fields)
    return json.dumps(msg)


def without(line, key):
    """A request line with the field `key` dropped."""
    msg = json.loads(line)
    del msg[key]
    return json.dumps(msg)


def ones_bits(*shape):
    return _encode_bits(np.ones(shape, dtype=bool))


PIXELS = "unknown mask form 'pixels'"

# each case, with a fragment of the peer's message
BAD_MASK_REQUESTS = {
    "bits-short": ("bit payload", masks_request("rise", grids=ones_bits(3 * 16 - 8))),
    "bits-long": ("bit payload", masks_request("rise", grids=ones_bits(3 * 16 + 8))),
    "bits-bad-base64": ("base64", masks_request("selections", keep="@@@@")),
    "bits-not-a-string": ("base64", masks_request("selections", keep=5)),
    "n-zero": ("mask count", masks_request("selections", n=0, keep="")),
    # a request unpacks at most 2**24 mask bits, checked before any is decoded
    "rise-n-g2-above-the-bound": ("mask bits", masks_request("rise", n=2 ** 20 + 1)),
    "selections-n-s-above-the-bound": ("mask bits", masks_request("selections", n=2 ** 22 + 1)),
    "n-not-the-payload": ("bit payload", masks_request("selections", n=2, keep=ones_bits(3, 4))),
    "n-bool": ("mask count", masks_request("selections", n=True, keep=ones_bits(1, 4))),
    "n-null": ("mask count", masks_request("selections", n=None)),
    "rise-dy-at-stop": ("dy must", masks_request("rise", dy=[0, 3, 0])),
    "rise-dx-negative": ("dx must", masks_request("rise", dx=[0, -1, 0])),
    "rise-dy-not-n-long": ("dy must", masks_request("rise", dy=[0, 1])),
    "rise-dx-floats": ("dx must", masks_request("rise", dx=[0.0, 1.0, 2.0])),
    "rise-dy-not-a-list": ("dy must", masks_request("rise", dy=1)),
    "rise-g-zero": ("grid g", masks_request("rise", g=0)),
    "rise-g-above-the-image": ("grid g", masks_request("rise", g=11, grids=ones_bits(3, 11, 11))),
    "rise-g-string": ("grid g", masks_request("rise", g="4")),
    "rise-grids-of-another-g": ("bit payload", masks_request("rise", grids=ones_bits(3, 3, 3))),
    "rise-grids-bad-base64": ("base64", masks_request("rise", grids="not base64!")),
    "segments-short": ("segments must", masks_request("selections", segments=[0] * 99)),
    "segments-2d": ("segments must", masks_request("selections", segments=[[0] * 10] * 10)),
    "segments-at-s": ("segments must", masks_request("selections", segments=[4] + [0] * 99)),
    "segments-negative": ("segments must", masks_request("selections", segments=[-1] + [0] * 99)),
    "selections-s-zero": ("segment count", masks_request("selections", s=0)),
    "selections-s-above-pixels": ("segment count", masks_request("selections", s=101)),
    "selections-keep-short": ("bit payload", masks_request("selections", keep=ones_bits(8))),
    # the retired pixel form, valid or not, is an unknown form
    "pixels-bits": (PIXELS, masks_request("bits")),
    "pixels-keep": (PIXELS, masks_request("f32")),
    "f32-nan": (PIXELS, masks_request("f32", keep=encode_f32(np.full((3, 10, 10), np.nan)))),
    "f32-inf": (PIXELS, masks_request("f32", keep=encode_f32(np.full((3, 10, 10), np.inf)))),
    "f32-above-one": (PIXELS, masks_request("f32", keep=encode_f32(np.full((3, 10, 10), 1.5)))),
    "f32-negative": (PIXELS, masks_request("f32", keep=encode_f32(np.full((3, 10, 10), -0.25)))),
    "f32-short": (PIXELS, masks_request("f32", keep=encode_f32(np.zeros((3, 10, 9))))),
    "f32-bad-base64": (PIXELS, masks_request("f32", keep="a")),
    "query-bad-base64": ("base64", masks_request("selections", query="&&&")),
    "query-wrong-size": ("reshape", masks_request("selections", query=encode_f32(np.zeros(299)))),
    "unknown-form": ("mask form", masks_request("selections", form="wavelets")),
    "boxes-end-before-start": ("end before", masks_request("boxes", bottom=[0, 1, 10])),
    "boxes-right-before-left": ("end before", masks_request("boxes", right=[0, 7, 8])),
    "boxes-top-past-h": ("top must", masks_request("boxes", top=[0, 2, 11], bottom=[0, 5, 11])),
    "boxes-right-past-w": ("right must", masks_request("boxes", right=[0, 7, 11])),
    "boxes-left-negative": ("left must", masks_request("boxes", left=[-1, 1, 9])),
    "boxes-not-n-long": ("top must", masks_request("boxes", top=[0, 2])),
    "boxes-floats": ("bottom must", masks_request("boxes", bottom=[0.0, 5.0, 10.0])),
    "boxes-bools": ("left must", masks_request("boxes", left=[False, True, 9])),
    "boxes-not-a-list": ("right must", masks_request("boxes", right="0,7,10")),
    "boxes-beyond-int64": ("bottom must", masks_request("boxes", bottom=[0, 5, 2 ** 64])),
    "boxes-below-int64": ("top must", masks_request("boxes", top=[0, 2, -2 ** 63 - 1])),
    "boxes-missing-side": ("no 'bottom' field", without(masks_request("boxes"), "bottom")),
    "nested-order-repeats": ("permutation", masks_request("nested", order=[0, 0] + list(range(2, 100)))),
    "nested-order-short": ("order must", masks_request("nested", order=list(range(99)))),
    "nested-order-past-pixels": ("order must", masks_request("nested", order=list(range(1, 101)))),
    "nested-order-bools": ("order must", masks_request("nested", order=[False, True] + list(range(2, 100)))),
    "nested-counts-above-pixels": ("counts must", masks_request("nested", counts=[0, 37, 101])),
    "nested-counts-negative": ("counts must", masks_request("nested", counts=[-1, 37, 100])),
    "nested-counts-not-n-long": ("counts must", masks_request("nested", counts=[0, 37])),
    "nested-counts-bools": ("counts must", masks_request("nested", counts=[False, True, 100])),
    "nested-insertion-int": ("insertion must", masks_request("nested", insertion=1)),
    "nested-insertion-string": ("insertion must", masks_request("nested", insertion="true")),
    "nested-insertion-null": ("insertion must", masks_request("nested", insertion=None)),
    "nested-missing-order": ("no 'order' field", without(masks_request("nested"), "order")),
}

# any value a JSON line decodes to, NaN and infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 120) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)


@st.composite
def mutated_form(draw):
    """A valid boxes or nested request with one field dropped or replaced,
    or one entry of one of its lists replaced."""
    msg = json.loads(masks_request(draw(st.sampled_from(["boxes", "nested"]))))
    key = draw(st.sampled_from([k for k in msg if k not in ("id", "op", "ref", "query", "n")]))
    how = draw(st.sampled_from(["drop", "replace", "entry"]))
    if how == "drop":
        del msg[key]
    elif how == "entry" and isinstance(msg[key], list):
        msg[key][draw(st.integers(0, len(msg[key]) - 1))] = draw(JSON_VALUES)
    else:
        msg[key] = draw(JSON_VALUES)
    return msg


class TestMaskCodeValidation:
    """The peer answers a malformed score_masks request with bad_input
    (DIMS 10x10x3)."""

    @pytest.mark.parametrize("kind", ["rise", "selections", "boxes", "nested"])
    def test_valid_request_is_scored(self, reference, kind):
        out = json.loads(_handle_line(masks_request(kind), reference, [0]))
        assert len(out["scores"]) == 3

    @settings(max_examples=300, deadline=None)
    @given(msg=mutated_form())
    def test_mutated_boxes_and_nested_end_as_bad_input_or_a_valid_form(self, reference, msg):
        # a form that is built holds n masks in range: its rows are those
        # of its masked copies
        try:
            form = _masks_of(msg, 3, DIMS[:2])
        except InvalidArgumentError:
            return
        keep = form.block(0, len(form))
        assert keep.shape == (3, *DIMS[:2]) and keep.dtype == bool
        query = np.random.default_rng(0).random(DIMS)
        np.testing.assert_allclose(form.embed(reference.keep_kernel(query)).emb,
                                   reference.embed_batch_flat(_masked(query, keep).reshape(3, -1)).emb,
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("fragment, line", BAD_MASK_REQUESTS.values(), ids=BAD_MASK_REQUESTS.keys())
    def test_malformed_request_is_bad_input(self, reference, fragment, line):
        out = json.loads(_handle_line(line, reference, [0]))
        assert out["error"]["code"] == "bad_input" and fragment in out["error"]["msg"], out

    @pytest.mark.parametrize("reply", [{"scores": [0.5, 0.25]}, {"scores": [0.5, 0.25, 1.5]},
                                       {"scores": [0.5, 0.25, float("nan")]}, {"scores": "many"}],
                             ids=["count", "above-one", "nan", "not-a-list"])
    def test_bad_scores_are_transport_error(self, reply, rng):
        hello = {**HELLO, "caps": ["score", "score_masks"]}
        with ExternalScorer(command=scripted_peer(hello, reply)) as ext:
            with pytest.raises(TransportError, match="score_masks"):
                score_masked(ext, [rng.random(DIMS)], rng.random(DIMS), bool_masks(rng, 3))

    def test_one_retry_on_dead_peer(self, tmp_path, reference, rng):
        # each child answers one line: the hello, then the retried request
        script = tmp_path / "oneshot.py"
        script.write_text(
            "import sys, itertools\n"
            "from simexplain.scorers import LinearToyScorer\n"
            "from simexplain.external import _handle_line\n"
            "scorer = LinearToyScorer.random((10, 10, 3), embed_dim=6, seed=31)\n"
            "for line in itertools.islice(sys.stdin, 1):\n"
            "    sys.stdout.write(_handle_line(line, scorer, [0]) + '\\n')\n"
            "    sys.stdout.flush()\n"
        )
        ref, query, keep = rng.random(DIMS), rng.random(DIMS), bool_masks(rng, 5)
        with ExternalScorer(command=[sys.executable, str(script)]) as ext:
            got = score_masked(ext, [ref], query, keep)
        np.testing.assert_allclose(got, score_masked(reference, [ref], query, keep), rtol=0, atol=1e-6)

    def test_peer_dying_twice_is_transport_error(self, spawned, rng):
        hello = {**HELLO, "caps": ["score", "score_masks"]}
        # answers the hello and exits on any other request
        peer = ("import json, sys\n"
                "for line in sys.stdin:\n"
                "    req = json.loads(line)\n"
                "    if req['op'] != 'hello':\n"
                "        sys.exit(1)\n"
                f"    print(json.dumps({{'id': req['id'], **{hello!r}}}), flush=True)\n")
        with ExternalScorer(command=[sys.executable, "-c", peer]) as ext:
            with pytest.raises(TransportError):
                score_masked(ext, [rng.random(DIMS)], rng.random(DIMS), bool_masks(rng, 3))
        assert len(spawned) == 2
        assert all(proc.returncode is not None for proc in spawned)
