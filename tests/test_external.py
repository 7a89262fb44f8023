import dataclasses
import json
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import simexplain as se
from simexplain import external
from simexplain.errors import InvalidArgumentError, TransportError, UnsupportedError
from simexplain.external import ExternalScorer, _ScoreOnly, _encode_bits, _handle_line, decode_f32, encode_f32
from simexplain.metrics import deletion_curve, insertion_curve
from simexplain.saliency import LimeCfg, RiseCfg, SaliencyConfig, SlidingCfg, score_masked

from conftest import assert_query_maps_equal_single_pairs

DIMS = (10, 10, 3)


def stub_command(*extra):
    return [sys.executable, "-m", "simexplain", "serve-stub",
            "--dims", "10,10,3", "--embed-dim", "6", "--seed", "31",
            "--max-batch", "16", *extra]


HELLO = {"caps": ["score", "embed"], "max_batch": 4, "dims": list(DIMS)}


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
            assert ext.caps.can_embed and ext.caps.max_batch == 16
            ref = rng.random(DIMS).astype(np.float32)
            queries = [rng.random(DIMS).astype(np.float32) for _ in range(40)]
            got = ext.score_batch(ref, queries)
            want = reference.score_batch(ref, queries)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_chunked_equals_reference(self, reference, rng):
        # 50 queries at max_batch=16 forces four protocol chunks
        with ExternalScorer(command=stub_command()) as ext:
            ref = rng.random(DIMS).astype(np.float32)
            queries = [rng.random(DIMS).astype(np.float32) for _ in range(50)]
            np.testing.assert_allclose(ext.score_batch(ref, queries),
                                       reference.score_batch(ref, queries), atol=1e-6)

    def test_each_chunk_is_encoded_just_before_its_request(self, rng):
        # 40 queries at max_batch=16: the reference, then each chunk's
        # queries, are base64-encoded right before the request that sends them
        events = []
        with ExternalScorer(command=stub_command()) as ext:
            encode, call = ext._encode_image, ext._call
            ext._encode_image = lambda image: events.append("encode") or encode(image)
            ext._call = lambda payload: events.append("call") or call(payload)
            ext.score_batch(rng.random(DIMS), [rng.random(DIMS) for _ in range(40)])
        assert events == ["encode"] * 17 + ["call"] + ["encode"] * 16 + ["call"] + ["encode"] * 8 + ["call"]

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
                score_masked(ext, [rng.random(DIMS)], rng.random(DIMS), rng.random((20, *DIMS[:2])) < 0.5)
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
            "    sys.stdout.write(_handle_line(line, scorer, 64, last) + '\\n')\n"
            "    sys.stdout.flush()\n"
        )
        with ExternalScorer(command=[sys.executable, str(script)]) as ext:
            ref = rng.random(DIMS).astype(np.float32)
            q = rng.random(DIMS).astype(np.float32)
            got = ext.score_batch(ref, [q])
            assert got[0] == pytest.approx(reference.score(ref, q), abs=1e-6)

    def test_hung_stdio_peer_misses_the_deadline(self, monkeypatch, rng):
        deadline = 0.5
        monkeypatch.setattr(external, "_DEADLINE_S", deadline)
        spawned = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(real_popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
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
        return json.loads(_handle_line(line, scorer, 8, last))

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
        queries = [ref] * 9  # max_batch is 8 in this harness
        out = self._call(reference, json.dumps(
            {"id": 1, "op": "score_batch", "ref": ref, "queries": queries}), [0])
        assert out["error"]["code"] == "bad_input"

    def test_unparseable_line(self, reference):
        out = self._call(reference, "this is not json", [0])
        assert out["error"]["code"] == "bad_input"

    def test_queries_not_a_list_rejected(self, reference, rng):
        out = self._call(reference, json.dumps(
            {"id": 1, "op": "score_batch", "ref": encode_f32(rng.random(DIMS)), "queries": 5}), [0])
        assert out["error"]["code"] == "bad_input"

    def test_embed_on_scoreonly(self, rng):
        wrapped = _ScoreOnly(se.LinearToyScorer.random(DIMS, embed_dim=6, seed=31))
        out = self._call(wrapped, json.dumps(
            {"id": 1, "op": "embed", "image": encode_f32(rng.random(DIMS))}), [0])
        assert out["error"]["code"] == "unsupported"


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

    def test_failed_hello_stops_the_child(self, monkeypatch):
        spawned = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(real_popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        # answers the hello without dims, then waits for its stdin to close
        peer = ("import sys\n"
                "sys.stdin.readline()\n"
                "print('{\"id\": 1, \"caps\": [\"score\"], \"max_batch\": 4}', flush=True)\n"
                "sys.stdin.read()\n")
        try:
            with pytest.raises(TransportError, match="dims"):
                ExternalScorer(command=[sys.executable, "-c", peer])
            assert len(spawned) == 1
            assert spawned[0].poll() is not None
        finally:
            for proc in spawned:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)

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

# every mask count below (100, 50, 60, 101) leaves a partial last chunk at
# max_batch 13, so chunk edges split the codes
CODE_CFGS = {
    "rise": SaliencyConfig(method=se.Method.RISE, seed=3, rise=RiseCfg(n_masks=100, grid=4)),
    "sliding_window": SaliencyConfig(method=se.Method.SLIDING_WINDOW, seed=3, sliding=SlidingCfg(windows_query=49)),
    "lime-grid": SaliencyConfig(method=se.Method.LIME, seed=3, lime=LimeCfg(n_samples=60, n_segments=16)),
    "lime-slic_like": SaliencyConfig(method=se.Method.LIME, seed=3,
                                     lime=LimeCfg(n_samples=60, n_segments=16, segmentation="slic_like")),
}


def code_stub(*extra):
    return [sys.executable, "-m", "simexplain", "serve-stub", "--dims", "20,20,3", "--embed-dim", "6",
            "--seed", "31", "--max-batch", "13", *extra]


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
        # the images and the non-boolean masks go as float32; two
        # references, as in dual mode, whose masked variants are not f32-exact
        local = se.LinearToyScorer.random(CODE_DIMS, embed_dim=6, seed=31)
        refs = [rng.random(CODE_DIMS) for _ in range(2)]
        query = rng.random(CODE_DIMS)
        for keep in (rng.random((30, *CODE_DIMS[:2])) < 0.5, rng.random((30, *CODE_DIMS[:2]))):
            want = score_masked(local, refs, query, keep)
            for ext in code_peers.values():
                np.testing.assert_allclose(score_masked(ext, refs, query, keep), want, rtol=0, atol=1e-6)

    def test_peer_without_score_masks_gets_masked_images(self, monkeypatch, rng):
        with ExternalScorer(command=scripted_peer(HELLO, {"scores": [0.5, 0.25, -0.5]})) as ext:
            assert not ext.caps.can_score_masks
            ops = record_ops(ext, monkeypatch)
            got = score_masked(ext, [rng.random(DIMS)], rng.random(DIMS), rng.random((3, *DIMS[:2])) < 0.5)
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


class TestPayload:
    """Bytes the client writes at default size (56x56x3, max_batch 64).
    Each request repeats the reference and the query, 2 x 50,176 bytes of
    base64 f32; the masks add little next to them."""

    @pytest.fixture(scope="class")
    def default_peer(self):
        with ExternalScorer(command=[sys.executable, "-m", "simexplain", "serve-stub", "--seed", "7"]) as ext:
            yield ext

    def _bytes_of(self, ext, work):
        writer = _CountingWriter(ext._conn._tx)
        ext._conn._tx = writer
        try:
            work()
        finally:
            ext._conn._tx = writer.inner
        return writer.bytes

    def test_rise_map(self, default_peer):
        # 2,000 masks in 32 requests: 3.21 MB of images, 0.03 MB of grids
        # and offsets; as masked images they were 102 MB
        rng = np.random.default_rng(7)
        ref, query = rng.random((56, 56, 3)), rng.random((56, 56, 3))
        cfg = SaliencyConfig(method=se.Method.RISE, seed=7)
        written = self._bytes_of(default_peer, lambda: se.generate(default_peer, ref, query, cfg))
        assert written < 3.6e6

    def test_sliding_window_map_and_curves(self, default_peer):
        # 626 window masks in 10 requests and 2 x 101 curve masks in 2 x 2:
        # 1.4 MB of images and 0.43 MB of mask bits; as masked images they
        # were 42 MB
        rng = np.random.default_rng(7)
        ref, query = rng.random((56, 56, 3)), rng.random((56, 56, 3))
        cfg = SaliencyConfig(method=se.Method.SLIDING_WINDOW, seed=7)

        def work():
            smap = se.generate(default_peer, ref, query, cfg)
            insertion_curve(default_peer, ref, query, smap)
            deletion_curve(default_peer, ref, query, smap)

        assert self._bytes_of(default_peer, work) < 2.2e6


def masks_request(kind, **fields):
    """A valid score_masks request line of three masks at DIMS in wire form
    `kind`, with `fields` replaced."""
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
    else:
        msg.update(form="selections", s=4, keep=_encode_bits(rng.random((n, 4)) < 0.5),
                   segments=(np.arange(h * w) % 4).tolist())
    msg.update(fields)
    return json.dumps(msg)


def ones_bits(*shape):
    return _encode_bits(np.ones(shape, dtype=bool))


# each case, with a fragment of the peer's message
BAD_MASK_REQUESTS = {
    "bits-short": ("bit payload", masks_request("bits", bits=ones_bits(3 * 100 - 8))),
    "bits-long": ("bit payload", masks_request("bits", bits=ones_bits(3 * 100 + 8))),
    "bits-bad-base64": ("base64", masks_request("bits", bits="@@@@")),
    "bits-not-a-string": ("base64", masks_request("bits", bits=5)),
    "n-zero": ("mask count", masks_request("bits", n=0, bits="")),
    "n-above-max-batch": ("mask count", masks_request("bits", n=9, bits=ones_bits(9, 10, 10))),
    "n-not-the-payload": ("bit payload", masks_request("bits", n=2, bits=ones_bits(3, 10, 10))),
    "n-bool": ("mask count", masks_request("bits", n=True, bits=ones_bits(1, 10, 10))),
    "n-null": ("mask count", masks_request("bits", n=None)),
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
    "f32-nan": ("in [0, 1]", masks_request("f32", keep=encode_f32(np.full((3, 10, 10), np.nan)))),
    "f32-inf": ("in [0, 1]", masks_request("f32", keep=encode_f32(np.full((3, 10, 10), np.inf)))),
    "f32-above-one": ("in [0, 1]", masks_request("f32", keep=encode_f32(np.full((3, 10, 10), 1.5)))),
    "f32-negative": ("in [0, 1]", masks_request("f32", keep=encode_f32(np.full((3, 10, 10), -0.25)))),
    "f32-short": ("f32 masks carry", masks_request("f32", keep=encode_f32(np.zeros((3, 10, 9))))),
    "f32-bad-base64": ("base64", masks_request("f32", keep="a")),
    "query-bad-base64": ("base64", masks_request("bits", query="&&&")),
    "query-wrong-size": ("reshape", masks_request("bits", query=encode_f32(np.zeros(299)))),
    "unknown-form": ("mask form", masks_request("bits", form="wavelets")),
}


class TestMaskCodeValidation:
    """The peer answers a malformed score_masks request with bad_input
    (max_batch is 8 here, DIMS 10x10x3)."""

    @pytest.mark.parametrize("kind", ["bits", "f32", "rise", "selections"])
    def test_valid_request_is_scored(self, reference, kind):
        out = json.loads(_handle_line(masks_request(kind), reference, 8, [0]))
        assert len(out["scores"]) == 3

    @pytest.mark.parametrize("fragment, line", BAD_MASK_REQUESTS.values(), ids=BAD_MASK_REQUESTS.keys())
    def test_malformed_request_is_bad_input(self, reference, fragment, line):
        out = json.loads(_handle_line(line, reference, 8, [0]))
        assert out["error"]["code"] == "bad_input" and fragment in out["error"]["msg"], out

    @pytest.mark.parametrize("reply", [{"scores": [0.5, 0.25]}, {"scores": [0.5, 0.25, 1.5]},
                                       {"scores": [0.5, 0.25, float("nan")]}, {"scores": "many"}],
                             ids=["count", "above-one", "nan", "not-a-list"])
    def test_bad_scores_are_transport_error(self, reply, rng):
        hello = {**HELLO, "caps": ["score", "score_masks"]}
        with ExternalScorer(command=scripted_peer(hello, reply)) as ext:
            with pytest.raises(TransportError, match="score_masks"):
                score_masked(ext, [rng.random(DIMS)], rng.random(DIMS), rng.random((3, *DIMS[:2])) < 0.5)

    def test_one_retry_on_dead_peer(self, tmp_path, reference, rng):
        # each child answers one line: the hello, then the retried request
        script = tmp_path / "oneshot.py"
        script.write_text(
            "import sys, itertools\n"
            "from simexplain.scorers import LinearToyScorer\n"
            "from simexplain.external import _handle_line\n"
            "scorer = LinearToyScorer.random((10, 10, 3), embed_dim=6, seed=31)\n"
            "for line in itertools.islice(sys.stdin, 1):\n"
            "    sys.stdout.write(_handle_line(line, scorer, 64, [0]) + '\\n')\n"
            "    sys.stdout.flush()\n"
        )
        ref, query, keep = rng.random(DIMS), rng.random(DIMS), rng.random((5, *DIMS[:2])) < 0.5
        with ExternalScorer(command=[sys.executable, str(script)]) as ext:
            got = score_masked(ext, [ref], query, keep)
        np.testing.assert_allclose(got, score_masked(reference, [ref], query, keep), rtol=0, atol=1e-6)

    def test_peer_dying_twice_is_transport_error(self, monkeypatch, rng):
        spawned = []
        real_popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(real_popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
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
                score_masked(ext, [rng.random(DIMS)], rng.random(DIMS), rng.random((3, *DIMS[:2])) < 0.5)
        assert len(spawned) == 2
        assert all(proc.returncode is not None for proc in spawned)
