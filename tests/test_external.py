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
from simexplain.external import ExternalScorer, TcpServer, _handle_line, decode_f32, encode_f32

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
            assert len(started) == 1
        assert not started[0].is_alive()

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

    def test_embed_on_scoreonly(self, rng):
        from simexplain.external import _ScoreOnly
        wrapped = _ScoreOnly(se.LinearToyScorer.random(DIMS, embed_dim=6, seed=31))
        out = self._call(wrapped, json.dumps(
            {"id": 1, "op": "embed", "image": encode_f32(rng.random(DIMS))}), [0])
        assert out["error"]["code"] == "unsupported"


class TestTcp:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1.5, -2.0])
    def test_score_outside_cosine_range_is_transport_error(self, reference, rng, bad):
        class Broken(se.Scorer):
            dims = DIMS
            caps = se.ScorerCaps()

            def score_batch(self, ref, queries):
                scores = reference.score_batch(ref, queries)
                scores[-1] = bad
                return scores

        server = TcpServer(Broken(), max_batch=16)
        server.start_background()
        try:
            with ExternalScorer(address=("127.0.0.1", server.port)) as ext:
                with pytest.raises(TransportError, match="-1, 1"):
                    ext.score_batch(rng.random(DIMS), [rng.random(DIMS) for _ in range(3)])
        finally:
            server.stop()

    def test_roundtrip_and_pool(self, reference, rng):
        server = TcpServer(se.LinearToyScorer.random(DIMS, embed_dim=6, seed=31), max_batch=16)
        server.start_background()
        try:
            with ExternalScorer(address=("127.0.0.1", server.port)) as ext:
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
        finally:
            server.stop()


class TestClientValidation:
    def test_needs_exactly_one_endpoint(self):
        with pytest.raises(InvalidArgumentError):
            ExternalScorer()
        with pytest.raises(InvalidArgumentError):
            ExternalScorer(command=["x"], address=("h", 1))

    def test_dead_command_is_transport_error(self):
        with pytest.raises((TransportError, OSError)):
            ExternalScorer(command=[sys.executable, "-c", "raise SystemExit(1)"])

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
