import json
import sys
import threading

import numpy as np
import pytest

import simexplain as se
from simexplain.errors import InvalidArgumentError, TransportError, UnsupportedError
from simexplain.external import ExternalScorer, TcpServer, _handle_line, decode_f32, encode_f32

DIMS = (10, 10, 3)


def stub_command(*extra):
    return [sys.executable, "-m", "simexplain", "serve-stub",
            "--dims", "10,10,3", "--embed-dim", "6", "--seed", "31",
            "--max-batch", "16", *extra]


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
    def test_roundtrip_and_pool(self, reference, rng):
        server = TcpServer(se.LinearToyScorer.random(DIMS, embed_dim=6, seed=31), max_batch=16)
        server.start_background()
        try:
            with ExternalScorer(address=("127.0.0.1", server.port), pool_size=2) as ext:
                ref = rng.random(DIMS).astype(np.float32)
                queries = [rng.random(DIMS).astype(np.float32) for _ in range(24)]
                want = reference.score_batch(ref, queries)

                results = [None, None]

                def worker(k):
                    results[k] = ext.score_batch(ref, queries)

                threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                np.testing.assert_allclose(results[0], want, atol=1e-6)
                np.testing.assert_array_equal(results[0], results[1])
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
