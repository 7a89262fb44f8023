"""Newline-delimited JSON protocol to score with an out-of-process model.

One message per line. Requests carry strictly increasing ids per
connection; the peer answers every request with the same id, in order.

    -> {"id":1,"op":"hello"}
    <- {"id":1,"caps":["score","embed"],"max_batch":64,"dims":[56,56,3]}
    -> {"id":2,"op":"score_batch","ref":"<b64 f32 LE>","queries":["<b64>",...]}
    <- {"id":2,"scores":[...]}
    -> {"id":3,"op":"embed","image":"<b64>"}
    <- {"id":3,"dim":D,"data":"<b64 f32 LE>"}
    <- {"id":N,"error":{"code":"unsupported|bad_input|internal","msg":"..."}}

The client retries a request exactly once, and only after a transport
failure (dead pipe, truncated line, missed deadline); error responses are
never retried. A score that is not a finite number in [-1, 1] is a
transport error.

Every request has a deadline of 60 s on both transports. A stdio peer
that has not answered by then is killed and reaped; over TCP it is the
socket timeout of each read and write. A connection that failed is
closed at once, so a hung peer costs at most two deadlines (the request
and its retry) before the call raises ``TransportError``.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import socket
import subprocess
import sys
import threading
import time
from typing import Sequence

import numpy as np

from .core import _as_image
from .errors import InvalidArgumentError, TransportError, UnsupportedError
from .scorers import Embedding, Scorer, ScorerCaps

_DEADLINE_S = 60.0


def encode_f32(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f4").tobytes()).decode("ascii")


def decode_f32(payload: str) -> np.ndarray:
    try:
        raw = base64.b64decode(payload.encode("ascii"), validate=True)
    except Exception as exc:
        raise InvalidArgumentError(f"bad base64 payload: {exc}") from exc
    if len(raw) % 4:
        raise InvalidArgumentError("f32 payload length not a multiple of 4")
    return np.frombuffer(raw, dtype="<f4").astype(np.float64)


class _Connection:
    """One stdio or TCP channel with its own monotonically increasing ids."""

    def __init__(self, command: Sequence[str] | None, address: tuple[str, int] | None):
        self._command = list(command) if command else None
        self._address = address
        self._proc: subprocess.Popen | None = None
        self._sock: socket.socket | None = None
        self._rx = None
        self._tx = None
        self._next_id = 1
        self._due: float | None = None  # deadline of the request in flight
        self._due_changed = threading.Condition()
        self._open()

    def _open(self) -> None:
        if self._command:
            self._proc = subprocess.Popen(
                self._command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
            self._tx = self._proc.stdin
            self._rx = self._proc.stdout
            # one watchdog per child, not a thread per request: threads that
            # come and go race whatever lists this process's tasks
            self._watchdog = threading.Thread(target=self._watch, args=(self._proc,), daemon=True)
            self._watchdog.start()
        else:
            self._sock = socket.create_connection(self._address, timeout=_DEADLINE_S)
            self._tx = self._sock.makefile("w", encoding="utf-8", newline="\n")
            self._rx = self._sock.makefile("r", encoding="utf-8")
        self._next_id = 1

    def _watch(self, proc: subprocess.Popen) -> None:
        """Kill the child when the request in flight misses its deadline,
        which ends a blocked write or read."""
        with self._due_changed:
            while self._proc is proc:
                if self._due is not None and time.monotonic() >= self._due:
                    proc.kill()
                    self._due = None
                self._due_changed.wait(None if self._due is None else self._due - time.monotonic())

    def reset(self) -> None:
        self.close()
        self._open()

    def close(self) -> None:
        for stream in (self._tx, self._rx):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        proc = self._proc
        if proc is not None:
            with self._due_changed:
                self._proc = None  # ends the watchdog
                self._due_changed.notify()
            self._watchdog.join()
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def roundtrip(self, payload: dict) -> dict:
        req_id = self._next_id
        self._next_id += 1
        line = json.dumps({"id": req_id, **payload}, separators=(",", ":"))
        with self._due_changed:
            self._due = time.monotonic() + _DEADLINE_S
            self._due_changed.notify()
        try:
            self._tx.write(line + "\n")
            self._tx.flush()
            answer = self._rx.readline()
        except (OSError, ValueError) as exc:
            self.close()
            raise TransportError(f"connection broke during {payload.get('op')}: {exc}") from exc
        finally:
            self._due = None  # a watchdog waiting for this deadline finds none when it wakes
        if not answer:
            self.close()
            raise TransportError(f"peer closed the connection or missed the {_DEADLINE_S:g} s deadline "
                                 f"during {payload.get('op')}")
        try:
            msg = json.loads(answer)
        except json.JSONDecodeError as exc:
            raise TransportError(f"peer sent a non-JSON line: {answer[:80]!r}") from exc
        if not isinstance(msg, dict):
            raise TransportError(f"peer sent a line that is not a JSON object: {answer[:80]!r}")
        if msg.get("id") != req_id:
            raise TransportError(f"response id {msg.get('id')} does not match request id {req_id}")
        return msg


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


_ERROR_MAP = {
    "unsupported": UnsupportedError,
    "bad_input": InvalidArgumentError,
}


class ExternalScorer(Scorer):
    """Client for a scorer living in a child process or behind a TCP port.

    Owns one connection; a lock serializes its request/response stream, so
    concurrent submitters are safe. Batches are chunked to the peer's
    max_batch and reassembled in order. A constructor that fails closes
    the connection (and so stops the child) before it raises.
    """

    def __init__(self, command: Sequence[str] | None = None, address: tuple[str, int] | None = None):
        if (command is None) == (address is None):
            raise InvalidArgumentError("pass exactly one of command= or address=")
        self._conn = _Connection(command, address)
        self._lock = threading.Lock()
        try:
            hello = self._call({"op": "hello"})
            caps = hello.get("caps", [])
            max_batch = hello.get("max_batch", 1)
            if not isinstance(caps, list) or not _is_count(max_batch):
                raise TransportError(f"hello response carries no usable caps or max_batch: {hello}")
            self._caps = ScorerCaps(can_embed="embed" in caps, max_batch=max_batch)
            dims = hello.get("dims")
            if not isinstance(dims, list) or len(dims) != 3 or not all(map(_is_count, dims)):
                raise TransportError(f"hello response carries no usable dims: {hello}")
            self.dims = tuple(dims)
        except BaseException:
            self._conn.close()
            raise

    @property
    def caps(self) -> ScorerCaps:
        return self._caps

    def _call(self, payload: dict) -> dict:
        with self._lock:
            try:
                msg = self._conn.roundtrip(payload)
            except TransportError:
                # Single retry on a fresh connection; value disagreements
                # and protocol errors are never retried.
                self._conn.reset()
                msg = self._conn.roundtrip(payload)
        if "error" in msg:
            err = msg["error"]
            if not isinstance(err, dict):
                raise TransportError(f"peer error: {err!r}")
            exc_type = _ERROR_MAP.get(err.get("code"), TransportError)
            raise exc_type(f"peer error: {err.get('msg', err)}")
        return msg

    def _encode_image(self, image) -> str:
        return encode_f32(_as_image(image, self.dims))

    def score_batch(self, ref, queries: Sequence) -> np.ndarray:
        ref_b64 = self._encode_image(ref)
        scores = np.empty(len(queries), dtype=np.float64)
        step = self._caps.max_batch
        for start in range(0, len(queries), step):
            # encode one chunk at a time: a RISE stack as base64 is ~100 MB
            chunk = [self._encode_image(q) for q in queries[start:start + step]]
            msg = self._call({"op": "score_batch", "ref": ref_b64, "queries": chunk})
            got = msg.get("scores")
            if not isinstance(got, list) or len(got) != len(chunk):
                raise TransportError(f"score_batch returned {got!r} for a chunk of {len(chunk)}")
            bad = [s for s in got
                   if isinstance(s, bool) or not isinstance(s, (int, float)) or not -1.0 <= s <= 1.0]
            if bad:
                raise TransportError(f"score_batch returned scores that are not numbers in [-1, 1]: {bad[:3]!r}")
            scores[start:start + len(chunk)] = got
        return scores

    def embed(self, image) -> Embedding:
        if not self._caps.can_embed:
            raise UnsupportedError("external scorer does not advertise embed")
        msg = self._call({"op": "embed", "image": self._encode_image(image)})
        try:
            emb = Embedding(decode_f32(msg.get("data", "")))
        except InvalidArgumentError as exc:
            raise TransportError(f"embed returned no usable embedding: {exc}") from exc
        if msg.get("dim") != emb.dim:
            raise TransportError(f"embed dim field {msg.get('dim')} mismatches payload size {emb.dim}")
        return emb

    def close(self) -> None:
        with self._lock:
            self._conn.close()


# ---------------------------------------------------------------------------
# Reference stub server wrapping an in-process scorer
# ---------------------------------------------------------------------------


class _ScoreOnly(Scorer):
    """Strips the embed capability from a wrapped scorer (stub testing)."""

    def __init__(self, inner: Scorer):
        self._inner = inner
        self.dims = inner.dims

    @property
    def caps(self):
        return dataclasses.replace(self._inner.caps, can_embed=False)

    def score_batch(self, ref, queries):
        return self._inner.score_batch(ref, queries)

    def score_batch_flat(self, ref, rows):
        # the inner scorer takes the rows as they are, with no per-image copy
        return self._inner.score_batch_flat(ref, rows)


def _error_line(req_id: int, code: str, msg: str) -> str:
    return json.dumps({"id": req_id, "error": {"code": code, "msg": msg}}, separators=(",", ":"))


def _handle_line(line: str, scorer: Scorer, max_batch: int, last_id: list[int]) -> str:
    try:
        msg = json.loads(line)
        req_id = int(msg["id"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return _error_line(0, "bad_input", "unparseable request line")
    if req_id <= last_id[0]:
        return _error_line(req_id, "bad_input", f"ids must increase, got {req_id} after {last_id[0]}")
    last_id[0] = req_id

    op = msg.get("op")
    h, w, c = scorer.dims
    try:
        if op == "hello":
            caps = ["score"] + (["embed"] if scorer.caps.can_embed else [])
            return json.dumps(
                {"id": req_id, "caps": caps, "max_batch": max_batch, "dims": [h, w, c]},
                separators=(",", ":"),
            )
        if op == "score_batch":
            ref = decode_f32(msg["ref"]).reshape(h, w, c)
            raw_queries = msg["queries"]
            if len(raw_queries) > max_batch:
                raise InvalidArgumentError(f"batch of {len(raw_queries)} exceeds max_batch {max_batch}")
            queries = [decode_f32(q).reshape(h, w, c) for q in raw_queries]
            scores = scorer.score_batch(ref, queries)
            return json.dumps({"id": req_id, "scores": [float(s) for s in scores]}, separators=(",", ":"))
        if op == "embed":
            emb = scorer.embed(decode_f32(msg["image"]).reshape(h, w, c))
            return json.dumps(
                {"id": req_id, "dim": emb.dim, "data": encode_f32(emb.data)},
                separators=(",", ":"),
            )
        return _error_line(req_id, "bad_input", f"unknown op {op!r}")
    except UnsupportedError as exc:
        return _error_line(req_id, "unsupported", str(exc))
    except (InvalidArgumentError, KeyError, ValueError) as exc:
        return _error_line(req_id, "bad_input", str(exc))
    except Exception as exc:  # pragma: no cover - defensive
        return _error_line(req_id, "internal", str(exc))


def _serve(rx, tx, scorer: Scorer, max_batch: int) -> None:
    """Answer each request line of one connection until EOF."""
    last_id = [0]
    for line in rx:
        if not line.strip():
            continue
        tx.write(_handle_line(line, scorer, max_batch, last_id) + "\n")
        tx.flush()


def serve_stdio(scorer: Scorer, max_batch: int = 64) -> None:
    """Serve one connection over stdin/stdout until EOF."""
    _serve(sys.stdin, sys.stdout, scorer, max_batch)


class TcpServer:
    """TCP front end for a scorer; one handler thread per connection."""

    def __init__(self, scorer: Scorer, port: int = 0, max_batch: int = 64):
        self._scorer = scorer
        self._max_batch = max_batch
        self._server = socket.create_server(("127.0.0.1", port))
        self._server.settimeout(0.2)
        self.port: int = self._server.getsockname()[1]
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _handle(self, conn: socket.socket) -> None:
        with conn, conn.makefile("r", encoding="utf-8") as rx, conn.makefile("w", encoding="utf-8") as tx:
            _serve(rx, tx, self._scorer, self._max_batch)

    def serve_forever(self) -> None:
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._server.accept()
                except TimeoutError:
                    continue
                threading.Thread(target=self._handle, args=(conn,), daemon=True).start()
        finally:
            self._server.close()

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
