"""Newline-delimited JSON protocol to score with an out-of-process model.

One message per line. Requests carry strictly increasing ids per
connection; the peer answers every request with the same id, in order.

    -> {"id":1,"op":"hello"}
    <- {"id":1,"caps":["score","embed"],"max_batch":64,"dims":[56,56,3]}
    -> {"id":2,"op":"score_batch","ref":"<b64 f32 LE>","queries":["<b64>",...]}
    <- {"id":2,"scores":[...]}
    -> {"id":3,"op":"embed","image":"<b64>"}
    <- {"id":3,"dim":D,"data":"<b64 f32 LE>"}
    -> {"id":4,"op":"score_masks","ref":"<b64>","query":"<b64>","n":n,"form":...}
    <- {"id":4,"scores":[...]}
    <- {"id":N,"error":{"code":"unsupported|bad_input|internal","msg":"..."}}

``score_masks`` (advertised in the hello's caps) scores the query times n
keep masks, 1 <= n <= max_batch, sent as the codes ``saliency`` holds
them in; the peer rebuilds the code form and runs ``score_masked`` on it,
so a peer with ``keep_kernel`` never builds a masked copy. Bits are
``np.packbits`` of the C-order array, base64-encoded. The four forms:

    "form":"rise","g":g,"grids":"<b64 bits of (n,g,g)>","dy":[...],"dx":[...]
        0/1 grids, upsampled one cell oversize and cropped at row offset
        dy[i] in [0, ceil(H/g)) and column offset dx[i] in [0, ceil(W/g))
    "form":"selections","s":S,"keep":"<b64 bits of (n,S)>","segments":[...]
        superpixel choices over H*W segment labels in [0, S)
    "form":"boxes","top":[...],"bottom":[...],"left":[...],"right":[...]
        mask i keeps all but rows top[i]:bottom[i] of columns
        left[i]:right[i], with 0 <= top <= bottom <= H and
        0 <= left <= right <= W; an empty box keeps the whole image
    "form":"nested","order":[...],"counts":[...],"insertion":true|false
        mask i keeps the first counts[i] in [0, H*W] pixels of ``order``,
        a permutation of the H*W raster indices (insertion), or all the
        others (deletion)

Index lists hold JSON integers, never booleans. A field that is missing
or of the wrong size, type or range, or another form, is answered with
``bad_input``. So is a line that is not a JSON object whose id is an
integer >= 1, under id 0.

The client retries a request exactly once, and only after a transport
failure (dead pipe, truncated or unparseable line, a reply id that is not
the request's integer id, missed deadline); error responses are never
retried. A score that is not a finite number in [-1, 1] is a transport
error.

The peer is a child process spoken to over its stdin and stdout. Every
request has a deadline of 60 s: a peer that has not answered by then is
killed and reaped. A connection that failed is closed at once, so a hung
peer costs at most two deadlines (the request and its retry) before the
call raises ``TransportError``.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
import subprocess
import sys
import threading
import time
from typing import Sequence

import numpy as np

from .core import _as_image
from .errors import InvalidArgumentError, InvalidDataError, TransportError, UnsupportedError
from .saliency import RiseMasks, _Boxes, _Nested, _Selections, score_masked
from .scorers import Embedding, Scorer, ScorerCaps

_DEADLINE_S = 60.0
# the index lists of the "boxes" form, in the order of _Boxes' fields
_BOX_SIDES = ("top", "bottom", "left", "right")


def encode_f32(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f4").tobytes()).decode("ascii")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _decode_b64(payload: str) -> bytes:
    try:
        return base64.b64decode(payload.encode("ascii"), validate=True)
    except Exception as exc:
        raise InvalidArgumentError(f"bad base64 payload: {exc}") from exc


def decode_f32(payload: str) -> np.ndarray:
    raw = _decode_b64(payload)
    if len(raw) % 4:
        raise InvalidArgumentError("f32 payload length not a multiple of 4")
    return np.frombuffer(raw, dtype="<f4").astype(np.float64)


def _encode_bits(bits: np.ndarray) -> str:
    return base64.b64encode(np.packbits(np.asarray(bits, dtype=bool), axis=None).tobytes()).decode("ascii")


def _decode_bits(payload: str, shape: tuple[int, ...]) -> np.ndarray:
    count = math.prod(shape)
    raw = _decode_b64(payload)
    if len(raw) != -(-count // 8):
        raise InvalidArgumentError(f"bit payload of {len(raw)} bytes for {count} bits")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count).astype(bool).reshape(shape)


def _index_list(value, size: int, stop: int, name: str) -> np.ndarray:
    """A JSON list of ``size`` integers in [0, stop); a bool is no integer."""
    ints = isinstance(value, list) and len(value) == size and set(map(type, value)) == {int}
    # an integer beyond int64 makes an object or uint64 array
    arr = np.array(value) if ints else np.empty(0)
    if arr.dtype.kind != "i" or arr.min() < 0 or arr.max() >= stop:
        raise InvalidArgumentError(f"{name} must be a list of {size} integers in [0, {stop})")
    return arr.astype(np.intp)


def _field(msg: dict, name: str):
    """A field of a mask form; a missing one is bad input."""
    if name not in msg:
        raise InvalidArgumentError(f"the mask form has no {name!r} field")
    return msg[name]


def _mask_fields(masks, start: int, stop: int) -> dict:
    """The wire form of masks start..stop of a ``score_masked`` code form."""
    if isinstance(masks, RiseMasks):
        return {"form": "rise", "g": masks.grids.shape[1], "grids": _encode_bits(masks.grids[start:stop] == 1.0),
                "dy": masks.dy[start:stop].tolist(), "dx": masks.dx[start:stop].tolist()}
    if isinstance(masks, _Selections):
        return {"form": "selections", "s": masks.keep.shape[1], "keep": _encode_bits(masks.keep[start:stop]),
                "segments": masks.segments.ravel().tolist()}
    if isinstance(masks, _Boxes):
        return {"form": "boxes", **{side: getattr(masks, side)[start:stop].tolist() for side in _BOX_SIDES}}
    if isinstance(masks, _Nested):
        return {"form": "nested", "order": masks.order.tolist(), "counts": masks.counts[start:stop].tolist(),
                "insertion": masks.insertion}
    raise InvalidArgumentError(f"{type(masks).__name__} has no wire form")


def _masks_of(msg: dict, n: int, shape: tuple[int, int]):
    """The code form of a ``score_masks`` request's n masks."""
    h, w = shape
    form = msg.get("form")
    if form == "boxes":
        top, bottom = (_index_list(_field(msg, side), n, h + 1, side) for side in _BOX_SIDES[:2])
        left, right = (_index_list(_field(msg, side), n, w + 1, side) for side in _BOX_SIDES[2:])
        if np.any(bottom < top) or np.any(right < left):
            raise InvalidArgumentError("a box must not end before it starts")
        return _Boxes(top, bottom, left, right, shape)
    if form == "nested":
        order = _index_list(_field(msg, "order"), h * w, h * w, "order")
        if np.any(np.bincount(order, minlength=h * w) != 1):
            raise InvalidArgumentError(f"order must be a permutation of the {h * w} pixel indices")
        counts = _index_list(_field(msg, "counts"), n, h * w + 1, "counts")
        insertion = _field(msg, "insertion")
        if not isinstance(insertion, bool):
            raise InvalidArgumentError(f"insertion must be true or false, got {insertion!r}")
        return _Nested(order, counts, insertion, shape)
    if form == "rise":
        g = _field(msg, "g")
        if not _is_count(g) or g > max(h, w):
            raise InvalidArgumentError(f"RISE grid g must be an integer in [1, {max(h, w)}], got {g!r}")
        dy = _index_list(_field(msg, "dy"), n, math.ceil(h / g), "dy")
        dx = _index_list(_field(msg, "dx"), n, math.ceil(w / g), "dx")
        return RiseMasks.of_grids(_decode_bits(_field(msg, "grids"), (n, g, g)).astype(np.float64), dy, dx, shape)
    if form == "selections":
        s = _field(msg, "s")
        if not _is_count(s) or s > h * w:
            raise InvalidArgumentError(f"segment count s must be an integer in [1, {h * w}], got {s!r}")
        segments = _index_list(_field(msg, "segments"), h * w, s, "segments").reshape(h, w)
        return _Selections(_decode_bits(_field(msg, "keep"), (n, s)), segments)
    raise InvalidArgumentError(f"unknown mask form {form!r}")


def _json_object(line: str) -> dict:
    """The JSON object a line holds, or an empty one for any other line, one
    nested deeper than the parser's recursion limit included."""
    try:
        msg = json.loads(line)
    except (ValueError, RecursionError):
        return {}
    return msg if isinstance(msg, dict) else {}


class _Connection:
    """One child process over stdio, with its own monotonically increasing ids."""

    def __init__(self, command: Sequence[str]):
        self._command = list(command)
        self._proc: subprocess.Popen | None = None
        self._rx = None
        self._tx = None
        self._next_id = 1
        self._due: float | None = None  # deadline of the request in flight
        self._due_changed = threading.Condition()
        self._open()

    def _open(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self._command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as exc:
            raise TransportError(f"cannot start external scorer {self._command[0]!r}: {exc}") from exc
        self._tx = self._proc.stdin
        self._rx = self._proc.stdout
        # one watchdog per child, not a thread per request: threads that
        # come and go race whatever lists this process's tasks
        self._watchdog = threading.Thread(target=self._watch, args=(self._proc,), daemon=True)
        self._watchdog.start()
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
        msg = _json_object(answer)
        # True == 1 == 1.0, but only the integer is the request's id
        if type(msg.get("id")) is not int or msg["id"] != req_id:
            self.close()
            raise TransportError(f"peer sent a line that is not a JSON reply to request {req_id}: {answer[:80]!r}")
        return msg


_ERROR_MAP = {
    "unsupported": UnsupportedError,
    "bad_input": InvalidArgumentError,
}


class ExternalScorer(Scorer):
    """Client for a scorer living in a child process, spoken to over stdio.

    Owns one connection; a lock serializes its request/response stream, so
    concurrent submitters are safe. Batches are chunked to the peer's
    max_batch and reassembled in order. A constructor that fails closes
    the connection (and so stops the child) before it raises.
    """

    def __init__(self, command: Sequence[str]):
        if not command:
            raise InvalidArgumentError("command= must name the program of the external scorer")
        self._conn = _Connection(command)
        self._lock = threading.Lock()
        try:
            hello = self._call({"op": "hello"})
            caps = hello.get("caps", [])
            max_batch = hello.get("max_batch", 1)
            if not isinstance(caps, list) or not _is_count(max_batch):
                raise TransportError(f"hello response carries no usable caps or max_batch: {hello}")
            self._caps = ScorerCaps(can_embed="embed" in caps, max_batch=max_batch,
                                    can_score_masks="score_masks" in caps)
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

    def _chunked_scores(self, head: dict, count: int, fields) -> np.ndarray:
        """The scores of ``count`` items sent max_batch at a time: each
        request is ``head`` and then ``fields(start, stop)``, built just
        before it is sent (a RISE stack as base64 is ~100 MB)."""
        scores = np.empty(count, dtype=np.float64)
        step = self._caps.max_batch
        for start in range(0, count, step):
            stop = min(start + step, count)
            got = self._call({**head, **fields(start, stop)}).get("scores")
            if not isinstance(got, list) or len(got) != stop - start:
                raise TransportError(f"{head['op']} returned {got!r} for a chunk of {stop - start}")
            bad = [s for s in got
                   if isinstance(s, bool) or not isinstance(s, (int, float)) or not -1.0 <= s <= 1.0]
            if bad:
                raise TransportError(f"{head['op']} returned scores that are not numbers in [-1, 1]: {bad[:3]!r}")
            scores[start:stop] = got
        return scores

    def score_batch(self, ref, queries: Sequence) -> np.ndarray:
        return self._chunked_scores({"op": "score_batch", "ref": self._encode_image(ref)}, len(queries),
                                    lambda start, stop: {"queries": [self._encode_image(q)
                                                                     for q in queries[start:stop]]})

    def score_masks(self, ref, query, masks) -> np.ndarray:
        """Scores against ``ref`` of the query times each mask of a
        ``score_masked`` code form, sent as codes."""
        head = {"op": "score_masks", "ref": self._encode_image(ref), "query": self._encode_image(query)}
        return self._chunked_scores(head, len(masks),
                                    lambda start, stop: {"n": stop - start, **_mask_fields(masks, start, stop)})

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


def _reply(req_id: int, **fields) -> str:
    """One response line: the request's id, then ``fields``."""
    return json.dumps({"id": req_id, **fields}, separators=(",", ":"))


def _image_of(payload: str, dims: tuple[int, int, int]) -> np.ndarray:
    """An image field of a request; one holding a NaN or inf is refused,
    so no score computed from it can reach a reply."""
    image = decode_f32(payload).reshape(dims)
    if not np.all(np.isfinite(image)):
        raise InvalidDataError("images must hold finite pixel values")
    return image


def _handle_line(line: str, scorer: Scorer, max_batch: int, last_id: list[int]) -> str:
    msg = _json_object(line)
    req_id = msg.get("id")
    if not _is_count(req_id):
        return _reply(0, error={"code": "bad_input", "msg": "a request is a JSON object with an integer id >= 1"})
    if req_id <= last_id[0]:
        return _reply(req_id, error={"code": "bad_input", "msg": f"ids must increase, got {req_id} after {last_id[0]}"})
    last_id[0] = req_id

    op = msg.get("op")
    dims = scorer.dims
    try:
        if op == "hello":
            caps = ["score", "score_masks"] + (["embed"] if scorer.caps.can_embed else [])
            return _reply(req_id, caps=caps, max_batch=max_batch, dims=list(dims))
        if op == "score_batch":
            ref = _image_of(msg["ref"], dims)
            raw_queries = msg["queries"]
            if not isinstance(raw_queries, list):
                raise InvalidArgumentError(f"queries must be a list, got {type(raw_queries).__name__}")
            if len(raw_queries) > max_batch:
                raise InvalidArgumentError(f"batch of {len(raw_queries)} exceeds max_batch {max_batch}")
            scores = scorer.score_batch(ref, [_image_of(q, dims) for q in raw_queries])
            return _reply(req_id, scores=[float(s) for s in scores])
        if op == "score_masks":
            n = msg["n"]
            if not _is_count(n) or n > max_batch:
                raise InvalidArgumentError(f"mask count n must be an integer in [1, {max_batch}], got {n!r}")
            masks = _masks_of(msg, n, dims[:2])
            ref, query = (_image_of(msg[k], dims) for k in ("ref", "query"))
            return _reply(req_id, scores=[float(s) for s in score_masked(scorer, [ref], query, masks)])
        if op == "embed":
            emb = scorer.embed(_image_of(msg["image"], dims))
            return _reply(req_id, dim=emb.dim, data=encode_f32(emb.data))
        raise InvalidArgumentError(f"unknown op {op!r}")
    except UnsupportedError as exc:
        return _reply(req_id, error={"code": "unsupported", "msg": str(exc)})
    except (InvalidArgumentError, InvalidDataError, KeyError, ValueError) as exc:
        return _reply(req_id, error={"code": "bad_input", "msg": str(exc)})
    except Exception as exc:  # pragma: no cover - defensive
        return _reply(req_id, error={"code": "internal", "msg": str(exc)})


def serve_stdio(scorer: Scorer, max_batch: int = 64) -> None:
    """Answer each request line of stdin on stdout until EOF."""
    last_id = [0]
    for line in sys.stdin:
        if not line.strip():
            continue
        sys.stdout.write(_handle_line(line, scorer, max_batch, last_id) + "\n")
        sys.stdout.flush()
