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

``max_batch`` bounds the queries of one ``score_batch`` request; the
client sends larger batches in chunks of that many. ``score_masks``
(advertised in the hello's caps) scores the query times n >= 1 keep
masks, a whole code form in one request, sent as the codes ``saliency``
holds them in; the peer rebuilds the code form and runs ``score_masked``
on it once, so a peer with ``keep_kernel`` never builds a masked copy
and forms the query's kernel once per form. Bits are ``np.packbits`` of
the C-order array, base64-encoded. The four forms:

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
``bad_input``. So is a request that would unpack more than 2**24 mask
bits (n*g*g for "rise", n*S for "selections"), which the client raises
as ``InvalidArgumentError``, and a line that is not a JSON object whose
id is an integer >= 1, under id 0.

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

from .core import _as_image, _is_int
from .errors import InvalidArgumentError, InvalidDataError, TransportError, UnsupportedError
from .saliency import RiseMasks, _Boxes, _Nested, _Selections, score_masked
from .scorers import Embedding, Scorer, ScorerCaps

_DEADLINE_S = 60.0
# the stub's bound on the queries of a score_batch request, sent in its hello
_MAX_BATCH = 64
# the most mask bits one score_masks request unpacks: 2**24 admits any
# form a command makes (2,000 RISE grids of 8 x 8 are 128,000)
_MAX_BITS = 2 ** 24
# the index lists of the "boxes" form, in the order of _Boxes' fields
_BOX_SIDES = ("top", "bottom", "left", "right")


def encode_f32(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f4").tobytes()).decode("ascii")


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


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
    if count > _MAX_BITS:
        raise InvalidArgumentError(f"a request unpacks at most {_MAX_BITS} mask bits, not {count}")
    raw = _decode_b64(payload)
    if len(raw) != -(-count // 8):
        raise InvalidArgumentError(f"bit payload of {len(raw)} bytes for {count} bits")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=count).astype(bool).reshape(shape)


def _index_list(value, size: int, stop: int, name: str) -> np.ndarray:
    """A JSON list of ``size`` integers in [0, stop); a bool is no integer."""
    ints = isinstance(value, list) and len(value) == size and _is_int(*value)
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


def _mask_fields(masks) -> dict:
    """The wire form of a ``score_masked`` code form."""
    if isinstance(masks, RiseMasks):
        return {"form": "rise", "g": masks.grids.shape[1], "grids": _encode_bits(masks.grids == 1.0),
                "dy": masks.dy.tolist(), "dx": masks.dx.tolist()}
    if isinstance(masks, _Selections):
        return {"form": "selections", "s": masks.keep.shape[1], "keep": _encode_bits(masks.keep),
                "segments": masks.segments.ravel().tolist()}
    if isinstance(masks, _Boxes):
        return {"form": "boxes", **{side: getattr(masks, side).tolist() for side in _BOX_SIDES}}
    if isinstance(masks, _Nested):
        return {"form": "nested", "order": masks.order.tolist(), "counts": masks.counts.tolist(),
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
        grids = _decode_bits(_field(msg, "grids"), (n, g, g))
        dy = _index_list(_field(msg, "dy"), n, math.ceil(h / g), "dy")
        dx = _index_list(_field(msg, "dx"), n, math.ceil(w / g), "dx")
        return RiseMasks.of_grids(grids.astype(np.float64), dy, dx, shape)
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
        if not _is_int(msg.get("id")) or msg["id"] != req_id:
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
    concurrent submitters are safe. ``score_batch`` sends its queries in
    chunks of the peer's max_batch and reassembles them in order;
    ``score_masks`` sends a code form whole, in one request. A constructor
    that fails closes the connection (and so stops the child) before it
    raises.
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

    def _scores(self, payload: dict, count: int) -> np.ndarray:
        """The ``count`` scores of one request's reply: a list of numbers
        in [-1, 1], anything else a ``TransportError``."""
        got = self._call(payload).get("scores")
        if not isinstance(got, list) or len(got) != count:
            raise TransportError(f"{payload['op']} returned {got!r} for {count} items")
        bad = [s for s in got if isinstance(s, bool) or not isinstance(s, (int, float)) or not -1.0 <= s <= 1.0]
        if bad:
            raise TransportError(f"{payload['op']} returned scores that are not numbers in [-1, 1]: {bad[:3]!r}")
        return np.array(got, dtype=np.float64)

    def score_batch(self, ref, queries: Sequence) -> np.ndarray:
        head = {"op": "score_batch", "ref": self._encode_image(ref)}
        chunks = [queries[s:s + self._caps.max_batch] for s in range(0, len(queries), self._caps.max_batch)]
        # each chunk is encoded just before its request is sent
        return np.concatenate([np.empty(0)] + [
            self._scores({**head, "queries": [self._encode_image(q) for q in chunk]}, len(chunk)) for chunk in chunks])

    def score_masks(self, ref, query, masks) -> np.ndarray:
        """Scores against ``ref`` of the query times each mask of a
        ``score_masked`` code form, sent whole as codes in one request."""
        if not len(masks):
            return np.empty(0)
        return self._scores({"op": "score_masks", "ref": self._encode_image(ref), "query": self._encode_image(query),
                             "n": len(masks), **_mask_fields(masks)}, len(masks))

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


def _handle_line(line: str, scorer: Scorer, last_id: list[int]) -> str:
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
            return _reply(req_id, caps=caps, max_batch=_MAX_BATCH, dims=list(dims))
        if op == "score_batch":
            ref = _image_of(msg["ref"], dims)
            raw_queries = msg["queries"]
            if not isinstance(raw_queries, list):
                raise InvalidArgumentError(f"queries must be a list, got {type(raw_queries).__name__}")
            if len(raw_queries) > _MAX_BATCH:
                raise InvalidArgumentError(f"batch of {len(raw_queries)} exceeds max_batch {_MAX_BATCH}")
            scores = scorer.score_batch(ref, [_image_of(q, dims) for q in raw_queries])
            return _reply(req_id, scores=[float(s) for s in scores])
        if op == "score_masks":
            n = msg["n"]
            if not _is_count(n):
                raise InvalidArgumentError(f"mask count n must be an integer >= 1, got {n!r}")
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


def serve_stdio(scorer: Scorer) -> None:
    """Answer each request line of stdin on stdout until EOF. Lines are
    read as bytes, whatever the locale's stdin encoding, and a byte that
    is not UTF-8 decodes to U+FFFD: a line it leaves no JSON object is
    answered like any other such line, and the stub stays up."""
    last_id = [0]
    for raw in sys.stdin.buffer:
        line = raw.decode("utf-8", errors="replace")
        if not line.strip():
            continue
        sys.stdout.write(_handle_line(line, scorer, last_id) + "\n")
        sys.stdout.flush()
