"""repro.serve.protocol — the newline-delimited-JSON wire format.

One request per line, one JSON object per request; responses come back as
JSON lines correlated by ``id`` (they may arrive out of order — the
dynamic batcher completes whole batches, not a FIFO).  The same socket
also answers plain ``GET /healthz`` / ``GET /metrics`` HTTP requests (see
:mod:`repro.serve.server`), so one port serves both the data plane and the
scrape plane.

Request shape::

    {"id": "r1", "workload": "posit_matmul", "tenant": "acme",
     "bits": 8, "es": 2, "deadline_ms": 250,
     "a": [[...], ...], "b": [[...], ...]}

Workloads:

* ``posit_matmul`` — posit-rounded ``a @ b``: operands encode into
  posit<bits, es>, the contraction accumulates exact products at 53-bit
  precision, the result rounds once per output element.
* ``nn_predict`` — posit-quantized DNN inference: ``x`` is one sample (or
  a small stack) for a named zoo model (``resnet`` / ``kws1`` / ``kws2``);
  samples from concurrent requests coalesce into one engine batch.
* ``approx_matmul`` — int8 ``a @ b`` through a named approximate
  multiplier's behaviour table (``mult``: ``exact`` or a
  :data:`repro.approx.TABLE2_SET` name like ``trunc6``), exact int64
  accumulation.

Success response: ``{"id", "ok": true, "result", "ms", "batch_rows"}``.
Failure: ``{"id", "ok": false, "error": <code>, "message", and
"retry_after_ms" on admission rejections}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "WORKLOADS",
    "ProtocolError",
    "Rejected",
    "Request",
    "parse_request",
    "encode_line",
    "decode_line",
    "ok_response",
    "error_response",
    "decode_array",
    "request_to_wire",
    "request_from_wire",
    "interest_frame",
    "heartbeat_frame",
    "carry_frame",
]

WORKLOADS = ("posit_matmul", "nn_predict", "approx_matmul")

#: Hard per-request payload ceiling (elements across all arrays): a single
#: oversized request must not be able to wedge the dispatch thread.
MAX_ELEMENTS = 1 << 20


class ProtocolError(ValueError):
    """A malformed request: unparsable JSON, bad fields, oversized payload."""

    def __init__(self, message: str, code: str = "bad_request"):
        super().__init__(message)
        self.code = code


class Rejected(Exception):
    """Admission refused this request; retry after ``retry_after_s``."""

    def __init__(self, reason: str, retry_after_s: float):
        super().__init__(f"rejected: {reason}")
        self.reason = reason
        self.retry_after_s = float(retry_after_s)


@dataclass
class Request:
    """One validated in-flight request (wire fields + server bookkeeping)."""

    id: str
    workload: str
    tenant: str
    bits: int
    es: int
    model: Optional[str] = None
    mult: Optional[str] = None
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    #: Row count this request contributes to a coalesced batch.
    rows: int = 1
    #: Monotonic instants stamped by the server.
    received_s: float = 0.0
    deadline_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def batch_key(self) -> Tuple:
        """Requests with equal keys may coalesce into one dispatch."""
        if self.workload == "nn_predict":
            return ("nn_predict", self.model, self.bits, self.es)
        if self.workload == "posit_matmul":
            return ("posit_matmul", self.bits, self.es)
        return ("approx_matmul", self.mult)

    def expired(self, now: float) -> bool:
        return self.deadline_s is not None and now > self.deadline_s


def _array_field(obj: dict, name: str, ndim_ok: Tuple[int, ...]) -> np.ndarray:
    try:
        arr = np.asarray(obj[name], dtype=np.float64)
    except KeyError:
        raise ProtocolError(f"missing array field {name!r}")
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"field {name!r} is not numeric: {err}")
    if arr.ndim not in ndim_ok:
        raise ProtocolError(
            f"field {name!r} must have {ndim_ok} dims, got {arr.ndim}"
        )
    if arr.size == 0:
        raise ProtocolError(f"field {name!r} is empty")
    if arr.size > MAX_ELEMENTS:
        raise ProtocolError(
            f"field {name!r} has {arr.size} elements (limit {MAX_ELEMENTS})",
            code="too_large",
        )
    if not np.all(np.isfinite(arr)):
        raise ProtocolError(f"field {name!r} contains non-finite values")
    return arr


def parse_request(obj: dict) -> Request:
    """Validate one decoded JSON object into a :class:`Request`."""
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    req_id = str(obj.get("id", ""))
    if not req_id:
        raise ProtocolError("request needs a non-empty 'id'")
    workload = obj.get("workload")
    if workload not in WORKLOADS:
        raise ProtocolError(
            f"unknown workload {workload!r} (expected one of {list(WORKLOADS)})"
        )
    try:
        bits = int(obj.get("bits", 8))
        es = int(obj.get("es", 2))
    except (TypeError, ValueError):
        raise ProtocolError("'bits' and 'es' must be integers")
    if not (3 <= bits <= 32) or not (0 <= es <= 4):
        raise ProtocolError(f"unsupported format posit<{bits},{es}>")
    req = Request(
        id=req_id,
        workload=workload,
        tenant=str(obj.get("tenant", "default")),
        bits=bits,
        es=es,
    )
    if workload == "posit_matmul":
        req.a = _array_field(obj, "a", (2,))
        req.b = _array_field(obj, "b", (2,))
        if req.a.shape[1] != req.b.shape[0]:
            raise ProtocolError(
                f"shape mismatch {req.a.shape} @ {req.b.shape}"
            )
        req.rows = req.a.shape[0]
    elif workload == "nn_predict":
        req.model = str(obj.get("model", "kws1"))
        x = _array_field(obj, "x", (3, 4))
        if x.ndim == 3:  # one sample -> batch of one
            x = x[None]
        req.x = x
        req.rows = x.shape[0]
    else:  # approx_matmul
        req.mult = str(obj.get("mult", "exact"))
        a = _array_field(obj, "a", (2,))
        b = _array_field(obj, "b", (2,))
        if a.shape[1] != b.shape[0]:
            raise ProtocolError(f"shape mismatch {a.shape} @ {b.shape}")
        if (
            np.any(a != np.round(a))
            or np.any(b != np.round(b))
            or a.min() < -128
            or a.max() > 127
            or b.min() < -128
            or b.max() > 127
        ):
            raise ProtocolError("approx_matmul operands must be int8-valued")
        req.a = a.astype(np.int64)
        req.b = b.astype(np.int64)
        req.rows = req.a.shape[0]
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        try:
            req.attrs["deadline_ms"] = float(deadline_ms)
        except (TypeError, ValueError):
            raise ProtocolError("'deadline_ms' must be a number")
        if req.attrs["deadline_ms"] <= 0:
            raise ProtocolError("'deadline_ms' must be positive")
    return req


# ----------------------------------------------------------------------
# Line codec + response builders
# ----------------------------------------------------------------------
def encode_line(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def decode_line(line: bytes) -> dict:
    try:
        return json.loads(line.decode())
    except (UnicodeDecodeError, ValueError) as err:
        raise ProtocolError(f"unparsable request line: {err}")


def ok_response(
    req_id: str, result: np.ndarray, ms: float, batch_rows: int
) -> dict:
    return {
        "id": req_id,
        "ok": True,
        "result": np.asarray(result).tolist(),
        "ms": round(float(ms), 4),
        "batch_rows": int(batch_rows),
    }


def error_response(
    req_id: str,
    code: str,
    message: str,
    retry_after_ms: Optional[float] = None,
) -> dict:
    out = {"id": req_id, "ok": False, "error": code, "message": message}
    if retry_after_ms is not None:
        out["retry_after_ms"] = round(float(retry_after_ms), 3)
    return out


# ----------------------------------------------------------------------
# Fabric wire format: arrays, requests and frames between fog peers
# ----------------------------------------------------------------------
# The cross-process fabric (:mod:`repro.fog.fabric`) carries tensors as raw
# ``ndarray`` values that :func:`repro.fog.frames.pack_frame` lifts into the
# frame's binary body: the bytes that leave one process are exactly the
# bytes that arrive in the other, so the fog's byte-identity contract
# survives the socket with no float round-trip argument needed.

def decode_array(obj) -> np.ndarray:
    """A private copy of one received array field; raises :class:`ProtocolError`.

    The binary frame codec (:mod:`repro.fog.frames`) restores arrays
    before a frame reaches any handler, so anything else where an array
    belongs (a JSON object, a list) is a malformed frame.
    """
    if not isinstance(obj, np.ndarray):
        raise ProtocolError(f"array field must be a binary array, got {type(obj).__name__}")
    if obj.dtype.hasobject:
        raise ProtocolError("object dtypes cannot cross the wire")
    if obj.size > MAX_ELEMENTS:
        raise ProtocolError(
            f"array has {obj.size} elements (limit {MAX_ELEMENTS})",
            code="too_large",
        )
    return np.array(obj, copy=True)


#: Request fields that cross the fabric wire verbatim (arrays travel raw in
#: the frame's binary body; server bookkeeping stays home).
_WIRE_SCALARS = ("id", "workload", "tenant", "bits", "es", "model", "mult", "rows")


def request_to_wire(req: Request) -> dict:
    """A validated :class:`Request` as a fabric payload.

    Arrays stay raw ``ndarray`` values for
    :func:`repro.fog.frames.pack_frame` to lift into the frame's binary
    body — no base64, no +33% wire bytes.
    """
    out = {name: getattr(req, name) for name in _WIRE_SCALARS}
    for name in ("a", "b", "x"):
        arr = getattr(req, name)
        if arr is not None:
            out[name] = np.ascontiguousarray(arr)
    return out


def request_from_wire(obj: dict) -> Request:
    """Rebuild a :class:`Request` shipped by :func:`request_to_wire`.

    Peers trust each other's validation (every request was parsed at the
    serve front door), so this only re-checks structure, not semantics.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("wire request must be a JSON object")
    try:
        req = Request(
            id=str(obj["id"]),
            workload=str(obj["workload"]),
            tenant=str(obj.get("tenant", "default")),
            bits=int(obj["bits"]),
            es=int(obj["es"]),
            model=obj.get("model"),
            mult=obj.get("mult"),
            rows=int(obj.get("rows", 1)),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ProtocolError(f"malformed wire request: {err!r}")
    if req.workload not in WORKLOADS:
        raise ProtocolError(f"unknown workload {req.workload!r}")
    for name in ("a", "b", "x"):
        if obj.get(name) is not None:
            setattr(req, name, decode_array(obj[name]))
    return req


def interest_frame(req: Request, budget_ms: Optional[float] = None) -> dict:
    """One fabric interest: a named computation plus its remaining deadline
    budget in milliseconds.  The budget is decremented by every hop and
    retry on the sending side — a peer that receives a spent budget must
    answer ``deadline`` without executing, never work past it."""
    frame = {"op": "interest", "request": request_to_wire(req)}
    if budget_ms is not None:
        frame["budget_ms"] = round(float(budget_ms), 3)
    return frame


def heartbeat_frame(seq: int) -> dict:
    """One liveness probe; peers echo ``seq`` so acks can't be conflated."""
    return {"op": "heartbeat", "seq": int(seq)}


def carry_frame(
    name_uri: str,
    result: np.ndarray,
    digest: str,
    cost: Optional[float] = None,
) -> dict:
    """On-path cache repopulation: a result and its pinned sha256 digest.

    The receiver re-computes the digest of the decoded bytes and refuses
    the entry on mismatch — the same integrity posture the content store
    applies on every read.  ``cost`` (recompute milliseconds, when the
    producer measured it) travels along so the receiving store's
    admission policy can weigh the entry.
    """
    frame = {
        "op": "carry",
        "name": str(name_uri),
        "result": np.ascontiguousarray(result),
        "digest": str(digest),
    }
    if cost is not None:
        frame["cost"] = round(float(cost), 4)
    return frame
