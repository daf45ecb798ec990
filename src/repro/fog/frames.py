"""repro.fog.frames — length-prefixed binary framing for the peer wire.

Shipping tensors as base64 inside an NDJSON line costs +33% bytes on the
wire and an encode/decode pass on both ends of every interest.  This
module uses a two-part frame instead: it keeps the NDJSON header (one
JSON object per line — cheap to parse, easy to extend, trivially
debuggable) but moves array payloads out of the JSON entirely:

.. code-block:: text

    {"op":"interest", ..., "a": {"__bin__":0, "dtype":"float64",
     "shape":[4,6]}, "bins":[192]}\\n
    <192 raw little-endian bytes>

* :func:`pack_frame` walks a frame dict, lifts every ``numpy`` array out
  into an ordered binary segment, replaces it with a ``__bin__``
  descriptor (dtype, shape, and optionally the sha256 digest) and appends
  the segments verbatim after the header line.  The header's ``bins``
  list is the receiver's exact read plan: it says how many body bytes
  follow the newline before the next frame starts.
* :class:`FrameAssembler` is the incremental inverse: feed it raw socket
  bytes in any chunking and it yields complete frames with the arrays
  restored **bit-identically** (``np.frombuffer`` over the exact producer
  bytes — no float round-trip, no base64).  Malformed input of any kind
  raises :class:`~repro.serve.protocol.ProtocolError`; nothing else
  escapes.

A frame with no arrays degenerates to a plain NDJSON line (no ``bins``
key), so heartbeats and acks stay readable on the wire.  Binary frames
are the only array encoding between peers: a base64 ``{dtype, shape,
data}`` object where an array belongs is rejected as malformed.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..serve.protocol import (
    MAX_ELEMENTS,
    ProtocolError,
    decode_line,
    encode_line,
)

__all__ = ["pack_frame", "unpack_frame", "FrameAssembler", "MAX_FRAME_BYTES"]

#: Hard ceiling for one whole frame (header line + binary body).  Matches
#: the peer transport's historical NDJSON cap so an oversized or hostile
#: frame can never wedge a node's memory.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Key marking an array descriptor inside a packed header.
_BIN_KEY = "__bin__"


def _lift(value, bodies: List[bytes]):
    """Replace every ndarray in ``value`` with a ``__bin__`` descriptor."""
    if isinstance(value, np.ndarray):
        # ``tobytes`` always emits C-order bytes, whatever the layout; the
        # descriptor keeps the *original* shape (``ascontiguousarray``
        # would silently promote 0-dim arrays to 1-d).
        descriptor = {
            _BIN_KEY: len(bodies),
            "dtype": str(value.dtype),
            "shape": list(value.shape),
        }
        bodies.append(value.tobytes())
        return descriptor
    if isinstance(value, dict):
        return {str(k): _lift(v, bodies) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_lift(v, bodies) for v in value]
    return value


def pack_frame(frame: dict) -> bytes:
    """One wire frame: NDJSON header line + concatenated raw array bytes.

    Arrays anywhere in ``frame`` (nested dicts/lists included) travel as
    exact bytes after the header; everything else stays JSON.  A frame
    without arrays is a plain NDJSON line, bit-compatible with the
    legacy peer protocol.
    """
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a dict")
    bodies: List[bytes] = []
    header = _lift(frame, bodies)
    if bodies:
        header["bins"] = [len(b) for b in bodies]
    payload = encode_line(header) + b"".join(bodies)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame is {len(payload)} bytes (limit {MAX_FRAME_BYTES})",
            code="too_large",
        )
    return payload


def _restore(value, bodies: List[bytes]):
    """Inverse of :func:`_lift`: descriptors become verified arrays."""
    if isinstance(value, dict):
        if _BIN_KEY in value:
            return _decode_descriptor(value, bodies)
        return {k: _restore(v, bodies) for k, v in value.items()}
    if isinstance(value, list):
        return [_restore(v, bodies) for v in value]
    return value


def _decode_descriptor(desc: dict, bodies: List[bytes]) -> np.ndarray:
    try:
        index = int(desc[_BIN_KEY])
        dtype = np.dtype(str(desc["dtype"]))
        shape = tuple(int(n) for n in desc["shape"])
    except (KeyError, TypeError, ValueError) as err:
        raise ProtocolError(f"malformed binary descriptor: {err!r}")
    if dtype.hasobject:
        raise ProtocolError("object dtypes cannot cross the wire")
    if not 0 <= index < len(bodies):
        raise ProtocolError(f"binary descriptor index {index} out of range")
    count = 1
    for n in shape:
        if n < 0:
            raise ProtocolError(f"negative dimension in shape {shape}")
        count *= n
    if count > MAX_ELEMENTS:
        raise ProtocolError(
            f"array has {count} elements (limit {MAX_ELEMENTS})", code="too_large"
        )
    raw = bodies[index]
    if len(raw) != count * dtype.itemsize:
        raise ProtocolError(
            f"binary segment {index} is {len(raw)} bytes, "
            f"expected {count * dtype.itemsize} for {dtype}{shape}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def unpack_frame(header: dict, body: bytes) -> dict:
    """Rebuild a frame from its decoded header and raw body bytes."""
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    bins = header.get("bins", [])
    if not isinstance(bins, list):
        raise ProtocolError("'bins' must be a list of segment lengths")
    lengths = []
    for n in bins:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ProtocolError(f"bad binary segment length {n!r}")
        lengths.append(n)
    if sum(lengths) != len(body):
        raise ProtocolError(
            f"frame body is {len(body)} bytes, header promises {sum(lengths)}"
        )
    bodies: List[bytes] = []
    offset = 0
    for n in lengths:
        bodies.append(body[offset : offset + n])
        offset += n
    restored = {
        k: _restore(v, bodies) for k, v in header.items() if k != "bins"
    }
    return restored


class FrameAssembler:
    """Incremental frame parser over an untrusted byte stream.

    Feed it chunks in whatever sizes the socket produced; :meth:`next_frame`
    returns one complete decoded frame (arrays restored) or ``None`` when
    more bytes are needed.  Any malformed input — an unparsable header
    line, an oversized frame, descriptor/segment mismatches — raises
    :class:`~repro.serve.protocol.ProtocolError`; the assembler is then
    poisoned (the stream cannot be resynchronized once a length prefix is
    untrustworthy) and every later call re-raises.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES):
        self.max_frame = int(max_frame)
        self._buf = bytearray()
        #: Parsed header waiting for its binary body, plus the byte count.
        self._header: Optional[dict] = None
        self._body_len = 0
        self._dead: Optional[ProtocolError] = None

    def feed(self, data: bytes) -> None:
        self._buf += data

    def _fail(self, err: ProtocolError) -> ProtocolError:
        self._dead = err
        return err

    def next_frame(self) -> Optional[dict]:
        if self._dead is not None:
            raise self._dead
        if self._header is None:
            newline = self._buf.find(b"\n")
            if newline < 0:
                if len(self._buf) > self.max_frame:
                    raise self._fail(
                        ProtocolError("oversized frame header", code="too_large")
                    )
                return None
            line = bytes(self._buf[:newline])
            del self._buf[: newline + 1]
            try:
                header = decode_line(line)
            except ProtocolError as err:
                raise self._fail(err)
            if not isinstance(header, dict):
                raise self._fail(ProtocolError("frame header must be an object"))
            bins = header.get("bins", [])
            if not isinstance(bins, list) or any(
                not isinstance(n, int) or isinstance(n, bool) or n < 0
                for n in bins
            ):
                raise self._fail(ProtocolError("malformed 'bins' lengths"))
            body_len = sum(bins)
            if len(line) + 1 + body_len > self.max_frame:
                raise self._fail(
                    ProtocolError("oversized frame body", code="too_large")
                )
            self._header = header
            self._body_len = body_len
        if len(self._buf) < self._body_len:
            return None
        body = bytes(self._buf[: self._body_len])
        del self._buf[: self._body_len]
        header, self._header = self._header, None
        try:
            return unpack_frame(header, body)
        except ProtocolError as err:
            raise self._fail(err)

    def frames(self) -> Iterator[dict]:
        """Drain every complete frame currently buffered."""
        while True:
            frame = self.next_frame()
            if frame is None:
                return
            yield frame

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
