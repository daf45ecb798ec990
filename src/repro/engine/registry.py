"""Process-wide kernel registry: build each format's tables once per process.

Kernel tables are built with vectorized numpy kernels, a few thousand
lanes at a time: every served posit table (the 2**16-entry decode values,
a 256x256 add/mul pair, the 2**21-entry encode LUT), the softfloat
add/mul pairs and the LNS add tables build in milliseconds.  So tables are
built per process and never stored: the registry memoizes construction per
format key, and each parallel worker builds its own.

The registry also hosts the shared codec/table accessors that the rest of
the repo uses (:func:`get_codec`, :func:`get_posit_tables`), so repeated
quantized-network construction stops rebuilding identical 256x256 tables.
"""

from __future__ import annotations

import hashlib
import re
import threading
from typing import Callable, Dict, Optional

import numpy as np

from ..posit.format import PositFormat
from ..posit.tensor import TABLE_BUILD_CHUNK, PositCodec, PositTable
from .observe import METRICS, TRACER

__all__ = [
    "ENCODE_TABLE_TOP_BITS",
    "KernelRegistry",
    "REGISTRY",
    "array_digest",
    "dtype_name",
    "get_codec",
    "get_encode_table",
    "get_posit_tables",
]

#: Builders return a dict of named numpy arrays — the only thing the
#: registry stores.  Wrapper objects (codecs, tables) are reconstructed
#: from the arrays by the accessor functions below.
TableBuilder = Callable[[], Dict[str, np.ndarray]]


def _slug(key: tuple) -> str:
    """A filesystem-safe name for a format key (fault sites, content names)."""
    text = "_".join(str(part) for part in key)
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text)


def _digest(tables: Dict[str, np.ndarray]) -> bytes:
    """sha256 over the sorted (name, dtype, shape, bytes) of every table."""
    h = hashlib.sha256()
    for name in sorted(tables):
        arr = np.ascontiguousarray(tables[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.digest()


#: ``str(dtype)`` costs microseconds per call and every array that is
#: named or framed asks for it, so each dtype's name is spelled once.
_DTYPE_NAMES: Dict[np.dtype, str] = {}


def dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, memoized per dtype (``"float64"``, ``">f8"``, …)."""
    name = _DTYPE_NAMES.get(dtype)
    if name is None:
        name = _DTYPE_NAMES[dtype] = str(dtype)
    return name


def array_digest(arr: np.ndarray) -> str:
    """Hex sha256 content name of one array: dtype + shape + bytes.

    The building block of content addressing across the repo: the same
    per-table scheme :meth:`KernelRegistry.content_digest` hashes, so a
    tensor (or a kernel table) has exactly one name everywhere — two arrays
    share a digest iff they are bit-identical with the same dtype and shape.
    """
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(dtype_name(a.dtype).encode())
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


class KernelRegistry:
    """Memoizing in-process store of kernel tables.

    ``get(key, builder)`` returns the table dict for ``key``, building it at
    most once per process.  ``hits``/``misses`` count memo lookups — the
    "table hits/misses" of the engine's observability counters.
    """

    def __init__(self, fault_plan=None):
        self._memo: Dict[tuple, Dict[str, np.ndarray]] = {}
        self._objects: Dict[tuple, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Optional :class:`repro.engine.faults.FaultPlan` corrupting tables
        #: at ``get()`` time.  The memo stays pristine; corruption is
        #: re-derived per call from the plan + table contents, so it is
        #: bit-identical in every process.
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    def get(self, key: tuple, builder: TableBuilder) -> Dict[str, np.ndarray]:
        """The table dict for ``key``, built once per process.

        When a :attr:`fault_plan` is attached, the returned dict is a
        corrupted *copy* — the memoized tables themselves stay pristine.
        """
        with self._lock:
            if key in self._memo:
                self.hits += 1
                METRICS.inc("registry.hits")
                return self._faulted(key, self._memo[key])
            self.misses += 1
            METRICS.inc("registry.misses")
            with TRACER.span("registry.build", key=_slug(key)):
                tables = builder()
            METRICS.inc("registry.bytes_built", sum(a.nbytes for a in tables.values()))
            self._memo[key] = tables
            return self._faulted(key, tables)

    def _faulted(self, key: tuple, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Apply the attached fault plan (if any) to a pristine table dict."""
        plan = self.fault_plan
        if plan is None or getattr(plan, "lut_rate", 0.0) <= 0.0:
            return tables
        return plan.corrupt_tables(_slug(key), tables)

    def get_object(self, key: tuple, factory: Callable[[], object]) -> object:
        """Memoize an arbitrary object (codec wrappers, backends) per key."""
        with self._lock:
            if key in self._objects:
                self.hits += 1
                return self._objects[key]
            self.misses += 1
        obj = factory()  # build outside the lock: factories may call get()
        with self._lock:
            return self._objects.setdefault(key, obj)

    # ------------------------------------------------------------------
    # Content naming (the fog layer's kernel provenance hook)
    # ------------------------------------------------------------------
    def content_digest(self, key: tuple) -> Optional[str]:
        """Hex sha256 content name of the resident table dict for ``key``.

        ``None`` when ``key`` has no resident tables yet — content names
        exist only for tables that have actually been built, so a name can
        never refer to bytes this process has not seen.  Builds are
        deterministic, so the digest is a cross-process kernel identity:
        two nodes citing the same digest are provably executing over
        bit-identical tables.
        """
        with self._lock:
            tables = self._memo.get(key)
        if tables is None:
            return None
        return _digest(tables).hex()

    def content_names(self) -> Dict[str, str]:
        """``{format-key slug: hex digest}`` for every resident table dict.

        The registry's advertisement surface: :mod:`repro.fog` nodes publish
        these so routing and result caching can name the exact kernel bytes
        a computation ran over.
        """
        with self._lock:
            keys = list(self._memo)
        return {_slug(key): self.content_digest(key) for key in keys}

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "resident_tables": len(self._memo),
        }

    def clear(self) -> None:
        """Drop all memoized tables and reset the hit/miss counters."""
        with self._lock:
            self._memo.clear()
            self._objects.clear()
            self.hits = self.misses = 0


#: The process-wide registry every backend uses unless given a private one.
REGISTRY = KernelRegistry()


# ----------------------------------------------------------------------
# Shared accessors (the module-level codec/table cache)
# ----------------------------------------------------------------------
def get_codec(fmt: PositFormat, registry: Optional[KernelRegistry] = None) -> PositCodec:
    """The shared :class:`PositCodec` for ``fmt``, built once per process.

    Keyed by ``(nbits, es)``: every ``PositQuantizedNetwork`` and posit
    backend constructed for the same format reuses one codec (and its
    sorted value tables) instead of decoding them again.
    """
    reg = registry if registry is not None else REGISTRY
    key = ("posit", fmt.nbits, fmt.es, "codec")

    def factory() -> PositCodec:
        def build() -> Dict[str, np.ndarray]:
            codec = PositCodec(fmt)
            return {"values": codec.values, "boundaries": codec.boundaries}

        tables = reg.get(("posit", fmt.nbits, fmt.es, "values"), build)
        return PositCodec(fmt, values=tables["values"], boundaries=tables["boundaries"])

    return reg.get_object(key, factory)


def get_posit_tables(
    fmt: PositFormat,
    registry: Optional[KernelRegistry] = None,
    max_bits: int = 10,
) -> PositTable:
    """The shared pairwise add/mul :class:`PositTable` for ``fmt``."""
    reg = registry if registry is not None else REGISTRY
    key = ("posit", fmt.nbits, fmt.es, "pairwise")

    def factory() -> PositTable:
        tables = reg.get(
            ("posit", fmt.nbits, fmt.es, "addmul"),
            lambda: _build_posit_pair_tables(fmt, max_bits),
        )
        return PositTable(
            fmt,
            tables=(tables["add"], tables["mul"]),
            codec=get_codec(fmt, reg),
        )

    return reg.get_object(key, factory)


def _build_posit_pair_tables(fmt: PositFormat, max_bits: int) -> Dict[str, np.ndarray]:
    table = PositTable(fmt, max_bits=max_bits)
    return {"add": table.add_table, "mul": table.mul_table}


# ----------------------------------------------------------------------
# Direct float64-bits -> posit-code encode tables (the fused path's LUT)
# ----------------------------------------------------------------------
#: Fraction bits of a float64 kept verbatim in an encode-table key.  The
#: key is ``sign(1) | biased exp(11) | top fraction bits | sticky(1)`` —
#: 21 bits, a 2 MiB uint8 table per <= 8-bit format.
ENCODE_TABLE_TOP_BITS = 8

#: Widest format an encode table covers.  The correctness condition is
#: that no posit rounding boundary distinguishes two doubles sharing a
#: key: boundaries of an ``nbits``-bit posit are values of the
#: ``(nbits+1)``-bit format, whose significands carry at most ``nbits - 1``
#: bits — i.e. <= 7 fraction bits for ``nbits <= 8``, strictly inside the
#: 8 kept bits, so every boundary is itself a key representative (tail
#: zero, sticky clear) and no truncation interval straddles one.
ENCODE_TABLE_MAX_BITS = 8


def get_encode_table(
    fmt: PositFormat, registry: Optional["KernelRegistry"] = None
) -> np.ndarray:
    """The shared float64-bits -> posit-code encode LUT for ``fmt``.

    Indexed by ``key = (bits >> 44) << 1 | (low 44 bits != 0)`` of the
    float64 bit pattern; the entry is exactly
    ``get_codec(fmt).encode(x)`` for every double mapping to that key
    (built by encoding one representative per key through the codec —
    one per (sign, exponent) row where the whole row rounds alike — so
    parity with the baseline encoder holds by construction plus the
    boundary argument above).  Registry-memoized like every other kernel
    table.
    """
    if fmt.nbits > ENCODE_TABLE_MAX_BITS:
        raise ValueError(
            f"encode tables cover formats up to {ENCODE_TABLE_MAX_BITS} bits "
            f"(boundary significands must fit the kept fraction bits), got {fmt}"
        )
    reg = registry if registry is not None else REGISTRY
    f = ENCODE_TABLE_TOP_BITS
    # Resolved up front: the registry lock is not reentrant, so the codec
    # (itself a registry entry) must not be fetched from inside build().
    codec = get_codec(fmt, reg)

    def encode_keys(keys: np.ndarray) -> np.ndarray:
        top = keys >> np.uint64(1)
        sticky = keys & np.uint64(1)
        # Representative double per key: kept bits verbatim, sticky classes
        # get one tail bit set (any nonzero tail rounds identically).
        rep_bits = (top << np.uint64(52 - f)) | (sticky << np.uint64(52 - f - 1))
        return codec.encode(rep_bits.view(np.float64)).astype(np.uint8)

    def build() -> Dict[str, np.ndarray]:
        # A row is every key sharing one (sign, exponent).  Outside the
        # format's scale range every double of a row rounds to the same
        # code (minpos, maxpos or NaR), so each row starts as its first
        # key's code; only the subnormal rows (zero vs minpos) and the rows
        # within 2 of the scale range are encoded key by key.
        row = 1 << (f + 1)
        rows = np.arange(1 << 12, dtype=np.uint64)
        table = np.repeat(encode_keys(rows * np.uint64(row)), row)
        scale = np.arange(1 << 11) - 1023
        band = np.flatnonzero(
            (scale == -1023) | ((scale >= fmt.min_scale - 2) & (scale <= fmt.max_scale + 2))
        ).astype(np.uint64)
        full = np.concatenate([band, band + np.uint64(1 << 11)])  # both signs
        step = max(1, TABLE_BUILD_CHUNK // row)
        lane = np.arange(row, dtype=np.uint64)
        for i in range(0, len(full), step):
            keys = (full[i : i + step, None] * np.uint64(row) + lane).ravel()
            table[keys] = encode_keys(keys)
        return {"encode": table}

    return reg.get(("posit", fmt.nbits, fmt.es, "encode-lut"), build)["encode"]
