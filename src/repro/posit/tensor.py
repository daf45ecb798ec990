"""Vectorized posit quantization and LUT arithmetic for tensors.

For formats up to 16 bits the full code-to-value table fits in memory, so
encoding an array is a binary search over the sorted real values plus the
posit rounding rules (ties to even pattern, never round a nonzero value to
zero, clamp to minpos/maxpos).  This is the building block for
posit-quantized neural-network inference (:mod:`repro.nn.posit_inference`).

For narrow formats, :class:`PositTable` additionally tabulates the full
add/mul behaviour (two ``2**nbits x 2**nbits`` tables — what a software
emulation library like SoftPosit effectively plays with at these widths),
giving bulk posit arithmetic at numpy speed, plus quire-backed exact dot
products.  :class:`PositTable8` is the 8-bit specialization kept for
backward compatibility.

Tables are built with the bit-parallel field-extraction decode of
:mod:`repro.posit.vector` and this module's own correctly rounded
``encode``, a few thousand lanes at a time; the scalar
:class:`~repro.posit.value.Posit` model is their test oracle, not their
builder.  :mod:`repro.engine.registry` memoizes construction per format
and can persist the tables to disk.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import vector as pvec
from .format import PositFormat
from .quire import Quire
from .value import Posit

__all__ = ["PositCodec", "PositTable", "PositTable8"]

#: Lanes per table-build step (here and in the registry's encode LUT).
#: The bit-parallel kernels allocate about a dozen temporaries per lane, so
#: building a 2**16-entry table in one shot would raise a server's peak
#: RSS by several MB for no gain in speed.
TABLE_BUILD_CHUNK = 4096


def _decode_chunked(fmt: PositFormat, codes: np.ndarray) -> np.ndarray:
    """Exact float64 values of ``codes`` (NaR -> NaN), in build chunks."""
    out = np.empty(len(codes), dtype=np.float64)
    for s in range(0, len(codes), TABLE_BUILD_CHUNK):
        e = s + TABLE_BUILD_CHUNK
        pvec.vector_decode(fmt, codes[s:e], out=out[s:e])
    return out


def _validate_posit_format(fmt, max_nbits: int = 16) -> None:
    """Reject unsupported widths up front, before any table construction.

    :class:`PositFormat` itself validates on construction, but these
    classes accept any duck-typed descriptor with ``nbits``/``es``; a bad
    one used to surface as an opaque failure deep inside the O(4**nbits)
    table builds.
    """
    nbits = getattr(fmt, "nbits", None)
    es = getattr(fmt, "es", None)
    if not isinstance(nbits, int) or not isinstance(es, int):
        raise ValueError(
            f"posit format descriptor needs integer nbits/es, got {fmt!r}"
        )
    if nbits < 2:
        raise ValueError(f"unsupported posit width nbits={nbits}: need nbits >= 2")
    if es < 0:
        raise ValueError(f"unsupported posit exponent field es={es}: need es >= 0")
    if nbits > max_nbits:
        raise ValueError(
            f"tabulated posit arithmetic supports at most {max_nbits}-bit "
            f"formats, got nbits={nbits}"
        )


class PositCodec:
    """Bulk encode/decode between float arrays and posit codes.

    ``values`` (every code's value) and ``boundaries`` (the rounding
    boundaries) are decoded bit-parallel, a few milliseconds even at 16
    bits; prebuilt tables (e.g. loaded from the engine's kernel cache) may
    be passed instead.
    """

    def __init__(
        self,
        fmt: PositFormat,
        values: Optional[np.ndarray] = None,
        boundaries: Optional[np.ndarray] = None,
    ):
        _validate_posit_format(fmt)
        self.fmt = fmt
        n = 1 << fmt.nbits

        if values is None:
            #: value of every code; NaR gets NaN.
            values = _decode_chunked(fmt, np.arange(n, dtype=np.int64))
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (n,):
                raise ValueError(f"prebuilt value table must have shape ({n},)")
        self.values = values

        real = ~np.isnan(values)
        order = np.argsort(values[real], kind="stable")
        self._sorted_values = values[real][order]
        self._sorted_codes = np.arange(n)[real][order]
        # Index of the zero code in the sorted arrays.
        self._zero_pos = int(np.searchsorted(self._sorted_values, 0.0))

        if boundaries is None:
            boundaries = self._build_boundaries()
        else:
            boundaries = np.asarray(boundaries, dtype=np.float64)
            if boundaries.shape != (len(self._sorted_values) - 1,):
                raise ValueError("prebuilt boundary table has wrong shape")
        #: Rounding boundary between each pair of value-adjacent codes.
        self.boundaries = boundaries

    def _build_boundaries(self) -> np.ndarray:
        """The exact rounding boundary between every adjacent code pair.

        Posit rounding is round-to-nearest-even on the *bit string* (guard
        and sticky bits beyond the truncated pattern), not on the real
        value: in regime ranges where fraction bits are squeezed out the
        grid is geometric and the halfway point is NOT the arithmetic
        midpoint.  The boundary between adjacent ``nbits``-bit patterns is
        exactly the value of the odd pattern between them in the
        ``nbits + 1``-bit format (same es), which float64 holds exactly for
        every format this codec supports.
        """
        fmt = self.fmt
        n = 1 << fmt.nbits
        codes = self._sorted_codes[:-1]
        keys = codes - n * (codes >= (n >> 1))  # two's-complement order
        ext_mask = (1 << (fmt.nbits + 1)) - 1
        return _decode_chunked(PositFormat(fmt.nbits + 1, fmt.es), (2 * keys + 1) & ext_mask)

    # ------------------------------------------------------------------
    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Exact float64 values of the given codes (NaR -> NaN)."""
        return self.values[np.asarray(codes, dtype=np.int64)]

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Round a float array to posit codes, bit-exact with the scalar model."""
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel()

        sc, b = self._sorted_codes, self.boundaries
        # Values strictly between boundaries round to the enclosed code;
        # values beyond the extreme boundaries clamp to -maxpos/maxpos.
        idx = np.searchsorted(b, flat, side="right")
        out = sc[idx]

        # Exactly on a boundary: tie to the even pattern of the two codes.
        lo = sc[np.maximum(idx - 1, 0)]
        tie = (idx > 0) & (flat == b[np.maximum(idx - 1, 0)])
        out = np.where(tie & ((out & 1) == 1), lo, out)

        # Never round a nonzero value to zero: bump to the adjacent code.
        nz = flat != 0
        zero_sel = (out == 0) & nz
        if np.any(zero_sel):
            bumped = np.where(flat > 0, sc[self._zero_pos + 1], sc[self._zero_pos - 1])
            out = np.where(zero_sel, bumped, out)

        # NaN and +-inf map to NaR like the scalar ``Posit.from_float``
        # (posits have no infinities — only *reals* round to maxpos).
        out = np.where(flat == 0.0, 0, out)
        out = np.where(~np.isfinite(flat), self.fmt.pattern_nar, out)
        return out.reshape(x.shape)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip: the posit-grid value nearest to each element."""
        return self.decode(self.encode(x))

    def quantization_error(self, x: np.ndarray) -> float:
        """Max relative error of representing ``x`` on this posit grid."""
        q = self.quantize(x)
        nz = x != 0
        if not np.any(nz):
            return 0.0
        return float(np.max(np.abs((q[nz] - x[nz]) / x[nz])))


class PositTable:
    """Exhaustive-table arithmetic for a narrow posit format.

    ``add`` and ``mul`` operate elementwise on code arrays through
    ``2**nbits x 2**nbits`` behaviour tables; ``dot`` runs an exact quire
    per output element.  Each entry is ``codec.encode(x op y)`` over the
    exact float64 values: products of two <= 16-bit posits are exact in
    float64, and a sum is inexact only when the operand scales differ by
    more than ~40, far past where the posit rounding decision lies — so
    the tables are bit-exact with the scalar model (which the tests check).

    ``tables`` may be a prebuilt ``(add_table, mul_table)`` pair (e.g. from
    the engine's kernel cache) to skip the O(4**nbits) build.  ``max_bits``
    guards against accidentally requesting a table that would not fit in
    memory (at 12 bits the pair is 64 MiB, at 16 bits 16 GiB).
    """

    def __init__(
        self,
        fmt: PositFormat,
        tables: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        codec: Optional[PositCodec] = None,
        max_bits: int = 10,
    ):
        _validate_posit_format(fmt)
        if fmt.nbits > max_bits and tables is None:
            raise ValueError(
                f"refusing to build {1 << fmt.nbits}x{1 << fmt.nbits} behaviour "
                f"tables for {fmt}; pass prebuilt tables or raise max_bits"
            )
        self.fmt = fmt
        self.codec = codec if codec is not None else PositCodec(fmt)
        n = 1 << fmt.nbits
        dtype = np.uint8 if fmt.nbits <= 8 else np.uint16
        if tables is not None:
            add_table, mul_table = tables
            self.add_table = np.asarray(add_table, dtype=dtype)
            self.mul_table = np.asarray(mul_table, dtype=dtype)
            if self.add_table.shape != (n, n) or self.mul_table.shape != (n, n):
                raise ValueError(f"prebuilt tables must have shape ({n}, {n})")
            return
        values = self.codec.values
        self.add_table = np.empty((n, n), dtype=dtype)
        self.mul_table = np.empty((n, n), dtype=dtype)
        rows = max(1, TABLE_BUILD_CHUNK // n)
        for r in range(0, n, rows):
            a = values[r : r + rows, None]
            self.add_table[r : r + rows] = self.codec.encode(a + values)
            self.mul_table[r : r + rows] = self.codec.encode(a * values)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise correctly rounded posit addition on code arrays."""
        return self.add_table[np.asarray(a), np.asarray(b)]

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise correctly rounded posit multiplication on codes."""
        return self.mul_table[np.asarray(a), np.asarray(b)]

    def dot(self, a_codes: np.ndarray, b_codes: np.ndarray) -> int:
        """Exact (quire) dot product of two code vectors, rounded once."""
        q = Quire(self.fmt)
        for pa, pb in zip(np.asarray(a_codes).ravel(), np.asarray(b_codes).ravel()):
            q.add_product(Posit(self.fmt, int(pa)), Posit(self.fmt, int(pb)))
        return q.to_posit().pattern

    def dot_sequential(self, a_codes: np.ndarray, b_codes: np.ndarray) -> int:
        """Baseline dot product with per-step rounding (no quire)."""
        acc = 0  # posit code for zero
        a_flat = np.asarray(a_codes).ravel()
        b_flat = np.asarray(b_codes).ravel()
        prods = self.mul_table[a_flat, b_flat]
        for p in prods:
            acc = int(self.add_table[acc, int(p)])
        return acc


class PositTable8(PositTable):
    """Backward-compatible 8-bit specialization of :class:`PositTable`."""

    def __init__(self, fmt: PositFormat, **kwargs):
        if fmt.nbits != 8:
            raise ValueError("PositTable8 requires an 8-bit posit format")
        super().__init__(fmt, **kwargs)
