"""Softfloat backend: bulk IEEE-style arithmetic for <= 32-bit formats.

New in the engine: :class:`SoftFloatCodec` tabulates a small float format's
code-to-value map (every <= 20-bit IEEE value is exact in float64,
subnormals included) and implements vectorized correctly rounded encode
(round to nearest, ties to even significand, overflow to infinity,
gradual underflow, signed zero).  The 20-bit table ceiling admits Intel's
FP19 {1,8,10} DSP-block format alongside binary16/bfloat16.

Elementwise ops use exhaustive pairwise tables for <= 8-bit formats and
the via-float strategy above that: float64 compute + one correctly
rounded re-encode, which is bit-exact for these widths (products
of <= 17-bit significands are exact in float64; sums are exact whenever the
rounding decision is in play, since a tie/midpoint case needs the operand
exponents within ``frac_bits + 2`` of each other, where the float64 sum is
exact — the innocuous-double-rounding regime ``53 >= 2p + 2``).  The
pairwise tables are that same rule applied to every code pair, so they
match the bit-exact scalar :class:`repro.floats.softfloat.SoftFloat` model
byte for byte.

Above 20 bits the value table itself stops being buildable, so the third
strategy, ``wide``, swaps the tabulated codec for the bit-parallel
field-extraction codec of :mod:`repro.floats.vector` — same
decode/compute/encode datapath, still bit-exact as long as
``2 * precision + 2 <= 53``, which binary32 (p = 24) satisfies.

The strategy choice, timed codec, elementwise ops, float64 ``matmul``
(products exact for precision <= 26, a 53-bit accumulator as a finite
Kulisch accumulator, one rounding) and the fused path's codec kernels
are :class:`repro.engine.backend.CodecBackend`'s; this module adds the
tabulated codec, its pair tables, the wide strategy's precision check
and the exact Kulisch ``dot_exact``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..floats.format import FloatFormat
from ..floats.softfloat import SoftFloat
from ..posit.tensor import TABLE_BUILD_CHUNK
from .backend import CodecBackend, OpCounters, timed_op
from .registry import REGISTRY, KernelRegistry
from .wide import get_wide_float_codec

__all__ = ["SoftFloatCodec", "SoftFloatBackend"]

#: Widest format the tabulated codec (and hence via-float) supports.
_TABULATED_WIDTH = 20


def _build_value_table(fmt: FloatFormat) -> np.ndarray:
    """Exact float64 value of every code, vectorized.

    Bit-identical to looping ``SoftFloat(fmt, p).to_float()`` over all
    patterns (every <= 20-bit IEEE value is exact in float64; ``ldexp`` of
    an integer significand is exact; all NaN patterns map to +nan like the
    scalar model), but runs in microseconds instead of a python loop over
    up to 2**20 scalar constructions — what makes the 19-bit FP19 codec
    affordable.
    """
    n = 1 << fmt.width
    codes = np.arange(n, dtype=np.int64)
    sign = codes >> (fmt.width - 1)
    exp = (codes >> fmt.frac_bits) & fmt.exp_mask
    frac = codes & fmt.frac_mask
    # Normals: (2**frac_bits + frac) * 2**(exp - bias - frac_bits).
    mag = np.ldexp(
        ((1 << fmt.frac_bits) + frac).astype(np.float64),
        (exp - fmt.bias - fmt.frac_bits).astype(np.int32),
    )
    # Subnormals (exp field 0): frac * 2**(emin - frac_bits); includes +-0.
    mag = np.where(
        exp == 0,
        np.ldexp(frac.astype(np.float64), fmt.emin - fmt.frac_bits),
        mag,
    )
    values = np.where(sign == 1, -mag, mag)
    # Max exponent field: infinity (frac 0) or NaN (always +nan, like the
    # scalar model's math.nan).
    values = np.where((exp == fmt.exp_mask) & (frac == 0) & (sign == 1), -np.inf, values)
    values = np.where((exp == fmt.exp_mask) & (frac == 0) & (sign == 0), np.inf, values)
    values = np.where((exp == fmt.exp_mask) & (frac != 0), np.nan, values)
    return values


class SoftFloatCodec:
    """Bulk encode/decode between float64 arrays and small-float codes."""

    def __init__(self, fmt: FloatFormat, values: Optional[np.ndarray] = None):
        if fmt.width > 20:
            raise ValueError("tabulated codec supports at most 20-bit formats")
        self.fmt = fmt
        n = 1 << fmt.width
        if values is None:
            values = _build_value_table(fmt)
        else:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (n,):
                raise ValueError(f"prebuilt value table must have shape ({n},)")
        self.values = values

        # Sorted finite grid; drop the -0 code so 0.0 appears exactly once.
        finite = np.isfinite(values)
        finite[fmt.sign_bit] = False
        codes = np.arange(n)[finite]
        order = np.argsort(values[finite], kind="stable")
        self._sorted_values = values[finite][order]
        self._sorted_codes = codes[order]
        # Round-to-nearest overflow threshold: max_finite + half an ulp.
        self._overflow = fmt.max_finite + math.ldexp(1.0, fmt.emax - fmt.frac_bits - 1)

    # ------------------------------------------------------------------
    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Exact float64 value of each code (NaN patterns -> NaN)."""
        return self.values[np.asarray(codes, dtype=np.int64)]

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Round a float64 array to codes: IEEE nearest, ties to even."""
        fmt = self.fmt
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel()

        sv, sc = self._sorted_values, self._sorted_codes
        hi_idx = np.searchsorted(sv, flat)
        hi_idx = np.clip(hi_idx, 1, len(sv) - 1)
        lo_idx = hi_idx - 1

        lo_val, hi_val = sv[lo_idx], sv[hi_idx]
        lo_code, hi_code = sc[lo_idx], sc[hi_idx]

        # Adjacent grid values are within a factor of 2, so both distances
        # are exact (Sterbenz) and the tie test is reliable.
        d_lo = np.abs(flat - lo_val)
        d_hi = np.abs(hi_val - flat)
        pick_hi = d_hi < d_lo
        tie = d_hi == d_lo
        pick_hi = np.where(tie, (lo_code & 1) == 1, pick_hi)
        out = np.where(pick_hi, hi_code, lo_code)

        # Range ends, then IEEE overflow to infinity at max_finite + ulp/2.
        out = np.where(flat >= sv[-1], sc[-1], out)
        out = np.where(flat <= sv[0], sc[0], out)
        out = np.where(flat >= self._overflow, fmt.pattern_inf, out)
        out = np.where(flat <= -self._overflow, fmt.sign_bit | fmt.pattern_inf, out)
        # Signed zero: a zero result keeps the sign of the input value.
        out = np.where((out == 0) & np.signbit(flat), fmt.sign_bit, out)
        out = np.where(np.isnan(flat), fmt.pattern_quiet_nan, out)
        return out.reshape(x.shape)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip: the nearest grid value of each element."""
        return self.decode(self.encode(x))


def get_softfloat_codec(
    fmt: FloatFormat, registry: Optional[KernelRegistry] = None
) -> SoftFloatCodec:
    """The shared :class:`SoftFloatCodec` for ``fmt`` (registry-memoized)."""
    reg = registry if registry is not None else REGISTRY
    key = ("float", fmt.exp_bits, fmt.frac_bits, "codec")

    def factory() -> SoftFloatCodec:
        values = reg.get(
            ("float", fmt.exp_bits, fmt.frac_bits, "values"),
            lambda: {"values": SoftFloatCodec(fmt).values},
        )["values"]
        return SoftFloatCodec(fmt, values=values)

    return reg.get_object(key, factory)


def _build_float_pair_tables(codec: SoftFloatCodec) -> dict:
    """Every add/mul result as ``codec.encode(values[a] op values[b])``.

    The via-float rule of the module docstring applied to all code pairs,
    ``TABLE_BUILD_CHUNK`` lanes at a time: one float64 op and one correctly
    rounded encode per pair, byte-identical to the scalar
    :class:`~repro.floats.softfloat.SoftFloat` model (its test oracle).
    """
    fmt = codec.fmt
    if fmt.width > CodecBackend.PAIRWISE_BITS:
        raise ValueError(
            f"pairwise tables support at most {CodecBackend.PAIRWISE_BITS}-bit formats "
            f"(a {fmt.width}-bit table would need 2**{2 * fmt.width} entries)"
        )
    n = 1 << fmt.width
    dtype = np.uint8 if fmt.width <= 8 else np.uint16
    values = codec.values
    add = np.empty((n, n), dtype=dtype)
    mul = np.empty((n, n), dtype=dtype)
    rows = max(1, TABLE_BUILD_CHUNK // n)
    with np.errstate(invalid="ignore"):  # inf - inf, inf * 0 -> NaN -> qNaN code
        for r in range(0, n, rows):
            a = values[r : r + rows, None]
            add[r : r + rows] = codec.encode(a + values)
            mul[r : r + rows] = codec.encode(a * values)
    return {"add": add, "mul": mul}


class SoftFloatBackend(CodecBackend):
    """Vectorized IEEE-style arithmetic for formats up to 32 bits."""

    TABULATED_BITS = _TABULATED_WIDTH

    def __init__(
        self,
        fmt: FloatFormat,
        counters: Optional[OpCounters] = None,
        registry: Optional[KernelRegistry] = None,
        table_bits: int = 8,
        strategy: Optional[str] = None,
        fault_plan=None,
    ):
        strategy = self._pick_strategy(fmt, fmt.width, table_bits, strategy)
        if strategy == "wide" and 2 * fmt.precision + 2 > 53:
            raise ValueError(
                f"the wide strategy computes in float64, which is only "
                f"bit-exact while 2 * precision + 2 <= 53 (got precision "
                f"{fmt.precision} for {fmt})"
            )
        super().__init__(fmt, fmt.width, strategy, counters, registry, fault_plan)
        self.name = f"{fmt.name}{{1,{fmt.exp_bits},{fmt.frac_bits}}}"
        self.key = ("float", fmt.exp_bits, fmt.frac_bits)
        # The wide codec is table-free; the others share the registry's
        # 2**width value table.
        if strategy == "wide":
            self.codec = get_wide_float_codec(fmt, self.registry)
        else:
            self.codec = get_softfloat_codec(fmt, self.registry)
            self.values = self.codec.values
        if strategy == "pairwise":
            tables = self.registry.get(
                ("float", fmt.exp_bits, fmt.frac_bits, "addmul"),
                lambda: _build_float_pair_tables(self.codec),
            )
            self.add_table, self.mul_table = tables["add"], tables["mul"]

    def dot_exact(self, a: np.ndarray, b: np.ndarray) -> int:
        """Exactly accumulated dot product (Kulisch), rounded once."""
        from fractions import Fraction

        a_flat = np.asarray(a).ravel()
        b_flat = np.asarray(b).ravel()
        with timed_op(self.counters, "dot_exact", a_flat.size, fmt=self.name):
            acc = Fraction(0)
            inf_sign = None  # sign of an infinite partial product, if any
            for pa, pb in zip(a_flat, b_flat):
                fa = SoftFloat(self.fmt, int(pa))
                fb = SoftFloat(self.fmt, int(pb))
                if fa.is_nan() or fb.is_nan():
                    return self.fmt.pattern_quiet_nan
                if fa.is_inf() or fb.is_inf():
                    if fa.is_zero() or fb.is_zero():
                        return self.fmt.pattern_quiet_nan  # inf * 0
                    sign = fa.sign ^ fb.sign
                    if inf_sign is not None and inf_sign != sign:
                        return self.fmt.pattern_quiet_nan  # inf - inf
                    inf_sign = sign
                    continue
                acc += fa.to_fraction() * fb.to_fraction()
            if inf_sign is not None:
                return SoftFloat.inf(self.fmt, inf_sign).pattern
            return SoftFloat.from_fraction(self.fmt, acc).pattern
