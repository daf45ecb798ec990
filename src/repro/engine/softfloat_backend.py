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
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..floats.format import FloatFormat
from ..floats.softfloat import SoftFloat
from ..posit.tensor import TABLE_BUILD_CHUNK
from .backend import OpCounters, timed_op
from .faults import apply_code_faults
from .kernels import pairwise_lut
from .registry import REGISTRY, KernelRegistry
from .wide import MAX_WIDE_BITS, get_wide_float_codec

__all__ = ["SoftFloatCodec", "SoftFloatBackend"]

#: Widest format the tabulated codec (and hence via-float) supports.
_TABULATED_WIDTH = 20
#: Widest format pairwise 2-D tables support (2**32 entries at 16 bits).
_PAIRWISE_WIDTH = 16


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
    if fmt.width > _PAIRWISE_WIDTH:
        raise ValueError(
            f"pairwise tables support at most {_PAIRWISE_WIDTH}-bit formats "
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


class SoftFloatBackend:
    """Vectorized IEEE-style arithmetic for formats up to 32 bits."""

    def __init__(
        self,
        fmt: FloatFormat,
        counters: Optional[OpCounters] = None,
        registry: Optional[KernelRegistry] = None,
        table_bits: int = 8,
        strategy: Optional[str] = None,
        fault_plan=None,
    ):
        if fmt.width > MAX_WIDE_BITS:
            raise ValueError(
                f"SoftFloatBackend supports at most {MAX_WIDE_BITS}-bit formats"
            )
        if strategy is None:
            if fmt.width <= table_bits:
                strategy = "pairwise"
            elif fmt.width <= _TABULATED_WIDTH:
                strategy = "via-float"
            else:
                strategy = "wide"
        if strategy not in ("pairwise", "via-float", "wide"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy == "pairwise" and fmt.width > _PAIRWISE_WIDTH:
            raise ValueError(
                f"strategy 'pairwise' supports at most {_PAIRWISE_WIDTH}-bit "
                f"formats; use 'via-float' (<= {_TABULATED_WIDTH} bits) or "
                f"'wide' for {fmt}"
            )
        if strategy == "via-float" and fmt.width > _TABULATED_WIDTH:
            raise ValueError(
                f"strategy 'via-float' needs a tabulated codec "
                f"(<= {_TABULATED_WIDTH} bits); use strategy='wide' for {fmt}"
            )
        if strategy == "wide" and 2 * fmt.precision + 2 > 53:
            raise ValueError(
                f"the wide strategy computes in float64, which is only "
                f"bit-exact while 2 * precision + 2 <= 53 (got precision "
                f"{fmt.precision} for {fmt})"
            )
        self.fmt = fmt
        self.name = f"{fmt.name}{{1,{fmt.exp_bits},{fmt.frac_bits}}}"
        self.key = ("float", fmt.exp_bits, fmt.frac_bits)
        self.strategy = strategy
        self.counters = counters if counters is not None else OpCounters()
        self._registry = registry if registry is not None else REGISTRY
        # The wide codec is table-free; the others share the registry's
        # 2**width value table.
        self.codec = (
            get_wide_float_codec(fmt, self._registry)
            if strategy == "wide"
            else get_softfloat_codec(fmt, self._registry)
        )
        self._code_dtype = (
            np.uint8 if fmt.width <= 8 else np.uint16 if fmt.width <= 16 else np.uint32
        )
        if strategy == "pairwise":
            tables = self._registry.get(
                ("float", fmt.exp_bits, fmt.frac_bits, "addmul"),
                lambda: _build_float_pair_tables(self.codec),
            )
            self.add_table, self.mul_table = tables["add"], tables["mul"]
        else:
            self.add_table = self.mul_table = None
        #: Width of one code word — the bit-flip domain for fault injection.
        self.code_bits = fmt.width
        #: Optional :class:`repro.engine.faults.FaultPlan` corrupting op outputs.
        self.fault_plan = fault_plan

    def _fault(self, op: str, codes: np.ndarray) -> np.ndarray:
        return apply_code_faults(self.fault_plan, self.name, op, codes, self.code_bits)

    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        with timed_op(self.counters, "encode", x.size, fmt=self.name):
            return self.codec.encode(x).astype(self._code_dtype)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes)
        with timed_op(self.counters, "decode", codes.size, fmt=self.name):
            return self.codec.decode(codes)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        with timed_op(self.counters, "quantize", x.size, fmt=self.name):
            return self.codec.quantize(x)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        with timed_op(self.counters, "add", max(a.size, b.size), fmt=self.name):
            if self.add_table is not None:
                return self._fault("add", pairwise_lut(self.add_table, a, b))
            with np.errstate(invalid="ignore"):  # inf - inf -> NaN -> qNaN code
                out = self.codec.decode(a) + self.codec.decode(b)
            return self._fault("add", self.codec.encode(out).astype(self._code_dtype))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        with timed_op(self.counters, "mul", max(a.size, b.size), fmt=self.name):
            if self.mul_table is not None:
                return self._fault("mul", pairwise_lut(self.mul_table, a, b))
            with np.errstate(invalid="ignore"):  # inf * 0 -> NaN -> qNaN code
                out = self.codec.decode(a) * self.codec.decode(b)
            return self._fault("mul", self.codec.encode(out).astype(self._code_dtype))

    def matmul(self, a: np.ndarray, b: np.ndarray, accumulate: str = "float64") -> np.ndarray:
        """``(M, K) @ (K, N)``: Kulisch-style float64 accumulation.

        Products are exact in float64 for any format with precision <= 26
        (two p-bit significands multiply into 2p bits; binary32's p = 24
        gives 48 <= 53); the 53-bit accumulator plays the role of a
        (finite) Kulisch accumulator, and the result is rounded into the
        format once.
        """
        a, b = np.asarray(a), np.asarray(b)
        if accumulate != "float64":
            raise ValueError("SoftFloatBackend supports accumulate='float64' only")
        with timed_op(self.counters, "matmul[float64]", a.shape[0] * a.shape[1] * b.shape[1], fmt=self.name):
            out = self.codec.decode(a) @ self.codec.decode(b)
            return self._fault("matmul", self.codec.encode(out).astype(self._code_dtype))

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

    def __repr__(self):
        return f"SoftFloatBackend({self.name}, strategy={self.strategy!r})"
