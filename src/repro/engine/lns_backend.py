"""LNS backend: bulk logarithmic-number-system arithmetic on packed codes.

A code packs an :class:`repro.lns.LNS` value into ``width = 2 + int_bits +
frac_bits`` bits as ``sign << e_bits | (e_code - zero_code)`` (offset
binary, so code 0 is the value zero).

Multiplication and division are *exact integer adds* of exponent codes —
fully vectorized with no tables at any width, the LNS selling point.
Addition goes through the Gaussian logarithms: a vectorized replication
of the scalar ``phi+``/``phi-`` formula (same float64 ``log2``, same
halfway rounding), tabulated over every code pair for narrow formats
(<= 10 code bits) and run directly on wider ones.  The scalar
:class:`repro.lns.LNS` model is the test oracle of both.

Everything else — the timed codec, ``matmul`` (exact log-domain products
decoded to float64, linear-domain accumulation, one re-encode: the
log-CNN accelerator model), value-table decode and the fused path's codec
kernels — is :class:`repro.engine.backend.CodecBackend`'s.  LNS values
are not dyadic, so the exact-contraction span check fails on any
non-power-of-two operand and contractions keep the fixed order whenever
stability is asked for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..lns.format import LNSFormat
from ..lns.value import LNS
from ..posit.tensor import TABLE_BUILD_CHUNK
from .backend import CodecBackend, OpCounters, timed_op
from .registry import KernelRegistry

__all__ = ["LNSBackend"]


class LNSBackend(CodecBackend):
    """Vectorized LNS arithmetic on packed sign+exponent codes."""

    ENCODE_KIND = "log2"

    def __init__(
        self,
        fmt: LNSFormat,
        counters: Optional[OpCounters] = None,
        registry: Optional[KernelRegistry] = None,
        table_bits: int = 10,
        fault_plan=None,
    ):
        if fmt.width > 16:
            raise ValueError("LNSBackend supports at most 16 code bits")
        strategy = "pairwise" if fmt.width <= table_bits else "via-phi"
        super().__init__(fmt, fmt.width, strategy, counters, registry, fault_plan)
        self.name = f"lns<{fmt.int_bits}.{fmt.frac_bits}>"
        self.key = ("lns", fmt.int_bits, fmt.frac_bits)
        self._e_bits = fmt.e_bits
        self._e_mask = (1 << fmt.e_bits) - 1
        if strategy == "pairwise":
            tables = self.registry.get(
                ("lns", fmt.int_bits, fmt.frac_bits, "tables"), self._build_tables
            )
            self.values, self.add_table = tables["values"], tables["add"]
        else:
            self.values = self.registry.get(
                ("lns", fmt.int_bits, fmt.frac_bits, "values"),
                lambda: {"values": self._build_values()},
            )["values"]

    def _build_tables(self) -> dict:
        """Value table plus every pairwise sum through :meth:`_add_via_phi`.

        The phi kernel is called directly, not :meth:`add`, so no op fault
        is baked into the table; ``TABLE_BUILD_CHUNK`` lanes at a time.
        """
        n = 1 << self.fmt.width
        codes = np.arange(n)
        add = np.empty((n, n), dtype=self._code_dtype)
        rows = max(1, TABLE_BUILD_CHUNK // n)
        for r in range(0, n, rows):
            add[r : r + rows] = self._add_via_phi(codes[r : r + rows, None], codes)
        return {"values": self._build_values(), "add": add}

    def _build_values(self) -> np.ndarray:
        # Scalar on purpose: np.power disagrees with the model's 2.0 ** x.
        n = 1 << self.fmt.width
        values = np.empty(n, dtype=np.float64)
        for code in range(n):
            sign = code >> self._e_bits
            e_code = (code & self._e_mask) + self.fmt.zero_code
            values[code] = LNS(self.fmt, sign, e_code).to_float()
        return values

    # ------------------------------------------------------------------
    # Packing helpers
    # ------------------------------------------------------------------
    def _unpack(self, codes: np.ndarray):
        codes = np.asarray(codes, dtype=np.int64)
        return codes >> self._e_bits, (codes & self._e_mask) + self.fmt.zero_code

    def _pack(self, sign: np.ndarray, e_code: np.ndarray) -> np.ndarray:
        zero = e_code == self.fmt.zero_code
        code = (np.where(zero, 0, sign) << self._e_bits) | (
            (e_code - self.fmt.zero_code) & self._e_mask
        )
        return code.astype(self._code_dtype)

    # ------------------------------------------------------------------
    # Codec and arithmetic kernels
    # ------------------------------------------------------------------
    def _encode(self, x: np.ndarray) -> np.ndarray:
        """Round floats onto the LNS grid (nearest exponent code)."""
        x = np.asarray(x, dtype=np.float64)
        sign = (x < 0).astype(np.int64)
        mag = np.abs(x)
        finite_nz = (mag > 0) & np.isfinite(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.log2(np.where(finite_nz, mag, 1.0)) * (1 << self.fmt.frac_bits)
        code = np.round(e).astype(np.int64)  # half to even, like the scalar
        code = np.clip(code, self.fmt.e_min, self.fmt.e_max)  # saturate, never zero
        code = np.where(np.isinf(x), self.fmt.e_max, code)  # +-inf saturate
        nz = finite_nz | np.isinf(x)
        e_code = np.where(nz, code, self.fmt.zero_code)
        return self._pack(np.where(nz, sign, 0), e_code)

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return self.values[np.asarray(codes, dtype=np.int64)]

    def _compute(self, op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Phi addition, or exact log-domain multiplication: an integer
        add of exponent codes (no table at any width)."""
        if op == "add":
            return self._add_via_phi(a, b)
        sa, ea = self._unpack(a)
        sb, eb = self._unpack(b)
        zero = (ea == self.fmt.zero_code) | (eb == self.fmt.zero_code)
        code = np.clip(ea + eb, self.fmt.e_min, self.fmt.e_max)
        return self._pack(sa ^ sb, np.where(zero, self.fmt.zero_code, code))

    def _add_via_phi(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized replica of the scalar phi+/phi- addition."""
        fmt = self.fmt
        sa, ea = self._unpack(a)
        sb, eb = self._unpack(b)
        a_zero = ea == fmt.zero_code
        b_zero = eb == fmt.zero_code

        swap = eb > ea
        big_s, big_e = np.where(swap, sb, sa), np.where(swap, eb, ea)
        small_e = np.where(swap, ea, eb)
        d = (big_e - small_e) / (1 << fmt.frac_bits)

        same = sa == sb
        with np.errstate(divide="ignore"):
            delta_plus = np.log2(1.0 + 2.0**-d)
            delta_minus = np.log2(np.maximum(1.0 - 2.0**-d, 0.0))
        step_plus = np.round(delta_plus * (1 << fmt.frac_bits)).astype(np.int64)
        step_minus = np.round(
            np.where(np.isfinite(delta_minus), delta_minus, 0.0) * (1 << fmt.frac_bits)
        ).astype(np.int64)

        code_plus = np.minimum(big_e + step_plus, fmt.e_max)
        code_minus = np.maximum(big_e + step_minus, fmt.e_min)
        cancel = ~same & (big_e == small_e)

        e_out = np.where(same, code_plus, code_minus)
        e_out = np.where(cancel, fmt.zero_code, e_out)
        e_out = np.where(a_zero, eb, np.where(b_zero, ea, e_out))
        s_out = np.where(a_zero, sb, np.where(b_zero, sa, big_s))
        return self._pack(s_out, e_out)

    def dot_exact(self, a: np.ndarray, b: np.ndarray) -> int:
        """Float64-accumulated dot product, rounded once onto the grid."""
        a_flat = np.asarray(a).ravel()
        b_flat = np.asarray(b).ravel()
        with timed_op(self.counters, "dot_exact", a_flat.size, fmt=self.name):
            total = float(np.dot(self.values[a_flat.astype(np.int64)],
                                 self.values[b_flat.astype(np.int64)]))
            return int(self._encode(np.asarray([total]))[0])
