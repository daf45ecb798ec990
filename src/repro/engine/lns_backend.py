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
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..lns.format import LNSFormat
from ..lns.value import LNS
from ..posit.tensor import TABLE_BUILD_CHUNK
from .backend import OpCounters, timed_op
from .faults import apply_code_faults
from .kernels import pairwise_lut
from .registry import REGISTRY, KernelRegistry

__all__ = ["LNSBackend"]


class LNSBackend:
    """Vectorized LNS arithmetic on packed sign+exponent codes."""

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
        self.fmt = fmt
        self.name = f"lns<{fmt.int_bits}.{fmt.frac_bits}>"
        self.key = ("lns", fmt.int_bits, fmt.frac_bits)
        self.counters = counters if counters is not None else OpCounters()
        self._registry = registry if registry is not None else REGISTRY
        self._e_bits = fmt.e_bits
        self._e_mask = (1 << fmt.e_bits) - 1
        self._code_dtype = np.uint8 if fmt.width <= 8 else np.uint16
        if fmt.width <= table_bits:
            tables = self._registry.get(
                ("lns", fmt.int_bits, fmt.frac_bits, "tables"), self._build_tables
            )
            self.values, self.add_table = tables["values"], tables["add"]
            self.strategy = "pairwise"
        else:
            self.values = self._registry.get(
                ("lns", fmt.int_bits, fmt.frac_bits, "values"),
                lambda: {"values": self._build_values()},
            )["values"]
            self.add_table = None
            self.strategy = "via-phi"
        #: Width of one code word — the bit-flip domain for fault injection.
        self.code_bits = fmt.width
        #: Optional :class:`repro.engine.faults.FaultPlan` corrupting op outputs.
        self.fault_plan = fault_plan

    def _fault(self, op: str, codes: np.ndarray) -> np.ndarray:
        return apply_code_faults(self.fault_plan, self.name, op, codes, self.code_bits)

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
    # Codec
    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> np.ndarray:
        """Round floats onto the LNS grid (nearest exponent code)."""
        x = np.asarray(x, dtype=np.float64)
        with timed_op(self.counters, "encode", x.size, fmt=self.name):
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

    def decode(self, codes: np.ndarray) -> np.ndarray:
        codes = np.asarray(codes, dtype=np.int64)
        with timed_op(self.counters, "decode", codes.size, fmt=self.name):
            return self.values[codes]

    def quantize(self, x: np.ndarray) -> np.ndarray:
        return self.decode(self.encode(x))

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact log-domain multiplication: integer add of exponent codes."""
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        with timed_op(self.counters, "mul", a.size, fmt=self.name):
            sa, ea = self._unpack(a)
            sb, eb = self._unpack(b)
            zero = (ea == self.fmt.zero_code) | (eb == self.fmt.zero_code)
            code = np.clip(ea + eb, self.fmt.e_min, self.fmt.e_max)
            e_code = np.where(zero, self.fmt.zero_code, code)
            return self._fault("mul", self._pack(sa ^ sb, e_code))

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gaussian-log addition; pairwise table when available."""
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        with timed_op(self.counters, "add", a.size, fmt=self.name):
            if self.add_table is not None:
                return self._fault(
                    "add", pairwise_lut(self.add_table, a, b).astype(self._code_dtype)
                )
            return self._fault("add", self._add_via_phi(a, b))

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

    def matmul(self, a: np.ndarray, b: np.ndarray, accumulate: str = "float64") -> np.ndarray:
        """``(M, K) @ (K, N)``: exact log-domain products, linear-domain
        float64 accumulation, one re-encode (the log-CNN accelerator model)."""
        a, b = np.asarray(a), np.asarray(b)
        if accumulate != "float64":
            raise ValueError("LNSBackend supports accumulate='float64' only")
        with timed_op(self.counters, "matmul[float64]", a.shape[0] * a.shape[1] * b.shape[1], fmt=self.name):
            out = self.decode(a) @ self.decode(b)
            return self._fault("matmul", self.encode(out))

    def dot_exact(self, a: np.ndarray, b: np.ndarray) -> int:
        """Float64-accumulated dot product, rounded once onto the grid."""
        a_flat = np.asarray(a).ravel()
        b_flat = np.asarray(b).ravel()
        with timed_op(self.counters, "dot_exact", a_flat.size, fmt=self.name):
            total = float(np.dot(self.values[a_flat.astype(np.int64)],
                                 self.values[b_flat.astype(np.int64)]))
            return int(self.encode(np.asarray([total]))[0])

    def __repr__(self):
        return f"LNSBackend({self.name}, strategy={self.strategy!r})"
