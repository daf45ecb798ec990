"""Posit backend: bulk posit arithmetic on code arrays.

Three op strategies, chosen per format width:

* ``pairwise`` (default for <= 8 bits): exhaustive 2-D behaviour tables,
  one fancy index per elementwise op.  They are built by the via-float
  rule below over every code pair (a 256x256 pair in a few ms) and pinned
  byte for byte to the scalar :class:`repro.posit.value.Posit` model by
  the tests.
* ``via-float`` (9..16 bits, where a pairwise table would be >= 4 GiB):
  decode codes to their exact float64 values, compute in float64, and
  re-encode through the codec's correctly rounded grid search.  This is
  bit-exact for these widths: any product of two <= 16-bit posits is exact
  in float64, and whenever a sum is *inexact* in float64 the discarded tail
  lies far below half a posit ulp, so the posit rounding is unaffected (a
  <= 16-bit posit sum needs more than 53 bits only when the operand scales
  differ by > 40, while the rounding decision happens within ~14 bits of
  the larger operand).
* ``wide`` (17..32 bits, where even the 2**nbits codec value table stops
  being buildable): the bit-parallel field-extraction codecs of
  :mod:`repro.engine.wide`.  add/mul run in *integer* significand
  arithmetic because float64 round-tripping is no longer bit-exact (a
  posit<32,2> product carries 56 significant bits; the
  innocuous-double-rounding condition ``53 >= 2p + 2`` fails at p = 28).

``matmul`` offers three accumulation modes: ``"float64"`` (products exact,
accumulation at 53-bit precision — the Kulisch-style model that
:mod:`repro.nn.posit_inference` uses; on BLAS whenever the operands' span
proves every summation order exact, see :mod:`repro.engine.exact`),
``"quire"`` (a true exact quire per output element, rounded once), and
``"rounded"`` (posit rounding after every add — the no-quire datapath
baseline).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from ..posit import vector as pvec
from ..posit.format import PositFormat
from ..posit.quire import Quire
from ..posit.tensor import PositTable
from ..posit.value import Posit
from .backend import OpCounters, timed_op
from .exact import EXACT_MIN_MACS, SPAN_BITS, Span, SpanTable, blas, exact_span, record
from .faults import apply_code_faults
from .kernels import pairwise_lut, rounded_matmul, stable_matmul
from .registry import (
    ENCODE_TABLE_MAX_BITS,
    ENCODE_TABLE_TOP_BITS,
    KernelRegistry,
    get_codec,
    get_encode_table,
    get_posit_tables,
)
from .wide import MAX_WIDE_BITS, get_wide_posit_codec

__all__ = ["CodecKernels", "PositBackend"]


class CodecKernels(NamedTuple):
    """The fastest bit-identical (encode, decode) pair for one format.

    What :meth:`PositBackend.codec_kernels` hands the fused planner:
    ``encode(x) -> codes`` and ``decode(codes, out=None) -> float64``,
    each byte-equal to the backend's default codec on every input, plus
    the kernel names for plan introspection.  ``code_dtype`` is the
    narrowest unsigned dtype holding a code word (what crosses shared
    memory in the parallel fused path).
    """

    encode: Callable[[np.ndarray], np.ndarray]
    decode: Callable[..., np.ndarray]
    encode_kind: str
    decode_kind: str
    code_dtype: type

#: Widest format the tabulated (pairwise / via-float) strategies support;
#: beyond it the 2**nbits codec tables stop being buildable.
_TABULATED_BITS = 16


class PositBackend:
    """Vectorized posit arithmetic for formats up to 32 bits."""

    def __init__(
        self,
        fmt: PositFormat,
        counters: Optional[OpCounters] = None,
        registry: Optional[KernelRegistry] = None,
        table_bits: int = 8,
        strategy: Optional[str] = None,
        fault_plan=None,
        stable_contractions: bool = False,
    ):
        if fmt.nbits > MAX_WIDE_BITS:
            raise ValueError(
                f"PositBackend supports at most {MAX_WIDE_BITS}-bit posits"
            )
        if strategy is None:
            if fmt.nbits <= table_bits:
                strategy = "pairwise"
            elif fmt.nbits <= _TABULATED_BITS:
                strategy = "via-float"
            else:
                strategy = "wide"
        if strategy not in ("pairwise", "via-float", "wide"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy != "wide" and fmt.nbits > _TABULATED_BITS:
            raise ValueError(
                f"strategy {strategy!r} needs a tabulated codec "
                f"(<= {_TABULATED_BITS} bits); use strategy='wide' for {fmt}"
            )
        self.fmt = fmt
        self.name = f"posit<{fmt.nbits},{fmt.es}>"
        self.key = ("posit", fmt.nbits, fmt.es)
        self.strategy = strategy
        self.counters = counters if counters is not None else OpCounters()
        #: Registry the codec/tables came from — also where
        #: :meth:`codec_kernels` sources its specialized encode tables.
        self.registry = registry
        # The wide codec is table-free; tabulated strategies share the
        # registry's 2**nbits value/boundary tables.
        self.codec = (
            get_wide_posit_codec(fmt, registry)
            if strategy == "wide"
            else get_codec(fmt, registry)
        )
        self.tables: Optional[PositTable] = (
            get_posit_tables(fmt, registry) if strategy == "pairwise" else None
        )
        self._code_dtype = (
            np.uint8 if fmt.nbits <= 8 else np.uint16 if fmt.nbits <= 16 else np.uint32
        )
        #: Width of one code word — the bit-flip domain for fault injection.
        self.code_bits = fmt.nbits
        #: Optional :class:`repro.engine.faults.FaultPlan` corrupting op outputs.
        self.fault_plan = fault_plan
        #: When true, float64 contractions run through
        #: :func:`repro.engine.kernels.stable_matmul`, whose accumulation
        #: order is independent of batch composition — the property the
        #: serving layer needs to coalesce rows from unrelated requests
        #: while keeping every request's result byte-equal to solo
        #: execution.
        self.stable_contractions = bool(stable_contractions)
        self._spans: Optional[SpanTable] = None

    def _fault(self, op: str, codes: np.ndarray) -> np.ndarray:
        return apply_code_faults(self.fault_plan, self.name, op, codes, self.code_bits)

    # ------------------------------------------------------------------
    # Codec
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
        """Round-trip: nearest posit-grid value of each element."""
        x = np.asarray(x, dtype=np.float64)
        with timed_op(self.counters, "quantize", x.size, fmt=self.name):
            return self.codec.quantize(x)

    # ------------------------------------------------------------------
    # Elementwise
    # ------------------------------------------------------------------
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        with timed_op(self.counters, "add", max(a.size, b.size), fmt=self.name):
            if self.tables is not None:
                return self._fault("add", pairwise_lut(self.tables.add_table, a, b))
            if self.strategy == "wide":
                # Integer datapath: float64 round-tripping double-rounds
                # above 16 bits.
                return self._fault(
                    "add", self.codec.add(a, b).astype(self._code_dtype)
                )
            return self._fault(
                "add",
                self.codec.encode(self.codec.decode(a) + self.codec.decode(b)).astype(
                    self._code_dtype
                ),
            )

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        with timed_op(self.counters, "mul", max(a.size, b.size), fmt=self.name):
            if self.tables is not None:
                return self._fault("mul", pairwise_lut(self.tables.mul_table, a, b))
            if self.strategy == "wide":
                return self._fault(
                    "mul", self.codec.mul(a, b).astype(self._code_dtype)
                )
            return self._fault(
                "mul",
                self.codec.encode(self.codec.decode(a) * self.codec.decode(b)).astype(
                    self._code_dtype
                ),
            )

    # ------------------------------------------------------------------
    # Contractions
    # ------------------------------------------------------------------
    def matmul(
        self, a: np.ndarray, b: np.ndarray, accumulate: str = "float64"
    ) -> np.ndarray:
        """``(M, K) @ (K, N)`` on code arrays; returns codes.

        ``accumulate``: ``"float64"`` (exact products, 53-bit accumulation,
        one posit rounding at the end), ``"quire"`` (exact accumulation per
        output, scalar — slow, for verification), or ``"rounded"`` (posit
        rounding after every add; needs the pairwise tables).
        """
        a, b = np.asarray(a), np.asarray(b)
        with timed_op(self.counters, f"matmul[{accumulate}]", a.shape[0] * a.shape[1] * b.shape[1], fmt=self.name):
            if accumulate == "float64":
                out = self.contract(a, b, self.codec.decode(a), self.codec.decode(b))
                return self._fault("matmul", self.codec.encode(out).astype(self._code_dtype))
            if accumulate == "quire":
                m, k = a.shape
                k2, n = b.shape
                out = np.empty((m, n), dtype=self._code_dtype)
                for i in range(m):
                    for j in range(n):
                        out[i, j] = self.dot_exact(a[i], b[:, j])
                return self._fault("matmul", out)
            if accumulate == "rounded":
                if self.tables is None:
                    raise ValueError(
                        "rounded accumulation needs pairwise tables "
                        f"(format {self.fmt} uses the {self.strategy} strategy)"
                    )
                return self._fault(
                    "matmul",
                    rounded_matmul(self.tables.add_table, self.tables.mul_table, a, b),
                )
            raise ValueError(f"unknown accumulation mode {accumulate!r}")

    def matmul_values(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """``QA @ QB`` on posit-grid *values* (float64 in, float64 out).

        The DNN inference path: operands are already on the posit grid
        (from :meth:`quantize`), products are exact in float64 for <= 16-bit
        formats, and the 53-bit accumulation models the quire.  The result
        stays in float64 so bias adds and activations run unquantized, and
        the next layer re-quantizes its input — exactly the semantics of
        :mod:`repro.nn.posit_inference`.  Values alone carry no cheap
        exactness proof, so stable mode keeps the fixed-order kernel here;
        :meth:`contract` is the variant that knows the operands' codes.
        """
        qa, qb = np.asarray(qa), np.asarray(qb)
        macs = qa.shape[0] * qa.shape[-1] * (qb.shape[-1] if qb.ndim > 1 else 1)
        with timed_op(self.counters, "matmul[values]", macs, fmt=self.name):
            if self.stable_contractions and qa.ndim == 2 and qb.ndim == 2:
                return stable_matmul(qa, qb)
            return blas(qa, qb)

    # ------------------------------------------------------------------
    # Exact-contraction rule (repro.engine.exact)
    # ------------------------------------------------------------------
    def span_table(self) -> Optional[SpanTable]:
        """Per-code lsb/mag exponents (``None`` for the table-free wide
        strategy, whose contractions therefore always fall back)."""
        if self._spans is None and self.strategy != "wide":
            self._spans = SpanTable(self.codec.values)
        return self._spans

    def span(self, codes: np.ndarray) -> Optional[Span]:
        """The span of a code array (``None`` when no table exists)."""
        table = self.span_table()
        return None if table is None else table.span(np.asarray(codes))

    def exact(self, codes: np.ndarray, other, k: int, macs: int) -> bool:
        """The exact-contraction rule: whether ``codes`` contracted with an
        operand ``other`` (its :class:`Span`, or its codes) over ``k``
        terms — ``macs`` multiply-adds in all — is exact in every summation
        order.  Counted as ``engine.exact.blas`` or
        ``engine.exact.fallbacks``; below :data:`EXACT_MIN_MACS` the check
        costs more than the fixed-order kernel and is skipped (``False``,
        uncounted)."""
        if macs < EXACT_MIN_MACS:
            return False
        if isinstance(other, np.ndarray):
            other = self.span(other)
        mine = self.span(codes)
        return record(
            mine is not None and other is not None and exact_span(mine, other, k) <= SPAN_BITS
        )

    def contract(self, codes: np.ndarray, other, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """``qa @ qb`` where ``qa`` decodes ``codes`` and ``other`` is the
        span (or the codes) of ``qb``: BLAS when contractions need not be
        stable or :meth:`exact` proves every order gives the same bytes,
        the fixed-order :func:`stable_matmul` otherwise."""
        k, n = qb.shape
        if not self.stable_contractions or self.exact(codes, other, k, len(qa) * k * n):
            return blas(qa, qb)
        return stable_matmul(qa, qb)

    # ------------------------------------------------------------------
    # Operator specialization (the fused path's kernel chooser)
    # ------------------------------------------------------------------
    def codec_kernels(self) -> CodecKernels:
        """The fastest encode/decode kernels bit-identical to this codec.

        Per-format specialization, chosen from the kernel registry — the
        software analogue of PAPER §II's FloPoCo paradigm (generate
        exactly the datapath the computation needs):

        * ``nbits <= 8`` — encode through a direct float64-bits LUT
          (:func:`repro.engine.registry.get_encode_table`; one gather
          instead of a boundary binary search), decode by value-table
          gather.
        * ``9..16`` — encode through the table-free bit-parallel kernel
          of :mod:`repro.posit.vector` when the format qualifies
          (``es <= 3``; bit-exact with the scalar model, like the
          codec's boundary search), decode by value-table gather.
        * ``17..32`` — the wide codec's own bit-parallel kernels, with
          in-place ``out=`` decode for scratch reuse.

        Every pair is byte-equal to ``(self.encode, self.decode)`` on all
        inputs — specialization is an execution strategy, never a
        numerics change.
        """
        fmt = self.fmt
        code_dtype = self._code_dtype
        if self.strategy == "wide":
            codec = self.codec

            def encode(x, _c=codec, _dt=code_dtype):
                return _c.encode(x).astype(_dt)

            return CodecKernels(
                encode, codec.decode, "wide-bitparallel", "wide-bitparallel", code_dtype
            )

        values = self.codec.values
        # ``np.take`` buffers ``out=`` under mode="raise"; when the table
        # covers every value of the code dtype no index can be out of
        # range, so "clip" is the same gather without the extra copy.
        full = len(values) == 1 << (8 * np.dtype(code_dtype).itemsize)
        mode = "clip" if full else "raise"

        def decode(codes, out=None, _v=values, _mode=mode):
            return np.take(_v, codes, out=out, mode=_mode)

        if fmt.nbits <= ENCODE_TABLE_MAX_BITS:
            lut = get_encode_table(fmt, self.registry)
            shift = np.uint64(52 - ENCODE_TABLE_TOP_BITS)
            tail_mask = np.uint64((1 << (52 - ENCODE_TABLE_TOP_BITS)) - 1)

            def encode(x, _lut=lut, _sh=shift, _tm=tail_mask, _dt=code_dtype):
                bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
                key = (bits >> _sh) << np.uint64(1)
                key |= (bits & _tm) != 0
                return np.take(_lut, key).astype(_dt, copy=False)

            return CodecKernels(encode, decode, "table-lut", "table-gather", code_dtype)
        if fmt.es <= pvec._MAX_WIDE_ES:

            def encode(x, _fmt=fmt, _dt=code_dtype):
                return pvec.vector_encode(_fmt, x).astype(_dt)

            return CodecKernels(
                encode, decode, "wide-bitparallel", "table-gather", code_dtype
            )

        def encode(x, _c=self.codec, _dt=code_dtype):
            return _c.encode(np.asarray(x, dtype=np.float64)).astype(_dt)

        return CodecKernels(
            encode, decode, "table-searchsorted", "table-gather", code_dtype
        )

    def dot_exact(self, a: np.ndarray, b: np.ndarray) -> int:
        """Quire dot product of two code vectors, rounded once (exact)."""
        a_flat = np.asarray(a).ravel()
        b_flat = np.asarray(b).ravel()
        with timed_op(self.counters, "dot_exact", a_flat.size, fmt=self.name):
            q = Quire(self.fmt)
            for pa, pb in zip(a_flat, b_flat):
                q.add_product(Posit(self.fmt, int(pa)), Posit(self.fmt, int(pb)))
            return q.to_posit().pattern

    def __repr__(self):
        return f"PositBackend({self.name}, strategy={self.strategy!r})"
