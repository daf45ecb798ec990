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

The strategy choice, codec, elementwise ops, float64 contractions and
generic codec kernels are :class:`repro.engine.backend.CodecBackend`'s.
This module adds what is posit-specific: the wide strategy's integer
add/mul, the fused path's faster encode kernels, and two more ``matmul``
accumulation modes next to ``"float64"`` (products exact, accumulation at
53-bit precision — the Kulisch-style model that
:mod:`repro.nn.posit_inference` uses; on BLAS whenever the operands' span
proves every summation order exact, see :mod:`repro.engine.exact`):
``"quire"`` (a true exact quire per output element, rounded once), and
``"rounded"`` (posit rounding after every add — the no-quire datapath
baseline).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..posit import vector as pvec
from ..posit.format import PositFormat
from ..posit.quire import Quire
from ..posit.value import Posit
from .backend import CodecBackend, CodecKernels, OpCounters, timed_op
from .kernels import rounded_matmul
from .registry import (
    ENCODE_TABLE_MAX_BITS,
    ENCODE_TABLE_TOP_BITS,
    KernelRegistry,
    get_codec,
    get_encode_table,
    get_posit_tables,
)
from .wide import get_wide_posit_codec

__all__ = ["PositBackend"]


class PositBackend(CodecBackend):
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
        strategy = self._pick_strategy(fmt, fmt.nbits, table_bits, strategy)
        super().__init__(fmt, fmt.nbits, strategy, counters, registry, fault_plan)
        self.name = f"posit<{fmt.nbits},{fmt.es}>"
        self.key = ("posit", fmt.nbits, fmt.es)
        #: Serve-side batching needs every row's result independent of its
        #: batch-mates (see :attr:`CodecBackend.stable_contractions`).
        self.stable_contractions = bool(stable_contractions)
        # The wide codec is table-free; tabulated strategies share the
        # registry's 2**nbits value/boundary tables.
        if strategy == "wide":
            self.codec = get_wide_posit_codec(fmt, self.registry)
        else:
            self.codec = get_codec(fmt, self.registry)
            self.values = self.codec.values
        self.tables = get_posit_tables(fmt, self.registry) if strategy == "pairwise" else None
        if self.tables is not None:
            self.add_table, self.mul_table = self.tables.add_table, self.tables.mul_table

    def _compute(self, op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.strategy == "wide":
            # Integer datapath: float64 round-tripping double-rounds above
            # 16 bits.
            return getattr(self.codec, op)(a, b).astype(self._code_dtype)
        return super()._compute(op, a, b)

    def _matmul(self, a: np.ndarray, b: np.ndarray, accumulate: str) -> np.ndarray:
        """``accumulate``: ``"float64"`` (exact products, 53-bit
        accumulation, one posit rounding at the end), ``"quire"`` (exact
        accumulation per output, scalar — slow, for verification), or
        ``"rounded"`` (posit rounding after every add; needs the pairwise
        tables)."""
        if accumulate == "quire":
            out = np.empty((a.shape[0], b.shape[1]), dtype=self._code_dtype)
            for i in range(a.shape[0]):
                for j in range(b.shape[1]):
                    out[i, j] = self.dot_exact(a[i], b[:, j])
            return out
        if accumulate == "rounded":
            if self.tables is None:
                raise ValueError(
                    "rounded accumulation needs pairwise tables "
                    f"(format {self.fmt} uses the {self.strategy} strategy)"
                )
            return rounded_matmul(self.add_table, self.mul_table, a, b)
        if accumulate != "float64":
            raise ValueError(f"unknown accumulation mode {accumulate!r}")
        return super()._matmul(a, b, accumulate)

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
        inputs.
        """
        kernels = super().codec_kernels()
        fmt, code_dtype = self.fmt, self._code_dtype
        if self.strategy == "wide":
            return kernels
        if fmt.nbits <= ENCODE_TABLE_MAX_BITS:
            lut = get_encode_table(fmt, self.registry)
            shift = np.uint64(52 - ENCODE_TABLE_TOP_BITS)
            tail_mask = np.uint64((1 << (52 - ENCODE_TABLE_TOP_BITS)) - 1)

            def encode(x, _lut=lut, _sh=shift, _tm=tail_mask, _dt=code_dtype):
                bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
                key = (bits >> _sh) << np.uint64(1)
                key |= (bits & _tm) != 0
                return np.take(_lut, key).astype(_dt, copy=False)

            return kernels._replace(encode=encode, encode_kind="table-lut")
        if fmt.es <= pvec._MAX_WIDE_ES:

            def encode(x, _fmt=fmt, _dt=code_dtype):
                return pvec.vector_encode(_fmt, x).astype(_dt)

            return kernels._replace(encode=encode, encode_kind="wide-bitparallel")
        return kernels

    def dot_exact(self, a: np.ndarray, b: np.ndarray) -> int:
        """Quire dot product of two code vectors, rounded once (exact)."""
        a_flat = np.asarray(a).ravel()
        b_flat = np.asarray(b).ravel()
        with timed_op(self.counters, "dot_exact", a_flat.size, fmt=self.name):
            q = Quire(self.fmt)
            for pa, pb in zip(a_flat, b_flat):
                q.add_product(Posit(self.fmt, int(pa)), Posit(self.fmt, int(pb)))
            return q.to_posit().pattern
