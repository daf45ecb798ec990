"""Wide-format codec objects: bit-parallel kernels behind the codec API.

The backends' ``pairwise`` and ``via-float`` strategies both lean on
tabulated codecs, which caps posits at 16 bits and floats at 20.  The
``wide`` strategy wraps the table-free kernels of :mod:`repro.posit.vector`
and :mod:`repro.floats.vector` in objects API-compatible with
:class:`repro.posit.tensor.PositCodec` / :class:`SoftFloatCodec
<repro.engine.softfloat_backend.SoftFloatCodec>` — same
``encode``/``decode``/``quantize`` surface, so the backends (and
:class:`repro.nn.posit_inference.PositQuantizedNetwork` above them) drop in
posit<32,2> and binary32 without touching the callers.

There are no tables to build or persist: the registry memoizes only the
(stateless) wrapper object per format, and codes stay plain integer
arrays, so batching, sharding, golden-merge and fault injection all work
unchanged at 32 bits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..floats import vector as fvec
from ..floats.format import FloatFormat
from ..posit import vector as pvec
from ..posit.format import PositFormat
from .observe import TRACER
from .registry import REGISTRY, KernelRegistry

__all__ = [
    "MAX_WIDE_BITS",
    "WidePositCodec",
    "WideFloatCodec",
    "get_wide_posit_codec",
    "get_wide_float_codec",
]

#: Widest code word either wide codec supports.
MAX_WIDE_BITS = 32


def _warm_allocator() -> None:
    """Raise glibc's dynamic malloc thresholds before the first kernel call.

    The wide kernels churn through ~80 KB temporaries.  With glibc's
    default (small) trim threshold, every free hands those pages back to
    the OS and every allocation page-faults them in again, which measures
    ~2.5x slower than the same kernels with warm buffers.  Freeing one
    mmap-sized block makes glibc ratchet its mmap/trim thresholds up past
    that size for the rest of the process, so kernel temporaries stay
    pooled in the heap.  A no-op (but harmless) on other allocators.
    """
    buf = np.empty(1_000_000, dtype=np.float64)  # 8 MB
    del buf


_warm_allocator()


class WidePositCodec:
    """Table-free posit codec for formats up to 32 bits.

    Drop-in for the tabulated :class:`repro.posit.tensor.PositCodec`
    (``encode``/``decode``/``quantize``/``quantization_error``), plus the
    code-domain :meth:`add`/:meth:`mul` kernels the via-float strategy
    cannot provide bit-exactly at these widths.
    """

    def __init__(self, fmt: PositFormat):
        pvec.check_wide_format(fmt)
        self.fmt = fmt

    def decode(self, codes: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Exact float64 values of the given codes (NaR -> NaN).

        ``out`` (optional, float64, same shape as ``codes``) receives the
        values in place — the fused path's scratch-buffer hook.  It may
        alias the storage behind ``codes``; field extraction completes
        before the first write.
        """
        return pvec.vector_decode(self.fmt, codes, out=out)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Round a float array to posit codes, bit-exact with the scalar model."""
        return pvec.vector_encode(self.fmt, x)

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

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Correctly rounded elementwise add on codes (integer datapath)."""
        with TRACER.span("wide.posit.add", fmt=str(self.fmt)):
            return pvec.add_codes(self.fmt, a, b)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Correctly rounded elementwise multiply on codes (integer datapath)."""
        with TRACER.span("wide.posit.mul", fmt=str(self.fmt)):
            return pvec.mul_codes(self.fmt, a, b)

    def __repr__(self):
        return f"WidePositCodec({self.fmt})"


class WideFloatCodec:
    """Table-free IEEE-style codec for formats up to 32 bits.

    Drop-in for :class:`repro.engine.softfloat_backend.SoftFloatCodec`:
    same ``encode``/``decode``/``quantize``.  Elementwise arithmetic stays
    in the backend (float64 compute + one re-encode), which is bit-exact
    whenever ``2 * precision + 2 <= 53`` — binary32 (p = 24) qualifies.
    """

    def __init__(self, fmt: FloatFormat):
        fvec.check_wide_format(fmt)
        self.fmt = fmt
        #: True when float64 compute + one re-encode is bit-exact for
        #: add/mul (Figueroa's innocuous-double-rounding bound).
        self.exact_via_float64 = 2 * fmt.precision + 2 <= 53

    def decode(self, codes: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Exact float64 value of each code (NaN patterns -> NaN).

        ``out`` (optional, float64, same shape as ``codes``) receives the
        values, as in :meth:`WidePositCodec.decode`; it may alias the
        storage behind ``codes``.
        """
        values = fvec.vector_decode(self.fmt, codes)
        if out is None:
            return values
        out[...] = values
        return out

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Round a float64 array to codes: IEEE nearest, ties to even."""
        return fvec.vector_encode(self.fmt, x)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip: the nearest grid value of each element."""
        return self.decode(self.encode(x))

    def __repr__(self):
        return f"WideFloatCodec({self.fmt})"


def get_wide_posit_codec(
    fmt: PositFormat, registry: Optional[KernelRegistry] = None
) -> WidePositCodec:
    """The shared :class:`WidePositCodec` for ``fmt`` (registry-memoized)."""
    reg = registry if registry is not None else REGISTRY
    return reg.get_object(
        ("posit", fmt.nbits, fmt.es, "wide-codec"), lambda: WidePositCodec(fmt)
    )


def get_wide_float_codec(
    fmt: FloatFormat, registry: Optional[KernelRegistry] = None
) -> WideFloatCodec:
    """The shared :class:`WideFloatCodec` for ``fmt`` (registry-memoized)."""
    reg = registry if registry is not None else REGISTRY
    return reg.get_object(
        ("float", fmt.exp_bits, fmt.frac_bits, "wide-codec"),
        lambda: WideFloatCodec(fmt),
    )
