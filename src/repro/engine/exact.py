"""Exact contractions: when a BLAS product is byte-equal to any other order.

PAPER §V's quire makes a dot product exact, so its result cannot depend on
summation order.  Float64 gives the same guarantee for free whenever every
partial sum fits in its 53-bit significand — this module decides, per
call, whether that holds, so the engine can hand a contraction of
posit-grid values to BLAS ``@`` (any blocking, any FMA use, any row count)
and still return exactly the bytes of the fixed-order
:func:`repro.engine.kernels.stable_matmul` einsum.

**The span theorem.**  Write each nonzero operand value as an odd integer
times ``2**lsb`` with ``|v| < 2**mag``.  Every product ``a*b`` is then a
multiple of ``2**(lsb_a + lsb_b)`` below ``2**(mag_a + mag_b)``, so every
partial sum of ``K`` such products is an integer multiple of
``2**(min_lsb_a + min_lsb_b)`` with magnitude below
``2**(max_mag_a + max_mag_b + ceil(log2 K))``.  If::

    max_mag_a + max_mag_b + ceil(log2 K) - (min_lsb_a + min_lsb_b) <= 53

that integer fits in 53 bits, every product and every partial sum is
exactly representable in float64, and every summation order yields the
exact sum (an exact zero sum is ``+0.0`` in every order).  NaR decodes to
NaN, whose propagation is order-dependent in its payload, so a NaR code
fails the check by construction (its table ``mag`` is huge).

Per format, :class:`SpanTable` holds each code's ``(lsb, mag)`` — built
from the codec's value table — so a per-call span is a presence histogram
(8-bit codes) or two gathers over the activation codes; the weights' span
is static.  Contractions under :data:`EXACT_MIN_MACS` multiply-adds skip
the check.  A failing check keeps the caller's fixed-order path and is
counted:

* ``engine.exact.blas`` / ``engine.exact.fallbacks`` — counters in the
  process-wide :data:`~repro.engine.observe.METRICS`;
* ``engine.blas_threads`` — gauge: BLAS threads after :func:`pin_blas`
  (``-1`` when unknown).

BLAS is pinned to one thread the first time :func:`blas` hands it work in
a process (:func:`pin_blas`): serving contractions are a few hundred
microseconds, and a second OpenBLAS thread spinning next to the server's
parse thread costs more CPU than it saves wall time.  The pin is skipped
when ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set.
"""

from __future__ import annotations

import ctypes
import os
from typing import NamedTuple, Optional

import numpy as np

from .observe import METRICS

__all__ = [
    "EXACT_MIN_MACS",
    "SPAN_BITS",
    "Span",
    "SpanTable",
    "blas",
    "exact_span",
    "pin_blas",
    "record",
    "stats",
]

#: Float64 significand width: the largest exact integer span.
SPAN_BITS = 53

#: Contractions below this many multiply-adds skip the check: for them the
#: fixed-order einsum costs less than the span check's numpy calls.
EXACT_MIN_MACS = 1 << 15

#: ``lsb`` of a zero, ``-mag`` of a zero and ``mag`` of a NaR: far outside
#: any real exponent, so a zero never constrains a span and a NaR always
#: fails it.
_HUGE = 1 << 14


class Span(NamedTuple):
    """Operand span: smallest lsb exponent, largest magnitude exponent."""

    lsb: int
    mag: int


class SpanTable:
    """Per-code ``lsb``/``mag`` exponents of one tabulated format:
    ``v = odd * 2**lsb`` and ``|v| < 2**mag``.  Zeros get ``(+HUGE,
    -HUGE)`` (no constraint on either side); NaR gets ``mag = +HUGE`` so
    any span containing it fails."""

    __slots__ = ("lsb", "mag")

    def __init__(self, values: np.ndarray):
        v = np.asarray(values, dtype=np.float64)
        real = np.isfinite(v) & (v != 0)
        m, e = np.frexp(np.where(real, v, 1.0))
        mant = np.abs(m * 2.0**SPAN_BITS).astype(np.int64)  # exact, in [2**52, 2**53)
        tz = np.frexp((mant & -mant).astype(np.float64))[1] - 1
        self.lsb = np.where(real, e - SPAN_BITS + tz, _HUGE).astype(np.int16)
        self.mag = np.where(real, e, np.where(v == 0, -_HUGE, _HUGE)).astype(np.int16)

    def span(self, codes: np.ndarray) -> Span:
        if codes.size == 0:
            return Span(_HUGE, -_HUGE)
        if len(self.lsb) <= 256 and codes.dtype == np.uint8:
            # A presence histogram beats two gathers over the codes.
            seen = np.bincount(codes.ravel(), minlength=len(self.lsb)) > 0
            return Span(int(self.lsb[seen].min()), int(self.mag[seen].max()))
        return Span(int(np.take(self.lsb, codes).min()), int(np.take(self.mag, codes).max()))


def exact_span(a: Span, b: Span, k: int) -> int:
    """Significand bits the widest partial sum of ``a @ b`` can need.

    ``<= SPAN_BITS`` means the contraction is exact in every order.
    """
    if a.mag >= _HUGE or b.mag >= _HUGE:  # NaR, even against all zeros
        return _HUGE
    return a.mag + b.mag + int(max(k - 1, 0)).bit_length() - (a.lsb + b.lsb)


def record(exact: bool) -> bool:
    """Count one span decision; returns it."""
    METRICS.inc("engine.exact.blas" if exact else "engine.exact.fallbacks")
    return exact


def blas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on BLAS, pinned to one thread on the first call."""
    if _PIN[0] is None:
        pin_blas()
    return a @ b


# ----------------------------------------------------------------------
# BLAS thread pinning
# ----------------------------------------------------------------------
#: ``[threads after pinning]`` once :func:`pin_blas` ran in this process —
#: module state because the BLAS thread pool is itself process-wide.
_PIN: list = [None]
_SYMBOLS = [
    f"{prefix}openblas_{{}}_num_threads{suffix}"
    for prefix in ("", "scipy_")
    for suffix in ("", "64_", "_64_")
]


def _openblas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS library numpy loaded (found in the process map)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "/" in line}
    except OSError:
        return None
    paths = {p for p in paths if "openblas" in os.path.basename(p).lower()}
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _symbol(lib: Optional[ctypes.CDLL], verb: str):
    """The ``openblas_{verb}_num_threads`` entry point under any known prefix
    or suffix, typed: ``set`` takes an ``int``, ``get`` returns one."""
    for name in _SYMBOLS:
        fn = getattr(lib, name.format(verb), None) if lib is not None else None
        if fn is not None:
            fn.argtypes = [ctypes.c_int] if verb == "set" else []
            fn.restype = None if verb == "set" else ctypes.c_int
            return fn
    return None


def pin_blas() -> int:
    """Pin numpy's OpenBLAS to one thread (once per process).

    A no-op when ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` is set or no
    ``*openblas_set_num_threads*`` symbol resolves.  Returns the thread
    count afterwards (``-1`` when unknown), also the
    ``engine.blas_threads`` gauge.
    """
    if _PIN[0] is None:
        np.ones((2, 2)) @ np.ones((2, 2))  # make sure numpy's BLAS is mapped
        lib = _openblas()
        setter, getter = _symbol(lib, "set"), _symbol(lib, "get")
        if setter is not None and not (
            "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ
        ):
            setter(1)
        _PIN[0] = int(getter()) if getter is not None else -1
        METRICS.set_gauge("engine.blas_threads", _PIN[0])
    return _PIN[0]


def stats() -> dict:
    """The exact-contraction ledger (the serve ``/stats`` engine block)."""
    return {
        "exact_blas": int(METRICS.counters.get("engine.exact.blas", 0)),
        "exact_fallbacks": int(METRICS.counters.get("engine.exact.fallbacks", 0)),
        "blas_threads": -1 if _PIN[0] is None else _PIN[0],
    }
