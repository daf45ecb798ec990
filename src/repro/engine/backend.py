"""The engine's backend contract and per-op observability counters.

A *backend* packages one number format's behaviour as bulk operations on
integer **code arrays**: ``encode`` rounds real values onto the format's
grid, ``decode`` recovers exact float64 values, and ``add``/``mul``/
``matmul``/``dot_exact`` apply the format's (correctly rounded or
behaviourally exact) arithmetic elementwise at numpy speed.  This is the
ApproxTrain/ProxSim architecture: precompute each narrow format's behaviour
once, then run all tensor arithmetic as bulk integer indexing.

Backends are duck-typed against :class:`Backend` (a ``typing.Protocol``);
concrete implementations live in the sibling ``*_backend`` modules and are
constructed through :func:`repro.engine.backend_for`.  The posit,
softfloat and LNS backends share one base, :class:`CodecBackend`: the
strategy choice, the timed codec, pairwise-table or via-float elementwise
ops, float64 contractions under the exact-contraction rule, and the codec
kernels a :class:`~repro.engine.fused.FusedPlan` runs on.  Each subclass
adds only what its format does differently.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, NamedTuple, Optional, Protocol, runtime_checkable

import numpy as np

from .exact import EXACT_MIN_MACS, SPAN_BITS, Span, SpanTable, blas, exact_span, record
from .faults import apply_code_faults
from .kernels import pairwise_lut, stable_matmul
from .observe import TRACER, Metrics
from .registry import REGISTRY
from .wide import MAX_WIDE_BITS

__all__ = ["Backend", "CodecBackend", "CodecKernels", "OpCounters", "timed_op"]

#: The float64 op behind each table-free elementwise op.
_FLOAT_OPS = {"add": np.add, "mul": np.multiply}


class OpCounters:
    """Per-operation counters: calls, elements processed, wall time.

    Compatibility shim over :class:`repro.engine.observe.Metrics`: the
    original flat ``{op: {calls, elements, seconds}}`` API is preserved
    verbatim (``record``/``snapshot``/``merge``/``total``/``clear`` and the
    ``.ops`` mapping), but every recording now also feeds the richer
    metrics registry underneath — per-op latency histograms and any named
    counters/gauges the execution layers add — exposed as ``.metrics``.
    Table (memo) hits and misses are tracked globally by
    :class:`repro.engine.registry.KernelRegistry`.
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: Optional[Metrics] = None):
        self.metrics = metrics if metrics is not None else Metrics()

    @property
    def ops(self) -> Dict[str, Dict[str, float]]:
        """The per-op ``{calls, elements, seconds}`` table (a copy)."""
        return self.metrics.op_table()

    def record(self, op: str, elements: int, seconds: float) -> None:
        self.metrics.record_op(op, elements, seconds)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A deep copy of the current counters (safe to keep)."""
        return self.metrics.op_table()

    def total(self, field: str = "elements") -> float:
        """Sum of one field over all ops (e.g. total elements executed)."""
        return sum(entry[field] for entry in self.metrics.op_table().values())

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Fold another counters snapshot into this one.

        The parallel runner ships each worker's per-chunk counter deltas
        back to the parent and merges them here, so sharded execution
        reports through the same ``stats()`` shape as single-process runs.
        """
        self.metrics.merge_ops(snapshot)

    def clear(self) -> None:
        self.metrics.clear_ops()

    def __repr__(self):
        parts = ", ".join(
            f"{op}: {int(e['calls'])} calls / {int(e['elements'])} elems"
            for op, e in sorted(self.metrics.op_table().items())
        )
        return f"OpCounters({parts})"


class timed_op:
    """Context manager recording one op into an (optional) OpCounters.

    Also emits a span to the process-wide tracer when tracing is enabled,
    carrying the op name, element count and the backend's format name —
    this is how every backend ``__call__`` path shows up in a trace without
    per-backend instrumentation.
    """

    __slots__ = ("counters", "op", "elements", "fmt", "_t0", "_span")

    def __init__(
        self,
        counters: Optional[OpCounters],
        op: str,
        elements: int,
        fmt: Optional[str] = None,
    ):
        self.counters = counters
        self.op = op
        self.elements = elements
        self.fmt = fmt

    def __enter__(self):
        if TRACER.enabled:
            self._span = TRACER.span(self.op, fmt=self.fmt, elements=self.elements)
            self._span.__enter__()
        else:
            self._span = None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self._t0
        if self.counters is not None:
            self.counters.record(self.op, self.elements, dt)
        if self._span is not None:
            self._span.__exit__(*exc)
        return False


@runtime_checkable
class Backend(Protocol):
    """Format-agnostic bulk arithmetic on integer code arrays.

    Implementations must be *closed* over their code space for ``add`` and
    ``mul`` (codes in, codes out) except where the format itself is open —
    the approximate-multiplier backend returns full-width integer products,
    mirroring the hardware MAC it models.
    """

    #: Human-readable backend name, e.g. ``"posit<8,0>"``.
    name: str
    #: Hashable format key, used by the kernel registry.
    key: tuple

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Round real values onto the format grid; returns code array."""
        ...

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Exact float64 value of each code (NaR/NaN patterns -> NaN)."""
        ...

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise format addition on code arrays."""
        ...

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise format multiplication on code arrays."""
        ...

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product of code arrays ``(M, K) @ (K, N)``."""
        ...

    def dot_exact(self, a: np.ndarray, b: np.ndarray):
        """Exactly accumulated dot product of two code vectors."""
        ...


class CodecKernels(NamedTuple):
    """The fastest bit-identical (encode, decode) pair for one format.

    What :meth:`CodecBackend.codec_kernels` hands the fused planner:
    ``encode(x) -> codes`` and ``decode(codes, out=None) -> float64``,
    each byte-equal to the backend's default codec on every input, plus
    the kernel names for plan introspection.  ``code_dtype`` is the
    narrowest unsigned dtype holding a code word.
    """

    encode: Callable[[np.ndarray], np.ndarray]
    decode: Callable[..., np.ndarray]
    encode_kind: str
    decode_kind: str
    code_dtype: type


class CodecBackend:
    """Bulk arithmetic over a codec: the shared half of the posit,
    softfloat and LNS backends.

    A subclass calls :meth:`__init__` with its format's code width and
    strategy, then sets ``name``/``key``, ``codec`` (anything with
    ``encode``/``decode``), ``values`` (the code-to-value table, ``None``
    for the table-free ``wide`` strategy) and, for ``pairwise``,
    ``add_table``/``mul_table``.  Strategies:

    * ``pairwise`` — exhaustive 2-D behaviour tables, one fancy index per
      elementwise op;
    * ``via-float`` — decode to exact float64 values, compute, re-encode
      once (bit-exact where the subclass says so);
    * ``wide`` — the table-free bit-parallel codecs of
      :mod:`repro.engine.wide`.

    ``matmul`` decodes, contracts in float64 through :meth:`contract`
    (exact products, 53-bit accumulation) and rounds once.  The
    exact-contraction rule (:mod:`repro.engine.exact`) reads the value
    table, so it applies to every tabulated format: for non-dyadic grids
    (LNS) the span simply never fits and contractions keep the fixed
    order.
    """

    #: Widest format the value-table strategies (``via-float``) support.
    TABULATED_BITS = 16
    #: Widest format ``pairwise`` tables support (``2**32`` entries).
    PAIRWISE_BITS = 16
    #: Name of the codec's own encode kernel in :meth:`codec_kernels`.
    ENCODE_KIND = "table-searchsorted"
    #: When true, float64 contractions whose exactness the span rule cannot
    #: prove run through :func:`~repro.engine.kernels.stable_matmul`, whose
    #: accumulation order is independent of batch composition.
    stable_contractions = False

    name: str
    key: tuple
    codec: object
    values: Optional[np.ndarray] = None
    add_table: Optional[np.ndarray] = None
    mul_table: Optional[np.ndarray] = None

    def __init__(self, fmt, bits: int, strategy: str, counters, registry, fault_plan):
        self.fmt = fmt
        self.strategy = strategy
        self.counters = counters if counters is not None else OpCounters()
        #: Registry the codec and tables come from.
        self.registry = registry if registry is not None else REGISTRY
        self._code_dtype = np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32
        #: Width of one code word — the bit-flip domain for fault injection.
        self.code_bits = bits
        #: Optional :class:`repro.engine.faults.FaultPlan` corrupting op outputs.
        self.fault_plan = fault_plan
        self._spans: Optional[SpanTable] = None

    @classmethod
    def _pick_strategy(cls, fmt, bits: int, table_bits: int, strategy: Optional[str]) -> str:
        """``strategy``, or the default for a ``bits``-wide format,
        checked against the width each strategy supports."""
        if bits > MAX_WIDE_BITS:
            raise ValueError(f"{cls.__name__} supports at most {MAX_WIDE_BITS}-bit formats")
        if strategy is None:
            strategy = "pairwise" if bits <= table_bits else "via-float" if bits <= cls.TABULATED_BITS else "wide"
        caps = {"pairwise": cls.PAIRWISE_BITS, "via-float": cls.TABULATED_BITS, "wide": MAX_WIDE_BITS}
        if strategy not in caps:
            raise ValueError(f"unknown strategy {strategy!r}")
        if bits > caps[strategy]:
            raise ValueError(
                f"strategy {strategy!r} supports at most {caps[strategy]}-bit formats; use 'wide' for {fmt}"
            )
        return strategy

    def _fault(self, op: str, codes: np.ndarray) -> np.ndarray:
        return apply_code_faults(self.fault_plan, self.name, op, codes, self.code_bits)

    # ------------------------------------------------------------------
    # Codec (untimed kernels, then the timed public ops)
    # ------------------------------------------------------------------
    def _encode(self, x: np.ndarray) -> np.ndarray:
        return self.codec.encode(x).astype(self._code_dtype)

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        return self.codec.decode(codes)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Round real values onto the format grid; returns codes."""
        x = np.asarray(x, dtype=np.float64)
        with timed_op(self.counters, "encode", x.size, fmt=self.name):
            return self._encode(x)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Exact float64 value of each code."""
        codes = np.asarray(codes)
        with timed_op(self.counters, "decode", codes.size, fmt=self.name):
            return self._decode(codes)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip: the nearest grid value of each element."""
        x = np.asarray(x, dtype=np.float64)
        with timed_op(self.counters, "quantize", x.size, fmt=self.name):
            return self._decode(self._encode(x))

    # ------------------------------------------------------------------
    # Elementwise
    # ------------------------------------------------------------------
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise format addition on code arrays."""
        return self._elementwise("add", self.add_table, a, b)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise format multiplication on code arrays."""
        return self._elementwise("mul", self.mul_table, a, b)

    def _elementwise(self, op: str, table, a, b) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        with timed_op(self.counters, op, max(a.size, b.size), fmt=self.name):
            out = pairwise_lut(table, a, b) if table is not None else self._compute(op, a, b)
            return self._fault(op, out)

    def _compute(self, op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The table-free ``op``: float64 compute, one re-encode."""
        with np.errstate(invalid="ignore"):  # inf - inf, inf * 0 -> NaN
            out = _FLOAT_OPS[op](self._decode(a), self._decode(b))
        return self._encode(out)

    # ------------------------------------------------------------------
    # Contractions
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray, accumulate: str = "float64") -> np.ndarray:
        """``(M, K) @ (K, N)`` on code arrays; returns codes.

        ``"float64"`` accumulation: exact products, a 53-bit accumulator
        (the finite Kulisch/quire model), one rounding into the format.
        """
        a, b = np.asarray(a), np.asarray(b)
        macs = a.shape[0] * a.shape[1] * b.shape[1]
        with timed_op(self.counters, f"matmul[{accumulate}]", macs, fmt=self.name):
            return self._fault("matmul", self._matmul(a, b, accumulate))

    def _matmul(self, a: np.ndarray, b: np.ndarray, accumulate: str) -> np.ndarray:
        if accumulate != "float64":
            raise ValueError(f"{type(self).__name__} supports accumulate='float64' only")
        return self._encode(self.contract(a, b, self._decode(a), self._decode(b)))

    def matmul_values(self, qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
        """``QA @ QB`` on grid *values* (float64 in, float64 out).

        The DNN inference path: operands are already on the grid (from
        :meth:`quantize`) and the result stays in float64, so bias adds
        and activations run unquantized.  Values alone carry no cheap
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
        """Per-code lsb/mag exponents, built on first use (``None`` for
        the table-free wide strategy, whose contractions therefore always
        fall back)."""
        if self._spans is None and self.values is not None:
            self._spans = SpanTable(self.values)
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
        return record(mine is not None and other is not None and exact_span(mine, other, k) <= SPAN_BITS)

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
        """Encode/decode kernels bit-identical to this codec.

        Tabulated formats decode by a value-table gather (with ``out=``
        for scratch reuse) and encode through the codec; the ``wide``
        strategy uses the wide codec's own bit-parallel kernels.
        Subclasses may swap in a faster encode — specialization is an
        execution strategy, never a numerics change.
        """
        code_dtype = self._code_dtype
        if self.values is None:
            return CodecKernels(self._encode, self.codec.decode, "wide-bitparallel", "wide-bitparallel", code_dtype)
        values = self.values
        # ``np.take`` buffers ``out=`` under mode="raise"; when the table
        # covers every value of the code dtype no index can be out of
        # range, so "clip" is the same gather without the extra copy.
        full = len(values) == 1 << (8 * np.dtype(code_dtype).itemsize)
        mode = "clip" if full else "raise"

        def decode(codes, out=None, _v=values, _mode=mode):
            return np.take(_v, codes, out=out, mode=_mode)

        return CodecKernels(self._encode, decode, self.ENCODE_KIND, "table-gather", code_dtype)

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, strategy={self.strategy!r})"
