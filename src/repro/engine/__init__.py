"""repro.engine — vectorized, format-agnostic arithmetic execution engine.

The edge-inference pitch of Sections IV-V, made fast: every <= 16-bit
format's behaviour is precomputed into lookup tables once per process
(the process-wide :mod:`registry <repro.engine.registry>`; tables are
never stored), and all tensor arithmetic then runs as bulk integer
indexing and float64 re-encoding — the ApproxTrain/ProxSim architecture,
generalized over posits, IEEE-style softfloats, LNS and approximate
multipliers behind one :class:`Backend <repro.engine.backend.Backend>`
protocol.  The posit, softfloat and LNS backends share one base,
:class:`CodecBackend <repro.engine.backend.CodecBackend>`, so a
:class:`FusedPlan <repro.engine.fused.FusedPlan>` compiles a network in
any of their formats.  Wider formats (posit<32,2>, binary32) skip the
tables entirely: the ``wide`` strategy of :mod:`repro.engine.wide`
decodes and encodes by bit-parallel field extraction on whole code
arrays.

Quickstart::

    import numpy as np
    from repro.engine import backend_for
    from repro.posit import POSIT8

    be = backend_for(POSIT8)           # tables built once, then cached
    a = be.encode(np.linspace(-4, 4, 8))
    b = be.encode(np.full(8, 0.5))
    print(be.decode(be.mul(a, b)))     # correctly rounded posit products
    print(be.counters)                 # per-op observability

Batched inference with observability::

    from repro.engine import BatchedRunner
    from repro.nn.posit_inference import PositQuantizedNetwork

    qnet = PositQuantizedNetwork(net, POSIT8)   # executes through the engine
    runner = BatchedRunner(qnet, batch_size=32)   # workers=N: a spawn pool
    y = runner.run(x)                  # bit-identical at any worker count
    print(runner.stats())              # items/s, per-op counters, table hits
"""

from .observe import (
    METRICS,
    TRACER,
    Histogram,
    Metrics,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_metrics,
    get_tracer,
    load_jsonl,
    report,
)
from .backend import Backend, CodecBackend, CodecKernels, OpCounters
from .faults import ChaosPlan, FaultPlan, apply_code_faults
from .kernels import (
    lut_matmul,
    nonfinite_count,
    pairwise_lut,
    rounded_matmul,
    stable_matmul,
)
from .registry import (
    ENCODE_TABLE_TOP_BITS,
    REGISTRY,
    KernelRegistry,
    array_digest,
    get_codec,
    get_encode_table,
    get_posit_tables,
)
from .wide import (
    MAX_WIDE_BITS,
    WideFloatCodec,
    WidePositCodec,
    get_wide_float_codec,
    get_wide_posit_codec,
)
from .posit_backend import PositBackend
from .softfloat_backend import SoftFloatBackend, SoftFloatCodec, get_softfloat_codec
from .lns_backend import LNSBackend
from .approx_backend import ApproxMultiplierBackend, get_signed_lut
from .fused import FusedPlan
from .runner import BatchedRunner
from .parallel import FusedPlanSpec, ModelHandle

__all__ = [
    "Backend",
    "CodecBackend",
    "OpCounters",
    "Tracer",
    "Metrics",
    "Histogram",
    "TRACER",
    "METRICS",
    "get_tracer",
    "get_metrics",
    "enable_tracing",
    "disable_tracing",
    "load_jsonl",
    "report",
    "KernelRegistry",
    "REGISTRY",
    "array_digest",
    "get_codec",
    "get_encode_table",
    "ENCODE_TABLE_TOP_BITS",
    "get_posit_tables",
    "get_softfloat_codec",
    "MAX_WIDE_BITS",
    "WidePositCodec",
    "WideFloatCodec",
    "get_wide_posit_codec",
    "get_wide_float_codec",
    "get_signed_lut",
    "pairwise_lut",
    "lut_matmul",
    "rounded_matmul",
    "stable_matmul",
    "nonfinite_count",
    "FaultPlan",
    "ChaosPlan",
    "apply_code_faults",
    "PositBackend",
    "CodecKernels",
    "SoftFloatBackend",
    "SoftFloatCodec",
    "LNSBackend",
    "ApproxMultiplierBackend",
    "FusedPlan",
    "FusedPlanSpec",
    "BatchedRunner",
    "ModelHandle",
    "backend_for",
]


def backend_for(fmt, **kwargs):
    """Construct the right backend for a format descriptor.

    Dispatches on the descriptor type: :class:`repro.posit.PositFormat`,
    :class:`repro.floats.FloatFormat`, :class:`repro.lns.LNSFormat`, or an
    :class:`repro.approx.ApproxMultiplier` instance.  Keyword arguments are
    forwarded to the backend constructor (``counters``, ``registry``, ...).
    """
    from ..floats.format import FloatFormat
    from ..lns.format import LNSFormat
    from ..posit.format import PositFormat

    if isinstance(fmt, PositFormat):
        return PositBackend(fmt, **kwargs)
    if isinstance(fmt, FloatFormat):
        return SoftFloatBackend(fmt, **kwargs)
    if isinstance(fmt, LNSFormat):
        return LNSBackend(fmt, **kwargs)
    if hasattr(fmt, "multiply") and hasattr(fmt, "bits"):
        return ApproxMultiplierBackend(fmt, **kwargs)
    raise TypeError(f"no engine backend for format {fmt!r}")
