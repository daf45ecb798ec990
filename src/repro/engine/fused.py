"""Fused code-space inference: plan a whole network once, then execute it
without re-deriving any per-layer decisions.

:class:`FusedPlan` is the one executor of a posit network.  Its semantics
are :func:`~repro.nn.posit_inference.reference_forward`, which rounds
every quantized layer's input onto the posit grid — a correctly rounded
*encode* (boundary binary search), then a *decode* back to grid values.
Run layer by layer, that encode dominates the wall clock (>50% on the
8-bit KWS models).  The plan removes it from the hot loop, PAPER §II's
FloPoCo paradigm applied in software — generate exactly the datapath the
computation needs instead of round-tripping through generic machinery:

* **Plan once.**  ``FusedPlan.compile(network, fmt)`` walks the float
  :class:`~repro.nn.network.Sequential` a single time and emits a flat
  stage list: an encode stage feeding each quantized layer, a
  decode–matmul–accumulate–bias stage per convolution / dense layer, and
  passthrough stages for the unquantized interludes (ReLU, pooling,
  flatten).  Weights are pre-encoded once at compile time.
* **Operator specialization.**  Each stage's codec kernels come from
  :meth:`repro.engine.posit_backend.PositBackend.codec_kernels` — a
  direct float64-bits encode LUT plus value-table gather below the table
  ceiling, the bit-parallel wide kernels of :mod:`repro.posit.vector`
  above it — every one byte-equal to the default codec.
* **Code space across quantization boundaries.**  Between one quantized
  layer's interludes and the next quantized layer, activations travel as
  posit *codes* (one fast encode at the boundary, one table gather at the
  consumer) — 1/8th the bytes of float64 for 8-bit formats.
* **Exact contractions on BLAS** (:mod:`repro.engine.exact`).  Products of
  <= 16-bit posits are exact in float64.  If each operand's values are
  multiples of ``2**min_lsb`` below ``2**max_mag``, every partial sum of a
  ``K``-term contraction is a multiple of ``2**(min_lsb_a + min_lsb_b)``
  below ``2**(max_mag_a + max_mag_b + ceil(log2 K))``; when that span is
  at most 53 bits every partial sum is exact, so *every* summation order
  — any BLAS blocking, FMA, row count — yields the same bytes as the
  fixed-order :func:`~repro.engine.kernels.stable_matmul`.  Each
  contraction stage checks that span per call (weight span static,
  activation span from a per-code table over the input codes).  When it
  holds, contractions run on BLAS, and convolutions over K-major
  sliding-window columns (see :class:`_Conv`) — the order is free, so
  the column layout is too; the output keeps the reference's NHWC
  layout, because downstream reductions (``GlobalAvgPool``'s mean) sum
  in memory order.  When it fails (wide spans, NaR codes, the
  table-free 17..32-bit formats) the stage runs the im2col +
  :meth:`~PositBackend.matmul_values` path unchanged and the fallback is
  counted in ``engine.exact.fallbacks``.
* **Fault and poison sites are stages.**  ``compile(...,
  fault_plan=..., poison_audit=True)`` puts an activation-fault stage
  (:meth:`~repro.engine.faults.FaultPlan.corrupt_activations` at site
  ``activation.{i}.layer.{Name}``) and a poison-audit stage (non-finite
  counts per layer, :meth:`FusedPlan.poison_report`) after each layer's
  op stage.  A clean plan has neither.

**Specialization is never a numerics change**: for any input,
``plan.forward(x)`` is byte-equal to ``reference_forward(net, backend,
x)`` over the same backend.  The argument, boundary by boundary: the
stage-exit encode runs where the reference's quantize-encode runs (after
all interludes), the stage-entry decode is the quantize's decode half,
and the specialized kernels are bit-exact with the codec.  Residual
blocks are the one structural exception — their shortcut adds the
*unquantized* block input, so they take a float entry and quantize
internally (through the same fast kernels), exactly like the reference.

Plans hold per-stage scratch buffers (decode targets are reused across
calls via the codecs' ``out=`` hooks), so a plan instance is not
thread-safe; the serving layer runs one batch at a time (on its event
loop or its single dispatch thread) and parallel sharding keeps one plan
per worker process, so both satisfy that.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .backend import timed_op
from .exact import blas
from .kernels import nonfinite_count
from .observe import METRICS, TRACER
from .posit_backend import CodecKernels, PositBackend
from .registry import REGISTRY

__all__ = ["FusedPlan", "FusedStage"]


class _Scratch:
    """Named reusable buffers, reallocated only when a shape changes.

    A freshly allocated temporary costs ~4x a compute kernel at benchmark
    sizes (page faults on first touch — the same measurement that shaped
    :mod:`repro.posit.vector`), so each stage recycles its decode target
    across calls.  Buffers are handed out by name; a shape or dtype
    mismatch (new batch size) simply reallocates that slot.
    """

    __slots__ = ("bufs",)

    def __init__(self):
        self.bufs: Dict[str, np.ndarray] = {}

    def take(self, name: str, shape, dtype, zero: bool = False) -> np.ndarray:
        """The ``name`` buffer; ``zero`` fills a new one with zeros (a
        border no caller writes stays zero across reuses)."""
        buf = self.bufs.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = (np.zeros if zero else np.empty)(shape, dtype=dtype)
            self.bufs[name] = buf
        return buf


def _conv_apply(backend: PositBackend, conv, qw: np.ndarray, qx: np.ndarray) -> np.ndarray:
    """One convolution over already-quantized grid values.

    Same operation sequence as :func:`~repro.nn.posit_inference.
    reference_forward` (im2col, float64 contraction, bias, NHWC->NCHW) so
    the float arithmetic — and therefore every output byte — is identical.
    """
    from ..nn.layers import im2col

    f, c, kh, kw = qw.shape
    cols, oh, ow = im2col(qx, kh, kw, conv.stride, conv.pad)
    out = backend.matmul_values(cols, qw.reshape(f, -1).T) + conv.b.data
    return out.reshape(qx.shape[0], oh, ow, f).transpose(0, 3, 1, 2)


class FusedStage:
    """One compiled op of a :class:`FusedPlan`.

    ``entry`` names the representation the stage consumes: ``"codes"``
    (posit code array — the stage's first act is a table-gather decode) or
    ``"float"`` (unquantized float64).  Compile inserts an encode stage
    wherever a float producer feeds a codes consumer, which is exactly
    where the reference's quantize runs.
    """

    kind = "?"
    entry = "float"
    name = ""

    def run(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind, "entry": self.entry, "name": self.name}


class _EncodeStage(FusedStage):
    kind = "encode"
    entry = "float"

    def __init__(self, backend: PositBackend, kernels: CodecKernels):
        self.backend = backend
        self.kernels = kernels
        self.name = f"encode[{kernels.encode_kind}]"

    def run(self, x: np.ndarray) -> np.ndarray:
        with timed_op(self.backend.counters, "fused.encode", x.size, fmt=self.backend.name):
            return self.kernels.encode(x)


class _Conv:
    """One convolution over input codes, weights encoded at compile time.

    When the span check proves the contraction exact, the summation order
    is free and so is the column layout: the decoded input is copied into
    a zero-bordered scratch and its sliding windows copy K-major into
    ``(C*KH*KW, N*OH*OW)`` columns (contiguous ``OW``-long runs, where
    im2col's 6-D transpose copies one element at a time for ``C=1``).
    BLAS takes the transposed view ``cols.T @ W.T`` without a copy, so the
    output has :func:`_conv_apply`'s ``(N*OH*OW, F)`` layout: a later
    reduction sums in the same order whichever branch ran.  Otherwise
    :func:`_conv_apply` runs on the decoded input unchanged.
    """

    def __init__(self, conv, backend: PositBackend, kernels: CodecKernels, scratch, slot: str):
        self.conv = conv
        self.backend = backend
        self.kernels = kernels
        self.scratch = scratch
        self.slot = slot
        #: Weights pre-encoded once at compile time; ``qw`` is their decoded
        #: grid values — bit-identical to ``backend.quantize``.
        self.wcodes = kernels.encode(conv.w.data)
        self.qw = kernels.decode(self.wcodes)
        f, c, kh, kw = self.qw.shape
        self.k = c * kh * kw
        self.wmat = self.qw.reshape(f, self.k)
        self.wspan = backend.span(self.wcodes)

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        backend, scratch, slot = self.backend, self.scratch, self.slot
        n, c, h, w = codes.shape
        f, _, kh, kw = self.qw.shape
        stride, pad = self.conv.stride, self.conv.pad
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (w + 2 * pad - kw) // stride + 1
        exact = backend.exact(codes, self.wspan, self.k, n * oh * ow * self.k * f)
        with timed_op(backend.counters, "fused.decode", codes.size, fmt=backend.name):
            qx = self.kernels.decode(codes, out=scratch.take(slot, codes.shape, np.float64))
        if not exact:
            return _conv_apply(backend, self.conv, self.qw, qx)
        padded = scratch.take(slot + ".pad", (n, c, h + 2 * pad, w + 2 * pad), np.float64, zero=True)
        padded[:, :, pad : pad + h, pad : pad + w] = qx
        sn, sc, sh, sw = padded.strides
        windows = np.lib.stride_tricks.as_strided(
            padded, (c, kh, kw, n, oh, ow), (sc, sh, sw, sn, sh * stride, sw * stride)
        )
        cols = scratch.take(slot + ".cols", (self.k, n * oh * ow), np.float64)
        np.copyto(cols.reshape(c, kh, kw, n, oh, ow), windows)
        with timed_op(backend.counters, "matmul[values]", n * oh * ow * self.k * f, fmt=backend.name):
            out = blas(cols.T, self.wmat.T)
        out += self.conv.b.data
        return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    def weight_span(self):
        """The static weight span, ``[lsb, mag]`` (``None``: no table)."""
        return None if self.wspan is None else list(self.wspan)


class _ConvStage(FusedStage):
    kind = "conv"
    entry = "codes"

    def __init__(self, conv, backend: PositBackend, kernels: CodecKernels):
        self.backend = backend
        self.kernels = kernels
        self.scratch = _Scratch()
        self.op = _Conv(conv, backend, kernels, self.scratch, "qx")
        self.wcodes = self.op.wcodes
        self.name = conv.w.name.rsplit(".", 1)[0] or "conv"

    def run(self, codes: np.ndarray) -> np.ndarray:
        return self.op(codes)

    def describe(self) -> dict:
        info = super().describe()
        info["decode"] = self.kernels.decode_kind
        info["weight_codes"] = int(self.wcodes.size)
        info["weight_span"] = self.op.weight_span()
        return info


class _DenseStage(FusedStage):
    kind = "dense"
    entry = "codes"

    def __init__(self, dense, backend: PositBackend, kernels: CodecKernels):
        self.dense = dense
        self.backend = backend
        self.kernels = kernels
        self.scratch = _Scratch()
        self.wcodes = kernels.encode(dense.w.data)
        self.qw = kernels.decode(self.wcodes)
        self.wspan = backend.span(self.wcodes)
        self.name = dense.w.name.rsplit(".", 1)[0] or "dense"

    def run(self, codes: np.ndarray) -> np.ndarray:
        backend = self.backend
        with timed_op(backend.counters, "fused.decode", codes.size, fmt=backend.name):
            qx = self.kernels.decode(
                codes, out=self.scratch.take("qx", codes.shape, np.float64)
            )
        with timed_op(backend.counters, "matmul[values]", qx.size * self.qw.shape[1], fmt=backend.name):
            out = backend.contract(codes, self.wspan, qx, self.qw)
        return out + self.dense.b.data

    def describe(self) -> dict:
        info = super().describe()
        info["decode"] = self.kernels.decode_kind
        info["weight_codes"] = int(self.wcodes.size)
        info["weight_span"] = None if self.wspan is None else list(self.wspan)
        return info


class _ResidualStage(FusedStage):
    """conv-relu-conv + shortcut.  Float entry: the shortcut adds the
    *unquantized* block input, so no boundary encode may precede it; the
    internal convolutions quantize through the fast kernels instead."""

    kind = "residual"
    entry = "float"

    def __init__(self, block, backend: PositBackend, kernels: CodecKernels):
        self.block = block
        self.backend = backend
        self.kernels = kernels
        self.scratch = _Scratch()
        self.conv1 = _Conv(block.conv1, backend, kernels, self.scratch, "q1")
        self.conv2 = _Conv(block.conv2, backend, kernels, self.scratch, "q2")
        self.name = block.conv1.w.name.rsplit(".", 2)[0] or "residual"

    def _encode(self, x: np.ndarray) -> np.ndarray:
        with timed_op(self.backend.counters, "fused.quantize", x.size, fmt=self.backend.name):
            return self.kernels.encode(x)

    def run(self, x: np.ndarray) -> np.ndarray:
        block = self.block
        y = block.relu1.forward(self.conv1(self._encode(x)))
        y = self.conv2(self._encode(y))
        return block.relu2.forward(y + x)

    def describe(self) -> dict:
        info = super().describe()
        info["weight_span"] = [self.conv1.weight_span(), self.conv2.weight_span()]
        return info


class _LayerStage(FusedStage):
    """Unquantized interlude (ReLU, pooling, flatten, ...): the float
    layer's own forward, verbatim — byte-identity by construction."""

    kind = "layer"
    entry = "float"

    def __init__(self, layer):
        self.layer = layer
        self.name = type(layer).__name__

    def run(self, x: np.ndarray) -> np.ndarray:
        return self.layer.forward(x)


class _FaultStage(FusedStage):
    """Activation soft errors after one layer
    (:meth:`~repro.engine.faults.FaultPlan.corrupt_activations`), keyed on
    the site name and the activation's bytes — identical in any process."""

    kind = "fault"
    entry = "float"

    def __init__(self, fault_plan, backend: PositBackend, site: str):
        self.fault_plan = fault_plan
        self.backend = backend
        self.name = site

    def run(self, x: np.ndarray) -> np.ndarray:
        return self.fault_plan.corrupt_activations(x, self.backend, self.name)


def _tally_poison(report: Dict[int, dict], layer: int, name: str, nonfinite: int, elements: int) -> None:
    entry = report.setdefault(layer, {"layer": layer, "name": name, "nonfinite": 0, "elements": 0})
    entry["nonfinite"] += nonfinite
    entry["elements"] += elements


class _PoisonStage(FusedStage):
    """Poison audit after one layer: counts its non-finite (NaR-decoded
    NaN / inf) elements into the plan's report, the ``poison.nonfinite``
    metric and a ``poison.layer`` trace record.  Passes ``x`` through."""

    kind = "poison"
    entry = "float"

    def __init__(self, report: Dict[int, dict], layer: int, name: str):
        self.report = report
        self.layer = layer
        self.name = name

    def run(self, x: np.ndarray) -> np.ndarray:
        bad = nonfinite_count(x)
        _tally_poison(self.report, self.layer, self.name, bad, int(x.size))
        if bad:
            METRICS.inc("poison.nonfinite", bad)
            if TRACER.enabled:
                TRACER.record(
                    "poison.layer",
                    ts=0.0,
                    dur=0.0,
                    attrs={"layer": self.layer, "name": self.name, "nonfinite": bad},
                )
        return x


class FusedPlan:
    """A compiled, code-space execution plan for one network + format.

    Build with :meth:`compile`; run with :meth:`forward` (drop-in for any
    ``forward(x)`` model, e.g. under a
    :class:`~repro.engine.runner.BatchedRunner`) or split the input
    boundary with :meth:`encode_input` / :meth:`forward_codes`, to enter
    the plan with input that is already encoded.
    """

    def __init__(self, net, fmt, backend: PositBackend, kernels: CodecKernels, stages, fault_plan, poison):
        self.net = net
        self.fmt = fmt
        #: The backend whose counters/codec/contraction mode this plan uses
        #: (exposed as ``engine`` so runners adopt its counters).
        self.engine = backend
        self.kernels = kernels
        self.stages: List[FusedStage] = list(stages)
        self.stable_contractions = backend.stable_contractions
        #: What compile was given, so a worker can recompile the same plan.
        self.fault_plan = fault_plan
        self.poison_audit = poison is not None
        self._poison: Dict[int, dict] = poison if poison is not None else {}
        self.code_dtype = np.dtype(kernels.code_dtype)
        #: ``"codes"`` when the first stage is an input encode (every
        #: network whose first layer is quantized): such a plan can be
        #: entered at :meth:`forward_codes`.
        self.input_rep = (
            "codes" if self.stages and self.stages[0].kind == "encode" else "float"
        )

    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        net,
        fmt,
        *,
        backend: Optional[PositBackend] = None,
        fault_plan=None,
        poison_audit: bool = False,
    ) -> "FusedPlan":
        """Plan ``net`` (a float :class:`~repro.nn.network.Sequential`) once.

        ``backend`` may be a preconstructed :class:`PositBackend` (its
        counters, registry and stable-contraction flag are the plan's); by
        default one is built over the process-wide registry.
        ``fault_plan`` (its ``activation_rate``) and ``poison_audit`` add a
        fault and an audit stage after every layer.  Raises
        :class:`ValueError` when the backend or its registry carries a
        plan with ``lut_rate > 0``.
        """
        from ..nn.layers import Conv2D, Dense, ResidualBlock

        if backend is None:
            backend = PositBackend(fmt)
        reg = backend.registry if backend.registry is not None else REGISTRY
        if any(p is not None and p.lut_rate > 0.0 for p in (backend.fault_plan, reg.fault_plan)):
            raise ValueError(
                "cannot compile a fused plan against kernel-table faults "
                "(lut_rate > 0): the specialized codec kernels would not "
                "reproduce the corrupted tables"
            )
        kernels = backend.codec_kernels()
        inject = fault_plan is not None and fault_plan.activation_rate > 0.0
        poison: Optional[Dict[int, dict]] = {} if poison_audit else None

        stages: List[FusedStage] = []
        for i, layer in enumerate(net.layers):
            if isinstance(layer, Conv2D):
                op = _ConvStage(layer, backend, kernels)
            elif isinstance(layer, Dense):
                op = _DenseStage(layer, backend, kernels)
            elif isinstance(layer, ResidualBlock):
                op = _ResidualStage(layer, backend, kernels)
            else:
                op = _LayerStage(layer)
            if op.entry == "codes":
                # The boundary encode sits exactly where the reference's
                # quantize runs: after every interlude, at the quantized
                # layer's entry.
                stages.append(_EncodeStage(backend, kernels))
            stages.append(op)
            site = f"layer.{type(layer).__name__}"
            if inject:
                stages.append(_FaultStage(fault_plan, backend, f"activation.{i}.{site}"))
            if poison is not None:
                stages.append(_PoisonStage(poison, i, site))
        return cls(net, fmt, backend, kernels, stages, fault_plan, poison)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Float samples in, float64 logits out — byte-equal to
        :func:`~repro.nn.posit_inference.reference_forward`."""
        cur = np.asarray(x, dtype=np.float64)
        with timed_op(self.engine.counters, "fused.forward", cur.size, fmt=self.engine.name):
            for stage in self.stages:
                cur = stage.run(cur)
        return cur

    def encode_input(self, x: np.ndarray) -> np.ndarray:
        """The input boundary's code array (what :meth:`forward_codes` takes).

        Elementwise, so ``encode_input(x)[s:e] == encode_input(x[s:e])``:
        encoding chunk by chunk gives the bytes of one whole-array encode.
        """
        if self.input_rep != "codes":
            raise ValueError(
                f"network {self.net.name!r} takes a float entry "
                "(first layer is not quantized); use forward()"
            )
        return self.stages[0].run(np.asarray(x, dtype=np.float64))

    def forward_codes(self, codes: np.ndarray) -> np.ndarray:
        """Run from pre-encoded input codes (see :meth:`encode_input`)."""
        if self.input_rep != "codes":
            raise ValueError("plan has a float entry; use forward()")
        cur = codes
        with timed_op(
            self.engine.counters, "fused.forward", codes.size, fmt=self.engine.name
        ):
            for stage in self.stages[1:]:
                cur = stage.run(cur)
        return cur

    # ------------------------------------------------------------------
    # Poison audit
    # ------------------------------------------------------------------
    def poison_report(self) -> List[dict]:
        """Per-layer non-finite propagation counts.

        Each entry: ``{"layer", "name", "nonfinite", "elements"}`` in layer
        order, accumulated over every forward since the last
        :meth:`reset_poison`.  Empty unless compiled with
        ``poison_audit=True``.
        """
        return [self._poison[k] for k in sorted(self._poison)]

    def reset_poison(self) -> None:
        self._poison.clear()

    def merge_poison(self, entries: List[dict]) -> None:
        """Fold another process's :meth:`poison_report` entries into this
        plan's report (how parallel workers' audits reach the parent)."""
        for e in entries:
            _tally_poison(self._poison, e["layer"], e["name"], e["nonfinite"], e["elements"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> List[dict]:
        """One dict per stage: kind, entry representation, kernel choices."""
        return [stage.describe() for stage in self.stages]

    def __repr__(self):
        kinds = "/".join(s.kind for s in self.stages)
        return (
            f"FusedPlan({self.net.name!r}, {self.engine.name}, "
            f"{len(self.stages)} stages: {kinds})"
        )
