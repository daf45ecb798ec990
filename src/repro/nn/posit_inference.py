"""Posit-quantized DNN inference, executed through :mod:`repro.engine`.

The edge-ML pitch of Section V, exercised end to end: weights and
activations are rounded onto a posit grid (no per-tensor scale calibration
— the tapered dynamic range absorbs it), products are exact for <=16-bit
formats (float64 holds any product of two such posits exactly; the wide
posit<32,2> path's 28-bit significands can round a product by one float64
ulp, ~2**-53 relative, far below the final posit rounding), and
accumulations model the quire (exact until the final rounding per
output).

:func:`reference_forward` states these semantics layer by layer, over
any posit, softfloat or LNS backend; it is the oracle, not an execution
path.  :class:`PositQuantizedNetwork` runs
one compiled :class:`repro.engine.fused.FusedPlan`, byte-equal to the
reference, with fault injection and the poison audit as plan stages.
All bulk arithmetic goes through a shared
:class:`repro.engine.posit_backend.PositBackend`: codecs and behaviour
tables are built once per format (process-wide registry) instead of per
network, and every op is recorded in the backend's counters so a
:class:`repro.engine.runner.BatchedRunner` can report per-op statistics.

Contrast with :class:`repro.nn.quantize.QuantizedNetwork`: int8 linear
quantization needs a calibration pass and per-layer scales; the posit
pipeline is calibration-free.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..engine.backend import CodecBackend, OpCounters
from ..engine.exact import blas
from ..engine.fused import FusedPlan
from ..engine.kernels import stable_matmul
from ..engine.posit_backend import PositBackend
from ..posit import PositFormat
from .layers import Conv2D, Dense, ResidualBlock, im2col
from .network import Sequential

__all__ = ["PositQuantizedNetwork", "reference_forward"]


def reference_forward(net: Sequential, backend: CodecBackend, x: np.ndarray) -> np.ndarray:
    """The quantized-inference semantics, layer by layer: the oracle.

    Every Conv/Dense input and weight is rounded onto ``backend``'s grid
    (``backend.quantize``; posit, softfloat or LNS), convolutions contract
    over im2col patches, and each contraction is a plain float64 ``@``
    (on BLAS pinned to one thread, :func:`~repro.engine.exact.blas`) — or
    the fixed-order
    :func:`~repro.engine.kernels.stable_matmul` when
    ``backend.stable_contractions`` is set.  Bias, activations and all
    other layers run unquantized.  A compiled
    :class:`~repro.engine.fused.FusedPlan` over the same backend is
    byte-equal to this on every input; tests and benchmarks compare
    against it.  Fault injection and poison audits are not modelled here.
    """

    def contract(a, b):
        return stable_matmul(a, b) if backend.stable_contractions else blas(a, b)

    def conv(layer, x):
        qw = backend.quantize(layer.w.data)
        f, c, kh, kw = qw.shape
        cols, oh, ow = im2col(backend.quantize(x), kh, kw, layer.stride, layer.pad)
        out = contract(cols, qw.reshape(f, -1).T) + layer.b.data
        return out.reshape(x.shape[0], oh, ow, f).transpose(0, 3, 1, 2)

    x = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        if isinstance(layer, Conv2D):
            x = conv(layer, x)
        elif isinstance(layer, Dense):
            x = contract(backend.quantize(x), backend.quantize(layer.w.data)) + layer.b.data
        elif isinstance(layer, ResidualBlock):
            y = layer.relu1.forward(conv(layer.conv1, x))
            x = layer.relu2.forward(conv(layer.conv2, y) + x)
        else:
            x = layer.forward(x)
    return x


class PositQuantizedNetwork:
    """Posit-grid inference over a trained float :class:`Sequential`.

    A front for one compiled :class:`~repro.engine.fused.FusedPlan`:
    :meth:`forward`, :meth:`predict` and the poison report all run on or
    read from it, and :meth:`fused_plan` returns it.

    ``engine`` may be a preconstructed :class:`PositBackend` (e.g. sharing
    counters across several networks); by default one is built over the
    process-wide kernel registry, so constructing many networks for the
    same format reuses one codec instead of rebuilding its tables.

    Robustness hooks (both become stages of the plan):

    * ``fault_plan`` — a :class:`repro.engine.faults.FaultPlan` whose
      ``activation_rate`` flips bits in each layer's *posit-encoded*
      activations (the soft-error model for activation SRAM); fully
      deterministic under the plan's seed.
    * ``poison_audit`` — count non-finite (NaR-decoded NaN / inf)
      elements after every layer into the ``poison.nonfinite`` metric and
      per-layer trace records; read back with :meth:`poison_report`.
    """

    def __init__(
        self,
        net: Sequential,
        fmt: PositFormat,
        engine: Optional[PositBackend] = None,
        counters: Optional[OpCounters] = None,
        fault_plan=None,
        poison_audit: bool = False,
        stable_contractions: bool = False,
    ):
        self.net = net
        self.fmt = fmt
        self.engine = (
            engine
            if engine is not None
            else PositBackend(
                fmt, counters=counters, stable_contractions=stable_contractions
            )
        )
        self.codec = self.engine.codec  # back-compat alias
        self._plan = FusedPlan.compile(
            net, fmt, backend=self.engine, fault_plan=fault_plan, poison_audit=poison_audit
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._plan.forward(x)

    def poison_report(self) -> List[dict]:
        """Per-layer non-finite propagation counts (poison audit results).

        Each entry: ``{"layer", "name", "nonfinite", "elements"}`` in layer
        order, accumulated over every :meth:`forward` since the last
        :meth:`reset_poison`.  Empty unless ``poison_audit=True``.
        """
        return self._plan.poison_report()

    def reset_poison(self) -> None:
        self._plan.reset_poison()

    def merge_poison(self, entries: List[dict]) -> None:
        self._plan.merge_poison(entries)

    def fused_plan(self) -> FusedPlan:
        """The compiled plan this network runs (compiled once, in the
        constructor, against this network's own backend)."""
        return self._plan

    def predict(self, x: np.ndarray, batch: int = 256) -> np.ndarray:
        """Batched in-process inference, ``batch`` samples per plan call.

        For a worker pool, run the network under a
        ``BatchedRunner(..., workers=N)`` and keep it alive across calls.
        """
        outs = []
        for start in range(0, len(x), batch):
            outs.append(self._plan.forward(x[start : start + batch]))
        return np.concatenate(outs, axis=0)

    def weight_quantization_error(self) -> float:
        """Worst relative weight-rounding error across quantized layers."""
        worst = 0.0
        for layer in self.net.layers:
            for param_owner in (
                [layer] if isinstance(layer, (Conv2D, Dense)) else
                [layer.conv1, layer.conv2] if isinstance(layer, ResidualBlock) else []
            ):
                worst = max(worst, self.codec.quantization_error(param_owner.w.data))
        return worst
