"""LUT-backed behavioural simulation of approximate arithmetic (ProxSim [27]).

ProxSim runs approximate-multiplier behavioural models inside convolutional
and fully connected layers on a GPU; here the same thing is done with numpy
fancy indexing over the multiplier's exhaustive 256x256 table — bit-exact
with the circuit, "slow but correct".

DNN quantization produces *signed* int8 operands while the multiplier
designs are unsigned cores; :func:`signed_lut` wraps a core in the
standard sign-magnitude envelope (the approach ProxSim-style flows use for
unsigned EvoApprox cores).

Execution goes through :mod:`repro.engine`: tables are memoized per core in
the process-wide kernel registry, and the tiled contraction is the engine's
:func:`repro.engine.kernels.lut_matmul` — the same kernel the other
backends use.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine.approx_backend import get_signed_lut
from ..engine.kernels import lut_matmul
from ..engine.observe import TRACER
from .multipliers import ApproxMultiplier

__all__ = ["signed_lut", "approx_matmul", "approx_conv2d"]


def signed_lut(mult: ApproxMultiplier) -> np.ndarray:
    """Signed behaviour table: ``lut[a + 128, b + 128] ~ a * b`` for int8.

    The unsigned core multiplies magnitudes; the product sign is the XOR of
    the operand signs (the sign-magnitude envelope of Section V's
    discussion — floats and most approximate cores work this way).

    Memoized per core in the engine's kernel registry: repeated simulations
    of the same multiplier share one table.
    """
    return get_signed_lut(mult)


def approx_matmul(
    a: np.ndarray,
    b: np.ndarray,
    lut: Optional[np.ndarray],
    chunk: int = 64,
    fault_plan=None,
) -> np.ndarray:
    """``a @ b`` for int8-valued arrays through a signed behaviour table.

    ``a`` is (M, K), ``b`` is (K, N); accumulation is exact int64 (the
    int32 accumulators of real accelerators never saturate at these sizes).
    ``lut=None`` gives the exact product (the quantized baseline).

    ``fault_plan`` (a :class:`repro.engine.faults.FaultPlan` with a
    non-zero ``lut_rate``) runs the contraction through a deterministically
    bit-flipped copy of the behaviour table — stuck-at faults in the
    multiplier array, on top of its designed approximation error.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if lut is None:
        return a @ b
    if fault_plan is not None and fault_plan.lut_rate > 0.0:
        lut = fault_plan.corrupt_table("approx.simulate", "lut", lut)
    with TRACER.span("approx.matmul", shape=(a.shape[0], a.shape[1], b.shape[1])):
        return lut_matmul(lut, a + 128, b + 128, chunk=chunk)


def approx_conv2d(
    x: np.ndarray,
    w: np.ndarray,
    lut: Optional[np.ndarray],
    stride: int = 1,
    pad: int = 0,
    fault_plan=None,
) -> np.ndarray:
    """2-D convolution of int8-valued tensors through the behaviour table.

    ``x``: (N, C, H, W) activations; ``w``: (F, C, KH, KW) filters.
    Returns (N, F, OH, OW) int64 accumulations.
    """
    # Imported here: repro.nn imports its quantizer, which imports this module.
    from ..nn.layers import im2col

    n = x.shape[0]
    f, c, kh, kw = w.shape
    with TRACER.span("approx.conv2d", shape=list(x.shape), filters=f):
        cols, oh, ow = im2col(x, kh, kw, stride, pad)
        wmat = w.reshape(f, c * kh * kw).T  # (CKK, F)
        out = approx_matmul(cols, wmat, lut, fault_plan=fault_plan)
        return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
