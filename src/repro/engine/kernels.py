"""Vectorized LUT kernels: bulk arithmetic as integer table indexing.

These are the execution primitives shared by every backend: elementwise
pairwise-table lookup, tiled LUT matrix multiplication with exact integer
accumulation (the ApproxTrain pattern), and a rounded-accumulation matmul
that applies the format's addition table after every product (modelling a
datapath *without* a quire/Kulisch accumulator).

All kernels are pure functions of their table and index arrays — no format
knowledge — so posits, softfloats, LNS and approximate multipliers all run
through the same code.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .observe import TRACER

__all__ = [
    "pairwise_lut",
    "lut_matmul",
    "rounded_matmul",
    "stable_matmul",
    "nonfinite_count",
]


def nonfinite_count(x: np.ndarray) -> int:
    """How many elements of ``x`` are NaN or infinite (0 for integer arrays).

    The poison-audit primitive: posit NaR decodes to NaN, float overflow
    decodes to inf, and both propagate through contractions — counting them
    per layer is how :mod:`repro.nn.posit_inference` traces poisoning.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        return 0
    return int(x.size - np.count_nonzero(np.isfinite(x)))


def pairwise_lut(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``table[a, b]`` with broadcasting.

    ``table`` is a 2-D behaviour table; ``a``/``b`` are integer code (or
    index) arrays.  This is the whole elementwise kernel: one fused fancy
    index at numpy speed.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return table[a, b]


def lut_matmul(
    lut: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    chunk: int = 64,
    dtype=np.int64,
) -> np.ndarray:
    """``A @ B`` where every scalar product comes from a behaviour table.

    ``a_idx`` is (M, K) and ``b_idx`` is (K, N); each product is
    ``lut[a_idx[m, k], b_idx[k, n]]`` and accumulation is exact integer
    (``dtype``).  The contraction is tiled over K in ``chunk``-wide slabs so
    the (M, N, chunk) product block stays cache-sized instead of
    materializing all M*N*K products at once.
    """
    a_idx = np.asarray(a_idx)
    b_idx = np.asarray(b_idx)
    m, k = a_idx.shape
    k2, n = b_idx.shape
    if k != k2:
        raise ValueError(f"shape mismatch ({m}, {k}) @ ({k2}, {n})")
    with TRACER.span("kernel.lut_matmul", shape=(m, k, n), chunk=chunk):
        out = np.zeros((m, n), dtype=dtype)
        bt = np.ascontiguousarray(b_idx.T)
        for start in range(0, k, chunk):
            stop = min(start + chunk, k)
            prods = lut[a_idx[:, None, start:stop], bt[None, :, start:stop]]
            out += prods.sum(axis=2, dtype=dtype)
        return out


def stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with a batch-composition-independent accumulation order:
    the fallback when the span check fails.

    BLAS ``@`` picks different kernels (and hence different float64
    summation orders) for different row counts, so ``(x @ w)[i]`` is *not*
    byte-equal to ``x[i:i+1] @ w`` in general.  The serving layer coalesces
    rows from unrelated requests into one batch and promises each request a
    result byte-equal to solo execution.  Where the operands' span proves
    every partial sum exact (:mod:`repro.engine.exact`) any order gives the
    same bytes and the engine uses BLAS; everywhere else — wide spans, NaR
    operands, the table-free wide formats, operands known only as values —
    contractions run through this kernel: non-optimized ``einsum`` reduces
    over K in a fixed C-order loop per output element, making every output
    row a pure function of its own input row.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.einsum("ik,kj->ij", a, b, optimize=False)


def rounded_matmul(
    add_table: np.ndarray,
    mul_table: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    zero_code: int = 0,
    bias: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``A @ B`` on code arrays with the format's rounding after every add.

    The anti-quire baseline: each of the K accumulation steps rounds
    through ``add_table``, so the result exhibits the swamping/cancellation
    error a MAC datapath without an exact accumulator would produce.  One
    vectorized table lookup per contraction step — K indexing passes over
    an (M, N) accumulator rather than M*N*K scalar ops.

    ``bias`` (length N, codes) seeds the accumulator instead of
    ``zero_code``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ValueError(f"shape mismatch ({m}, {k}) @ ({k2}, {n})")
    with TRACER.span("kernel.rounded_matmul", shape=(m, k, n)):
        if bias is not None:
            acc = np.broadcast_to(np.asarray(bias), (m, n)).copy()
        else:
            acc = np.full((m, n), zero_code, dtype=add_table.dtype)
        for j in range(k):
            prods = mul_table[a[:, j, None], b[None, j, :]]
            acc = add_table[acc, prods]
        return acc
