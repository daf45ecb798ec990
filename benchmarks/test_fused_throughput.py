"""Throughput: the fused code-space plan vs the layer-by-layer reference.

The fused plan (:mod:`repro.engine.fused`) removes the layer-by-layer DNN
path's dominant cost — the boundary-searchsorted encode inside every
layer-entry quantize (>50% of the profile on 8-bit KWS models) — by planning the
network once: a direct float64-bits encode LUT at each quantization
boundary, table-gather decodes into reused scratch buffers, pre-encoded
weights, and activations travelling between quantized layers as posit
codes.  With workers, each worker runs the plan on its own pickled
chunk of the batch.

Because the fused plan is **bit-identical** to
:func:`~repro.nn.posit_inference.reference_forward` — this module asserts
it on every configuration it times — the speedup below is pure execution
efficiency, never a numerics change.

Results go to ``BENCH_fused.json`` at the repo root: items/s for the
unfused baseline (``reference_forward`` under the same micro-batching:
the layer-by-layer path, which also re-quantizes the weights per call),
the fused single-process plan, and the fused plan on a worker pool;
``speedup`` is best-fused over the baseline.  A second pair of arms
times the serve configuration — ``stable_contractions=True`` at the wire
default posit<8,2> — where the reference contracts through the
fixed-order einsum and the fused plan through BLAS wherever the span
check of :mod:`repro.engine.exact` proves it exact:
``fused_stable_single_speedup`` is fused over the reference there, a
single-process same-host ratio the regression gate checks on every host.
Each pair of arms takes turns round by round, and a ``*_single_speedup``
is the median of the per-round ratios: a spell of host slowness then
lands on both arms of a round instead of on whichever arm ran through
it.  The acceptance
bar (>= 5x end-to-end) applies **on a multi-core host**, where the
single-process fused gain (~2x from killing the encode) compounds with
parallel sharding; on < 4 CPUs the honest sub-bar number is recorded with
``bar_asserted: false`` and the regression gate skips it.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import BatchedRunner, ParallelRunner
from repro.nn.posit_inference import PositQuantizedNetwork, reference_forward
from repro.nn.zoo import kws_cnn1
from repro.posit import POSIT8, STD_POSIT8

from conftest import quick_mode

REPO_ROOT = Path(__file__).resolve().parent.parent
FMT = POSIT8
#: The serve configuration's format (wire default) for the stable arms.
STABLE_FMT = STD_POSIT8
ITEMS = 64 if quick_mode() else 192
BATCH = 16
REPEATS = 2 if quick_mode() else 5
WORKERS = max(2, min(4, os.cpu_count() or 1))
MULTI_CORE = (os.cpu_count() or 1) >= 4
SPEEDUP_BAR = 5.0


class _Reference:
    """:func:`reference_forward` as a ``forward(x)`` model, so the
    baseline arms micro-batch exactly like the plan arms."""

    def __init__(self, qnet):
        self.net, self.engine = qnet.net, qnet.engine

    def forward(self, x):
        return reference_forward(self.net, self.engine, x)


def _best_wall(fn, x) -> float:
    """Best-of-N wall clock for one full pass over ``x`` (N small; the
    best run is the least-perturbed one on a noisy shared host)."""
    return min(_walls([fn], x)[0])


def _walls(fns, x):
    """Wall clock of one full pass over ``x`` per function, ``REPEATS``
    rounds, the functions taking turns within each round."""
    walls = [[] for _ in fns]
    for _ in range(REPEATS):
        for fn, out in zip(fns, walls):
            t0 = time.perf_counter()
            fn(x)
            out.append(time.perf_counter() - t0)
    return walls


def _paired(reference, fused, x):
    """Interleaved (best reference wall, best fused wall, median of the
    per-round reference/fused ratios)."""
    ref_walls, fused_walls = _walls([reference, fused], x)
    ratio = float(np.median([r / f for r, f in zip(ref_walls, fused_walls)]))
    return min(ref_walls), min(fused_walls), ratio


@pytest.fixture(scope="module")
def measurement():
    net = kws_cnn1(seed=0)
    qnet = PositQuantizedNetwork(net, FMT)
    plan = qnet.fused_plan()
    rng = np.random.default_rng(42)
    x = rng.normal(size=(ITEMS, 1, 31, 20))

    # Unfused single-process baseline — the layer-by-layer reference —
    # against the same batches through the compiled plan.
    unfused = BatchedRunner(_Reference(qnet), batch_size=BATCH)
    unfused.run(x[:BATCH])  # warm tables outside the timed region
    y_ref = unfused.run(x)
    fused = BatchedRunner(plan, batch_size=BATCH)
    fused.run(x[:BATCH])  # warm the encode LUT + scratch buffers
    y_fused = fused.run(x)
    assert np.array_equal(y_fused, y_ref), "fused single-process diverged"
    unfused_wall, fused_wall, single_speedup = _paired(unfused.run, fused.run, x)

    # Fused, multi-worker: each worker runs the plan on its chunk.
    with ParallelRunner(plan, workers=WORKERS, batch_size=BATCH) as runner:
        runner.run(x[:BATCH])  # pool spawn + worker compile warmup
        y_par = runner.run(x)
        assert np.array_equal(y_par, y_ref), "fused parallel diverged"
        runner.reset()
        par_wall = _best_wall(runner.run, x)
        pstats = runner.stats()
    assert pstats["fallbacks"] == 0, "fused parallel path fell back in-process"

    # The serve configuration: stable contractions, posit<8,2>.
    sqnet = PositQuantizedNetwork(net, STABLE_FMT, stable_contractions=True)
    stable_unfused = BatchedRunner(_Reference(sqnet), batch_size=BATCH)
    stable_unfused.run(x[:BATCH])
    ys_ref = stable_unfused.run(x)
    stable_fused = BatchedRunner(sqnet.fused_plan(), batch_size=BATCH)
    stable_fused.run(x[:BATCH])
    assert np.array_equal(stable_fused.run(x), ys_ref), "fused stable plan diverged"
    stable_unfused_wall, stable_fused_wall, stable_speedup = _paired(
        stable_unfused.run, stable_fused.run, x
    )

    unfused_ips = ITEMS / unfused_wall
    fused_ips = ITEMS / fused_wall
    par_ips = ITEMS / par_wall
    best_ips = max(fused_ips, par_ips)
    return {
        "model": "kws-cnn1",
        "format": str(FMT),
        "items": ITEMS,
        "batch_size": BATCH,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "unfused_items_per_s": unfused_ips,
        "fused_items_per_s": fused_ips,
        "fused_parallel_items_per_s": par_ips,
        "fused_single_speedup": single_speedup,
        "speedup": best_ips / unfused_ips,
        "stable_format": str(STABLE_FMT),
        "stable_unfused_items_per_s": ITEMS / stable_unfused_wall,
        "stable_fused_items_per_s": ITEMS / stable_fused_wall,
        "fused_stable_single_speedup": stable_speedup,
        "speedup_bar": SPEEDUP_BAR,
        "bar_asserted": MULTI_CORE,
        "bit_identical": True,
        "fallbacks": pstats["fallbacks"],
        "encode_kind": plan.kernels.encode_kind,
        "decode_kind": plan.kernels.decode_kind,
    }


def test_fused_throughput(benchmark, measurement, report):
    m = measurement
    # pytest-benchmark timing on the fused single-process forward (stable
    # on any host); the comparative numbers come from the module fixture.
    qnet = PositQuantizedNetwork(kws_cnn1(seed=0), FMT)
    plan = qnet.fused_plan()
    batch = np.random.default_rng(7).normal(size=(BATCH, 1, 31, 20))
    benchmark(lambda: plan.forward(batch))

    bar_note = (
        "asserted" if m["bar_asserted"] else f"not asserted ({m['cpu_count']} CPU host)"
    )
    report(
        "fused_throughput",
        [
            f"model            {m['model']} ({m['format']})",
            f"kernels          encode={m['encode_kind']} decode={m['decode_kind']}",
            f"reference        {m['unfused_items_per_s']:10.2f} items/s",
            f"fused 1-proc     {m['fused_items_per_s']:10.2f} items/s "
            f"({m['fused_single_speedup']:.2f}x)",
            f"fused {m['workers']} workers   {m['fused_parallel_items_per_s']:10.2f} items/s",
            f"speedup          {m['speedup']:10.2f}x  (bar >= {SPEEDUP_BAR}x, {bar_note})",
            f"stable reference {m['stable_unfused_items_per_s']:10.2f} items/s ({m['stable_format']})",
            f"stable fused     {m['stable_fused_items_per_s']:10.2f} items/s "
            f"({m['fused_stable_single_speedup']:.2f}x)",
            f"bit-identical    {m['bit_identical']}",
        ],
    )
    (REPO_ROOT / "BENCH_fused.json").write_text(json.dumps(m, indent=2) + "\n")

    if MULTI_CORE:
        assert m["speedup"] >= SPEEDUP_BAR
