"""Throughput: multi-worker sharded inference vs the single-process runner.

The parallel layer (:mod:`repro.engine.parallel`) shards batches across a
spawn process pool whose workers build their own kernel tables.  Because chunk boundaries stay batch-aligned and
each worker runs the exact micro-batches the single-process
:class:`BatchedRunner` would, the output is **bit-identical** — so this
benchmark is pure execution efficiency, like ``test_engine_throughput``.

Results go to ``BENCH_parallel.json`` at the repo root: items/s for the
single-process and parallel paths, the speedup, per-worker stats and the
host's CPU count.  The ISSUE acceptance bar (>= 2.5x) applies **on a
multi-core host**; on boxes with < 4 CPUs the process-pool overhead cannot
be amortized and the bar is recorded but not asserted.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import BatchedRunner
from repro.nn.posit_inference import PositQuantizedNetwork
from repro.nn.zoo import kws_cnn1
from repro.posit import POSIT8

REPO_ROOT = Path(__file__).resolve().parent.parent
FMT = POSIT8
ITEMS = 192
BATCH = 16
# Always use >= 2 workers so the sharded path (pool + worker table builds) is
# what gets measured, even on single-core hosts where it can't win.
WORKERS = max(2, min(4, os.cpu_count() or 1))
MULTI_CORE = (os.cpu_count() or 1) >= 4
SPEEDUP_BAR = 2.5


@pytest.fixture(scope="module")
def measurement():
    net = kws_cnn1(seed=0)
    qnet = PositQuantizedNetwork(net, FMT)
    rng = np.random.default_rng(42)
    x = rng.normal(size=(ITEMS, 1, 31, 20))

    # Single-process baseline (tables already cached in the registry).
    single = BatchedRunner(qnet, batch_size=BATCH)
    single.run(x[:BATCH])  # warm tables outside the timed region
    single.reset()
    y_single = single.run(x)
    sstats = single.stats()

    # Parallel path: pool spawn and the workers' table builds happen on the
    # first run; warm it first so the steady-state number is what serving
    # would see, then time a fresh run.  A spawn pool starts a worker only
    # when a task finds none idle, so the warm-up runs one chunk per worker
    # until every worker has answered: none may start inside the timed run.
    with BatchedRunner(qnet, workers=WORKERS, batch_size=BATCH) as runner:
        for _ in range(20):
            runner.run(x[: BATCH * WORKERS])
            if len(runner.stats()["per_worker"]) == WORKERS:
                break
        assert len(runner.stats()["per_worker"]) == WORKERS, "a worker never started"
        runner.reset()
        t0 = time.perf_counter()
        y_par = runner.run(x)
        par_wall = time.perf_counter() - t0
        pstats = runner.stats()

    # The whole point: sharding must not change a single bit.
    assert np.array_equal(y_single, y_par)
    assert pstats["fallbacks"] == 0, "parallel path fell back in-process"

    single_ips = sstats["items_per_s"]
    par_ips = ITEMS / par_wall
    return {
        "model": "kws-cnn1",
        "format": str(FMT),
        "items": ITEMS,
        "batch_size": BATCH,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "single_items_per_s": single_ips,
        "parallel_items_per_s": par_ips,
        "speedup": par_ips / single_ips,
        "speedup_bar": SPEEDUP_BAR,
        "bar_asserted": MULTI_CORE,
        "bit_identical": True,
        "fallbacks": pstats["fallbacks"],
        "per_worker": [
            {"pid": w["pid"], "items": w["items"], "items_per_s": w["items_per_s"]}
            for w in pstats["per_worker"]
        ],
    }


def test_parallel_throughput(benchmark, measurement, report):
    m = measurement
    # pytest-benchmark timing on the single-process path (stable on any
    # host); the parallel numbers come from the module-scope measurement.
    net = kws_cnn1(seed=0)
    qnet = PositQuantizedNetwork(net, FMT)
    rng = np.random.default_rng(7)
    batch = rng.normal(size=(BATCH, 1, 31, 20))
    benchmark(lambda: qnet.forward(batch))

    bar_note = "asserted" if m["bar_asserted"] else f"not asserted ({m['cpu_count']} CPU host)"
    report(
        "parallel_throughput",
        [
            f"model          {m['model']} ({m['format']})",
            f"workers        {m['workers']} (host has {m['cpu_count']} CPUs)",
            f"single proc    {m['single_items_per_s']:10.2f} items/s",
            f"parallel       {m['parallel_items_per_s']:10.2f} items/s",
            f"speedup        {m['speedup']:10.2f}x  (bar >= {SPEEDUP_BAR}x, {bar_note})",
            f"bit-identical  {m['bit_identical']}",
        ],
    )
    (REPO_ROOT / "BENCH_parallel.json").write_text(json.dumps(m, indent=2) + "\n")

    if MULTI_CORE:
        assert m["speedup"] >= SPEEDUP_BAR
