"""The worker-process side of :class:`repro.engine.runner.BatchedRunner`.

A runner with ``workers`` > 1 shards a request array into contiguous,
batch-aligned chunks and runs them on a persistent ``spawn`` pool.  This
module holds what crosses that process boundary and what runs on the far
side of it: the picklable model factories, the pool initializer, the
worker task, and :func:`_forward_chunk` — the one micro-batch loop that
the in-process runner, the in-process fallback and every worker run.
Because every chunk boundary falls on a multiple of ``batch_size``, each
worker runs exactly the micro-batches one process would, so the merged
output is bit-identical at any worker count.

Kernel tables are never shipped or stored: each worker's process-wide
registry builds the tables its model needs (milliseconds per table), and
the workers' registry hits and misses come home with every chunk.

Models cross the process boundary as a picklable zero-argument *factory*.
A :class:`repro.engine.fused.FusedPlan` becomes a :class:`FusedPlanSpec`
(ship the float network, format, contraction mode, fault plan and
poison-audit flag; recompile the plan worker-side against the worker's
registry).  Any other model is shipped by value via :class:`ModelHandle`.
A :class:`repro.engine.faults.FaultPlan` rides the pool initializer, so
workers corrupt tables and activations bit-identically to the parent, and
a :class:`repro.engine.faults.ChaosPlan` injects deterministic worker
crashes and slowdowns before a task runs.
"""

from __future__ import annotations

import math
import os
import time
from multiprocessing import get_context
from typing import Dict

import numpy as np

from .fused import FusedPlan
from .observe import METRICS, TRACER
from .registry import REGISTRY

__all__ = ["FusedPlanSpec", "ModelHandle"]


# ----------------------------------------------------------------------
# Model factories (what actually crosses the process boundary)
# ----------------------------------------------------------------------
class FusedPlanSpec:
    """Picklable recipe for recompiling a fused plan worker-side.

    Ships only what compile was given — the float network, format,
    contraction mode, fault plan and poison-audit flag; the worker
    recompiles the plan against its own process-wide registry, which builds
    the codec tables and the encode LUT, so compiled stages (pre-encoded
    weights, scratch buffers) never cross the process boundary.
    """

    def __init__(self, plan: FusedPlan):
        self.net, self.fmt = plan.net, plan.fmt
        self.stable_contractions = plan.stable_contractions
        self.fault_plan, self.poison_audit = plan.fault_plan, plan.poison_audit

    def __call__(self):
        from . import backend_for

        backend = backend_for(self.fmt)
        backend.stable_contractions = self.stable_contractions
        return FusedPlan.compile(
            self.net,
            self.fmt,
            backend=backend,
            fault_plan=self.fault_plan,
            poison_audit=self.poison_audit,
        )


class ModelHandle:
    """Fallback factory: ship an arbitrary picklable model by value."""

    def __init__(self, model):
        self.model = model

    def __call__(self):
        return self.model


def _factory_for(model):
    """The cheapest picklable factory that reproduces ``model`` worker-side."""
    return FusedPlanSpec(model) if isinstance(model, FusedPlan) else ModelHandle(model)


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
#: Per-worker-process state, populated once by the pool initializer.
_WORKER: Dict[str, object] = {}

#: Every pool starts its workers with ``spawn``: portable, and each worker
#: imports the repo fresh and builds its own kernel tables.
_MP_CONTEXT = get_context("spawn")


def _worker_init(factory, trace: bool = False, fault_plan=None, chaos=None) -> None:
    if trace:
        TRACER.enabled = True
    if fault_plan is not None:
        # Table corruption re-derives from (plan, table bytes) in this
        # process — bit-identical to the parent's.
        REGISTRY.fault_plan = fault_plan
    _WORKER["fault_plan"] = fault_plan
    _WORKER["chaos"] = chaos
    _WORKER["model"] = factory()


def _forward_chunk(model, chunk: np.ndarray, batch_size: int, fault_plan, metrics=None):
    """Run ``chunk`` through ``model`` in ``batch_size`` micro-batches.

    Returns the concatenated outputs and the seconds spent in
    ``model.forward``.  A runner ``fault_plan`` flips float words in each
    micro-batch at site ``"runner.batch"`` before the model sees it; the
    flips are keyed on the micro-batch's bytes, so every process injects
    identically.  Each micro-batch is a ``runner.batch`` span and, given
    ``metrics``, one ``runner.batch_s`` observation.  An empty chunk still
    makes one (empty) forward call, so the output has the model's shape.
    """
    outs = []
    wall = 0.0
    for start in range(0, len(chunk) or 1, batch_size):
        batch = chunk[start : start + batch_size]
        if fault_plan is not None:
            batch = fault_plan.corrupt_floats(batch, "runner.batch")
        t0 = time.perf_counter()
        with TRACER.span("runner.batch", shape=batch.shape):
            outs.append(model.forward(batch))
        dt = time.perf_counter() - t0
        wall += dt
        if metrics is not None:
            metrics.observe("runner.batch_s", dt)
    return np.concatenate(outs, axis=0), wall


def _worker_run(idx: int, chunk: np.ndarray, batch_size: int, attempt: int = 0):
    chaos = _WORKER.get("chaos")
    if chaos is not None:
        chaos.apply(idx, attempt)  # may crash (os._exit) or sleep
    model = _WORKER["model"]
    with TRACER.span("worker.chunk", chunk=idx, shape=chunk.shape, attempt=attempt):
        out, wall = _forward_chunk(model, chunk, batch_size, _WORKER["fault_plan"])
    return idx, out, _chunk_stats(model, len(chunk), batch_size, wall)


def _chunk_stats(model, items: int, batch_size: int, wall: float) -> Dict[str, object]:
    """What a worker ships home with each chunk.

    Counters, the process-wide ``METRICS`` and the model's poison report
    (if it audits) go as *deltas* — snapshot, then clear — so the parent
    can merge them without double counting across chunks.  The trace
    buffer is drained the same way: span events recorded in this worker
    ride home with the chunk and land in the parent's ring buffer.
    """
    counters = getattr(getattr(model, "engine", None), "counters", None)
    metrics = counters.metrics.snapshot() if counters is not None else {}
    if counters is not None:
        counters.metrics.clear()
    global_metrics = METRICS.snapshot()
    METRICS.clear()
    poison = []
    if hasattr(model, "poison_report"):
        poison = model.poison_report()
        model.reset_poison()
    return {
        "pid": os.getpid(),
        "items": int(items),
        "batches": math.ceil(items / batch_size),
        "wall_s": wall,
        "ops": metrics.get("ops", {}),
        "metrics": metrics,
        "global_metrics": global_metrics,
        "poison": poison,
        "trace": TRACER.drain() if TRACER.enabled else [],
        "table": REGISTRY.stats(),  # cumulative for this worker process
    }
