"""Parallel sharded execution: process-pool fan-out for the engine.

:class:`ParallelRunner` shards a request array into contiguous,
batch-aligned chunks and executes them on a persistent pool of worker
processes (``spawn`` context), merging per-chunk outputs back
in index order.  Because every chunk boundary falls on a multiple of
``batch_size``, each worker runs *exactly* the micro-batches the
single-process :class:`repro.engine.runner.BatchedRunner` would have run,
so the merged output is bit-identical to the in-process path — parallelism
never changes the numerics, only the wall clock.

Kernel tables are never shipped or stored: each worker's process-wide
registry builds the tables its model needs (milliseconds per table), and
the workers' registry hits and misses come home with every chunk.

Robustness: a worker crash (``BrokenProcessPool``) or per-task timeout
degrades gracefully in stages — failed chunks are first *retried* on the
pool (``task_retries`` resubmissions, with up to ``pool_restarts`` pool
rebuilds after a crash) and only then recomputed in-process with identical
math (``fallback=True``, the default).  Every terminal fallback is counted
in ``stats()["fallbacks"]`` and classified by cause in
``stats()["fallback_causes"]`` (``crash`` / ``timeout`` /
``retry_exhausted``).  A :class:`repro.engine.faults.ChaosPlan` passed as
``chaos`` injects deterministic worker crashes and slowdowns for testing
exactly this machinery, and a :class:`repro.engine.faults.FaultPlan` (given
as ``fault_plan`` or attached to the parent registry) rides the pool
initializer so workers corrupt tables and activations bit-identically to
the in-process path.

Models cross the process boundary as a picklable zero-argument *factory*.
A :class:`repro.engine.fused.FusedPlan` becomes a :class:`FusedPlanSpec`
(ship the float network, format, contraction mode, fault plan and
poison-audit flag; recompile the plan worker-side against the shared table
cache).  A :class:`repro.nn.posit_inference.PositQuantizedNetwork` runs as
its plan.  Any other model is shipped by value via :class:`ModelHandle`.

Every chunk travels the same way: its float rows are pickled to a worker,
which micro-batches them through the model and pickles the outputs back.
A plan whose first stage is an input encode encodes inside the worker;
encode is elementwise and spans stay batch-aligned, so the bytes are those
of the single-process runner.  Worker chunks and the in-process fallback
run one micro-batch loop, :func:`_forward_chunk`.

:func:`shard_lut_matmul` applies the same recipe to one tiled LUT matmul:
row spans of ``A`` fan out over a short-lived pool (the LUT and ``B`` ride
the pool initializer once, not per task) and the row blocks concatenate
back in order — exact integer accumulation per row makes the sharded
product bit-identical to :func:`repro.engine.kernels.lut_matmul`.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Dict, List, Optional, Tuple

import numpy as np

from .backend import OpCounters
from .fused import FusedPlan
from .kernels import lut_matmul, shard_rows
from .observe import METRICS, TRACER
from .posit_backend import PositBackend
from .registry import REGISTRY, KernelRegistry

__all__ = [
    "ParallelRunner",
    "FusedPlanSpec",
    "ModelHandle",
    "shard_lut_matmul",
]


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
        return FusedPlan.compile(
            self.net,
            self.fmt,
            backend=PositBackend(self.fmt, stable_contractions=self.stable_contractions),
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


def _forward_chunk(model, chunk: np.ndarray, batch_size: int, fault_plan) -> np.ndarray:
    """One chunk, micro-batched exactly as :class:`BatchedRunner` does.

    A runner ``fault_plan`` flips float words in each micro-batch at site
    ``"runner.batch"`` before the model sees it; the flips are keyed on
    the micro-batch's bytes, so a worker and the in-process fallback
    inject identically.
    """
    outs = []
    for start in range(0, len(chunk), batch_size):
        batch = chunk[start : start + batch_size]
        if fault_plan is not None:
            batch = fault_plan.corrupt_floats(batch, "runner.batch")
        with TRACER.span("worker.batch", shape=batch.shape):
            outs.append(model.forward(batch))
    return np.concatenate(outs, axis=0)


def _worker_run(idx: int, chunk: np.ndarray, batch_size: int, attempt: int = 0):
    chaos = _WORKER.get("chaos")
    if chaos is not None:
        chaos.apply(idx, attempt)  # may crash (os._exit) or sleep
    model = _WORKER["model"]
    t0 = time.perf_counter()
    with TRACER.span("worker.chunk", chunk=idx, shape=chunk.shape, attempt=attempt):
        out = _forward_chunk(model, chunk, batch_size, _WORKER["fault_plan"])
    wall = time.perf_counter() - t0
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


def _matmul_init(lut: np.ndarray, b_idx: np.ndarray, chunk: int, dtype) -> None:
    _WORKER["lut"] = lut
    _WORKER["b_idx"] = b_idx
    _WORKER["chunk"] = chunk
    _WORKER["dtype"] = dtype


def _matmul_run(idx: int, a_block: np.ndarray):
    return idx, lut_matmul(
        _WORKER["lut"],
        a_block,
        _WORKER["b_idx"],
        chunk=_WORKER["chunk"],
        dtype=_WORKER["dtype"],
    )


# ----------------------------------------------------------------------
# Parallel runner
# ----------------------------------------------------------------------
class ParallelRunner:
    """Shard inference batches across a process pool, bit-identically.

    Parameters:
        model: The model to run: in-process for fallback chunks, and
            converted to a picklable factory for the workers.
        workers: Pool size; ``None`` means ``os.cpu_count()``.  ``<= 1``
            runs everything in-process (still through the same chunking).
        batch_size: Micro-batch size inside each chunk — the unit that
            guarantees bit-identity with :class:`BatchedRunner`.
        chunk_size: Items per worker task, rounded up to a multiple of
            ``batch_size``.  Default: one balanced span per worker.
        task_timeout: Seconds to wait for one chunk before falling back.
        task_retries: Extra pool attempts per failed chunk before the
            in-process fallback (default 1: each chunk gets two chances on
            workers, then falls back).
        pool_restarts: How many times a crash-broken pool may be rebuilt
            across the runner's lifetime before it stays in-process.
        fallback: When true (default), worker crashes and timeouts are
            recovered by recomputing the affected chunks in-process; when
            false they raise.
        chaos: Optional :class:`repro.engine.faults.ChaosPlan` injecting
            deterministic worker crashes/slowdowns (tests only).
        fault_plan: Optional :class:`repro.engine.faults.FaultPlan` shipped
            to every worker (and applied to in-process fallback batches),
            so injected corruption is identical at any worker count.
            Defaults to the parent registry's attached plan, if any.
    """

    def __init__(
        self,
        model=None,
        *,
        workers: Optional[int] = None,
        batch_size: int = 64,
        chunk_size: Optional[int] = None,
        task_timeout: Optional[float] = 120.0,
        task_retries: int = 1,
        pool_restarts: int = 1,
        fallback: bool = True,
        chaos=None,
        fault_plan=None,
        counters: Optional[OpCounters] = None,
        registry: Optional[KernelRegistry] = None,
    ):
        if model is None:
            raise ValueError("ParallelRunner needs a model")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None for auto)")
        if task_retries < 0 or pool_restarts < 0:
            raise ValueError("task_retries and pool_restarts must be >= 0")
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        self.batch_size = batch_size
        self.chunk_size = chunk_size
        self.task_timeout = task_timeout
        self.task_retries = int(task_retries)
        self.pool_restarts = int(pool_restarts)
        self.fallback = fallback
        self.chaos = chaos
        self.counters = counters if counters is not None else OpCounters()
        self._registry = registry if registry is not None else REGISTRY
        self.fault_plan = (
            fault_plan if fault_plan is not None else self._registry.fault_plan
        )

        if hasattr(model, "fused_plan"):  # a quantized network runs as its plan
            model = model.fused_plan()
        self._factory = _factory_for(model)
        # Fail in the constructor, not inside a broken pool, if the factory
        # cannot cross the process boundary.
        if self.workers > 1:
            pickle.dumps(self._factory)
        self._model = model

        self._pool: Optional[ProcessPoolExecutor] = None
        #: Workers of crash-broken pools discarded mid-run without joining
        #: (joining there would stall the run); :meth:`close` reaps them.
        #: Snapshotted *before* the discarding shutdown, because
        #: ``Executor.shutdown`` drops its process references even with
        #: ``wait=False`` — a second ``shutdown(wait=True)`` joins nothing.
        #: Each pool's manager thread goes first: it terminates and reaps
        #: the workers itself, and a worker joined while that thread is
        #: still reaping it can return early, still listed as a live child.
        self._dead_procs: List[object] = []
        self._broken = False
        self._fallbacks = 0
        self._fallback_causes: Dict[str, int] = {}
        self._restarts_used = 0
        self._retries = 0
        self._items = 0
        self._batches = 0
        self._wall = 0.0
        self._worker_items: Dict[int, Dict[str, float]] = {}
        self._worker_tables: Dict[int, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._broken or self.workers <= 1:
            return None
        if self._pool is None:
            with TRACER.span("parallel.pool_init", workers=self.workers):
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=_MP_CONTEXT,
                    initializer=_worker_init,
                    initargs=(
                        self._factory,
                        TRACER.enabled,  # workers trace iff the parent does now
                        self.fault_plan,
                        self.chaos,
                    ),
                )
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a crash-broken pool; :meth:`_ensure_pool` builds a fresh one."""
        if self._pool is not None:
            manager = getattr(self._pool, "_executor_manager_thread", None)
            if manager is not None:
                self._dead_procs.append(manager)
            self._dead_procs.extend(
                (getattr(self._pool, "_processes", None) or {}).values()
            )
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the pool down.

        Idempotent, and *joins* the worker processes (``wait=True``) so a
        long-lived parent — an asyncio server cycling runners across
        restarts — never accumulates orphaned spawn children.  The runner
        stays usable: the next :meth:`run` lazily rebuilds the pool.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        for proc in self._dead_procs:
            proc.join(timeout=10.0)
        self._dead_procs.clear()

    def restart(self) -> None:
        """Close the pool and reset the crash budget for a fresh start.

        The serving layer calls this after chaos-driven degradation: a
        runner whose ``pool_restarts`` budget was spent stays in-process
        forever, while an explicitly restarted runner gets its full budget
        back on a brand-new pool.
        """
        self.close()
        self._broken = False
        self._restarts_used = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _spans(self, total: int) -> List[Tuple[int, int]]:
        """Batch-aligned chunk spans; merging in order is bit-identical."""
        if total == 0:
            return []
        if self.chunk_size is None:
            n_batches = math.ceil(total / self.batch_size)
            per = math.ceil(n_batches / max(1, self.workers)) * self.batch_size
        else:
            per = math.ceil(self.chunk_size / self.batch_size) * self.batch_size
        return [(s, min(s + per, total)) for s in range(0, total, per)]

    def _dispatch(self, x: np.ndarray, spans: List[Tuple[int, int]]) -> List[np.ndarray]:
        """The retry/restart/fallback ladder: one output array per span.

        Spans the pool never delivered are recomputed in-process by the
        same micro-batch loop the workers run.
        """
        results: List[Optional[np.ndarray]] = [None] * len(spans)
        attempts = [0] * len(spans)
        last_cause: Dict[int, str] = {}
        max_attempts = 1 + self.task_retries
        pending = list(range(len(spans)))

        while pending:
            pool = None
            try:
                pool = self._ensure_pool()
            except Exception:
                if not self.fallback:
                    raise
                self._broken = True
            if pool is None:
                break  # no pool (or budget spent): everything left falls back

            futures = {}
            submitted_at = {}
            pool_broke = False
            try:
                for i in pending:
                    s, e = spans[i]
                    fut = pool.submit(_worker_run, i, x[s:e], self.batch_size, attempts[i])
                    futures[fut] = i
                    submitted_at[i] = time.perf_counter()
            except (BrokenProcessPool, RuntimeError):
                pool_broke = True
                if not self.fallback:
                    raise
            for i in pending:
                attempts[i] += 1
                last_cause.setdefault(i, "crash")  # unsubmitted == pool died
            for fut, i in futures.items():
                try:
                    idx, out, wstats = fut.result(timeout=self.task_timeout)
                    results[idx] = out
                    last_cause.pop(idx, None)
                    # Queue wait: turnaround minus the worker's own compute.
                    turnaround = time.perf_counter() - submitted_at[i]
                    self.counters.metrics.observe(
                        "parallel.queue_wait_s",
                        max(0.0, turnaround - wstats["wall_s"]),
                    )
                    self._absorb_worker_stats(wstats)
                except (BrokenProcessPool, TimeoutError, OSError) as err:
                    if isinstance(err, BrokenProcessPool):
                        pool_broke = True
                    if not self.fallback:
                        raise
                    last_cause[i] = (
                        "timeout" if isinstance(err, TimeoutError) else "crash"
                    )

            pending = [i for i in pending if results[i] is None]
            if pool_broke:
                self._discard_pool()
                if self._restarts_used < self.pool_restarts:
                    self._restarts_used += 1
                    self.counters.metrics.inc("parallel.pool_restarts")
                else:
                    self._broken = True  # budget spent: stay in-process
            retryable = [i for i in pending if attempts[i] < max_attempts]
            if len(retryable) < len(pending):
                pending = retryable  # the rest exhausted their attempts
            if pending and not self._broken:
                self._retries += len(pending)
                self.counters.metrics.inc("parallel.task_retries", len(pending))
            elif self._broken:
                break

        for i, (s, e) in enumerate(spans):
            if results[i] is None:  # never submitted, timed out, or crashed
                self._fallbacks += 1
                cause = last_cause.get(i, "crash")
                if attempts[i] >= max_attempts and self.task_retries > 0:
                    cause = "retry_exhausted"
                self._fallback_causes[cause] = self._fallback_causes.get(cause, 0) + 1
                self.counters.metrics.inc(f"parallel.fallbacks.{cause}")
                results[i] = _forward_chunk(
                    self._model, x[s:e], self.batch_size, self.fault_plan
                )
        return results

    def run(self, x: np.ndarray) -> np.ndarray:
        """Shard ``x`` over the pool; returns outputs concatenated in order."""
        x = np.asarray(x)
        spans = self._spans(len(x))
        if not spans:
            return self._model.forward(x)
        t0 = time.perf_counter()
        out = np.concatenate(self._dispatch(x, spans), axis=0)
        wall = time.perf_counter() - t0
        self._wall += wall
        self._items += len(x)
        self._batches += sum(math.ceil((e - s) / self.batch_size) for s, e in spans)
        if TRACER.enabled:
            TRACER.record(
                "parallel.run",
                ts=t0 - TRACER.epoch,
                dur=wall,
                attrs={"items": len(x), "chunks": len(spans), "workers": self.workers},
            )
        return out

    __call__ = run

    def _absorb_worker_stats(self, wstats: Dict[str, object]) -> None:
        pid = int(wstats["pid"])
        acc = self._worker_items.setdefault(
            pid, {"items": 0, "batches": 0, "wall_s": 0.0}
        )
        acc["items"] += wstats["items"]
        acc["batches"] += wstats["batches"]
        acc["wall_s"] += wstats["wall_s"]
        self._worker_tables[pid] = dict(wstats["table"])
        metrics = wstats.get("metrics")
        if metrics:
            # Full metric snapshot (covers the op table) — merge once.
            self.counters.metrics.merge(metrics)
        else:
            self.counters.merge(wstats["ops"])
        METRICS.merge(wstats.get("global_metrics", {}))
        if wstats.get("poison"):
            self._model.merge_poison(wstats["poison"])
        TRACER.absorb(wstats.get("trace", ()))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """BatchedRunner-shaped stats plus per-worker and fallback detail."""
        per_worker = [
            {
                "pid": pid,
                "items": int(acc["items"]),
                "batches": int(acc["batches"]),
                "wall_s": acc["wall_s"],
                "items_per_s": (acc["items"] / acc["wall_s"]) if acc["wall_s"] > 0 else 0.0,
            }
            for pid, acc in sorted(self._worker_items.items())
        ]
        parent = self._registry.stats()
        table_hits = parent["hits"] + sum(t["hits"] for t in self._worker_tables.values())
        table_misses = parent["misses"] + sum(
            t["misses"] for t in self._worker_tables.values()
        )
        return {
            "items": self._items,
            "batches": self._batches,
            "batch_size": self.batch_size,
            "workers": self.workers,
            "wall_s": self._wall,
            "items_per_s": (self._items / self._wall) if self._wall > 0 else 0.0,
            "mean_batch_ms": (1e3 * self._wall / self._batches) if self._batches else 0.0,
            "ops": self.counters.snapshot(),
            "table_hits": table_hits,
            "table_misses": table_misses,
            "fallbacks": self._fallbacks,
            "fallback_causes": dict(self._fallback_causes),
            "task_retries": self._retries,
            "pool_restarts": self._restarts_used,
            "per_worker": per_worker,
            "metrics": self.counters.metrics.snapshot(),
        }

    def reset(self) -> None:
        """Clear throughput numbers and op counters (pool/registry kept)."""
        self._items = self._batches = 0
        self._wall = 0.0
        self._fallbacks = 0
        self._fallback_causes.clear()
        self._retries = 0
        self._worker_items.clear()
        self._worker_tables.clear()
        self.counters.clear()
        for name in ("parallel.queue_wait_s", "runner.batch_s"):
            self.counters.metrics.histograms.pop(name, None)

    def __repr__(self):
        return (
            f"ParallelRunner(workers={self.workers}, batch_size={self.batch_size}, "
            f"{self._items} items, {self._fallbacks} fallbacks)"
        )


# ----------------------------------------------------------------------
# Sharded LUT matmul
# ----------------------------------------------------------------------
def shard_lut_matmul(
    lut: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    workers: int,
    chunk: int = 64,
    task_timeout: Optional[float] = 300.0,
    fallback: bool = True,
    dtype=np.int64,
) -> np.ndarray:
    """Row-sharded :func:`repro.engine.kernels.lut_matmul` across processes.

    ``A``'s rows are split into one contiguous block per worker; the LUT
    and ``B`` are shipped once via the pool initializer.  Exact integer
    accumulation is per-row, so concatenating the blocks in index order is
    bit-identical to the unsharded kernel.  Any pool failure (or
    ``workers <= 1``) falls back to the in-process kernel.
    """
    a_idx = np.asarray(a_idx)
    b_idx = np.asarray(b_idx)
    m = a_idx.shape[0]
    if workers <= 1 or m < 2:
        return lut_matmul(lut, a_idx, b_idx, chunk=chunk, dtype=dtype)
    spans = shard_rows(m, workers)
    blocks: List[Optional[np.ndarray]] = [None] * len(spans)
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(spans)),
            mp_context=_MP_CONTEXT,
            initializer=_matmul_init,
            initargs=(lut, b_idx, chunk, dtype),
        ) as pool:
            futures = {
                pool.submit(_matmul_run, i, a_idx[s:e]): i
                for i, (s, e) in enumerate(spans)
            }
            for fut, i in futures.items():
                try:
                    idx, block = fut.result(timeout=task_timeout)
                    blocks[idx] = block
                except (BrokenProcessPool, TimeoutError, OSError):
                    if not fallback:
                        raise
    except (BrokenProcessPool, RuntimeError, pickle.PicklingError):
        if not fallback:
            raise
        return lut_matmul(lut, a_idx, b_idx, chunk=chunk, dtype=dtype)
    for i, (s, e) in enumerate(spans):
        if blocks[i] is None:
            blocks[i] = lut_matmul(lut, a_idx[s:e], b_idx, chunk=chunk, dtype=dtype)
    return np.concatenate(blocks, axis=0)
