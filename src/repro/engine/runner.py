"""The engine's one inference runner: micro-batches, in process or on a pool.

:class:`BatchedRunner` runs inference requests through any model exposing
``forward(x) -> y`` (a :class:`repro.nn.network.Sequential`, a
:class:`repro.engine.fused.FusedPlan`, a
:class:`repro.nn.posit_inference.PositQuantizedNetwork`, which runs as its
plan, ...) in fixed-size micro-batches, and reports every run through one
``stats()`` shape: throughput, the engine's per-op counters, kernel-table
hits, and the pool's per-worker and fallback detail.

``workers`` of ``None`` or 1 runs in process: :meth:`BatchedRunner.run`
goes straight to the micro-batch loop
(:func:`repro.engine.parallel._forward_chunk`).  With ``workers`` > 1 the
request is cut into contiguous, batch-aligned chunks that run on a
persistent ``spawn`` pool and merge back in index order; each worker runs
that same loop over exactly the micro-batches one process would, so the
output is bit-identical at any worker count — parallelism changes only
the wall clock.

Robustness: a worker crash (``BrokenProcessPool``) or per-task timeout
degrades in stages — failed chunks are first *retried* on the pool
(``task_retries`` resubmissions, with up to ``pool_restarts`` pool rebuilds
after a crash) and only then recomputed in process by the same loop
(``fallback=True``, the default).  Every such fallback is counted in
``stats()["fallbacks"]`` and classified by cause in
``stats()["fallback_causes"]`` (``crash`` / ``timeout`` /
``retry_exhausted``); a run that was meant to be in process is never a
fallback.
"""

from __future__ import annotations

import math
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

import numpy as np

from .backend import OpCounters
from .observe import METRICS, TRACER
from .parallel import _MP_CONTEXT, _factory_for, _forward_chunk, _worker_init, _worker_run
from .registry import REGISTRY, KernelRegistry

__all__ = ["BatchedRunner"]


class BatchedRunner:
    """Run inference requests through a model in fixed-size micro-batches.

    Parameters:
        model: The model to run.  A model with ``fused_plan()`` (a posit
            quantized network) runs as that plan.
        batch_size: Micro-batch size — the unit that guarantees
            bit-identity at any worker count.
        workers: Pool size; ``None`` or 1 runs in process.
        fault_plan: Optional :class:`repro.engine.faults.FaultPlan`
            flipping bits in each micro-batch's raw float64 words before
            the model sees it, and shipped to every worker's registry.
            Defaults to the runner registry's attached plan, if any.
        counters: Where op counters land; defaults to the model engine's
            counters, so backend ops run inside the model show in
            :meth:`stats`.
        registry: The parent kernel registry reported in :meth:`stats`.
        task_timeout: Seconds to wait for one chunk before falling back.
        task_retries: Extra pool attempts per failed chunk before the
            in-process fallback (default 1: two chances on the pool).
        pool_restarts: How many times a crash-broken pool may be rebuilt
            across the runner's lifetime before it stays in process.
        fallback: When true (default), worker crashes and timeouts are
            recovered by recomputing the affected chunks in process; when
            false they raise.
        chaos: Optional :class:`repro.engine.faults.ChaosPlan` injecting
            deterministic worker crashes/slowdowns (tests only).

    The pool options are accepted at any worker count and matter only
    when ``workers`` > 1.
    """

    def __init__(
        self,
        model,
        batch_size: int = 64,
        *,
        workers: Optional[int] = None,
        fault_plan=None,
        counters: Optional[OpCounters] = None,
        registry: Optional[KernelRegistry] = None,
        task_timeout: Optional[float] = 120.0,
        task_retries: int = 1,
        pool_restarts: int = 1,
        fallback: bool = True,
        chaos=None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if task_retries < 0 or pool_restarts < 0:
            raise ValueError("task_retries and pool_restarts must be >= 0")
        if hasattr(model, "fused_plan"):  # a quantized network runs as its plan
            model = model.fused_plan()
        self.model = model
        self.batch_size = batch_size
        self.workers = max(1, int(workers or 1))
        self.task_timeout = task_timeout
        self.task_retries = int(task_retries)
        self.pool_restarts = int(pool_restarts)
        self.fallback = fallback
        self.chaos = chaos
        if counters is None:
            engine = getattr(model, "engine", None)
            counters = getattr(engine, "counters", None) or OpCounters()
        self.counters = counters
        self._registry = registry if registry is not None else REGISTRY
        self.fault_plan = (
            fault_plan if fault_plan is not None else self._registry.fault_plan
        )
        self._factory = _factory_for(model)
        # Fail in the constructor, not inside a broken pool, if the factory
        # cannot cross the process boundary.
        if self.workers > 1:
            pickle.dumps(self._factory)

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
        self._restarts_used = 0
        self._items = self._batches = 0
        self._wall = 0.0
        self._fallbacks = self._retries = 0
        self._fallback_causes: Dict[str, int] = {}
        self._worker_items: Dict[int, Dict[str, float]] = {}
        self._worker_tables: Dict[int, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._broken:
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
        """Shut the pool down (a no-op for in-process runners).

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
        runner whose ``pool_restarts`` budget was spent stays in process
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
    def run(self, x: np.ndarray) -> np.ndarray:
        """Micro-batch ``x`` through the model; returns outputs in order."""
        x = np.asarray(x)
        if self.workers == 1 or len(x) == 0:
            out, wall = _forward_chunk(
                self.model, x, self.batch_size, self.fault_plan, self.counters.metrics
            )
        else:
            t0 = time.perf_counter()
            spans = self._spans(len(x))
            out = np.concatenate(self._dispatch(x, spans), axis=0)
            wall = time.perf_counter() - t0
            if TRACER.enabled:
                TRACER.record(
                    "parallel.run",
                    ts=t0 - TRACER.epoch,
                    dur=wall,
                    attrs={"items": len(x), "chunks": len(spans), "workers": self.workers},
                )
        self._wall += wall
        self._items += len(x)
        self._batches += -(-len(x) // self.batch_size)  # spans are batch-aligned
        return out

    __call__ = run

    def _spans(self, total: int) -> List[Tuple[int, int]]:
        """One batch-aligned span per worker; merging in order is bit-identical."""
        per = math.ceil(math.ceil(total / self.batch_size) / self.workers) * self.batch_size
        return [(s, min(s + per, total)) for s in range(0, total, per)]

    def _dispatch(self, x: np.ndarray, spans: List[Tuple[int, int]]) -> List[np.ndarray]:
        """The retry/restart/fallback ladder: one output array per span.

        Spans the pool never delivered are recomputed in process by the
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
                    self._broken = True  # budget spent: stay in process
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
                results[i], _ = _forward_chunk(
                    self.model, x[s:e], self.batch_size, self.fault_plan, self.counters.metrics
                )
        return results

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
            self.model.merge_poison(wstats["poison"])
        TRACER.absorb(wstats.get("trace", ()))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Throughput, per-op counters, table hits, per-worker and fallbacks."""
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
        tables = [self._registry.stats(), *self._worker_tables.values()]
        return {
            "items": self._items,
            "batches": self._batches,
            "batch_size": self.batch_size,
            "workers": self.workers,
            "wall_s": self._wall,
            "items_per_s": (self._items / self._wall) if self._wall > 0 else 0.0,
            "mean_batch_ms": (1e3 * self._wall / self._batches) if self._batches else 0.0,
            "ops": self.counters.snapshot(),
            "table_hits": sum(t["hits"] for t in tables),
            "table_misses": sum(t["misses"] for t in tables),
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
        self._fallbacks = self._retries = 0
        self._fallback_causes.clear()
        self._worker_items.clear()
        self._worker_tables.clear()
        self.counters.clear()
        for name in ("parallel.queue_wait_s", "runner.batch_s"):
            self.counters.metrics.histograms.pop(name, None)

    def __repr__(self):
        return (
            f"BatchedRunner(workers={self.workers}, batch_size={self.batch_size}, "
            f"{self._items} items, {self._fallbacks} fallbacks)"
        )
