"""Parallel sharded execution: process-pool fan-out for the engine.

:class:`ParallelRunner` shards a request array into contiguous,
batch-aligned chunks and executes them on a persistent pool of worker
processes (``spawn`` context by default), merging per-chunk outputs back
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

Fused plans additionally switch the *data* transport: instead of pickling
float64 chunks through the pool's pipes, the parent encodes the input once
and publishes the code array — 1/8th the bytes at 8 bits — plus a shared
float64 output buffer as :mod:`multiprocessing.shared_memory` segments.
Workers map views and write their spans in place (no result pickling at
all); span boundaries stay batch-aligned, and encode is elementwise, so
the shared-memory path is byte-identical to both the pickling path and the
single-process runner.  A plan's own fault stages are keyed on activation
bytes, and each micro-batch is the same whichever process runs it, so
they ride the shared-memory path too.  The parent owns segment lifetime:
every segment it creates is tracked and both closed *and* unlinked in a
``finally`` (and re-swept by :meth:`ParallelRunner.close` /
``__del__``), while workers
explicitly deregister their attachments from :mod:`multiprocessing`'s
resource tracker — Python registers shared memory on *attach* as well as
create, and letting that stand would have a worker's exit handler unlink a
segment the parent still owns.  Crashed or timed-out spans are recomputed
by the parent directly into the output buffer; a zombie worker that wakes
up later and rewrites the same span is harmless because bit-identity
guarantees it writes the same bytes.

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
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Tuple

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

#: Distinguishes "span not delivered yet" from any legitimate payload
#: (the shared-memory transport's payload is a bare ``True``).
_PENDING = object()


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


def _worker_run(idx: int, chunk: np.ndarray, batch_size: int, attempt: int = 0):
    chaos = _WORKER.get("chaos")
    if chaos is not None:
        chaos.apply(idx, attempt)  # may crash (os._exit) or sleep
    model = _WORKER["model"]
    plan = _WORKER.get("fault_plan")
    t0 = time.perf_counter()
    with TRACER.span("worker.chunk", chunk=idx, shape=chunk.shape, attempt=attempt):
        outs = []
        for start in range(0, len(chunk), batch_size):
            batch = chunk[start : start + batch_size]
            if plan is not None:
                batch = plan.corrupt_floats(batch, "runner.batch")
            with TRACER.span("worker.batch", shape=(min(batch_size, len(chunk)),)):
                outs.append(model.forward(batch))
        out = np.concatenate(outs, axis=0)
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


def _attach_fused_shm(meta: Dict[str, dict]) -> Tuple[np.ndarray, np.ndarray]:
    """Map this run's (codes, out) shared-memory segments in the worker.

    Attachments are cached per segment-name pair — every span task of one
    ``run()`` reuses the same mapping, and a new run's names evict the old
    one.  Registration with the resource tracker is suppressed during the
    attach: Python registers shared memory on *attach* as well as create
    (3.8-3.12), spawn workers share the parent's tracker process, and a
    worker registration would make the tracker try to unlink — or drop the
    parent's own crash-safety registration for — segments the parent still
    owns (unregistering after the fact is no better: it removes the
    parent's entry from the shared tracker).
    """
    cache = _WORKER.setdefault("shm", {"names": None, "segs": []})
    names = (meta["codes"]["name"], meta["out"]["name"])
    if cache["names"] != names:
        for seg in cache["segs"]:
            try:
                seg.close()
            except BufferError:  # a stale view pins the old mapping
                pass
        segs = []
        register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            for name in names:
                segs.append(shared_memory.SharedMemory(name=name))
        finally:
            resource_tracker.register = register
        cache["names"] = names
        cache["segs"] = segs
    c_meta, o_meta = meta["codes"], meta["out"]
    codes = np.ndarray(
        tuple(c_meta["shape"]), dtype=np.dtype(c_meta["dtype"]), buffer=cache["segs"][0].buf
    )
    out = np.ndarray(tuple(o_meta["shape"]), dtype=np.float64, buffer=cache["segs"][1].buf)
    return codes, out


def _fused_worker_run(
    idx: int, meta: Dict[str, dict], span: Tuple[int, int], batch_size: int, attempt: int = 0
):
    """One span of a fused run: read codes from shared memory, write logits
    back in place.  The payload is just ``True`` — results never pickle."""
    chaos = _WORKER.get("chaos")
    if chaos is not None:
        chaos.apply(idx, attempt)  # may crash (os._exit) or sleep
    model = _WORKER["model"]
    codes, out = _attach_fused_shm(meta)
    s, e = span
    t0 = time.perf_counter()
    with TRACER.span("worker.fused_chunk", chunk=idx, span=(s, e), attempt=attempt):
        for start in range(s, e, batch_size):
            stop = min(start + batch_size, e)
            with TRACER.span("worker.batch", shape=(stop - start,)):
                out[start:stop] = model.forward_codes(codes[start:stop])
    wall = time.perf_counter() - t0
    return idx, True, _chunk_stats(model, e - s, batch_size, wall)


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
        model: The model to run (used for the in-process fallback path and,
            unless ``model_factory`` is given, converted to a picklable
            factory for the workers).
        model_factory: Explicit picklable zero-arg callable building the
            worker-side model; overrides the automatic conversion.
        workers: Pool size; ``None`` means ``os.cpu_count()``.  ``<= 1``
            runs everything in-process (still through the same chunking).
        batch_size: Micro-batch size inside each chunk — the unit that
            guarantees bit-identity with :class:`BatchedRunner`.
        chunk_size: Items per worker task, rounded up to a multiple of
            ``batch_size``.  Default: one balanced span per worker.
        mp_context: ``"spawn"`` (default, portable and deterministic) or
            ``"fork"``/``"forkserver"``.
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
        model_factory=None,
        workers: Optional[int] = None,
        batch_size: int = 64,
        chunk_size: Optional[int] = None,
        mp_context: str = "spawn",
        task_timeout: Optional[float] = 120.0,
        task_retries: int = 1,
        pool_restarts: int = 1,
        fallback: bool = True,
        chaos=None,
        fault_plan=None,
        counters: Optional[OpCounters] = None,
        registry: Optional[KernelRegistry] = None,
    ):
        if model is None and model_factory is None:
            raise ValueError("ParallelRunner needs a model or a model_factory")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None for auto)")
        if task_retries < 0 or pool_restarts < 0:
            raise ValueError("task_retries and pool_restarts must be >= 0")
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        self.batch_size = batch_size
        self.chunk_size = chunk_size
        self.mp_context = mp_context
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
        self._factory = model_factory if model_factory is not None else _factory_for(model)
        # Fail in the constructor, not inside a broken pool, if the factory
        # cannot cross the process boundary.
        if self.workers > 1:
            pickle.dumps(self._factory)
        self._local_model = model  # lazily built from the factory if None

        self._pool: Optional[ProcessPoolExecutor] = None
        #: Shared-memory segments created by fused runs and not yet
        #: released; swept by the per-run ``finally`` and re-swept by
        #: :meth:`close` / ``__del__`` so no ``/dev/shm`` name outlives
        #: the runner even if a run is interrupted mid-flight.
        self._shm_segments: List[shared_memory.SharedMemory] = []
        #: Workers of crash-broken pools discarded mid-run without joining
        #: (joining there would stall the run); :meth:`close` reaps them.
        #: Snapshotted *before* the discarding shutdown, because
        #: ``Executor.shutdown`` drops its process references even with
        #: ``wait=False`` — a second ``shutdown(wait=True)`` joins nothing.
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
                    mp_context=get_context(self.mp_context),
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
            self._dead_procs.extend(
                (getattr(self._pool, "_processes", None) or {}).values()
            )
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut the pool down and release any leftover shared memory.

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
        for seg in list(self._shm_segments):
            self._release_segment(seg)

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
    def _model(self):
        if self._local_model is None:
            self._local_model = self._factory()
        return self._local_model

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

    def _run_span(self, x: np.ndarray, span: Tuple[int, int]) -> np.ndarray:
        """In-process execution of one chunk, micro-batched identically."""
        model = self._model()
        plan = self.fault_plan
        outs = []
        for start in range(span[0], span[1], self.batch_size):
            batch = x[start : min(start + self.batch_size, span[1])]
            if plan is not None:
                # Content-keyed corruption: identical to what a worker
                # running this same micro-batch would have injected.
                batch = plan.corrupt_floats(batch, "runner.batch")
            outs.append(model.forward(batch))
        return np.concatenate(outs, axis=0)

    def _dispatch(
        self,
        spans: List[Tuple[int, int]],
        worker_fn: Callable,
        task_args: Callable[[int], tuple],
        fallback_span: Callable[[int, Tuple[int, int]], object],
    ) -> List[object]:
        """The retry/restart/fallback ladder, transport-agnostic.

        ``worker_fn(i, *task_args(i), attempt)`` runs on the pool and must
        return ``(i, payload, worker_stats)``; ``fallback_span(i, span)``
        is the in-process recovery for spans the pool never delivered.
        Returns one payload per span (arrays for the pickling transport, a
        bare ``True`` for shared memory, where outputs land in place).
        """
        results: List[object] = [_PENDING] * len(spans)
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
                    fut = pool.submit(worker_fn, i, *task_args(i), attempts[i])
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
                    idx, payload, wstats = fut.result(timeout=self.task_timeout)
                    results[idx] = payload
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

            pending = [i for i in pending if results[i] is _PENDING]
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

        for i, span in enumerate(spans):
            if results[i] is _PENDING:  # never submitted, timed out, or crashed
                self._fallbacks += 1
                cause = last_cause.get(i, "crash")
                if attempts[i] >= max_attempts and self.task_retries > 0:
                    cause = "retry_exhausted"
                self._fallback_causes[cause] = self._fallback_causes.get(cause, 0) + 1
                self.counters.metrics.inc(f"parallel.fallbacks.{cause}")
                results[i] = fallback_span(i, span)
        return results

    def _finish(self, t0: float, n_items: int, spans: List[Tuple[int, int]]) -> None:
        wall = time.perf_counter() - t0
        self._wall += wall
        self._items += n_items
        self._batches += sum(math.ceil((e - s) / self.batch_size) for s, e in spans)
        if TRACER.enabled:
            TRACER.record(
                "parallel.run",
                ts=t0 - TRACER.epoch,
                dur=wall,
                attrs={"items": n_items, "chunks": len(spans), "workers": self.workers},
            )

    def _fused_plan(self) -> Optional["FusedPlan"]:
        """The local fused plan when shared-memory transport applies.

        Requires a codes-entry :class:`FusedPlan` (directly or via a
        :class:`FusedPlanSpec` factory), more than one worker, and no
        runner fault plan — the runner's faults perturb float
        micro-batches, which only the pickling transport carries.
        """
        if self.workers <= 1 or self.fault_plan is not None:
            return None
        model = self._local_model
        if model is None and isinstance(self._factory, FusedPlanSpec):
            model = self._model()
        if isinstance(model, FusedPlan) and model.input_rep == "codes":
            return model
        return None

    def run(self, x: np.ndarray) -> np.ndarray:
        """Shard ``x`` over the pool; returns outputs concatenated in order."""
        x = np.asarray(x)
        spans = self._spans(len(x))
        if not spans:
            return self._model().forward(x)
        plan = self._fused_plan()
        if plan is not None:
            return self._run_fused(plan, x, spans)
        t0 = time.perf_counter()
        results = self._dispatch(
            spans,
            _worker_run,
            lambda i: (x[spans[i][0] : spans[i][1]], self.batch_size),
            lambda i, span: self._run_span(x, span),
        )
        out = np.concatenate(results, axis=0)
        self._finish(t0, len(x), spans)
        return out

    __call__ = run

    # ------------------------------------------------------------------
    # Fused shared-memory transport
    # ------------------------------------------------------------------
    def _create_segment(self, size: int) -> shared_memory.SharedMemory:
        seg = shared_memory.SharedMemory(create=True, size=max(1, int(size)))
        self._shm_segments.append(seg)
        return seg

    def _release_segment(self, seg: shared_memory.SharedMemory) -> None:
        """Close and unlink one owned segment.  Never raises, never leaks
        the name: ``unlink`` runs even when a live numpy view still pins
        the mapping (the memory itself is freed when the view dies)."""
        try:
            seg.close()
        except BufferError:
            pass
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        try:
            self._shm_segments.remove(seg)
        except ValueError:
            pass

    def _run_fused(
        self, plan: "FusedPlan", x: np.ndarray, spans: List[Tuple[int, int]]
    ) -> np.ndarray:
        """Fused run: encode once, share codes + output buffer, no pickling."""
        t0 = time.perf_counter()
        codes = plan.encode_input(x)
        out_shape = (len(x),) + plan.output_shape
        seg_codes = self._create_segment(codes.nbytes)
        seg_out = self._create_segment(int(np.prod(out_shape, dtype=np.int64)) * 8)
        try:
            codes_view = np.ndarray(codes.shape, dtype=codes.dtype, buffer=seg_codes.buf)
            codes_view[...] = codes
            out_view = np.ndarray(out_shape, dtype=np.float64, buffer=seg_out.buf)
            meta = {
                "codes": {
                    "name": seg_codes.name,
                    "shape": tuple(codes.shape),
                    "dtype": codes.dtype.str,
                },
                "out": {"name": seg_out.name, "shape": out_shape},
            }

            def fallback(i, span):
                # Recompute straight into the output buffer, micro-batched
                # identically to a worker.  A zombie worker that finishes
                # after its timeout may rewrite the same span — harmless,
                # since bit-identity means it writes the same bytes.
                s, e = span
                for start in range(s, e, self.batch_size):
                    stop = min(start + self.batch_size, e)
                    out_view[start:stop] = plan.forward_codes(codes[start:stop])
                return True

            self._dispatch(
                spans,
                _fused_worker_run,
                lambda i: (meta, spans[i], self.batch_size),
                fallback,
            )
            result = np.array(out_view)  # own the bytes before unmapping
            del codes_view, out_view
        finally:
            self._release_segment(seg_codes)
            self._release_segment(seg_out)
        self._finish(t0, len(x), spans)
        return result

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
            self._model().merge_poison(wstats["poison"])
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
    mp_context: str = "spawn",
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
            mp_context=get_context(mp_context),
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
