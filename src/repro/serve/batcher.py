"""repro.serve.batcher — dynamic batching for the asyncio serving path.

Concurrent requests with the same batch key (same workload, model and
format) coalesce into one engine dispatch.  A batch flushes when either

* its accumulated row count reaches ``max_batch`` (size trigger), or
* ``max_delay_ms`` has elapsed since its first request arrived — clipped
  earlier when a member's deadline would otherwise expire in the queue
  (deadline trigger).

Dispatch happens through an async callable the server provides, always
from the batch's own task, never inside :meth:`DynamicBatcher.submit`
(the server runs an in-process engine's batch on the event loop and any
other executor's on a dispatch thread); per-request futures resolve to
results or exceptions individually, so one poisoned request cannot fail
its batch mates.

Behind a dispatch thread (``hold_while_busy``), a key's timer does not
flush while a batch of that key is queued or running: its bucket keeps
coalescing and flushes the moment that batch completes (the size trigger
still flushes at once).  A batch flushed earlier could only wait in the
thread's queue, so the hold costs no latency and keeps a busy key's
requests together instead of trickling one per timer.  On the event loop
the executing batch holds the loop, so requests already coalesce while
it runs.

The *coalescing contract* — a request's result is byte-equal whether it
runs solo or inside any batch — is not the batcher's to enforce; it holds
because the engine executes coalesced rows through batch-composition-
independent kernels (:func:`repro.engine.kernels.stable_matmul` and
elementwise/per-sample ops).  ``tests/test_serve_identity.py`` pins it.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from ..engine.observe import METRICS, Metrics
from .protocol import Request

__all__ = ["DynamicBatcher"]

#: Histogram bounds for coalesced batch sizes (rows per dispatch).
BATCH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class _Pending:
    __slots__ = ("request", "future", "enqueued_s")

    def __init__(self, request: Request, future: "asyncio.Future"):
        self.request = request
        self.future = future
        self.enqueued_s = time.monotonic()


class DynamicBatcher:
    """Coalesce admitted requests into size- or deadline-triggered batches.

    Parameters:
        dispatch: ``async (key, requests) -> list`` executing one coalesced
            batch; returns one result **or exception instance** per request,
            in order.
        max_batch: Row budget per dispatch (the size trigger).
        max_delay_ms: Longest a request may wait for batch mates.
        hold_while_busy: Hold a key's timer flush while a batch of that
            key is queued or running; flush its bucket when that batch
            completes.
    """

    def __init__(
        self,
        dispatch: Callable[[Tuple, List[Request]], Awaitable[List[object]]],
        max_batch: int = 16,
        max_delay_ms: float = 2.0,
        metrics: Optional[Metrics] = None,
        hold_while_busy: bool = False,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        self._dispatch = dispatch
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_ms) / 1e3
        self.metrics = metrics if metrics is not None else METRICS
        self._buckets: Dict[Tuple, List[_Pending]] = {}
        self._timers: Dict[Tuple, asyncio.TimerHandle] = {}
        self.hold_while_busy = bool(hold_while_busy)
        #: Batches per key queued or running, and the keys whose timer
        #: fired meanwhile (flushed when the key's last batch completes).
        self._busy: Dict[Tuple, int] = {}
        self._held: set = set()
        self._tasks: set = set()
        self.batches = 0

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> "asyncio.Future":
        """Enqueue one admitted request; the future resolves to its result."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        key = request.batch_key()
        bucket = self._buckets.setdefault(key, [])
        bucket.append(_Pending(request, future))
        rows = sum(p.request.rows for p in bucket)
        if rows >= self.max_batch:
            self._flush(key)
            return future
        delay = self.max_delay_s
        if request.deadline_s is not None:
            # Leave the request at least half its remaining budget for
            # execution: flush early rather than expire in the queue.
            remaining = request.deadline_s - time.monotonic()
            delay = max(0.0, min(delay, remaining / 2.0))
        if key in self._held:
            return future  # flushes when the key's running batch completes
        timer = self._timers.get(key)
        if timer is None:
            self._timers[key] = loop.call_later(delay, self._on_timer, key)
        elif delay < max(0.0, timer.when() - loop.time()):
            timer.cancel()
            self._timers[key] = loop.call_later(delay, self._on_timer, key)
        return future

    def _on_timer(self, key: Tuple) -> None:
        if self.hold_while_busy and self._busy.get(key):
            self._timers.pop(key, None)
            self._held.add(key)
            return
        self._flush(key)

    def _flush(self, key: Tuple) -> None:
        self._held.discard(key)
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        bucket = self._buckets.pop(key, None)
        if not bucket:
            return
        self._busy[key] = self._busy.get(key, 0) + 1
        self.batches += 1
        now = time.monotonic()
        rows = sum(p.request.rows for p in bucket)
        self.metrics.observe("serve.batch_rows", rows, bounds=BATCH_BOUNDS)
        self.metrics.observe(
            "serve.batch_requests", len(bucket), bounds=BATCH_BOUNDS
        )
        for p in bucket:
            self.metrics.observe("serve.queue_wait_s", now - p.enqueued_s)
        task = asyncio.get_running_loop().create_task(self._run(key, bucket))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run(self, key: Tuple, bucket: List[_Pending]) -> None:
        try:
            try:
                results = await self._dispatch(key, [p.request for p in bucket])
                if len(results) != len(bucket):
                    raise RuntimeError(
                        f"dispatch returned {len(results)} results for "
                        f"{len(bucket)} requests"
                    )
            except Exception as err:  # noqa: BLE001 — every future must resolve
                results = [err] * len(bucket)
            for p, result in zip(bucket, results):
                if p.future.cancelled():
                    continue
                if isinstance(result, Exception):
                    p.future.set_exception(result)
                else:
                    p.future.set_result(result)
        finally:
            self._busy[key] -= 1
            if not self._busy[key]:
                del self._busy[key]
                if key in self._held:
                    self._flush(key)

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Flush every bucket and wait for in-flight dispatches to finish."""
        for key in list(self._buckets):
            self._flush(key)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def stats(self) -> Dict[str, int]:
        return {
            "batches": self.batches,
            "pending_requests": sum(len(b) for b in self._buckets.values()),
            "held_keys": len(self._held),
            "inflight_dispatches": len(self._tasks),
        }
