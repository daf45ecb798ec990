"""repro.serve.server — the asyncio edge-inference front end.

One listening socket speaks two protocols, sniffed from the first bytes of
each connection:

* **NDJSON data plane** — one JSON request per line
  (:mod:`repro.serve.protocol`), responses correlated by ``id``.  A
  connection may pipeline any number of requests; responses arrive as
  their batches complete.
* **HTTP scrape plane** — plain ``GET /healthz`` (liveness), ``GET
  /metrics`` (Prometheus text format via
  :meth:`repro.engine.observe.Metrics.to_prometheus`) and ``GET /stats``
  (JSON server/executor detail, plus an ``engine`` block with the
  exact-contraction counters and BLAS thread count of
  :mod:`repro.engine.exact`), so the same port a load balancer checks
  is the one Prometheus scrapes.

Request lifecycle: parse → admission (bounded queue + per-tenant token
buckets, reject-with-retry-after) → dynamic batcher (size/deadline
coalescing) → executor → response.  **Every admitted request is answered
exactly once** — deadline misses and engine failures become error
responses, never silence; the zero-drop invariant the chaos tests pin.

Where a batch executes is decided once, from the executor the server
built.  An in-process engine (the direct :class:`EngineExecutor`, or an
in-process fog, with ``workers`` None or 1) runs each batch on the event
loop itself: its work is CPU-bound Python holding the GIL, so a second
thread would only add GIL hand-offs and context switches, not overlap.
Batches run one at a time, each after the previous batch's responses are
written; unread requests wait in the socket meanwhile.  An executor that
mostly waits on other processes (a fog fabric, a ``workers > 1`` pool)
or one passed in by the caller runs on a single-thread dispatch executor
instead, which serializes engine access while the loop keeps accepting.
Behind that thread the batcher holds a key's timer flush while a batch of
the key is queued or running, so requests that arrive meanwhile leave as
one batch when it completes (:class:`~repro.serve.batcher.DynamicBatcher`,
``hold_while_busy``) rather than one timer's worth at a time.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..engine.exact import stats as exact_stats
from ..engine.observe import METRICS, Metrics
from .admission import AdmissionController
from .batcher import DynamicBatcher
from .executor import DeadlineExceeded, EngineExecutor
from .protocol import (
    ProtocolError,
    Rejected,
    Request,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)

__all__ = ["ServeConfig", "ReproServer"]

#: Longest request line the reader will buffer (NDJSON payload ceiling).
_LINE_LIMIT = 32 * 1024 * 1024


@dataclass
class ServeConfig:
    """Every serving knob in one picklable bag."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read back from ``server.port``
    #: Row budget per coalesced dispatch (the batcher's size trigger).
    max_batch: int = 16
    #: Longest a request waits for batch mates before dispatch.
    max_delay_ms: float = 2.0
    #: Bounded-queue admission limit (backpressure past this).
    queue_limit: int = 64
    #: Per-tenant sustained requests/s (None = no quotas) and burst.
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    #: Deadline applied when a request names none (None = unbounded).
    default_deadline_ms: Optional[float] = 1000.0
    #: nn_predict worker-pool size (None/1 = in-process execution).
    workers: Optional[int] = None
    nn_batch_size: int = 32
    #: Optional ChaosPlan injected into runner pools (testing).
    chaos: object = None
    extra_executor_opts: dict = field(default_factory=dict)
    #: Dispatch through an N-node :class:`repro.fog.FogTopology` instead of
    #: a single in-process engine executor (None = direct execution).
    fog_nodes: Optional[int] = None
    fog_replicas: int = 2
    #: Promote the fog to a cross-process fabric: each node a supervised
    #: OS process behind sockets (:class:`repro.fog.FogFabric`), with
    #: heartbeat failure detection, circuit breakers and restart-with-
    #: backoff.  Requires ``fog_nodes``.
    fog_fabric: bool = False
    #: Fabric failure-detector cadence and miss budget.
    fog_heartbeat_ms: float = 100.0
    fog_miss_budget: int = 3
    #: Hedge delay for fabric interests (None = no hedging).
    fog_hedge_ms: Optional[float] = None
    #: Deadline budget for fabric interests that carry no deadline.
    fog_budget_ms: float = 2000.0
    #: Fall back to in-process execution when every owner is unreachable
    #: (counted in ``fabric.degraded_local``); False raises instead.
    fog_degrade_local: bool = True
    #: Per-node content-store admission policy: ``"lru"`` (classic) or
    #: ``"costaware"`` (frequency-sketch × recompute-cost admission).
    fog_store_policy: str = "lru"
    #: Re-hash cached entries against their pinned digest every Nth hit
    #: (1 = every hit, the historical default; 0 = never).
    fog_store_reverify: int = 1


class ReproServer:
    """The asyncio serving front end over an :class:`EngineExecutor`."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        executor: Optional[EngineExecutor] = None,
        metrics: Optional[Metrics] = None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else METRICS
        # Run batches on the loop only for an in-process executor built
        # here (see the module docstring); the rest keep a dispatch thread.
        inline = executor is None and (self.config.workers or 1) <= 1
        if executor is not None:
            self.executor = executor
        elif self.config.fog_nodes:
            # Imported here: repro.fog builds on repro.serve, not vice versa.
            from ..fog.executor import FogExecutor

            executor_opts = {
                "workers": self.config.workers,
                "nn_batch_size": self.config.nn_batch_size,
                "chaos": self.config.chaos,
                **self.config.extra_executor_opts,
            }
            if self.config.fog_fabric:
                from ..fog.fabric import FogFabric

                inline = False
                # Fabric nodes are daemonic processes and cannot spawn
                # grandchildren, so their executors stay in-process.
                fabric_opts = dict(executor_opts)
                fabric_opts["workers"] = None
                fabric_opts.pop("chaos", None)
                self.executor = FogExecutor(
                    topology=FogFabric(
                        nodes=self.config.fog_nodes,
                        replicas=self.config.fog_replicas,
                        heartbeat_ms=self.config.fog_heartbeat_ms,
                        miss_budget=self.config.fog_miss_budget,
                        hedge_ms=self.config.fog_hedge_ms,
                        default_budget_ms=self.config.fog_budget_ms,
                        degrade_local=self.config.fog_degrade_local,
                        store_policy=self.config.fog_store_policy,
                        store_reverify=self.config.fog_store_reverify,
                        metrics=self.metrics,
                        executor_opts=fabric_opts,
                    ),
                    metrics=self.metrics,
                )
            else:
                self.executor = FogExecutor(
                    nodes=self.config.fog_nodes,
                    replicas=self.config.fog_replicas,
                    metrics=self.metrics,
                    executor_opts=executor_opts,
                    store_policy=self.config.fog_store_policy,
                    store_reverify=self.config.fog_store_reverify,
                )
        else:
            self.executor = EngineExecutor(
                workers=self.config.workers,
                nn_batch_size=self.config.nn_batch_size,
                chaos=self.config.chaos,
                metrics=self.metrics,
                **self.config.extra_executor_opts,
            )
        self.admission = AdmissionController(
            queue_limit=self.config.queue_limit,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            metrics=self.metrics,
        )
        self.batcher = DynamicBatcher(
            self._dispatch,
            max_batch=self.config.max_batch,
            max_delay_ms=self.config.max_delay_ms,
            metrics=self.metrics,
            hold_while_busy=not inline,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatch_pool = (
            None
            if inline
            else ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-dispatch"
            )
        )
        self._inline_turn = asyncio.Lock()
        self._conn_tasks: set = set()
        self.started_s = time.monotonic()
        #: The zero-drop ledger: every admit must land one response.
        self.accepted = 0
        self.responded = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns ``(host, port)`` actually bound."""
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=_LINE_LIMIT,
        )
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    async def stop(self) -> None:
        """Drain in-flight work, close the listener and the worker pools."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.drain()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.executor.close)
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=True)

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc):
        await self.stop()
        return False

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
        except (asyncio.LimitOverrunError, ConnectionError):
            writer.close()
            return
        if first.startswith(b"GET ") or first.startswith(b"HEAD "):
            await self._handle_http(first, reader, writer)
            return
        write_lock = asyncio.Lock()
        line = first
        pending: set = set()
        while line:
            line = line.strip()
            if line:
                task = asyncio.get_running_loop().create_task(
                    self._handle_line(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
                self._conn_tasks.add(task)
                task.add_done_callback(self._conn_tasks.discard)
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ConnectionError, ValueError):
                break
        if pending:
            await asyncio.gather(*list(pending), return_exceptions=True)
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        t0 = time.monotonic()
        req_id = ""
        try:
            obj = decode_line(line)
            req_id = str(obj.get("id", "")) if isinstance(obj, dict) else ""
            request = parse_request(obj)
        except ProtocolError as err:
            self.metrics.inc("serve.bad_requests")
            await self._send(
                writer, write_lock, error_response(req_id, err.code, str(err))
            )
            return
        try:
            self.admission.admit(request.tenant, now=t0)
        except Rejected as err:
            await self._send(
                writer,
                write_lock,
                error_response(
                    request.id,
                    "rejected",
                    f"admission rejected: {err.reason}",
                    retry_after_ms=err.retry_after_s * 1e3,
                ),
            )
            return
        # Past this point the request is *accepted*: exactly one response
        # must be written, whatever happens downstream.
        self.accepted += 1
        request.received_s = t0
        deadline_ms = request.attrs.get(
            "deadline_ms", self.config.default_deadline_ms
        )
        if deadline_ms is not None:
            request.deadline_s = t0 + deadline_ms / 1e3
        try:
            result = await self.batcher.submit(request)
            response = ok_response(
                request.id,
                result,
                ms=(time.monotonic() - t0) * 1e3,
                batch_rows=request.attrs.get("batch_rows", request.rows),
            )
        except DeadlineExceeded as err:
            response = error_response(request.id, "deadline_exceeded", str(err))
        except ProtocolError as err:
            response = error_response(request.id, err.code, str(err))
        except Exception as err:  # noqa: BLE001 — answered, never dropped
            self.metrics.inc("serve.internal_errors")
            response = error_response(request.id, "internal", repr(err))
        finally:
            self.admission.release()
        await self._send(writer, write_lock, response)
        self.responded += 1
        self.metrics.observe("serve.latency_s", time.monotonic() - t0)

    async def _send(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, obj: dict
    ) -> None:
        try:
            async with lock:
                writer.write(encode_line(obj))
                await writer.drain()
        except (ConnectionError, OSError):
            self.metrics.inc("serve.client_gone")

    # ------------------------------------------------------------------
    # Dispatch (batcher -> executor, on the loop or the dispatch thread)
    # ------------------------------------------------------------------
    async def _dispatch(self, key: Tuple, requests: List[Request]) -> List[object]:
        for req in requests:
            req.attrs["batch_rows"] = sum(r.rows for r in requests)
        if self._dispatch_pool is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._dispatch_pool, self.executor.execute, key, requests
            )
        async with self._inline_turn:
            # Batches take turns in flush order.  The previous batch
            # resolved its requests' futures just after handing over the
            # turn, so one yield lets those responses be written before
            # this batch holds the loop.
            await asyncio.sleep(0)
            return self.executor.execute(key, requests)

    # ------------------------------------------------------------------
    # HTTP scrape plane
    # ------------------------------------------------------------------
    async def _handle_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            path = first.split()[1].decode()
        except (IndexError, UnicodeDecodeError):
            path = "/"
        while True:  # drain request headers
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ConnectionError, ValueError):
                break
            if not line or line in (b"\r\n", b"\n"):
                break
        if path == "/healthz":
            status, ctype, body = "200 OK", "text/plain", "ok\n"
        elif path == "/metrics":
            self.metrics.set_gauge(
                "serve.uptime_s", time.monotonic() - self.started_s
            )
            status, ctype, body = (
                "200 OK",
                "text/plain; version=0.0.4",
                self.metrics.to_prometheus(),
            )
        elif path == "/stats":
            status, ctype, body = (
                "200 OK",
                "application/json",
                json.dumps(self.describe(), default=str) + "\n",
            )
        else:
            status, ctype, body = "404 Not Found", "text/plain", "not found\n"
        payload = body.encode()
        head = (
            f"HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode() + payload)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-able server state (the ``/stats`` body)."""
        return {
            "uptime_s": time.monotonic() - self.started_s,
            "accepted": self.accepted,
            "responded": self.responded,
            "admission": self.admission.stats(),
            "batcher": self.batcher.stats(),
            "executor": self.executor.stats(),
            "engine": exact_stats(),
            "config": {
                "max_batch": self.config.max_batch,
                "max_delay_ms": self.config.max_delay_ms,
                "queue_limit": self.config.queue_limit,
                "tenant_rate": self.config.tenant_rate,
                "workers": self.config.workers,
            },
        }
