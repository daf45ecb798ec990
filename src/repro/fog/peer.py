"""repro.fog.peer — one fabric peer: the node process and its client.

The cross-process half of the fog lives here.  :func:`node_main` is the
entry point of one spawned **node process**: it binds an ephemeral
localhost socket, reports the port back through a pipe, and serves
:mod:`repro.fog.frames` binary frames — ``interest`` (a list of items,
each answered from the content store or executed locally, owned misses
of one capability as one engine batch), ``carry`` (on-path cache
repopulation, digest-verified before insertion), ``advertise``,
``heartbeat``, ``stats`` and ``shutdown``.
Inside, the process is just a :class:`~repro.fog.node.FogNode` answering
through the same :meth:`~repro.fog.node.FogNode.answer` path as the
in-process topology: same executor, same content store, same bytes —
which is exactly why fabric results replay byte-identical against the
fog golden vectors.

On the parent side, :class:`PeerClient` is the **pipelined** socket client
the fabric routes through.  Every frame carries a client-assigned request
id (``rid``); a writer lock serializes sends on the persistent data
connection while a demux thread reads responses and completes the matching
per-request future — so N in-flight interests share one connection at
pipeline depth N instead of paying N serial round trips.  ``call`` is
``send`` then ``wait``, and the router uses the halves apart: it sends a
batch's interest to every node before it waits on any.  Because
responses are rid-correlated, a timed-out request simply abandons its id
(the late answer is discarded and counted) **without** tearing down the
stream; only socket-level failures drop the connection, failing every
in-flight future at once.  Heartbeats ride a dedicated long-lived probe
connection (re-dialed on failure) so liveness probes pay the connect cost
once, not once per probe, and never queue behind a long execution.  Hedge
legs ride the same pipelined connection: the losing leg's late answer
completes its waiter or, once abandoned, is discarded as an orphan.

On the node side a small worker pool serves data-plane frames
concurrently — control frames (heartbeat/stats) are answered inline by the
connection reader so a busy pool can never starve the failure detector.

:class:`CircuitBreaker` wraps each peer with the classic three-state
machine — **closed** (normal), **open** (recent failures: fail fast, stop
queueing interests on a dead peer), **half-open** (cooldown elapsed: admit
exactly one probe; its outcome closes or re-opens the circuit).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.observe import METRICS, Metrics
from ..engine.registry import array_digest
from ..serve.protocol import ProtocolError, decode_array, heartbeat_frame, request_from_wire
from .frames import FrameAssembler, pack_frame
from .names import ComputationName, name_request

__all__ = ["CircuitBreaker", "PeerClient", "PeerError", "node_main"]


class PeerError(Exception):
    """Talking to a peer failed (connect, timeout, protocol, hangup).

    Every failure mode of the socket path collapses to this one type so
    the fabric's retry/breaker logic has a single thing to catch; the
    original cause rides along in ``args``.
    """


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Per-peer closed → open → half-open failure circuit.

    Parameters:
        failure_threshold: Consecutive failures that trip the circuit.
        reset_after_s: Cooldown before an open circuit admits one probe.
        clock: Injectable monotonic clock (tests pin time).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after_s: float = 0.5,
        clock=time.monotonic,
        metrics: Optional[Metrics] = None,
        name: str = "",
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self.clock = clock
        self.metrics = metrics if metrics is not None else METRICS
        self.name = name
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.opens = 0
        self.probes = 0
        self.closes = 0
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """May a request go to this peer right now?

        In half-open state only the first caller after cooldown gets
        ``True`` (the probe); everyone else fails fast until the probe's
        outcome is recorded.
        """
        with self._lock:
            if self.state == self.CLOSED:
                return True
            if self.state == self.OPEN:
                if self.clock() - self.opened_at >= self.reset_after_s:
                    self.state = self.HALF_OPEN
                    self.probes += 1
                    self.metrics.inc("fabric.breaker.probes")
                    return True
                return False
            return False  # HALF_OPEN: probe already in flight

    def record_success(self) -> None:
        with self._lock:
            if self.state != self.CLOSED:
                self.closes += 1
                self.metrics.inc("fabric.breaker.closes")
            self.state = self.CLOSED
            self.failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            tripped = (
                self.state == self.HALF_OPEN
                or self.failures >= self.failure_threshold
            )
            if tripped and self.state != self.OPEN:
                self.state = self.OPEN
                self.opens += 1
                self.metrics.inc("fabric.breaker.opens")
            if tripped:
                self.opened_at = self.clock()

    def force_open(self) -> None:
        """Trip the circuit from outside (heartbeat detector, supervisor)."""
        with self._lock:
            if self.state != self.OPEN:
                self.opens += 1
                self.metrics.inc("fabric.breaker.opens")
            self.state = self.OPEN
            self.failures = max(self.failures, self.failure_threshold)
            self.opened_at = self.clock()

    def reset(self) -> None:
        """Close the circuit (a freshly restarted peer starts trusted)."""
        with self._lock:
            self.state = self.CLOSED
            self.failures = 0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self.state,
                "failures": self.failures,
                "opens": self.opens,
                "probes": self.probes,
                "closes": self.closes,
            }

    def __repr__(self):
        return f"CircuitBreaker({self.name!r}, {self.state}, failures={self.failures})"


# ----------------------------------------------------------------------
# Parent-side client
# ----------------------------------------------------------------------
class _Waiter:
    """One sent request's completion slot (the ticket :meth:`PeerClient.send`
    returns), keyed by its pipelined ``rid``."""

    __slots__ = ("event", "response", "error", "rid")

    def __init__(self, rid: int):
        self.event = threading.Event()
        self.response: Optional[dict] = None
        self.error: Optional[PeerError] = None
        self.rid = rid


class PeerClient:
    """Pipelined binary-framed client for one fabric node process.

    Concurrent :meth:`call`\\ s multiplex over one persistent connection:
    each frame carries a ``rid``, a writer lock serializes the sends, and
    a reader thread demultiplexes responses to per-request waiters.  A
    request that times out abandons its rid without dropping the stream
    (responses are correlated, so nothing can desynchronize); socket
    failures fail every pending request at once and the next call
    re-dials.
    """

    def __init__(
        self,
        name: str,
        address: Tuple[str, int],
        connect_timeout_s: float = 2.0,
        request_timeout_s: float = 30.0,
        metrics: Optional[Metrics] = None,
    ):
        self.name = str(name)
        self.address = (str(address[0]), int(address[1]))
        self.connect_timeout_s = float(connect_timeout_s)
        self.request_timeout_s = float(request_timeout_s)
        self.metrics = metrics if metrics is not None else METRICS
        self._io_lock = threading.Lock()
        self._wlock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._generation = 0
        self._cur_gen: Optional[int] = None
        self._rid = 0
        self._pending: Dict[int, _Waiter] = {}
        self._closed = False
        # Dedicated long-lived heartbeat probe connection (re-dialed on
        # failure): probes stop paying connect cost and port churn.
        self._probe_lock = threading.Lock()
        self._probe_sock: Optional[socket.socket] = None
        self._probe_asm: Optional[FrameAssembler] = None
        self.probe_dials = 0

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout_s
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as err:
            raise PeerError(f"connect to {self.name} {self.address}: {err}")

    def _ensure_connected_locked(self) -> Tuple[socket.socket, int]:
        if self._closed:
            raise PeerError(f"client for {self.name} is closed")
        if self._sock is None:
            sock = self._connect()
            # The send path must not block forever on a wedged peer; the
            # reader treats this timeout as idle, not failure.
            sock.settimeout(self.request_timeout_s)
            self._generation += 1
            self._sock = sock
            self._cur_gen = self._generation
            reader = threading.Thread(
                target=self._reader_loop,
                args=(sock, self._generation),
                name=f"peer-rx-{self.name}",
                daemon=True,
            )
            reader.start()
        return self._sock, self._cur_gen

    def _teardown_locked(self) -> list:
        """Drop the data connection; returns the orphaned waiters."""
        sock, self._sock = self._sock, None
        self._cur_gen = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        waiters = list(self._pending.values())
        self._pending.clear()
        return waiters

    def _fail_connection(self, generation: int, err: PeerError) -> None:
        with self._io_lock:
            if self._cur_gen != generation:
                return  # stale reader: this connection was already replaced
            waiters = self._teardown_locked()
        for waiter in waiters:
            waiter.error = err
            waiter.event.set()

    # ------------------------------------------------------------------
    def _reader_loop(self, sock: socket.socket, generation: int) -> None:
        """Demux thread: read frames, complete the matching waiters."""
        assembler = FrameAssembler()
        while True:
            try:
                frame = assembler.next_frame()
            except ProtocolError as err:
                self._fail_connection(
                    generation, PeerError(f"bad frame from {self.name}: {err}")
                )
                return
            if frame is not None:
                self._complete(frame)
                continue
            try:
                chunk = sock.recv(1 << 16)
            except socket.timeout:
                continue  # idle stream; per-call timeouts police stalls
            except OSError as err:
                self._fail_connection(
                    generation, PeerError(f"recv from {self.name}: {err}")
                )
                return
            if not chunk:
                self._fail_connection(
                    generation, PeerError(f"peer {self.name} closed the connection")
                )
                return
            assembler.feed(chunk)

    def _complete(self, frame: dict) -> None:
        # The rid stays in the delivered response: callers can observe the
        # correlation the demux acted on.
        rid = frame.get("rid")
        with self._io_lock:
            waiter = self._pending.pop(rid, None) if rid is not None else None
        if waiter is None:
            # A response whose request already timed out (or a frame with
            # no rid at all): discarded, counted, stream stays healthy.
            self.metrics.inc("fabric.peer.orphan_responses")
            return
        waiter.response = frame
        waiter.event.set()

    # ------------------------------------------------------------------
    def call(self, frame: dict, timeout_s: Optional[float] = None) -> dict:
        """Send one frame, await its response frame; raises :class:`PeerError`.

        :meth:`send` then :meth:`wait`: concurrent callers interleave on
        one connection and are completed by rid.
        """
        timeout = self.request_timeout_s if timeout_s is None else float(timeout_s)
        if timeout <= 0:
            # No wait can be met: decide now, before the frame is on the
            # wire, instead of racing the peer's answer.
            self.metrics.inc("fabric.peer.call_timeouts")
            raise PeerError(f"call to {self.name} with no time left ({timeout:.3f}s)")
        return self.wait(self.send(frame), timeout)

    def send(self, frame: dict) -> _Waiter:
        """Put one frame on the wire; returns the ticket :meth:`wait` takes.

        Sending several frames before waiting on any lets one caller keep
        many nodes (or one node's pool) busy at once.
        """
        try:
            with self._io_lock:
                sock, generation = self._ensure_connected_locked()
                self._rid += 1
                rid = self._rid
            payload = pack_frame({**frame, "rid": rid})
        except ProtocolError as err:
            raise PeerError(f"unsendable frame for {self.name}: {err}")
        waiter = _Waiter(rid=rid)
        with self._io_lock:
            if self._cur_gen != generation:
                raise PeerError(f"connection to {self.name} failed while queueing")
            self._pending[rid] = waiter
        try:
            with self._wlock:
                sock.sendall(payload)
        except OSError as err:
            # A partial send poisons the stream: fail the connection (and
            # with it every pending waiter, this one included).
            self._fail_connection(
                generation, PeerError(f"send to {self.name}: {err}")
            )
            raise PeerError(f"send to {self.name}: {err}")
        return waiter

    def wait(self, waiter: _Waiter, timeout_s: Optional[float] = None) -> dict:
        """The response to a :meth:`send`; raises :class:`PeerError`.

        A request that times out abandons its rid (a late answer is
        discarded as an orphan) without dropping the stream.
        """
        timeout = self.request_timeout_s if timeout_s is None else max(0.0, float(timeout_s))
        if not waiter.event.wait(timeout):
            with self._io_lock:
                self._pending.pop(waiter.rid, None)
            self.metrics.inc("fabric.peer.call_timeouts")
            # rid-correlation means the stream survives: only this
            # request is abandoned, not the pipeline.
            raise PeerError(
                f"request {waiter.rid} to {self.name} timed out after {timeout:.3f}s"
            )
        if waiter.error is not None:
            raise waiter.error
        return waiter.response

    def _read_probe(self) -> dict:
        """Read exactly one frame off the serial probe connection."""
        while True:
            try:
                frame = self._probe_asm.next_frame()
            except ProtocolError as err:
                raise PeerError(f"bad frame from {self.name}: {err}")
            if frame is not None:
                return frame
            chunk = self._probe_sock.recv(1 << 16)
            if not chunk:
                raise PeerError(f"heartbeat to {self.name}: peer closed the connection")
            self._probe_asm.feed(chunk)

    # ------------------------------------------------------------------
    def heartbeat(self, seq: int, timeout_s: float = 1.0) -> dict:
        """One liveness probe on the dedicated long-lived probe connection.

        The probe connection is dialed once and reused (counted in
        ``probe_dials``); any failure — connect, timeout, a desynchronized
        ack — drops it so the next probe re-dials fresh.  Probes are
        strictly serial request/response, so no rid bookkeeping is needed.
        """
        frame = heartbeat_frame(seq)
        with self._probe_lock:
            try:
                if self._probe_sock is None:
                    self._probe_sock = self._connect()
                    self._probe_asm = FrameAssembler()
                    self.probe_dials += 1
                    self.metrics.inc("fabric.peer.probe_dials")
                sock = self._probe_sock
                sock.settimeout(timeout_s)
                sock.sendall(pack_frame(frame))
                resp = self._read_probe()
                if not resp.get("ok") or resp.get("seq") != int(seq):
                    # A stale or mismatched ack means the probe stream is
                    # desynchronized; only a fresh dial restores trust.
                    raise PeerError(f"bad heartbeat ack from {self.name}: {resp}")
            except PeerError:
                self._drop_probe_locked()
                raise
            except OSError as err:
                self._drop_probe_locked()
                raise PeerError(f"heartbeat to {self.name}: {err}")
        return resp

    def _drop_probe_locked(self) -> None:
        if self._probe_sock is not None:
            try:
                self._probe_sock.close()
            except OSError:
                pass
        self._probe_sock = None
        self._probe_asm = None

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """In-flight request count (pipeline depth right now)."""
        with self._io_lock:
            return len(self._pending)

    def close(self) -> None:
        with self._io_lock:
            self._closed = True
            waiters = self._teardown_locked()
        for waiter in waiters:
            waiter.error = PeerError(f"client for {self.name} closed")
            waiter.event.set()
        with self._probe_lock:
            self._drop_probe_locked()

    def __repr__(self):
        return f"PeerClient({self.name!r}, {self.address[0]}:{self.address[1]})"


# ----------------------------------------------------------------------
# Node-process side
# ----------------------------------------------------------------------
def _tuple_key(parts) -> tuple:
    """JSON round-trips tuples as lists; batch keys must come back tuples."""
    return tuple(parts)


class _NodeServer:
    """The frame handler running inside one fabric node process.

    Interests go through :meth:`FogNode.answer <repro.fog.node.FogNode.answer>`
    — the same answer path the in-process topology uses, node-side
    singleflight included; this class only translates frames.
    """

    def __init__(self, node):
        self.node = node
        self._cap_lock = threading.Lock()

    # ------------------------------------------------------------------
    def handle(self, frame: dict) -> dict:
        op = frame.get("op")
        if op == "interest":
            return self._interest(frame)
        if op == "carry":
            return self._carry(frame)
        if op == "advertise":
            with self._cap_lock:
                self.node.advertise(_tuple_key(frame.get("batch_key", [])))
            return {"ok": True}
        if op == "heartbeat":
            return {
                "ok": True,
                "seq": frame.get("seq"),
                "node": self.node.name,
                "pid": os.getpid(),
                "executions": self.node.executions,
                "store_entries": len(self.node.store),
            }
        if op == "stats":
            return {"ok": True, "stats": self.node.stats()}
        if op == "shutdown":
            return {"ok": True, "bye": True}
        return {"ok": False, "error": "bad_request", "message": f"unknown op {op!r}"}

    def _interest(self, frame: dict) -> dict:
        """Answer every item of one interest frame, one entry each, in order.

        A malformed item refuses the whole frame (``bad_request``: the
        sending peer is broken); a spent budget refuses only its item.
        """
        items = frame.get("items")
        if not isinstance(items, list) or not items:
            return {"ok": False, "error": "bad_request", "message": "interest needs a non-empty 'items' list"}
        answers: List[Optional[dict]] = [None] * len(items)
        todo = []
        try:
            for i, item in enumerate(items):
                if not isinstance(item, dict):
                    raise ProtocolError(f"interest item {i} is not an object")
                budget_ms = item.get("budget_ms")
                if budget_ms is not None and float(budget_ms) <= 0.0:
                    # The forwarded deadline budget is spent: refuse, never
                    # work past a deadline another hop already consumed.
                    answers[i] = {"ok": False, "error": "deadline", "message": "budget exhausted"}
                    continue
                request = request_from_wire(item.get("request"))
                todo.append((i, name_request(request), request))
        except (ProtocolError, TypeError, ValueError) as err:
            return {"ok": False, "error": getattr(err, "code", "bad_request"), "message": str(err)}
        try:
            found = self.node.answer([(name, request) for _, name, request in todo]) if todo else []
        except Exception as err:  # noqa: BLE001 — resolve over the wire
            found = [err] * len(todo)
        for (i, name, request), got in zip(todo, found):
            if got is None:
                answers[i] = {
                    "ok": False,
                    "error": "cant_serve",
                    "message": f"{self.node.name} does not own {request.batch_key()}",
                }
            elif isinstance(got, Exception):
                answers[i] = {
                    "ok": False,
                    "error": "exec_failed",
                    "message": f"{type(got).__name__}: {got}",
                }
            else:
                answers[i] = self._result(name, *got)
        return {"ok": True, "answers": answers}

    def _result(self, name, result: np.ndarray, source: str) -> dict:
        resp = {
            "ok": True,
            "source": source,
            "result": np.asarray(result),
            "digest": array_digest(result),
        }
        cost = self.node.store.cost(name.uri())
        if cost is not None:
            resp["cost_ms"] = round(float(cost), 4)
        return resp

    def _carry(self, frame: dict) -> dict:
        try:
            result = decode_array(frame.get("result"))
        except ProtocolError as err:
            return {"ok": False, "error": err.code, "message": str(err)}
        # Integrity re-verification at the door: the bytes must still hash
        # to the digest pinned when the result was produced — a corrupted
        # or tampered carry is refused, not cached (and counted, exactly
        # like a store read that fails its pinned digest).
        if array_digest(result) != frame.get("digest"):
            self.node.store.integrity_failures += 1
            self.node.metrics.inc(f"fog.node.{self.node.name}.carry_rejected")
            return {"ok": True, "accepted": False}
        try:
            name = ComputationName.parse(str(frame.get("name")))
        except ValueError as err:
            return {"ok": False, "error": "bad_request", "message": str(err)}
        cost = frame.get("cost")
        self.node.carry(
            name, result, cost_ms=None if cost is None else float(cost)
        )
        return {"ok": True, "accepted": True}


#: Ops cheap enough (and important enough) to answer inline in the
#: connection reader: a saturated worker pool must never starve the
#: failure detector into a false suspect verdict.
_CONTROL_OPS = frozenset({"heartbeat", "stats", "shutdown"})


def _serve_connection(
    conn: socket.socket, server: _NodeServer, pool: ThreadPoolExecutor
) -> None:
    assembler = FrameAssembler()
    wlock = threading.Lock()

    def reply(response: dict, rid) -> None:
        if rid is not None:
            response = {**response, "rid": rid}
        try:
            with wlock:
                conn.sendall(pack_frame(response))
        except OSError:
            pass  # client went away mid-reply: nothing left to tell it

    def work(frame: dict, rid) -> None:
        reply(server.handle(frame), rid)

    try:
        while True:
            try:
                frame = assembler.next_frame()
            except ProtocolError as err:
                reply(
                    {"ok": False, "error": err.code, "message": str(err)},
                    None,
                )
                return  # a broken length prefix cannot be resynchronized
            if frame is None:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    return
                assembler.feed(chunk)
                continue
            rid = frame.get("rid")
            if frame.get("op") in _CONTROL_OPS:
                response = server.handle(frame)
                reply(response, rid)
                if response.get("bye"):
                    os._exit(0)
            else:
                pool.submit(work, frame, rid)
    except OSError:
        pass  # client went away: this connection is done, the node is not
    finally:
        try:
            conn.close()
        except OSError:
            pass


def node_main(name: str, port_conn, opts: Optional[dict] = None) -> None:
    """Entry point of one spawned fabric node process.

    Builds a :class:`~repro.fog.node.FogNode` (executor + content store),
    binds an ephemeral localhost socket, reports the bound port through
    ``port_conn`` (a one-shot pipe to the supervisor) and serves frames
    until killed or told to shut down.  One reader thread per connection
    plus a small shared worker pool (``opts["workers"]``, default 4) that
    executes data-plane frames concurrently: a pipelining client gets its
    decode/execute/encode work overlapped instead of strictly serialized,
    and the supervisor's heartbeats are answered inline even while
    executions occupy every worker.
    """
    from ..engine.observe import Metrics as _Metrics
    from ..serve.executor import EngineExecutor
    from .node import FogNode
    from .store import ContentStore, make_admission

    opts = dict(opts or {})
    executor_opts = dict(opts.get("executor_opts") or {})
    executor_opts.setdefault("metrics", _Metrics())
    node = FogNode(
        name,
        capabilities=frozenset(_tuple_key(k) for k in opts.get("capabilities", [])),
        executor=EngineExecutor(**executor_opts),
        store=ContentStore(
            capacity_bytes=int(opts.get("capacity_bytes", 16 << 20)),
            admission=make_admission(opts.get("store_policy", "lru")),
            reverify_every=int(opts.get("store_reverify", 1)),
        ),
        metrics=executor_opts["metrics"],
    )
    server = _NodeServer(node)
    pool = ThreadPoolExecutor(
        max_workers=max(1, int(opts.get("workers", 4))),
        thread_name_prefix=f"fog-{name}-worker",
    )
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(1.0)
    port_conn.send(listener.getsockname()[1])
    port_conn.close()
    threads = []
    try:
        while True:
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                threads = [t for t in threads if t.is_alive()]
                continue
            t = threading.Thread(
                target=_serve_connection, args=(conn, server, pool), daemon=True
            )
            t.start()
            threads.append(t)
    finally:
        listener.close()
