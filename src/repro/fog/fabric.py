"""repro.fog.fabric — the fog as real processes behind real sockets.

:class:`FogFabric` is the :class:`~repro.fog.topology.Router` — the same
rendezvous ownership, walk, singleflight and deadline budget as the
in-process :class:`~repro.fog.topology.FogTopology` — over a
:class:`PeerTransport`: every node is a supervised OS process
(:mod:`repro.fog.supervisor`) speaking binary frames over localhost
sockets (:mod:`repro.fog.peer`).  The failure modes a method-call
simulator cannot exercise — ``kill -9``, a SIGSTOP-stalled peer, a
half-open socket, a slow network — are the point:

* **Liveness view** — routing consults the supervisor's heartbeat verdict
  per peer, so the walk skips nodes the failure detector has marked
  suspect, not just nodes a test politely flagged dead.
* **Circuit breakers** — each peer sits behind a closed → open →
  half-open :class:`~repro.fog.peer.CircuitBreaker`; once a peer has
  failed ``breaker_failures`` times in a row, interests fail fast past it
  instead of queueing on a corpse until their deadlines drain.
* **Wire integrity** — every answer's bytes must hash to the digest its
  producer pinned, or the answer is refused like a failed peer.
* **Deadline budget across hops** — every interest item carries its
  remaining milliseconds; retries back off with deterministic jitter
  clamped to what is left, and a peer receiving a spent budget refuses
  that item without executing it.  With ``hedge_ms`` set, a silent owner races a duplicate
  interest to the next replica.
* **Graceful degradation** — when every owner is unreachable the fabric
  executes *locally*, in-process (``degrade_local=True``, counted in
  ``degraded_local``, never silent).  The engine is deterministic, so the
  degraded answer is byte-identical to the fabric answer; with
  degradation disabled the fabric raises
  :class:`~repro.fog.topology.FogUnavailable` exactly like the topology.
* **Warm restarts** — the supervisor respawns killed nodes with jittered
  backoff, and the transport replays its hot-result journal into the
  fresh store, every carry re-verified against its pinned sha256 digest.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..engine.observe import METRICS, Metrics
from ..engine.registry import array_digest
from ..serve.protocol import Request, carry_frame, decode_array, interest_frame
from . import frames
from .names import ComputationName, name_request  # noqa: F401 — wrapped by name by tracers
from .peer import CircuitBreaker, PeerClient, PeerError
from .supervisor import FabricSupervisor
from .topology import Answer, Router, _roster, retry_backoff_ms

__all__ = ["FogFabric", "PeerTransport", "retry_backoff_ms"]

#: Hot-journal size: how many recent results are replayed into a freshly
#: restarted node's content store (bounded so warm restart stays cheap).
_HOT_JOURNAL = 64

#: Bytes allowed per interest item, and per frame, for JSON header text
#: (wire request fields, descriptors, digest) beside the raw arrays.
_ITEM_HEADER_BYTES = 1024
_FRAME_HEADER_BYTES = 4096


def _wire_bytes(request: Request) -> Tuple[int, int]:
    """Upper estimates of one item's bytes in an interest frame and in
    its answer (a model's class scores are fewer than its inputs)."""
    sent = sum(arr.nbytes for arr in (request.a, request.b, request.x) if arr is not None)
    if request.workload == "nn_predict":
        back = request.x.nbytes
    else:
        back = request.a.shape[0] * request.b.shape[1] * 8
    return sent + _ITEM_HEADER_BYTES, back + _ITEM_HEADER_BYTES


def _frame_groups(requests: Sequence[Request]) -> List[List[int]]:
    """Split one node's interests, in order, so that every interest frame
    and its response frame stay under ``MAX_FRAME_BYTES``."""
    limit = frames.MAX_FRAME_BYTES - _FRAME_HEADER_BYTES
    groups: List[List[int]] = []
    current: List[int] = []
    sent_total = back_total = 0
    for i, request in enumerate(requests):
        sent, back = _wire_bytes(request)
        if current and (sent_total + sent > limit or back_total + back > limit):
            groups.append(current)
            current, sent_total, back_total = [], 0, 0
        current.append(i)
        sent_total += sent
        back_total += back
    if current:
        groups.append(current)
    return groups


class PeerTransport:
    """The router's reach into supervised node processes.

    Keeps what only the socket path needs: the supervisor (liveness =
    heartbeat verdict), one circuit breaker per peer, the wire digest check
    on every answer, and the hot journal replayed on warm restarts.
    """

    def __init__(
        self,
        names: List[str],
        node_opts: dict,
        breaker_failures: int,
        breaker_reset_ms: float,
        request_timeout_s: float,
        metrics: Metrics,
        **supervisor_opts,
    ):
        self.names = names
        self.metrics = metrics
        self.request_timeout_s = float(request_timeout_s)
        self.breakers: Dict[str, CircuitBreaker] = {
            n: CircuitBreaker(
                failure_threshold=breaker_failures,
                reset_after_s=breaker_reset_ms / 1e3,
                metrics=metrics,
                name=n,
            )
            for n in names
        }
        self.supervisor = FabricSupervisor(
            names,
            node_opts=node_opts,
            request_timeout_s=request_timeout_s,
            metrics=metrics,
            on_up=self._on_node_up,
            **supervisor_opts,
        )
        self._owned_keys: Dict[str, Set[Tuple]] = {n: set() for n in names}
        self._hot: "OrderedDict[str, Tuple[np.ndarray, str, float]]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def routable(self, name: str) -> bool:
        """Serving per the supervisor, and the breaker is not open."""
        return self.supervisor.serving(name) and self.breakers[name].state != CircuitBreaker.OPEN

    def advertise(self, name: str, batch_key: Tuple) -> None:
        with self._lock:
            self._owned_keys[name].add(batch_key)
        # Never block the data path on a suspect peer: the on_up hook
        # re-advertises everything the moment it is welcomed back.
        client = self.supervisor.client(name)
        if not self.supervisor.serving(name) or client is None:
            return
        try:
            client.call({"op": "advertise", "batch_key": list(batch_key)}, timeout_s=5.0)
        except PeerError:
            pass  # the warm-restart hook re-advertises when it comes back

    def interest(self, name: str, items: Sequence[tuple]) -> Callable[[], list]:
        """Send ``(cname, request, deadline)`` items to one peer; returns
        the collect callable (one :class:`Answer` or ``None`` per item).

        The items travel as one interest frame on the peer's pipelined
        connection, split only where a frame or its response would pass
        ``MAX_FRAME_BYTES``.  Items whose budget is spent stay home, and
        any failure — send, wait, a bad payload, a digest mismatch —
        declines the items it touches.  A hedge race's losing leg needs
        nothing special: its late answer completes its waiter, or is
        discarded as an orphan once the wait gave up.
        """
        answers: List[Optional[Answer]] = [None] * len(items)
        breaker = self.breakers[name]
        if not breaker.allow():
            return lambda: answers
        client = self.supervisor.client(name)
        now = time.monotonic()
        budgets = [math.inf if deadline is None else (deadline - now) * 1e3 for _, _, deadline in items]
        live = [i for i, budget in enumerate(budgets) if budget > 0]
        if client is None or not live:
            return lambda: answers
        sent = []
        for group in _frame_groups([items[i][1] for i in live]):
            indices = [live[j] for j in group]
            frame = interest_frame(
                [items[i][1] for i in indices],
                [None if math.isinf(budgets[i]) else budgets[i] for i in indices],
            )
            wait_s = min(self.request_timeout_s, max(budgets[i] for i in indices) / 1e3)
            try:
                ticket = client.send(frame)
            except PeerError:
                self._peer_failed(breaker)
                continue
            sent.append((indices, ticket, time.monotonic() + wait_s))

        def collect() -> List[Optional[Answer]]:
            for indices, ticket, until in sent:
                try:
                    resp = client.wait(ticket, until - time.monotonic())
                except PeerError:
                    self._peer_failed(breaker)
                    continue
                breaker.record_success()
                if not resp.get("ok"):
                    continue  # the peer refused the frame: its items decline
                got = resp.get("answers")
                if not isinstance(got, list) or len(got) != len(indices):
                    self.metrics.inc("fabric.bad_payloads")
                    continue
                for i, entry in zip(indices, got):
                    answers[i] = self._accept(entry)
            return answers

        return collect

    def _peer_failed(self, breaker: CircuitBreaker) -> None:
        breaker.record_failure()
        self.metrics.inc("fabric.peer_failures")

    def _accept(self, resp) -> Optional[Answer]:
        """Validate one item's answer: decodable bytes, matching digest."""
        if not isinstance(resp, dict) or not resp.get("ok"):
            return None  # cant_serve / deadline / exec_failed: next candidate
        try:
            result = decode_array(resp.get("result"))
        except Exception:  # noqa: BLE001 — a bad payload is a failed peer
            self.metrics.inc("fabric.bad_payloads")
            return None
        digest = resp.get("digest")
        if digest != array_digest(result):
            # The wire integrity check: bytes that do not hash to the
            # producer's pinned digest are refused, exactly like a
            # content-store read that fails re-verification.
            self.metrics.inc("fabric.integrity_failures")
            return None
        source = "cache" if resp.get("source") == "cache" else "exec"
        return Answer(result, source, float(resp.get("cost_ms", 1.0)), digest)

    def carry(self, name: str, cname: ComputationName, answer: Answer) -> bool:
        """Best-effort carry of a result into a peer's content store."""
        client = self.supervisor.client(name)
        if client is None:
            return False
        result = answer.result
        try:
            resp = client.call(
                carry_frame(cname.uri(), result, array_digest(result), cost=answer.cost),
                timeout_s=5.0,
            )
        except PeerError:
            return False
        return bool(resp.get("accepted"))

    def remember(self, uri: str, answer: Answer) -> None:
        """Journal a verified result for replay into restarted nodes."""
        with self._lock:
            self._hot.pop(uri, None)
            self._hot[uri] = (answer.result, answer.digest, answer.cost)
            while len(self._hot) > _HOT_JOURNAL:
                self._hot.popitem(last=False)

    def _on_node_up(self, name: str, client: PeerClient) -> None:
        """Warm restart: re-advertise owned capabilities, replay hot results."""
        self.breakers[name].reset()
        with self._lock:
            keys = list(self._owned_keys.get(name, ()))
            hot = list(self._hot.items())
        if not keys and not hot:
            return  # initial spawn: nothing to restore yet
        # The restart-with-state event already happened; count it before
        # touching the wire so a flaky advertise can't erase the record.
        self.metrics.inc("fabric.warm_restarts")
        for key in keys:
            for attempt in (0, 1):
                try:
                    client.call({"op": "advertise", "batch_key": list(key)}, timeout_s=5.0)
                    break
                except PeerError:
                    if attempt:
                        # Leave the key to lazy re-advertise on the next
                        # interest; the reseed of the rest proceeds.
                        self.metrics.inc("fabric.warm_advert_failures")
        carried = 0
        for uri, (result, digest, cost) in hot:
            try:
                resp = client.call(carry_frame(uri, result, digest, cost=cost), timeout_s=5.0)
                if resp.get("accepted"):
                    carried += 1
            except PeerError:
                self.metrics.inc("fabric.warm_carry_failures")
                break
        if carried:
            self.metrics.inc("fabric.warm_carries", carried)


class FogFabric(Router):
    """A supervised multi-process fog routing named computations.

    The :class:`~repro.fog.topology.Router` over a :class:`PeerTransport`;
    drop-in for :class:`~repro.fog.topology.FogTopology`'s serving
    contract (``submit_batch`` / ``submit`` / ``close`` / ``restart`` /
    ``stats`` / ``crash``), which is how
    :class:`~repro.fog.executor.FogExecutor` serves through it unchanged.

    Parameters:
        nodes: Node-process count, or explicit names.
        replicas: Owners per capability (rendezvous top-``replicas``).
        capacity_bytes: Per-node content-store budget.
        heartbeat_ms / miss_budget: Failure-detector cadence and patience.
        breaker_failures / breaker_reset_ms: Circuit-breaker trip
            threshold and open-state cooldown.
        retries / retry_backoff_base_ms: Per-owner attempt budget and
            backoff base (jittered, clamped to the deadline budget).
        hedge_ms: Send a racing interest to the next replica when the
            primary is silent this long (``None`` disables hedging).
        default_budget_ms: Deadline budget for requests that carry none.
        degrade_local: Execute in-process when every owner is unreachable
            (counted) instead of raising :class:`FogUnavailable`.
        max_restarts / restart_backoff_base_s: Supervisor restart budget.
        executor_opts: Options for each node's engine executor (and the
            local degradation executor, so both produce identical bytes).
        store_policy: Content-store admission policy per node: ``"lru"``
            (admit everything, classic) or ``"costaware"``
            (frequency-sketch × recompute-cost admission).
        store_reverify: Re-hash cached entries against their pinned
            digest every Nth hit (1 = every hit, 0 = never).
        node_workers: Worker threads per node process serving data-plane
            frames concurrently (heartbeats are always answered inline).
    """

    def __init__(
        self,
        nodes: int = 3,
        replicas: int = 2,
        capacity_bytes: int = 16 << 20,
        heartbeat_ms: float = 100.0,
        miss_budget: int = 3,
        breaker_failures: int = 3,
        breaker_reset_ms: float = 500.0,
        retries: int = 2,
        retry_backoff_base_ms: float = 10.0,
        hedge_ms: Optional[float] = None,
        default_budget_ms: float = 2000.0,
        degrade_local: bool = True,
        max_restarts: int = 5,
        restart_backoff_base_s: float = 0.05,
        request_timeout_s: float = 30.0,
        metrics: Optional[Metrics] = None,
        executor_opts: Optional[dict] = None,
        store_policy: str = "lru",
        store_reverify: int = 1,
        node_workers: int = 4,
        start: bool = True,
    ):
        names = _roster(nodes)
        metrics = metrics if metrics is not None else METRICS
        self.node_names = names
        self.request_timeout_s = float(request_timeout_s)
        transport = PeerTransport(
            names,
            node_opts={
                "executor_opts": dict(executor_opts or {}),
                "capacity_bytes": int(capacity_bytes),
                "store_policy": str(store_policy),
                "store_reverify": int(store_reverify),
                "workers": int(node_workers),
            },
            breaker_failures=breaker_failures,
            breaker_reset_ms=breaker_reset_ms,
            request_timeout_s=request_timeout_s,
            metrics=metrics,
            heartbeat_ms=heartbeat_ms,
            miss_budget=miss_budget,
            restart_backoff_base_s=restart_backoff_base_s,
            max_restarts=max_restarts,
        )
        super().__init__(
            transport,
            replicas=replicas,
            metrics=metrics,
            prefix="fabric",
            retries=retries,
            retry_backoff_base_ms=retry_backoff_base_ms,
            hedge_ms=hedge_ms,
            default_budget_ms=float(default_budget_ms),
            degrade_local=degrade_local,
            executor_opts=executor_opts,
        )
        self.supervisor = transport.supervisor
        self.breakers = transport.breakers
        if start:
            self.supervisor.start()

    # ------------------------------------------------------------------
    # Chaos + lifecycle + observability
    # ------------------------------------------------------------------
    def kill(self, name: str) -> Optional[int]:
        """SIGKILL a node process (the supervisor will restart it)."""
        return self.supervisor.kill(name)

    #: Topology-compatible alias: a fabric "crash" is a real SIGKILL.
    crash = kill

    def close(self) -> None:
        self.supervisor.stop()
        super().close()

    def restart(self) -> None:
        """Post-chaos reset: trust every peer again (breakers close)."""
        for breaker in self.breakers.values():
            breaker.reset()

    def wait_all_serving(self, timeout_s: float = 30.0) -> bool:
        """Block until every node is routable again (restart recovery)."""
        t0 = time.monotonic()
        while time.monotonic() - t0 < timeout_s:
            if self.supervisor.all_serving():
                return True
            time.sleep(0.02)
        return self.supervisor.all_serving()

    def stats(self) -> Dict[str, object]:
        return {
            "nodes": self.supervisor.stats(),
            "breakers": {n: b.stats() for n, b in self.breakers.items()},
            "serving": self.supervisor.serving_names(),
            **super().stats(),
            "remote_execs": self.remote_execs,
            "retries": self.retries_used,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "degraded_local": self.degraded,
            "hot_journal": len(self.transport._hot),
        }

    def __enter__(self):
        self.supervisor.start()
        return self
