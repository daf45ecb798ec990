"""repro.fog.topology — one router for named computations across a fog.

Both fog deployments route with the same :class:`Router`; they differ
only in the *transport* it reaches nodes through:

* :class:`FogTopology` — N in-process :class:`~repro.fog.node.FogNode`\\ s
  behind a :class:`LocalTransport` (liveness is ``node.alive``);
* :class:`~repro.fog.fabric.FogFabric` — supervised node processes behind
  sockets (:class:`~repro.fog.fabric.PeerTransport`).

The router assigns each capability (serve-layer batch key) to
``replicas`` owner nodes by **rendezvous hashing** — deterministic, stable
under membership churn, and with a built-in fallback order — and drives
the NFN request walk over a whole batch (:meth:`Router.submit_batch`;
:meth:`Router.submit` is its one-item case):

1. each interest enters at an ingress node (round-robin over routable
   nodes, per leader), and every ingress node gets the batch's interests
   for it as **one** interest, all of them sent before any answer is
   awaited;
2. the ingress answers from its content store, or executes if it owns the
   capability — owned misses of one capability as one engine batch
   (:meth:`FogNode.answer <repro.fog.node.FogNode.answer>`);
3. what it declines or fails is **forwarded**, item by item, to the
   capability's owners in rendezvous order — skipping the primary counts
   a *reroute* — each owner with its retry budget and, optionally, a
   hedge racing the next replica;
4. an owner's answer rides the reverse path back into the ingress store
   (on-path caching, so repeated interests hit where they enter).

Duplicate interests — inside a batch or already in flight — collapse onto
one walk (singleflight), and each request spends its own deadline
budget.  What no owner can answer is
executed locally (``degrade_local``, counted) or rejected with
:class:`FogUnavailable`: the fog rejects what it cannot serve, it never
fabricates or drops an accepted answer.  Node loss is first-class:
:meth:`FogTopology.crash` wipes the node's volatile content store, and
:class:`ChurnDriver` scripts crashes and revivals from a deterministic
:class:`~repro.engine.faults.ChaosPlan`.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..engine.faults import ChaosPlan
from ..engine.observe import METRICS, TRACER, Metrics
from ..engine.registry import array_digest
from ..serve.executor import DeadlineExceeded, EngineExecutor
from ..serve.protocol import Request
from .names import ComputationName, name_request
from .node import FogNode, NodeDown
from .store import ContentStore, make_admission

__all__ = [
    "Answer",
    "ChurnDriver",
    "FogTopology",
    "FogUnavailable",
    "LocalTransport",
    "Router",
    "retry_backoff_ms",
]


class FogUnavailable(Exception):
    """No alive node can serve this computation right now (retryable)."""

    def __init__(self, message: str, name: Optional[str] = None):
        super().__init__(message)
        self.name = name


def _slug(batch_key: Tuple) -> str:
    return "/".join(str(part) for part in batch_key)


def _rendezvous_score(node_name: str, capability_slug: str) -> int:
    """Highest-random-weight score of ``node`` for ``capability``."""
    digest = hashlib.sha256(f"{node_name}|{capability_slug}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _roster(nodes) -> List[str]:
    """Node names from a count (``n0``, ``n1``, …) or explicit names."""
    names = [f"n{i}" for i in range(nodes)] if isinstance(nodes, int) else [str(n) for n in nodes]
    if not names:
        raise ValueError("a fog needs at least one node")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate node names: {names}")
    return names


def retry_backoff_ms(
    base_ms: float, attempt: int, token: str, cap_ms: float = 250.0
) -> float:
    """Jittered exponential retry delay, pure function of its arguments.

    The jitter factor in ``[0.5, 1.5)`` derives from a sha256 of
    ``(token, attempt)`` — deterministic for tests, decorrelated across
    interests (the token is the interest URI), so a burst of failures
    never retries in lockstep.
    """
    base = float(base_ms) * (2 ** int(attempt))
    digest = hashlib.sha256(f"{token}|{attempt}".encode()).digest()
    factor = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
    return min(float(cap_ms), base * factor)


class Answer(NamedTuple):
    """One node's answer to an interest."""

    result: np.ndarray
    #: ``"cache"`` (content store), ``"exec"`` (owner execution) or
    #: ``"local"`` (the router's degradation rung).
    source: str
    #: The producer's recompute milliseconds, when it reported them.
    cost: Optional[float] = None
    #: The sha256 digest the result was verified against, when it crossed
    #: a wire (in-process answers never leave trusted memory).
    digest: Optional[str] = None


class _Gate:
    """One in-flight interest's singleflight rendezvous point."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None


class _Item:
    """One leader interest on its walk through the fog."""

    __slots__ = ("request", "name", "uri", "deadline", "gate", "entry", "path")

    def __init__(self, request: Request, name: ComputationName, deadline: Optional[float]):
        self.request = request
        self.name = name
        self.uri = name.uri()
        self.deadline = deadline
        self.gate: Optional[_Gate] = None
        self.entry: Optional[str] = None
        #: Nodes already asked (and declined or failed), in order.
        self.path: List[str] = []


class LocalTransport:
    """The router's reach into in-process :class:`FogNode`\\ s.

    A transport is the mechanism half of the fog: ``names`` (the roster),
    ``routable(name)``, ``advertise(name, key)``, ``interest(name,
    items)`` for a list of ``(cname, request, deadline)`` items,
    ``carry(...)`` → accepted, and ``remember(uri, answer)`` for whatever
    the transport keeps of completed walks.  ``interest`` puts the items
    on their way and returns a *collect* callable; collecting yields one
    :class:`Answer`, ``None`` (declined or failed) or exception instance
    (an engine error to resolve the item with) per item.  The router
    sends to every node it needs before it collects from any.  Here
    liveness is the ``alive`` flag, a dead node declines (a stale route,
    not an error), and the node answers while the interest is sent.
    """

    def __init__(self, nodes: Sequence[FogNode]):
        self.nodes: Dict[str, FogNode] = {n.name: n for n in nodes}
        self.names = list(self.nodes)

    def routable(self, name: str) -> bool:
        return self.nodes[name].alive

    def advertise(self, name: str, batch_key: Tuple) -> None:
        self.nodes[name].advertise(batch_key)

    def interest(self, name: str, items: Sequence[tuple], hedged: bool = False) -> Callable[[], list]:
        try:
            found = self.nodes[name].answer([(cname, request) for cname, request, _ in items])
        except NodeDown:
            found = [None] * len(items)
        answers = [got if got is None or isinstance(got, Exception) else Answer(*got) for got in found]
        return lambda: answers

    def carry(self, name: str, cname: ComputationName, answer: Answer) -> bool:
        self.nodes[name].carry(cname, answer.result, cost_ms=answer.cost)
        return True

    def remember(self, uri: str, answer: Answer) -> None:
        """In-process nodes need no replay journal."""


class Router:
    """The fog's routing policy over one transport.

    Owns rendezvous ownership, ingress round-robin, singleflight collapse,
    the deadline budget, per-owner retries and hedging, reverse-path carry,
    local degradation and the counters; reaches nodes only through
    ``transport`` (see :class:`LocalTransport` for the interface).

    Parameters:
        transport: The node roster and how to reach it.
        replicas: Owners per capability (rendezvous top-``replicas``).
            2+ gives the reroute path somewhere to go when a primary dies.
        metrics: Counter sink; counters are named ``{prefix}.*``.
        prefix: Metric namespace (``"fog"`` in-process, ``"fabric"``).
        retries / retry_backoff_base_ms: Extra attempts per owner and the
            backoff base (jittered, clamped to the deadline budget).
        hedge_ms: Race a duplicate interest to the next replica when an
            owner is silent this long (``None`` disables hedging).
        default_budget_ms: Deadline budget for requests that carry no
            deadline (``None``: unbounded).
        degrade_local: Execute in-process, counted, when no owner answers
            instead of raising :class:`FogUnavailable`.
        executor_opts: Options for the local degradation executor.
    """

    def __init__(
        self,
        transport,
        replicas: int = 2,
        metrics: Optional[Metrics] = None,
        prefix: str = "fog",
        retries: int = 0,
        retry_backoff_base_ms: float = 10.0,
        hedge_ms: Optional[float] = None,
        default_budget_ms: Optional[float] = None,
        degrade_local: bool = False,
        executor_opts: Optional[dict] = None,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.transport = transport
        self.replicas = min(int(replicas), len(transport.names))
        self.metrics = metrics if metrics is not None else METRICS
        self.prefix = prefix
        self.retries = int(retries)
        self.retry_backoff_base_ms = float(retry_backoff_base_ms)
        self.hedge_ms = None if hedge_ms is None else float(hedge_ms)
        self.default_budget_ms = default_budget_ms
        self.degrade_local = bool(degrade_local)
        self.executor_opts = dict(executor_opts or {})
        #: Capability -> owner names in rendezvous (fallback) order.
        self._owners: Dict[Tuple, List[str]] = {}
        #: Singleflight gates: in-flight interest URI -> rendezvous gate.
        self._inflight: Dict[str, _Gate] = {}
        self._lock = threading.Lock()
        self._ingress_counter = 0
        self._local: Optional[EngineExecutor] = None
        self._hedge_pool = (
            None
            if self.hedge_ms is None
            else ThreadPoolExecutor(
                max_workers=max(2, 2 * len(transport.names)),
                thread_name_prefix=f"{prefix}-hedge",
            )
        )
        self.submitted = 0
        self.completed = 0
        self.collapsed = 0
        self.cache_hits = 0
        self.remote_execs = 0
        self.forwards = 0
        self.reroutes = 0
        self.retries_used = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.degraded = 0
        self.unavailable = 0

    def _count(self, what: str, n: int = 1) -> None:
        self.metrics.inc(f"{self.prefix}.{what}", n)

    # ------------------------------------------------------------------
    # Ownership + liveness
    # ------------------------------------------------------------------
    def owner_names(self, batch_key: Tuple) -> List[str]:
        """The capability's owners, primary first (lazily assigned).

        Assignment is rendezvous hashing over the *whole* roster — dead
        nodes included — so the owner list is a pure function of the
        roster and the capability, never of crash history: a node that
        crashes and revives owns exactly what it owned before.
        """
        with self._lock:
            owners = self._owners.get(batch_key)
        if owners is None:
            slug = _slug(batch_key)
            ranked = sorted(
                self.transport.names,
                key=lambda n: _rendezvous_score(n, slug),
                reverse=True,
            )
            owners = ranked[: self.replicas]
            for name in owners:
                self.transport.advertise(name, batch_key)
            with self._lock:
                self._owners[batch_key] = owners
            self._count("capabilities_assigned")
        return owners

    owners = owner_names

    def routable(self, name: str) -> bool:
        """May an interest be sent to this node right now?"""
        return self.transport.routable(name)

    def _next_ingress(self) -> Optional[str]:
        """Round-robin over routable nodes (any edge node takes traffic)."""
        candidates = [n for n in self.transport.names if self.transport.routable(n)]
        if not candidates:
            self._count("no_ingress")
            return None
        name = candidates[self._ingress_counter % len(candidates)]
        self._ingress_counter += 1
        return name

    # ------------------------------------------------------------------
    # Submission: singleflight over the batch walk
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Request,
        ingress: Optional[str] = None,
        budget_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Route one named computation through the fog; return its result.

        The one-item case of :meth:`submit_batch`.  Raises
        :class:`DeadlineExceeded` (budget spent), :class:`FogUnavailable`
        (no owner reachable, degradation off), or whatever the executing
        engine raised — rejected, never wrong.
        """
        result = self.submit_batch([request], ingress=ingress, budget_ms=budget_ms)[0]
        if isinstance(result, BaseException):
            raise result
        return result

    def submit_batch(
        self,
        requests: Sequence[Request],
        ingress: Optional[str] = None,
        budget_ms: Optional[float] = None,
    ) -> List[object]:
        """Route a batch of named computations; one result *or exception* each.

        ``ingress`` pins the entry node (default: round-robin per leader).
        Each request's deadline budget is ``budget_ms``, else its own
        deadline, else ``default_budget_ms``.

        Every request is named once.  Duplicates **collapse** (NFN
        interest aggregation), inside the batch and against interests
        already in flight: the first becomes the leader and walks the fog;
        the rest wait on its gate, counted in ``collapsed``.  A collapsed
        waiter honors its own deadline, and if the leader fails it walks
        again as leader with whatever budget it has left.  Failures
        resolve per request, like :meth:`EngineExecutor.execute`:
        :class:`DeadlineExceeded`, :class:`FogUnavailable`, or whatever
        the executing engine raised — rejected, never wrong.
        """
        t0 = time.monotonic()
        self.submitted += len(requests)
        self._count("submitted", len(requests))
        items: List[_Item] = []
        for request in requests:
            deadline = request.deadline_s
            budget = budget_ms
            if budget is None and deadline is None:
                budget = self.default_budget_ms
            if budget is not None:
                deadline = t0 + max(0.0, float(budget)) / 1e3
            items.append(_Item(request, name_request(request), deadline))
        results: List[object] = [None] * len(items)
        waiting = list(range(len(items)))
        while waiting:
            leaders: List[_Item] = []
            followers = set()
            with self._lock:
                for i in waiting:
                    item = items[i]
                    gate = self._inflight.get(item.uri)
                    if gate is None:
                        item.gate = self._inflight[item.uri] = _Gate()
                        leaders.append(item)
                    else:
                        item.gate = gate
                        followers.add(i)
            if followers:
                self.collapsed += len(followers)
                self._count("collapsed", len(followers))
            if leaders:
                self._lead(leaders, ingress)
            retry = []
            for i in waiting:
                item = items[i]
                gate = item.gate
                if i in followers:
                    remaining_s = None if item.deadline is None else max(0.0, item.deadline - time.monotonic())
                    if not gate.event.wait(remaining_s):
                        self._count("deadline_exhausted")
                        results[i] = DeadlineExceeded(f"deadline passed waiting on collapsed interest {item.uri}")
                        continue
                    if gate.error is not None:
                        retry.append(i)  # leader failed: walk it ourselves
                        continue
                elif gate.error is not None:
                    results[i] = gate.error
                    continue
                results[i] = gate.result
                self.completed += 1
                self._count("completed")
                self.metrics.observe(f"{self.prefix}.submit_s", time.monotonic() - t0)
            waiting = retry
        return results

    # ------------------------------------------------------------------
    # The walk
    # ------------------------------------------------------------------
    @staticmethod
    def _remaining_ms(deadline: Optional[float]) -> float:
        return math.inf if deadline is None else (deadline - time.monotonic()) * 1e3

    def _lead(self, items: List[_Item], ingress: Optional[str]) -> None:
        """Walk the leaders, then open their gates, each resolved."""
        try:
            with TRACER.span(f"{self.prefix}.submit", interests=len(items)):
                self._walk(items, ingress)
        except BaseException as err:
            for item in items:
                if item.gate.result is None and item.gate.error is None:
                    item.gate.error = err
            if not isinstance(err, Exception):
                raise
        finally:
            with self._lock:
                for item in items:
                    self._inflight.pop(item.uri, None)
            for item in items:
                item.gate.event.set()

    def _walk(self, items: List[_Item], ingress: Optional[str]) -> None:
        """Hop 1 for the whole batch, then the owner ladder per declined item."""
        transport = self.transport
        for item in items:
            # Ownership first: owners learn their capabilities before any
            # of them is asked to serve it.
            self.owner_names(item.request.batch_key())
        # Hop 1 — the ingress edge nodes (round-robin per leader): cache
        # answers or owner executions.  One interest per ingress node,
        # every one on its way before any is collected.
        groups: Dict[str, List[_Item]] = {}
        for item in items:
            item.entry = ingress if ingress is not None else self._next_ingress()
            if item.entry is not None and self._remaining_ms(item.deadline) > 0:
                groups.setdefault(item.entry, []).append(item)
        sent = [
            (group, transport.interest(entry, [(it.name, it.request, it.deadline) for it in group]))
            for entry, group in groups.items()
        ]
        for group, collect in sent:
            for item, answer in zip(group, collect()):
                if isinstance(answer, BaseException):
                    item.gate.error = answer
                elif answer is not None:
                    self._resolve(item, self._counted(answer))
                else:
                    item.path.append(item.entry)
        # Hop 2..n — what hop 1 left open walks the owner ladder alone.
        for item in items:
            if item.gate.result is None and item.gate.error is None:
                try:
                    self._resolve(item, self._ladder(item))
                except Exception as err:  # noqa: BLE001 — resolve, don't drop
                    item.gate.error = err

    def _resolve(self, item: _Item, answer: Answer) -> None:
        self.transport.remember(item.uri, answer)
        item.gate.result = answer.result

    def _ladder(self, item: _Item) -> Answer:
        """The capability's owners in rendezvous order, skipping whoever was
        already asked, each with its retry budget; then degradation."""
        name, request, entry, deadline, path = item.name, item.request, item.entry, item.deadline, item.path
        key = request.batch_key()
        owners = self.owner_names(key)
        primary = owners[0]
        transport = self.transport
        for idx, owner in enumerate(owners):
            if owner in path or not transport.routable(owner):
                continue
            if self._remaining_ms(deadline) <= 0:
                break
            if path:
                self.forwards += 1
                self._count("forwards")
                self._count(f"node.{path[-1]}.forwards")
            # A reroute is a forward that had to skip the rendezvous
            # primary — it is down, or it was already asked and failed.
            if owner != primary and (primary in path or not transport.routable(primary)):
                self.reroutes += 1
                self._count("reroutes")
                self._count(f"node.{owner}.reroutes_absorbed")
            hedge_to = None
            if self.hedge_ms is not None:
                hedge_to = next(
                    (n for n in owners[idx + 1 :] if n not in path and transport.routable(n)),
                    None,
                )
            answer = self._ask_owner(owner, name, request, deadline, hedge_to)
            if answer is not None:
                # Reverse-path caching: the answer rides back to the
                # ingress so repeated interests hit where they enter.
                if entry is not None and transport.routable(entry):
                    if transport.carry(entry, name, answer):
                        self._count("repopulations")
                return self._counted(answer)
            path.append(owner)
        if self._remaining_ms(deadline) <= 0:
            self._count("deadline_exhausted")
            raise DeadlineExceeded(f"deadline budget spent routing {item.uri} (tried {sorted(path)})")
        # Degradation ladder, last rung: every owner unreachable — serve
        # the request locally (counted) rather than serving nothing.
        if self.degrade_local:
            return self._execute_local(request)
        self.unavailable += 1
        self._count("unavailable")
        raise FogUnavailable(f"no reachable owner for {_slug(key)} (interest {item.uri})", name=item.uri)

    def _interest(
        self,
        node: str,
        name: ComputationName,
        request: Request,
        deadline: Optional[float],
        hedged: bool = False,
    ) -> Optional[Answer]:
        """One interest of one item to one node (the ladder's step)."""
        answer = self.transport.interest(node, [(name, request, deadline)], hedged=hedged)()[0]
        if isinstance(answer, BaseException):
            raise answer
        return answer

    def _counted(self, answer: Answer) -> Answer:
        if answer.source == "cache":
            self.cache_hits += 1
            self._count("cache_hits")
        else:
            self.remote_execs += 1
            self._count("remote_execs")
        return answer

    def _ask_owner(
        self,
        owner: str,
        name: ComputationName,
        request: Request,
        deadline: Optional[float],
        hedge_to: Optional[str],
    ) -> Optional[Answer]:
        """One owner, up to ``retries`` extra attempts; ``None`` if it fails."""
        for attempt in range(self.retries + 1):
            remaining = self._remaining_ms(deadline)
            if remaining <= 0:
                return None
            if attempt > 0:
                # Never sleep (or retry) past the deadline budget.
                delay = min(retry_backoff_ms(self.retry_backoff_base_ms, attempt - 1, name.uri()), remaining)
                time.sleep(delay / 1e3)
                if self._remaining_ms(deadline) <= 0:
                    return None
                self.retries_used += 1
                self._count("retries")
            if hedge_to is not None:
                answer = self._hedged(owner, hedge_to, name, request, deadline)
            else:
                answer = self._interest(owner, name, request, deadline)
            if answer is not None:
                return answer
            if not self.transport.routable(owner):
                return None  # gone (or breaker tripped) mid-attempts: move on
        return None

    def _hedged(
        self,
        primary: str,
        secondary: str,
        name: ComputationName,
        request: Request,
        deadline: Optional[float],
    ) -> Optional[Answer]:
        """Race the primary against a delayed duplicate on the secondary.

        First good answer wins; content-addressed results make the
        duplicate harmless (both compute the same bytes).
        """

        def leg(node: str) -> Optional[Answer]:
            return self._interest(node, name, request, deadline, hedged=True)

        futures = {self._hedge_pool.submit(leg, primary): primary}
        hedged = False
        while futures:
            remaining_s = self._remaining_ms(deadline) / 1e3
            if remaining_s <= 0:
                break
            wait_s = remaining_s if hedged else min(remaining_s, self.hedge_ms / 1e3)
            done, _ = wait(futures, timeout=wait_s, return_when=FIRST_COMPLETED)
            for fut in done:
                node = futures.pop(fut)
                answer = fut.result()
                if answer is not None:
                    if hedged and node == secondary:
                        self.hedge_wins += 1
                        self._count("hedge_wins")
                    return answer
            if not done and not hedged:
                hedged = True
                self.hedges += 1
                self._count("hedges")
                futures[self._hedge_pool.submit(leg, secondary)] = secondary
        return None

    def _execute_local(self, request: Request) -> Answer:
        """The degradation rung: in-process execution, counted, byte-exact."""
        with self._lock:
            if self._local is None:
                opts = dict(self.executor_opts)
                opts.setdefault("metrics", self.metrics)
                self._local = EngineExecutor(**opts)
            local = self._local
        started = time.perf_counter()
        result = local.execute(request.batch_key(), [request])[0]
        if isinstance(result, Exception):
            raise result
        cost_ms = (time.perf_counter() - started) * 1e3
        self.degraded += 1
        self._count("degraded_local")
        result = np.asarray(result)
        return Answer(result, "local", cost_ms, array_digest(result))

    # ------------------------------------------------------------------
    # Lifecycle + observability
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._hedge_pool is not None:
            self._hedge_pool.shutdown(wait=False, cancel_futures=True)
        with self._lock:
            if self._local is not None:
                self._local.close()
                self._local = None

    def stats(self) -> Dict[str, object]:
        """Counters common to every deployment."""
        return {
            "replicas": self.replicas,
            "submitted": self.submitted,
            "completed": self.completed,
            "collapsed": self.collapsed,
            "cache_hits": self.cache_hits,
            "unavailable": self.unavailable,
            "capabilities": {_slug(key): list(owners) for key, owners in self._owners.items()},
        }

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class FogTopology(Router):
    """An in-process fog of edge nodes routing named computations.

    The :class:`Router` over a :class:`LocalTransport`: requests without a
    deadline get no budget, and nothing degrades locally — when every
    owner is down the interest is rejected with :class:`FogUnavailable`.

    Parameters:
        nodes: Node count, or explicit node names.
        replicas: Owners per capability (rendezvous top-``replicas``).
        capacity_bytes: Per-node content-store budget.
        executor_opts: Keyword arguments for each node's
            :class:`~repro.serve.executor.EngineExecutor` (e.g. ``workers``).
        store_policy: Content-store admission policy per node: ``"lru"``
            (classic, the default) or ``"costaware"``.
        store_reverify: Re-hash cached entries against their pinned
            digest every Nth hit (1 = every hit, 0 = never).
    """

    def __init__(
        self,
        nodes: int = 4,
        replicas: int = 2,
        capacity_bytes: int = 16 << 20,
        metrics: Optional[Metrics] = None,
        executor_opts: Optional[dict] = None,
        store_policy: str = "lru",
        store_reverify: int = 1,
    ):
        names = _roster(nodes)
        metrics = metrics if metrics is not None else METRICS
        opts = dict(executor_opts or {})
        opts.setdefault("metrics", metrics)
        self.nodes: List[FogNode] = [
            FogNode(
                name,
                executor=EngineExecutor(**opts),
                store=ContentStore(
                    capacity_bytes=capacity_bytes,
                    admission=make_admission(store_policy),
                    reverify_every=store_reverify,
                ),
                metrics=metrics,
            )
            for name in names
        ]
        super().__init__(LocalTransport(self.nodes), replicas=replicas, metrics=metrics)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def node(self, name: str) -> FogNode:
        return self.transport.nodes[name]

    def alive_nodes(self) -> List[FogNode]:
        return [n for n in self.nodes if n.alive]

    def crash(self, name: str) -> None:
        """Take a node down (volatile content store is lost with it)."""
        self.node(name).crash()

    def revive(self, name: str) -> None:
        """Bring a node back, empty-handed: its caches refill from traffic."""
        self.node(name).revive()

    def owners(self, batch_key: Tuple) -> List[FogNode]:
        """The capability's owner nodes, primary first (see :meth:`owner_names`)."""
        return [self.node(n) for n in self.owner_names(batch_key)]

    # ------------------------------------------------------------------
    # Lifecycle + observability
    # ------------------------------------------------------------------
    def close(self) -> None:
        for node in self.nodes:
            node.close()
        super().close()

    def restart(self) -> None:
        for node in self.nodes:
            node.restart()

    def stats(self) -> Dict[str, object]:
        return {
            "nodes": {n.name: n.stats() for n in self.nodes},
            "alive": len(self.alive_nodes()),
            **super().stats(),
            "forwards": self.forwards,
            "reroutes": self.reroutes,
        }


# ----------------------------------------------------------------------
# Churn: scripted node loss and recovery
# ----------------------------------------------------------------------
class ChurnDriver:
    """Deterministic membership churn from a :class:`ChaosPlan`.

    Each :meth:`step` consults ``plan.decide(step, node_index)`` per node:
    ``"crash"`` takes the node down for ``downtime_steps`` steps (its
    content store is lost), anything else leaves it alone; nodes whose
    downtime has elapsed revive empty.  ``min_alive`` keeps the simulation
    honest rather than degenerate — a fog with zero alive nodes serves
    nothing, which tests nothing.

    Like every fault plan in this repo the sequence is a pure function of
    ``(plan.seed, step, node index)``: the same plan crashes the same
    nodes at the same steps in every run.
    """

    def __init__(
        self,
        topology: FogTopology,
        plan: ChaosPlan,
        downtime_steps: int = 2,
        min_alive: int = 1,
    ):
        if downtime_steps < 1:
            raise ValueError("downtime_steps must be >= 1")
        if min_alive < 1:
            raise ValueError("min_alive must be >= 1")
        self.topology = topology
        self.plan = plan
        self.downtime_steps = int(downtime_steps)
        self.min_alive = int(min_alive)
        self._revive_at: Dict[str, int] = {}
        self.crashes = 0
        self.revivals = 0

    def step(self, step_idx: int) -> Dict[str, List[str]]:
        """Advance churn one step; returns ``{"crashed": [...], "revived": [...]}``."""
        topo = self.topology
        revived = [
            name for name, due in self._revive_at.items() if step_idx >= due
        ]
        for name in revived:
            del self._revive_at[name]
            topo.revive(name)
            self.revivals += 1
            topo.metrics.inc("fog.churn.revivals")
        crashed = []
        for idx, node in enumerate(topo.nodes):
            if not node.alive:
                continue
            if self.plan.decide(step_idx, idx) != "crash":
                continue
            if len(topo.alive_nodes()) <= self.min_alive:
                break  # keep the fog serving: stop crashing this step
            topo.crash(node.name)
            self._revive_at[node.name] = step_idx + self.downtime_steps
            crashed.append(node.name)
            self.crashes += 1
            topo.metrics.inc("fog.churn.crashes")
        return {"crashed": crashed, "revived": revived}

    def stats(self) -> Dict[str, int]:
        return {
            "crashes": self.crashes,
            "revivals": self.revivals,
            "currently_down": len(self._revive_at),
        }
