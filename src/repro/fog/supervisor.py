"""repro.fog.supervisor — spawn, watch, and restart fabric node processes.

The :class:`FabricSupervisor` owns the operating-system half of the
fabric: it spawns each :func:`repro.fog.peer.node_main` node as a real
``multiprocessing`` (spawn-context) process, collects the ephemeral port
each node binds, and runs a monitor thread that turns *liveness* from an
attribute into a measurement:

* **Heartbeats** — every ``heartbeat_ms`` the monitor probes each node on
  a throwaway connection.  ``miss_budget`` consecutive misses mark the
  node *suspect*: routing stops sending it interests, but the process is
  left alone (a SIGSTOP-stalled node resumes and is welcomed back the
  moment it answers again).
* **Death detection** — a process that exited (SIGKILL, crash, OOM) is
  restarted with **deterministic jittered exponential backoff**, up to
  ``max_restarts`` per node; past the budget the node stays down and the
  fabric routes around it for good.
* **Warm restart** — after a restart the supervisor fires ``on_up`` so
  the fabric can re-advertise the node's capabilities and replay its hot
  results into the fresh (empty) content store, each carry re-verified
  against its pinned sha256 digest on the way in.  The node is marked
  serving only after ``on_up`` returns.

Everything here is also the chaos surface: :meth:`kill` SIGKILLs a live
node mid-load exactly like ``kill -9`` would, and
:meth:`repro.engine.faults.ChaosPlan.apply_to_process` drives the same
signals from a seeded plan.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional

from ..engine.observe import METRICS, Metrics
from .peer import PeerClient, PeerError
from .peer import node_main as _node_main

__all__ = ["FabricSupervisor", "NodeProcess", "restart_backoff_s"]


def restart_backoff_s(
    base_s: float, restart_idx: int, token: str, cap_s: float = 5.0
) -> float:
    """Jittered exponential restart delay, deterministic per (token, idx).

    Pure function: ``base * 2**idx`` scaled by a hash-derived factor in
    ``[0.5, 1.5)`` and capped — the same shape as the registry's disk
    backoff, so N nodes killed together never stampede their restarts.
    """
    base = float(base_s) * (2 ** int(restart_idx))
    h = zlib.crc32(f"{token}|{restart_idx}".encode()) & 0xFFFFFFFF
    return min(float(cap_s), base * (0.5 + h / 2**32))


class NodeProcess:
    """Supervisor-side record of one fabric node process."""

    def __init__(self, name: str):
        self.name = name
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.client: Optional[PeerClient] = None
        self.port: Optional[int] = None
        self.misses = 0
        self.restarts = 0
        self.kills = 0
        self.serving = False
        self.gave_up = False
        self.restart_due_s: Optional[float] = None
        self.last_ack_s = 0.0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def process_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class FabricSupervisor:
    """Spawn/heartbeat/restart manager for a set of fabric node processes.

    Parameters:
        names: Node names, one process each.
        node_opts: Per-process options passed to ``node_main`` (executor
            options, store capacity, initial capabilities).
        heartbeat_ms / miss_budget: Probe interval and how many
            consecutive missed acks mark a node suspect.
        heartbeat_timeout_s: Per-probe answer deadline.
        restart_backoff_s / max_restarts: Backoff base and per-node
            restart budget for dead processes.
        on_up: Callback ``(name, client)`` fired after every (re)spawn
            and every recovery from suspicion — the fabric's warm-restart
            hook.  The node turns routable only once it returns.
    """

    def __init__(
        self,
        names: List[str],
        node_opts: Optional[dict] = None,
        heartbeat_ms: float = 100.0,
        miss_budget: int = 3,
        heartbeat_timeout_s: float = 1.0,
        restart_backoff_base_s: float = 0.05,
        max_restarts: int = 5,
        spawn_timeout_s: float = 60.0,
        request_timeout_s: float = 30.0,
        metrics: Optional[Metrics] = None,
        on_up: Optional[Callable[[str, PeerClient], None]] = None,
    ):
        if not names:
            raise ValueError("a fabric needs at least one node")
        if miss_budget < 1:
            raise ValueError("miss_budget must be >= 1")
        self.names = [str(n) for n in names]
        self.node_opts = dict(node_opts or {})
        self.heartbeat_ms = float(heartbeat_ms)
        self.miss_budget = int(miss_budget)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.restart_backoff_base_s = float(restart_backoff_base_s)
        self.max_restarts = int(max_restarts)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.request_timeout_s = float(request_timeout_s)
        self.metrics = metrics if metrics is not None else METRICS
        self.on_up = on_up
        self._ctx = multiprocessing.get_context("spawn")
        self._nodes: Dict[str, NodeProcess] = {n: NodeProcess(n) for n in self.names}
        self._lock = threading.Lock()
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._hb_seq = 0
        self.started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every node, wait for their ports, start the monitor."""
        if self.started:
            return
        for name in self.names:
            self._spawn(self._nodes[name])
        self.started = True
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fabric-supervisor", daemon=True
        )
        self._monitor.start()

    def stop(self) -> None:
        """Stop the monitor and terminate every node process."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for rec in self._nodes.values():
            if rec.client is not None:
                rec.client.close()
                rec.client = None
            if rec.process is not None:
                if rec.process.is_alive():
                    rec.process.terminate()
                    rec.process.join(timeout=2.0)
                    if rec.process.is_alive():
                        rec.process.kill()
                        rec.process.join(timeout=2.0)
                rec.process = None
            rec.serving = False
        self.started = False

    def _spawn(self, rec: NodeProcess) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_node_main,
            args=(rec.name, child_conn, self.node_opts),
            name=f"fog-node-{rec.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.spawn_timeout_s):
            process.kill()
            raise RuntimeError(
                f"node {rec.name} did not report its port within "
                f"{self.spawn_timeout_s}s"
            )
        port = int(parent_conn.recv())
        parent_conn.close()
        if rec.client is not None:
            rec.client.close()
        rec.process = process
        rec.port = port
        rec.client = PeerClient(
            rec.name,
            ("127.0.0.1", port),
            request_timeout_s=self.request_timeout_s,
            metrics=self.metrics,
        )
        rec.misses = 0
        rec.restart_due_s = None
        rec.last_ack_s = time.monotonic()
        self.metrics.inc("fabric.spawns")
        # Routable only once the warm restart is done: a node serving an
        # empty store before its hot journal is replayed is not recovered.
        if self.on_up is not None:
            self.on_up(rec.name, rec.client)
        rec.serving = True

    # ------------------------------------------------------------------
    # Monitor: heartbeats + restart-with-backoff
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        interval = self.heartbeat_ms / 1e3
        while not self._stop.wait(interval):
            for rec in self._nodes.values():
                try:
                    self._check(rec)
                except Exception:  # noqa: BLE001 — the monitor must survive
                    self.metrics.inc("fabric.monitor_errors")

    def _check(self, rec: NodeProcess) -> None:
        now = time.monotonic()
        if not rec.process_alive():
            if rec.serving:
                rec.serving = False
                self.metrics.inc("fabric.deaths")
            if rec.gave_up:
                return
            if rec.restart_due_s is None:
                delay = restart_backoff_s(
                    self.restart_backoff_base_s, rec.restarts, rec.name
                )
                rec.restart_due_s = now + delay
                return
            if now < rec.restart_due_s:
                return
            if rec.restarts >= self.max_restarts:
                rec.gave_up = True
                self.metrics.inc("fabric.restart_budget_exhausted")
                return
            rec.restarts += 1
            self.metrics.inc("fabric.restarts")
            try:
                self._spawn(rec)
            except RuntimeError:
                rec.restart_due_s = now + restart_backoff_s(
                    self.restart_backoff_base_s, rec.restarts, rec.name
                )
            return
        # Process is alive: probe it.
        self._hb_seq += 1
        try:
            rec.client.heartbeat(self._hb_seq, timeout_s=self.heartbeat_timeout_s)
        except PeerError:
            rec.misses += 1
            self.metrics.inc("fabric.heartbeat.misses")
            if rec.misses >= self.miss_budget and rec.serving:
                rec.serving = False
                self.metrics.inc("fabric.heartbeat.suspects")
            return
        rec.last_ack_s = time.monotonic()
        recovered = rec.misses >= self.miss_budget or not rec.serving
        rec.misses = 0
        if recovered:
            self.metrics.inc("fabric.heartbeat.recoveries")
            # Welcome-back hook: a node that was suspect (e.g. SIGSTOP)
            # missed any capabilities advertised while it was away —
            # let the fabric re-advertise and replay hot results before
            # routing resumes.
            if self.on_up is not None:
                self.on_up(rec.name, rec.client)
        rec.serving = True

    # ------------------------------------------------------------------
    # Chaos + queries
    # ------------------------------------------------------------------
    def kill(self, name: str) -> Optional[int]:
        """SIGKILL a node process (``kill -9``); returns the pid, if any.

        The monitor notices the death on its next tick and schedules the
        restart — exactly the failure a real edge deployment sees.
        """
        rec = self._nodes[name]
        pid = rec.pid
        if pid is not None and rec.process_alive():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return None
            rec.kills += 1
            self.metrics.inc("fabric.kills")
            return pid
        return None

    def client(self, name: str) -> Optional[PeerClient]:
        return self._nodes[name].client

    def pid(self, name: str) -> Optional[int]:
        return self._nodes[name].pid

    def serving(self, name: str) -> bool:
        """Is this node routable right now (alive process, fresh acks)?"""
        rec = self._nodes[name]
        return rec.serving and rec.process_alive()

    def serving_names(self) -> List[str]:
        return [n for n in self.names if self.serving(n)]

    def all_serving(self) -> bool:
        return all(self.serving(n) for n in self.names)

    def stats(self) -> Dict[str, object]:
        out = {}
        for name, rec in self._nodes.items():
            out[name] = {
                "pid": rec.pid,
                "port": rec.port,
                "serving": self.serving(name),
                "process_alive": rec.process_alive(),
                "misses": rec.misses,
                "restarts": rec.restarts,
                "kills": rec.kills,
                "gave_up": rec.gave_up,
            }
        return out

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False
