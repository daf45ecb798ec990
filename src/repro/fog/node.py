"""repro.fog.node — one edge node: kernels it owns, results it remembers.

A :class:`FogNode` is the unit of the topology simulator: it *advertises*
a set of capabilities (the serve layer's batch keys — workload plus
format/model/multiplier), executes named computations for those
capabilities through its own :class:`repro.serve.executor.EngineExecutor`,
and keeps a :class:`~repro.fog.store.ContentStore` of results it has
produced or carried.  Kernel tables themselves come from the process-wide
:data:`repro.engine.registry.REGISTRY` — the in-process analogue of fog
machines sharing one prebuilt ``.npz`` table cache.

Nodes are deliberately passive about routing: the
:class:`~repro.fog.topology.Router` decides where an interest goes; the
node only answers "can I serve this name?" three ways — from cache, by
local execution, or not at all (:meth:`FogNode.answer`, the one answer
path behind both the in-process topology and the fabric's node
processes).  Crashing a node flips ``alive`` and wipes its content store
(volatile memory is what crashes take with them); its advertisement
survives, which is exactly why stale routes need the router's reroute
path.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from ..engine.observe import METRICS, Metrics
from ..engine.registry import REGISTRY
from ..serve.executor import EngineExecutor
from ..serve.protocol import Request
from .names import ComputationName, name_request
from .store import ContentStore

__all__ = ["FogNode", "NodeDown"]


class NodeDown(Exception):
    """An interest reached a node that is not alive (stale route)."""


def _registry_key_of(name: ComputationName) -> Optional[tuple]:
    """The registry table key whose digest names this computation's kernel.

    Posit workloads execute over the registry's codec value tables; approx
    LUTs live inside the executor, so their provenance stays unnamed.
    """
    params = dict(name.params)
    if name.workload in ("posit_matmul", "nn_predict") and "bits" in params:
        return ("posit", int(params["bits"]), int(params["es"]), "values")
    return None


class FogNode:
    """One simulated edge node (capabilities + executor + content store)."""

    def __init__(
        self,
        name: str,
        capabilities: FrozenSet[Tuple] = frozenset(),
        executor: Optional[EngineExecutor] = None,
        store: Optional[ContentStore] = None,
        metrics: Optional[Metrics] = None,
    ):
        self.name = str(name)
        self.capabilities = frozenset(capabilities)
        self.executor = executor if executor is not None else EngineExecutor()
        self.store = store if store is not None else ContentStore()
        self.metrics = metrics if metrics is not None else METRICS
        self.alive = True
        self.executions = 0
        self.crashes = 0
        self._exec_locks: Dict[Tuple, threading.Lock] = {}
        self._exec_locks_guard = threading.Lock()

    # ------------------------------------------------------------------
    def serves(self, batch_key: Tuple) -> bool:
        return batch_key in self.capabilities

    def advertise(self, batch_key: Tuple) -> None:
        """Add a capability (the topology's lazy assignment hook)."""
        self.capabilities = self.capabilities | {batch_key}

    # ------------------------------------------------------------------
    def lookup(self, name: ComputationName) -> Optional[np.ndarray]:
        """The cached result for ``name``, or ``None`` (counts hit/miss)."""
        if not self.alive:
            raise NodeDown(self.name)
        result = self.store.get(name.uri())
        if result is not None:
            self.metrics.inc(f"fog.node.{self.name}.cache_hits")
        else:
            self.metrics.inc(f"fog.node.{self.name}.cache_misses")
        return result

    def answer(self, name: ComputationName, request: Request) -> Optional[Tuple[np.ndarray, str]]:
        """Answer one interest: ``(result, "cache" | "exec")``, or ``None``.

        Lookup, then execution if this node owns the capability, else
        decline.  Executions of one capability serialize on a lock, and an
        interest that queued behind a duplicate finds its result in the
        store instead of executing again (node-side singleflight).
        Raises :class:`NodeDown` when down, or whatever the engine raised.
        """
        cached = self.lookup(name)
        if cached is not None:
            return cached, "cache"
        key = request.batch_key()
        if not self.serves(key):
            return None
        with self._exec_locks_guard:
            lock = self._exec_locks.setdefault(key, threading.Lock())
        with lock:
            if name.uri() in self.store:
                cached = self.lookup(name)
                if cached is not None:
                    return cached, "cache"
            return self.execute(request), "exec"

    def execute(self, request: Request) -> np.ndarray:
        """Execute one named computation locally and cache the result.

        Raises whatever the engine raises (``DeadlineExceeded``,
        ``ProtocolError``, …) — execution errors are the caller's to
        answer, only *successes* are worth naming and caching.
        """
        if not self.alive:
            raise NodeDown(self.name)
        key = request.batch_key()
        started = time.perf_counter()
        results = self.executor.execute(key, [request])
        result = results[0]
        if isinstance(result, Exception):
            raise result
        cost_ms = (time.perf_counter() - started) * 1e3
        self.executions += 1
        self.metrics.inc(f"fog.node.{self.name}.executions")
        self.carry(name_request(request), result, cost_ms=cost_ms)
        return np.asarray(result)

    def carry(
        self,
        name: ComputationName,
        result: np.ndarray,
        cost_ms: Optional[float] = None,
    ) -> None:
        """Cache a result this node produced or forwarded (on-path caching).

        ``cost_ms`` is the producer's measured recompute expense — the
        value the store's admission policy weighs.  Carried entries whose
        producer didn't report one default to the store's unit cost.
        """
        if not self.alive:
            return
        kernel = None
        reg_key = _registry_key_of(name)
        if reg_key is not None:
            kernel = REGISTRY.content_digest(reg_key)
        cost = 1.0 if cost_ms is None else float(cost_ms)
        if self.store.put(name.uri(), result, kernel_digest=kernel, cost=cost):
            self.metrics.inc(f"fog.node.{self.name}.cache_insertions")

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the node down and lose its volatile state."""
        self.alive = False
        self.crashes += 1
        self.store.clear()
        self.metrics.inc(f"fog.node.{self.name}.crashes")

    def revive(self) -> None:
        self.alive = True

    def close(self) -> None:
        self.executor.close()

    def restart(self) -> None:
        self.executor.restart()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "alive": self.alive,
            "capabilities": sorted("/".join(str(p) for p in key) for key in self.capabilities),
            "executions": self.executions,
            "crashes": self.crashes,
            "store": self.store.stats(),
        }

    def __repr__(self):
        state = "up" if self.alive else "DOWN"
        return f"FogNode({self.name!r}, {state}, caps={len(self.capabilities)})"
