"""repro.fog.executor — dispatch the serve front end into a fog topology.

:class:`FogExecutor` is a drop-in for the serve layer's
:class:`~repro.serve.executor.EngineExecutor` contract (``execute(key,
requests) -> list``, ``close``, ``restart``, ``stats``): the TCP front
end's dynamic batcher hands it a coalesced batch, and the batch routes
through the fog :class:`~repro.fog.topology.Router` as one batch of named
computations (:meth:`~repro.fog.topology.Router.submit_batch`) — duplicates
collapsed, one interest per ingress node, cache hits served without
re-execution, owned misses executed together at the node, dead owners
rerouted around.  Enable it on a server with
``ServeConfig(fog_nodes=N)`` or ``python -m repro.serve --fog-nodes N``.

Results are byte-identical to direct :class:`EngineExecutor` execution
(the fog nodes *are* engine executors, and the content store replays
verified bytes), so the serving layer's coalescing contract survives the
indirection untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine.observe import METRICS, Metrics
from ..serve.protocol import ProtocolError, Request
from .topology import FogTopology, FogUnavailable, Router

__all__ = ["FogExecutor"]


class FogExecutor:
    """Serve-executor adapter over a fog :class:`~repro.fog.topology.Router`.

    Parameters:
        topology: An existing fog to serve through (a :class:`FogTopology`
            or :class:`~repro.fog.fabric.FogFabric`), or ``None`` to build
            a :class:`FogTopology` from the remaining arguments.
        nodes / replicas / executor_opts / store_policy / store_reverify:
            Forwarded to :class:`FogTopology` when ``topology`` is ``None``.
    """

    def __init__(
        self,
        topology: Optional[Router] = None,
        nodes: int = 4,
        replicas: int = 2,
        metrics: Optional[Metrics] = None,
        executor_opts: Optional[dict] = None,
        store_policy: str = "lru",
        store_reverify: int = 1,
    ):
        self.metrics = metrics if metrics is not None else METRICS
        self.topology = (
            topology
            if topology is not None
            else FogTopology(
                nodes=nodes,
                replicas=replicas,
                metrics=self.metrics,
                executor_opts=executor_opts,
                store_policy=store_policy,
                store_reverify=store_reverify,
            )
        )
        self.executed = 0

    # ------------------------------------------------------------------
    def execute(self, key: Tuple, requests: List[Request]) -> List[object]:
        """Route the batch through the fog; one result or exception each.

        Mirrors :meth:`EngineExecutor.execute`'s resolve-don't-drop
        contract: a failing request (deadline, engine error, no alive
        owner) resolves to its exception without poisoning batch mates.
        """
        results = [
            # Surface as a coded wire error ("unavailable"), not an
            # internal fault: the client may retry once churn settles.
            ProtocolError(str(result), code="unavailable") if isinstance(result, FogUnavailable) else result
            for result in self.topology.submit_batch(requests)
        ]
        self.executed += len(requests)
        self.metrics.inc("fog.serve_dispatches", len(requests))
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.topology.close()

    def restart(self) -> None:
        self.topology.restart()

    def stats(self) -> Dict[str, object]:
        return {
            "executed": self.executed,
            "fog": self.topology.stats(),
        }
