"""repro.fog — named-function fog routing with content-addressed caching.

The paper's deployment shape (PAPER.md: many small posit-arithmetic nodes
near the data), following the NFN pattern: computations are *named* —
workload, parameters, and the sha256 content digests of their operands
(:mod:`repro.fog.names`) — and the fog routes each interest to a node that
owns the kernel, caches the result under its name (:mod:`repro.fog.store`),
and re-routes around node loss.

One :class:`~repro.fog.topology.Router` holds the routing policy —
rendezvous ownership, singleflight, deadline budget, retries and hedging,
reverse-path carry, local degradation, counters — and reaches nodes
through a transport (the mechanism).  The two deployments are the two
ways to build it:

* :class:`FogTopology` — in-process :class:`FogNode`\\ s
  (:class:`~repro.fog.topology.LocalTransport`);
* :class:`FogFabric` — supervised node processes behind sockets
  (:class:`~repro.fog.fabric.PeerTransport`: heartbeats, circuit
  breakers, wire digest checks, warm-restart journal).

On the node side both answer through :meth:`FogNode.answer`.

Quickstart::

    import numpy as np
    from repro.fog import FogTopology
    from repro.serve.protocol import parse_request

    topo = FogTopology(nodes=4, replicas=2)
    req = parse_request({
        "id": "r1", "workload": "posit_matmul", "bits": 8, "es": 2,
        "a": [[1.0, 2.0]], "b": [[3.0], [4.0]],
    })
    y1 = topo.submit(req)      # executed at the owning node
    y2 = topo.submit(req)      # served from a content store, bit-identical
    assert y1.tobytes() == y2.tobytes()
    print(topo.stats()["cache_hits"])    # 1

Guarantees the tests pin:

* **Routing identity** — a result is byte-identical whether computed
  locally, forwarded across nodes or processes, or replayed from any
  content store (``tests/test_fog_identity.py``,
  ``tests/test_fog_fabric.py``, golden-vector backed).
* **One policy** — the same request script through both transports gives
  the same bytes and the same hit/collapse/execution/carry counts
  (``tests/test_fog_router.py``).
* **Churn safety** — under :class:`~repro.engine.faults.ChaosPlan` node
  churn or SIGKILLed node processes, every completed computation is still
  bit-exact; what the fog cannot serve it rejects with
  :class:`FogUnavailable`, never answers wrongly (``tests/test_fog_churn.py``,
  ``tests/test_fog_fabric_chaos.py``).

The serve front end dispatches into a fog with
``ServeConfig(fog_nodes=N)`` (plus ``fog_fabric=True`` for node processes;
see :class:`repro.fog.executor.FogExecutor`).
"""

from .executor import FogExecutor
from .fabric import FogFabric
from .frames import FrameAssembler, pack_frame, unpack_frame
from .names import ComputationName, name_request
from .node import FogNode, NodeDown
from .peer import CircuitBreaker, PeerClient, PeerError
from .store import (
    AdmissionPolicy,
    AdmitAll,
    ContentStore,
    CostAwareAdmission,
    make_admission,
)
from .supervisor import FabricSupervisor
from .topology import ChurnDriver, FogTopology, FogUnavailable, Router

__all__ = [
    "ComputationName",
    "name_request",
    "AdmissionPolicy",
    "AdmitAll",
    "ContentStore",
    "CostAwareAdmission",
    "make_admission",
    "FogNode",
    "NodeDown",
    "Router",
    "FogTopology",
    "FogUnavailable",
    "ChurnDriver",
    "FogExecutor",
    "FogFabric",
    "FabricSupervisor",
    "CircuitBreaker",
    "PeerClient",
    "PeerError",
    "FrameAssembler",
    "pack_frame",
    "unpack_frame",
]
