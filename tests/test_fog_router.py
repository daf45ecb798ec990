"""One routing policy, two transports: the Router contract.

:class:`~repro.fog.topology.FogTopology` (in-process nodes) and
:class:`~repro.fog.fabric.FogFabric` (node processes behind sockets) are
the same :class:`~repro.fog.topology.Router` over different transports.
So one seeded request script — cold misses, repeats, and concurrent
duplicates across two capabilities — must give the same bytes *and* the
same routing decisions on both: equal deltas of cache hits, collapsed
followers, executions and reverse-path carries.

Concurrent duplicates are made deterministic by a transport wrapper that
holds every interest until all followers have attached to the leader's
singleflight gate.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine.observe import Metrics
from repro.engine.posit_backend import PositBackend
from repro.fog import FogFabric, FogTopology
from repro.posit.format import PositFormat
from repro.serve.protocol import Request

pytestmark = pytest.mark.timeout(300)

#: Two capabilities: posit<8,2> and posit<6,2> matmuls.
BITS = (8, 6)
DUPLICATES = 4


def matmul_request(req_id, a, b, bits):
    return Request(
        id=req_id, workload="posit_matmul", tenant="t", bits=bits, es=2,
        a=np.asarray(a, dtype=np.float64), b=np.asarray(b, dtype=np.float64),
        rows=len(a),
    )


def direct(a, b, bits):
    backend = PositBackend(PositFormat(bits, 2), stable_contractions=True)
    return backend.decode(backend.matmul(backend.encode(a), backend.encode(b)))


class HeldTransport:
    """Delegates to a transport; ``hold()`` parks interests until ``release()``."""

    def __init__(self, inner):
        self.inner = inner
        self._open = threading.Event()
        self._open.set()

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def hold(self):
        self._open.clear()

    def release(self):
        self._open.set()

    def interest(self, *args, **kwargs):
        assert self._open.wait(60.0), "held interest never released"
        return self.inner.interest(*args, **kwargs)


def counters(router):
    return {
        "cache_hits": router.cache_hits,
        "collapsed": router.collapsed,
        "executions": router.remote_execs,
        "carries": router.metrics.counters.get(f"{router.prefix}.repopulations", 0),
    }


def collapse(router, requests):
    """Submit ``requests`` (one name) concurrently, leader held until every
    follower attached; returns their results in order."""
    held = router.transport
    before = router.collapsed
    results = [None] * len(requests)
    errors = []

    def fire(i):
        try:
            results[i] = router.submit(requests[i])
        except Exception as err:  # noqa: BLE001 — surfaced below
            errors.append(err)

    held.hold()
    threads = [threading.Thread(target=fire, args=(i,)) for i in range(len(requests))]
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60.0
        while router.collapsed - before < len(requests) - 1 and time.monotonic() < deadline:
            time.sleep(0.001)
    finally:
        held.release()
        for t in threads:
            t.join(60.0)
    assert not errors, errors
    return results


def run_script(router, seed=41):
    """The request script; returns (result bytes in order, counter deltas)."""
    router.transport = HeldTransport(router.transport)
    rng = np.random.default_rng(seed)
    pairs = {
        bits: [(rng.normal(size=(3, 4)), rng.normal(size=(4, 2))) for _ in range(4)]
        for bits in BITS
    }
    before = counters(router)
    out = []

    def submit(tag, bits, j):
        a, b = pairs[bits][j]
        got = router.submit(matmul_request(f"{tag}-{bits}-{j}", a, b, bits))
        assert got.tobytes() == direct(a, b, bits).tobytes(), f"{tag} {bits} {j}"
        out.append(got.tobytes())

    for bits in BITS:  # cold misses
        for j in range(3):
            submit("miss", bits, j)
    for bits in BITS:  # repeats: hits at the ingress or an owner
        for j in range(3):
            submit("again", bits, j)
    for bits in BITS:  # concurrent duplicates of one fresh name
        a, b = pairs[bits][3]
        reqs = [matmul_request(f"dup{i}", a, b, bits) for i in range(DUPLICATES)]
        results = collapse(router, reqs)
        out.extend(r.tobytes() for r in results)
    for bits in BITS:  # and once more, now warm everywhere it was carried
        for j in range(4):
            submit("warm", bits, j)
    after = counters(router)
    return out, {k: after[k] - before[k] for k in after}


def test_both_transports_route_identically():
    with FogTopology(nodes=3, replicas=2, metrics=Metrics()) as topo:
        topo_bytes, topo_deltas = run_script(topo)
        assert sum(n.executions for n in topo.nodes) == topo_deltas["executions"]
    fab = FogFabric(nodes=3, replicas=2, metrics=Metrics())
    try:
        assert fab.wait_all_serving(timeout_s=60.0), "fabric never came up"
        fab_bytes, fab_deltas = run_script(fab)
        assert fab.degraded == 0 and fab.retries_used == 0
    finally:
        fab.close()
    assert fab_bytes == topo_bytes, "the transports answered different bytes"
    assert fab_deltas == topo_deltas
    # The script exercised every path it claims to.
    assert topo_deltas["collapsed"] == len(BITS) * (DUPLICATES - 1)
    # Every name executed at least once (an owner entered cold may
    # execute a name its co-owner already holds).
    assert topo_deltas["executions"] >= len(BITS) * 4
    assert topo_deltas["cache_hits"] > 0 and topo_deltas["carries"] > 0
