"""Unit tests for the fog layer: names, content store, node, routing.

The properties that make the fog *trustworthy* rather than merely
plumbed: computation names are canonical and collision-honest, the
content store never serves bytes that fail their own digest, and the
topology's rendezvous routing is deterministic, cache-transparent and
metric-observable.
"""

import numpy as np
import pytest

from repro.engine import REGISTRY, array_digest
from repro.engine.observe import Metrics
from repro.engine.posit_backend import PositBackend
from repro.fog import (
    ComputationName,
    ContentStore,
    FogNode,
    FogTopology,
    FogUnavailable,
    NodeDown,
    name_request,
)
from repro.posit.format import PositFormat
from repro.serve.protocol import parse_request

pytestmark = pytest.mark.timeout(120)


def matmul_request(a, b, req_id="r", bits=8, es=2, tenant="t"):
    return parse_request(
        {
            "id": req_id,
            "workload": "posit_matmul",
            "tenant": tenant,
            "bits": bits,
            "es": es,
            "a": np.asarray(a).tolist(),
            "b": np.asarray(b).tolist(),
        }
    )


def direct_posit_matmul(a, b, bits=8, es=2):
    backend = PositBackend(PositFormat(bits, es), stable_contractions=True)
    return backend.decode(backend.matmul(backend.encode(a), backend.encode(b)))


# ----------------------------------------------------------------------
# Content naming
# ----------------------------------------------------------------------
class TestComputationName:
    def test_name_is_content_not_identity(self):
        """Same payload, different id/tenant -> same name; different
        payload -> different name."""
        a = [[1.0, 2.0]]
        b = [[3.0], [4.0]]
        n1 = name_request(matmul_request(a, b, req_id="x", tenant="t1"))
        n2 = name_request(matmul_request(a, b, req_id="y", tenant="t2"))
        assert n1 == n2 and n1.uri() == n2.uri()
        n3 = name_request(matmul_request([[1.0, 2.5]], b))
        assert n3 != n1
        n4 = name_request(matmul_request(a, b, bits=16))
        assert n4 != n1

    def test_uri_round_trips(self):
        req = matmul_request([[1.0, 2.0]], [[3.0], [4.0]])
        name = name_request(req)
        assert ComputationName.parse(name.uri()) == name
        assert name.uri().startswith("/fog/exec/posit_matmul/bits=8;es=2/sha256:")

    def test_all_workloads_nameable(self):
        nn = parse_request(
            {
                "id": "n",
                "workload": "nn_predict",
                "model": "kws1",
                "x": np.zeros((1, 31, 20)).tolist(),
            }
        )
        ax = parse_request(
            {
                "id": "a",
                "workload": "approx_matmul",
                "mult": "trunc6",
                "a": [[1, 2]],
                "b": [[3], [4]],
            }
        )
        assert "model=kws1" in name_request(nn).uri()
        assert "mult=trunc6" in name_request(ax).uri()
        # nn names hash the sample tensor; approx names hash both operands.
        assert len(name_request(nn).inputs) == 1
        assert len(name_request(ax).inputs) == 2

    def test_parse_rejects_malformed(self):
        for bad in (
            "/not/fog",
            "/fog/exec/op",
            "/fog/exec/op/bits=8/sha256:short",
            "/fog/exec/op/noequals/sha256:" + "0" * 64,
        ):
            with pytest.raises(ValueError):
                ComputationName.parse(bad)

    def test_digest_matches_registry_scheme(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        req = matmul_request(arr, np.ones((4, 2)))
        assert name_request(req).inputs[0] == array_digest(arr)


# ----------------------------------------------------------------------
# Content store
# ----------------------------------------------------------------------
class TestContentStore:
    def test_put_get_replays_exact_bytes(self):
        store = ContentStore()
        y = np.random.default_rng(0).normal(size=(4, 3))
        assert store.put("/fog/exec/x", y)
        got = store.get("/fog/exec/x")
        assert got.tobytes() == y.tobytes()
        assert not got.flags.writeable, "cached results must be immutable"
        assert store.hits == 1 and store.misses == 0

    def test_insertion_copies_source(self):
        store = ContentStore()
        y = np.ones((2, 2))
        store.put("n", y)
        y[:] = 7.0  # mutate the caller's array after insertion
        assert store.get("n").tobytes() == np.ones((2, 2)).tobytes()

    def test_lru_eviction_respects_budget(self):
        one_kb = np.zeros(128)  # 1024 bytes of float64
        store = ContentStore(capacity_bytes=3 * 1024)
        for i in range(4):
            store.put(f"n{i}", one_kb)
        assert len(store) == 3 and store.evictions == 1
        assert store.get("n0") is None, "oldest entry evicted"
        # Recency refresh: touching n1 makes n2 the next victim.
        store.get("n1")
        store.put("n4", one_kb)
        assert store.get("n2") is None and store.get("n1") is not None

    def test_oversized_result_not_cached(self):
        store = ContentStore(capacity_bytes=64)
        assert not store.put("big", np.zeros(1000))
        assert len(store) == 0

    def test_corrupt_entry_detected_never_served(self):
        store = ContentStore()
        store.put("n", np.ones(8))
        entry = store._entries["n"]
        tampered = np.array(entry.result)
        tampered[0] = -1.0  # bit rot after insertion
        entry.result = tampered
        assert store.get("n") is None
        assert store.integrity_failures == 1 and "n" not in store

    def test_clear_loses_entries_keeps_stats(self):
        store = ContentStore()
        store.put("n", np.ones(4))
        store.get("n")
        store.clear()
        assert len(store) == 0 and store.resident_bytes == 0
        assert store.hits == 1 and store.insertions == 1


# ----------------------------------------------------------------------
# Node behaviour
# ----------------------------------------------------------------------
class TestFogNode:
    def test_execute_caches_under_name(self):
        metrics = Metrics()
        req = matmul_request([[1.0, 2.0]], [[3.0], [4.0]])
        node = FogNode("n0", capabilities={req.batch_key()}, metrics=metrics)
        y = node.execute([(name_request(req), req)])[0]
        assert y.tobytes() == direct_posit_matmul([[1.0, 2.0]], [[3.0], [4.0]]).tobytes()
        cached = node.lookup(name_request(req))
        assert cached is not None and cached.tobytes() == y.tobytes()
        assert metrics.counters["fog.node.n0.executions"] == 1
        assert metrics.counters["fog.node.n0.cache_hits"] == 1

    def test_cached_result_records_kernel_provenance(self):
        req = matmul_request([[1.0, 2.0]], [[3.0], [4.0]])
        node = FogNode("n0", capabilities={req.batch_key()}, metrics=Metrics())
        node.execute([(name_request(req), req)])
        kernel = node.store.kernel_digest(name_request(req).uri())
        # Execution makes the posit<8,2> codec tables resident, so the
        # entry names the exact kernel bytes it ran over.
        assert kernel == REGISTRY.content_digest(("posit", 8, 2, "values"))
        assert kernel is not None and len(kernel) == 64

    def test_dead_node_serves_nothing_and_loses_cache(self):
        req = matmul_request([[1.0, 2.0]], [[3.0], [4.0]])
        node = FogNode("n0", capabilities={req.batch_key()}, metrics=Metrics())
        node.execute([(name_request(req), req)])
        node.crash()
        with pytest.raises(NodeDown):
            node.lookup(name_request(req))
        with pytest.raises(NodeDown):
            node.execute([(name_request(req), req)])
        node.revive()
        assert node.lookup(name_request(req)) is None, "crash wipes the store"


# ----------------------------------------------------------------------
# Topology routing
# ----------------------------------------------------------------------
class TestFogTopologyRouting:
    def test_owner_assignment_deterministic_and_replicated(self):
        t1 = FogTopology(nodes=5, replicas=2, metrics=Metrics())
        t2 = FogTopology(nodes=5, replicas=2, metrics=Metrics())
        key = ("posit_matmul", 8, 2)
        assert [n.name for n in t1.owners(key)] == [n.name for n in t2.owners(key)]
        assert len(t1.owners(key)) == 2
        for owner in t1.owners(key):
            assert owner.serves(key)

    def test_forward_to_owner_and_cache_hit_scaling(self):
        metrics = Metrics()
        topo = FogTopology(nodes=4, replicas=1, metrics=metrics)
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        req = matmul_request(a, b)
        want = direct_posit_matmul(a, b).tobytes()
        # One full round-robin of ingress nodes: exactly one execution,
        # every later submission a cache hit (owner store or repopulated
        # reverse path), all byte-identical.
        results = [topo.submit(req) for _ in range(8)]
        assert all(r.tobytes() == want for r in results)
        total_execs = sum(n.executions for n in topo.nodes)
        assert total_execs == 1, "the name must execute once, then replay"
        assert topo.cache_hits == 7
        assert topo.forwards >= 1 and metrics.counters["fog.forwards"] >= 1

    def test_reverse_path_caching_repopulates_ingress(self):
        topo = FogTopology(nodes=3, replicas=1, metrics=Metrics())
        req = matmul_request([[1.0, 2.0]], [[3.0], [4.0]])
        name = name_request(req)
        owner = topo.owners(req.batch_key())[0]
        ingress = next(n for n in topo.nodes if n.name != owner.name)
        topo.submit(req, ingress=ingress.name)
        # The result rode the reverse path: the ingress now holds it too.
        assert ingress.store.get(name.uri()) is not None

    def test_explicit_ingress_local_execution_no_forward(self):
        topo = FogTopology(nodes=3, replicas=1, metrics=Metrics())
        req = matmul_request([[1.0, 2.0]], [[3.0], [4.0]])
        owner = topo.owners(req.batch_key())[0]
        topo.submit(req, ingress=owner.name)
        assert topo.forwards == 0 and owner.executions == 1

    def test_reroute_on_owner_loss_and_repopulation(self):
        metrics = Metrics()
        topo = FogTopology(nodes=4, replicas=2, metrics=metrics)
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
        req = matmul_request(a, b)
        want = direct_posit_matmul(a, b).tobytes()
        primary, secondary = topo.owners(req.batch_key())
        ingress = next(
            n for n in topo.nodes if n.name not in (primary.name, secondary.name)
        )
        assert topo.submit(req, ingress=ingress.name).tobytes() == want
        # Kill the primary (cache and all); the same interest reroutes to
        # the surviving replica and still answers bit-identically.
        topo.crash(primary.name)
        assert topo.submit(req, ingress=ingress.name).tobytes() == want
        # The ingress was repopulated on the first walk, so that submission
        # hit its local store; force a fresh walk from a cold node.
        cold = secondary if ingress.name != secondary.name else primary
        topo.node(ingress.name).store.clear()
        assert topo.submit(req, ingress=ingress.name).tobytes() == want
        assert topo.reroutes >= 1 and metrics.counters["fog.reroutes"] >= 1
        # Revive: the primary comes back empty and repopulates from traffic.
        topo.revive(primary.name)
        assert primary.store.stats()["entries"] == 0
        assert topo.submit(req, ingress=primary.name).tobytes() == want

    def test_all_owners_down_rejects_never_fabricates(self):
        topo = FogTopology(nodes=3, replicas=1, metrics=Metrics())
        req = matmul_request([[1.0, 2.0]], [[3.0], [4.0]])
        owner = topo.owners(req.batch_key())[0]
        topo.crash(owner.name)
        with pytest.raises(FogUnavailable):
            topo.submit(req)
        assert topo.unavailable == 1

    def test_distinct_formats_route_independently(self):
        topo = FogTopology(nodes=4, replicas=1, metrics=Metrics())
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
        for bits in (6, 8, 10):
            req = matmul_request(a, b, bits=bits)
            got = topo.submit(req)
            assert got.tobytes() == direct_posit_matmul(a, b, bits=bits).tobytes()
        assert len(topo.stats()["capabilities"]) == 3

    def test_stats_shape(self):
        topo = FogTopology(nodes=2, replicas=1, metrics=Metrics())
        req = matmul_request([[1.0]], [[1.0]])
        topo.submit(req)
        s = topo.stats()
        assert s["submitted"] == s["completed"] == 1
        assert set(s["nodes"]) == {"n0", "n1"}
        for node_stats in s["nodes"].values():
            assert {"alive", "executions", "store", "capabilities"} <= set(node_stats)


# ----------------------------------------------------------------------
# Serve integration: the FogExecutor adapter
# ----------------------------------------------------------------------
class TestFogExecutor:
    def test_matches_direct_engine_executor(self):
        from repro.fog import FogExecutor
        from repro.serve.executor import EngineExecutor

        rng = np.random.default_rng(17)
        reqs = [
            matmul_request(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)), f"r{i}")
            for i in range(4)
        ]
        key = reqs[0].batch_key()
        fog = FogExecutor(nodes=3, metrics=Metrics())
        direct = EngineExecutor(metrics=Metrics())
        try:
            got = fog.execute(key, reqs)
            want = direct.execute(key, reqs)
            for g, w in zip(got, want):
                assert not isinstance(g, Exception), g
                assert g.tobytes() == w.tobytes()
            assert fog.stats()["executed"] == 4
            assert fog.stats()["fog"]["submitted"] == 4
        finally:
            fog.close()
            direct.close()

    def test_unavailable_resolves_not_raises(self):
        """Dead owners resolve a request to a coded error; batch mates
        keep their results — the resolve-don't-drop contract."""
        from repro.fog import FogExecutor
        from repro.serve.protocol import ProtocolError

        fog = FogExecutor(nodes=2, replicas=1, metrics=Metrics())
        try:
            req8 = matmul_request([[1.0, 2.0]], [[3.0], [4.0]], "a", bits=8)
            req6 = matmul_request([[1.0, 2.0]], [[3.0], [4.0]], "b", bits=6)
            # Kill only posit<6,2>'s owner (crash both if they coincide
            # with posit<8,2>'s — then revive the posit8 one).
            owner6 = fog.topology.owners(req6.batch_key())[0]
            owner8 = fog.topology.owners(req8.batch_key())[0]
            fog.topology.crash(owner6.name)
            if owner6.name == owner8.name:
                results = fog.execute(req6.batch_key(), [req6])
                assert isinstance(results[0], ProtocolError)
                assert results[0].code == "unavailable"
            else:
                results = fog.execute(req6.batch_key(), [req6]) + fog.execute(
                    req8.batch_key(), [req8]
                )
                assert isinstance(results[0], ProtocolError)
                assert results[0].code == "unavailable"
                assert not isinstance(results[1], Exception)
        finally:
            fog.close()

    def test_serve_config_fog_nodes_end_to_end(self):
        """A fog-backed server answers over real sockets, byte-for-byte."""
        import asyncio

        from repro.serve import ReproServer, ServeClient, ServeConfig

        async def go():
            rng = np.random.default_rng(19)
            a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
            config = ServeConfig(fog_nodes=3, fog_replicas=1)
            async with ReproServer(config, metrics=Metrics()) as server:
                async with await ServeClient.connect(*server.address) as client:
                    first = await client.request(
                        workload="posit_matmul", a=a.tolist(), b=b.tolist()
                    )
                    again = await client.request(
                        workload="posit_matmul", a=a.tolist(), b=b.tolist()
                    )
                stats = server.describe()
            assert first["ok"], first
            assert first["result"] == direct_posit_matmul(a, b).tolist()
            assert again["result"] == first["result"]
            fog_stats = stats["executor"]["fog"]
            assert fog_stats["submitted"] == 2
            assert fog_stats["cache_hits"] >= 1, "repeat must replay from cache"

        asyncio.run(go())
