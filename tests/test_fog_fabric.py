"""Cross-process fabric: identity, breakers, budgets, degradation.

The fabric's contract stacks three promises on top of the in-process
fog's: (1) **byte-identity across the process boundary** — a result is
bit-exact against the PR 7 golden vectors whether executed in a node
process, replayed from its content store over the wire, or served by the
degradation rung; (2) **bounded failure cost** — circuit breakers and
deadline budgets mean a dead peer costs fail-fast time, not a timeout per
request; (3) **counted degradation** — when every owner is unreachable
the fabric answers locally and says so in its metrics, never silently.

Process-free classes (breaker state machine, backoff purity, node-server
frame handling, wire codec) run the logic in-process; the golden class
spawns one real fabric per module and drives it over sockets.
"""

import pathlib
import time

import numpy as np
import pytest

from repro.engine.observe import Metrics
from repro.engine.registry import array_digest
from repro.fog import (
    CircuitBreaker,
    FogFabric,
    FogUnavailable,
    FrameAssembler,
    name_request,
    pack_frame,
)
from repro.fog.fabric import retry_backoff_ms
from repro.fog.node import FogNode
from repro.fog.peer import _NodeServer
from repro.fog.supervisor import restart_backoff_s
from repro.serve.executor import DeadlineExceeded, EngineExecutor
from repro.serve.protocol import (
    Request,
    decode_array,
    interest_frame,
    request_from_wire,
    request_to_wire,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "fog_posit8_matmul.npz"

pytestmark = pytest.mark.timeout(300)


def matmul_request(req_id, a, b):
    return Request(
        id=req_id,
        workload="posit_matmul",
        tenant="t",
        bits=8,
        es=2,
        a=np.asarray(a, dtype=np.float64),
        b=np.asarray(b, dtype=np.float64),
        rows=len(a),
    )


def assert_bitexact(got, want, label):
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, label
    assert got.tobytes() == want.tobytes(), f"{label}: outputs differ bytewise"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return data["a"].copy(), data["b"].copy(), data["y"].copy()


# ----------------------------------------------------------------------
# Deterministic jittered backoff (pure functions)
# ----------------------------------------------------------------------
class TestBackoff:
    def test_retry_backoff_is_deterministic(self):
        a = retry_backoff_ms(10.0, 2, "uri-x")
        b = retry_backoff_ms(10.0, 2, "uri-x")
        assert a == b

    def test_retry_backoff_grows_and_jitters_within_envelope(self):
        for attempt in range(4):
            delay = retry_backoff_ms(10.0, attempt, "uri-y", cap_ms=1e9)
            base = 10.0 * 2**attempt
            assert 0.5 * base <= delay < 1.5 * base

    def test_retry_backoff_respects_cap(self):
        assert retry_backoff_ms(10.0, 30, "uri-z", cap_ms=250.0) == 250.0

    def test_retry_backoff_decorrelates_tokens(self):
        delays = {retry_backoff_ms(10.0, 1, f"uri-{i}") for i in range(16)}
        assert len(delays) > 1, "every interest retried in lockstep"

    def test_restart_backoff_same_shape(self):
        assert restart_backoff_s(0.05, 1, "n0") == restart_backoff_s(0.05, 1, "n0")
        assert restart_backoff_s(0.05, 0, "n0") != restart_backoff_s(0.05, 0, "n1")
        assert restart_backoff_s(0.05, 99, "n0", cap_s=5.0) == 5.0


# ----------------------------------------------------------------------
# Circuit breaker state machine (injectable clock, no sockets)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after_s=1.0, clock=clock,
            metrics=Metrics(), name="t", **kw,
        )
        return breaker, clock

    def test_closed_allows_and_failures_below_threshold_stay_closed(self):
        breaker, _ = self.make()
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_threshold_failures_open_the_circuit(self):
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(), "open circuit must fail fast"

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_cooldown_admits_exactly_one_probe(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now += 1.5  # past reset_after_s
        assert breaker.allow(), "first caller after cooldown is the probe"
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow(), "second caller must wait for the probe"

    def test_probe_success_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now += 1.5
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now += 1.5
        assert breaker.allow()
        breaker.record_failure()  # one failed probe is enough
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.now += 1.5
        assert breaker.allow(), "cooldown restarted from the failed probe"

    def test_before_cooldown_stays_open(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now += 0.5  # < reset_after_s
        assert not breaker.allow()

    def test_force_open_and_reset(self):
        breaker, _ = self.make()
        breaker.force_open()
        assert breaker.state == CircuitBreaker.OPEN
        breaker.reset()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()


# ----------------------------------------------------------------------
# Wire format (arrays + requests round-trip bit-identically)
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_array_roundtrip_is_bitexact(self):
        rng = np.random.default_rng(7)
        for arr in (
            rng.normal(size=(3, 4)),
            rng.integers(-100, 100, size=(5,), dtype=np.int64),
            np.array([np.nan, np.inf, -0.0]),
        ):
            assembler = FrameAssembler()
            assembler.feed(pack_frame({"op": "carry", "result": arr}))
            back = decode_array(assembler.next_frame()["result"])
            assert back.dtype == arr.dtype and back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()

    def test_request_roundtrip_preserves_operand_bytes(self):
        rng = np.random.default_rng(9)
        req = matmul_request("w1", rng.normal(size=(2, 3)), rng.normal(size=(3, 2)))
        back = request_from_wire(request_to_wire(req))
        assert back.batch_key() == req.batch_key()
        assert back.a.tobytes() == req.a.tobytes()
        assert back.b.tobytes() == req.b.tobytes()
        assert name_request(back).uri() == name_request(req).uri()


# ----------------------------------------------------------------------
# Node-server frame handling (in-process, no sockets)
# ----------------------------------------------------------------------
class TestNodeServer:
    def make(self):
        node = FogNode(
            "srv", executor=EngineExecutor(metrics=Metrics()), metrics=Metrics()
        )
        return node, _NodeServer(node)

    def test_spent_budget_is_refused_without_executing(self):
        node, server = self.make()
        req = matmul_request("b0", [[1.0, 2.0]], [[3.0], [4.0]])
        node.advertise(req.batch_key())
        resp = server.handle(interest_frame(req, budget_ms=0.0))
        assert not resp["ok"] and resp["error"] == "deadline"
        assert node.executions == 0, "a spent budget must never reach the engine"

    def test_interest_executes_when_owner(self):
        node, server = self.make()
        req = matmul_request("b1", [[1.0, 2.0]], [[3.0], [4.0]])
        node.advertise(req.batch_key())
        resp = server.handle(interest_frame(req, budget_ms=1000.0))
        assert resp["ok"] and resp["source"] == "exec"
        result = decode_array(resp["result"])
        assert resp["digest"] == array_digest(result)
        assert_bitexact(result, [[11.0]], "node-server exec")

    def test_interest_cache_hit_after_exec(self):
        node, server = self.make()
        req = matmul_request("b2", [[1.0, 2.0]], [[3.0], [4.0]])
        node.advertise(req.batch_key())
        first = server.handle(interest_frame(req, budget_ms=1000.0))
        second = server.handle(interest_frame(req, budget_ms=1000.0))
        assert second["source"] == "cache"
        assert second["digest"] == first["digest"]

    def test_non_owner_cant_serve(self):
        _, server = self.make()
        req = matmul_request("b3", [[1.0, 2.0]], [[3.0], [4.0]])
        resp = server.handle(interest_frame(req, budget_ms=1000.0))
        assert not resp["ok"] and resp["error"] == "cant_serve"

    def test_carry_with_good_digest_is_accepted(self):
        node, server = self.make()
        req = matmul_request("b4", [[1.0, 2.0]], [[3.0], [4.0]])
        result = np.array([[11.0]])
        uri = name_request(req).uri()
        from repro.serve.protocol import carry_frame

        resp = server.handle(carry_frame(uri, result, array_digest(result)))
        assert resp["ok"] and resp["accepted"]
        assert node.store.get(uri) is not None

    def test_carry_with_bad_digest_is_refused_and_counted(self):
        node, server = self.make()
        req = matmul_request("b5", [[1.0, 2.0]], [[3.0], [4.0]])
        result = np.array([[11.0]])
        uri = name_request(req).uri()
        from repro.serve.protocol import carry_frame

        frame = carry_frame(uri, result, "0" * 64)  # wrong pinned digest
        before = node.store.integrity_failures
        resp = server.handle(frame)
        assert resp["ok"] and not resp["accepted"]
        assert node.store.integrity_failures == before + 1
        assert node.store.get(uri) is None, "tampered carry must not be cached"

    def test_heartbeat_echoes_seq(self):
        _, server = self.make()
        resp = server.handle({"op": "heartbeat", "seq": 42})
        assert resp["ok"] and resp["seq"] == 42

    def test_unknown_op_is_a_bad_request(self):
        _, server = self.make()
        req = matmul_request("b6", [[1.0, 2.0]], [[3.0], [4.0]])
        interest = interest_frame(req, budget_ms=1000.0)
        # A dict where an array belongs (a base64 {dtype, shape, data}
        # object) is a malformed frame, rejected with ProtocolError's code.
        interest["request"]["a"] = {"dtype": "float64", "shape": [1, 2], "data": ""}
        for frame in ({"op": "nonsense"}, interest):
            resp = server.handle(frame)
            assert not resp["ok"] and resp["error"] == "bad_request", frame


# ----------------------------------------------------------------------
# Degradation ladder + budget exhaustion (fabric logic, processes down)
# ----------------------------------------------------------------------
class TestDegradation:
    def test_unreachable_owners_degrade_to_counted_local_execution(self, golden):
        """With every node unreachable the fabric answers locally — the
        answer is byte-exact and the degradation is counted, not silent."""
        a, b, y = golden
        metrics = Metrics()
        fab = FogFabric(nodes=2, metrics=metrics, start=False)
        try:
            for i in range(len(a)):
                got = fab.submit(matmul_request(f"deg{i}", a[i], b[i]))
                assert_bitexact(got, y[i], f"degraded pair {i}")
            assert fab.degraded == len(a)
            assert metrics.counters.get("fabric.degraded_local") == len(a)
        finally:
            fab.close()

    def test_degradation_disabled_raises_unavailable(self):
        fab = FogFabric(nodes=2, degrade_local=False, metrics=Metrics(), start=False)
        try:
            with pytest.raises(FogUnavailable):
                fab.submit(matmul_request("nd", [[1.0, 2.0]], [[3.0], [4.0]]))
            assert fab.unavailable == 1
        finally:
            fab.close()

    def test_spent_budget_raises_deadline_not_degrades(self):
        fab = FogFabric(nodes=2, metrics=Metrics(), start=False)
        try:
            with pytest.raises(DeadlineExceeded):
                fab.submit(
                    matmul_request("sp", [[1.0, 2.0]], [[3.0], [4.0]]),
                    budget_ms=0.0,
                )
            assert fab.degraded == 0, "a spent budget must not burn local compute"
        finally:
            fab.close()

    def test_owner_assignment_matches_in_process_topology(self):
        """Rendezvous owners are a pure function of roster + capability —
        the fabric and the topology must agree on them."""
        from repro.fog import FogTopology

        req = matmul_request("own", [[1.0, 2.0]], [[3.0], [4.0]])
        fab = FogFabric(nodes=4, replicas=2, metrics=Metrics(), start=False)
        try:
            fabric_owners = fab.owners(req.batch_key())
        finally:
            fab.close()
        with FogTopology(nodes=4, replicas=2, metrics=Metrics()) as topo:
            topo_owners = [n.name for n in topo.owners(req.batch_key())]
        assert fabric_owners == topo_owners


# ----------------------------------------------------------------------
# The real thing: spawned node processes behind sockets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fabric():
    metrics = Metrics()
    fab = FogFabric(
        nodes=3, replicas=2, heartbeat_ms=50.0, metrics=metrics,
        retry_backoff_base_ms=5.0,
    )
    try:
        assert fab.wait_all_serving(timeout_s=30.0), "fabric never came up"
        yield fab
    finally:
        fab.close()


class TestFabricGolden:
    def test_results_match_golden_across_the_process_boundary(self, fabric, golden):
        a, b, y = golden
        for i in range(len(a)):
            got = fabric.submit(matmul_request(f"g{i}", a[i], b[i]))
            assert_bitexact(got, y[i], f"fabric pair {i}")
        assert fabric.degraded == 0, "healthy fabric must not degrade"

    def test_replay_is_cached_not_reexecuted(self, fabric, golden):
        a, b, y = golden
        execs_before = fabric.remote_execs
        hits_before = fabric.cache_hits
        for i in range(len(a)):
            got = fabric.submit(matmul_request(f"g2-{i}", a[i], b[i]))
            assert_bitexact(got, y[i], f"fabric replay pair {i}")
        assert fabric.cache_hits > hits_before, "second pass must hit stores"
        assert fabric.remote_execs == execs_before, "replay must not re-execute"

    def test_stats_shape(self, fabric):
        stats = fabric.stats()
        assert set(stats["nodes"]) == {"n0", "n1", "n2"}
        assert stats["serving"] == ["n0", "n1", "n2"]
        for breaker in stats["breakers"].values():
            assert breaker["state"] == "closed"
        assert stats["submitted"] >= stats["completed"] > 0


# ----------------------------------------------------------------------
# Pipelined transport: one multiplexed connection, many in-flight rids
# ----------------------------------------------------------------------
class TestPipelinedTransport:
    def test_responses_echo_request_ids(self, fabric):
        client = fabric.supervisor.client("n0")
        resp = client.call({"op": "stats"})
        assert resp["ok"] and isinstance(resp.get("rid"), int)

    def test_concurrent_calls_demux_to_their_own_callers(self, fabric):
        """16 interests in flight on ONE connection: every caller gets the
        result for *its* operands, byte-exact — rid demux cannot cross
        wires without this failing."""
        import threading

        client = fabric.supervisor.client("n0")
        rng = np.random.default_rng(21)
        pairs = [
            (rng.normal(size=(2, 3)), rng.normal(size=(3, 2))) for _ in range(16)
        ]
        reqs = [matmul_request(f"mux{i}", a, b) for i, (a, b) in enumerate(pairs)]
        for req in reqs:
            client.call({"op": "advertise", "batch_key": list(req.batch_key())})
        results = [None] * len(reqs)
        barrier = threading.Barrier(len(reqs))

        def fire(i):
            barrier.wait()
            results[i] = client.call(
                interest_frame(reqs[i], budget_ms=30000.0),
                timeout_s=30.0,
            )

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(len(reqs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        from repro.engine.posit_backend import PositBackend
        from repro.posit.format import PositFormat

        backend = PositBackend(PositFormat(8, 2), stable_contractions=True)
        for i, (a, b) in enumerate(pairs):
            resp = results[i]
            assert resp is not None and resp["ok"], f"call {i} failed: {resp}"
            want = backend.decode(
                backend.matmul(backend.encode(a), backend.encode(b))
            )
            got = decode_array(resp["result"])
            assert_bitexact(got, want, f"pipelined call {i}")
            assert resp["digest"] == array_digest(got)
        assert client.pending() == 0, "every rid must be retired"

    def test_binary_frames_carry_raw_arrays(self, fabric):
        """The pipelined wire ships tensors as raw bytes: a binary interest
        response decodes its result via the frame assembler, not base64."""
        client = fabric.supervisor.client("n1")
        req = matmul_request("bin0", [[1.0, 2.0]], [[3.0], [4.0]])
        client.call({"op": "advertise", "batch_key": list(req.batch_key())})
        resp = client.call(interest_frame(req, budget_ms=30000.0))
        assert resp["ok"]
        assert isinstance(resp["result"], np.ndarray), (
            "binary framing must restore ndarrays at the assembler, "
            f"got {type(resp['result'])}"
        )
        assert_bitexact(decode_array(resp["result"]), [[11.0]], "binary result")

    def test_timeout_abandons_rid_but_keeps_connection(self, fabric):
        """A timed-out call must not tear the multiplexed connection down:
        the rid is abandoned (late reply counted as orphan) and the very
        next call reuses the same connection generation."""
        client = fabric.supervisor.client("n2")
        rng = np.random.default_rng(33)
        # Big enough that a posit8 matmul cannot finish in 1ms.
        req = matmul_request("slow", rng.normal(size=(48, 48)), rng.normal(size=(48, 48)))
        client.call({"op": "advertise", "batch_key": list(req.batch_key())})
        gen_before = client._generation
        from repro.fog import PeerError

        with pytest.raises(PeerError):
            # A zero wait is decided before the send, so the timeout is
            # deterministic.
            client.call(
                interest_frame(req, budget_ms=30000.0),
                timeout_s=0.0,
            )
        resp = client.call({"op": "stats"}, timeout_s=30.0)
        assert resp["ok"]
        assert client._generation == gen_before, (
            "a slow peer response must not cost a reconnect"
        )
        assert client.pending() == 0

    def test_late_response_is_orphaned_on_a_live_connection(self):
        """Rid abandonment, deterministically: an in-test peer answers the
        first request only after its caller has timed out.  The late
        answer is discarded as an orphan, the connection survives and no
        waiter is left pending."""
        import socket
        import threading

        from repro.fog import PeerClient, PeerError

        timed_out = threading.Event()
        listener = socket.create_server(("127.0.0.1", 0))

        def peer():
            conn, _ = listener.accept()
            with conn:
                assembler = FrameAssembler()
                held = True
                while True:
                    frame = assembler.next_frame()
                    if frame is None:
                        chunk = conn.recv(1 << 16)
                        if not chunk:
                            return
                        assembler.feed(chunk)
                        continue
                    if held:  # answer the first request only once it is abandoned
                        timed_out.wait(30.0)
                        held = False
                    conn.sendall(pack_frame({"ok": True, "rid": frame["rid"]}))

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        metrics = Metrics()
        client = PeerClient("late", listener.getsockname(), metrics=metrics)
        try:
            with pytest.raises(PeerError):
                client.call({"op": "stats"}, timeout_s=0.05)
            gen_before = client._generation
            timed_out.set()
            # The peer answers in order, so by the time this call returns
            # the late answer has reached the demux.
            assert client.call({"op": "stats"}, timeout_s=30.0)["ok"]
            assert client._generation == gen_before
            assert client.pending() == 0
            assert metrics.counters.get("fabric.peer.orphan_responses") == 1
            assert metrics.counters.get("fabric.peer.call_timeouts") == 1
        finally:
            client.close()
            listener.close()
            thread.join(10.0)


# ----------------------------------------------------------------------
# Singleflight interest collapsing
# ----------------------------------------------------------------------
class TestSingleflight:
    def test_duplicate_in_flight_interests_collapse(self, fabric):
        """8 threads submit the same fresh interest at once: one leader
        executes, followers attach and get byte-identical results, and the
        collapse is counted."""
        import threading

        rng = np.random.default_rng(55)
        a, b = rng.normal(size=(48, 48)), rng.normal(size=(48, 48))
        n = 8
        results = [None] * n
        errors = [None] * n
        barrier = threading.Barrier(n)
        collapsed_before = fabric.collapsed
        execs_before = fabric.remote_execs

        def fire(i):
            barrier.wait()
            try:
                results[i] = fabric.submit(matmul_request(f"sf{i}", a, b))
            except Exception as err:  # noqa: BLE001 — surfaced below
                errors[i] = err

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert all(e is None for e in errors), f"singleflight errors: {errors}"
        baseline = results[0].tobytes()
        for i, got in enumerate(results):
            assert got is not None and got.tobytes() == baseline, (
                f"collapsed waiter {i} saw different bytes"
            )
        assert fabric.collapsed > collapsed_before, (
            "concurrent duplicates must collapse, not fan out"
        )
        assert fabric.remote_execs - execs_before < n, (
            "collapsing must save executions"
        )

    def test_topology_collapses_duplicates_too(self):
        """The in-process router honors the same singleflight contract,
        deterministically: the leader's interest is held until every
        follower has attached to its gate, then released."""
        import threading

        from repro.fog.topology import LocalTransport, Router

        class HeldTransport(LocalTransport):
            def __init__(self, nodes, release):
                super().__init__(nodes)
                self.release = release

            def interest(self, *args, **kwargs):
                assert self.release.wait(60.0), "leader never released"
                return super().interest(*args, **kwargs)

        metrics = Metrics()
        nodes = [
            FogNode(f"n{i}", executor=EngineExecutor(metrics=metrics), metrics=metrics)
            for i in range(3)
        ]
        release = threading.Event()
        router = Router(HeldTransport(nodes, release), replicas=2, metrics=metrics)
        n = 6
        results = [None] * n
        errors = [None] * n

        def fire(i):
            try:
                req = matmul_request(f"tsf{i}", [[1.0, 2.0]], [[3.0], [4.0]])
                results[i] = router.submit(req)
            except Exception as err:  # noqa: BLE001 — surfaced below
                errors[i] = err

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60.0
            while router.collapsed < n - 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()
            for t in threads:
                t.join(60.0)
        finally:
            release.set()
            for node in nodes:
                node.close()
        assert all(e is None for e in errors), f"singleflight errors: {errors}"
        assert all(r is not None and r.tobytes() == results[0].tobytes() for r in results)
        assert router.collapsed == n - 1
        assert metrics.counters.get("fog.collapsed") == n - 1
        assert sum(node.executions for node in nodes) == 1, "one execution for one name"
