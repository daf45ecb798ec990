"""The batch walk: a serve batch reaches the fog as a batch and stays one.

:meth:`Router.submit_batch <repro.fog.topology.Router.submit_batch>` names
every request once, collapses duplicates (inside the batch and against
interests in flight), sends one interest per ingress node before waiting
on any, and lets what an ingress declines walk the per-item owner ladder.
Whatever path an item takes, its bytes must equal direct
:class:`~repro.serve.executor.EngineExecutor` execution, on the
in-process topology and across the fabric's process boundary alike.

Also here: the per-array overhead of the peer wire (memoized dtype names,
one copy per received array) must leave every digest unchanged.
"""

import hashlib
import time

import numpy as np
import pytest

from repro.engine.observe import Metrics
from repro.engine.registry import array_digest
from repro.fog import FogExecutor, FogFabric, FogNode, FogTopology, frames, name_request
from repro.fog.fabric import _frame_groups
from repro.fog.peer import _NodeServer
from repro.serve.executor import DeadlineExceeded, EngineExecutor
from repro.serve.protocol import Request, decode_array, interest_frame

pytestmark = pytest.mark.timeout(300)


def matmul_request(req_id, a, b, bits=8):
    return Request(
        id=req_id, workload="posit_matmul", tenant="t", bits=bits, es=2,
        a=np.asarray(a, dtype=np.float64), b=np.asarray(b, dtype=np.float64),
        rows=len(a),
    )


def fresh_requests(seed, count, size=3, prefix="r"):
    rng = np.random.default_rng(seed)
    return [
        matmul_request(f"{prefix}{i}", rng.normal(size=(size, size + 1)), rng.normal(size=(size + 1, 2)))
        for i in range(count)
    ]


def copy_of(req, req_id):
    return matmul_request(req_id, req.a, req.b, req.bits)


def direct(requests):
    executor = EngineExecutor(metrics=Metrics())
    try:
        return executor.execute(requests[0].batch_key(), requests)
    finally:
        executor.close()


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert not isinstance(g, Exception), f"item {i}: {g!r}"
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), f"item {i}"


def owned_by(router, req):
    return router.owner_names(req.batch_key())


@pytest.fixture(scope="module", params=["topology", "fabric"])
def router(request):
    if request.param == "topology":
        topo = FogTopology(nodes=3, replicas=2, metrics=Metrics())
        yield topo
        topo.close()
        return
    fab = FogFabric(nodes=3, replicas=2, heartbeat_ms=50.0, retry_backoff_base_ms=5.0, metrics=Metrics())
    try:
        assert fab.wait_all_serving(timeout_s=60.0), "fabric never came up"
        yield fab
    finally:
        fab.close()


def settle(router):
    """Fabric only: wait until every node serves again (after a kill)."""
    if isinstance(router, FogFabric):
        assert router.wait_all_serving(timeout_s=60.0), "fabric never recovered"
        router.restart()


# ----------------------------------------------------------------------
# Byte identity of the batch walk, both transports
# ----------------------------------------------------------------------
class TestBatchWalkIdentity:
    def test_mixed_hits_misses_and_duplicates_match_engine(self, router):
        warm = fresh_requests(101, 3, prefix="warm")
        for req in warm:
            # One entry per node (round-robin): every node then holds it,
            # executed, carried, or both.
            for _ in router.transport.names:
                router.submit(req)
        fresh = fresh_requests(102, 3, prefix="fresh")
        batch = [
            copy_of(warm[0], "h0"), fresh[0], copy_of(fresh[0], "d0"),
            copy_of(warm[1], "h1"), fresh[1], fresh[2],
            copy_of(fresh[2], "d2"), copy_of(warm[2], "h2"),
        ]
        before = router.stats()
        got = FogExecutor(topology=router, metrics=Metrics()).execute(batch[0].batch_key(), batch)
        after = router.stats()
        assert_same_bytes(got, direct(batch))
        assert after["submitted"] - before["submitted"] == len(batch)
        assert after["completed"] - before["completed"] == len(batch)
        assert after["collapsed"] - before["collapsed"] == 2, "two in-batch duplicates collapse"
        assert after["cache_hits"] - before["cache_hits"] == 3, "the warm names, and only they, hit"

    def test_non_owner_ingress_forwards_and_carries(self, router):
        reqs = fresh_requests(103, 4, prefix="fw")
        owners = owned_by(router, reqs[0])
        bystander = next(n for n in router.transport.names if n not in owners)
        forwards = router.forwards
        assert_same_bytes(router.submit_batch(reqs, ingress=bystander), direct(reqs))
        assert router.forwards - forwards == len(reqs), "each declined item walks the owner ladder"
        # The answers rode the reverse path: the bystander now hits.
        hits = router.cache_hits
        again = [copy_of(r, f"again-{r.id}") for r in reqs]
        assert_same_bytes(router.submit_batch(again, ingress=bystander), direct(reqs))
        assert router.cache_hits - hits == len(reqs)
        assert router.forwards - forwards == len(reqs), "hits at the ingress forward nothing"

    def test_expired_deadline_rejects_only_its_item(self, router):
        reqs = fresh_requests(104, 3, prefix="dl")
        reqs[1].deadline_s = time.monotonic() - 1.0
        got = FogExecutor(topology=router, metrics=Metrics()).execute(reqs[0].batch_key(), reqs)
        assert isinstance(got[1], DeadlineExceeded)
        want = direct([reqs[0], reqs[2]])
        assert_same_bytes([got[0], got[2]], want)

    def test_node_killed_mid_batch_reroutes_or_degrades(self, router):
        reqs = fresh_requests(105, 6, prefix="kill")
        victim = owned_by(router, reqs[0])[0]
        transport = router.transport
        inner = transport.interest
        killed = []

        in_process = isinstance(router, FogTopology)

        def interest(name, items, hedged=False):
            if name != victim or killed:
                return inner(name, items, hedged=hedged)
            killed.append(name)
            if in_process:  # in-process nodes answer as the interest is sent
                router.crash(name)
                return inner(name, items, hedged=hedged)
            collect = inner(name, items, hedged=hedged)
            router.crash(name)  # SIGKILL after the send, before the answer is read
            return collect

        reroutes = router.reroutes
        transport.interest = interest
        try:
            got = router.submit_batch(reqs, ingress=victim)
        finally:
            del transport.interest
            if in_process:
                router.revive(victim)
            settle(router)
        assert killed == [victim]
        assert_same_bytes(got, direct(reqs))
        if in_process:
            assert router.reroutes - reroutes == len(reqs), "every item rerouted to the replica"


# ----------------------------------------------------------------------
# The node runs owned misses of one capability as one engine batch
# ----------------------------------------------------------------------
class SpyExecutor(EngineExecutor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def execute(self, key, requests):
        self.calls.append(len(requests))
        return super().execute(key, requests)


class TestNodeBatches:
    def test_owned_misses_reach_one_execute_call(self):
        metrics = Metrics()
        topo = FogTopology(nodes=2, replicas=2, metrics=metrics)
        try:
            spy = topo.node("n0").executor = SpyExecutor(metrics=metrics)
            reqs = fresh_requests(106, 5, prefix="spy")
            assert_same_bytes(topo.submit_batch(reqs, ingress="n0"), direct(reqs))
            assert spy.calls == [5]
            assert topo.node("n0").executions == 5
        finally:
            topo.close()

    def test_node_server_answers_a_list_frame_with_one_execution(self):
        metrics = Metrics()
        spy = SpyExecutor(metrics=metrics)
        node = FogNode("srv", executor=spy, metrics=metrics)
        server = _NodeServer(node)
        reqs = fresh_requests(107, 4, prefix="frm")
        node.advertise(reqs[0].batch_key())
        resp = server.handle(interest_frame(reqs, [1000.0, 0.0, 1000.0, 1000.0]))
        answers = resp["answers"]
        assert resp["ok"] and len(answers) == 4
        assert not answers[1]["ok"] and answers[1]["error"] == "deadline"
        assert spy.calls == [3], "the spent item never reaches the engine"
        live = [reqs[0], reqs[2], reqs[3]]
        results = [decode_array(answers[i]["result"]) for i in (0, 2, 3)]
        assert_same_bytes(results, direct(live))
        for i in (0, 2, 3):
            assert answers[i]["source"] == "exec"
            assert answers[i]["digest"] == array_digest(decode_array(answers[i]["result"]))
        again = server.handle(interest_frame(live))["answers"]
        assert [a["source"] for a in again] == ["cache"] * 3
        assert spy.calls == [3]


# ----------------------------------------------------------------------
# Frame budget: a node's group splits so both frames fit
# ----------------------------------------------------------------------
class TestFrameSplit:
    def test_group_split_pure(self, monkeypatch):
        reqs = fresh_requests(108, 8, size=16)
        whole = _frame_groups(reqs)
        assert whole == [list(range(8))]
        monkeypatch.setattr(frames, "MAX_FRAME_BYTES", 24_000)
        groups = _frame_groups(reqs)
        assert len(groups) > 1 and sum(groups, []) == list(range(8))

    def test_fabric_splits_a_group_under_a_small_frame_limit(self, monkeypatch):
        fab = FogFabric(nodes=2, replicas=2, heartbeat_ms=50.0, metrics=Metrics())
        try:
            assert fab.wait_all_serving(timeout_s=60.0), "fabric never came up"
            reqs = fresh_requests(109, 8, size=16, prefix="split")
            fab.owner_names(reqs[0].batch_key())  # advertise before the limit shrinks
            limit = 24_000
            monkeypatch.setattr(frames, "MAX_FRAME_BYTES", limit)
            client = fab.supervisor.client("n0")
            sent, received = [], []
            send, wait = client.send, client.wait

            def spy_send(frame, oneshot=False):
                if frame.get("op") == "interest":
                    sent.append(len(frame["items"]))
                    assert len(frames.pack_frame(frame)) <= limit
                return send(frame, oneshot=oneshot)

            def spy_wait(ticket, timeout_s=None):
                resp = wait(ticket, timeout_s)
                if "answers" in resp:
                    received.append(len(frames.pack_frame(resp)))
                return resp

            monkeypatch.setattr(client, "send", spy_send)
            monkeypatch.setattr(client, "wait", spy_wait)
            got = fab.submit_batch(reqs, ingress="n0")
            assert_same_bytes(got, direct(reqs))
            assert len(sent) > 1 and sum(sent) == len(reqs), sent
            assert len(received) == len(sent) and max(received) <= limit
            assert fab.degraded == 0
        finally:
            fab.close()


# ----------------------------------------------------------------------
# Per-array wire overhead: memoized dtype names, one copy per array
# ----------------------------------------------------------------------
def unmemoized_digest(arr):
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


WIRE_ARRAYS = {
    "float64": np.arange(6.0).reshape(2, 3),
    "int64": np.arange(-3, 4, dtype=np.int64),
    "uint8": np.arange(250, 256, dtype=np.uint8),
    "big-endian f8": np.arange(4.0).astype(">f8"),
    "0-d": np.array(3.5),
}


class TestWireOverhead:
    @pytest.mark.parametrize("kind", sorted(WIRE_ARRAYS))
    def test_digest_equals_unmemoized_formula(self, kind):
        arr = WIRE_ARRAYS[kind]
        assert array_digest(arr) == unmemoized_digest(arr)
        assert array_digest(arr) == unmemoized_digest(arr), "the memoized path too"

    @pytest.mark.parametrize("kind", sorted(WIRE_ARRAYS))
    def test_frames_round_trip_with_one_copy(self, kind):
        arr = WIRE_ARRAYS[kind]
        asm = frames.FrameAssembler()
        asm.feed(frames.pack_frame({"op": "carry", "result": arr}))
        restored = asm.next_frame()["result"]
        assert restored.dtype == arr.dtype and restored.shape == arr.shape
        assert not restored.flags.writeable, "the frame hands out views, not copies"
        kept = decode_array(restored)
        assert kept.flags.writeable and kept.tobytes() == arr.tobytes()
        assert array_digest(kept) == unmemoized_digest(arr)

    def test_names_are_unchanged(self):
        req = matmul_request("n", [[1.0, 2.0]], [[3.0], [4.0]])
        digests = (unmemoized_digest(req.a), unmemoized_digest(req.b))
        assert name_request(req).inputs == digests
