"""End-to-end tests for the asyncio serving front end.

Every test spins up a real :class:`ReproServer` on an ephemeral port and
talks to it over real sockets — the NDJSON data plane through
:class:`ServeClient`, the scrape plane through :func:`http_get`.  The
suite ends with the chaos smoke the CI serve job runs: 200 mixed
requests against a crash-injected worker pool, with the zero-drop ledger
(``accepted == responded``) as the pass condition.
"""

import asyncio
import json
import threading
import time

import numpy as np
import pytest

from repro.engine import ChaosPlan
from repro.engine.observe import Metrics
from repro.engine.posit_backend import PositBackend
from repro.nn.posit_inference import PositQuantizedNetwork
from repro.nn.zoo import kws_cnn1
from repro.posit import STD_POSIT8, PositFormat
from repro.serve import EngineExecutor, ReproServer, ServeClient, ServeConfig, http_get
from repro.serve.batcher import DynamicBatcher
from repro.serve.executor import MULTIPLIERS
from repro.serve.protocol import Request
from repro.approx.simulate import approx_matmul, signed_lut

# Real sockets + a real event loop per test: a wedged server must fail
# fast in CI, not stall the suite (see the timeout hook in conftest.py).
pytestmark = pytest.mark.timeout(120)


def run(coro):
    return asyncio.run(coro)


class SlowExecutor(EngineExecutor):
    """Deterministic dispatch-thread stall for backpressure/deadline tests."""

    def __init__(self, delay_s: float, **kwargs):
        super().__init__(**kwargs)
        self.delay_s = delay_s

    def execute(self, key, requests):
        time.sleep(self.delay_s)
        return super().execute(key, requests)


# ----------------------------------------------------------------------
# Data plane correctness
# ----------------------------------------------------------------------
class TestDataPlane:
    def test_posit_matmul_matches_direct_engine(self):
        async def go():
            rng = np.random.default_rng(11)
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 2))
            async with ReproServer(ServeConfig(), metrics=Metrics()) as server:
                async with await ServeClient.connect(*server.address) as client:
                    resp = await client.request(
                        workload="posit_matmul",
                        bits=8,
                        es=2,
                        a=a.tolist(),
                        b=b.tolist(),
                    )
            assert resp["ok"], resp
            backend = PositBackend(PositFormat(8, 2), stable_contractions=True)
            want = backend.decode(
                backend.matmul(backend.encode(a), backend.encode(b))
            )
            # JSON float round-trips are exact, so equality is exact.
            assert resp["result"] == want.tolist()
            assert resp["ms"] >= 0
            assert resp["batch_rows"] >= 3

        run(go())

    def test_nn_predict_matches_direct_network(self):
        async def go():
            rng = np.random.default_rng(12)
            x = rng.normal(size=(1, 31, 20))
            async with ReproServer(ServeConfig(), metrics=Metrics()) as server:
                async with await ServeClient.connect(*server.address) as client:
                    resp = await client.request(
                        workload="nn_predict", model="kws1", x=x.tolist()
                    )
            assert resp["ok"], resp
            qnet = PositQuantizedNetwork(
                kws_cnn1(seed=0), STD_POSIT8, stable_contractions=True
            )
            want = qnet.forward(x[None])
            assert resp["result"] == want.tolist()

        run(go())

    def test_approx_matmul_matches_direct_lut(self):
        async def go():
            rng = np.random.default_rng(13)
            a = rng.integers(-128, 128, size=(2, 6))
            b = rng.integers(-128, 128, size=(6, 3))
            async with ReproServer(ServeConfig(), metrics=Metrics()) as server:
                async with await ServeClient.connect(*server.address) as client:
                    resp = await client.request(
                        workload="approx_matmul",
                        mult="trunc6",
                        a=a.tolist(),
                        b=b.tolist(),
                    )
            assert resp["ok"], resp
            want = approx_matmul(a, b, signed_lut(MULTIPLIERS["trunc6"]))
            assert resp["result"] == want.tolist()

        run(go())

    def test_concurrent_requests_coalesce(self):
        """Simultaneous same-key requests share one batch (batch_rows > 1)."""

        async def go():
            rng = np.random.default_rng(14)
            config = ServeConfig(max_batch=64, max_delay_ms=50.0)
            async with ReproServer(config, metrics=Metrics()) as server:
                async with await ServeClient.connect(*server.address) as client:
                    resps = await asyncio.gather(
                        *[
                            client.request(
                                workload="nn_predict",
                                model="kws1",
                                x=rng.normal(size=(1, 31, 20)).tolist(),
                            )
                            for _ in range(4)
                        ]
                    )
                stats = server.describe()
            assert all(r["ok"] for r in resps)
            # All four fit one 50 ms window, so at least one response saw
            # batch mates.
            assert max(r["batch_rows"] for r in resps) > 1
            assert stats["batcher"]["batches"] < 4

        run(go())

    def test_bad_requests_get_error_responses(self):
        async def go():
            async with ReproServer(ServeConfig(), metrics=Metrics()) as server:
                async with await ServeClient.connect(*server.address) as client:
                    bad_workload = await client.request(workload="nope")
                    bad_model = await client.request(
                        workload="nn_predict",
                        model="not_a_model",
                        x=np.zeros((1, 31, 20)).tolist(),
                    )
                    bad_shape = await client.request(
                        workload="nn_predict",
                        model="kws1",
                        x=np.zeros((1, 5, 5)).tolist(),
                    )
                stats = server.describe()
            assert bad_workload == {
                "id": bad_workload["id"],
                "ok": False,
                "error": "bad_request",
                "message": bad_workload["message"],
            }
            assert not bad_model["ok"] and bad_model["error"] == "bad_request"
            assert "not_a_model" in bad_model["message"]
            assert not bad_shape["ok"] and "sample shape" in bad_shape["message"]
            # bad_model/bad_shape were *accepted* (they fail in the engine),
            # so the ledger still balances.
            assert stats["accepted"] == stats["responded"]

        run(go())


# ----------------------------------------------------------------------
# Admission behaviour over the wire
# ----------------------------------------------------------------------
class TestAdmissionOverWire:
    def test_queue_full_rejects_with_retry_after(self):
        async def go():
            metrics = Metrics()
            config = ServeConfig(queue_limit=1, max_delay_ms=0.0)
            executor = SlowExecutor(0.5, metrics=metrics)
            async with ReproServer(config, executor=executor, metrics=metrics) as server:
                async with await ServeClient.connect(*server.address) as client:
                    first = asyncio.create_task(
                        client.request(
                            workload="posit_matmul", a=[[1.0]], b=[[1.0]]
                        )
                    )
                    await asyncio.sleep(0.1)  # first is admitted + dispatching
                    second = await client.request(
                        workload="posit_matmul", a=[[1.0]], b=[[1.0]]
                    )
                    first = await first
            assert first["ok"]
            assert not second["ok"] and second["error"] == "rejected"
            assert "queue_full" in second["message"]
            assert second["retry_after_ms"] > 0
            assert metrics.counters["serve.rejected.queue_full"] == 1

        run(go())

    def test_tenant_quota_rejects_over_rate(self):
        async def go():
            config = ServeConfig(tenant_rate=1.0, tenant_burst=1.0)
            async with ReproServer(config, metrics=Metrics()) as server:
                async with await ServeClient.connect(*server.address) as client:
                    ok = await client.request(
                        workload="posit_matmul", tenant="hog",
                        a=[[1.0]], b=[[1.0]],
                    )
                    throttled = await client.request(
                        workload="posit_matmul", tenant="hog",
                        a=[[1.0]], b=[[1.0]],
                    )
                    other = await client.request(
                        workload="posit_matmul", tenant="quiet",
                        a=[[1.0]], b=[[1.0]],
                    )
            assert ok["ok"]
            assert not throttled["ok"] and "quota" in throttled["message"]
            assert throttled["retry_after_ms"] > 0
            assert other["ok"], "one tenant's quota must not throttle another"

        run(go())

    def test_deadline_exceeded_is_answered_not_dropped(self):
        async def go():
            metrics = Metrics()
            executor = SlowExecutor(0.1, metrics=metrics)
            async with ReproServer(
                ServeConfig(max_delay_ms=0.0), executor=executor, metrics=metrics
            ) as server:
                async with await ServeClient.connect(*server.address) as client:
                    resp = await client.request(
                        workload="posit_matmul",
                        a=[[1.0]],
                        b=[[1.0]],
                        deadline_ms=10,
                    )
                stats = server.describe()
            assert not resp["ok"] and resp["error"] == "deadline_exceeded"
            assert stats["accepted"] == stats["responded"] == 1
            assert metrics.counters["serve.deadline_exceeded"] == 1

        run(go())


# ----------------------------------------------------------------------
# Where a batch executes: on the event loop or on the dispatch thread
# ----------------------------------------------------------------------
def record_execute(server, log):
    """Log ``(thread, responses written so far)`` as each batch executes."""
    execute = server.executor.execute

    def recording(key, requests):
        log.append((threading.get_ident(), server.responded))
        return execute(key, requests)

    server.executor.execute = recording


class TestDispatchPlacement:
    @pytest.mark.parametrize(
        "opts, inject, on_loop",
        [
            ({}, False, True),
            ({"fog_nodes": 2}, False, True),
            ({"fog_nodes": 2, "fog_fabric": True}, False, False),
            ({"workers": 2}, False, False),
            ({}, True, False),
        ],
        ids=["direct", "fog", "fabric", "workers", "injected"],
    )
    def test_in_process_executors_run_on_the_loop(self, opts, inject, on_loop):
        """Batches of an in-process executor the server built run on the
        event loop; a fabric, a worker pool or an injected executor keeps
        the dispatch thread."""

        async def go():
            metrics = Metrics()
            executor = EngineExecutor(metrics=metrics) if inject else None
            # No deadline: a fabric node booting on a busy host is slow.
            config = ServeConfig(default_deadline_ms=None, **opts)
            async with ReproServer(config, executor=executor, metrics=metrics) as server:
                if opts.get("fog_fabric"):
                    assert server.executor.topology.wait_all_serving(timeout_s=30.0)
                log = []
                record_execute(server, log)
                async with await ServeClient.connect(*server.address) as client:
                    resp = await client.request(
                        workload="posit_matmul", a=[[1.0]], b=[[2.0]]
                    )
                has_pool = server._dispatch_pool is not None
            return resp, log, has_pool

        loop_thread = threading.get_ident()  # asyncio.run uses this thread
        resp, log, has_pool = run(go())
        assert resp["ok"] and resp["result"] == [[2.0]]
        assert len(log) == 1
        assert (log[0][0] == loop_thread) is on_loop
        assert has_pool is not on_loop, "the dispatch pool exists iff used"

    def test_a_batch_is_answered_before_the_next_executes(self):
        """Two batch keys flushed in the same loop step: the first batch's
        response is written before the second batch starts executing."""

        async def go():
            # Neither request flushes on its own; the drain flushes both.
            config = ServeConfig(max_delay_ms=60_000.0, default_deadline_ms=None)
            async with ReproServer(config, metrics=Metrics()) as server:
                log = []
                record_execute(server, log)
                async with await ServeClient.connect(*server.address) as client:
                    requests = [
                        asyncio.create_task(
                            client.request(
                                workload="posit_matmul", a=[[1.0]], b=[[2.0]]
                            )
                        ),
                        asyncio.create_task(
                            client.request(
                                workload="approx_matmul", mult="exact",
                                a=[[3]], b=[[4]],
                            )
                        ),
                    ]
                    while server.batcher.stats()["pending_requests"] < 2:
                        await asyncio.sleep(0.005)
                    await server.batcher.drain()
                    replies = await asyncio.gather(*requests)
            return log, replies

        log, replies = run(go())
        assert [r["result"] for r in replies] == [[[2.0]], [[12]]]
        assert [responded for _, responded in log] == [0, 1]


# ----------------------------------------------------------------------
# Behind the dispatch thread, a busy key coalesces until its batch is done
# ----------------------------------------------------------------------
def tiny_request(req_id):
    return Request(id=req_id, workload="posit_matmul", tenant="t", bits=8, es=2, rows=1)


class TestBatcherHold:
    @staticmethod
    async def drive(hold, max_batch=16):
        """r1 dispatches and blocks; r2 and r3 arrive one timer apart."""
        calls = []
        release = asyncio.Event()

        async def dispatch(key, requests):
            calls.append([r.id for r in requests])
            if len(calls) == 1:
                await release.wait()
            return [r.id for r in requests]

        batcher = DynamicBatcher(
            dispatch, max_batch=max_batch, max_delay_ms=1.0, metrics=Metrics(),
            hold_while_busy=hold,
        )
        futures = [batcher.submit(tiny_request("r1"))]
        while not calls:
            await asyncio.sleep(0.001)
        for req_id in ("r2", "r3"):
            futures.append(batcher.submit(tiny_request(req_id)))
            await asyncio.sleep(0.02)  # many timer periods
        while_busy = [list(c) for c in calls], batcher.stats()["held_keys"]
        release.set()
        assert await asyncio.gather(*futures) == ["r1", "r2", "r3"]
        await batcher.drain()
        return while_busy, calls

    def test_busy_key_holds_and_flushes_on_completion(self):
        (busy_calls, held), calls = run(self.drive(hold=True))
        assert busy_calls == [["r1"]] and held == 1
        assert calls == [["r1"], ["r2", "r3"]]

    def test_without_hold_each_timer_flushes(self):
        (busy_calls, held), calls = run(self.drive(hold=False))
        assert held == 0
        assert calls == [["r1"], ["r2"], ["r3"]]

    def test_size_trigger_flushes_a_held_key(self):
        (busy_calls, _), calls = run(self.drive(hold=True, max_batch=2))
        assert busy_calls == [["r1"], ["r2", "r3"]]
        assert calls == [["r1"], ["r2", "r3"]]

    def test_server_coalesces_behind_a_busy_dispatch_thread(self):
        """An injected executor runs on the dispatch thread: requests that
        arrive while its batch executes leave together when it is done."""
        entered, release = threading.Event(), threading.Event()

        class GatedExecutor(EngineExecutor):
            batches = []

            def execute(self, key, requests):
                self.batches.append(len(requests))
                if len(self.batches) == 1:
                    entered.set()
                    release.wait(30.0)
                return super().execute(key, requests)

        async def go():
            metrics = Metrics()
            config = ServeConfig(max_delay_ms=1.0, default_deadline_ms=None)
            executor = GatedExecutor(metrics=metrics)
            async with ReproServer(config, executor=executor, metrics=metrics) as server:
                async with await ServeClient.connect(*server.address) as client:

                    def ask():
                        return asyncio.create_task(
                            client.request(workload="posit_matmul", a=[[1.0]], b=[[2.0]])
                        )

                    tasks = [ask()]
                    while not entered.is_set():
                        await asyncio.sleep(0.001)
                    for _ in range(3):
                        tasks.append(ask())
                        await asyncio.sleep(0.02)
                    release.set()
                    replies = await asyncio.gather(*tasks)
            return replies, executor.batches

        replies, batches = run(go())
        assert all(r["ok"] and r["result"] == [[2.0]] for r in replies)
        assert batches == [1, 3]
        assert [r["batch_rows"] for r in replies] == [1, 3, 3, 3]


# ----------------------------------------------------------------------
# HTTP scrape plane
# ----------------------------------------------------------------------
class TestScrapePlane:
    def test_healthz_metrics_stats_and_404(self):
        async def go():
            metrics = Metrics()
            async with ReproServer(ServeConfig(), metrics=metrics) as server:
                async with await ServeClient.connect(*server.address) as client:
                    await client.request(
                        workload="posit_matmul", a=[[1.0, 2.0]], b=[[3.0], [4.0]]
                    )
                health = await http_get(*server.address, "/healthz")
                prom = await http_get(*server.address, "/metrics")
                stats = await http_get(*server.address, "/stats")
                missing = await http_get(*server.address, "/nope")
            assert health == (200, "ok\n")
            assert prom[0] == 200
            body = prom[1]
            assert "repro_serve_admitted_total 1" in body
            assert "repro_serve_queue_depth 0" in body
            # Latency histogram: bucket lines plus sum/count.
            assert 'repro_serve_latency_s_bucket{le="+Inf"} 1' in body
            assert "repro_serve_latency_s_count 1" in body
            assert stats[0] == 200
            doc = json.loads(stats[1])
            assert doc["accepted"] == doc["responded"] == 1
            assert doc["config"]["max_batch"] == 16
            assert missing[0] == 404

        run(go())


# ----------------------------------------------------------------------
# The CI chaos smoke: 200 mixed requests, crash-injected pool, zero drops
# ----------------------------------------------------------------------
class TestChaosSmoke:
    def test_200_mixed_requests_zero_drops_under_chaos(self):
        """The acceptance smoke: a chaos-crashed worker pool (crash_rate
        0.35) serving 200 mixed requests from 10 concurrent clients must
        answer every accepted request — degraded execution is fine,
        silence is not."""

        async def go():
            metrics = Metrics()
            config = ServeConfig(
                max_batch=16,
                max_delay_ms=2.0,
                queue_limit=256,
                workers=2,
                # Seed 2 deterministically crashes chunk 0 on its first
                # attempt (and recovers on retry), so the degradation
                # ladder is guaranteed to engage whatever the batch shapes.
                chaos=ChaosPlan(seed=2, crash_rate=0.35),
                default_deadline_ms=120_000.0,
            )
            rng = np.random.default_rng(2026)

            def payloads():
                out = []
                for i in range(200):
                    kind = i % 3
                    if kind == 0:
                        out.append(
                            dict(
                                workload="nn_predict",
                                model="kws1",
                                tenant=f"t{i % 4}",
                                x=rng.normal(size=(1, 31, 20)).tolist(),
                            )
                        )
                    elif kind == 1:
                        out.append(
                            dict(
                                workload="posit_matmul",
                                tenant=f"t{i % 4}",
                                a=rng.normal(size=(4, 6)).tolist(),
                                b=rng.normal(size=(6, 3)).tolist(),
                            )
                        )
                    else:
                        out.append(
                            dict(
                                workload="approx_matmul",
                                mult="trunc6",
                                tenant=f"t{i % 4}",
                                a=rng.integers(-128, 128, size=(3, 5)).tolist(),
                                b=rng.integers(-128, 128, size=(5, 2)).tolist(),
                            )
                        )
                return out

            async def client_run(requests):
                client = await ServeClient.connect(*server.address)
                try:
                    return await asyncio.gather(
                        *[client.request(timeout=120.0, **p) for p in requests]
                    )
                finally:
                    await client.close()

            async with ReproServer(config, metrics=metrics) as server:
                work = payloads()
                shards = [work[i::10] for i in range(10)]
                replies = await asyncio.gather(
                    *[client_run(shard) for shard in shards]
                )
                stats = server.describe()

            flat = [r for shard in replies for r in shard]
            assert len(flat) == 200, "every request must get a response"
            # The zero-drop ledger: whatever chaos did to the pool, every
            # accepted request was answered.
            assert stats["accepted"] == stats["responded"]
            assert stats["accepted"] == 200  # queue_limit 256 -> no rejects
            assert all(r["ok"] for r in flat), [
                r for r in flat if not r["ok"]
            ][:3]
            # Chaos actually fired: the pool degraded at least once.
            runners = stats["executor"]["runners"]
            degraded = sum(
                r.get("task_retries", 0)
                + r.get("fallbacks", 0)
                + r.get("pool_restarts", 0)
                for r in runners.values()
            )
            assert degraded > 0, f"chaos never fired: {runners}"

        run(go())
