"""Process-kill chaos: SIGKILL and SIGSTOP real fabric nodes mid-load.

The failure repertoire a method-call simulator cannot produce, run for
real: node processes are SIGKILLed between (and racing with) interests,
SIGSTOPed to fake a stall, and driven from a seeded
:class:`~repro.engine.faults.ChaosPlan` via ``apply_to_process``.  The
invariants under all of it are the fabric's whole point:

* **zero wrong answers** — every completed interest is byte-exact against
  the direct backend result, kill timing notwithstanding;
* **zero silent drops** — every interest either completes or raises a
  typed error (``FogUnavailable`` / ``DeadlineExceeded``);
* **supervised recovery** — killed processes are restarted with backoff
  and their content stores re-seeded through digest-verified carries;
* **stalls are not deaths** — a SIGSTOPed node is marked suspect and
  routed around, then welcomed back on SIGCONT without a restart.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.engine.faults import ChaosPlan
from repro.engine.observe import Metrics
from repro.fog import FogFabric, FogUnavailable, name_request
from repro.serve.executor import DeadlineExceeded, EngineExecutor
from repro.serve.protocol import Request

pytestmark = pytest.mark.timeout(300)


def matmul_request(req_id, a, b):
    return Request(
        id=req_id, workload="posit_matmul", tenant="chaos", bits=8, es=2,
        a=np.asarray(a, dtype=np.float64), b=np.asarray(b, dtype=np.float64),
        rows=len(a),
    )


def direct_results(pairs):
    """The reject-or-exact reference: the same engine executor the node
    processes run, executed directly in this process."""
    executor = EngineExecutor(metrics=Metrics())
    try:
        out = []
        for a, b in pairs:
            req = matmul_request("ref", a, b)
            result = executor.execute(req.batch_key(), [req])[0]
            if isinstance(result, Exception):
                raise result
            out.append(np.asarray(result).tobytes())
        return out
    finally:
        executor.close()


def working_set(seed, count=6):
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(3, 4)), rng.normal(size=(4, 2))) for _ in range(count)]


# ----------------------------------------------------------------------
# SIGKILL mid-load
# ----------------------------------------------------------------------
class TestKillMidLoad:
    def test_kills_between_interests_never_produce_wrong_answers(self):
        pairs = working_set(seed=11)
        want = direct_results(pairs)
        metrics = Metrics()
        fab = FogFabric(
            nodes=3, replicas=2, heartbeat_ms=40.0, miss_budget=2,
            metrics=metrics, retry_backoff_base_ms=5.0,
            restart_backoff_base_s=0.02,
        )
        wrong = completed = rejected = 0
        kills = 0
        try:
            assert fab.wait_all_serving(timeout_s=30.0)
            for step in range(12):
                if step in (3, 7):  # kill a live node mid-sequence
                    serving = fab.supervisor.serving_names()
                    if len(serving) > 1:
                        assert fab.kill(serving[step % len(serving)]) is not None
                        kills += 1
                for j, (a, b) in enumerate(pairs):
                    try:
                        got = fab.submit(matmul_request(f"k{step}j{j}", a, b))
                    except (FogUnavailable, DeadlineExceeded):
                        rejected += 1
                        continue
                    completed += 1
                    if got.tobytes() != want[j]:
                        wrong += 1
            assert kills == 2, "both kill steps must have fired"
            assert wrong == 0, f"{wrong} wrong answers under kill churn"
            assert completed + rejected == 12 * len(pairs), "silent drop"
            assert completed > 0
            # The supervisor must restore full capability (poll: a freshly
            # killed process can read as alive until reaped).
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not (
                metrics.counters.get("fabric.restarts", 0) >= kills
                and fab.supervisor.all_serving()
            ):
                time.sleep(0.02)
            assert metrics.counters.get("fabric.restarts", 0) >= kills
            assert fab.supervisor.all_serving(), (
                f"supervisor never recovered: {fab.supervisor.stats()}"
            )
            # Post-recovery the fabric still answers exactly.
            for j, (a, b) in enumerate(pairs):
                got = fab.submit(matmul_request(f"post{j}", a, b))
                assert got.tobytes() == want[j]
        finally:
            fab.close()

    def test_warm_restart_reseeds_the_fresh_store(self):
        """A killed node comes back with its hot results carried in —
        each carry digest-verified — so replay hits resume immediately."""
        pairs = working_set(seed=13, count=4)
        want = direct_results(pairs)
        metrics = Metrics()
        fab = FogFabric(
            nodes=2, replicas=2, heartbeat_ms=40.0, metrics=metrics,
            restart_backoff_base_s=0.02,
        )
        try:
            assert fab.wait_all_serving(timeout_s=30.0)
            for j, (a, b) in enumerate(pairs):  # warm every store
                fab.submit(matmul_request(f"warm{j}", a, b))
            victim = fab.supervisor.serving_names()[0]
            old_pid = fab.kill(victim)
            assert old_pid is not None
            # Wait for the respawn proper (a freshly SIGKILLed process can
            # linger as "alive" until reaped, so pid change is the signal).
            deadline = time.monotonic() + 30.0
            while fab.supervisor.pid(victim) == old_pid and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fab.supervisor.pid(victim) != old_pid, "node never respawned"
            assert fab.wait_all_serving(timeout_s=30.0)
            assert metrics.counters.get("fabric.warm_restarts", 0) >= 1
            assert metrics.counters.get("fabric.warm_carries", 0) >= 1, (
                "restart must replay the hot journal into the fresh store"
            )
            # The revived node really holds verified entries.
            client = fab.supervisor.client(victim)
            hb = client.heartbeat(seq=999)
            assert hb["store_entries"] >= 1
            for j, (a, b) in enumerate(pairs):
                got = fab.submit(matmul_request(f"after{j}", a, b))
                assert got.tobytes() == want[j]
        finally:
            fab.close()

    def test_restart_budget_exhaustion_routes_around_for_good(self):
        """Past max_restarts the node stays down; the fabric keeps serving
        through the surviving replica (or counted local degradation)."""
        pairs = working_set(seed=17, count=2)
        want = direct_results(pairs)
        metrics = Metrics()
        fab = FogFabric(
            nodes=2, replicas=2, heartbeat_ms=30.0, metrics=metrics,
            max_restarts=1, restart_backoff_base_s=0.01,
        )
        try:
            assert fab.wait_all_serving(timeout_s=30.0)
            victim = fab.node_names[0]
            deadline = time.monotonic() + 60.0
            while (
                not fab.supervisor._nodes[victim].gave_up
                and time.monotonic() < deadline
            ):
                if fab.supervisor.serving(victim):
                    fab.kill(victim)
                time.sleep(0.05)
            assert fab.supervisor._nodes[victim].gave_up, "budget never exhausted"
            assert metrics.counters.get("fabric.restart_budget_exhausted", 0) >= 1
            for j, (a, b) in enumerate(pairs):
                got = fab.submit(matmul_request(f"rb{j}", a, b))
                assert got.tobytes() == want[j]
        finally:
            fab.close()


# ----------------------------------------------------------------------
# SIGSTOP: a stall is suspect, not dead
# ----------------------------------------------------------------------
class TestStall:
    def test_sigstop_marks_suspect_and_sigcont_recovers_without_restart(self):
        metrics = Metrics()
        fab = FogFabric(
            nodes=2, replicas=2, heartbeat_ms=40.0, miss_budget=2,
            metrics=metrics,
        )
        try:
            assert fab.wait_all_serving(timeout_s=30.0)
            victim = fab.node_names[0]
            pid = fab.supervisor.pid(victim)
            restarts_before = fab.supervisor._nodes[victim].restarts
            os.kill(pid, signal.SIGSTOP)
            try:
                deadline = time.monotonic() + 30.0
                while fab.supervisor.serving(victim) and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert not fab.supervisor.serving(victim), "stall never suspected"
                assert metrics.counters.get("fabric.heartbeat.suspects", 0) >= 1
                # Still routable overall: the other node carries the load.
                got = fab.submit(
                    matmul_request("stall", [[1.0, 2.0]], [[3.0], [4.0]])
                )
                assert got.tobytes() == np.array([[11.0]]).tobytes()
            finally:
                os.kill(pid, signal.SIGCONT)
            deadline = time.monotonic() + 30.0
            while not fab.supervisor.serving(victim) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fab.supervisor.serving(victim), "resumed node never welcomed back"
            assert metrics.counters.get("fabric.heartbeat.recoveries", 0) >= 1
            assert fab.supervisor._nodes[victim].restarts == restarts_before, (
                "a stall must not burn a restart — the process never died"
            )
            assert fab.supervisor.pid(victim) == pid
        finally:
            fab.close()


# ----------------------------------------------------------------------
# Hedged interests: a silent primary races a duplicate to the replica
# ----------------------------------------------------------------------
class TestHedging:
    def test_stalled_primary_loses_to_hedged_secondary(self):
        """With the failure detector too slow to notice (huge heartbeat
        interval), a SIGSTOPped primary owner still looks routable — the
        hedge is what saves the batch's latency, not the supervisor.

        The hedge leg rides the primary's pipelined connection like any
        interest: after SIGCONT the stalled leg's late answer completes its
        waiter or is discarded as an orphan, and the same connection
        (same generation) serves the next interest."""
        pairs = working_set(seed=23, count=3)
        want = direct_results(pairs)
        metrics = Metrics()
        fab = FogFabric(
            nodes=3, replicas=2, heartbeat_ms=10_000.0, hedge_ms=50.0,
            default_budget_ms=10_000.0, request_timeout_s=3.0,
            metrics=metrics,
        )
        stalled_pid = None
        try:
            assert fab.wait_all_serving(timeout_s=30.0)
            reqs = [matmul_request(f"hedge{i}", a, b) for i, (a, b) in enumerate(pairs)]
            owners = fab.owner_names(reqs[0].batch_key())
            primary = owners[0]
            bystander = next(n for n in fab.node_names if n not in owners)
            client = fab.supervisor.client(primary)
            generation = client._generation
            assert generation >= 1, "advertising dials the data connection"
            stalled_pid = fab.supervisor.pid(primary)
            os.kill(stalled_pid, signal.SIGSTOP)
            # Enter at the non-owner so the walk reaches the owner round
            # (where hedging lives) with the budget intact.
            t0 = time.monotonic()
            got = fab.submit_batch(reqs, ingress=bystander)
            elapsed = time.monotonic() - t0
            os.kill(stalled_pid, signal.SIGCONT)
            stalled_pid = None
            assert [g.tobytes() for g in got] == want, "hedged answers must be byte-exact"
            assert metrics.counters.get("fabric.hedges", 0) == len(reqs), (
                "the silent primary must have hedged every item of its group"
            )
            assert metrics.counters.get("fabric.hedge_wins", 0) == len(reqs)
            assert fab.degraded == 0, "hedging served it — no degradation"
            assert elapsed < 3.0, (
                f"hedge should beat the primary's timeout, took {elapsed:.2f}s"
            )
            # The resumed primary's late answer: its waiter completes, or the
            # wait already gave up and the answer is counted as an orphan.
            deadline = time.monotonic() + 10.0
            while client.pending() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.pending() == 0
            if metrics.counters.get("fabric.peer_failures", 0):
                while not metrics.counters.get("fabric.peer.orphan_responses", 0) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert metrics.counters.get("fabric.peer.orphan_responses", 0) >= 1
            again = fab.transport.interest(primary, [(name_request(r), r, None) for r in reqs])()
            assert [a.result.tobytes() for a in again] == want
            assert client._generation == generation, "the stall must not cost the connection"
        finally:
            if stalled_pid is not None:
                os.kill(stalled_pid, signal.SIGCONT)
            fab.close()


# ----------------------------------------------------------------------
# ChaosPlan drives real processes
# ----------------------------------------------------------------------
def _sleep_forever():
    time.sleep(3600)


class TestChaosPlanProcesses:
    def test_apply_to_process_crash_sigkills(self):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_sleep_forever, daemon=True)
        proc.start()
        try:
            plan = ChaosPlan(seed=0, crash_rate=1.0)
            assert plan.apply_to_process(proc.pid, chunk_idx=0) == "crash"
            proc.join(timeout=10.0)
            assert not proc.is_alive(), "crash decision must SIGKILL the pid"
            assert proc.exitcode == -signal.SIGKILL
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)

    def test_apply_to_process_slow_stalls_then_resumes(self):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_sleep_forever, daemon=True)
        proc.start()
        try:
            plan = ChaosPlan(seed=0, slow_rate=1.0, slow_s=0.05)
            assert plan.apply_to_process(proc.pid, chunk_idx=0) == "slow"
            assert proc.is_alive(), "a stall must not kill the process"
        finally:
            proc.kill()
            proc.join(timeout=5.0)

    def test_apply_to_process_dead_pid_is_noop(self):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_sleep_forever, daemon=True)
        proc.start()
        proc.kill()
        proc.join(timeout=10.0)
        plan = ChaosPlan(seed=0, crash_rate=1.0)
        assert plan.apply_to_process(proc.pid, chunk_idx=0) is None

    def test_decisions_match_decide(self):
        """apply_to_process executes exactly what decide announced."""
        import multiprocessing

        plan = ChaosPlan(seed=5, crash_rate=0.0, slow_rate=0.3, slow_s=0.01)
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_sleep_forever, daemon=True)
        proc.start()
        try:
            for chunk in range(20):
                got = plan.apply_to_process(proc.pid, chunk, 0)
                assert got == plan.decide(chunk, 0)
        finally:
            proc.kill()
            proc.join(timeout=5.0)

    def test_attempts_gate_applies_to_processes_too(self):
        plan = ChaosPlan(seed=1, crash_rate=1.0, attempts=(0,))
        # attempt 1 is outside the gate: no decision, no signal sent —
        # safe even against our own pid.
        assert plan.apply_to_process(os.getpid(), chunk_idx=0, attempt=1) is None

    def test_chaos_plan_driven_fabric_kills(self):
        """The seeded plan SIGKILLs fabric nodes; the fabric absorbs it."""
        pairs = working_set(seed=19, count=3)
        want = direct_results(pairs)
        metrics = Metrics()
        plan = ChaosPlan(seed=7, crash_rate=0.5)
        fab = FogFabric(
            nodes=3, replicas=2, heartbeat_ms=40.0, metrics=metrics,
            restart_backoff_base_s=0.02,
        )
        wrong = completed = rejected = 0
        crashes = 0
        try:
            assert fab.wait_all_serving(timeout_s=30.0)
            for step in range(6):
                serving = fab.supervisor.serving_names()
                if len(serving) > 1:
                    for idx, name in enumerate(serving[1:]):
                        action = plan.apply_to_process(
                            fab.supervisor.pid(name), step * 8 + idx
                        )
                        if action == "crash":
                            crashes += 1
                for j, (a, b) in enumerate(pairs):
                    try:
                        got = fab.submit(matmul_request(f"p{step}j{j}", a, b))
                    except (FogUnavailable, DeadlineExceeded):
                        rejected += 1
                        continue
                    completed += 1
                    if got.tobytes() != want[j]:
                        wrong += 1
            assert wrong == 0
            assert completed + rejected == 6 * len(pairs)
            assert crashes >= 1, "seed 7 must fire at least one crash decision"
            assert fab.wait_all_serving(timeout_s=60.0) or (
                fab.supervisor.serving_names()
            ), "fabric lost every node for good"
        finally:
            fab.close()


# ----------------------------------------------------------------------
# Pipelined transport under fire: 16 in-flight rids across a SIGKILL
# ----------------------------------------------------------------------
class TestPipelinedChaos:
    def test_sixteen_in_flight_survive_a_kill_without_wrong_answers(self):
        """16 concurrent interests ride the multiplexed connections while a
        node is SIGKILLed mid-flight.  The rid demux plus digest checks
        must keep the usual pair of invariants: every submission either
        returns bytes exact against the direct backend or raises a typed
        error — no crossed responses, no hangs, no silent drops."""
        import threading

        pairs = working_set(seed=29, count=16)
        want = direct_results(pairs)
        metrics = Metrics()
        fab = FogFabric(
            nodes=3, replicas=2, heartbeat_ms=40.0, miss_budget=2,
            metrics=metrics, retry_backoff_base_ms=5.0,
            restart_backoff_base_s=0.02, default_budget_ms=60_000.0,
        )
        outcomes = [None] * len(pairs)
        try:
            assert fab.wait_all_serving(timeout_s=30.0)
            barrier = threading.Barrier(len(pairs) + 1)

            def fire(i):
                a, b = pairs[i]
                barrier.wait()
                try:
                    outcomes[i] = ("ok", fab.submit(
                        matmul_request(f"pc{i}", a, b)
                    ).tobytes())
                except (FogUnavailable, DeadlineExceeded) as err:
                    outcomes[i] = ("rejected", type(err).__name__)
                except Exception as err:  # noqa: BLE001 — graded below
                    outcomes[i] = ("wrong_error", repr(err))

            threads = [
                threading.Thread(target=fire, args=(i,))
                for i in range(len(pairs))
            ]
            for t in threads:
                t.start()
            barrier.wait()  # all 16 in flight together...
            victim = fab.supervisor.serving_names()[0]
            assert fab.kill(victim) is not None  # ...then the axe falls
            for t in threads:
                t.join(120.0)
                assert not t.is_alive(), "an in-flight interest hung"
            completed = rejected = 0
            for i, outcome in enumerate(outcomes):
                assert outcome is not None, f"interest {i} silently dropped"
                kind, detail = outcome
                assert kind != "wrong_error", (
                    f"interest {i} leaked an untyped error: {detail}"
                )
                if kind == "ok":
                    completed += 1
                    assert detail == want[i], f"interest {i} returned wrong bytes"
                else:
                    rejected += 1
            assert completed + rejected == len(pairs)
            assert completed > 0, "a single kill cannot reject the whole batch"
            # Recovery: the fabric heals and the full set replays exactly.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not fab.supervisor.all_serving():
                time.sleep(0.02)
            for i, (a, b) in enumerate(pairs):
                got = fab.submit(matmul_request(f"pc-after{i}", a, b))
                assert got.tobytes() == want[i]
        finally:
            fab.close()
