"""The serving layer's coalescing contract: batch composition is invisible.

A request's result must be **byte-equal** whether it is served solo,
coalesced with arbitrary batch mates, or sharded across a chaos-crashed
worker pool.  These tests pin that contract at three levels: the
row-stable kernel itself, the executor's coalescing, and a golden-vector
replay (so a regression is caught even if both sides of a same-process
comparison drift together).
"""

import pathlib

import numpy as np
import pytest

from repro.engine import ChaosPlan, KernelRegistry, stable_matmul
from repro.engine import backend as engine_backend
from repro.engine.observe import Metrics
from repro.engine.posit_backend import PositBackend
from repro.nn.posit_inference import PositQuantizedNetwork
from repro.nn.zoo import kws_cnn1
from repro.posit import STD_POSIT8, PositFormat
from repro.serve.executor import EngineExecutor
from repro.serve.protocol import Request

GOLDEN = pathlib.Path(__file__).parent / "golden" / "serve_kws1_posit8.npz"

# Chaos segments spin up worker pools; a hung pool must fail fast in CI.
pytestmark = pytest.mark.timeout(120)


def assert_bitexact(a: np.ndarray, b: np.ndarray, label: str) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype, label
    assert a.tobytes() == b.tobytes(), f"{label}: outputs differ bytewise"


def nn_request(req_id: str, x: np.ndarray) -> Request:
    return Request(
        id=req_id,
        workload="nn_predict",
        tenant="t",
        bits=8,
        es=2,
        model="kws1",
        x=np.asarray(x, dtype=np.float64),
        rows=len(x),
    )


def run_executor(executor: EngineExecutor, requests) -> list:
    key = requests[0].batch_key()
    results = executor.execute(key, list(requests))
    for r in results:
        assert not isinstance(r, Exception), f"request failed: {r!r}"
    return results


# ----------------------------------------------------------------------
# Level 1: the kernel
# ----------------------------------------------------------------------
class TestStableMatmul:
    def test_row_stable_under_any_batching(self):
        """Each output row depends only on its own input row — bytewise."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(17, 64))
        w = rng.normal(size=(64, 32))
        full = stable_matmul(x, w)
        for i in range(len(x)):
            assert_bitexact(full[i : i + 1], stable_matmul(x[i : i + 1], w), f"row {i}")
        # Arbitrary sub-batches too, not just singletons.
        assert_bitexact(full[3:11], stable_matmul(x[3:11], w), "slice 3:11")

    def test_matches_matmul_values_closely(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 9))
        b = rng.normal(size=(9, 4))
        np.testing.assert_allclose(stable_matmul(a, b), a @ b, rtol=1e-13)


# ----------------------------------------------------------------------
# Level 2: executor coalescing (in-process)
# ----------------------------------------------------------------------
class TestCoalescingIdentity:
    def test_solo_vs_coalesced_byte_equal(self):
        rng = np.random.default_rng(101)
        samples = rng.normal(size=(6, 1, 1, 31, 20))
        solo_exec = EngineExecutor(metrics=Metrics())
        solo = [
            run_executor(solo_exec, [nn_request(f"s{i}", samples[i])])[0]
            for i in range(len(samples))
        ]
        # Same samples, one coalesced batch through a *fresh* executor.
        batch_exec = EngineExecutor(metrics=Metrics())
        coalesced = run_executor(
            batch_exec, [nn_request(f"c{i}", samples[i]) for i in range(len(samples))]
        )
        for i, (lone, joined) in enumerate(zip(solo, coalesced)):
            assert_bitexact(lone, joined, f"sample {i} solo vs coalesced")

    def test_multi_row_requests_split_correctly(self):
        rng = np.random.default_rng(102)
        xa = rng.normal(size=(2, 1, 31, 20))
        xb = rng.normal(size=(3, 1, 31, 20))
        executor = EngineExecutor(metrics=Metrics())
        ra, rb = run_executor(executor, [nn_request("a", xa), nn_request("b", xb)])
        assert ra.shape[0] == 2 and rb.shape[0] == 3
        solo_a = run_executor(executor, [nn_request("a2", xa)])[0]
        solo_b = run_executor(executor, [nn_request("b2", xb)])[0]
        assert_bitexact(ra, solo_a, "multi-row request a")
        assert_bitexact(rb, solo_b, "multi-row request b")

    def test_posit_matmul_coalesced_identity(self):
        rng = np.random.default_rng(103)
        executor = EngineExecutor(metrics=Metrics())
        reqs = []
        for i in range(4):
            a = rng.normal(size=(3, 5))
            b = rng.normal(size=(5, 2))
            reqs.append(
                Request(
                    id=f"m{i}", workload="posit_matmul", tenant="t",
                    bits=8, es=2, a=a, b=b, rows=3,
                )
            )
        coalesced = run_executor(executor, reqs)
        for i, req in enumerate(reqs):
            solo = run_executor(
                executor,
                [Request(id="solo", workload="posit_matmul", tenant="t",
                         bits=8, es=2, a=req.a, b=req.b, rows=3)],
            )[0]
            assert_bitexact(coalesced[i], solo, f"posit_matmul request {i}")


# ----------------------------------------------------------------------
# Level 3: golden replay + chaos-crashed worker pool
# ----------------------------------------------------------------------
class TestGoldenReplay:
    @pytest.fixture(scope="class")
    def golden(self):
        with np.load(GOLDEN) as data:
            return data["x"].copy(), data["y"].copy()

    def test_golden_solo_reference_is_current(self, golden):
        """The checked-in solo outputs match today's stable-contraction net."""
        x, y = golden
        qnet = PositQuantizedNetwork(
            kws_cnn1(seed=0), STD_POSIT8, stable_contractions=True
        )
        now = np.concatenate([qnet.forward(x[i : i + 1]) for i in range(len(x))])
        assert_bitexact(now, y, "golden solo reference")

    def test_coalesced_executor_matches_golden(self, golden):
        x, y = golden
        executor = EngineExecutor(metrics=Metrics())
        results = run_executor(
            executor, [nn_request(f"g{i}", x[i : i + 1]) for i in range(len(x))]
        )
        assert_bitexact(np.concatenate(results), y, "coalesced vs golden")

    def test_fresh_registry_builds_no_pairwise_tables(self, golden, monkeypatch):
        """One backend per format, building only the tables it reads: a
        kws1 batch and a posit<8,2> matmul leave no pairwise add/mul table
        resident, and their bytes are unchanged."""
        registry = KernelRegistry()
        monkeypatch.setattr(engine_backend, "REGISTRY", registry)
        x, y = golden
        rng = np.random.default_rng(104)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(5, 2))
        executor = EngineExecutor(metrics=Metrics())
        try:
            results = run_executor(executor, [nn_request(f"f{i}", x[i : i + 1]) for i in range(len(x))])
            assert_bitexact(np.concatenate(results), y, "fresh registry vs golden")
            matmul = Request(id="m", workload="posit_matmul", tenant="t", bits=8, es=2, a=a, b=b, rows=3)
            got = run_executor(executor, [matmul])[0]
        finally:
            executor.close()
        pairwise = PositBackend(PositFormat(8, 2), registry=KernelRegistry(), stable_contractions=True)
        want = pairwise.decode(pairwise.matmul(pairwise.encode(a), pairwise.encode(b)))
        assert_bitexact(got, want, "posit_matmul vs a pairwise-table backend")
        resident = registry.content_names()
        assert resident, "the executor's tables were built in the fresh registry"
        assert not [name for name in resident if name.endswith("addmul")], resident

    def test_chaos_worker_pool_matches_golden(self, golden):
        """workers=2 under crash_rate=0.3: degraded paths stay byte-exact.

        The chaos plan deterministically kills workers mid-task; the
        runner's degradation ladder (retry -> pool rebuild -> in-process
        fallback) must deliver the same bytes as the golden solo replay —
        resilience is only acceptable if it is invisible in the output.
        """
        x, y = golden
        executor = EngineExecutor(
            workers=2,
            # Seed 2 deterministically crashes chunk 0 on its first attempt
            # and recovers on retry, so the degraded path definitely runs.
            chaos=ChaosPlan(seed=2, crash_rate=0.3),
            task_timeout=60.0,
            metrics=Metrics(),
        )
        try:
            results = run_executor(
                executor, [nn_request(f"w{i}", x[i : i + 1]) for i in range(len(x))]
            )
            assert_bitexact(np.concatenate(results), y, "workers=2 chaos vs golden")
            # Zero-drop at the executor level: every request resolved.
            assert len(results) == len(x)
            stats = executor.stats()["runners"]["kws1/8/2"]
            assert stats["task_retries"] + stats["fallbacks"] > 0, (
                f"chaos never fired: {stats}"
            )
        finally:
            executor.close()
