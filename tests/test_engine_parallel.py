"""Parallel sharded execution: bit-identity, crash/timeout fallback, tables.

The invariant under test is absolute: sharding across processes must never
change a single bit of the output.  Chunk boundaries are batch-aligned, so
each worker runs exactly the micro-batches the single-process
:class:`BatchedRunner` would, and the merged result is ``array_equal`` —
not merely ``allclose`` — with the in-process path.  Robustness tests then
kill or stall workers and require the runner to degrade gracefully to
in-process execution with identical numerics.

All worker pools use the ``spawn`` context: workers import the repo fresh
and build their own kernel tables, which the worker-tables test checks
(worker registry misses reach ``stats()``, and nothing is written to disk).
"""

import multiprocessing
import os
import pickle
import tempfile
import time

import numpy as np
import pytest

from repro.engine import BatchedRunner, ParallelRunner, KernelRegistry
from repro.engine.kernels import lut_matmul, shard_rows
from repro.engine.parallel import FusedPlanSpec, ModelHandle, _factory_for, shard_lut_matmul
from repro.nn.posit_inference import PositQuantizedNetwork, reference_forward
from repro.nn.zoo import kws_cnn1
from repro.posit import POSIT8


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


class Posit8PairwiseModel:
    """Maps (N, 2) posit8 code pairs to their (add, mul) result codes.

    Picklable by construction: workers rebuild the backend (and its
    tables) from the registry on first use instead of shipping it.
    """

    def __init__(self):
        self._backend = None

    def forward(self, pairs):
        if self._backend is None:
            from repro.engine.posit_backend import PositBackend

            self._backend = PositBackend(POSIT8, strategy="pairwise")
        a, b = pairs[:, 0], pairs[:, 1]
        return np.stack(
            [self._backend.add(a, b), self._backend.mul(a, b)], axis=1
        )

    def __getstate__(self):
        return {}

    def __setstate__(self, state):
        self._backend = None


class TinyModel:
    """Deterministic picklable model: ``forward(x) = x @ W``."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(size=(6, 3))

    def forward(self, x):
        return np.asarray(x) @ self.w


class CrashInWorker(TinyModel):
    """Dies hard inside worker processes, works fine in the parent."""

    def forward(self, x):
        if _in_worker():
            os._exit(13)
        return super().forward(x)


class StallInWorker(TinyModel):
    """Sleeps past any reasonable task timeout inside worker processes."""

    def forward(self, x):
        if _in_worker():
            time.sleep(3.0)
        return super().forward(x)


# ----------------------------------------------------------------------
# Deterministic sharding primitives
# ----------------------------------------------------------------------
class TestShardRows:
    def test_partition_covers_exactly(self):
        for total in (1, 2, 7, 64, 100):
            for shards in (1, 2, 3, 8, 200):
                spans = shard_rows(total, shards)
                assert spans[0][0] == 0 and spans[-1][1] == total
                for (a, b), (c, d) in zip(spans, spans[1:]):
                    assert b == c and a < b
                assert len(spans) == min(shards, total)

    def test_empty_and_invalid(self):
        assert shard_rows(0, 4) == []
        with pytest.raises(ValueError):
            shard_rows(-1, 2)
        with pytest.raises(ValueError):
            shard_rows(4, 0)


class TestSpans:
    def test_spans_are_batch_aligned(self):
        runner = ParallelRunner(TinyModel(), workers=3, batch_size=4)
        for total in (1, 4, 10, 37, 64):
            spans = runner._spans(total)
            assert spans[0][0] == 0 and spans[-1][1] == total
            for start, stop in spans[:-1]:
                assert start % 4 == 0 and stop % 4 == 0
        runner.close()

    def test_chunk_size_rounds_up_to_batch(self):
        runner = ParallelRunner(TinyModel(), workers=2, batch_size=4, chunk_size=5)
        spans = runner._spans(32)
        # chunk_size=5 rounds up to 8 (two batches per chunk)
        assert spans == [(0, 8), (8, 16), (16, 24), (24, 32)]
        runner.close()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ParallelRunner(TinyModel(), batch_size=0)
        with pytest.raises(ValueError):
            ParallelRunner(TinyModel(), chunk_size=0)
        with pytest.raises(ValueError):
            ParallelRunner()


# ----------------------------------------------------------------------
# Bit-identity with the single-process path
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_tiny_model_parallel_equals_single(self):
        model = TinyModel(seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(26, 6))
        y_single = BatchedRunner(model, batch_size=4).run(x)
        with ParallelRunner(model, workers=2, batch_size=4) as runner:
            y_par = runner.run(x)
            stats = runner.stats()
        assert np.array_equal(y_single, y_par)
        assert stats["items"] == 26
        assert stats["fallbacks"] == 0

    def test_posit_network_parallel_equals_single(self):
        net = kws_cnn1(seed=0)
        qnet = PositQuantizedNetwork(net, POSIT8)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 1, 31, 20))
        y_single = BatchedRunner(qnet, batch_size=4).run(x)
        with ParallelRunner(
            qnet, workers=2, batch_size=4
        ) as runner:
            y_par = runner.run(x)
        assert np.array_equal(y_single, y_par)

    def test_exhaustive_posit8_parity_suite(self):
        """Every 8-bit (a, b) code pair through the parallel path.

        The acceptance bar for sharded execution: all 65536 posit8 operand
        pairs produce bit-identical add/mul codes whether executed in one
        process or sharded across spawn workers.
        """
        a, b = map(np.ravel, np.meshgrid(np.arange(256), np.arange(256)))
        pairs = np.stack([a, b], axis=1)
        model = Posit8PairwiseModel()
        y_single = BatchedRunner(model, batch_size=8192).run(pairs)
        with ParallelRunner(
            model, workers=2, batch_size=8192
        ) as runner:
            y_par = runner.run(pairs)
            stats = runner.stats()
        assert stats["fallbacks"] == 0
        assert np.array_equal(y_single, y_par)
        # And both agree with the bit-exact scalar model on a spot lattice.
        from repro.posit import Posit

        for i in range(0, 65536, 4111):
            pa, pb = Posit(POSIT8, int(a[i])), Posit(POSIT8, int(b[i]))
            assert y_par[i, 0] == (pa + pb).pattern
            assert y_par[i, 1] == (pa * pb).pattern

    def test_workers_one_stays_in_process(self):
        model = TinyModel(seed=4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 6))
        runner = ParallelRunner(model, workers=1, batch_size=2)
        assert np.array_equal(runner.run(x), BatchedRunner(model, batch_size=2).run(x))
        assert runner.stats()["per_worker"] == []
        runner.close()

    def test_empty_input(self):
        with ParallelRunner(TinyModel(), workers=2, batch_size=4) as runner:
            out = runner.run(np.empty((0, 6)))
        assert out.shape == (0, 3)

    def test_batched_runner_workers_knob(self):
        model = TinyModel(seed=6)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(17, 6))
        plain = BatchedRunner(model, batch_size=4)
        with BatchedRunner(model, batch_size=4, workers=2) as sharded:
            y = sharded.run(x)
            stats = sharded.stats()
        assert np.array_equal(plain.run(x), y)
        assert stats["workers"] == 2 and "per_worker" in stats

    def test_batched_runner_rejects_orphan_parallel_opts(self):
        with pytest.raises(TypeError):
            BatchedRunner(TinyModel(), batch_size=4, chunk_size=8)


# ----------------------------------------------------------------------
# Robustness: crashes and timeouts degrade to in-process execution
# ----------------------------------------------------------------------
class TestFallback:
    def test_worker_crash_falls_back_in_process(self):
        model = CrashInWorker(seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 6))
        with ParallelRunner(model, workers=2, batch_size=4) as runner:
            y = runner.run(x)
            stats = runner.stats()
        assert np.array_equal(y, TinyModel(seed=8).forward(x))
        assert stats["fallbacks"] >= 1

    def test_broken_pool_stays_in_process_afterwards(self):
        model = CrashInWorker(seed=10)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 6))
        with ParallelRunner(model, workers=2, batch_size=4) as runner:
            runner.run(x)  # breaks the pool
            y = runner.run(x)  # second call must go straight in-process
        assert np.array_equal(y, TinyModel(seed=10).forward(x))

    def test_crash_raises_when_fallback_disabled(self):
        model = CrashInWorker(seed=12)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(8, 6))
        with ParallelRunner(
            model, workers=2, batch_size=4, fallback=False
        ) as runner:
            with pytest.raises(Exception):
                runner.run(x)

    def test_task_timeout_falls_back_in_process(self):
        model = StallInWorker(seed=14)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(8, 6))
        with ParallelRunner(
            model, workers=2, batch_size=4, task_timeout=0.2
        ) as runner:
            y = runner.run(x)
            stats = runner.stats()
        assert np.array_equal(y, TinyModel(seed=14).forward(x))
        assert stats["fallbacks"] >= 1


# ----------------------------------------------------------------------
# Kernel tables in spawn workers: built per process, never stored
# ----------------------------------------------------------------------
class TestWorkerTables:
    def test_workers_build_tables_and_write_no_files(self, tmp_path, monkeypatch):
        # Any temporary file or directory, in the parent or in a worker,
        # would land in this empty directory.
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        monkeypatch.setenv("TMPDIR", str(tmp))
        # A private parent registry, so the workers' misses are told apart.
        reg = KernelRegistry()
        from repro.engine.posit_backend import PositBackend

        engine = PositBackend(POSIT8, registry=reg)
        qnet = PositQuantizedNetwork(kws_cnn1(seed=1), POSIT8, engine=engine)
        x = np.random.default_rng(16).normal(size=(8, 1, 31, 20))
        with ParallelRunner(qnet, workers=2, batch_size=4, registry=reg) as runner:
            y = runner.run(x)
            stats = runner.stats()
            assert list(tmp.iterdir()) == []  # while the pool is up, too
        assert stats["fallbacks"] == 0, "parallel path did not run"
        want = np.concatenate([reference_forward(qnet.net, engine, x[s : s + 4]) for s in (0, 4)])
        assert y.tobytes() == want.tobytes()
        assert stats["table_misses"] > reg.stats()["misses"], "no worker builds counted"
        assert list(tmp.iterdir()) == []


# ----------------------------------------------------------------------
# Sharded LUT matmul
# ----------------------------------------------------------------------
class TestShardedLutMatmul:
    def test_bit_identical_to_in_process_kernel(self):
        n = 16
        idx = np.arange(n)
        lut = np.multiply.outer(idx, idx).astype(np.int64)
        rng = np.random.default_rng(17)
        a = rng.integers(0, n, size=(11, 9))
        b = rng.integers(0, n, size=(9, 5))
        want = lut_matmul(lut, a, b)
        got = shard_lut_matmul(lut, a, b, workers=2, chunk=3)
        assert np.array_equal(want, got)
        assert np.array_equal(want, a @ b)

    def test_single_worker_short_circuits(self):
        lut = np.arange(16).reshape(4, 4).astype(np.int64)
        a = np.ones((3, 2), dtype=np.int64)
        b = np.ones((2, 2), dtype=np.int64)
        assert np.array_equal(
            shard_lut_matmul(lut, a, b, workers=1), lut_matmul(lut, a, b)
        )

    def test_approx_matmul_workers_knob(self):
        from repro.approx import TruncatedMultiplier
        from repro.approx.simulate import approx_matmul, signed_lut

        lut = signed_lut(TruncatedMultiplier(cut=4))
        rng = np.random.default_rng(18)
        a = rng.integers(-127, 128, size=(10, 7))
        b = rng.integers(-127, 128, size=(7, 4))
        assert np.array_equal(
            approx_matmul(a, b, lut), approx_matmul(a, b, lut, workers=2)
        )


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestParallelStats:
    def test_stats_shape_and_worker_throughput(self):
        model = TinyModel(seed=19)
        rng = np.random.default_rng(20)
        x = rng.normal(size=(24, 6))
        with ParallelRunner(model, workers=2, batch_size=4) as runner:
            runner.run(x)
            stats = runner.stats()
        assert stats["items"] == 24 and stats["batches"] == 6
        assert stats["wall_s"] > 0 and stats["items_per_s"] > 0
        assert stats["fallbacks"] == 0
        assert stats["per_worker"], "no worker reported stats"
        total_worker_items = sum(w["items"] for w in stats["per_worker"])
        assert total_worker_items == 24
        for w in stats["per_worker"]:
            assert w["pid"] != os.getpid()
            assert w["items_per_s"] > 0

    def test_worker_op_counters_merged_into_parent(self):
        net = kws_cnn1(seed=2)
        qnet = PositQuantizedNetwork(net, POSIT8)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(8, 1, 31, 20))
        with ParallelRunner(
            qnet, workers=2, batch_size=4
        ) as runner:
            runner.run(x)
            stats = runner.stats()
        assert stats["fallbacks"] == 0
        assert stats["ops"]["fused.decode"]["elements"] > 0  # decodes run only on workers
        assert stats["ops"]["matmul[values]"]["calls"] > 0

    @pytest.mark.parametrize("hand_plan", [True, False], ids=["fused", "pickled"])
    def test_poison_audit_comes_home_from_workers(self, hand_plan):
        """Workers ship their poison entries and ``METRICS`` delta home: the
        parent's report and ``poison.nonfinite`` delta equal in-process,
        whether the runner is handed the network's fused plan or the
        network itself (which it then runs as that same plan)."""
        from repro.engine.observe import METRICS

        x = np.random.default_rng(26).normal(size=(16, 1, 31, 20))
        x[::2, 0, :4] = np.nan

        def audited():
            return PositQuantizedNetwork(kws_cnn1(seed=3), POSIT8, poison_audit=True)

        solo = audited()
        before = METRICS.counters.get("poison.nonfinite", 0)
        expected = solo.predict(x, batch=4)
        solo_delta = METRICS.counters.get("poison.nonfinite", 0) - before

        qnet = audited()
        model = qnet.fused_plan() if hand_plan else qnet
        before = METRICS.counters.get("poison.nonfinite", 0)
        with ParallelRunner(model, workers=2, batch_size=4) as runner:
            out = runner.run(x)
            stats = runner.stats()
        delta = METRICS.counters.get("poison.nonfinite", 0) - before

        assert stats["fallbacks"] == 0 and len(stats["per_worker"]) >= 1
        assert out.tobytes() == expected.tobytes()
        assert solo.poison_report() and solo_delta > 0
        assert qnet.poison_report() == solo.poison_report()
        assert delta == solo_delta

    def test_reset_clears_everything(self):
        model = TinyModel(seed=22)
        rng = np.random.default_rng(23)
        with ParallelRunner(model, workers=2, batch_size=4) as runner:
            runner.run(rng.normal(size=(8, 6)))
            runner.reset()
            stats = runner.stats()
        assert stats["items"] == 0 and stats["per_worker"] == []
        assert stats["ops"] == {}

    def test_factory_spec_roundtrip(self):
        from repro.engine import FaultPlan

        qnet = PositQuantizedNetwork(
            kws_cnn1(seed=3),
            POSIT8,
            stable_contractions=True,
            fault_plan=FaultPlan(seed=4, activation_rate=0.01),
            poison_audit=True,
        )
        plan = qnet.fused_plan()
        spec = _factory_for(plan)
        assert isinstance(spec, FusedPlanSpec)
        rebuilt = pickle.loads(pickle.dumps(spec))()
        assert [s.describe() for s in rebuilt.stages] == [s.describe() for s in plan.stages]
        assert rebuilt.stable_contractions and rebuilt.poison_audit
        x = np.random.default_rng(25).normal(size=(4, 1, 31, 20))
        assert rebuilt.forward(x).tobytes() == plan.forward(x).tobytes()
        handle = ModelHandle(TinyModel(seed=24))
        assert handle() is handle.model


# ----------------------------------------------------------------------
# Lifecycle: close/restart must be leak-free and idempotent
# ----------------------------------------------------------------------
class TestRunnerLifecycle:
    def test_ten_runners_open_close_leak_no_children(self):
        """Serving churn: repeatedly built-and-closed pools must join every
        worker — a leaked spawn process per server restart is a slow OOM."""
        x = np.arange(24, dtype=np.float64).reshape(4, 6)
        for i in range(10):
            runner = ParallelRunner(TinyModel(), workers=2, batch_size=2)
            runner.run(x)
            runner.close()
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self):
        runner = ParallelRunner(TinyModel(), workers=2, batch_size=2)
        runner.run(np.zeros((2, 6)))
        runner.close()
        runner.close()
        runner.close()
        assert multiprocessing.active_children() == []

    def test_reopen_after_close_is_bit_identical(self):
        """A closed runner must rebuild its pool (and owned cache dir) on
        the next run, and the reopened pool's output must not drift."""
        x = np.arange(36, dtype=np.float64).reshape(6, 6)
        runner = ParallelRunner(TinyModel(), workers=2, batch_size=2)
        first = runner.run(x)
        runner.close()
        second = runner.run(x)  # transparently reopens
        runner.close()
        assert first.tobytes() == second.tobytes()
        assert multiprocessing.active_children() == []

    def test_restart_resets_crash_budget(self):
        """After chaos breaks a pool into in-process fallback, restart()
        must hand back a working pool with a fresh crash budget."""
        x = np.zeros((4, 6))
        runner = ParallelRunner(
            CrashInWorker(), workers=2, batch_size=2,
            task_retries=0, pool_restarts=0,
        )
        runner.run(x)  # crash -> broken -> in-process fallback
        assert runner._broken
        runner.restart()
        assert not runner._broken
        # The model still crashes workers, but the budget is fresh: the
        # runner degrades again instead of raising.
        out = runner.run(x)
        assert out.shape == (4, 3)
        runner.close()
        assert multiprocessing.active_children() == []

    def test_batched_runner_close_and_restart_delegate(self):
        runner = BatchedRunner(TinyModel(), batch_size=2, workers=2)
        x = np.ones((4, 6))
        first = runner.run(x)
        runner.close()
        runner.restart()
        second = runner.run(x)
        runner.close()
        assert first.tobytes() == second.tobytes()
        assert multiprocessing.active_children() == []


class TestFusedPoolLifecycle:
    """A fused plan on a worker pool survives runner churn and stalled
    workers: no spawn child outlives its runner, and every run's bytes
    match the single-process plan."""

    @staticmethod
    def _plan():
        from repro.engine.fused import FusedPlan

        return FusedPlan.compile(kws_cnn1(seed=0), POSIT8)

    def test_ten_fused_cycles_leak_nothing(self):
        """Serving churn: ten runners opened, run, and closed must leave
        no spawn children, and no run may drift."""
        plan = self._plan()
        x = np.random.default_rng(0).normal(size=(20, 1, 31, 20))
        ref = None
        for i in range(10):
            runner = ParallelRunner(plan, workers=2, batch_size=4)
            out = runner.run(x)
            runner.close()
            if ref is None:
                ref = out
            assert np.array_equal(out, ref), f"cycle {i} drifted"
        assert multiprocessing.active_children() == []

    def test_fused_timeout_falls_back_bit_identically(self):
        """A stalled worker (chaos slowdown past the task timeout) must
        not lose the span: the parent recomputes it in-process and the
        merged result is exact."""
        from repro.engine.faults import ChaosPlan

        plan = self._plan()
        x = np.random.default_rng(2).normal(size=(16, 1, 31, 20))
        ref = BatchedRunner(plan, batch_size=4).run(x)
        chaos = ChaosPlan(slow_rate=1.0, slow_s=5.0)
        runner = ParallelRunner(
            plan,
            workers=2,
            batch_size=4,
            chaos=chaos,
            task_timeout=0.5,
            task_retries=0,
            pool_restarts=0,
        )
        out = runner.run(x)
        stats = runner.stats()
        runner.close()
        assert np.array_equal(out, ref)
        assert stats["fallbacks"] > 0
