"""Deterministic fault injection: FaultPlan, ChaosPlan, poison audit.

The load-bearing property under test is *determinism*: every injection
site derives its RNG from ``(plan.seed, site, content hash of the data)``,
never from call order or process identity.  The acceptance bar is the
parallel bit-identity tests — the same plan must corrupt identically
in-process, across runs, and across ``workers=N`` sharding.

Chaos tests exercise the graceful-degradation ladder of
:class:`repro.engine.parallel.ParallelRunner`: pool retry, pool restart,
and only then the in-process fallback, with every terminal fallback
classified by cause.
"""

import numpy as np

from repro.engine import (
    METRICS,
    BatchedRunner,
    ChaosPlan,
    FaultPlan,
    FormatFaultModel,
    KernelRegistry,
    ParallelRunner,
    PositBackend,
    SoftFloatBackend,
    apply_code_faults,
)
from repro.floats import FP8_E4M3
from repro.nn.posit_inference import PositQuantizedNetwork
from repro.nn.zoo import kws_cnn1
from repro.posit import POSIT8


class TinyModel:
    """Picklable float model: y = x @ w (deterministic per seed)."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(size=(6, 3))

    def forward(self, x):
        return x @ self.w


class PairwisePositModel:
    """Posit add/mul over code pairs through the *process-wide* registry.

    Workers build the backend against their own REGISTRY, whose fault plan
    arrives via the pool initializer — the LUT-corruption sharing path.
    """

    def forward(self, codes):
        be = PositBackend(POSIT8, strategy="pairwise")
        a, b = codes[:, 0], codes[:, 1]
        return np.stack([be.add(a, b), be.mul(a, b)], axis=1)


# ----------------------------------------------------------------------
# FaultPlan primitives
# ----------------------------------------------------------------------
class TestFlipBits:
    def test_deterministic_across_plan_instances(self):
        arr = np.arange(4096, dtype=np.uint8)
        a = FaultPlan(seed=7).flip_bits(arr, 8, 0.25, "site")
        b = FaultPlan(seed=7).flip_bits(arr, 8, 0.25, "site")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, arr)

    def test_different_seeds_differ(self):
        arr = np.arange(4096, dtype=np.uint8)
        a = FaultPlan(seed=1).flip_bits(arr, 8, 0.25, "site")
        b = FaultPlan(seed=2).flip_bits(arr, 8, 0.25, "site")
        assert not np.array_equal(a, b)

    def test_different_sites_are_independent_streams(self):
        arr = np.arange(4096, dtype=np.uint8)
        plan = FaultPlan(seed=7)
        a = plan.flip_bits(arr, 8, 0.25, "site-a")
        b = plan.flip_bits(arr, 8, 0.25, "site-b")
        assert not np.array_equal(a, b)

    def test_zero_rate_returns_input_unchanged(self):
        arr = np.arange(64, dtype=np.uint8)
        out = FaultPlan(seed=0).flip_bits(arr, 8, 0.0, "site")
        assert out is arr

    def test_flips_stay_below_width(self):
        arr = np.random.default_rng(0).integers(0, 16, size=4096).astype(np.uint8)
        out = FaultPlan(seed=3).flip_bits(arr, 4, 0.5, "site")
        assert not np.array_equal(out, arr)
        assert int(out.max()) < 16  # only bits 0..3 ever flip

    def test_signed_dtype_supported(self):
        arr = np.random.default_rng(0).integers(-100, 100, size=2048).astype(np.int8)
        out = FaultPlan(seed=5).flip_bits(arr, 8, 0.25, "site")
        assert out.dtype == np.int8
        assert not np.array_equal(out, arr)

    def test_flip_metric_counted(self):
        before = METRICS.counters.get("faults.bits_flipped", 0)
        FaultPlan(seed=7).flip_bits(np.arange(4096, dtype=np.uint8), 8, 0.25, "m")
        assert METRICS.counters.get("faults.bits_flipped", 0) > before


class TestRegistryLUTFaults:
    KEY = ("posit", 8, 0, "faulttest")

    @staticmethod
    def _build():
        grid = np.add.outer(np.arange(256), np.arange(256)) % 256
        return {"add": grid.astype(np.uint8)}

    def test_memo_stays_pristine(self):
        plan = FaultPlan(seed=3, lut_rate=0.02)
        reg = KernelRegistry(fault_plan=plan)
        t1 = reg.get(self.KEY, self._build)
        t2 = reg.get(self.KEY, self._build)
        pristine = self._build()
        # Deterministic corruption, re-derived identically per call...
        assert np.array_equal(t1["add"], t2["add"])
        assert not np.array_equal(t1["add"], pristine["add"])
        # ...while the memo keeps the pristine bytes.
        reg.fault_plan = None
        memo = reg.get(self.KEY, self._build)
        assert reg.stats()["misses"] == 1  # served from the memo, not rebuilt
        assert np.array_equal(memo["add"], pristine["add"])

    def test_only_eligible_tables_corrupted(self):
        plan = FaultPlan(seed=3, lut_rate=0.05)
        tables = {
            "add": np.arange(4096, dtype=np.uint8).reshape(64, 64),
            "other": np.arange(4096, dtype=np.uint8).reshape(64, 64),
            "values": np.linspace(-4, 4, 256),
            "boundaries": np.linspace(-4, 4, 255),
        }
        out = plan.corrupt_tables("slug", tables)
        assert not np.array_equal(out["add"], tables["add"])
        assert out["other"] is tables["other"]  # not in lut_tables
        assert out["values"] is tables["values"]  # float codec tables stay exact
        assert out["boundaries"] is tables["boundaries"]

    def test_float_tables_never_flipped(self):
        plan = FaultPlan(seed=3, lut_rate=1.0)
        arr = np.linspace(-1, 1, 128)
        assert plan.corrupt_table("s", "add", arr) is arr


class TestBackendOpFaults:
    def _codes(self):
        rng = np.random.default_rng(0)
        return rng.integers(0, 256, size=2048).astype(np.uint8), rng.integers(
            0, 256, size=2048
        ).astype(np.uint8)

    def test_posit_op_faults_deterministic(self):
        a, b = self._codes()
        clean = PositBackend(POSIT8, strategy="pairwise")
        plan = FaultPlan(seed=1, op_rate=0.05)
        f1 = PositBackend(POSIT8, strategy="pairwise", fault_plan=plan)
        f2 = PositBackend(POSIT8, strategy="pairwise", fault_plan=plan)
        y1, y2, y0 = f1.add(a, b), f2.add(a, b), clean.add(a, b)
        assert np.array_equal(y1, y2)
        assert not np.array_equal(y1, y0)
        assert y1.dtype == y0.dtype  # still valid posit8 codes

    def test_ops_filter_restricts_injection(self):
        a, b = self._codes()
        clean = PositBackend(POSIT8, strategy="pairwise")
        plan = FaultPlan(seed=1, op_rate=0.05, ops=("mul",))
        faulty = PositBackend(POSIT8, strategy="pairwise", fault_plan=plan)
        assert np.array_equal(faulty.add(a, b), clean.add(a, b))
        assert not np.array_equal(faulty.mul(a, b), clean.mul(a, b))

    def test_softfloat_op_faults(self):
        a, b = self._codes()
        clean = SoftFloatBackend(FP8_E4M3, strategy="pairwise")
        plan = FaultPlan(seed=4, op_rate=0.05)
        faulty = SoftFloatBackend(FP8_E4M3, strategy="pairwise", fault_plan=plan)
        y = faulty.mul(a, b)
        assert not np.array_equal(y, clean.mul(a, b))
        assert np.array_equal(y, faulty.mul(a, b))

    def test_apply_code_faults_none_safe(self):
        codes = np.arange(16, dtype=np.uint8)
        assert apply_code_faults(None, "be", "add", codes, 8) is codes
        assert apply_code_faults(FaultPlan(seed=0), "be", "add", codes, 8) is codes


# ----------------------------------------------------------------------
# Activation faults + poison audit
# ----------------------------------------------------------------------
class TestActivationFaults:
    def test_posit_network_faults_deterministic(self):
        net = kws_cnn1(seed=0)
        x = np.random.default_rng(1).normal(size=(4, 1, 31, 20))
        plan = FaultPlan(seed=11, activation_rate=0.01)
        clean = PositQuantizedNetwork(net, POSIT8).forward(x)
        y1 = PositQuantizedNetwork(net, POSIT8, fault_plan=plan).forward(x)
        y2 = PositQuantizedNetwork(net, POSIT8, fault_plan=plan).forward(x)
        # Flips can land on NaR codes, which decode to NaN — equal_nan keeps
        # the bit-identity comparison honest for those elements.
        assert np.array_equal(y1, y2, equal_nan=True)
        assert not np.array_equal(y1, clean, equal_nan=True)

    def test_corrupt_floats_deterministic(self):
        x = np.random.default_rng(2).normal(size=(64, 6))
        plan = FaultPlan(seed=9, activation_rate=0.05)
        a = plan.corrupt_floats(x, "runner.batch")
        b = plan.corrupt_floats(x, "runner.batch")
        assert np.array_equal(a, b, equal_nan=True)
        assert a.shape == x.shape and a.dtype == x.dtype
        assert not np.array_equal(a, x, equal_nan=True)

    def test_corrupt_floats_ignores_integer_arrays(self):
        codes = np.arange(64, dtype=np.uint8)
        plan = FaultPlan(seed=9, activation_rate=0.5)
        assert plan.corrupt_floats(codes, "s") is codes


class TestPoisonAudit:
    def test_nan_propagation_counted_per_layer(self):
        net = kws_cnn1(seed=0)
        qnet = PositQuantizedNetwork(net, POSIT8, poison_audit=True)
        x = np.random.default_rng(0).normal(size=(2, 1, 31, 20))
        x[0, 0, 0, 0] = np.nan
        before = METRICS.counters.get("poison.nonfinite", 0)
        qnet.forward(x)
        report = qnet.poison_report()
        assert len(report) == len(net.layers)
        assert all(e["nonfinite"] > 0 for e in report)  # NaR reaches the head
        assert report[-1]["name"] == "layer.Dense"
        assert METRICS.counters.get("poison.nonfinite", 0) > before
        qnet.reset_poison()
        assert qnet.poison_report() == []

    def test_clean_input_reports_zero(self):
        net = kws_cnn1(seed=0)
        qnet = PositQuantizedNetwork(net, POSIT8, poison_audit=True)
        qnet.forward(np.random.default_rng(0).normal(size=(2, 1, 31, 20)))
        assert all(e["nonfinite"] == 0 for e in qnet.poison_report())


# ----------------------------------------------------------------------
# The acceptance bar: bit-identical faults across worker counts
# ----------------------------------------------------------------------
class TestParallelBitIdentity:
    def test_activation_faults_identical_across_worker_counts(self):
        net = kws_cnn1(seed=0)
        plan = FaultPlan(seed=21, activation_rate=0.01)
        qnet = PositQuantizedNetwork(net, POSIT8, fault_plan=plan)
        x = np.random.default_rng(3).normal(size=(16, 1, 31, 20))

        y_inproc = BatchedRunner(qnet, batch_size=4).run(x)
        with ParallelRunner(
            qnet, workers=2, batch_size=4
        ) as runner:
            y_par = runner.run(x)
            y_par2 = runner.run(x)
            stats = runner.stats()
        assert stats["fallbacks"] == 0  # genuinely computed on workers
        assert np.array_equal(y_inproc, y_par, equal_nan=True)
        assert np.array_equal(y_par, y_par2, equal_nan=True)  # run-to-run determinism

    def test_float_batch_faults_identical_across_worker_counts(self):
        plan = FaultPlan(seed=17, activation_rate=0.05)
        x = np.random.default_rng(4).normal(size=(16, 6))
        y_inproc = BatchedRunner(TinyModel(seed=2), batch_size=4, fault_plan=plan).run(x)
        with ParallelRunner(
            TinyModel(seed=2),
            workers=2,
            batch_size=4,
            fault_plan=plan,
        ) as runner:
            y_par = runner.run(x)
            stats = runner.stats()
        assert stats["fallbacks"] == 0
        assert np.array_equal(y_inproc, y_par, equal_nan=True)

    def test_runner_faults_over_a_quantized_network(self):
        """A runner's FaultPlan rides the pool initializer into each
        worker's registry; the plans the workers compile must accept an
        activation-only plan (only ``lut_rate`` is refused) and compute on
        the pool, not fall back."""
        qnet = PositQuantizedNetwork(kws_cnn1(seed=0), POSIT8)
        plan = FaultPlan(seed=23, activation_rate=0.05)
        x = np.random.default_rng(6).normal(size=(16, 1, 31, 20))
        want = BatchedRunner(qnet, batch_size=4, fault_plan=plan).run(x)
        with ParallelRunner(
            qnet, workers=2, batch_size=4, fault_plan=plan
        ) as runner:
            got = runner.run(x)
            stats = runner.stats()
        assert stats["fallbacks"] == 0
        assert np.array_equal(got, want, equal_nan=True)

    def test_lut_faults_identical_across_processes(self):
        plan = FaultPlan(seed=9, lut_rate=0.01)
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 256, size=(32, 2)).astype(np.uint8)

        # Expected: a private registry applying the same plan in-process.
        reg = KernelRegistry(fault_plan=plan)
        be = PositBackend(POSIT8, strategy="pairwise", registry=reg)
        want = np.stack([be.add(pairs[:, 0], pairs[:, 1]), be.mul(pairs[:, 0], pairs[:, 1])], axis=1)

        with ParallelRunner(
            PairwisePositModel(),
            workers=2,
            batch_size=8,
            fault_plan=plan,
        ) as runner:
            got = runner.run(pairs)
            stats = runner.stats()
        assert stats["fallbacks"] == 0
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Chaos: crashes, slowdowns, and the degradation ladder
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_decide_is_deterministic(self):
        a = ChaosPlan(seed=5, crash_rate=0.5, slow_rate=0.2)
        b = ChaosPlan(seed=5, crash_rate=0.5, slow_rate=0.2)
        decisions = [a.decide(c, t) for c in range(20) for t in range(3)]
        assert decisions == [b.decide(c, t) for c in range(20) for t in range(3)]
        assert "crash" in decisions and None in decisions

    def test_attempt_filter(self):
        plan = ChaosPlan(seed=0, crash_rate=1.0, attempts=(0,))
        assert plan.decide(3, 0) == "crash"
        assert plan.decide(3, 1) is None

    def test_crash_once_then_retry_succeeds(self):
        chaos = ChaosPlan(seed=0, crash_rate=1.0, attempts=(0,))
        x = np.random.default_rng(6).normal(size=(16, 6))
        with ParallelRunner(
            TinyModel(seed=3),
            workers=2,
            batch_size=4,
            chaos=chaos,
            task_retries=1,
            pool_restarts=2,
        ) as runner:
            y = runner.run(x)
            stats = runner.stats()
        assert np.array_equal(y, TinyModel(seed=3).forward(x))
        assert stats["fallbacks"] == 0  # recovered on the pool, not in-process
        assert stats["pool_restarts"] >= 1
        assert stats["task_retries"] >= 1

    def test_persistent_crashes_exhaust_retries_then_fall_back(self):
        chaos = ChaosPlan(seed=0, crash_rate=1.0)  # every attempt crashes
        x = np.random.default_rng(7).normal(size=(16, 6))
        with ParallelRunner(
            TinyModel(seed=4),
            workers=2,
            batch_size=4,
            chaos=chaos,
            task_retries=1,
            pool_restarts=3,
        ) as runner:
            y = runner.run(x)
            stats = runner.stats()
        assert np.array_equal(y, TinyModel(seed=4).forward(x))
        assert stats["fallbacks"] >= 1
        assert sum(stats["fallback_causes"].values()) == stats["fallbacks"]
        assert stats["fallback_causes"].get("retry_exhausted", 0) >= 1

    def test_slowdown_trips_timeout_cause(self):
        chaos = ChaosPlan(seed=0, slow_rate=1.0, slow_s=5.0)
        x = np.random.default_rng(8).normal(size=(8, 6))
        with ParallelRunner(
            TinyModel(seed=5),
            workers=2,
            batch_size=4,
            chaos=chaos,
            task_timeout=0.25,
            task_retries=0,
        ) as runner:
            y = runner.run(x)
            stats = runner.stats()
        assert np.array_equal(y, TinyModel(seed=5).forward(x))
        assert stats["fallbacks"] >= 1
        assert stats["fallback_causes"].get("timeout", 0) >= 1


# ----------------------------------------------------------------------
# FormatFaultModel (the resilience-benchmark harness)
# ----------------------------------------------------------------------
class TestFormatFaultModel:
    def _setup(self):
        net = kws_cnn1(seed=0)
        x = np.random.default_rng(10).normal(size=(4, 1, 31, 20))
        return net, x

    def test_zero_rate_is_plain_quantization(self):
        net, x = self._setup()
        be = SoftFloatBackend(FP8_E4M3, strategy="via-float")
        baseline = FormatFaultModel(net, be).forward(x)
        zero = FormatFaultModel(net, be, FaultPlan(seed=1, activation_rate=0.0)).forward(x)
        assert np.array_equal(baseline, zero, equal_nan=True)

    def test_faults_deterministic_and_visible(self):
        net, x = self._setup()
        be = PositBackend(POSIT8, strategy="via-float")
        plan = FaultPlan(seed=2, activation_rate=0.02)
        y1 = FormatFaultModel(net, be, plan).forward(x)
        y2 = FormatFaultModel(net, be, plan).forward(x)
        clean = FormatFaultModel(net, be).forward(x)
        assert np.array_equal(y1, y2, equal_nan=True)
        assert not np.array_equal(y1, clean, equal_nan=True)
