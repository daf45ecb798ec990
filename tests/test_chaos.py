"""Chaos suite: graceful degradation under crashes, stalls and bit flips.

The CI ``chaos`` job runs this file (plus the parallel suite) with failure
injection turned up via environment variables::

    REPRO_CHAOS_CRASH_RATE=0.3 REPRO_CHAOS_LUT_RATE=0.01 \
        pytest tests/test_chaos.py tests/test_engine_parallel.py

The invariant under test is that injected infrastructure failures (worker
crashes, slowdowns) never change the numerics — every chunk is retried,
the pool restarted, or the chunk recomputed in-process with identical
math — while injected *data* corruption (LUT / activation bit flips) stays
bit-deterministic under its seed.  Rates default to mild values so the
file is also meaningful in a plain local run.
"""

import os

import numpy as np

from repro.engine import (
    BatchedRunner,
    ChaosPlan,
    FaultPlan,
    KernelRegistry,
    PositBackend,
)
from repro.posit import POSIT8

CRASH_RATE = float(os.environ.get("REPRO_CHAOS_CRASH_RATE", "0.25"))
SLOW_RATE = float(os.environ.get("REPRO_CHAOS_SLOW_RATE", "0.0"))
LUT_RATE = float(os.environ.get("REPRO_CHAOS_LUT_RATE", "0.01"))
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

CAUSES = {"crash", "timeout", "retry_exhausted"}


class TinyModel:
    """Picklable float model: y = x @ w (deterministic per seed)."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(size=(6, 3))

    def forward(self, x):
        return x @ self.w


def _chaos():
    return ChaosPlan(seed=SEED, crash_rate=CRASH_RATE, slow_rate=SLOW_RATE, slow_s=0.1)


class TestParallelUnderChaos:
    def test_results_survive_injected_crashes(self):
        x = np.random.default_rng(SEED).normal(size=(24, 6))
        with BatchedRunner(
            TinyModel(seed=1),
            workers=2,
            batch_size=4,
            chaos=_chaos(),
            task_retries=1,
            pool_restarts=2,
        ) as runner:
            y = runner.run(x)
            stats = runner.stats()
        assert np.array_equal(y, TinyModel(seed=1).forward(x))
        assert sum(stats["fallback_causes"].values()) == stats["fallbacks"]
        assert set(stats["fallback_causes"]) <= CAUSES

    def test_chaos_plus_activation_faults_stay_bit_identical(self):
        """Crashes must not perturb *where* the seeded bit flips land."""
        plan = FaultPlan(seed=SEED + 1, activation_rate=0.05)
        x = np.random.default_rng(SEED + 1).normal(size=(24, 6))
        want = BatchedRunner(TinyModel(seed=2), batch_size=4, fault_plan=plan).run(x)
        with BatchedRunner(
            TinyModel(seed=2),
            workers=2,
            batch_size=4,
            chaos=_chaos(),
            fault_plan=plan,
            task_retries=1,
            pool_restarts=2,
        ) as runner:
            got = runner.run(x)
        assert np.array_equal(got, want, equal_nan=True)

    def test_repeated_runs_degrade_gracefully(self):
        """Even once the restart budget is spent, runs keep answering."""
        x = np.random.default_rng(SEED + 2).normal(size=(16, 6))
        with BatchedRunner(
            TinyModel(seed=3),
            workers=2,
            batch_size=4,
            chaos=ChaosPlan(seed=SEED, crash_rate=max(CRASH_RATE, 0.5)),
            task_retries=1,
            pool_restarts=1,
        ) as runner:
            for _ in range(3):
                y = runner.run(x)
                assert np.array_equal(y, TinyModel(seed=3).forward(x))
            stats = runner.stats()
        assert stats["pool_restarts"] <= 1
        assert set(stats["fallback_causes"]) <= CAUSES


class TestLUTFlipsUnderChaos:
    def test_lut_corruption_is_deterministic(self):
        plan = FaultPlan(seed=SEED, lut_rate=LUT_RATE)
        rng = np.random.default_rng(SEED)
        a = rng.integers(0, 256, size=1024).astype(np.uint8)
        b = rng.integers(0, 256, size=1024).astype(np.uint8)
        be1 = PositBackend(POSIT8, strategy="pairwise", registry=KernelRegistry(fault_plan=plan))
        be2 = PositBackend(POSIT8, strategy="pairwise", registry=KernelRegistry(fault_plan=plan))
        assert np.array_equal(be1.add(a, b), be2.add(a, b))
        assert np.array_equal(be1.mul(a, b), be2.mul(a, b))

    def test_corruption_rate_tracks_configured_rate(self):
        plan = FaultPlan(seed=SEED, lut_rate=LUT_RATE)
        clean = PositBackend(POSIT8, strategy="pairwise", registry=KernelRegistry())
        faulty = PositBackend(
            POSIT8, strategy="pairwise", registry=KernelRegistry(fault_plan=plan)
        )
        a, bb = map(np.ravel, np.meshgrid(np.arange(256), np.arange(256)))
        a, bb = a.astype(np.uint8), bb.astype(np.uint8)
        frac = np.mean(faulty.add(a, bb) != clean.add(a, bb))
        if LUT_RATE == 0.0:
            assert frac == 0.0
        else:
            # One flip per hit entry of the 256x256 table; allow generous
            # slack for the binomial draw.
            assert 0.1 * LUT_RATE < frac < 10 * LUT_RATE
