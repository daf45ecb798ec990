"""Golden replay: activation faults and the poison audit keep their sites.

``tests/golden/fault_kws1_posit8.npz`` holds the outputs and the per-layer
poison report of kws1 at posit<8,2> under a seeded ``FaultPlan`` with
``activation_rate``, produced by the per-layer executors at generation
time (see ``tests/golden/generate.py``).  Every flip is keyed on the bytes
of the activation it corrupts, so a fault site that moved — before or
after a different op, or onto a different micro-batch — changes these
bytes.  The network must reproduce them in-process and sharded through a
runner with ``workers=2``.

``tests/golden/runner_fault.npz`` pins the runner's own fault site: float
words flipped in each micro-batch at ``"runner.batch"`` before a generic
``forward(x)`` model or the kws1 posit<8,2> plan sees it.  The in-process
:class:`BatchedRunner` produced it; the same runner on a worker pool
must reproduce it without falling back.
"""

import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.engine import BatchedRunner, FaultPlan
from repro.nn.posit_inference import PositQuantizedNetwork
from repro.nn.zoo import kws_cnn1
from repro.posit import STD_POSIT8
from tests.golden.generate import (
    FAULT_BATCH,
    FAULT_RATE,
    FAULT_SEED,
    RUNNER_FAULT_BATCH,
    RUNNER_FAULT_RATE,
    RUNNER_FAULT_SEED,
    runner_fault_models,
)

GOLDEN = Path(__file__).parent / "golden" / "fault_kws1_posit8.npz"
RUNNER_GOLDEN = Path(__file__).parent / "golden" / "runner_fault.npz"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {k: data[k] for k in data.files}


def _qnet():
    return PositQuantizedNetwork(
        kws_cnn1(seed=0),
        STD_POSIT8,
        stable_contractions=True,
        fault_plan=FaultPlan(seed=FAULT_SEED, activation_rate=FAULT_RATE),
        poison_audit=True,
    )


def test_in_process_outputs_and_poison_report(golden):
    qnet = _qnet()
    y = qnet.predict(golden["x"], batch=FAULT_BATCH)
    assert y.tobytes() == golden["y"].tobytes()
    report = qnet.poison_report()
    assert [e["layer"] for e in report] == golden["poison_layer"].tolist()
    assert [e["name"] for e in report] == golden["poison_name"].tolist()
    assert [e["nonfinite"] for e in report] == golden["poison_nonfinite"].tolist()
    assert [e["elements"] for e in report] == golden["poison_elements"].tolist()


def test_parallel_runner(golden):
    with BatchedRunner(_qnet(), workers=2, batch_size=FAULT_BATCH) as runner:
        y = runner.run(golden["x"])
        stats = runner.stats()
    assert stats["fallbacks"] == 0  # computed on the workers
    assert y.tobytes() == golden["y"].tobytes()
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def runner_golden():
    with np.load(RUNNER_GOLDEN) as data:
        return {k: data[k] for k in data.files}


RUNNERS = {
    "batched": lambda model, plan: BatchedRunner(
        model, batch_size=RUNNER_FAULT_BATCH, fault_plan=plan
    ),
    "batched-workers": lambda model, plan: BatchedRunner(
        model, batch_size=RUNNER_FAULT_BATCH, workers=2, fault_plan=plan
    ),
}


@pytest.mark.parametrize("runner", sorted(RUNNERS))
@pytest.mark.parametrize("model", ["tiny", "kws1"])
def test_runner_faults(runner_golden, model, runner):
    x, want = runner_golden[f"x_{model}"], runner_golden[f"y_{model}"]
    plan = FaultPlan(seed=RUNNER_FAULT_SEED, activation_rate=RUNNER_FAULT_RATE)
    with RUNNERS[runner](runner_fault_models()[model], plan) as r:
        y = r.run(x)
        stats = r.stats()
    assert y.tobytes() == want.tobytes()
    assert stats.get("fallbacks", 0) == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("model", ["tiny", "kws1"])
def test_runner_fault_golden_pins_finite_flips(runner_golden, model):
    """Some rows stay finite yet differ from the clean run: the golden
    pins where flips land, not just that outputs went NaN."""
    x, want = runner_golden[f"x_{model}"], runner_golden[f"y_{model}"]
    clean = BatchedRunner(runner_fault_models()[model], batch_size=RUNNER_FAULT_BATCH).run(x)
    changed = np.isfinite(want).all(axis=1) & (want != clean).any(axis=1)
    assert changed.any()
