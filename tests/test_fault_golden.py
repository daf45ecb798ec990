"""Golden replay: activation faults and the poison audit keep their sites.

``tests/golden/fault_kws1_posit8.npz`` holds the outputs and the per-layer
poison report of kws1 at posit<8,2> under a seeded ``FaultPlan`` with
``activation_rate``, produced by the per-layer executors at generation
time (see ``tests/golden/generate.py``).  Every flip is keyed on the bytes
of the activation it corrupts, so a fault site that moved — before or
after a different op, or onto a different micro-batch — changes these
bytes.  The network must reproduce them in-process, sharded through
``predict(workers=2)``, and through a :class:`ParallelRunner`.
"""

import multiprocessing
from pathlib import Path

import numpy as np
import pytest

from repro.engine import FaultPlan, ParallelRunner
from repro.nn.posit_inference import PositQuantizedNetwork
from repro.nn.zoo import kws_cnn1
from repro.posit import STD_POSIT8
from tests.golden.generate import FAULT_BATCH, FAULT_RATE, FAULT_SEED

GOLDEN = Path(__file__).parent / "golden" / "fault_kws1_posit8.npz"


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


def test_predict_workers(golden):
    y = _qnet().predict(golden["x"], batch=FAULT_BATCH, workers=2)
    assert y.tobytes() == golden["y"].tobytes()
    assert multiprocessing.active_children() == []


def test_parallel_runner(golden):
    with ParallelRunner(_qnet(), workers=2, batch_size=FAULT_BATCH) as runner:
        segments = []
        create = runner._create_segment
        runner._create_segment = lambda size: segments.append(size) or create(size)
        y = runner.run(golden["x"])
        stats = runner.stats()
    assert len(segments) == 2  # codes + outputs: the shared-memory transport
    assert stats["fallbacks"] == 0  # computed on the workers
    assert y.tobytes() == golden["y"].tobytes()
