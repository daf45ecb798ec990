"""Golden replay: the fused path must reproduce frozen unfused bytes.

``tests/golden/fused_posit8_mlp.npz`` holds a posit<8,0> MLP prediction
produced by the per-layer executors that preceded the compiled plan.  The
reference semantics (:func:`reference_forward`) and every plan
configuration — ``predict``, the single-process plan, the split code
boundary, and sharding across two workers — must reproduce
those bytes exactly.  Pinning the bytes on disk (rather than comparing the
plan against the reference live) catches the failure mode a live
comparison cannot: a change that alters both numerics *together*.
"""

from pathlib import Path

import multiprocessing

import numpy as np
import pytest

from repro.engine import BatchedRunner
from repro.engine.fused import FusedPlan
from repro.engine.posit_backend import PositBackend
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Sequential
from repro.nn.posit_inference import PositQuantizedNetwork, reference_forward
from repro.posit import POSIT8

GOLDEN = Path(__file__).parent / "golden" / "fused_posit8_mlp.npz"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {k: data[k] for k in data.files}


#: Mirrors ``tests/golden/generate.py``'s ``ENCODE_SEED + 7000`` — the
#: weight-drift assertion below fails loudly if the two ever diverge.
_GOLDEN_SEED = 20260806 + 7000


@pytest.fixture(scope="module")
def net(golden):
    """The golden MLP, rebuilt by the generator's exact recipe."""
    rng = np.random.default_rng(_GOLDEN_SEED)
    net = Sequential(
        [Dense(24, 32, rng, "fc1"), ReLU(), Dense(32, 8, rng, "fc2")],
        input_shape=(24,),
        name="fused-golden-mlp",
    )
    # The rebuilt weights must match the frozen ones bit for bit, or the
    # replay below would be testing a different network.
    for i, p in enumerate(net.params()):
        assert np.array_equal(p.data, golden[f"w{i}"]), f"param {i} drifted"
    return net


def test_unfused_predict_still_matches_golden(golden, net):
    qnet = PositQuantizedNetwork(net, POSIT8)
    y = qnet.predict(golden["x"], batch=4)
    assert y.tobytes() == golden["y"].tobytes()


def test_fused_forward_matches_golden(golden, net):
    plan = FusedPlan.compile(net, POSIT8)
    outs = [plan.forward(golden["x"][s : s + 4]) for s in range(0, 12, 4)]
    assert np.concatenate(outs, axis=0).tobytes() == golden["y"].tobytes()


def test_fused_code_boundary_matches_golden(golden, net):
    plan = FusedPlan.compile(net, POSIT8)
    codes = plan.encode_input(golden["x"])
    outs = [plan.forward_codes(codes[s : s + 4]) for s in range(0, 12, 4)]
    assert np.concatenate(outs, axis=0).tobytes() == golden["y"].tobytes()


def test_fused_workers_pickled_shards_match_golden(golden, net):
    plan = FusedPlan.compile(net, POSIT8)
    with BatchedRunner(plan, workers=2, batch_size=4) as runner:
        y = runner.run(golden["x"])
    assert y.tobytes() == golden["y"].tobytes()
    assert multiprocessing.active_children() == []


def test_reference_matches_golden(golden, net):
    backend = PositBackend(POSIT8)
    outs = [reference_forward(net, backend, golden["x"][s : s + 4]) for s in range(0, 12, 4)]
    assert np.concatenate(outs, axis=0).tobytes() == golden["y"].tobytes()
