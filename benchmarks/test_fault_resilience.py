"""Fault resilience: DNN accuracy vs activation bit-flip rate per format.

The Table-II-style robustness comparison the fault layer exists for: a
trained float classifier is compiled into one
:class:`repro.engine.fused.FusedPlan` per format — the executor that
serves posit networks, with weights and layer inputs quantized onto the
format's grid — and the plan's fault stages let
:class:`repro.engine.faults.FaultPlan` flip one random bit per hit
activation code (``activation_rate`` per element, seeded and
deterministic).  Sweeping the rate for posit8, FP8 (E4M3) and binary16
measures how much classification accuracy each number format loses to the
same soft-error pressure — narrow formats concentrate meaning in fewer
bits, so a single flip costs them more, while posit tapering changes
*which* magnitudes are fragile.

Results go to ``BENCH_faults.json`` at the repo root and
``benchmarks/results/fault_resilience.txt``.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import synthetic_images
from repro.engine import FaultPlan, FusedPlan, PositBackend, SoftFloatBackend
from repro.floats import BINARY16, FP8_E4M3
from repro.nn.train import evaluate_accuracy, train
from repro.nn.zoo import resnet_mini
from repro.posit import POSIT8

REPO_ROOT = Path(__file__).resolve().parent.parent
QUICK = os.environ.get("REPRO_QUICK") == "1"

SEED = 0
FLIP_RATES = [0.0, 1e-3, 1e-2, 5e-2]
N_PER_CLASS = 6 if QUICK else 24
EPOCHS = 2 if QUICK else 10


def _backends():
    return {
        "posit8": PositBackend(POSIT8, strategy="via-float"),
        "fp8_e4m3": SoftFloatBackend(FP8_E4M3, strategy="via-float"),
        "binary16": SoftFloatBackend(BINARY16, strategy="via-float"),
    }


def _plan(net, backend, rate):
    plan = FaultPlan(seed=SEED, activation_rate=rate)
    return FusedPlan.compile(net, backend.fmt, backend=backend, fault_plan=plan)


@pytest.fixture(scope="module")
def measurement():
    x, y = synthetic_images(2 * N_PER_CLASS, classes=10, size=16, seed=SEED)
    n_train = 10 * N_PER_CLASS
    rng = np.random.default_rng(SEED)
    order = rng.permutation(len(x))
    xtr, ytr = x[order[:n_train]], y[order[:n_train]]
    xte, yte = x[order[n_train:]], y[order[n_train:]]

    net = resnet_mini(seed=SEED)
    train(net, xtr, ytr, epochs=EPOCHS, batch=32, seed=SEED)
    float_acc = evaluate_accuracy(net.forward, xte, yte)

    formats = {}
    for name, backend in _backends().items():
        accs = {}
        for rate in FLIP_RATES:
            accs[str(rate)] = evaluate_accuracy(_plan(net, backend, rate).forward, xte, yte)
        formats[name] = accs

    return {
        "model": "resnet-mini",
        "dataset": f"synthetic-images ({n_train} train / {len(xte)} test)",
        "seed": SEED,
        "flip_rates": FLIP_RATES,
        "float_accuracy": float_acc,
        "formats": formats,
        "quick": QUICK,
    }


def test_fault_resilience_table(measurement, report):
    m = measurement
    header = "format     " + "".join(f"  rate={r:<8g}" for r in m["flip_rates"])
    lines = [
        f"model        {m['model']}  ({m['dataset']})",
        f"float acc    {m['float_accuracy']:.3f}",
        header,
    ]
    for name, accs in m["formats"].items():
        row = "".join(f"  {accs[str(r)]:<13.3f}" for r in m["flip_rates"])
        lines.append(f"{name:<11}{row}")
    report("fault_resilience", lines)
    (REPO_ROOT / "BENCH_faults.json").write_text(json.dumps(m, indent=2) + "\n")

    chance = 0.1
    for name, accs in m["formats"].items():
        fault_free = accs[str(FLIP_RATES[0])]
        # Fault-free quantized inference must track the float baseline...
        assert fault_free >= m["float_accuracy"] - 0.25, (name, fault_free)
        # ...and injected flips may degrade accuracy but never "improve"
        # it beyond noise, nor drive it meaningfully below chance.
        worst = min(accs.values())
        assert worst >= chance - 0.05, (name, worst)
        assert accs[str(FLIP_RATES[-1])] <= fault_free + 0.15, (name, accs)


def test_fault_injection_is_deterministic(measurement):
    """The whole table is reproducible: same plan, same accuracy, bit for bit."""
    backend = _backends()["posit8"]
    x, y = synthetic_images(2, classes=10, size=16, seed=SEED + 1)
    net = resnet_mini(seed=SEED)
    y1 = _plan(net, backend, 0.01).forward(x)
    y2 = _plan(net, backend, 0.01).forward(x)
    assert np.array_equal(y1, y2, equal_nan=True)
