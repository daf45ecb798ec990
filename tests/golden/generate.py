"""Regenerate the golden-vector files in this directory.

Run from the repo root:

    PYTHONPATH=src python tests/golden/generate.py [name ...]

(no names: every file; a name is a file stem, e.g. ``fault_kws1_posit8``).

Every array is produced by the bit-exact *scalar* models
(:class:`repro.posit.Posit`, :class:`repro.floats.SoftFloat`) — never by
the vectorized engine — so the goldens pin today's scalar semantics as an
independent cross-check.  ``tests/test_golden_vectors.py`` replays them
against both the scalar models and the engine backends; a diff in either
means the numerics changed and the change must be deliberate.

The files are small (compressed .npz, ~100 KB total) and checked in, so
the test suite detects regressions without depending on this script.
"""

import math
import pathlib

import numpy as np

from repro.floats import FP8_E4M3, FP8_E5M2, SoftFloat
from repro.posit import POSIT8, Posit

HERE = pathlib.Path(__file__).resolve().parent

#: Seed for the encode golden inputs.  Never change it: the point of a
#: golden file is that the inputs stay frozen.
ENCODE_SEED = 20260806


def posit8_goldens() -> dict:
    fmt = POSIT8
    n = 1 << fmt.nbits
    posits = [Posit(fmt, p) for p in range(n)]
    values = np.array(
        [math.nan if p.is_nar() else p.to_float() for p in posits], dtype=np.float64
    )
    add = np.empty((n, n), dtype=np.uint8)
    mul = np.empty((n, n), dtype=np.uint8)
    for i, a in enumerate(posits):
        for j, b in enumerate(posits):
            add[i, j] = (a + b).pattern
            mul[i, j] = (a * b).pattern

    rng = np.random.default_rng(ENCODE_SEED)
    encode_in = np.concatenate(
        [
            rng.normal(scale=s, size=64) for s in (1e-3, 1.0, 1e3)
        ]
        + [np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 64.0, 1 / 64])]
    )
    encode_out = np.array(
        [Posit.from_float(fmt, float(v)).pattern for v in encode_in], dtype=np.uint8
    )
    return {
        "values": values,
        "add": add,
        "mul": mul,
        "encode_in": encode_in,
        "encode_out": encode_out,
    }


def fp8_goldens(fmt) -> dict:
    n = 1 << fmt.width
    floats = [SoftFloat(fmt, p) for p in range(n)]
    values = np.array([f.to_float() for f in floats], dtype=np.float64)
    add = np.empty((n, n), dtype=np.uint8)
    mul = np.empty((n, n), dtype=np.uint8)
    for i, a in enumerate(floats):
        for j, b in enumerate(floats):
            add[i, j] = a.add(b).pattern
            mul[i, j] = a.mul(b).pattern

    rng = np.random.default_rng(ENCODE_SEED + fmt.exp_bits)
    encode_in = np.concatenate(
        [rng.normal(scale=s, size=64) for s in (0.01, 1.0, 100.0)]
        + [np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])]
    )
    encode_out = np.array(
        [SoftFloat.from_float(fmt, float(v)).pattern for v in encode_in],
        dtype=np.uint8,
    )
    return {
        "values": values,
        "add": add,
        "mul": mul,
        "encode_in": encode_in,
        "encode_out": encode_out,
    }


def serve_goldens() -> dict:
    """Frozen inputs + outputs for the serving path's coalescing contract.

    Unlike the scalar-model goldens above, these ARE produced by the
    engine — deliberately: they pin the byte-exact output of the
    *stable-contraction* serving path (posit8 ``kws1`` inference, solo,
    in-process), so ``tests/test_serve_identity.py`` can replay the same
    samples solo, coalesced, and across worker counts and require all of
    them to match these bytes.
    """
    from repro.nn.posit_inference import PositQuantizedNetwork
    from repro.nn.zoo import kws_cnn1
    from repro.posit import STD_POSIT8

    rng = np.random.default_rng(ENCODE_SEED + 8000)
    x = rng.normal(size=(8, 1, 31, 20))
    # posit<8,2> — the serving protocol's wire default (bits=8, es=2).
    qnet = PositQuantizedNetwork(
        kws_cnn1(seed=0), STD_POSIT8, stable_contractions=True
    )
    # Solo reference: each sample forwarded alone.
    y = np.concatenate([qnet.forward(x[i : i + 1]) for i in range(len(x))], axis=0)
    return {"x": x, "y": y}


def fog_goldens() -> dict:
    """Frozen inputs + outputs for the fog routing-identity contract.

    Engine-produced, like :func:`serve_goldens`: a batch of posit<8,2>
    matmul operands and their stable-contraction products, computed by
    the backend directly (no fog, no serve).  ``tests/test_fog_identity.py``
    replays each pair through every fog path — local execution, a forced
    one-hop forward, and a content-store cache hit — and requires all of
    them to match these bytes.
    """
    from repro.engine.posit_backend import PositBackend
    from repro.posit.format import PositFormat

    rng = np.random.default_rng(ENCODE_SEED + 9000)
    a = rng.normal(size=(6, 4, 5))
    b = rng.normal(size=(6, 5, 3))
    backend = PositBackend(PositFormat(8, 2), stable_contractions=True)
    y = np.stack(
        [
            backend.decode(backend.matmul(backend.encode(a[i]), backend.encode(b[i])))
            for i in range(len(a))
        ]
    )
    return {"a": a, "b": b, "y": y}


def fused_mlp_goldens() -> dict:
    """Frozen inputs + outputs for the fused execution-strategy contract.

    The checked-in file was produced by the per-layer executors that
    preceded the compiled plan: a small posit<8,0> MLP whose bytes
    ``tests/test_fused_identity.py`` demands from ``reference_forward``
    and every plan configuration — single-process plan, split code
    boundary, and sharding across workers.  If a fused
    kernel ever rounds differently, the replay fails against these bytes
    even if the plan and the reference were changed in the same (wrong)
    way.  Regenerating runs today's plan.
    """
    from repro.nn.layers import Dense, ReLU
    from repro.nn.network import Sequential
    from repro.nn.posit_inference import PositQuantizedNetwork
    from repro.posit import POSIT8

    rng = np.random.default_rng(ENCODE_SEED + 7000)
    net = Sequential(
        [Dense(24, 32, rng, "fc1"), ReLU(), Dense(32, 8, rng, "fc2")],
        input_shape=(24,),
        name="fused-golden-mlp",
    )
    qnet = PositQuantizedNetwork(net, POSIT8)
    x = rng.normal(size=(12, 24))
    y = qnet.predict(x, batch=4)
    w = {f"w{i}": p.data for i, p in enumerate(net.params())}
    return {"x": x, "y": y, **w}


#: Fault-plan seed, activation rate and micro-batch size of
#: ``fault_kws1_posit8.npz``.
FAULT_SEED = 20260806
FAULT_RATE = 0.001
FAULT_BATCH = 4


def fault_goldens() -> dict:
    """Frozen outputs + poison report of a fault-injected network.

    The checked-in file was produced by the per-layer executors, before
    fault sites became stages of the compiled plan: kws1 at posit<8,2>
    (stable contractions) under ``FaultPlan(FAULT_SEED, activation_rate=
    FAULT_RATE)`` with the poison audit on, predicted in micro-batches of
    ``FAULT_BATCH`` over a batch carrying NaN and inf.  At rate 0.01 a
    flip turns some ReLU zero of every sample into NaR and every output
    row is NaN, which would pin nothing; at 0.001 seven of the sixteen
    rows stay finite, and each differs from the clean network's.  Flips
    are keyed on each activation's bytes, so ``tests/test_fault_golden.py``
    can demand the same outputs in-process and through a
    :class:`repro.engine.runner.BatchedRunner` with ``workers=2``: a moved
    fault site changes the bytes.
    """
    from repro.engine.faults import FaultPlan
    from repro.nn.posit_inference import PositQuantizedNetwork
    from repro.nn.zoo import kws_cnn1
    from repro.posit import STD_POSIT8

    rng = np.random.default_rng(ENCODE_SEED + 10000)
    x = rng.normal(size=(16, 1, 31, 20))
    x[2, 0, 4, 7] = np.nan
    x[9, 0, 0, 0] = np.nan
    x[13, 0, 30, 19] = np.inf
    qnet = PositQuantizedNetwork(
        kws_cnn1(seed=0),
        STD_POSIT8,
        stable_contractions=True,
        fault_plan=FaultPlan(seed=FAULT_SEED, activation_rate=FAULT_RATE),
        poison_audit=True,
    )
    y = qnet.predict(x, batch=FAULT_BATCH)
    report = qnet.poison_report()
    return {
        "x": x,
        "y": y,
        "poison_layer": np.array([e["layer"] for e in report]),
        "poison_name": np.array([e["name"] for e in report]),
        "poison_nonfinite": np.array([e["nonfinite"] for e in report]),
        "poison_elements": np.array([e["elements"] for e in report]),
    }


#: Fault-plan seed, activation rate and micro-batch size of
#: ``runner_fault.npz``.
RUNNER_FAULT_SEED = 20260807
RUNNER_FAULT_RATE = 0.005
RUNNER_FAULT_BATCH = 4


class TinyModel:
    """A generic picklable float model, ``forward(x) = x @ W``: what a
    worker pool ships by value, with no plan or quantization in the way."""

    def __init__(self):
        self.w = np.random.default_rng(ENCODE_SEED + 11000).normal(size=(6, 3))

    def forward(self, x):
        return np.asarray(x) @ self.w


def runner_fault_models() -> dict:
    """The two models of ``runner_fault.npz``: a generic ``forward(x)``
    model and the kws1 posit<8,2> plan (stable contractions)."""
    from repro.nn.posit_inference import PositQuantizedNetwork
    from repro.nn.zoo import kws_cnn1
    from repro.posit import STD_POSIT8

    qnet = PositQuantizedNetwork(kws_cnn1(seed=0), STD_POSIT8, stable_contractions=True)
    return {"tiny": TinyModel(), "kws1": qnet.fused_plan()}


def runner_fault_goldens() -> dict:
    """Frozen outputs of runner-level faults: float-word flips at the
    ``"runner.batch"`` site, applied by the runner to each micro-batch
    before the model sees it.

    Produced by the in-process :class:`repro.engine.runner.BatchedRunner`
    under ``FaultPlan(RUNNER_FAULT_SEED, activation_rate=RUNNER_FAULT_RATE)``
    in micro-batches of ``RUNNER_FAULT_BATCH``, for both models of
    :func:`runner_fault_models`.  Flips are keyed on each micro-batch's
    bytes, so ``tests/test_fault_golden.py`` can demand the same outputs
    from a worker pool.  At this rate 4 of the 256 tiny rows and 10 of the
    16 kws1 rows stay finite and differ from the clean run, so a moved or
    dropped flip changes the bytes.
    """
    from repro.engine.faults import FaultPlan
    from repro.engine.runner import BatchedRunner

    rng = np.random.default_rng(ENCODE_SEED + 11000)
    xs = {"tiny": rng.normal(size=(256, 6)), "kws1": rng.normal(size=(16, 1, 31, 20))}
    plan = FaultPlan(seed=RUNNER_FAULT_SEED, activation_rate=RUNNER_FAULT_RATE)
    out = {}
    for name, model in runner_fault_models().items():
        runner = BatchedRunner(model, batch_size=RUNNER_FAULT_BATCH, fault_plan=plan)
        out[f"x_{name}"] = xs[name]
        out[f"y_{name}"] = runner.run(xs[name])
    return out


GOLDENS = {
    "posit8": posit8_goldens,
    "fp8_e4m3": lambda: fp8_goldens(FP8_E4M3),
    "fp8_e5m2": lambda: fp8_goldens(FP8_E5M2),
    "serve_kws1_posit8": serve_goldens,
    "fog_posit8_matmul": fog_goldens,
    "fused_posit8_mlp": fused_mlp_goldens,
    "fault_kws1_posit8": fault_goldens,
    "runner_fault": runner_fault_goldens,
}


def main(names) -> None:
    """Write the named goldens (all of them when ``names`` is empty)."""
    for name in names or GOLDENS:
        path = HERE / f"{name}.npz"
        np.savez_compressed(path, **GOLDENS[name]())
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
