"""Fused code-space inference: kernel parity, plan identity, sharding.

The contract under test is the strongest the repo makes: a
:class:`repro.engine.fused.FusedPlan` — the one executor of a posit
network — changes no numerics.  For any input, any model, any supported
format, its output is ``array_equal`` (bytes, not tolerances) with
:func:`repro.nn.posit_inference.reference_forward` over the same backend,
whether run single-process, split at the code boundary, or sharded across
worker processes.

The encode-LUT parity tests are the foundation: the fused path's direct
float64-bits encode table must agree with the boundary-searchsorted codec
on *every* adversarial float — grid points, rounding boundaries, their
one-ulp neighbours, ties, signed zeros, infinities, NaN, denormals, and
magnitudes far outside the posit range — because one wrong code anywhere
breaks the whole bit-identity chain.
"""

import multiprocessing

import numpy as np
import pytest

from repro.engine import BatchedRunner, CodecKernels, FaultPlan, ParallelRunner
from repro.engine.fused import FusedPlan
from repro.engine.posit_backend import PositBackend
from repro.engine.registry import (
    KernelRegistry,
    get_codec,
    get_encode_table,
)
from repro.nn.posit_inference import PositQuantizedNetwork, reference_forward
from repro.nn.zoo import kws_cnn1, kws_cnn2, resnet_mini
from repro.posit import POSIT8, POSIT16, POSIT32, STD_POSIT8
from repro.posit.format import PositFormat

LUT_FORMATS = [POSIT8, STD_POSIT8, PositFormat(6, 1), PositFormat(5, 1)]


def _adversarial_floats(fmt: PositFormat) -> np.ndarray:
    """Every float class that could distinguish the LUT from the codec."""
    codec = get_codec(fmt)
    grid = codec.values[np.isfinite(codec.values)]
    bounds = codec.boundaries[np.isfinite(codec.boundaries)]
    near = np.concatenate(
        [np.nextafter(bounds, -np.inf), bounds, np.nextafter(bounds, np.inf)]
    )
    rng = np.random.default_rng(20260808)
    randoms = rng.normal(scale=4.0, size=512)
    extremes = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-308,
         -1e-308, 1e308, -1e308, 0.5, -0.5, 1.0, -1.0]
    )
    return np.concatenate([grid, near, randoms, extremes])


class TestEncodeLUT:
    @pytest.mark.parametrize("fmt", LUT_FORMATS, ids=str)
    def test_lut_matches_codec_on_adversarial_floats(self, fmt):
        codec = get_codec(fmt)
        x = _adversarial_floats(fmt)
        lut = get_encode_table(fmt)
        bits = x.view(np.uint64)
        key = (bits >> np.uint64(52 - 8)) << np.uint64(1)
        key |= (bits & np.uint64((1 << (52 - 8)) - 1)) != 0
        got = np.take(lut, key)
        want = codec.encode(x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fmt", LUT_FORMATS, ids=str)
    def test_backend_lut_kernel_matches_codec(self, fmt):
        """The backend's packaged encode kernel (keying + gather included)."""
        backend = PositBackend(fmt)
        kernels = backend.codec_kernels()
        x = _adversarial_floats(fmt)
        assert np.array_equal(kernels.encode(x), backend.encode(x))

    def test_lut_rejects_wide_formats(self):
        with pytest.raises(ValueError, match="encode tables"):
            get_encode_table(PositFormat(9, 1))
        with pytest.raises(ValueError, match="encode tables"):
            get_encode_table(POSIT16)

    def test_lut_is_registry_cached(self):
        reg = KernelRegistry()
        first = get_encode_table(POSIT8, reg)
        again = get_encode_table(POSIT8, reg)
        assert first is again
        # A fresh registry rebuilds the same bytes.
        assert np.array_equal(first, get_encode_table(POSIT8, KernelRegistry()))


class TestCodecKernels:
    def test_kernel_kinds_by_width(self):
        cases = {
            POSIT8: ("table-lut", "table-gather"),
            STD_POSIT8: ("table-lut", "table-gather"),
            POSIT16: ("wide-bitparallel", "table-gather"),
            POSIT32: ("wide-bitparallel", "wide-bitparallel"),
        }
        for fmt, (enc, dec) in cases.items():
            kernels = PositBackend(fmt).codec_kernels()
            assert isinstance(kernels, CodecKernels)
            assert (kernels.encode_kind, kernels.decode_kind) == (enc, dec), fmt

    @pytest.mark.parametrize("fmt", [POSIT8, POSIT16, POSIT32], ids=str)
    def test_kernels_round_trip_matches_backend(self, fmt):
        backend = PositBackend(fmt)
        kernels = backend.codec_kernels()
        x = np.random.default_rng(5).normal(size=257)
        codes = kernels.encode(x)
        assert codes.dtype == np.dtype(kernels.code_dtype)
        assert np.array_equal(codes, backend.encode(x))
        assert np.array_equal(
            kernels.decode(codes), backend.decode(codes), equal_nan=True
        )

    def test_decode_out_buffer_is_used_and_exact(self):
        backend = PositBackend(POSIT8)
        kernels = backend.codec_kernels()
        codes = kernels.encode(np.linspace(-8, 8, 100))
        buf = np.empty(codes.shape, dtype=np.float64)
        out = kernels.decode(codes, out=buf)
        assert out is buf
        assert np.array_equal(out, backend.decode(codes))


MODELS = [
    (kws_cnn1, (1, 31, 20)),
    (kws_cnn2, (1, 31, 20)),
    (resnet_mini, (3, 16, 16)),
]
FORMATS = [POSIT8, STD_POSIT8, POSIT16, POSIT32]


class TestFusedPlanIdentity:
    @pytest.mark.parametrize("build,shape", MODELS, ids=lambda m: getattr(m, "__name__", ""))
    @pytest.mark.parametrize("fmt", FORMATS, ids=str)
    def test_forward_bit_identical_to_unfused(self, build, shape, fmt):
        net = build(seed=11)
        backend = PositBackend(fmt)
        plan = FusedPlan.compile(net, fmt, backend=backend)
        x = np.random.default_rng(3).normal(size=(5,) + shape)
        assert np.array_equal(plan.forward(x), reference_forward(net, backend, x), equal_nan=True)

    def test_codes_split_equals_forward(self):
        net = kws_cnn1(seed=2)
        plan = FusedPlan.compile(net, POSIT8)
        x = np.random.default_rng(4).normal(size=(7, 1, 31, 20))
        codes = plan.encode_input(x)
        assert codes.dtype == plan.code_dtype
        assert np.array_equal(plan.forward_codes(codes), plan.forward(x))

    def test_codes_slicing_is_elementwise(self):
        """encode(x)[s:e] == encode(x[s:e]) — the sharding precondition."""
        net = kws_cnn1(seed=2)
        plan = FusedPlan.compile(net, POSIT8)
        x = np.random.default_rng(9).normal(size=(10, 1, 31, 20))
        whole = plan.encode_input(x)
        assert np.array_equal(whole[3:7], plan.encode_input(x[3:7]))

    def test_nan_inputs_propagate_identically(self):
        net = kws_cnn1(seed=6)
        plan = FusedPlan.compile(net, POSIT8)
        x = np.random.default_rng(8).normal(size=(4, 1, 31, 20))
        x[1, 0, 5, 5] = np.nan
        x[3, 0, 0, 0] = np.inf
        assert np.array_equal(plan.forward(x), reference_forward(net, plan.engine, x), equal_nan=True)

    def test_scratch_reuse_across_batch_sizes(self):
        """Repeated calls with changing batch sizes (scratch buffers grow,
        shrink, and get reused) never change a byte."""
        net = kws_cnn1(seed=3)
        plan = FusedPlan.compile(net, POSIT8)
        for bs in (4, 9, 4, 1, 16, 2):
            x = np.random.default_rng(bs).normal(size=(bs, 1, 31, 20))
            assert np.array_equal(plan.forward(x), reference_forward(net, plan.engine, x))

    def test_residual_shortcut_uses_unquantized_input(self):
        """resnet's residual stages take a float entry: the shortcut adds
        the raw block input, which code-space entry would have rounded."""
        net = resnet_mini(seed=7)
        plan = FusedPlan.compile(net, STD_POSIT8)
        kinds = [s.kind for s in plan.stages]
        assert "residual" in kinds
        res = plan.stages[kinds.index("residual")]
        assert res.entry == "float"
        x = np.random.default_rng(1).normal(size=(3, 3, 16, 16))
        assert np.array_equal(plan.forward(x), reference_forward(net, plan.engine, x))

    def test_stable_contractions_flag_is_adopted(self):
        backend = PositBackend(POSIT8, stable_contractions=True)
        plan = FusedPlan.compile(kws_cnn1(seed=0), POSIT8, backend=backend)
        assert plan.stable_contractions is True

    def test_describe_names_kernels_and_boundaries(self):
        plan = FusedPlan.compile(kws_cnn1(seed=0), POSIT8)
        desc = plan.describe()
        assert [d["kind"] for d in desc].count("encode") == 3  # c1, c2, head
        assert all("table" in d["name"] for d in desc if d["kind"] == "encode")
        assert plan.input_rep == "codes"


class TestFusedRefusesFaults:
    def test_compile_rejects_backend_fault_plan(self):
        backend = PositBackend(POSIT8, fault_plan=FaultPlan(seed=1, lut_rate=1.0))
        with pytest.raises(ValueError, match="fault"):
            FusedPlan.compile(kws_cnn1(seed=0), POSIT8, backend=backend)

    def test_compile_rejects_registry_fault_plan(self):
        reg = KernelRegistry()
        reg.fault_plan = FaultPlan(seed=1, lut_rate=1.0)
        with pytest.raises(ValueError, match="fault"):
            FusedPlan.compile(kws_cnn1(seed=0), POSIT8, backend=PositBackend(POSIT8, registry=reg))

    def test_compile_accepts_plans_without_table_faults(self):
        """``activation_rate`` is a plan stage and ``op_rate`` hits only
        ``add``/``mul``/``matmul`` code outputs, which no network path
        calls: only ``lut_rate`` is refused."""
        reg = KernelRegistry()
        reg.fault_plan = FaultPlan(seed=1, activation_rate=0.5, op_rate=0.5)
        backend = PositBackend(POSIT8, registry=reg, fault_plan=FaultPlan(seed=2, op_rate=1.0))
        net = kws_cnn1(seed=0)
        plan = FusedPlan.compile(net, POSIT8, backend=backend)
        assert [s.kind for s in plan.stages] == [s.kind for s in FusedPlan.compile(net, POSIT8).stages]
        x = np.random.default_rng(3).normal(size=(4, 1, 31, 20))
        assert np.array_equal(plan.forward(x), reference_forward(net, backend, x))


class TestFaultAndPoisonStages:
    KWS1 = ["encode", "conv", "layer", "layer", "encode", "conv", "layer", "layer", "layer", "encode", "dense"]

    def test_clean_plan_has_neither(self):
        net = kws_cnn1(seed=0)
        assert [s.kind for s in FusedPlan.compile(net, POSIT8).stages] == self.KWS1
        zero = FusedPlan.compile(net, POSIT8, fault_plan=FaultPlan(seed=1, activation_rate=0.0))
        assert [s.kind for s in zero.stages] == self.KWS1

    def test_stages_follow_each_layer(self):
        net = kws_cnn1(seed=0)
        plan = FusedPlan.compile(net, POSIT8, fault_plan=FaultPlan(seed=1, activation_rate=0.01), poison_audit=True)
        kinds = [s.kind for s in plan.stages]
        assert [k for k in kinds if k not in ("fault", "poison")] == self.KWS1
        assert kinds.count("fault") == kinds.count("poison") == len(net.layers)
        for i, stage in enumerate(plan.stages):
            if stage.kind == "fault":
                assert plan.stages[i - 1].kind not in ("encode", "fault", "poison")
                assert plan.stages[i + 1].kind == "poison"
        sites = [s.name for s in plan.stages if s.kind == "fault"]
        assert sites == [f"activation.{i}.layer.{type(layer).__name__}" for i, layer in enumerate(net.layers)]
        assert plan.input_rep == "codes"  # the input encode still leads

    def test_audit_passes_values_through(self):
        net = kws_cnn1(seed=0)
        clean = FusedPlan.compile(net, POSIT8)
        audited = FusedPlan.compile(net, POSIT8, poison_audit=True)
        x = np.random.default_rng(3).normal(size=(4, 1, 31, 20))
        x[0, 0, 0, 0] = np.nan
        assert np.array_equal(audited.forward(x), clean.forward(x), equal_nan=True)
        assert [e["layer"] for e in audited.poison_report()] == list(range(len(net.layers)))
        assert clean.poison_report() == []
        audited.reset_poison()
        assert audited.poison_report() == []

    def test_network_is_a_front_for_its_plan(self):
        qnet = PositQuantizedNetwork(
            kws_cnn1(seed=0), POSIT8, fault_plan=FaultPlan(seed=1, activation_rate=0.01), poison_audit=True
        )
        plan = qnet.fused_plan()
        assert plan is qnet.fused_plan() and plan.engine is qnet.engine
        x = np.random.default_rng(4).normal(size=(3, 1, 31, 20))
        assert np.array_equal(qnet.forward(x), plan.forward(x), equal_nan=True)
        assert qnet.poison_report() == plan.poison_report() != []


class TestPredictFused:
    def test_predict_fused_equals_unfused(self):
        qnet = PositQuantizedNetwork(kws_cnn1(seed=5), POSIT8)
        x = np.random.default_rng(2).normal(size=(21, 1, 31, 20))
        ref = np.concatenate([reference_forward(qnet.net, qnet.engine, x[s : s + 8]) for s in range(0, 21, 8)])
        assert np.array_equal(qnet.predict(x, batch=8), ref)

    def test_predict_fused_workers_equals_unfused(self):
        qnet = PositQuantizedNetwork(kws_cnn1(seed=5), POSIT8)
        x = np.random.default_rng(2).normal(size=(30, 1, 31, 20))
        ref = np.concatenate([reference_forward(qnet.net, qnet.engine, x[s : s + 8]) for s in range(0, 30, 8)])
        got = qnet.predict(x, batch=8, workers=2)
        assert np.array_equal(got, ref)
        assert multiprocessing.active_children() == []

    def test_batched_runner_over_plan(self):
        qnet = PositQuantizedNetwork(kws_cnn1(seed=5), POSIT8)
        x = np.random.default_rng(2).normal(size=(17, 1, 31, 20))
        runner = BatchedRunner(qnet.fused_plan(), batch_size=4)
        assert np.array_equal(runner.run(x), qnet.predict(x, batch=4))
        stats = runner.stats()
        assert stats["items"] == 17


class TestFusedPickledShards:
    def test_parallel_bit_identity_and_stats(self):
        qnet = PositQuantizedNetwork(kws_cnn1(seed=5), POSIT8)
        plan = qnet.fused_plan()
        x = np.random.default_rng(2).normal(size=(40, 1, 31, 20))
        ref = qnet.predict(x, batch=8)
        with ParallelRunner(plan, workers=2, batch_size=8) as runner:
            got = runner.run(x)
            stats = runner.stats()
        assert np.array_equal(got, ref)
        assert stats["items"] == 40
        assert stats["fallbacks"] == 0

    def test_float_entry_plan_uses_pickling_transport(self):
        """A plan whose first layer is unquantized has no input encode;
        ParallelRunner must still shard it bit-identically."""
        from repro.nn.layers import Dense, Flatten, ReLU
        from repro.nn.network import Sequential

        rng = np.random.default_rng(0)
        net = Sequential(
            [Flatten(), Dense(12, 6, rng, "d1"), ReLU(), Dense(6, 4, rng, "d2")],
            input_shape=(12,),
            name="flat-first",
        )
        plan = FusedPlan.compile(net, POSIT8)
        assert plan.input_rep == "float"
        x = np.random.default_rng(1).normal(size=(12, 12))
        single = plan.forward(x)
        with ParallelRunner(plan, workers=2, batch_size=4) as runner:
            got = runner.run(x)
        assert np.array_equal(got, single)
