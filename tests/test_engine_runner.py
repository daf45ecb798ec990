"""BatchedRunner and the engine-backed posit inference path.

The load-bearing check: :class:`PositQuantizedNetwork` executes its
compiled plan through :class:`repro.engine.posit_backend.PositBackend`,
and its forward pass must be bit-identical to the original scalar-LUT path (quantize onto the posit
grid, exact float64 products, 53-bit quire-model accumulation, unquantized
bias and activations).  ``_reference_forward`` reimplements that original
path inline from a fresh codec, so any drift in the engine rewiring fails
loudly.
"""

import numpy as np
import pytest

from repro.engine import BatchedRunner, OpCounters, PositBackend
from repro.nn.layers import Conv2D, Dense, ResidualBlock, im2col
from repro.nn.posit_inference import PositQuantizedNetwork, reference_forward
from repro.nn.zoo import kws_cnn1, resnet_mini
from repro.posit import POSIT8, POSIT16
from repro.posit.tensor import PositCodec


def _reference_forward(net, fmt, x):
    """The pre-engine scalar-LUT inference path, reimplemented inline."""
    codec = PositCodec(fmt)  # deliberately fresh: no engine, no registry
    for layer in net.layers:
        if isinstance(layer, Conv2D):
            x = _ref_conv(layer, codec, x)
        elif isinstance(layer, Dense):
            qx = codec.quantize(x)
            x = qx @ codec.quantize(layer.w.data) + layer.b.data
        elif isinstance(layer, ResidualBlock):
            y = _ref_conv(layer.conv1, codec, x)
            y = layer.relu1.forward(y)
            y = _ref_conv(layer.conv2, codec, y)
            x = layer.relu2.forward(y + x)
        else:
            x = layer.forward(x)
    return x


def _ref_conv(conv, codec, x):
    qx = codec.quantize(x)
    qw = codec.quantize(conv.w.data)
    f, c, kh, kw = qw.shape
    cols, oh, ow = im2col(qx, kh, kw, conv.stride, conv.pad)
    out = cols @ qw.reshape(f, -1).T + conv.b.data
    return out.reshape(x.shape[0], oh, ow, f).transpose(0, 3, 1, 2)


class TestBitIdentity:
    @pytest.mark.parametrize("fmt", [POSIT8, POSIT16], ids=str)
    def test_kws_cnn_forward_bit_identical(self, fmt):
        net = kws_cnn1(seed=0)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 1, 31, 20))
        qnet = PositQuantizedNetwork(net, fmt)
        assert np.array_equal(qnet.forward(x), _reference_forward(net, fmt, x))

    def test_resnet_forward_bit_identical(self):
        net = resnet_mini(seed=1)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 16, 16))
        qnet = PositQuantizedNetwork(net, POSIT8)
        assert np.array_equal(qnet.forward(x), _reference_forward(net, POSIT8, x))

    def test_predict_matches_forward(self):
        net = kws_cnn1(seed=2)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 1, 31, 20))
        qnet = PositQuantizedNetwork(net, POSIT8)
        # Not array_equal: BLAS picks different micro-kernels per batch
        # shape, so float64 accumulations differ at the last-ulp level.
        assert np.allclose(qnet.predict(x, batch=2), qnet.forward(x), rtol=1e-12, atol=1e-12)


class TestEngineSharing:
    def test_networks_share_registry_codec(self):
        net = kws_cnn1(seed=3)
        q1 = PositQuantizedNetwork(net, POSIT8)
        q2 = PositQuantizedNetwork(net, POSIT8)
        assert q1.codec is q2.codec  # satellite: module-level codec cache

    def test_explicit_engine_is_adopted(self):
        net = kws_cnn1(seed=4)
        engine = PositBackend(POSIT8)
        qnet = PositQuantizedNetwork(net, POSIT8, engine=engine)
        assert qnet.engine is engine
        assert qnet.codec is engine.codec

    def test_weight_quantization_error_positive(self):
        qnet = PositQuantizedNetwork(kws_cnn1(seed=5), POSIT8)
        err = qnet.weight_quantization_error()
        # Sub-minpos weights clamp to +-minpos (never-round-to-zero), so the
        # worst *relative* error can be enormous; it just must be a finite
        # positive number.
        assert err > 0 and np.isfinite(err)


class TestBatchedRunner:
    def _setup(self, batch_size):
        net = kws_cnn1(seed=6)
        qnet = PositQuantizedNetwork(net, POSIT8)
        return qnet, BatchedRunner(qnet, batch_size=batch_size)

    def test_batching_invariance(self):
        qnet, runner = self._setup(batch_size=2)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 1, 31, 20))
        ref = reference_forward(qnet.net, qnet.engine, x)
        assert np.allclose(runner.run(x), ref, rtol=1e-12, atol=1e-12)

    def test_stats_shape_and_counters(self):
        _, runner = self._setup(batch_size=2)
        rng = np.random.default_rng(14)
        runner.run(rng.normal(size=(5, 1, 31, 20)))
        stats = runner.stats()
        assert stats["items"] == 5
        assert stats["batches"] == 3  # 2 + 2 + 1
        assert stats["wall_s"] > 0 and stats["items_per_s"] > 0
        assert stats["mean_batch_ms"] > 0
        # The runner adopted the model engine's counters: the plan's ops show up.
        assert stats["ops"]["fused.encode"]["elements"] > 0
        assert stats["ops"]["matmul[values]"]["calls"] > 0
        assert stats["table_hits"] >= 0 and stats["table_misses"] >= 0

    def test_reset_clears_counters(self):
        _, runner = self._setup(batch_size=4)
        rng = np.random.default_rng(15)
        runner.run(rng.normal(size=(4, 1, 31, 20)))
        runner.reset()
        stats = runner.stats()
        assert stats["items"] == 0 and stats["batches"] == 0
        assert stats["ops"] == {}

    def test_explicit_counters_override(self):
        net = kws_cnn1(seed=7)
        counters = OpCounters()
        qnet = PositQuantizedNetwork(net, POSIT8)
        runner = BatchedRunner(qnet, batch_size=4, counters=counters)
        assert runner.counters is counters

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            BatchedRunner(object(), batch_size=0)

    def test_plain_sequential_model(self):
        net = kws_cnn1(seed=8)
        runner = BatchedRunner(net, batch_size=3)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(4, 1, 31, 20))
        assert np.allclose(runner.run(x), net.forward(x), rtol=1e-12, atol=1e-12)
