"""Exact contractions: BLAS only where the span check proves every order
gives the same bytes, the fixed-order einsum everywhere else.

Each case asserts which branch ran (through the ``engine.exact.*``
counters) and that the bytes equal :func:`stable_matmul` — or, end to end,
:func:`~repro.nn.posit_inference.reference_forward`.  Spans are computed here by an independent oracle
(``float.as_integer_ratio``) rather than by the engine's per-code table.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.exact import EXACT_MIN_MACS, SPAN_BITS
from repro.engine.kernels import stable_matmul
from repro.engine.observe import METRICS
from repro.engine.posit_backend import PositBackend
from repro.engine.registry import get_codec
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.nn.posit_inference import PositQuantizedNetwork, reference_forward
from repro.nn.zoo import kws_cnn1, kws_cnn2, resnet_mini
from repro.posit import POSIT8, POSIT16, STD_POSIT8
from repro.posit.format import PositFormat


def _counts():
    c = METRICS.counters
    return c.get("engine.exact.blas", 0), c.get("engine.exact.fallbacks", 0)


def _delta(before):
    after = _counts()
    return after[0] - before[0], after[1] - before[1]


def _lsb_mag(v: float):
    """Oracle: ``v = odd * 2**lsb`` and ``2**(mag-1) <= |v| < 2**mag``."""
    num, den = float(v).as_integer_ratio()
    num = abs(num)
    return (num & -num).bit_length() - 1 - (den.bit_length() - 1), math.frexp(v)[1]


class _Oracle:
    """Per-format oracle tables over the positive codes, and edge sets."""

    _cache = {}

    def __new__(cls, fmt):
        if fmt not in cls._cache:
            self = super().__new__(cls)
            self.fmt = fmt
            self.values = get_codec(fmt).values
            self.mask = (1 << fmt.nbits) - 1
            top = 1 << (fmt.nbits - 1)
            self.lsb = np.zeros(top, dtype=np.int64)
            self.mag = np.zeros(top, dtype=np.int64)
            for code in range(1, top):
                self.lsb[code], self.mag[code] = _lsb_mag(self.values[code])
            edge = 8 if fmt.nbits <= 8 else 64
            self.small = list(range(1, 1 + edge))  # nearest minpos
            self.big = list(range(top - edge, top))  # nearest maxpos
            one = int(np.flatnonzero(self.values == 1.0)[0])
            self.unit = list(range(one, one + 8))  # 1.0 and just above
            cls._cache[fmt] = self
        return cls._cache[fmt]

    def positive(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        return np.where(codes >= 1 << (self.fmt.nbits - 1), (-codes) & self.mask, codes)

    def span(self, a, b, k):
        """Bits of the widest partial sum of ``a @ b`` (codes; no NaR)."""
        pa, pb = self.positive(a), self.positive(b)
        pa, pb = pa[pa != 0], pb[pb != 0]
        return int(
            self.mag[pa].max() + self.mag[pb].max() + (k - 1).bit_length()
            - self.lsb[pa].min() - self.lsb[pb].min()
        )

    def cases(self, target):
        """Anchor codes (A near maxpos/minpos, B near 1.0) and the
        ``ceil(log2 K)`` that together give a span of exactly ``target``."""
        key = ("cases", target)
        if key not in self.__dict__:
            self.__dict__[key] = self._cases(target)
        return self.__dict__[key]

    def _cases(self, target):
        out = []
        for ba, sa, bb, sb in itertools.product(self.big, self.small, self.unit, self.unit):
            if self.lsb[ba] < self.lsb[sa] or self.mag[sa] > self.mag[ba]:
                continue
            if self.lsb[bb] < self.lsb[sb] or self.mag[sb] > self.mag[bb]:
                continue
            base = self.mag[ba] + self.mag[bb] - self.lsb[sa] - self.lsb[sb]
            if 0 <= target - base <= 8:
                out.append((ba, sa, bb, sb, int(target - base)))
        return out

    def fill(self, rng, shape, big, small):
        """Random signed codes inside ``[small, big]``'s span, plus zeros."""
        pool = np.flatnonzero(
            (self.mag <= self.mag[big]) & (self.lsb >= self.lsb[small])
        )
        pool = pool[pool != 0]
        codes = rng.choice(pool, size=shape)
        codes = np.where(rng.random(shape) < 0.5, (-codes) & self.mask, codes)
        codes[rng.random(shape) < 0.05] = 0
        flat = codes.reshape(-1)
        i, j = rng.choice(flat.size, size=2, replace=False)
        flat[i], flat[j] = big, small
        return codes


SPAN_FORMATS = [STD_POSIT8, POSIT16]


@pytest.mark.parametrize("fmt", SPAN_FORMATS, ids=str)
@pytest.mark.parametrize("target", [52, 53, 54])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_span_edge_branch_and_bytes(fmt, target, data):
    oracle = _Oracle(fmt)
    cases = oracle.cases(target)
    assert cases, "no anchor combination reaches this span"
    ba, sa, bb, sb, log2k = data.draw(st.sampled_from(cases))
    lo, hi = (1 << max(log2k - 1, 0)) + (log2k > 0), 1 << log2k
    k = data.draw(st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = 16
    m = max(2, -(-EXACT_MIN_MACS // (k * n)))
    dtype = np.uint8 if fmt.nbits <= 8 else np.uint16
    a = oracle.fill(rng, (m, k), ba, sa).astype(dtype)
    b = oracle.fill(rng, (k, n), bb, sb).astype(dtype)
    assert oracle.span(a, b, k) == target

    be = PositBackend(fmt, stable_contractions=True)
    da, db = be.decode(a), be.decode(b)
    before = _counts()
    out = be.contract(a, be.span(b), da, db)
    assert _delta(before) == ((1, 0) if target <= SPAN_BITS else (0, 1))
    ref = stable_matmul(da, db)
    assert out.tobytes() == ref.tobytes()
    assert be.matmul(a, b).tobytes() == be.encode(ref).tobytes()


@pytest.mark.parametrize("fmt", SPAN_FORMATS, ids=str)
@pytest.mark.parametrize("side", ["a", "b"])
def test_nar_in_either_operand_falls_back(fmt, side):
    be = PositBackend(fmt, stable_contractions=True)
    rng = np.random.default_rng(5)
    a = be.encode(rng.normal(size=(64, 32)))
    b = be.encode(rng.normal(size=(32, 16)))
    nar = 1 << (fmt.nbits - 1)
    (a if side == "a" else b)[3, 7] = nar
    before = _counts()
    assert not be.exact(a, be.span(b), 32, 64 * 32 * 16)
    assert _delta(before) == (0, 1)
    da, db = be.decode(a), be.decode(b)
    ref = stable_matmul(da, db)
    assert np.isnan(ref).any()
    assert be.matmul(a, b).tobytes() == be.encode(ref).tobytes()


def test_zero_row_against_negative_weights_stays_positive_zero():
    rng = np.random.default_rng(11)
    dense = Dense(512, 64, rng, "neg")
    dense.w.data = -np.abs(dense.w.data)
    dense.b.data = np.zeros(64)
    net = Sequential([dense], input_shape=(512,), name="neg-dense")
    qnet = PositQuantizedNetwork(net, STD_POSIT8, stable_contractions=True)
    plan = qnet.fused_plan()
    x = rng.normal(size=(16, 512))
    x[3] = 0.0
    before = _counts()
    out = plan.forward(x)
    assert _delta(before) == (1, 0)
    assert not np.signbit(out[3]).any()
    assert out.tobytes() == reference_forward(qnet.net, qnet.engine, x).tobytes()
    # The raw BLAS contraction (no bias add to mask a -0.0) too.
    be, head = qnet.engine, plan.stages[-1]
    codes = be.encode(x)
    before = _counts()
    raw = be.contract(codes, head.wspan, be.decode(codes), head.qw)
    assert _delta(before) == (1, 0)
    assert not np.signbit(raw[3]).any()
    assert raw.tobytes() == stable_matmul(be.decode(codes), head.qw).tobytes()


def test_batch_row_equals_row_alone():
    qnet = PositQuantizedNetwork(kws_cnn1(seed=0), STD_POSIT8, stable_contractions=True)
    plan = qnet.fused_plan()
    x = np.random.default_rng(12).normal(size=(16, 1, 31, 20))
    before = _counts()
    batch = plan.forward(x)
    assert _delta(before)[0] == 3  # both convs and the head on BLAS
    for i in range(16):
        assert batch[i : i + 1].tobytes() == plan.forward(x[i : i + 1]).tobytes()


def test_unstable_dense_skips_the_check():
    # Without stable contractions every dense product is BLAS anyway; only
    # the convs check, because their column layout depends on the answer.
    plan = PositQuantizedNetwork(kws_cnn1(seed=0), STD_POSIT8).fused_plan()
    x = np.random.default_rng(20).normal(size=(16, 1, 31, 20))
    before = _counts()
    plan.forward(x)
    assert _delta(before) == (2, 0)


def test_wide_format_always_falls_back():
    fmt = PositFormat(24, 2)
    qnet = PositQuantizedNetwork(kws_cnn1(seed=0), fmt, stable_contractions=True)
    plan = qnet.fused_plan()
    assert plan.engine.span_table() is None
    x = np.random.default_rng(13).normal(size=(16, 1, 31, 20))
    before = _counts()
    out = plan.forward(x)
    blas, fallbacks = _delta(before)
    assert blas == 0 and fallbacks == 3
    assert out.tobytes() == reference_forward(qnet.net, qnet.engine, x).tobytes()
    be = plan.engine
    a = be.encode(x.reshape(4, -1)[:, :64].repeat(16, axis=0))
    b = be.encode(np.random.default_rng(14).normal(size=(64, 32)))
    before = _counts()
    be.matmul(a, b)
    assert _delta(before) == (0, 1)


def _inputs(fmt, shape, rng):
    """Natural, heavy-tailed, and constructed span-forcing batches."""
    natural = rng.normal(size=(4,) + shape)
    heavy = natural * np.exp(rng.normal(scale=4.0, size=natural.shape))
    codec = get_codec(fmt)
    grid = codec.values[np.isfinite(codec.values) & (codec.values > 0)]
    extremes = np.where(rng.random(natural.shape) < 0.5, grid[-2], grid[1])
    extremes *= np.sign(natural)
    nar = natural.copy()
    nar[1, 0, 0, 0] = np.nan
    return [natural, heavy, extremes, nar]


def _biased_trunk(seed=0):
    """resnet-mini up to its GlobalAvgPool, with nonzero conv biases.

    Biased conv outputs carry full 53-bit significands, so the mean's
    float bytes — here the network output, not re-quantized by the head —
    depend on its summation order, which follows the memory layout of the
    activations it reduces.
    """
    net = resnet_mini(seed=seed)
    rng = np.random.default_rng(seed + 17)
    for p in net.params():
        if p.name.endswith(".b"):
            p.data = rng.normal(scale=0.3, size=p.data.shape)
    return Sequential(net.layers[:-1], input_shape=(3, 16, 16), name="resnet-mini-trunk")


@pytest.mark.parametrize("fmt", [POSIT8, PositFormat(8, 1), STD_POSIT8, POSIT16], ids=str)
@pytest.mark.parametrize(
    "build, shape",
    [
        (kws_cnn1, (1, 31, 20)),
        (kws_cnn2, (1, 31, 20)),
        (resnet_mini, (3, 16, 16)),
        (_biased_trunk, (3, 16, 16)),
    ],
    ids=["kws1", "kws2", "resnet-mini", "biased-trunk"],
)
@pytest.mark.parametrize("stable", [True, False], ids=["stable", "blas"])
def test_fused_matches_unfused_on_both_branches(fmt, build, shape, stable):
    qnet = PositQuantizedNetwork(build(seed=0), fmt, stable_contractions=stable)
    plan = qnet.fused_plan()
    rng = np.random.default_rng(100 * fmt.nbits + fmt.es)
    before = _counts()
    for x in _inputs(fmt, shape, rng):
        assert plan.forward(x).tobytes() == reference_forward(qnet.net, qnet.engine, x).tobytes()
    blas, fallbacks = _delta(before)
    assert blas > 0 and fallbacks > 0


def test_batch_row_equals_row_alone_when_a_mate_forces_fallback():
    plan = PositQuantizedNetwork(_biased_trunk(), STD_POSIT8, stable_contractions=True).fused_plan()
    x = np.random.default_rng(19).normal(size=(16, 3, 16, 16))
    x[5, 1, 2, 3] = np.nan  # a NaR code: every conv of the batch falls back
    before = _counts()
    batch = plan.forward(x)
    assert _delta(before) == (0, 5)  # the stem and two convs per block
    before = _counts()
    for i in range(16):
        alone = plan.forward(x[i : i + 1])
        if i != 5:
            assert batch[i : i + 1].tobytes() == alone.tobytes()
    assert _delta(before) == (15 * 5, 5)  # every clean row alone runs on BLAS


def test_counters_reach_metrics_and_stats():
    import asyncio
    import json

    from repro.serve import ReproServer, ServeClient, ServeConfig, http_get

    x = np.random.default_rng(15).normal(size=(1, 31, 20)).tolist()

    async def go():
        async with ReproServer(ServeConfig()) as server:  # process-wide METRICS
            async with await ServeClient.connect(*server.address) as client:
                resp = await client.request(workload="nn_predict", model="kws1", x=x)
            prom = await http_get(*server.address, "/metrics")
            stats = await http_get(*server.address, "/stats")
        return resp, prom[1], json.loads(stats[1])

    before = _counts()
    resp, prom, stats = asyncio.run(go())
    assert resp["ok"]
    assert _delta(before)[0] == 2  # both convs; the batch-1 head is below EXACT_MIN_MACS
    engine = stats["engine"]
    assert engine["exact_blas"] >= 2 and "exact_fallbacks" in engine
    assert engine["blas_threads"] >= 1 or engine["blas_threads"] == -1
    assert "repro_engine_exact_blas_total" in prom
    assert f"repro_engine_blas_threads {engine['blas_threads']}" in prom


def test_pin_is_one_thread_unless_the_environment_says_otherwise():
    import os
    import subprocess
    import sys

    code = "from repro.engine.exact import pin_blas; print(pin_blas())"
    import repro

    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    pinned = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(pinned.stdout) in (1, -1)  # -1: numpy's BLAS is not OpenBLAS
    env["OPENBLAS_NUM_THREADS"] = "2"
    kept = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert int(kept.stdout) in (2, -1)


def test_float_layers_run_on_the_pinned_blas():
    """A float network's Dense/Conv2D products pin BLAS like the posit
    contractions do, instead of running on OpenBLAS's default thread pool."""
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import numpy as np\n"
        "from repro.engine.exact import pin_blas, stats\n"
        "from repro.nn.zoo import kws_cnn1\n"
        "kws_cnn1(seed=0).forward(np.zeros((2, 1, 31, 20)))\n"
        "print(stats()['blas_threads'], pin_blas())\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    after_forward, pinned = (int(v) for v in out.stdout.split())
    if pinned == -1:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert after_forward == 1


def test_describe_reports_static_weight_spans():
    plan = PositQuantizedNetwork(kws_cnn1(seed=0), STD_POSIT8).fused_plan()
    spans = {d["name"]: d for d in plan.describe() if d["kind"] in ("conv", "dense")}
    assert set(spans) == {"c1", "c2", "head"}
    be = plan.engine
    for stage in plan.stages:
        if stage.kind in ("conv", "dense"):
            lsb, mag = spans[stage.name]["weight_span"]
            assert (lsb, mag) == tuple(be.span(stage.wcodes))
    res = PositQuantizedNetwork(resnet_mini(seed=0), STD_POSIT8).fused_plan()
    for stage, d in zip(res.stages, res.describe()):
        if stage.kind == "residual":
            assert d["weight_span"] == [list(be.span(c.wcodes)) for c in (stage.conv1, stage.conv2)]
    wide = PositQuantizedNetwork(kws_cnn1(seed=0), PositFormat(24, 2)).fused_plan()
    assert all(d.get("weight_span", None) is None for d in wide.describe())


def test_nar_fails_even_against_an_all_zero_operand():
    be = PositBackend(STD_POSIT8, stable_contractions=True)
    a = np.zeros((128, 32), dtype=np.uint8)
    b = be.encode(np.random.default_rng(16).normal(size=(32, 16)))
    b[0, 0] = 0x80
    before = _counts()
    assert not be.exact(a, be.span(b), 32, 128 * 32 * 16)
    assert be.exact(a, be.span(b[1:]), 32, 128 * 32 * 16)  # all zeros alone pass
    assert _delta(before) == (1, 1)
