"""repro.engine: backends, kernel registry, codec edge semantics, parity.

The exhaustive tests drive both op strategies of each backend against the
bit-exact scalar models: ``pairwise`` tables are built *from* the scalar
model (so their parity check guards the plumbing), while the ``via-float``
strategy recomputes every op through decode/float64/encode — an independent
path whose exhaustive agreement validates the vectorized codecs.
"""

import numpy as np
import pytest

from repro.engine import (
    ApproxMultiplierBackend,
    KernelRegistry,
    LNSBackend,
    OpCounters,
    PositBackend,
    SoftFloatBackend,
    backend_for,
    get_codec,
    get_posit_tables,
    get_signed_lut,
)
from repro.engine.kernels import lut_matmul, pairwise_lut, rounded_matmul
from repro.floats import FP8_E4M3, SoftFloat
from repro.lns import LNS, LNSFormat
from repro.posit import POSIT8, POSIT16, STD_POSIT8, Posit, PositFormat
from repro.posit.tensor import PositTable8


# ----------------------------------------------------------------------
# Codec edge semantics through the engine
# ----------------------------------------------------------------------
class TestPositEdgeSemantics:
    @pytest.mark.parametrize("fmt", [POSIT8, POSIT16], ids=str)
    def test_nar_nan_round_trip(self, fmt):
        be = PositBackend(fmt)
        codes = be.encode(np.array([np.nan, np.inf, -np.inf]))
        assert np.all(codes == fmt.pattern_nar)
        assert np.all(np.isnan(be.decode(codes)))

    @pytest.mark.parametrize("fmt", [POSIT8, POSIT16], ids=str)
    def test_nar_poisons_arithmetic(self, fmt):
        be = PositBackend(fmt)
        nar = np.array([fmt.pattern_nar])
        one = be.encode(np.array([1.0]))
        assert be.add(nar, one)[0] == fmt.pattern_nar
        assert be.mul(nar, one)[0] == fmt.pattern_nar
        assert be.mul(nar, np.array([0]))[0] == fmt.pattern_nar

    @pytest.mark.parametrize("fmt", [POSIT8, POSIT16], ids=str)
    def test_never_round_to_zero(self, fmt):
        be = PositBackend(fmt)
        tiny = np.array([1e-300, -1e-300])
        codes = be.encode(tiny)
        minpos_neg = (-fmt.pattern_minpos) & ((1 << fmt.nbits) - 1)
        assert codes[0] == fmt.pattern_minpos
        assert codes[1] == minpos_neg
        # Products far below minpos**1 clamp to minpos, never to zero.
        minpos = np.array([fmt.pattern_minpos])
        assert be.mul(minpos, minpos)[0] == fmt.pattern_minpos

    @pytest.mark.parametrize("fmt", [POSIT8, POSIT16], ids=str)
    def test_minpos_maxpos_clamping(self, fmt):
        be = PositBackend(fmt)
        huge = np.array([1e300, -1e300])
        codes = be.encode(huge)
        maxpos_neg = (-fmt.pattern_maxpos) & ((1 << fmt.nbits) - 1)
        assert codes[0] == fmt.pattern_maxpos
        assert codes[1] == maxpos_neg
        # maxpos * maxpos saturates at maxpos: no overflow to NaR.
        maxpos = np.array([fmt.pattern_maxpos])
        assert be.mul(maxpos, maxpos)[0] == fmt.pattern_maxpos
        assert be.add(maxpos, maxpos)[0] == fmt.pattern_maxpos

    def test_zero_round_trip(self):
        be = PositBackend(POSIT8)
        assert be.encode(np.array([0.0]))[0] == 0
        assert be.decode(np.array([0]))[0] == 0.0


# ----------------------------------------------------------------------
# Exhaustive parity against the scalar models
# ----------------------------------------------------------------------
class TestExhaustivePositParity:
    @pytest.mark.parametrize("fmt", [POSIT8, STD_POSIT8], ids=str)
    def test_all_pairs_both_strategies(self, fmt):
        """Engine add/mul match the scalar Posit model on all 256x256 pairs.

        The pairwise tables are the tabulated scalar model; the via-float
        strategy recomputes every pair independently through the vectorized
        codec.  Both must agree with the scalar reference everywhere.
        """
        table = get_posit_tables(fmt)  # built from the scalar model
        pairwise = PositBackend(fmt, strategy="pairwise")
        viafloat = PositBackend(fmt, strategy="via-float")
        codes = np.arange(256)
        a, b = np.meshgrid(codes, codes, indexing="ij")
        assert np.array_equal(pairwise.add(a, b), table.add_table)
        assert np.array_equal(pairwise.mul(a, b), table.mul_table)
        assert np.array_equal(viafloat.add(a, b), table.add_table)
        assert np.array_equal(viafloat.mul(a, b), table.mul_table)

    def test_scalar_spot_checks(self):
        """Direct scalar-Posit spot checks (guards the table builder too)."""
        be = PositBackend(POSIT8)
        rng = np.random.default_rng(0)
        i = rng.integers(0, 256, 100)
        j = rng.integers(0, 256, 100)
        adds, muls = be.add(i, j), be.mul(i, j)
        for x, y, s, m in zip(i, j, adds, muls):
            a, b = Posit(POSIT8, int(x)), Posit(POSIT8, int(y))
            assert (a + b).pattern == int(s)
            assert (a * b).pattern == int(m)

    def test_posit16_sample_parity(self):
        """via-float is bit-exact at 16 bits too (sampled, scalar is slow)."""
        be = PositBackend(POSIT16)
        assert be.strategy == "via-float"
        rng = np.random.default_rng(1)
        i = rng.integers(0, 1 << 16, 300)
        j = rng.integers(0, 1 << 16, 300)
        adds, muls = be.add(i, j), be.mul(i, j)
        for x, y, s, m in zip(i, j, adds, muls):
            a, b = Posit(POSIT16, int(x)), Posit(POSIT16, int(y))
            assert (a + b).pattern == int(s)
            assert (a * b).pattern == int(m)


class TestExhaustiveSoftFloatParity:
    def test_fp8_all_pairs_both_strategies(self):
        """Engine FP8 add/mul match scalar SoftFloat on all 256x256 pairs."""
        pairwise = SoftFloatBackend(FP8_E4M3, strategy="pairwise")
        viafloat = SoftFloatBackend(FP8_E4M3, strategy="via-float")
        codes = np.arange(256)
        a, b = np.meshgrid(codes, codes, indexing="ij")
        # pairwise tables are the tabulated scalar model; via-float must agree
        assert np.array_equal(viafloat.add(a, b), pairwise.add(a, b))
        assert np.array_equal(viafloat.mul(a, b), pairwise.mul(a, b))

    def test_fp8_scalar_spot_checks(self):
        be = SoftFloatBackend(FP8_E4M3)
        rng = np.random.default_rng(2)
        i = rng.integers(0, 256, 100)
        j = rng.integers(0, 256, 100)
        adds, muls = be.add(i, j), be.mul(i, j)
        for x, y, s, m in zip(i, j, adds, muls):
            a, b = SoftFloat(FP8_E4M3, int(x)), SoftFloat(FP8_E4M3, int(y))
            assert a.add(b).pattern == int(s)
            assert a.mul(b).pattern == int(m)


# ----------------------------------------------------------------------
# Contractions
# ----------------------------------------------------------------------
class TestPositContractions:
    def test_quire_matmul_matches_dot_exact(self):
        be = PositBackend(POSIT8)
        rng = np.random.default_rng(3)
        a = be.encode(rng.normal(size=(3, 5)))
        b = be.encode(rng.normal(size=(5, 2)))
        out = be.matmul(a, b, accumulate="quire")
        for i in range(3):
            for j in range(2):
                assert out[i, j] == be.dot_exact(a[i], b[:, j])

    def test_rounded_matmul_matches_sequential_dot(self):
        be = PositBackend(POSIT8)
        table = PositTable8(POSIT8, tables=(be.tables.add_table, be.tables.mul_table))
        rng = np.random.default_rng(4)
        a = be.encode(rng.normal(size=(4, 6)))
        b = be.encode(rng.normal(size=(6, 3)))
        out = be.matmul(a, b, accumulate="rounded")
        for i in range(4):
            for j in range(3):
                assert out[i, j] == table.dot_sequential(a[i], b[:, j])

    def test_float64_matmul_close_to_real(self):
        be = PositBackend(POSIT8)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 8))
        y = rng.normal(size=(8, 4))
        out = be.decode(be.matmul(be.encode(x), be.encode(y)))
        assert np.allclose(out, x @ y, rtol=0.2, atol=0.2)


# ----------------------------------------------------------------------
# LNS backend
# ----------------------------------------------------------------------
class TestLNSBackend:
    FMT = LNSFormat(3, 4)

    def test_round_trip_and_zero(self):
        be = LNSBackend(self.FMT)
        x = np.array([1.0, -2.0, 0.0, 0.75])
        q = be.decode(be.encode(x))
        assert q[2] == 0.0
        nz = x != 0
        assert np.all(np.abs(q[nz] - x[nz]) / np.abs(x[nz]) < 0.05)

    def test_mul_parity_with_scalar(self):
        be = LNSBackend(self.FMT)
        fmt = self.FMT
        rng = np.random.default_rng(6)
        codes = rng.integers(0, 1 << fmt.width, size=(2, 200))
        got = be.mul(codes[0], codes[1])
        e_mask = (1 << fmt.e_bits) - 1
        for i, j, g in zip(codes[0], codes[1], got):
            a = LNS(fmt, int(i) >> fmt.e_bits, (int(i) & e_mask) + fmt.zero_code)
            b = LNS(fmt, int(j) >> fmt.e_bits, (int(j) & e_mask) + fmt.zero_code)
            s = a.mul(b)
            want = 0 if s.is_zero() else (s.sign << fmt.e_bits) | ((s.e_code - fmt.zero_code) & e_mask)
            assert int(g) == want

    def test_add_strategies_agree(self):
        tab = LNSBackend(self.FMT)
        phi = LNSBackend(self.FMT, table_bits=0)
        assert tab.strategy == "pairwise" and phi.strategy == "via-phi"
        rng = np.random.default_rng(7)
        a = rng.integers(0, 1 << self.FMT.width, 500)
        b = rng.integers(0, 1 << self.FMT.width, 500)
        assert np.array_equal(tab.add(a, b), phi.add(a, b))


# ----------------------------------------------------------------------
# Approximate-multiplier backend
# ----------------------------------------------------------------------
class TestApproxBackend:
    def test_exact_core_matches_integer_matmul(self):
        from repro.approx import ExactMultiplier

        be = ApproxMultiplierBackend(ExactMultiplier())
        rng = np.random.default_rng(8)
        a = rng.integers(-127, 128, size=(5, 9))
        b = rng.integers(-127, 128, size=(9, 4))
        assert np.array_equal(be.matmul(a, b), a @ b)
        assert be.dot_exact(a[0], b[:, 0]) == int(a[0] @ b[:, 0])

    def test_signed_lut_memoized(self):
        from repro.approx import TruncatedMultiplier

        l1 = get_signed_lut(TruncatedMultiplier(cut=4))
        l2 = get_signed_lut(TruncatedMultiplier(cut=4))
        assert l1 is l2
        l3 = get_signed_lut(TruncatedMultiplier(cut=5))
        assert l3 is not l1


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
class TestKernels:
    def test_lut_matmul_equals_exact_for_product_table(self):
        n = 16
        idx = np.arange(n)
        lut = np.multiply.outer(idx, idx).astype(np.int64)
        rng = np.random.default_rng(9)
        a = rng.integers(0, n, size=(3, 10))
        b = rng.integers(0, n, size=(10, 2))
        assert np.array_equal(lut_matmul(lut, a, b, chunk=3), a @ b)

    def test_pairwise_lut_broadcasts(self):
        table = np.arange(16).reshape(4, 4)
        out = pairwise_lut(table, np.array([[0], [1]]), np.array([2, 3]))
        assert out.shape == (2, 2)
        assert out[1, 1] == table[1, 3]

    def test_rounded_matmul_shape_mismatch(self):
        t = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            rounded_matmul(t, t, np.zeros((2, 3), int), np.zeros((4, 2), int))


# ----------------------------------------------------------------------
# Kernel registry: memoization and disk persistence
# ----------------------------------------------------------------------
class TestRegistry:
    def test_codec_cache_shared_per_format(self):
        assert get_codec(POSIT8) is get_codec(POSIT8)
        assert get_posit_tables(POSIT8) is get_posit_tables(POSIT8)
        assert get_codec(POSIT8) is not get_codec(POSIT16)
        # Backends constructed independently share the cached codec.
        assert PositBackend(POSIT8).codec is PositBackend(POSIT8).codec

    def test_memoization_counts_hits(self):
        reg = KernelRegistry()
        calls = []

        def build():
            calls.append(1)
            return {"t": np.arange(4)}

        t1 = reg.get(("k",), build)
        t2 = reg.get(("k",), build)
        assert t1 is t2 and len(calls) == 1
        assert reg.stats()["hits"] == 1 and reg.stats()["misses"] == 1

    def test_registry_writes_no_files(self, tmp_path, monkeypatch):
        # Tables are built per process and never stored.
        monkeypatch.chdir(tmp_path)
        reg = KernelRegistry()
        get_posit_tables(PositFormat(6, 0), registry=reg)
        reg.get(("ephemeral",), lambda: {"t": np.arange(2)})
        assert reg.stats()["resident_tables"] == 3
        assert not list(tmp_path.iterdir())


# ----------------------------------------------------------------------
# Counters and factory
# ----------------------------------------------------------------------
class TestObservability:
    def test_counters_record_ops(self):
        counters = OpCounters()
        be = PositBackend(POSIT8, counters=counters)
        x = be.encode(np.ones(10))
        be.add(x, x)
        be.mul(x, x)
        snap = counters.snapshot()
        assert snap["encode"]["calls"] == 1 and snap["encode"]["elements"] == 10
        assert snap["add"]["calls"] == 1 and snap["mul"]["calls"] == 1
        assert counters.total("elements") >= 30

    @pytest.mark.parametrize("fmt", [POSIT8, FP8_E4M3, LNSFormat(3, 4)], ids=str)
    def test_matmul_and_quantize_record_one_op_each(self, fmt):
        """A ``matmul`` is one ``matmul[float64]`` op (its internal decode
        and encode are not separate ops) and ``quantize`` is recorded as
        itself, on every codec backend."""
        counters = OpCounters()
        be = backend_for(fmt, counters=counters)
        codes = be.encode(np.linspace(-2, 2, 16).reshape(4, 4))
        counters.clear()
        be.matmul(codes, codes)
        assert {op: e["calls"] for op, e in counters.snapshot().items()} == {"matmul[float64]": 1}
        counters.clear()
        be.quantize(np.linspace(-2, 2, 16))
        assert {op: e["calls"] for op, e in counters.snapshot().items()} == {"quantize": 1}

    def test_backend_for_dispatch(self):
        from repro.approx import ExactMultiplier

        assert isinstance(backend_for(POSIT8), PositBackend)
        assert isinstance(backend_for(FP8_E4M3), SoftFloatBackend)
        assert isinstance(backend_for(LNSFormat(3, 4)), LNSBackend)
        assert isinstance(backend_for(ExactMultiplier()), ApproxMultiplierBackend)
        with pytest.raises(TypeError):
            backend_for("posit8")
