"""API-contract and failure-injection tests across the library.

Production libraries fail loudly and precisely; these tests pin the error
behaviour of every package's entry points.
"""

import numpy as np
import pytest

from repro.bitheap import BitHeap, FULL_ADDER
from repro.bitheap.compress import _apply
from repro.circuits import Circuit
from repro.fixedpoint import FixedPoint, Overflow, QFormat
from repro.floats import BINARY16, BINARY32, SoftFloat
from repro.fpga import CarrySegment, PhysicalChain
from repro.generators import ConstantMultiplier, Squarer
from repro.lns import LNS, LNSFormat
from repro.posit import POSIT8, POSIT16, Posit, PositFormat, Quire


class TestFloatsErrors:
    def test_pattern_out_of_range(self):
        with pytest.raises(ValueError):
            SoftFloat(BINARY16, 1 << 16)
        with pytest.raises(ValueError):
            SoftFloat(BINARY16, -1)

    def test_format_mismatch_rejected(self):
        a = SoftFloat.from_float(BINARY16, 1.0)
        b = SoftFloat.from_float(BINARY32, 1.0)
        with pytest.raises(ValueError):
            a.add(b)

    def test_nan_has_no_fraction_value(self):
        with pytest.raises(ValueError):
            SoftFloat.nan(BINARY16).to_fraction()

    def test_immutability(self):
        x = SoftFloat.from_float(BINARY16, 1.0)
        with pytest.raises(AttributeError):
            x.pattern = 0

    def test_repr_roundtrips_value(self):
        x = SoftFloat.from_float(BINARY16, 1.5)
        assert "1.5" in repr(x)


class TestPositErrors:
    def test_pattern_out_of_range(self):
        with pytest.raises(ValueError):
            Posit(POSIT8, 256)

    def test_format_mismatch(self):
        with pytest.raises(ValueError):
            Posit.one(POSIT8).add(Posit.one(POSIT16))

    def test_nar_to_fraction_raises(self):
        with pytest.raises(ValueError):
            Posit.nar(POSIT8).to_fraction()

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Posit.one(POSIT8).pattern = 3

    def test_quire_nar_to_fraction_raises(self):
        q = Quire(POSIT8)
        q.add_posit(Posit.nar(POSIT8))
        with pytest.raises(ValueError):
            q.to_fraction()

    def test_degenerate_format_rejected(self):
        with pytest.raises(ValueError):
            PositFormat(2, 0)


class TestFixedPointErrors:
    def test_error_overflow_policy(self):
        with pytest.raises(OverflowError):
            FixedPoint(QFormat(2, 2), 1000)

    def test_saturate_policy_clamps(self):
        fp = FixedPoint(QFormat(2, 2), 1000, Overflow.SATURATE)
        assert fp.raw == QFormat(2, 2).max_raw

    def test_immutability(self):
        fp = FixedPoint.from_float(QFormat(2, 2), 1.0)
        with pytest.raises(AttributeError):
            fp.raw = 0


class TestCircuitErrors:
    def test_undriven_output(self):
        c = Circuit("u")
        (a,) = c.inputs("a")
        orphan = c.new_net("orphan")
        c.outputs(o=orphan)
        with pytest.raises(RuntimeError):
            c.evaluate(a=1)

    def test_unknown_input_name(self):
        c = Circuit("t")
        (a,) = c.inputs("a")
        c.outputs(o=c.buf(a))
        with pytest.raises(KeyError):
            c.evaluate(a=1, bogus=0)

    def test_unknown_bus_in_vector_eval(self):
        c = Circuit("t")
        x = c.input_bus("x", 2)
        c.output_bus("o", x)
        with pytest.raises(KeyError):
            c.evaluate_vector(bogus=np.array([1]))

    def test_wrong_arity(self):
        from repro.circuits import GateKind

        c = Circuit("t")
        a, b = c.inputs("a", "b")
        with pytest.raises(ValueError):
            c._gate(GateKind.NOT, a, b)
        with pytest.raises(ValueError):
            c.and_(a)


class TestBitHeapErrors:
    def test_compressor_underfed(self):
        heap = BitHeap()
        heap.add_word(1, 1)
        with pytest.raises(ValueError):
            _apply(heap, FULL_ADDER, 0)  # column has 1 bit, FA needs 3

    def test_value_of_symbolic_heap(self):
        heap = BitHeap()
        heap.add_symbolic_word(4)
        with pytest.raises(ValueError):
            heap.value()


class TestFpgaErrors:
    def test_zero_length_segment(self):
        with pytest.raises(ValueError):
            CarrySegment("s", 0)

    def test_chain_overflow_guarded(self):
        chain = PhysicalChain(0, capacity=4)
        chain.place("a", 4)
        with pytest.raises(ValueError):
            chain.place("b", 1)


class TestGeneratorErrors:
    def test_squarer_range_check(self):
        with pytest.raises(ValueError):
            Squarer(4).apply(16)

    def test_constant_multiplier_handles_zero(self):
        cm = ConstantMultiplier(0, 8)
        assert cm.apply(123) == 0
        assert cm.adders == 0


class TestLNSErrors:
    def test_exponent_out_of_range(self):
        fmt = LNSFormat(3, 2)
        with pytest.raises(ValueError):
            LNS(fmt, 0, fmt.e_max + 1)

    def test_division_by_zero(self):
        fmt = LNSFormat(3, 2)
        with pytest.raises(ZeroDivisionError):
            LNS.one(fmt) / LNS.zero(fmt)

    def test_mixed_format_rejected(self):
        a = LNS.one(LNSFormat(3, 2))
        b = LNS.one(LNSFormat(4, 2))
        with pytest.raises(ValueError):
            a + b

    def test_nan_input_becomes_zero(self):
        import math

        fmt = LNSFormat(3, 2)
        assert LNS.from_float(fmt, math.nan).is_zero()


class TestFaultPlanErrors:
    def test_rates_validated(self):
        from repro.engine.faults import ChaosPlan, FaultPlan

        with pytest.raises(ValueError):
            FaultPlan(lut_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(op_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosPlan(crash_rate=0.7, slow_rate=0.7)  # sum > 1

    def test_runner_retry_budgets_validated(self):
        from repro.engine.parallel import ParallelRunner

        with pytest.raises(ValueError):
            ParallelRunner(model=object(), workers=1, task_retries=-1)
        with pytest.raises(ValueError):
            ParallelRunner(model=object(), workers=1, pool_restarts=-1)
