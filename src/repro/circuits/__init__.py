"""Gate-level netlists: the substrate for hardware-cost comparisons.

Sections III and V of the paper argue about *circuits* — partial-product
arrays, carry chains, ALM packing, posit decoders.  This package provides a
small but complete combinational-netlist framework: a builder DSL
(:class:`Circuit`), an event-free evaluator, reusable arithmetic components
(adders, multipliers, shifters, leading-zero counters, two's-complement
units), and cost models (gate counts and a LUT/ALM estimate matching the
FPGA view of Section III).

>>> from repro.circuits import Circuit
>>> c = Circuit("maj3")
>>> a, b, d = c.inputs("a", "b", "d")
>>> c.outputs(maj=c.maj(a, b, d))
>>> c.evaluate(a=1, b=0, d=1)["maj"]
1
"""

from .netlist import Circuit, Net, Gate, GateKind
from .components import (
    ripple_carry_adder,
    array_multiplier,
    twos_complement,
    leading_zero_counter,
    leading_sign_counter,
    barrel_shifter,
    equality_comparator,
    mux_word,
)
from .components import conditional_negate
from .cost import CostReport, gate_cost, lut_cost, alm_estimate, carry_positions, cost_report
from .emit import to_verilog

__all__ = [
    "Circuit",
    "Net",
    "Gate",
    "GateKind",
    "ripple_carry_adder",
    "array_multiplier",
    "twos_complement",
    "leading_zero_counter",
    "leading_sign_counter",
    "barrel_shifter",
    "equality_comparator",
    "mux_word",
    "conditional_negate",
    "CostReport",
    "gate_cost",
    "lut_cost",
    "alm_estimate",
    "carry_positions",
    "cost_report",
    "to_verilog",
]
