"""Reusable arithmetic components for gate-level circuits.

These are the building blocks that posit and float datapaths share: ripple
adders (which FPGAs implement in fast carry chains, per Section II's
target-specific optimizations), array multipliers (the partial-product view
of Fig. 3), barrel shifters, and the count-leading-zeros/signs units that
dominate posit decode cost.

All word-level helpers take and return LSB-first lists of nets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .netlist import Circuit, Net

__all__ = [
    "ripple_carry_adder",
    "array_multiplier",
    "twos_complement",
    "leading_zero_counter",
    "leading_sign_counter",
    "barrel_shifter",
    "equality_comparator",
    "mux_word",
]


def ripple_carry_adder(
    c: Circuit,
    a: Sequence[Net],
    b: Sequence[Net],
    cin: Optional[Net] = None,
) -> Tuple[List[Net], Net]:
    """Add two equal-width words; return ``(sum_bits, carry_out)``."""
    if len(a) != len(b):
        raise ValueError("ripple_carry_adder needs equal widths")
    carry = cin if cin is not None else c.const(0)
    sums: List[Net] = []
    for ai, bi in zip(a, b):
        s, carry = c.full_adder(ai, bi, carry)
        sums.append(s)
    return sums, carry


def array_multiplier(
    c: Circuit, a: Sequence[Net], b: Sequence[Net]
) -> List[Net]:
    """Plain pencil-and-paper unsigned multiplier (Fig. 3's structure).

    Generates all partial products ``a_i AND b_j`` and reduces them with
    ripple adders, one row at a time.  Deliberately naive: this is the
    baseline the regularized mapping of Fig. 4 improves on.
    """
    wa, wb = len(a), len(b)
    zero = c.const(0)
    acc: List[Net] = [zero] * (wa + wb)
    for j in range(wb):
        row = [c.and_(a[i], b[j]) for i in range(wa)]
        carry = zero
        for i in range(wa):
            s, carry = c.full_adder(acc[j + i], row[i], carry)
            acc[j + i] = s
        # Row j only writes positions j .. j+wa, so acc[j+wa] is still the
        # constant zero here and the carry-out can simply take its place.
        acc[j + wa] = carry
    return acc


def twos_complement(c: Circuit, a: Sequence[Net]) -> List[Net]:
    """Return ``-a`` as a same-width word (two's complement: invert, +1)."""
    inverted = [c.not_(x) for x in a]
    one = c.const(1)
    zero_word = [c.const(0)] * len(a)
    zero_word[0] = one
    total, _ = ripple_carry_adder(c, inverted, zero_word)
    return total


def conditional_negate(c: Circuit, a: Sequence[Net], neg: Net) -> List[Net]:
    """Return ``neg ? -a : a`` — XOR with the sign then add it back.

    This is the 2's-complement "decode" posits use instead of the
    sign/magnitude split of IEEE floats.
    """
    flipped = [c.xor(x, neg) for x in a]
    addend = [c.const(0)] * len(a)
    addend[0] = neg
    total, _ = ripple_carry_adder(c, flipped, addend)
    return total


def leading_zero_counter(c: Circuit, a: Sequence[Net]) -> List[Net]:
    """Count leading zeros of an MSB-last word (LSB-first as usual).

    Returns an LSB-first count word of ``ceil(log2(len(a)+1))`` bits.
    Structured as a priority scan — O(n log n) gates, O(n) depth.
    """
    n = len(a)
    count_width = max(1, n.bit_length())
    # Priority mux chain: the mux closest to the output corresponds to the
    # MSB, so a set MSB overrides everything scanned after it.
    result = _constant_word(c, n, count_width)
    for idx in range(n - 1, -1, -1):  # idx = distance from the MSB
        bit_net = a[n - 1 - idx]
        candidate = _constant_word(c, idx, count_width)
        result = mux_word(c, bit_net, result, candidate)
    return result


def leading_sign_counter(c: Circuit, a: Sequence[Net]) -> List[Net]:
    """Count the run of copies of the MSB ("count leading zeros or ones").

    This is the posit regime decoder; the paper notes the equivalent OR tree
    "takes no more than six logic levels even for 64-bit posits".
    """
    msb = a[-1]
    normalized = [c.xor(x, msb) for x in a]
    return leading_zero_counter(c, normalized)


def _constant_word(c: Circuit, value: int, width: int) -> List[Net]:
    return [c.const((value >> i) & 1) for i in range(width)]


def mux_word(c: Circuit, select: Net, when0: Sequence[Net], when1: Sequence[Net]) -> List[Net]:
    """Word-wide 2:1 mux."""
    if len(when0) != len(when1):
        raise ValueError("mux_word needs equal widths")
    return [c.mux(select, a, b) for a, b in zip(when0, when1)]


def barrel_shifter(
    c: Circuit,
    a: Sequence[Net],
    amount: Sequence[Net],
    left: bool = False,
    arithmetic: bool = False,
) -> List[Net]:
    """Logarithmic barrel shifter: shift ``a`` by the binary ``amount``.

    ``arithmetic`` replicates the MSB when shifting right (the
    sign-preserving shift posit alignment needs).
    """
    word = list(a)
    fill_right = word[-1] if arithmetic else c.const(0)
    for stage, sel in enumerate(amount):
        dist = 1 << stage
        if left:
            shifted = [c.const(0)] * min(dist, len(word)) + word[: max(0, len(word) - dist)]
        else:
            shifted = word[dist:] + [fill_right] * min(dist, len(word))
        word = mux_word(c, sel, word, shifted)
    return word


def equality_comparator(c: Circuit, a: Sequence[Net], b: Sequence[Net]) -> Net:
    """Single net that is 1 iff the words are bit-identical."""
    if len(a) != len(b):
        raise ValueError("equality_comparator needs equal widths")
    bits = [c.xnor(x, y) for x, y in zip(a, b)]
    return bits[0] if len(bits) == 1 else c.and_(*bits)
