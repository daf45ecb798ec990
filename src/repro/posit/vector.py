"""Bit-parallel posit codecs: field-extraction decode/encode on whole arrays.

The tabulated codecs (:mod:`repro.posit.tensor`) stop at 16 bits because a
``2**nbits`` value table stops being buildable; this module removes that
ceiling by doing what posit hardware does, vectorized over numpy int64
arrays: two's-complement the sign away, count the regime run (a CLZ after
conditionally inverting the body), split off the ``es`` exponent bits and
the fraction, and reassemble on encode with round-to-nearest, ties to the
even *encoding* — never materializing the unbounded extended body the
scalar :func:`repro.posit.codec.encode` builds.

Everything here is bit-exact with the scalar model by construction:

* decode extracts the same ``(sign, sig, exp)`` integer fields, so the
  float64 values are exact (a <= 32-bit posit significand has <= 30 bits,
  far inside float64's 53);
* encode replicates the scalar cut/guard/sticky arithmetic on int64 lanes,
  including the posit clamps (no underflow to zero, no overflow to NaR);
* :func:`add_codes`/:func:`mul_codes` compute in *integer* significand
  arithmetic — products of two <= 30-bit significands and guard-extended
  aligned sums both fit in int64 — because float64 round-tripping is NOT
  bit-exact at 32 bits (a posit<32,2> product has 56 significant bits; the
  innocuous-double-rounding condition ``53 >= 2p + 2`` fails at p = 28).

Performance notes, measured on benchmark-sized (10k-element) arrays:

* ``np.where`` costs several plain kernels, so lane selection is written
  as arithmetic blends (``lo + cond * (hi - lo)``, exact on int64) and
  exceptional lanes (zero, NaR, clamps) are patched with boolean-mask
  assignment;
* a freshly allocated temporary costs ~4x a compute kernel at this size
  (page faults on first touch), so the kernels run in-place on a small
  set of live buffers (``out=``, augmented assignment), retiring each
  temporary into the next intermediate instead of building one big
  dataflow expression.
"""

from __future__ import annotations

import numpy as np

from .format import PositFormat

__all__ = [
    "MAX_WIDE_NBITS",
    "check_decode_format",
    "check_wide_format",
    "vector_decode",
    "vector_encode",
    "add_codes",
    "mul_codes",
]

#: Widest posit the bit-parallel kernels support: every intermediate
#: (aligned sums with 32 guard bits, full significand products) must fit
#: in a signed int64 lane.
MAX_WIDE_NBITS = 32

#: Largest exponent-field width: ``e << f_width`` must stay below 2**63
#: for the widest significands the add kernel produces.
_MAX_WIDE_ES = 3

#: Largest ``log2(maxpos)`` decode accepts: every value of such a format
#: (minpos = 2**-max_scale included) is an exact float64.
_MAX_DECODE_SCALE = 1023

#: Guard bits appended to the larger addend before alignment; the smaller
#: operand's shifted-out tail is folded into a sticky bit.
_GUARD_BITS = 32

_ONE = np.int64(1)


def check_wide_format(fmt: PositFormat) -> None:
    """Reject formats whose intermediates would overflow an int64 lane."""
    check_decode_format(fmt)
    if fmt.es > _MAX_WIDE_ES:
        raise ValueError(
            f"wide posit kernels support es <= {_MAX_WIDE_ES}, got {fmt}"
        )


def check_decode_format(fmt: PositFormat) -> None:
    """Reject formats decode cannot represent exactly in float64.

    Decode only extracts fields, so it needs neither the add kernel's
    ``es`` bound nor its guard-bit headroom: any ``es`` whose values stay
    inside float64's exponent range decodes exactly.
    """
    if fmt.nbits > MAX_WIDE_NBITS:
        raise ValueError(
            f"wide posit kernels support at most {MAX_WIDE_NBITS}-bit formats, "
            f"got {fmt}"
        )
    if fmt.max_scale > _MAX_DECODE_SCALE:
        raise ValueError(
            f"posit decode needs values exact in float64 (max_scale <= "
            f"{_MAX_DECODE_SCALE}), got {fmt}"
        )


def _bit_length(a: np.ndarray) -> np.ndarray:
    """Per-element ``int.bit_length()`` of a non-negative int64 array.

    ``frexp`` gives the bit length exactly for anything below 2**53; above
    that, float64 rounding can bump a value up to the next power of two and
    overstate the length by one, which ``a >> (e - 1) == 0`` detects.
    (``a == 0`` lands at ``e - 1 + exact = -1``; the maximum snaps it to 0.)
    """
    e = np.frexp(a.astype(np.float64))[1].astype(np.int64)
    t = e - 1
    np.clip(t, 0, 63, out=t)
    np.right_shift(a, t, out=t)
    e += t != 0
    e -= 1
    np.maximum(e, 0, out=e)
    return e


def _bit_length53(a: np.ndarray) -> np.ndarray:
    """`_bit_length` for arrays known to be below 2**53 (frexp is exact)."""
    return np.frexp(a.astype(np.float64))[1].astype(np.int64)


def _decode_fields_raw(fmt: PositFormat, codes: np.ndarray):
    """Field extraction without invalid-lane cleanup.

    Returns ``(sign, sig, exp, zero, nar, mag)``.  Zero/NaR lanes carry
    harmless junk fields (``sig = 1`` with a deep-underflow exponent) that
    callers override; ``mag`` is the two's-complement magnitude pattern.
    All returned arrays are freshly allocated (callers may mutate them).
    """
    check_decode_format(fmt)
    nbits, es = fmt.nbits, fmt.es
    word = np.int64((1 << nbits) - 1)
    codes = np.asarray(codes, dtype=np.int64) & word
    zero = codes == 0
    nar = codes == fmt.pattern_nar

    sign = codes >> (nbits - 1)
    # Two's-complement magnitude as a blend: sign 1 -> (~codes + 1) & word.
    mag = -sign
    mag ^= codes
    mag += sign
    mag &= word
    body_width = nbits - 1
    body_mask = np.int64((1 << body_width) - 1)
    body = mag & body_mask

    # Regime: a CLZ of the body after inverting lanes that lead with 1s.
    first = body >> (body_width - 1)  # body < 2**body_width: 0 or 1
    t = first * body_mask
    t ^= body
    run = _bit_length53(t)
    np.subtract(body_width, run, out=run)
    k = run + run  # k = first * (2*run - 1) - run: run - 1 or -run
    k -= 1
    k *= first
    k -= run

    # Bits left after the regime run and its terminating bit (may be
    # negative when the regime fills the word; missing bits read as 0).
    rem_width = np.subtract(body_width - 1, run, out=run)
    rw = np.maximum(rem_width, 0)
    rem = _ONE << rw
    rem -= 1
    rem &= body
    f_width = rem_width  # retire rem_width's buffer
    f_width -= es
    np.maximum(f_width, 0, out=f_width)
    # Exponent field = the top min(es, rw) bits of rem, zero-padded to es
    # bits: (rem << es) >> rw covers both the full and truncated cases.
    e = rem << es
    e >>= rw
    frac = _ONE << f_width
    frac -= 1
    frac &= rem

    sig = _ONE << f_width
    sig |= frac
    exp = k  # retire k's buffer: exp = k * 2**es + e - f_width
    exp *= np.int64(1 << es)
    exp += e
    exp -= f_width
    return sign, sig, exp, zero, nar, mag


def vector_decode(
    fmt: PositFormat, codes: np.ndarray, out: np.ndarray = None
) -> np.ndarray:
    """Exact float64 value of each code (NaR -> NaN), bit-parallel.

    ``out`` (optional) receives the values in place — a float64 array of
    the same shape as ``codes``.  The integer fields are fully extracted
    before ``out`` is written, so ``out`` may even alias the storage
    behind ``codes`` (e.g. a float64 view of the same buffer); the fused
    inference path leans on this to recycle one scratch buffer per stage
    instead of paying a page-faulting fresh allocation per call.
    """
    sign, sig, exp, zero, nar, _ = _decode_fields_raw(fmt, codes)
    if out is not None:
        if out.shape != np.shape(codes) or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 array of shape {np.shape(codes)}, "
                f"got {out.dtype} {out.shape}"
            )
    # sig has <= nbits - 2 bits and |exp| <= max_scale + nbits: exact.
    val = np.ldexp(sig.astype(np.float64), exp.astype(np.int32), out=out)
    sign *= -2  # exact sign flip: multiply by +1 (sign 0) or -1 (sign 1)
    sign += 1
    val *= sign
    val[zero] = 0.0
    val[nar] = np.nan
    return val


def _encode_fields(fmt, sign, sig, exp, sticky, L):
    """Shared encode core; ``L`` is ``_bit_length(sig)`` and is consumed.

    ``sign``/``sig``/``exp`` are only read; ``L`` and the temporaries are
    mutated freely.
    """
    nbits, es = fmt.nbits, fmt.es
    target = nbits - 1
    word = np.int64((1 << nbits) - 1)
    has_sticky = not (np.isscalar(sticky) and sticky == 0)

    scale = L - 1
    scale += exp
    over = scale >= fmt.max_scale
    under = scale < fmt.min_scale

    # k = floor(scale / 2**es): arithmetic right shift floors negatives
    # too, and the remainder pops out of the mask.
    k = scale >> es
    e = scale  # retire scale's buffer: e = scale mod 2**es
    e &= np.int64((1 << es) - 1)
    # Regime: k >= 0 -> (k+1) ones and a terminating zero; k < 0 -> (-k)
    # zeros and a terminating one, blended by p.  Shift counts are clipped
    # so the clamped (over/under) lanes, whose k is unbounded, stay defined.
    p = k >= 0
    regime = k + 1
    np.clip(regime, 0, 62, out=regime)
    np.left_shift(_ONE, regime, out=regime)
    regime -= 1
    regime <<= 1
    regime -= 1  # ((1 << (k+1)) - 1) << 1, minus 1 for the blend
    regime *= p
    regime += 1
    r_width = k + k  # r_width = p * (2k + 1) + (1 - k)
    r_width += 1
    r_width *= p
    r_width += 1
    r_width -= k

    f_width = L  # retire L's buffer
    f_width -= 1
    np.maximum(f_width, 0, out=f_width)
    frac = _ONE << f_width
    frac -= 1
    frac &= sig
    rest = np.left_shift(e, f_width, out=e)  # es + f_width bits below regime
    rest |= frac

    # In-range lanes have r_width <= target, so avail >= 0; cut is how many
    # low bits of ``rest`` fall off the end of the word.
    avail = np.subtract(target, r_width, out=r_width)
    np.clip(avail, 0, target, out=avail)
    cut = f_width  # retire f_width's buffer
    cut += es
    cut -= avail
    pos = cut > 0
    pos_cut = np.clip(cut, 0, 62)
    hi = rest >> pos_cut
    lo = -cut
    np.clip(lo, 0, 62, out=lo)
    np.left_shift(rest, lo, out=lo)
    hi -= lo  # blend: tail = lo + pos * (hi - lo)
    hi *= pos
    tail = hi
    tail += lo
    kept = np.left_shift(regime, avail, out=regime)
    kept |= tail

    # Round to nearest, ties to the even encoding, on the cut-off bits.
    rem = np.left_shift(_ONE, pos_cut, out=pos_cut)
    rem -= 1
    rem &= rest
    half = cut  # retire cut's buffer (its > 0 mask lives in ``pos``)
    half -= 1
    np.clip(half, 0, 62, out=half)
    np.left_shift(_ONE, half, out=half)
    guard = rem >= half
    guard &= pos
    half -= 1
    rem &= half
    inc = (kept & _ONE) != 0
    sticky_bit = rem != 0
    if has_sticky:
        sticky_in = np.not_equal(sticky, 0)
        sticky_bit |= sticky_in
    inc |= sticky_bit
    inc &= guard
    kept += inc

    # Safety clamps: rounding up past maxpos must not reach NaR, and a
    # nonzero value must not round to the zero pattern.  ``over`` is
    # applied first so it beats a zero ``kept`` (maxpos != 0 keeps the
    # second mask clear of clamped lanes).
    over |= kept >= (_ONE << target)
    kept[over] = np.int64(fmt.pattern_maxpos)
    under |= kept == 0
    kept[under] = np.int64(fmt.pattern_minpos)
    # An underflowed magnitude (sig 0 but sticky set) is still non-zero.
    zs = sig == 0
    kept[zs] = 0
    if has_sticky:
        zs &= sticky_in
        kept[zs] = np.int64(fmt.pattern_minpos)

    sign = np.asarray(sign, dtype=np.int64)
    out = -sign  # (kept ^ -sign) + sign: conditional two's-complement
    out ^= kept
    out += sign
    out &= word
    return out


def vector_encode(fmt: PositFormat, x: np.ndarray) -> np.ndarray:
    """Round a float64 array to posit codes (NaN/inf -> NaR), bit-parallel."""
    check_wide_format(fmt)
    x = np.asarray(x, dtype=np.float64)
    nonfinite = np.isfinite(x)
    np.logical_not(nonfinite, out=nonfinite)
    xf = x.copy()
    xf[nonfinite] = 0.0
    sign = np.signbit(xf).astype(np.int64)
    np.abs(xf, out=xf)
    m, e2 = np.frexp(xf)
    # |m| in [0.5, 1) has at most 53 significant bits: m * 2**53 is an
    # exactly representable integer, so L is 53 on every nonzero lane —
    # no per-element bit_length needed on this path.
    m *= 9007199254740992.0  # 2**53
    sig = m.astype(np.int64)
    exp = e2.astype(np.int64)
    exp -= 53
    L = (sig != 0) * np.int64(53)
    out = _encode_fields(fmt, sign, sig, exp, 0, L)
    out[nonfinite] = np.int64(fmt.pattern_nar)
    return out


def mul_codes(fmt: PositFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Correctly rounded elementwise posit multiply on code arrays.

    Pure integer: significand products of <= 30-bit operands fit int64
    exactly, so there is a single rounding — float64 round-tripping would
    double-round at 32 bits.
    """
    check_wide_format(fmt)
    sa, ma, ea, za, naa, _ = _decode_fields_raw(fmt, a)
    sb, mb, eb, zb, nab, _ = _decode_fields_raw(fmt, b)
    sa ^= sb
    ma *= mb
    ea += eb
    out = _encode_fields(fmt, sa, ma, ea, 0, _bit_length(ma))
    za |= zb
    out[za] = 0
    naa |= nab
    out[naa] = np.int64(fmt.pattern_nar)
    return out


def add_codes(fmt: PositFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Correctly rounded elementwise posit add on code arrays.

    Integer alignment with :data:`_GUARD_BITS` guard bits: the larger
    operand (positive posit patterns order by magnitude, so the comparison
    is on the magnitude patterns) is shifted up by the guard, the smaller
    aligned under it, and any shifted-out tail becomes a sticky bit.  When
    that tail is subtracted, the true difference lies strictly inside
    ``(total - 1, total)``, which ``sig = total - 1, sticky = 1`` encodes —
    the encoder's guard/sticky logic then rounds identically to the scalar
    model's unbounded-integer arithmetic.
    """
    check_wide_format(fmt)
    nbits, es = fmt.nbits, fmt.es
    word = np.int64((1 << nbits) - 1)
    a = np.asarray(a, dtype=np.int64) & word
    b = np.asarray(b, dtype=np.int64) & word
    sa, ma, ea, za, naa, maga = _decode_fields_raw(fmt, a)
    sb, mb, eb, zb, nab, magb = _decode_fields_raw(fmt, b)

    # Normalize significands to the format's widest length P so equal
    # scales imply comparable integers.  Decoded sigs never exceed P bits,
    # so the shifts need no clipping.
    P = max(1, nbits - 2 - es)
    sh = _bit_length53(ma)
    np.subtract(P, sh, out=sh)
    np.left_shift(ma, sh, out=ma)
    ea -= sh
    sh = _bit_length53(mb)
    np.subtract(P, sh, out=sh)
    np.left_shift(mb, sh, out=mb)
    eb -= sh

    # hi = the larger-magnitude operand, as arithmetic blends over h.
    h = maga >= magb
    sig_hi = ma - mb
    sig_hi *= h
    sig_hi += mb
    sig_lo = mb - ma
    sig_lo *= h
    sig_lo += ma
    exp_hi = ea - eb
    exp_hi *= h
    exp_hi += eb
    exp_lo = eb - ea
    exp_lo *= h
    exp_lo += ea
    sgn_hi = sa - sb
    sgn_hi *= h
    sgn_hi += sb
    sgn_lo = sb - sa
    sgn_lo *= h
    sgn_lo += sa

    # Alignment distance: >= 0 on valid lanes (|hi| >= |lo|); invalid
    # lanes are overridden below, the maximum just keeps shifts in range.
    d = np.subtract(exp_hi, exp_lo, out=exp_lo)
    np.maximum(d, 0, out=d)
    near = d <= _GUARD_BITS
    sig_hi <<= _GUARD_BITS
    dg = d - _GUARD_BITS
    np.clip(dg, 0, 62, out=dg)
    lo_far = sig_lo >> dg
    up = np.subtract(_GUARD_BITS, d, out=d)
    np.clip(up, 0, 62, out=up)
    lo_s = np.left_shift(sig_lo, up, out=up)
    lo_s -= lo_far  # blend: near -> shifted up, far -> shifted down
    lo_s *= near
    lo_s += lo_far
    tail = np.left_shift(_ONE, dg, out=dg)
    tail -= 1
    tail &= sig_lo
    sticky = tail != 0
    np.logical_not(near, out=near)
    sticky &= near  # only far lanes shift bits out

    same = sgn_hi == sgn_lo
    u = same * np.int64(2)  # +1 when adding, -1 when subtracting
    u -= 1
    lo_s *= u
    total = sig_hi
    total += lo_s
    # Subtracting a truncated lo leaves the true difference in
    # (total - 1, total); sticky lanes always have total >= 1 here.
    nsame = np.logical_not(same, out=same)
    nsame &= sticky
    total -= nsame
    exp_out = exp_hi
    exp_out -= _GUARD_BITS

    out = _encode_fields(fmt, sgn_hi, total, exp_out, sticky, _bit_length(total))
    # x + 0 returns the other operand's pattern verbatim; NaR absorbs all.
    out[zb] = a[zb]
    out[za] = b[za]
    naa |= nab
    out[naa] = np.int64(fmt.pattern_nar)
    return out
