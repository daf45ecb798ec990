"""Byte-parity of the vectorized kernel table builders with the scalar models.

The posit codec value/boundary tables, the posit, softfloat and LNS
pairwise tables and the float64-bits encode LUT are built with numpy
kernels, a few thousand lanes at a time.  These tests rebuild each table
with the scalar :class:`repro.posit.value.Posit`,
:class:`repro.floats.softfloat.SoftFloat` and :class:`repro.lns.LNS`
models (the per-code loops the builders replaced) and require identical
bytes; the served tables are also pinned by their registry content
digests, which name them in fog content names.
"""

import numpy as np
import pytest

import repro.engine.lns_backend as lns_mod
import repro.engine.registry as registry_mod
import repro.engine.softfloat_backend as softfloat_mod
import repro.posit.tensor as tensor_mod
from repro.engine.faults import FaultPlan
from repro.engine.lns_backend import LNSBackend
from repro.engine.registry import (
    ENCODE_TABLE_TOP_BITS,
    KernelRegistry,
    get_codec,
    get_encode_table,
    get_posit_tables,
)
from repro.engine.softfloat_backend import SoftFloatBackend
from repro.floats import FP8_E4M3, FP8_E5M2, FloatFormat, SoftFloat
from repro.lns import LNS, LNSFormat
from repro.posit import PositFormat
from repro.posit import vector as pvec
from repro.posit.tensor import PositCodec, PositTable
from repro.posit.value import Posit

#: Registry content digests of the served tables, as built by the scalar
#: per-code loops before the bit-parallel builders replaced them.
PINNED_DIGESTS = {
    ("posit", 8, 2, "values"): "bc4f2e7bf3826df03c76f920ca7b7f7d7a301f34d708ccfe976bcb9ba274cbc6",
    ("posit", 8, 2, "addmul"): "06fabb50ca6cf639af48d84e0a2e74e5a680897d2a54c750e3f5196c64955cac",
    ("posit", 8, 2, "encode-lut"): "75d0d365bac4625e7a05ad40420d343d2fca35ae91f21a2b6d68d5c3105bf638",
    ("posit", 16, 1, "values"): "92c62885593b44f2dcd6989e187555db6c4a9478cb3e21e594a654e1cdfbcd83",
}

#: The same for the FP8 add/mul tables and two LNS table pairs, as built by
#: the scalar SoftFloat and LNS loops before the vectorized builders.
PINNED_FLOAT_LNS_DIGESTS = {
    ("float", 4, 3, "addmul"): "755c805673062a17331498e5d2ce52609c61a5cf7ac56e008e9cda057e7f2453",
    ("float", 5, 2, "addmul"): "32558252a2443cdc0b0ee599e38a05aabbc09a437c318c0f707829cc169d9c1b",
    ("lns", 2, 3, "tables"): "9b4d1fc991997bdc299374b21186248e3193935252f7a4bba298550d075f1446",
    ("lns", 3, 4, "tables"): "e192e744317dcf504188f2e4ae881744efe8fdc958f27cf6cb870fa0f0871b68",
}


def _fresh_registry() -> KernelRegistry:
    """A private registry: every table is built, none is shared."""
    return KernelRegistry()


# ----------------------------------------------------------------------
# Scalar oracles: the per-code loops the builders replaced
# ----------------------------------------------------------------------
def scalar_values(fmt: PositFormat) -> np.ndarray:
    values = np.empty(1 << fmt.nbits, dtype=np.float64)
    for pattern in range(1 << fmt.nbits):
        p = Posit(fmt, pattern)
        values[pattern] = np.nan if p.is_nar() else p.to_float()
    return values


def scalar_boundaries(fmt: PositFormat, sorted_codes: np.ndarray) -> np.ndarray:
    ext = PositFormat(fmt.nbits + 1, fmt.es)
    n = 1 << fmt.nbits
    ext_mask = (1 << (fmt.nbits + 1)) - 1
    bounds = np.empty(len(sorted_codes) - 1, dtype=np.float64)
    for i, code in enumerate(sorted_codes[:-1]):
        key = int(code) - (n if code >= n >> 1 else 0)
        bounds[i] = Posit(ext, (2 * key + 1) & ext_mask).to_float()
    return bounds


def scalar_pair_tables(fmt: PositFormat):
    n = 1 << fmt.nbits
    posits = [Posit(fmt, p) for p in range(n)]
    add = np.empty((n, n), dtype=np.uint8)
    mul = np.empty((n, n), dtype=np.uint8)
    for i, a in enumerate(posits):
        for j in range(i, n):
            add[i, j] = add[j, i] = (a + posits[j]).pattern
            mul[i, j] = mul[j, i] = (a * posits[j]).pattern
    return add, mul


def scalar_float_pair_tables(fmt: FloatFormat):
    n = 1 << fmt.width
    floats = [SoftFloat(fmt, p) for p in range(n)]
    add = np.empty((n, n), dtype=np.uint8)
    mul = np.empty((n, n), dtype=np.uint8)
    for i, a in enumerate(floats):
        for j, b in enumerate(floats):
            add[i, j] = a.add(b).pattern
            mul[i, j] = a.mul(b).pattern
    return add, mul


def _lns(fmt: LNSFormat, code: int) -> LNS:
    return LNS(fmt, code >> fmt.e_bits, (code & ((1 << fmt.e_bits) - 1)) + fmt.zero_code)


def scalar_lns_sum(fmt: LNSFormat, a: int, b: int) -> int:
    s = _lns(fmt, a).add(_lns(fmt, b))
    if s.is_zero():
        return 0
    return (s.sign << fmt.e_bits) | ((s.e_code - fmt.zero_code) & ((1 << fmt.e_bits) - 1))


def full_encode_lut(codec: PositCodec) -> np.ndarray:
    """The LUT with every one of its 2**21 key representatives encoded."""
    f = ENCODE_TABLE_TOP_BITS
    keys = np.arange(1 << (1 + 11 + f + 1), dtype=np.uint64)
    rep_bits = ((keys >> np.uint64(1)) << np.uint64(52 - f)) | ((keys & np.uint64(1)) << np.uint64(52 - f - 1))
    return codec.encode(rep_bits.view(np.float64)).astype(np.uint8)


# ----------------------------------------------------------------------
# Codec value and boundary tables
# ----------------------------------------------------------------------
CODEC_FORMATS = [(n, es) for n in range(3, 13) for es in range(5)] + [
    (16, 1),
    (16, 2),
    (16, 4),
]


@pytest.mark.parametrize("nbits,es", CODEC_FORMATS)
def test_codec_tables_match_scalar_model(nbits, es):
    fmt = PositFormat(nbits, es)
    codec = PositCodec(fmt)
    assert codec.values.tobytes() == scalar_values(fmt).tobytes()
    expected = scalar_boundaries(fmt, codec._sorted_codes)
    assert codec.boundaries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("es", [4, 5])
def test_decode_accepts_es_beyond_the_add_kernels(es):
    # Decode has its own bound (values exact in float64); the add/mul and
    # encode kernels keep the int64-lane bound of es <= 3.
    fmt = PositFormat(12, es)
    codes = np.arange(1 << 12)
    assert pvec.vector_decode(fmt, codes).tobytes() == scalar_values(fmt).tobytes()
    with pytest.raises(ValueError, match="es <= 3"):
        pvec.add_codes(fmt, codes, codes)
    with pytest.raises(ValueError, match="es <= 3"):
        pvec.mul_codes(fmt, codes, codes)


def test_decode_rejects_values_beyond_float64():
    with pytest.raises(ValueError, match="exact in float64"):
        pvec.vector_decode(PositFormat(8, 8), np.arange(256))


# ----------------------------------------------------------------------
# Pairwise add/mul tables
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nbits", range(3, 9))
@pytest.mark.parametrize("es", range(5))
def test_pair_tables_match_scalar_model(nbits, es):
    fmt = PositFormat(nbits, es)
    table = PositTable(fmt)
    add, mul = scalar_pair_tables(fmt)
    assert table.add_table.tobytes() == add.tobytes()
    assert table.mul_table.tobytes() == mul.tobytes()


@pytest.mark.parametrize("nbits", [9, 10])
@pytest.mark.parametrize("es", range(5))
def test_wide_pair_tables_match_scalar_samples(nbits, es):
    fmt = PositFormat(nbits, es)
    table = PositTable(fmt)
    n = 1 << nbits
    rng = np.random.default_rng(1000 * nbits + es)
    a = rng.integers(0, n, 400)
    b = rng.integers(0, n, 400)
    # Plus the rows and columns where rounding is hardest: zero, NaR and
    # the extremes of the scale range.
    edge = np.array([0, 1, n // 2 - 1, n // 2, n // 2 + 1, n - 1])
    a = np.concatenate([a, np.repeat(edge, len(edge))])
    b = np.concatenate([b, np.tile(edge, len(edge))])
    for x, y in zip(a.tolist(), b.tolist()):
        px, py = Posit(fmt, x), Posit(fmt, y)
        assert table.add_table[x, y] == (px + py).pattern, (x, y)
        assert table.mul_table[x, y] == (px * py).pattern, (x, y)


# ----------------------------------------------------------------------
# Softfloat pairwise add/mul tables
# ----------------------------------------------------------------------
SOFTFLOAT_FORMATS = [
    FP8_E4M3,
    FP8_E5M2,
    FloatFormat("e3m2", exp_bits=3, frac_bits=2),
    FloatFormat("e4m2", exp_bits=4, frac_bits=2),
    FloatFormat("e2m5", exp_bits=2, frac_bits=5),
]


@pytest.mark.parametrize("fmt", SOFTFLOAT_FORMATS, ids=lambda f: f.name)
def test_softfloat_pair_tables_match_scalar_model(fmt):
    backend = SoftFloatBackend(fmt, registry=_fresh_registry())
    assert backend.strategy == "pairwise"
    add, mul = scalar_float_pair_tables(fmt)
    assert backend.add_table.tobytes() == add.tobytes()
    assert backend.mul_table.tobytes() == mul.tobytes()


# ----------------------------------------------------------------------
# LNS pairwise add tables
# ----------------------------------------------------------------------
def _lns_formats(widths):
    return [LNSFormat(i, w - 2 - i) for w in widths for i in range(1, w - 1)]


@pytest.mark.parametrize("fmt", _lns_formats(range(3, 9)), ids=str)
def test_lns_add_table_matches_scalar_model(fmt):
    backend = LNSBackend(fmt, registry=_fresh_registry())
    assert backend.strategy == "pairwise"
    n = 1 << fmt.width
    want = np.array([[scalar_lns_sum(fmt, a, b) for b in range(n)] for a in range(n)], dtype=np.uint8)
    assert backend.add_table.tobytes() == want.tobytes()


@pytest.mark.parametrize("fmt", _lns_formats([9, 10]), ids=str)
def test_wide_lns_add_tables_match_scalar_samples(fmt):
    backend = LNSBackend(fmt, registry=_fresh_registry())
    assert backend.strategy == "pairwise"
    n = 1 << fmt.width
    rng = np.random.default_rng(fmt.width * 100 + fmt.int_bits)
    a = rng.integers(0, n, 400)
    b = rng.integers(0, n, 400)
    # Plus zero (both signs), the extreme magnitudes and the codes around
    # 1.0, where phi- cancels.
    edge = np.array([0, 1, n // 4 - 1, n // 4, n // 4 + 1, n // 2 - 1, n // 2, n // 2 + 1, n - 1])
    a = np.concatenate([a, np.repeat(edge, len(edge))])
    b = np.concatenate([b, np.tile(edge, len(edge))])
    for x, y in zip(a.tolist(), b.tolist()):
        assert backend.add_table[x, y] == scalar_lns_sum(fmt, x, y), (x, y)


def test_lns_add_table_carries_no_op_faults():
    # The table is built from the phi kernel, not from ``add``, whose output
    # an op fault plan corrupts at call time.
    fmt = LNSFormat(2, 3)
    clean = LNSBackend(fmt, registry=_fresh_registry())
    faulty = LNSBackend(fmt, registry=_fresh_registry(), fault_plan=FaultPlan(seed=1, op_rate=1.0))
    assert faulty.add_table.tobytes() == clean.add_table.tobytes()
    codes = np.arange(1 << fmt.width)
    assert not np.array_equal(faulty.add(codes, codes), clean.add(codes, codes))


def test_via_phi_values_build_once_per_registry():
    # Wider than the pairwise tables: the value table alone is keyed in
    # the registry, so a second construction reuses it.
    reg = _fresh_registry()
    first = LNSBackend(LNSFormat(5, 9), registry=reg)
    second = LNSBackend(LNSFormat(5, 9), registry=reg)
    assert first.strategy == second.strategy == "via-phi"
    assert (reg.stats()["misses"], reg.stats()["hits"]) == (1, 1)
    assert first.values.tobytes() == second.values.tobytes()


class _RecordingPlan(FaultPlan):
    """A fault plan that records which registry entries it is handed."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sites = []

    def corrupt_tables(self, site, tables):
        self.sites.append((site, sorted(tables)))
        return super().corrupt_tables(site, tables)


def test_registry_lut_plan_reaches_lns_values_in_both_strategies():
    # The plan is handed the via-phi value table, as it is handed the
    # pairwise branch's.  Float tables are outside its integer flip
    # domain, so both branches' values come back unflipped while the
    # pairwise add table is corrupted.
    plan = _RecordingPlan(seed=1, lut_rate=1.0)
    reg = KernelRegistry(fault_plan=plan)
    wide, narrow = LNSFormat(4, 5), LNSFormat(2, 3)
    faulty_wide, faulty_narrow = LNSBackend(wide, registry=reg), LNSBackend(narrow, registry=reg)
    clean_wide = LNSBackend(wide, registry=_fresh_registry())
    clean_narrow = LNSBackend(narrow, registry=_fresh_registry())
    assert plan.sites == [("lns_4_5_values", ["values"]), ("lns_2_3_tables", ["add", "values"])]
    assert faulty_wide.values.tobytes() == clean_wide.values.tobytes()
    assert faulty_narrow.values.tobytes() == clean_narrow.values.tobytes()
    assert faulty_narrow.add_table.tobytes() != clean_narrow.add_table.tobytes()


# ----------------------------------------------------------------------
# Encode LUT
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nbits", range(3, 9))
@pytest.mark.parametrize("es", range(5))
def test_encode_lut_matches_full_representative_build(nbits, es):
    fmt = PositFormat(nbits, es)
    reg = _fresh_registry()
    lut = get_encode_table(fmt, reg)
    assert lut.dtype == np.uint8
    assert lut.tobytes() == full_encode_lut(get_codec(fmt, reg)).tobytes()


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------
def test_builds_do_not_depend_on_the_chunk_size(monkeypatch):
    fmt8, fmt16 = PositFormat(8, 2), PositFormat(16, 1)
    ref_codec16 = PositCodec(fmt16)
    ref_table = PositTable(fmt8)
    ref_lut = get_encode_table(fmt8, _fresh_registry())
    for chunk in (1000, 4095, 4097):  # none divides the table sizes
        monkeypatch.setattr(tensor_mod, "TABLE_BUILD_CHUNK", chunk)
        monkeypatch.setattr(registry_mod, "TABLE_BUILD_CHUNK", chunk)
        codec16 = PositCodec(fmt16)
        assert codec16.values.tobytes() == ref_codec16.values.tobytes()
        assert codec16.boundaries.tobytes() == ref_codec16.boundaries.tobytes()
        table = PositTable(fmt8)
        assert table.add_table.tobytes() == ref_table.add_table.tobytes()
        assert table.mul_table.tobytes() == ref_table.mul_table.tobytes()
        lut = get_encode_table(fmt8, _fresh_registry())
        assert lut.tobytes() == ref_lut.tobytes()


def test_softfloat_and_lns_builds_do_not_depend_on_the_chunk_size(monkeypatch):
    lns = LNSFormat(3, 4)
    ref_float = SoftFloatBackend(FP8_E4M3, registry=_fresh_registry())
    ref_lns = LNSBackend(lns, registry=_fresh_registry())
    for chunk in (1000, 4095, 4097):
        monkeypatch.setattr(softfloat_mod, "TABLE_BUILD_CHUNK", chunk)
        monkeypatch.setattr(lns_mod, "TABLE_BUILD_CHUNK", chunk)
        be = SoftFloatBackend(FP8_E4M3, registry=_fresh_registry())
        assert be.add_table.tobytes() == ref_float.add_table.tobytes()
        assert be.mul_table.tobytes() == ref_float.mul_table.tobytes()
        lbe = LNSBackend(lns, registry=_fresh_registry())
        assert lbe.add_table.tobytes() == ref_lns.add_table.tobytes()


# ----------------------------------------------------------------------
# Served tables: pinned content digests, and no scalar model on the way
# ----------------------------------------------------------------------
def _build_served_tables(reg: KernelRegistry) -> None:
    fmt8, fmt16 = PositFormat(8, 2), PositFormat(16, 1)
    get_codec(fmt8, reg)
    get_posit_tables(fmt8, reg)
    get_encode_table(fmt8, reg)
    get_codec(fmt16, reg)


def test_served_table_digests_are_pinned():
    reg = _fresh_registry()
    _build_served_tables(reg)
    for key, digest in PINNED_DIGESTS.items():
        assert reg.content_digest(key) == digest, key


def test_table_builds_construct_no_scalar_posits(monkeypatch):
    made = []
    init = Posit.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Posit, "__init__", counting_init)
    reg = _fresh_registry()
    _build_served_tables(reg)
    PositTable(PositFormat(10, 1))
    assert len(reg.content_names()) == 4
    assert made == []
    Posit(PositFormat(8, 2), 1)  # the counter itself works
    assert made == [1]


def _build_float_lns_tables(reg: KernelRegistry) -> None:
    SoftFloatBackend(FP8_E4M3, registry=reg)
    SoftFloatBackend(FP8_E5M2, registry=reg)
    LNSBackend(LNSFormat(2, 3), registry=reg)
    LNSBackend(LNSFormat(3, 4), registry=reg)


def test_softfloat_and_lns_table_digests_are_pinned():
    reg = _fresh_registry()
    _build_float_lns_tables(reg)
    for key, digest in PINNED_FLOAT_LNS_DIGESTS.items():
        assert reg.content_digest(key) == digest, key


def test_softfloat_and_lns_builds_call_no_scalar_ops(monkeypatch):
    calls = []

    def counting(method):
        def wrapper(self, *args, **kwargs):
            calls.append(method.__qualname__)
            return method(self, *args, **kwargs)

        return wrapper

    for cls, name in ((SoftFloat, "add"), (SoftFloat, "mul"), (LNS, "add")):
        monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    reg = _fresh_registry()
    _build_float_lns_tables(reg)
    LNSBackend(LNSFormat(4, 4), registry=reg)  # 10 bits, the widest table
    assert len(reg.content_names()) == 7  # 2 float value tables, 2 add/mul pairs, 3 LNS entries
    assert calls == []
    f, x = SoftFloat(FP8_E4M3, 1), _lns(LNSFormat(2, 3), 1)
    f.add(f)
    f.mul(f)
    x.add(x)
    assert calls == ["SoftFloat.add", "SoftFloat.mul", "LNS.add"]  # the counter works
