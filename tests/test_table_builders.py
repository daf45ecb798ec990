"""Byte-parity of the bit-parallel posit table builders with the scalar model.

The codec value/boundary tables, the pairwise add/mul tables and the
float64-bits encode LUT are built with numpy kernels, a few thousand lanes
at a time.  These tests rebuild each table with the scalar
:class:`repro.posit.value.Posit` model (the per-code loops the builders
replaced) and require identical bytes; the served tables are also pinned
by their registry content digests, which name them in ``.npz`` caches and
fog content names.
"""

import numpy as np
import pytest

import repro.engine.registry as registry_mod
import repro.posit.tensor as tensor_mod
from repro.engine.registry import (
    ENCODE_TABLE_TOP_BITS,
    KernelRegistry,
    get_codec,
    get_encode_table,
    get_posit_tables,
)
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


def _fresh_registry() -> KernelRegistry:
    """A private registry that builds every table (no disk cache)."""
    reg = KernelRegistry()
    reg.cache_dir = None
    return reg


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
    assert reg.stats()["disk_loads"] == 0
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
