"""Property/fuzz tests for the NDJSON wire format.

Two invariants, attacked with generated inputs rather than examples:

1. **Round-trip**: any valid request object survives
   ``encode_line`` -> ``decode_line`` bit-identically, and parses into
   the same :class:`Request` twice (parsing is deterministic).
2. **Totality**: no byte sequence — truncated lines, random garbage,
   type-confused JSON — makes the decoder or validator raise anything
   but :class:`ProtocolError`.  The server answers malformed input with
   an error response; a stray ``KeyError`` would instead kill the
   connection handler.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve.protocol import (
    MAX_ELEMENTS,
    ProtocolError,
    decode_line,
    encode_line,
    parse_request,
)

pytestmark = pytest.mark.timeout(120)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


def matrix(rows, cols, elements=finite):
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def posit_matmul_requests(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    return {
        "id": draw(st.text(min_size=1, max_size=8)),
        "workload": "posit_matmul",
        "tenant": draw(st.sampled_from(["default", "acme", "edge-7"])),
        "bits": draw(st.integers(3, 32)),
        "es": draw(st.integers(0, 4)),
        "a": draw(matrix(m, k)),
        "b": draw(matrix(k, n)),
    }


@st.composite
def approx_matmul_requests(draw):
    int8 = st.integers(-128, 127).map(float)
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    return {
        "id": draw(st.text(min_size=1, max_size=8)),
        "workload": "approx_matmul",
        "mult": draw(st.sampled_from(["exact", "trunc6"])),
        "a": draw(matrix(m, k, int8)),
        "b": draw(matrix(k, n, int8)),
    }


@st.composite
def nn_predict_requests(draw):
    samples = draw(st.integers(1, 2))
    # One kws1 sample is (1, 31, 20); a stack of them is (n, 1, 31, 20).
    x = draw(
        st.lists(
            st.lists(matrix(31, 20), min_size=1, max_size=1),
            min_size=samples,
            max_size=samples,
        )
    )
    req = {
        "id": draw(st.text(min_size=1, max_size=8)),
        "workload": "nn_predict",
        "model": "kws1",
        "x": x if samples > 1 else x[0],
    }
    if draw(st.booleans()):
        req["deadline_ms"] = draw(st.floats(min_value=1.0, max_value=1e6))
    return req


valid_requests = st.one_of(
    posit_matmul_requests(), approx_matmul_requests(), nn_predict_requests()
)


# ----------------------------------------------------------------------
# 1. Round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    @given(valid_requests)
    def test_line_codec_bit_identical(self, req):
        line = encode_line(req)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_line(line) == req
        # Idempotent: re-encoding the decode yields the same bytes.
        assert encode_line(decode_line(line)) == line

    @given(valid_requests)
    def test_parse_accepts_and_is_deterministic(self, req):
        r1 = parse_request(decode_line(encode_line(req)))
        r2 = parse_request(req)
        assert r1.id == r2.id == str(req["id"])
        assert r1.batch_key() == r2.batch_key()
        assert r1.rows == r2.rows
        for name in ("a", "b", "x"):
            v1, v2 = getattr(r1, name), getattr(r2, name)
            assert (v1 is None) == (v2 is None)
            if v1 is not None:
                assert v1.tobytes() == v2.tobytes()

    @given(posit_matmul_requests())
    def test_wire_floats_parse_exactly(self, req):
        """JSON float round-trips are exact: the parsed operand bytes
        equal a direct float64 conversion of the payload lists."""
        parsed = parse_request(decode_line(encode_line(req)))
        assert parsed.a.tobytes() == np.asarray(req["a"], dtype=np.float64).tobytes()
        assert parsed.b.tobytes() == np.asarray(req["b"], dtype=np.float64).tobytes()


# ----------------------------------------------------------------------
# 2. Totality: garbage never escapes as a non-ProtocolError
# ----------------------------------------------------------------------
def assert_rejects_cleanly(obj):
    try:
        parse_request(obj)
    except ProtocolError:
        pass  # the one acceptable exception type


class TestMalformedNeverCrashes:
    @given(st.binary(max_size=256))
    def test_random_bytes_decode_or_protocol_error(self, blob):
        try:
            decode_line(blob)
        except ProtocolError:
            pass

    @given(valid_requests, st.integers(min_value=0))
    def test_truncated_lines_never_crash(self, req, cut):
        """Every proper prefix of a valid line is rejected, not crashed on."""
        line = encode_line(req)
        cut = cut % len(line)
        prefix = line[:cut]
        try:
            obj = decode_line(prefix)
        except ProtocolError:
            return  # truncation broke the JSON: the common case
        # A cut at a lucky boundary can still be valid JSON (e.g. cutting
        # after a closing brace is impossible, but an empty prefix decodes
        # to nothing only via error; numbers can truncate to numbers).
        assert_rejects_cleanly(obj)

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                finite,
                st.text(max_size=10),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=12,
        )
    )
    def test_arbitrary_json_rejected_cleanly(self, obj):
        assert_rejects_cleanly(obj)

    @given(valid_requests, st.sampled_from(["id", "workload", "a", "b", "x"]))
    def test_dropped_field_rejected_cleanly(self, req, victim):
        mutated = {k: v for k, v in req.items() if k != victim}
        try:
            parsed = parse_request(mutated)
        except ProtocolError:
            return
        # Dropping an optional-with-default field can still parse; the
        # result must then be internally consistent.
        assert parsed.workload in ("posit_matmul", "nn_predict", "approx_matmul")

    @given(
        valid_requests,
        st.sampled_from(["workload", "bits", "es", "a", "b", "x", "deadline_ms"]),
        st.one_of(
            st.none(),
            st.booleans(),
            st.text(max_size=6),
            st.floats(allow_nan=True, allow_infinity=True),
            st.lists(st.integers(), max_size=3),
            st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
        ),
    )
    def test_type_confused_field_rejected_cleanly(self, req, victim, junk):
        try:
            parse_request({**req, victim: junk})
        except ProtocolError:
            pass

    def test_examples_from_the_wild(self):
        """Deterministic regression pins for specific nasty shapes."""
        for line in (
            b"",
            b"\n",
            b"null\n",
            b"[]\n",
            b'"posit_matmul"\n',
            b"{\n",
            b'{"id": 1}\n',
            b"\xff\xfe\x00\x01",
            b'{"id": "0", "workload": "approx_matmul", "bits": Infinity,'
            b' "a": [[0.0]], "b": [[0.0]]}\n',
            b'{"id": "0", "workload": "posit_matmul", "deadline_ms": 1'
            + b"0" * 400
            + b', "a": [[1.0]], "b": [[1.0]]}\n',
            b'{"id": "0", "workload": "posit_matmul", "a": [[1'
            + b"0" * 400
            + b']], "b": [[1.0]]}\n',
        ):
            try:
                obj = decode_line(line)
            except ProtocolError:
                continue
            assert_rejects_cleanly(obj)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "0", "-5"])
    def test_deadline_must_be_positive_and_finite(self, value):
        """A NaN deadline never expires and an infinite one is no deadline:
        both are rejected, like zero and negative ones."""
        line = (
            '{"id": "d", "workload": "posit_matmul", "deadline_ms": %s,'
            ' "a": [[1.0]], "b": [[1.0]]}\n' % value
        ).encode()
        with pytest.raises(ProtocolError, match="deadline_ms"):
            parse_request(decode_line(line))

    def test_finite_positive_deadline_accepted(self):
        line = (
            b'{"id": "d", "workload": "posit_matmul", "deadline_ms": 0.5,'
            b' "a": [[1.0]], "b": [[1.0]]}\n'
        )
        assert parse_request(decode_line(line)).attrs["deadline_ms"] == 0.5

    def test_oversized_rejected_with_code(self):
        cols = MAX_ELEMENTS // 4 + 1
        with pytest.raises(ProtocolError) as exc:
            parse_request(
                {
                    "id": "big",
                    "workload": "posit_matmul",
                    "a": {"__big__": True},  # placeholder, replaced below
                    "b": [[0.0]],
                }
            )
        assert exc.value.code in ("bad_request", "too_large")
        # The real oversized case, built without materializing the JSON.
        big = np.zeros((4, cols))
        with pytest.raises(ProtocolError) as exc:
            parse_request(
                {"id": "big", "workload": "posit_matmul", "a": big, "b": [[0.0]]}
            )
        assert exc.value.code == "too_large"
