"""Seeded request streams and their in-process reference answers.

Every request line of a run is built here, before anything is timed: the
payload JSON of each distinct item is encoded once, and a request line is
that payload with a fresh ``id`` spliced in front.  The expected answer of
every item is computed in this process with the reference arithmetic the
server must reproduce bit for bit.

A :class:`Stream` holds three item pools -- one probe per batch key (set-up
timing), a warm-up pool, and the measured pool -- plus the order in which
measured items are sent.  Probe and warm-up items are drawn from their own
seeded generators, so they never coincide with a measured item and the fog
workloads start their measured phases with cold caches for the universe.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Length of the pre-drawn send order; wraps around if a run outlasts it.
ORDER_LEN = 1 << 16

KWS_SHAPE = (1, 31, 20)
ARITH_KEYS = (
    ("posit_matmul", 8, 2),
    ("posit_matmul", 16, 1),
    ("approx_matmul", "exact"),
    ("approx_matmul", "trunc4"),
    ("approx_matmul", "drum4"),
)


@dataclass
class Item:
    """One distinct request payload and the answer it must get."""

    key: Tuple
    body: bytes  # JSON object without "id", as sent on the wire
    expected: np.ndarray

    def line(self, rid: str) -> bytes:
        return b'{"id":"' + rid.encode() + b'",' + self.body[1:] + b"\n"


@dataclass
class Stream:
    probes: List[Item]
    warm: List[Item]
    items: List[Item]
    order: np.ndarray  # indices into ``items``, in send order

    def digest(self) -> str:
        h = hashlib.sha256()
        for pool in (self.probes, self.warm, self.items):
            h.update(len(pool).to_bytes(8, "little"))
            for item in pool:
                h.update(item.body)
                h.update(item.expected.tobytes())
        h.update(self.order.astype(np.int64).tobytes())
        return h.hexdigest()


def _body(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


class _Reference:
    """Reference arithmetic, built lazily once per process."""

    def __init__(self):
        self._qnet = None
        self._backends: Dict[Tuple[int, int], object] = {}
        self._luts: Dict[str, object] = {}

    def kws(self, x: np.ndarray) -> np.ndarray:
        if self._qnet is None:
            from repro.nn.posit_inference import PositQuantizedNetwork
            from repro.nn.zoo import kws_cnn1
            from repro.posit import STD_POSIT8

            self._qnet = PositQuantizedNetwork(
                kws_cnn1(seed=0), STD_POSIT8, stable_contractions=True
            )
        return self._qnet.forward(x)

    def posit_matmul(self, bits: int, es: int, a, b) -> np.ndarray:
        be = self._backends.get((bits, es))
        if be is None:
            from repro.engine.posit_backend import PositBackend
            from repro.posit.format import PositFormat

            be = self._backends[(bits, es)] = PositBackend(
                PositFormat(bits, es), stable_contractions=True
            )
        return be.decode(be.matmul(be.encode(a), be.encode(b)))

    def approx_matmul(self, mult: str, a, b) -> np.ndarray:
        from repro.approx import TABLE2_SET
        from repro.approx.simulate import approx_matmul, signed_lut

        if mult not in self._luts:
            table = {m.name: m for m in TABLE2_SET}
            self._luts[mult] = None if mult == "exact" else signed_lut(table[mult])
        return approx_matmul(a, b, self._luts[mult])


def _kws_items(rng, ref: _Reference, n: int) -> List[Item]:
    x = rng.standard_normal((n,) + KWS_SHAPE)
    y = ref.kws(x)  # stable contractions: batch-composition independent
    key = ("nn_predict", "kws1", 8, 2)
    return [
        Item(key, _body({"workload": "nn_predict", "model": "kws1", "x": x[i].tolist()}), y[i : i + 1])
        for i in range(n)
    ]


def _posit_items(rng, ref: _Reference, n: int, bits: int, es: int, dim: int) -> List[Item]:
    out = []
    for _ in range(n):
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        body = _body({"workload": "posit_matmul", "bits": bits, "es": es, "a": a.tolist(), "b": b.tolist()})
        out.append(Item(("posit_matmul", bits, es), body, ref.posit_matmul(bits, es, a, b)))
    return out


def _approx_items(rng, ref: _Reference, n: int, mult: str, dim: int) -> List[Item]:
    out = []
    for _ in range(n):
        a = rng.integers(-128, 128, size=(dim, dim), dtype=np.int64)
        b = rng.integers(-128, 128, size=(dim, dim), dtype=np.int64)
        body = _body({"workload": "approx_matmul", "mult": mult, "a": a.tolist(), "b": b.tolist()})
        out.append(Item(("approx_matmul", mult), body, ref.approx_matmul(mult, a, b)))
    return out


def _arith_items(rng, ref, per_key: int) -> List[Item]:
    items: List[Item] = []
    for key in ARITH_KEYS:
        if key[0] == "posit_matmul":
            items += _posit_items(rng, ref, per_key, key[1], key[2], 8)
        else:
            items += _approx_items(rng, ref, per_key, key[1], 8)
    return items


def _fog_items(rng, ref, per_kind: int) -> List[Item]:
    return _kws_items(rng, ref, per_kind) + _posit_items(rng, ref, per_kind, 8, 2, 16)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def build_stream(kind: str, seed: int, scale: float = 1.0) -> Stream:
    """The seeded stream of one traffic kind (``kws``, ``arith`` or ``fog``).

    ``scale`` shrinks the pools for smoke tests; the benchmark uses 1.0.
    """
    ref = _Reference()

    def size(n: int) -> int:
        return max(2, int(n * scale))

    if kind == "kws":
        gen = lambda rng, n: _kws_items(rng, ref, n)  # noqa: E731
        n_items, n_warm = size(1024), size(64)
    elif kind == "arith":
        gen = lambda rng, n: _arith_items(rng, ref, n)  # noqa: E731
        n_items, n_warm = size(256), size(16)
    elif kind == "fog":
        gen = lambda rng, n: _fog_items(rng, ref, n)  # noqa: E731
        n_items, n_warm = size(1024), size(32)
    else:
        raise ValueError(f"unknown stream kind {kind!r}")
    probes = gen(_rng(seed, 1), 1)  # one per batch key
    warm = gen(_rng(seed, 2), n_warm)
    items = gen(_rng(seed, 3), n_items)
    order_rng = _rng(seed, 4)
    if kind == "kws":
        # Cycle through seeded permutations: every pool sample is sent
        # once before any is sent again.
        reps = -(-ORDER_LEN // len(items))
        order = np.concatenate([order_rng.permutation(len(items)) for _ in range(reps)])[:ORDER_LEN]
    elif kind == "arith":
        order = order_rng.integers(0, len(items), size=ORDER_LEN)
    else:
        # Zipf(s=1) popularity over the universe.  Ranks alternate between
        # kws samples and matmuls (each kind in seeded order), so every
        # seed sends the same mix of kinds at every popularity.
        half = len(items) // 2
        by_rank = np.empty(2 * half, dtype=np.int64)
        by_rank[0::2] = order_rng.permutation(half)
        by_rank[1::2] = half + order_rng.permutation(half)
        p = 1.0 / np.arange(1, len(by_rank) + 1, dtype=np.float64)
        order = by_rank[order_rng.choice(len(by_rank), size=ORDER_LEN, p=p / p.sum())]
    return Stream(probes=probes, warm=warm, items=items, order=order.astype(np.int64))


def check_answer(item: Item, obj: dict) -> bool:
    """True iff an ``ok`` response carries exactly the reference bytes."""
    got = np.asarray(obj.get("result"))
    want = item.expected
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
