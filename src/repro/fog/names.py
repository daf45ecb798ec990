"""repro.fog.names — content names for computations and their inputs.

The fog routes *named computations*, the NFN pattern: a request is not
"run this payload" but an interest in a name like ::

    /fog/exec/posit_matmul/bits=8;es=2/sha256:ab12…/sha256:cd34…

— workload, execution parameters, and the sha256 content digests of every
operand, in operand order.  Two requests share a name iff they would
compute the same function over bit-identical inputs, which makes the name
a sound content-store key: a cached result can be replayed for any later
interest with the same name, no matter which node it enters the fog at.

Input digests reuse :func:`repro.engine.registry.array_digest` — the same
sha256-over-(dtype, shape, bytes) scheme the kernel registry's content
digests use — so tensors, kernel tables and cached results all live in
one naming universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..engine.registry import array_digest
from ..serve.protocol import Request

__all__ = ["ComputationName", "name_request"]

_PREFIX = "/fog/exec"


@dataclass(frozen=True)
class ComputationName:
    """The canonical name of one deterministic computation.

    ``workload`` names the function, ``params`` its non-tensor arguments as
    sorted ``(key, value)`` string pairs, and ``inputs`` the sha256 hex
    digests of its operand arrays in positional order.
    """

    workload: str
    params: Tuple[Tuple[str, str], ...]
    inputs: Tuple[str, ...]

    def uri(self) -> str:
        """The ``/fog/exec/...`` interest string (stable, hashable)."""
        param_seg = ";".join(f"{k}={v}" for k, v in self.params) or "-"
        input_segs = "/".join(f"sha256:{d}" for d in self.inputs)
        return f"{_PREFIX}/{self.workload}/{param_seg}/{input_segs}"

    @classmethod
    def parse(cls, uri: str) -> "ComputationName":
        """Inverse of :meth:`uri`; raises ``ValueError`` on malformed names.

        Total over arbitrary input: anything that is not a well-formed
        name string — wrong type included — raises ``ValueError``, never
        an incidental ``AttributeError``/``TypeError`` from the parsing
        internals (names arrive off the wire; the error contract is API).
        """
        if not isinstance(uri, str):
            raise ValueError(
                f"computation name must be a str, got {type(uri).__name__}"
            )
        if not uri.startswith(_PREFIX + "/"):
            raise ValueError(f"not a fog computation name: {uri!r}")
        parts = uri[len(_PREFIX) + 1 :].split("/")
        if len(parts) < 3:
            raise ValueError(f"computation name needs workload/params/inputs: {uri!r}")
        workload, param_seg, input_segs = parts[0], parts[1], parts[2:]
        params: Tuple[Tuple[str, str], ...] = ()
        if param_seg != "-":
            pairs = []
            for item in param_seg.split(";"):
                key, sep, value = item.partition("=")
                if not sep or not key:
                    raise ValueError(f"malformed param segment {item!r} in {uri!r}")
                pairs.append((key, value))
            params = tuple(pairs)
        inputs = []
        for seg in input_segs:
            if not seg.startswith("sha256:") or len(seg) != len("sha256:") + 64:
                raise ValueError(f"malformed input digest {seg!r} in {uri!r}")
            inputs.append(seg[len("sha256:") :])
        return cls(workload=workload, params=params, inputs=tuple(inputs))

    def __str__(self) -> str:
        return self.uri()


def name_request(req: Request) -> ComputationName:
    """The :class:`ComputationName` of one validated serve request.

    Pure function of the request's semantic content — workload, format /
    model / multiplier parameters, and operand bytes.  Request identity
    (``id``, ``tenant``, deadlines) deliberately does not participate: the
    whole point of content naming is that *who asked* never changes *what
    is computed*.
    """
    if req.workload == "posit_matmul":
        params = (("bits", str(req.bits)), ("es", str(req.es)))
        inputs = (array_digest(req.a), array_digest(req.b))
    elif req.workload == "nn_predict":
        params = (("bits", str(req.bits)), ("es", str(req.es)), ("model", str(req.model)))
        inputs = (array_digest(req.x),)
    elif req.workload == "approx_matmul":
        params = (("mult", str(req.mult)),)
        inputs = (array_digest(req.a), array_digest(req.b))
    else:
        raise ValueError(f"unnameable workload {req.workload!r}")
    return ComputationName(workload=req.workload, params=params, inputs=inputs)
