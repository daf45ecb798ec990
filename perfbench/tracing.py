"""Span recording for the traced run, installed from outside the program.

:func:`install` replaces the public entry points of each layer with timing
wrappers before the server starts.  Names that a module imported into its
own namespace (``repro.serve.server.parse_request``, for example) are
replaced where they are looked up.  Spans stay in memory and are written
as JSONL when the server exits, one JSON array per span::

    [span_id, parent_id, name, start_s, end_s, thread_id, attrs]

``parent_id`` is the span open on the same thread when this one started
(0 for none).  ``attrs`` carries the request id (``rid``) when the wrapped
call receives one request, the batch's ids (``ids``) when it receives a
batch, and layer-specific facts (rows, bytes, cache hit, stage).
Timestamps are ``time.monotonic()``, the clock the load generator uses.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, List, Optional


class SpanRecorder:
    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self.local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, attrs: Optional[Callable] = None, before: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs first and its value is handed to
        ``attrs(args, kwargs, result, token)``, which returns the span's
        attribute dict (or ``None``).
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, t0, clock(), threading.get_ident(), {"error": True}))
                raise
            t1 = clock()
            stack.pop()
            extra = attrs(args, kwargs, result, token) if attrs is not None else None
            spans.append((sid, parent, name, t0, t1, threading.get_ident(), extra))
            return result

        return wrapper

    def dump(self, path: str) -> int:
        spans = list(self.spans)
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        return len(spans)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def install(rec: SpanRecorder) -> None:
    """Wrap every layer entry point the per-layer metrics are built from."""
    from repro.engine import fused, posit_backend, registry, runner
    from repro.fog import executor as fog_executor
    from repro.fog import fabric, node, peer, store, topology
    from repro.serve import admission, batcher
    from repro.serve import executor as serve_executor
    from repro.serve import server

    local = rec.local

    def patch(owner, attr: str, name: str, attrs=None, before=None) -> None:
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, attrs, before))

    # serve.protocol, as the server looks the functions up.
    def decoded(args, kwargs, obj, _):
        rid = str(obj.get("id", "")) if isinstance(obj, dict) else ""
        local.rid = rid  # admission runs next on this thread, before any await
        return {"rid": rid, "bytes": len(_arg(args, kwargs, 0, "line"))}

    def rid_of_obj(args, kwargs, result, _):
        obj = _arg(args, kwargs, 0, "obj")
        return {"rid": str(obj.get("id", "")) if isinstance(obj, dict) else ""}

    patch(server, "decode_line", "serve.protocol.decode_line", decoded)
    patch(server, "parse_request", "serve.protocol.parse_request", rid_of_obj)
    patch(server, "ok_response", "serve.protocol.ok_response", lambda a, k, r, t: {"rid": str(_arg(a, k, 0, "req_id"))})
    patch(server, "encode_line", "serve.protocol.encode_line", rid_of_obj)

    patch(admission.AdmissionController, "admit", "serve.admission.admit", lambda a, k, r, t: {"rid": getattr(local, "rid", "")})
    patch(batcher.DynamicBatcher, "submit", "serve.batcher.submit", lambda a, k, r, t: {"rid": _arg(a, k, 1, "request").id})

    def batch_of(args, kwargs, result, _):
        requests = _arg(args, kwargs, 2, "requests")
        return {"ids": [r.id for r in requests], "rows": sum(r.rows for r in requests)}

    patch(serve_executor.EngineExecutor, "execute", "serve.executor.execute", batch_of)
    patch(fog_executor.FogExecutor, "execute", "fog.executor.execute", batch_of)
    patch(serve_executor, "approx_matmul", "approx.simulate.approx_matmul")

    # engine
    patch(runner.BatchedRunner, "run", "engine.runner.run", lambda a, k, r, t: {"rows": len(_arg(a, k, 1, "x"))})
    stage_maps = {}

    def enter_plan(args, kwargs):
        plan = args[0]
        index = stage_maps.get(id(plan))
        if index is None:
            index = stage_maps[id(plan)] = {id(s): f"{i}-{s.kind}" for i, s in enumerate(plan.stages)}
        local.stages = index

    patch(fused.FusedPlan, "forward", "engine.fused.forward", lambda a, k, r, t: {"rows": len(_arg(a, k, 1, "x"))}, enter_plan)
    for cls in fused.FusedStage.__subclasses__():
        if "run" in vars(cls):
            patch(cls, "run", "engine.fused.stage", lambda a, k, r, t: {"stage": getattr(local, "stages", {}).get(id(a[0]), "?")})
    patch(posit_backend.PositBackend, "matmul", "engine.posit_backend.matmul")
    patch(
        registry.KernelRegistry, "get", "engine.registry.get",
        lambda a, k, r, misses: {"miss": a[0].misses > misses},
        lambda a, k: a[0].misses,
    )

    # fog
    for module in (topology, node, fabric):
        patch(module, "name_request", "fog.names.name_request")
    patch(store.ContentStore, "get", "fog.store.get", lambda a, k, r, t: {"hit": r is not None})
    patch(store.ContentStore, "put", "fog.store.put")
    patch(
        topology.FogTopology, "submit", "fog.topology.submit",
        lambda a, k, r, hits: {"hit": a[0].cache_hits > hits},
        lambda a, k: a[0].cache_hits,
    )
    patch(peer.PeerClient, "call", "fog.peer.call", lambda a, k, r, t: {"op": _arg(a, k, 1, "frame").get("op")})
    patch(peer, "pack_frame", "fog.frames.pack_frame", lambda a, k, r, t: {"op": _arg(a, k, 0, "frame").get("op"), "bytes": len(r)})
