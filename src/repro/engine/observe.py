"""repro.engine.observe — tracing, metrics and profiling hooks for the engine.

Two cooperating pieces, both designed around a *zero-overhead-when-off*
contract so they can stay permanently wired into the hot paths:

* :class:`Tracer` — structured span events (monotonic timestamps, op name,
  format, shape, worker pid, nesting depth) collected into a bounded
  in-memory ring buffer with JSONL export.  ``tracer.span(...)`` returns a
  shared no-op context manager while tracing is disabled, so instrumented
  code pays only one attribute read per span site.
* :class:`Metrics` — a registry of named counters, gauges and (log-bucketed)
  histograms.  It subsumes the original flat ``OpCounters`` table: every
  ``record_op`` updates the per-op calls/elements/seconds triple *and* a
  per-op latency histogram, and snapshots merge across the worker
  processes of a :class:`repro.engine.runner.BatchedRunner` pool exactly
  like the old op dicts did.

The process-wide instances (:data:`TRACER`, :data:`METRICS`) are what the
engine modules — :mod:`~repro.engine.kernels`, :mod:`~repro.engine.registry`,
:mod:`~repro.engine.runner`, :mod:`~repro.engine.parallel`, the backend
``timed_op`` sites, :mod:`repro.nn.posit_inference` and
:mod:`repro.approx.simulate` — record into.  Enable tracing with
:func:`enable_tracing` (or ``REPRO_TRACE=1``), inspect with
:func:`Tracer.events`, export with :func:`Tracer.export_jsonl`, and render
a human-readable run summary with :func:`report`.

Quickstart::

    from repro.engine import BatchedRunner, enable_tracing, get_tracer, report

    enable_tracing()
    runner = BatchedRunner(qnet, batch_size=32)
    runner.run(x)
    print(report(runner.stats()))
    get_tracer().export_jsonl("trace.jsonl")
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Tracer",
    "Metrics",
    "Histogram",
    "TRACER",
    "METRICS",
    "get_tracer",
    "get_metrics",
    "enable_tracing",
    "disable_tracing",
    "load_jsonl",
    "report",
]


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class _NilSpan:
    """The shared no-op span: what ``span()`` returns while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NIL_SPAN = _NilSpan()


class _Span:
    """A live span: records one event into its tracer on exit."""

    __slots__ = ("tracer", "name", "attrs", "seq", "parent", "depth", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self.seq, self.parent, self.depth = self.tracer._push()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dur = time.perf_counter() - self._t0
        self.tracer._pop(self, self._t0, dur)
        return False


class Tracer:
    """Span-based tracing into a bounded ring buffer of structured events.

    Each event is a plain dict — ``seq`` (per-process ordinal), ``name``,
    ``ts`` (seconds since this tracer's epoch, monotonic), ``dur``
    (seconds), ``depth``/``parent`` (nesting, per thread), ``pid`` and a
    free-form ``attrs`` mapping (format, shape, table hit/miss, ...) — so
    the ring buffer round-trips losslessly through JSONL.

    The disabled path is the contract that lets instrumentation live in hot
    loops: ``span()`` returns one shared no-op context manager without
    allocating a span object or touching any lock.
    """

    def __init__(self, capacity: int = 65536, enabled: bool = False):
        self.enabled = enabled
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq = 0
        self.epoch = time.perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """A context manager timing one named region (no-op when disabled)."""
        if not self.enabled:
            return _NIL_SPAN
        return _Span(self, name, attrs)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self):
        stack = self._stack()
        with self._lock:
            self._seq += 1
            seq = self._seq
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(seq)
        return seq, parent, depth

    def _pop(self, span: _Span, t0: float, dur: float) -> None:
        stack = self._stack()
        if stack and stack[-1] == span.seq:
            stack.pop()
        self.record(
            span.name,
            ts=t0 - self.epoch,
            dur=dur,
            depth=span.depth,
            parent=span.parent,
            seq=span.seq,
            attrs=span.attrs,
        )

    def record(
        self,
        name: str,
        ts: float,
        dur: float,
        depth: int = 0,
        parent: Optional[int] = None,
        seq: Optional[int] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        """Append one completed-span event (used by spans and absorb paths)."""
        if not self.enabled:
            return
        if seq is None:
            with self._lock:
                self._seq += 1
                seq = self._seq
        event = {
            "seq": seq,
            "name": name,
            "ts": float(ts),
            "dur": float(dur),
            "depth": int(depth),
            "parent": parent,
            "pid": os.getpid(),
            "attrs": _jsonable(attrs or {}),
        }
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------
    def events(self) -> List[dict]:
        """A copy of the buffered events, oldest first."""
        with self._lock:
            return list(self._events)

    def drain(self) -> List[dict]:
        """Pop and return all buffered events (what workers ship home)."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
        return events

    def absorb(self, events: Sequence[dict]) -> None:
        """Fold events recorded elsewhere (worker processes) into the buffer."""
        if not events:
            return
        with self._lock:
            self._events.extend(events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._seq = 0

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The buffered events as one JSON object per line."""
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.events())

    def export_jsonl(self, path) -> int:
        """Write the buffer as JSONL; returns the number of events written."""
        events = self.events()
        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self._events)}/{self.capacity} events)"


def load_jsonl(path) -> List[dict]:
    """Parse a trace JSONL file back into its list of event dicts."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _jsonable(attrs: dict) -> dict:
    """Coerce span attributes to JSON-serializable primitives."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (tuple, list)):
            out[key] = [int(v) if hasattr(v, "__index__") else v for v in value]
        elif getattr(value, "shape", ()):
            out[key] = [int(n) for n in value.shape]  # arrays reduce to shape
        elif hasattr(value, "__index__"):
            out[key] = int(value)
        elif hasattr(value, "item"):
            out[key] = value.item()  # 0-d numpy scalar (incl. floats)
        else:
            out[key] = str(value)
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: Default histogram buckets: log-spaced seconds, 1 microsecond to 100 s.
DEFAULT_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


class Histogram:
    """A fixed-bucket histogram (upper bounds + overflow), merge-friendly."""

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS):
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(bounds) or not bounds:
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge(self, snap: Dict[str, object]) -> None:
        if tuple(snap["bounds"]) != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(snap["counts"]):
            self.counts[i] += int(n)
        self.count += int(snap["count"])
        self.sum += float(snap["sum"])
        if snap.get("min") is not None:
            self.min = min(self.min, float(snap["min"]))
        if snap.get("max") is not None:
            self.max = max(self.max, float(snap["max"]))

    def __repr__(self):
        return f"Histogram(count={self.count}, mean={self.mean():.3g})"


class Metrics:
    """Named counters, gauges and histograms — the engine's metric registry.

    Subsumes the original ``OpCounters`` table: :meth:`record_op` maintains
    the per-op ``{calls, elements, seconds}`` triple the rest of the repo
    reads through :class:`repro.engine.backend.OpCounters` *and* feeds a
    per-op latency histogram (``op.<name>.seconds``).  Snapshots are plain
    JSON-able dicts and :meth:`merge` folds a snapshot from another process
    (a :class:`~repro.engine.runner.BatchedRunner` pool worker) into this
    registry: counters and op triples add, gauges take the incoming value,
    histograms merge bucket-wise.
    """

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._ops: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bounds)
        hist.observe(value)

    def record_op(self, op: str, elements: int, seconds: float) -> None:
        """One executed engine op: update the triple and its latency histogram."""
        entry = self._ops.setdefault(op, {"calls": 0, "elements": 0, "seconds": 0.0})
        entry["calls"] += 1
        entry["elements"] += int(elements)
        entry["seconds"] += float(seconds)
        self.observe(f"op.{op}.seconds", seconds)

    # ------------------------------------------------------------------
    def op_table(self) -> Dict[str, Dict[str, float]]:
        """Deep copy of the per-op ``{calls, elements, seconds}`` table."""
        return {op: dict(entry) for op, entry in self._ops.items()}

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: h.snapshot() for name, h in self.histograms.items()},
            "ops": self.op_table(),
        }

    def merge(self, snap: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` from another Metrics into this one."""
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.gauges[name] = value
        for name, hsnap in snap.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(hsnap["bounds"])
            hist.merge(hsnap)
        self.merge_ops(snap.get("ops", {}))

    def merge_ops(self, ops: Dict[str, Dict[str, float]]) -> None:
        """Fold a bare op table (the legacy ``OpCounters`` snapshot shape)."""
        for op, entry in ops.items():
            mine = self._ops.setdefault(op, {"calls": 0, "elements": 0, "seconds": 0.0})
            mine["calls"] += entry.get("calls", 0)
            mine["elements"] += int(entry.get("elements", 0))
            mine["seconds"] += float(entry.get("seconds", 0.0))

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self._ops.clear()

    def clear_ops(self) -> None:
        """Clear the op table and its latency histograms, keep the rest."""
        self._ops.clear()
        for name in [n for n in self.histograms if n.startswith("op.")]:
            del self.histograms[name]

    # ------------------------------------------------------------------
    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Render the registry in the Prometheus text exposition format.

        Counters become ``<prefix><name>_total``, gauges ``<prefix><name>``,
        and every histogram emits the standard series — ``_bucket`` lines
        with **cumulative** counts per ``le`` upper bound (ending in
        ``le="+Inf"`` equal to the total count), plus ``_sum`` and
        ``_count``.  The per-op table exports as three labelled counters
        (``op_calls_total{op=...}`` etc).  Dots and other non-identifier
        characters in metric names collapse to ``_``; this is what the
        serving layer's ``/metrics`` scrape endpoint returns.
        """
        lines: List[str] = []

        def emit(name: str, mtype: str, *samples) -> None:
            lines.append(f"# TYPE {name} {mtype}")
            for labels, value in samples:
                if isinstance(value, float) and value == int(value):
                    value = int(value)
                lines.append(f"{name}{labels} {value}")

        for name in sorted(self.counters):
            emit(
                _prom_name(prefix, name) + "_total",
                "counter",
                ("", self.counters[name]),
            )
        for name in sorted(self.gauges):
            emit(_prom_name(prefix, name), "gauge", ("", self.gauges[name]))
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            base = _prom_name(prefix, name)
            cumulative = 0
            buckets = []
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                buckets.append((f'{{le="{bound:g}"}}', cumulative))
            buckets.append(('{le="+Inf"}', hist.count))
            emit(base + "_bucket", "histogram", *buckets)
            lines.append(f"{base}_sum {hist.sum}")
            lines.append(f"{base}_count {hist.count}")
        if self._ops:
            for field in ("calls", "elements", "seconds"):
                emit(
                    f"{prefix}op_{field}_total",
                    "counter",
                    *(
                        (f'{{op="{op}"}}', self._ops[op][field])
                        for op in sorted(self._ops)
                    ),
                )
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (
            f"Metrics({len(self.counters)} counters, {len(self.gauges)} gauges, "
            f"{len(self.histograms)} histograms, {len(self._ops)} ops)"
        )


def _prom_name(prefix: str, name: str) -> str:
    """``serve.latency_s`` -> ``<prefix>serve_latency_s`` (Prometheus-legal)."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return prefix + safe


# ----------------------------------------------------------------------
# Process-wide instances and toggles
# ----------------------------------------------------------------------
TRACER = Tracer(enabled=os.environ.get("REPRO_TRACE", "0") not in ("", "0"))
METRICS = Metrics()


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumented engine module records to."""
    return TRACER


def get_metrics() -> Metrics:
    """The process-wide metrics registry (registry/cache-level metrics)."""
    return METRICS


def enable_tracing(capacity: Optional[int] = None) -> Tracer:
    """Turn the process-wide tracer on (optionally resizing its buffer)."""
    if capacity is not None and capacity != TRACER.capacity:
        TRACER.capacity = capacity
        with TRACER._lock:
            TRACER._events = deque(TRACER._events, maxlen=capacity)
    TRACER.enabled = True
    return TRACER


def disable_tracing() -> Tracer:
    """Turn the process-wide tracer off (buffered events are kept)."""
    TRACER.enabled = False
    return TRACER


# ----------------------------------------------------------------------
# Pretty-printed run report
# ----------------------------------------------------------------------
def report(
    stats: Optional[Dict[str, object]] = None,
    metrics: Optional[Metrics] = None,
    tracer: Optional[Tracer] = None,
) -> str:
    """Render runner ``stats()`` (and global metrics/trace state) as text.

    ``stats`` is the dict returned by ``BatchedRunner.stats()`` (one
    shape at any worker count); ``metrics`` defaults to the process-wide
    registry and ``tracer`` to the process-wide tracer.  Returns a
    multi-line string (print it).
    """
    metrics = metrics if metrics is not None else METRICS
    tracer = tracer if tracer is not None else TRACER
    lines: List[str] = ["=== engine run report ==="]

    if stats:
        lines.append(
            f"throughput     {stats.get('items', 0)} items in "
            f"{stats.get('batches', 0)} batches, "
            f"{stats.get('items_per_s', 0.0):.2f} items/s "
            f"({stats.get('mean_batch_ms', 0.0):.3f} ms/batch)"
        )
        if "workers" in stats:
            causes = stats.get("fallback_causes") or {}
            cause_text = (
                " [" + ", ".join(f"{k}={causes[k]}" for k in sorted(causes)) + "]"
                if causes
                else ""
            )
            lines.append(
                f"workers        {stats['workers']} "
                f"({len(stats.get('per_worker', []))} active, "
                f"{stats.get('fallbacks', 0)} fallbacks{cause_text})"
            )
        for w in stats.get("per_worker", []):
            lines.append(
                f"  worker {w['pid']:>7}  {w['items']:>6} items  "
                f"{w['items_per_s']:.2f} items/s"
            )
        lines.append(
            f"kernel tables  {stats.get('table_hits', 0)} hits / "
            f"{stats.get('table_misses', 0)} misses"
        )
        ops = stats.get("ops", {})
        if ops:
            lines.append("per-op counters:")
            lines.append(
                f"  {'op':<20} {'calls':>8} {'elements':>14} "
                f"{'seconds':>10} {'mean ms':>9}"
            )
            for op in sorted(ops):
                entry = ops[op]
                calls = int(entry["calls"])
                mean_ms = 1e3 * entry["seconds"] / calls if calls else 0.0
                lines.append(
                    f"  {op:<20} {calls:>8} {int(entry['elements']):>14} "
                    f"{entry['seconds']:>10.4f} {mean_ms:>9.4f}"
                )
        mstats = stats.get("metrics", {})
        hists = mstats.get("histograms", {}) if isinstance(mstats, dict) else {}
        if hists:
            lines.append("latency histograms (non-op):")
            for name in sorted(hists):
                if name.startswith("op."):
                    continue
                snap = hists[name]
                mean = snap["sum"] / snap["count"] if snap["count"] else 0.0
                lines.append(
                    f"  {name:<28} n={snap['count']:<7} mean={mean:.3g}s "
                    f"max={snap['max'] if snap['max'] is not None else 0:.3g}s"
                )

    reg = metrics.snapshot()
    fault_names = [
        n for n in reg["counters"] if n.startswith(("faults.", "poison."))
    ]
    fabric_names = [
        n for n in reg["counters"] if n.startswith(("fog.", "fabric."))
    ]
    grouped = set(fault_names) | set(fabric_names)
    plain_names = [n for n in reg["counters"] if n not in grouped]
    if plain_names:
        lines.append("registry counters:")
        for name in sorted(plain_names):
            lines.append(f"  {name:<28} {reg['counters'][name]:g}")
    if fabric_names:
        lines.append("fog & fabric (breakers, heartbeats, hedges, degradation):")
        for name in sorted(fabric_names):
            lines.append(f"  {name:<28} {reg['counters'][name]:g}")
    if fault_names:
        lines.append("faults & poison:")
        for name in sorted(fault_names):
            lines.append(f"  {name:<28} {reg['counters'][name]:g}")

    if tracer.enabled or tracer.events():
        lines.append(
            f"trace          {len(tracer.events())} events buffered "
            f"({'enabled' if tracer.enabled else 'disabled'}) — "
            "export with get_tracer().export_jsonl(path)"
        )
    return "\n".join(lines)
