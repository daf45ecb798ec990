"""Per-layer metrics: counts from the scrape plane, timings from spans.

Counts come from ``/stats`` and ``/metrics`` of the untraced server, as
differences between the scrape taken after warm-up and the one taken after
the last measured phase.  Timings come from the span file of the traced
server (see :mod:`tracing`), restricted to the measured window.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from harness import BenchError, http_get


def tail_percentile(values: List[float]) -> Tuple[float, float]:
    """``(value, q)`` at the highest quantile ``q <= 0.99`` with at least
    ten samples beyond it (the median when there are too few samples)."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    q = min(0.99, 1.0 - 10.0 / n) if n > 20 else 0.5
    return ordered[min(n - 1, int(math.ceil(q * n)) - 1)], q


def median(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Scrape plane
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` for every sample line."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


def scrape(port: int) -> dict:
    """``/stats`` and ``/metrics`` once the server's ledger has settled.

    Every response the client received was written before the server
    counted it, so ``accepted == responded`` may lag by a scheduling step;
    a ledger that does not balance within two seconds fails the run.
    """
    deadline = time.monotonic() + 2.0
    while True:
        stats = json.loads(http_get(port, "/stats"))
        if stats["accepted"] == stats["responded"]:
            break
        if time.monotonic() > deadline:
            raise BenchError(
                f"server ledger unbalanced: accepted={stats['accepted']} "
                f"responded={stats['responded']}"
            )
        time.sleep(0.05)
    return {"stats": stats, "metrics": parse_prometheus(http_get(port, "/metrics"))}


def _hist_delta(before: dict, after: dict, base: str) -> List[Tuple[float, float]]:
    """``[(upper_bound, count_in_bucket)]`` of a histogram between scrapes."""
    rows = []
    prefix = base + '_bucket{le="'
    for key, value in after.items():
        if key.startswith(prefix):
            le = key[len(prefix) : -2]
            rows.append((math.inf if le == "+Inf" else float(le), value - before.get(key, 0.0)))
    rows.sort()
    out, prev = [], 0.0
    for bound, cumulative in rows:
        out.append((bound, cumulative - prev))
        prev = cumulative
    return out


def hist_quantile(buckets: List[Tuple[float, float]], q: float) -> float:
    """Quantile by linear interpolation inside the fixed bucket holding it."""
    total = sum(c for _, c in buckets)
    if total <= 0:
        return 0.0
    target, seen, lower = q * total, 0.0, 0.0
    for bound, count in buckets:
        if count and seen + count >= target:
            upper = bound if math.isfinite(bound) else lower
            return lower + (upper - lower) * (target - seen) / count
        seen += count
        lower = bound
    return lower


def scrape_metrics(before: dict, after: dict, distinct_names: int) -> Dict[str, float]:
    """Per-layer counts over the measured phases of one untraced session."""
    m0, m1 = before["metrics"], after["metrics"]
    s0, s1 = before["stats"], after["stats"]

    def dm(name: str) -> float:
        return m1.get(name, 0.0) - m0.get(name, 0.0)

    out = {
        "serve.admission.refused": float(s1["admission"]["rejected"] - s0["admission"]["rejected"]),
        "serve.batcher.rows_per_batch": dm("repro_serve_batch_rows_sum") / max(1.0, dm("repro_serve_batch_rows_count")),
        "serve.batcher.fill_wait_ms_p50": 1e3 * hist_quantile(_hist_delta(m0, m1, "repro_serve_queue_wait_s"), 0.5),
        "fog.supervisor.restarts": m1.get("repro_fabric_restarts_total", 0.0),
        "fog.supervisor.suspects": m1.get("repro_fabric_heartbeat_suspects_total", 0.0),
    }
    fog0, fog1 = s0["executor"].get("fog"), s1["executor"].get("fog")
    if fog1 is None:
        return out

    def df(key: str) -> float:
        return float(fog1.get(key, 0) - fog0.get(key, 0))

    submitted = max(1.0, df("submitted"))
    out["fog.store.hit_ratio"] = df("cache_hits") / submitted
    out["fog.topology.collapsed"] = df("collapsed")
    if "remote_execs" in fog1:  # cross-process fabric
        for key in ("remote_execs", "cache_hits", "retries", "degraded_local", "unavailable"):
            out[f"fog.fabric.{key}"] = df(key)
        executions = fog1["remote_execs"] + fog1["degraded_local"]
    else:  # in-process topology
        out["fog.topology.forwards_per_req"] = df("forwards") / submitted
        for key in ("evictions", "admission_rejections"):
            out[f"fog.store.{key}"] = float(
                sum(n["store"][key] for n in fog1["nodes"].values())
                - sum(n["store"][key] for n in fog0["nodes"].values())
            )
        executions = sum(n["executions"] for n in fog1["nodes"].values())
    out["fog.topology.executions_per_unique"] = executions / max(1, distinct_names)
    return out


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
_EXECUTE = ("serve.executor.execute", "fog.executor.execute")


def load_spans(path: str) -> List[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    covered, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(lo, a), min(hi, b)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def span_metrics(spans: List[list], window: Tuple[float, float], measured: Callable[[str], bool]) -> Dict[str, float]:
    """Per-layer timings from one traced session.

    ``window`` bounds the measured phases (monotonic seconds); ``measured``
    tells whether a request id belongs to them.  Kernel-table builds happen
    at start-up, so the registry metrics use every span.
    """
    lo, hi = window
    by_name: Dict[str, list] = defaultdict(list)
    children: Dict[int, list] = defaultdict(list)
    for span in spans:
        sid, parent, name, t0, t1, _tid, attrs = span
        if name == "engine.registry.get":
            by_name[name].append(span)
        elif lo <= t0 and t1 <= hi:
            by_name[name].append(span)
            children[parent].append(span)

    def durations(name: str, pred=None) -> List[float]:
        return [s[4] - s[3] for s in by_name[name] if pred is None or pred(s[6] or {})]

    def us(values: List[float]) -> float:
        return 1e6 * mean(values)

    out: Dict[str, float] = {}
    # serve.protocol: per-request parse and encode cost.
    per_req: Dict[str, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for name in (
        "serve.protocol.decode_line", "serve.protocol.parse_request", "serve.admission.admit",
        "serve.batcher.submit", "serve.protocol.ok_response", "serve.protocol.encode_line",
    ):
        for s in by_name[name]:
            rid = (s[6] or {}).get("rid", "")
            if measured(rid):
                per_req[rid][name].append(s)
    parse, encode, sizes = [], [], []
    for rid, calls in per_req.items():
        if calls["serve.protocol.decode_line"] and calls["serve.protocol.parse_request"]:
            parse.append(sum(s[4] - s[3] for n in ("serve.protocol.decode_line", "serve.protocol.parse_request") for s in calls[n]))
            sizes.append(calls["serve.protocol.decode_line"][0][6].get("bytes", 0))
        if calls["serve.protocol.ok_response"] and calls["serve.protocol.encode_line"]:
            encode.append(sum(s[4] - s[3] for n in ("serve.protocol.ok_response", "serve.protocol.encode_line") for s in calls[n]))
    out["serve.protocol.parse_us"] = us(parse)
    out["serve.protocol.encode_us"] = us(encode)
    out["serve.protocol.request_bytes"] = mean(sizes)

    # serve.server / serve.executor: the batch the dispatch thread runs.
    roots = [s for name in _EXECUTE for s in by_name[name] if s[1] == 0]
    exec_of: Dict[str, list] = {}
    for s in roots:
        for rid in s[6].get("ids", ()):
            exec_of[rid] = s
    waits = []
    for rid, calls in per_req.items():
        if calls["serve.batcher.submit"] and rid in exec_of:
            waits.append(exec_of[rid][3] - calls["serve.batcher.submit"][0][3])
    out["serve.server.pre_exec_wait_ms_p99"] = 1e3 * tail_percentile(waits)[0]
    rows = sum(s[6].get("rows", 0) for s in roots)
    out["serve.executor.exec_us_per_row"] = 1e6 * sum(s[4] - s[3] for s in roots) / max(1, rows)

    # engine.runner / engine.fused
    overhead, runner_rows = 0.0, 0
    for s in by_name["engine.runner.run"]:
        inner = sum(c[4] - c[3] for c in children[s[0]] if c[2] == "engine.fused.forward")
        overhead += (s[4] - s[3]) - inner
        runner_rows += s[6].get("rows", 0)
    out["engine.runner.overhead_us_per_row"] = 1e6 * overhead / max(1, runner_rows)
    forward = by_name["engine.fused.forward"]
    forward_s = sum(s[4] - s[3] for s in forward)
    out["engine.fused.forward_us_per_sample"] = 1e6 * forward_s / max(1, sum(s[6].get("rows", 0) for s in forward))
    stage_s: Dict[str, float] = defaultdict(float)
    for s in by_name["engine.fused.stage"]:
        stage_s[s[6].get("stage", "?")] += s[4] - s[3]
    for stage, total in stage_s.items():
        out[f"engine.fused.stage_share.{stage}"] = total / forward_s if forward_s else 0.0

    # arithmetic backends
    out["engine.posit_backend.matmul_us"] = us(durations("engine.posit_backend.matmul"))
    out["approx.simulate.approx_matmul_us"] = us(durations("approx.simulate.approx_matmul"))
    builds = [s for s in by_name["engine.registry.get"] if (s[6] or {}).get("miss")]
    out["engine.registry.tables_built"] = float(len(builds))
    out["engine.registry.build_s"] = sum(s[4] - s[3] for s in builds)

    # fog
    out["fog.names.name_us"] = us(durations("fog.names.name_request"))
    out["fog.store.get_us"] = us(durations("fog.store.get"))
    out["fog.store.put_us"] = us(durations("fog.store.put"))
    out["fog.topology.submit_us_hit"] = us(durations("fog.topology.submit", lambda a: a.get("hit")))
    out["fog.topology.submit_us_miss"] = us(durations("fog.topology.submit", lambda a: not a.get("hit")))
    calls = [1e3 * d for d in durations("fog.peer.call", lambda a: a.get("op") == "interest")]
    out["fog.peer.call_ms_p50"] = median(calls)
    out["fog.peer.call_ms_p99"] = tail_percentile(calls)[0]
    out["fog.frames.bytes_per_interest"] = mean(
        [s[6]["bytes"] for s in by_name["fog.frames.pack_frame"] if s[6].get("op") == "interest" and "bytes" in s[6]]
    )

    # Share of each request's server-side lifetime (first byte parsed to
    # last byte encoded) that no layer span covers.
    lifetime = unattributed = 0.0
    for rid, calls in per_req.items():
        if not (calls["serve.protocol.decode_line"] and calls["serve.protocol.encode_line"]):
            continue
        start = calls["serve.protocol.decode_line"][0][3]
        end = calls["serve.protocol.encode_line"][-1][4]
        intervals = [(s[3], s[4]) for spans_ in calls.values() for s in spans_]
        if rid in exec_of and calls["serve.batcher.submit"]:
            # Waiting for the batch to fill and the dispatch thread is the
            # batcher's and the server's time, not unattributed time.
            intervals.append((calls["serve.batcher.submit"][0][3], exec_of[rid][4]))
        lifetime += end - start
        unattributed += (end - start) - _union_length(intervals, start, end)
    out["bench.unattributed_share"] = unattributed / lifetime if lifetime else 0.0
    return out
