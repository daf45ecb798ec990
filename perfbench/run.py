"""The repo benchmark: traffic mixes through serve -> engine -> fog -> fabric.

Usage::

    python3 perfbench/run.py --workload kws-stream --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Each run boots the real server (``python -m repro.serve``) in its own
process, drives it from one asyncio loop over two pipelined NDJSON
connections, checks every answer against an in-process reference, and
prints a table followed by one JSON result line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from an
untraced session (scraped counts) and a traced session (span timings).
See ``perfbench/README.md`` for the metric map.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import BenchError, Lifecycle, LoadGen, Outcome, ServerProc, group_cpu_s, group_peak_rss_mb  # noqa: E402
from ledger import load_spans, median, scrape, scrape_metrics, span_metrics, tail_percentile  # noqa: E402
from streams import Stream, build_stream, check_answer  # noqa: E402

#: Requests kept in flight by the closed loop (16 per connection).
INFLIGHT = 32
#: Server boots per untraced run; ``setup_s`` is their median.
BOOTS = 3
WARMUP_S = 1.0
#: Target length of one closed- or open-loop phase within a round.
ROUND_PHASE_S = 1.0
READY_TIMEOUT_S = 60.0
WATCHDOG_S = 170.0


@dataclass(frozen=True)
class Workload:
    stream: str
    serve_args: Tuple[str, ...]
    #: Saturation throughput of the reference host (2 vCPUs), requests/s.
    #: Sizes each closed-loop phase: ``capacity * phase seconds`` requests.
    capacity: float
    #: Open-loop offered rate, requests/s, set to keep the server about a
    #: third busy.  That is well below ``capacity / 2``: at a low rate
    #: batches stay small and each request costs several times its
    #: saturated cost, and on a host whose speed drifts, a busier server
    #: turns every slow spell into queueing.
    rate: float
    #: Latency limit for ``slo_attainment``: about five times the
    #: open-loop p50 at ``rate`` on the reference host.
    slo_ms: float


#: Why each workload exists: see README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    "kws-stream": Workload("kws", (), 1100.0, 150.0, 25.0),
    "arith-mix": Workload("arith", (), 2000.0, 400.0, 20.0),
    "fog-zipf": Workload("fog", ("--fog-nodes", "4"), 1000.0, 150.0, 25.0),
    "fabric-zipf": Workload("fog", ("--fog-nodes", "2", "--fog-fabric"), 550.0, 120.0, 30.0),
}

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "slo_attainment": "ratio",
    "success_rate": "ratio",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, as listed in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


# ----------------------------------------------------------------------
# One server session
# ----------------------------------------------------------------------
async def _probe(port: int, stream: Stream) -> Tuple[bool, int]:
    """Send one probe per batch key; ``(all correct, wrong answers)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
    try:
        want = {f"p{i}": item for i, item in enumerate(stream.probes)}
        for rid, item in want.items():
            writer.write(item.line(rid))
        good = wrong = 0
        for _ in want:
            try:
                obj = json.loads(await asyncio.wait_for(reader.readline(), READY_TIMEOUT_S))
            except asyncio.TimeoutError:
                raise BenchError("a probe request was never answered")
            if obj.get("ok"):
                if check_answer(want[obj["id"]], obj):
                    good += 1
                else:
                    wrong += 1
        return good == len(want), wrong
    finally:
        writer.close()
        await writer.wait_closed()


def boot(life: Lifecycle, wl: Workload, stream: Stream, trace_out: Optional[str] = None) -> Tuple[ServerProc, float, int]:
    """Launch a server; ``(server, seconds to first correct answer per key, wrong)``."""
    server = life.launch(list(wl.serve_args), trace_out)
    server.wait_ready(READY_TIMEOUT_S)
    wrong = 0
    deadline = time.monotonic() + READY_TIMEOUT_S
    while True:
        ok, bad = asyncio.run(_probe(server.port, stream))
        wrong += bad
        if ok:
            return server, time.monotonic() - server.launched_s, wrong
        if bad or time.monotonic() > deadline:
            raise BenchError(f"probes never answered correctly (wrong={wrong})")
        time.sleep(0.05)


@dataclass
class Session:
    warm: Outcome
    rounds: List[Tuple[Outcome, Outcome]]  # (closed loop, open loop) per round
    cpu_s: float
    scrapes: List[dict]
    window: Tuple[float, float]
    distinct_names: int

    def phases(self) -> List[Outcome]:
        return [phase for pair in self.rounds for phase in pair]


async def _drive(server: ServerProc, wl: Workload, stream: Stream, rounds: int, sat_s: float, open_s: float) -> Session:
    """Warm up, then alternate closed- and open-loop phases ``rounds`` times.

    Alternating short phases spreads each kind of measurement over the
    whole run, so a burst of interference on the host hits one round's
    figures instead of all of one metric's.
    """
    gen = LoadGen(stream, server.port)
    await gen.connect()
    pairs, cpu = [], 0.0
    try:
        warm, _ = await gen.closed_phase(int(wl.capacity * WARMUP_S), INFLIGHT, "w", pool=stream.warm)
        scrapes = [scrape(server.port)]
        t0 = time.monotonic()
        for _ in range(rounds):
            sat, (cpu0, cpu1) = await gen.closed_phase(
                int(wl.capacity * sat_s), INFLIGHT, "s", probe=lambda: group_cpu_s(server.pgid)
            )
            cpu += cpu1 - cpu0
            scrapes.append(scrape(server.port))
            opened = await gen.open_phase(open_s, wl.rate, wl.slo_ms, "o")
            scrapes.append(scrape(server.port))
            pairs.append((sat, opened))
        t1 = time.monotonic()
    finally:
        await gen.close()
    seen = set().union(*(p.items_seen for pair in pairs for p in pair))
    distinct = len(stream.probes) + len(stream.warm) + len(seen)
    return Session(warm, pairs, cpu, scrapes, (t0, t1), distinct)


def drive(server: ServerProc, wl: Workload, stream: Stream, rounds: int, sat_s: float, open_s: float) -> Session:
    return asyncio.run(_drive(server, wl, stream, rounds, sat_s, open_s))


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _ledger_problems(session: Session) -> List[str]:
    problems = []
    for out in [session.warm] + session.phases():
        if not out.balanced():
            problems.append(f"client ledger: sent {out.sent} != ok {out.ok} + failed {out.failed} + refused {out.refused}")
    return problems


def _rounds(seconds: float, servers: int) -> Tuple[int, float]:
    """Rounds per server and phase length for ``seconds`` of measurement."""
    rounds = max(1, int(round(seconds / (2 * ROUND_PHASE_S * servers))))
    return rounds, seconds / (2 * rounds * servers)


def _rps(rounds: List[Tuple[Outcome, Outcome]]) -> List[float]:
    return [sat.correct / sat.window_s for sat, _ in rounds]


def _throughput(rounds: List[Tuple[Outcome, Outcome]]) -> float:
    """Correct answers per second over all closed-loop phases together.

    The phases are fixed work, so this is their total over their total
    time: it moves smoothly with the share of a run the host spends slow,
    where a median of rounds would jump between a fast and a slow mode.
    """
    return sum(sat.correct for sat, _ in rounds) / sum(sat.window_s for sat, _ in rounds)


def run_untraced(life: Lifecycle, wl: Workload, stream: Stream, seconds: float) -> dict:
    """Boot ``BOOTS`` servers in turn; time each boot and measure on each.

    Every server replays the same stream from its start, so the rounds of
    all servers measure the same traffic; spreading them over several
    processes keeps one process's luck (CPU placement, allocator state)
    out of the medians.
    """
    rounds_each, phase_s = _rounds(seconds, BOOTS)
    setups, rss, sessions, wrong = [], [], [], 0
    for _ in range(BOOTS):
        server, setup_s, bad = boot(life, wl, stream)
        setups.append(setup_s)
        wrong += bad
        sessions.append(drive(server, wl, stream, rounds_each, phase_s, phase_s))
        rss.append(group_peak_rss_mb(server.pgid))
        life.stop(server)
    rounds = [pair for session in sessions for pair in session.rounds]
    phases = [phase for pair in rounds for phase in pair]
    opens = [opn for _, opn in rounds]
    pooled = [x for opn in opens for x in opn.latencies_ms]
    p99, q99 = tail_percentile(pooled)
    attempted = sum(p.sent for p in phases)
    answered = sum(p.ok - p.wrong for p in phases)
    bad_answers = sum(p.wrong for p in phases)
    failed = sum(p.failed + p.refused for p in phases)
    wrong += sum(session.warm.wrong for session in sessions) + bad_answers
    closed_correct = sum(sat.correct for sat, _ in rounds)
    metrics = {
        "setup_s": median(setups),
        "throughput_rps": _throughput(rounds),
        "latency_p50_ms": median([median(opn.latencies_ms) for opn in opens]),
        "slo_attainment": sum(opn.slo_met for opn in opens) / max(1, sum(opn.sent for opn in opens)),
        "success_rate": answered / max(1, attempted),
        "cpu_ms_per_req": 1e3 * sum(session.cpu_s for session in sessions) / max(1, closed_correct),
        "peak_rss_mb": median(rss),
    }
    errors: Dict[str, int] = {}
    for p in phases:
        for code, n in p.errors.items():
            errors[code] = errors.get(code, 0) + n
    notes = [
        f"setup_s: median of boots {', '.join(f'{s:.3f}' for s in setups)}",
        f"{BOOTS} servers x {rounds_each} rounds of {int(wl.capacity * phase_s)} requests closed loop"
        f" ({INFLIGHT} in flight) + {phase_s:.2f} s open loop at {wl.rate:g}/s",
        "throughput_rps per round: " + ", ".join(f"{r:.1f}" for r in _rps(rounds)),
        "latency_p50_ms per round: " + ", ".join(f"{median(o.latencies_ms):.2f}" for o in opens),
        f"latency_p99_ms {p99:.3f} ms at q={q99:.4f} of n={len(pooled)} open-loop samples"
        " (not a result metric: too noisy on the reference host to gate on)",
        f"peak_rss_mb per server: {', '.join(f'{r:.1f}' for r in rss)}",
        f"error_rate: {(failed + bad_answers) / max(1, attempted):.6f} = (failed+refused+wrong) / attempted {attempted}; errors {errors}",
        f"generator lag p99: {tail_percentile([x for o in opens for x in o.lag_ms])[0]:.3f} ms",
    ]
    problems = [p for session in sessions for p in _ledger_problems(session)]
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "attempted": attempted,
        "failed": failed + bad_answers,
        "wrong": wrong,
        "problems": problems,
        "notes": notes,
    }


def run_traced(life: Lifecycle, wl: Workload, stream: Stream, seconds: float, seed: int, name: str) -> dict:
    rounds, phase_s = _rounds(seconds / 2, 1)
    # Untraced session: counts from the scrape plane.
    server, _, wrong = boot(life, wl, stream)
    plain = drive(server, wl, stream, rounds, phase_s, phase_s)
    life.stop(server)
    # Traced session: the same stream again from a fresh server.
    trace_path = os.path.join(OUT_DIR, f"trace-{name}-{seed}-{os.getpid()}.jsonl")
    server, _, bad = boot(life, wl, stream, trace_out=trace_path)
    wrong += bad
    traced = drive(server, wl, stream, rounds, phase_s, phase_s)
    life.stop(server)
    try:
        spans = load_spans(trace_path)
    finally:
        os.remove(trace_path)
    units = per_layer_units()
    # A layer the workload never reaches reports 0.
    metrics = {name_: 0.0 for name_ in units}
    derived = scrape_metrics(plain.scrapes[0], plain.scrapes[-1], plain.distinct_names)
    derived.update(span_metrics(spans, traced.window, lambda rid: rid[:1] in ("s", "o")))
    undeclared = sorted(set(derived) - set(units))
    metrics.update({k: v for k, v in derived.items() if k in units})
    for session in (plain, traced):
        wrong += session.warm.wrong + sum(p.wrong for p in session.phases())
    rps_plain, rps_traced = _throughput(plain.rounds), _throughput(traced.rounds)
    metrics.update({
        "bench.requests_sent": float(sum(p.sent for p in plain.phases())),
        "bench.wrong": float(wrong),
        "bench.generator_lag_ms_p99": tail_percentile([x for _, o in plain.rounds for x in o.lag_ms])[0],
        "bench.trace_overhead": 1.0 - rps_traced / rps_plain if rps_plain else 0.0,
    })
    phases = plain.phases() + traced.phases()
    notes = [
        f"throughput untraced {rps_plain:.1f}/s, traced {rps_traced:.1f}/s",
        f"spans recorded: {len(spans)}",
    ] + [f"undeclared metric {k} = {derived[k]:.6g}" for k in undeclared]
    return {
        "metrics": metrics,
        "units": units,
        "attempted": sum(p.sent for p in phases),
        "failed": sum(p.failed + p.refused + p.wrong for p in phases),
        "wrong": wrong,
        "problems": _ledger_problems(plain) + _ledger_problems(traced),
        "notes": notes,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Tuple[dict, bool]:
    wl = WORKLOADS[name]
    stream = build_stream(wl.stream, seed, scale)
    os.makedirs(OUT_DIR, exist_ok=True)
    life = Lifecycle(ROOT, OUT_DIR, WATCHDOG_S)
    try:
        result = (run_traced(life, wl, stream, seconds, seed, name) if trace else run_untraced(life, wl, stream, seconds))
    finally:
        leftovers = life.close()
    problems = result["problems"] + leftovers
    if life.unclean_stops:
        result["notes"].append(f"servers that needed SIGKILL: {life.unclean_stops}")
    correct = result["wrong"] == 0 and not problems
    print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}  stream=sha256:{stream.digest()[:16]}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<44} {value:>14.6g} {result['units'][metric]}")
    for note in result["notes"] + problems:
        print(f"  # {note}")
    line = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m: {"value": float(v), "unit": result["units"][m]} for m, v in result["metrics"].items()},
    }
    return line, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit so every started server is reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no repro source tree at src/repro next to the benchmark", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        line, correct = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok &= correct
        print(json.dumps(line, separators=(",", ":")), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
