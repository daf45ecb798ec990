"""Benchmark-regression gate: compare fresh BENCH_*.json against baselines.

The CI ``bench-regression`` job copies the checked-in ``BENCH_engine.json``
and ``BENCH_parallel.json`` aside, re-runs the two throughput benchmarks
(which overwrite those files), then invokes this script to compare the
fresh numbers against the baselines.

Absolute items/s are not comparable across machines, so the gate compares
the machine-normalized **speedup** ratios instead:

* ``BENCH_engine.json``: ``speedup`` = engine items/s over the scalar-model
  items/s measured in the same run — the 117x LUT-throughput win.  A drop
  of more than ``--max-regression`` (default 30%) fails the gate.
* ``BENCH_parallel.json``: ``speedup`` = parallel items/s over the
  single-process items/s.  Only enforced when the current run executed on
  a >= 4-CPU host (``bar_asserted`` in the fresh JSON, mirroring the
  benchmark's own gating) — process-pool overhead swamps the signal below
  that, exactly as the benchmark itself skips its assertion.
* ``BENCH_wide.json``: ``speedup`` = the *worst* wide-codec cell
  (posit32/binary32 x encode/decode/mul) over the scalar-object loop.
  Skipped when ``bar_asserted`` is false (REPRO_QUICK smoke runs, whose
  scalar sample is too small for a stable ratio).
* ``BENCH_fused.json``: ``speedup`` = best fused items/s (single-process
  plan or worker pool) over the layer-by-layer
  ``reference_forward`` in the same run.  Enforced only when ``bar_asserted`` is true (>= 4-CPU host),
  mirroring the benchmark's own >= 5x assertion gate.
* ``BENCH_fused.json``: ``fused_stable_single_speedup`` = the fused plan
  over ``reference_forward``, both single-process with
  ``stable_contractions=True`` at posit<8,2> (the serve configuration):
  the median of per-round ratios, the two arms taking turns each round.
  Always enforced: a same-process, same-host ratio, meaningful on any
  CPU count.
* ``BENCH_fog.json``: ``hit_rate`` = cached replays over total submissions
  after repeated passes of a fixed working set.  Deterministic (seeded
  traffic, rendezvous routing), so it is always enforced — a drop means
  the fog's caching or routing changed behaviourally, not that the host
  was slow.
* ``BENCH_resilience.json``: ``availability`` = completed submissions over
  total while live fabric node processes are SIGKILLed mid-load.  Always
  enforced: graceful degradation makes the expected value ~1.0 regardless
  of host speed, so a drop means failure handling (supervision, breakers,
  degradation) regressed, not the machine.
* ``BENCH_fogperf.json``: ``pipelined_speedup_16`` = one multiplexed peer
  connection at 16 in-flight interests over strictly serial calls.
  Enforced only when ``bar_asserted`` is true (>= 4-CPU host) — on one
  core every arm is compute-bound and the ratio carries no signal.

Exit status 0 = within budget, 1 = regression (or unreadable inputs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (name, baseline filename, metric key, gate-condition key or None)
CHECKS = (
    ("engine", "BENCH_engine.json", "speedup", None),
    ("parallel", "BENCH_parallel.json", "speedup", "bar_asserted"),
    ("wide", "BENCH_wide.json", "speedup", "bar_asserted"),
    ("serve", "BENCH_serve.json", "efficiency", "bar_asserted"),
    ("fused", "BENCH_fused.json", "speedup", "bar_asserted"),
    ("fused_stable", "BENCH_fused.json", "fused_stable_single_speedup", None),
    ("fog", "BENCH_fog.json", "hit_rate", None),
    ("resilience", "BENCH_resilience.json", "availability", None),
    ("fogperf", "BENCH_fogperf.json", "pipelined_speedup_16", "bar_asserted"),
)


def compare(
    name: str,
    baseline: dict,
    current: dict,
    metric: str,
    max_regression: float,
    gate_key: str = None,
) -> tuple:
    """Returns ``(ok, message)`` for one benchmark comparison."""
    if gate_key is not None and not current.get(gate_key, False):
        return True, (
            f"{name}: skipped ({gate_key} is false in the current run — "
            f"host has {current.get('cpu_count', '?')} CPUs)"
        )
    if metric not in baseline:
        return True, f"{name}: baseline has no {metric}, nothing to compare"
    if metric not in current:
        return False, f"{name}: current run recorded no {metric} — FAIL"
    base = float(baseline[metric])
    cur = float(current[metric])
    if base <= 0:
        return True, f"{name}: baseline {metric} <= 0, nothing to compare"
    ratio = cur / base
    floor = 1.0 - max_regression
    verdict = "OK" if ratio >= floor else "REGRESSION"
    msg = (
        f"{name}: {metric} {cur:.2f}x vs baseline {base:.2f}x "
        f"({ratio:.2%} of baseline, floor {floor:.0%}) — {verdict}"
    )
    return ratio >= floor, msg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the checked-in BENCH_*.json baselines",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="maximum allowed fractional throughput drop (default 0.30)",
    )
    args = parser.parse_args(argv)

    ok = True
    for name, filename, metric, gate_key in CHECKS:
        base_path = args.baseline_dir / filename
        cur_path = args.current_dir / filename
        if not base_path.exists():
            print(f"{name}: no baseline at {base_path}, skipping")
            continue
        if not cur_path.exists():
            print(f"{name}: current run produced no {cur_path} — FAIL")
            ok = False
            continue
        try:
            baseline = json.loads(base_path.read_text())
            current = json.loads(cur_path.read_text())
        except (OSError, ValueError) as err:
            print(f"{name}: unreadable input ({err}) — FAIL")
            ok = False
            continue
        good, msg = compare(name, baseline, current, metric, args.max_regression, gate_key)
        print(msg)
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
