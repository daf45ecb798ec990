"""The benchmark's own checks: seeded streams and a smoke run per workload.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q perfbench``.
The smoke runs boot real servers and take a couple of minutes in total.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from streams import build_stream  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("kind", ["kws", "arith", "fog"])
def test_same_seed_same_digest(kind):
    first = build_stream(kind, 7, scale=0.02).digest()
    assert build_stream(kind, 7, scale=0.02).digest() == first
    assert build_stream(kind, 8, scale=0.02).digest() != first


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace, capsys):
    line, correct = run.run_workload(workload, seed=3, seconds=2.0, trace=bool(trace), scale=0.05)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert correct
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    printed = capsys.readouterr().out
    for m in declared:
        assert m["name"] in printed
