"""repro.engine.observe: tracer spans, metrics, and the OpCounters shim.

Covers the observability acceptance bars: span nesting and JSONL
round-trips, the disabled-tracer hot-loop overhead (< 5% of one LUT
matmul), histogram bucketing and cross-process metric merging (a real
``workers=2`` run whose trace must contain spans from both worker
processes and whose merged metrics must match the parent's ``stats()``).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.engine import (
    BatchedRunner,
    Histogram,
    Metrics,
    OpCounters,
    Tracer,
    load_jsonl,
    report,
)
from repro.engine.kernels import lut_matmul
from repro.engine.observe import TRACER, disable_tracing, enable_tracing
from repro.engine.registry import get_posit_tables
from repro.posit import POSIT8


@pytest.fixture
def global_tracer():
    """Enable the process-wide tracer for one test, then restore it."""
    enable_tracing()
    TRACER.clear()
    yield TRACER
    disable_tracing()
    TRACER.clear()


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        t = Tracer(enabled=False)
        s1 = t.span("a", x=1)
        s2 = t.span("b")
        assert s1 is s2  # no allocation on the disabled path
        with s1:
            pass
        assert t.events() == []

    def test_span_records_event(self):
        t = Tracer(enabled=True)
        with t.span("op", fmt="posit<8,0>", elements=64):
            time.sleep(0.001)
        (event,) = t.events()
        assert event["name"] == "op"
        assert event["attrs"] == {"fmt": "posit<8,0>", "elements": 64}
        assert event["dur"] >= 0.001
        assert event["pid"] == os.getpid()
        assert event["depth"] == 0 and event["parent"] is None

    def test_span_nesting_depth_and_parent(self):
        t = Tracer(enabled=True)
        with t.span("outer"):
            with t.span("inner"):
                with t.span("leaf"):
                    pass
            with t.span("sibling"):
                pass
        by_name = {e["name"]: e for e in t.events()}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        assert by_name["leaf"]["depth"] == 2
        assert by_name["sibling"]["depth"] == 1
        assert by_name["inner"]["parent"] == by_name["outer"]["seq"]
        assert by_name["leaf"]["parent"] == by_name["inner"]["seq"]
        assert by_name["sibling"]["parent"] == by_name["outer"]["seq"]
        # Events complete innermost-first.
        assert [e["name"] for e in t.events()] == ["leaf", "inner", "sibling", "outer"]

    def test_ring_buffer_caps_events(self):
        t = Tracer(capacity=4, enabled=True)
        for i in range(10):
            with t.span(f"s{i}"):
                pass
        names = [e["name"] for e in t.events()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer(enabled=True)
        with t.span("a", shape=(2, 3), fmt="x"):
            with t.span("b", hit=True):
                pass
        path = tmp_path / "trace.jsonl"
        n = t.export_jsonl(path)
        assert n == 2
        assert load_jsonl(path) == t.events()
        # every line is standalone JSON
        lines = path.read_text().strip().split("\n")
        assert all(json.loads(line)["pid"] == os.getpid() for line in lines)

    def test_numpy_attrs_are_jsonable(self, tmp_path):
        t = Tracer(enabled=True)
        arr = np.zeros((3, 4))
        with t.span("np", shape=arr.shape, n=np.int64(7), arr=arr):
            pass
        (event,) = t.events()
        json.dumps(event)  # must not raise
        assert event["attrs"]["n"] == 7
        assert event["attrs"]["arr"] == [3, 4]

    def test_drain_and_absorb(self):
        src, dst = Tracer(enabled=True), Tracer(enabled=True)
        with src.span("shipped"):
            pass
        events = src.drain()
        assert src.events() == [] and len(events) == 1
        dst.absorb(events)
        assert [e["name"] for e in dst.events()] == ["shipped"]

    def test_disabled_overhead_under_5pct_of_lut_matmul(self):
        """Acceptance bar: tracing off must cost < 5% of the hot loop."""
        tables = get_posit_tables(POSIT8)
        rng = np.random.default_rng(0)
        a_idx = rng.integers(0, 256, size=(64, 128))
        b_idx = rng.integers(0, 256, size=(128, 64))
        assert not TRACER.enabled
        # lut_matmul is instrumented: its timing below already *includes*
        # the disabled-path span call it makes internally.
        t_matmul = min(
            _timed(lambda: lut_matmul(tables.mul_table, a_idx, b_idx))
            for _ in range(5)
        )
        # Cost of the disabled span machinery itself, amortized.
        n = 10_000
        t0 = time.perf_counter()
        for _ in range(n):
            with TRACER.span("kernel.lut_matmul", shape=(64, 128, 64), chunk=64):
                pass
        per_span = (time.perf_counter() - t0) / n
        # One span per kernel call: its share of the kernel's runtime.
        assert per_span < 0.05 * t_matmul, (
            f"disabled span costs {per_span * 1e6:.2f}us vs "
            f"{t_matmul * 1e3:.3f}ms matmul ({per_span / t_matmul:.2%})"
        )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# Histogram / Metrics
# ----------------------------------------------------------------------
class TestHistogram:
    def test_bucketing(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        # <=1: {0.5, 1.0}; <=2: {1.5}; <=4: {3.0}; overflow: {100.0}
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(106.0)
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean() == pytest.approx(21.2)

    def test_merge(self):
        a, b = Histogram(bounds=(1.0, 10.0)), Histogram(bounds=(1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(50.0)
        a.merge(b.snapshot())
        assert a.counts == [1, 1, 1]
        assert a.count == 3 and a.min == 0.5 and a.max == 50.0

    def test_merge_rejects_mismatched_bounds(self):
        a, b = Histogram(bounds=(1.0,)), Histogram(bounds=(2.0,))
        with pytest.raises(ValueError, match="bounds"):
            a.merge(b.snapshot())

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))


class TestMetrics:
    def test_counters_gauges_histograms(self):
        m = Metrics()
        m.inc("reads")
        m.inc("reads", 4)
        m.set_gauge("resident", 12)
        m.observe("latency", 0.5)
        snap = m.snapshot()
        assert snap["counters"] == {"reads": 5}
        assert snap["gauges"] == {"resident": 12}
        assert snap["histograms"]["latency"]["count"] == 1

    def test_record_op_feeds_table_and_histogram(self):
        m = Metrics()
        m.record_op("mul", 100, 0.25)
        m.record_op("mul", 50, 0.05)
        assert m.op_table() == {"mul": {"calls": 2, "elements": 150, "seconds": 0.3}}
        assert m.snapshot()["histograms"]["op.mul.seconds"]["count"] == 2

    def test_merge_full_snapshot(self):
        a, b = Metrics(), Metrics()
        a.inc("n", 1)
        a.set_gauge("g", 1)
        a.record_op("add", 10, 0.1)
        b.inc("n", 2)
        b.set_gauge("g", 9)
        b.record_op("add", 5, 0.2)
        b.observe("queue", 0.01)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"n": 3}
        assert snap["gauges"] == {"g": 9}  # gauges take the incoming value
        assert snap["ops"]["add"] == {
            "calls": 2,
            "elements": 15,
            "seconds": pytest.approx(0.3),
        }
        assert snap["histograms"]["op.add.seconds"]["count"] == 2
        assert snap["histograms"]["queue"]["count"] == 1

    def test_clear_ops_keeps_other_metrics(self):
        m = Metrics()
        m.record_op("mul", 1, 0.1)
        m.inc("kept")
        m.observe("kept_hist", 1.0)
        m.clear_ops()
        snap = m.snapshot()
        assert snap["ops"] == {}
        assert "op.mul.seconds" not in snap["histograms"]
        assert snap["counters"] == {"kept": 1}
        assert "kept_hist" in snap["histograms"]


class TestOpCountersShim:
    """The original OpCounters API must keep working over Metrics."""

    def test_record_snapshot_total(self):
        c = OpCounters()
        c.record("mul", 5, 0.25)
        c.record("mul", 5, 0.25)
        c.record("add", 7, 0.1)
        assert c.ops["mul"] == {"calls": 2, "elements": 10, "seconds": 0.5}
        assert c.snapshot() == c.ops
        assert c.total() == 17
        assert c.total("calls") == 3

    def test_merge_legacy_snapshot_shape(self):
        c = OpCounters()
        c.record("mul", 5, 0.5)
        c.merge({"mul": {"calls": 2, "elements": 10, "seconds": 0.5}})
        assert c.ops["mul"] == {"calls": 3, "elements": 15, "seconds": 1.0}

    def test_clear(self):
        c = OpCounters()
        c.record("mul", 5, 0.5)
        c.clear()
        assert c.ops == {}
        assert c.snapshot() == {}

    def test_repr(self):
        c = OpCounters()
        c.record("encode", 64, 0.01)
        assert "encode: 1 calls / 64 elems" in repr(c)

    def test_metrics_extension_is_exposed(self):
        c = OpCounters()
        c.record("mul", 100, 0.2)
        # The shim's richer substrate: per-op latency histograms.
        assert c.metrics.snapshot()["histograms"]["op.mul.seconds"]["count"] == 1


# ----------------------------------------------------------------------
# Cross-process: spans from both workers, metrics merged into stats()
# ----------------------------------------------------------------------
class BothWorkersModel:
    """Picklable model that stalls until two distinct worker pids exist.

    Each forward writes this process's pid into ``sync_dir`` and waits for
    a second pid to appear (workers=2 guarantees the second task can only
    run on the other worker while this one is blocked), so both workers
    demonstrably execute work — no scheduling luck involved.
    """

    def __init__(self, sync_dir: str):
        self.sync_dir = sync_dir
        self._backend = None

    @property
    def engine(self):
        if self._backend is None:
            from repro.engine.posit_backend import PositBackend

            self._backend = PositBackend(POSIT8, strategy="pairwise")
        return self._backend

    def forward(self, pairs):
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            with open(os.path.join(self.sync_dir, f"{os.getpid()}.pid"), "w") as fh:
                fh.write("1")
            deadline = time.time() + 30.0
            while time.time() < deadline:
                if len(os.listdir(self.sync_dir)) >= 2:
                    break
                time.sleep(0.01)
        be = self.engine
        a, b = pairs[:, 0], pairs[:, 1]
        return np.stack([be.add(a, b), be.mul(a, b)], axis=1)

    def __getstate__(self):
        return {"sync_dir": self.sync_dir}

    def __setstate__(self, state):
        self.sync_dir = state["sync_dir"]
        self._backend = None


class TestParallelObservability:
    def test_two_worker_trace_and_merged_metrics(self, tmp_path, global_tracer):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 256, size=(64, 2)).astype(np.uint8)
        sync_dir = tmp_path / "sync"
        sync_dir.mkdir()
        model = BothWorkersModel(str(sync_dir))
        with BatchedRunner(
            model,
            workers=2,
            batch_size=32,
            task_timeout=120.0,
        ) as runner:
            runner.run(x)
            stats = runner.stats()

        worker_pids = {w["pid"] for w in stats["per_worker"]}
        assert len(worker_pids) == 2, "both workers must have executed chunks"

        # The parent's ring buffer holds spans shipped home from BOTH
        # workers, exported as one JSONL trace.
        trace_path = tmp_path / "trace.jsonl"
        global_tracer.export_jsonl(trace_path)
        events = load_jsonl(trace_path)
        chunk_pids = {e["pid"] for e in events if e["name"] == "worker.chunk"}
        assert chunk_pids == worker_pids
        # Worker-side backend ops made it into the trace too.
        op_pids = {e["pid"] for e in events if e["name"] in ("add", "mul")}
        assert op_pids == worker_pids

        # Merged metrics match the parent's stats(): 64 pairs through add
        # and mul exactly once each, summed across both workers.
        assert stats["ops"]["add"]["elements"] == 64
        assert stats["ops"]["mul"]["elements"] == 64
        assert stats["metrics"]["ops"] == stats["ops"]
        # Per-op latency histograms merged from the workers' metrics.
        assert stats["metrics"]["histograms"]["op.mul.seconds"]["count"] == (
            stats["ops"]["mul"]["calls"]
        )
        # Queue-wait histogram: one observation per collected chunk.
        assert stats["metrics"]["histograms"]["parallel.queue_wait_s"]["count"] == 2

    def test_runner_stats_include_metrics(self):
        class Identity:
            def forward(self, x):
                return x

        runner = BatchedRunner(Identity(), batch_size=8)
        runner.run(np.zeros((16, 2)))
        stats = runner.stats()
        assert stats["metrics"]["histograms"]["runner.batch_s"]["count"] == 2
        assert {"table_hits", "table_misses"} <= set(stats)
        runner.reset()
        assert "runner.batch_s" not in runner.stats()["metrics"]["histograms"]


# ----------------------------------------------------------------------
# report()
# ----------------------------------------------------------------------
class TestReport:
    def test_report_renders_stats(self):
        class Identity:
            def forward(self, x):
                return x

        runner = BatchedRunner(Identity(), batch_size=4)
        runner.counters.record("mul", 128, 0.25)
        runner.run(np.zeros((8, 2)))
        text = report(runner.stats())
        assert "engine run report" in text
        assert "8 items in 2 batches" in text
        assert "mul" in text and "128" in text
        assert "kernel tables" in text

    def test_report_without_stats(self):
        assert "engine run report" in report()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_counters_and_gauges(self):
        metrics = Metrics()
        metrics.inc("serve.admitted", 3)
        metrics.set_gauge("serve.queue_depth", 7)
        body = metrics.to_prometheus()
        assert "# TYPE repro_serve_admitted_total counter" in body
        assert "repro_serve_admitted_total 3" in body
        assert "# TYPE repro_serve_queue_depth gauge" in body
        assert "repro_serve_queue_depth 7" in body
        assert body.endswith("\n")

    def test_histogram_buckets_are_cumulative(self):
        metrics = Metrics()
        bounds = (1.0, 10.0, 100.0)
        for v in (0.5, 0.6, 5.0, 50.0, 5000.0):
            metrics.observe("lat", v, bounds=bounds)
        body = metrics.to_prometheus()
        lines = body.splitlines()
        assert 'repro_lat_bucket{le="1"} 2' in lines
        assert 'repro_lat_bucket{le="10"} 3' in lines
        assert 'repro_lat_bucket{le="100"} 4' in lines
        # +Inf equals the total count (cumulative, overflow included).
        assert 'repro_lat_bucket{le="+Inf"} 5' in lines
        assert "repro_lat_count 5" in lines
        assert f"repro_lat_sum {0.5 + 0.6 + 5.0 + 50.0 + 5000.0}" in body
        # Bucket counts never decrease as le grows.
        counts = [
            int(ln.rsplit(" ", 1)[1])
            for ln in lines
            if ln.startswith("repro_lat_bucket")
        ]
        assert counts == sorted(counts)

    def test_op_table_exports_labelled_counters(self):
        metrics = Metrics()
        metrics.record_op("mul", elements=64, seconds=0.5)
        metrics.record_op("matmul[values]", elements=128, seconds=1.5)
        body = metrics.to_prometheus()
        assert 'repro_op_calls_total{op="mul"} 1' in body
        assert 'repro_op_elements_total{op="mul"} 64' in body
        assert 'repro_op_seconds_total{op="mul"} 0.5' in body
        # Op labels keep their raw name; only metric names are sanitized.
        assert 'repro_op_elements_total{op="matmul[values]"} 128' in body

    def test_metric_names_are_sanitized(self):
        metrics = Metrics()
        metrics.inc("serve.tenant.acme-eu.requests")
        metrics.observe("op.matmul[values].seconds", 0.1)
        body = metrics.to_prometheus(prefix="x_")
        assert "x_serve_tenant_acme_eu_requests_total 1" in body
        assert 'x_op_matmul_values__seconds_bucket{le="+Inf"} 1' in body

    def test_integer_valued_floats_render_as_ints(self):
        metrics = Metrics()
        metrics.inc("n", 2.0)
        metrics.set_gauge("g", 1.5)
        body = metrics.to_prometheus()
        assert "repro_n_total 2\n" in body
        assert "repro_g 1.5" in body

    def test_empty_registry_renders_empty(self):
        assert Metrics().to_prometheus() == "\n"
