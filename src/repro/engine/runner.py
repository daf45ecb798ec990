"""Batched inference runner with per-op observability counters.

:class:`BatchedRunner` micro-batches inference requests through any model
exposing ``forward(x) -> y`` (a :class:`repro.nn.network.Sequential`, a
:class:`repro.nn.posit_inference.PositQuantizedNetwork`, ...), timing each
micro-batch and aggregating the engine's per-op counters — the seed of an
observability layer for the serving path: every later scaling PR (sharding,
async, multi-backend dispatch) reports through the same ``stats()`` shape.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from .backend import OpCounters
from .observe import TRACER
from .registry import REGISTRY, KernelRegistry

__all__ = ["BatchedRunner"]


class BatchedRunner:
    """Run inference requests through a model in fixed-size micro-batches.

    ``workers`` > 1 shards the micro-batches across a process pool (see
    :class:`repro.engine.parallel.ParallelRunner`); chunk boundaries stay
    batch-aligned, so the sharded output is bit-identical to the
    single-process path.  ``parallel_opts`` forwards extra keyword
    arguments (``chunk_size``, ``task_timeout``, ``fallback``) to the
    parallel layer.
    """

    def __init__(
        self,
        model,
        batch_size: int = 64,
        counters: Optional[OpCounters] = None,
        registry: Optional[KernelRegistry] = None,
        workers: Optional[int] = None,
        fault_plan=None,
        **parallel_opts,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = batch_size
        #: Optional :class:`repro.engine.faults.FaultPlan` flipping bits in
        #: each micro-batch's raw float64 words before the model sees it.
        self.fault_plan = fault_plan
        # Adopt the model's engine counters when it has them, so backend ops
        # executed inside the model show up in this runner's stats.
        if counters is not None:
            self.counters = counters
        else:
            engine = getattr(model, "engine", None)
            self.counters = getattr(engine, "counters", None) or OpCounters()
        self._registry = registry if registry is not None else REGISTRY
        self.workers = workers
        self._parallel = None
        if workers is not None and workers > 1:
            from .parallel import ParallelRunner

            self._parallel = ParallelRunner(
                model,
                workers=workers,
                batch_size=batch_size,
                counters=self.counters,
                registry=self._registry,
                fault_plan=fault_plan,
                **parallel_opts,
            )
        elif parallel_opts:
            raise TypeError(
                f"parallel options {sorted(parallel_opts)} need workers > 1"
            )
        self._items = 0
        self._batches = 0
        self._wall = 0.0
        self._batch_wall: List[float] = []

    # ------------------------------------------------------------------
    def run(self, x: np.ndarray) -> np.ndarray:
        """Micro-batch ``x`` through the model; returns concatenated outputs."""
        x = np.asarray(x)
        if self._parallel is not None:
            return self._parallel.run(x)
        outs = []
        for start in range(0, len(x), self.batch_size):
            chunk = x[start : start + self.batch_size]
            if self.fault_plan is not None:
                # Content-keyed, so the parallel path injects identically.
                chunk = self.fault_plan.corrupt_floats(chunk, "runner.batch")
            t0 = time.perf_counter()
            with TRACER.span("runner.batch", batch=self._batches, shape=chunk.shape):
                outs.append(self.model.forward(chunk))
            dt = time.perf_counter() - t0
            self._wall += dt
            self._batch_wall.append(dt)
            self._batches += 1
            self._items += len(chunk)
            self.counters.metrics.observe("runner.batch_s", dt)
        return np.concatenate(outs, axis=0)

    __call__ = run

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool, if any (no-op for in-process runners)."""
        if self._parallel is not None:
            self._parallel.close()

    def restart(self) -> None:
        """Rebuild the worker pool with a fresh crash budget (see
        :meth:`repro.engine.parallel.ParallelRunner.restart`)."""
        if self._parallel is not None:
            self._parallel.restart()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Aggregated run statistics: throughput, per-op counters, cache."""
        if self._parallel is not None:
            return self._parallel.stats()
        reg = self._registry.stats()
        return {
            "items": self._items,
            "batches": self._batches,
            "batch_size": self.batch_size,
            "wall_s": self._wall,
            "items_per_s": (self._items / self._wall) if self._wall > 0 else 0.0,
            "mean_batch_ms": (
                1e3 * self._wall / self._batches if self._batches else 0.0
            ),
            "ops": self.counters.snapshot(),
            "table_hits": reg["hits"],
            "table_misses": reg["misses"],
            "metrics": self.counters.metrics.snapshot(),
        }

    def reset(self) -> None:
        """Clear throughput numbers and op counters (registry untouched)."""
        if self._parallel is not None:
            self._parallel.reset()
        self._items = self._batches = 0
        self._wall = 0.0
        self._batch_wall.clear()
        self.counters.clear()
        self.counters.metrics.histograms.pop("runner.batch_s", None)

    def __repr__(self):
        return (
            f"BatchedRunner(batch_size={self.batch_size}, "
            f"{self._items} items in {self._batches} batches)"
        )
