"""repro.serve.executor — coalesced batches executed through the engine.

The executor is the synchronous back half of the server: the dynamic
batcher hands it one batch key plus the requests coalesced under that key,
and it drives the right engine entry point —

* ``nn_predict`` — samples from all requests stack into one array and run
  through a long-lived :class:`repro.engine.runner.BatchedRunner` (in
  process, or on its spawn pool with ``workers > 1``) over the network's
  compiled :class:`repro.engine.fused.FusedPlan`.
  The plan carries ``stable_contractions=True``, so every sample's output
  is byte-equal to solo execution regardless of batch mates or worker
  count.
* ``posit_matmul`` — each request's operands encode into the shared
  per-format :class:`PositBackend` and contract with one posit rounding
  per output element.
* ``approx_matmul`` — exact int64 LUT contraction through the named
  approximate multiplier's signed behaviour table.

Backends, compiled plans, runners and behaviour tables are all cached
here — construction costs (table builds, pool spawns) are paid once per
server lifetime, not per request.  A chaos-crashed worker pool degrades
through the runner's ladder (retry → pool rebuild → in-process
fallback), so accepted requests still complete; :meth:`restart` gives
recovered pools their crash budget back.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..approx import TABLE2_SET
from ..approx.simulate import approx_matmul, signed_lut
from ..engine.fused import FusedPlan
from ..engine.observe import METRICS, TRACER, Metrics
from ..engine.posit_backend import PositBackend
from ..engine.runner import BatchedRunner
from ..nn.zoo import kws_cnn1, kws_cnn2, resnet_mini
from ..posit.format import PositFormat
from .protocol import ProtocolError, Request

__all__ = ["EngineExecutor", "DeadlineExceeded", "MODELS", "MULTIPLIERS"]

#: The serveable model zoo: name -> zero-arg float-network factory.
#: Fixed seeds make every server process serve bit-identical weights.
MODELS = {
    "resnet": lambda: resnet_mini(seed=0),
    "kws1": lambda: kws_cnn1(seed=0),
    "kws2": lambda: kws_cnn2(seed=0),
}

#: Serveable approximate multipliers (plus ``exact`` -> no table).
MULTIPLIERS = {m.name: m for m in TABLE2_SET}


class DeadlineExceeded(Exception):
    """The request's deadline passed before execution began."""


class EngineExecutor:
    """Execute coalesced request batches against cached engine state.

    Parameters:
        workers: Worker-pool size for ``nn_predict`` runners (``None``/1 =
            in-process).
        nn_batch_size: Micro-batch size inside the runners.
        chaos: Optional :class:`repro.engine.faults.ChaosPlan` injected
            into every runner's pool (chaos testing the serving path).
        task_timeout / pool_restarts: Forwarded to every
            :class:`~repro.engine.runner.BatchedRunner`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        nn_batch_size: int = 32,
        chaos=None,
        task_timeout: Optional[float] = 30.0,
        pool_restarts: int = 2,
        metrics: Optional[Metrics] = None,
    ):
        self.workers = workers
        self.nn_batch_size = int(nn_batch_size)
        self.chaos = chaos
        self.task_timeout = task_timeout
        self.pool_restarts = int(pool_restarts)
        self.metrics = metrics if metrics is not None else METRICS
        self._lock = threading.Lock()
        self._nets: Dict[str, object] = {}
        self._backends: Dict[Tuple[int, int], PositBackend] = {}
        self._runners: Dict[Tuple, BatchedRunner] = {}
        self._luts: Dict[str, Optional[np.ndarray]] = {}
        self.executed = 0

    # ------------------------------------------------------------------
    # Cached engine state
    # ------------------------------------------------------------------
    def _backend(self, bits: int, es: int) -> PositBackend:
        """The format's one backend, shared by its matmuls and plans.

        ``table_bits=0`` picks via-float (wide above 16 bits): no pairwise
        add/mul tables, which neither the float64 matmul nor a
        :class:`FusedPlan` reads.
        """
        backend = self._backends.get((bits, es))
        if backend is None:
            backend = PositBackend(PositFormat(bits, es), table_bits=0, stable_contractions=True)
            backend = self._backends.setdefault((bits, es), backend)
        return backend

    def _runner(self, model: str, bits: int, es: int) -> BatchedRunner:
        key = (model, bits, es)
        backend = self._backend(bits, es)
        with self._lock:
            runner = self._runners.get(key)
            if runner is None:
                factory = MODELS.get(model)
                if factory is None:
                    raise ProtocolError(
                        f"unknown model {model!r} (serveable: {sorted(MODELS)})"
                    )
                net = self._nets.get(model)
                if net is None:
                    net = self._nets[model] = factory()
                plan = FusedPlan.compile(net, backend.fmt, backend=backend)
                runner = self._runners[key] = BatchedRunner(
                    plan,
                    batch_size=self.nn_batch_size,
                    workers=self.workers,
                    chaos=self.chaos,
                    task_timeout=self.task_timeout,
                    pool_restarts=self.pool_restarts,
                )
            return runner

    def _lut(self, mult: str) -> Optional[np.ndarray]:
        with self._lock:
            if mult not in self._luts:
                if mult == "exact":
                    self._luts[mult] = None
                elif mult in MULTIPLIERS:
                    self._luts[mult] = signed_lut(MULTIPLIERS[mult])
                else:
                    raise ProtocolError(
                        f"unknown multiplier {mult!r} "
                        f"(serveable: exact, {sorted(MULTIPLIERS)})"
                    )
            return self._luts[mult]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute(self, key: Tuple, requests: List[Request]) -> List[object]:
        """Run one coalesced batch; one result *or exception* per request.

        Requests whose deadline already passed resolve to
        :class:`DeadlineExceeded` without touching the engine; the rest
        execute.  Engine/validation failures resolve individually, so a
        bad request never poisons its batch mates.
        """
        now = time.monotonic()
        results: List[object] = [None] * len(requests)
        live: List[int] = []
        for i, req in enumerate(requests):
            if req.expired(now):
                results[i] = DeadlineExceeded(
                    f"deadline passed {now - req.deadline_s:.3f}s before execution"
                )
                self.metrics.inc("serve.deadline_exceeded")
            else:
                live.append(i)
        if not live:
            return results
        t0 = time.perf_counter()
        workload = key[0]
        with TRACER.span("serve.execute", workload=workload, requests=len(live)):
            try:
                if workload == "nn_predict":
                    self._execute_nn(key, requests, live, results)
                elif workload == "posit_matmul":
                    self._execute_posit(requests, live, results)
                else:
                    self._execute_approx(requests, live, results)
            except Exception as err:  # noqa: BLE001 — resolve, don't drop
                for i in live:
                    if results[i] is None:
                        results[i] = err
        dt = time.perf_counter() - t0
        self.executed += len(live)
        self.metrics.observe("serve.exec_s", dt)
        self.metrics.inc(f"serve.executed.{workload}", len(live))
        return results

    def _execute_nn(self, key, requests, live, results) -> None:
        _, model, bits, es = key
        runner = self._runner(model, bits, es)
        input_shape = tuple(runner.model.net.input_shape)
        ok: List[int] = []
        for i in live:
            if tuple(requests[i].x.shape[1:]) != input_shape:
                results[i] = ProtocolError(
                    f"model {model!r} expects sample shape {input_shape}, "
                    f"got {tuple(requests[i].x.shape[1:])}"
                )
            else:
                ok.append(i)
        if not ok:
            return
        stacked = np.concatenate([requests[i].x for i in ok], axis=0)
        out = runner.run(stacked)
        offset = 0
        for i in ok:
            rows = requests[i].rows
            results[i] = out[offset : offset + rows]
            offset += rows

    def _execute_posit(self, requests, live, results) -> None:
        for i in live:
            req = requests[i]
            backend = self._backend(req.bits, req.es)
            codes = backend.matmul(backend.encode(req.a), backend.encode(req.b))
            results[i] = backend.decode(codes)

    def _execute_approx(self, requests, live, results) -> None:
        for i in live:
            req = requests[i]
            lut = self._lut(req.mult)
            results[i] = approx_matmul(req.a, req.b, lut)

    # ------------------------------------------------------------------
    # Lifecycle + observability
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Join every runner's worker pool (idempotent)."""
        with self._lock:
            for runner in self._runners.values():
                runner.close()

    def restart(self) -> None:
        """Fresh pools + crash budgets for every runner (post-chaos reset)."""
        with self._lock:
            for runner in self._runners.values():
                runner.restart()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "executed": self.executed,
                "workers": self.workers,
                "runners": {
                    "/".join(str(p) for p in key): runner.stats()
                    for key, runner in self._runners.items()
                },
            }
