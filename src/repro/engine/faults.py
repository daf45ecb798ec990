"""repro.engine.faults — deterministic fault injection for the engine.

The paper's core argument (Sections IV-V) is that edge arithmetic must
stay accurate *under imperfection*: approximate multipliers, narrow posit
formats, retraining around error.  This module turns imperfection into a
first-class, measurable experiment — ApproxTrain simulates erroneous
multipliers inside DNN inference, AxOSyn treats error injection as a
design-space axis; here the same idea is applied to the execution engine
itself as **seeded soft-error injection**:

* :class:`FaultPlan` — a picklable specification of bit-flip faults at
  three sites: kernel LUT tables (``lut_rate``), backend op outputs
  (``op_rate``) and DNN activations re-encoded through a format's codec
  (``activation_rate``).  It plugs into
  :class:`~repro.engine.registry.KernelRegistry`, every backend,
  :class:`~repro.engine.runner.BatchedRunner` (in process or on its
  worker pool) and :class:`~repro.engine.fused.FusedPlan`, whose fault
  stages flip activation codes of any posit, softfloat or LNS format —
  the plans behind the posit-vs-float resilience table
  (``benchmarks/test_fault_resilience.py``).
* :class:`ChaosPlan` — deterministic worker-failure injection (crashes,
  slowdowns) for chaos tests of a
  :class:`~repro.engine.runner.BatchedRunner` worker pool.

Determinism is the load-bearing property: every injection site derives its
RNG from ``(plan.seed, site name, a content hash of the array being
corrupted)``, never from call order or process identity.  The same plan
applied to the same data therefore produces **bit-identical** corruption
across runs, across processes, and across ``workers=N`` sharding — chunk
boundaries are batch-aligned, so each micro-batch's bytes (and hence its
faults) are the same no matter which worker executes it.
"""

from __future__ import annotations

import hashlib
import os
import time
import zlib
from typing import Dict, Iterable, Optional

import numpy as np

from .observe import METRICS, TRACER

__all__ = ["FaultPlan", "ChaosPlan", "apply_code_faults"]


def _content_key(arr: np.ndarray) -> int:
    """A fast, process-independent fingerprint of an array's bytes+shape."""
    a = np.ascontiguousarray(arr)
    return zlib.crc32(a.tobytes()) ^ zlib.crc32(repr(a.shape).encode())


def _check_rate(name: str, rate: float) -> float:
    rate = float(rate)
    if not (0.0 <= rate <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {rate}")
    return rate


class FaultPlan:
    """Seeded, deterministic bit-flip fault specification.

    Parameters:
        seed: Root seed; every injection site mixes it with the site name
            and the corrupted array's content hash.
        lut_rate: Fraction of kernel-table *entries* bit-flipped when the
            plan is attached to a :class:`KernelRegistry`.  Only tables
            whose npz array name is in ``lut_tables`` are touched, so
            codec value/boundary tables stay pristine by default.
        op_rate: Per-element probability of flipping one random bit in the
            code array a backend op (``add``/``mul``/``matmul``) returns.
        activation_rate: Per-element probability of flipping one random
            bit in an activation's *format encoding* between DNN layers
            (and in the raw float64 words on the generic
            :class:`BatchedRunner` path).
        lut_tables: npz array names eligible for ``lut_rate`` corruption.
        ops: Optional restriction of ``op_rate`` to these op names.

    Plans are immutable in spirit and picklable by construction — the
    parallel layer ships them to spawn workers verbatim.
    """

    __slots__ = ("seed", "lut_rate", "op_rate", "activation_rate", "lut_tables", "ops")

    def __init__(
        self,
        seed: int = 0,
        lut_rate: float = 0.0,
        op_rate: float = 0.0,
        activation_rate: float = 0.0,
        lut_tables: Iterable[str] = ("add", "mul", "lut"),
        ops: Optional[Iterable[str]] = None,
    ):
        self.seed = int(seed)
        self.lut_rate = _check_rate("lut_rate", lut_rate)
        self.op_rate = _check_rate("op_rate", op_rate)
        self.activation_rate = _check_rate("activation_rate", activation_rate)
        self.lut_tables = frozenset(lut_tables) if lut_tables is not None else None
        self.ops = frozenset(ops) if ops is not None else None

    # ------------------------------------------------------------------
    def _rng(self, site: str, content: int) -> np.random.Generator:
        digest = hashlib.sha256(f"{self.seed}|{site}|{content}".encode()).digest()
        return np.random.default_rng(np.frombuffer(digest[:16], dtype=np.uint64))

    def flip_bits(self, arr: np.ndarray, width: int, rate: float, site: str) -> np.ndarray:
        """A copy of integer ``arr`` with one random bit (below ``width``)
        flipped in ~``rate`` of its elements; ``arr`` itself if nothing flips.

        Pure function of ``(plan, site, arr)`` — same inputs, same flips,
        in any process.
        """
        arr = np.asarray(arr)
        if rate <= 0.0 or arr.size == 0:
            return arr
        width = max(1, min(int(width), arr.dtype.itemsize * 8))
        rng = self._rng(site, _content_key(arr))
        hit = rng.random(arr.size) < rate
        n = int(np.count_nonzero(hit))
        if n == 0:
            return arr
        out = arr.copy()
        flat = out.reshape(-1)
        positions = rng.integers(0, width, size=n)
        idx = np.flatnonzero(hit)
        if arr.dtype.kind == "u":
            mask = (np.ones(n, dtype=np.uint64) << positions.astype(np.uint64)).astype(arr.dtype)
            flat[idx] ^= mask
        else:
            mask = np.ones(n, dtype=np.int64) << positions
            flat[idx] = (flat[idx].astype(np.int64) ^ mask).astype(arr.dtype)
        METRICS.inc("faults.bits_flipped", n)
        if TRACER.enabled:
            TRACER.record(
                "fault.flip",
                ts=time.perf_counter() - TRACER.epoch,
                dur=0.0,
                attrs={"site": site, "flips": n, "elements": int(arr.size)},
            )
        return out

    # ------------------------------------------------------------------
    # Kernel-table corruption (registry site)
    # ------------------------------------------------------------------
    def corrupt_table(self, site: str, name: str, arr: np.ndarray) -> np.ndarray:
        """One kernel table with ``lut_rate`` of its entries bit-flipped.

        The flip width is the bit length of the table's largest magnitude,
        so corrupted *code* tables still hold valid codes (a flipped
        ``n``-bit code indexes the next lookup without going out of range)
        while corrupted *product* tables perturb within the product width.
        """
        arr = np.asarray(arr)
        if self.lut_rate <= 0.0 or arr.dtype.kind not in "iu" or arr.size == 0:
            return arr
        width = max(1, int(np.abs(arr).max()).bit_length())
        out = self.flip_bits(arr, width, self.lut_rate, f"lut.{site}.{name}")
        if out is not arr:
            METRICS.inc("faults.lut_tables")
        return out

    def corrupt_tables(self, site: str, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Corrupted copy of a registry table dict (eligible names only)."""
        if self.lut_rate <= 0.0:
            return tables
        return {
            name: (
                self.corrupt_table(site, name, arr)
                if self.lut_tables is None or name in self.lut_tables
                else arr
            )
            for name, arr in tables.items()
        }

    # ------------------------------------------------------------------
    # Activation corruption (nn / runner sites)
    # ------------------------------------------------------------------
    def corrupt_activations(self, x: np.ndarray, backend, site: str) -> np.ndarray:
        """Flip bits in the *format encoding* of an activation tensor.

        Encodes ``x`` through ``backend``, flips each element's code with
        probability ``activation_rate`` (one random bit within the
        format's code width), and decodes back — the soft-error model a
        narrow-format accelerator's activation SRAM would exhibit.
        Returns ``x`` untouched when the rate is zero.
        """
        if self.activation_rate <= 0.0:
            return x
        codes = backend.encode(x)
        width = getattr(backend, "code_bits", codes.dtype.itemsize * 8)
        flipped = self.flip_bits(codes, width, self.activation_rate, site)
        n_hit = int(np.count_nonzero(flipped != codes))
        if n_hit:
            METRICS.inc("faults.activations", n_hit)
        return backend.decode(flipped)

    def corrupt_floats(self, x: np.ndarray, site: str) -> np.ndarray:
        """Flip bits in raw float64 words at ``activation_rate``.

        The format-agnostic soft-error model for arbitrary models running
        under :class:`~repro.engine.runner.BatchedRunner`: any of the 64
        bits (sign, exponent, mantissa) may flip, so NaN/inf poisoning is
        reachable — exactly what the poison audit is for.
        """
        x = np.asarray(x)
        if self.activation_rate <= 0.0 or x.size == 0 or x.dtype.kind != "f":
            return x
        words = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
        flipped = self.flip_bits(words, 64, self.activation_rate, site)
        if flipped is words:
            return x
        return flipped.view(np.float64).reshape(x.shape)

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "lut_rate": self.lut_rate,
            "op_rate": self.op_rate,
            "activation_rate": self.activation_rate,
            "lut_tables": sorted(self.lut_tables) if self.lut_tables is not None else None,
            "ops": sorted(self.ops) if self.ops is not None else None,
        }

    def __repr__(self):
        return (
            f"FaultPlan(seed={self.seed}, lut_rate={self.lut_rate}, "
            f"op_rate={self.op_rate}, activation_rate={self.activation_rate})"
        )


def apply_code_faults(plan: Optional[FaultPlan], backend_name: str, op: str, codes: np.ndarray, width: int):
    """None-safe backend hook: corrupt an op's output codes per ``plan``.

    Every backend calls this on the result of ``add``/``mul``/``matmul``;
    with no plan (the default) it is a two-comparison no-op.
    """
    if plan is None or plan.op_rate <= 0.0:
        return codes
    if plan.ops is not None and op not in plan.ops:
        return codes
    return plan.flip_bits(codes, width, plan.op_rate, f"op.{backend_name}.{op}")


# ----------------------------------------------------------------------
# Chaos: deterministic worker-failure injection
# ----------------------------------------------------------------------
class ChaosPlan:
    """Seeded worker-failure injection for parallel chaos testing.

    Decisions are a pure function of ``(seed, chunk index, attempt)``, so
    a chaos run is reproducible: the same chunks crash or stall every
    time.  ``attempts`` optionally restricts chaos to specific attempt
    numbers (e.g. ``(0,)`` makes every chunk fail once and then succeed on
    retry — the canonical retry-recovery test).

    Applied worker-side by :func:`repro.engine.parallel._worker_run`;
    ``crash`` hard-exits the worker process (breaking the pool, like a
    real segfault/OOM kill), ``slow`` sleeps ``slow_s`` seconds (tripping
    per-task timeouts when ``slow_s`` exceeds them).
    """

    __slots__ = ("seed", "crash_rate", "slow_rate", "slow_s", "attempts")

    def __init__(
        self,
        seed: int = 0,
        crash_rate: float = 0.0,
        slow_rate: float = 0.0,
        slow_s: float = 0.25,
        attempts: Optional[Iterable[int]] = None,
    ):
        self.seed = int(seed)
        self.crash_rate = _check_rate("crash_rate", crash_rate)
        self.slow_rate = _check_rate("slow_rate", slow_rate)
        if self.crash_rate + self.slow_rate > 1.0:
            raise ValueError("crash_rate + slow_rate must not exceed 1")
        self.slow_s = float(slow_s)
        self.attempts = tuple(attempts) if attempts is not None else None

    def decide(self, chunk_idx: int, attempt: int = 0) -> Optional[str]:
        """``"crash"``, ``"slow"`` or ``None`` for this (chunk, attempt)."""
        if self.attempts is not None and attempt not in self.attempts:
            return None
        rng = np.random.default_rng((self.seed, int(chunk_idx), int(attempt)))
        r = float(rng.random())
        if r < self.crash_rate:
            return "crash"
        if r < self.crash_rate + self.slow_rate:
            return "slow"
        return None

    def apply(self, chunk_idx: int, attempt: int = 0) -> Optional[str]:
        """Execute the decision worker-side (may not return)."""
        action = self.decide(chunk_idx, attempt)
        if action == "crash":
            os._exit(23)
        if action == "slow":
            time.sleep(self.slow_s)
        return action

    def apply_to_process(self, pid: int, chunk_idx: int, attempt: int = 0) -> Optional[str]:
        """Execute the decision against a *real* OS process by pid.

        The fabric-scale analogue of :meth:`apply`: ``crash`` SIGKILLs the
        process (the failure a supervisor must detect and restart),
        ``slow`` SIGSTOPs it for ``slow_s`` seconds then SIGCONTs (the
        stall a heartbeat detector must mark suspect — and forgive when
        the process resumes).  A pid that is already gone is a no-op:
        chaos raced the supervisor's restart, which is fine.
        """
        import signal as _signal

        action = self.decide(chunk_idx, attempt)
        if action is None:
            return None
        try:
            if action == "crash":
                os.kill(int(pid), _signal.SIGKILL)
                METRICS.inc("faults.process_kills")
            elif action == "slow":
                os.kill(int(pid), _signal.SIGSTOP)
                METRICS.inc("faults.process_stalls")
                try:
                    time.sleep(self.slow_s)
                finally:
                    os.kill(int(pid), _signal.SIGCONT)
        except ProcessLookupError:
            return None
        return action

    def __repr__(self):
        return (
            f"ChaosPlan(seed={self.seed}, crash_rate={self.crash_rate}, "
            f"slow_rate={self.slow_rate}, slow_s={self.slow_s})"
        )
