"""repro.fog.store — per-node content store for computation results.

A bounded LRU cache keyed by computation name (see :mod:`repro.fog.names`).
Entries are immutable by construction — results are copied in, marked
read-only, and their :func:`~repro.engine.registry.array_digest` is pinned
at insertion — so a hit replays exactly the bytes the original execution
produced.  :meth:`get` re-verifies the pinned digest before serving (every
hit by default; every Nth hit with ``reverify_every=N``); an entry whose
bytes no longer match its name is dropped and counted
(``integrity_failures``) rather than served.

Eviction is LRU, but **admission** is pluggable: the store asks its
:class:`AdmissionPolicy` whether a candidate is worth the victims it would
evict.  :class:`AdmitAll` (policy ``"lru"``, the default) always says yes
— plain LRU, bit-for-bit the historical behavior.
:class:`CostAwareAdmission` (policy ``"costaware"``) keeps a TinyLFU-style
frequency sketch over interest names and admits only when the candidate's
``frequency x recompute-cost`` value beats each victim's, so a one-hit
wonder cannot evict an expensive, frequently re-requested result.  The
sketch ages by halving every ``sample_size`` touches, so admission
depends only on the access sequence — deterministic, replayable.

Entries also record the content digest of the kernel tables the producing
node executed over (when the registry had them resident), so a cached
result carries provenance: *which function, which inputs, which kernel
bytes* — plus the measured recompute cost the admission policy weighs.

All public methods are thread-safe: node processes serve concurrent
frames from a worker pool, and every one of them goes through the store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Union

import numpy as np

from ..engine.registry import array_digest

__all__ = [
    "AdmissionPolicy",
    "AdmitAll",
    "ContentStore",
    "CostAwareAdmission",
    "make_admission",
]


class _Entry:
    __slots__ = (
        "result",
        "digest",
        "kernel_digest",
        "nbytes",
        "cost",
        "hits_since_verify",
    )

    def __init__(
        self,
        result: np.ndarray,
        kernel_digest: Optional[str],
        cost: float = 1.0,
    ):
        frozen = np.array(result, copy=True)
        frozen.setflags(write=False)
        self.result = frozen
        self.digest = array_digest(frozen)
        self.kernel_digest = kernel_digest
        self.nbytes = int(frozen.nbytes)
        self.cost = float(cost)
        self.hits_since_verify = 0


# ----------------------------------------------------------------------
# Admission policies
# ----------------------------------------------------------------------
class AdmissionPolicy:
    """Decides whether a candidate entry may evict a victim.

    The store calls :meth:`record_get` on every lookup (hit or miss) so a
    policy can learn access frequencies, and :meth:`admit` once per victim
    an insertion would need to evict.  Policies see only names and costs —
    never bytes — so they cannot affect *what* is served, only *whether*
    it is cached: the reject-or-exact contract is out of their reach.
    """

    name = "base"

    def record_get(self, key: str) -> None:  # noqa: B027 — optional hook
        pass

    def admit(
        self,
        candidate: str,
        nbytes: int,
        cost: float,
        victim: str,
        victim_cost: float,
    ) -> bool:
        return True


class AdmitAll(AdmissionPolicy):
    """Classic LRU: every insertion is admitted, LRU victims always evicted."""

    name = "lru"


class CostAwareAdmission(AdmissionPolicy):
    """TinyLFU-style frequency-sketch admission weighted by recompute cost.

    Keeps a counting sketch of interest names (a plain dict here — node
    working sets are small enough that probabilistic compression would buy
    nothing).  Every ``sample_size`` touches, all counts halve (integer
    shift) and zeroes are dropped: recent popularity outweighs ancient
    history, and the sketch stays bounded.  A candidate is admitted over a
    victim iff ``freq(candidate) * cost(candidate)`` strictly exceeds
    ``freq(victim) * cost(victim)`` — a newcomer must prove it is worth
    more re-execution milliseconds saved than what it displaces.

    Parameters:
        sample_size: Touches between aging halvings (the sketch's window).
    """

    name = "costaware"

    def __init__(self, sample_size: int = 1024):
        if sample_size < 1:
            raise ValueError("sample_size must be positive")
        self.sample_size = int(sample_size)
        self._counts: Dict[str, int] = {}
        self._ops = 0
        self.ages = 0

    def _touch(self, key: str) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1
        self._ops += 1
        if self._ops >= self.sample_size:
            self._counts = {k: v >> 1 for k, v in self._counts.items() if v >> 1}
            self._ops = 0
            self.ages += 1

    def record_get(self, key: str) -> None:
        self._touch(key)

    def frequency(self, key: str) -> int:
        return self._counts.get(key, 0)

    def admit(
        self,
        candidate: str,
        nbytes: int,
        cost: float,
        victim: str,
        victim_cost: float,
    ) -> bool:
        self._touch(candidate)
        candidate_value = self.frequency(candidate) * max(float(cost), 1e-9)
        victim_value = self.frequency(victim) * max(float(victim_cost), 1e-9)
        return candidate_value > victim_value


def make_admission(
    policy: Union[None, str, AdmissionPolicy],
) -> AdmissionPolicy:
    """Resolve a policy name (``"lru"``/``"costaware"``) or instance.

    Strings construct a **fresh** instance so every store (one per fog
    node) gets its own sketch.
    """
    if policy is None:
        return AdmitAll()
    if isinstance(policy, AdmissionPolicy):
        return policy
    if policy == "lru":
        return AdmitAll()
    if policy == "costaware":
        return CostAwareAdmission()
    raise ValueError(f"unknown admission policy {policy!r}")


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ContentStore:
    """LRU content-addressed result cache with verified replay.

    Parameters:
        capacity_bytes: Result-byte budget; least-recently-used entries are
            evicted past it.  A single result larger than the budget is
            simply not cached.
        admission: An :class:`AdmissionPolicy`, a policy name, or ``None``
            for plain LRU.
        reverify_every: Re-hash a served entry against its pinned digest
            every Nth hit.  ``1`` (default) verifies every hit — the
            historical behavior; ``0`` disables reverification entirely
            (the digest is still pinned and still travels with carried
            results, so cross-node transfers stay verified).  Skipped and
            performed verifications are both counted.
    """

    def __init__(
        self,
        capacity_bytes: int = 16 << 20,
        admission: Union[None, str, AdmissionPolicy] = None,
        reverify_every: int = 1,
    ):
        if capacity_bytes < 1:
            raise ValueError("capacity_bytes must be positive")
        if reverify_every < 0:
            raise ValueError("reverify_every must be >= 0")
        self.capacity_bytes = int(capacity_bytes)
        self.admission = make_admission(admission)
        self.reverify_every = int(reverify_every)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self.resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.integrity_failures = 0
        self.admission_rejections = 0
        self.reverifications = 0
        self.reverify_skipped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    # ------------------------------------------------------------------
    def put(
        self,
        name: str,
        result: np.ndarray,
        kernel_digest: Optional[str] = None,
        cost: float = 1.0,
    ) -> bool:
        """Cache ``result`` under ``name``; False if rejected.

        Rejection means the result exceeded the byte budget outright, or
        the admission policy judged it not worth the LRU victims it would
        evict (counted in ``admission_rejections``).  Re-inserting an
        existing name refreshes its recency (the bytes are
        content-addressed, so any two correct producers wrote the same
        ones).  ``cost`` is the producer's measured recompute expense
        (milliseconds) — the currency cost-aware admission trades in.
        """
        entry = _Entry(result, kernel_digest, cost=cost)
        with self._lock:
            if entry.nbytes > self.capacity_bytes:
                return False
            old = self._entries.pop(name, None)
            if old is not None:
                self.resident_bytes -= old.nbytes
            while self.resident_bytes + entry.nbytes > self.capacity_bytes:
                victim_name = next(iter(self._entries))
                victim = self._entries[victim_name]
                if not self.admission.admit(
                    name, entry.nbytes, entry.cost, victim_name, victim.cost
                ):
                    # Not worth the eviction: restore nothing, cache
                    # nothing.  (A refreshed name was already removed
                    # above, but refreshes free exactly the bytes they
                    # need, so this branch is unreachable for them.)
                    self.admission_rejections += 1
                    return False
                del self._entries[victim_name]
                self.resident_bytes -= victim.nbytes
                self.evictions += 1
            self._entries[name] = entry
            self.resident_bytes += entry.nbytes
            self.insertions += 1
            return True

    def get(self, name: str) -> Optional[np.ndarray]:
        """The verified read-only result for ``name``, or ``None``.

        A hit refreshes recency; a digest mismatch (bit rot, a buggy
        producer mutating shared memory) drops the entry and reports a
        miss — the fog must re-execute rather than serve corrupt bytes.
        With ``reverify_every=N`` the re-hash runs on every Nth hit per
        entry; skipped checks are counted in ``reverify_skipped``.
        """
        with self._lock:
            self.admission.record_get(name)
            entry = self._entries.get(name)
            if entry is None:
                self.misses += 1
                return None
            entry.hits_since_verify += 1
            if self.reverify_every and entry.hits_since_verify >= self.reverify_every:
                entry.hits_since_verify = 0
                self.reverifications += 1
                if array_digest(entry.result) != entry.digest:
                    del self._entries[name]
                    self.resident_bytes -= entry.nbytes
                    self.integrity_failures += 1
                    self.misses += 1
                    return None
            else:
                self.reverify_skipped += 1
            self._entries.move_to_end(name)
            self.hits += 1
            return entry.result

    def kernel_digest(self, name: str) -> Optional[str]:
        """The kernel provenance recorded for ``name`` (no recency effect)."""
        with self._lock:
            entry = self._entries.get(name)
            return entry.kernel_digest if entry is not None else None

    def cost(self, name: str) -> Optional[float]:
        """The recompute cost recorded for ``name`` (no recency effect)."""
        with self._lock:
            entry = self._entries.get(name)
            return entry.cost if entry is not None else None

    def clear(self) -> None:
        """Drop every entry (node crash / memory loss); stats survive."""
        with self._lock:
            self._entries.clear()
            self.resident_bytes = 0

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "resident_bytes": self.resident_bytes,
                "capacity_bytes": self.capacity_bytes,
                "policy": self.admission.name,
                "reverify_every": self.reverify_every,
                "hits": self.hits,
                "misses": self.misses,
                "insertions": self.insertions,
                "evictions": self.evictions,
                "integrity_failures": self.integrity_failures,
                "admission_rejections": self.admission_rejections,
                "reverifications": self.reverifications,
                "reverify_skipped": self.reverify_skipped,
            }
