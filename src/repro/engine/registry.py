"""Process-wide kernel registry: build each format's tables exactly once.

Kernel tables are built with bit-parallel numpy kernels, a few thousand
lanes at a time: every served posit table (the 2**16-entry decode values,
a 256x256 add/mul pair, the 2**21-entry encode LUT) builds in tens of
milliseconds.  The registry memoizes construction per format key and can
optionally persist the arrays as ``.npz`` files, so parallel workers
*load* what their parent built instead of repeating the work.

Disk persistence is opt-in: set the ``REPRO_ENGINE_CACHE`` environment
variable to a directory, call :func:`enable_disk_cache`, or construct a
private :class:`KernelRegistry` with ``cache_dir`` (as the tests do with a
tmp dir).  Nothing is written to disk by default.

The registry also hosts the shared codec/table accessors that the rest of
the repo uses (:func:`get_codec`, :func:`get_posit_tables`), so repeated
quantized-network construction stops rebuilding identical 256x256 tables.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
import zipfile
import zlib
from pathlib import Path
from typing import Callable, Dict, Optional, Set

import numpy as np

from ..posit.format import PositFormat
from ..posit.tensor import TABLE_BUILD_CHUNK, PositCodec, PositTable
from .observe import METRICS, TRACER

__all__ = [
    "ENCODE_TABLE_TOP_BITS",
    "KernelRegistry",
    "REGISTRY",
    "array_digest",
    "enable_disk_cache",
    "get_codec",
    "get_encode_table",
    "get_posit_tables",
]

#: Builders return a dict of named numpy arrays — the only thing the
#: registry stores or persists.  Wrapper objects (codecs, tables) are
#: reconstructed from the arrays by the accessor functions below.
TableBuilder = Callable[[], Dict[str, np.ndarray]]


def _slug(key: tuple) -> str:
    """A filesystem-safe filename stem for a format key."""
    text = "_".join(str(part) for part in key)
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text)


#: Name of the integrity-digest array embedded in every flushed ``.npz``.
DIGEST_KEY = "__sha256__"

#: Exceptions that mean "this cache file cannot be parsed right now" —
#: either a half-written file from a concurrent writer (transient, cured by
#: the retry loop) or true corruption (quarantined after retries).
_LOAD_ERRORS = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, zlib.error)

#: Bounded exponential backoff for disk races: attempt, sleep, retry.
_IO_RETRIES = 3
_IO_BACKOFF_S = 0.01


def _io_backoff_s(attempt: int, token: str) -> float:
    """Jittered exponential disk-retry delay, pure function of its inputs.

    Lockstep backoff re-collides the very writers it is meant to separate:
    N processes that hit the same half-written file sleep the same
    ``base * 2**attempt`` and retry together.  The jitter factor in
    ``[0.5, 1.5)`` derives from ``crc32(token | attempt)`` — ``token`` is
    per-caller (pid + thread id), so colliding writers spread out, yet the
    schedule stays deterministic for tests.
    """
    h = zlib.crc32(f"{token}|{attempt}".encode()) & 0xFFFFFFFF
    return _IO_BACKOFF_S * (2 ** int(attempt)) * (0.5 + h / 2**32)


def _io_token() -> str:
    """The per-caller jitter token: this process and thread."""
    return f"{os.getpid()}.{threading.get_ident()}"


def _digest(tables: Dict[str, np.ndarray]) -> bytes:
    """sha256 over the sorted (name, dtype, shape, bytes) of every table."""
    h = hashlib.sha256()
    for name in sorted(tables):
        arr = np.ascontiguousarray(tables[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.digest()


def array_digest(arr: np.ndarray) -> str:
    """Hex sha256 content name of one array: dtype + shape + bytes.

    The building block of content addressing across the repo: the same
    scheme the disk cache's embedded integrity digest uses per table, so a
    tensor (or a kernel table) has exactly one name everywhere — two arrays
    share a digest iff they are bit-identical with the same dtype and shape.
    """
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


class KernelRegistry:
    """Memoizing (and optionally persisting) store of kernel tables.

    ``get(key, builder)`` returns the table dict for ``key``, building it at
    most once per process and round-tripping it through ``cache_dir`` when
    one is configured.  ``hits``/``misses`` count memo lookups —
    the "table hits/misses" of the engine's observability counters.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None, fault_plan=None):
        self._memo: Dict[tuple, Dict[str, np.ndarray]] = {}
        self._objects: Dict[tuple, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_loads = 0
        self.disk_writes = 0
        #: Disk entries rejected on load (bad checksum / truncated / stale /
        #: failed validation) and quarantined — each one also increments the
        #: ``registry.disk_integrity_failures`` metric.
        self.integrity_failures = 0
        #: Disk writes that failed even after retries (cache stays memory-only).
        self.disk_errors = 0
        #: Optional :class:`repro.engine.faults.FaultPlan` corrupting tables
        #: at ``get()`` time.  The memo (and anything flushed to disk) stays
        #: pristine; corruption is re-derived per call from the plan + table
        #: contents, so it is bit-identical in every process.
        self.fault_plan = fault_plan
        #: Per-directory set of keys known to be on disk already — what
        #: makes repeated ``flush_to_disk`` calls no-ops on unchanged tables.
        self._flushed: Dict[str, Set[tuple]] = {}
        env = os.environ.get("REPRO_ENGINE_CACHE")
        self.cache_dir: Optional[Path] = Path(cache_dir or env) if (cache_dir or env) else None

    # ------------------------------------------------------------------
    def get(
        self,
        key: tuple,
        builder: TableBuilder,
        validate: Optional[Callable[[Dict[str, np.ndarray]], bool]] = None,
    ) -> Dict[str, np.ndarray]:
        """The table dict for ``key``; built (or loaded from disk) once.

        ``validate`` is an optional structural check applied to disk-loaded
        tables (shape/dtype sanity); entries that fail it are quarantined
        and rebuilt like any other integrity failure.  When a
        :attr:`fault_plan` is attached, the returned dict is a corrupted
        *copy* — the memoized tables themselves stay pristine.
        """
        with self._lock:
            if key in self._memo:
                self.hits += 1
                METRICS.inc("registry.hits")
                return self._faulted(key, self._memo[key])
            self.misses += 1
            METRICS.inc("registry.misses")
            t0 = time.perf_counter()
            tables = self._load(key, validate)
            if tables is None:
                with TRACER.span("registry.build", key=_slug(key)):
                    tables = builder()
                self._store(key, tables)
                METRICS.inc(
                    "registry.bytes_built", sum(a.nbytes for a in tables.values())
                )
            else:
                self.disk_loads += 1
                METRICS.inc("registry.disk_loads")
                METRICS.inc(
                    "registry.bytes_loaded", sum(a.nbytes for a in tables.values())
                )
                METRICS.observe("registry.disk_load_s", time.perf_counter() - t0)
            self._memo[key] = tables
            return self._faulted(key, tables)

    def _faulted(self, key: tuple, tables: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Apply the attached fault plan (if any) to a pristine table dict."""
        plan = self.fault_plan
        if plan is None or getattr(plan, "lut_rate", 0.0) <= 0.0:
            return tables
        return plan.corrupt_tables(_slug(key), tables)

    def get_object(self, key: tuple, factory: Callable[[], object]) -> object:
        """Memoize an arbitrary object (codec wrappers, backends) per key."""
        with self._lock:
            if key in self._objects:
                self.hits += 1
                return self._objects[key]
            self.misses += 1
        obj = factory()  # build outside the lock: factories may call get()
        with self._lock:
            return self._objects.setdefault(key, obj)

    # ------------------------------------------------------------------
    def _path(self, key: tuple) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return Path(self.cache_dir) / f"{_slug(key)}.npz"

    def _load(
        self,
        key: tuple,
        validate: Optional[Callable[[Dict[str, np.ndarray]], bool]] = None,
    ) -> Optional[Dict[str, np.ndarray]]:
        """Load + integrity-check a cache entry; None means "rebuild".

        Parse failures are retried with bounded exponential backoff (a
        concurrent writer may be mid-``os.replace``); a file that still
        won't parse — or parses but fails its embedded sha256 digest,
        lacks one entirely (stale, pre-integrity format), or fails the
        structural ``validate`` hook — is quarantined and rebuilt.
        """
        path = self._path(key)
        if path is None or not path.exists():
            return None
        tables = None
        for attempt in range(_IO_RETRIES):
            try:
                with np.load(path) as data:
                    tables = {name: data[name] for name in data.files}
                break
            except _LOAD_ERRORS:
                if attempt + 1 < _IO_RETRIES:
                    time.sleep(_io_backoff_s(attempt, _io_token()))
        if tables is None:
            return self._integrity_failure(key, path, "unreadable")
        stored = tables.pop(DIGEST_KEY, None)
        if stored is None:
            return self._integrity_failure(key, path, "stale")
        if bytes(np.asarray(stored, dtype=np.uint8).tobytes()) != _digest(tables):
            return self._integrity_failure(key, path, "checksum")
        if validate is not None:
            try:
                ok = bool(validate(tables))
            except Exception:
                ok = False
            if not ok:
                return self._integrity_failure(key, path, "shape")
        return tables

    def _integrity_failure(self, key: tuple, path: Path, cause: str) -> None:
        """Quarantine a bad cache file, count it, and signal a rebuild."""
        self.integrity_failures += 1
        METRICS.inc("registry.disk_integrity_failures")
        METRICS.inc(f"registry.disk_integrity_failures.{cause}")
        quarantined = path.with_suffix(".npz.corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = None  # unreadable/unwritable dir: leave it be
        if TRACER.enabled:
            TRACER.record(
                "registry.integrity_failure",
                ts=time.perf_counter() - TRACER.epoch,
                dur=0.0,
                attrs={
                    "key": _slug(key),
                    "cause": cause,
                    "quarantined": str(quarantined) if quarantined else None,
                },
            )
        return None

    def _store(self, key: tuple, tables: Dict[str, np.ndarray]) -> None:
        path = self._path(key)
        if path is None:
            return
        if self._write(path, tables):
            self.disk_writes += 1
            METRICS.inc("registry.disk_writes")
        self._flushed.setdefault(str(Path(self.cache_dir)), set()).add(key)

    def _write(self, path: Path, tables: Dict[str, np.ndarray]) -> bool:
        """Atomically write ``tables`` (+ embedded sha256) to ``path``.

        The temp name is unique per writer (pid + thread), so two parallel
        workers flushing the same key never stomp each other's half-written
        bytes; ``os.replace`` makes the final rename atomic.  Transient
        I/O errors are retried with bounded exponential backoff; a write
        that still fails is counted (``disk_errors``) and swallowed — the
        cache degrades to memory-only rather than killing the run.
        """
        payload = dict(tables)
        payload[DIGEST_KEY] = np.frombuffer(_digest(tables), dtype=np.uint8)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        for attempt in range(_IO_RETRIES):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(tmp, "wb") as fh:  # file object: savez won't append .npz
                    np.savez_compressed(fh, **payload)
                os.replace(tmp, path)  # atomic against concurrent builders
                return True
            except OSError:
                try:
                    tmp.unlink()
                except OSError:
                    pass
                if attempt + 1 < _IO_RETRIES:
                    time.sleep(_io_backoff_s(attempt, _io_token()))
        self.disk_errors += 1
        METRICS.inc("registry.disk_errors")
        return False

    def flush_to_disk(self, cache_dir: Optional[os.PathLike] = None) -> int:
        """Persist every resident table dict as ``.npz`` under ``cache_dir``.

        ``cache_dir`` defaults to the registry's own cache directory.  This
        is how the parallel execution layer shares kernel tables across
        processes: the parent flushes whatever it has built, then spawned
        workers point their registry at the same directory and *load* the
        prebuilt tables instead of re-running the O(4**nbits) builders.

        Idempotent: entries already flushed to (or found on) ``target`` are
        remembered per directory, so repeated calls with no new resident
        tables — e.g. every :class:`~repro.engine.parallel.ParallelRunner`
        construction against one shared cache — do no disk work at all.
        Actual writes tick the ``disk_writes`` metric in :meth:`stats`.

        Returns the number of entries written (existing files are kept).
        """
        target = Path(cache_dir) if cache_dir is not None else self.cache_dir
        if target is None:
            raise ValueError("flush_to_disk needs a cache_dir (none configured)")
        with self._lock:
            resident = list(self._memo.items())
            flushed = self._flushed.setdefault(str(target), set())
            pending = [(k, t) for k, t in resident if k not in flushed]
        if not pending:
            return 0
        written = 0
        with TRACER.span("registry.flush_to_disk", dir=str(target), entries=len(pending)):
            for key, tables in pending:
                path = target / f"{_slug(key)}.npz"
                if not path.exists():
                    if self._write(path, tables):
                        written += 1
                        self.disk_writes += 1
                        METRICS.inc("registry.disk_writes")
                        METRICS.inc(
                            "registry.bytes_flushed",
                            sum(a.nbytes for a in tables.values()),
                        )
                with self._lock:
                    flushed.add(key)
        return written

    # ------------------------------------------------------------------
    # Content naming (the fog layer's kernel provenance hook)
    # ------------------------------------------------------------------
    def content_digest(self, key: tuple) -> Optional[str]:
        """Hex sha256 content name of the resident table dict for ``key``.

        ``None`` when ``key`` has no resident tables yet — content names
        exist only for tables that have actually been built or loaded, so a
        name can never refer to bytes this process has not seen.  The digest
        is the same one :meth:`_write` embeds in the ``.npz`` disk cache,
        which makes it a cross-process kernel identity: two nodes citing the
        same digest are provably executing over bit-identical tables.
        """
        with self._lock:
            tables = self._memo.get(key)
        if tables is None:
            return None
        return _digest(tables).hex()

    def content_names(self) -> Dict[str, str]:
        """``{format-key slug: hex digest}`` for every resident table dict.

        The registry's advertisement surface: :mod:`repro.fog` nodes publish
        these so routing and result caching can name the exact kernel bytes
        a computation ran over.
        """
        with self._lock:
            keys = list(self._memo)
        return {_slug(key): self.content_digest(key) for key in keys}

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_loads": self.disk_loads,
            "disk_writes": self.disk_writes,
            "integrity_failures": self.integrity_failures,
            "disk_errors": self.disk_errors,
            "resident_tables": len(self._memo),
        }

    def clear(self) -> None:
        """Drop all in-process memoized tables (disk cache untouched)."""
        with self._lock:
            self._memo.clear()
            self._objects.clear()
            self._flushed.clear()
            self.hits = self.misses = self.disk_loads = self.disk_writes = 0
            self.integrity_failures = self.disk_errors = 0


#: The process-wide registry every backend uses unless given a private one.
REGISTRY = KernelRegistry()


def enable_disk_cache(path: os.PathLike) -> None:
    """Point the process-wide registry at an on-disk ``.npz`` cache dir."""
    REGISTRY.cache_dir = Path(path)


# ----------------------------------------------------------------------
# Shared accessors (the module-level codec/table cache)
# ----------------------------------------------------------------------
def get_codec(fmt: PositFormat, registry: Optional[KernelRegistry] = None) -> PositCodec:
    """The shared :class:`PositCodec` for ``fmt``, built once per process.

    Keyed by ``(nbits, es)``: every ``PositQuantizedNetwork`` and posit
    backend constructed for the same format reuses one codec (and its
    sorted value tables) instead of decoding them again.
    """
    reg = registry if registry is not None else REGISTRY
    key = ("posit", fmt.nbits, fmt.es, "codec")

    def factory() -> PositCodec:
        def build() -> Dict[str, np.ndarray]:
            codec = PositCodec(fmt)
            return {"values": codec.values, "boundaries": codec.boundaries}

        def valid(tables: Dict[str, np.ndarray]) -> bool:
            values = tables.get("values")
            boundaries = tables.get("boundaries")
            if values is None or boundaries is None or values.ndim != 1:
                return False
            # One boundary between each adjacent pair of *finite* values
            # (NaR stores as NaN and is excluded from the rounding grid).
            finite = int(np.count_nonzero(~np.isnan(values)))
            return values.shape == (1 << fmt.nbits,) and boundaries.shape == (finite - 1,)

        tables = reg.get(("posit", fmt.nbits, fmt.es, "values"), build, validate=valid)
        return PositCodec(fmt, values=tables["values"], boundaries=tables["boundaries"])

    return reg.get_object(key, factory)


def get_posit_tables(
    fmt: PositFormat,
    registry: Optional[KernelRegistry] = None,
    max_bits: int = 10,
) -> PositTable:
    """The shared pairwise add/mul :class:`PositTable` for ``fmt``."""
    reg = registry if registry is not None else REGISTRY
    key = ("posit", fmt.nbits, fmt.es, "pairwise")

    def factory() -> PositTable:
        def valid(tables: Dict[str, np.ndarray]) -> bool:
            add, mul = tables.get("add"), tables.get("mul")
            n = 1 << fmt.nbits
            return (
                add is not None
                and mul is not None
                and add.shape == (n, n)
                and mul.shape == (n, n)
            )

        tables = reg.get(
            ("posit", fmt.nbits, fmt.es, "addmul"),
            lambda: _build_posit_pair_tables(fmt, max_bits),
            validate=valid,
        )
        return PositTable(
            fmt,
            tables=(tables["add"], tables["mul"]),
            codec=get_codec(fmt, reg),
        )

    return reg.get_object(key, factory)


def _build_posit_pair_tables(fmt: PositFormat, max_bits: int) -> Dict[str, np.ndarray]:
    table = PositTable(fmt, max_bits=max_bits)
    return {"add": table.add_table, "mul": table.mul_table}


# ----------------------------------------------------------------------
# Direct float64-bits -> posit-code encode tables (the fused path's LUT)
# ----------------------------------------------------------------------
#: Fraction bits of a float64 kept verbatim in an encode-table key.  The
#: key is ``sign(1) | biased exp(11) | top fraction bits | sticky(1)`` —
#: 21 bits, a 2 MiB uint8 table per <= 8-bit format.
ENCODE_TABLE_TOP_BITS = 8

#: Widest format an encode table covers.  The correctness condition is
#: that no posit rounding boundary distinguishes two doubles sharing a
#: key: boundaries of an ``nbits``-bit posit are values of the
#: ``(nbits+1)``-bit format, whose significands carry at most ``nbits - 1``
#: bits — i.e. <= 7 fraction bits for ``nbits <= 8``, strictly inside the
#: 8 kept bits, so every boundary is itself a key representative (tail
#: zero, sticky clear) and no truncation interval straddles one.
ENCODE_TABLE_MAX_BITS = 8


def get_encode_table(
    fmt: PositFormat, registry: Optional["KernelRegistry"] = None
) -> np.ndarray:
    """The shared float64-bits -> posit-code encode LUT for ``fmt``.

    Indexed by ``key = (bits >> 44) << 1 | (low 44 bits != 0)`` of the
    float64 bit pattern; the entry is exactly
    ``get_codec(fmt).encode(x)`` for every double mapping to that key
    (built by encoding one representative per key through the codec —
    one per (sign, exponent) row where the whole row rounds alike — so
    parity with the baseline encoder holds by construction plus the
    boundary argument above).  Registry-memoized and ``.npz``-cacheable
    like every other kernel table — this is the table the CI kernel-cache
    step keeps warm across runs.
    """
    if fmt.nbits > ENCODE_TABLE_MAX_BITS:
        raise ValueError(
            f"encode tables cover formats up to {ENCODE_TABLE_MAX_BITS} bits "
            f"(boundary significands must fit the kept fraction bits), got {fmt}"
        )
    reg = registry if registry is not None else REGISTRY
    f = ENCODE_TABLE_TOP_BITS
    nkey = 1 << (1 + 11 + f + 1)
    # Resolved up front: the registry lock is not reentrant, so the codec
    # (itself a registry entry) must not be fetched from inside build().
    codec = get_codec(fmt, reg)

    def encode_keys(keys: np.ndarray) -> np.ndarray:
        top = keys >> np.uint64(1)
        sticky = keys & np.uint64(1)
        # Representative double per key: kept bits verbatim, sticky classes
        # get one tail bit set (any nonzero tail rounds identically).
        rep_bits = (top << np.uint64(52 - f)) | (sticky << np.uint64(52 - f - 1))
        return codec.encode(rep_bits.view(np.float64)).astype(np.uint8)

    def build() -> Dict[str, np.ndarray]:
        # A row is every key sharing one (sign, exponent).  Outside the
        # format's scale range every double of a row rounds to the same
        # code (minpos, maxpos or NaR), so each row starts as its first
        # key's code; only the subnormal rows (zero vs minpos) and the rows
        # within 2 of the scale range are encoded key by key.
        row = 1 << (f + 1)
        rows = np.arange(1 << 12, dtype=np.uint64)
        table = np.repeat(encode_keys(rows * np.uint64(row)), row)
        scale = np.arange(1 << 11) - 1023
        band = np.flatnonzero(
            (scale == -1023) | ((scale >= fmt.min_scale - 2) & (scale <= fmt.max_scale + 2))
        ).astype(np.uint64)
        full = np.concatenate([band, band + np.uint64(1 << 11)])  # both signs
        step = max(1, TABLE_BUILD_CHUNK // row)
        lane = np.arange(row, dtype=np.uint64)
        for i in range(0, len(full), step):
            keys = (full[i : i + step, None] * np.uint64(row) + lane).ravel()
            table[keys] = encode_keys(keys)
        return {"encode": table}

    def valid(tables: Dict[str, np.ndarray]) -> bool:
        table = tables.get("encode")
        return (
            table is not None
            and table.dtype == np.uint8
            and table.shape == (nkey,)
        )

    return reg.get(("posit", fmt.nbits, fmt.es, "encode-lut"), build, validate=valid)[
        "encode"
    ]
