"""Server process lifecycle and the asyncio load generator.

:class:`Lifecycle` owns every server process a run starts.  Each server is
launched in its own session (process group), so fabric node processes it
spawns are reaped with it; :meth:`Lifecycle.close` stops them on success,
error, interrupt and watchdog expiry alike, then checks that no process of
those groups and no new ``/dev/shm/psm_*`` segment is left.

:class:`LoadGen` drives one server over at most two pipelined NDJSON
connections from a single asyncio loop: a closed loop that keeps a fixed
number of requests in flight, and an open loop that sends on a fixed-rate
schedule and times each request from its scheduled send time.  Responses
are only timestamped while a phase runs; they are parsed and checked
against the reference answers after it ends.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from streams import Item, Stream, check_answer

_LISTEN_RE = re.compile(rb"listening on ([0-9.]+):(\d+)")
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
#: Longest a phase may wait for its outstanding answers.
PHASE_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The run cannot produce a valid measurement."""


# ----------------------------------------------------------------------
# /proc helpers
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    # Fields after the parenthesised command name (which may hold spaces).
    return raw[raw.rindex(b")") + 2 :].decode().split()


def group_pids(pgid: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields and int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(entry))
    return out


def group_cpu_s(pgid: int) -> float:
    """User + system CPU seconds of every live process in the group."""
    total = 0
    for pid in group_pids(pgid):
        fields = _stat_fields(pid)
        if fields:
            total += int(fields[11]) + int(fields[12])
    return total * _TICK_S


def group_peak_rss_mb(pgid: int) -> float:
    """Sum of each group member's peak resident set (``VmHWM``)."""
    total_kb = 0
    for pid in group_pids(pgid):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def http_get(port: int, path: str, timeout: float = 5.0) -> str:
    """Body of one HTTP/1.0 GET against the server's scrape plane."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\nHost: bench\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0] + b" ":
        raise BenchError(f"GET {path}: {head[:80]!r}")
    return body.decode()


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
class ServerProc:
    """One ``repro.serve`` process (optionally under the traced launcher)."""

    def __init__(self, argv: List[str], env: dict, log_path: str):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.launched_s = time.monotonic()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.port: Optional[int] = None

    def wait_ready(self, timeout_s: float) -> None:
        """Read the bound port from stdout, then poll ``/healthz``."""
        deadline = time.monotonic() + timeout_s
        buf = b""
        while self.port is None:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise BenchError(f"server did not start; see {self.log_tail()}")
            ready, _, _ = select.select([self.proc.stdout], [], [], min(left, 0.5))
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(f"server exited early: {self.log_tail()}")
                buf += chunk
                match = _LISTEN_RE.search(buf)
                if match:
                    self.port = int(match.group(2))
        while True:
            try:
                if http_get(self.port, "/healthz", timeout=1.0).strip() == "ok":
                    return
            except (OSError, BenchError):
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError(f"/healthz never answered: {self.log_tail()}")
            time.sleep(0.02)

    def log_tail(self) -> str:
        self._log.flush()
        try:
            with open(self.log_path, "rb") as fh:
                return fh.read()[-2000:].decode(errors="replace")
        except OSError:
            return "(no log)"

    def stop(self, grace_s: float = 20.0) -> bool:
        """SIGINT, then SIGKILL the whole group; True if it exited cleanly."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                clean = False
        deadline = time.monotonic() + (5.0 if clean else 0.0)
        while group_pids(self.pgid):
            if time.monotonic() >= deadline:
                clean = False
                self.kill()
                deadline = time.monotonic() + 1.0
            time.sleep(0.05)
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return clean

    def kill(self) -> None:
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


class Lifecycle:
    """Tracks every server a run starts; reaps them and audits leftovers."""

    def __init__(self, root: str, out_dir: str, watchdog_s: float):
        self.root = root
        self.out_dir = out_dir
        self.servers: List[ServerProc] = []
        self.pgids: List[int] = []
        self.unclean_stops = 0
        self._shm_before = shm_segments()
        self._count = 0
        self._watchdog = threading.Timer(watchdog_s, self._expire)
        self._watchdog.daemon = True
        self._watchdog.start()

    def _expire(self) -> None:
        for server in list(self.servers):
            server.kill()
        sys.stderr.write("perfbench: watchdog expired, servers killed\n")
        sys.stderr.flush()
        os._exit(3)

    def env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        # Kernel tables are built at start-up on every boot: the registry's
        # disk cache stays off so set-up time means the same on every run.
        env.pop("REPRO_ENGINE_CACHE", None)
        return env

    def launch(self, serve_args: List[str], trace_out: Optional[str] = None) -> ServerProc:
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.serve"]
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_server.py")
            argv = [sys.executable, launcher, trace_out]
        self._count += 1
        log = os.path.join(self.out_dir, f"server-{os.getpid()}-{self._count}.log")
        server = ServerProc(argv + ["--port", "0"] + serve_args, self.env(), log)
        self.servers.append(server)
        self.pgids.append(server.pgid)
        return server

    def stop(self, server: ServerProc) -> None:
        if not server.stop():
            self.unclean_stops += 1
        self.servers.remove(server)
        try:
            os.remove(server.log_path)
        except OSError:
            pass

    def close(self) -> List[str]:
        """Stop everything still running; return what was left behind."""
        self._watchdog.cancel()
        problems = []
        for server in list(self.servers):
            self.stop(server)
        left = [pid for pgid in self.pgids for pid in group_pids(pgid)]
        if left:
            problems.append(f"server processes left behind: {left}")
        leaked = shm_segments() - self._shm_before
        if leaked:
            problems.append(f"shared-memory segments left: {sorted(leaked)}")
        return problems


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Client-side ledger of one phase, after checking every answer."""

    sent: int = 0
    ok: int = 0
    wrong: int = 0
    failed: int = 0
    refused: int = 0
    latencies_ms: List[float] = field(default_factory=list)  # open loop
    slo_met: int = 0
    lag_ms: List[float] = field(default_factory=list)  # open loop
    window_s: float = 0.0
    errors: Dict[str, int] = field(default_factory=dict)
    items_seen: set = field(default_factory=set)

    @property
    def correct(self) -> int:
        return self.ok - self.wrong

    def balanced(self) -> bool:
        return self.sent == self.ok + self.failed + self.refused


class _Conn:
    def __init__(self, gen: "LoadGen", reader, writer):
        self.gen = gen
        self.reader = reader
        self.writer = writer
        self.task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    return
                self.gen.on_line(line, self)
        except (ConnectionError, asyncio.IncompleteReadError):
            return


class LoadGen:
    """Closed- and open-loop phases against one server.

    Request ids are ``<phase tag><sequence>``; the send order of measured
    items continues across phases from the stream's pre-drawn ``order``.
    """

    def __init__(self, stream: Stream, port: int, conns: int = 2):
        self.stream = stream
        self.port = port
        self.n_conns = conns
        self.conns: List[_Conn] = []
        self._cursor = 0
        self._seq = 0
        self._tag = ""
        #: Every send of the current phase: id -> (item, scheduled_s).
        self._sent: Dict[bytes, Tuple[Item, float]] = {}
        self._pending: set = set()
        self._records: List[Tuple[bytes, float, bytes]] = []
        #: While set (closed loop), each answer triggers the next send,
        #: drawn from ``_refill_pool`` (``None`` = the measured order),
        #: until ``_budget`` more requests have been sent.
        self._refill = False
        self._budget = 0
        self._refill_pool: Optional[List[Item]] = None
        self._drained: Optional[asyncio.Event] = None

    async def connect(self) -> None:
        for _ in range(self.n_conns):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port, limit=1 << 22)
            self.conns.append(_Conn(self, reader, writer))

    async def close(self) -> None:
        for conn in self.conns:
            conn.writer.close()
        for conn in self.conns:
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            conn.task.cancel()
            try:
                await conn.task
            except asyncio.CancelledError:
                pass
        self.conns = []

    # -- sending ---------------------------------------------------------
    def _next_item(self, pool: Optional[List[Item]]) -> Item:
        if pool is not None:
            return pool[self._seq % len(pool)]
        order = self.stream.order
        item = self.stream.items[order[self._cursor % len(order)]]
        self._cursor += 1
        return item

    def _send(self, conn: _Conn, item: Item, scheduled_s: float) -> float:
        self._seq += 1
        rid = f"{self._tag}{self._seq}"
        key = rid.encode()
        self._sent[key] = (item, scheduled_s)
        self._pending.add(key)
        conn.writer.write(item.line(rid))
        return time.monotonic()

    def on_line(self, line: bytes, conn: _Conn) -> None:
        now = time.monotonic()
        if line.startswith(b'{"id":"'):
            rid = line[7 : line.index(b'"', 7)]
        else:
            try:
                rid = str(json.loads(line).get("id", "")).encode()
            except ValueError:
                return
        if rid not in self._pending:
            return
        self._pending.discard(rid)
        self._records.append((rid, now, line))
        if self._refill and self._budget > 0:
            self._budget -= 1
            self._send(conn, self._next_item(self._refill_pool), now)
        if not self._pending and self._drained is not None:
            self._drained.set()

    async def _drain(self, timeout_s: float) -> None:
        if self._pending:
            self._drained = asyncio.Event()
            try:
                await asyncio.wait_for(self._drained.wait(), timeout_s)
            except asyncio.TimeoutError:
                pass
            self._drained = None

    def _begin(self, tag: str) -> None:
        self._tag = tag
        self._sent = {}
        self._pending = set()
        self._records = []

    def _settle(self, window_s: float, slo_ms: Optional[float]) -> Outcome:
        """Check every answer of the phase against its reference."""
        out = Outcome(sent=len(self._sent), window_s=window_s)
        for rid, recv_s, line in self._records:
            item, sched_s = self._sent[rid]
            obj = json.loads(line)
            if not obj.get("ok"):
                code = str(obj.get("error"))
                out.errors[code] = out.errors.get(code, 0) + 1
                if code == "rejected":
                    out.refused += 1
                else:
                    out.failed += 1
                continue
            out.ok += 1
            if not check_answer(item, obj):
                out.wrong += 1
                continue
            if slo_ms is not None:
                lat = (recv_s - sched_s) * 1e3
                out.latencies_ms.append(lat)
                if lat <= slo_ms:
                    out.slo_met += 1
        if self._pending:  # sent but never answered within the drain timeout
            out.failed += len(self._pending)
            out.errors["unanswered"] = len(self._pending)
        out.items_seen = {id(item) for item, _ in self._sent.values()}
        self._begin("")
        return out

    # -- phases ----------------------------------------------------------
    async def closed_phase(self, count: int, inflight: int, tag: str, pool: Optional[List[Item]] = None, probe=None) -> Tuple[Outcome, tuple]:
        """Send ``count`` requests keeping ``inflight`` outstanding.

        The phase is a fixed amount of work, not a fixed time: every run
        sends the same requests in each phase whatever the host's speed,
        so stateful layers (the fog's caches) see the same history.
        ``probe`` is called at the phase's start and end; its two return
        values come back with the outcome (the caller's CPU readings).
        """
        self._begin(tag)
        self._refill_pool = pool
        self._budget = count - min(inflight, count)
        self._refill = True
        marks = [probe() if probe else None]
        t0 = time.monotonic()
        for i in range(min(inflight, count)):
            self._send(self.conns[i % len(self.conns)], self._next_item(pool), t0)
        await self._drain(PHASE_TIMEOUT_S)
        self._refill = False
        t1 = time.monotonic()
        marks.append(probe() if probe else None)
        return self._settle(t1 - t0, None), tuple(marks)

    async def open_phase(self, seconds: float, rate: float, slo_ms: float, tag: str) -> Outcome:
        """Send at ``rate`` per second on a fixed schedule for ``seconds``."""
        self._begin(tag)
        n = max(1, int(seconds * rate))
        lags = []
        t0 = time.monotonic() + 0.005
        i = 0
        while i < n:
            now = time.monotonic()
            while i < n and t0 + i / rate <= now:
                sched_s = t0 + i / rate
                sent_s = self._send(self.conns[i % len(self.conns)], self._next_item(None), sched_s)
                lags.append((sent_s - sched_s) * 1e3)
                i += 1
            if i < n:
                await asyncio.sleep(max(0.0, t0 + i / rate - time.monotonic()))
        t1 = time.monotonic()
        await self._drain(PHASE_TIMEOUT_S)
        out = self._settle(t1 - t0, slo_ms)
        out.lag_ms = lags
        return out
