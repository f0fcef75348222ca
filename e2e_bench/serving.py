"""The daemon under test and the closed-loop load generator.

:class:`Daemon` boots a real ``python -m repro serve`` subprocess on a
store directory and stops it with SIGINT.  :class:`Client` is one
keep-alive HTTP connection.  The load loops run one thread per connection
as a closed loop: a connection sends its next request only after the
previous reply has arrived.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import QA, VIEW

#: Per-request socket timeout; a request slower than this is a failure.
REQUEST_TIMEOUT_S = 60.0

#: Long-poll wait the view follower asks for (the daemon caps it at 30).
POLL_WAIT_S = 2.0


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One ``repro serve`` subprocess on a store directory."""

    def __init__(self, root: pathlib.Path, store: pathlib.Path,
                 log: pathlib.Path, trace_out: Optional[pathlib.Path] = None):
        cmd = [sys.executable, "-m", "repro", "serve",
               "--db-path", str(store), "--port", "0"]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=str(root), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log)
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("listening on "):
            self.kill()
            raise DaemonError(f"daemon did not come up: {line!r}")
        return int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``) in MiB."""
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGINT, then wait; returns the exit code (kill on a hang)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
        self._close_pipes()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Client:
    """One keep-alive connection; every call returns (status, body)."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=REQUEST_TIMEOUT_S)

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
        """Status 0 means the request never got a reply (timeout, reset)."""
        data = None if body is None else json.dumps(body)
        try:
            self.conn.request(method, path, body=data,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return 0, None
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return 0, None

    def close(self) -> None:
        self.conn.close()


@dataclass
class Op:
    """One request as the client saw it."""

    kind: str              # answers | certain | facts | changes
    key: str               # the query text ("" for writes)
    t0: float
    t1: float
    status: int
    ok: bool = False       # verified correct (set by the checks)
    body: Any = None       # kept only where a later check needs it

    @property
    def latency_ms(self) -> float:
        return (self.t1 - self.t0) * 1000.0


@dataclass
class Recorder:
    """Every operation of one served phase, plus its time window."""

    ops: List[Op] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)
    checks_attempted: int = 0
    checks_failed: int = 0
    notes: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, ops: List[Op]) -> None:
        with self._lock:
            self.ops.extend(ops)

    def check(self, ok: bool, note: str) -> None:
        """Count one end-of-run check (durability, view composition)."""
        self.checks_attempted += 1
        if not ok:
            self.checks_failed += 1
            self.notes.append(note)

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.checks_attempted

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops) + self.checks_failed

    def measured(self, kind: str) -> List[Op]:
        """Ops of one kind that started inside the measured window."""
        lo, hi = self.window
        return [op for op in self.ops if op.kind == kind and lo <= op.t0 < hi]


def drive_reads(port: int, workload, judge: Callable[[Any, Op], bool],
                warmup_s: float, measure_s: float, rec: Recorder) -> None:
    """Closed-loop read mix, one thread per connection."""
    start = time.perf_counter()
    lo = start + warmup_s
    hi = lo + measure_s
    rec.window = (lo, hi)

    def connection(conn: int) -> None:
        client = Client(port)
        ops: List[Op] = []
        i = 0
        try:
            while time.perf_counter() < hi:
                req = workload.next_read(conn, i)
                i += 1
                t0 = time.perf_counter()
                status, body = client.call("POST", req.path, req.body())
                op = Op(req.shape, req.query, t0, time.perf_counter(), status)
                op.ok = status == 200 and judge(req, body)
                if status == 200:
                    op.body = {"elapsed_ms": body.get("elapsed_ms")}
                ops.append(op)
        finally:
            client.close()
            rec.add(ops)

    _run_threads([threading.Thread(target=connection, args=(c,))
                  for c in range(workload.connections)])


def drive_churn(port: int, workload, batches, view_since: int,
                warmup_s: float, measure_s: float, rec: Recorder) -> List[List]:
    """Writer + long-poll follower; returns the batches sent, in order.

    Facts and answers replies are kept whole so the checks can replay
    the batches on a mirror afterwards; judging them here would put
    mirror work inside the closed loop.
    """
    start = time.perf_counter()
    lo = start + warmup_s
    hi = lo + measure_s
    rec.window = (lo, hi)
    sent: List[List] = []
    writer_done = threading.Event()
    last_clock = [view_since]
    answers_body = {"query": QA, "free": ["p"]}

    def writer() -> None:
        client = Client(port)
        ops: List[Op] = []
        try:
            while time.perf_counter() < hi:
                batch = batches.next()
                sent.append(batch)
                t0 = time.perf_counter()
                status, body = client.call("POST", "/v1/facts", {"ops": batch})
                ops.append(Op("facts", "", t0, time.perf_counter(), status,
                              body=body))
                if status != 200:
                    break  # the mirror can no longer follow the store
                last_clock[0] = body["clock"]
                t0 = time.perf_counter()
                status, body = client.call("POST", "/v1/answers", answers_body)
                ops.append(Op("answers", QA, t0, time.perf_counter(), status,
                              body=body))
        finally:
            client.close()
            rec.add(ops)
            writer_done.set()

    def follower() -> None:
        client = Client(port)
        ops: List[Op] = []
        since = view_since
        try:
            while True:
                if writer_done.is_set() and since >= last_clock[0]:
                    break
                if time.perf_counter() > hi + 15.0:
                    break  # the checks count every window never received
                t0 = time.perf_counter()
                status, body = client.call(
                    "GET", f"/v1/views/{VIEW}/changes"
                           f"?since={since}&wait={POLL_WAIT_S}")
                ops.append(Op("changes", str(since), t0,
                              time.perf_counter(), status, body=body))
                if status != 200:
                    break
                since = body["version"]
        finally:
            client.close()
            rec.add(ops)

    _run_threads([threading.Thread(target=writer),
                  threading.Thread(target=follower)])
    return sent


def _run_threads(threads: List[threading.Thread]) -> None:
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def metrics(port: int) -> Dict[str, Any]:
    """One ``GET /v1/metrics`` snapshot (empty on failure)."""
    client = Client(port)
    try:
        status, body = client.call("GET", "/v1/metrics")
    finally:
        client.close()
    return body if status == 200 else {}
