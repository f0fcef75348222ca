"""One served phase: set up a store and daemon, drive a workload, check it.

Every reply is checked against a direct ``compiled`` library call on an
in-process mirror of the store at the reply's clock.  A wrong answer is
a failed operation, however fast it came back.
"""

from __future__ import annotations

import bisect
import pathlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
from repro.db.database import Database
from repro.serve.protocol import answers_digest, row_from_wire
from repro.storage import PersistentDatabase

from serving import (
    POLL_WAIT_S,
    REQUEST_TIMEOUT_S,
    Client,
    Daemon,
    DaemonError,
    Op,
    Recorder,
    drive_churn,
    drive_reads,
    metrics,
)
from workloads import QA, VIEW, ChurnBatches, Request, Workload, apply_batch

#: Unmeasured lead-in of every phase (connections open, caches fill).
WARMUP_S = 1.0

#: Equal sub-windows a measured window is split into; a latency or
#: throughput figure is the median of the sub-windows' figures.
SEGMENTS = 6

Rows = FrozenSet[Tuple]


def seed_store(path: pathlib.Path, db: Database) -> None:
    """Write the workload's seed facts into a fresh durable store."""
    store = PersistentDatabase(path)
    try:
        for schema in db.schemas.values():
            store.add_relation(schema)
        with store.batch():
            for name in db.relations():
                store.add_all(name, db.facts(name))
        store.checkpoint()
    finally:
        store.close()


def oracle_rows(db: Database, text: str, free: Tuple[str, ...]) -> Rows:
    """The reference answer set: a direct ``compiled`` library call."""
    oq = OpenQuery(parse_query(text), tuple(Variable(n) for n in free))
    return certain_answers(oq, db, "compiled")


def oracle_bit(db: Database, text: str) -> bool:
    return bool(CertaintyEngine(parse_query(text)).certain(db, "compiled"))


def answers_match(body: Any, rows: Rows, digest: str) -> bool:
    """Digest, count and the rows themselves all equal the reference."""
    try:
        return (body["digest"] == digest and body["count"] == len(rows)
                and len(body["answers"]) == len(rows)
                and set(map(row_from_wire, body["answers"])) == rows)
    except (KeyError, TypeError):
        return False


class Expected:
    """Reference answers of a read-only workload (its store never moves)."""

    def __init__(self, workload: Workload):
        self.answers: Dict[str, Tuple[Rows, str]] = {}
        self.certain: Dict[str, bool] = {}
        for req in workload.instances["answers"]:
            rows = oracle_rows(workload.db, req.query, req.free)
            self.answers[req.query] = (rows, answers_digest(rows))
        for req in workload.instances.get("certain", []):
            self.certain[req.query] = oracle_bit(workload.db, req.query)

    def judge(self, req: Request, body: Any) -> bool:
        if req.shape == "answers":
            rows, digest = self.answers[req.query]
            return answers_match(body, rows, digest)
        return isinstance(body, dict) and \
            body.get("certain") is self.certain[req.query]


@dataclass
class Session:
    """A seeded store with its daemon, right after set-up."""

    store: pathlib.Path
    daemon: Daemon
    setup_s: float
    rec: Recorder
    batches: Optional[ChurnBatches] = None
    sent: List[List] = field(default_factory=list)
    view_version: int = 0       # the view's version at registration
    poll_since: int = 0         # where the follower resumes
    view_digest: str = ""       # the registration reply's digest
    routes: Dict[str, str] = field(default_factory=dict)


def _require(status: int, what: str) -> None:
    if status != 200:
        raise DaemonError(f"set-up request {what} failed with status {status}")


def setup(workload: Workload, root: pathlib.Path, work: pathlib.Path,
          tag: str, expected: Optional[Expected], daemons: List[Daemon],
          trace_out: Optional[pathlib.Path] = None) -> Session:
    """Seed, boot, register the view and get one reply per request shape.

    The whole of this is ``setup_s``.  Replies are judged like any
    other operation (read-only shapes here, churn shapes afterwards).
    The daemon is appended to *daemons* so the caller can always stop it.
    """
    rec = Recorder()
    store = work / f"store-{tag}"
    t0 = time.perf_counter()
    seed_store(store, workload.db)
    daemon = Daemon(root, store, work / f"daemon-{tag}.log", trace_out)
    daemons.append(daemon)
    session = Session(store, daemon, 0.0, rec)
    client = Client(daemon.port)
    try:
        if workload.writes:
            _setup_churn(workload, session, client)
        else:
            for shape in ("certain", "answers"):
                if shape not in workload.instances:
                    continue
                req = workload.instances[shape][0]
                s0 = time.perf_counter()
                status, body = client.call("POST", req.path, req.body())
                _require(status, req.path)
                op = Op(shape, req.query, s0, time.perf_counter(), status)
                assert expected is not None
                op.ok = expected.judge(req, body)
                rec.add([op])
        session.setup_s = time.perf_counter() - t0
    finally:
        client.close()
    return session


def _setup_churn(workload: Workload, session: Session, client: Client) -> None:
    rec = session.rec
    status, body = client.call("POST", "/v1/views",
                               {"name": VIEW, "query": QA, "free": ["p"]})
    _require(status, "/v1/views")
    session.view_version = body["version"]
    session.view_digest = body["digest"]
    session.batches = ChurnBatches(workload.db, workload.people,
                                   workload.towns, workload.seed)
    batch = session.batches.next()
    session.sent.append(batch)
    t0 = time.perf_counter()
    status, body = client.call("POST", "/v1/facts", {"ops": batch})
    _require(status, "/v1/facts")
    rec.add([Op("facts", "", t0, time.perf_counter(), status, body=body)])
    t0 = time.perf_counter()
    status, answers = client.call("POST", "/v1/answers",
                                  {"query": QA, "free": ["p"]})
    _require(status, "/v1/answers")
    rec.add([Op("answers", QA, t0, time.perf_counter(), status, body=answers)])
    t0 = time.perf_counter()
    status, window = client.call(
        "GET", f"/v1/views/{VIEW}/changes"
               f"?since={session.view_version}&wait={POLL_WAIT_S}")
    _require(status, "changes")
    rec.add([Op("changes", str(session.view_version), t0,
                time.perf_counter(), status, body=window)])
    session.poll_since = window["version"]


def route_probe(workload: Workload, session: Session,
                expected: Optional[Expected]) -> None:
    """Which backend ``auto`` picks per read shape, from counter deltas."""
    client = Client(session.daemon.port)
    try:
        for shape, instances in workload.instances.items():
            req = instances[0]
            before = metrics(session.daemon.port)
            t0 = time.perf_counter()
            status, body = client.call("POST", req.path, req.body())
            op = Op(shape, req.query, t0, time.perf_counter(), status)
            after = metrics(session.daemon.port)
            if expected is not None:
                op.ok = status == 200 and expected.judge(req, body)
            else:  # churn: judged with the other replies by check_churn
                op.body = body
            session.rec.add([op])
            session.routes[shape] = routed_backend(before, after)
    finally:
        client.close()


def counter(snapshot: Dict[str, Any], *path: str) -> float:
    """One counter out of a ``/v1/metrics`` document (0 when absent)."""
    node: Any = snapshot
    for key in path:
        if not isinstance(node, dict):
            return 0.0
        node = node.get(key, 0)
    return float(node) if isinstance(node, (int, float)) else 0.0


def routed_backend(before: Dict[str, Any], after: Dict[str, Any]) -> str:
    def delta(*path: str) -> float:
        return counter(after, *path) - counter(before, *path)

    if delta("engine", "storage", "pushdown", "routed_sql") > 0:
        return "sql"
    if delta("engine", "columnar", "auto_routed") > 0:
        return "columnar"
    if delta("engine", "parallel", "runs") > 0:
        return "parallel"
    return "compiled"


@dataclass
class PhaseResult:
    """What one measured phase produced."""

    rec: Recorder
    rss_mb: float
    routes: Dict[str, str]
    counters: Tuple[Dict[str, Any], Dict[str, Any]]
    view_lag_ms: List[Tuple[float, float]] = field(default_factory=list)
    final_rows: Optional[Rows] = None
    ops_written: int = 0
    batches_written: int = 0
    changes_probe: Dict[str, Any] = field(default_factory=dict)

    def latencies(self, kind: str) -> List[float]:
        return [lat for seg in self.segments(kind) for lat in seg]

    def segments(self, kind: str) -> List[List[float]]:
        """Latencies of one kind, split into SEGMENTS equal sub-windows."""
        lo, hi = self.rec.window
        width = (hi - lo) / SEGMENTS
        out: List[List[float]] = [[] for _ in range(SEGMENTS)]
        if kind == "view_lag":
            timed = self.view_lag_ms
        else:
            # A failed request counts as missing any latency limit.
            limit = REQUEST_TIMEOUT_S * 1000.0
            timed = [(op.t0, op.latency_ms if op.ok
                      else max(op.latency_ms, limit))
                     for op in self.rec.measured(kind)]
        for t0, ms in timed:
            out[min(int((t0 - lo) / width), SEGMENTS - 1)].append(ms)
        return out

    def percentile(self, kind: str, q: float) -> Optional[float]:
        """Median over the sub-windows of each one's q-quantile.

        Short bursts of load from other tenants of the host slow one
        sub-window, not the median of six.
        """
        values = [percentile(seg, q) for seg in self.segments(kind) if seg]
        return statistics.median(values) if values else None

    def throughput_rps(self) -> float:
        """Correct non-poll replies per second, median over sub-windows.

        A sub-window's rate counts the intervals between the send times
        of the correct requests sent in it, over the time they span.
        """
        lo, hi = self.rec.window
        width = (hi - lo) / SEGMENTS
        starts: List[List[float]] = [[] for _ in range(SEGMENTS)]
        for kind in ("answers", "certain", "facts"):
            for op in self.rec.measured(kind):
                if op.ok:
                    starts[min(int((op.t0 - lo) / width),
                               SEGMENTS - 1)].append(op.t0)
        rates = [(len(ts) - 1) / (max(ts) - min(ts))
                 for ts in starts if len(ts) > 1 and max(ts) > min(ts)]
        return statistics.median(rates) if rates else 0.0


def run_phase(workload: Workload, session: Session, measure_s: float,
              expected: Optional[Expected],
              changes_probe: bool = False) -> PhaseResult:
    """Drive the workload on a set-up session, stop it, check it all."""
    rec = session.rec
    port = session.daemon.port
    route_probe(workload, session, expected)
    before = metrics(port)
    written: List[List] = []
    if workload.writes:
        assert session.batches is not None
        written = drive_churn(port, workload, session.batches,
                              session.poll_since, WARMUP_S, measure_s, rec)
        session.sent += written
    else:
        assert expected is not None
        drive_reads(port, workload, expected.judge, WARMUP_S, measure_s, rec)
    after = metrics(port)
    result = PhaseResult(rec, 0.0, dict(session.routes),
                         (before, after),
                         ops_written=sum(map(len, written)),
                         batches_written=len(written))
    if changes_probe:
        result.changes_probe = _changes_probe(port)
    finish(workload, session, result)
    return result


def finish(workload: Workload, session: Session,
           result: Optional[PhaseResult] = None) -> None:
    """Stop the daemon with SIGINT and run the end-of-phase checks."""
    if result is None:  # a set-up that is not measured further
        result = PhaseResult(session.rec, 0.0, {}, ({}, {}))
    view_digest = _served_view_digest(session.daemon.port) \
        if workload.writes else None
    result.rss_mb = session.daemon.peak_rss_mb()
    code = session.daemon.stop()
    session.rec.check(code == 0, f"daemon exited with {code}")
    if workload.writes:
        check_churn(workload, session, result, view_digest)


def _served_view_digest(port: int) -> Optional[str]:
    client = Client(port)
    try:
        status, body = client.call("GET", "/v1/views")
    finally:
        client.close()
    if status != 200:
        return None
    for view in body.get("views", []):
        if view.get("name") == VIEW:
            return view.get("digest")
    return None


#: Immediate (``wait=0``) changes requests the traced write-churn run
#: sends to time the changes handler on its own.
CHANGES_PROBES = 20


def _changes_probe(port: int) -> Dict[str, Any]:
    """Request ids and digest-field presence of immediate changes replies."""
    client = Client(port)
    ids: List[str] = []
    has_digest = False
    try:
        status, body = client.call("GET", "/v1/views")
        version = next(v["version"] for v in body["views"]
                       if v["name"] == VIEW)
        for _ in range(CHANGES_PROBES):
            status, body = client.call(
                "GET", f"/v1/views/{VIEW}/changes?since={version - 1}&wait=0")
            if status == 200:
                ids.append(body["request_id"])
                has_digest = has_digest or "digest" in body
    finally:
        client.close()
    return {"request_ids": ids, "has_digest": has_digest}


def check_churn(workload: Workload, session: Session, result: PhaseResult,
                served_view_digest: Optional[str]) -> None:
    """Replay the batches on a mirror and judge every churn reply.

    * each facts reply must report the batch applied in full;
    * each answers reply must equal the mirror at the reply's clock;
    * the changes windows, composed from the registration answers,
      must equal the mirror at every window's version and end at the
      daemon's final view digest;
    * every batch's clock must be covered by some window (else a
      missed window);
    * after SIGINT the reopened store must hold the mirror's facts.
    """
    rec = session.rec
    mirror = workload.db.copy()
    states: Dict[int, Rows] = {session.view_version: oracle_rows(mirror, QA, ("p",))}
    # One connection writes, so send order is batch order.
    facts = sorted((op for op in rec.ops if op.kind == "facts"),
                   key=lambda op: op.t0)
    clocks: List[int] = []
    for op, batch in zip(facts, session.sent):
        apply_batch(mirror, batch)
        body = op.body if isinstance(op.body, dict) else {}
        adds = sum(o["op"] == "+" for o in batch)
        op.ok = (op.status == 200 and body.get("applied") == len(batch)
                 and body.get("inserted") == adds
                 and body.get("deleted") == len(batch) - adds)
        if op.status != 200:
            break
        clocks.append(body["clock"])
        states[body["clock"]] = oracle_rows(mirror, QA, ("p",))
    rec.check(len(clocks) == len(session.sent),
              "a facts batch was not applied; the mirror stopped following")
    rec.check(answers_digest(states[session.view_version])
              == session.view_digest, "view registration digest differs")

    for op in rec.ops:
        if op.kind != "answers" or not isinstance(op.body, dict):
            continue
        rows = states.get(op.body.get("clock"))
        op.ok = (op.status == 200 and rows is not None
                 and answers_match(op.body, rows, answers_digest(rows)))
        op.body = {"elapsed_ms": op.body.get("elapsed_ms")}

    composed = states[session.view_version]
    versions: List[int] = []
    received: List[float] = []
    for op in sorted((op for op in rec.ops if op.kind == "changes"),
                     key=lambda op: op.t0):
        body = op.body if isinstance(op.body, dict) else {}
        if op.status != 200:
            op.ok = False
            continue
        composed = (composed - set(map(row_from_wire, body["deleted"]))) \
            | set(map(row_from_wire, body["inserted"]))
        version = body["version"]
        op.ok = states.get(version) == composed
        versions.append(version)
        received.append(op.t1)
        op.body = None
    result.final_rows = composed
    final = states[clocks[-1]] if clocks else states[session.view_version]
    rec.check(composed == final and served_view_digest == answers_digest(final),
              "changes windows do not compose to the final view digest")

    # View lag: from sending a batch to receiving the first window
    # whose version covers the batch's clock.
    for op, clock in zip(facts, clocks):
        i = bisect.bisect_left(versions, clock)
        if i == len(versions):
            rec.check(False, f"no changes window covered clock {clock}")
            continue
        lag_ms = (received[i] - op.t0) * 1000.0
        lo, hi = rec.window
        if lo <= op.t0 < hi:
            result.view_lag_ms.append((op.t0, lag_ms))
    for op in facts:
        op.body = None

    store = PersistentDatabase(session.store)
    try:
        same = store.size() == mirror.size() and all(
            store.facts(name) == mirror.facts(name)
            for name in mirror.relations())
        rec.check(same, "reopened store facts differ from the mirror")
        rec.check(answers_digest(oracle_rows(store, QA, ("p",)))
                  == answers_digest(final),
                  "reopened store q_a digest differs from the mirror")
    finally:
        store.close()


def percentile(values: List[float], q: float) -> Optional[float]:
    """The q-quantile (0 < q < 1) by linear interpolation; None if empty."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
