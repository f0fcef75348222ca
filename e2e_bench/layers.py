"""Per-layer attribution for the traced run, measured from outside.

Nothing here is a span inside ``src/repro``.  Three sources feed the
per-layer metrics:

* the traced phase's replies (``elapsed_ms`` against client latency);
* counter deltas of ``GET /v1/metrics`` across the traced phase;
* direct calls into each layer's public functions, timed here, on the
  store the daemon just served (reopened after the daemon stopped, so
  the data and clock are the ones the replies were computed at).

Each timing is the median of a few calls of one query instance; a
shape's value is the mean of its instances' medians, the expected cost
of one request of the served mix.  Where a workload serves no
``certain`` request, the ``*.certain`` probes time the Boolean form of
its answers query instead; they describe the layer on that data and
predict no end-to-end move there.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import random
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery
from repro.cqa.engine import CertaintyEngine
from repro.db.database import Database
from repro.serve.protocol import answers_digest
from repro.storage import PersistentDatabase

from phases import PhaseResult, counter
from workloads import QA, ChurnBatches, Request, Workload, apply_batch


def _layer(module: str, name: str) -> Callable[..., Any]:
    """A layer's public function, or a stand-in that raises when called.

    Later refactors may move or remove what a probe calls; that probe
    then reads 0 with a note on standard error, and the run goes on.
    """
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        reason = f"{module}.{name} is unavailable: {exc}"

        def missing(*_args: Any, **_kwargs: Any) -> Any:
            raise LookupError(reason)
        return missing


open_rewriting = _layer("repro.cqa.certain_answers", "open_rewriting")
consistent_rewriting = _layer("repro.cqa.rewriting", "consistent_rewriting")
compile_formula = _layer("repro.fo.compile", "compile_formula")
rows_to_wire = _layer("repro.serve.protocol", "rows_to_wire")
response_bytes = _layer("repro.serve.http", "response_bytes")
columnar_stats = _layer("repro.columnar", "columnar_stats")
view_manager = _layer("repro.incremental.views", "view_manager")

#: Wall-time budget, and bounds on the call count, of one probe.
PROBE_BUDGET_S = 0.15
MIN_CALLS = 3
MAX_CALLS = 9

#: Point-query instances the certain-shape probes sample.
POINT_PROBES = 6

#: Write batches the write-path probes time.
WRITE_BATCHES = 12

#: Fixed backends ``auto`` is compared against, by wire option.
BACKENDS = {
    "fo.exec_ms": "compiled",
    "columnar.exec_ms": "columnar",
    "storage.sql_exec_ms": "sql",
    "parallel.exec_ms": {"method": "parallel", "jobs": 2},
}


class Probe:
    """Times calls and counts the parity checks made along the way."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def time(self, name: str, fn: Callable[[], Any]) -> Optional[float]:
        """Median wall time of ``fn`` in ms; None if the layer fails."""
        try:
            samples: List[float] = []
            start = time.perf_counter()
            while len(samples) < MAX_CALLS and (
                    len(samples) < MIN_CALLS
                    or time.perf_counter() - start < PROBE_BUDGET_S):
                t0 = time.perf_counter()
                fn()
                samples.append((time.perf_counter() - t0) * 1000.0)
            return statistics.median(samples)
        except Exception as exc:  # noqa: BLE001 — a probe must not end the run
            self.notes.append(f"probe {name} unavailable: "
                              f"{type(exc).__name__}: {exc}")
            return None

    def parity(self, name: str, got: Any, want: Any) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.notes.append(f"parity failure: {name}")


def _mean(values: List[Optional[float]]) -> float:
    """Mean of the instances that ran; 0 when the layer could not run."""
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _instances(workload: Workload) -> Dict[str, List[Request]]:
    certain = workload.certain_instances()
    if len(certain) > POINT_PROBES:
        certain = random.Random(workload.seed).sample(certain, POINT_PROBES)
    return {"answers": workload.instances["answers"], "certain": certain}


def _read_probes(probe: Probe, db: Database, req: Request) -> Dict[str, Any]:
    """Every read-path timing for one query instance on *db*."""
    text = req.query
    query = parse_query(text)
    variables = tuple(Variable(n) for n in req.free)
    engine = CertaintyEngine(query)
    out: Dict[str, Any] = {
        "core.parse_ms": probe.time("parse", lambda: parse_query(text)),
        "core.classify_ms": probe.time("classify",
                                       lambda: CertaintyEngine(query)),
    }
    if req.shape == "answers":
        oq = OpenQuery(query, variables)

        def run(options: Any) -> Any:
            return engine.certain_answers(db, variables, options)

        oracle = run("compiled")
        # open_rewriting is memoized; its uncached core is the rewriting
        # of the query grounded on one candidate answer.
        ground = next(iter(oracle), tuple(f"c{i}" for i in variables))
        out["cqa.rewrite_ms"] = probe.time(
            "rewrite", lambda: consistent_rewriting(oq.grounded(ground)))
        out["fo.compile_ms"] = probe.time(
            "compile", lambda: compile_formula(open_rewriting(oq), variables))
    else:
        def run(options: Any) -> Any:
            return engine.certain(db, options)

        oracle = run("compiled")
        out["cqa.rewrite_ms"] = probe.time(
            "rewrite", lambda: consistent_rewriting(query))
        formula = engine.rewriting
        out["fo.compile_ms"] = probe.time(
            "compile", lambda: compile_formula(formula))
    out["rows"] = oracle
    for name, options in [("cqa.auto_ms", "auto")] + list(BACKENDS.items()):
        try:
            probe.parity(f"{name} {text}", run(options), oracle)
        except Exception as exc:  # noqa: BLE001 — reported, not fatal
            probe.notes.append(f"probe {name} unavailable: "
                               f"{type(exc).__name__}: {exc}")
            out[name] = None
            continue
        out[name] = probe.time(name, lambda o=options: run(o))
    return out


def _encode_probes(probe: Probe, req: Request, rows) -> Dict[str, Any]:
    """The daemon's reply encoding steps on one replied answer set."""
    def payload() -> Dict[str, Any]:
        return {"query": req.query, "free": list(req.free), "method": "auto",
                "options": {"method": "auto"}, "clock": 0,
                "answers": rows_to_wire(rows), "count": len(rows),
                "digest": answers_digest(rows), "elapsed_ms": 0.0,
                "request_id": "r00000000", "schema_version": 1}

    out: Dict[str, Any] = {
        "serve.rows_to_wire_ms": probe.time("rows_to_wire",
                                            lambda: rows_to_wire(rows)),
        "serve.digest_ms": probe.time("answers_digest",
                                      lambda: answers_digest(rows)),
        "serve.response_bytes_ms": None,
        "serve.response_kb": None,
    }
    try:
        body = payload()
    except LookupError as exc:
        probe.notes.append(f"probe response_bytes unavailable: {exc}")
        return out
    out["serve.response_bytes_ms"] = probe.time(
        "response_bytes", lambda: response_bytes(200, body))
    if out["serve.response_bytes_ms"] is not None:
        out["serve.response_kb"] = len(response_bytes(200, body)) / 1024.0
    return out


def _scan_cache_hit_rate(probe: Probe, db: Database, req: Request,
                         churn: Optional[ChurnBatches], runs: int = 5) -> float:
    """Share of columnar scans served from the scan cache.

    A fully warm run on unchanged data hits on every scan, so its hit
    count is the number of scans per run.  On a churn workload a write
    batch lands between runs, as it does between served answers.
    """
    try:
        variables = tuple(Variable(n) for n in req.free)
        engine = CertaintyEngine(parse_query(req.query))

        def hits() -> int:
            return int(columnar_stats().get("scan_cache_hits", 0))

        engine.certain_answers(db, variables, "columnar")
        h0 = hits()
        engine.certain_answers(db, variables, "columnar")
        per_run = hits() - h0
        h0 = hits()
        for _ in range(runs):
            if churn is not None:
                apply_batch(db, churn.next())
            engine.certain_answers(db, variables, "columnar")
        return _ratio(hits() - h0, per_run * runs)
    except Exception as exc:  # noqa: BLE001 — reported, not fatal
        probe.notes.append(f"probe columnar scan cache unavailable: {exc}")
        return 0.0


def _memory_copy(db: Database) -> Database:
    out = Database(db.schemas.values())
    for name in db.relations():
        out.add_all(name, db.facts(name))
    return out


def _write_probes(probe: Probe, workload: Workload,
                  store_path: pathlib.Path) -> Dict[str, float]:
    """Batch commits: durable store, in-memory, in-memory with the view."""
    def commits(db: Database, batches: List[List]) -> List[float]:
        samples = []
        for batch in batches:
            t0 = time.perf_counter()
            apply_batch(db, batch)
            samples.append((time.perf_counter() - t0) * 1000.0)
        return samples

    store = PersistentDatabase(store_path)  # default sync policy: always
    try:
        churn = ChurnBatches(store, workload.people, workload.towns,
                             workload.seed + 1)
        batches = [churn.next() for _ in range(WRITE_BATCHES)]
        plain = _memory_copy(store)
        viewed = _memory_copy(store)
        storage_ms = commits(store, batches)
    finally:
        store.close()
    out = {
        "storage.commit_ms": statistics.median(storage_ms),
        "db.commit_ms": statistics.median(commits(plain, batches)),
        "incremental.view_commit_ms": 0.0,
        "incremental.changed_since_ms": 0.0,
    }
    try:
        view = view_manager(viewed).register_view(parse_query(QA),
                                                  [Variable("p")])
    except LookupError as exc:
        probe.notes.append(f"probe incremental views unavailable: {exc}")
        return out
    view_ms = commits(viewed, batches[:-1])
    since = view.version  # changed_since below reads a one-batch window
    view_ms += commits(viewed, batches[-1:])
    out["incremental.view_commit_ms"] = statistics.median(view_ms)
    out["incremental.changed_since_ms"] = probe.time(
        "changed_since", lambda: view.changed_since(since)) or 0.0
    return out


def _served(result: PhaseResult) -> Dict[str, Tuple[float, float, float]]:
    """Per answers instance: median latency, handler and outside time."""
    by_query: Dict[str, List[Tuple[float, float]]] = {}
    for op in result.rec.measured("answers"):
        if op.ok and isinstance(op.body, dict) and op.body.get("elapsed_ms") is not None:
            by_query.setdefault(op.key, []).append(
                (op.latency_ms, float(op.body["elapsed_ms"])))
    out = {}
    for query, pairs in by_query.items():
        out[query] = (statistics.median(p[0] for p in pairs),
                      statistics.median(p[1] for p in pairs),
                      statistics.median(p[0] - p[1] for p in pairs))
    return out


def _counter_metrics(result: PhaseResult) -> Dict[str, float]:
    before, after = result.counters

    def delta(*path: str) -> float:
        return counter(after, *path) - counter(before, *path)

    reads = sum(delta("server", "endpoints", ep, "count")
                for ep in ("POST /v1/answers", "POST /v1/certain"))
    plan_hits = delta("engine", "plan_cache", "hits")
    plan_misses = delta("engine", "plan_cache", "misses")
    stmt_hits = delta("engine", "storage", "pushdown", "stmt_cache_hits")
    stmt_misses = delta("engine", "storage", "pushdown", "stmt_cache_misses")
    batches = result.batches_written
    return {
        "serve.long_poll_waits": delta("server", "long_poll_waits"),
        "cqa.auto_sql_share": _ratio(
            delta("engine", "storage", "pushdown", "routed_sql"), reads),
        "cqa.auto_columnar_share": _ratio(
            delta("engine", "columnar", "auto_routed"), reads),
        "fo.plan_cache_hit_rate": _ratio(plan_hits, plan_hits + plan_misses),
        "storage.stmt_cache_hit_rate": _ratio(stmt_hits,
                                              stmt_hits + stmt_misses),
        "storage.wal_bytes_per_op": _ratio(
            delta("engine", "storage", "wal_bytes"), result.ops_written),
        "storage.wal_syncs_per_batch": _ratio(
            delta("engine", "storage", "wal_syncs"), batches),
        "storage.mirror_delta_rows": _ratio(
            delta("engine", "storage", "pushdown", "mirror_delta_rows"),
            batches),
        "incremental.fallback_recomputes": delta(
            "engine", "views", "fallback_recomputes"),
    }


def changes_confirmation(result: PhaseResult,
                         trace_file: pathlib.Path) -> Dict[str, Any]:
    """Does a changes reply digest the view's answer set?

    Times the daemon's own ``serve-request`` spans (``--trace-out``) of
    immediate changes requests against a direct ``answers_digest`` of
    the view's full answer set.  A handler faster than that digest
    cannot be computing it.
    """
    ids = set(result.changes_probe.get("request_ids", []))
    durations = []
    if trace_file.exists():
        for line in trace_file.read_text().splitlines():
            span = json.loads(line)
            if span.get("name") == "serve-request" and \
                    span.get("tags", {}).get("request_id") in ids:
                durations.append(float(span["duration_ms"]))
    rows = result.final_rows or frozenset()
    digest_ms = Probe().time("view digest", lambda: answers_digest(rows))
    handler_ms = statistics.median(durations) if durations else None
    return {
        "changes_handler_ms": handler_ms,
        "view_rows": len(rows),
        "view_digest_ms": digest_ms,
        "reply_has_digest": result.changes_probe.get("has_digest"),
        "confirmed": (handler_ms is not None and digest_ms is not None
                      and handler_ms < digest_ms
                      and not result.changes_probe.get("has_digest")),
    }


def layer_metrics(workload: Workload, store_path: pathlib.Path,
                  traced: PhaseResult, untraced: PhaseResult,
                  probe: Probe) -> Dict[str, float]:
    """Every per-layer metric of one traced run."""
    metrics: Dict[str, float] = {}
    db = PersistentDatabase(store_path)
    try:
        shapes: Dict[str, List[Dict[str, Any]]] = {}
        for shape, instances in _instances(workload).items():
            shapes[shape] = [_read_probes(probe, db, req) for req in instances]
        answers = workload.instances["answers"]
        encode = [_encode_probes(probe, req, timings["rows"])
                  for req, timings in zip(answers, shapes["answers"])]
        churn = ChurnBatches(db, workload.people, workload.towns,
                             workload.seed + 2) if workload.writes else None
        metrics["columnar.scan_cache_hit_rate"] = _scan_cache_hit_rate(
            probe, db, answers[0], churn)
    finally:
        db.close()

    for shape, rows in shapes.items():
        for name in ("core.parse_ms", "core.classify_ms", "cqa.rewrite_ms",
                     "fo.compile_ms", "cqa.auto_ms", *BACKENDS):
            metrics[f"{name}.{shape}"] = _mean([r[name] for r in rows])
        best = [min((r[b] for b in BACKENDS if r[b] is not None), default=None)
                for r in rows]
        metrics[f"cqa.auto_over_best.{shape}"] = _ratio(
            sum(r["cqa.auto_ms"] or 0.0 for r in rows),
            sum(b or 0.0 for b in best))
        cold = metrics[f"core.parse_ms.{shape}"] \
            + metrics[f"core.classify_ms.{shape}"] \
            + metrics[f"cqa.rewrite_ms.{shape}"] \
            + metrics[f"fo.compile_ms.{shape}"]
        metrics[f"core.cold_share.{shape}"] = _ratio(
            cold, cold + metrics[f"cqa.auto_ms.{shape}"])
    for name in ("serve.rows_to_wire_ms", "serve.digest_ms",
                 "serve.response_bytes_ms", "serve.response_kb"):
        metrics[name] = _mean([e[name] for e in encode])

    served = _served(traced)
    latency, handler, outside, auto, steps = [], [], [], [], []
    for req, timing, enc in zip(answers, shapes["answers"], encode):
        if req.query not in served:
            continue
        lat, elapsed, out = served[req.query]
        latency.append(lat)
        handler.append(elapsed)
        outside.append(out)
        auto.append(timing["cqa.auto_ms"] or 0.0)
        steps.append(auto[-1] + sum(
            enc[name] or 0.0 for name in ("serve.rows_to_wire_ms",
                                          "serve.digest_ms",
                                          "serve.response_bytes_ms")))
    metrics["serve.handler_ms"] = _mean(handler)
    metrics["serve.outside_handler_ms"] = _mean(outside)
    metrics["serve.wire_overhead_ratio"] = _ratio(sum(latency), sum(auto))
    metrics["serve.unattributed_ms"] = _mean(
        [lat - step for lat, step in zip(latency, steps)])
    metrics.update(_counter_metrics(traced))
    metrics.update(_write_probes(probe, workload, store_path))

    for q in (50, 90):
        metrics[f"trace.overhead.answers_p{q}_ms"] = \
            (traced.percentile("answers", q / 100) or 0.0) \
            - (untraced.percentile("answers", q / 100) or 0.0)
    metrics["trace.overhead.throughput_rps"] = \
        traced.throughput_rps() - untraced.throughput_rps()
    for note in probe.notes:
        print(note, file=sys.stderr)
    return metrics
