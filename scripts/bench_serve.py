#!/usr/bin/env python3
"""Regenerate BENCH_serve.json: the `repro serve` daemon under load.

Usage:  PYTHONPATH=src python scripts/bench_serve.py [output_path] [--smoke]

Boots a real server subprocess on a temp store seeded with the poll
workload, then measures three phases:

* **Quiescent parity** — for every benchmarked query × method, the
  answer set fetched over HTTP must carry the same canonical sha256
  digest as a direct in-process ``certain_answers`` call on an
  identical database.  The daemon's speed claims are only meaningful
  for provably identical answers.
* **Mixed load** — query clients (rotating methods), view long-pollers,
  and a batch writer run concurrently; per-class p50/p99 latency and
  sustained total QPS are recorded.
* **Post-load parity + durability** — after the load drains, every
  query × method is digest-checked again versus a local mirror that
  applied the same write batches; the server is then stopped with
  SIGINT and the store reopened directly to verify the WAL carried
  every batch.

``--smoke`` (or ``BENCH_SERVE_SMOKE=1``) shrinks the load for CI; the
parity and durability checks still run at every point.  The JSON is
committed so CI and future sessions can compare against a known-good
baseline.
"""

import json
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import http.client  # noqa: E402

from repro.core.parser import parse_query  # noqa: E402
from repro.core.terms import Variable  # noqa: E402
from repro.cqa.certain_answers import OpenQuery, certain_answers  # noqa: E402
from repro.serve.protocol import answers_digest  # noqa: E402
from repro.storage import PersistentDatabase  # noqa: E402
from repro.workloads.poll import random_poll_database  # noqa: E402

QUERIES = [
    ("poll_qa", "Lives(p | t), not Born(p | t), not Likes(p, t |)", ["p"]),
    ("lives_not_born", "Lives(p | t), not Born(p | t)", ["p"]),
    ("mayor_towns", "Mayor(t | p)", ["t"]),
]
METHODS = ["auto", "compiled", "sql", "columnar"]

FULL = {"people": 300, "towns": 30, "query_threads": 4, "pollers": 2,
        "batches": 60, "rows_per_batch": 20, "queries_per_thread": 60}
SMOKE = {"people": 60, "towns": 8, "query_threads": 2, "pollers": 1,
         "batches": 8, "rows_per_batch": 5, "queries_per_thread": 8}


def percentile(samples, q):
    if not samples:
        return None
    ordered = sorted(samples)
    return round(ordered[min(len(ordered) - 1, int(q * len(ordered)))], 3)


class Client:
    """One keep-alive connection to the benched server."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method, path, payload=None):
        body = None if payload is None else json.dumps(payload)
        self.conn.request(method, path, body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"{method} {path} -> {response.status}: {data}")
        return data

    def close(self):
        self.conn.close()


def seed_store(path, people, towns):
    db = random_poll_database(n_people=people, n_towns=towns,
                              rng=random.Random(7))
    store = PersistentDatabase(path)
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    store.checkpoint()
    store.close()
    return db


def direct_digest(db, text, free):
    rows = certain_answers(
        OpenQuery(parse_query(text), tuple(Variable(n) for n in free)),
        db, "compiled")
    return answers_digest(rows), len(rows)


def parity_sweep(client, mirror, label):
    results, ok = [], True
    for name, text, free in QUERIES:
        expected, count = direct_digest(mirror, text, free)
        for method in METHODS:
            body = client.request("POST", "/v1/answers", {
                "query": text, "free": free, "options": {"method": method}})
            match = body["digest"] == expected and body["count"] == count
            ok = ok and match
            results.append({"query": name, "method": method,
                            "digest": body["digest"], "count": body["count"],
                            "match": match})
    print(f"  {label}: {len(results)} query×method points, "
          f"all_match={ok}")
    return results, ok


def make_batches(cfg):
    """Deterministic write batches: new people with conflicting Lives."""
    rng = random.Random(99)
    batches = []
    for i in range(cfg["batches"]):
        ops = []
        for j in range(cfg["rows_per_batch"] // 2):
            person, town = f"w{i}_{j}", f"t{rng.randrange(cfg['towns'])}"
            ops.append({"op": "+", "relation": "Lives", "row": [person, town]})
            ops.append({"op": "+", "relation": "Born", "row": [person, town]})
        batches.append(ops)
    return batches


def apply_batches(db, batches):
    for ops in batches:
        with db.batch():
            for op in ops:
                if op["op"] == "+":
                    db.add(op["relation"], tuple(op["row"]))
                else:
                    db.discard(op["relation"], tuple(op["row"]))


def run_load(port, cfg, batches, view_version):
    lat = {"query": [], "write": [], "poll": []}
    errors = []
    done = threading.Event()

    def query_client(tid):
        client = Client(port)
        rng = random.Random(tid)
        try:
            for i in range(cfg["queries_per_thread"]):
                name, text, free = QUERIES[i % len(QUERIES)]
                method = METHODS[rng.randrange(len(METHODS))]
                t0 = time.perf_counter()
                client.request("POST", "/v1/answers", {
                    "query": text, "free": free,
                    "options": {"method": method}})
                lat["query"].append((time.perf_counter() - t0) * 1000.0)
        except Exception as exc:
            errors.append(f"query[{tid}]: {exc!r}")
        finally:
            client.close()

    def writer():
        client = Client(port)
        try:
            for ops in batches:
                t0 = time.perf_counter()
                client.request("POST", "/v1/facts", {"ops": ops})
                lat["write"].append((time.perf_counter() - t0) * 1000.0)
        except Exception as exc:
            errors.append(f"writer: {exc!r}")
        finally:
            client.close()

    def poller(tid):
        client = Client(port)
        since = view_version  # windows before registration don't exist
        try:
            while not done.is_set():
                t0 = time.perf_counter()
                body = client.request(
                    "GET", f"/v1/views/bench/changes?since={since}&wait=1")
                lat["poll"].append((time.perf_counter() - t0) * 1000.0)
                since = body["version"]
        except Exception as exc:
            errors.append(f"poller[{tid}]: {exc!r}")
        finally:
            client.close()

    threads = (
        [threading.Thread(target=query_client, args=(t,))
         for t in range(cfg["query_threads"])]
        + [threading.Thread(target=writer)]
        + [threading.Thread(target=poller, args=(t,))
           for t in range(cfg["pollers"])]
    )
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads[:cfg["query_threads"] + 1]:
        t.join()
    done.set()
    for t in threads[cfg["query_threads"] + 1:]:
        t.join()
    duration = time.perf_counter() - t0
    if errors:
        raise RuntimeError("; ".join(errors))
    total = sum(len(v) for v in lat.values())
    return {
        "duration_s": round(duration, 3),
        "total_requests": total,
        "qps": round(total / duration, 1),
        "classes": {
            name: {
                "count": len(samples),
                "p50_ms": percentile(samples, 0.50),
                "p99_ms": percentile(samples, 0.99),
            }
            for name, samples in lat.items()
        },
    }


def main(argv):
    smoke = "--smoke" in argv or os.environ.get("BENCH_SERVE_SMOKE") == "1"
    argv = [a for a in argv if a != "--smoke"]
    out_path = pathlib.Path(argv[0]) if argv else \
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    cfg = SMOKE if smoke else FULL

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="bench_serve_"))
    store_path = tmp / "store"
    report = {"mode": "smoke" if smoke else "full",
              "config": cfg,
              "queries": {name: text for name, text, _ in QUERIES},
              "methods": METHODS,
              "digests": "canonical sha256 over the sorted answer set "
                         "(repro.serve.answers_digest), asserted identical "
                         "between every server response and a direct "
                         "certain_answers call"}
    proc = None
    try:
        print(f"seeding store ({cfg['people']} people, {cfg['towns']} towns)")
        mirror = seed_store(store_path, cfg["people"], cfg["towns"])
        report["seed_facts"] = mirror.size()

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db-path",
             str(store_path), "--port", "0"],
            env={**os.environ,
                 "PYTHONPATH": str(pathlib.Path(__file__).resolve().parent.parent / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        ready = proc.stdout.readline().strip()
        assert ready.startswith("listening on "), ready
        port = int(ready.rsplit(":", 1)[1])
        print(f"server up on port {port}")
        client = Client(port)

        # Phase A: quiescent digest parity, every query × method.
        t0 = time.perf_counter()
        parity_before, ok_before = parity_sweep(client, mirror, "phase A")
        report["phase_a_parity"] = {
            "points": parity_before, "all_match": ok_before,
            "elapsed_s": round(time.perf_counter() - t0, 3)}

        # Phase B: mixed load (queries + long-pollers + batch writer).
        view = client.request("POST", "/v1/views", {
            "name": "bench", "query": QUERIES[0][1], "free": QUERIES[0][2]})
        batches = make_batches(cfg)
        print(f"mixed load: {cfg['query_threads']} query threads, "
              f"{cfg['pollers']} pollers, {len(batches)} write batches")
        report["load"] = run_load(port, cfg, batches, view["version"])
        print(f"  {report['load']['total_requests']} requests in "
              f"{report['load']['duration_s']}s "
              f"({report['load']['qps']} qps)")

        # Phase C: post-load parity against a mirror that applied the
        # same batches, then durability through SIGINT + direct reopen.
        apply_batches(mirror, batches)
        parity_after, ok_after = parity_sweep(client, mirror, "phase C")
        health = client.request("GET", "/v1/healthz")
        metrics = client.request("GET", "/v1/metrics")
        report["phase_c_parity"] = {"points": parity_after,
                                    "all_match": ok_after}
        report["server_counters"] = metrics["server"]
        client.close()

        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
        reopened = PersistentDatabase(store_path)
        durable_ok = reopened.size() == mirror.size() == health["facts"]
        for name, text, free in QUERIES:
            d_mirror, _ = direct_digest(mirror, text, free)
            d_store, _ = direct_digest(reopened, text, free)
            durable_ok = durable_ok and d_mirror == d_store
        reopened.close()
        report["durability"] = {
            "facts_after_reopen": mirror.size(), "match": durable_ok}
        print(f"durability after SIGINT + reopen: match={durable_ok}")

        report["all_match"] = ok_before and ok_after and durable_ok
        out_path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out_path}")
        if not report["all_match"]:
            print("DIGEST MISMATCH", file=sys.stderr)
            return 1
        return 0
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
