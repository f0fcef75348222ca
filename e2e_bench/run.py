#!/usr/bin/env python3
"""The served end-to-end benchmark: workloads through ``repro serve``.

Usage (from the root of a checkout)::

    python3 e2e_bench/run.py --workload wide-answers --seed 1 \\
        --seconds 12 --trace 0

One run seeds a durable store from the poll workload with ``--seed``,
boots a real ``python -m repro serve`` subprocess on it, and drives the
workload's closed-loop traffic over keep-alive connections, checking
every reply against a direct library call.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is the separate traced run that
reports the per-layer ones (see ``NOTES.md``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files live under ``.bench_work/``
in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Every end-to-end metric the benchmark prints, with its unit.  The
#: JSON result carries the ``end_to_end`` subset of BENCHMARK.json; the
#: rest exist on some workloads only (see NOTES.md).
E2E_UNITS = {
    "setup_s": "s",
    "answers_p50_ms": "ms", "answers_p90_ms": "ms",
    "certain_p50_ms": "ms", "certain_p90_ms": "ms",
    "facts_p50_ms": "ms", "facts_p90_ms": "ms",
    "view_lag_p50_ms": "ms", "view_lag_p90_ms": "ms",
    "throughput_rps": "1/s",
    "error_rate": "ratio",
    "server_rss_mb": "MiB",
}


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _print_e2e(values: Dict[str, Optional[float]],
               samples: Dict[str, int]) -> None:
    for name, unit in E2E_UNITS.items():
        value = values.get(name)
        if value is None:
            print(f"  {name:<16} absent (not exercised by this workload)")
        else:
            n = f"  (n={samples[name]})" if name in samples else ""
            print(f"  {name:<16} {value:.4f} {unit}{n}")


def untraced(workload, work: pathlib.Path, seconds: float, daemons: list):
    from phases import Expected, finish, run_phase, setup

    expected = None if workload.writes else Expected(workload)
    setup_s: List[float] = []
    attempted = failed = 0
    for i in range(SETUP_REPEATS):
        session = setup(workload, ROOT, work, f"s{i}", expected, daemons)
        setup_s.append(session.setup_s)
        if i == SETUP_REPEATS - 1:
            break
        finish(workload, session)
        attempted += session.rec.attempted
        failed += session.rec.failed
        shutil.rmtree(session.store, ignore_errors=True)
    result = run_phase(workload, session, seconds, expected)
    rec = result.rec
    attempted += rec.attempted
    failed += rec.failed

    values: Dict[str, Optional[float]] = {
        "setup_s": statistics.median(setup_s),
        "throughput_rps": result.throughput_rps(),
        "error_rate": failed / attempted,
        "server_rss_mb": result.rss_mb,
    }
    samples = {"setup_s": len(setup_s)}
    for kind in ("answers", "certain", "facts", "view_lag"):
        for q in (50, 90):
            values[f"{kind}_p{q}_ms"] = result.percentile(kind, q / 100)
            samples[f"{kind}_p{q}_ms"] = len(result.latencies(kind))

    if expected is not None:
        counts = {q: len(rows) for q, (rows, _) in expected.answers.items()}
        if expected.certain:
            counts["point queries certain"] = sum(expected.certain.values())
    else:
        counts = {"q_a(p) after the last batch": len(result.final_rows or ())}
    storage = result.counters[1].get("storage") or {}
    record = {
        "workload": workload.name, "seed": workload.seed,
        "host_cpus": os.cpu_count(), "python": platform.python_version(),
        "commit": _commit(), "source_sha256": _source_sha256(),
        "seed_facts": workload.db.size(), "answer_counts": counts,
        "sync": storage.get("sync"), "auto_backend": result.routes,
        "connections": workload.connections, "mix": workload.mix,
        "measure_s": seconds, "setup_repeats": SETUP_REPEATS,
    }
    print("run-record " + json.dumps(record, sort_keys=True))
    print(f"end-to-end metrics ({workload.name}, seed {workload.seed}):")
    _print_e2e(values, samples)
    for note in rec.notes:
        print(f"check failed: {note}", file=sys.stderr)
    return values, attempted, failed


def traced(workload, work: pathlib.Path, seconds: float, daemons: list):
    from layers import Probe, changes_confirmation, layer_metrics
    from phases import Expected, run_phase, setup

    expected = None if workload.writes else Expected(workload)
    half = seconds / 2.0
    session = setup(workload, ROOT, work, "untraced", expected, daemons)
    plain = run_phase(workload, session, half, expected)
    trace_file = work / "trace.jsonl"
    session = setup(workload, ROOT, work, "traced", expected, daemons,
                     trace_out=trace_file)
    result = run_phase(workload, session, half, expected,
                       changes_probe=workload.writes)
    probe = Probe()
    values = layer_metrics(workload, session.store, result, plain, probe)
    print(f"per-layer metrics ({workload.name}, seed {workload.seed}):")
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    for name in sorted(values):
        print(f"  {name:<36} {values[name]:.4f} {units.get(name, '')}")
    print(f"  auto backend per shape: {result.routes}")
    if workload.writes:
        conf = changes_confirmation(result, trace_file)
        print("changes replies and the view digest: " + json.dumps(conf))
    attempted = plain.rec.attempted + result.rec.attempted + probe.attempted
    failed = plain.rec.failed + result.rec.failed + probe.failed
    for note in plain.rec.notes + result.rec.notes:
        print(f"check failed: {note}", file=sys.stderr)
    return values, attempted, failed


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no src/repro next to the benchmark; run it from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import make

    workload = make(args.workload, args.seed)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    daemons: list = []
    try:
        if args.trace:
            values, attempted, failed = traced(workload, work, args.seconds,
                                               daemons)
            names = [(m["name"], m["unit"]) for m in _spec()["per_layer"]]
        else:
            values, attempted, failed = untraced(workload, work, args.seconds,
                                                 daemons)
            names = [(m["name"], m["unit"]) for m in _spec()["end_to_end"]]
    finally:
        for daemon in daemons:
            daemon.kill()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    missing = [name for name, _ in names if values.get(name) is None]
    for name in missing:  # e.g. no correct reply inside the window
        print(f"check failed: {name} has no measurement", file=sys.stderr)
    failed += len(missing)
    result = {
        "correct": failed == 0,
        "attempted": attempted + len(missing),
        "failed": failed,
        "metrics": {name: {"value": values.get(name) or 0.0, "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
