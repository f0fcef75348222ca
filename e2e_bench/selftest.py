#!/usr/bin/env python3
"""Self-tests of the served benchmark.

Usage (from the root of a checkout)::

    python3 e2e_bench/selftest.py

1. Smoke: a two-second run of every workload, untraced and traced,
   must be correct and emit every metric BENCHMARK.json names, each
   with its unit; the untraced run must print all twelve end-to-end
   metrics by name (a value, or ``absent``).
2. A deliberately corrupted digest must count as a failed operation,
   on a read-only workload (judged as replies arrive) and on
   write-churn (judged by the replay afterwards).
3. Run from a directory holding only BENCHMARK.json and the benchmark,
   the command must fail without printing a result.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from run import E2E_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BAD_DIGEST = "sha256:" + "0" * 64


def _run(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return subprocess.run(spec["command"] + list(args), cwd=str(cwd),
                          capture_output=True, text=True, timeout=300)


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", workload, "--seed", "3",
                        "--seconds", "2", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr[-2000:]
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, \
                (workload, trace, proc.stderr[-2000:])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(want) ^ set(got))
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()), result
            if trace == 0:
                printed = "\n".join(lines[:-1])
                for name in E2E_UNITS:
                    assert f"  {name} " in printed, (workload, name)
            print(f"ok  smoke {workload} --trace {trace}")


def corrupted_digest() -> None:
    from phases import Expected, finish, setup
    from serving import drive_churn, drive_reads
    from workloads import make

    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    daemons: list = []
    try:
        workload = make("selective-reads", 5)
        expected = Expected(workload)
        session = setup(workload, ROOT, work, "reads", expected, daemons)
        corrupted: list = []

        def judge(req, body):
            if req.shape == "answers" and not corrupted:
                corrupted.append(req.query)
                body = dict(body, digest=BAD_DIGEST)
            return expected.judge(req, body)

        drive_reads(session.daemon.port, workload, judge, 0.0, 1.0,
                    session.rec)
        finish(workload, session)
        assert corrupted and session.rec.failed == 1, session.rec.failed
        print("ok  corrupted digest counted (selective-reads)")

        workload = make("write-churn", 5)
        session = setup(workload, ROOT, work, "churn", None, daemons)
        session.sent += drive_churn(session.daemon.port, workload,
                                    session.batches, session.poll_since,
                                    0.0, 1.0, session.rec)
        answers = [op for op in session.rec.ops if op.kind == "answers"]
        answers[len(answers) // 2].body["digest"] = BAD_DIGEST
        finish(workload, session)
        assert session.rec.failed == 1, (session.rec.failed,
                                         session.rec.notes)
        print("ok  corrupted digest counted (write-churn)")
    finally:
        for daemon in daemons:
            daemon.kill()
        shutil.rmtree(work, ignore_errors=True)


def bare_directory() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "e2e_bench", bare / "e2e_bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "wide-answers", "--seed", "1",
                    "--seconds", "2", "--trace", "0")
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
        print("ok  fails without a result outside a checkout")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    bare_directory()
    corrupted_digest()
    smoke()
    print("all self-tests passed")
