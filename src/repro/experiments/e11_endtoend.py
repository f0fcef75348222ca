"""E11 — the practicality claim: one SQL query vs everything else.

For an acyclic query (poll qa), compares the four strategies across
database sizes and locates the crossover where brute-force repair
enumeration becomes infeasible while the FO-based strategies scale.
"""

from __future__ import annotations

import random
from typing import List

from ..cqa.engine import CertaintyEngine
from ..db.sqlite_backend import load_database, run_sentence_sql
from ..fo.sql import compile_to_sql
from ..workloads.poll import random_poll_database
from ..workloads.queries import poll_qa
from .harness import Table, timed


def crossover_table(
    people_sizes=(4, 8, 12, 16, 40, 100),
    brute_limit: int = 16,
    seed: int = 15,
) -> Table:
    rng = random.Random(seed)
    query = poll_qa()
    engine = CertaintyEngine(query)
    table = Table(
        "E11a: strategy crossover on poll qa",
        ["people", "facts", "repairs", "certain", "t_brute(s)",
         "t_interpreted(s)", "t_rewriting(s)", "t_sql(s)"],
    )
    for people in people_sizes:
        db = random_poll_database(people, max(3, people // 3),
                                  conflict_rate=0.5, rng=rng)
        ans_rw, t_rw = timed(engine.certain, db, "rewriting")
        ans_sql, t_sql = timed(run_sentence_sql, engine.rewriting, db)
        ans_int, t_int = timed(engine.certain, db, "interpreted")
        assert ans_rw == ans_sql == ans_int
        if people <= brute_limit:
            ans_brute, t_brute = timed(engine.certain, db, "brute")
            assert ans_brute == ans_rw
            t_brute_txt = t_brute
        else:
            t_brute_txt = "skipped"
        repairs = db.restrict(set(query.relations)).repair_count()
        table.add_row(people, db.size(), repairs, ans_rw,
                      t_brute_txt, t_int, t_rw, t_sql)
    table.add_note(
        "brute force cost tracks the repair count (product of block "
        "sizes); the FO strategies track database size.  t_sql runs the "
        "paper's formula SQL (repro.fo.sql), loading the database into "
        "sqlite on every call."
    )
    return table


def sql_amortization_table(people: int = 60, queries: int = 20,
                           seed: int = 16) -> Table:
    """Loading the database once and re-running the compiled SQL."""
    rng = random.Random(seed)
    query = poll_qa()
    engine = CertaintyEngine(query)
    db = random_poll_database(people, people // 3, conflict_rate=0.5, rng=rng)
    conn = load_database(db)
    sql = compile_to_sql(engine.rewriting, db.schemas)

    def run_once():
        return bool(conn.execute(sql).fetchone()[0])

    first, t_first = timed(run_once)
    _, t_warm = timed(run_once, repeat=queries)
    conn.close()
    table = Table(
        "E11b: compiled SQL amortization (load once, query many)",
        ["people", "facts", "certain", "t_first(s)", "t_warm(s)"],
    )
    table.add_row(people, db.size(), first, t_first, t_warm)
    return table


def run(seed: int = 15) -> List[Table]:
    """All E11 tables."""
    return [crossover_table(seed=seed), sql_amortization_table(seed=seed + 1)]
