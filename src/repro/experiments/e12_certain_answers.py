"""E12 (extension) — certain answers for queries with free variables.

Section 1 of the paper: free variables can be treated as constants, so
the Boolean machinery answers non-Boolean queries too.  This experiment
validates every backend against the others and measures the
single-SELECT SQL path on growing databases, next to the tuple-at-a-time
rewriting evaluator and the columnar executor.
"""

from __future__ import annotations

import random
from typing import List

from ..core.terms import Variable
from ..cqa.certain_answers import (
    OpenQuery,
    certain_answers,
    cross_validate_answers,
)
from ..workloads.generators import random_small_database
from ..workloads.poll import random_poll_database
from ..workloads.queries import poll_qa, q3
from .harness import Table, timed


def agreement_table(trials: int = 20, seed: int = 17) -> Table:
    rng = random.Random(seed)
    table = Table(
        "E12a: certain-answer strategies agree "
        "(brute / interpreted / rewriting / compiled / columnar / SQL)",
        ["query", "free vars", "trials", "methods", "all agree"],
    )
    cases = [
        ("q3", q3(), [Variable("x")]),
        ("poll qa", poll_qa(), [Variable("p")]),
        ("poll qa", poll_qa(), [Variable("p"), Variable("t")]),
    ]
    for name, query, free in cases:
        open_query = OpenQuery(query, free)
        agree = True
        n_methods = 0
        for _ in range(trials):
            db = random_small_database(query, rng, domain_size=3,
                                       facts_per_relation=4)
            results = cross_validate_answers(open_query, db)
            n_methods = max(n_methods, len(results))
            if len(set(results.values())) != 1:
                agree = False
        table.add_row(name, ",".join(v.name for v in free), trials,
                      n_methods, agree)
    return table


def scaling_table(people_sizes=(10, 40, 160), seed: int = 18) -> Table:
    rng = random.Random(seed)
    open_query = OpenQuery(poll_qa(), [Variable("p")])
    table = Table(
        "E12b: one SQL SELECT returns the whole certain-answer set",
        ["people", "facts", "answers", "t_sql(s)", "t_rewriting(s)",
         "t_columnar(s)"],
    )
    for people in people_sizes:
        db = random_poll_database(people, max(3, people // 4),
                                  conflict_rate=0.5, rng=rng)
        answers_sql, t_sql = timed(certain_answers, open_query, db, "sql")
        answers_rw, t_rw = timed(certain_answers, open_query, db, "rewriting")
        answers_col, t_col = timed(certain_answers, open_query, db,
                                   "columnar")
        assert answers_sql == answers_rw == answers_col
        table.add_row(people, db.size(), len(answers_sql), t_sql, t_rw, t_col)
    table.add_note(
        "t_sql is the first sql call on each database, so it includes "
        "building the in-memory sqlite mirror; the SELECT is the "
        "compiled plan IR translated by repro.storage.sqlgen."
    )
    return table


def run(seed: int = 17) -> List[Table]:
    """All E12 tables."""
    return [agreement_table(seed=seed), scaling_table(seed=seed + 1)]
