"""E2 — Figure 2 / Examples 1.2 and 6.12: q_Hall.

The consistent FO rewriting of q_Hall exists for every ell, and its size
grows exponentially in ell (the paper notes this at the end of Example
6.12).  This experiment measures the growth, and validates the rewriting
against the Hall's-theorem solver and brute force on S-COVERING
instances.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..cqa.brute_force import is_certain_brute_force
from ..cqa.engine import CertaintyEngine
from ..db.sqlite_backend import run_sentence_sql
from ..fo.stats import stats
from ..matching.hall import SCoveringInstance
from ..reductions.scovering import query_for, scovering_to_database
from ..workloads.queries import q_hall
from .harness import Table, timed


def rewriting_growth_table(max_sets: int = 6) -> Table:
    """Formula size of the q_Hall rewriting as ell grows."""
    table = Table(
        "E2a: size of the consistent FO rewriting of q_Hall",
        ["ell", "AST nodes", "atoms", "quantifiers", "depth", "t_construct(s)"],
    )
    for ell in range(1, max_sets + 1):
        query = q_hall(ell)
        engine = CertaintyEngine(query)
        _, t = timed(lambda: CertaintyEngine(q_hall(ell)).rewriting)
        s = stats(engine.rewriting)
        table.add_row(ell, s.nodes, s.atoms, s.quantifiers, s.quantifier_depth, t)
    table.add_note(
        "Example 6.12: the length of the rewriting is exponential in the "
        "size of the rewritten query."
    )
    return table


def random_instance(
    n_elements: int, n_sets: int, rng: random.Random
) -> SCoveringInstance:
    elements = list(range(n_elements))
    subsets = [
        [e for e in elements if rng.random() < 0.5] for _ in range(n_sets)
    ]
    return SCoveringInstance(elements, subsets)


def agreement_table(
    trials: int = 25,
    max_elements: int = 4,
    max_sets: int = 3,
    seed: int = 2,
) -> Table:
    """Four-way agreement: Hall solver, rewriting, interpreted, brute."""
    rng = random.Random(seed)
    table = Table(
        "E2b: S-COVERING vs CERTAINTY(q_Hall) — solver agreement",
        ["trials", "certain count", "all solvers agree"],
    )
    agree = True
    certain_count = 0
    for _ in range(trials):
        inst = random_instance(
            rng.randint(1, max_elements), rng.randint(0, max_sets), rng
        )
        db = scovering_to_database(inst)
        query = query_for(inst)
        engine = CertaintyEngine(query)
        answers = {
            "hall": not inst.solvable,
            "brute": is_certain_brute_force(query, db),
            "rewriting": engine.certain(db, "rewriting"),
            "interpreted": engine.certain(db, "interpreted"),
            "sql": engine.certain(db, "sql"),
        }
        if len(set(answers.values())) != 1:
            agree = False
        certain_count += int(answers["brute"])
    table.add_row(trials, certain_count, agree)
    return table


def timing_table(
    n_elements: int = 40,
    n_sets: Sequence[int] = (1, 2, 3, 4),
    sql_limit: int = 3,
    seed: int = 3,
) -> Table:
    """Rewriting evaluation time vs the polynomial Hall solver."""
    rng = random.Random(seed)
    table = Table(
        "E2c: q_Hall answer time on |S| = %d" % n_elements,
        ["ell", "certain", "t_hall(s)", "t_rewriting(s)", "t_sql(s)"],
    )
    for ell in n_sets:
        inst = random_instance(n_elements, ell, rng)
        db = scovering_to_database(inst)
        engine = CertaintyEngine(query_for(inst))
        hall_ans, t_hall = timed(lambda: not inst.solvable)
        rw_ans, t_rw = timed(engine.certain, db, "rewriting")
        assert hall_ans == rw_ans
        if ell <= sql_limit:
            sql_ans, t_sql = timed(run_sentence_sql, engine.rewriting, db)
            assert sql_ans == rw_ans
            t_sql_txt = t_sql
        else:
            t_sql_txt = "parser limit"
        table.add_row(ell, rw_ans, t_hall, t_rw, t_sql_txt)
    table.add_note(
        "t_sql runs the rewriting as the paper's formula SQL "
        "(repro.fo.sql) on a freshly loaded sqlite connection; "
        "beyond ell = 3 the exponentially-sized rewriting overflows "
        "sqlite's expression parser stack — the paper's remark that the "
        "rewriting length is exponential in the query has a very "
        "concrete practical consequence."
    )
    return table


def run(seed: int = 2) -> List[Table]:
    """All E2 tables."""
    return [
        rewriting_growth_table(),
        agreement_table(seed=seed),
        timing_table(seed=seed + 1),
    ]
