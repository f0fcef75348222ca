"""Cross-method parity: every certain-answer backend agrees.

Runs the full backend matrix — brute force, the interpreted
Algorithm 1, the tuple-at-a-time rewriting evaluator, the compiled
plan, the columnar vectorized executor, and the SQL backend — on
generated workloads and asserts identical answer sets.  Databases are
kept small enough for the exponential brute-force oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.terms import Variable
from repro.cqa.certain_answers import (
    OpenQuery,
    certain_answers,
    cross_validate_answers,
)
from repro.workloads.poll import (
    adversarial_poll_database,
    random_poll_database,
)
from repro.workloads.queries import poll_q1, poll_qa, poll_qb

p, t = Variable("p"), Variable("t")

OPEN_QUERIES = {
    "qa(p)": lambda: OpenQuery(poll_qa(), [p]),
    "qb(p)": lambda: OpenQuery(poll_qb(), [p]),
    "q1(t)": lambda: OpenQuery(poll_q1(), [t]),
}


def assert_parity(open_query, db):
    results = cross_validate_answers(open_query, db)
    if open_query.in_fo:
        assert set(results) == {"brute", "interpreted", "rewriting",
                                "compiled", "sql", "columnar"}
    reference = results["brute"]
    for method, answers in results.items():
        assert answers == reference, (
            f"{method} disagrees with brute force: "
            f"{sorted(answers ^ reference, key=repr)}"
        )


@pytest.mark.parametrize("name", sorted(OPEN_QUERIES))
@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_random_poll_parity(name, seed):
    db = random_poll_database(
        n_people=6, n_towns=3, conflict_rate=0.5, rng=random.Random(seed)
    )
    assert_parity(OPEN_QUERIES[name](), db)


@given(seed=st.integers(0, 10**6), certain=st.floats(0.0, 1.0))
@settings(max_examples=10, deadline=None)
def test_adversarial_poll_parity(seed, certain):
    db = adversarial_poll_database(
        n_people=5, n_towns=4, certain_fraction=certain,
        rng=random.Random(seed),
    )
    assert_parity(OpenQuery(poll_qa(), [p]), db)


def test_columnar_matches_compiled_beyond_brute_sizes():
    # Larger than the brute-force oracle can take: the vectorized
    # backend against the compiled plan, at a size where dictionary
    # encoding and batch joins do real work.
    db = adversarial_poll_database(800, 12, rng=random.Random(5))
    oq = OpenQuery(poll_qa(), [p])
    serial = certain_answers(oq, db, "compiled")
    assert certain_answers(oq, db, "columnar") == serial


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_boolean_probe_parity(seed):
    # Boolean certainty under method="columnar" delegates to the row
    # executor's short-circuit probe path; the answer must match the
    # brute-force oracle and the compiled probe.
    from repro.cqa.engine import CertaintyEngine

    db = random_poll_database(
        n_people=5, n_towns=3, conflict_rate=0.6, rng=random.Random(seed)
    )
    engine = CertaintyEngine(poll_qa())
    expected = engine.certain(db, "brute")
    assert engine.certain(db, "columnar") == expected
    assert engine.certain(db, "compiled") == expected


def test_two_free_variables_parity():
    db = random_poll_database(6, 3, conflict_rate=0.5,
                              rng=random.Random(99))
    assert_parity(OpenQuery(poll_qa(), [p, t]), db)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=5, deadline=None)
def test_store_backed_parity(seed, tmp_path_factory):
    # The same matrix on a WAL-backed store: method="sql" runs through
    # the store's delta-maintained sqlite mirror, and every answer set
    # must still match the brute-force oracle.
    from repro.storage import PersistentDatabase, storage_stats

    db = random_poll_database(
        n_people=6, n_towns=3, conflict_rate=0.5, rng=random.Random(seed)
    )
    directory = tmp_path_factory.mktemp("store")
    store = PersistentDatabase(directory / "db")
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    try:
        before = storage_stats()["pushdown"]
        routed_before = before["routed_sql"]
        native_before = before["native_sql"]
        assert_parity(OpenQuery(poll_qa(), [p]), store)
        after = storage_stats()["pushdown"]
        assert after["routed_sql"] > routed_before
        # The mirror ran the compiled plan natively.
        assert after["native_sql"] > native_before
    finally:
        store.close()


def test_store_reopen_is_invisible_to_sql_method(tmp_path_factory):
    # Closing and reopening the store (a fresh mirror, dictionary and
    # statement cache) must not change any answer.
    from repro.storage import PersistentDatabase, storage_stats

    db = random_poll_database(6, 3, conflict_rate=0.5,
                              rng=random.Random(11))
    directory = tmp_path_factory.mktemp("store")
    store = PersistentDatabase(directory / "db")
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    oq = OpenQuery(poll_qa(), [p])
    expected = certain_answers(oq, store, "compiled")
    assert certain_answers(oq, store, "sql") == expected
    store.checkpoint()
    store.close()

    store = PersistentDatabase(directory / "db")
    try:
        rebuilds_before = storage_stats()["pushdown"]["mirror_rebuilds"]
        assert certain_answers(oq, store, "sql") == expected
        assert certain_answers(oq, store, "compiled") == expected
        # The reopened store's mirror is built once at first use, never
        # rebuilt.
        assert (storage_stats()["pushdown"]["mirror_rebuilds"]
                == rebuilds_before)
    finally:
        store.close()
