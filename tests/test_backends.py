"""The backend table and the one ``auto`` rule (``repro.cqa.backends``).

``auto`` picks ``brute`` outside FO, ``columnar`` when its cost gate
passes (never for sentences), and ``compiled`` otherwise — on every
database, including a mirror-backed persistent store, where it used to
push down to SQL.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.columnar.executor import prefer_columnar
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
from repro.obs import KNOWN_METHODS, ExecutionOptions, Tracer, collect_metrics
from repro.storage import PersistentDatabase
from repro.workloads.poll import random_poll_database
from repro.workloads.queries import poll_q1, poll_qa

p = Variable("p")


def _store(path, db):
    store = PersistentDatabase(path)
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    return store


def _counters():
    doc = collect_metrics().to_dict()
    return (doc["columnar"]["auto_routed"],
            doc["storage"]["pushdown"]["routed_sql"])


def _routed(call):
    """The backend ``auto`` chose, read off the call's root span."""
    tracer = Tracer()
    call(tracer)
    (root,) = tracer.roots
    return root.tags["method"]


@pytest.fixture(scope="module")
def big_store(tmp_path_factory):
    db = random_poll_database(2500, 50, conflict_rate=0.5,
                              rng=random.Random(7))
    store = _store(tmp_path_factory.mktemp("big") / "store", db)
    assert store.size() > 4096  # above both size gates
    yield store
    store.close()


def test_auto_routing_on_a_persistent_store(big_store, tmp_path):
    oq = OpenQuery(poll_qa(), [p])
    columnar_before, sql_before = _counters()
    answers = certain_answers(oq, big_store, "auto")
    columnar_after, sql_after = _counters()
    assert columnar_after == columnar_before + 1
    assert sql_after == sql_before
    assert answers == certain_answers(oq, big_store, "compiled")

    engine = CertaintyEngine(poll_qa())
    assert _routed(lambda t: engine.certain(big_store, tracer=t)) \
        == "compiled"

    small = _store(tmp_path / "small",
                   random_poll_database(300, 10, rng=random.Random(3)))
    try:
        assert small.size() < 4000
        assert _routed(lambda t: certain_answers(oq, small, tracer=t)) \
            == "compiled"
    finally:
        small.close()

    non_fo = CertaintyEngine(poll_q1())  # Ex 4.6 q1: cyclic attack graph
    tiny = random_poll_database(3, 2, rng=random.Random(5))
    assert _routed(lambda t: non_fo.certain(tiny, tracer=t)) == "brute"


def test_route_is_the_only_auto_rule():
    from repro.cqa.backends import route

    db = random_poll_database(20, 4, rng=random.Random(1))
    options = ExecutionOptions()
    assert route(None, db, options) == "brute"
    plan = CertaintyEngine(poll_qa()).plan(db)
    assert route(plan, db, options) == "compiled"


def test_table_matches_the_wire_vocabulary():
    from repro.cqa.backends import BACKENDS, METHODS

    assert KNOWN_METHODS == ("auto",) + METHODS
    assert "parallel" not in BACKENDS
    assert [name for name, b in BACKENDS.items() if not b.needs_fo] \
        == ["brute"]


def test_route_decisions_live_on_the_database(monkeypatch):
    from repro.columnar.executor import _ROUTE_ATTR

    monkeypatch.setenv("REPRO_COLUMNAR_MIN_FACTS", "0")
    monkeypatch.setenv("REPRO_COLUMNAR_COST", "0")
    oq = OpenQuery(poll_qa(), [p])
    db = random_poll_database(20, 4, rng=random.Random(2))
    other = random_poll_database(20, 4, rng=random.Random(2))
    plan = oq.plan(db)
    assert prefer_columnar(plan, db)
    routes = getattr(db, _ROUTE_ATTR)
    assert routes[plan] == (db.clock, True)
    assert not hasattr(other, _ROUTE_ATTR)  # nothing shared by identity
    # An entry lives exactly as long as its compiled plan.
    probe = type(plan)(plan.formula, plan.free, plan.plan, plan.constants)
    prefer_columnar(probe, db)
    assert probe in routes
    del probe
    gc.collect()
    assert len(routes) == 1
