"""SQL pushdown: the integer-encoded mirror behind ``method="sql"``.

Every database, plain or persistent, gets one in-memory mirror at its
first ``sql`` call.  The mirror must stay delta-consistent with the
database (one transaction per changelog batch, active-domain refcounts
alongside), rebuild only when it missed a changelog or is read inside
an open batch, attach exactly once under concurrent first calls, and
refuse — loudly — a plan the native SQL compiler cannot translate.  Since the ``repro_adom`` table,
every ``Adom*``-bearing plan translates.
"""

from __future__ import annotations

import sys
import threading
import time
import types

import pytest

from repro.core.atoms import RelationSchema
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
from repro.fo.plan import (
    AdomEq,
    AdomGuard,
    AdomProduct,
    Join,
    Plan,
    PlanError,
    Project,
    Scan,
    execute_plan,
)
from repro.db.database import Database
from repro.fo.sql import table_name
from repro.workloads.queries import poll_qa
from repro.storage import (
    PersistentDatabase,
    SQLiteMirror,
    native_sql_answers,
    native_sql_holds,
    reset_storage_stats,
    sql_mirror,
    storage_stats,
    supports_plan,
)

QUERY = "R(x | y), not S(y | x)"

#: poll_qa's schemas, for the tests that need a compiled Boolean plan.
POLL_SCHEMAS = (RelationSchema("Lives", 2, 1), RelationSchema("Born", 2, 1),
                RelationSchema("Likes", 2, 2))

x, y = Variable("x"), Variable("y")


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_storage_stats()
    yield
    reset_storage_stats()


def make_store(path):
    db = PersistentDatabase(path)
    db.add_relation(RelationSchema("R", 2, 1))
    db.add_relation(RelationSchema("S", 2, 1))
    return db


def make_poll_store(path):
    db = PersistentDatabase(path)
    for schema in POLL_SCHEMAS:
        db.add_relation(schema)
    return db


def mirror_rows(mirror, relation):
    """The mirror's rows for one relation, decoded back to values
    (the mirror stores dictionary codes in INTEGER columns)."""
    cur = mirror.conn.execute(f"SELECT * FROM {table_name(relation)}")
    decode = mirror.dictionary.decode
    return {tuple(decode(code) for code in row) for row in cur.fetchall()}


def adom_values(mirror):
    """The decoded contents of the maintained active-domain table."""
    cur = mirror.conn.execute("SELECT code FROM repro_adom")
    return {mirror.dictionary.decode(code) for (code,) in cur.fetchall()}


def fake_compiled(plan, constants=(), free=None):
    """A CompiledQuery stand-in for synthetic plans."""
    return types.SimpleNamespace(
        plan=plan, constants=tuple(constants),
        free=tuple(plan.cols if free is None else free))


class _OpaquePlan(Plan):
    """A plan node type the SQL compiler has never heard of."""

    __slots__ = ()

    def __init__(self):
        super().__init__((x,))


class TestMirror:
    def test_rebuild_then_delta_consistency(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("b", "2")])
        mirror = sql_mirror(db)
        assert mirror_rows(mirror, "R") == {("a", "1"), ("b", "2")}
        assert mirror.clock == db.clock

        db.add("R", ("c", "3"))
        db.discard("R", ("a", "1"))
        with db.batch():
            db.add("S", ("9", "z"))
            db.add("S", ("8", "y"))
        assert mirror_rows(mirror, "R") == {("b", "2"), ("c", "3")}
        assert mirror_rows(mirror, "S") == {("9", "z"), ("8", "y")}
        assert mirror.clock == db.clock
        # Deltas, not rebuilds, carried all of that.
        stats = storage_stats()["pushdown"]
        assert stats["mirror_delta_rows"] == 4
        assert stats["mirror_rebuilds"] == 0
        db.close()

    def test_adom_table_tracks_active_domain(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("a", "2")])
        mirror = sql_mirror(db)
        assert adom_values(mirror) == {"a", "1", "2"}
        # "a" occurs twice: deleting one occurrence must keep it.
        db.discard("R", ("a", "1"))
        assert adom_values(mirror) == {"a", "2"}
        db.add("S", ("1", "z"))
        assert adom_values(mirror) == {"a", "2", "1", "z"}
        db.discard("R", ("a", "2"))
        assert adom_values(mirror) == {"1", "z"}
        db.close()

    def test_missed_changelog_rebuilds(self):
        # A listener ahead of the mirror raises, so the mirror never
        # sees that mutation; the next query notices its clock fell
        # behind and reloads instead of answering from stale tables.
        db = Database([RelationSchema("R", 2, 1), RelationSchema("S", 2, 1)])
        db.add("R", ("a", "1"))

        def fail(log):
            raise RuntimeError("listener ahead of the mirror failed")

        db.subscribe(fail)
        oq = OpenQuery(parse_query(QUERY), [x])
        assert certain_answers(oq, db, "sql") == {("a",)}
        with pytest.raises(RuntimeError):
            db.add("R", ("b", "2"))
        assert sql_mirror(db).clock < db.clock
        assert certain_answers(oq, db, "sql") == {("a",), ("b",)}
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 1
        assert sql_mirror(db).clock == db.clock

    def test_query_from_an_earlier_listener(self):
        # A listener ahead of the mirror that runs method="sql" sees the
        # database ahead of the mirror, which reloads; the changelog
        # reaching the mirror afterwards must not count its rows twice.
        db = Database([RelationSchema("R", 2, 1), RelationSchema("S", 2, 1)])
        oq = OpenQuery(parse_query(QUERY), [x])
        seen = []

        def query(log):
            seen.append(certain_answers(oq, db, "sql"))

        db.subscribe(query)
        db.add("R", ("b", "2"))
        db.add("R", ("c", "3"))
        db.unsubscribe(query)
        db.discard("R", ("c", "3"))
        assert seen == [{("b",)}, {("b",), ("c",)}]
        assert adom_values(sql_mirror(db)) == {"b", "2"}
        assert certain_answers(oq, db, "sql") == {("b",)}

    def test_mirror_built_mid_batch_reloads_at_commit(self):
        # The mirror is first built inside a batch that then changes
        # again.  The batch's net changelog is relative to the state
        # before the batch, so applying it over the mid-batch load
        # would keep R(c,3) and miscount the active domain.
        db = Database([RelationSchema("R", 2, 1), RelationSchema("S", 2, 1)])
        db.add("R", ("a", "1"))
        oq = OpenQuery(parse_query(QUERY), [x])
        db.begin_batch()
        db.add("R", ("c", "3"))
        assert certain_answers(oq, db, "sql") == {("a",), ("c",)}
        db.discard("R", ("c", "3"))
        db.add("R", ("d", "4"))
        db.commit()
        assert (certain_answers(oq, db, "sql")
                == certain_answers(oq, db, "compiled") == {("a",), ("d",)})
        assert adom_values(sql_mirror(db)) == set(db.active_domain())
        db.add("S", ("4", "d"))
        assert (certain_answers(oq, db, "sql")
                == certain_answers(oq, db, "compiled") == {("a",)})
        assert adom_values(sql_mirror(db)) == set(db.active_domain())

    def test_query_mid_batch_sees_the_batch(self):
        # An attached mirror queried inside a batch answers from the
        # live facts, as the other backends do, and the commit leaves
        # it exact.  A query after the batch's last change makes the
        # commit a no-op for the mirror; later deltas then apply.
        db = Database([RelationSchema("R", 2, 1), RelationSchema("S", 2, 1)])
        db.add("R", ("a", "1"))
        oq = OpenQuery(parse_query(QUERY), [x])
        assert certain_answers(oq, db, "sql") == {("a",)}
        with db.batch():
            db.discard("R", ("a", "1"))
            db.add("R", ("b", "2"))
            assert (certain_answers(oq, db, "sql")
                    == certain_answers(oq, db, "compiled") == {("b",)})
            db.add("S", ("2", "b"))
        assert (certain_answers(oq, db, "sql")
                == certain_answers(oq, db, "compiled") == set())
        assert adom_values(sql_mirror(db)) == set(db.active_domain())

        with db.batch():
            db.add("R", ("e", "5"))
            assert certain_answers(oq, db, "sql") == {("e",)}
        rebuilds = storage_stats()["pushdown"]["mirror_rebuilds"]
        db.add("R", ("f", "6"))
        assert certain_answers(oq, db, "sql") == {("e",), ("f",)}
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == rebuilds
        assert adom_values(sql_mirror(db)) == set(db.active_domain())

    def test_no_mirror_file_on_disk(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        oq = OpenQuery(parse_query(QUERY), [x])
        assert certain_answers(oq, db, "sql") == {("a",)}
        db.checkpoint()
        db.close()
        assert not list((tmp_path / "store").glob("mirror*"))

    def test_concurrent_first_attach_builds_one_mirror(self, tmp_path,
                                                       monkeypatch):
        # Two first calls released together must share one mirror: one
        # build, one changelog listener.  Construction is slowed so the
        # unguarded check-then-set window is wide open.
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("b", "2")])
        built = []
        real_init = SQLiteMirror.__init__

        def slow_init(self, *args):
            built.append(self)
            time.sleep(0.05)
            real_init(self, *args)

        monkeypatch.setattr(SQLiteMirror, "__init__", slow_init)
        barrier = threading.Barrier(4, timeout=10)
        got = []

        def attach():
            barrier.wait()
            got.append(sql_mirror(db))

        threads = [threading.Thread(target=attach) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 1
        assert len(got) == 4 and all(m is got[0] for m in got)
        listeners = [f for f in db._listeners
                     if isinstance(getattr(f, "__self__", None),
                                   SQLiteMirror)]
        assert len(listeners) == 1
        db.close()

    def test_tables_are_integer_with_indexes(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        mirror = sql_mirror(db)
        cols = mirror.conn.execute('PRAGMA table_info("R")').fetchall()
        assert [c[2] for c in cols] == ["INTEGER", "INTEGER"]
        # key_size 1 < arity 2: a non-key suffix index exists.
        indexes = mirror.conn.execute(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'index' AND tbl_name = 'R'").fetchall()
        assert any("suffix" in name for (name,) in indexes)
        db.close()

    def test_new_relation_after_attach(self, tmp_path):
        db = make_store(tmp_path / "store")
        mirror = sql_mirror(db)
        db.add_relation(RelationSchema("T", 1, 1))
        db.add("T", ("t",))
        assert mirror_rows(mirror, "T") == {("t",)}
        db.close()

    def test_close_detaches_mirror(self, tmp_path):
        db = make_store(tmp_path / "store")
        sql_mirror(db)
        db.close()
        assert not hasattr(db, "_sql_mirror")

    def test_reopen_drops_mirror_attached_while_closed(self, tmp_path):
        # open() resets the changelog listeners, so a mirror attached
        # to the closed store must not survive into the reopened one.
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        db.close()
        oq = OpenQuery(parse_query(QUERY), [x])
        assert certain_answers(oq, db, "sql") == {("a",)}
        db.open()
        db.add("R", ("b", "2"))
        assert certain_answers(oq, db, "sql") == {("a",), ("b",)}
        db.add("R", ("c", "3"))
        assert certain_answers(oq, db, "sql") == {("a",), ("b",), ("c",)}
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 0
        db.close()


class TestRouting:
    def test_plain_database_routes_through_mirror(self):
        # A plain in-memory Database gets the same mirror a store does,
        # and the mirror follows its commits.
        db = Database([RelationSchema("R", 2, 1), RelationSchema("S", 2, 1)]
                      + list(POLL_SCHEMAS))
        db.add_all("R", [("a", "1"), ("a", "2"), ("b", "1"), ("c", "4")])
        db.add_all("S", [("1", "b"), ("4", "c")])
        db.add("Lives", ("ann", "ghent"))
        db.add("Born", ("ann", "ghent"))
        oq = OpenQuery(parse_query(QUERY), [x])
        engine = CertaintyEngine(poll_qa())

        def check():
            assert (certain_answers(oq, db, "sql")
                    == certain_answers(oq, db, "compiled"))
            assert engine.certain(db, "sql") == engine.certain(db, "compiled")

        check()
        assert engine.certain(db, "sql") is False
        assert storage_stats()["pushdown"]["routed_sql"] == 3
        with db.batch():
            db.add("S", ("2", "a"))
            db.discard("S", ("1", "b"))
            db.add("R", ("d", "5"))
            db.discard("Born", ("ann", "ghent"))
        check()
        assert engine.certain(db, "sql") is True
        assert storage_stats()["pushdown"]["routed_sql"] == 6
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 0

    def test_adom_plans_route(self, tmp_path):
        # Adom*-bearing plans are served by the maintained repro_adom
        # table instead of forcing the in-memory executors.
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        compiled = fake_compiled(Project(AdomProduct((x,)), (x,)))
        assert supports_plan(compiled.plan)
        assert native_sql_answers(compiled, db) == {("a",), ("1",)}
        assert storage_stats()["pushdown"]["native_sql"] == 1
        db.close()

    def test_unsupported_plan_raises(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        compiled = fake_compiled(_OpaquePlan())
        assert not supports_plan(compiled.plan)
        # No silent fallback: the sql backend names what it cannot run.
        with pytest.raises(PlanError, match="no SQL translation"):
            native_sql_answers(compiled, db)
        with pytest.raises(PlanError, match="no SQL translation"):
            native_sql_holds(fake_compiled(_OpaquePlan(), free=()), db)
        assert storage_stats()["pushdown"]["native_sql"] == 0
        db.close()


class TestStatementCache:
    def test_repeat_queries_hit_cache(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("b", "2")])
        db.add_all("S", [("1", "b")])
        oq = OpenQuery(parse_query(QUERY), [Variable("x")])
        certain_answers(oq, db, "sql")
        misses = storage_stats()["pushdown"]["stmt_cache_misses"]
        assert misses >= 1
        certain_answers(oq, db, "sql")
        certain_answers(oq, db, "sql")
        stats = storage_stats()["pushdown"]
        assert stats["stmt_cache_hits"] >= 2
        assert stats["stmt_cache_misses"] == misses
        db.close()


class TestAdomNative:
    """Adom* plans execute natively with executor parity on real stores."""

    def seed(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("a", "2"), ("d", "d")])
        db.add_all("S", [("1", "b")])
        return db

    @pytest.mark.parametrize("make_plan,constants", [
        (lambda: Project(AdomProduct((x,)), (x,)), ()),
        (lambda: Project(AdomProduct((x,)), (x,)), ("zzz",)),
        (lambda: AdomEq(x, y), ()),
        (lambda: Join(Scan(parse_query("R(x | y)").atoms[0]),
                      AdomGuard()), ()),
    ])
    def test_synthetic_adom_parity(self, tmp_path, make_plan, constants):
        db = self.seed(tmp_path)
        plan = make_plan()
        compiled = fake_compiled(plan, constants)
        got = native_sql_answers(compiled, db)
        expect = frozenset(execute_plan(plan, db, constants))
        assert got == expect
        # Stays correct after deltas shrink and grow the domain.
        db.discard("R", ("a", "1"))
        db.add("R", ("e", "f"))
        got = native_sql_answers(compiled, db)
        expect = frozenset(execute_plan(plan, db, constants))
        assert got == expect
        db.close()

    def test_adom_constants_outside_database(self, tmp_path):
        # The executor's adom is active_domain ∪ plan constants; a
        # constant the database has never seen must still be ranged
        # over, via a bind-time parameter in the adom CTE.
        db = self.seed(tmp_path)
        plan = Project(AdomProduct((x,)), (x,))
        got = native_sql_answers(fake_compiled(plan, ("ghost",)), db)
        assert got is not None and ("ghost",) in got
        db.close()


class TestEndToEnd:
    def seed(self, db):
        db.add_all("R", [("a", "1"), ("a", "2"), ("b", "1"), ("c", "4")])
        db.add_all("S", [("1", "b"), ("4", "c")])

    def test_sql_method_answers_match(self, tmp_path):
        db = make_store(tmp_path / "store")
        self.seed(db)
        oq = OpenQuery(parse_query(QUERY), [Variable("x")])
        assert (certain_answers(oq, db, "sql")
                == certain_answers(oq, db, "compiled"))
        # The sql run ran natively inside the mirror.
        stats = storage_stats()["pushdown"]
        assert stats["routed_sql"] >= 1
        assert stats["native_sql"] >= 1
        db.close()

    def seed_poll(self, db):
        db.add_all("Lives", [("ann", "ghent"), ("ann", "mons"),
                             ("bob", "ghent")])
        db.add_all("Born", [("ann", "mons")])
        db.add_all("Likes", [("bob", "ghent")])

    def test_sql_method_boolean_match(self, tmp_path):
        db = make_poll_store(tmp_path / "store")
        self.seed_poll(db)
        engine = CertaintyEngine(poll_qa())
        assert engine.certain(db, "sql") == engine.certain(db, "compiled")
        assert storage_stats()["pushdown"]["native_sql"] >= 1
        db.close()

    def test_mirror_answers_track_updates(self, tmp_path):
        db = make_store(tmp_path / "store")
        self.seed(db)
        oq = OpenQuery(parse_query(QUERY), [Variable("x")])
        certain_answers(oq, db, "sql")  # warm the mirror
        db.add("S", ("2", "a"))
        db.discard("S", ("1", "b"))
        assert (certain_answers(oq, db, "sql")
                == certain_answers(oq, db, "compiled"))
        db.close()
