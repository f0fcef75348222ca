"""ExecutionOptions: the one request-shaped execution API.

The same frozen dataclass travels two ways — positionally into
``certain``/``certain_answers`` and as the JSON body of a ``repro
serve`` request — so these tests pin its validation, coercion and wire
round-trip.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.parser import parse_query
from repro.cqa.engine import CertaintyEngine
from repro.db.database import Database
from repro.core.atoms import RelationSchema
from repro.obs import ExecutionOptions, OptionsError


class TestConstruction:
    def test_defaults(self):
        opts = ExecutionOptions()
        assert opts.method == "auto"
        assert opts.trace is False
        assert opts.columnar_min_facts is None

    def test_frozen(self):
        with pytest.raises(Exception):
            ExecutionOptions().method = "sql"  # type: ignore[misc]

    def test_unknown_method_rejected(self):
        with pytest.raises(OptionsError, match="unknown method"):
            ExecutionOptions(method="turbo")

    def test_nonnegative_fields_validated(self):
        assert ExecutionOptions(columnar_min_facts=0).columnar_min_facts == 0
        with pytest.raises(OptionsError):
            ExecutionOptions(columnar_min_facts=-5)

    def test_bool_is_not_an_int(self):
        with pytest.raises(OptionsError):
            ExecutionOptions(columnar_min_facts=True)

    def test_four_fields(self):
        from dataclasses import fields

        assert [f.name for f in fields(ExecutionOptions)] == [
            "method", "trace", "trace_file", "columnar_min_facts"]

    @pytest.mark.parametrize("payload", [
        {"method": "parallel"},
        {"method": "auto", "jobs": 2},
        {"max_workers": 2},
        {"parallel_min_facts": 0},
        {"shard_factor": 4},
        {"sql_min_facts": 0},
        {"sql_stmt_cache": 0},
    ])
    def test_retired_parallel_and_sql_routing_fields_rejected(self, payload):
        with pytest.raises(OptionsError):
            ExecutionOptions.from_dict(payload)


class TestCoercion:
    def test_none_is_defaults(self):
        assert ExecutionOptions.coerce(None) == ExecutionOptions()

    def test_string_is_method_shorthand(self):
        assert ExecutionOptions.coerce("sql").method == "sql"

    def test_mapping_goes_through_from_dict(self):
        opts = ExecutionOptions.coerce({"method": "columnar",
                                        "columnar_min_facts": 3})
        assert (opts.method, opts.columnar_min_facts) == ("columnar", 3)

    def test_instance_passes_through(self):
        opts = ExecutionOptions(method="brute")
        assert ExecutionOptions.coerce(opts) is opts

    def test_unknown_keys_rejected(self):
        with pytest.raises(OptionsError, match="unknown option field"):
            ExecutionOptions.from_dict({"method": "sql", "workers": 4})

    def test_other_types_rejected(self):
        with pytest.raises((TypeError, OptionsError)):
            ExecutionOptions.coerce(42)  # type: ignore[arg-type]


class TestWireRoundTrip:
    def test_to_dict_is_compact(self):
        assert ExecutionOptions().to_dict() == {"method": "auto"}

    def test_round_trip_preserves_everything(self):
        opts = ExecutionOptions(method="sql", trace_file="t.jsonl",
                                columnar_min_facts=7)
        assert ExecutionOptions.from_dict(opts.to_dict()) == opts

    def test_replace(self):
        opts = ExecutionOptions(method="auto").replace(method="sql")
        assert opts.method == "sql"

    def test_from_env_reads_gates(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_MIN_FACTS", "123")
        opts = ExecutionOptions.from_env(method="sql")
        assert opts.columnar_min_facts == 123
        assert opts.method == "sql"


class TestEngineIntegration:
    QUERY = "P(x | y), not N('c' | y)"  # acyclic: FO-rewritable

    @staticmethod
    def _db():
        db = Database([RelationSchema("P", 2, 1), RelationSchema("N", 2, 1)])
        db.add("P", ("a", "b"))
        db.add("N", ("c", "d"))
        return db

    def test_engine_accepts_options_positionally(self):
        engine = CertaintyEngine(parse_query(self.QUERY))
        db = self._db()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = engine.certain(db, "brute")
            assert engine.certain(db, ExecutionOptions(method="compiled")) \
                == expected
            assert engine.certain(db, {"method": "interpreted"}) == expected

    def test_engine_rejects_retired_keywords(self):
        engine = CertaintyEngine(parse_query(self.QUERY))
        db = self._db()
        for keyword in ("method", "jobs", "config"):
            with pytest.raises(TypeError):
                engine.certain(db, **{keyword: "compiled"})
