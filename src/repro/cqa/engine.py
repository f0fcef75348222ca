"""High-level certainty engine: one entry point over the backend table,
and a cross-validation helper.

The backends (``brute``, ``interpreted``, ``rewriting``, ``compiled``,
``columnar``, ``sql``) and the ``auto`` rule live in
:mod:`repro.cqa.backends`; this module classifies a query once, caches
its rewriting, and dispatches each call through that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.classify import Classification, Verdict, classify
from ..core.query import Query
from ..db.database import Database
from ..fo.compile import CompiledQuery, plan_cache
from ..fo.formula import Formula
from ..lint import LintResult, lint_query
from .backends import BACKENDS, BOOLEAN, METHODS, run
from .rewriting import NotInFO, consistent_rewriting

__all__ = ["METHODS", "CertaintyEngine", "CrossValidation", "certain"]


@dataclass
class CrossValidation:
    """Results of running every applicable strategy on one instance."""

    results: Dict[str, bool]

    @property
    def consistent(self) -> bool:
        """Did all strategies agree?"""
        return len(set(self.results.values())) <= 1

    @property
    def answer(self) -> bool:
        """The agreed answer (raises if strategies disagree)."""
        if not self.consistent:
            raise AssertionError(f"solvers disagree: {self.results}")
        return next(iter(self.results.values()))


class CertaintyEngine:
    """Answers CERTAINTY(q) for one fixed query on many databases.

    The engine classifies the query once, constructs (and caches) the
    rewriting when one exists, and dispatches per call.
    """

    def __init__(self, query: Query):
        self.query = query
        self.classification: Classification = classify(query)
        self.lint: LintResult = lint_query(query)
        self._rewriting: Optional[Formula] = None

    @property
    def in_fo(self) -> bool:
        """Does the query admit a consistent FO rewriting (Thm 4.3)?"""
        return self.classification.verdict is Verdict.IN_FO

    def require_fo(self, method: str) -> None:
        """Fail fast with the coded lint diagnostics when an FO-only
        method is requested for a query outside Theorem 4.3(2)."""
        if self.in_fo:
            return
        detail = "; ".join(d.one_line() for d in self.lint.errors)
        raise NotInFO(
            f"method {method!r} needs a consistent FO rewriting, which "
            f"Theorem 4.3 withholds for this query: "
            f"{detail or self.classification.reason}",
            diagnostics=self.lint.errors,
        )

    @property
    def rewriting(self) -> Formula:
        """The consistent FO rewriting (constructed lazily, cached)."""
        if self._rewriting is None:
            self._rewriting = consistent_rewriting(self.query)
        return self._rewriting

    def plan(self, db: Database) -> CompiledQuery:
        """The compiled rewriting for ``db``'s schema (plan cache)."""
        return plan_cache.get_or_compile(self.rewriting, db)

    def certain(self, db: Database, options=None, *, tracer=None) -> bool:
        """Is q true in every repair of db?

        ``options`` is an :class:`repro.obs.ExecutionOptions` (or a
        bare method string as shorthand, or its strict ``dict`` wire
        form — the body of a ``repro serve`` request).  ``"auto"``
        follows :func:`repro.cqa.backends.route`: the compiled plan's
        short-circuiting probe when the query is in FO, brute force
        otherwise.

        ``tracer`` (a :class:`repro.obs.Tracer`) records the call's
        spans and, for the plan backends, a per-operator probe
        profile; it never changes the answer.  Without an explicit
        tracer, the options' ``trace`` / ``trace_file`` fields create
        (and flush) one.
        """
        return run(self, BOOLEAN, db, options, tracer)

    def certain_answers(self, db: Database, free=(), options=None, *,
                        tracer=None):
        """All certain answers of q(x⃗) on db, for answer variables
        ``free``.

        Thin wrapper around :func:`repro.cqa.certain_answers.certain_answers`
        reusing this engine's query; ``options`` as in :meth:`certain`.
        """
        from .certain_answers import OpenQuery, certain_answers

        return certain_answers(OpenQuery(self.query, free), db, options,
                               tracer=tracer)

    def metrics(self):
        """A unified :class:`repro.obs.EngineMetrics` snapshot.

        Bundles the plan-cache and incremental-view counters (plus any
        sources registered on the default
        :class:`repro.obs.MetricsRegistry`) into one typed object with a
        stable ``to_dict()``/``to_json()`` shape.
        """
        from ..obs.metrics import collect_metrics

        return collect_metrics()

    def register_view(self, db: Database, free=(), tracer=None):
        """Materialize this query as an incrementally maintained view.

        Returns a :class:`repro.incremental.View` kept current by the
        database's changelog: after any mutation (or batch commit),
        ``view.holds`` / ``view.answers`` reflect the new certain
        answers without a full re-execution.  Requires the query to be
        in FO, like ``method="compiled"``.  ``tracer`` attaches a
        :class:`repro.obs.Tracer` to the database's view manager so
        maintenance work is traced.
        """
        from ..incremental import view_manager

        self.require_fo("incremental")
        return view_manager(db, tracer=tracer).register_view(self.query, free)

    def cross_validate(self, db: Database) -> CrossValidation:
        """Run every applicable backend and collect the answers."""
        return CrossValidation({
            name: self.certain(db, name)
            for name, backend in BACKENDS.items()
            if self.in_fo or not backend.needs_fo
        })


def certain(query: Query, db: Database, method: str = "auto") -> bool:
    """One-shot convenience wrapper around :class:`CertaintyEngine`."""
    return CertaintyEngine(query).certain(db, method)
