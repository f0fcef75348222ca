"""The backend table and the one ``auto`` rule.

Algorithm 1 yields one consistent FO rewriting per query, and every FO
backend runs the same compiled plan of it, so choosing a backend is a
question of speed only.  That choice lives here, once:

:data:`BACKENDS`
    One :class:`Backend` per strategy, each with a ``holds`` callable
    (Boolean certainty) and a ``rows`` callable (every certain answer
    of an open query).
:func:`route`
    The ``auto`` rule, the same for both shapes: ``brute`` when the
    query is not in FO, ``columnar`` when
    :func:`repro.columnar.prefer_columnar` says batching pays (never
    for sentences), ``compiled`` otherwise.  The ``sql`` backend is
    reachable by name only.
:func:`run`
    The dispatcher behind :meth:`CertaintyEngine.certain
    <repro.cqa.engine.CertaintyEngine.certain>` and
    :func:`~repro.cqa.certain_answers.certain_answers`.  It wraps the
    call in its trace spans exactly once: a ``certain`` /
    ``certain-answers`` span holding ``rewrite-and-compile`` and a
    profiled ``probe`` / ``execute`` span.

Backends
--------
``brute``
    Exhaustive repair enumeration (always applicable, exponential);
    open queries ground every candidate tuple.
``interpreted``
    Algorithm 1 run directly on the database, per candidate tuple.
``rewriting``
    The consistent FO rewriting evaluated by the Python active-domain
    evaluator (tuple-at-a-time).
``compiled``
    The rewriting lowered to a set-at-a-time relational plan
    (:mod:`repro.fo.compile`); sentences run in the executor's
    short-circuiting probe mode.
``columnar``
    The same plan through the vectorized batch executor
    (:mod:`repro.columnar`); sentences keep the probe mode.
``sql``
    The plan as one SELECT inside the database's integer-encoded sqlite
    mirror (:mod:`repro.storage.pushdown`), built in memory at the
    first ``sql`` call on any database and delta-maintained after.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple

from ..columnar import columnar_holds, columnar_rows, prefer_columnar
from ..db.database import Database
from ..fo.eval import Evaluator
from ..obs.options import ExecutionOptions, close_tracer, open_tracer
from ..obs.profile import PlanProfile
from ..obs.trace import NULL_TRACER
from ..storage.pushdown import native_sql_answers, native_sql_holds
from .brute_force import is_certain_brute_force
from .certain_answers import candidate_values, open_rewriting
from .is_certain import is_certain

__all__ = ["BACKENDS", "BOOLEAN", "METHODS", "OPEN", "Backend", "route", "run"]

Rows = FrozenSet[Tuple]


class Backend(NamedTuple):
    """One execution strategy.

    ``holds(engine, plan, db, profile)`` answers Boolean certainty for a
    :class:`~repro.cqa.engine.CertaintyEngine`; ``rows(open_query,
    plan, db, profile)`` returns every certain answer of an
    :class:`~repro.cqa.certain_answers.OpenQuery`.  ``plan`` is the
    compiled rewriting when ``uses_plan`` (else ``None``); ``profile``
    is a :class:`~repro.obs.PlanProfile` to fill, or ``None``.
    ``needs_fo`` backends refuse queries without a consistent FO
    rewriting.
    """

    name: str
    holds: Callable[..., bool]
    rows: Callable[..., Rows]
    uses_plan: bool
    needs_fo: bool = True


def _each_candidate(test: Callable[..., bool]) -> Callable[..., Rows]:
    """``rows`` for a Boolean test: keep the candidates whose grounding
    is certain."""
    def rows(open_query, plan, db: Database, profile) -> Rows:
        return frozenset(
            c for c in candidate_values(open_query, db)
            if test(open_query.grounded(c), db)
        )
    return rows


def _rewriting_rows(open_query, plan, db: Database, profile) -> Rows:
    evaluator = Evaluator(open_rewriting(open_query), db)
    free = open_query.free
    return frozenset(
        c for c in candidate_values(open_query, db)
        if evaluator.evaluate(dict(zip(free, c)))
    )


#: Every backend by name, in cross-validation order.
BACKENDS: Dict[str, Backend] = {b.name: b for b in (
    Backend("brute",
            lambda engine, plan, db, profile:
                is_certain_brute_force(engine.query, db),
            _each_candidate(is_certain_brute_force),
            uses_plan=False, needs_fo=False),
    Backend("interpreted",
            lambda engine, plan, db, profile: is_certain(engine.query, db),
            _each_candidate(is_certain),
            uses_plan=False),
    Backend("rewriting",
            lambda engine, plan, db, profile:
                Evaluator(engine.rewriting, db).evaluate(),
            _rewriting_rows,
            uses_plan=False),
    Backend("compiled",
            lambda engine, plan, db, profile: plan.holds(db, profile=profile),
            lambda open_query, plan, db, profile:
                plan.rows(db, profile=profile),
            uses_plan=True),
    Backend("columnar",
            lambda engine, plan, db, profile:
                columnar_holds(plan, db, profile=profile),
            lambda open_query, plan, db, profile:
                columnar_rows(plan, db, profile=profile),
            uses_plan=True),
    Backend("sql",
            lambda engine, plan, db, profile: native_sql_holds(plan, db),
            lambda open_query, plan, db, profile:
                native_sql_answers(plan, db),
            uses_plan=True),
)}

#: The backend names ``method=`` accepts besides ``auto``.
METHODS: Tuple[str, ...] = tuple(BACKENDS)


def route(plan, db: Database, options: ExecutionOptions) -> str:
    """The ``auto`` rule: which backend runs this call.

    ``plan`` is the compiled rewriting, or ``None`` when the query has
    no consistent FO rewriting (Theorem 4.3).
    """
    if plan is None:
        return "brute"
    if prefer_columnar(plan, db, options.columnar_min_facts):
        return "columnar"
    return "compiled"


class _Shape(NamedTuple):
    """What differs between a Boolean and an open call."""

    span: str                             # outer span name
    phase: str                            # execution span name
    call: Callable[[Backend], Callable]   # picks holds or rows
    counter: str                          # execution span counter
    size: Callable[[Any], int]            # result -> counter value


BOOLEAN = _Shape("certain", "probe", attrgetter("holds"), "holds", int)
OPEN = _Shape("certain-answers", "execute", attrgetter("rows"), "rows_out",
              len)


def run(subject, shape: _Shape, db: Database, options=None,
        tracer=None) -> Any:
    """Answer ``subject`` on ``db`` with the backend ``options`` names.

    ``subject`` is a :class:`~repro.cqa.engine.CertaintyEngine` for
    ``BOOLEAN`` and an :class:`~repro.cqa.certain_answers.OpenQuery`
    for ``OPEN``; both expose ``in_fo``, ``plan(db)`` and
    ``require_fo(method)``.  ``options`` is anything
    :meth:`ExecutionOptions.coerce` accepts.  An explicit ``tracer``
    wins; otherwise the options' trace fields create (and flush) one.
    """
    opts = ExecutionOptions.coerce(options)
    tracer, own = open_tracer(opts, tracer)
    t = tracer if tracer is not None else NULL_TRACER
    try:
        name = opts.method
        with t.span(shape.span, method=name) as span:
            with t.span("rewrite-and-compile"):
                wants_plan = name == "auto" or BACKENDS[name].uses_plan
                plan = subject.plan(db) if wants_plan and subject.in_fo \
                    else None
            if name == "auto":
                name = route(plan, db, opts)
                span.tag(method=name)
            backend = BACKENDS[name]
            if backend.needs_fo:
                subject.require_fo(name)
            profile: Optional[PlanProfile] = (
                PlanProfile() if t.enabled and backend.uses_plan else None)
            with t.span(shape.phase) as phase:
                result = shape.call(backend)(subject, plan, db, profile)
                phase.count(shape.counter, shape.size(result))
            if profile:
                t.add_profile(plan.plan, profile, method=name,
                              phase=shape.phase)
            return result
    finally:
        close_tracer(opts, tracer, own)
