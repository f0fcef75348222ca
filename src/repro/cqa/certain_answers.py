"""Certain answers for non-Boolean queries.

Section 1 of the paper: "The extension to queries with free variables
is easy, essentially because free variables can be treated as
constants."  A tuple c⃗ is a *certain answer* of q(x⃗) on **db** when
the Boolean query q_[x⃗↦c⃗] is true in every repair of **db**.

This module implements exactly that reduction: :class:`OpenQuery`
names the answer variables, :func:`open_rewriting` builds ONE
consistent FO rewriting φ(x⃗) with them free (placeholder grounding,
then re-opening), and :func:`certain_answers` runs it through the
backend table of :mod:`repro.cqa.backends` — the compiled plans return
every certain answer from a single execution, the Boolean backends
test one candidate tuple at a time.

The candidate space is enumerated from rows of the positive atoms
(complete, because a repair is a subset of the database): free
variables covered by a common atom are projected jointly from its rows,
and only variables with no positive occurrence fall back to the active
domain.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.classify import Verdict, classify
from ..core.query import Query, QueryError
from ..core.terms import Constant, PlaceholderConstant, Variable, is_variable
from ..db.database import Database
from ..fo.compile import CompiledQuery, plan_cache
from ..fo.formula import (
    And,
    AtomF,
    Exists,
    Formula,
    free_variables,
    make_and,
    make_exists,
    schemas_of,
    substitute_terms,
)
from ..fo.simplify import simplify_fixpoint
from ..fo.sql import SQLCompiler
from .rewriting import NotInFO, Rewriter


class OpenQuery:
    """A conjunctive query with designated free (answer) variables."""

    def __init__(self, query: Query, free: Sequence[Variable]):
        free = tuple(free)
        if len(set(free)) != len(free):
            raise QueryError("free variables must be distinct")
        missing = [v for v in free if v not in query.vars]
        if missing:
            raise QueryError(
                f"free variables not in the query: {[v.name for v in missing]}"
            )
        self.query = query
        self.free = free

    def grounded(self, values: Sequence) -> Query:
        """q_[x⃗ ↦ c⃗] for a candidate answer tuple."""
        mapping = {v: Constant(c) for v, c in zip(self.free, values)}
        return self.query.substitute(mapping)

    @property
    def boolean_form(self) -> Query:
        """The Boolean query obtained by freezing free variables.

        Classification must be performed on this form: treating the
        free variables as constants changes the attack graph, and it is
        this grounded query that Theorem 4.3 speaks about.
        """
        mapping = {v: PlaceholderConstant(v) for v in self.free}
        return self.query.substitute(mapping)

    @property
    def in_fo(self) -> bool:
        """Does every grounding admit a consistent FO rewriting?"""
        return _in_fo(self.query, self.free)

    def require_fo(self, method: str) -> None:
        """Raise :class:`NotInFO` unless :attr:`in_fo`."""
        if not self.in_fo:
            raise NotInFO(
                f"method {method!r} needs a consistent FO rewriting, "
                f"which Theorem 4.3 withholds for this query with the "
                f"answer variables frozen"
            )

    def plan(self, db: Database) -> CompiledQuery:
        """The compiled guarded rewriting for ``db``'s schema (plan
        cache), answer columns in ``free`` order."""
        return plan_cache.get_or_compile(
            _guarded_open_rewriting(self), db, self.free)

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.free)
        return f"({names}) <- {self.query!r}"


@lru_cache(maxsize=512)
def _in_fo(query: Query, free: Tuple[Variable, ...]) -> bool:
    boolean_form = OpenQuery(query, free).boolean_form
    return classify(boolean_form).verdict is Verdict.IN_FO


@lru_cache(maxsize=512)
def _open_rewriting(
    query: Query, free: Tuple[Variable, ...], simplify: bool
) -> Formula:
    mapping = {v: PlaceholderConstant(v) for v in free}
    grounded = query.substitute(mapping)
    formula = Rewriter(grounded).rewrite(simplify=simplify)
    opened = substitute_terms(formula, {p: v for v, p in mapping.items()})
    return simplify_fixpoint(opened) if simplify else opened


def open_rewriting(open_query: OpenQuery, simplify: bool = True) -> Formula:
    """A consistent FO rewriting φ(x⃗) with the answer variables free.

    Built by grounding the free variables with placeholders, rewriting
    the resulting Boolean query, and re-opening the placeholders.
    Memoized on (query, free variables): the rewriting is a function of
    the query alone, and callers re-derive it per database.
    """
    return _open_rewriting(open_query.query, open_query.free, simplify)


def _generator_vars(formula: Formula) -> FrozenSet[Variable]:
    """Free variables the plan lowering can enumerate from rows.

    Walks the conjunctive skeleton (And / Exists) and collects variables
    of positive atoms found there — exactly the conjuncts ``_lower_and``
    turns into scans.  Atoms under Or, Not, or Forall do not generate.
    """
    if isinstance(formula, AtomF):
        return frozenset(formula.atom.vars)
    if isinstance(formula, Exists):
        return _generator_vars(formula.sub) - set(formula.vars)
    if isinstance(formula, And):
        out: FrozenSet[Variable] = frozenset()
        for sub in formula.subs:
            out |= _generator_vars(sub)
        return out
    return frozenset()


@lru_cache(maxsize=512)
def _guarded_open_rewriting_cached(
    query: Query, free: Tuple[Variable, ...]
) -> Formula:
    formula = _open_rewriting(query, free, True)
    unguarded = set(free) - _generator_vars(formula)
    guards: List[Formula] = []
    while unguarded:
        best = max(
            query.positives,
            key=lambda p: len(p.vars & unguarded),
            default=None,
        )
        if best is None or not best.vars & unguarded:
            break
        other = sorted(best.vars - set(free))
        guards.append(make_exists(other, AtomF(best)))
        unguarded -= best.vars
    if not guards:
        return formula
    return make_and(guards + [formula])


def _guarded_open_rewriting(open_query: OpenQuery) -> Formula:
    """φ(x⃗) conjoined with implied positive-atom guards where needed.

    A certain answer satisfies every positive atom of q in the database
    itself (a repair is a subset of db), so ``exists ū P(x̄, ū)`` is
    implied by φ for every positive atom P touching answer variables.
    Conjoining these guards is an equivalence — and it hands the plan
    lowering generators that cover the answer variables, so the plan
    enumerates them from rows instead of the active domain.  Guards are
    added only for answer variables the rewriting does not already
    generate positively, keeping the plan free of duplicate scans.
    """
    return _guarded_open_rewriting_cached(open_query.query, open_query.free)


def _consistent_rows(atom: Atom, db: Database) -> Sequence[Tuple]:
    """Rows of the atom's relation that match its constants and agree on
    its repeated variables."""
    if atom.relation not in db.schemas:
        return ()
    bindings: Dict[int, object] = {}
    first_pos: Dict[Variable, int] = {}
    checks: List[Tuple[int, int]] = []
    for i, term in enumerate(atom.terms):
        if is_variable(term):
            if term in first_pos:
                checks.append((first_pos[term], i))
            else:
                first_pos[term] = i
        else:
            bindings[i] = term.value
    rows = db.lookup(atom.relation, bindings)
    if not checks:
        return tuple(rows)
    return tuple(
        row for row in rows if all(row[a] == row[b] for a, b in checks)
    )


def candidate_values(
    open_query: OpenQuery, db: Database
) -> List[Tuple]:
    """Candidate answer tuples, enumerated from rows of positive atoms.

    Complete because a repair is a subset of the database: any certain
    answer makes every positive atom of q match an actual row.  Atoms
    are chosen greedily to cover as many free variables as possible
    (tie-break: fewest rows); variables assigned to the same atom are
    projected *jointly* from its rows, so co-occurring variables never
    form a cross product, and only variables with no positive
    occurrence fall back to the full active domain.
    """
    free = open_query.free
    if not free:
        return [()]
    positives = tuple(open_query.query.positives)
    sizes = [
        len(db.facts(p.relation)) if p.relation in db.schemas else 0
        for p in positives
    ]
    groups: Dict[int, List[int]] = {}  # atom index -> indexes into free
    unguarded: List[int] = []
    uncovered = list(range(len(free)))
    while uncovered:
        best: Optional[int] = None
        best_score: Tuple[int, int] = (0, 0)
        for i, p in enumerate(positives):
            covers = sum(1 for j in uncovered if free[j] in p.vars)
            score = (covers, -sizes[i])
            if covers and (best is None or score > best_score):
                best, best_score = i, score
        if best is None:
            unguarded.extend(uncovered)
            break
        groups[best] = [j for j in uncovered if free[j] in positives[best].vars]
        uncovered = [j for j in uncovered if free[j] not in positives[best].vars]
    # Each factor: (free-variable indexes, their joint value tuples).
    factors: List[Tuple[List[int], List[Tuple]]] = []
    for i, members in sorted(groups.items()):
        atom = positives[i]
        positions = [
            next(k for k, t in enumerate(atom.terms) if t == free[j])
            for j in members
        ]
        projected = {
            tuple(row[k] for k in positions)
            for row in _consistent_rows(atom, db)
        }
        factors.append((members, sorted(projected, key=repr)))
    if unguarded:
        adom = sorted(db.active_domain(), key=repr)
        for j in unguarded:
            factors.append(([j], [(value,) for value in adom]))
    out: List[Tuple] = []
    for combo in itertools.product(*(values for _, values in factors)):
        tup: List = [None] * len(free)
        for (members, _), values in zip(factors, combo):
            for j, value in zip(members, values):
                tup[j] = value
        out.append(tuple(tup))
    return out


def certain_answers(
    open_query: OpenQuery,
    db: Database,
    options=None,
    *,
    tracer=None,
) -> FrozenSet[Tuple]:
    """All certain answers of q(x⃗) on db.

    ``options`` is an :class:`repro.obs.ExecutionOptions` — or a bare
    method string as shorthand, or its strict ``dict`` wire form (the
    body of a ``repro serve`` request).  ``auto`` follows
    :func:`repro.cqa.backends.route`: ``brute`` when the grounded query
    is not in FO, ``columnar`` when its cost gate says batching pays,
    ``compiled`` otherwise.

    ``tracer`` (a :class:`repro.obs.Tracer`) records phase spans and,
    for the plan backends, a per-operator
    :class:`repro.obs.PlanProfile` attached via ``tracer.add_profile``;
    without an explicit tracer, the options' ``trace`` / ``trace_file``
    fields create (and flush) one.  Tracing never changes the answers —
    the parity tests in ``tests/test_obs.py`` pin that down for every
    method.
    """
    from .backends import OPEN, run

    return run(open_query, OPEN, db, options, tracer)


def certain_answers_sql_query(open_query: OpenQuery, db: Database) -> str:
    """The paper's single SQL SELECT returning every certain answer.

    It reads the TEXT-encoded tables of
    :func:`repro.db.sqlite_backend.load_database`; decode each returned
    value with :func:`repro.fo.sql.decode_value`.  ``method="sql"``
    does not run this: it runs the compiled plan inside the database's
    sqlite mirror (:mod:`repro.storage.pushdown`).
    """
    formula = open_rewriting(open_query)
    if free_variables(formula) - set(open_query.free):
        raise NotInFO("rewriting has unexpected free variables")
    schemas = dict(db.schemas)
    schemas.update(schemas_of(formula))
    compiler = SQLCompiler(formula, schemas)
    adom_cte = compiler.adom_cte()
    scope = {}
    from_items = []
    select_items = []
    for i, v in enumerate(open_query.free):
        alias = f"ans{i}"
        from_items.append(f"adom {alias}")
        scope[v] = f"{alias}.v"
        select_items.append(f"{alias}.v AS {v.name}")
    body = compiler.compile_expr(formula, scope)
    return (
        f"WITH adom(v) AS ({adom_cte})\n"
        f"SELECT DISTINCT {', '.join(select_items)}\n"
        f"FROM {', '.join(from_items)}\n"
        f"WHERE {body}"
    )


def cross_validate_answers(
    open_query: OpenQuery, db: Database
) -> Dict[str, FrozenSet[Tuple]]:
    """Answers from every applicable backend (tests assert agreement)."""
    from .backends import BACKENDS

    return {
        name: certain_answers(open_query, db, name)
        for name, backend in BACKENDS.items()
        if open_query.in_fo or not backend.needs_fo
    }
