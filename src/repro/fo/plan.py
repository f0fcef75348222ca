"""Logical relational plans and a set-at-a-time executor.

The consistent rewritings of Algorithm 1 are first-order, so they can be
evaluated like any relational query: not tuple-at-a-time over candidate
environments (what :class:`repro.fo.eval.Evaluator` does) but
set-at-a-time, where every operator consumes and produces whole
*relations of variable assignments*.  This module defines the plan IR
and its executor; :mod:`repro.fo.compile` lowers NNF formulas into it.

Operators
---------
``Scan``          rows of one database relation matching an atom pattern
``Literal``       a constant relation (TRUE = {()}, FALSE = {})
``AdomProduct``   the k-fold product of the active domain
``AdomGuard``     {()} iff the active domain is non-empty
``AdomEq``        the diagonal {(v, v) : v in adom}
``Select``        row filter on (dis)equalities between columns/constants
``Project``       column projection/reordering with de-duplication
``Join``          natural hash join on the shared columns
``SemiJoin``      left rows with at least one match in right
``AntiJoin``      left rows with no match in right
``Union``         set union of same-schema inputs
``Difference``    set difference of same-schema inputs

Guarded quantifiers never touch ``AdomProduct``: an existential guard
becomes a ``Scan`` feeding joins, and a universally quantified,
negatively guarded body becomes an ``AntiJoin`` against the relation of
its violating assignments — the set-difference form of relational
division.  The active-domain operators exist only as the total fallback
for unguarded shapes, mirroring the ``adom`` CTE of the SQL backend.

Every node's ``cols`` are sorted by variable name (a root ``Project``
may reorder to the caller's answer-column order), and execution returns
a ``set`` of value tuples aligned with ``cols``.
"""

from __future__ import annotations

import itertools
import operator
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.terms import Variable, is_variable
from ..db.database import Database

Row = Tuple
Cols = Tuple[Variable, ...]

# A Select operand: ("col", index into child's cols) or ("const", value).
Operand = Tuple[str, object]
# A Select condition: lhs, rhs, and whether they must be equal.
Condition = Tuple[Operand, Operand, bool]


class PlanError(ValueError):
    """Raised on malformed plan construction (schema mismatches)."""


def _tuple_getter(positions: Sequence[int]):
    """A row -> tuple projection function.

    ``operator.itemgetter`` runs at C speed but returns a bare value for
    a single index and has no zero-index form; normalize both so every
    getter yields a tuple.
    """
    positions = tuple(positions)
    if len(positions) >= 2:
        return operator.itemgetter(*positions)
    if len(positions) == 1:
        i = positions[0]
        return lambda row: (row[i],)
    return lambda row: ()


class Plan:
    """Base class: a node computing a set of rows over ``cols``.

    Nodes are plain slotted objects — constructors do not validate.
    The structural contract every consumer (the :class:`Executor`, the
    columnar executor, the SQL compiler, the incremental deltas) relies on is pinned as
    invariants PV001–PV013 in :mod:`repro.analysis.verifier`; set
    ``REPRO_VERIFY_PLANS=1`` to check it after every compile.
    """

    __slots__ = ("cols",)

    def __init__(self, cols: Sequence[Variable]):
        self.cols: Cols = tuple(cols)

    def children(self) -> Tuple["Plan", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.cols)
        return f"{self.label()} -> [{names}]"


def _sorted_cols(variables) -> Cols:
    return tuple(sorted(variables))


class Scan(Plan):
    """Rows of one relation matching an atom's term pattern.

    Constant positions are pushed into a :meth:`Database.lookup`, which
    reuses (and lazily builds) the hash indexes of the database instead
    of scanning the relation.  Repeated variables become row-internal
    equality checks; output columns are the atom's distinct variables.
    """

    __slots__ = ("atom", "consts", "eq_checks", "proj")

    def __init__(self, atom: Atom):
        super().__init__(_sorted_cols(atom.vars))
        self.atom = atom
        self.consts: Dict[int, object] = {}
        first_pos: Dict[Variable, int] = {}
        checks: List[Tuple[int, int]] = []
        for i, term in enumerate(atom.terms):
            if is_variable(term):
                if term in first_pos:
                    checks.append((first_pos[term], i))
                else:
                    first_pos[term] = i
            else:
                self.consts[i] = term.value
        self.eq_checks: Tuple[Tuple[int, int], ...] = tuple(checks)
        self.proj: Tuple[int, ...] = tuple(first_pos[v] for v in self.cols)

    def label(self) -> str:
        return f"Scan {self.atom!r}"


class Literal(Plan):
    """A constant relation.  ``Literal((), {()})`` is TRUE, with no rows
    FALSE; equality conjuncts ``x = c`` become one-row literals."""

    __slots__ = ("rows",)

    def __init__(self, cols: Sequence[Variable], rows):
        super().__init__(cols)
        self.rows: frozenset = frozenset(tuple(r) for r in rows)

    def label(self) -> str:
        return f"Literal {sorted(self.rows, key=repr)!r}"


class AdomProduct(Plan):
    """The k-fold Cartesian product of the active domain.

    The total fallback for variables no generator ranges over; for
    ``cols = ()`` this is the nullary TRUE relation ``{()}``.
    """

    __slots__ = ()

    def label(self) -> str:
        return f"AdomProduct^{len(self.cols)}"


class AdomGuard(Plan):
    """{()} iff the active domain is non-empty.

    Vacuous quantifiers still range over the active domain, so
    ``exists x TRUE`` is false on an empty domain; this nullary guard
    preserves that corner of the interpreter's semantics.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(())


class AdomEq(Plan):
    """The diagonal {(v, v) : v in adom}, for unbound ``x = y``."""

    __slots__ = ()

    def __init__(self, a: Variable, b: Variable):
        if a == b or len({a, b}) != 2:
            raise PlanError("AdomEq needs two distinct variables")
        super().__init__(_sorted_cols((a, b)))


class Select(Plan):
    """Filter rows by (dis)equality conditions over columns/constants."""

    __slots__ = ("child", "conds")

    def __init__(self, child: Plan, conds: Sequence[Condition]):
        super().__init__(child.cols)
        self.child = child
        self.conds: Tuple[Condition, ...] = tuple(conds)

    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        parts = []
        for lhs, rhs, equal in self.conds:
            op = "=" if equal else "!="
            parts.append(f"{_operand_str(self, lhs)} {op} {_operand_str(self, rhs)}")
        return f"Select {' and '.join(parts)}"


def _operand_str(node: Select, operand: Operand) -> str:
    kind, payload = operand
    if kind == "col":
        return node.child.cols[payload].name  # type: ignore[index]
    return repr(payload)


class Project(Plan):
    """Project (and possibly reorder) onto a subset of the columns."""

    __slots__ = ("child", "positions")

    def __init__(self, child: Plan, cols: Sequence[Variable]):
        cols = tuple(cols)
        missing = [v for v in cols if v not in child.cols]
        if missing:
            raise PlanError(f"cannot project onto absent columns {missing}")
        super().__init__(cols)
        self.child = child
        self.positions: Tuple[int, ...] = tuple(child.cols.index(v) for v in cols)

    def children(self) -> Tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Project [{', '.join(v.name for v in self.cols)}]"


class _Binary(Plan):
    __slots__ = ("left", "right")

    def __init__(self, cols: Sequence[Variable], left: Plan, right: Plan):
        super().__init__(cols)
        self.left = left
        self.right = right

    def children(self) -> Tuple[Plan, ...]:
        return (self.left, self.right)

    @property
    def shared(self) -> Cols:
        rset = set(self.right.cols)
        return tuple(c for c in self.left.cols if c in rset)

    def label(self) -> str:
        on = ", ".join(v.name for v in self.shared)
        return f"{type(self).__name__} on [{on}]"


class Join(_Binary):
    """Natural hash join on the shared columns (cross product if none)."""

    __slots__ = ("emit",)

    def __init__(self, left: Plan, right: Plan):
        cols = _sorted_cols(set(left.cols) | set(right.cols))
        super().__init__(cols, left, right)
        lpos = {c: i for i, c in enumerate(left.cols)}
        rpos = {c: i for i, c in enumerate(right.cols)}
        self.emit: Tuple[Tuple[int, int], ...] = tuple(
            (0, lpos[c]) if c in lpos else (1, rpos[c]) for c in cols
        )


class SemiJoin(_Binary):
    """Left rows with at least one right match on the shared columns."""

    __slots__ = ()

    def __init__(self, left: Plan, right: Plan):
        super().__init__(left.cols, left, right)


class AntiJoin(_Binary):
    """Left rows with no right match on the shared columns.

    With ``right`` the set of violating assignments of a universally
    quantified body, this is relational division in difference form —
    how the compiler lowers the guarded ∀ of consistent rewritings.
    """

    __slots__ = ()

    def __init__(self, left: Plan, right: Plan):
        super().__init__(left.cols, left, right)


class Union(Plan):
    """Set union of same-schema inputs (disjunction)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Plan]):
        parts = tuple(parts)
        if not parts:
            raise PlanError("Union needs at least one input")
        for p in parts:
            if p.cols != parts[0].cols:
                raise PlanError(
                    f"Union inputs disagree on columns: {p.cols} vs {parts[0].cols}"
                )
        super().__init__(parts[0].cols)
        self.parts = parts

    def children(self) -> Tuple[Plan, ...]:
        return self.parts


class Difference(_Binary):
    """Left minus right over identical columns (complementation)."""

    __slots__ = ()

    def __init__(self, left: Plan, right: Plan):
        if left.cols != right.cols:
            raise PlanError(
                f"Difference inputs disagree on columns: "
                f"{left.cols} vs {right.cols}"
            )
        super().__init__(left.cols, left, right)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


class Executor:
    """Executes plans against one database and one active domain.

    Results are memoized per plan node (by identity), so DAG-shaped
    plans evaluate shared subplans once.  Execution is pure set algebra:
    no per-row environment dictionaries, no re-walking the formula.

    ``profile`` (a :class:`repro.obs.profile.PlanProfile`, or any
    object with ``record``/``count``) turns on per-operator
    observability: inclusive wall time and output cardinality per
    node, plus memo/index/probe counters.  The default ``None`` keeps
    the hot path on the exact pre-instrumentation code — one
    ``is None`` branch per node execution is the entire cost.
    """

    def __init__(self, db: Database, adom: Optional[Sequence] = None,
                 constants: Sequence = (), profile=None):
        self.db = db
        self._adom: Optional[Tuple] = tuple(adom) if adom is not None else None
        self._constants: Tuple = tuple(constants)
        self._memo: Dict[object, Set[Row]] = {}
        self._probe_memo: Dict[object, bool] = {}
        self._adom_frozen: Optional[Set] = None
        self._profile = profile

    @property
    def adom(self) -> Tuple:
        """The active domain, computed on first use — fully guarded
        plans never pay for collecting and sorting it."""
        if self._adom is None:
            dom = set(self.db.active_domain())
            dom.update(self._constants)
            self._adom = tuple(sorted(dom, key=repr))
        return self._adom

    def run(self, plan: Plan) -> Set[Row]:
        # Scans memoize structurally: two scans of the same relation
        # with the same constants/checks/projection yield the same rows
        # even when their columns carry different variable names.
        if type(plan) is Scan:
            key: object = ("scan", plan.atom.relation,
                           tuple(sorted(plan.consts.items())),
                           plan.eq_checks, plan.proj)
        else:
            key = id(plan)
        cached = self._memo.get(key)
        if cached is None:
            profile = self._profile
            if profile is None:
                cached = self._dispatch(plan)
            else:
                t0 = perf_counter()
                cached = self._dispatch(plan)
                profile.record(plan, perf_counter() - t0, len(cached))
            self._memo[key] = cached
        elif self._profile is not None:
            self._profile.count(plan, "memo_hits")
        return cached

    # ------------------------------------------------------------------

    def _dispatch(self, plan: Plan) -> Set[Row]:
        method = self._HANDLERS.get(type(plan))
        if method is None:
            raise TypeError(f"no executor for plan node {plan!r}")
        return method(self, plan)

    def _run_scan(self, plan: Scan) -> Set[Row]:
        schema = self.db.schemas.get(plan.atom.relation)
        if schema is None or schema.arity != plan.atom.schema.arity:
            return set()
        checks = plan.eq_checks
        proj = plan.proj
        profile = self._profile
        if not plan.consts and not checks:
            # The keys of the database's hash index on ``proj`` ARE the
            # projected rows — and the index is version-cached on the
            # database, so repeated executions reuse it.
            if profile is not None:
                profile.count(plan, "index_hits")
            return set(self.db.index(plan.atom.relation, proj))
        rows: Sequence[Row] = self.db.lookup(plan.atom.relation, plan.consts)
        if profile is not None:
            profile.count(plan, "index_hits")
            profile.count(plan, "rows_scanned", len(rows))
        if checks:
            rows = [r for r in rows if all(r[i] == r[j] for i, j in checks)]
        getter = _tuple_getter(proj)
        return {getter(r) for r in rows}

    def _run_literal(self, plan: Literal) -> Set[Row]:
        return set(plan.rows)

    def _run_adom_product(self, plan: AdomProduct) -> Set[Row]:
        return set(itertools.product(self.adom, repeat=len(plan.cols)))

    def _run_adom_guard(self, plan: AdomGuard) -> Set[Row]:
        return {()} if self.adom else set()

    def _run_adom_eq(self, plan: AdomEq) -> Set[Row]:
        return {(v, v) for v in self.adom}

    def _run_select(self, plan: Select) -> Set[Row]:
        rows = self.run(plan.child)
        for lhs, rhs, equal in plan.conds:
            getl = self._operand_getter(lhs)
            getr = self._operand_getter(rhs)
            if equal:
                rows = {r for r in rows if getl(r) == getr(r)}
            else:
                rows = {r for r in rows if getl(r) != getr(r)}
        return rows

    @staticmethod
    def _operand_getter(operand: Operand):
        kind, payload = operand
        if kind == "col":
            return lambda row: row[payload]
        return lambda row: payload

    def _run_project(self, plan: Project) -> Set[Row]:
        getter = _tuple_getter(plan.positions)
        return {getter(r) for r in self.run(plan.child)}

    def _run_join(self, plan: Join) -> Set[Row]:
        left, right = self.run(plan.left), self.run(plan.right)
        if not left or not right:
            return set()
        shared = plan.shared
        lkey = _tuple_getter([plan.left.cols.index(c) for c in shared])
        rkey = _tuple_getter([plan.right.cols.index(c) for c in shared])
        table: Dict[Row, List[Row]] = {}
        for r in right:
            table.setdefault(rkey(r), []).append(r)
        # Emit positions rebased onto the concatenated (left + right) row,
        # so output rows come from one C-level itemgetter call.
        width = len(plan.left.cols)
        emit = _tuple_getter(
            [i if side == 0 else width + i for side, i in plan.emit]
        )
        out: Set[Row] = set()
        empty: List[Row] = []
        for lrow in left:
            for rrow in table.get(lkey(lrow), empty):
                out.add(emit(lrow + rrow))
        return out

    def _semi_keys(self, plan: _Binary):
        shared = plan.shared
        lkey = _tuple_getter([plan.left.cols.index(c) for c in shared])
        rkey = _tuple_getter([plan.right.cols.index(c) for c in shared])
        keys = {rkey(r) for r in self.run(plan.right)}
        return lkey, keys

    def _run_semi_join(self, plan: SemiJoin) -> Set[Row]:
        left = self.run(plan.left)
        if not left:
            return set()
        lkey, keys = self._semi_keys(plan)
        return {r for r in left if lkey(r) in keys}

    def _run_anti_join(self, plan: AntiJoin) -> Set[Row]:
        left = self.run(plan.left)
        if not left:
            return set()
        lkey, keys = self._semi_keys(plan)
        return {r for r in left if lkey(r) not in keys}

    def _run_union(self, plan: Union) -> Set[Row]:
        out: Set[Row] = set()
        for part in plan.parts:
            out |= self.run(part)
        return out

    def _run_difference(self, plan: Difference) -> Set[Row]:
        return self.run(plan.left) - self.run(plan.right)

    # ------------------------------------------------------------------
    # short-circuit (boolean) evaluation
    # ------------------------------------------------------------------

    def nonempty(self, plan: Plan) -> bool:
        """Does the plan produce at least one row?

        Unlike ``bool(run(plan))`` this never materializes the result:
        rows stream lazily to the root, and every filtering operator
        (semi/anti-join, difference) *probes* its right side with the
        candidate row's values bound instead of materializing it —
        sideways information passing, which turns the violator sets of
        lowered ∀-blocks into per-key index lookups.  An existential
        root therefore stops at its first witness and a universal root
        at its first violation.
        """
        if id(plan) in self._memo:  # already materialized: reuse it
            return bool(self.run(plan))
        return self.probe(plan, {})

    def probe(self, plan: Plan, binding: Dict[Variable, object]) -> bool:
        """∃ a row of ``plan`` consistent with ``binding`` (a partial
        assignment of the plan's columns)?  Short-circuits at the first
        such row; results are memoized per (node, binding)."""
        key = (id(plan), tuple(sorted(binding.items())))
        profile = self._profile
        cached = self._probe_memo.get(key)
        if cached is None:
            if profile is not None:
                profile.count(plan, "probe_calls")
            sentinel = object()
            cached = next(self._iter_bound(plan, binding),
                          sentinel) is not sentinel
            self._probe_memo[key] = cached
        elif profile is not None:
            profile.count(plan, "probe_calls")
            profile.count(plan, "probe_memo_hits")
        return cached

    def _iter_bound(self, plan: Plan, binding: Dict[Variable, object]):
        """Lazily iterate rows of ``plan`` consistent with ``binding``.

        Duplicates are allowed (callers probe for existence).  Bindings
        are pushed down: into scan index lookups, through projections
        and joins, and — crucially — into the right sides of semi/anti-
        joins and differences as per-row probes.  Nodes already
        materialized by :meth:`run`, and node types without a lazy
        form, fall back to filtering the memoized result.
        """
        if id(plan) in self._memo:
            return self._iter_filtered(plan, binding)
        method = self._LAZY_HANDLERS.get(type(plan))
        if method is not None:
            return method(self, plan, binding)
        return self._iter_filtered(plan, binding)

    def _iter_filtered(self, plan: Plan, binding):
        rows = self.run(plan)
        if not binding:
            return iter(rows)
        checks = [(plan.cols.index(c), v) for c, v in binding.items()]
        return (r for r in rows if all(r[i] == v for i, v in checks))

    def _iter_bound_scan(self, plan: Scan, binding):
        schema = self.db.schemas.get(plan.atom.relation)
        if schema is None or schema.arity != plan.atom.schema.arity:
            return
        if self._profile is not None:
            self._profile.count(plan, "index_hits")
        consts = plan.consts
        if binding:
            consts = dict(consts)
            for i, col in enumerate(plan.cols):
                if col in binding:
                    consts[plan.proj[i]] = binding[col]
        rows = self.db.lookup(plan.atom.relation, consts)
        checks = plan.eq_checks
        getter = _tuple_getter(plan.proj)
        for r in rows:
            if not checks or all(r[i] == r[j] for i, j in checks):
                yield getter(r)

    def _iter_bound_literal(self, plan: Literal, binding):
        checks = [(plan.cols.index(c), v) for c, v in binding.items()]
        for r in plan.rows:
            if all(r[i] == v for i, v in checks):
                yield r

    @property
    def _adom_set(self) -> Set:
        if self._adom_frozen is None:
            self._adom_frozen = set(self.adom)
        return self._adom_frozen

    def _iter_bound_adom_product(self, plan: AdomProduct, binding):
        pools = []
        for col in plan.cols:
            if col in binding:
                if binding[col] not in self._adom_set:
                    return
                pools.append((binding[col],))
            else:
                pools.append(self.adom)
        yield from itertools.product(*pools)

    def _iter_bound_adom_guard(self, plan: AdomGuard, binding):
        if self.adom:
            yield ()

    def _iter_bound_adom_eq(self, plan: AdomEq, binding):
        values = {binding[c] for c in plan.cols if c in binding}
        if len(values) > 1:
            return
        if values:
            v = values.pop()
            if v in self._adom_set:
                yield (v, v)
            return
        for v in self.adom:
            yield (v, v)

    def _iter_bound_select(self, plan: Select, binding):
        getters = [
            (self._operand_getter(lhs), self._operand_getter(rhs), equal)
            for lhs, rhs, equal in plan.conds
        ]
        for row in self._iter_bound(plan.child, binding):
            if all((getl(row) == getr(row)) is equal
                   for getl, getr, equal in getters):
                yield row

    def _iter_bound_project(self, plan: Project, binding):
        child_binding = {
            plan.child.cols[plan.positions[i]]: binding[col]
            for i, col in enumerate(plan.cols)
            if col in binding
        }
        getter = _tuple_getter(plan.positions)
        for row in self._iter_bound(plan.child, child_binding):
            yield getter(row)

    def _iter_bound_union(self, plan: Union, binding):
        for part in plan.parts:
            yield from self._iter_bound(part, binding)

    def _iter_bound_join(self, plan: Join, binding):
        lcols = set(plan.left.cols)
        rcols = set(plan.right.cols)
        lbind = {c: v for c, v in binding.items() if c in lcols}
        rbind_base = {c: v for c, v in binding.items() if c in rcols}
        shared = plan.shared
        lpos = [plan.left.cols.index(c) for c in shared]
        width = len(plan.left.cols)
        emit = _tuple_getter(
            [i if side == 0 else width + i for side, i in plan.emit]
        )
        for lrow in self._iter_bound(plan.left, lbind):
            rbind = dict(rbind_base)
            for c, i in zip(shared, lpos):
                rbind[c] = lrow[i]
            for rrow in self._iter_bound(plan.right, rbind):
                yield emit(lrow + rrow)

    def _probe_binding(self, plan: _Binary, lrow: Row):
        shared = plan.shared
        lpos = [plan.left.cols.index(c) for c in shared]
        return {c: lrow[i] for c, i in zip(shared, lpos)}

    def _iter_bound_semi_join(self, plan: SemiJoin, binding):
        for lrow in self._iter_bound(plan.left, binding):
            if self.probe(plan.right, self._probe_binding(plan, lrow)):
                yield lrow

    def _iter_bound_anti_join(self, plan: AntiJoin, binding):
        for lrow in self._iter_bound(plan.left, binding):
            if not self.probe(plan.right, self._probe_binding(plan, lrow)):
                yield lrow

    def _iter_bound_difference(self, plan: Difference, binding):
        cols = plan.cols
        for lrow in self._iter_bound(plan.left, binding):
            if not self.probe(plan.right, dict(zip(cols, lrow))):
                yield lrow

    _HANDLERS = {
        Scan: _run_scan,
        Literal: _run_literal,
        AdomProduct: _run_adom_product,
        AdomGuard: _run_adom_guard,
        AdomEq: _run_adom_eq,
        Select: _run_select,
        Project: _run_project,
        Join: _run_join,
        SemiJoin: _run_semi_join,
        AntiJoin: _run_anti_join,
        Union: _run_union,
        Difference: _run_difference,
    }

    _LAZY_HANDLERS = {
        Scan: _iter_bound_scan,
        Literal: _iter_bound_literal,
        AdomProduct: _iter_bound_adom_product,
        AdomGuard: _iter_bound_adom_guard,
        AdomEq: _iter_bound_adom_eq,
        Select: _iter_bound_select,
        Project: _iter_bound_project,
        Union: _iter_bound_union,
        Join: _iter_bound_join,
        SemiJoin: _iter_bound_semi_join,
        AntiJoin: _iter_bound_anti_join,
        Difference: _iter_bound_difference,
    }


def execute_plan(plan: Plan, db: Database, constants: Sequence = (),
                 profile=None) -> Set[Row]:
    """One-shot execution under ``adom = active_domain(db) | constants``
    (collected lazily — only plans with Adom* nodes touch it)."""
    return Executor(db, None, constants, profile).run(plan)


def execute_plan_nonempty(plan: Plan, db: Database,
                          constants: Sequence = (), profile=None) -> bool:
    """One-shot short-circuit non-emptiness test (see
    :meth:`Executor.nonempty`): the boolean-certainty fast path."""
    return Executor(db, None, constants, profile).nonempty(plan)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def explain(plan: Plan) -> str:
    """A readable indented rendering of a plan tree (``repro plan``)."""
    lines: List[str] = []

    def walk(node: Plan, depth: int) -> None:
        names = ", ".join(v.name for v in node.cols)
        lines.append("  " * depth + f"{node.label()}  -> [{names}]")
        for child in node.children():
            walk(child, depth + 1)

    walk(plan, 0)
    return "\n".join(lines)


def plan_nodes(plan: Plan):
    """Iterate every node of a plan tree (pre-order)."""
    yield plan
    for child in plan.children():
        yield from plan_nodes(child)
