"""The unified analysis report behind ``repro analyze``.

:func:`analyze_text` runs the full static pipeline over query source
text — lint (QL rules), structural classification (Theorem 4.3),
compilation of the consistent rewriting when one exists, plan-IR
verification, static cost estimation, and the QP performance rules —
and returns one :class:`AnalysisReport` that renders as compiler-style
text, as JSON pinned by ``docs/diagnostics.schema.json``, or as GitHub
workflow annotations (``--format github``).

QL and QP findings share the linter's Diagnostic type, so the merged
report dedupes identical ``(code, span, message)`` findings and sorts
everything into one stable order (span start, severity, code).  Every
stage is threaded through :mod:`repro.obs` spans under ``analyze``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.analysis import QueryAnalysis, analyze
from ..core.query import Query, QueryError
from ..core.spans import SourceText
from ..core.terms import Variable
from ..db.database import Database
from ..lint import Diagnostic, Severity, dedupe_diagnostics, lint_text
from ..obs.trace import NULL_TRACER
from .cost import CostModel, CostReport, table_stats
from .rules import AnalysisContext, run_qp_rules
from .verifier import VerificationReport, verification_report

__all__ = ["AnalysisReport", "analyze_query", "analyze_text"]

_GITHUB_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "notice",
    Severity.HINT: "notice",
}


def _gh_escape(text: str) -> str:
    """Escape a message for the GitHub workflow-command syntax."""
    return (text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))


@dataclass
class AnalysisReport:
    """Everything ``repro analyze`` knows about one query."""

    text: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    source: Optional[SourceText] = None
    query: Optional[Query] = None
    free: Tuple[Variable, ...] = ()
    structural: Optional[QueryAnalysis] = None
    verification: Optional[VerificationReport] = None
    cost: Optional[CostReport] = None

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when nothing blocks evaluation: no error diagnostics
        (a failed plan verification surfaces as QP100, an error)."""
        return not self.errors

    @property
    def verdict(self) -> Optional[str]:
        if self.structural is None:
            return None
        return self.structural.classification.verdict.value

    def summary(self) -> Dict[str, int]:
        return {
            severity.value: sum(
                1 for d in self.diagnostics if d.severity is severity
            )
            for severity in Severity
        }

    # ------------------------------------------------------------------
    # renderings
    # ------------------------------------------------------------------

    def render_text(self) -> str:
        """Structural report, then verifier/cost verdicts, then the
        merged QL+QP diagnostics."""
        parts: List[str] = []
        if self.structural is not None:
            parts.append(self.structural.render())
        else:
            parts.append(f"query: {self.text}")
        lines: List[str] = []
        if self.verification is not None:
            v = self.verification
            verdict = "ok" if v.ok else f"FAILED ({v.code})"
            extras = []
            if v.uses_adom:
                extras.append("uses active domain")
            if v.probe_safe:
                extras.append("probe-safe")
            suffix = f"   ({', '.join(extras)})" if extras else ""
            lines.append(f"plan verifier: {verdict}   "
                         f"{v.nodes} operators checked{suffix}")
        if self.cost is not None:
            lines.append(self.cost.render())
        if lines:
            parts.append("\n".join(lines))
        if self.diagnostics:
            blocks = [d.render(self.source) for d in self.diagnostics]
            counts = ", ".join(
                f"{n} {name}(s)" for name, n in self.summary().items() if n
            )
            parts.append("\n\n".join(blocks) + f"\n\n{counts}")
        else:
            parts.append("diagnostics: none")
        return "\n\n".join(parts)

    def render_github(self) -> str:
        """One GitHub workflow-command annotation per diagnostic."""
        lines: List[str] = []
        for d in self.diagnostics:
            level = _GITHUB_LEVELS[d.severity]
            props = [f"title={_gh_escape(d.code)}"]
            if d.span is not None and self.source is not None:
                line, column = self.source.position(d.span.start)
                props += [f"line={line}", f"col={column}"]
            lines.append(
                f"::{level} {','.join(props)}::{_gh_escape(d.message)}"
            )
        if not lines:
            lines.append(f"::notice title=analyze::"
                         f"{_gh_escape(self.text)}: no diagnostics")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON document pinned by ``docs/diagnostics.schema.json``."""
        payload: Dict[str, Any] = {
            "ok": self.ok,
            "query": self.text,
            "free": [v.name for v in self.free],
            "verdict": self.verdict,
            "summary": self.summary(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "verifier": (self.verification.to_dict()
                         if self.verification is not None else None),
            "cost": self.cost.to_dict() if self.cost is not None else None,
        }
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------


def _compile_stage(
    query: Query, free: Tuple[Variable, ...]
) -> Optional[object]:
    """The compiled plan the engine would actually run, or None.

    Open queries compile the guarded open rewriting (the plan
    backends' input); Boolean queries compile the consistent
    rewriting.  ``NotInFO`` cannot fire here — the caller only
    compiles after an ``in FO`` classification — but is tolerated for
    robustness (an undecided corner simply skips the plan stages).
    """
    from ..cqa.certain_answers import OpenQuery, _guarded_open_rewriting
    from ..cqa.rewriting import NotInFO, consistent_rewriting
    from ..fo.compile import compile_formula

    try:
        if free:
            open_query = OpenQuery(query, free)
            formula = _guarded_open_rewriting(open_query)
            return compile_formula(formula, free)
        return compile_formula(consistent_rewriting(query))
    except NotInFO:
        return None


def analyze_query(
    query: Query,
    free: Tuple[Variable, ...] = (),
    db: Optional[Database] = None,
    tracer=None,
    text: Optional[str] = None,
) -> AnalysisReport:
    """Analyze an already-built query (no source spans)."""
    return _analyze(
        text if text is not None else str(query),
        query=query, free=free, db=db, tracer=tracer, source=None,
        lint_diagnostics=None,
    )


def analyze_text(
    text: str,
    free: Tuple[Variable, ...] = (),
    db: Optional[Database] = None,
    tracer=None,
) -> AnalysisReport:
    """Run the full static pipeline over query source text."""
    t = tracer if tracer is not None else NULL_TRACER
    with t.span("analyze.lint"):
        lint = lint_text(text)
    return _analyze(
        text, query=lint.query, free=free, db=db, tracer=tracer,
        source=lint.source, lint_diagnostics=list(lint.diagnostics),
    )


def _analyze(
    text: str,
    query: Optional[Query],
    free: Tuple[Variable, ...],
    db: Optional[Database],
    tracer,
    source: Optional[SourceText],
    lint_diagnostics: Optional[List[Diagnostic]],
) -> AnalysisReport:
    t = tracer if tracer is not None else NULL_TRACER
    if lint_diagnostics is None:
        from ..lint import lint_query

        with t.span("analyze.lint"):
            lint_diagnostics = (list(lint_query(query).diagnostics)
                                if query is not None else [])
    report = AnalysisReport(
        text, source=source, query=query, free=free,
    )
    from ..lint import LintContext

    ctx = AnalysisContext(
        lint_ctx=(LintContext.from_query(query)
                  if query is not None else None),
        query=query, free=free, db=db,
    )
    if query is not None:
        missing = [v for v in free if v not in query.vars]
        if missing:
            names = ", ".join(v.name for v in missing)
            raise QueryError(f"free variables not in the query: [{names}]")
        with t.span("analyze.classify"):
            report.structural = analyze(query)
        ctx.classification = report.structural.classification
        if ctx.classification.in_fo:
            with t.span("analyze.compile"):
                ctx.compiled = _compile_stage(query, free)
        if ctx.compiled is not None:
            with t.span("analyze.verify") as span:
                ctx.verification = verification_report(
                    ctx.compiled.plan, expected_cols=ctx.compiled.free
                )
                span.count("nodes", ctx.verification.nodes)
            report.verification = ctx.verification
            with t.span("analyze.cost"):
                ctx.cost = CostModel(table_stats(db)).estimate(
                    ctx.compiled.plan
                )
            report.cost = ctx.cost
    with t.span("analyze.rules") as span:
        qp = run_qp_rules(ctx)
        span.count("findings", len(qp))
    report.diagnostics = dedupe_diagnostics(lint_diagnostics + qp)
    return report
