"""``RunConfig``: one dataclass for the engine's runtime knobs.

Construct one explicitly for programmatic control, or
:meth:`RunConfig.from_env` to read the environment with explicit
keyword overrides winning over env values.  Omitted fields fall back to
the documented defaults.  :class:`repro.obs.ExecutionOptions` lifts its
per-call fields into one (:meth:`~repro.obs.ExecutionOptions.run_config`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional

__all__ = ["RunConfig", "DEFAULT_SQL_STMT_CACHE",
           "DEFAULT_COLUMNAR_MIN_FACTS"]

#: Compiled-statement LRU entries per sqlite mirror (0 disables).
DEFAULT_SQL_STMT_CACHE = 64

#: Below this many facts ``auto`` never routes to the columnar backend
#: (encoding whole relations costs more than small tuple runs save).
DEFAULT_COLUMNAR_MIN_FACTS = 4000


def _nonnegative_int(raw: Optional[str]) -> Optional[int]:
    raw = (raw or "").strip()
    if raw.isdigit():
        return int(raw)
    return None


@dataclass(frozen=True)
class RunConfig:
    """Consolidated runtime configuration for one engine call (or many).

    ``trace``
        Collect spans and per-operator profiles for this run.
    ``trace_file``
        Append span JSONL here after the run (env:
        ``REPRO_TRACE_FILE``; setting it implies ``trace``).
    ``sql_stmt_cache``
        Compiled-statement LRU entries per sqlite mirror, 0 disables
        (env: ``REPRO_SQL_STMT_CACHE``; None: 64).
    ``columnar_min_facts``
        Database size below which ``auto`` skips the columnar backend
        (env: ``REPRO_COLUMNAR_MIN_FACTS``; None: 4000).
    """

    trace: bool = False
    trace_file: Optional[str] = None
    sql_stmt_cache: Optional[int] = None
    columnar_min_facts: Optional[int] = None

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None,
                 **overrides: Any) -> "RunConfig":
        """Environment-derived defaults, explicit overrides winning.

        ``overrides`` accepts any :class:`RunConfig` field; a ``None``
        override means "keep the env-derived value".
        """
        if env is None:
            env = os.environ
        config = cls(
            trace_file=(env.get("REPRO_TRACE_FILE") or "").strip() or None,
            sql_stmt_cache=_nonnegative_int(env.get("REPRO_SQL_STMT_CACHE")),
            columnar_min_facts=_nonnegative_int(
                env.get("REPRO_COLUMNAR_MIN_FACTS")
            ),
        )
        effective = {k: v for k, v in overrides.items() if v is not None}
        return replace(config, **effective) if effective else config

    @property
    def tracing(self) -> bool:
        """Is tracing requested (explicitly or via a trace file)?"""
        return self.trace or self.trace_file is not None

    def make_tracer(self) -> Optional[Any]:
        """A fresh :class:`~repro.obs.trace.Tracer` when tracing is on."""
        if not self.tracing:
            return None
        from .trace import Tracer

        return Tracer()

    def resolved_sql_stmt_cache(self) -> int:
        """The effective statement-cache capacity (0 disables)."""
        if self.sql_stmt_cache is not None:
            return self.sql_stmt_cache
        return DEFAULT_SQL_STMT_CACHE

    def resolved_columnar_min_facts(self) -> int:
        """The effective columnar size threshold."""
        if self.columnar_min_facts is not None:
            return self.columnar_min_facts
        return DEFAULT_COLUMNAR_MIN_FACTS
