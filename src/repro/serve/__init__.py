"""A long-running HTTP/JSON service for consistent query answering.

``repro serve --db-path STORE`` boots a daemon that owns one
:class:`~repro.storage.store.PersistentDatabase` and keeps every
expensive artifact warm across requests — the FO plan cache, the
columnar store, the SQL statement cache and integer mirror, and
registered incremental views.  Requests carry the same
:class:`repro.obs.ExecutionOptions` document the library takes, so the
wire API and the Python API describe execution identically.

Endpoints (see ``docs/SERVE.md`` and ``docs/serve.schema.json``):

- ``POST /v1/certain`` / ``POST /v1/answers`` — run a query with full
  method routing (brute/interpreted/rewriting/compiled/columnar/sql or
  ``auto``).
- ``POST /v1/facts`` — a batched write through the changelog (and the
  WAL, when serving a persistent store).
- ``POST /v1/views`` / ``GET /v1/views`` /
  ``GET /v1/views/{name}/changes?since=C&wait=S`` — named maintained
  views with composable long-polled diffs.
- ``GET /v1/metrics`` / ``GET /v1/healthz`` — ``engine.metrics()``,
  ``storage_status()``, and server counters.

The implementation is stdlib-only: :mod:`repro.serve.http` is a small
asyncio HTTP/1.1 layer, :mod:`repro.serve.protocol` the shared wire
encoding (including the canonical ``sha256:`` answers digest), and
:mod:`repro.serve.app` the server itself.
"""

from .app import ReproServer, SERVE_VIEWS_FILE
from .http import HttpError, Request
from .protocol import ERROR_CODES, SCHEMA_VERSION, answers_digest, rows_to_wire

__all__ = [
    "ERROR_CODES",
    "HttpError",
    "ReproServer",
    "Request",
    "SCHEMA_VERSION",
    "SERVE_VIEWS_FILE",
    "answers_digest",
    "rows_to_wire",
]
