"""Wire encoding shared by the ``repro serve`` daemon and its clients.

Everything that crosses the HTTP boundary goes through here: answer
rows are (de)serialized with the same rules as the database JSON format
(:mod:`repro.db.io` — lists become tuples, values are strings /
integers / booleans / nested lists), and every answer set carries a
canonical ``sha256:`` digest so clients — and the bench harness — can
compare a server response against a direct
:func:`repro.cqa.certain_answers` call without shipping the rows.

One ordering rule holds everywhere on the wire: rows are sorted by
their compact JSON text, the same strings the digest hashes.
:func:`encode_answers` produces both the ``answers`` array and the
digest from one encoding pass.

The response documents themselves are described by
``docs/serve.schema.json``; ``scripts/validate_serve.py`` checks
captured responses against it with the in-tree validator
(:mod:`repro.obs.schema`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..db.io import _freeze

__all__ = [
    "SCHEMA_VERSION",
    "ERROR_CODES",
    "answers_digest",
    "encode_answers",
    "error_payload",
    "row_from_wire",
    "rows_to_wire",
]

#: Version of every serve request/response document (bump on breaking
#: changes, mirroring the trace and metrics schemas).
SCHEMA_VERSION = 1

#: Machine-readable error codes a response's ``error.code`` may carry.
ERROR_CODES = (
    "bad-json",        # body is not valid JSON
    "bad-request",     # malformed HTTP or missing/ill-typed fields
    "bad-options",     # ExecutionOptions rejected the request options
    "parse-error",     # the query text does not parse
    "not-in-fo",       # certainty is not FO-rewritable for this method
    "not-found",       # unknown endpoint or view name
    "method-not-allowed",
    "stale-version",   # long-poll ``since`` predates retained history
    "shutting-down",   # server is draining; retry against a new one
    "internal",        # unexpected server-side failure
)


#: Compact JSON text of one row: ``[v, ...]``, tuples as arrays;
#: exactly ``json.dumps(row, separators=(",", ":"), sort_keys=True)``.
_encode_row = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _check_values(rows: List[Tuple]) -> None:
    """Raise :class:`TypeError` on a value no wire row may hold.

    Wire values are strings, ints, bools and tuples of them (``value``
    in ``docs/serve.schema.json``).  JSON would write ``None`` as
    ``null`` and a float as a number; the rows are checked first so
    that both fail as they do in :func:`repro.db.io.database_to_dict`.
    The check collects value types one nesting level at a time, which
    costs a few percent of the encoding.
    """
    values = [v for row in rows for v in row]
    while values:
        kinds = set(map(type, values))
        for kind in kinds:
            if not issubclass(kind, (str, int, tuple)):  # bool is an int
                bad = next(v for v in values if type(v) is kind)
                raise TypeError(f"unsupported value in an answer: {bad!r}")
        if not any(issubclass(kind, tuple) for kind in kinds):
            return
        values = [v for value in values if isinstance(value, tuple)
                  for v in value]


def _wire_lines(rows: Iterable[Tuple]) -> List[str]:
    """The rows' compact JSON texts, sorted: the one wire order."""
    rows = list(rows)
    _check_values(rows)
    return sorted(map(_encode_row, rows))


def encode_answers(rows: Iterable[Tuple]) -> Tuple[str, str]:
    """``(answers_json, digest)`` of an answer set, from one encoding.

    Each row is JSON-encoded compactly once; the sorted encodings are
    joined with commas into the reply's ``answers`` array and with
    newlines into the text :func:`answers_digest` hashes.
    """
    lines = _wire_lines(rows)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return "[" + ",".join(lines) + "]", "sha256:" + digest


def rows_to_wire(rows: Iterable[Tuple]) -> List[List[Any]]:
    """Answer rows as JSON-ready lists (tuples as lists), in wire order."""
    return json.loads("[" + ",".join(_wire_lines(rows)) + "]")


def row_from_wire(row: Any) -> Tuple:
    """One JSON row back into the engine's tuple-of-values form."""
    if not isinstance(row, list):
        raise TypeError(f"row must be a JSON array, got {row!r}")
    return tuple(_freeze(v) for v in row)


def answers_digest(rows: Iterable[Tuple]) -> str:
    """A canonical content digest of an answer set.

    Order-independent: each row is JSON-encoded compactly, the
    encodings are sorted, and the newline-joined result is hashed.  The
    same function runs on both sides of the wire — the server computes
    it from engine tuples, ``scripts/bench_serve.py`` recomputes it
    from a direct library call — so equal digests mean equal answers.
    """
    return encode_answers(rows)[1]


def error_payload(code: str, message: str, *,
                  request_id: Optional[str] = None,
                  **extra: Any) -> Dict[str, Any]:
    """The JSON body of every non-2xx response."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    payload: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "error": error,
    }
    if request_id is not None:
        payload["request_id"] = request_id
    return payload


def changes_payload(inserted: FrozenSet[Tuple],
                    deleted: FrozenSet[Tuple]) -> Dict[str, List[List[Any]]]:
    """The ``inserted``/``deleted`` halves of a view-changes response."""
    return {
        "inserted": rows_to_wire(inserted),
        "deleted": rows_to_wire(deleted),
    }
