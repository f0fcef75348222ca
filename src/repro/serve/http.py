"""A minimal asyncio HTTP/1.1 layer for the ``repro serve`` daemon.

The container ships no HTTP framework, and the daemon needs very
little: request-line + header parsing over :mod:`asyncio` streams,
``Content-Length`` bodies, keep-alive, and JSON responses.  This module
implements exactly that — a deliberate subset (no chunked encoding, no
multipart, no TLS) with hard limits on header and body sizes so a
misbehaving client cannot balloon the process.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional
from urllib.parse import parse_qsl, urlsplit

__all__ = ["HttpError", "RawJSON", "Request", "read_request",
           "response_bytes", "json_body", "MAX_HEADER_BYTES",
           "MAX_BODY_BYTES"]

#: Request line plus headers must fit here (ample for JSON APIs).
MAX_HEADER_BYTES = 32 * 1024

#: Largest accepted request body (a generous batch of facts).
MAX_BODY_BYTES = 32 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol-level failure with an HTTP status and error code."""

    def __init__(self, status: int, code: str, message: str,
                 **extra: Any):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.extra = extra


class RawJSON:
    """A JSON text that :func:`response_bytes` splices in verbatim.

    For a top-level payload value that is already encoded (a cached
    ``answers`` array), so a reply does not decode and re-dump it.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str                      # path without the query string
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)  # lowercased keys
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request from the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed input or exceeded limits —
    the caller answers with the error and closes the connection.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "bad-request", "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "bad-request", "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "bad-request", "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "bad-request", f"malformed request line: {lines[0]!r}")
    method, raw_target, _version = parts
    split = urlsplit(raw_target)
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, "bad-request", f"malformed header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "bad-request", "invalid Content-Length")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, "bad-request", "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "bad-request", "truncated request body")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "bad-request",
                        "chunked request bodies are not supported")
    return Request(
        method=method.upper(),
        target=split.path,
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def json_body(request: Request) -> Any:
    """The request body decoded as JSON (an empty body is ``{}``)."""
    if not request.body:
        return {}
    try:
        return json.loads(request.body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise HttpError(400, "bad-json", f"request body is not JSON: {exc}")


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _body(payload: Any) -> str:
    if isinstance(payload, dict) and any(
            isinstance(v, RawJSON) for v in payload.values()):
        return "{" + ",".join(
            _dumps(key) + ":"
            + (value.text if isinstance(value, RawJSON) else _dumps(value))
            for key, value in sorted(payload.items())
        ) + "}"
    return _dumps(payload)


def response_bytes(
    status: int,
    payload: Any,
    *,
    keep_alive: bool = True,
    headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """A full HTTP/1.1 response frame with a JSON body.

    Top-level :class:`RawJSON` values of a dict payload go into the
    body as they are; everything else is dumped compactly, keys sorted.
    """
    body = _body(payload).encode("utf-8") + b"\n"
    reason = _STATUS_TEXT.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
