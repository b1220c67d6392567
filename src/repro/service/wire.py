"""Shared JSON-over-HTTP wire plumbing for the serving tier.

Every HTTP front end in the repo — the replica server
(:mod:`repro.service.http`), the cluster router
(:mod:`repro.cluster.router`), and the client sides of ``repro-loadgen``
and the router's health probes — speaks the same small dialect: JSON
bodies, ``X-Request-Id`` correlation, W3C ``traceparent`` propagation,
a JSON ``500`` error fence, and ``Retry-After``-honoring backpressure.
This module owns that dialect once, so the router does not re-implement
the replica's encoding (and cannot drift from it).

Server side — :class:`JsonRequestHandler`, a
:class:`~http.server.BaseHTTPRequestHandler` subclass carrying all the
request-scoped plumbing the replica front end grew over PRs 4–8:
response encoding with request-ID / trace-context echo, the inbound
``X-Request-Id`` allowlist fence, the unhandled-exception fence
(JSON ``500`` + error counters, never a dead thread), the sliding
request window feed, and one structured access-log line per request.
Subclasses implement only routes (``_route_get`` / ``_route_post``).

Client side — :func:`http_json` / :func:`http_text` with **typed
failures**: transport-level problems (connection refused, DNS, reset,
timeout) raise :class:`ServiceUnreachable` / :class:`ServiceTimeout`
instead of being folded into HTTP statuses or escaping as whatever
:mod:`urllib` felt like raising.  An HTTP error *response* is not an
exception — it returns ``(status, payload, headers)`` like any other
answer.  That distinction is what lets a health prober say "the replica
is down" (transport error) versus "the replica is overloaded" (a 503 it
answered), and lets the load generator report each failure class
separately instead of catching broad ``Exception``.
"""

from __future__ import annotations

import json
import os
import re
import socket
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler

from repro.obs.context import (
    TRACEPARENT_HEADER,
    TRACESTATE_HEADER,
    TraceContext,
    new_trace_id,
    parse_traceparent,
    sample_rate_from_env,
    trace_sampled,
)
from repro.obs.log import get_access_log, new_request_id
from repro.obs.metrics import get_metrics

__all__ = [
    "TransportError",
    "ServiceUnreachable",
    "ServiceTimeout",
    "http_json",
    "http_text",
    "retry_after_from",
    "REQUEST_ID_RE",
    "JsonRequestHandler",
]

# Inbound X-Request-Id values are echoed into response headers and
# access-log lines; anything outside this allowlist (length-bounded,
# no CR/LF or exotic bytes) is replaced with a freshly minted ID so a
# hostile client can't inject headers or forge log lines.
REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


# ---------------------------------------------------------------------------
# Client side: JSON/text requests with typed transport failures
# ---------------------------------------------------------------------------


class TransportError(Exception):
    """The request never produced an HTTP response.

    Base class for failures *below* HTTP: the peer was unreachable or
    too slow to answer.  ``url`` names the attempted endpoint.  HTTP
    error statuses (4xx/5xx) are **not** transport errors — they are
    answers, returned as values.
    """

    def __init__(self, url: str, reason: str):
        self.url = url
        self.reason = reason
        super().__init__(f"{reason} ({url})")


class ServiceUnreachable(TransportError):
    """Connection refused / reset / DNS failure: nobody is listening."""


class ServiceTimeout(TransportError):
    """The peer accepted the connection but did not answer in time."""


def _request(url: str, data: bytes | None, headers: dict | None, timeout: float):
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json", **(headers or {})}
    )
    try:
        return urllib.request.urlopen(req, timeout=timeout)
    except urllib.error.HTTPError:
        raise  # an HTTP answer: the caller turns it into (status, payload)
    except socket.timeout as exc:  # pre-3.10 spelling of TimeoutError
        raise ServiceTimeout(url, f"timed out after {timeout:g}s") from exc
    except urllib.error.URLError as exc:
        if isinstance(exc.reason, (TimeoutError, socket.timeout)):
            raise ServiceTimeout(url, f"timed out after {timeout:g}s") from exc
        raise ServiceUnreachable(url, f"unreachable: {exc.reason}") from exc
    except (ConnectionError, OSError) as exc:
        raise ServiceUnreachable(url, f"unreachable: {exc}") from exc


def http_json(
    url: str,
    body: dict | None = None,
    *,
    timeout: float = 300.0,
    headers: dict | None = None,
):
    """One JSON request; returns ``(status, payload, headers)``.

    ``body is None`` sends a GET, anything else a POST.  HTTP error
    statuses come back as values (payload is the decoded error body, or
    ``{"error": ...}`` when the body is not JSON).  Transport failures
    raise :class:`ServiceUnreachable` / :class:`ServiceTimeout`.
    """
    data = None if body is None else json.dumps(body).encode("utf-8")
    try:
        with _request(url, data, headers, timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8")), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except Exception:
            payload = {"error": str(exc)}
        return exc.code, payload, dict(exc.headers or {})


def http_text(
    url: str, *, timeout: float = 60.0, headers: dict | None = None
) -> tuple[int, str]:
    """One raw-text GET (e.g. the Prometheus exposition is not JSON)."""
    try:
        with _request(url, None, headers, timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", errors="replace")


def retry_after_from(headers: dict, payload, default: float = 0.2) -> float:
    """The backoff a 503 response asked for, in seconds.

    Precedence: the ``Retry-After`` HTTP header (the standard signal,
    delta-seconds form), then the JSON body's ``retry_after_s`` (this
    service's own convention), then ``default``.  Never negative.
    """
    for name, value in (headers or {}).items():
        if name.lower() == "retry-after":
            try:
                return max(0.0, float(str(value).strip()))
            except ValueError:
                break  # an HTTP-date (or garbage): fall through to the body
    if isinstance(payload, dict):
        try:
            return max(0.0, float(payload.get("retry_after_s", default)))
        except (TypeError, ValueError):
            pass
    return max(0.0, float(default))


# ---------------------------------------------------------------------------
# Server side: the request-scoped plumbing every front end shares
# ---------------------------------------------------------------------------


class JsonRequestHandler(BaseHTTPRequestHandler):
    """JSON request handler with the serving tier's standard plumbing.

    Subclasses set :attr:`known_routes` (for bounded-cardinality error
    labels) and :attr:`error_counter` (the unhandled-exception counter
    namespace), and implement ``_route_get(path)`` / ``_route_post(path)``.
    Everything request-scoped is inherited:

    * request ID: inbound ``X-Request-Id`` honored against
      :data:`REQUEST_ID_RE`, else minted; echoed on every response;
    * trace context: inbound ``traceparent`` honored (sampling flag
      included), else minted + head-sampled per ``REPRO_TRACE_SAMPLE``;
      the response echoes whatever ``self._response_traceparent`` holds;
    * error fence: an unhandled route exception answers a JSON ``500``
      with the request ID and bumps ``<error_counter>`` /
      ``<error_counter>.<route>.500`` — the thread and the process live on;
    * request window: every finished request (minus
      :attr:`unwindowed_routes`) lands in the server's
      :class:`~repro.obs.window.RequestWindow`, when it has one;
    * access log: one structured line per request via
      :mod:`repro.obs.log`, carrying the trace ID and any extras a route
      stashed in ``self._log_fields``.

    The owning server object may expose ``window`` (a
    :class:`~repro.obs.window.RequestWindow`) and ``extra_headers`` (a
    dict stamped on every response — the router uses it for its identity
    header).
    """

    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response goes out as two writes (headers, body),
    #: and on a keep-alive connection Nagle's algorithm would hold the
    #: body back until the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True

    #: Routes that get their own error-counter label; others are "other".
    known_routes: frozenset = frozenset()
    #: Routes whose own traffic must not pollute the request window
    #: (health probes and scrapers poll them constantly).
    unwindowed_routes: frozenset = frozenset({"/v1/healthz", "/v1/metrics"})
    #: Namespace for the unhandled-exception counters.
    error_counter: str = "service.errors"

    # -- plumbing ---------------------------------------------------------

    def log_message(self, fmt, *args) -> None:  # noqa: A003 - stdlib hook
        # The structured JSON access log (repro.obs.log) supersedes the
        # stdlib per-request line; REPRO_HTTP_LOG=1 re-enables the latter.
        if os.environ.get("REPRO_HTTP_LOG", "").strip() == "1":
            super().log_message(fmt, *args)

    def _route_label(self, path: str) -> str:
        """A bounded-cardinality metric label for a request path
        (``/v1/cd`` -> ``v1.cd``; anything unknown -> ``other``)."""
        if path in self.known_routes:
            return path.strip("/").replace("/", ".")
        return "other"

    def _send_json(self, code: int, obj, *, headers: dict | None = None) -> None:
        data = json.dumps(obj).encode("utf-8")
        self._send_bytes(code, data, "application/json", headers)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        self._send_bytes(code, text.encode("utf-8"), content_type, None)

    def _send_bytes(
        self, code: int, data: bytes, content_type: str, headers: dict | None
    ) -> None:
        self._status = code
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Request-Id", self._request_id)
        if self._response_traceparent:
            self.send_header(TRACEPARENT_HEADER, self._response_traceparent)
            if self._trace_ctx is not None and self._trace_ctx.tracestate:
                self.send_header(TRACESTATE_HEADER, self._trace_ctx.tracestate)
        for name, value in getattr(self.server, "extra_headers", {}).items():
            self.send_header(name, value)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("request needs a JSON body")
        body = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    # -- request-scoped dispatch ------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("POST", self._route_post)

    def _trace_context(self) -> TraceContext:
        """The request's trace context: inbound ``traceparent`` honored
        (including its ``sampled`` flag), anything malformed or absent
        minted fresh with the head-sampling decision from
        ``REPRO_TRACE_SAMPLE``.  ``tracestate`` rides along verbatim."""
        ctx = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
        if ctx is None:
            trace_id = new_trace_id()
            ctx = TraceContext(
                trace_id=trace_id,
                sampled=trace_sampled(trace_id, sample_rate_from_env()),
            )
        tracestate = (self.headers.get(TRACESTATE_HEADER) or "").strip()
        if tracestate:
            ctx = TraceContext(
                trace_id=ctx.trace_id, span_id=ctx.span_id,
                sampled=ctx.sampled, tracestate=tracestate,
            )
        return ctx

    def _handle(self, verb: str, route_fn) -> None:
        """Wrap one request: ID, timing, error fence, window, access log."""
        t0 = time.perf_counter()
        raw_id = (self.headers.get("X-Request-Id") or "").strip()
        self._request_id = raw_id if REQUEST_ID_RE.match(raw_id) else new_request_id()
        self._status: int | None = None
        self._trace_ctx = self._trace_context()
        self._response_traceparent: str | None = None
        self._log_fields: dict = {"trace_id": self._trace_ctx.trace_id}
        path = urllib.parse.urlsplit(self.path).path
        try:
            route_fn(path)
        except Exception as exc:  # the fence: no dead threads, no bare tracebacks
            metrics = get_metrics()
            metrics.counter(self.error_counter).inc()
            metrics.counter(
                f"{self.error_counter}.{self._route_label(path)}.500"
            ).inc()
            self._log_fields["error"] = f"{type(exc).__name__}: {exc}"
            # The connection may hold a half-written response; don't reuse it.
            self.close_connection = True
            if self._status is None:
                try:
                    self._send_json(500, {
                        "error": f"internal error: {type(exc).__name__}: {exc}",
                        "request_id": self._request_id,
                    })
                except OSError:
                    pass  # client already gone; the log line still records it
        finally:
            ms = (time.perf_counter() - t0) * 1e3
            status = self._status if self._status is not None else 500
            window = getattr(self.server, "window", None)
            if window is not None and path not in self.unwindowed_routes:
                window.record(ms, error=status >= 500)
            get_access_log().request(
                id=self._request_id,
                route=path,
                method=verb,
                status=status,
                ms=ms,
                **self._log_fields,
            )

    # -- shared routes ----------------------------------------------------

    def _route_metrics(self) -> None:
        """``GET /v1/metrics``: the ambient registry, JSON or Prometheus."""
        from repro.obs.expo import CONTENT_TYPE as _PROM_CONTENT_TYPE
        from repro.obs.expo import render_prometheus

        params = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query)
        fmt = params.get("format", ["json"])[-1]
        # Refresh the window gauges so both encodings carry the rolling
        # stats a scraper can alert on.
        window = getattr(self.server, "window", None)
        if window is not None:
            window.export_gauges(get_metrics())
        if fmt == "prometheus":
            self._send_text(200, render_prometheus(get_metrics()), _PROM_CONTENT_TYPE)
        elif fmt == "json":
            self._send_json(200, get_metrics().as_dict())
        else:
            self._send_json(
                400, {"error": f"unknown format {fmt!r} (json or prometheus)"}
            )

    # -- routes (subclass responsibility) ---------------------------------

    def _route_get(self, path: str) -> None:
        self._send_json(404, {"error": f"no route {path!r}"})

    def _route_post(self, path: str) -> None:
        self._send_json(404, {"error": f"no route {path!r}"})
