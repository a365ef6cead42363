"""Stdlib-only threaded HTTP front end over the batching scheduler.

A ``ThreadingHTTPServer`` accepts concurrent connections; every handler
thread only enqueues requests and blocks on their completion events, so
concurrent HTTP clients are exactly what feeds the scheduler's coalescing
window -- more simultaneous callers means bigger batches, not more model
invocations.  No dependencies beyond ``http.server`` and ``json``.

:func:`make_handler` builds the request handler of both this server and the
fleet router (:class:`~repro.serving.fleet.router.FleetRouter`): one place
checks ``Content-Length``, reads the body before routing, bounds every
socket read by :data:`READ_TIMEOUT_S`, sanitises ``X-Trace-Id`` and writes
the response.

Endpoints::

    POST /predict   {"inputs": [[...]] or [[[...]]],
                     "timeout_ms": 50.0 (optional),
                     "priority": "interactive" (optional),
                     "model": "tiny_cnn" (optional; the deployment to run),
                     "tenant": "team-a" (optional; quota/fairness identity)}
                                                      -> predicted classes
    GET  /metrics                                     -> ServerMetrics snapshot
                                                         (per-model and
                                                         per-tenant blocks)
    GET  /metrics?format=prometheus                   -> text exposition format
    GET  /levels                                      -> service-level tables,
                                                         grouped per model
    GET  /events                                      -> structured event ring
    GET  /trace?trace_id=...                          -> buffered request spans
    GET  /healthz                                     -> liveness probe

Every ``POST /predict`` response carries an ``X-Trace-Id`` header naming the
trace its spans were recorded under.  Unknown models are refused with a
structured 404 naming the served models, unknown tenants with a 403 naming
the registered tenants, and over-quota tenants with a 429 (plus a
``Retry-After`` header when the rate bucket predicts the next token).
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.obs.tracing import Tracer, new_trace_id
from repro.serving.request import DEFAULT_PRIORITY, PRIORITIES, Request, RequestTimedOut
from repro.serving.scheduler import Scheduler, UnknownModel
from repro.serving.tenancy import TenantQuotaExceeded, UnknownTenant
from repro.utils.logging import get_logger

logger = get_logger("serving.server")

#: Refuse request bodies beyond this size (64 MiB of JSON is already absurd).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a handler waits on any one socket read -- request line, headers or
#: body -- before dropping the connection, so a client that stalls mid-body
#: (or parks an idle keep-alive connection) cannot pin a handler thread.
READ_TIMEOUT_S = 10.0

#: Seconds between the listener's checks for a shutdown request: an idle
#: ``serve_forever`` notices ``shutdown()`` only when its ``select`` times
#: out, so this bounds how long ``stop()`` waits (the stdlib polls at 0.5 s).
SHUTDOWN_POLL_S = 0.05

_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def sanitize_trace_id(value: Optional[str]) -> Optional[str]:
    """An incoming ``X-Trace-Id`` header value, or ``None`` if unusable.

    The fleet router propagates its trace id to the replica it picks so one
    id covers the whole hop; anything that doesn't look like a trace id
    (huge, spaces, exotic characters) is ignored rather than recorded into
    the span ring.
    """
    if value and _TRACE_ID_RE.match(value):
        return value
    return None


# --------------------------------------------------------------------------- endpoint logic
class BadRequest(Exception):
    """A ``POST /predict`` body the server refuses, with the response to send."""

    def __init__(self, status: int, body: Dict[str, Any]):
        super().__init__(body["error"])
        self.status = status
        self.body = body


class ParsedPredict(NamedTuple):
    """The validated fields of a ``POST /predict`` body.

    ``model`` is the *resolved* deployment-table name (explicit field,
    tenant pin or server default) and ``tenant`` the raw tenant name
    (``None`` means the default tenant).
    """

    xs: np.ndarray
    timeout_ms: Optional[float]
    priority: Optional[str]
    model: str
    tenant: Optional[str]


def parse_predict_payload(scheduler: Scheduler, body: bytes) -> ParsedPredict:
    """Decode and validate a ``POST /predict`` body against the scheduler's table.

    Raises :class:`BadRequest`: generic 400s for undecodable bodies and
    shape/type problems, a structured 404 for unknown models (naming the
    served models) and a structured 403 for unknown tenants (naming the
    registered tenants).
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise BadRequest(400, {"error": "request body is not valid JSON"}) from None
    if not isinstance(payload, dict):
        raise BadRequest(400, {"error": "request body is not a JSON object"})
    model = payload.get("model")
    if model is not None and not isinstance(model, str):
        raise BadRequest(400, {"error": "'model' is not a string"})
    tenant = payload.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise BadRequest(400, {"error": "'tenant' is not a string"})
    if tenant is not None and tenant not in scheduler.tenants:
        raise BadRequest(
            403,
            {
                "error": f"unknown tenant {tenant!r}",
                "tenant": tenant,
                "registered_tenants": scheduler.tenants.names(),
            },
        )
    try:
        resolved_model = scheduler.resolve_model(model, tenant=tenant)
    except UnknownModel as failure:
        raise BadRequest(
            404,
            {
                "error": str(failure),
                "model": failure.model,
                "available_models": failure.choices,
            },
        ) from None
    inputs = payload.get("inputs")
    if inputs is None:
        raise BadRequest(400, {"error": "missing 'inputs' field"})
    try:
        xs = np.asarray(inputs, dtype=np.float32)
    except (TypeError, ValueError):
        raise BadRequest(400, {"error": "'inputs' is not a numeric array"}) from None
    sample_shape = scheduler.deployments[resolved_model].qmodel.input_shape
    if xs.shape == sample_shape:
        xs = xs[None, ...]
    if xs.ndim != len(sample_shape) + 1 or xs.shape[1:] != sample_shape:
        raise BadRequest(
            400,
            {
                "error": f"model {resolved_model!r} expects inputs of per-sample shape "
                f"{list(sample_shape)}, got array of shape {list(xs.shape)}"
            },
        )
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None:
        if isinstance(timeout_ms, bool):  # bool passes float() -- reject explicitly
            raise BadRequest(400, {"error": "'timeout_ms' is not a number"})
        try:
            timeout_ms = float(timeout_ms)
        except (TypeError, ValueError):
            raise BadRequest(400, {"error": "'timeout_ms' is not a number"}) from None
        if timeout_ms <= 0:
            raise BadRequest(400, {"error": "'timeout_ms' must be positive"})
    priority = payload.get("priority")
    if priority is not None and (not isinstance(priority, str) or priority not in PRIORITIES):
        raise BadRequest(
            400, {"error": f"unknown priority {priority!r}; expected one of {list(PRIORITIES)}"}
        )
    return ParsedPredict(xs, timeout_ms, priority, resolved_model, tenant)


def predict_success_response(requests: List[Request]) -> Dict[str, Any]:
    """Build the 200 body from a list of completed requests."""
    return {
        "classes": [request.prediction for request in requests],
        "levels": [request.level_name for request in requests],
        "priority": requests[0].priority if requests else DEFAULT_PRIORITY,
        "model": requests[0].model if requests else None,
        "tenant": requests[0].tenant if requests else None,
        "wait_ms": [round(request.wait_ms, 3) for request in requests],
        "service_ms": [round(request.service_ms, 3) for request in requests],
        "trace_id": requests[0].trace_id if requests else None,
    }


def predict_error_response(error: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map a serving-side failure to the (status, body) of the response."""
    if isinstance(error, TenantQuotaExceeded):
        body: Dict[str, Any] = {
            "error": str(error),
            "tenant": error.tenant,
            "reason": error.reason,
        }
        if error.retry_after_s is not None:
            body["retry_after_s"] = round(error.retry_after_s, 3)
        return 429, body
    if isinstance(error, UnknownTenant):
        return 403, {
            "error": str(error),
            "tenant": error.tenant,
            "registered_tenants": error.choices,
        }
    if isinstance(error, UnknownModel):
        return 404, {
            "error": str(error),
            "model": error.model,
            "available_models": error.choices,
        }
    if isinstance(error, RequestTimedOut):
        return 504, {"error": f"request shed: {error}"}
    if isinstance(error, TimeoutError):
        return 503, {"error": "prediction timed out"}
    return 503, {"error": str(error)}


def _query_int(query: Dict[str, List[str]], name: str) -> Optional[int]:
    """First integer value of a query parameter, or ``None``."""
    values = query.get(name)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError:
        return None


def handle_introspection(
    scheduler: Scheduler, path: str
) -> Tuple[int, Union[Dict[str, Any], str]]:
    """Execute one introspection GET.

    Returns ``(status, payload)``; a ``dict`` payload is served as JSON, a
    ``str`` payload as ``text/plain`` (the Prometheus exposition).
    """
    parts = urlsplit(path)
    query = parse_qs(parts.query)
    route = parts.path
    if route == "/healthz":
        return 200, {"status": "ok" if scheduler.running else "stopped"}
    if route == "/metrics":
        if query.get("format", [""])[0] == "prometheus":
            return 200, scheduler.metrics.render_prometheus(queue_depth=scheduler.queue.depth())
        snapshot = scheduler.metrics.snapshot(queue_depth=scheduler.queue.depth())
        payload = snapshot.as_dict()
        profile = scheduler.obs.profiler.snapshot()
        if profile:
            payload["profile"] = profile
        return 200, payload
    if route == "/levels":
        # Grouped per model; the flat "levels" key keeps describing the
        # default model so single-model clients see the PR-2 shape.
        return 200, {
            "levels": scheduler.deployment.describe(),
            "default_model": scheduler.default_model,
            "models": {
                name: deployment.describe()
                for name, deployment in scheduler.deployments.items()
            },
        }
    if route == "/events":
        limit = _query_int(query, "limit")
        kind = query.get("kind", [None])[0]
        return 200, {"events": scheduler.obs.events.snapshot(limit=limit, kind=kind)}
    if route == "/trace":
        trace_id = query.get("trace_id", [None])[0]
        spans = scheduler.obs.tracer.spans(trace_id=trace_id)
        limit = _query_int(query, "limit")
        if limit is None and trace_id is None:
            limit = 256  # bounded by default: the whole ring can be 4096 spans
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return 200, {"spans": [span.as_dict() for span in spans]}
    return 404, {"error": f"unknown path {path!r}"}


class _BacklogThreadingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server with a listen backlog sized for burst traffic.

    The stdlib default backlog of 5 resets connections the moment a few
    dozen clients connect at once -- precisely the burst the serving smoke
    and benchmarks throw at the front.  It polls for shutdown every
    :data:`SHUTDOWN_POLL_S`, so stopping it takes milliseconds.
    """

    request_queue_size = 128

    def serve_forever(self, poll_interval: float = SHUTDOWN_POLL_S) -> None:
        """Serve until ``shutdown()``, checking for it every ``poll_interval`` seconds."""
        super().serve_forever(poll_interval)


class PredictionServer:
    """HTTP front end: serve a running :class:`Scheduler` on a TCP port.

    Parameters
    ----------
    scheduler:
        The (started) batching scheduler to feed.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    request_timeout_s:
        How long a handler waits for the scheduler before answering 503.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 30.0,
    ):
        self.scheduler = scheduler
        self.request_timeout_s = float(request_timeout_s)
        handler = make_handler(self, tracer=scheduler.obs.tracer)
        self._httpd = _BacklogThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------ lifecycle
    @property
    def host(self) -> str:
        """Bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound TCP port (resolved when constructed with ``port=0``)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PredictionServer":
        """Serve in a background thread (idempotent; a stopped server cannot restart)."""
        if self._closed:
            raise RuntimeError("cannot restart a stopped PredictionServer")
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="serving-http", daemon=True
            )
            self._thread.start()
            logger.info("serving %s on %s", ", ".join(self.scheduler.models()), self.url)
        return self

    def stop(self) -> None:
        """Stop accepting connections, join the server thread and close the socket (idempotent)."""
        self._closed = True
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        if self._closed:
            raise RuntimeError("cannot restart a stopped PredictionServer")
        try:
            self._httpd.serve_forever()
        finally:
            self._closed = True
            self._httpd.server_close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ request handling
    def handle_predict(
        self, body: bytes, trace_id: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Execute one raw ``POST /predict`` body.

        Returns ``(status, response, headers)``; the headers carry the
        ``X-Trace-Id`` of the body's requests once they were submitted.
        ``trace_id`` joins an upstream trace (the fleet router's ``route``
        span) instead of minting a fresh id.
        """
        tracer = self.scheduler.obs.tracer
        parse_started = time.monotonic()
        try:
            parsed = parse_predict_payload(self.scheduler, body)
        except BadRequest as refused:
            return refused.status, refused.body, {}
        if trace_id is None:
            trace_id = new_trace_id()
        headers = {"X-Trace-Id": trace_id}
        try:
            requests = self.scheduler.submit_many(
                parsed.xs,
                timeout_ms=parsed.timeout_ms,
                priority=parsed.priority,
                trace_id=trace_id,
                model=parsed.model,
                tenant=parsed.tenant,
            )
            # The parse span covers decode + validation + enqueue: everything
            # between body receipt and the requests entering the queue.
            if tracer.enabled:
                tracer.record_span(
                    "parse", trace_id, parse_started, time.monotonic(), n_samples=len(requests)
                )
            # One deadline for the whole body, not per request -- a stalled
            # scheduler must 503 after request_timeout_s, however many
            # samples the POST carried.
            deadline = time.monotonic() + self.request_timeout_s
            for request in requests:
                request.result(timeout=max(deadline - time.monotonic(), 0.001))
        except Exception as failure:
            status, response = predict_error_response(failure)
            if "retry_after_s" in response:  # a rate-limited 429: whole-second hint
                headers["Retry-After"] = str(max(1, math.ceil(response["retry_after_s"])))
            return status, response, headers
        return 200, predict_success_response(requests), headers

    def handle_get(self, path: str) -> Tuple[int, Union[Dict[str, Any], str]]:
        """Execute one GET; returns (status, response)."""
        return handle_introspection(self.scheduler, path)


def make_handler(server: Any, tracer: Optional[Tracer] = None) -> type:
    """The request-handler class of :class:`PredictionServer` and the fleet router.

    ``server`` answers ``handle_get(path) -> (status, payload)`` and
    ``handle_predict(body, trace_id) -> (status, payload, headers)``.  A
    ``bytes`` payload is written as-is (its ``Content-Type`` taken from the
    headers), a ``str`` payload as ``text/plain`` and anything else as JSON.
    With a ``tracer``, each answered prediction gets a ``respond`` span
    timing serialisation + the socket write.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self) -> None:
            self.timeout = READ_TIMEOUT_S  # bounds every read on this connection
            super().setup()

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            logger.debug("%s -- %s", self.address_string(), format % args)

        def _respond(
            self,
            status: int,
            payload: Union[bytes, str, Dict[str, Any]],
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            headers = dict(headers or {})
            content_type = headers.pop("Content-Type", "application/json")
            if isinstance(payload, bytes):
                body = payload
            elif isinstance(payload, str):
                body = payload.encode("utf-8")
                content_type = "text/plain; charset=utf-8"
            else:
                body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            status, payload = server.handle_get(self.path)
            self._respond(status, payload)

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                self.close_connection = True
                self._respond(400, {"error": "malformed Content-Length header"})
                return
            if length <= 0 or length > MAX_BODY_BYTES:
                self.close_connection = True
                self._respond(400, {"error": "missing or oversized request body"})
                return
            # Read the body before any routing: leaving it unread would
            # desync the next request on a keep-alive connection.  A stall
            # raises TimeoutError, on which the stdlib drops the connection.
            body = self.rfile.read(length)
            if self.path != "/predict":
                self._respond(404, {"error": f"unknown path {self.path!r}"})
                return
            status, payload, headers = server.handle_predict(
                body, sanitize_trace_id(self.headers.get("X-Trace-Id"))
            )
            trace_id = headers.get("X-Trace-Id")
            write_started = time.monotonic()
            self._respond(status, payload, headers)
            if tracer is not None and tracer.enabled and trace_id is not None:
                tracer.record_span("respond", trace_id, write_started, time.monotonic())

    return Handler
