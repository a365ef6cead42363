"""Clients for the serving stack: in-process and HTTP.

:class:`Client` talks straight to a :class:`~repro.serving.scheduler.Scheduler`
without any transport -- the tool of choice for tests, benchmarks and the
CLI's smoke mode, where hundreds of concurrent submissions should exercise
the coalescing window rather than socket handling.  :class:`HTTPClient` is a
stdlib ``urllib`` wrapper over the :class:`~repro.serving.server.PredictionServer`
endpoints.
"""

from __future__ import annotations

import io
import json
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.serving.request import DEFAULT_PRIORITY, Request
from repro.serving.scheduler import Scheduler


class Client:
    """In-process client: submit inputs to a scheduler, wait for results."""

    def __init__(self, scheduler: Scheduler, timeout_s: float = 30.0):
        self.scheduler = scheduler
        self.timeout_s = float(timeout_s)

    def submit(
        self,
        x: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = DEFAULT_PRIORITY,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Request:
        """Fire one request without waiting (for concurrency experiments).

        ``timeout_ms`` arms the scheduler-side shedding deadline; a shed
        request's :meth:`~repro.serving.request.Request.result` raises
        :class:`~repro.serving.request.RequestTimedOut`.  ``priority`` picks
        the request's class (``interactive``/``standard``/``batch``).
        ``model`` routes to a deployment-table entry and ``tenant`` selects
        the quota/fairness identity (both default server-side).
        """
        return self.scheduler.submit(
            x, timeout_ms=timeout_ms, priority=priority, model=model, tenant=tenant
        )

    def submit_many(
        self,
        xs: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = DEFAULT_PRIORITY,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> List[Request]:
        """Fire a burst of requests without waiting (FIFO order)."""
        return self.scheduler.submit_many(
            xs, timeout_ms=timeout_ms, priority=priority, model=model, tenant=tenant
        )

    def predict(
        self,
        x: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = DEFAULT_PRIORITY,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> int:
        """Predicted class of one sample (blocks until served)."""
        return self.submit(
            x, timeout_ms=timeout_ms, priority=priority, model=model, tenant=tenant
        ).result(timeout=self.timeout_s)

    def predict_many(
        self,
        xs: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = DEFAULT_PRIORITY,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> np.ndarray:
        """Predicted classes of a batch, submitted concurrently."""
        requests = self.submit_many(
            xs, timeout_ms=timeout_ms, priority=priority, model=model, tenant=tenant
        )
        return np.asarray([r.result(timeout=self.timeout_s) for r in requests], dtype=np.int64)


class HTTPClient:
    """Minimal JSON-over-HTTP client for a :class:`PredictionServer`."""

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    def _open(self, request: Union[str, urllib.request.Request]):
        """``urlopen`` whose :class:`~urllib.error.HTTPError` owns no connection.

        urllib's ``HTTPError`` *is* the open error response, so an error a
        caller keeps (or never reads) pins the socket until garbage
        collection.  The body is buffered and the connection closed before
        re-raising; ``code``, ``headers`` and ``read()`` work as before.
        """
        try:
            return urllib.request.urlopen(request, timeout=self.timeout_s)
        except urllib.error.HTTPError as error:
            with error:
                body = error.read()
            raise urllib.error.HTTPError(
                error.url, error.code, error.msg, error.headers, io.BytesIO(body)
            ) from None

    def _get(self, path: str) -> Dict[str, Any]:
        with self._open(self.base_url + path) as response:
            return json.loads(response.read().decode("utf-8"))

    def _get_text(self, path: str) -> str:
        with self._open(self.base_url + path) as response:
            return response.read().decode("utf-8")

    def _post(self, path: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._post_with_headers(path, payload)[0]

    def _post_with_headers(
        self, path: str, payload: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with self._open(request) as response:
            return json.loads(response.read().decode("utf-8")), dict(response.headers)

    # ------------------------------------------------------------------ endpoints
    @staticmethod
    def _predict_payload(
        xs: np.ndarray,
        timeout_ms: Optional[float],
        priority: Optional[str],
        model: Optional[str],
        tenant: Optional[str],
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"inputs": np.asarray(xs, dtype=np.float32).tolist()}
        if timeout_ms is not None:
            payload["timeout_ms"] = float(timeout_ms)
        if priority is not None:
            payload["priority"] = priority
        if model is not None:
            payload["model"] = model
        if tenant is not None:
            payload["tenant"] = tenant
        return payload

    def predict(
        self,
        xs: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``POST /predict`` with one sample or a batch; returns the JSON body."""
        return self._post(
            "/predict", self._predict_payload(xs, timeout_ms, priority, model, tenant)
        )

    def predict_classes(
        self,
        xs: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> np.ndarray:
        """Predicted classes of a batch via ``POST /predict``."""
        return np.asarray(
            self.predict(
                xs, timeout_ms=timeout_ms, priority=priority, model=model, tenant=tenant
            )["classes"],
            dtype=np.int64,
        )

    def predict_with_headers(
        self,
        xs: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``POST /predict``; returns ``(body, response_headers)``.

        The headers carry ``X-Trace-Id`` -- the handle for ``GET /trace``
        and the JSONL trace export.
        """
        return self._post_with_headers(
            "/predict", self._predict_payload(xs, timeout_ms, priority, model, tenant)
        )

    def metrics(self, format: Optional[str] = None) -> Any:
        """``GET /metrics``; ``format="prometheus"`` returns the text exposition."""
        if format == "prometheus":
            return self._get_text("/metrics?format=prometheus")
        return self._get("/metrics")

    def events(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """``GET /events``."""
        path = "/events" if limit is None else f"/events?limit={int(limit)}"
        return self._get(path)["events"]

    def trace(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """``GET /trace``, optionally filtered to one trace id."""
        path = "/trace" if trace_id is None else f"/trace?trace_id={trace_id}"
        return self._get(path)["spans"]

    def levels(self) -> List[Dict[str, Any]]:
        """``GET /levels`` (the default model's table)."""
        return self._get("/levels")["levels"]

    def levels_by_model(self) -> Dict[str, List[Dict[str, Any]]]:
        """``GET /levels`` grouped per served model."""
        body = self._get("/levels")
        return body.get("models", {"default": body.get("levels", [])})

    def health(self) -> Optional[str]:
        """``GET /healthz``; returns the status string or ``None`` when down."""
        try:
            return self._get("/healthz").get("status")
        except (urllib.error.URLError, OSError):
            return None

    def health_detail(self) -> Optional[Dict[str, Any]]:
        """``GET /healthz`` as the full JSON body (or ``None`` when down).

        Against a fleet router this carries the per-replica statuses behind
        the top-level ``ok`` / ``degraded`` / ``down`` verdict.
        """
        try:
            return self._get("/healthz")
        except (urllib.error.URLError, OSError):
            return None
