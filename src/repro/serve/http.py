"""Stdlib-only JSON/HTTP endpoint over the broker.

``ThreadingHTTPServer`` + ``BaseHTTPRequestHandler`` — no third-party
web framework — exposing the serving contract:

==========================  =============================================
Route                       Meaning
==========================  =============================================
``POST /submit``            body ``{"spec": {...}, "priority": int,
                            "deadline_s": float}`` → ``200`` with
                            ``{"job_id", "config_hash", "state"}``;
                            ``429`` + structured payload when shed;
                            ``400`` on a bad spec (unknown keys
                            included — the strict parser names them).
``GET /result/<id>``        ``200`` result JSON when done (plus rung /
                            degraded provenance); ``202`` while
                            pending (``?timeout_s=`` long-polls);
                            ``504`` expired; ``503`` the request
                            crashed its worker (structured
                            ``worker_crash`` payload; the broker keeps
                            serving); ``500`` failed; ``404`` unknown
                            id.
``GET /status/<id>``        job state + full event log.
``GET /stats``              broker statistics (counters, cache, and the
                            rolling-window ``slo`` summary rendered by
                            ``repro top``).
``GET /metrics``            the whole metrics registry as Prometheus
                            text exposition 0.0.4 (counters, gauges,
                            cumulative histogram buckets) — point a
                            Prometheus scrape job here.
``GET /trace``              the server tracer's Chrome ``trace_event``
                            document (broker + repatriated worker
                            spans); ``POST /trace`` with
                            ``{"enabled": bool}`` toggles server-side
                            tracing (``repro submit --trace-out``
                            enables it, then merges this document into
                            the client-side trace).
``GET /healthz``            liveness probe.
``POST /shutdown``          acknowledge, then stop the listener; the
                            CLI drains the broker and exits 0.
==========================  =============================================

:class:`HttpServeClient` is the matching urllib client used by
``repro submit`` and the load generator in ``scripts/bench_to_json.py``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..errors import (
    ConfigurationError,
    OverloadedError,
    ServeError,
    WorkerCrashError,
)
from .broker import Broker
from .client import ServeClient, result_to_dict

__all__ = ["HttpServeClient", "ServeHTTPServer"]


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.client`` (a ServeClient)."""

    server: "ServeHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        from ..obs import log_event
        log_event("serve_http", request=fmt % args)

    def _send(self, code: int, payload: dict[str, Any]) -> None:
        self._send_bytes(code, json.dumps(payload, sort_keys=True).encode(),
                         "application/json")

    def _send_bytes(self, code: int, body: bytes,
                    content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        doc = json.loads(raw.decode() or "{}")
        if not isinstance(doc, dict):
            raise ConfigurationError("request body must be a JSON object")
        return doc

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path, _, query = self.path.partition("?")
        client = self.server.client
        try:
            if path == "/healthz":
                self._send(200, {"status": "ok"})
            elif path == "/stats":
                self._send(200, self.server.broker.stats())
            elif path == "/metrics":
                self._metrics()
            elif path == "/trace":
                from ..obs import get_tracer
                self._send(200, get_tracer().chrome_trace())
            elif path.startswith("/status/"):
                self._send(200, client.status(path[len("/status/"):]))
            elif path.startswith("/result/"):
                self._result(path[len("/result/"):], query)
            else:
                self._send(404, {"error": "not_found", "path": path})
        except ServeError as exc:
            self._send(404, {"error": "unknown_job", "message": str(exc)})

    def _metrics(self) -> None:
        from ..obs import get_registry, to_prometheus_text
        # stats() refreshes the serve.slo.* gauges the exposition reads
        self.server.broker.stats()
        text = to_prometheus_text(get_registry().snapshot())
        self._send_bytes(200, text.encode(),
                         "text/plain; version=0.0.4; charset=utf-8")

    def _result(self, job_id: str, query: str) -> None:
        client = self.server.client
        timeout = 0.0
        for part in query.split("&"):
            if part.startswith("timeout_s="):
                timeout = float(part.split("=", 1)[1])
        job = client.job(job_id)
        try:
            outcome = job.wait(timeout=timeout)
        except TimeoutError:
            self._send(202, {"job_id": job_id, "state": job.state})
            return
        except Exception as exc:
            if job.state == "expired":
                code = 504
            elif isinstance(exc, WorkerCrashError):
                code = 503      # request crashed its worker; broker is fine
            else:
                code = 500
            payload = (exc.to_dict() if hasattr(exc, "to_dict")
                       else {"error": type(exc).__name__,
                             "message": str(exc)})
            payload.update({"job_id": job_id, "state": job.state})
            self._send(code, payload)
            return
        self._send(200, {
            "job_id": job_id,
            "state": job.state,
            "config_hash": job.key,
            "from_cache": job.from_cache,
            "rung": outcome.rung,
            "degraded": outcome.degraded,
            "result": result_to_dict(outcome.result),
        })

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        path = self.path.partition("?")[0]
        if path == "/submit":
            self._submit()
        elif path == "/trace":
            from ..obs import get_tracer
            try:
                enabled = bool(self._body().get("enabled"))
            except (ConfigurationError, json.JSONDecodeError) as exc:
                self._send(400, {"error": "bad_request",
                                 "message": str(exc)})
                return
            tracer = get_tracer()
            if enabled:
                tracer.enable()
            else:
                tracer.disable()
            self._send(200, {"tracing": tracer.enabled})
        elif path == "/shutdown":
            self._send(200, {"status": "shutting_down"})
            # serve_forever() cannot be stopped from a handler thread
            # synchronously; hand the shutdown to a helper thread and
            # let the CLI drain the broker once the listener returns.
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()
        else:
            self._send(404, {"error": "not_found", "path": path})

    def _submit(self) -> None:
        try:
            doc = self._body()
            spec = doc.get("spec")
            if not isinstance(spec, dict):
                raise ConfigurationError(
                    'body must carry a "spec" JSON object')
            job = self.server.broker.submit(
                spec,
                priority=int(doc.get("priority", 0)),
                deadline_s=doc.get("deadline_s"),
                label=str(doc.get("label", "")))
        except OverloadedError as exc:
            self._send(429, exc.to_dict())
        except (ConfigurationError, json.JSONDecodeError,
                TypeError, ValueError) as exc:
            self._send(400, {"error": "bad_request", "message": str(exc)})
        except ServeError as exc:
            self._send(503, {"error": "shutting_down",
                             "message": str(exc)})
        else:
            self._send(200, {"job_id": job.id, "config_hash": job.key,
                             "state": job.state,
                             "attached": job.attached,
                             "from_cache": job.from_cache})


class ServeHTTPServer(ThreadingHTTPServer):
    """The serving endpoint; ``port=0`` binds an ephemeral port."""

    daemon_threads = True

    def __init__(self, broker: Broker, host: str = "127.0.0.1",
                 port: int = 8023) -> None:
        super().__init__((host, port), _Handler)
        self.broker = broker
        self.client = ServeClient(broker)

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_thread(self) -> threading.Thread:
        """Run the listener on a daemon thread (tests, benches).

        The socket is closed as soon as the listener stops (e.g. after
        ``POST /shutdown``), so later connects are refused at once
        instead of waiting in the kernel backlog.
        """
        def serve() -> None:
            try:
                self.serve_forever(poll_interval=0.05)
            finally:
                self.server_close()

        thread = threading.Thread(target=serve, name="serve-http",
                                  daemon=True)
        thread.start()
        return thread


class HttpServeClient:
    """urllib client for a remote ``repro serve`` endpoint."""

    def __init__(self, base_url: str, *,
                 timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(self, method: str, path: str,
                 payload: dict[str, Any] | None = None
                 ) -> tuple[int, dict[str, Any]]:
        data = (json.dumps(payload).encode()
                if payload is not None else None)
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req,
                                        timeout=self.timeout_s) as resp:
                return resp.status, json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            body = exc.read().decode()
            try:
                return exc.code, json.loads(body)
            except json.JSONDecodeError:
                return exc.code, {"error": "http_error", "message": body}

    def submit(self, spec: dict, *, priority: int = 0,
               deadline_s: float | None = None,
               label: str = "") -> dict[str, Any]:
        """POST /submit; raises the shed/failure as structured errors."""
        payload: dict[str, Any] = {"spec": spec, "priority": priority,
                                   "label": label}
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        code, doc = self._request("POST", "/submit", payload)
        if code == 429:
            raise OverloadedError(doc.get("message", "overloaded"),
                                  queued=doc.get("queued", 0),
                                  in_flight=doc.get("in_flight", 0),
                                  limit=doc.get("limit", 0))
        if code != 200:
            raise ServeError(
                f"submit failed ({code}): {doc.get('message', doc)}")
        return doc

    def result(self, job_id: str, *,
               timeout_s: float = 0.0) -> dict[str, Any]:
        """GET /result/<id> (long-polls server-side for timeout_s)."""
        code, doc = self._request(
            "GET", f"/result/{job_id}?timeout_s={timeout_s:g}")
        doc["http_status"] = code
        return doc

    def status(self, job_id: str) -> dict[str, Any]:
        """GET /status/<id>."""
        return self._request("GET", f"/status/{job_id}")[1]

    def stats(self) -> dict[str, Any]:
        """GET /stats."""
        return self._request("GET", "/stats")[1]

    def metrics_text(self) -> str:
        """GET /metrics — the raw Prometheus text exposition."""
        req = urllib.request.Request(self.base_url + "/metrics")
        with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
            return resp.read().decode()

    def trace(self) -> dict[str, Any]:
        """GET /trace — the server's Chrome trace document."""
        return self._request("GET", "/trace")[1]

    def set_tracing(self, enabled: bool) -> dict[str, Any]:
        """POST /trace — toggle server-side span collection."""
        return self._request("POST", "/trace",
                             {"enabled": bool(enabled)})[1]

    def healthz(self) -> bool:
        """True when the endpoint answers its liveness probe."""
        try:
            return self._request("GET", "/healthz")[0] == 200
        except (urllib.error.URLError, OSError):
            return False

    def shutdown(self) -> dict[str, Any]:
        """POST /shutdown (graceful: server drains before exiting)."""
        return self._request("POST", "/shutdown")[1]
