"""The stdlib-only HTTP front for the serving gateway.

Production Overton sits behind the product's RPC fabric; the library
equivalent is dependency-free.  :class:`AsyncGatewayServer` is an
``asyncio`` front on a single event loop: non-blocking intake, keep-alive
connections, thousands of idle clients without thousands of threads.
``POST /predict`` bridges the gateway's
:class:`~repro.serve.batcher.PendingResponse` futures into the loop
(``on_done`` → a per-POST countdown → one ``call_soon_threadsafe``), so
slow forwards never block the accept path, and
:meth:`AsyncGatewayServer.stop` drains gracefully: stop intake first,
wait for in-flight requests, then stop the loop.

Routes::

    POST /predict    one payload object, a list of them, or an envelope
                     {"payload": ..., "latency_budget": 0.01,
                      "request_id": "q-123"}
    GET  /healthz    status, uptime, served versions per tier
    GET  /telemetry  the gateway's stats() JSON
    GET  /dashboard  the live text dashboard (text/plain)
    GET  /metrics    the global metrics registry, then the gateway's own
                     always-on repro_gateway_* families (Prometheus text)
    GET  /trace/<id> one trace's spans as JSON (404 for unknown ids)
    GET  /autopilot  the self-healing supervisor's status + recent journal
                     (404 unless the server was built with one)

Client errors (a malformed request line or ``Content-Length``, malformed
JSON, bad envelopes, unknown/missing payload fields) are 400 with
``{"error": ...}``; a shed request (queue full or
every circuit open) is 503 with a ``Retry-After`` header; a request that
was accepted but not answered within the gateway timeout is 504; a
stopped gateway is 503; anything else — including a handler crash on any
GET route — is 500 with a structured ``{"error": ...}`` body, never a
bare traceback.  Single-payload ``/predict`` responses carry an
``X-Trace-Id`` header when tracing is enabled.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from http.client import responses as _HTTP_REASONS

from repro.errors import ReproError, ServeError, ServeOverloadError, ServeTimeout
from repro.obs import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from repro.obs import get_tracer, render_prometheus
from repro.serve.gateway import ServingGateway

_ENVELOPE_KEYS = {"payload", "latency_budget", "request_id"}

_JSON = "application/json"


class _BadRequest(Exception):
    """A malformed request body/envelope — always the client's fault."""


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def _json_bytes(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def _error_reply(exc: BaseException) -> tuple[int, dict, dict]:
    """The one error→status mapping: ``(code, body, extra_headers)``."""
    if isinstance(exc, _BadRequest):
        return 400, {"error": str(exc)}, {}
    if isinstance(exc, ServeOverloadError):
        # Shed before any work: retryable, tell the client when.
        return 503, {"error": str(exc)}, {"Retry-After": "1"}
    if isinstance(exc, ServeTimeout):
        # Accepted but not answered in time: a gateway timeout.
        return 504, {"error": str(exc)}, {}
    if isinstance(exc, ServeError):
        # The gateway, not the request: stopped or unavailable.
        return 503, {"error": str(exc)}, {}
    if isinstance(exc, ReproError):  # payload validation and friends
        return 400, {"error": str(exc)}, {}
    return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}


def _get_route(gateway: ServingGateway, autopilot, path: str) -> tuple[int, str, bytes]:
    """Answer one GET: ``(status, content_type, body)``; never raises HTTP."""
    if path == "/healthz":
        # The highest-frequency route: answer from cheap state only,
        # never the full telemetry aggregation.
        return (
            200,
            _JSON,
            _json_bytes(
                {
                    "status": "ok",
                    "uptime_s": time.monotonic() - gateway.started_at,
                    "versions": gateway.pool.versions(),
                    "dtypes": gateway.pool.dtypes(),
                    "tier_order": gateway.pool.tier_order,
                }
            ),
        )
    if path == "/telemetry":
        return 200, _JSON, _json_bytes(gateway.stats())
    if path == "/dashboard":
        text = gateway.dashboard()
        if autopilot is not None:
            text += "\n" + autopilot.render()
        return 200, "text/plain; charset=utf-8", (text + "\n").encode("utf-8")
    if path == "/metrics":
        text = render_prometheus() + render_prometheus(gateway.telemetry.metrics)
        return 200, _METRICS_CONTENT_TYPE, text.encode("utf-8")
    if path.startswith("/trace/"):
        trace_id = path[len("/trace/"):]
        spans = get_tracer().ring.trace(trace_id)
        if not spans:
            return 404, _JSON, _json_bytes({"error": f"unknown trace {trace_id!r}"})
        return (
            200,
            _JSON,
            _json_bytes(
                {"trace_id": trace_id, "spans": [s.to_dict() for s in spans]}
            ),
        )
    if path == "/autopilot":
        if autopilot is None:
            return 404, _JSON, _json_bytes({"error": "no autopilot attached"})
        return (
            200,
            _JSON,
            _json_bytes(
                {
                    "status": autopilot.status(),
                    "policy": autopilot.policy.to_dict(),
                    "journal": autopilot.journal.tail(50),
                }
            ),
        )
    return 404, _JSON, _json_bytes({"error": f"unknown path {path!r}"})


def _parse_predict(body) -> tuple[list, dict, bool]:
    """Validate a ``/predict`` body: ``(payloads, submit_kwargs, single)``."""
    if isinstance(body, list):
        return body, {}, False
    if not isinstance(body, dict):
        raise _BadRequest(
            "request body must be a payload object, an envelope, "
            "or a list of payload objects"
        )
    if "payload" in body:
        unknown = set(body) - _ENVELOPE_KEYS
        if unknown:
            raise _BadRequest(
                f"unknown envelope keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_ENVELOPE_KEYS)}"
            )
        kwargs = {
            "latency_budget": body.get("latency_budget"),
            "request_id": body.get("request_id"),
        }
        return [body["payload"]], kwargs, True
    return [body], {}, True


# ----------------------------------------------------------------------
# The asyncio front-end
# ----------------------------------------------------------------------
def _render_http(
    code: int,
    content_type: str,
    data: bytes,
    headers: dict | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one HTTP/1.1 response (status line, headers, body)."""
    lines = [
        f"HTTP/1.1 {code} {_HTTP_REASONS.get(code, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(data)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data


class AsyncGatewayServer:
    """An asyncio HTTP front: non-blocking intake on a single event loop.

    Every connection is multiplexed on one loop, which runs on a
    background thread between :meth:`start` and :meth:`stop`; ``port=0``
    binds an ephemeral port (read it back from ``.port``).
    ``POST /predict`` submits through the gateway's existing micro-batcher
    and *suspends* the coroutine until the lane workers have settled every
    future of the POST — the last ``PendingResponse.on_done`` to fire hops
    back into the loop with one ``call_soon_threadsafe`` — so a slow
    forward pass never blocks accept or other connections.  Connections
    are keep-alive by default (HTTP/1.1 semantics; ``Connection: close``
    honored).

    :meth:`stop` is a graceful drain: close the listener (stop intake),
    wait for accepted requests to be answered (``gateway.drain``), then
    stop the loop and join the thread.  Wire it to SIGTERM for clean
    rolling restarts (the CLI does).
    """

    def __init__(
        self,
        gateway: ServingGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        autopilot=None,
        drain_timeout_s: float = 30.0,
    ) -> None:
        self.gateway = gateway
        self.autopilot = autopilot
        self.drain_timeout_s = drain_timeout_s
        self._requested = (host, port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._stop_event: asyncio.Event | None = None
        self._conn_tasks: set = set()
        self._addr: tuple[str, int] | None = None

    @property
    def host(self) -> str:
        if self._addr is None:
            raise ServeError("asyncio server is not running")
        return self._addr[0]

    @property
    def port(self) -> int:
        if self._addr is None:
            raise ServeError("asyncio server is not running")
        return self._addr[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "AsyncGatewayServer":
        if self._thread is not None:
            raise ServeError("asyncio server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-asyncio", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise ServeError("asyncio server did not start within 10s")
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            self._thread = None
            raise ServeError(
                f"asyncio server failed to bind: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        """Graceful drain: stop intake → answer in-flight → stop the loop."""
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and self._server is not None:
            loop.call_soon_threadsafe(self._server.close)
        try:
            self.gateway.drain(self.drain_timeout_s)
        except ServeError:
            pass  # bounded best effort: stopping beats waiting forever
        if loop is not None and self._stop_event is not None:
            loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=self.drain_timeout_s + 10)
        self._thread = None

    def __enter__(self) -> "AsyncGatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the loop -------------------------------------------------------
    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        host, port = self._requested
        try:
            self._server = await asyncio.start_server(
                self._handle_client, host, port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._addr = self._server.sockets[0].getsockname()[:2]
        self._ready.set()
        await self._stop_event.wait()
        self._server.close()
        await self._server.wait_closed()
        if self._conn_tasks:
            # In-flight requests were drained by stop(); what remains is
            # idle keep-alive connections parked on read.  Bounded wait,
            # then cancel.
            _, pending = await asyncio.wait(self._conn_tasks, timeout=2.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # The framing is unknown past a bad head: answer, close.
                    data = _json_bytes({"error": str(exc)})
                    writer.write(_render_http(400, _JSON, data, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, body, keep_alive = request
                code, ctype, data, extra = await self._dispatch(
                    method, path, body
                )
                writer.write(_render_http(code, ctype, data, extra, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionError,
            OSError,
        ):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader):
        """Parse one request; ``None`` on EOF or a blank start line.

        A start line without exactly three parts, or a ``Content-Length``
        that is not a non-negative integer, raises :class:`_BadRequest`.
        """
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if not parts:
            return None
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, path, version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise _BadRequest(f"bad Content-Length {raw_length!r}")
        body = await reader.readexactly(length) if length else b""
        if version == "HTTP/1.0":
            keep_alive = headers.get("connection", "").lower() == "keep-alive"
        else:
            keep_alive = headers.get("connection", "").lower() != "close"
        return method, path, body, keep_alive

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes, dict]:
        try:
            if method == "GET":
                code, ctype, data = _get_route(self.gateway, self.autopilot, path)
                return code, ctype, data, {}
            if method == "POST" and path == "/predict":
                return await self._predict(body)
            return (
                404,
                _JSON,
                _json_bytes({"error": f"unknown path {path!r}"}),
                {},
            )
        except Exception as exc:  # noqa: BLE001 - mapped, never a crash
            code, obj, headers = _error_reply(exc)
            return code, _JSON, _json_bytes(obj), headers

    async def _predict(self, body: bytes) -> tuple[int, str, bytes, dict]:
        try:
            parsed = json.loads(body or b"null")
        except (ValueError, json.JSONDecodeError) as exc:
            return (
                400,
                _JSON,
                _json_bytes({"error": f"bad request body: {exc}"}),
                {},
            )
        payloads, kwargs, single = _parse_predict(parsed)
        futures = [
            self.gateway.submit_async(p, **kwargs) for p in payloads
        ]  # validation raises here, before anything queues
        await self._settled(futures)
        # In order: the first failed item's exception is the POST's
        # (mapped by _dispatch).
        results = [f.result(timeout=0) for f in futures]
        headers = {}
        if single and futures[0].trace_id is not None:
            headers["X-Trace-Id"] = futures[0].trace_id
        payload = results[0] if single else results
        return 200, _JSON, _json_bytes(payload), headers

    async def _settled(self, futures) -> None:
        """Suspend until every gateway future of one POST is settled.

        One countdown latch per POST: lane workers decrement it from
        ``on_done`` and only the last one hops into the loop, so a
        64-payload POST costs one ``call_soon_threadsafe`` (one self-pipe
        write, one loop wake-up) and one asyncio future, not 64.  A POST
        not settled within ``request_timeout_s`` raises
        :class:`~repro.errors.ServeTimeout` (HTTP 504).
        """
        if not futures:
            return
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        timeout_s = self.gateway.config.request_timeout_s
        lock = threading.Lock()
        remaining = len(futures)

        def _wake() -> None:
            if not waiter.done():
                waiter.set_result(None)

        def _expire() -> None:
            if not waiter.done():
                waiter.set_exception(
                    ServeTimeout(f"request not answered within {timeout_s}s")
                )

        def _count_down(_pending) -> None:
            # Fires on a lane worker thread (or here, if already settled).
            nonlocal remaining
            with lock:
                remaining -= 1
                last = remaining == 0
            if last:
                try:
                    loop.call_soon_threadsafe(_wake)
                except RuntimeError:
                    pass  # loop already closed (shutdown race); waiter is gone

        timer = loop.call_later(timeout_s, _expire)
        try:
            for future in futures:
                future.on_done(_count_down)
            await waiter
        finally:
            timer.cancel()
