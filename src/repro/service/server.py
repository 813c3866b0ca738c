"""The HTTP+JSON front end: ``asyncio.start_server`` and nothing else.

Endpoints (all JSON in, JSON out; one request per connection)::

    POST /jobs                submit one job (429/503 under pressure)
    POST /sweeps              submit a batch / a named experiment sweep
    GET  /jobs/<hash>         one job's state (+ payload when finished)
    GET  /jobs/<hash>/events  streaming JSONL: history replay + live tail
    GET  /status              machine dashboard: queue, cache, runtime
    GET  /metrics             Prometheus text exposition of the same
    GET  /dashboard           human dashboard (self-refreshing HTML)
    GET  /healthz             liveness probe

The protocol layer is deliberately tiny — request line, headers,
``Content-Length`` body, ``Connection: close`` responses — because the
clients are curl, the stdlib client in :mod:`repro.service.client`,
and CI.  Request bodies are parsed *strictly*: the non-standard
``NaN``/``Infinity`` tokens (which ``json.loads`` accepts by default)
are rejected with 400, closing the cross-client hash-divergence hole
the same way :func:`repro.runtime.job.canonical_json` does on the
producer side.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Callable, Mapping

from repro import faults
from repro.runtime.job import Job
from repro.service.broker import BackpressureError, DrainingError, JobBroker
from repro.service.config import ServiceConfig
from repro.service.records import FINISHED, STREAM_END

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_JOB_PATH = re.compile(r"^/jobs/(?P<hash>[0-9a-f]{8,64})(?P<rest>/events)?$")


class HttpError(Exception):
    """Terminate the request with this status + JSON error body."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: "tuple[tuple[str, str], ...]" = (),
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


class Request:
    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        headers: "Mapping[str, str]",
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body


def _reject_nonfinite_constant(name: str) -> None:
    raise ValueError(
        f"non-finite JSON constant {name!r} is not allowed: it is not "
        "portable JSON and would make identical submissions hash apart"
    )


def parse_json_body(raw: bytes) -> object:
    """Strict JSON: UTF-8, no NaN/Infinity tokens."""
    try:
        return json.loads(
            raw.decode("utf-8"), parse_constant=_reject_nonfinite_constant
        )
    except (UnicodeDecodeError, ValueError) as exc:
        raise HttpError(400, f"invalid JSON body: {exc}") from exc


async def read_request(
    reader: "asyncio.StreamReader", max_body_bytes: int
) -> "Request | None":
    """Parse one request; ``None`` when the peer closed without one."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, "malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: "dict[str, str]" = {}
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, sep, value = header.decode("latin-1", "replace").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError as exc:
        raise HttpError(400, "invalid Content-Length") from exc
    if length > max_body_bytes:
        raise HttpError(413, f"body exceeds {max_body_bytes} bytes")
    body = await reader.readexactly(length) if length > 0 else b""
    path = target.partition("?")[0]
    return Request(method, path, headers, body)


def response_bytes(
    status: int,
    payload: object,
    headers: "tuple[tuple[str, str], ...]" = (),
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    head.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def raw_response_bytes(
    status: int, body: str, content_type: str
) -> bytes:
    """A non-JSON response (``/metrics`` text exposition, ``/dashboard``
    HTML) with the same close-per-request framing."""
    encoded = body.encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(encoded)}",
        "Cache-Control: no-store",
        "Connection: close",
    ]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + encoded


def stream_head_bytes() -> bytes:
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/x-ndjson\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")


class ServiceServer:
    """Routes requests into one :class:`JobBroker`."""

    def __init__(self, broker: JobBroker, config: "ServiceConfig | None" = None):
        self.broker = broker
        self.config = config or broker.config
        self._server: "asyncio.base_events.Server | None" = None
        self.port: "int | None" = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        await self.broker.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def shutdown(self, grace: "float | None" = None) -> None:
        """Stop accepting, drain the broker, close the listener."""
        if self._server is not None:
            self._server.close()
        await self.broker.drain(grace)
        if self._server is not None:
            await self._server.wait_closed()

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # -- connection handler ---------------------------------------------

    async def _handle(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        status = 500
        try:
            faults.fire("service.request")
            try:
                # A bounded read window bounds slow-loris connections: a
                # peer trickling bytes (or holding the socket open without
                # sending a request) is cut off with 408 instead of
                # pinning a handler task forever.
                request = await asyncio.wait_for(
                    read_request(reader, self.config.max_body_bytes),
                    timeout=self.config.request_timeout,
                )
            except asyncio.TimeoutError:
                raise HttpError(
                    408,
                    f"request not received within "
                    f"{self.config.request_timeout:g}s",
                ) from None
            if request is None:
                return
            try:
                status = await self._dispatch(request, writer)
            except HttpError as exc:
                status = exc.status
                writer.write(
                    response_bytes(
                        exc.status, {"error": exc.message}, exc.headers
                    )
                )
            except (ConnectionError, BrokenPipeError):
                raise
            except Exception as exc:  # noqa: BLE001 - a request never kills the server
                status = 500
                writer.write(
                    response_bytes(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                )
            await writer.drain()
        except HttpError as exc:
            status = exc.status
            try:
                writer.write(response_bytes(exc.status, {"error": exc.message}))
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass
        except (ConnectionError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # peer went away mid-request/stream
        finally:
            self.broker.metrics.http_request(status)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: "asyncio.StreamWriter"
    ) -> int:
        path, method = request.path, request.method
        if path == "/jobs" and method == "POST":
            return await self._post_job(request, writer)
        if path == "/sweeps" and method == "POST":
            return await self._post_sweep(request, writer)
        match = _JOB_PATH.match(path)
        if match is not None and method == "GET":
            if match.group("rest"):
                return await self._stream_events(match.group("hash"), writer)
            return self._get_job(match.group("hash"), writer)
        if path == "/status" and method == "GET":
            writer.write(response_bytes(200, self.broker.status()))
            return 200
        if path == "/metrics" and method == "GET":
            from repro.service.dashboard import prometheus_text

            writer.write(
                raw_response_bytes(
                    200,
                    prometheus_text(self.broker.status()),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            )
            return 200
        if path == "/dashboard" and method == "GET":
            from repro.service.dashboard import dashboard_html

            writer.write(
                raw_response_bytes(
                    200,
                    dashboard_html(self.broker.status()),
                    "text/html; charset=utf-8",
                )
            )
            return 200
        if path == "/healthz" and method == "GET":
            writer.write(
                response_bytes(
                    200, {"ok": True, "draining": self.broker.draining}
                )
            )
            return 200
        if path in (
            "/jobs",
            "/sweeps",
            "/status",
            "/metrics",
            "/dashboard",
            "/healthz",
        ) or (match is not None):
            raise HttpError(405, f"{method} not supported on {path}")
        raise HttpError(404, f"no route for {path}")

    # -- submission endpoints -------------------------------------------

    def _tenant_of(self, request: Request, body: "Mapping[str, object]") -> str:
        tenant = request.headers.get("x-repro-tenant") or body.get("tenant")
        return str(tenant) if tenant else "anon"

    def _job_from_spec(self, spec: "Mapping[str, object]") -> Job:
        fn = spec.get("fn")
        if not isinstance(fn, str) or ":" not in fn:
            raise HttpError(
                400, "job spec needs fn: 'module:function'"
            )
        if not self.config.allows_fn(fn):
            raise HttpError(
                403,
                f"job fn {fn!r} is outside the allowed prefixes "
                f"{list(self.config.fn_prefixes)}",
            )
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise HttpError(400, "job params must be an object")
        label = spec.get("label", "")
        if not isinstance(label, str):
            raise HttpError(400, "job label must be a string")
        try:
            return Job.create(fn, label=label, **params)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"invalid job: {exc}") from exc

    def _submit(self, job: Job, tenant: str):
        try:
            return self.broker.submit(job, tenant)
        except BackpressureError as exc:
            raise HttpError(
                429,
                str(exc),
                headers=(("Retry-After", f"{exc.retry_after:g}"),),
            ) from exc
        except DrainingError as exc:
            raise HttpError(
                503,
                "service is draining",
                headers=(
                    ("Retry-After", f"{self.config.retry_after:g}"),
                ),
            ) from exc

    def _submission_body(self, submission) -> "dict[str, object]":
        record = submission.record
        body: "dict[str, object]" = {
            "hash": record.job.hash,
            "label": record.job.name,
            "status": submission.kind,
            "state": record.state,
            "url": f"/jobs/{record.job.hash}",
            "events_url": f"/jobs/{record.job.hash}/events",
        }
        if record.state == FINISHED:
            body["payload"] = record.payload
        if record.error is not None:
            body["error"] = record.error
        return body

    async def _wait_terminal(self, record, timeout: "float | None") -> bool:
        """Wait for the record's terminal state; on timeout the caller
        answers 202 with the still-live state instead of erroring."""
        if timeout is None:
            await record.done.wait()
            return True
        try:
            await asyncio.wait_for(record.done.wait(), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def _post_job(
        self, request: Request, writer: "asyncio.StreamWriter"
    ) -> int:
        body = parse_json_body(request.body)
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        tenant = self._tenant_of(request, body)
        job = self._job_from_spec(body)
        submission = self._submit(job, tenant)
        if body.get("wait"):
            timeout = body.get("wait_timeout")
            await self._wait_terminal(
                submission.record,
                float(timeout) if timeout is not None else None,
            )
        status = 200 if submission.record.terminal else 202
        writer.write(response_bytes(status, self._submission_body(submission)))
        return status

    async def _post_sweep(
        self, request: Request, writer: "asyncio.StreamWriter"
    ) -> int:
        body = parse_json_body(request.body)
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        tenant = self._tenant_of(request, body)
        jobs = sweep_jobs(body)
        if not jobs:
            raise HttpError(400, "sweep expands to zero jobs")
        for job in jobs:
            if not self.config.allows_fn(job.fn):
                raise HttpError(
                    403, f"sweep fn {job.fn!r} is outside the allowed prefixes"
                )
        items: "list[dict[str, object]]" = []
        submissions = []
        counts = {"submitted": 0, "attached": 0, "cache-hit": 0, "rejected": 0}
        rejected = False
        for job in jobs:
            if rejected:
                counts["rejected"] += 1
                items.append(
                    {"hash": job.hash, "label": job.name, "status": "rejected"}
                )
                continue
            try:
                submission = self._submit(job, tenant)
            except HttpError as exc:
                if exc.status != 429:
                    raise
                # Bounded queue overflow mid-sweep: report the split
                # rather than failing what was already admitted.
                rejected = True
                counts["rejected"] += 1
                items.append(
                    {"hash": job.hash, "label": job.name, "status": "rejected"}
                )
                continue
            submissions.append(submission)
            counts[submission.kind] += 1
            items.append(self._submission_body(submission))
        if body.get("wait"):
            timeout = body.get("wait_timeout")
            for submission in submissions:
                await self._wait_terminal(
                    submission.record,
                    float(timeout) if timeout is not None else None,
                )
            for i, item in enumerate(items):
                job_hash = item.get("hash")
                record = self.broker.get(str(job_hash))
                if record is not None and item.get("status") != "rejected":
                    items[i] = {**item, "state": record.state}
                    if record.state == FINISHED:
                        items[i]["payload"] = record.payload
        status = 429 if counts["rejected"] and not submissions else 200
        headers: "tuple[tuple[str, str], ...]" = ()
        if counts["rejected"]:
            headers = (("Retry-After", f"{self.config.retry_after:g}"),)
        writer.write(
            response_bytes(
                status, {"jobs": items, "counts": counts}, headers
            )
        )
        return status

    # -- read endpoints -------------------------------------------------

    def _get_job(self, job_hash: str, writer: "asyncio.StreamWriter") -> int:
        record = self.broker.get(job_hash)
        if record is None:
            raise HttpError(404, f"unknown job hash {job_hash}")
        writer.write(response_bytes(200, record.describe()))
        return 200

    async def _stream_events(
        self, job_hash: str, writer: "asyncio.StreamWriter"
    ) -> int:
        record = self.broker.get(job_hash)
        if record is None:
            raise HttpError(404, f"unknown job hash {job_hash}")
        writer.write(stream_head_bytes())
        queue = record.subscribe()
        try:
            while True:
                item = await queue.get()
                if item is STREAM_END:
                    break
                writer.write(
                    (json.dumps(item, sort_keys=True) + "\n").encode("utf-8")
                )
                await writer.drain()
        finally:
            record.unsubscribe(queue)
        return 200


# -- sweep expansion ----------------------------------------------------


def _table2_sweep(body: "Mapping[str, object]") -> "list[Job]":
    from repro.experiments.table2 import table2_jobs
    from repro.experiments.workloads import WORKLOAD_NAMES

    workloads = body.get("workloads") or list(WORKLOAD_NAMES)
    if not isinstance(workloads, list):
        raise HttpError(400, "sweep workloads must be a list of names")
    scale = float(body.get("scale", 1.0))
    seed = body.get("seed")
    return table2_jobs(
        [str(name) for name in workloads],
        scale=scale,
        seed=int(seed) if seed is not None else None,
    )


#: named sweep expanders: experiment name -> jobs builder
SWEEPS: "dict[str, Callable[[Mapping[str, object]], list[Job]]]" = {
    "table2": _table2_sweep,
}


def sweep_jobs(body: "Mapping[str, object]") -> "list[Job]":
    """Expand a sweep request into its job list.

    Two shapes: ``{"experiment": "table2", "workloads": [...], ...}``
    (a named experiment sweep) or ``{"jobs": [{fn, params, label}, ...]}``
    (an explicit batch).
    """
    experiment = body.get("experiment")
    if experiment is not None:
        expander = SWEEPS.get(str(experiment))
        if expander is None:
            raise HttpError(
                400,
                f"unknown sweep experiment {experiment!r}; "
                f"known: {sorted(SWEEPS)}",
            )
        try:
            return expander(body)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"invalid sweep: {exc}") from exc
    specs = body.get("jobs")
    if not isinstance(specs, list):
        raise HttpError(
            400, "sweep body needs 'experiment' or a 'jobs' list"
        )
    jobs: "list[Job]" = []
    for spec in specs:
        if not isinstance(spec, dict):
            raise HttpError(400, "each sweep job must be an object")
        fn = spec.get("fn")
        if not isinstance(fn, str) or ":" not in fn:
            raise HttpError(400, "each sweep job needs fn: 'module:function'")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise HttpError(400, "sweep job params must be an object")
        try:
            jobs.append(
                Job.create(fn, label=str(spec.get("label", "")), **params)
            )
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"invalid sweep job: {exc}") from exc
    return jobs


async def run_service(
    config: ServiceConfig,
    ready: "Callable[[ServiceServer], None] | None" = None,
    stop: "asyncio.Event | None" = None,
) -> None:
    """Build, serve, and drain one service instance.

    ``ready`` is called once listening (with the bound server — tests
    and the CLI read the ephemeral port from it); ``stop`` ends the
    instance: the listener closes, the broker drains, sinks flush.
    """
    broker = JobBroker(config)
    server = ServiceServer(broker, config)
    await server.start()
    if ready is not None:
        ready(server)
    if stop is None:
        stop = asyncio.Event()
    await stop.wait()
    await server.shutdown()


__all__ = [
    "HttpError",
    "Request",
    "ServiceServer",
    "parse_json_body",
    "run_service",
    "sweep_jobs",
]
