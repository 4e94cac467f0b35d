"""The service's wire protocol: HTTP/JSON on a unix socket or on TCP.

A deliberately small HTTP/1.1 server on stdlib ``asyncio`` streams — no
third-party web framework.  :class:`~repro.service.server.ServiceServer`
serves :meth:`HttpFrontEnd.handle` on either address kind
(``unix://PATH`` or ``http://HOST:PORT``), so the protocol is the same
on both.  Every route is a thin shim over a
:class:`~repro.service.api.ServiceAPI` request dict::

    GET  /v1/ping                     liveness + auth mode
    POST /v1/campaigns                submit {workload, config}
    GET  /v1/campaigns                status of every campaign
    GET  /v1/campaigns/<cid>          status of one campaign
    GET  /v1/campaigns/<cid>/results  completed campaign's report payload
    GET  /v1/campaigns/<cid>/watch    chunked stream of status events
    POST /v1/shutdown                 stop fleet + server

Authentication is ``Authorization: Bearer <token>``; failures map to
real HTTP statuses through :data:`~repro.service.api.HTTP_STATUS`
(400 malformed request, 401 bad token, 404 unknown campaign, 429 quota
exhausted).  ``watch`` responses use chunked transfer encoding, one
JSON event per line, held open until the campaign is terminal —
``owl results --watch``.  Connections are single-request
(``Connection: close``); the service's request rate is bounded by
campaign math, not socket churn.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.service.api import HTTP_STATUS, ServiceAPI, error_response

#: request-body cap: campaign submissions are small config dicts.
MAX_BODY_BYTES = 1 << 20
#: header-section cap, against garbage or non-HTTP clients.
MAX_HEADER_BYTES = 1 << 16

_REASONS = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
            404: "Not Found", 405: "Method Not Allowed",
            429: "Too Many Requests", 500: "Internal Server Error"}


def _status_of(response: Dict) -> int:
    if response.get("ok"):
        return 200
    return HTTP_STATUS.get(response.get("code", "error"), 500)


class HttpFrontEnd:
    """Route HTTP requests into a :class:`ServiceAPI`."""

    def __init__(self, api: ServiceAPI, stopping: asyncio.Event) -> None:
        self.api = api
        self.stopping = stopping

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            try:
                parsed = await self._read_request(reader)
            except ValueError:  # a line past the reader's 64 KiB limit
                parsed = None
            if parsed is None:
                await self._respond(writer, 400, {
                    "ok": False, "code": "bad_request",
                    "error": "malformed HTTP request"})
                return
            method, path, headers, body = parsed
            await self._route(writer, method, path, headers, body)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # client hung up; nothing to clean
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, Dict, bytes]]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return None
        method, raw_path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > MAX_HEADER_BYTES:
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1", "replace") \
                .partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            return None
        if length < 0 or length > MAX_BODY_BYTES:
            return None
        if length:
            body = await reader.readexactly(length)
        path = raw_path.split("?", 1)[0]
        return method, path, headers, body

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _base_request(self, headers: Dict[str, str]) -> Dict:
        request: Dict = {}
        auth = headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            request["token"] = auth[len("bearer "):].strip()
        tenant = headers.get("x-owl-tenant")
        if tenant:
            request["tenant"] = tenant
        return request

    async def _route(self, writer: asyncio.StreamWriter, method: str,
                     path: str, headers: Dict[str, str],
                     body: bytes) -> None:
        request = self._base_request(headers)
        segments = [part for part in path.split("/") if part]
        if segments[:1] != ["v1"]:
            await self._respond(writer, 404, {
                "ok": False, "code": "not_found",
                "error": f"no route for {path!r} (API lives under /v1/)"})
            return
        route = segments[1:]
        if route == ["ping"] and method == "GET":
            await self._respond_api(writer, dict(request, op="ping"))
            return
        if route == ["shutdown"] and method == "POST":
            response = self.api.handle(dict(request, op="shutdown"))
            await self._respond(writer, _status_of(response),
                                {key: value
                                 for key, value in response.items()
                                 if key != "_shutdown"})
            if response.get("_shutdown"):
                self.stopping.set()
            return
        if route == ["campaigns"]:
            if method == "POST":
                payload = self._decode_body(body)
                if payload is None:
                    await self._respond(writer, 400, {
                        "ok": False, "code": "bad_request",
                        "error": "request body is not a JSON object"})
                    return
                await self._respond_api(writer, dict(
                    request, op="submit",
                    workload=payload.get("workload"),
                    config=payload.get("config") or {}))
                return
            if method == "GET":
                await self._respond_api(writer,
                                        dict(request, op="status"))
                return
        if len(route) == 2 and route[0] == "campaigns" and method == "GET":
            await self._respond_api(writer, dict(
                request, op="status", campaign=route[1]))
            return
        if len(route) == 3 and route[0] == "campaigns" and method == "GET":
            cid, leaf = route[1], route[2]
            if leaf == "results":
                await self._respond_api(writer, dict(
                    request, op="results", campaign=cid))
                return
            if leaf == "watch":
                await self._stream_watch(writer, request, cid)
                return
        await self._respond(writer, 405 if route else 404, {
            "ok": False, "code": "bad_request",
            "error": f"no route for {method} {path!r}"})

    @staticmethod
    def _decode_body(body: bytes) -> Optional[Dict]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------

    async def _respond_api(self, writer: asyncio.StreamWriter,
                           request: Dict) -> None:
        response = self.api.handle(request)
        await self._respond(writer, _status_of(response), response)

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict) -> None:
        body = json.dumps(payload).encode("utf-8") + b"\n"
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _stream_watch(self, writer: asyncio.StreamWriter,
                            request: Dict, cid: str) -> None:
        """Chunked stream of watch events; ends when the campaign does."""
        try:
            self.api.authenticate(request.get("token"),
                                  request.get("tenant"))
        except Exception as error:  # noqa: BLE001 — protocol boundary
            response = error_response(error)
            await self._respond(writer, _status_of(response), response)
            return
        events = self.api.watch_events(cid)
        first = await events.__anext__()
        if not first.get("ok"):
            await self._respond(writer, _status_of(first), first)
            return
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head)
        await self._write_chunk(writer, first)
        async for event in events:
            await self._write_chunk(writer, event)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    async def _write_chunk(writer: asyncio.StreamWriter,
                           event: Dict) -> None:
        data = json.dumps(event).encode("utf-8") + b"\n"
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data
                     + b"\r\n")
        await writer.drain()
