"""The detection service's client: typed, transport-blind, synchronous.

:class:`ServiceClient` is the public API — keyword-only construction,
frozen-dataclass returns (:class:`~repro.service.types.SubmitReceipt`,
:class:`~repro.service.types.CampaignStatus`,
:class:`~repro.service.types.CampaignResults`) — and speaks every
transport ``owl serve`` listens on: the JSON-lines unix/TCP socket and
the HTTP/JSON front end.  Pick the transport with a ``--connect``-style
URL (``unix:///run/owl.sock``, ``tcp://host:9000``,
``http://host:8750``); everything above the wire is identical because
both servers route through one :class:`~repro.service.api.ServiceAPI`.

Failures are typed too: bad credentials raise
:class:`~repro.errors.AuthError`, exhausted tenant quotas
:class:`~repro.errors.QuotaError`, an unreachable or hung-up service
:class:`~repro.errors.ServiceConnectionError`, and anything else the
service rejects :class:`~repro.errors.ServiceError` — all of them
:class:`~repro.errors.CampaignError` subclasses, so existing ``except``
clauses keep working.

The pre-redesign module-level helpers (``submit`` / ``status`` /
``results`` / ``wait_for`` returning raw protocol dicts) survive as
:class:`DeprecationWarning` shims over a throwaway client; ``request`` /
``ping`` / ``wait_until_up`` / ``shutdown`` remain plain functions since
scripts use them for liveness plumbing rather than results.
"""

from __future__ import annotations

import http.client
import json
import socket as socket_module
import time
import warnings
from typing import Dict, Iterator, Optional, Union

from repro.errors import (
    AuthError, CampaignError, QuotaError, ServiceConnectionError,
    ServiceError)
from repro.service.address import Address, format_address, parse_connect
from repro.service.types import (
    CampaignResults, CampaignStatus, ServiceOverview, SubmitReceipt,
    WatchEvent)

#: failure ``code`` → exception type raised client-side.
_ERROR_TYPES = {
    "auth": AuthError,
    "quota": QuotaError,
}


def _raise_for(response: Dict, op: str) -> None:
    """Raise the typed exception a failure envelope encodes."""
    if response.get("ok"):
        return
    error_type = _ERROR_TYPES.get(response.get("code", ""), ServiceError)
    raise error_type(
        f"service error for op {op!r}: "
        f"{response.get('error', 'unknown error')}")


class ServiceClient:
    """One service endpoint, any transport, typed results.

    ``connect`` is a URL string (``unix://``, ``tcp://``, ``http://``)
    or a legacy ``(kind, target)`` address tuple.  ``token`` is sent as
    the bearer credential on every request; ``tenant`` names the billing
    identity in *open* (tokenless) deployments and is ignored by
    authenticated servers, where the token is the identity.
    """

    def __init__(self, connect: Union[str, Address], *,
                 token: Optional[str] = None,
                 tenant: Optional[str] = None,
                 timeout: float = 30.0) -> None:
        if isinstance(connect, str):
            self.address = parse_connect(connect)
        else:
            self.address = connect
        self.token = token
        self.tenant = tenant
        self.timeout = timeout

    def __repr__(self) -> str:
        return (f"ServiceClient({format_address(self.address)!r}, "
                f"tenant={self.tenant!r})")

    # ------------------------------------------------------------------
    # the public verbs
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        """True when the service answers; never raises."""
        try:
            return bool(self._call({"op": "ping"}).get("ok"))
        except (OSError, CampaignError):
            return False

    def wait_until_up(self, *, timeout: float = 30.0,
                      poll: float = 0.1) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.ping():
                return
            time.sleep(poll)
        raise ServiceConnectionError(
            f"service at {format_address(self.address)} did not come up "
            f"within {timeout:.0f}s")

    def submit(self, workload: str, *,
               config: Optional[Dict] = None) -> SubmitReceipt:
        response = self._checked({"op": "submit", "workload": workload,
                                  "config": config or {}})
        return SubmitReceipt.from_response(response)

    def status(self, campaign: str) -> CampaignStatus:
        response = self._checked({"op": "status", "campaign": campaign})
        return CampaignStatus.from_row(response["status"])

    def overview(self) -> ServiceOverview:
        response = self._checked({"op": "status", "campaign": None})
        return ServiceOverview.from_response(response["status"])

    def results(self, campaign: str) -> CampaignResults:
        response = self._checked({"op": "results", "campaign": campaign})
        return CampaignResults.from_payload(response["results"])

    def wait_for(self, campaign: str, *, timeout: float = 300.0,
                 poll: float = 0.1) -> CampaignStatus:
        """Poll until the campaign is terminal; returns its final status."""
        deadline = time.monotonic() + timeout
        while True:
            row = self.status(campaign)
            if row.done:
                return row
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"campaign {campaign} still in stage {row.stage!r} "
                    f"after {timeout:.0f}s")
            time.sleep(poll)

    def watch(self, campaign: str, *,
              timeout: Optional[float] = None) -> Iterator[WatchEvent]:
        """Stream status transitions until the campaign is terminal.

        The connection is held open; the first event reports the current
        stage (so a reconnect re-synchronises), the last carries the
        full results payload.  A mid-stream hang-up raises
        :class:`ServiceConnectionError` — reconnect by calling ``watch``
        again.
        """
        for line in self._stream(campaign, timeout=timeout):
            data = json.loads(line.decode("utf-8"))
            _raise_for(data, "watch")
            event = WatchEvent.from_line(data)
            yield event
            if event.terminal:
                return  # the socket stays open for further requests
        raise ServiceConnectionError(
            f"watch stream for campaign {campaign} ended before a "
            f"terminal event (service hung up)")

    def shutdown(self) -> None:
        self._checked({"op": "shutdown"})

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------

    def _call(self, payload: Dict) -> Dict:
        request = self._credentialed(payload)
        kind = self.address[0]
        if kind == "http":
            return self._http_call(request)
        return self._socket_call(request)

    def _checked(self, payload: Dict) -> Dict:
        response = self._call(payload)
        _raise_for(response, str(payload.get("op")))
        return response

    def _credentialed(self, payload: Dict) -> Dict:
        request = dict(payload)
        if self.token is not None:
            request["token"] = self.token
        if self.tenant is not None:
            request.setdefault("tenant", self.tenant)
        return request

    # -- JSON-lines socket ---------------------------------------------

    def _connect_socket(self,
                        timeout: Optional[float] = None
                        ) -> socket_module.socket:
        kind, target = self.address
        effective = self.timeout if timeout is None else timeout
        try:
            if kind == "unix":
                sock = socket_module.socket(socket_module.AF_UNIX,
                                            socket_module.SOCK_STREAM)
                sock.settimeout(effective)
                sock.connect(str(target))
                return sock
            host, port = target  # type: ignore[misc]
            return socket_module.create_connection((host, port),
                                                   timeout=effective)
        except OSError as error:
            raise ServiceConnectionError(
                f"cannot reach service at {format_address(self.address)}: "
                f"{error}") from error

    def _socket_call(self, request: Dict) -> Dict:
        sock = self._connect_socket()
        try:
            sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
                if data.endswith(b"\n"):
                    break
            raw = b"".join(chunks)
            if not raw:
                raise ServiceConnectionError(
                    "service closed the connection mid-request")
            return json.loads(raw.decode("utf-8"))
        finally:
            sock.close()

    def _socket_stream(self, campaign: str,
                       timeout: Optional[float]) -> Iterator[bytes]:
        sock = self._connect_socket(timeout=timeout)
        try:
            request = self._credentialed(
                {"op": "watch", "campaign": campaign})
            sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
            stream = sock.makefile("rb")
            for line in stream:
                if not line.strip():
                    continue
                yield line
        except socket_module.timeout as error:
            raise ServiceConnectionError(
                f"watch stream for campaign {campaign} timed out: "
                f"{error}") from error
        finally:
            sock.close()

    # -- HTTP/JSON ------------------------------------------------------

    _HTTP_ROUTES = {
        "ping": ("GET", "/v1/ping"),
        "submit": ("POST", "/v1/campaigns"),
        "shutdown": ("POST", "/v1/shutdown"),
    }

    def _http_connection(self, timeout: Optional[float] = None
                         ) -> http.client.HTTPConnection:
        host, port = self.address[1]  # type: ignore[misc]
        effective = self.timeout if timeout is None else timeout
        return http.client.HTTPConnection(host, port, timeout=effective)

    def _http_headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if self.tenant is not None:
            headers["X-Owl-Tenant"] = self.tenant
        return headers

    def _http_route(self, request: Dict):
        op = request.get("op")
        if op == "status":
            cid = request.get("campaign")
            path = "/v1/campaigns" if cid is None \
                else f"/v1/campaigns/{cid}"
            return "GET", path, None
        if op == "results":
            return "GET", f"/v1/campaigns/{request['campaign']}/results", \
                None
        if op == "submit":
            body = json.dumps({"workload": request.get("workload"),
                               "config": request.get("config") or {}})
            return "POST", "/v1/campaigns", body.encode("utf-8")
        if op in self._HTTP_ROUTES:
            method, path = self._HTTP_ROUTES[op]
            return method, path, b"" if method == "POST" else None
        raise ServiceError(f"op {op!r} has no HTTP route")

    def _http_call(self, request: Dict) -> Dict:
        method, path, body = self._http_route(request)
        connection = self._http_connection()
        try:
            try:
                connection.request(method, path, body=body,
                                   headers=self._http_headers())
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as error:
                raise ServiceConnectionError(
                    f"cannot reach service at "
                    f"{format_address(self.address)}: {error}") from error
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise ServiceError(
                    f"service returned non-JSON (HTTP {response.status}) "
                    f"for {method} {path}") from error
        finally:
            connection.close()

    def _http_stream(self, campaign: str,
                     timeout: Optional[float]) -> Iterator[bytes]:
        connection = self._http_connection(timeout=timeout)
        try:
            try:
                connection.request(
                    "GET", f"/v1/campaigns/{campaign}/watch",
                    headers=self._http_headers())
                response = connection.getresponse()
            except (OSError, http.client.HTTPException) as error:
                raise ServiceConnectionError(
                    f"cannot reach service at "
                    f"{format_address(self.address)}: {error}") from error
            if response.status != 200:
                data = json.loads(response.read().decode("utf-8"))
                _raise_for(data, "watch")
                raise ServiceError(f"watch rejected with HTTP "
                                   f"{response.status}")
            # http.client decodes chunked transfer transparently; an
            # abruptly dropped stream surfaces as IncompleteRead/OSError
            try:
                while True:
                    line = response.readline()
                    if not line:
                        return
                    yield line
            except (http.client.HTTPException, OSError) as error:
                raise ServiceConnectionError(
                    f"watch stream for campaign {campaign} dropped "
                    f"mid-flight: {error}") from error
        finally:
            connection.close()

    def _stream(self, campaign: str,
                timeout: Optional[float]) -> Iterator[bytes]:
        if self.address[0] == "http":
            return self._http_stream(campaign, timeout)
        return self._socket_stream(campaign, timeout)


# ----------------------------------------------------------------------
# legacy module-level API (dict-returning) — deprecated shims
# ----------------------------------------------------------------------


def request(address: Address, payload: Dict,
            timeout: float = 30.0) -> Dict:
    """Send one raw request dict, return the raw response dict."""
    client = ServiceClient(address, timeout=timeout)
    return client._call(payload)


def ping(address: Address, timeout: float = 5.0) -> bool:
    return ServiceClient(address, timeout=timeout).ping()


def wait_until_up(address: Address, timeout: float = 30.0,
                  poll: float = 0.1) -> None:
    ServiceClient(address).wait_until_up(timeout=timeout, poll=poll)


def shutdown(address: Address, timeout: float = 30.0) -> None:
    ServiceClient(address, timeout=timeout).shutdown()


def _deprecated(name: str) -> None:
    warnings.warn(
        f"repro.service.client.{name}() is deprecated; use "
        f"ServiceClient (typed results) instead",
        DeprecationWarning, stacklevel=3)


def submit(address: Address, workload: str,
           config: Optional[Dict] = None, timeout: float = 30.0) -> str:
    _deprecated("submit")
    receipt = ServiceClient(address, timeout=timeout).submit(
        workload, config=config)
    return receipt.campaign


def status(address: Address, campaign: Optional[str] = None,
           timeout: float = 30.0) -> Dict:
    _deprecated("status")
    client = ServiceClient(address, timeout=timeout)
    response = client._checked({"op": "status", "campaign": campaign})
    return response["status"]


def results(address: Address, campaign: str,
            timeout: float = 30.0) -> Dict:
    _deprecated("results")
    client = ServiceClient(address, timeout=timeout)
    response = client._checked({"op": "results", "campaign": campaign})
    return response["results"]


def wait_for(address: Address, campaign: str, timeout: float = 300.0,
             poll: float = 0.1) -> Dict:
    """Deprecated: poll until terminal; returns the raw status row."""
    _deprecated("wait_for")
    client = ServiceClient(address)
    deadline = time.monotonic() + timeout
    while True:
        response = client._checked({"op": "status", "campaign": campaign})
        row = response["status"]
        if row["stage"] in ("complete", "failed"):
            return row
        if time.monotonic() > deadline:
            raise CampaignError(
                f"campaign {campaign} still in stage {row['stage']!r} "
                f"after {timeout:.0f}s")
        time.sleep(poll)
