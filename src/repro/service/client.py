"""The detection service's client: typed, synchronous, HTTP/JSON.

:class:`ServiceClient` is the public API — keyword-only construction,
frozen-dataclass returns (:class:`~repro.service.types.SubmitReceipt`,
:class:`~repro.service.types.CampaignStatus`,
:class:`~repro.service.types.CampaignResults`) — over the service's one
wire protocol, HTTP/JSON (:mod:`repro.service.http`).  A
``--connect``-style URL picks the socket that carries it:
``unix:///run/owl.sock`` for a unix-domain socket, ``http://host:8750``
for TCP.  Each call opens one connection, as the server answers one
request per connection.

Failures are typed too: bad credentials raise
:class:`~repro.errors.AuthError`, exhausted tenant quotas
:class:`~repro.errors.QuotaError`, an unreachable or hung-up service
:class:`~repro.errors.ServiceConnectionError`, and anything else the
service rejects :class:`~repro.errors.ServiceError` — all of them
:class:`~repro.errors.CampaignError` subclasses, so existing ``except``
clauses keep working.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import time
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


class _UnixHTTPConnection(http.client.HTTPConnection):
    """An HTTP connection whose transport is a unix-domain socket."""

    def __init__(self, path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self.socket_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        self.sock = sock


class ServiceClient:
    """One service endpoint, typed results.

    ``connect`` is a URL string (``unix://``, ``http://``) or an
    ``(kind, target)`` address tuple.  ``token`` is sent as the bearer
    credential on every request; ``tenant`` names the billing identity
    in *open* (tokenless) deployments and is ignored by authenticated
    servers, where the token is the identity.
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
            self._checked("ping", "GET", "/v1/ping")
        except (OSError, CampaignError):
            return False
        return True

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
        response = self._checked("submit", "POST", "/v1/campaigns",
                                 {"workload": workload,
                                  "config": config or {}})
        return SubmitReceipt.from_response(response)

    def status(self, campaign: str) -> CampaignStatus:
        response = self._checked("status", "GET",
                                 f"/v1/campaigns/{campaign}")
        return CampaignStatus.from_row(response["status"])

    def overview(self) -> ServiceOverview:
        response = self._checked("status", "GET", "/v1/campaigns")
        return ServiceOverview.from_response(response["status"])

    def results(self, campaign: str) -> CampaignResults:
        response = self._checked("results", "GET",
                                 f"/v1/campaigns/{campaign}/results")
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
        with self._request("GET", f"/v1/campaigns/{campaign}/watch",
                           timeout=timeout) as response:
            if response.status != 200:
                _raise_for(json.loads(response.read().decode("utf-8")),
                           "watch")
                raise ServiceError(f"watch rejected with HTTP "
                                   f"{response.status}")
            # http.client decodes chunked transfer transparently; an
            # abruptly dropped stream surfaces as IncompleteRead/OSError
            for line in iter(response.readline, b""):
                data = json.loads(line.decode("utf-8"))
                _raise_for(data, "watch")
                event = WatchEvent.from_line(data)
                yield event
                if event.terminal:
                    return
        raise ServiceConnectionError(
            f"watch stream for campaign {campaign} ended before a "
            f"terminal event (service hung up)")

    def shutdown(self) -> None:
        self._checked("shutdown", "POST", "/v1/shutdown")

    # ------------------------------------------------------------------
    # HTTP/JSON
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _request(self, method: str, path: str,
                 payload: Optional[Dict] = None,
                 timeout: Optional[float] = None
                 ) -> Iterator[http.client.HTTPResponse]:
        """One request on a fresh connection, closed on exit.

        Transport failures, while sending or while the caller reads the
        response, raise :class:`ServiceConnectionError`.
        """
        kind, target = self.address
        effective = self.timeout if timeout is None else timeout
        if kind == "unix":
            connection = _UnixHTTPConnection(str(target), effective)
        else:
            host, port = target  # type: ignore[misc]
            connection = http.client.HTTPConnection(host, port,
                                                    timeout=effective)
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if self.tenant is not None:
            headers["X-Owl-Tenant"] = self.tenant
        body = None if payload is None \
            else json.dumps(payload).encode("utf-8")
        try:
            connection.request(method, path, body=body, headers=headers)
            yield connection.getresponse()
        except (OSError, http.client.HTTPException) as error:
            raise ServiceConnectionError(
                f"cannot reach service at "
                f"{format_address(self.address)}: {error}") from error
        finally:
            connection.close()

    def _checked(self, op: str, method: str, path: str,
                 payload: Optional[Dict] = None) -> Dict:
        """The response dict of one request; a failure envelope raises."""
        with self._request(method, path, payload) as response:
            raw = response.read()
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(
                f"service returned non-JSON (HTTP {response.status}) "
                f"for {method} {path}") from error
        _raise_for(data, op)
        return data
