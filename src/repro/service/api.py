"""Request handling for the detection service, apart from the wire.

The HTTP front end (:mod:`repro.service.http`) parses each request into
a dict and routes it through one :class:`ServiceAPI`, so
:class:`CampaignScheduler` never sees the protocol: a request is a dict
with an ``op`` plus credentials, the response a dict with ``ok`` and,
on failure, a machine-readable ``code`` that the front end maps to an
HTTP status and the CLI to an exit code.

Authentication is bearer-token: the server is configured with a
``token → tenant`` table; a request presents its token in the
``Authorization: Bearer`` header (the ``"token"`` field of the request
dict).  With no table configured the service is *open* — every request
is accepted and may name its tenant explicitly (``X-Owl-Tenant``, the
``"tenant"`` field), which is what single-user deployments and the
test-benches use.  With a table, a missing or unknown token is rejected
with ``code="auth"`` before the op is looked at.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Dict, Optional

from repro.errors import AuthError, ConfigError, QuotaError
from repro.service.scheduler import (
    DEFAULT_TENANT, STAGE_COMPLETE, STAGE_FAILED, CampaignScheduler)

#: failure ``code`` → HTTP status, shared by the HTTP front end and docs.
HTTP_STATUS = {
    "bad_request": 400,
    "auth": 401,
    "not_found": 404,
    "quota": 429,
    "error": 500,
}


def error_response(error: BaseException) -> Dict:
    """The protocol's failure envelope for an exception."""
    if isinstance(error, AuthError):
        code = "auth"
    elif isinstance(error, QuotaError):
        code = "quota"
    elif isinstance(error, KeyError):
        code = "not_found"
    elif isinstance(error, (ConfigError, TypeError)):
        code = "bad_request"
    else:
        code = "error"
    return {"ok": False, "code": code,
            "error": f"{type(error).__name__}: {error}"}


class ServiceAPI:
    """One scheduler behind a transport-neutral request dispatcher."""

    def __init__(self, scheduler: CampaignScheduler,
                 tokens: Optional[Dict[str, str]] = None,
                 poll_seconds: float = 0.05) -> None:
        self.scheduler = scheduler
        #: token → tenant; ``None`` (or empty) leaves the service open
        self.tokens = dict(tokens) if tokens else None
        self.poll_seconds = poll_seconds

    # ------------------------------------------------------------------
    # authentication
    # ------------------------------------------------------------------

    def authenticate(self, token: Optional[str],
                     requested_tenant: Optional[str] = None) -> str:
        """Resolve a request's tenant identity; raises :class:`AuthError`.

        Open mode (no token table): any request passes and may name its
        tenant.  Authenticated mode: the token *is* the identity — a
        request-supplied tenant name is ignored, so one tenant cannot
        bill another.
        """
        if not self.tokens:
            if requested_tenant:
                return str(requested_tenant)
            return DEFAULT_TENANT
        if token is None:
            raise AuthError("this service requires a bearer token "
                            "(pass --token / Authorization: Bearer)")
        tenant = self.tokens.get(str(token))
        if tenant is None:
            raise AuthError("unknown bearer token")
        return tenant

    # ------------------------------------------------------------------
    # request dispatch (one request dict → one response dict)
    # ------------------------------------------------------------------

    def handle(self, request: Dict) -> Dict:
        try:
            tenant = self.authenticate(request.get("token"),
                                       request.get("tenant"))
            op = request.get("op")
            if op == "ping":
                return {"ok": True, "pong": True,
                        "authenticated": self.tokens is not None}
            if op == "submit":
                cid = self.scheduler.submit(
                    request["workload"], request.get("config") or {},
                    tenant=tenant)
                return {"ok": True, "campaign": cid,
                        "workload": request["workload"], "tenant": tenant}
            if op == "status":
                return {"ok": True,
                        "status": self.scheduler.status(
                            request.get("campaign"))}
            if op == "results":
                return {"ok": True,
                        "results": self.scheduler.results(
                            request["campaign"])}
            if op == "shutdown":
                return {"ok": True, "stopping": True, "_shutdown": True}
            return {"ok": False, "code": "bad_request",
                    "error": f"unknown op {op!r}"}
        except Exception as error:  # noqa: BLE001 — protocol boundary
            return error_response(error)

    # ------------------------------------------------------------------
    # watch streams (one request → many event dicts)
    # ------------------------------------------------------------------

    async def watch_events(self, cid: str,
                           poll_seconds: Optional[float] = None
                           ) -> AsyncIterator[Dict]:
        """Yield status-transition events until the campaign is terminal.

        The first event always reports the current stage (so a
        reconnecting client re-synchronises immediately), each later one
        fires on a stage change, and the final event carries the full
        results payload.  An unknown campaign yields one ``not_found``
        failure envelope and ends.
        """
        poll = self.poll_seconds if poll_seconds is None else poll_seconds
        last_stage: Optional[str] = None
        while True:
            try:
                row = self.scheduler.status(cid)
            except KeyError as error:
                yield error_response(error)
                return
            stage = row["stage"]
            if stage != last_stage:
                last_stage = stage
                if stage == STAGE_FAILED:
                    yield {"ok": True, "event": "failed", "campaign": cid,
                           "stage": stage, "error": row.get("error"),
                           "results": self.scheduler.results(cid)}
                    return
                if stage == STAGE_COMPLETE:
                    yield {"ok": True, "event": "complete", "campaign": cid,
                           "stage": stage,
                           "results": self.scheduler.results(cid)}
                    return
                yield {"ok": True, "event": "status", "campaign": cid,
                       "stage": stage,
                       "pending_units": row.get("pending_units", 0),
                       "backlog_units": row.get("backlog_units", 0)}
            await asyncio.sleep(poll)
