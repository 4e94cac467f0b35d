"""Frozen result types of the service client API.

:class:`~repro.service.client.ServiceClient` returns these instead of
raw protocol dicts: every field the wire carries, typed and immutable,
identical on a unix socket and on TCP (both carry the same HTTP/JSON
payloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ServiceError

#: Stages a campaign can rest in when terminal.
_TERMINAL_STAGES = ("complete", "failed")


@dataclass(frozen=True)
class SubmitReceipt:
    """What ``submit`` hands back: the campaign's identity coordinates."""

    campaign: str
    workload: str
    tenant: str

    @classmethod
    def from_response(cls, response: Dict) -> "SubmitReceipt":
        return cls(campaign=str(response["campaign"]),
                   workload=str(response.get("workload", "")),
                   tenant=str(response.get("tenant", "anonymous")))


@dataclass(frozen=True)
class CampaignStatus:
    """One campaign's scheduler-side status row."""

    campaign: str
    workload: str
    stage: str
    tenant: str = "anonymous"
    pending_units: int = 0
    backlog_units: int = 0
    degradations: int = 0
    coalesced_into: Optional[str] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.stage in _TERMINAL_STAGES

    @property
    def complete(self) -> bool:
        return self.stage == "complete"

    @property
    def failed(self) -> bool:
        return self.stage == "failed"

    @classmethod
    def from_row(cls, row: Dict) -> "CampaignStatus":
        return cls(campaign=str(row.get("cid", "")),
                   workload=str(row.get("workload", "")),
                   stage=str(row.get("stage", "")),
                   tenant=str(row.get("tenant", "anonymous")),
                   pending_units=int(row.get("pending_units", 0)),
                   backlog_units=int(row.get("backlog_units", 0)),
                   degradations=int(row.get("degradations", 0)),
                   coalesced_into=row.get("coalesced_into"),
                   error=row.get("error"))


@dataclass(frozen=True)
class FleetStatus:
    """The serving fleet's worker accounting."""

    live_workers: Tuple[str, ...] = ()
    spawned: int = 0
    restarts: int = 0


@dataclass(frozen=True)
class TenantStatus:
    """One tenant's admission accounting."""

    tenant: str
    active_campaigns: int = 0
    inflight_units: int = 0
    backlog_units: int = 0
    weight: float = 1.0


@dataclass(frozen=True)
class ServiceOverview:
    """Everything ``owl status`` shows: campaigns, fleet, tenants."""

    campaigns: Dict[str, CampaignStatus] = field(default_factory=dict)
    fleet: Optional[FleetStatus] = None
    tenants: Dict[str, TenantStatus] = field(default_factory=dict)
    events: int = 0

    @classmethod
    def from_response(cls, status: Dict) -> "ServiceOverview":
        campaigns = {cid: CampaignStatus.from_row(row)
                     for cid, row in (status.get("campaigns") or {}).items()}
        fleet_raw = status.get("fleet") or {}
        fleet = None
        if fleet_raw:
            fleet = FleetStatus(
                live_workers=tuple(fleet_raw.get("live_workers", ())),
                spawned=int(fleet_raw.get("spawned", 0)),
                restarts=int(fleet_raw.get("restarts", 0)))
        tenants = {
            name: TenantStatus(
                tenant=name,
                active_campaigns=int(row.get("active_campaigns", 0)),
                inflight_units=int(row.get("inflight_units", 0)),
                backlog_units=int(row.get("backlog_units", 0)),
                weight=float(row.get("weight", 1.0)))
            for name, row in (status.get("tenants") or {}).items()}
        return cls(campaigns=campaigns, fleet=fleet, tenants=tenants,
                   events=len(status.get("events") or ()))


@dataclass(frozen=True)
class CampaignResults:
    """A campaign's results payload; ``report_json`` is byte-exact.

    The JSON string is exactly what the store serialised — the
    bit-identity contract's unit of comparison — so equality against a
    direct ``Owl.detect(...).report.to_json()`` is a plain ``==``.
    """

    campaign: str
    stage: str
    report_key: Optional[str] = None
    has_leaks: Optional[bool] = None
    report_json: Optional[str] = None
    error: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.stage == "complete"

    def report(self):
        """Parse ``report_json`` into a :class:`LeakageReport`."""
        from repro.core.report import LeakageReport
        if self.report_json is None:
            raise ServiceError(
                f"campaign {self.campaign} has no report "
                f"(stage {self.stage!r})")
        return LeakageReport.from_json(self.report_json)

    @classmethod
    def from_payload(cls, payload: Dict) -> "CampaignResults":
        return cls(campaign=str(payload.get("cid", "")),
                   stage=str(payload.get("stage", "")),
                   report_key=payload.get("report_key"),
                   has_leaks=payload.get("has_leaks"),
                   report_json=payload.get("report_json"),
                   error=payload.get("error"))


@dataclass(frozen=True)
class WatchEvent:
    """One line of a ``results --watch`` stream."""

    event: str
    campaign: str
    stage: Optional[str] = None
    pending_units: int = 0
    backlog_units: int = 0
    error: Optional[str] = None
    results: Optional[CampaignResults] = None

    @property
    def terminal(self) -> bool:
        return self.event in ("complete", "failed")

    @classmethod
    def from_line(cls, data: Dict) -> "WatchEvent":
        results = data.get("results")
        return cls(event=str(data.get("event", "")),
                   campaign=str(data.get("campaign", "")),
                   stage=data.get("stage"),
                   pending_units=int(data.get("pending_units", 0)),
                   backlog_units=int(data.get("backlog_units", 0)),
                   error=data.get("error"),
                   results=(CampaignResults.from_payload(results)
                            if results is not None else None))
