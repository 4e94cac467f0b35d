"""The distributed detection service: campaigns sharded across a fleet.

``owl serve`` runs a :class:`~repro.service.scheduler.CampaignScheduler`
behind an asyncio HTTP/JSON front end
(:class:`~repro.service.server.ServiceServer`) on a unix socket or on
TCP; tenants submit named workloads with ``owl submit`` and poll
``owl status`` / ``owl results``, or call :class:`ServiceClient`.
Campaigns decompose into durable :class:`~repro.service.units.WorkUnit`
specs in a crash-safe :class:`~repro.service.queue.JobQueue`, executed by
a supervised :class:`~repro.service.fleet.WorkerFleet` (or the scheduler
itself at ``workers=0``) against one fleet-safe shared
:class:`~repro.store.store.TraceStore`.  Reports are bit-identical to a
direct in-process ``Owl.detect`` at any worker count, across worker
deaths, because the terminal unit *is* an ``Owl.detect`` against the
store the fleet warmed.
"""

from repro.service.address import parse_connect
from repro.service.api import ServiceAPI
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.execute import execute_unit
from repro.service.fleet import WorkerFleet
from repro.service.queue import JobQueue
from repro.service.scheduler import CampaignScheduler, campaign_identity
from repro.service.types import (
    CampaignResults, CampaignStatus, ServiceOverview, SubmitReceipt,
    WatchEvent)
from repro.service.units import WorkUnit
from repro.service.worker import worker_loop

__all__ = [
    "CampaignResults",
    "CampaignScheduler",
    "CampaignStatus",
    "JobQueue",
    "ServiceAPI",
    "ServiceClient",
    "ServiceConfig",
    "ServiceOverview",
    "SubmitReceipt",
    "TenantQuota",
    "WatchEvent",
    "WorkUnit",
    "WorkerFleet",
    "campaign_identity",
    "execute_unit",
    "parse_connect",
    "worker_loop",
]
