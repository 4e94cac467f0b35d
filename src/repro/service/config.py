"""Operational configuration of the detection service.

Everything here is fleet plumbing — worker counts, lease lengths, retry
budgets, unit sizing, tenant admission.  None of it may influence report
bytes: the scheduler decomposes campaigns into work units whose results
fold through :meth:`~repro.core.evidence.Evidence.merge` bit-identically
at any setting, so :class:`ServiceConfig` is to the fleet what
``workers`` / ``retry`` are to one ``Owl.detect`` call — excluded from
every store fingerprint by construction (it never reaches one).

Tenancy knobs live here too: a :class:`TenantQuota` bounds how much of
the fleet one tenant may hold at once (campaigns, in-flight units) and
weights the fair-admission stride; quotas shape *when* units run, never
*what* they compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class TenantQuota:
    """Admission bounds for one tenant (``None`` means unlimited).

    ``max_campaigns`` caps in-flight (non-terminal) campaigns per tenant
    — exceeding it rejects the submission with a
    :class:`~repro.errors.QuotaError` (HTTP 429).  ``max_inflight`` caps
    the tenant's units admitted to the queue at once; excess units wait
    in the scheduler's backlog and are admitted by weighted fair stride
    as earlier ones finish.  ``weight`` scales the tenant's share of
    admission slots when the fleet is contended (2.0 admits twice as
    often as 1.0).
    """

    max_campaigns: Optional[int] = None
    max_inflight: Optional[int] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("max_campaigns", "max_inflight"):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ConfigError(
                    f"{name} must be a positive int or None, got {value!r}")
        if not self.weight > 0:
            raise ConfigError(
                f"weight must be positive, got {self.weight!r}")

    @classmethod
    def parse(cls, text: str) -> "TenantQuota":
        """``"max_inflight:4,max_campaigns:2,weight:0.5"`` → a quota."""
        fields: Dict[str, object] = {}
        for part in str(text).split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition(":")
            key = key.strip()
            if not sep or key not in ("max_campaigns", "max_inflight",
                                      "weight"):
                raise ConfigError(
                    f"quota field {part!r} is not KEY:VALUE with KEY one of "
                    f"max_campaigns, max_inflight, weight")
            try:
                fields[key] = (float(raw) if key == "weight"
                               else int(raw))
            except ValueError:
                raise ConfigError(
                    f"quota field {key} takes a number, got {raw!r}")
        return cls(**fields)


@dataclass(frozen=True)
class ServiceConfig:
    """Fleet-level knobs for ``owl serve`` and the campaign scheduler."""

    #: worker processes to spawn; 0 executes every unit in the scheduler
    #: process (useful for tests and one-core hosts — same results)
    workers: int = 2
    #: phase-3 runs per evidence work unit (the fleet's chunk size; any
    #: value produces bit-identical evidence, smaller units spread wider)
    unit_runs: int = 25
    #: seconds a worker may hold a claimed unit without heartbeat before
    #: the scheduler revokes the lease and re-queues the unit.  Workers
    #: heartbeat at a quarter of this while executing, so on a shared
    #: (NFS) queue size it to at least 4x the filesystem's attribute
    #: propagation delay
    lease_seconds: float = 30.0
    #: scheduler/worker poll cadence
    poll_seconds: float = 0.05
    #: fleet dispatch attempts per unit before it degrades to running
    #: inside the scheduler process (the ladder's terminal rung)
    max_attempts: int = 3
    #: worker-process restarts the fleet will pay; once they are spent
    #: and the last worker is gone, the scheduler runs every pending unit
    #: itself (unless ``external_workers``), as at ``workers=0``
    restart_budget: int = 8
    #: coalesce submissions that resolve to the same (workload, analysis
    #: fingerprint, inputs) into one execution — the multi-tenant
    #: amortization that shares warm-store hits across clients
    coalesce: bool = True
    #: fault injection: each *initially spawned* worker exits, leaving its
    #: claim behind, right before executing its Nth claimed unit
    #: (replacement workers spawn without the fault, so the campaign
    #: completes).  Mirrors ``FaultPlan``'s worker_crash at fleet level.
    die_after: Optional[int] = None
    #: per-tenant admission quotas (tenant name → :class:`TenantQuota`);
    #: tenants not listed fall back to ``default_quota``
    quotas: Optional[Dict[str, TenantQuota]] = None
    #: quota for tenants without an explicit entry (None → unlimited)
    default_quota: Optional[TenantQuota] = None
    #: fleet-wide cap on units admitted to the queue at once; when set,
    #: backlogged tenants are interleaved by weighted fair stride instead
    #: of first-submitted-drains-first (None preserves admit-everything)
    admission_window: Optional[int] = None
    #: workers attach from other hosts against the shared queue/store
    #: directory: the scheduler never executes pending units itself
    #: (lease-expiry degradation past ``max_attempts`` still does, so a
    #: fleetless deployment cannot wedge on a dead remote worker)
    external_workers: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or isinstance(
                self.workers, bool) or self.workers < 0:
            raise ConfigError(
                f"workers must be an int >= 0, got {self.workers!r}")
        for name in ("unit_runs", "max_attempts"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ConfigError(
                    f"{name} must be a positive int, got {value!r}")
        if self.restart_budget < 0:
            raise ConfigError(
                f"restart_budget must be >= 0, got {self.restart_budget!r}")
        for name in ("lease_seconds", "poll_seconds"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(
                    f"{name} must be positive, got {value!r}")
        if self.die_after is not None and self.die_after < 1:
            raise ConfigError(
                f"die_after must be a positive int or None, got "
                f"{self.die_after!r}")
        if self.admission_window is not None and self.admission_window < 1:
            raise ConfigError(
                f"admission_window must be a positive int or None, got "
                f"{self.admission_window!r}")
        for source in (self.quotas or {}).values():
            if not isinstance(source, TenantQuota):
                raise ConfigError(
                    f"quotas values must be TenantQuota, got {source!r}")
        if self.default_quota is not None and not isinstance(
                self.default_quota, TenantQuota):
            raise ConfigError(
                f"default_quota must be a TenantQuota or None, got "
                f"{self.default_quota!r}")

    def quota_for(self, tenant: str) -> TenantQuota:
        """The effective quota of *tenant* (explicit, default, unlimited)."""
        quota = (self.quotas or {}).get(tenant)
        if quota is not None:
            return quota
        if self.default_quota is not None:
            return self.default_quota
        return _UNLIMITED


_UNLIMITED = TenantQuota()
