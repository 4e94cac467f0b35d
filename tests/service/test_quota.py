"""Tenant quotas and weighted fair admission in the scheduler."""

import time

import pytest

from repro.errors import ConfigError, QuotaError
from repro.service import CampaignScheduler, ServiceConfig, TenantQuota
from repro.service.scheduler import STAGE_COMPLETE, STAGE_EVIDENCE

TINY = dict(fixed_runs=4, random_runs=4, seed=21, store_checkpoint_every=2)


def _scheduler(tmp_path, **config_fields):
    config = ServiceConfig(workers=0, unit_runs=2, coalesce=False,
                           **config_fields)
    return CampaignScheduler(tmp_path / "store", tmp_path / "queue",
                             config)


class TestTenantQuotaParsing:
    def test_parse_full_spec(self):
        quota = TenantQuota.parse("max_inflight:4,max_campaigns:2,weight:0.5")
        assert quota == TenantQuota(max_campaigns=2, max_inflight=4,
                                    weight=0.5)

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            TenantQuota.parse("max_units:3")

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ConfigError):
            TenantQuota(max_campaigns=0)
        with pytest.raises(ConfigError):
            TenantQuota(weight=0.0)


class TestCampaignQuota:
    def test_excess_campaigns_are_rejected(self, tmp_path):
        scheduler = _scheduler(
            tmp_path, quotas={"alice": TenantQuota(max_campaigns=1)})
        scheduler.submit("dummy", TINY, tenant="alice")
        with pytest.raises(QuotaError):
            scheduler.submit("dummy", dict(TINY, seed=99), tenant="alice")
        # other tenants are unaffected
        scheduler.submit("dummy", dict(TINY, seed=99), tenant="bob")

    def test_quota_releases_on_completion(self, tmp_path):
        scheduler = _scheduler(
            tmp_path, quotas={"alice": TenantQuota(max_campaigns=1)})
        first = scheduler.submit("dummy", TINY, tenant="alice")
        assert scheduler.wait([first], timeout=240)
        second = scheduler.submit("dummy", dict(TINY, seed=99),
                                  tenant="alice")
        assert scheduler.wait([second], timeout=240)

    def test_default_quota_applies_to_unlisted_tenants(self, tmp_path):
        scheduler = _scheduler(
            tmp_path, default_quota=TenantQuota(max_campaigns=1))
        scheduler.submit("dummy", TINY, tenant="carol")
        with pytest.raises(QuotaError):
            scheduler.submit("dummy", dict(TINY, seed=99), tenant="carol")


class TestAdmission:
    def test_no_quotas_admit_everything_immediately(self, tmp_path):
        """Pre-tenancy behaviour is preserved: without quotas or a
        window, submit leaves no backlog."""
        scheduler = _scheduler(tmp_path)
        cid = scheduler.submit("dummy", TINY)
        state = scheduler.campaigns[cid]
        assert state.backlog == []
        assert len(state.pending) > 0

    def test_admission_window_bounds_the_queue(self, tmp_path):
        scheduler = _scheduler(tmp_path, admission_window=1)
        cid = scheduler.submit("dummy", TINY)
        state = scheduler.campaigns[cid]
        scheduler.tick()  # the plan unit runs; 4 evidence units follow
        assert state.stage == STAGE_EVIDENCE
        assert len(state.pending) == 1
        assert len(state.backlog) >= 1
        assert scheduler.wait([cid], timeout=240)

    def test_window_spans_campaigns(self, tmp_path):
        scheduler = _scheduler(tmp_path, admission_window=1)
        first = scheduler.submit("dummy", TINY)
        second = scheduler.submit("dummy", dict(TINY, seed=99))
        assert len(scheduler.campaigns[first].pending) == 1
        assert scheduler.campaigns[second].pending == []
        assert len(scheduler.campaigns[second].backlog) == 1
        assert scheduler.wait([first, second], timeout=240)

    def test_max_inflight_caps_a_tenant(self, tmp_path):
        scheduler = _scheduler(
            tmp_path, quotas={"alice": TenantQuota(max_inflight=1)})
        cid = scheduler.submit("dummy", TINY, tenant="alice")
        state = scheduler.campaigns[cid]
        scheduler.tick()  # the plan unit runs; 4 evidence units follow
        assert state.stage == STAGE_EVIDENCE
        assert len(state.pending) == 1
        assert len(state.backlog) >= 1
        assert scheduler.wait([cid], timeout=240)

    def test_weight_shapes_contended_admission(self, tmp_path):
        """Under a tight window the heavier-weighted tenant admits
        more often (stride charges 1/weight per unit)."""
        scheduler = _scheduler(
            tmp_path, admission_window=3,
            quotas={"alpha": TenantQuota(weight=2.0),
                    "beta": TenantQuota(weight=1.0)})
        cids = {tenant: [scheduler.submit("dummy", dict(TINY, seed=seed),
                                          tenant=tenant)
                         for seed in (seed_base, seed_base + 1)]
                for tenant, seed_base in (("alpha", 40), ("beta", 50))}
        inflight = {tenant: sum(len(scheduler.campaigns[cid].pending)
                                for cid in tenant_cids)
                    for tenant, tenant_cids in cids.items()}
        # 3 slots split 2:1 in favour of the weight-2 tenant
        assert inflight == {"alpha": 2, "beta": 1}
        assert scheduler.wait(cids["alpha"] + cids["beta"], timeout=240)

    def test_tenant_rows_in_status(self, tmp_path):
        scheduler = _scheduler(
            tmp_path, admission_window=2,
            quotas={"alice": TenantQuota(max_inflight=1, weight=0.5)})
        scheduler.submit("dummy", TINY, tenant="alice")
        scheduler.submit("dummy", dict(TINY, seed=99), tenant="bob")
        rows = scheduler.status()["tenants"]
        assert rows["alice"]["weight"] == 0.5
        assert rows["alice"]["inflight_units"] == 1
        assert rows["bob"]["active_campaigns"] == 1


class TestFairness:
    def test_capped_tenant_completes_while_heavy_tenant_saturates(
            self, tmp_path):
        """The acceptance scenario: one tenant floods the fleet with
        campaigns, a quota-capped tenant still makes steady progress and
        completes long before the flood drains."""
        scheduler = _scheduler(
            tmp_path, admission_window=2,
            quotas={"light": TenantQuota(max_inflight=1)})
        heavy = [scheduler.submit("dummy", dict(TINY, seed=30 + i),
                                  tenant="heavy")
                 for i in range(3)]
        light = scheduler.submit("dummy", TINY, tenant="light")
        deadline = time.time() + 240
        while not scheduler.campaigns[light].done:
            assert time.time() < deadline, "light tenant starved"
            scheduler.tick()
        assert scheduler.campaigns[light].stage == STAGE_COMPLETE
        # the flood is still draining when the capped tenant finishes
        assert any(not scheduler.campaigns[cid].done for cid in heavy), \
            "heavy tenant finished first: admission was not fair"
        assert scheduler.wait(heavy, timeout=240)
        for cid in heavy:
            assert scheduler.campaigns[cid].stage == STAGE_COMPLETE
