"""Campaign engine: fingerprints, keys, segments, regression diffs."""

import dataclasses
import functools

import numpy as np
import pytest

from repro.core.pipeline import OwlConfig
from repro.core.report import Leak, LeakageReport, LeakType
from repro.gpusim.device import DeviceConfig
from repro.store import Campaign, TraceStore, diff_reports
from repro.store.fingerprint import (
    FingerprintError,
    analysis_fingerprint,
    evidence_fingerprint,
    fingerprint_value,
    trace_fingerprint,
)


@pytest.fixture
def campaign(tmp_path):
    store = TraceStore(tmp_path / "store")
    return Campaign(store, "prog", OwlConfig(fixed_runs=4, random_runs=4),
                    DeviceConfig())


def leak(kernel="kern", block="body", instr=1, p=1e-6,
         leak_type=LeakType.DEVICE_DATA_FLOW) -> Leak:
    return Leak(leak_type=leak_type, kernel_identity=f"{kernel}@abc",
                kernel_name=kernel, block=block, instr=instr, p_value=p,
                statistic=0.5)


def report(name, *leaks) -> LeakageReport:
    rep = LeakageReport(program_name=name, confidence=0.95)
    for item in leaks:
        rep.add(item)
    return rep


class TestFingerprints:
    def test_deterministic_across_calls(self):
        config = OwlConfig()
        device = DeviceConfig()
        assert trace_fingerprint(config, device) == \
            trace_fingerprint(OwlConfig(), DeviceConfig())

    def test_scopes_are_distinct(self):
        config = OwlConfig()
        fps = {trace_fingerprint(config, None),
               evidence_fingerprint(config, None, side="fixed"),
               evidence_fingerprint(config, None, side="random"),
               analysis_fingerprint(config, None)}
        assert len(fps) == 4

    def test_trace_fingerprint_ignores_run_counts(self):
        device = DeviceConfig()
        assert trace_fingerprint(OwlConfig(fixed_runs=10), device) == \
            trace_fingerprint(OwlConfig(fixed_runs=99), device)

    def test_fixed_side_fingerprint_ignores_seed_and_random_runs(self):
        """The fixed side repeats the representative: its bytes never
        depend on the random draws, so every seed shares it."""
        device = DeviceConfig()
        fixed = functools.partial(evidence_fingerprint, side="fixed")
        base = fixed(OwlConfig(), device)
        assert fixed(OwlConfig(seed=1, random_runs=7), device) == base
        assert fixed(OwlConfig(fixed_runs=7), device) != base

    def test_random_side_fingerprint_ignores_fixed_runs(self):
        device = DeviceConfig()
        random = functools.partial(evidence_fingerprint, side="random")
        base = random(OwlConfig(), device)
        assert random(OwlConfig(fixed_runs=7), device) == base
        assert random(OwlConfig(random_runs=7), device) != base
        assert random(OwlConfig(seed=1), device) != base

    @pytest.mark.parametrize("side", ["fixed", "random"])
    def test_both_sides_track_sampling_and_device(self, side):
        fingerprint = functools.partial(evidence_fingerprint, side=side)
        base = fingerprint(OwlConfig(), DeviceConfig())
        assert fingerprint(OwlConfig(sampling="per_run"),
                           DeviceConfig()) != base
        assert fingerprint(OwlConfig(), DeviceConfig(seed=123)) != base

    def test_analysis_fingerprint_tracks_confidence(self):
        device = DeviceConfig()
        assert analysis_fingerprint(OwlConfig(confidence=0.99), device) != \
            analysis_fingerprint(OwlConfig(confidence=0.95), device)

    def test_parallelism_knobs_do_not_change_any_fingerprint(self):
        """workers / cohort / replica dedup / checkpoint cadence are
        proven bit-identical, so campaigns recorded under any of them
        share cache entries."""
        device = DeviceConfig()
        base = OwlConfig()
        variant = dataclasses.replace(base, workers=4, cohort=False,
                                      replica_dedup=True,
                                      store_checkpoint_every=3)
        for fingerprint in (
                trace_fingerprint, analysis_fingerprint,
                functools.partial(evidence_fingerprint, side="fixed"),
                functools.partial(evidence_fingerprint, side="random")):
            assert fingerprint(base, device) == fingerprint(variant, device)

    def test_device_config_changes_trace_fingerprint(self):
        config = OwlConfig()
        assert trace_fingerprint(config, DeviceConfig()) != \
            trace_fingerprint(config, DeviceConfig(seed=123))

    def test_value_fingerprints_cover_input_types(self):
        # every bundled workload input type must fingerprint cleanly
        for value in (b"\x00\x01", 0x6ACF8231, np.zeros(8),
                      np.linspace(0, 1, 4), "text", (1, 2), [3, 4],
                      {"k": 1}, None, 3.5):
            assert isinstance(fingerprint_value(value), str)

    def test_value_fingerprint_distinguishes_dtype(self):
        assert fingerprint_value(np.zeros(4, dtype=np.int64)) != \
            fingerprint_value(np.zeros(4, dtype=np.float64))

    def test_unfingerprintable_value_raises(self):
        with pytest.raises(FingerprintError):
            fingerprint_value(lambda x: x)


class TestKeys:
    def test_random_evidence_key_shared_across_representatives(self, campaign):
        assert campaign.evidence_key("random", "rep-a") == \
            campaign.evidence_key("random", "rep-b")
        assert campaign.evidence_key("fixed", "rep-a") != \
            campaign.evidence_key("fixed", "rep-b")

    def test_segment_key_mirrors_evidence_key(self, campaign):
        evidence_key = campaign.evidence_key("fixed", "rep")
        segment = campaign.segment_key(evidence_key, 0, 25)
        assert segment.startswith("segment/")
        assert segment.split("/", 1)[1] == \
            evidence_key.split("/", 1)[1] + "/0-25"

    def test_keys_embed_program_name(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        config = OwlConfig()
        a = Campaign(store, "version-a", config, None)
        b = Campaign(store, "version-b", config, None)
        assert a.trace_key("fp") != b.trace_key("fp")
        assert a.report_key("fp") != b.report_key("fp")


def runs_evidence(runs):
    from repro.core.evidence import Evidence
    evidence = Evidence()
    evidence.num_runs = runs
    return evidence


def save_segments(campaign, key, *ranges):
    for start, stop in ranges:
        campaign.save_segment(key, start, stop, runs_evidence(stop - start),
                              side="fixed")


def reach(campaign, key, done, stop):
    """Runs held after extending a *done*-run side toward run *stop*."""
    evidence, reached = campaign.extend_from_segments(
        key, runs_evidence(done) if done else None, done, stop)
    assert (evidence.num_runs if evidence is not None else 0) == reached
    return reached


class TestSegments:
    def test_chain_follows_run_order_across_partitions(self, campaign):
        key = campaign.evidence_key("fixed", "rep")
        save_segments(campaign, key, (2, 4), (0, 2), (0, 3))
        assert reach(campaign, key, 0, 4) == 4
        assert reach(campaign, key, 0, 3) == 3
        assert reach(campaign, key, 2, 4) == 4
        assert reach(campaign, key, 1, 4) == 1  # no segment starts at 1

    def test_chain_reaches_furthest_not_greediest(self, campaign):
        key = campaign.evidence_key("fixed", "rep")
        save_segments(campaign, key, (0, 10), (0, 5), (5, 20))
        assert reach(campaign, key, 0, 20) == 20  # via (0, 5), (5, 20)
        assert reach(campaign, key, 0, 19) == 10

    def test_chain_stays_within_its_side(self, campaign):
        fixed = campaign.evidence_key("fixed", "rep")
        other = campaign.evidence_key("fixed", "rep2")
        save_segments(campaign, other, (0, 4))
        assert reach(campaign, fixed, 0, 4) == 0

    def test_corrupt_segment_ends_the_chain(self, campaign):
        key = campaign.evidence_key("fixed", "rep")
        # distinct run counts, distinct blobs: only (1, 3) is damaged
        save_segments(campaign, key, (0, 1), (1, 3))
        entry = campaign.store.get(campaign.segment_key(key, 1, 3))
        path = campaign.store.blobs.path_for(entry.blob)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert reach(campaign, key, 0, 3) == 1
        # quarantined: the runs it held are recorded again
        assert campaign.store.keys_under("segment/") == [
            campaign.segment_key(key, 0, 1)]

    def test_save_evidence_deletes_only_its_sides_segments(self, campaign):
        fixed = campaign.evidence_key("fixed", "rep")
        random = campaign.evidence_key("random")
        save_segments(campaign, fixed, (0, 2), (0, 3))
        save_segments(campaign, random, (0, 2))
        campaign.save_evidence(fixed, runs_evidence(4), side="fixed")
        keys = campaign.store.keys_under("segment/")
        assert keys == [campaign.segment_key(random, 0, 2)]
        # deletions are durable: a fresh handle sees the same
        assert TraceStore(campaign.store.root).keys_under("segment/") == keys

    def test_save_evidence_returns_the_stored_payload(self, campaign):
        """Decoding is the caller's: the service's final look drops it."""
        key = campaign.evidence_key("random")
        payload = campaign.save_evidence(key, runs_evidence(4),
                                         side="random")
        assert payload == campaign.store.get_bytes(key)

    def test_retired_checkpoint_entries_are_dropped(self, campaign):
        from repro.store.campaign import drop_retired_partials
        store = campaign.store
        store.put_bytes("checkpoint/prog/cfg/random", "checkpoint", b"old")
        store.put_bytes("servicechunk/c0001/random/random/0000",
                        "checkpoint", b"chunk")
        save_segments(campaign, campaign.evidence_key("random"), (0, 2))
        assert drop_retired_partials(store) == 2
        assert [entry.kind for entry in store.entries()] == ["segment"]
        assert drop_retired_partials(TraceStore(store.root)) == 0


class TestDiffReports:
    def test_fixed_leak(self):
        diff = diff_reports(report("before", leak()), report("after"))
        assert [l.kernel_name for l in diff.fixed] == ["kern"]
        assert diff.is_clean_fix
        assert not diff.is_regression

    def test_introduced_leak(self):
        diff = diff_reports(report("before"), report("after", leak()))
        assert len(diff.introduced) == 1
        assert diff.is_regression
        assert not diff.is_clean_fix

    def test_persisting_leak_pairs_before_and_after(self):
        before = leak(p=1e-6)
        after = leak(p=1e-9)
        diff = diff_reports(report("a", before), report("b", after))
        assert diff.persisting == [(before, after)]
        assert diff.counts() == {"introduced": 0, "fixed": 0,
                                 "persisting": 1}

    def test_join_is_by_location_not_identity(self):
        # the call-stack digest legitimately changes across versions; a
        # leak at the same (kernel, block, instr) must still match up
        before = leak()
        after = leak()
        after = dataclasses.replace(after, kernel_identity="kern@other")
        diff = diff_reports(report("a", before), report("b", after))
        assert len(diff.persisting) == 1

    def test_different_locations_do_not_join(self):
        diff = diff_reports(report("a", leak(instr=1)),
                            report("b", leak(instr=2)))
        assert len(diff.fixed) == 1
        assert len(diff.introduced) == 1

    def test_leak_type_is_part_of_the_location(self):
        diff = diff_reports(
            report("a", leak(leak_type=LeakType.DEVICE_DATA_FLOW)),
            report("b", leak(leak_type=LeakType.DEVICE_CONTROL_FLOW)))
        assert len(diff.fixed) == 1
        assert len(diff.introduced) == 1

    def test_most_significant_leak_represents_a_location(self):
        diff = diff_reports(report("a", leak(p=1e-3), leak(p=1e-9)),
                            report("b"))
        assert len(diff.fixed) == 1
        assert diff.fixed[0].p_value == 1e-9

    def test_both_leak_free(self):
        diff = diff_reports(report("a"), report("b"))
        assert not diff.is_regression
        assert not diff.is_clean_fix
        assert "leak-free" in diff.render()

    def test_to_dict_round_trips_through_json(self):
        import json
        diff = diff_reports(report("a", leak()), report("b", leak(instr=9)))
        data = json.loads(json.dumps(diff.to_dict()))
        assert data["counts"] == {"introduced": 1, "fixed": 1,
                                  "persisting": 0}
