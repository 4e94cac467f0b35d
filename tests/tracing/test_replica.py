"""Replica-cohort batching ≡ serial per-run recording.

:func:`repro.tracing.replica.record_grouped` fuses many runs of one
program into mega cohorts (and, opt-in, deduplicates equal inputs on a
deterministic device).  It is a pure recording optimisation: expanding
its ``(trace, count)`` groups must reproduce the serial
``[TraceRecorder().record(program, v) for v in values]`` byte for byte —
for replica-divergent control flow, shared memory, impure programs,
injected faults, and Hypothesis-drawn toy kernels.  Members with equal
inputs share one execution of each launch, and must still leave their
devices as their serial runs do.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.libgpucrypto import aes_program
from repro.apps.minitorch import dropout, relu
from repro.core.evidence import Evidence
from repro.gpusim import DeviceConfig, kernel
from repro.resilience import FaultPlan
from repro.resilience.events import (
    COLUMNAR_TO_OBJECT,
    REPLICA_TO_RUN,
    collecting_degradations,
)
from repro.resilience.faults import activated
from repro.store.serialize import serialize_evidence
from repro.tracing import replica
from repro.tracing.recorder import TraceRecorder
from repro.tracing.replica import (
    device_is_deterministic,
    fold_grouped,
    group_values,
    record_grouped,
)
from tests.oracle import PER_EVENT_FOLD, serial_rung

DATA_SIZE = 256


# ----------------------------------------------------------------------
# toy programs
# ----------------------------------------------------------------------

@kernel()
def divergent_kernel(k, data, out):
    """Branches and loop trip counts depend on the input value, so
    replicas with different inputs force sub-cohort splits when fused."""
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, 0)
    for _ in k.branch(secret % 2 == 1).then("odd"):
        k.store(out, tid % DATA_SIZE, tid)
    trips = k.uniform(secret % 3 + 1 + k.lane * 0)
    for i in k.range_("loop", trips):
        k.load(data, (tid + i) % DATA_SIZE)
    k.store(out, tid % DATA_SIZE, tid + 1)


@kernel()
def shared_kernel(k, data, out):
    k.block("entry")
    tid = k.global_tid()
    scratch = k.shared("scratch", 64)
    slot = k.warp_id * 32 + k.lane
    k.store(scratch, slot, k.load(data, tid % DATA_SIZE) * 2)
    k.syncthreads()
    k.block("readback")
    k.store(out, tid % DATA_SIZE, k.load(scratch, slot))


def make_program(kern, grid=2, block=64):
    def program(rt, value):
        data = rt.cudaMalloc(DATA_SIZE, label="data")
        seeded = np.zeros(DATA_SIZE, dtype=np.int64)
        seeded[0] = int(value)
        rt.cudaMemcpyHtoD(data, seeded)
        out = rt.cudaMalloc(DATA_SIZE, label="out")
        rt.cuLaunchKernel(kern, grid, block, data, out)
    return program


@kernel()
def warp_split_kernel(k, data, out):
    """Warps of *one* replica disagree on a trip count, so each member's
    warps finish in two sub-cohorts that both fill the ``tail`` slot."""
    k.block("entry")
    tid = k.global_tid()
    trips = k.uniform(k.warp_id % 2 + 1 + k.lane * 0)
    for i in k.range_("loop", trips):
        k.load(data, (tid + i) % DATA_SIZE)
    k.block("tail")
    k.store(out, (DATA_SIZE - 1) - tid % DATA_SIZE, tid)


@kernel()
def load_or_store_kernel(k, data, out):
    """A plain Python branch inside one block: members taking different
    sides put a load and a store in the same (block, visit, instr) slot."""
    k.block("entry")
    tid = k.global_tid()
    if k.uniform(k.load(data, 0) % 2 + k.lane * 0):
        k.load(data, tid % DATA_SIZE)
    else:
        k.store(out, tid % DATA_SIZE, tid)


SCATTER_SIZE = 1 << 16


@kernel()
def scatter_kernel(k, data, out):
    """Every member reads far-apart addresses of its own on 16 loop
    visits: sparse keys, few of them shared between members."""
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, 0)
    for i in k.range_("loop", k.uniform(16 + k.lane * 0)):
        k.load(data, (tid * 97 + i * 4099 + secret * 7919) % SCATTER_SIZE)


def scatter_program(rt, value):
    data = rt.cudaMalloc(SCATTER_SIZE, label="data")
    seeded = np.zeros(SCATTER_SIZE, dtype=np.int64)
    seeded[0] = int(value)
    rt.cudaMemcpyHtoD(data, seeded)
    out = rt.cudaMalloc(DATA_SIZE, label="out")
    rt.cuLaunchKernel(scatter_kernel, 1, 64, data, out)


def chained_program(kern):
    """Two launches of *kern*: the second reads what the first wrote and
    its buffer is allocated after the first's shared buffers, so a member
    that reused the first launch's execution must hold its results and
    its allocations."""
    def program(rt, value):
        data = rt.cudaMalloc(DATA_SIZE, label="data")
        seeded = np.zeros(DATA_SIZE, dtype=np.int64)
        seeded[0] = int(value)
        rt.cudaMemcpyHtoD(data, seeded)
        out = rt.cudaMalloc(DATA_SIZE, label="out")
        rt.cuLaunchKernel(kern, 2, 64, data, out)
        again = rt.cudaMalloc(DATA_SIZE, label="again")
        rt.cuLaunchKernel(kern, 2, 64, out, again)
    return program


def host_random_program(rt, value):
    """A launch of the input alone, then one of a mask the host draws
    afresh each run (``dropout``): equal inputs share only the first."""
    x = np.full(64, float(value))
    relu(rt, x)
    dropout(rt, x)


divergent_program = make_program(divergent_kernel)
shared_program = make_program(shared_kernel)
warp_split_program = make_program(warp_split_kernel)
load_or_store_program = make_program(load_or_store_kernel)


def padded_program(rt, value):
    """Members get different layouts: a value-sized allocation first."""
    rt.cudaMalloc(16 + 64 * (int(value) % 3), label="pad")
    divergent_program(rt, value)


def swapped_labels_program(rt, value):
    """Members intern allocation labels in different orders."""
    for label in (("a", "b") if int(value) % 2 else ("b", "a")):
        rt.cudaMalloc(8, label=label)
    divergent_program(rt, value)


def serial_signatures(program, values, config=None):
    recorder = TraceRecorder(config)
    return [recorder.record(program, value).signature() for value in values]


def replica_signatures(program, values, config=None, dedup=False):
    groups, stats = record_grouped(program, values, device_config=config,
                                   dedup=dedup)
    signatures = [trace.signature()
                  for trace, count in groups for _ in range(count)]
    return signatures, stats


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------

class TestGroupValues:
    def test_consecutive_equal_values_collapse(self):
        assert group_values([1, 1, 2, 2, 2, 1], deterministic=True) == [
            (1, 2), (2, 3), (1, 1)]

    def test_non_deterministic_never_collapses(self):
        assert group_values([1, 1, 1], deterministic=False) == [
            (1, 1), (1, 1), (1, 1)]

    def test_ndarray_values_compare_by_content(self):
        a, b = np.arange(4), np.arange(4)
        assert group_values([a, b], deterministic=True) == [(a, 2)]

    def test_ndarray_dtype_mismatch_not_merged(self):
        a = np.arange(4, dtype=np.int64)
        b = np.arange(4, dtype=np.float64)
        assert len(group_values([a, b], deterministic=True)) == 2

    def test_type_mismatch_not_merged(self):
        assert len(group_values([1, 1.0], deterministic=True)) == 2


class TestDeviceDeterminism:
    def test_fixed_seed_is_deterministic(self):
        config = DeviceConfig(seed=7, shuffle_schedule=True, aslr=True)
        assert device_is_deterministic(config)

    def test_default_config_is_deterministic(self):
        assert device_is_deterministic(DeviceConfig())

    @pytest.mark.parametrize("knob", ["aslr", "shuffle_schedule"])
    def test_unseeded_randomisation_is_not(self, knob):
        config = DeviceConfig(seed=None, **{knob: True})
        assert not device_is_deterministic(config)


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------

class TestRecordGroupedEquivalence:
    def test_divergent_replicas_match_serial(self):
        values = [0, 1, 2, 3, 5]
        replica, stats = replica_signatures(divergent_program, values)
        assert replica == serial_signatures(divergent_program, values)
        assert stats.fused_groups >= 1

    def test_shared_memory_replicas_match_serial(self):
        values = [3, 8, 21]
        replica, _stats = replica_signatures(shared_program, values)
        assert replica == serial_signatures(shared_program, values)

    @pytest.mark.parametrize("kern, values", [
        (shared_kernel, [3, 8, 3, 3, 8]),
        (divergent_kernel, [1, 2, 1, 1, 5, 2])],
        ids=["shared-memory", "divergent"])
    def test_reused_executions_leave_serial_state(self, kern, values):
        """Repeats reuse their leader's execution of each launch: their
        traces, and the addresses of what their programs allocate after
        it, are their serial runs'."""
        program = chained_program(kern)
        groups, stats = record_grouped(program, values)
        traces = [trace for trace, count in groups for _ in range(count)]
        recorder = TraceRecorder()
        serial = [recorder.record(program, value) for value in values]
        assert [t.signature() for t in traces] == \
            [t.signature() for t in serial]
        assert [t.malloc_records for t in traces] == \
            [t.malloc_records for t in serial]
        assert stats.fused_launches == 2 * len(values)
        assert stats.reused_launches >= 2 * (len(values) - len(set(values)))

    def test_per_event_fold_matches_serial(self):
        """Split fused launches replayed through the per-event fold match
        serial runs folded either way."""
        values = [1, 4]
        with activated(PER_EVENT_FOLD):
            replica, _stats = replica_signatures(divergent_program, values)
            per_event = serial_signatures(divergent_program, values)
        assert replica == per_event
        assert replica == serial_signatures(divergent_program, values)

    @pytest.mark.parametrize("entry", ["record_grouped", "fold_grouped"])
    def test_no_cohort_starts_no_replica_session(self, entry, monkeypatch):
        """Fusion needs the cohort engine, so a ``cohort=False`` batch
        takes the serial rung directly: the per-warp reference recorder,
        one run at a time, with no session to start or abandon."""
        def no_session(*args, **kwargs):
            raise AssertionError("a cohort=False batch started a session")

        monkeypatch.setattr(replica, "_ReplicaSession", no_session)
        values = [1, 4, 4, 7]
        recorder = TraceRecorder(cohort=False)
        traces = [recorder.record(divergent_program, value)
                  for value in values]
        with collecting_degradations() as log:
            if entry == "record_grouped":
                groups, stats = record_grouped(divergent_program, values,
                                               cohort=False)
                assert [trace.signature() for trace, count in groups
                        for _ in range(count)] == \
                    [trace.signature() for trace in traces]
            else:
                evidence = Evidence()
                stats = fold_grouped(divergent_program, values, evidence,
                                     cohort=False).stats
                assert serialize_evidence(evidence) == serialize_evidence(
                    Evidence.from_traces(traces))
        assert len(log) == 0
        assert stats.fused_launches == stats.fallback_launches == 0

    def test_dedup_collapses_equal_inputs(self):
        values = [2, 2, 2, 7, 7]
        replica, stats = replica_signatures(divergent_program, values,
                                            dedup=True)
        assert replica == serial_signatures(divergent_program, values)
        assert stats.dedup_runs == 3

    def test_dedup_off_records_every_run(self):
        values = [2, 2]
        replica, stats = replica_signatures(divergent_program, values)
        assert replica == serial_signatures(divergent_program, values)
        assert stats.dedup_runs == 0

    def test_dedup_refused_on_nondeterministic_device(self):
        config = DeviceConfig(seed=None, aslr=True)
        groups, stats = record_grouped(divergent_program, [5, 5],
                                       device_config=config, dedup=True)
        assert [count for _t, count in groups] == [1, 1]
        assert stats.dedup_runs == 0

    def test_impure_program_stays_identical_without_dedup(self):
        """A program drawing per-run state of its own is outside the
        dedup envelope but must still replay byte-identically when every
        run is recorded (equal inputs produce *different* traces here)."""
        def impure(counter):
            def program(rt, value):
                counter[0] += 1
                data = rt.cudaMalloc(DATA_SIZE, label="data")
                seeded = np.zeros(DATA_SIZE, dtype=np.int64)
                seeded[0] = int(value) + counter[0] % 3
                rt.cudaMemcpyHtoD(data, seeded)
                out = rt.cudaMalloc(DATA_SIZE, label="out")
                rt.cuLaunchKernel(divergent_kernel, 2, 64, data, out)
            return program

        values = [1, 1, 1]
        serial = serial_signatures(impure([0]), values)
        assert len(set(serial)) > 1  # genuinely impure
        replica, _stats = replica_signatures(impure([0]), values)
        assert replica == serial

    def test_host_random_mask_is_not_shared(self):
        """Equal inputs share the launch that reads only the input, never
        the one reading a mask the host draws afresh each run; the mask
        changes values, not addresses, so the evidence is the serial
        rung's."""
        values = [2, 2, 2]
        evidence = Evidence()
        stats = fold_grouped(host_random_program, values, evidence).stats
        assert stats.fused_launches == 2 * len(values)
        assert stats.reused_launches == len(values) - 1
        serial = Evidence()
        with serial_rung():
            fold_grouped(host_random_program, values, serial)
        assert serialize_evidence(evidence) == serialize_evidence(serial)

    def test_program_exception_propagates(self):
        def exploding(rt, value):
            if value == 2:
                raise ValueError("boom")
            divergent_program(rt, value)

        with pytest.raises(ValueError, match="boom"):
            record_grouped(exploding, [1, 2, 3])

    @pytest.mark.parametrize("entry", ["record_grouped", "fold_grouped"])
    def test_abandoned_batch_releases_parked_programs(self, entry):
        """One program raising after its first launch abandons the batch
        while the others are parked at their second: every session's
        thread must end, not wait forever holding its device."""
        def exploding(rt, value):
            divergent_program(rt, value)
            if value == 2:
                raise ValueError("boom")
            divergent_program(rt, value)

        def record():
            if entry == "record_grouped":
                record_grouped(exploding, [1, 2, 3, 4])
            else:
                fold_grouped(exploding, [1, 2, 3, 4], Evidence())

        def started_since():
            return [thread for thread in threading.enumerate()
                    if thread not in before]

        before = set(threading.enumerate())
        for _ in range(3):
            with pytest.raises(ValueError, match="boom"):
                record()
        deadline = time.monotonic() + 10.0
        while started_since() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert started_since() == []


class TestFaultInjection:
    def test_replica_violation_degrades_and_stays_identical(self):
        values = [0, 1, 2]
        plan = FaultPlan.parse("replica_violation:launch=0")
        with collecting_degradations() as log:
            with activated(plan):
                replica, stats = replica_signatures(divergent_program,
                                                    values)
        assert replica == serial_signatures(divergent_program, values)
        assert REPLICA_TO_RUN in log.counts_by_kind()
        assert stats.fallback_launches >= len(values)

    def test_batch_fold_error_replays_a_fused_launch(self):
        """A planned batch-fold fault keeps the fused launch but replays
        its per-warp streams into the monitors (the columnar → object
        rung) instead of folding the lane grid."""
        values = [bytes(range(16)), bytes(range(16)), bytes(range(1, 17)),
                  bytes(range(2, 18))]
        plan = FaultPlan.parse("batch_fold_error")
        with collecting_degradations() as log:
            with activated(plan):
                replica, stats = replica_signatures(aes_program, values)
        assert replica == serial_signatures(aes_program, values)
        assert log.counts_by_kind().get(COLUMNAR_TO_OBJECT, 0) >= 1
        assert stats.fused_launches == len(values)

    @pytest.mark.parametrize("program, values", [
        (aes_program, [bytes(range(16)), bytes(range(1, 17)),
                       bytes(range(16)), bytes(range(16)),
                       bytes(range(2, 18)), bytes(range(1, 17))]),
        (chained_program(shared_kernel), [3, 8, 3, 3, 8])],
        ids=["aes", "chained"])
    @pytest.mark.parametrize("fault", [
        "batch_fold_error", "replica_violation:launch=0",
        "cohort_violation:launch=0"])
    def test_evidence_fold_merges_uncovered_launches(self, fault, program,
                                                     values, monkeypatch):
        """Replayed or unfused launches have monitor-built graphs, which
        the segment fold merges run by run: the evidence still equals the
        per-run fold's.  Repeats sharing executions leave the evidence and
        degradation log that one execution per member leaves."""
        recorder = TraceRecorder()
        serial = Evidence.from_traces(recorder.record(program, value)
                                      for value in values)

        def fold():
            folded = Evidence()
            with collecting_degradations() as log:
                with activated(FaultPlan.parse(fault)):
                    batch = fold_grouped(program, values, folded)
            return (serialize_evidence(folded), batch.trace_bytes,
                    log.events)

        evidence, trace_bytes, events = fold()
        assert len(events) > 0
        assert trace_bytes == sum(
            recorder.record(program, value).trace_size_bytes()
            for value in values)
        assert evidence == serialize_evidence(serial)
        monkeypatch.setattr(replica, "_executions", lambda group: (
            list(range(len(group))), list(range(len(group)))))
        assert fold() == (evidence, trace_bytes, events)

    @pytest.mark.parametrize("program", [divergent_program, scatter_program],
                             ids=["dense-keys", "sparse-keys"])
    def test_evidence_fold_matches_per_run_fold(self, program):
        values = [1, 2, 2, 3, 5]
        recorder = TraceRecorder()
        traces = [recorder.record(program, value) for value in values]
        folded = Evidence()
        batch = fold_grouped(program, values, folded)
        assert batch.stats.fused_launches == len(values)
        assert batch.trace_bytes == sum(t.trace_size_bytes() for t in traces)
        assert serialize_evidence(folded) == serialize_evidence(
            Evidence.from_traces(traces))


class TestLaneGridFold:
    """Fused launches fold once from the lane grid into every member."""

    @staticmethod
    def record_with_spy(monkeypatch, program, values):
        folds = []
        fold = replica.fold_lane_grid

        def spy(*args, **kwargs):
            graphs = fold(*args, **kwargs)
            folds.append(graphs is not None)
            return graphs

        monkeypatch.setattr(replica, "fold_lane_grid", spy)
        with collecting_degradations() as log:
            groups, stats = record_grouped(program, values)
        assert len(log) == 0
        assert stats.fused_launches == len(values)
        return [trace for trace, _count in groups], folds

    @staticmethod
    def key_orders(trace):
        return [(label, visit, instr, list(record.counts))
                for inv in trace.invocations
                for label, node in sorted(inv.adcfg.nodes.items())
                for visit, instr, record in node.iter_instructions()]

    def test_members_with_different_layouts_match_serial(self, monkeypatch):
        values = [0, 1, 2, 4]
        traces, folds = self.record_with_spy(monkeypatch, padded_program,
                                             values)
        assert folds and all(folds)
        assert [t.signature() for t in traces] == \
            serial_signatures(padded_program, values)

    def test_split_member_keeps_serial_key_order(self, monkeypatch):
        values = [1, 2, 3]
        traces, folds = self.record_with_spy(monkeypatch,
                                             warp_split_program, values)
        assert folds and all(folds)
        recorder = TraceRecorder()
        for trace, value in zip(traces, values):
            serial = recorder.record(warp_split_program, value)
            assert trace.signature() == serial.signature()
            assert self.key_orders(trace) == self.key_orders(serial)

    @pytest.mark.parametrize("program", [swapped_labels_program,
                                         load_or_store_program],
                             ids=["label-ids", "load-and-store-slot"])
    def test_unfoldable_launch_replays_instead(self, monkeypatch, program):
        """Members disagreeing on label ids, or one slot holding a load for
        some members and a store for others: the fold declines and the
        launch's per-warp streams are replayed."""
        values = [1, 2, 3]
        traces, folds = self.record_with_spy(monkeypatch, program, values)
        assert folds and not any(folds)
        assert [t.signature() for t in traces] == \
            serial_signatures(program, values)


# ----------------------------------------------------------------------
# property: randomised toy kernels
# ----------------------------------------------------------------------

toy_spec_st = st.fixed_dictionaries({
    "kernel": st.sampled_from([divergent_kernel, warp_split_kernel]),
    "grid": st.integers(1, 3),
    "block": st.integers(8, 96),
    "values": st.lists(st.integers(0, 9), min_size=2, max_size=4),
    "seed": st.integers(0, 2 ** 16),
    "shuffle": st.booleans(),
})


class TestProperty:
    @settings(max_examples=15, deadline=None)
    @given(spec=toy_spec_st)
    def test_replica_batch_matches_serial(self, spec):
        program = make_program(spec["kernel"], spec["grid"], spec["block"])
        config = DeviceConfig(seed=spec["seed"],
                              shuffle_schedule=spec["shuffle"])
        replica, _stats = replica_signatures(program, spec["values"],
                                             config=config, dedup=True)
        assert replica == serial_signatures(program, spec["values"],
                                            config=config)
