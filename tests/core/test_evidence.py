"""Evidence merging (§VII-A) and fixed/random evidence alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adcfg.graph import ADCFG, START_LABEL
from repro.adcfg.merge import merge_adcfg_into
from repro.core.evidence import Evidence, align_evidence
from repro.gpusim import kernel
from repro.store.serialize import serialize_evidence
from repro.tracing import TraceRecorder
from repro.tracing.recorder import KernelInvocation, ProgramTrace


@kernel()
def touch_kernel(k, data):
    k.block("entry")
    k.load(data, k.global_tid())


@kernel()
def extra_kernel(k, data):
    k.block("entry")
    k.load(data, k.global_tid())


def program(rt, secret):
    """Launches touch always; extra only when secret >= 10; nondet only when
    the (input-independent) coin flips true."""
    value, coin = secret
    data = rt.cudaMalloc(32, label="data")
    rt.cudaMemcpyHtoD(data, np.full(32, value))
    rt.cuLaunchKernel(touch_kernel, 1, 32, data)
    if value >= 10:
        rt.cuLaunchKernel(extra_kernel, 1, 32, data)
    if coin:
        rt.cuLaunchKernel(extra_kernel, 1, 32, data)


@pytest.fixture
def record(recorder):
    return lambda value, coin=False: recorder.record(program, (value, coin))


class TestEvidenceMerging:
    def test_identical_runs_merge_into_one_slot_set(self, record):
        evidence = Evidence.from_traces([record(1) for _ in range(5)])
        assert evidence.num_runs == 5
        assert len(evidence.slots) == 1
        slot = evidence.slots[0]
        assert slot.total_count == 5
        assert slot.per_run_present == [True] * 5

    def test_adcfg_counts_accumulate(self, record):
        evidence = Evidence.from_traces([record(1) for _ in range(3)])
        graph = evidence.slots[0].adcfg
        assert graph.nodes["entry"].entries == 3

    def test_unstable_invocation_gets_partial_presence(self, record):
        traces = [record(1, coin=False), record(1, coin=True),
                  record(1, coin=False)]
        evidence = Evidence.from_traces(traces)
        assert len(evidence.slots) == 2
        flaky = evidence.slots[1]
        assert flaky.per_run_present == [False, True, False]

    def test_insertion_before_existing_slots(self, record):
        """A run whose sequence has a new head invocation must insert the
        slot in order, not append it."""
        first = record(1)          # touch only
        second = record(12)        # touch + extra
        evidence = Evidence.from_traces([second, first])
        identities = [slot.kernel_name for slot in evidence.slots]
        assert identities == ["touch_kernel", "extra_kernel"]

    def test_presence_histogram(self, record):
        evidence = Evidence.from_traces(
            [record(1, coin=c) for c in (True, False, True)])
        flaky = evidence.slots[1]
        assert flaky.presence_histogram() == {0: 1, 1: 2}

    def test_slot_by_identity(self, record):
        evidence = Evidence.from_traces([record(12)])
        assert evidence.slot_by_identity(
            evidence.slots[0].identity) is evidence.slots[0]
        assert evidence.slot_by_identity("missing@0") is None

    def test_empty_evidence(self):
        evidence = Evidence()
        assert evidence.num_runs == 0
        assert evidence.slots == []


class TestEvidenceAlignment:
    def test_matching_evidences_align_fully(self, record):
        fixed = Evidence.from_traces([record(1) for _ in range(3)])
        random = Evidence.from_traces([record(2) for _ in range(3)])
        pairs = align_evidence(fixed, random)
        assert len(pairs) == 1
        assert pairs[0].aligned

    def test_one_sided_slots_are_unaligned(self, record):
        fixed = Evidence.from_traces([record(1)])
        random = Evidence.from_traces([record(12)])
        pairs = align_evidence(fixed, random)
        assert [p.aligned for p in pairs] == [True, False]
        unaligned = pairs[1]
        assert unaligned.fixed is None
        assert unaligned.random.kernel_name == "extra_kernel"

    def test_identity_property(self, record):
        fixed = Evidence.from_traces([record(12)])
        random = Evidence.from_traces([record(12)])
        for pair in align_evidence(fixed, random):
            assert pair.identity == pair.fixed.identity


def assert_equivalent(a, b):
    assert a.num_runs == b.num_runs
    assert a.identity_sequence == b.identity_sequence
    for slot_a, slot_b in zip(a.slots, b.slots):
        assert slot_a.per_run_present == slot_b.per_run_present
        assert slot_a.adcfg == slot_b.adcfg
        assert slot_a.per_run_graphs == slot_b.per_run_graphs


class TestAddTraceRepeated:
    """A trace repeated *count* times, folded as one segment, must equal
    count x add_trace — the contract replica deduplication relies on."""

    @pytest.mark.parametrize("keep_per_run", [False, True])
    def test_equals_serial_folds(self, record, keep_per_run):
        trace = record(1)
        batched = Evidence(keep_per_run=keep_per_run)
        batched.add_segment(trace, 4)
        serial = Evidence(keep_per_run=keep_per_run)
        for _ in range(4):
            serial.add_trace(trace)
        assert_equivalent(batched, serial)

    def test_count_one_is_plain_add(self, record):
        trace = record(1)
        batched = Evidence()
        batched.add_segment(trace, 1)
        serial = Evidence.from_traces([trace])
        assert_equivalent(batched, serial)

    def test_after_divergent_prior_runs(self, record):
        """Repetitions folded on top of a wider identity sequence hit the
        DELETE branch (absent slots) and must still match serial."""
        wide, narrow = record(12), record(1)
        batched = Evidence(keep_per_run=True)
        batched.add_trace(wide)
        batched.add_segment(narrow, 3)
        serial = Evidence(keep_per_run=True)
        for trace in [wide, narrow, narrow, narrow]:
            serial.add_trace(trace)
        assert_equivalent(batched, serial)

    def test_repetitions_then_divergent_run(self, record):
        batched = Evidence()
        batched.add_segment(record(1), 3)
        batched.add_trace(record(12))
        serial = Evidence.from_traces(
            [record(1), record(1), record(1), record(12)])
        assert_equivalent(batched, serial)

    def test_invalid_count_rejected(self, record):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="count"):
            Evidence().add_segment(record(1), 0)


# ----------------------------------------------------------------------
# property: a segment folds like its runs one by one
# ----------------------------------------------------------------------

IDENTITIES = ("a@0", "b@0", "c@0")
LABELS = ("x", "y", "z")


@st.composite
def graphs(draw, identity):
    """A small A-DCFG: labels, slots and keys drawn in any order."""
    graph = ADCFG(kernel_identity=identity, kernel_name=identity[0],
                  total_threads=draw(st.integers(32, 64)), num_warps=1)
    for label in draw(st.lists(st.sampled_from(LABELS), max_size=3)):
        node = graph.node(label)
        node.record_entry(draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(0, 2))):
            node.record_access(
                visit=draw(st.integers(0, 1)), instr=draw(st.integers(0, 2)),
                space=draw(st.integers(0, 1)), is_store=draw(st.booleans()),
                keys=draw(st.lists(st.tuples(st.sampled_from("de"),
                                             st.integers(0, 3)),
                                   min_size=1, max_size=4)))
    for _ in range(draw(st.integers(0, 3))):
        graph.edge(draw(st.sampled_from(LABELS)),
                   draw(st.sampled_from(LABELS))).record(
            prev_src=draw(st.sampled_from((START_LABEL, *LABELS))),
            count=draw(st.integers(1, 3)))
    return graph


@st.composite
def traces(draw, sequence):
    return ProgramTrace(
        invocations=[KernelInvocation(identity=identity,
                                      kernel_name=identity[0], seq=seq,
                                      grid=(1, 1, 1), block=(32, 1, 1),
                                      adcfg=draw(graphs(identity)))
                     for seq, identity in enumerate(sequence)],
        malloc_records=[], launch_records=[])


sequence_st = st.lists(st.sampled_from(IDENTITIES), max_size=4)


@st.composite
def segments(draw):
    """Prior runs, then a segment: runs sharing one kernel sequence, each
    standing for *weight* equal runs."""
    prior = [draw(traces(draw(sequence_st)))
             for _ in range(draw(st.integers(0, 3)))]
    sequence = draw(sequence_st)
    runs = [(draw(traces(sequence)), draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(1, 4)))]
    return prior, runs


def dict_orders(evidence):
    return [(list(slot.adcfg.nodes), list(slot.adcfg.edges),
             [list(edge.prev_counts) for edge in slot.adcfg.edges.values()],
             [[list(record.counts) for record in slots]
              for node in slot.adcfg.nodes.values()
              for slots in node.visits])
            for slot in evidence.slots]


class TestSegmentFold:
    """``add_segment`` ≡ ``add_trace`` per run, down to dict order.

    The remaining runs arrive as the replica engine hands them over:
    consecutive runs summed into one graph, or one run's graph scaled by
    its weight.  Prior evidence and repeated identities put DELETE steps
    and repeated-identity pairings into the second alignment.
    """

    @settings(max_examples=200, deadline=None)
    @given(case=segments(), data=st.data())
    def test_segment_equals_per_run_folds(self, case, data):
        prior, runs = case
        serial, segment = Evidence(), Evidence()
        for trace in prior:
            serial.add_trace(trace)
            segment.add_trace(trace)
        for trace, weight in runs:
            for _ in range(weight):
                serial.add_trace(trace)
        first, first_weight = runs[0]
        rest = [(trace, weight) for trace, weight
                in [(first, first_weight - 1), *runs[1:]] if weight]
        # split the remaining runs into consecutive groups: a group of one
        # passes its graph scaled, a longer one one summed graph
        joins = data.draw(st.lists(st.booleans(), min_size=len(rest),
                                   max_size=len(rest)))
        groups = []
        for run, join in zip(rest, joins):
            if join and groups:
                groups[-1].append(run)
            else:
                groups.append([run])
        pairs = []
        for position, invocation in enumerate(first.invocations):
            pairs.append([])
            for group in groups:
                if len(group) == 1:
                    trace, weight = group[0]
                    pairs[-1].append((trace.invocations[position].adcfg,
                                      weight))
                    continue
                total = ADCFG(kernel_identity=invocation.identity,
                              kernel_name=invocation.kernel_name)
                for trace, weight in group:
                    merge_adcfg_into(total,
                                     trace.invocations[position].adcfg,
                                     scale=weight)
                pairs[-1].append((total, 1))
        segment.add_segment(first, sum(weight for _t, weight in runs),
                            pairs)
        assert_equivalent(segment, serial)
        assert serialize_evidence(segment) == serialize_evidence(serial)
        assert dict_orders(segment) == dict_orders(serial)

    def test_summed_rest_refused_by_per_run_evidence(self, record):
        from repro.errors import ConfigError
        trace = record(1)
        with pytest.raises(ConfigError, match="per-run"):
            Evidence(keep_per_run=True).add_segment(
                trace, 2, [[(inv.adcfg, 1)] for inv in trace.invocations])
