"""The A-DCFG codec against its per-element reference on every bundled
workload's real graphs, and the signature a loaded trace carries."""

from unittest import mock

import pytest

from repro.cli import _workloads
from repro.core.pipeline import Owl, OwlConfig, side_inputs
from repro.store.serialize import (
    deserialize_evidence,
    deserialize_trace,
    serialize_evidence,
    serialize_trace,
)
from tests.oracle import assert_matches_reference

RUNS = dict(fixed_runs=8, random_runs=8, seed=5)


def recorded(workload):
    """The workload's fresh phase-1 traces and its 8+8 fresh evidence."""
    program, fixed_inputs, random_input = _workloads()[workload]
    config = OwlConfig(**RUNS)
    owl = Owl(program, name=workload, config=config)
    inputs = fixed_inputs()
    traces, _stats = owl.pool.record_traces(inputs)
    sides = [owl.pool.record_evidence(
        side_inputs(config, side, inputs[0], random_input))[0]
        for side in ("fixed", "random")]
    return traces, sides


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_codec_matches_reference_on_workload(workload):
    traces, sides = recorded(workload)
    graphs = [inv.adcfg for trace in traces for inv in trace.invocations]
    graphs += [slot.adcfg for evidence in sides for slot in evidence.slots]
    assert graphs
    for graph in graphs:
        assert_matches_reference(graph)
    # the store's form of each artefact: decoded graphs keep payload order
    for trace in traces:
        payload = serialize_trace(trace)
        assert serialize_trace(deserialize_trace(payload)) == payload
    for evidence in sides:
        payload = serialize_evidence(evidence)
        loaded = deserialize_evidence(payload)
        assert serialize_evidence(loaded) == payload
        for slot in loaded.slots:
            assert_matches_reference(slot.adcfg)


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_loaded_trace_carries_recorded_signature(workload):
    traces, _sides = recorded(workload)
    for trace in traces:
        loaded = deserialize_trace(serialize_trace(trace))
        # the loader hashes the bytes it read: no A-DCFG is re-encoded
        with mock.patch("repro.tracing.recorder.serialize_adcfg",
                        side_effect=AssertionError("re-encoded")):
            assert loaded.signature() == trace.signature()
