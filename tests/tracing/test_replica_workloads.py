"""Replica batching ≡ serial recording, trace by trace, on every workload.

The report-level matrix (``tests/integration/test_replica_matrix.py``)
shows that batching never changes a verdict.  These tests hold the traces
themselves to the serial reference on all bundled workloads: each fused
launch is folded once from the lane grid into every member's A-DCFG, and
those graphs must carry the serial signatures.  The unseeded-ASLR case
gives every member its own memory layout, so each member's addresses must
be normalised against its own allocation table.  Phase 3 folds the same
launches straight into each side's evidence, segment by segment; that
evidence and its trace accounting must equal the per-run fold's, which
the batch's serial rung records on the cohort engine
(``tests/oracle.py``).
"""

import numpy as np
import pytest

from repro.cli import _workloads
from repro.core.parallel import _record_evidence_chunk
from repro.gpusim import DeviceConfig
from repro.resilience.events import collecting_degradations
from repro.store.serialize import serialize_evidence
from repro.tracing import replica
from repro.tracing.recorder import TraceRecorder
from tests.oracle import serial_rung

WORKLOADS = sorted(_workloads())


def batch_values(workload):
    """``[fixed, fixed, r1, r2]``: a repeated input plus two random ones."""
    _program, fixed_inputs, random_input = _workloads()[workload]
    fixed = fixed_inputs()[0]
    rng = np.random.default_rng(17)
    return [fixed, fixed, random_input(rng), random_input(rng)]


def grouped_signatures(monkeypatch, program, values, config=None):
    """Signatures of one replica batch, which must fold every fused
    launch from the lane grid: no launch declined to replay, and no
    fallback to serial re-recording (that would hide a broken fold)."""
    folds = []
    fold = replica.fold_lane_grid

    def spy(*args, **kwargs):
        graphs = fold(*args, **kwargs)
        folds.append(graphs is not None)
        return graphs

    monkeypatch.setattr(replica, "fold_lane_grid", spy)
    with collecting_degradations() as log:
        groups, stats = replica.record_grouped(program, values,
                                               device_config=config)
    assert len(log) == 0
    assert stats.fused_launches > 0 and folds and all(folds)
    return [trace.signature() for trace, count in groups
            for _ in range(count)]


@pytest.fixture(scope="module")
def serial():
    """Serial no-ASLR signatures per workload, recorded once."""
    recorder = TraceRecorder()
    cache = {}

    def signatures(workload):
        if workload not in cache:
            program = _workloads()[workload][0]
            cache[workload] = [recorder.record(program, value).signature()
                               for value in batch_values(workload)]
        return cache[workload]
    return signatures


@pytest.mark.parametrize("workload", WORKLOADS)
def test_grouped_traces_match_serial(workload, serial, monkeypatch):
    program = _workloads()[workload][0]
    assert grouped_signatures(monkeypatch, program,
                              batch_values(workload)) == serial(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unseeded_aslr_members_normalise_to_serial(workload, serial,
                                                   monkeypatch):
    program = _workloads()[workload][0]
    config = DeviceConfig(aslr=True)
    assert grouped_signatures(monkeypatch, program, batch_values(workload),
                              config) == serial(workload)


# ----------------------------------------------------------------------
# phase 3: replica batches folded straight into evidence
# ----------------------------------------------------------------------

def evidence_sides(workload):
    """A fixed side of 6 equal inputs and a random side of 6 inputs."""
    _program, fixed_inputs, random_input = _workloads()[workload]
    rng = np.random.default_rng(23)
    return {"fixed": [fixed_inputs()[0]] * 6,
            "random": [random_input(rng) for _ in range(6)]}


def folded_side(program, values, config):
    """Evidence bytes, run count and trace bytes of one recorded side,
    and its fused launch count."""
    evidence, stats = _record_evidence_chunk(
        program, config, values, keep_per_run=False, cohort=True)
    return ((serialize_evidence(evidence), stats.trace_count,
             stats.trace_bytes_total), stats.replica_fused_launches)


@pytest.fixture(scope="module")
def per_run():
    """Per-run folds (the serial rung) per workload, recorded once."""
    cache = {}

    def sides(workload):
        if workload not in cache:
            program = _workloads()[workload][0]
            with serial_rung():
                cache[workload] = {
                    side: folded_side(program, values, None)[0]
                    for side, values in evidence_sides(workload).items()}
        return cache[workload]
    return sides


@pytest.mark.parametrize("aslr", [False, True], ids=["default", "aslr"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_segment_fold_matches_per_run_fold(workload, aslr, per_run,
                                           monkeypatch):
    """Every fused launch folds from the lane grid (none declines, no
    batch is re-recorded serially), so the evidence below comes from the
    segment fold, not from a per-run fallback."""
    program = _workloads()[workload][0]
    config = DeviceConfig(aslr=True) if aslr else None
    folds = []
    fold = replica.fold_lane_grid

    def spy(*args, **kwargs):
        result = fold(*args, **kwargs)
        folds.append(result is not None)
        return result

    monkeypatch.setattr(replica, "fold_lane_grid", spy)
    for side, values in evidence_sides(workload).items():
        folds.clear()
        with collecting_degradations() as log:
            folded, fused = folded_side(program, values, config)
        assert len(log) == 0
        assert all(folds) and (folds or not fused)
        assert folded == per_run(workload)[side], side
