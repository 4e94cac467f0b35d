"""Replica batching ≡ serial recording, trace by trace, on every workload.

The report-level matrix (``tests/integration/test_replica_matrix.py``)
shows that batching never changes a verdict.  These tests hold the traces
themselves to the serial reference on all bundled workloads: each fused
launch is folded once from the lane grid into every member's A-DCFG, and
those graphs must carry the serial signatures.  Members with equal
inputs share one execution, also when their repeats sit apart in the
batch, so a member's leader may lie in an earlier segment.  Seeded ASLR
slides every member alike, so members still share; unseeded ASLR gives
every member its own memory layout, so nothing is shared and each
member's addresses must be normalised against its own allocation table.
Phase 3 folds the same launches straight into each side's evidence,
segment by segment; that evidence and its trace accounting must equal
the per-run fold's, which the batch's serial rung records on the cohort
engine (``tests/oracle.py``).
"""

import numpy as np
import pytest

from repro.cli import _workloads
from repro.core.evidence import Evidence
from repro.core.parallel import _record_evidence_chunk
from repro.gpusim import DeviceConfig
from repro.resilience.events import collecting_degradations
from repro.store.serialize import serialize_evidence
from repro.tracing import replica
from repro.tracing.recorder import TraceRecorder
from tests.oracle import serial_rung

WORKLOADS = sorted(_workloads())

#: device configs: members share executions on the first two only
CONFIGS = {"default": None,
           "seeded-aslr": DeviceConfig(aslr=True, seed=5),
           "unseeded-aslr": DeviceConfig(aslr=True)}

#: programs drawing per-run randomness on the host: equal inputs send
#: different bytes to the device, so no launch is shared
HOST_RANDOM = {"torch-dropout"}


def batch_values(workload, batch="adjacent"):
    """``[fixed, fixed, r1, r2]``: a repeated input plus two random ones;
    ``interleaved`` puts the repeats apart, ``[fixed, r1, fixed, fixed,
    r2, r1]``."""
    _program, fixed_inputs, random_input = _workloads()[workload]
    fixed = fixed_inputs()[0]
    rng = np.random.default_rng(17)
    r1, r2 = random_input(rng), random_input(rng)
    if batch == "adjacent":
        return [fixed, fixed, r1, r2]
    return [fixed, r1, fixed, fixed, r2, r1]


def shares_nothing(workload, config):
    return config == "unseeded-aslr" or workload in HOST_RANDOM


def grouped_signatures(monkeypatch, program, values, config=None):
    """Signatures of one replica batch, and its stats, which must fold
    every fused launch from the lane grid: no launch declined to replay,
    and no fallback to serial re-recording (that would hide a broken
    fold)."""
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
            for _ in range(count)], stats


@pytest.fixture(scope="module")
def serial():
    """Serial no-ASLR signatures per workload and batch, recorded once."""
    recorder = TraceRecorder()
    cache = {}

    def signatures(workload, batch):
        if (workload, batch) not in cache:
            program = _workloads()[workload][0]
            cache[workload, batch] = [
                recorder.record(program, value).signature()
                for value in batch_values(workload, batch)]
        return cache[workload, batch]
    return signatures


@pytest.fixture(scope="module")
def default_reuse():
    """Launches each batch reuses on the default device, recorded once."""
    cache = {}

    def reused(workload, batch):
        if (workload, batch) not in cache:
            program = _workloads()[workload][0]
            _groups, stats = replica.record_grouped(
                program, batch_values(workload, batch))
            cache[workload, batch] = stats.reused_launches
        return cache[workload, batch]
    return reused


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("batch", ["adjacent", "interleaved"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_grouped_traces_match_serial(workload, batch, config, serial,
                                     default_reuse, monkeypatch):
    program = _workloads()[workload][0]
    signatures, stats = grouped_signatures(
        monkeypatch, program, batch_values(workload, batch),
        CONFIGS[config])
    assert signatures == serial(workload, batch)
    if shares_nothing(workload, config):
        assert stats.reused_launches == 0
    elif config == "seeded-aslr":
        # one slide for every member: they share as on the default device
        assert stats.reused_launches == default_reuse(workload, batch)


# ----------------------------------------------------------------------
# phase 3: replica batches folded straight into evidence
# ----------------------------------------------------------------------

def evidence_sides(workload):
    """A fixed side of 6 equal inputs, a random side of 6 inputs, and a
    mixed side whose repeats sit apart: ``[fixed, r1, fixed, fixed, r2,
    r1]``."""
    _program, fixed_inputs, random_input = _workloads()[workload]
    rng = np.random.default_rng(23)
    fixed = fixed_inputs()[0]
    random = [random_input(rng) for _ in range(6)]
    return {"fixed": [fixed] * 6, "random": random,
            "mixed": [fixed, random[0], fixed, fixed, random[1], random[0]]}


def folded_side(program, values, config):
    """Evidence bytes, run count and trace bytes of one recorded side,
    and its replica stats."""
    evidence, stats = _record_evidence_chunk(
        program, config, values, keep_per_run=False, cohort=True)
    return ((serialize_evidence(evidence), stats.trace_count,
             stats.trace_bytes_total), stats)


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


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_segment_fold_matches_per_run_fold(workload, config, per_run,
                                           monkeypatch):
    """Every fused launch folds from the lane grid (none declines, no
    batch is re-recorded serially), so the evidence below comes from the
    segment fold, not from a per-run fallback."""
    program = _workloads()[workload][0]
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
            folded, stats = folded_side(program, values, CONFIGS[config])
        assert len(log) == 0
        assert all(folds) and (folds or not stats.replica_fused_launches)
        assert folded == per_run(workload)[side], side
        if shares_nothing(workload, config):
            assert stats.replica_reused_launches == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fixed_side_shares_one_execution(workload):
    """A ``[fixed] * 4`` batch runs each fused launch once: the three
    repeats reuse it (a host-random program's repeats reuse nothing),
    and the evidence still equals the per-run fold's."""
    program = _workloads()[workload][0]
    fixed = evidence_sides(workload)["fixed"][0]
    evidence = Evidence()
    stats = replica.fold_grouped(program, [fixed] * 4, evidence).stats
    reused = 0 if workload in HOST_RANDOM else 3 * stats.fused_launches // 4
    assert stats.reused_launches == reused
    with serial_rung():
        serial = Evidence()
        replica.fold_grouped(program, [fixed] * 4, serial)
    assert serialize_evidence(evidence) == serialize_evidence(serial)
