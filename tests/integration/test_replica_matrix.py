"""Detection verdicts with replica-cohort batching, across the matrix.

Replica batching (DESIGN.md §12) fuses the fixed/random repetitions of a
launch into extra rows of the cohort lane grid and, with ``replica_dedup``,
collapses equal-input repetitions to one recording.  Both are pure
recording optimisations: every report must be byte-identical to the
serial per-run reference across all bundled workloads — the replica
batches' serial rung on the cohort engine (``tests/oracle.py``), and the
whole reference recorder (``cohort=False``) — and the knobs must compose
with the per-event memory fold and the parallel recording pool.  Because
replayed traces are byte-identical, the store fingerprints must not
depend on either knob.
"""

import pytest

from repro.cli import _workloads
from repro.core.pipeline import Owl, OwlConfig
from repro.gpusim.device import DeviceConfig
from repro.store.fingerprint import (
    analysis_fingerprint,
    evidence_fingerprint,
    trace_fingerprint,
)
from tests.oracle import serial_rung

TINY = dict(fixed_runs=4, random_runs=4, seed=11, always_analyze=True)

#: workloads whose programs draw no per-run randomness of their own, so
#: equal-input deduplication is sound for them (the documented envelope)
DEDUP_SAFE = ["aes", "rsa", "dummy"]


def run_detection(workload, **overrides):
    program, fixed_inputs, random_input = _workloads()[workload]
    config = OwlConfig(**{**TINY, **overrides})
    owl = Owl(program, name=workload, config=config)
    result = owl.detect(inputs=fixed_inputs(), random_input=random_input)
    return result.report.to_json()


class TestAllWorkloads:
    """Every bundled workload, byte-identical — the tentpole's contract."""

    @pytest.mark.parametrize("workload", sorted(_workloads()))
    def test_replica_batching_matches_serial(self, workload):
        with serial_rung():
            reference = run_detection(workload)
        report = run_detection(workload)
        assert report == reference, (
            f"{workload}: replica batching diverged from serial runs")


class TestEngineMatrix:
    """Replica batching composes with every other recording engine knob."""

    @pytest.mark.parametrize("workload", ["dummy", "rsa", "aes"])
    def test_replica_matrix_matches_reference(self, workload):
        reference = run_detection(workload, cohort=False,
                                  fault_plan="batch_fold_error", workers=1)
        for cohort in (False, True):
            for plan in ("batch_fold_error", None):
                for workers in (1, 2):
                    report = run_detection(
                        workload, cohort=cohort, fault_plan=plan,
                        workers=workers)
                    assert report == reference, (
                        f"{workload}: replica(cohort={cohort}, "
                        f"fault_plan={plan}, workers={workers}) "
                        "diverged from reference")

    @pytest.mark.parametrize("workload", DEDUP_SAFE)
    def test_dedup_matches_reference_on_pure_workloads(self, workload):
        with serial_rung():
            reference = run_detection(workload)
        for workers in (1, 2):
            report = run_detection(workload, replica_dedup=True,
                                   workers=workers)
            assert report == reference, (
                f"{workload}: replica dedup (workers={workers}) "
                "diverged from reference")


class TestFingerprintInvariance:
    """Byte-identical traces mean the store must not re-record or
    re-analyze when only the replica knobs change."""

    @pytest.mark.parametrize("overrides", [
        dict(cohort=False),
        dict(replica_dedup=True),
        dict(cohort=False, replica_dedup=True),
    ])
    def test_all_fingerprints_unchanged(self, overrides):
        device = DeviceConfig()
        reference = OwlConfig()
        config = OwlConfig(**overrides)
        assert trace_fingerprint(config, device) == \
            trace_fingerprint(reference, device)
        for side in ("fixed", "random"):
            assert evidence_fingerprint(config, device, side=side) == \
                evidence_fingerprint(reference, device, side=side)
        assert analysis_fingerprint(config, device) == \
            analysis_fingerprint(reference, device)
