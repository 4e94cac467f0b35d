"""Detection verdicts across the full recording-engine matrix.

The cohort engine composes with the batched memory fold and the parallel
recording pool; every combination must produce the exact report of the
serial per-warp engine folding memory per event (``batch_fold_error``
routes every batch through the per-event fold), because all three are
pure recording optimisations with byte-identical traces.
"""

import pytest

from repro.cli import _workloads
from repro.core.pipeline import Owl, OwlConfig

TINY = dict(fixed_runs=4, random_runs=4, seed=11, always_analyze=True)

#: fold every memory batch per event
PER_EVENT = "batch_fold_error"


def run_detection(workload, **overrides):
    program, fixed_inputs, random_input = _workloads()[workload]
    config = OwlConfig(**{**TINY, **overrides})
    owl = Owl(program, name=workload, config=config)
    result = owl.detect(inputs=fixed_inputs(), random_input=random_input)
    return result.report.to_json()


class TestEngineMatrix:
    @pytest.mark.parametrize("workload", ["dummy", "rsa", "aes"])
    def test_cohort_matrix_matches_reference(self, workload):
        reference = run_detection(workload, cohort=False,
                                  fault_plan=PER_EVENT, workers=1)
        for plan in (PER_EVENT, None):
            for workers in (1, 2):
                report = run_detection(workload, cohort=True,
                                       fault_plan=plan, workers=workers)
                assert report == reference, (
                    f"{workload}: cohort(fault_plan={plan}, "
                    f"workers={workers}) diverged from reference")

    @pytest.mark.parametrize("workload", ["dummy", "rsa"])
    def test_no_cohort_parallel_columnar_unchanged(self, workload):
        """The satellite paths still agree with cohort disabled."""
        reference = run_detection(workload, cohort=False,
                                  fault_plan=PER_EVENT, workers=1)
        report = run_detection(workload, cohort=False, workers=2)
        assert report == reference
