"""The mutual-information detector over aligned evidence.

:class:`MIAnalyzer` subclasses the KS detector and overrides only the
detector hooks: the batched pass becomes
:func:`~repro.analysis.mi.batch.mi_test_batch` (G-test significance,
bias-corrected bits), and flagged leaks carry ``mi_bits``.  Every MI
analysis batches; the scalar
:func:`~repro.analysis.mi.estimator.mi_test` stays public as the batched
pass's oracle.  The evidence traversal — Myers alignment, the single fold
over kernel/control-flow/data-flow features, emission order — is
inherited unchanged, which is what lets ``analyzer="both"`` replay one
recorded fold under both detectors.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.mi.batch import mi_test_batch
from repro.core.kstest import TestResult
from repro.core.leakage import LeakageAnalyzer


class MIAnalyzer(LeakageAnalyzer):
    """Mutual-information leakage analysis (``OwlConfig(analyzer="mi")``).

    A definite finding (a feature present on one side only) is a perfect
    binary distinguisher of the input class, so it reports the full
    ``mi_bits=1.0`` — consistent with the 1-bit ceiling of ``I(S; V)``
    for a binary side variable.
    """

    mode = "mi"
    batch_phase = "analysis_mi"

    def _defer(self) -> bool:
        # MI ignores the `test` knob (it replaces the distribution test
        # outright), so it always batches
        return True

    # ------------------------------------------------------------------
    # detector hooks
    # ------------------------------------------------------------------

    def _definite_fields(self) -> Dict[str, float]:
        fields = super()._definite_fields()
        fields["mi_bits"] = 1.0
        return fields

    def _flagged_fields(self, result: TestResult, hist_fixed: Dict,
                        hist_random: Dict) -> Dict[str, float]:
        fields = super()._flagged_fields(result, hist_fixed, hist_random)
        fields["mi_bits"] = getattr(result, "mi_bits", 0.0)
        return fields

    def _batch_test(self, requests: List) -> list:
        return mi_test_batch(requests,
                             confidence=self.config.confidence,
                             correction=self.config.mi_bias_correction,
                             min_bits=self.config.mi_min_bits,
                             sample_size_cap=self.config.sample_size_cap)
