"""Closed-form and statistical properties of the MI estimator stack."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mi import (
    CORRECTIONS,
    MIEstimationError,
    chi2_sf,
    entropy_bits,
    mi_test,
    mutual_information,
)

#: χ² 0.95 quantiles (k: quantile), so chi2_sf(quantile, k) == 0.05.
CHI2_95 = {
    1: 3.841458820694124,
    2: 5.991464547107979,
    5: 11.070497693516351,
    10: 18.307038053275146,
}


class TestChi2Sf:
    def test_known_quantiles(self):
        for k, quantile in CHI2_95.items():
            assert chi2_sf(quantile, k) == pytest.approx(0.05, abs=1e-10)

    def test_k2_closed_form(self):
        # χ²(2) is Exp(1/2): P(X > x) = exp(-x/2) exactly
        for x in (0.1, 1.0, 4.0, 25.0, 80.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0),
                                                  rel=1e-12)

    def test_boundaries_and_monotonicity(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0
        values = [chi2_sf(x, 4) for x in np.linspace(0.01, 60, 200)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-10

    def test_invalid_dof(self):
        with pytest.raises(MIEstimationError):
            chi2_sf(1.0, 0)


class TestClosedForms:
    def test_independent_table_zero_mi(self):
        # uniform joint = exact independence: plug-in MI is exactly 0
        assert mutual_information([[10, 10], [10, 10]], "none") == 0.0
        assert mutual_information([[6, 12], [2, 4]], "none") \
            == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_copy_log2_k(self):
        for k in (2, 4, 8):
            table = np.diag(np.full(k, 5.0))
            assert mutual_information(table, "none") \
                == pytest.approx(math.log2(k), rel=1e-12)

    def test_entropy_closed_forms(self):
        assert entropy_bits([8, 8], "none") == pytest.approx(1.0)
        assert entropy_bits([4, 4, 4, 4], "none") == pytest.approx(2.0)
        assert entropy_bits([16], "none") == pytest.approx(0.0)

    def test_jackknife_matches_leave_one_out_resampling(self):
        # the closed form must equal the literal jackknife: recompute the
        # plug-in entropy with each single observation left out
        for counts in ([3, 15, 1, 17, 34, 27, 27, 0, 1, 3], [5, 5],
                       [1, 1, 1], [40, 2], [7]):
            total = sum(counts)
            leave_one_out = 0.0
            for k, count in enumerate(counts):
                if count:
                    reduced = list(counts)
                    reduced[k] -= 1
                    leave_one_out += count * entropy_bits(reduced, "none")
            want = (total * entropy_bits(counts, "none")
                    - (total - 1) / total * leave_one_out)
            assert entropy_bits(counts, "jackknife") \
                == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert entropy_bits([1], "jackknife") == 0.0

    def test_degenerate_inputs_raise(self):
        with pytest.raises(MIEstimationError):
            entropy_bits([0, 0])
        with pytest.raises(MIEstimationError):
            mutual_information(np.zeros((2, 2)))
        with pytest.raises(MIEstimationError):
            mutual_information(np.zeros(4))  # not 2-D
        with pytest.raises(MIEstimationError):
            mutual_information([[1, 2], [3, 4]], "bogus")


class TestBiasCorrectionConvergence:
    """Corrections must beat the plug-in under subsampling and converge."""

    @staticmethod
    def _errors(n, trials=150, seed=7):
        # independent side/value: true MI is exactly 0, so the estimate
        # itself is the error
        rng = np.random.default_rng(seed)
        errors = {correction: [] for correction in CORRECTIONS}
        for _ in range(trials):
            joint = np.zeros((2, 4))
            for side, value in zip(rng.integers(0, 2, n),
                                   rng.integers(0, 4, n)):
                joint[side, value] += 1
            if (joint.sum(axis=1) == 0).any():
                continue
            for correction in CORRECTIONS:
                errors[correction].append(
                    abs(mutual_information(joint, correction)))
        return {correction: float(np.mean(values))
                for correction, values in errors.items()}

    def test_corrections_reduce_small_sample_bias(self):
        for n in (24, 48, 96):
            errors = self._errors(n)
            for correction in ("miller_madow", "jackknife", "shrinkage"):
                assert errors[correction] < errors["none"], (
                    f"{correction} at n={n}: {errors[correction]} not "
                    f"below plug-in {errors['none']}")

    def test_plugin_bias_vanishes_with_sample_size(self):
        coarse = self._errors(24)["none"]
        fine = self._errors(192)["none"]
        assert fine < coarse / 2


histograms = st.dictionaries(st.integers(min_value=-30, max_value=30),
                             st.integers(min_value=0, max_value=25),
                             min_size=1, max_size=10)


def _nonempty(hist):
    return sum(hist.values()) > 0


class TestPermutationInvariance:
    @settings(max_examples=80, deadline=None)
    @given(histograms, histograms, st.randoms(use_true_random=False))
    def test_mi_invariant_under_value_relabeling(self, hist_x, hist_y,
                                                 rand):
        """MI measures information, not geometry: permuting the value
        labels (which reorders the joint table's columns) must not move
        the estimate.  The KS statistic has no such invariance."""
        if not (_nonempty(hist_x) and _nonempty(hist_y)):
            return
        support = sorted(set(hist_x) | set(hist_y))
        shuffled = list(support)
        rand.shuffle(shuffled)
        relabel = dict(zip(support, shuffled))
        permuted_x = {relabel[value]: count
                      for value, count in hist_x.items()}
        permuted_y = {relabel[value]: count
                      for value, count in hist_y.items()}
        for correction in CORRECTIONS:
            base = mi_test(hist_x, hist_y, correction=correction)
            moved = mi_test(permuted_x, permuted_y, correction=correction)
            assert moved.statistic == pytest.approx(base.statistic,
                                                    abs=1e-12)
            assert moved.mi_bits == pytest.approx(base.mi_bits, abs=1e-12)
            # chi2_sf(G) has an infinite-slope sqrt singularity at G=0:
            # float-level reordering noise in the statistic (<=1e-12)
            # legitimately moves p by up to ~sqrt(1e-12) near p=1
            assert moved.p_value == pytest.approx(base.p_value, abs=1e-5)


class TestMITest:
    def test_perfect_binary_distinguisher(self):
        result = mi_test({0: 20}, {1: 20}, correction="none")
        assert result.mi_bits == pytest.approx(1.0)
        assert result.p_value < 1e-6
        assert result.rejected

    def test_identical_histograms_not_flagged(self):
        result = mi_test({0: 10, 1: 10}, {0: 10, 1: 10})
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)
        assert not result.rejected

    def test_min_bits_floor_vetoes_significant_but_tiny_mi(self):
        # large samples make a tiny imbalance significant; the floor
        # keeps it out of the report
        hist_x = {0: 5000, 1: 4300}
        hist_y = {0: 4300, 1: 5000}
        flagged = mi_test(hist_x, hist_y, min_bits=0.0)
        assert flagged.rejected
        floored = mi_test(hist_x, hist_y, min_bits=0.2)
        assert floored.p_value == flagged.p_value
        assert not floored.rejected

    def test_mi_bits_clamped_to_one_bit_ceiling(self):
        # binary side variable: I(S; V) <= H(S) <= 1 bit, whatever the
        # value-alphabet size suggests
        result = mi_test({0: 9, 1: 9, 2: 9}, {3: 9, 4: 9, 5: 9},
                         correction="none")
        assert result.mi_bits <= 1.0

    def test_sample_size_cap_changes_significance_not_estimate(self):
        hist_x = {0: 3000, 1: 100}
        hist_y = {0: 100, 1: 3000}
        full = mi_test(hist_x, hist_y)
        capped = mi_test(hist_x, hist_y, sample_size_cap=16)
        assert capped.statistic == full.statistic
        assert capped.mi_bits == full.mi_bits
        assert capped.n == 16 and capped.m == 16
        assert capped.p_value > full.p_value

    def test_degenerate_sides_raise(self):
        with pytest.raises(MIEstimationError):
            mi_test({}, {0: 4})
        with pytest.raises(MIEstimationError):
            mi_test({0: 0}, {0: 4})
        with pytest.raises(MIEstimationError):
            mi_test({0: 4}, {1: 4}, confidence=1.5)
