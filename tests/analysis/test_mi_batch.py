"""Vectorized MI batching must agree with the scalar reference tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mi import (
    CORRECTIONS,
    MIEstimationError,
    mi_test,
    mi_test_batch,
)
from repro.core.kstest import DistributionTestError

#: Same agreement bar as the KS batch path: 1e-12 against the scalar.
TOL = 1e-12


def assert_matches_scalar(request, result, correction="miller_madow",
                          confidence=0.95, min_bits=0.0,
                          sample_size_cap=None):
    hist_x, hist_y = request[0], request[1]
    order = request[2] if len(request) == 3 else None
    try:
        want = mi_test(hist_x, hist_y, confidence=confidence, order=order,
                       correction=correction, min_bits=min_bits,
                       sample_size_cap=sample_size_cap)
    except DistributionTestError:
        assert result is None
        return
    assert result is not None
    for attribute in ("statistic", "p_value", "mi_bits", "mi_raw"):
        assert math.isclose(getattr(result, attribute),
                            getattr(want, attribute),
                            rel_tol=TOL, abs_tol=TOL), attribute
    assert result.n == want.n
    assert result.m == want.m
    assert result.dof == want.dof
    assert result.rejected == want.rejected


histograms = st.dictionaries(st.integers(min_value=-50, max_value=50),
                             st.integers(min_value=0, max_value=40),
                             max_size=12)


class TestBatchAgainstScalar:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(histograms, histograms),
                    min_size=1, max_size=8),
           st.sampled_from(CORRECTIONS))
    def test_property_randomized_histograms(self, requests, correction):
        results = mi_test_batch(requests, correction=correction)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert_matches_scalar(request, result, correction=correction)

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(histograms, histograms),
           st.integers(min_value=1, max_value=50))
    def test_property_sample_size_cap(self, request, cap):
        (result,) = mi_test_batch([request], sample_size_cap=cap)
        assert_matches_scalar(request, result, sample_size_cap=cap)

    def test_jackknife_large_sample_agrees(self):
        # at N = 285 the jackknife is a difference of two N-scaled
        # entropies; rounding there must not push the two paths apart
        request = ({0: 3, 8: 15, 10: 1, 11: 17, -2: 34, 3: 27, 1: 27,
                    2: 0, -1: 1, 5: 3},
                   {0: 26, 5: 4, 9: 10, -2: 27, -3: 39, 2: 0, 3: 6,
                    4: 14, 1: 1, 6: 10, 7: 11, -4: 9})
        (result,) = mi_test_batch([request], correction="jackknife")
        assert_matches_scalar(request, result, correction="jackknife")

    def test_mixed_width_padding_is_inert(self):
        # one narrow and one wide request in the same batch: the padded
        # zero cells of the narrow row must not move any estimate
        narrow = ({0: 7, 1: 3}, {0: 2, 1: 8})
        wide = ({v: v + 1 for v in range(9)}, {v: 10 - v for v in range(9)})
        for correction in CORRECTIONS:
            for result, request in zip(
                    mi_test_batch([narrow, wide], correction=correction),
                    (narrow, wide)):
                assert_matches_scalar(request, result,
                                      correction=correction)

    @pytest.mark.parametrize("request_pair", [
        ({0: 19, 1: 33}, {0: 19, 1: 33}),   # identical rows
        ({0: 19, 1: 33}, {0: 38, 1: 66}),   # proportional rows
    ])
    @pytest.mark.parametrize("correction", CORRECTIONS)
    def test_proportional_rows_have_exactly_zero_mi(self, request_pair,
                                                    correction):
        # the entropy sums leave a ~1e-16 residue on these rows, which the
        # χ² tail at one degree of freedom turned into p 0.9999997 in the
        # scalar test while the batch read exactly 0
        (result,) = mi_test_batch([request_pair], correction=correction)
        assert_matches_scalar(request_pair, result, correction=correction)
        scalar = mi_test(*request_pair, correction=correction)
        for outcome in (result, scalar):
            assert outcome.statistic == 0.0
            assert outcome.p_value == 1.0
            if correction == "none":
                assert outcome.mi_bits == 0.0

    def test_explicit_order_respected(self):
        order = {"b": 0, "a": 1, "c": 2}
        request = ({"a": 5, "b": 2}, {"b": 6, "c": 3}, order)
        (result,) = mi_test_batch([request])
        assert_matches_scalar(request, result)


class TestNoneContract:
    def test_degenerate_requests_return_none_in_place(self):
        requests = [
            ({}, {}),                      # empty support
            ({0: 4}, {}),                  # empty side
            ({0: 0, 1: 0}, {0: 3}),        # zero-weight side
            ({0: 4, 1: 2}, {0: 1, 1: 5}),  # healthy
        ]
        results = mi_test_batch(requests)
        assert [result is None for result in results] == \
            [True, True, True, False]

    def test_empty_batch(self):
        assert mi_test_batch([]) == []

    def test_invalid_parameters_raise_eagerly(self):
        with pytest.raises(MIEstimationError):
            mi_test_batch([({0: 1}, {0: 1})], confidence=0.0)
        with pytest.raises(MIEstimationError):
            mi_test_batch([({0: 1}, {0: 1})], correction="bogus")
