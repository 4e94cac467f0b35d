"""Mutual-information leakage estimation (MicroWalk-style).

Where the KS detector asks whether the fixed-input and random-input sides
of a feature follow the same distribution, the MI detector treats the side
as a binary random variable ``S`` (fixed vs random input class) and the
feature value as ``V``, and estimates ``I(S; V)`` — how many bits an
attacker observing the feature learns about the input class.  The two
weighted histograms of a feature *are* the rows of the 2×C joint
contingency table, so the estimate rides the exact evidence structures the
KS test already consumes.

Entropy plug-in estimates are biased low (and MI biased high) at finite
sample sizes, so bias corrections are provided:

* ``"miller_madow"`` — the classic first-order count correction
  ``H_MM = H_ML + (K - 1) / (2 N ln 2)`` applied to each entropy term;
* ``"jackknife"`` — leave-one-out resampling of each entropy term,
  computed in closed form over the count vector (no O(N) loop);
* ``"shrinkage"`` — James–Stein shrinkage of the joint cell probabilities
  toward the uniform distribution with the analytic optimal intensity;
* ``"none"`` — the raw maximum-likelihood (plug-in) estimate.

Significance uses the G-test: under independence the statistic
``G = 2 N ln(2) · I_ML(S; V)`` is asymptotically χ² distributed with
``(R - 1)(C - 1)`` degrees of freedom, giving the same
``p < 1 - confidence`` decision rule as the KS detector.  The χ² survival
function is implemented with the regularized incomplete gamma function
(series + continued fraction), keeping the stats stack dependency-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional

import numpy as np

from repro.core.kstest import (
    DEFAULT_CONFIDENCE,
    DistributionTestError,
    Histogram,
    TestResult,
    _ordered_weights,
)

#: Accepted entropy bias corrections, in the order documented above.
CORRECTIONS = ("none", "miller_madow", "jackknife", "shrinkage")

_LN2 = math.log(2.0)


class MIEstimationError(DistributionTestError):
    """Raised on degenerate inputs (empty sides, empty support)."""


@dataclass(frozen=True)
class MIResult(TestResult):
    """Outcome of one mutual-information test.

    Extends :class:`~repro.core.kstest.TestResult` so the shared evidence
    traversal can treat both detectors' results uniformly: ``statistic``
    is the raw plug-in MI estimate in bits, ``p_value`` comes from the
    G-test, and ``rejected`` additionally requires the bias-corrected
    estimate to clear ``min_bits``.
    """

    #: bias-corrected MI estimate, clamped to [0, log2(min sides/values)]
    mi_bits: float = 0.0
    #: raw plug-in MI estimate (equal to ``statistic``)
    mi_raw: float = 0.0
    #: G-test degrees of freedom, ``(R - 1)(C - 1)`` over nonzero rows/cols
    dof: int = 0
    #: minimum corrected bits required to flag (0 disables the floor)
    min_bits: float = 0.0

    @property
    def rejected(self) -> bool:
        return (self.p_value < (1.0 - self.confidence)
                and self.mi_bits >= self.min_bits)


# ----------------------------------------------------------------------
# χ² survival function (regularized upper incomplete gamma)
# ----------------------------------------------------------------------

_GAMMA_ITERATIONS = 500
_GAMMA_EPS = 1e-15
_GAMMA_TINY = 1e-300


def chi2_sf(x: float, k: float) -> float:
    """``P(X > x)`` for ``X ~ χ²(k)``, i.e. ``Q(k/2, x/2)``.

    Series expansion of the lower regularized gamma below the ``s + 1``
    crossover, modified Lentz continued fraction for the upper tail above
    it — the textbook split that converges over the whole domain.
    """
    if k <= 0:
        raise MIEstimationError(f"chi2_sf needs k > 0, got {k}")
    if x <= 0.0:
        return 1.0
    s = 0.5 * k
    z = 0.5 * x
    log_prefactor = -z + s * math.log(z) - math.lgamma(s)
    if z < s + 1.0:
        # lower regularized gamma P(s, z) by series, return 1 - P
        term = 1.0 / s
        total = term
        a = s
        for _ in range(_GAMMA_ITERATIONS):
            a += 1.0
            term *= z / a
            total += term
            if abs(term) < abs(total) * _GAMMA_EPS:
                break
        p = total * math.exp(log_prefactor)
        return min(1.0, max(0.0, 1.0 - p))
    # upper regularized gamma Q(s, z) by continued fraction
    b = z + 1.0 - s
    c = 1.0 / _GAMMA_TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _GAMMA_TINY
    h = d
    for i in range(1, _GAMMA_ITERATIONS):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _GAMMA_TINY:
            d = _GAMMA_TINY
        c = b + an / c
        if abs(c) < _GAMMA_TINY:
            c = _GAMMA_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    q = math.exp(log_prefactor) * h
    return min(1.0, max(0.0, q))


# ----------------------------------------------------------------------
# entropy estimators over count vectors
# ----------------------------------------------------------------------

def _xlog2x_sum(counts: np.ndarray) -> float:
    """``sum n_k log2 n_k`` over the nonzero cells."""
    positive = counts[counts > 0]
    return float((positive * np.log2(positive)).sum())


def _xlog2x_step(values) -> np.ndarray:
    """Elementwise ``x log2 x - (x-1) log2 (x-1)``, taking ``0 log2 0 = 0``.

    For ``x > 1`` it is evaluated as ``log2 x + (x-1) log2(1 + 1/(x-1))``,
    which keeps full relative precision; the literal difference loses the
    digits of two terms ``x`` times larger.  Cells in ``(0, 1]`` have no
    ``(x-1)`` term, and cells ``<= 0`` (batch padding) give 0.
    """
    values = np.asarray(values, dtype=float)
    above_one = values > 1
    safe = np.where(values > 0, values, 1.0)
    below = np.where(above_one, safe - 1.0, 1.0)
    step = np.log2(safe) + below * np.log1p(1.0 / below) / _LN2
    return np.where(above_one, step,
                    np.where(values > 0, safe * np.log2(safe), 0.0))


def entropy_bits(counts: np.ndarray, correction: str = "none") -> float:
    """Entropy (bits) of a count vector under the chosen bias correction.

    ``H_ML = log2 N - (1/N) sum n_k log2 n_k`` with the Miller–Madow or
    closed-form jackknife adjustment on top; shrinkage does not decompose
    per entropy term and is handled in :func:`mutual_information`.
    """
    counts = np.asarray(counts, dtype=float)
    total = float(counts.sum())
    if total <= 0:
        raise MIEstimationError("entropy of an empty count vector")
    h_ml = math.log2(total) - _xlog2x_sum(counts) / total
    if correction == "none" or correction == "shrinkage":
        return h_ml
    if correction == "miller_madow":
        support = int((counts > 0).sum())
        return h_ml + (support - 1) / (2.0 * total * _LN2)
    if correction == "jackknife":
        return _jackknife_entropy(counts, total, h_ml)
    raise MIEstimationError(
        f"unknown MI bias correction {correction!r}; "
        f"valid choices: {', '.join(repr(c) for c in CORRECTIONS)}")


def _jackknife_entropy(counts: np.ndarray, total: float,
                       h_ml: float) -> float:
    """Closed-form leave-one-out jackknife of the plug-in entropy.

    Removing one observation from cell ``k`` yields the entropy ``H_k`` of
    the count vector with ``n_k - 1`` at total ``N - 1``; the jackknife
    estimate is ``N·H_ML - (N-1)/N · sum n_k H_k``.  Each ``H_k`` differs
    from the full-sample sum in one term only, and that sum cancels out of
    the estimate, leaving ``g(N) - (1/N) sum n_k g(n_k)`` with
    ``g(x) = x log2 x - (x-1) log2 (x-1)``.  Evaluating this form rather
    than the difference of two ``N``-scaled entropies keeps the rounding
    error at a few ulps of the entropy instead of ``N`` times that.  Falls
    back to the plug-in estimate when ``N < 2`` (nothing to leave out).
    """
    if total < 2:
        return h_ml
    nz = counts[counts > 0]
    return (float(_xlog2x_step(total))
            - float((nz * _xlog2x_step(nz)).sum()) / total)


# ----------------------------------------------------------------------
# mutual information over a joint contingency table
# ----------------------------------------------------------------------

def mutual_information(joint: np.ndarray,
                       correction: str = "miller_madow") -> float:
    """``I(R; C)`` in bits from an R×C joint count table.

    The plug-in estimate is ``H(rows) + H(cols) - H(joint)``; corrections
    apply per entropy term (Miller–Madow, jackknife) or to the joint cell
    probabilities (James–Stein shrinkage toward uniform).  The result is
    *not* clamped — closed-form test cases rely on exact zero/log2(k)
    values under ``correction="none"``; :func:`mi_test` clamps for
    reporting.
    """
    if correction not in CORRECTIONS:
        raise MIEstimationError(
            f"unknown MI bias correction {correction!r}; "
            f"valid choices: {', '.join(repr(c) for c in CORRECTIONS)}")
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise MIEstimationError("joint table must be 2-dimensional")
    total = float(joint.sum())
    if total <= 0:
        raise MIEstimationError("mutual information of an empty table")
    if correction == "shrinkage":
        return _shrinkage_mi(joint, total)
    rows = joint.sum(axis=1)
    cols = joint.sum(axis=0)
    return (entropy_bits(rows, correction)
            + entropy_bits(cols, correction)
            - entropy_bits(joint.ravel(), correction))


def _shrinkage_mi(joint: np.ndarray, total: float) -> float:
    """MI of the James–Stein-shrunk joint distribution.

    Shrinks the ML cell probabilities toward the uniform target
    ``t = 1/(R·C)`` with the analytic optimal intensity
    ``λ* = (1 - sum p̂²) / ((N - 1) · sum (t - p̂)²)`` clamped to [0, 1]
    (Hausser & Strimmer's entropy shrinkage estimator), then evaluates MI
    exactly on the shrunk distribution.
    """
    p_hat = joint / total
    target = 1.0 / joint.size
    denominator = float(((target - p_hat) ** 2).sum())
    if total <= 1 or denominator == 0.0:
        lam = 1.0
    else:
        lam = (1.0 - float((p_hat ** 2).sum())) / ((total - 1.0)
                                                   * denominator)
        lam = min(1.0, max(0.0, lam))
    p = lam * target + (1.0 - lam) * p_hat
    p_rows = p.sum(axis=1)
    p_cols = p.sum(axis=0)

    def entropy_of(prob: np.ndarray) -> float:
        positive = prob[prob > 0]
        return float(-(positive * np.log2(positive)).sum())

    return (entropy_of(p_rows) + entropy_of(p_cols)
            - entropy_of(p.ravel()))


# ----------------------------------------------------------------------
# the per-feature test
# ----------------------------------------------------------------------

def mi_test(hist_x: Histogram, hist_y: Histogram,
            confidence: float = DEFAULT_CONFIDENCE,
            order: Optional[Dict[Hashable, int]] = None,
            correction: str = "miller_madow",
            min_bits: float = 0.0,
            sample_size_cap: Optional[int] = None) -> MIResult:
    """Mutual-information test between a feature's fixed/random histograms.

    The two histograms form the rows of the 2×C joint table (row 0 =
    fixed side, row 1 = random side) over their ordered common support —
    the same :func:`~repro.core.kstest._ordered_weights` support the KS
    paths use, so both detectors see identical features.  ``order`` only
    fixes the column order; MI is invariant under value permutation.

    Like the KS test, ``sample_size_cap`` bounds the *effective* sample
    sizes used for significance (correlated warp lanes inflate counts):
    the MI estimate comes from the full histograms, the G statistic from
    the capped total.
    """
    alpha = 1.0 - confidence
    if not 0.0 < alpha < 1.0:
        raise MIEstimationError(
            f"confidence must be in (0, 1), got {confidence}")
    wx, wy = _ordered_weights(hist_x, hist_y, order)
    n = int(wx.sum())
    m = int(wy.sum())
    if n == 0 or m == 0:
        raise MIEstimationError("MI test needs non-empty samples")
    joint = np.stack([wx, wy])
    # proportional rows (exact in integer counts) have zero plug-in MI; the
    # entropy sums leave a residue the χ² tail at dof 1 would make p < 1
    mi_raw = (0.0 if np.array_equal(wx * m, wy * n)
              else mutual_information(joint, "none"))
    corrected = (mi_raw if correction == "none"
                 else mutual_information(joint, correction))
    support = int(((wx + wy) > 0).sum())
    # I(S; V) <= min(H(S), H(V)) <= log2(min(sides, support values))
    ceiling = math.log2(min(2, support))
    mi_bits = min(ceiling, max(0.0, corrected))
    n_eff = n if sample_size_cap is None else min(n, sample_size_cap)
    m_eff = m if sample_size_cap is None else min(m, sample_size_cap)
    dof = support - 1  # (rows - 1) * (cols - 1) with both rows nonzero
    if dof <= 0:
        p_value = 1.0
    else:
        g = 2.0 * (n_eff + m_eff) * _LN2 * max(0.0, mi_raw)
        p_value = chi2_sf(g, dof)
    return MIResult(statistic=mi_raw, p_value=p_value, n=n_eff, m=m_eff,
                    threshold=float("nan"), confidence=confidence,
                    mi_bits=mi_bits, mi_raw=mi_raw, dof=dof,
                    min_bits=min_bits)
