"""Vectorized mutual-information testing over many feature pairs.

The MI analog of :func:`~repro.core.kstest.ks_test_batch`: semantically
equivalent to calling :func:`~repro.analysis.mi.estimator.mi_test` per
request (the scalar function stays the reference — the test suite asserts
agreement to 1e-12), but every entropy term and bias correction is
computed in one NumPy pass over zero-padded weight matrices.  Padding
cells carry zero weight and are masked out of the shrinkage sums, so they
never move an estimate.  Only the χ² survival function runs per row (a
few dozen scalar iterations each, negligible next to the entropy pass).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.kstest import BatchRequest, DistributionTestError, _ordered_weights
from repro.analysis.mi.estimator import (
    CORRECTIONS,
    DEFAULT_CONFIDENCE,
    MIEstimationError,
    MIResult,
    _xlog2x_step,
    chi2_sf,
)

_LN2 = math.log(2.0)


def _xlog2x(values: np.ndarray) -> np.ndarray:
    """Elementwise ``v log2 v`` with ``0 log2 0 = 0``."""
    safe = np.where(values > 0, values, 1.0)
    return np.where(values > 0, values * np.log2(safe), 0.0)


def _plugin_entropies(weight_x: np.ndarray, weight_y: np.ndarray,
                      n: np.ndarray, m: np.ndarray):
    """Per-row plug-in entropies H(side), H(value), H(joint) in bits."""
    total = n + m
    sum_x = _xlog2x(weight_x).sum(axis=1)
    sum_y = _xlog2x(weight_y).sum(axis=1)
    cols = _xlog2x(weight_x + weight_y).sum(axis=1)
    sides = _xlog2x(n) + _xlog2x(m)
    log_total = np.log2(total)
    h_side = log_total - sides / total
    h_value = log_total - cols / total
    h_joint = log_total - (sum_x + sum_y) / total
    return h_side, h_value, h_joint


def _jackknife_entropy_rows(cells: np.ndarray, total: np.ndarray,
                            h_ml: np.ndarray) -> np.ndarray:
    """Vectorized closed-form jackknife entropy, one row per request.

    ``cells`` holds each request's count vector zero-padded along axis 1;
    mirrors :func:`repro.analysis.mi.estimator._jackknife_entropy`.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        jackknifed = (_xlog2x_step(total)
                      - (cells * _xlog2x_step(cells)).sum(axis=1) / total)
    return np.where(total < 2, h_ml, jackknifed)


def _corrected_mi(weight_x: np.ndarray, weight_y: np.ndarray,
                  n: np.ndarray, m: np.ndarray, lengths: np.ndarray,
                  mi_raw: np.ndarray, correction: str) -> np.ndarray:
    total = n + m
    if correction == "none":
        return mi_raw
    if correction == "miller_madow":
        k_side = (n > 0).astype(float) + (m > 0).astype(float)
        k_value = ((weight_x + weight_y) > 0).sum(axis=1)
        k_joint = (weight_x > 0).sum(axis=1) + (weight_y > 0).sum(axis=1)
        return mi_raw + (k_side + k_value - k_joint - 1.0) / (
            2.0 * total * _LN2)
    if correction == "jackknife":
        h_side, h_value, h_joint = _plugin_entropies(weight_x, weight_y,
                                                     n, m)
        sides = np.stack([n, m], axis=1)
        cols = weight_x + weight_y
        joint = np.concatenate([weight_x, weight_y], axis=1)
        return (_jackknife_entropy_rows(sides, total, h_side)
                + _jackknife_entropy_rows(cols, total, h_value)
                - _jackknife_entropy_rows(joint, total, h_joint))
    if correction == "shrinkage":
        return _shrinkage_mi_rows(weight_x, weight_y, total, lengths)
    raise MIEstimationError(
        f"unknown MI bias correction {correction!r}; "
        f"valid choices: {', '.join(repr(c) for c in CORRECTIONS)}")


def _shrinkage_mi_rows(weight_x: np.ndarray, weight_y: np.ndarray,
                       total: np.ndarray,
                       lengths: np.ndarray) -> np.ndarray:
    """Vectorized James–Stein shrinkage MI, masking the padding cells.

    The uniform target is ``1/(2·support)`` per request — the padded
    width must not leak into the cell count, and padded cells (which the
    scalar table does not have) are excluded from the λ sums and the
    entropy evaluation.
    """
    width = weight_x.shape[1]
    mask = np.arange(width)[None, :] < lengths[:, None]
    p_x = weight_x / total[:, None]
    p_y = weight_y / total[:, None]
    target = (1.0 / (2.0 * lengths))[:, None]
    sum_sq = (p_x ** 2 + p_y ** 2).sum(axis=1)
    denominator = (np.where(mask, (target - p_x) ** 2, 0.0)
                   + np.where(mask, (target - p_y) ** 2, 0.0)).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (1.0 - sum_sq) / (np.maximum(total - 1.0, 0.0) * denominator)
    lam = np.where((total <= 1) | (denominator == 0.0), 1.0, lam)
    lam = np.clip(lam, 0.0, 1.0)
    shrunk_x = np.where(mask, lam[:, None] * target
                        + (1.0 - lam)[:, None] * p_x, 0.0)
    shrunk_y = np.where(mask, lam[:, None] * target
                        + (1.0 - lam)[:, None] * p_y, 0.0)
    h_side = -(_xlog2x(shrunk_x.sum(axis=1)) + _xlog2x(shrunk_y.sum(axis=1)))
    h_value = -_xlog2x(shrunk_x + shrunk_y).sum(axis=1)
    h_joint = -(_xlog2x(shrunk_x) + _xlog2x(shrunk_y)).sum(axis=1)
    return h_side + h_value - h_joint


def mi_test_batch(requests: Sequence[BatchRequest],
                  confidence: float = DEFAULT_CONFIDENCE,
                  correction: str = "miller_madow",
                  min_bits: float = 0.0,
                  sample_size_cap: Optional[int] = None) -> list:
    """Vectorized MI test over many weighted-histogram pairs.

    Accepts the same request tuples as :func:`ks_test_batch` —
    ``(hist_x, hist_y)`` or ``(hist_x, hist_y, order)`` — and returns one
    :class:`~repro.analysis.mi.estimator.MIResult` per request, with
    ``None`` wherever the scalar :func:`mi_test` would raise (empty
    support or an empty side).
    """
    alpha = 1.0 - confidence
    if not 0.0 < alpha < 1.0:
        raise MIEstimationError(
            f"confidence must be in (0, 1), got {confidence}")
    if correction not in CORRECTIONS:
        raise MIEstimationError(
            f"unknown MI bias correction {correction!r}; "
            f"valid choices: {', '.join(repr(c) for c in CORRECTIONS)}")
    results: list = [None] * len(requests)
    rows: list = []  # (request index, wx, wy)
    for index, request in enumerate(requests):
        if len(request) == 2:
            hist_x, hist_y = request
            order = None
        else:
            hist_x, hist_y, order = request
        try:
            wx, wy = _ordered_weights(hist_x, hist_y, order)
        except DistributionTestError:
            continue
        if wx.sum() == 0 or wy.sum() == 0:
            continue
        rows.append((index, wx, wy))
    if not rows:
        return results

    width = max(len(wx) for _i, wx, _wy in rows)
    weight_x = np.zeros((len(rows), width))
    weight_y = np.zeros((len(rows), width))
    lengths = np.zeros(len(rows))
    for row, (_index, wx, wy) in enumerate(rows):
        weight_x[row, :len(wx)] = wx
        weight_y[row, :len(wy)] = wy
        lengths[row] = len(wx)

    n = weight_x.sum(axis=1)
    m = weight_y.sum(axis=1)
    h_side, h_value, h_joint = _plugin_entropies(weight_x, weight_y, n, m)
    # proportional rows have exactly zero plug-in MI, as in mi_test
    proportional = (weight_x * m[:, None] == weight_y * n[:, None]).all(axis=1)
    mi_raw = np.where(proportional, 0.0, h_side + h_value - h_joint)
    corrected = _corrected_mi(weight_x, weight_y, n, m, lengths, mi_raw,
                              correction)
    support = ((weight_x + weight_y) > 0).sum(axis=1)
    ceiling = np.log2(np.minimum(2.0, support))
    mi_bits = np.minimum(ceiling, np.maximum(0.0, corrected))
    if sample_size_cap is not None:
        n_eff = np.minimum(n, sample_size_cap)
        m_eff = np.minimum(m, sample_size_cap)
    else:
        n_eff, m_eff = n, m
    dof = support - 1
    g = 2.0 * (n_eff + m_eff) * _LN2 * np.maximum(0.0, mi_raw)

    for row, (index, _wx, _wy) in enumerate(rows):
        row_dof = int(dof[row])
        p_value = 1.0 if row_dof <= 0 else chi2_sf(float(g[row]), row_dof)
        results[index] = MIResult(
            statistic=float(mi_raw[row]), p_value=p_value,
            n=int(n_eff[row]), m=int(m_eff[row]),
            threshold=float("nan"), confidence=confidence,
            mi_bits=float(mi_bits[row]), mi_raw=float(mi_raw[row]),
            dof=row_dof, min_bits=min_bits)
    return results
