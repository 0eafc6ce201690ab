"""Optional compiled kernels for the spatial backend's hot path.

Three small numeric primitives dominate a spatial batch evaluation:

* :func:`pair_gains` -- received power ``P / d^alpha`` for a flat list of
  (transmitter position, listener position) pairs, with the co-located
  clamp;
* :func:`near_reduce` -- segment reduction of those pair gains onto their
  listeners (total near-field power *and* strongest near-field gain in one
  pass);
* :func:`segment_strongest` -- per-segment total power, strongest gain and
  the *flat index* of the first strongest pair over a flat, segment-major
  pair list: the exact stage, where each listener's row count depends on
  its own round's transmitter set; ties resolve to the lowest flat index,
  matching ``np.argmax`` semantics.

Each primitive has a pure-NumPy implementation and, when `numba
<https://numba.pydata.org>`_ is importable, an ``@njit``-compiled fused-loop
variant that avoids the intermediate arrays (the NumPy versions materialize
``hypot``/``power`` temporaries and pay two passes for the sum+max
reduction).  Selection happens once at import time; ``numba`` is an
*optional* dependency (the ``[speed]`` extra) and nothing here imports it
eagerly beyond the guarded probe.  Both variants are exercised in CI, and
the property tests in ``tests/test_spatial_backend.py`` hold under either.

``KERNEL_BACKEND`` reports which implementation is active (``"numba"`` or
``"numpy"``); ``REPRO_NO_NUMBA=1`` in the environment forces the NumPy
fallback even when numba is installed (used by CI to test both paths on one
matrix entry).
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "KERNEL_BACKEND",
    "dist_pow",
    "near_reduce",
    "pair_gains",
    "segment_strongest",
]


# --------------------------------------------------------------------- #
# Pure-NumPy implementations (always available, the reference semantics).
# --------------------------------------------------------------------- #


def dist_pow(dist_sq, alpha):
    """``d^alpha`` from squared distances, fast-pathing integral exponents.

    ``np.power`` with a float scalar exponent is a libm call per element and
    dominates exact-evaluation profiles; the physically common integral
    path-loss exponents (alpha = 2, 3, 4, ...) decompose into multiplies and
    at most one square root (last-ulp differences only, well inside the
    documented cross-backend tolerance).
    """
    ia = int(alpha)
    if alpha == ia and 1 <= ia <= 8:
        half, odd = divmod(ia, 2)
        out = None
        for _ in range(half):
            out = dist_sq if out is None else out * dist_sq
        if odd:
            root = np.sqrt(dist_sq)
            out = root if out is None else out * root
        # ia == 2 aliases the input; callers never mutate the result.
        return out
    return np.power(np.sqrt(dist_sq), alpha)


def _pair_gains_numpy(tx_xy, rx_xy, power, alpha, colocated_gain):
    """``P / d^alpha`` per (transmitter, listener) position pair."""
    diff = tx_xy - rx_xy
    dist_sq = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
    with np.errstate(divide="ignore"):
        gains = power / dist_pow(dist_sq, alpha)
    gains[np.isinf(gains)] = colocated_gain
    return gains


def _near_reduce_numpy(listener_idx, gains, num_listeners):
    """Per-listener (sum, max) of the pair gains (segment reduction)."""
    sums = np.bincount(listener_idx, weights=gains, minlength=num_listeners)
    maxs = np.zeros(num_listeners, dtype=np.float64)
    np.maximum.at(maxs, listener_idx, gains)
    return sums, maxs


_INT64_MAX = np.iinfo(np.int64).max


def _segment_strongest_numpy(seg_idx, gains, num_segments):
    """Per-segment (total, best gain, flat index of the first best pair).

    ``seg_idx`` must be segment-major (non-decreasing) and ``gains``
    strictly positive; both hold on every call site (pair lists are built
    candidate-major and gains are clamped powers).  Totals accumulate in
    flat input order (``np.bincount`` adds sequentially per bin), which is
    what makes results independent of how rounds are batched; ties on the
    maximum resolve to the lowest flat index, matching ``np.argmax`` over
    the equivalent dense block.  Empty segments report (0, 0, 0).
    """
    totals = np.bincount(seg_idx, weights=gains, minlength=num_segments)
    best_gain = np.zeros(num_segments, dtype=np.float64)
    np.maximum.at(best_gain, seg_idx, gains)
    hit = np.flatnonzero(gains == best_gain[seg_idx])
    best_idx = np.full(num_segments, _INT64_MAX, dtype=np.int64)
    np.minimum.at(best_idx, seg_idx[hit], hit)
    best_idx[best_idx == _INT64_MAX] = 0
    return totals, best_gain, best_idx


# --------------------------------------------------------------------- #
# Numba-compiled variants (selected when importable and not disabled).
# --------------------------------------------------------------------- #

KERNEL_BACKEND = "numpy"
pair_gains = _pair_gains_numpy
near_reduce = _near_reduce_numpy
segment_strongest = _segment_strongest_numpy

if not os.environ.get("REPRO_NO_NUMBA"):
    try:
        from numba import njit
    except ImportError:  # numba is optional: the [speed] extra
        njit = None

    if njit is not None:

        @njit(cache=True)
        def _pair_gains_nb(tx_xy, rx_xy, power, alpha, colocated_gain):  # pragma: no cover
            out = np.empty(tx_xy.shape[0], dtype=np.float64)
            for i in range(tx_xy.shape[0]):
                dx = tx_xy[i, 0] - rx_xy[i, 0]
                dy = tx_xy[i, 1] - rx_xy[i, 1]
                dist = np.sqrt(dx * dx + dy * dy)
                if dist > 0.0:
                    out[i] = power / dist**alpha
                else:
                    out[i] = colocated_gain
            return out

        @njit(cache=True)
        def _near_reduce_nb(listener_idx, gains, num_listeners):  # pragma: no cover
            sums = np.zeros(num_listeners, dtype=np.float64)
            maxs = np.zeros(num_listeners, dtype=np.float64)
            for i in range(listener_idx.size):
                j = listener_idx[i]
                g = gains[i]
                sums[j] += g
                if g > maxs[j]:
                    maxs[j] = g
            return sums, maxs

        @njit(cache=True)
        def _segment_strongest_nb(seg_idx, gains, num_segments):  # pragma: no cover
            totals = np.zeros(num_segments, dtype=np.float64)
            best_gain = np.zeros(num_segments, dtype=np.float64)
            best_idx = np.zeros(num_segments, dtype=np.int64)
            for i in range(seg_idx.size):
                j = seg_idx[i]
                g = gains[i]
                totals[j] += g
                # Strict > keeps the first maximal pair, matching the NumPy
                # variant's lowest-flat-index tie break; sequential += keeps
                # the totals bit-identical to np.bincount's per-bin order.
                if g > best_gain[j]:
                    best_gain[j] = g
                    best_idx[j] = i
            return totals, best_gain, best_idx

        KERNEL_BACKEND = "numba"
        pair_gains = _pair_gains_nb
        near_reduce = _near_reduce_nb
        segment_strongest = _segment_strongest_nb
