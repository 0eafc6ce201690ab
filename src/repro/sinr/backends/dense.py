"""Dense-matrix physics backend: precomputed O(n^2) gain matrix.

The historical (and default) backend of the reproduction: at construction it
materializes the full pairwise received-power matrix, after which every round
is a handful of numpy reductions over sub-matrices.  Fastest per round for
deployments that fit in memory (~tens of thousands of nodes); switch to
:class:`~repro.sinr.backends.lazy.LazyBlockBackend` beyond that.

This is also the only backend that supports *metric-only* construction from
a pairwise-distance matrix (the paper's footnote-1 generalization to
bounded-growth metric spaces), since an abstract metric has no positions to
recompute distances from.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..geometry import pairwise_distances
from ..model import NUMERIC_TOLERANCE, SINRParameters
from .base import COLOCATED_GAIN, DeliveryTable, PhysicsBackend, _empty_table


def _validate_gain_dtype(value: object) -> np.dtype:
    """Normalize a ``gain_dtype`` option to ``float64`` or ``float32``."""
    try:
        dtype = np.dtype(value)
    except TypeError:
        dtype = None
    if dtype is None or dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"gain_dtype must be float64 or float32, got {value!r}")
    return dtype


class DenseMatrixBackend(PhysicsBackend):
    """Evaluates SINR receptions from a precomputed dense gain matrix.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.
    params:
        The :class:`~repro.sinr.model.SINRParameters` of the environment.
    distances:
        Alternatively, a symmetric pairwise-distance matrix (abstract metric).
    gain_dtype:
        Storage dtype of the precomputed gain matrix (``np.float64``, the
        default, or ``np.float32``).  float32 halves the dominant memory
        cost (the gain matrix) at ~1e-7 relative storage rounding; gains
        are computed in float64 before the downcast, ``gain_block`` widens
        back to float64 on gather, and all SINR arithmetic stays float64,
        so the only deviation from the default is the rounding of the
        stored matrix entries (plus float32 accumulation in the batched
        GEMM totals).  Opt-in: reception decisions within ~1e-7 of the
        threshold (or strongest-sender ties within ~1e-7 relative) may
        resolve differently from float64 storage, and the reported SINR of
        very strong receptions (near-colocated senders) carries amplified
        relative error -- the *reciprocal* SINR stays accurate to ~1e-5,
        which is the framing threshold decisions live in.
    """

    option_checks = {"gain_dtype": _validate_gain_dtype}

    def __init__(
        self,
        positions: Optional[np.ndarray],
        params: SINRParameters,
        distances: Optional[np.ndarray] = None,
        gain_dtype: type = np.float64,
    ) -> None:
        super().__init__(params)
        if distances is None:
            if positions is None:
                raise ValueError("either positions or distances must be given")
            positions = np.asarray(positions, dtype=float)
            if positions.ndim != 2 or positions.shape[1] != 2:
                raise ValueError("positions must be an (n, 2) array")
            self._positions: Optional[np.ndarray] = positions
            distances = pairwise_distances(positions)
        else:
            distances = np.asarray(distances, dtype=float)
            if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
                raise ValueError("distances must be a square matrix")
            if not np.allclose(distances, distances.T, atol=1e-9):
                raise ValueError("distances must be symmetric")
            if np.any(distances < -NUMERIC_TOLERANCE):
                raise ValueError("distances must be non-negative")
            self._positions = (
                np.asarray(positions, dtype=float) if positions is not None else None
            )
        gain_dtype = _validate_gain_dtype(gain_dtype)
        self._gain_dtype = gain_dtype
        # Co-located distinct nodes would have infinite gain; the clamp keeps
        # arithmetic well defined (reception from a co-located node trivially
        # succeeds when it is the only transmitter).  The clamp must be
        # representable in the storage dtype with headroom for summation, so
        # float32 storage uses its own scaled-down ceiling.
        self._colocated_gain = min(
            COLOCATED_GAIN, float(np.finfo(gain_dtype).max) / 2**8
        )
        self._n = len(distances)
        with np.errstate(divide="ignore"):
            gains = params.power / np.power(distances, params.alpha)
        np.fill_diagonal(gains, 0.0)
        gains[np.isinf(gains)] = self._colocated_gain
        self._gains = gains.astype(gain_dtype, copy=False)
        self._distances = distances
        self._topk: Optional[np.ndarray] = None

    @classmethod
    def from_distance_matrix(
        cls, distances: np.ndarray, params: SINRParameters
    ) -> "DenseMatrixBackend":
        """Backend over an abstract metric given by a pairwise-distance matrix.

        Supports the paper's footnote-1 generalization to bounded-growth
        metric spaces: the SINR rule (Equation 1) only needs distances, not
        coordinates.
        """
        return cls(None, params, distances=distances)

    @property
    def size(self) -> int:
        """Number of nodes in the placement."""
        return self._n

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates (read-only view); unavailable for metric-only backends."""
        if self._positions is None:
            raise ValueError("this engine was built from a distance matrix; no coordinates exist")
        view = self._positions.view()
        view.flags.writeable = False
        return view

    @property
    def distances(self) -> np.ndarray:
        """Pairwise node distances (read-only view)."""
        view = self._distances.view()
        view.flags.writeable = False
        return view

    def distance(self, a: int, b: int) -> float:
        """Distance between nodes ``a`` and ``b``."""
        return float(self._distances[a, b])

    def gain(self, sender: int, receiver: int) -> float:
        """Received power ``P / d(sender, receiver)^alpha`` (direct lookup)."""
        return float(self._gains[sender, receiver])

    def gain_block(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Gather the requested sub-matrix of the precomputed gain matrix.

        Always float64: with float32 storage the gather widens, so the SINR
        arithmetic downstream is float64 regardless of the storage dtype.
        """
        return self._gains[np.ix_(senders, receivers)].astype(np.float64, copy=False)

    # ------------------------------------------------------------------ #
    # Incremental placement mutation.
    # ------------------------------------------------------------------ #

    def _require_positions(self, operation: str) -> np.ndarray:
        if self._positions is None:
            raise ValueError(
                f"this backend was built from a distance matrix; {operation} needs coordinates"
            )
        return self._positions

    def _gain_rows(self, distances: np.ndarray, row_indices: np.ndarray) -> np.ndarray:
        """Gain rows from a distance block, with the diagonal/clamp conventions.

        ``distances[i, :]`` are the distances of node ``row_indices[i]`` to
        all nodes; the self-pair is zeroed before co-located pairs are
        clamped, exactly as in the constructor.
        """
        with np.errstate(divide="ignore"):
            gains = self._params.power / np.power(distances, self._params.alpha)
        gains[np.arange(len(row_indices)), row_indices] = 0.0
        gains[np.isinf(gains)] = self._colocated_gain
        return gains

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move nodes, recomputing only the touched gain/distance rows and columns.

        Cost is O(m * n) for ``m`` moved nodes (plus an O((K + m) * n) patch
        of the cached top-K rank table when one exists) instead of the
        O(n^2) full rebuild -- the speedup
        ``benchmarks/bench_dynamic_incremental.py`` records.
        """
        positions = self._require_positions("update_positions")
        indices, new_xy = self._check_moves(self._n, indices, new_xy)
        if not indices.size:
            return
        positions[indices] = new_xy
        diff = positions[indices][:, None, :] - positions[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        self._distances[indices, :] = dist
        self._distances[:, indices] = dist.T
        gains = self._gain_rows(dist, indices)
        self._gains[indices, :] = gains
        self._gains[:, indices] = gains.T
        if self._topk is not None:
            self._patch_topk(indices)

    def add_nodes(self, new_xy: np.ndarray) -> None:
        """Append nodes: one O(m * n) distance/gain band, no full rebuild."""
        positions = self._require_positions("add_nodes")
        new_xy = np.asarray(new_xy, dtype=float).reshape(-1, 2)
        m = len(new_xy)
        if m == 0:
            return
        old_n, n = self._n, self._n + m
        grown = np.vstack([positions, new_xy])
        diff = new_xy[:, None, :] - grown[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        distances = np.empty((n, n))
        distances[:old_n, :old_n] = self._distances
        distances[old_n:, :] = dist
        distances[:, old_n:] = dist.T
        self._positions = grown
        self._distances = distances
        self._n = n
        gain_band = self._gain_rows(dist, np.arange(old_n, n)).astype(
            self._gain_dtype, copy=False
        )
        gains = np.empty((n, n), dtype=self._gain_dtype)
        gains[:old_n, :old_n] = self._gains
        gains[old_n:, :] = gain_band
        gains[:, old_n:] = gain_band.T
        self._gains = gains
        # The rank table is rebuilt lazily on the next batched evaluation.
        self._topk = None

    def remove_nodes(self, indices: np.ndarray) -> None:
        """Delete nodes and compact the matrices (works for metric-only backends too)."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if not indices.size:
            return
        if indices.min() < 0 or indices.max() >= self._n:
            raise ValueError("node index out of range")
        keep = np.setdiff1d(np.arange(self._n), indices)
        if not keep.size:
            raise ValueError("cannot remove every node from a backend")
        if self._positions is not None:
            self._positions = self._positions[keep]
        self._distances = self._distances[np.ix_(keep, keep)]
        self._gains = self._gains[np.ix_(keep, keep)]
        self._n = len(keep)
        self._topk = None

    # ------------------------------------------------------------------ #
    # Columnar schedule evaluation (gemm + top-k fast path).
    # ------------------------------------------------------------------ #

    #: Per-listener strongest-sender table depth.  48 ranks make the
    #: probability that none of a round's transmitters appears in a
    #: listener's table negligible for the selector densities the paper's
    #: schedules use; misses fall back to an exact gather.
    _TOPK_DEPTH = 48

    def _topk_table(self) -> np.ndarray:
        """``(K, n)`` sender indices, per listener column sorted by gain desc.

        Built lazily on the first batched schedule evaluation and reused for
        every subsequent schedule over this placement.  Rationale: the
        strongest transmitter of a round, at listener ``j``, is the
        best-*globally-ranked* member of the transmitter set -- so if any of
        ``j``'s top-K senders transmits, the decoded sender is the first of
        them in rank order, found with one boolean gather instead of an
        argmax over the full gain sub-matrix.
        """
        if self._topk is None:
            # Ties (equal gains, e.g. equidistant or co-located senders) are
            # ranked in arbitrary partition order.  That never changes a
            # reported delivery: with beta > 1 a listener decodes only a
            # *strict* strongest transmitter (two tied maxima bound its SINR
            # below 1), so tied senders are only ever picked for listeners
            # that fail the threshold anyway.
            k = min(self._TOPK_DEPTH, self._n)
            self._topk = self._topk_columns(np.arange(self._n), k)
        return self._topk

    def _topk_columns(self, cols: np.ndarray, k: int) -> np.ndarray:
        """Exact ``(k, len(cols))`` strongest-sender table for the given listeners."""
        identity = len(cols) == self._n and bool(np.array_equal(cols, np.arange(self._n)))
        sub = self._gains if identity else self._gains[:, cols]
        part = np.argpartition(-sub, k - 1, axis=0)[:k]
        part_gains = np.take_along_axis(sub, part, axis=0)
        order = np.argsort(-part_gains, axis=0, kind="stable")
        return np.take_along_axis(part, order, axis=0)

    def _patch_topk(self, moved: np.ndarray) -> None:
        """Patch the cached rank table after the nodes in ``moved`` changed position.

        Columns of *moved listeners* are recomputed exactly (every gain in
        the column changed).  Every other column is patched in place: the
        moved senders (at their new gains) are merged into the column's
        retained entries, and any slot that can no longer be proven exact is
        padded with the weakest provably-exact entry.  The table invariant
        the fast reception path relies on -- every sender absent from a
        column is at most as strong as every entry in it -- is preserved:

        * an absent non-moved sender was already outside the exact top-K, so
          it is bounded by the old K-th gain, which is at most ``gmin`` (the
          weakest retained non-moved entry);
        * an absent moved sender was explicitly compared against the kept
          entries during the merge.

        Padding duplicates an in-table sender, which is harmless to the
        first-present-in-rank-order winner scan.
        """
        topk = self._topk
        k = topk.shape[0]
        moved_mask = np.zeros(self._n, dtype=bool)
        moved_mask[moved] = True
        keep_cols = np.flatnonzero(~moved_mask)
        fresh = [moved]
        if keep_cols.size:
            # Work listener-major ((c, k + m) row-contiguous arrays): the
            # per-column sort below is the hot operation and is several times
            # faster along the last axis.
            retained = np.ascontiguousarray(topk[:, keep_cols].T)  # (c, k)
            stale = moved_mask[retained]  # entries whose gain changed under them
            cand = np.hstack(
                [retained, np.broadcast_to(moved[None, :], (keep_cols.size, len(moved)))]
            )
            cand_gain = self._gains[cand, keep_cols[:, None]]
            # Old occurrences of moved senders are superseded by the appended
            # fresh copies; sink them to the bottom of the ordering.
            cand_gain[:, :k][stale] = -np.inf
            nonmoved_gain = np.where(stale, np.inf, cand_gain[:, :k])
            gmin = nonmoved_gain.min(axis=1)
            # A column whose entries all moved retains no exact anchor.
            wholly_stale = ~np.isfinite(gmin)
            order = np.argsort(-cand_gain, axis=1, kind="stable")[:, :k]
            new_entries = np.take_along_axis(cand, order, axis=1)
            new_gain = np.take_along_axis(cand_gain, order, axis=1)
            unsafe = new_gain < gmin[:, None]  # a suffix of each (sorted) row
            safe_count = k - unsafe.sum(axis=1)
            pad = new_entries[np.arange(keep_cols.size), np.maximum(safe_count - 1, 0)]
            topk[:, keep_cols] = np.where(unsafe, pad[:, None], new_entries).T
            if wholly_stale.any():
                fresh.append(keep_cols[wholly_stale])
        fresh_cols = np.concatenate(fresh)
        topk[:, fresh_cols] = self._topk_columns(fresh_cols, k)

    def receptions_table(
        self,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        listeners: Optional[Sequence[int]] = None,
    ) -> DeliveryTable:
        """Columnar schedule evaluation specialized to the dense matrix.

        Two structural shortcuts over the generic chunked path, with
        identical semantics:

        * per-round interference totals for *all* rounds come from one BLAS
          matrix product (0/1 round-membership matrix x gain matrix) instead
          of per-round gather-and-sum;
        * the strongest transmitter per listener is read off the cached
          per-listener top-K rank table (:meth:`_topk_table`); rounds whose
          transmitter set misses a listener's table fall back to an exact
          gather for just those listeners.

        Reported SINR values can differ from the generic path in the last
        ulp (BLAS accumulation order), which is within the documented
        cross-backend tolerance.

        The override is not faster everywhere.  Local broadcast (preset
        ``fast``, seed 5, NumPy kernels, 2 vCPUs), this path vs the generic
        one: n=400 3.4 s vs 1.7 s, n=1000 8.4 s vs 8.7 s (near the
        crossover), n=2000 24.3 s vs 45.2 s; global broadcast on the 20-hop
        strip 2.9 s vs 1.8 s.  The top-K scan costs the same per round
        whatever the transmitter count ``k_t``, while the generic path's
        gather grows with ``k_t`` (about 21 per round at n=400, 109 at
        n=2000).  It stays for the large-n win; picking the path by size is
        a separate performance change that needs a benchmark workload at
        n >= 1000 first.
        """
        tx_indptr = np.ascontiguousarray(tx_indptr, dtype=np.int64)
        tx_members = np.ascontiguousarray(tx_members, dtype=np.int64)
        num_rounds = len(tx_indptr) - 1
        rx = self._normalize_listeners(listeners)
        if rx.size == 0 or num_rounds == 0 or len(tx_members) == 0:
            return _empty_table(num_rounds)

        n = self._n
        gains = self._gains
        noise = self._params.noise
        threshold = self._params.beta - NUMERIC_TOLERANCE
        pos_in_rx = np.full(n, -1, dtype=np.int64)
        pos_in_rx[rx] = np.arange(rx.size)
        # Gain columns restricted to the listener pool (no copy when the pool
        # is exactly the identity order, the common case for schedule
        # executions; a permuted or partial pool needs the gather).
        identity_pool = rx.size == n and bool(np.array_equal(rx, np.arange(n)))
        gains_rx = gains if identity_pool else gains[:, rx]
        topk_rx = self._topk_table()[:, rx]
        cols = np.arange(rx.size)
        in_tx = np.zeros(n, dtype=bool)

        out_rounds: List[np.ndarray] = []
        out_receivers: List[np.ndarray] = []
        out_senders: List[np.ndarray] = []
        out_sinr: List[np.ndarray] = []

        round_ids_all = np.repeat(np.arange(num_rounds, dtype=np.int64), np.diff(tx_indptr))
        chunk_rounds = max(1, self._BATCH_BLOCK_ELEMENTS // max(n, rx.size))
        for start in range(0, num_rounds, chunk_rounds):
            end = min(num_rounds, start + chunk_rounds)
            lo, hi = int(tx_indptr[start]), int(tx_indptr[end])
            if lo == hi:
                continue
            members_chunk = tx_members[lo:hi]
            # One BLAS product yields every round's per-listener total power.
            # The membership matrix matches the gain storage dtype so a
            # float32 matrix multiplies without an O(n^2) float64 upcast.
            membership = np.zeros((end - start, n), dtype=gains.dtype)
            membership[round_ids_all[lo:hi] - start, members_chunk] = 1.0
            totals = membership @ gains_rx

            for t in range(start, end):
                t_lo, t_hi = int(tx_indptr[t]), int(tx_indptr[t + 1])
                if t_lo == t_hi:
                    continue
                tx_slice = tx_members[t_lo:t_hi]
                in_tx[tx_slice] = True
                present = in_tx[topk_rx]
                first = present.argmax(axis=0)
                senders = topk_rx[first, cols]
                missed = np.flatnonzero(~present[first, cols])
                if missed.size:
                    # No table entry transmits for these listeners: exact
                    # gather over the round's transmitter set.
                    sub = gains[np.ix_(tx_slice, rx[missed])]
                    senders[missed] = tx_slice[sub.argmax(axis=0)]
                in_tx[tx_slice] = False

                # Widen to float64 before the SINR arithmetic so float32
                # storage only contributes its rounding of the stored gains.
                best_gain = gains_rx[senders, cols].astype(np.float64, copy=False)
                total_power = totals[t - start].astype(np.float64, copy=False)
                best_sinr = best_gain / (noise + (total_power - best_gain))
                ok = best_sinr >= threshold
                # Half-duplex: a round's transmitters never receive in it.
                own = pos_in_rx[tx_slice]
                ok[own[own >= 0]] = False
                picked = np.flatnonzero(ok)
                if not picked.size:
                    continue
                out_rounds.append(np.full(picked.size, t, dtype=np.int64))
                out_receivers.append(rx[picked])
                out_senders.append(senders[picked])
                out_sinr.append(best_sinr[picked])

        if not out_rounds:
            return _empty_table(num_rounds)
        return DeliveryTable(
            num_rounds=num_rounds,
            round_ids=np.concatenate(out_rounds),
            receivers=np.concatenate(out_receivers),
            senders=np.concatenate(out_senders),
            sinr=np.concatenate(out_sinr),
        )
