"""Dense-matrix physics backend: precomputed O(n^2) gain matrix.

The historical (and default) backend of the reproduction: at construction it
materializes the full pairwise received-power matrix.  A schedule is then
evaluated in chunks of rounds: one BLAS product gives every round's
interference totals, and only the listeners within range 1 of a transmitter
(a sender -> listener CSR built once from the matrix) are examined as
candidates.  Fastest for deployments that fit in memory (~tens of thousands
of nodes); switch to :class:`~repro.sinr.backends.spatial.SpatialGridBackend`
beyond that.

This is also the only backend that supports *metric-only* construction from
a pairwise-distance matrix (the paper's footnote-1 generalization to
bounded-growth metric spaces), since an abstract metric has no positions to
recompute distances from.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import pairwise_distances
from ..model import NUMERIC_TOLERANCE, SINRParameters
from .base import COLOCATED_GAIN, DeliveryTable, PhysicsBackend, _empty_table

#: Sender -> listener CSR of the in-range pairs: ``(indptr, listeners)``.
InRange = Tuple[np.ndarray, np.ndarray]


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

    Schedules run through :meth:`receptions_table`, which examines only the
    in-range (sender, listener) pairs: a CSR built from the gain matrix on
    the first evaluation (never in the constructor) and patched in place by
    :meth:`update_positions`.

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
        self._in_range: Optional[InRange] = None

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

        Cost is O(m * n) for ``m`` moved nodes (plus an O(m * n + nnz) patch
        of the in-range relation when it has been built) instead of the
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
        # Columns go through flat indices: np.put scatters them faster than
        # a strided column assignment.
        columns = (np.arange(0, self._n * self._n, self._n)[:, None] + indices).ravel()
        self._distances[indices, :] = dist
        np.put(self._distances, columns, dist.T)
        gains = self._gain_rows(dist, indices).astype(self._gain_dtype, copy=False)
        self._gains[indices, :] = gains
        np.put(self._gains, columns, gains.T)
        if self._in_range is not None:
            self._patch_in_range(indices)

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
        # The in-range relation is rebuilt lazily on the next evaluation.
        self._in_range = None

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
        self._in_range = None

    # ------------------------------------------------------------------ #
    # Columnar schedule evaluation (in-range candidates + BLAS totals).
    # ------------------------------------------------------------------ #

    def _in_range_keys(self, block: np.ndarray, first_sender: int = 0) -> np.ndarray:
        """Ascending keys ``sender * n + listener`` of the in-range pairs of a row block.

        ``block`` holds the stored gain rows of senders ``first_sender``,
        ``first_sender + 1``, ...; a pair is in range exactly when
        :meth:`hears_alone` holds for it.
        """
        widened = block.astype(np.float64, copy=False)
        hears = widened / self._params.noise >= self._params.beta - NUMERIC_TOLERANCE
        return np.flatnonzero(hears) + first_sender * self._n

    def _csr(self, keys: np.ndarray) -> InRange:
        """The CSR of ascending pair keys."""
        n = self._n
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        return indptr, keys - np.repeat(np.arange(0, n * n, n), np.diff(indptr))

    def _in_range_csr(self) -> InRange:
        """Sender -> listener CSR ``(indptr, listeners)`` of the in-range pairs.

        ``(s, j)`` is in range when ``j`` hears ``s`` alone
        (:meth:`hears_alone`).  With ``P = N * beta`` this is the unit-disk
        relation, so a listener with no in-range transmitter can never
        decode.  Built from the gain matrix (metric-only and float32
        backends included) on the first schedule evaluation, in row blocks
        of the batch budget, and kept in step by :meth:`update_positions`.
        """
        if self._in_range is None:
            rows = max(1, self._BATCH_BLOCK_ELEMENTS // self._n)
            keys = [
                self._in_range_keys(self._gains[lo : lo + rows], lo)
                for lo in range(0, self._n, rows)
            ]
            self._in_range = self._csr(np.concatenate(keys))
        return self._in_range

    def _patch_in_range(self, moved: np.ndarray) -> None:
        """Re-derive the in-range pairs touching ``moved`` nodes; keep the rest.

        :meth:`update_positions` writes the moved nodes' gain columns from
        their rows, so one O(m * n) pass over the rows yields both the moved
        senders' pairs and, mirrored, the fixed senders' pairs with moved
        listeners.  Merging them into the retained keys is O(nnz): a stable
        sort of two concatenated sorted runs.
        """
        indptr, listeners = self._in_range
        n = self._n
        is_moved = np.zeros(n, dtype=bool)
        is_moved[moved] = True
        moved = np.flatnonzero(is_moved)
        counts = np.diff(indptr)
        keys = np.repeat(np.arange(0, n * n, n), counts) + listeners
        kept = keys[~(np.repeat(is_moved, counts) | is_moved[listeners])]
        senders, heard = np.divmod(self._in_range_keys(self._gains[moved]), n)
        senders = moved[senders]
        mirror = ~is_moved[heard]
        added = np.sort(np.concatenate([senders * n + heard, heard[mirror] * n + senders[mirror]]))
        self._in_range = self._csr(np.sort(np.concatenate([kept, added]), kind="stable"))

    def receptions_table(
        self,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        listeners: Optional[Sequence[int]] = None,
    ) -> DeliveryTable:
        """Columnar schedule evaluation restricted to in-range candidates.

        Rounds with a transmitter are evaluated in chunks of at most
        ``_BATCH_BLOCK_ELEMENTS // n`` rounds (fewer when their candidate
        pairs would outgrow the same memory budget), with no per-round
        Python loop.  Per chunk:

        1. one BLAS product (0/1 round-membership matrix x gain matrix)
           yields every round's total received power at every node;
        2. each transmitter entry expands into its in-range listeners
           (:meth:`_in_range_csr`);
        3. pairs whose listener is outside the pool, or transmits in that
           round (half-duplex), are dropped;
        4. the SINR threshold is applied to every remaining pair, reading
           the totals at its listener;
        5. one sort orders the receptions by (round, listener) and keeps
           the strongest sender of each (the first in transmitter order on
           a tie, as :meth:`receptions` picks it).  Only a strict strongest
           transmitter can pass unless beta is within rounding of 1.

        Exact, not a filter heuristic.  A total is a sum of non-negative
        gains, so in floating point it is at least the gain of each
        transmitter, and a pair's SINR is at most ``gain / noise``: a pair
        outside the in-range relation fails the threshold however low the
        interference.  The SINR is monotone in the sender's own gain, so
        when any sender passes at a listener, its strongest one does.
        Reported SINR values can differ from the generic path in the last
        ulp (BLAS accumulation order), within the documented cross-backend
        tolerance.
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
        reach_ptr, reach_rx = self._in_range_csr()
        flat_gains = gains.reshape(-1)
        pos_in_rx = np.full(n, -1, dtype=np.int64)
        pos_in_rx[rx] = np.arange(rx.size)
        counts = np.diff(tx_indptr)
        live = np.flatnonzero(counts)  # rounds with at least one transmitter
        entry_row = np.repeat(np.arange(live.size), counts[live])
        # Chunks of live rounds: at most ``_BATCH_BLOCK_ELEMENTS // n`` rows of
        # the membership and totals blocks, and candidate pairs in about as
        # many bytes (a chunk always takes at least one round).
        entry_pairs = np.diff(reach_ptr)[tx_members]
        pairs_before = np.concatenate(
            [[0], np.cumsum(np.add.reduceat(entry_pairs, tx_indptr[live]))]
        )
        max_rows = max(1, self._BATCH_BLOCK_ELEMENTS // n)
        max_pairs = self._BATCH_BLOCK_ELEMENTS // 8

        out_rounds: List[np.ndarray] = []
        out_receivers: List[np.ndarray] = []
        out_senders: List[np.ndarray] = []
        out_sinr: List[np.ndarray] = []

        a = 0
        while a < live.size:
            b = int(np.searchsorted(pairs_before, pairs_before[a] + max_pairs, side="right")) - 1
            b = min(live.size, a + max_rows, max(b, a + 1))
            lo, hi = int(tx_indptr[live[a]]), int(tx_indptr[live[b - 1] + 1])
            members = tx_members[lo:hi]
            rows = entry_row[lo:hi] - a
            # The membership matrix matches the gain storage dtype so a
            # float32 matrix multiplies without an O(n^2) float64 upcast.
            membership = np.zeros((b - a, n), dtype=gains.dtype)
            membership[rows, members] = 1.0
            totals = membership @ gains

            # Expand every transmitter entry into its in-range listeners.
            deg = entry_pairs[lo:hi]
            entry = np.repeat(np.arange(members.size), deg)
            pair = np.arange(entry.size) + np.repeat(reach_ptr[members] - (np.cumsum(deg) - deg), deg)
            row = rows[entry]
            listener = reach_rx[pair]
            # Half-duplex: a round's transmitters never receive in it.
            cand = np.flatnonzero((pos_in_rx[listener] >= 0) & (membership[row, listener] == 0))
            row, listener, entry = row[cand], listener[cand], entry[cand]
            # Widen to float64 before the SINR arithmetic so float32 storage
            # only contributes its rounding of the stored gains.
            gain = flat_gains[members[entry] * n + listener].astype(np.float64)
            total = totals[row, listener].astype(np.float64, copy=False)
            sinr = gain / (noise + (total - gain))
            ok = np.flatnonzero(sinr >= threshold)

            # One sort orders the receptions by (round, listener): the key
            # sits in the high bits, the position (transmitter order) in the
            # low.  A key can repeat only when beta is within rounding of 1;
            # its strongest sender (the first on a tie) is kept.
            shift = int(ok.size).bit_length()
            key = row[ok] * rx.size + pos_in_rx[listener[ok]]
            packed = np.sort((key << shift) | np.arange(ok.size))
            key = packed >> shift
            ok = ok[packed & ((1 << shift) - 1)]
            starts = np.flatnonzero(np.diff(key, prepend=-1))
            strongest = np.repeat(np.maximum.reduceat(gain[ok], starts), np.diff(starts, append=ok.size))
            best = np.flatnonzero(gain[ok] == strongest)
            ok = ok[best[np.diff(key[best], prepend=-1) != 0]]
            out_rounds.append(live[a + row[ok]])
            out_receivers.append(listener[ok])
            out_senders.append(members[entry[ok]])
            out_sinr.append(sinr[ok])
            a = b

        round_ids = np.concatenate(out_rounds)
        if not round_ids.size:
            return _empty_table(num_rounds)
        return DeliveryTable(
            num_rounds=num_rounds,
            round_ids=round_ids,
            receivers=np.concatenate(out_receivers),
            senders=np.concatenate(out_senders),
            sinr=np.concatenate(out_sinr),
        )
