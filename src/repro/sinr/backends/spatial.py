"""Spatially-indexed physics backend: two certificates, then exact evaluation.

Both historical backends charge every listener for all ``n`` potential
interferers each round -- dense through an O(n^2) gain matrix, lazy through
on-demand full rows.  The paper sets ``P = N * beta``, so the transmission
range is 1 and a listener with no transmitter within range 1 can never
decode, whatever the interference.  This backend exploits that without
ever approximating a result:

* Positions are bucketed into a **uniform grid** whose cell side is the
  transmission range times 17/16: any transmitter outside the 3x3 cell
  block around a listener is too far to be decoded on its own.
* Each round, only listeners with a transmitter in their 3x3 block are
  *candidates*; per-round cost is thus O(active area), independent of
  ``n``.
* The exact gains over each candidate's 3x3 block give its strongest
  near-field gain and its near-field power sum, which feed two
  **certificates** that reject listeners that cannot decode.
* Every listener the certificates do not reject -- the actual receivers
  plus a thin threshold-marginal shell -- is **evaluated exactly** over
  its round's full transmitter set, with the same formulas as the dense
  backend.  Reported senders and SINR values come only from this stage.

Soundness of the certificates (cell-rectangle bounds, valid for any point
positions inside the cells), with ``threshold = beta - NUMERIC_TOLERANCE``:

* two nodes whose tiles are not Chebyshev-adjacent are at least one cell
  side apart, so a transmitter outside a listener's 3x3 block contributes
  gain at most ``P / cell^alpha``, which the 17/16 margin puts below
  ``threshold * noise``;
* **certificate 1 (signal):** if a candidate's strongest near-field gain is
  below ``threshold * noise`` too, every transmitter's SINR at it is at
  most ``gain / noise < threshold``;
* **certificate 2 (near interference):** otherwise its strongest near-field
  gain ``g`` is the round's strongest gain at it, and the near sum
  lower-bounds its total received power, so its SINR is at most
  ``g / (noise + near_sum - g)``; below ``threshold`` it is rejected.

Both certificates only drop listeners; every survivor is evaluated
exactly, so delivered events match the dense backend event for event (up
to the usual last-ulp float-summation differences between backends).
``tests/test_spatial_backend.py`` pins the equivalence on randomized
deployments, including incremental mutations.

**One batched pass.**  A full algorithm execution issues ~10^5 schedule
rounds, and at 100k+ nodes each round's physics is cheap -- the cost floor
is the fixed NumPy call overhead per round.  :meth:`receptions_table`
therefore fuses consecutive CSR rounds into one composite-keyed
evaluation (:meth:`_batch_core`): transmitters are keyed by ``round x
tile``, candidates become unique ``(round, listener)`` pairs, and every
stage runs once per batch.  :meth:`receptions` is a one-round call of the
same pass.  Per-listener reductions are sequential and chunked only at
candidate boundaries, so the batch partition changes neither events nor
reported SINR values: splitting a schedule at any round boundary is
associative, bit for bit, which ``tests/test_backend_differential.py``
pins.

The hot loops (pair gains, near-field reduction, segmented strongest
resolution) run through :mod:`repro.sinr.backends._kernels` (Numba
``@njit`` when available, pure NumPy otherwise).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model import NUMERIC_TOLERANCE, SINRParameters
from . import _kernels
from .base import COLOCATED_GAIN, DeliveryTable, PhysicsBackend, Reception, _empty_table

#: Cell side, as a multiple of the transmission range.  The margin over 1.0
#: guarantees that any transmitter beyond the 3x3 near block (at distance
#: >= cell) is strictly below the solo-decoding threshold, so the signal
#: certificate is sound.
_CELL_MARGIN = 1.0 + 1.0 / 16.0

#: Bound on the total number of grid cells, as a multiple of ``n``.  Very
#: sparse bounding boxes (a handful of nodes spread over a huge area) grow
#: the cell side instead of materializing an empty mega-grid; larger cells
#: only loosen performance, never correctness.
_CELLS_PER_NODE = 8

#: Soft cap on (candidate x transmitter) pairs materialized at once by the
#: exact stage (chunked beyond this, at candidate boundaries).
_EXACT_BLOCK_ELEMENTS = 4_000_000

#: Target number of schedule entries (transmitter slots) per fused batch:
#: enough to amortize the per-call NumPy floors, small enough that the
#: composite join temporaries stay cache-warm.
_AUTO_BATCH_TARGET = 4096

#: Ceiling on the fused batch size.  Keeps composite keys comfortably inside
#: int64 and the per-batch candidate set bounded on sparse schedules.
_MAX_ROUND_BATCH = 64

#: Tile offsets of the 3x3 near block: the listener's own tile first, then
#: its eight neighbours.
_NEAR_OFFSETS = np.array(
    [(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)],
    dtype=np.int64,
)


def _csr_take(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` ranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


def _round_batch(num_rounds: int, entries: int) -> int:
    """Rounds fused per batch: ~``_AUTO_BATCH_TARGET`` entries, at most ``_MAX_ROUND_BATCH``.

    Dense rounds batch little (physics already dominates); sparse rounds
    (the TDMA/backoff regime where the per-round call floor dominates)
    batch up to the ceiling.
    """
    if num_rounds <= 1:
        return 1
    avg = entries / num_rounds
    return int(max(1, min(_MAX_ROUND_BATCH, _AUTO_BATCH_TARGET // max(1.0, avg))))


class SpatialGridBackend(PhysicsBackend):
    """SINR physics over a uniform spatial grid with certified pruning.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.  Metric-only (distance matrix)
        construction is not supported: the grid needs coordinates.
    params:
        The :class:`~repro.sinr.model.SINRParameters` of the environment.
    """

    def __init__(self, positions: np.ndarray, params: SINRParameters) -> None:
        super().__init__(params)
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        self._positions = positions.copy()
        self._n = len(positions)
        # Grid state, built lazily (and invalidated by mutations that move
        # nodes outside the current bounding box).
        self._cell: float = 0.0
        self._origin: Optional[np.ndarray] = None
        self._shape: Optional[Tuple[int, int]] = None
        self._cell_of: Optional[np.ndarray] = None
        # Bumped on every mutation of positions / cell assignments; guards
        # the cached listener bucketing (see _bucket_listeners).
        self._grid_version = 0
        self._listener_cache: Optional[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = None
        # Cumulative certification counters (across all queries since
        # construction -- the existing observability contract).
        self._stats = {
            "rounds": 0,
            "listeners": 0,
            "candidates": 0,
            "pruned_signal": 0,
            "pruned_near": 0,
            "exact": 0,
            "near_pairs": 0,
        }
        # Batch counters, reset at the start of every receptions_table call
        # so they describe exactly the last run:
        # rounds_fused + rounds_empty == num_rounds.
        self._batch_stats = {
            "round_batch": 0,
            "batches": 0,
            "rounds_fused": 0,
            "rounds_empty": 0,
            "join_entries": 0,
        }

    # ------------------------------------------------------------------ #
    # Shape accessors and the gain primitive.
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of nodes in the placement."""
        return self._n

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates (read-only view)."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    @property
    def distances(self) -> np.ndarray:
        """Unavailable: materializing the O(n^2) matrix is what this backend avoids."""
        raise ValueError(
            "SpatialGridBackend does not materialize the pairwise-distance matrix; "
            "use distance(a, b) for point queries or the dense backend"
        )

    def distance(self, a: int, b: int) -> float:
        """Distance between nodes ``a`` and ``b`` (computed from positions)."""
        diff = self._positions[a] - self._positions[b]
        return float(np.sqrt(diff[0] * diff[0] + diff[1] * diff[1]))

    def gain_block(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Gain sub-matrix computed straight from positions (dense conventions)."""
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        diff = self._positions[senders][:, None, :] - self._positions[receivers][None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        with np.errstate(divide="ignore"):
            gains = self._params.power / np.power(dist, self._params.alpha)
        gains[senders[:, None] == receivers[None, :]] = 0.0
        gains[np.isinf(gains)] = COLOCATED_GAIN
        return gains

    def grid_info(self) -> Dict[str, object]:
        """Grid geometry, certification counters and batch counters.

        Certification counters (``rounds`` .. ``near_pairs``) are cumulative
        across the backend's lifetime; the batch counters (``round_batch``,
        ``batches``, ``rounds_fused``, ``rounds_empty``, ``join_entries``)
        describe only the most recent :meth:`receptions_table` or
        :meth:`receptions` call and satisfy ``rounds_fused + rounds_empty
        == num_rounds`` for it.  ``kernel_backend`` reports whether the
        compiled (``"numba"``) or pure-NumPy kernels are dispatching.
        """
        self._ensure_grid()
        ncx, ncy = self._shape  # type: ignore[misc]
        info: Dict[str, object] = {
            "cell_size": self._cell,
            "cells_x": ncx,
            "cells_y": ncy,
            "kernel_backend": _kernels.KERNEL_BACKEND,
        }
        info.update(self._stats)
        info.update(self._batch_stats)
        return info

    # ------------------------------------------------------------------ #
    # Grid construction and cell (re-)bucketing.
    # ------------------------------------------------------------------ #

    def _build_grid(self) -> None:
        """Anchor the grid on the current bounding box and bucket every node.

        The cell side starts at ``transmission_range * 17/16`` and doubles
        until the total cell count fits the ``8 n`` budget, so sparse
        mega-areas never materialize empty index structures.  Growing cells
        is always sound: the certificates only rely on the cell side being
        *at least* the starting one.
        """
        pos = self._positions
        mins = pos.min(axis=0)
        span = pos.max(axis=0) - mins
        cell = self._params.transmission_range * _CELL_MARGIN
        budget = max(1024, _CELLS_PER_NODE * self._n)
        while (int(span[0] / cell) + 1) * (int(span[1] / cell) + 1) > budget:
            cell *= 2.0
        self._cell = cell
        self._origin = mins
        self._shape = (int(span[0] / cell) + 1, int(span[1] / cell) + 1)
        self._cell_of = self._cells_for(pos)
        self._grid_version += 1

    def _cells_for(self, xy: np.ndarray) -> np.ndarray:
        """Linearized cell indices of the given coordinates (must be in bounds)."""
        ncx, ncy = self._shape  # type: ignore[misc]
        cx = np.minimum(((xy[:, 0] - self._origin[0]) / self._cell).astype(np.int64), ncx - 1)
        cy = np.minimum(((xy[:, 1] - self._origin[1]) / self._cell).astype(np.int64), ncy - 1)
        return cx * ncy + cy

    def _in_bounds(self, xy: np.ndarray) -> bool:
        """Whether all coordinates fall inside the current grid's bounding box."""
        ncx, ncy = self._shape  # type: ignore[misc]
        rel = xy - self._origin
        return bool(
            np.all(rel >= 0.0)
            and np.all(rel[:, 0] < ncx * self._cell)
            and np.all(rel[:, 1] < ncy * self._cell)
        )

    def _ensure_grid(self) -> None:
        if self._shape is None:
            self._build_grid()

    # ------------------------------------------------------------------ #
    # Incremental placement mutation (cell re-bucketing).
    # ------------------------------------------------------------------ #

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move nodes by re-bucketing them into their new grid cells.

        Movers that stay inside the grid's bounding box cost O(m): their
        cell ids are recomputed and nothing else changes (there are no
        per-pair caches to patch -- gains are always evaluated from
        positions).  A mover leaving the box triggers a full O(n) grid
        rebuild on the next query.  Either way the backend is
        indistinguishable from one freshly built over the new placement.
        """
        indices, new_xy = self._check_moves(self._n, indices, new_xy)
        if not indices.size:
            return
        self._positions[indices] = new_xy
        self._grid_version += 1
        if self._shape is None:
            return
        if self._in_bounds(new_xy):
            self._cell_of[indices] = self._cells_for(new_xy)
        else:
            self._shape = None

    def add_nodes(self, new_xy: np.ndarray) -> None:
        """Append nodes; in-bounds joiners are bucketed into existing cells."""
        new_xy = np.asarray(new_xy, dtype=float).reshape(-1, 2)
        if not len(new_xy):
            return
        self._positions = np.vstack([self._positions, new_xy])
        self._n += len(new_xy)
        self._grid_version += 1
        if self._shape is None:
            return
        if self._in_bounds(new_xy):
            self._cell_of = np.concatenate([self._cell_of, self._cells_for(new_xy)])
        else:
            self._shape = None

    def remove_nodes(self, indices: np.ndarray) -> None:
        """Delete nodes; survivors keep their cells under compacted indices."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if not indices.size:
            return
        if indices.min() < 0 or indices.max() >= self._n:
            raise ValueError("node index out of range")
        keep = np.setdiff1d(np.arange(self._n), indices)
        if not keep.size:
            raise ValueError("cannot remove every node from a backend")
        self._positions = self._positions[keep]
        self._n = len(keep)
        self._grid_version += 1
        if self._shape is not None:
            self._cell_of = self._cell_of[keep]

    # ------------------------------------------------------------------ #
    # The certified batch evaluation.
    # ------------------------------------------------------------------ #

    def _tx_pairs(
        self,
        lcx: np.ndarray,
        lcy: np.ndarray,
        base_key: np.ndarray,
        utile_key: np.ndarray,
        tile_starts: np.ndarray,
        tile_counts: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(listener position, tx-sorted position) pairs over each 3x3 near block.

        ``lcx``/``lcy`` are the listeners' cell coordinates and
        ``base_key`` their composite offsets (``relative round x cell
        count``).  Every (listener, offset) neighbour tile is keyed like
        the occupied transmitter tiles (``utile_key`` sorted, with CSR
        ``tile_starts`` / ``tile_counts`` into the tile-sorted transmitter
        array) and joined against them in one broadcast pass, so a listener
        only meets transmitters of its own round.
        """
        ncx, ncy = self._shape  # type: ignore[misc]
        tx_ = lcx[:, None] + _NEAR_OFFSETS[:, 0][None, :]
        ty_ = lcy[:, None] + _NEAR_OFFSETS[:, 1][None, :]
        ok = (tx_ >= 0) & (tx_ < ncx) & (ty_ >= 0) & (ty_ < ncy)
        lidx = np.broadcast_to(
            np.arange(lcx.size, dtype=np.int64)[:, None], tx_.shape
        )[ok]
        tiles = tx_[ok] * ncy + ty_[ok] + base_key[lidx]
        pos = np.minimum(np.searchsorted(utile_key, tiles), utile_key.size - 1)
        hit = utile_key[pos] == tiles
        pos = pos[hit]
        if not pos.size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        counts = tile_counts[pos]
        return np.repeat(lidx[hit], counts), _csr_take(tile_starts[pos], counts)

    def _exact_eval_segments(
        self,
        tx_pool: np.ndarray,
        seg_starts: np.ndarray,
        seg_counts: np.ndarray,
        rx_nodes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact (total power, best gain, best sender node) per candidate.

        Candidate ``i`` (listening at node ``rx_nodes[i]``) is evaluated
        against the transmitter nodes ``tx_pool[seg_starts[i] :
        seg_starts[i] + seg_counts[i]]`` -- its round's transmitters in
        schedule order, so the strongest-tie break (first transmitter in
        round order, via :func:`segment_strongest`) matches the dense
        backend's ``argmax``.  Same gain arithmetic as :meth:`gain_block`;
        transmitters and candidates are disjoint (half-duplex filtering
        upstream), so no self-pair zeroing is needed.  Pair lists are
        chunked only at candidate boundaries and each segment accumulates
        sequentially, so results do not depend on chunking or on how
        candidates from different rounds are batched together.
        """
        u = rx_nodes.size
        totals = np.empty(u)
        best_gain = np.empty(u)
        best_sender = np.empty(u, dtype=np.int64)
        power, alpha = self._params.power, self._params.alpha
        cum = np.cumsum(seg_counts)
        start = 0
        while start < u:
            base = int(cum[start - 1]) if start else 0
            end = int(np.searchsorted(cum, base + _EXACT_BLOCK_ELEMENTS, side="right"))
            end = min(u, max(end, start + 1))
            m = end - start
            pair_cand = np.repeat(np.arange(m, dtype=np.int64), seg_counts[start:end])
            pair_pos = _csr_take(seg_starts[start:end], seg_counts[start:end])
            txy = self._positions[tx_pool[pair_pos]]
            rxy = self._positions[rx_nodes[start:end]][pair_cand]
            dx = txy[:, 0] - rxy[:, 0]
            dy = txy[:, 1] - rxy[:, 1]
            with np.errstate(divide="ignore"):
                gains = power / _kernels.dist_pow(dx * dx + dy * dy, alpha)
            gains[np.isinf(gains)] = COLOCATED_GAIN
            t, g, i = _kernels.segment_strongest(pair_cand, gains, m)
            totals[start:end] = t
            best_gain[start:end] = g
            best_sender[start:end] = tx_pool[pair_pos[i]]
            start = end
        return totals, best_gain, best_sender

    def _bucket_listeners(self, rx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sort the listener pool by cell id: (sorted cells, matching rx-locals).

        Algorithm runs issue many schedule evaluations over the *same*
        listener pool, so the bucketing (an O(|rx| log |rx|) argsort) is
        memoized for the last pool seen.  The cache key includes
        ``_grid_version``, which every placement mutation bumps -- a moved
        node lands in a fresh bucketing, never a stale one (unit-tested via
        ``move_nodes``).
        """
        cached = self._listener_cache
        if (
            cached is not None
            and cached[0] == self._grid_version
            and cached[1].shape == rx.shape
            and np.array_equal(cached[1], rx)
        ):
            return cached[2], cached[3]
        cells = self._cell_of[rx]
        order = np.argsort(cells, kind="stable")
        result = (cells[order], order.astype(np.int64))
        self._listener_cache = (self._grid_version, rx.copy(), result[0], result[1])
        return result

    def _batch_core(
        self,
        t0: int,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        btx: np.ndarray,
        btcell: np.ndarray,
        bround: np.ndarray,
        rx: np.ndarray,
        rx_cells_sorted: np.ndarray,
        rx_local_sorted: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Evaluation of one batch of rounds, from ``t0`` on, through one composite join.

        ``btx``/``btcell``/``bround`` are the batch's transmitters, their
        cell ids and their *relative* round ids, stably sorted by
        ``(round, cell)`` -- slices of the per-schedule composite argsort.
        Every stage is keyed by ``relative round x cell count + tile`` so
        rounds never mix.  Returns ``(absolute round id, rx-local receiver,
        sender, sinr)`` arrays in round-major, receiver-sorted order.
        """
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=float),
        )
        params = self._params
        noise = params.noise
        threshold = params.beta - NUMERIC_TOLERANCE
        stats = self._stats
        ncx, ncy = self._shape  # type: ignore[misc]
        ncells = np.int64(ncx) * np.int64(ncy)

        # Composite (round, tile) bucketing: tkey is already sorted because
        # the batch slice is round-major and cell-sorted within each round.
        tkey = bround * ncells + btcell
        cuts = np.flatnonzero(np.diff(tkey)) + 1
        tile_starts = np.concatenate([[0], cuts]).astype(np.int64)
        utile_key = tkey[tile_starts]
        tile_counts = np.diff(np.concatenate([tile_starts, [tkey.size]]))
        uround, utile = np.divmod(utile_key, ncells)
        ucx, ucy = np.divmod(utile, np.int64(ncy))
        nonempty = int(np.count_nonzero(np.diff(uround))) + 1
        stats["rounds"] += nonempty
        stats["listeners"] += rx.size * nonempty

        # Candidate (round, listener) pairs: unique composite neighbour
        # tiles of the occupied transmitter tiles, joined against the
        # cell-sorted listener pool.  Everyone else has no transmitter in
        # their 3x3 block, so no transmitter is decodable for them.
        nx_ = ucx[:, None] + _NEAR_OFFSETS[:, 0][None, :]
        ny_ = ucy[:, None] + _NEAR_OFFSETS[:, 1][None, :]
        ok = (nx_ >= 0) & (nx_ < ncx) & (ny_ >= 0) & (ny_ < ncy)
        base = np.broadcast_to((uround * ncells)[:, None], nx_.shape)[ok]
        cand_keys = np.unique(base + nx_[ok] * ncy + ny_[ok])
        cround, ctile = np.divmod(cand_keys, ncells)
        lo = np.searchsorted(rx_cells_sorted, ctile, side="left")
        hi = np.searchsorted(rx_cells_sorted, ctile, side="right")
        ccounts = hi - lo
        cand_round = np.repeat(cround, ccounts)
        cand = rx_local_sorted[_csr_take(lo, ccounts)]
        if cand.size:
            # Half-duplex: drop candidates transmitting in their own round,
            # via a sorted composite (round, node) membership probe.
            txnode_key = np.sort(bround * np.int64(self._n) + btx)
            ckey = cand_round * np.int64(self._n) + rx[cand]
            pos = np.minimum(np.searchsorted(txnode_key, ckey), txnode_key.size - 1)
            keep_c = txnode_key[pos] != ckey
            cand = cand[keep_c]
            cand_round = cand_round[keep_c]
        if not cand.size:
            return empty
        stats["candidates"] += cand.size
        cand_nodes = rx[cand]

        # Exact gains over each candidate's own-round 3x3 block.
        lcx, lcy = np.divmod(self._cell_of[cand_nodes], np.int64(ncy))
        pair_l, pair_t = self._tx_pairs(
            lcx, lcy, cand_round * ncells, utile_key, tile_starts, tile_counts
        )
        stats["near_pairs"] += pair_l.size
        self._batch_stats["join_entries"] += pair_l.size
        gains = _kernels.pair_gains(
            self._positions[btx[pair_t]], self._positions[cand_nodes][pair_l],
            params.power, params.alpha, COLOCATED_GAIN,
        )
        near_sum, near_max = _kernels.near_reduce(pair_l, gains, cand.size)

        # Certificate 1 (signal): no gain at the listener clears the solo
        # threshold, so nobody can be decoded there.
        und = np.flatnonzero(near_max >= threshold * noise)
        stats["pruned_signal"] += cand.size - und.size
        # Certificate 2 (near interference): the strongest gain is the near
        # maximum and the near sum lower-bounds the total power.
        ub = near_max[und] / (noise + (near_sum[und] - near_max[und]))
        und = und[ub >= threshold]
        stats["pruned_near"] += ub.size - und.size
        if not und.size:
            return empty

        # Segmented exact evaluation: each survivor against its own round's
        # transmitters in schedule order.
        stats["exact"] += und.size
        abs_round = cand_round[und] + t0
        seg_starts = tx_indptr[abs_round]
        seg_counts = tx_indptr[abs_round + 1] - seg_starts
        totals, best_gain, best_sender = self._exact_eval_segments(
            tx_members, seg_starts, seg_counts, cand_nodes[und]
        )
        best_sinr = best_gain / (noise + (totals - best_gain))
        ok_s = np.flatnonzero(best_sinr >= threshold)
        if not ok_s.size:
            return empty
        sel = und[ok_s]
        recv = cand[sel]
        order = np.argsort(cand_round[sel] * np.int64(rx.size) + recv, kind="stable")
        return (
            cand_round[sel[order]] + t0,
            recv[order],
            best_sender[ok_s[order]],
            best_sinr[ok_s[order]],
        )

    # ------------------------------------------------------------------ #
    # Protocol entry points built on the batch core.
    # ------------------------------------------------------------------ #

    def receptions(
        self,
        transmitters: Sequence[int],
        listeners: Optional[Sequence[int]] = None,
    ) -> Dict[int, Reception]:
        """Per-listener decoded senders for one round: a one-round :meth:`receptions_table`."""
        tx = np.array(list(dict.fromkeys(int(t) for t in transmitters)), dtype=np.int64)
        if not tx.size:
            return {}
        table = self.receptions_table(np.array([0, tx.size], dtype=np.int64), tx, listeners)
        return {
            int(r): Reception(receiver=int(r), sender=int(s), sinr=float(q))
            for r, s, q in zip(table.receivers, table.senders, table.sinr)
        }

    def receptions_table(
        self,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        listeners: Optional[Sequence[int]] = None,
    ) -> DeliveryTable:
        """Columnar schedule evaluation through the batch core.

        The listener pool is bucketed once per call and the transmitter
        table is tile-sorted once with a single composite ``(round, cell)``
        argsort; consecutive rounds are then fused through
        :meth:`_batch_core`, about 4096 schedule entries (at most 64 rounds)
        at a time.  The batch size only amortizes the per-round NumPy call
        floors: results are bit-identical for every partition of the
        schedule.  :meth:`grid_info` reports the batch size and the per-run
        counters.  Semantically identical to the generic chunked path
        (property-tested against the dense backend).
        """
        tx_indptr = np.ascontiguousarray(tx_indptr, dtype=np.int64)
        tx_members = np.ascontiguousarray(tx_members, dtype=np.int64)
        num_rounds = len(tx_indptr) - 1
        rx = self._normalize_listeners(listeners)
        batch = _round_batch(num_rounds, tx_members.size)
        bstats = self._batch_stats
        for key in bstats:
            bstats[key] = 0
        bstats["round_batch"] = batch
        if rx.size == 0 or num_rounds == 0 or len(tx_members) == 0:
            bstats["rounds_empty"] = num_rounds
            return _empty_table(num_rounds)
        self._ensure_grid()
        cells_sorted, locals_sorted = self._bucket_listeners(rx)

        # One composite (round, cell) argsort for the whole schedule: every
        # batch's tile-sorted transmitter slice is a slice of this order.
        round_sizes = np.diff(tx_indptr)
        member_round = np.repeat(np.arange(num_rounds, dtype=np.int64), round_sizes)
        ncells = np.int64(self._shape[0]) * np.int64(self._shape[1])  # type: ignore[index]
        member_cells = self._cell_of[tx_members]
        gorder = np.argsort(member_round * ncells + member_cells, kind="stable")
        sorted_members = tx_members[gorder]
        sorted_cells = member_cells[gorder]
        sorted_rounds = member_round[gorder]

        out_rounds: List[np.ndarray] = []
        out_receivers: List[np.ndarray] = []
        out_senders: List[np.ndarray] = []
        out_sinr: List[np.ndarray] = []
        for t0 in range(0, num_rounds, batch):
            t1 = min(num_rounds, t0 + batch)
            lo, hi = int(tx_indptr[t0]), int(tx_indptr[t1])
            span = int(np.count_nonzero(round_sizes[t0:t1]))
            bstats["rounds_empty"] += (t1 - t0) - span
            if lo == hi:
                continue
            bstats["batches"] += 1
            bstats["rounds_fused"] += span
            rounds_abs, recv, send, sinr = self._batch_core(
                t0, tx_indptr, tx_members,
                sorted_members[lo:hi],
                sorted_cells[lo:hi],
                sorted_rounds[lo:hi] - t0,
                rx, cells_sorted, locals_sorted,
            )
            if recv.size:
                out_rounds.append(rounds_abs)
                out_receivers.append(rx[recv])
                out_senders.append(send)
                out_sinr.append(sinr)

        if not out_rounds:
            return _empty_table(num_rounds)
        return DeliveryTable(
            num_rounds=num_rounds,
            round_ids=np.concatenate(out_rounds),
            receivers=np.concatenate(out_receivers),
            senders=np.concatenate(out_senders),
            sinr=np.concatenate(out_sinr),
        )
