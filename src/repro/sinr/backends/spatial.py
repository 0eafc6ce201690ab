"""Spatially-indexed physics backend: certified near/far interference split.

Both historical backends charge every listener for all ``n`` potential
interferers each round -- dense through an O(n^2) gain matrix, lazy through
on-demand full rows.  Physical SINR gain decays polynomially with distance
(``P / d^alpha``, ``alpha > 2``), so almost all of that work goes into
contributions that cannot change any reception decision.  This backend
exploits that structure without ever approximating a result:

* Positions are bucketed into a **uniform grid** whose cell side is derived
  from the model's transmission range (and therefore from the path-loss
  exponent): any transmitter outside the 3x3 cell block around a listener
  is provably too far to be decoded on its own.
* Each round, only listeners with a transmitter in their 3x3 block are
  *candidates*; everyone else is **certified-rejected** by the signal upper
  bound alone.  Per-round cost is thus O(active area), independent of
  ``n``.
* A candidate's SINR denominator is split into an **exact near-field sum**
  over the cells within the current ring and a **far-field lower bound**
  aggregated per occupied tile (tile transmit power over the tile's
  farthest-corner distance).  A ring-expansion loop widens the exact region
  ring by ring, re-testing a certified rejection bound each time.
* Listeners whose decision the bounds cannot certify -- in practice the
  actual receivers plus a thin threshold-marginal shell -- **fall back to
  exact summation** over the full transmitter set, evaluated with the same
  formulas as the dense backend.

The certificates are one-sided and sound: a listener is only dropped when
an *upper bound* on its best achievable SINR is below ``beta -
NUMERIC_TOLERANCE`` (exactly the dense backend's acceptance threshold), and
every listener that survives the bounds is evaluated exactly.  Delivered
events -- receiver, decoded sender and reported SINR -- therefore match the
dense backend event for event (up to the usual last-ulp float-summation
differences between backends); ``tests/test_spatial_backend.py`` pins the
equivalence on randomized deployments, including incremental mutations.

The per-round hot loops (pair gains, near-field segment reduction, exact
strongest-transmitter resolution) run through the optional compiled kernels
of :mod:`repro.sinr.backends._kernels` (Numba ``@njit`` when available,
pure NumPy otherwise).

**The batched round driver.**  A full algorithm execution issues ~10^5
schedule rounds, and at 100k+ nodes each round's *physics* is cheap -- the
cost floor is the fixed NumPy call overhead per round (argsort /
searchsorted / unique on small arrays).  :meth:`receptions_table` therefore
fuses up to ``round_batch`` consecutive CSR rounds into one composite-keyed
evaluation (:meth:`_batch_core`): transmitters are keyed by ``round x
tile``, candidates become unique ``(round, listener)`` pairs, and every
stage -- the 3x3 join, the ring shells, the grouped far-field bound and the
segmented exact fallback -- runs once per batch instead of once per round.
The batched and per-round paths share the same grouped reduction helpers
(sequential per-segment accumulation, chunked only at segment boundaries),
which makes them **bit-identical**: fusing rounds changes neither events
nor reported SINR values, and splitting a schedule at any round boundary is
associative.  ``tests/test_backend_differential.py`` pins both properties
across backends, schedule families, batch sizes and kernel variants.

Soundness of the certificates (all bounds are cell-rectangle bounds, valid
for any point positions inside the cells):

* two nodes in tiles at Chebyshev tile-distance ``c >= 1`` are at least
  ``(c - 1) * cell`` apart, hence any transmitter outside a listener's
  ring-``r`` block contributes gain at most ``P / ((r - 1) * cell)^alpha``
  (for ``r >= 2``) and, outside the 3x3 block, at most the constant
  ``P / cell^alpha`` -- which the constructor guarantees is below the
  solo-decoding threshold ``(beta - NUMERIC_TOLERANCE) * noise``;
* a far tile at tile offset ``(di, dj)`` holds its ``m`` transmitters
  within ``hypot(di + 1, dj + 1) * cell`` of every point of the listener's
  cell, so ``m * P / d_max^alpha`` lower-bounds its true interference
  contribution;
* consequently, for any candidate with near-field maximum ``g``, the true
  SINR is at most ``g / (noise + near_sum + far_lower - g)`` -- the
  quantity the ring loop drives below threshold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model import NUMERIC_TOLERANCE, SINRParameters
from . import _kernels
from .base import COLOCATED_GAIN, DeliveryTable, PhysicsBackend, Reception, _empty_table

#: Default cell side, as a multiple of the transmission range.  The margin
#: over 1.0 guarantees that any transmitter beyond the 3x3 near block (at
#: distance >= cell) is strictly below the solo-decoding threshold, so the
#: signal-only rejection certificate is sound.
_CELL_MARGIN = 1.0 + 1.0 / 16.0

#: Hard floor on the cell side (relative to the transmission range) below
#: which the signal certificate would no longer clear ``NUMERIC_TOLERANCE``.
_MIN_CELL_FACTOR = 1.0 + 1e-6

#: Bound on the total number of grid cells, as a multiple of ``n``.  Very
#: sparse bounding boxes (a handful of nodes spread over a huge area) grow
#: the cell side instead of materializing an empty mega-grid; larger cells
#: only loosen performance, never correctness.
_CELLS_PER_NODE = 8

#: Soft cap on (listeners x occupied tiles) elements materialized at once
#: by the far-field aggregation (chunked beyond this).
_FAR_BLOCK_ELEMENTS = 4_000_000

#: Target number of schedule entries (transmitter slots) per fused batch
#: under ``round_batch="auto"``: enough to amortize the per-call NumPy
#: floors, small enough that the composite join temporaries stay cache-warm.
_AUTO_BATCH_TARGET = 4096

#: Ceiling on the fused batch size (``"auto"`` never exceeds it; explicit
#: integers may).  Keeps composite keys comfortably inside int64 and the
#: per-batch candidate set bounded on sparse schedules.
_MAX_ROUND_BATCH = 64


def _csr_take(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + counts[i])`` ranges."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


def _validate_round_batch(value: object) -> object:
    """Normalize a ``round_batch`` knob value to ``"auto"`` or an int >= 1."""
    if isinstance(value, str):
        if value == "auto":
            return "auto"
        raise ValueError(f"round_batch must be an int >= 1 or 'auto', got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"round_batch must be an int >= 1 or 'auto', got {value!r}")
    if value < 1:
        raise ValueError(f"round_batch must be an int >= 1 or 'auto', got {value!r}")
    return int(value)


class SpatialGridBackend(PhysicsBackend):
    """SINR physics over a uniform spatial grid with certified far-field bounds.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.  Metric-only (distance matrix)
        construction is not supported: the grid needs coordinates.
    params:
        The :class:`~repro.sinr.model.SINRParameters` of the environment.
    cell_size:
        Side of the grid cells.  Defaults to ``transmission_range * 17/16``;
        must be at least ``transmission_range * (1 + 1e-6)`` so the
        out-of-block signal certificate stays sound (a :class:`ValueError`
        guards the floor).  The constructor may *grow* the cell beyond the
        request to keep the total cell count within ``8 n``.
    max_ring:
        Number of exact near-field rings the certification loop expands
        through before falling back to exact summation (>= 1; default 2,
        i.e. a 5x5 exact block at the widest).
    round_batch:
        Default number of consecutive schedule rounds
        :meth:`receptions_table` fuses into one composite-keyed evaluation:
        an ``int >= 1`` or ``"auto"`` (the default), which sizes batches to
        ~4096 schedule entries, capped at 64 rounds.  Purely a performance
        knob -- results are bit-identical for every value (``1`` disables
        fusing and runs the per-round core).
    """

    option_checks = {"round_batch": _validate_round_batch}

    def __init__(
        self,
        positions: np.ndarray,
        params: SINRParameters,
        cell_size: Optional[float] = None,
        max_ring: int = 2,
        round_batch: object = "auto",
    ) -> None:
        super().__init__(params)
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        if max_ring < 1:
            raise ValueError(f"max_ring must be at least 1, got {max_ring}")
        floor = params.transmission_range * _MIN_CELL_FACTOR
        if cell_size is None:
            cell_size = params.transmission_range * _CELL_MARGIN
        elif cell_size < floor:
            raise ValueError(
                f"cell_size {cell_size!r} is below the certified minimum {floor!r} "
                "(transmitters outside the 3x3 near block could still be decodable)"
            )
        self._positions = positions.copy()
        self._n = len(positions)
        self._base_cell = float(cell_size)
        self._max_ring = int(max_ring)
        self._round_batch = _validate_round_batch(round_batch)
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
            "pruned_far": 0,
            "exact": 0,
            "near_pairs": 0,
        }
        # Batch-driver counters, reset at the start of every
        # receptions_table call so they describe exactly the last run:
        # rounds_fused + rounds_single + rounds_empty == num_rounds.
        self._batch_stats = {
            "round_batch": 0,
            "batches": 0,
            "rounds_fused": 0,
            "rounds_single": 0,
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
        """Grid geometry, certification counters and batch-driver counters.

        Certification counters (``rounds`` .. ``near_pairs``) are cumulative
        across the backend's lifetime; the batch counters (``round_batch``,
        ``batches``, ``rounds_fused``, ``rounds_single``, ``rounds_empty``,
        ``join_entries``) describe only the most recent
        :meth:`receptions_table` call and satisfy ``rounds_fused +
        rounds_single + rounds_empty == num_rounds`` for that call.
        ``kernel_backend`` reports whether the compiled (``"numba"``) or
        pure-NumPy kernels are dispatching.
        """
        self._ensure_grid()
        ncx, ncy = self._shape  # type: ignore[misc]
        info: Dict[str, object] = {
            "cell_size": self._cell,
            "cells_x": ncx,
            "cells_y": ncy,
            "max_ring": self._max_ring,
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

        The cell side starts at the configured base and doubles until the
        total cell count fits the ``8 n`` budget, so sparse mega-areas never
        materialize empty index structures.  Growing cells is always sound:
        every certificate only relies on the cell side being *at least* the
        certified minimum.
        """
        pos = self._positions
        mins = pos.min(axis=0)
        span = pos.max(axis=0) - mins
        cell = self._base_cell
        budget = max(1024, _CELLS_PER_NODE * self._n)
        while (int(span[0] / cell) + 1) * (int(span[1] / cell) + 1) > budget:
            cell *= 2.0
        self._cell = cell
        self._origin = mins
        ncx = int(span[0] / cell) + 1
        ncy = int(span[1] / cell) + 1
        self._shape = (ncx, ncy)
        self._cell_of = self._cells_for(pos)
        self._grid_version += 1
        # Per-tile-offset far-field contribution: gain at the farthest-corner
        # distance of a tile |di|, |dj| cells away.  One table per grid, so
        # the far bound is pure gathers (no transcendental per pair).
        with np.errstate(divide="ignore"):
            self._far_gain = self._params.power / np.power(
                np.hypot(
                    np.arange(1, ncx + 1, dtype=float)[:, None],
                    np.arange(1, ncy + 1, dtype=float)[None, :],
                )
                * cell,
                self._params.alpha,
            )

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
    # The certified round evaluation.
    # ------------------------------------------------------------------ #

    def _tx_pairs(
        self,
        lcx: np.ndarray,
        lcy: np.ndarray,
        offsets: np.ndarray,
        utiles: np.ndarray,
        tile_starts: np.ndarray,
        tile_counts: np.ndarray,
        base_key: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(listener position, tx-sorted position) pairs for the given tile offsets.

        ``lcx``/``lcy`` are the listeners' cell coordinates; ``offsets`` is
        an ``(m, 2)`` int array of tile offsets.  Every (listener, offset)
        neighbour tile is joined against the occupied transmitter tiles
        (``utiles`` sorted, with CSR ``tile_starts`` / ``tile_counts`` into
        the tile-sorted transmitter array) in one broadcast pass -- this
        runs tens of thousands of times per local-broadcast execution, so
        no Python loop over offsets.

        When ``base_key`` is given (the batched driver), it is a
        per-listener composite offset -- ``relative round x cell count`` --
        added to each neighbour tile id, and ``utiles`` holds matching
        composite ``(round, tile)`` keys: the same join then matches only
        transmitter tiles of the listener's own round.
        """
        ncx, ncy = self._shape  # type: ignore[misc]
        tx_ = lcx[:, None] + offsets[:, 0][None, :]
        ty_ = lcy[:, None] + offsets[:, 1][None, :]
        ok = (tx_ >= 0) & (tx_ < ncx) & (ty_ >= 0) & (ty_ < ncy)
        lidx = np.broadcast_to(
            np.arange(lcx.size, dtype=np.int64)[:, None], tx_.shape
        )[ok]
        tiles = tx_[ok] * ncy + ty_[ok]
        if base_key is not None:
            tiles = tiles + base_key[lidx]
        pos = np.minimum(np.searchsorted(utiles, tiles), utiles.size - 1)
        hit = utiles[pos] == tiles
        pos = pos[hit]
        if not pos.size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        counts = tile_counts[pos]
        return np.repeat(lidx[hit], counts), _csr_take(tile_starts[pos], counts)

    @staticmethod
    def _ring_offsets(r: int) -> List[Tuple[int, int]]:
        """Tile offsets at Chebyshev distance exactly ``r`` (the ring shell)."""
        if r == 0:
            return [(0, 0)]
        ring = []
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                if max(abs(dx), abs(dy)) == r:
                    ring.append((dx, dy))
        return ring

    _offset_cache: Dict[Tuple[str, int], np.ndarray] = {}

    @classmethod
    def _shell_arr(cls, r: int) -> np.ndarray:
        """``_ring_offsets(r)`` as a cached ``(m, 2)`` int64 array."""
        key = ("shell", r)
        if key not in cls._offset_cache:
            cls._offset_cache[key] = np.asarray(cls._ring_offsets(r), dtype=np.int64)
        return cls._offset_cache[key]

    @classmethod
    def _block_arr(cls, r: int) -> np.ndarray:
        """All offsets with Chebyshev distance ``<= r``, cached."""
        key = ("block", r)
        if key not in cls._offset_cache:
            offs: List[Tuple[int, int]] = []
            for s in range(r + 1):
                offs.extend(cls._ring_offsets(s))
            cls._offset_cache[key] = np.asarray(offs, dtype=np.int64)
        return cls._offset_cache[key]

    def _far_lower_bound(
        self,
        ltile_keys: np.ndarray,
        ucx: np.ndarray,
        ucy: np.ndarray,
        tile_counts: np.ndarray,
        round_tile_ptr: np.ndarray,
        ring: int,
    ) -> np.ndarray:
        """Certified lower bound on far-field interference, per listener.

        Every occupied tile beyond Chebyshev tile-distance ``ring``
        contributes at least ``count * P / d_max^alpha`` where ``d_max`` is
        the farthest-corner distance between the listener's cell and the
        tile -- valid wherever the individual nodes sit inside their cells.

        ``ltile_keys`` are composite ``relative round x cell count + tile``
        keys per listener (plain tile ids in the single-round case, where
        every relative round is 0); ``ucx``/``ucy``/``tile_counts`` describe
        the occupied transmitter tiles in composite order and
        ``round_tile_ptr`` is the CSR pointer from relative round to its
        tile range.  The bound depends on the listener only through its
        ``(round, tile)`` key, so it is evaluated once per unique key -- a
        ragged (query x same-round tiles) join reduced with ``bincount``,
        whose per-query accumulation order is the round's tile order
        regardless of batching or chunk boundaries (chunks split only
        between queries).  That order-stability is what keeps the batched
        and per-round drivers bit-identical.
        """
        ncx, ncy = self._shape  # type: ignore[misc]
        ncells = np.int64(ncx) * np.int64(ncy)
        uniq, inverse = np.unique(ltile_keys, return_inverse=True)
        qround, qtile = np.divmod(uniq, ncells)
        qcx, qcy = np.divmod(qtile, np.int64(ncy))
        counts = round_tile_ptr[qround + 1] - round_tile_ptr[qround]
        q = uniq.size
        per_tile = np.zeros(q)
        cum = np.cumsum(counts)
        start = 0
        while start < q:
            base = int(cum[start - 1]) if start else 0
            end = int(np.searchsorted(cum, base + _FAR_BLOCK_ELEMENTS, side="right"))
            end = min(q, max(end, start + 1))
            m = end - start
            pq = np.repeat(np.arange(m, dtype=np.int64), counts[start:end])
            pt = _csr_take(round_tile_ptr[qround[start:end]], counts[start:end])
            di = np.abs(qcx[start:end][pq] - ucx[pt])
            dj = np.abs(qcy[start:end][pq] - ucy[pt])
            far = (di > ring) | (dj > ring)
            contrib = np.where(far, tile_counts[pt] * self._far_gain[di, dj], 0.0)
            per_tile[start:end] = np.bincount(pq, weights=contrib, minlength=m)
            start = end
        return per_tile[inverse]

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
        sequentially, so results are independent of chunking and of how
        candidates from different rounds are interleaved -- the batched and
        per-round drivers agree bit for bit.
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
            end = int(np.searchsorted(cum, base + _FAR_BLOCK_ELEMENTS, side="right"))
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

    def _round_core(
        self,
        tx: np.ndarray,
        rx: np.ndarray,
        rx_cells_sorted: np.ndarray,
        rx_local_sorted: np.ndarray,
        in_tx: Optional[np.ndarray] = None,
        tx_sorted: Optional[np.ndarray] = None,
        tcell_sorted: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One round: certified pruning, ring expansion, exact fallback.

        ``tx`` is the (duplicate-free) transmitter index array; ``rx`` the
        listener pool, pre-bucketed as ``rx_cells_sorted`` (its cell ids,
        sorted) and ``rx_local_sorted`` (the matching rx-local indices).
        ``in_tx``, when given, is a node-indexed mask excluding the round's
        own transmitters (half-duplex) from the candidate set.
        ``tx_sorted``/``tcell_sorted``, when given, are the round's
        transmitters already stably sorted by cell id (the schedule driver
        derives them from one per-schedule composite argsort instead of
        paying the per-round argsort floor).  Returns the accepted
        ``(rx-local receiver, sender, sinr)`` arrays sorted by rx-local
        index -- the listener-array order the delivery table uses.
        """
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=float),
        )
        params = self._params
        noise = params.noise
        threshold = params.beta - NUMERIC_TOLERANCE
        stats = self._stats
        stats["rounds"] += 1
        stats["listeners"] += rx.size
        _, ncy = self._shape  # type: ignore[misc]

        # Bucket the round's transmitters by tile (unless pre-sorted).
        if tx_sorted is None or tcell_sorted is None:
            tcell = self._cell_of[tx]
            torder = np.argsort(tcell, kind="stable")
            tx_sorted = tx[torder]
            tcell_sorted = tcell[torder]
        cuts = np.flatnonzero(np.diff(tcell_sorted)) + 1
        tile_starts = np.concatenate([[0], cuts]).astype(np.int64)
        utiles = tcell_sorted[tile_starts]
        tile_counts = np.diff(np.concatenate([tile_starts, [tcell_sorted.size]]))
        ucx, ucy = np.divmod(utiles, ncy)

        # Candidate listeners: anyone in a tile Chebyshev-adjacent to an
        # occupied transmitter tile.  Everyone else has no transmitter
        # within the 3x3 near block, so their best achievable signal is
        # below the solo-decoding threshold: certified-rejected for free.
        ncx = self._shape[0]  # type: ignore[index]
        offs = self._block_arr(1)
        nx_ = ucx[:, None] + offs[:, 0][None, :]
        ny_ = ucy[:, None] + offs[:, 1][None, :]
        ok = (nx_ >= 0) & (nx_ < ncx) & (ny_ >= 0) & (ny_ < ncy)
        cand_tiles = np.unique(nx_[ok] * ncy + ny_[ok])
        lo = np.searchsorted(rx_cells_sorted, cand_tiles, side="left")
        hi = np.searchsorted(rx_cells_sorted, cand_tiles, side="right")
        cand = rx_local_sorted[_csr_take(lo, hi - lo)]
        if in_tx is not None and cand.size:
            cand = cand[~in_tx[rx[cand]]]
        if not cand.size:
            return empty
        stats["candidates"] += cand.size

        cand_cells = self._cell_of[rx[cand]]
        lcx, lcy = np.divmod(cand_cells, ncy)
        cand_xy = self._positions[rx[cand]]

        # Ring 1: exact gains over the 3x3 near block.
        pair_l, pair_t = self._tx_pairs(
            lcx, lcy, self._block_arr(1), utiles, tile_starts, tile_counts,
        )
        stats["near_pairs"] += pair_l.size
        gains = _kernels.pair_gains(
            self._positions[tx_sorted[pair_t]], cand_xy[pair_l],
            params.power, params.alpha, COLOCATED_GAIN,
        )
        near_sum, near_max = _kernels.near_reduce(pair_l, gains, cand.size)

        # Certificate 1 (signal): out-of-block gains are below the solo
        # threshold by construction, so listeners whose best near-field
        # gain is too cannot be decoded by anyone.
        und = np.flatnonzero(near_max >= threshold * noise)
        stats["pruned_signal"] += cand.size - und.size
        if not und.size:
            return empty

        # Certificate 2 (near interference): for survivors the global
        # strongest transmitter *is* the near-field maximum, and the exact
        # near sum lower-bounds the total power.
        ub = near_max[und] / (noise + (near_sum[und] - near_max[und]))
        keep = ub >= threshold
        stats["pruned_near"] += und.size - int(keep.sum())
        und = und[keep]

        # Ring expansion: widen the exact region shell by shell, tightening
        # the interference lower bound until the rejection is certified.
        for ring in range(2, self._max_ring + 1):
            if not und.size:
                break
            shell_l, shell_t = self._tx_pairs(
                lcx[und], lcy[und], self._shell_arr(ring),
                utiles, tile_starts, tile_counts,
            )
            if shell_l.size:
                stats["near_pairs"] += shell_l.size
                shell_gains = _kernels.pair_gains(
                    self._positions[tx_sorted[shell_t]], cand_xy[und][shell_l],
                    params.power, params.alpha, COLOCATED_GAIN,
                )
                shell_sum, _ = _kernels.near_reduce(shell_l, shell_gains, und.size)
                near_sum[und] += shell_sum
            ub = near_max[und] / (noise + (near_sum[und] - near_max[und]))
            keep = ub >= threshold
            stats["pruned_near"] += und.size - int(keep.sum())
            und = und[keep]

        # Far-field tile aggregation beyond the widest ring.
        if und.size:
            far_lo = self._far_lower_bound(
                cand_cells[und],
                ucx,
                ucy,
                tile_counts,
                np.array([0, utiles.size], dtype=np.int64),
                self._max_ring,
            )
            ub = near_max[und] / (noise + (near_sum[und] - near_max[und]) + far_lo)
            keep = ub >= threshold
            stats["pruned_far"] += und.size - int(keep.sum())
            und = und[keep]
        if not und.size:
            return empty

        # Exact fallback: full-row evaluation for the rare undecidable
        # listener (and every actual receiver), with the dense formulas.
        stats["exact"] += und.size
        totals, best_gain, best_sender = self._exact_eval_segments(
            tx,
            np.zeros(und.size, dtype=np.int64),
            np.full(und.size, tx.size, dtype=np.int64),
            rx[cand[und]],
        )
        best_sinr = best_gain / (noise + (totals - best_gain))
        ok = np.flatnonzero(best_sinr >= threshold)
        if not ok.size:
            return empty
        receivers = cand[und[ok]]
        order = np.argsort(receivers, kind="stable")
        return (
            receivers[order],
            best_sender[ok[order]],
            best_sinr[ok[order]],
        )

    # ------------------------------------------------------------------ #
    # Protocol entry points built on the certified round core.
    # ------------------------------------------------------------------ #

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

    def receptions(
        self,
        transmitters: Sequence[int],
        listeners: Optional[Sequence[int]] = None,
    ) -> Dict[int, Reception]:
        """Per-listener decoded senders for one round (spatial fast path)."""
        transmitters = list(dict.fromkeys(int(t) for t in transmitters))
        if not transmitters:
            return {}
        tx = np.array(transmitters, dtype=np.int64)
        if listeners is None:
            mask = np.ones(self._n, dtype=bool)
            mask[tx] = False
            rx = np.flatnonzero(mask)
        else:
            tx_set = set(transmitters)
            ids = list(dict.fromkeys(int(v) for v in listeners if int(v) not in tx_set))
            if not ids:
                return {}
            rx = np.array(ids, dtype=np.int64)
        if not rx.size:
            return {}
        self._ensure_grid()
        cells_sorted, locals_sorted = self._bucket_listeners(rx)
        recv, send, sinr = self._round_core(tx, rx, cells_sorted, locals_sorted)
        return {
            int(rx[r]): Reception(receiver=int(rx[r]), sender=int(s), sinr=float(q))
            for r, s, q in zip(recv, send, sinr)
        }

    def _resolve_round_batch(self, tx_indptr: np.ndarray, tx_members: np.ndarray) -> int:
        """Concrete batch size for this run: the knob, or the auto heuristic.

        ``"auto"`` targets ~``_AUTO_BATCH_TARGET`` schedule entries per
        fused batch -- dense rounds batch little (physics already dominates),
        sparse rounds (the TDMA/backoff regime where the per-round call
        floor dominates) batch up to ``_MAX_ROUND_BATCH``.
        """
        if self._round_batch != "auto":
            return int(self._round_batch)
        num_rounds = len(tx_indptr) - 1
        if num_rounds <= 1:
            return 1
        avg = tx_members.size / num_rounds
        return int(max(1, min(_MAX_ROUND_BATCH, _AUTO_BATCH_TARGET // max(1.0, avg))))

    def _batch_core(
        self,
        t0: int,
        t1: int,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        btx: np.ndarray,
        btcell: np.ndarray,
        bround: np.ndarray,
        rx: np.ndarray,
        rx_cells_sorted: np.ndarray,
        rx_local_sorted: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused evaluation of rounds ``[t0, t1)`` through one composite join.

        ``btx``/``btcell``/``bround`` are the batch's transmitters, their
        cell ids and their *relative* round ids, stably sorted by
        ``(round, cell)`` -- slices of the per-schedule composite argsort.
        Every stage of :meth:`_round_core` runs here exactly once for the
        whole batch, keyed by ``relative round x cell count + tile`` so
        rounds never mix; per-listener pair sequences, reduction orders and
        chunk-boundary rules are identical to the per-round core, making
        the fused results bit-identical to running rounds one at a time.
        Returns ``(absolute round id, rx-local receiver, sender, sinr)``
        arrays in round-major, receiver-sorted order.
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
        bstats = self._batch_stats
        ncx, ncy = self._shape  # type: ignore[misc]
        ncells = np.int64(ncx) * np.int64(ncy)
        num_rel = t1 - t0

        # Composite (round, tile) bucketing: tkey is already sorted because
        # the batch slice is round-major and cell-sorted within each round.
        tkey = bround * ncells + btcell
        cuts = np.flatnonzero(np.diff(tkey)) + 1
        tile_starts = np.concatenate([[0], cuts]).astype(np.int64)
        utile_key = tkey[tile_starts]
        tile_counts = np.diff(np.concatenate([tile_starts, [tkey.size]]))
        uround, utile = np.divmod(utile_key, ncells)
        ucx, ucy = np.divmod(utile, np.int64(ncy))
        round_tile_ptr = np.searchsorted(
            uround, np.arange(num_rel + 1, dtype=np.int64), side="left"
        ).astype(np.int64)
        nonempty = int(np.count_nonzero(round_tile_ptr[1:] > round_tile_ptr[:-1]))
        stats["rounds"] += nonempty
        stats["listeners"] += rx.size * nonempty

        # Candidate (round, listener) pairs: unique composite neighbour
        # tiles of the occupied transmitter tiles, joined against the
        # cell-sorted listener pool.  Composite unique keys are round-major
        # and tile-sorted within a round -- exactly the concatenation of the
        # per-round candidate lists.
        offs = self._block_arr(1)
        nx_ = ucx[:, None] + offs[:, 0][None, :]
        ny_ = ucy[:, None] + offs[:, 1][None, :]
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

        cand_cells = self._cell_of[rx[cand]]
        lcx, lcy = np.divmod(cand_cells, np.int64(ncy))
        cand_xy = self._positions[rx[cand]]
        base_key = cand_round * ncells

        # Ring 1: exact gains over each candidate's own-round 3x3 block.
        pair_l, pair_t = self._tx_pairs(
            lcx, lcy, offs, utile_key, tile_starts, tile_counts, base_key=base_key
        )
        stats["near_pairs"] += pair_l.size
        bstats["join_entries"] += pair_l.size
        gains = _kernels.pair_gains(
            self._positions[btx[pair_t]], cand_xy[pair_l],
            params.power, params.alpha, COLOCATED_GAIN,
        )
        near_sum, near_max = _kernels.near_reduce(pair_l, gains, cand.size)

        # Certificate 1 (signal).
        und = np.flatnonzero(near_max >= threshold * noise)
        stats["pruned_signal"] += cand.size - und.size
        if not und.size:
            return empty

        # Certificate 2 (near interference).
        ub = near_max[und] / (noise + (near_sum[und] - near_max[und]))
        keep = ub >= threshold
        stats["pruned_near"] += und.size - int(keep.sum())
        und = und[keep]

        # Ring expansion, shell by shell.
        for ring in range(2, self._max_ring + 1):
            if not und.size:
                break
            shell_l, shell_t = self._tx_pairs(
                lcx[und], lcy[und], self._shell_arr(ring),
                utile_key, tile_starts, tile_counts, base_key=base_key[und],
            )
            if shell_l.size:
                stats["near_pairs"] += shell_l.size
                bstats["join_entries"] += shell_l.size
                shell_gains = _kernels.pair_gains(
                    self._positions[btx[shell_t]], cand_xy[und][shell_l],
                    params.power, params.alpha, COLOCATED_GAIN,
                )
                shell_sum, _ = _kernels.near_reduce(shell_l, shell_gains, und.size)
                near_sum[und] += shell_sum
            ub = near_max[und] / (noise + (near_sum[und] - near_max[und]))
            keep = ub >= threshold
            stats["pruned_near"] += und.size - int(keep.sum())
            und = und[keep]

        # Far-field tile aggregation beyond the widest ring, grouped per
        # (round, listener tile).
        if und.size:
            far_lo = self._far_lower_bound(
                base_key[und] + cand_cells[und],
                ucx, ucy, tile_counts, round_tile_ptr, self._max_ring,
            )
            ub = near_max[und] / (noise + (near_sum[und] - near_max[und]) + far_lo)
            keep = ub >= threshold
            stats["pruned_far"] += und.size - int(keep.sum())
            und = und[keep]
        if not und.size:
            return empty

        # Segmented exact fallback: each survivor against its own round's
        # transmitters in schedule order.
        stats["exact"] += und.size
        abs_round = cand_round[und] + t0
        seg_starts = tx_indptr[abs_round]
        seg_counts = tx_indptr[abs_round + 1] - seg_starts
        totals, best_gain, best_sender = self._exact_eval_segments(
            tx_members, seg_starts, seg_counts, rx[cand[und]]
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

    def receptions_table(
        self,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        listeners: Optional[Sequence[int]] = None,
    ) -> DeliveryTable:
        """Columnar schedule evaluation through the spatial round core.

        The listener pool is bucketed once per call and the transmitter
        table is tile-sorted once with a single composite ``(round, cell)``
        argsort; consecutive rounds are then fused ``round_batch`` at a time
        through :meth:`_batch_core` (or evaluated one by one through
        :meth:`_round_core` when the resolved batch size is 1).  Results
        are bit-identical for every batch size -- fusing only amortizes the
        per-round NumPy call floors.  :meth:`grid_info` reports the
        resolved size and the per-run fuse counters.  Semantically
        identical to the generic chunked path (property-tested against the
        dense backend).
        """
        tx_indptr = np.ascontiguousarray(tx_indptr, dtype=np.int64)
        tx_members = np.ascontiguousarray(tx_members, dtype=np.int64)
        num_rounds = len(tx_indptr) - 1
        rx = self._normalize_listeners(listeners)
        batch = self._resolve_round_batch(tx_indptr, tx_members)
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
        # round's tile-sorted transmitter slice -- batched or not -- is a
        # slice of this order (stable sort of round-major keys == the
        # concatenation of per-round stable sorts).
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
        if batch <= 1:
            in_tx = np.zeros(self._n, dtype=bool)
            for t in range(num_rounds):
                lo, hi = int(tx_indptr[t]), int(tx_indptr[t + 1])
                if lo == hi:
                    bstats["rounds_empty"] += 1
                    continue
                tx_slice = tx_members[lo:hi]
                in_tx[tx_slice] = True
                recv, send, sinr = self._round_core(
                    tx_slice, rx, cells_sorted, locals_sorted, in_tx,
                    tx_sorted=sorted_members[lo:hi],
                    tcell_sorted=sorted_cells[lo:hi],
                )
                in_tx[tx_slice] = False
                bstats["rounds_single"] += 1
                if recv.size:
                    out_rounds.append(np.full(recv.size, t, dtype=np.int64))
                    out_receivers.append(rx[recv])
                    out_senders.append(send)
                    out_sinr.append(sinr)
        else:
            for t0 in range(0, num_rounds, batch):
                t1 = min(num_rounds, t0 + batch)
                lo, hi = int(tx_indptr[t0]), int(tx_indptr[t1])
                span = np.count_nonzero(round_sizes[t0:t1])
                bstats["rounds_empty"] += (t1 - t0) - int(span)
                if lo == hi:
                    continue
                bstats["batches"] += 1
                bstats["rounds_fused"] += int(span)
                rounds_abs, recv, send, sinr = self._batch_core(
                    t0, t1, tx_indptr, tx_members,
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
