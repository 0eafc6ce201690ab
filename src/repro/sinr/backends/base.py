"""The physics-backend protocol: SINR reception evaluation (Equation 1).

A *backend* answers one question -- given a placement, the model parameters
and a set of concurrent transmitters, which listeners decode which message --
while being free to choose its own storage/compute trade-off.  Three backends
ship with the reproduction:

* :class:`~repro.sinr.backends.dense.DenseMatrixBackend` precomputes the full
  ``(n, n)`` received-power (gain) matrix; O(n^2) memory.
* :class:`~repro.sinr.backends.lazy.LazyBlockBackend` computes gain blocks on
  demand from positions with an LRU block cache; O(n) resident memory, which
  unlocks deployments of 100k+ nodes.
* :class:`~repro.sinr.backends.spatial.SpatialGridBackend` buckets nodes on
  a grid and certifies the far field; O(n) memory and sub-quadratic rounds.

The contract is a single primitive, :meth:`PhysicsBackend.gain_block`: the
received-power sub-matrix for arbitrary sender/receiver index arrays.  All
reception logic (:meth:`~PhysicsBackend.receptions` for one round,
:meth:`~PhysicsBackend.receptions_table` for a whole CSR schedule) is
implemented once in this base class on top of it, so every backend is
guaranteed to realize the *same* physics; the dense and spatial backends
override :meth:`~PhysicsBackend.receptions_table` with faster paths, and the
property tests in ``tests/test_backends.py`` and
``tests/test_backend_differential.py`` pin down their equivalence.

Because the SINR threshold ``beta`` exceeds 1, at most one transmitter can be
decoded by any listener per round, and -- since the SINR of a candidate is
monotone increasing in its own gain for a fixed round -- the decoded sender
is always the one with maximal received power.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..model import NUMERIC_TOLERANCE, SINRParameters

#: Gain assigned to co-located *distinct* node pairs (zero distance would give
#: infinite received power).  Deliberately independent of the network size so
#: that incremental mutations (add/remove/move) leave exactly the same values
#: a fresh backend over the new placement would compute; the 2^32 headroom
#: keeps any realistic interference sum finite.
COLOCATED_GAIN = float(np.finfo(float).max / 2**32)


@dataclass(frozen=True)
class Reception:
    """Outcome of one listener in one round."""

    receiver: int
    sender: int
    sinr: float


@dataclass(frozen=True)
class DeliveryTable:
    """Columnar outcome of a whole schedule: one row per successful reception.

    The arrays are index-aligned and sorted by ``round_ids`` (round-major);
    within a round, receivers appear in listener-array order.  This is the
    native output of :meth:`PhysicsBackend.receptions_table` and what the
    simulator's columnar schedule path consumes directly -- no per-round
    Python containers.
    """

    num_rounds: int
    round_ids: np.ndarray
    receivers: np.ndarray
    senders: np.ndarray
    sinr: np.ndarray

    def __len__(self) -> int:
        return len(self.round_ids)


def _empty_table(num_rounds: int) -> DeliveryTable:
    return DeliveryTable(
        num_rounds=num_rounds,
        round_ids=np.empty(0, dtype=np.int64),
        receivers=np.empty(0, dtype=np.int64),
        senders=np.empty(0, dtype=np.int64),
        sinr=np.empty(0, dtype=float),
    )


class PhysicsBackend(ABC):
    """Abstract SINR physics backend over a fixed ``n``-node placement.

    Subclasses implement :meth:`gain_block` (and the shape accessors); the
    reception semantics live here so all backends agree exactly.
    """

    #: Soft cap on the number of gain-matrix elements materialized at once by
    #: :meth:`receptions_table` (rows x listeners per chunk); keeps peak
    #: memory bounded even for long schedules over large deployments.
    _BATCH_BLOCK_ELEMENTS = 4_000_000

    #: Value rules for constructor options, keyed by keyword: each function
    #: normalizes a value or raises ``ValueError``.  The constructor runs
    #: them, and :func:`repro.api.validate_spec` runs them on a spec's
    #: ``backend_params`` before anything executes.
    option_checks: Mapping[str, Callable[[object], object]] = {}

    def __init__(self, params: SINRParameters) -> None:
        self._params = params

    # ------------------------------------------------------------------ #
    # Backend primitive and shape accessors.
    # ------------------------------------------------------------------ #

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of nodes in the placement."""

    @abstractmethod
    def gain_block(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Received-power sub-matrix ``G[i, j] = gain(senders[i], receivers[j])``.

        Self-pairs (``senders[i] == receivers[j]``) have gain 0; co-located
        distinct pairs are clamped to a huge finite value (reception from a
        co-located node trivially succeeds when it transmits alone).
        """

    @abstractmethod
    def distance(self, a: int, b: int) -> float:
        """Distance between nodes ``a`` and ``b``."""

    @property
    def params(self) -> SINRParameters:
        """The SINR parameters in force."""
        return self._params

    # ------------------------------------------------------------------ #
    # Incremental placement mutation (dynamic networks).
    # ------------------------------------------------------------------ #

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move the nodes at ``indices`` to coordinates ``new_xy``, in place.

        Backends update only the state the move actually touches (gain
        rows/columns of the moved nodes, cached rank tables, cached rows)
        instead of rebuilding from scratch; after the call the backend is
        indistinguishable from one freshly constructed over the new
        placement (property-tested in ``tests/test_incremental_physics.py``).
        ``indices`` must be duplicate-free.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support incremental position updates"
        )

    def add_nodes(self, new_xy: np.ndarray) -> None:
        """Append nodes at coordinates ``new_xy``; they take the next dense indices."""
        raise NotImplementedError(f"{type(self).__name__} does not support adding nodes")

    def remove_nodes(self, indices: np.ndarray) -> None:
        """Delete the nodes at ``indices``; remaining nodes are re-indexed compactly.

        The surviving nodes keep their relative order, so dense index ``j``
        after the call refers to the ``j``-th surviving node.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support removing nodes")

    @staticmethod
    def _check_moves(size: int, indices: np.ndarray, new_xy: np.ndarray) -> tuple:
        """Validate and normalize an ``update_positions`` request."""
        indices = np.asarray(indices, dtype=np.int64).ravel()
        new_xy = np.asarray(new_xy, dtype=float).reshape(-1, 2)
        if len(indices) != len(new_xy):
            raise ValueError("indices and new_xy must have matching lengths")
        if indices.size:
            if indices.min() < 0 or indices.max() >= size:
                raise ValueError("node index out of range")
            if len(np.unique(indices)) != len(indices):
                raise ValueError("indices must be duplicate-free")
        return indices, new_xy

    # ------------------------------------------------------------------ #
    # Scalar helpers (generic; backends may override with faster paths).
    # ------------------------------------------------------------------ #

    def gain(self, sender: int, receiver: int) -> float:
        """Received power ``P / d(sender, receiver)^alpha``."""
        block = self.gain_block(np.array([sender], dtype=int), np.array([receiver], dtype=int))
        return float(block[0, 0])

    def sinr(self, sender: int, receiver: int, transmitters: Iterable[int]) -> float:
        """SINR of ``sender`` at ``receiver`` for a given transmitter set."""
        transmitters = set(transmitters)
        if sender not in transmitters:
            raise ValueError("sender must be among the transmitters")
        if receiver == sender:
            return 0.0
        signal = self.gain(sender, receiver)
        others = [w for w in transmitters if w not in (sender, receiver)]
        interference = 0.0
        if others:
            block = self.gain_block(np.array(others, dtype=int), np.array([receiver], dtype=int))
            interference = float(block.sum())
        return float(signal / (self._params.noise + interference))

    def interference_at(self, receiver: int, transmitters: Iterable[int]) -> float:
        """Total interference power at ``receiver`` from ``transmitters``."""
        others = [w for w in transmitters if w != receiver]
        if not others:
            return 0.0
        block = self.gain_block(np.array(others, dtype=int), np.array([receiver], dtype=int))
        return float(block.sum())

    def hears_alone(self, sender: int, receiver: int) -> bool:
        """Whether ``receiver`` hears ``sender`` when nobody else transmits."""
        if sender == receiver:
            return False
        return self.gain(sender, receiver) / self._params.noise >= self._params.beta - NUMERIC_TOLERANCE

    # ------------------------------------------------------------------ #
    # Round evaluation (shared by all backends).
    # ------------------------------------------------------------------ #

    def receptions(
        self,
        transmitters: Sequence[int],
        listeners: Optional[Sequence[int]] = None,
    ) -> Dict[int, Reception]:
        """Compute, per listener, the (unique) successfully decoded sender.

        A node that transmits in a round cannot receive in the same round
        (half-duplex radios, as in the paper).  Listeners default to all
        non-transmitting nodes.
        """
        transmitters = list(dict.fromkeys(int(t) for t in transmitters))
        if not transmitters:
            return {}
        tx = np.array(transmitters, dtype=int)
        tx_set = set(transmitters)
        if listeners is None:
            mask = np.ones(self.size, dtype=bool)
            mask[tx] = False
            rx = np.flatnonzero(mask)
        else:
            listener_ids = [int(v) for v in listeners if int(v) not in tx_set]
            if not listener_ids:
                return {}
            rx = np.array(listener_ids, dtype=int)
        if rx.size == 0:
            return {}

        # gains_sub[i, j] = received power at listener rx[j] from transmitter tx[i]
        gains_sub = self.gain_block(tx, rx)
        total_power = gains_sub.sum(axis=0)
        # A candidate's interference is the total received power minus its own
        # contribution, so its SINR is monotone increasing in its own gain:
        # the (unique, since beta > 1) decodable sender is the strongest one.
        best_idx = np.argmax(gains_sub, axis=0)
        best_gain = gains_sub[best_idx, np.arange(len(rx))]
        best_sinr = best_gain / (self._params.noise + (total_power - best_gain))

        result: Dict[int, Reception] = {}
        threshold = self._params.beta
        for j in np.flatnonzero(best_sinr >= threshold - NUMERIC_TOLERANCE):
            receiver = int(rx[j])
            result[receiver] = Reception(
                receiver=receiver, sender=int(tx[best_idx[j]]), sinr=float(best_sinr[j])
            )
        return result

    def _normalize_listeners(self, listeners: Optional[Sequence[int]]) -> np.ndarray:
        """Listener index array: defaults to all nodes, dedups preserving order."""
        if listeners is None:
            return np.arange(self.size)
        if isinstance(listeners, np.ndarray) and listeners.dtype.kind in "iu":
            rx = np.ascontiguousarray(listeners, dtype=np.int64)
            if rx.size > 1 and not np.all(np.diff(rx) > 0):
                # Not strictly increasing: may contain duplicates.  Keep the
                # first occurrence of each listener, in the given order.
                _, first = np.unique(rx, return_index=True)
                if len(first) != len(rx):
                    rx = rx[np.sort(first)]
            return rx
        return np.array(list(dict.fromkeys(int(v) for v in listeners)), dtype=np.int64)

    def receptions_table(
        self,
        tx_indptr: np.ndarray,
        tx_members: np.ndarray,
        listeners: Optional[Sequence[int]] = None,
    ) -> DeliveryTable:
        """Evaluate a whole CSR schedule of transmitter sets, columnarly.

        ``tx_members[tx_indptr[t]:tx_indptr[t + 1]]`` are the transmitter
        indices of round ``t`` (duplicate-free within a round).  The same
        ``listeners`` apply to every round (default: all nodes), except that
        a round's own transmitters never receive (half-duplex).  Semantically
        equivalent to calling :meth:`receptions` once per round -- the
        property tests assert exactly that -- but rounds are evaluated in
        chunked vectorized passes with no per-round Python containers, and
        the result is a single columnar :class:`DeliveryTable`.

        Subclasses may override with a faster representation-specific path
        (see the dense backend's gemm/top-k implementation); the generic
        implementation only relies on :meth:`gain_block`.
        """
        tx_indptr = np.ascontiguousarray(tx_indptr, dtype=np.int64)
        tx_members = np.ascontiguousarray(tx_members, dtype=np.int64)
        num_rounds = len(tx_indptr) - 1
        rx = self._normalize_listeners(listeners)
        if rx.size == 0 or num_rounds == 0 or len(tx_members) == 0:
            return _empty_table(num_rounds)

        noise = self._params.noise
        threshold = self._params.beta - NUMERIC_TOLERANCE
        pos_in_rx = np.full(self.size, -1, dtype=np.int64)
        pos_in_rx[rx] = np.arange(rx.size)

        out_rounds: List[np.ndarray] = []
        out_receivers: List[np.ndarray] = []
        out_senders: List[np.ndarray] = []
        out_sinr: List[np.ndarray] = []

        # Chunk rounds so that (chunk transmitter entries) x (listeners)
        # stays within the block budget; one gain_block call per chunk.
        max_rows = max(1, self._BATCH_BLOCK_ELEMENTS // rx.size)
        counts = np.diff(tx_indptr)
        start = 0
        while start < num_rounds:
            end = start + 1
            taken = int(counts[start])
            while end < num_rounds and taken + counts[end] <= max_rows:
                taken += int(counts[end])
                end += 1
            entries = tx_members[tx_indptr[start] : tx_indptr[end]]
            if entries.size:
                uniq, inv = np.unique(entries, return_inverse=True)
                block = self.gain_block(uniq, rx)
                base = int(tx_indptr[start])
                for t in range(start, end):
                    lo, hi = int(tx_indptr[t]) - base, int(tx_indptr[t + 1]) - base
                    if lo == hi:
                        continue
                    gains_sub = block[inv[lo:hi]]
                    total_power = gains_sub.sum(axis=0)
                    best_gain = gains_sub.max(axis=0)
                    # Strongest transmitter == best SINR (see receptions()).
                    best_sinr = best_gain / (noise + (total_power - best_gain))
                    ok = best_sinr >= threshold
                    # Half-duplex: a round's transmitters never receive in it.
                    tx_slice = entries[lo:hi]
                    own = pos_in_rx[tx_slice]
                    ok[own[own >= 0]] = False
                    picked = np.flatnonzero(ok)
                    if not picked.size:
                        continue
                    winners = gains_sub[:, picked].argmax(axis=0)
                    out_rounds.append(np.full(picked.size, t, dtype=np.int64))
                    out_receivers.append(rx[picked])
                    out_senders.append(tx_slice[winners])
                    out_sinr.append(best_sinr[picked])
            start = end

        if not out_rounds:
            return _empty_table(num_rounds)
        return DeliveryTable(
            num_rounds=num_rounds,
            round_ids=np.concatenate(out_rounds),
            receivers=np.concatenate(out_receivers),
            senders=np.concatenate(out_senders),
            sinr=np.concatenate(out_sinr),
        )
