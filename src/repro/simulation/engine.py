"""The synchronous round-based execution engine.

:class:`SINRSimulator` wraps a :class:`~repro.sinr.network.WirelessNetwork`
and exposes the single primitive the paper's model provides: in each round,
a set of nodes transmits a message each, every other (awake) node listens,
and the SINR inequality (Equation 1) decides who decodes what.  Because the
threshold ``beta`` exceeds one, a listener decodes at most one transmitter
per round, so the result of a round is a partial map ``listener -> message``.

The simulator is *index-native*: wakefulness is a NumPy boolean mask over
dense node indices, transmitter/listener sets are converted to index arrays
once per round, and uid translation of the results is a single fancy-indexing
pass over the network's uid array -- there is no per-``Node`` attribute churn
on the hot path.  On top of the per-round :meth:`SINRSimulator.run_round` it
offers the batched :meth:`SINRSimulator.run_schedule_table`, which evaluates
a whole precomputed columnar transmitter table through one call to the
physics backend's ``receptions_table``; all schedule-driven executions
(:mod:`repro.simulation.schedule`, and through it every deterministic
algorithm in :mod:`repro.core`) go through that path.

Wake-up semantics (non-spontaneous wake-up model): sleeping nodes never
listen -- they are dropped even from an explicitly passed ``listeners``
iterable -- unless ``wake_on_reception`` is set, in which case a sleeping
listener may decode and is *woken by* that first reception in the same round
(a node can never decode while staying asleep).

The engine also keeps the global round counter (protocol complexity is
measured in rounds), a message counter and, optionally, a full
:class:`~repro.simulation.trace.ExecutionTrace` for the figure-style
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..sinr.network import WirelessNetwork
from .messages import Message
from .trace import ExecutionTrace, RoundRecord


@dataclass(frozen=True)
class ScheduleDeliveries:
    """Columnar outcome of a batched schedule execution, in uid space.

    One row per successful reception: ``receiver_uids[i]`` decoded
    ``sender_uids[i]`` in schedule-relative round ``round_ids[i]``.  Rows are
    sorted round-major.  This is what the columnar schedule runners consume.
    """

    num_rounds: int
    round_ids: np.ndarray
    receiver_uids: np.ndarray
    sender_uids: np.ndarray

    def __len__(self) -> int:
        return len(self.round_ids)


class SINRSimulator:
    """Synchronous SINR round executor over a fixed network.

    Parameters
    ----------
    network:
        The network (placement + physics + shared knowledge) to execute on.
    record_trace:
        When true, every round is appended to :attr:`trace` -- useful for the
        per-figure experiments; leave off for the long parameter sweeps.
    """

    def __init__(self, network: WirelessNetwork, record_trace: bool = False) -> None:
        self._network = network
        self._uids = network.uid_array
        # The mask is the authoritative wake state; it is seeded from (and
        # mirrored back to) the Node objects so bookkeeping code that reads
        # ``node.awake`` stays consistent.
        self._awake = np.array([node.awake for node in network.nodes], dtype=bool)
        self._round = 0
        self._messages_sent = 0
        self._messages_delivered = 0
        self._trace: Optional[ExecutionTrace] = ExecutionTrace() if record_trace else None

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #

    @property
    def network(self) -> WirelessNetwork:
        """The underlying network."""
        return self._network

    @property
    def current_round(self) -> int:
        """Number of rounds executed so far."""
        return self._round

    @property
    def messages_sent(self) -> int:
        """Total number of transmissions across all rounds."""
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        """Total number of successful receptions across all rounds."""
        return self._messages_delivered

    @property
    def trace(self) -> Optional[ExecutionTrace]:
        """The execution trace, if recording was enabled."""
        return self._trace

    def reset_counters(self) -> None:
        """Reset the round and message counters (the trace is kept)."""
        self._round = 0
        self._messages_sent = 0
        self._messages_delivered = 0

    # ------------------------------------------------------------------ #
    # Round execution.
    # ------------------------------------------------------------------ #

    def _listener_indices(
        self,
        listeners: Optional[Iterable[int]],
        transmissions: Mapping[int, Message],
        tx_indices: np.ndarray,
        wake_on_reception: bool,
    ) -> np.ndarray:
        """Eligible listener indices for one round (half-duplex, wake model)."""
        if listeners is None:
            mask = self._awake.copy()
            mask[tx_indices] = False
            return np.flatnonzero(mask)
        indices = self._network.indices_of(
            uid for uid in listeners if uid not in transmissions
        )
        if not wake_on_reception:
            # Sleeping nodes never listen (non-spontaneous wake-up model):
            # without wake_on_reception they are dropped even when named
            # explicitly, so a message can never be decoded in secret.
            indices = indices[self._awake[indices]]
        return indices

    def run_round(
        self,
        transmissions: Mapping[int, Message],
        listeners: Optional[Iterable[int]] = None,
        phase: str = "",
        wake_on_reception: bool = False,
    ) -> Dict[int, Message]:
        """Execute one synchronous round.

        Parameters
        ----------
        transmissions:
            Map from transmitting node ID to the message it sends.
        listeners:
            IDs of the nodes that listen this round; defaults to every node
            that is awake and not transmitting.  Transmitting nodes never
            receive (half-duplex), and sleeping nodes are dropped unless
            ``wake_on_reception`` is set.
        phase:
            Free-form label stored in the trace.
        wake_on_reception:
            Allow sleeping nodes named in ``listeners`` to decode; a sleeping
            node that decodes is woken in the same round.  This models radios
            that are powered but dormant (the wake-up channel of global
            broadcast); a node can never decode a message and stay asleep.

        Returns
        -------
        dict
            ``listener ID -> decoded message`` for every listener whose SINR
            constraint was met by some transmitter.
        """
        self._round += 1
        self._messages_sent += len(transmissions)

        if not transmissions:
            if self._trace is not None:
                self._trace.append(RoundRecord(index=self._round, phase=phase, transmitters=(), deliveries={}))
            return {}

        tx_indices = self._network.indices_of(transmissions)
        rx_indices = self._listener_indices(listeners, transmissions, tx_indices, wake_on_reception)

        delivered: Dict[int, Message] = {}
        if rx_indices.size:
            receptions = self._network.physics.receptions(tx_indices, rx_indices)
            uids = self._uids
            woken: List[int] = []
            for listener_index, reception in receptions.items():
                listener_uid = int(uids[listener_index])
                sender_uid = int(uids[reception.sender])
                delivered[listener_uid] = transmissions[sender_uid]
                if wake_on_reception and not self._awake[listener_index]:
                    woken.append(listener_index)
            if woken:
                self._set_awake(woken, True)
        self._messages_delivered += len(delivered)

        if self._trace is not None:
            self._trace.append(
                RoundRecord(
                    index=self._round,
                    phase=phase,
                    transmitters=tuple(sorted(transmissions)),
                    deliveries={uid: msg.sender for uid, msg in delivered.items()},
                )
            )
        return delivered

    def run_schedule_table(
        self,
        num_rounds: int,
        tx_round_ids: np.ndarray,
        tx_uids: np.ndarray,
        listeners: Optional[Iterable[int]] = None,
        phase: str = "",
        wake_on_reception: bool = False,
    ) -> ScheduleDeliveries:
        """Execute a precomputed columnar transmitter table as one batch.

        ``tx_round_ids`` / ``tx_uids`` are parallel arrays, sorted round-major
        with no duplicate uid within a round: entry ``i`` says node
        ``tx_uids[i]`` transmits in relative round ``tx_round_ids[i]``; a
        round with no entry is a charged-but-silent round, as in a faithful
        execution.  The listener semantics per round are exactly those of
        :meth:`run_round` -- same defaults, same half-duplex exclusion, same
        sleeping/wake rules -- but the physics of all rounds is evaluated in
        one call to the backend's ``receptions_table``.  Batching is exact,
        not an approximation: transmitter sets are fixed in advance and a
        round's outcome never depends on earlier listeners' outcomes, so the
        batch and the round-by-round loop produce identical results,
        counters and trace records.

        Returns the deliveries as a columnar :class:`ScheduleDeliveries`
        table.  Messages are not threaded through this API; callers attach
        them per sender (see :mod:`repro.simulation.schedule`).
        """
        tx_round_ids = np.ascontiguousarray(tx_round_ids, dtype=np.int64)
        tx_uids = np.ascontiguousarray(tx_uids, dtype=np.int64)
        network = self._network
        tx_indices = network.indices_of_array(tx_uids)
        indptr = np.searchsorted(tx_round_ids, np.arange(num_rounds + 1))

        # The eligible listener pool is round-independent: waking (the only
        # mid-schedule state change) can only happen under wake_on_reception,
        # in which case sleeping listeners are eligible anyway; per-round
        # transmitters are excluded inside the batch.
        if listeners is None:
            rx_candidates = np.flatnonzero(self._awake)
        else:
            rx_candidates = network.indices_of(listeners)
            if not wake_on_reception:
                rx_candidates = rx_candidates[self._awake[rx_candidates]]

        table = network.physics.receptions_table(indptr, tx_indices, listeners=rx_candidates)

        if wake_on_reception and len(table):
            asleep = np.unique(table.receivers[~self._awake[table.receivers]])
            if asleep.size:
                self._set_awake(asleep.tolist(), True)

        uids = self._uids
        receiver_uids = uids[table.receivers]
        sender_uids = uids[table.senders]
        self._messages_sent += len(tx_uids)
        self._messages_delivered += len(table)

        if self._trace is None:
            self._round += num_rounds
        else:
            bounds = np.searchsorted(table.round_ids, np.arange(num_rounds + 1))
            pending_silent = 0
            for t in range(num_rounds):
                if indptr[t] == indptr[t + 1]:
                    self._round += 1
                    pending_silent += 1
                    continue
                if pending_silent:
                    self._trace.append(
                        RoundRecord(
                            index=self._round, phase=phase, transmitters=(), deliveries={}, skipped=pending_silent
                        )
                    )
                    pending_silent = 0
                self._round += 1
                lo, hi = bounds[t], bounds[t + 1]
                self._trace.append(
                    RoundRecord(
                        index=self._round,
                        phase=phase,
                        transmitters=tuple(sorted(tx_uids[indptr[t] : indptr[t + 1]].tolist())),
                        deliveries={
                            int(r): int(s)
                            for r, s in zip(receiver_uids[lo:hi], sender_uids[lo:hi])
                        },
                    )
                )
            if pending_silent:
                self._trace.append(
                    RoundRecord(index=self._round, phase=phase, transmitters=(), deliveries={}, skipped=pending_silent)
                )
        return ScheduleDeliveries(
            num_rounds=num_rounds,
            round_ids=table.round_ids,
            receiver_uids=receiver_uids,
            sender_uids=sender_uids,
        )

    def run_silent_rounds(self, count: int, phase: str = "idle") -> None:
        """Advance the round counter by ``count`` rounds with no transmissions.

        Algorithms that synchronize on a global round counter sometimes need
        to "wait out" the remainder of a schedule; the simulator accounts for
        those rounds without paying the cost of evaluating empty rounds.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self._round += count
        if self._trace is not None and count > 0:
            self._trace.append(
                RoundRecord(index=self._round, phase=phase, transmitters=(), deliveries={}, skipped=count)
            )

    # ------------------------------------------------------------------ #
    # Wakefulness helpers (non-spontaneous wake-up model).
    # ------------------------------------------------------------------ #

    def _set_awake(self, indices: Sequence[int], value: bool) -> None:
        """Flip wake state on the mask and mirror it onto the Node objects."""
        self._awake[indices] = value
        nodes = self._network.nodes
        for index in indices:
            nodes[index].awake = value

    def sleeping_nodes(self) -> List[int]:
        """IDs of nodes that are currently asleep."""
        return [int(uid) for uid in self._uids[~self._awake]]

    def awake_nodes(self) -> List[int]:
        """IDs of nodes that are currently awake."""
        return [int(uid) for uid in self._uids[self._awake]]

    def put_all_to_sleep(self, except_for: Iterable[int] = ()) -> None:
        """Mark every node asleep except the given ones (global broadcast setup)."""
        keep = self._network.indices_of(except_for)
        mask = np.zeros(len(self._awake), dtype=bool)
        mask[keep] = True
        self._awake = mask
        for node, awake in zip(self._network.nodes, mask):
            node.awake = bool(awake)

    def wake(self, uids: Iterable[int]) -> None:
        """Mark the given nodes awake."""
        self._set_awake(self._network.indices_of(uids), True)

    def is_awake(self, uid: int) -> bool:
        """Whether node ``uid`` is awake."""
        return bool(self._awake[self._network.index_of(uid)])
