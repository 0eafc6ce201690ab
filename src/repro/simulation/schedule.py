"""Executing transmission schedules against the SINR simulator.

The paper's deterministic protocols are all of the same shape: a globally
known schedule (an ssf, wss or wcss) prescribes, per round, which IDs *may*
transmit; a node actually transmits iff it is participating in the current
sub-protocol and the schedule names it (and, for cluster-aware schedules, its
current cluster).  This module turns a schedule plus a participant set into
actual rounds on the :class:`~repro.simulation.engine.SINRSimulator` and
returns the per-listener reception history that the algorithms consume.

The pipeline is columnar end to end.  The runners intersect the schedule's
CSR member table with a participant lookup mask (one vectorized pass -- no
per-round Python sets), hand the resulting transmitter table straight to
:meth:`~repro.simulation.engine.SINRSimulator.run_schedule_table`, and wrap
the columnar delivery table in a :class:`ScheduleResult`.  The result keeps
receptions as parallel ``round / sender / receiver`` integer arrays; the
historical dict-of-:class:`ReceptionEvent`-lists view (and the ``Message``
objects inside it) is materialized lazily, only for listeners that are
actually inspected.  ``tests/test_columnar_equivalence.py`` asserts the
whole pipeline is event-for-event identical to the legacy per-round set
implementation (kept in :mod:`repro.simulation.reference`).

Rounds in which no participant is scheduled are not evaluated by the physics
backend -- nobody transmits, so nobody can receive -- but they still advance
the round counter, so reported round complexities match a faithful execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..selectors._csr import sorted_lookup
from ..selectors.ssf import TransmissionSchedule
from ..selectors.wcss import ClusterAwareSchedule
from .engine import ScheduleDeliveries, SINRSimulator
from .messages import Message


@dataclass(frozen=True)
class ReceptionEvent:
    """One successful reception during a schedule execution."""

    round_index: int
    sender: int
    message: Message


MessageFactory = Callable[[int], Message]


def _default_message(tag: str) -> MessageFactory:
    def factory(uid: int) -> Message:
        return Message(sender=uid, tag=tag)

    return factory


_EMPTY = np.empty(0, dtype=np.int64)


class ScheduleResult:
    """Outcome of executing a schedule once (columnar reception table).

    The authoritative record is three parallel arrays -- ``round / sender /
    receiver`` per successful reception, round-major -- plus the analogous
    transmission table.  All accessors answer from O(1)-amortized index
    lookups over those arrays; :class:`ReceptionEvent` objects and their
    :class:`~repro.simulation.messages.Message` payloads are created lazily,
    one sender message each, only when a set-era consumer asks for them.
    Because materialization is lazy, the message factory runs at first
    *access*, not at execution time: a factory closing over mutable state
    must snapshot it (see ``broadcast_message`` in
    :mod:`repro.core.global_broadcast`).

    ``receptions[v]`` (lazy dict view) lists, in round order, every message
    node ``v`` decoded together with the schedule-relative round index at
    which it arrived.  ``transmitted_rounds[u]`` (lazy dict view) lists the
    schedule-relative rounds in which participating node ``u`` transmitted.
    """

    def __init__(
        self,
        length: int,
        round_ids: Optional[np.ndarray] = None,
        sender_uids: Optional[np.ndarray] = None,
        receiver_uids: Optional[np.ndarray] = None,
        tx_round_ids: Optional[np.ndarray] = None,
        tx_uids: Optional[np.ndarray] = None,
        message_factory: Optional[MessageFactory] = None,
    ) -> None:
        self.length = int(length)
        self._round_ids = round_ids if round_ids is not None else _EMPTY
        self._sender_uids = sender_uids if sender_uids is not None else _EMPTY
        self._receiver_uids = receiver_uids if receiver_uids is not None else _EMPTY
        self._tx_round_ids = tx_round_ids if tx_round_ids is not None else _EMPTY
        self._tx_uids = tx_uids if tx_uids is not None else _EMPTY
        self._factory = message_factory or _default_message("schedule")
        # Lazy caches.
        self._messages: Dict[int, Message] = {}
        self._by_listener: Optional[Dict[int, np.ndarray]] = None
        self._events: Dict[int, List[ReceptionEvent]] = {}
        self._senders_by_listener: Dict[int, List[int]] = {}
        self._sender_sets: Dict[int, Set[int]] = {}
        self._receptions_view: Optional[Dict[int, List[ReceptionEvent]]] = None
        self._transmitted_view: Optional[Dict[int, List[int]]] = None

    # ------------------------------------------------------------------ #
    # Columnar accessors (what the vectorized consumers use).
    # ------------------------------------------------------------------ #

    def event_table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(round_ids, sender_uids, receiver_uids)`` reception arrays."""
        return self._round_ids, self._sender_uids, self._receiver_uids

    def delivery_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(sender_uids, receiver_uids)`` of every reception event."""
        return self._sender_uids, self._receiver_uids

    def transmitter_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(round_ids, uids)`` of every transmission (round-major)."""
        return self._tx_round_ids, self._tx_uids

    def first_receptions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each listener's first decoded event: ``(receivers, senders, rounds)``.

        "First" is by round order (the table is round-major, and a listener
        decodes at most one message per round).
        """
        receivers, first = np.unique(self._receiver_uids, return_index=True)
        return receivers, self._sender_uids[first], self._round_ids[first]

    # ------------------------------------------------------------------ #
    # Lazy indexes.
    # ------------------------------------------------------------------ #

    def _listener_index(self) -> Dict[int, np.ndarray]:
        """Map listener uid -> indices of its events, in round order."""
        if self._by_listener is None:
            order = np.argsort(self._receiver_uids, kind="stable")
            sorted_receivers = self._receiver_uids[order]
            listeners, starts = np.unique(sorted_receivers, return_index=True)
            bounds = np.append(starts, len(sorted_receivers))
            self._by_listener = {
                int(uid): order[bounds[i] : bounds[i + 1]]
                for i, uid in enumerate(listeners)
            }
        return self._by_listener

    def _message_of(self, sender: int) -> Message:
        message = self._messages.get(sender)
        if message is None:
            message = self._messages[sender] = self._factory(sender)
        return message

    # ------------------------------------------------------------------ #
    # Event-view API (unchanged signatures).
    # ------------------------------------------------------------------ #

    def heard_by(self, listener: int) -> List[ReceptionEvent]:
        """Reception events of ``listener`` (empty list if it heard nothing)."""
        events = self._events.get(listener)
        if events is None:
            indices = self._listener_index().get(listener)
            if indices is None:
                events = []
            else:
                rounds = self._round_ids
                senders = self._sender_uids
                events = [
                    ReceptionEvent(
                        round_index=int(rounds[i]),
                        sender=int(senders[i]),
                        message=self._message_of(int(senders[i])),
                    )
                    for i in indices
                ]
            self._events[listener] = events
        return events

    def senders_heard_by(self, listener: int) -> List[int]:
        """Distinct sender IDs decoded by ``listener``, in first-heard order."""
        cached = self._senders_by_listener.get(listener)
        if cached is None:
            indices = self._listener_index().get(listener)
            seen: Set[int] = set()
            cached = []
            if indices is not None:
                for sender in self._sender_uids[indices].tolist():
                    if sender not in seen:
                        seen.add(sender)
                        cached.append(sender)
            self._senders_by_listener[listener] = cached
            self._sender_sets[listener] = seen
        return cached

    def _heard_set(self, listener: int) -> Set[int]:
        if listener not in self._sender_sets:
            self.senders_heard_by(listener)
        return self._sender_sets[listener]

    def exchanged(self, u: int, v: int) -> bool:
        """Whether ``u`` heard ``v`` and ``v`` heard ``u`` during the execution."""
        return v in self._heard_set(u) and u in self._heard_set(v)

    @property
    def receptions(self) -> Dict[int, List[ReceptionEvent]]:
        """Legacy dict view ``listener -> [ReceptionEvent, ...]`` (lazy, cached)."""
        if self._receptions_view is None:
            self._receptions_view = {
                int(uid): self.heard_by(int(uid)) for uid in self._listener_index()
            }
        return self._receptions_view

    @property
    def transmitted_rounds(self) -> Dict[int, List[int]]:
        """Legacy dict view ``uid -> [round, ...]`` of actual transmissions."""
        if self._transmitted_view is None:
            order = np.argsort(self._tx_uids, kind="stable")
            sorted_uids = self._tx_uids[order]
            uids, starts = np.unique(sorted_uids, return_index=True)
            bounds = np.append(starts, len(sorted_uids))
            rounds = self._tx_round_ids[order]
            self._transmitted_view = {
                int(uid): rounds[bounds[i] : bounds[i + 1]].tolist()
                for i, uid in enumerate(uids)
            }
        return self._transmitted_view


def _from_deliveries(
    deliveries: ScheduleDeliveries,
    length: int,
    tx_round_ids: np.ndarray,
    tx_uids: np.ndarray,
    factory: MessageFactory,
) -> ScheduleResult:
    return ScheduleResult(
        length=length,
        round_ids=deliveries.round_ids,
        sender_uids=deliveries.sender_uids,
        receiver_uids=deliveries.receiver_uids,
        tx_round_ids=tx_round_ids,
        tx_uids=tx_uids,
        message_factory=factory,
    )


def _participant_lookup(participants: Iterable[int], id_space: int) -> np.ndarray:
    """Boolean mask over ``[0, id_space]`` marking the participating uids."""
    mask = np.zeros(id_space + 1, dtype=bool)
    arr = np.fromiter((int(u) for u in participants), dtype=np.int64)
    arr = arr[(arr >= 1) & (arr <= id_space)]
    mask[arr] = True
    return mask


def run_schedule(
    sim: SINRSimulator,
    schedule: TransmissionSchedule,
    participants: Iterable[int],
    message_factory: Optional[MessageFactory] = None,
    listeners: Optional[Iterable[int]] = None,
    phase: str = "schedule",
    wake_on_reception: bool = False,
) -> ScheduleResult:
    """Execute an (unclustered) schedule restricted to ``participants``.

    Parameters
    ----------
    sim:
        The simulator to run on.
    schedule:
        The globally known transmission schedule.
    participants:
        IDs of the nodes taking part in this sub-protocol; only they ever
        transmit.  Non-participants still listen unless ``listeners`` is given.
    message_factory:
        Maps a transmitting node ID to the message it sends (defaults to a
        bare ``Message`` tagged with ``phase``).
    listeners:
        Restrict who listens (default: every awake node).
    wake_on_reception:
        Let sleeping listeners decode and be woken by their first reception
        (see :meth:`~repro.simulation.engine.SINRSimulator.run_round`).
    """
    factory = message_factory or _default_message(phase)
    mask = _participant_lookup(participants, schedule.id_space)
    _, members = schedule.member_table()
    keep = mask[members]
    tx_uids = members[keep]
    tx_round_ids = schedule.family.round_ids()[keep]
    deliveries = sim.run_schedule_table(
        len(schedule),
        tx_round_ids,
        tx_uids,
        listeners=listeners,
        phase=phase,
        wake_on_reception=wake_on_reception,
    )
    return _from_deliveries(deliveries, len(schedule), tx_round_ids, tx_uids, factory)


def run_cluster_schedule(
    sim: SINRSimulator,
    schedule: ClusterAwareSchedule,
    participants: Iterable[int],
    cluster_of: Mapping[int, int],
    message_factory: Optional[MessageFactory] = None,
    listeners: Optional[Iterable[int]] = None,
    phase: str = "wcss",
    wake_on_reception: bool = False,
) -> ScheduleResult:
    """Execute a cluster-aware schedule restricted to ``participants``.

    A participant ``v`` transmits in round ``t`` iff the schedule admits both
    its ID and its current cluster ``cluster_of[v]``.  The cluster gate is
    evaluated as one vectorized membership probe: candidate ``(round,
    cluster)`` keys are binary-searched against the cluster stage's sorted
    CSR keys.
    """
    factory = message_factory or _default_message(phase)
    id_space = schedule.id_space
    mask = _participant_lookup(participants, id_space)
    cluster_arr = np.full(id_space + 1, -1, dtype=np.int64)
    for uid, cluster in cluster_of.items():
        uid = int(uid)
        cluster = int(cluster)
        if 1 <= uid <= id_space and 1 <= cluster <= id_space:
            cluster_arr[uid] = cluster

    _, node_members = schedule.node_table()
    keep = mask[node_members]
    cand_uids = node_members[keep]
    cand_rounds = schedule.node_family.round_ids()[keep]
    cand_clusters = cluster_arr[cand_uids]
    clustered = cand_clusters >= 0
    cand_uids = cand_uids[clustered]
    cand_rounds = cand_rounds[clustered]
    cand_clusters = cand_clusters[clustered]

    # Membership probe: is (round, cluster) admitted by the cluster stage?
    stride = id_space + 2
    cluster_keys = (
        schedule.cluster_family.round_ids() * stride + schedule.cluster_family.members
    )
    probe_keys = cand_rounds * stride + cand_clusters
    admitted, _ = sorted_lookup(cluster_keys, probe_keys)
    tx_uids = cand_uids[admitted]
    tx_round_ids = cand_rounds[admitted]

    deliveries = sim.run_schedule_table(
        len(schedule),
        tx_round_ids,
        tx_uids,
        listeners=listeners,
        phase=phase,
        wake_on_reception=wake_on_reception,
    )
    return _from_deliveries(deliveries, len(schedule), tx_round_ids, tx_uids, factory)


def run_round_robin(
    sim: SINRSimulator,
    participants: Sequence[int],
    message_factory: Optional[MessageFactory] = None,
    listeners: Optional[Iterable[int]] = None,
    phase: str = "round-robin",
    wake_on_reception: bool = False,
) -> ScheduleResult:
    """Execute one round per participant, in increasing ID order.

    The trivial collision-free schedule; used by the TDMA baseline and by the
    lower-bound experiments where an exact, interference-free reference is
    needed.
    """
    factory = message_factory or _default_message(phase)
    tx_uids = np.unique(np.fromiter((int(u) for u in participants), dtype=np.int64))
    tx_round_ids = np.arange(len(tx_uids), dtype=np.int64)
    deliveries = sim.run_schedule_table(
        len(tx_uids),
        tx_round_ids,
        tx_uids,
        listeners=listeners,
        phase=phase,
        wake_on_reception=wake_on_reception,
    )
    return _from_deliveries(deliveries, len(tx_uids), tx_round_ids, tx_uids, factory)
