"""Reference (pre-columnar) schedule execution, kept for equivalence testing.

This module preserves, verbatim in behaviour, the historical set-based
schedule pipeline: per-round transmitter sets built with Python set
intersections, a dict-of-event-lists result object, and the O(candidates x
rounds) proximity-graph filtering loop.  It exists for two reasons:

* the property tests (``tests/test_columnar_equivalence.py``) assert that the
  columnar pipeline in :mod:`repro.simulation.schedule` and
  :mod:`repro.core.proximity` is event-for-event identical to this
  implementation on randomized deployments;
* ``benchmarks/bench_schedule_pipeline.py`` times it as the "before" leg of
  the columnar-pipeline speedup trajectory.

It is *not* part of the production path and intentionally keeps the original
quadratic ``senders_heard_by`` and the per-round set building.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from ..selectors._csr import RoundFamily
from ..selectors.ssf import TransmissionSchedule
from ..selectors.wcss import ClusterAwareSchedule
from .engine import SINRSimulator
from .messages import Message
from .schedule import MessageFactory, ReceptionEvent, _default_message


@dataclass
class ReferenceScheduleResult:
    """The historical dict-of-event-lists schedule outcome."""

    length: int
    receptions: Dict[int, List[ReceptionEvent]] = field(default_factory=dict)
    transmitted_rounds: Dict[int, List[int]] = field(default_factory=dict)

    def heard_by(self, listener: int) -> List[ReceptionEvent]:
        """Reception events of ``listener`` (empty list if it heard nothing)."""
        return self.receptions.get(listener, [])

    def senders_heard_by(self, listener: int) -> List[int]:
        """Distinct sender IDs decoded by ``listener``, in first-heard order.

        Deliberately the original O(events^2) list-membership scan.
        """
        seen: List[int] = []
        for event in self.receptions.get(listener, []):
            if event.sender not in seen:
                seen.append(event.sender)
        return seen

    def exchanged(self, u: int, v: int) -> bool:
        """Whether ``u`` heard ``v`` and ``v`` heard ``u`` during the execution."""
        return v in self.senders_heard_by(u) and u in self.senders_heard_by(v)


def _execute_rounds_reference(
    sim: SINRSimulator,
    round_transmitters: Sequence[Set[int]],
    schedule_length: int,
    factory: MessageFactory,
    listeners: Optional[Iterable[int]],
    phase: str,
    wake_on_reception: bool,
) -> ReferenceScheduleResult:
    """Run precomputed per-round transmitter sets; collect per-event objects."""
    listener_list = list(listeners) if listeners is not None else None
    family = RoundFamily.from_sets(round_transmitters)
    deliveries = sim.run_schedule_table(
        len(family),
        family.round_ids(),
        family.members,
        listeners=listener_list,
        phase=phase,
        wake_on_reception=wake_on_reception,
    )
    result = ReferenceScheduleResult(length=schedule_length)
    for t, transmitters in enumerate(round_transmitters):
        for uid in transmitters:
            result.transmitted_rounds.setdefault(uid, []).append(t)
    message_of: Dict[int, Message] = {}
    for t, receiver, sender in zip(
        deliveries.round_ids.tolist(),
        deliveries.receiver_uids.tolist(),
        deliveries.sender_uids.tolist(),
    ):
        message = message_of.get(sender)
        if message is None:
            message = message_of[sender] = factory(sender)
        result.receptions.setdefault(receiver, []).append(
            ReceptionEvent(round_index=t, sender=message.sender, message=message)
        )
    return result


def run_schedule_reference(
    sim: SINRSimulator,
    schedule: TransmissionSchedule,
    participants: Iterable[int],
    message_factory: Optional[MessageFactory] = None,
    listeners: Optional[Iterable[int]] = None,
    phase: str = "schedule",
    wake_on_reception: bool = False,
) -> ReferenceScheduleResult:
    """Historical :func:`repro.simulation.schedule.run_schedule` (set-based)."""
    participant_set = set(participants)
    factory = message_factory or _default_message(phase)
    round_transmitters = [participant_set & allowed for allowed in schedule.rounds]
    return _execute_rounds_reference(
        sim, round_transmitters, len(schedule), factory, listeners, phase, wake_on_reception
    )


def run_cluster_schedule_reference(
    sim: SINRSimulator,
    schedule: ClusterAwareSchedule,
    participants: Iterable[int],
    cluster_of: Mapping[int, int],
    message_factory: Optional[MessageFactory] = None,
    listeners: Optional[Iterable[int]] = None,
    phase: str = "wcss",
    wake_on_reception: bool = False,
) -> ReferenceScheduleResult:
    """Historical cluster-aware runner (per-round set comprehension)."""
    participant_set = set(participants)
    factory = message_factory or _default_message(phase)
    node_rounds = schedule.node_rounds
    cluster_rounds = schedule.cluster_rounds
    round_transmitters = [
        {
            uid
            for uid in participant_set
            if uid in node_rounds[t] and cluster_of.get(uid) in cluster_rounds[t]
        }
        for t in range(len(schedule))
    ]
    return _execute_rounds_reference(
        sim, round_transmitters, len(schedule), factory, listeners, phase, wake_on_reception
    )


def run_round_robin_reference(
    sim: SINRSimulator,
    participants: Sequence[int],
    message_factory: Optional[MessageFactory] = None,
    listeners: Optional[Iterable[int]] = None,
    phase: str = "round-robin",
    wake_on_reception: bool = False,
) -> ReferenceScheduleResult:
    """Historical round-robin runner (one singleton set per participant)."""
    ordered = sorted(set(participants))
    factory = message_factory or _default_message(phase)
    round_transmitters: List[Set[int]] = [{uid} for uid in ordered]
    return _execute_rounds_reference(
        sim, round_transmitters, len(ordered), factory, listeners, phase, wake_on_reception
    )
