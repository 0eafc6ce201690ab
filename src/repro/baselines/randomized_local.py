"""Randomized local-broadcast baselines (Table 1).

Two classic comparison points from the literature the paper tabulates:

* :func:`randomized_local_broadcast_known_density` -- the Goussevskaia,
  Moscibroda, Wattenhofer style algorithm: when the density ``Delta`` is
  known, every node transmits with probability ``c / Delta`` in every round;
  after ``O(Delta log n)`` rounds every node has, with high probability,
  transmitted in a round where it is locally the only transmitter and is
  therefore heard by its neighbours.
* :func:`randomized_local_broadcast_unknown_density` -- the density-unaware
  variant (Goussevskaia et al. / Yu et al. flavour): nodes sweep a
  geometrically decreasing sequence of transmission probabilities, paying an
  extra logarithmic factor.

These are Monte-Carlo baselines: the reproduction uses them to regenerate
the *shape* of Table 1 (randomized O(Delta log n) versus this paper's
deterministic O(Delta log N log* N)), not to certify their high-probability
guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from ..simulation.engine import SINRSimulator


@dataclass
class RandomizedLocalBroadcastResult:
    """Outcome of a randomized local-broadcast baseline run."""

    delivered: Dict[int, Set[int]] = field(default_factory=dict)
    rounds_used: int = 0
    completed_round: Optional[int] = None

    def receivers_of(self, uid: int) -> Set[int]:
        """Nodes that decoded ``uid``'s message."""
        return self.delivered.get(uid, set())

    def completed(self, network) -> bool:
        """Whether every node reached all of its communication-graph neighbours."""
        return all(
            set(network.neighbors(uid)) <= self.receivers_of(uid) for uid in network.uids
        )

    def completion_ratio(self, network) -> float:
        """Fraction of (node, neighbour) pairs already served."""
        total = 0
        served = 0
        for uid in network.uids:
            for neighbor in network.neighbors(uid):
                total += 1
                if neighbor in self.receivers_of(uid):
                    served += 1
        return served / total if total else 1.0


def _run_probabilistic_rounds(
    sim: SINRSimulator,
    probability_for_round,
    max_rounds: int,
    rng: np.random.Generator,
    stop_when_complete: bool,
    chunk_rounds: int = 32,
) -> RandomizedLocalBroadcastResult:
    """Drive the probabilistic rounds through the batched schedule API.

    The per-round coin flips do not depend on reception outcomes, so the
    whole transmission schedule is precomputed (with the exact RNG stream a
    round-by-round execution would draw) and evaluated in blocks of
    ``chunk_rounds`` via :meth:`SINRSimulator.run_schedule_table`.  The
    completion check runs between blocks; deliveries after the completion
    round are discarded and ``completed_round`` / ``rounds_used`` keep the
    exact round-by-round semantics (the simulator's global counter may run
    up to ``chunk_rounds - 1`` rounds past completion, the price of
    batching).
    """
    network = sim.network
    uids = list(network.uids)
    required = {uid: set(network.neighbors(uid)) for uid in uids}
    result = RandomizedLocalBroadcastResult(delivered={uid: set() for uid in uids})
    start_round = sim.current_round

    tx_rounds: List[int] = []
    tx_uids: List[int] = []
    for local_round in range(max_rounds):
        for uid in uids:
            if rng.random() < probability_for_round(uid, local_round + 1):
                tx_rounds.append(local_round)
                tx_uids.append(uid)
    round_ids = np.array(tx_rounds, dtype=np.int64)
    members = np.array(tx_uids, dtype=np.int64)

    for chunk_start in range(0, max_rounds, chunk_rounds):
        length = min(chunk_rounds, max_rounds - chunk_start)
        lo, hi = np.searchsorted(round_ids, [chunk_start, chunk_start + length])
        deliveries = sim.run_schedule_table(
            length, round_ids[lo:hi] - chunk_start, members[lo:hi], phase="rand-local"
        )
        bounds = np.searchsorted(deliveries.round_ids, np.arange(length + 1))
        receivers = deliveries.receiver_uids.tolist()
        senders = deliveries.sender_uids.tolist()
        for offset in range(length):
            for i in range(bounds[offset], bounds[offset + 1]):
                result.delivered[senders[i]].add(receivers[i])
            if stop_when_complete and all(
                required[uid] <= result.delivered[uid] for uid in uids
            ):
                result.completed_round = chunk_start + offset + 1
                break
        if result.completed_round is not None:
            break

    if result.completed_round is not None:
        result.rounds_used = result.completed_round
    else:
        result.rounds_used = sim.current_round - start_round
    return result


def randomized_local_broadcast_known_density(
    sim: SINRSimulator,
    delta: Optional[int] = None,
    seed: int = 0,
    rounds_factor: float = 8.0,
    stop_when_complete: bool = True,
) -> RandomizedLocalBroadcastResult:
    """Goussevskaia-style baseline with known density ``Delta``.

    Every node transmits with probability ``1 / Delta`` each round, for at
    most ``rounds_factor * Delta * ln n`` rounds (the O(Delta log n) bound).
    """
    network = sim.network
    if delta is None:
        delta = network.delta_bound
    delta = max(2, int(delta))
    rng = np.random.default_rng(seed)
    n = network.size
    max_rounds = max(1, int(math.ceil(rounds_factor * delta * (math.log(max(n, 2)) + 1))))
    return _run_probabilistic_rounds(
        sim,
        probability_for_round=lambda uid, r: 1.0 / delta,
        max_rounds=max_rounds,
        rng=rng,
        stop_when_complete=stop_when_complete,
    )


def randomized_local_broadcast_unknown_density(
    sim: SINRSimulator,
    seed: int = 0,
    rounds_factor: float = 4.0,
    stop_when_complete: bool = True,
) -> RandomizedLocalBroadcastResult:
    """Density-unaware baseline: sweep probabilities ``1/2, 1/4, ..., 1/n``.

    Each probability level is kept for ``Theta(log n)`` rounds and the sweep
    is repeated, costing the extra logarithmic factors of the unknown-density
    rows of Table 1.
    """
    network = sim.network
    rng = np.random.default_rng(seed)
    n = max(network.size, 2)
    levels = max(1, int(math.ceil(math.log2(n))))
    rounds_per_level = max(1, int(math.ceil(rounds_factor * math.log(n))))
    sweep_length = levels * rounds_per_level
    max_rounds = 4 * sweep_length * levels  # repeated sweeps, O(log^2 n) overhead

    def probability(uid: int, local_round: int) -> float:
        position = (local_round - 1) % sweep_length
        level = position // rounds_per_level
        return 1.0 / float(2 ** (level + 1))

    return _run_probabilistic_rounds(
        sim,
        probability_for_round=probability,
        max_rounds=max_rounds,
        rng=rng,
        stop_when_complete=stop_when_complete,
    )
