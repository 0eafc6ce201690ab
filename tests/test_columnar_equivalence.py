"""Property tests: the columnar schedule pipeline is event-for-event
identical to the legacy set-based path (kept in repro.simulation.reference).

Every layer introduced by the columnar rework is pinned against its
reference implementation on randomized deployments:

* CSR schedules vs their frozenset views (membership, inverse index,
  restriction / repetition / concatenation algebra);
* columnar runners vs the reference runners (receptions, messages,
  transmitted rounds, derived accessors);
* the vectorized proximity-graph filtering vs the original candidates x
  rounds loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AlgorithmConfig
from repro.core.proximity import build_proximity_graph, build_proximity_graph_reference
from repro.selectors._csr import RoundFamily
from repro.selectors.ssf import TransmissionSchedule, greedy_random_ssf, prime_residue_ssf
from repro.selectors.wcss import ClusterAwareSchedule, random_wcss
from repro.selectors.wss import random_wss
from repro.simulation.engine import SINRSimulator
from repro.simulation.messages import Message
from repro.simulation.reference import (
    run_cluster_schedule_reference,
    run_round_robin_reference,
    run_schedule_reference,
)
from repro.simulation.schedule import run_cluster_schedule, run_round_robin, run_schedule
from repro.sinr import deployment


def twin_sims(n: int, seed: int):
    """Two independent simulators over the *same* random deployment."""
    return (
        SINRSimulator(deployment.uniform_random(n, area_side=2.5, seed=seed)),
        SINRSimulator(deployment.uniform_random(n, area_side=2.5, seed=seed)),
    )


def assert_results_identical(columnar, reference, uids):
    """Event-for-event equality of a columnar result against a reference one."""
    assert columnar.length == reference.length
    assert columnar.receptions == reference.receptions
    assert columnar.transmitted_rounds == reference.transmitted_rounds
    for uid in uids:
        assert columnar.heard_by(uid) == reference.heard_by(uid)
        assert columnar.senders_heard_by(uid) == reference.senders_heard_by(uid)
    for u in uids[:6]:
        for v in uids[:6]:
            assert columnar.exchanged(u, v) == reference.exchanged(u, v)


class TestScheduleAlgebraEquivalence:
    @given(
        id_space=st.integers(min_value=2, max_value=40),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_inverse_index_matches_frozenset_scan(self, id_space, k, seed):
        schedule = greedy_random_ssf(id_space, k, seed=seed)
        for uid in range(1, id_space + 1):
            scan = [t for t, r in enumerate(schedule.rounds) if uid in r]
            assert schedule.rounds_of(uid) == scan
            for t in range(min(len(schedule), 10)):
                assert schedule.transmits_in(uid, t) == (uid in schedule.rounds[t])

    @given(
        id_space=st.integers(min_value=4, max_value=30),
        k=st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_restriction_and_tiling_match_set_algebra(self, id_space, k):
        schedule = prime_residue_ssf(id_space, k)
        allowed = set(range(1, id_space + 1, 2))
        restricted = schedule.restricted_to(allowed)
        assert [r & allowed for r in schedule.rounds] == list(restricted.rounds)
        tiled = schedule.repeated(3)
        assert list(tiled.rounds) == list(schedule.rounds) * 3
        glued = schedule.concatenated(restricted)
        assert list(glued.rounds) == list(schedule.rounds) + list(restricted.rounds)

    @given(
        id_space=st.integers(min_value=4, max_value=24),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15, deadline=None)
    def test_wcss_rounds_of_matches_transmits_in_scan(self, id_space, seed):
        schedule = random_wcss(id_space, 2, 2, seed=seed, length=40)
        rng = np.random.default_rng(seed)
        for uid in rng.integers(1, id_space + 1, size=5):
            cluster = int(rng.integers(1, id_space + 1))
            scan = [
                t for t in range(len(schedule)) if schedule.transmits_in(int(uid), cluster, t)
            ]
            assert schedule.rounds_of(int(uid), cluster) == scan


class TestRunnerEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=300),
        n=st.integers(min_value=3, max_value=24),
        k=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_run_schedule_matches_reference(self, seed, n, k):
        col_sim, ref_sim = twin_sims(n, seed)
        uids = col_sim.network.uids
        schedule = random_wss(col_sim.network.id_space, k, seed=seed, length=30)
        rng = np.random.default_rng(seed + 1)
        participants = [uid for uid in uids if rng.random() < 0.7] or uids[:1]
        columnar = run_schedule(col_sim, schedule, participants, phase="x")
        reference = run_schedule_reference(ref_sim, schedule, participants, phase="x")
        assert_results_identical(columnar, reference, uids)
        assert col_sim.current_round == ref_sim.current_round
        assert col_sim.messages_sent == ref_sim.messages_sent
        assert col_sim.messages_delivered == ref_sim.messages_delivered

    @given(
        seed=st.integers(min_value=0, max_value=300),
        n=st.integers(min_value=3, max_value=20),
    )
    @settings(max_examples=20, deadline=None)
    def test_run_cluster_schedule_matches_reference(self, seed, n):
        col_sim, ref_sim = twin_sims(n, seed)
        uids = col_sim.network.uids
        schedule = random_wcss(col_sim.network.id_space, 3, 2, seed=seed, length=30)
        rng = np.random.default_rng(seed + 2)
        cluster_of = {uid: int(rng.integers(1, 4)) for uid in uids}
        factory = lambda uid: Message(sender=uid, tag="c", cluster=cluster_of.get(uid))
        columnar = run_cluster_schedule(
            col_sim, schedule, uids, cluster_of=cluster_of, message_factory=factory
        )
        reference = run_cluster_schedule_reference(
            ref_sim, schedule, uids, cluster_of=cluster_of, message_factory=factory
        )
        assert_results_identical(columnar, reference, uids)

    @given(
        seed=st.integers(min_value=0, max_value=200),
        n=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=15, deadline=None)
    def test_run_round_robin_matches_reference(self, seed, n):
        col_sim, ref_sim = twin_sims(n, seed)
        uids = col_sim.network.uids
        columnar = run_round_robin(col_sim, uids)
        reference = run_round_robin_reference(ref_sim, uids)
        assert_results_identical(columnar, reference, uids)

    def test_wake_on_reception_matches_reference(self):
        col_sim, ref_sim = twin_sims(8, 5)
        uids = col_sim.network.uids
        source = uids[0]
        for sim in (col_sim, ref_sim):
            sim.put_all_to_sleep(except_for=[source])
        schedule = random_wss(col_sim.network.id_space, 2, seed=1, length=10)
        columnar = run_schedule(
            col_sim, schedule, [source], listeners=uids, wake_on_reception=True
        )
        reference = run_schedule_reference(
            ref_sim, schedule, [source], listeners=uids, wake_on_reception=True
        )
        assert columnar.receptions == reference.receptions
        assert sorted(col_sim.awake_nodes()) == sorted(ref_sim.awake_nodes())


class TestProximityEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 23, 91])
    def test_unclustered_graph_matches_reference(self, seed):
        config = AlgorithmConfig.fast()
        network_a = deployment.dense_ball(20, radius=0.45, seed=seed)
        network_b = deployment.dense_ball(20, radius=0.45, seed=seed)
        columnar = build_proximity_graph(SINRSimulator(network_a), network_a.uids, config)
        reference = build_proximity_graph_reference(
            SINRSimulator(network_b), network_b.uids, config
        )
        assert columnar.adjacency == reference.adjacency
        assert columnar.heard == reference.heard
        assert columnar.candidates == reference.candidates
        assert columnar.rounds_used == reference.rounds_used
        assert columnar.schedule_length == reference.schedule_length

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_clustered_graph_matches_reference(self, seed):
        config = AlgorithmConfig.fast()
        rng = np.random.default_rng(seed)
        network_a = deployment.dense_ball(16, radius=0.4, seed=seed)
        network_b = deployment.dense_ball(16, radius=0.4, seed=seed)
        cluster_of = {uid: int(rng.integers(1, 4)) for uid in network_a.uids}
        columnar = build_proximity_graph(
            SINRSimulator(network_a), network_a.uids, config, cluster_of=cluster_of
        )
        reference = build_proximity_graph_reference(
            SINRSimulator(network_b), network_b.uids, config, cluster_of=cluster_of
        )
        assert columnar.adjacency == reference.adjacency
        assert columnar.heard == reference.heard
        assert columnar.candidates == reference.candidates
        assert columnar.rounds_used == reference.rounds_used


class TestListenerPoolNormalization:
    """Permuted or duplicated listener pools must not change the physics."""

    @staticmethod
    def _run(listeners, seed=4):
        network = deployment.uniform_random(12, area_side=2.5, seed=seed)
        sim = SINRSimulator(network)
        rng = np.random.default_rng(1)
        rounds = [[u for u in network.uids if rng.random() < 0.4] for _ in range(10)]
        family = RoundFamily.from_sets(rounds)
        out = sim.run_schedule_table(
            len(family), family.round_ids(), family.members, listeners=listeners
        )
        per_round = [[] for _ in rounds]
        for t, r, s in zip(out.round_ids.tolist(), out.receiver_uids.tolist(), out.sender_uids.tolist()):
            per_round[t].append((r, s))
        return rounds, [sorted(r) for r in per_round]

    def test_permuted_listener_pool_matches_natural_order(self):
        network = deployment.uniform_random(12, area_side=2.5, seed=4)
        _, natural = self._run(list(network.uids))
        _, reversed_pool = self._run(list(reversed(network.uids)))
        assert natural == reversed_pool

    def test_duplicate_listeners_are_dropped(self):
        network = deployment.uniform_random(12, area_side=2.5, seed=4)
        _, natural = self._run(list(network.uids))
        rounds, duplicated = self._run([network.uids[0]] * 2 + list(network.uids))
        assert natural == duplicated
        for tx, deliveries in zip(rounds, duplicated):
            for receiver, _ in deliveries:
                assert receiver not in tx  # half-duplex survives duplicates


class TestColumnarAccessors:
    def test_event_table_round_major_and_consistent_with_events(self):
        sim, _ = twin_sims(10, 2)
        uids = sim.network.uids
        schedule = random_wss(sim.network.id_space, 2, seed=3, length=20)
        result = run_schedule(sim, schedule, uids)
        rounds, senders, receivers = result.event_table()
        assert np.all(np.diff(rounds) >= 0)
        total_events = sum(len(result.heard_by(uid)) for uid in uids)
        assert total_events == len(rounds)
        for uid in uids:
            events = result.heard_by(uid)
            mask = receivers == uid
            assert [e.round_index for e in events] == rounds[mask].tolist()
            assert [e.sender for e in events] == senders[mask].tolist()

    def test_first_receptions_match_heard_by(self):
        sim, _ = twin_sims(12, 9)
        uids = sim.network.uids
        result = run_round_robin(sim, uids)
        receivers, senders, rounds = result.first_receptions()
        for uid, sender, round_index in zip(
            receivers.tolist(), senders.tolist(), rounds.tolist()
        ):
            first = result.heard_by(uid)[0]
            assert first.sender == sender
            assert first.round_index == round_index
