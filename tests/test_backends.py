"""Tests for the pluggable physics backends (repro.sinr.backends).

The load-bearing guarantees:

* ``DenseMatrixBackend`` and ``LazyBlockBackend`` produce identical
  ``receptions()`` on random deployments (property test);
* ``receptions_table`` matches round-by-round ``receptions`` for both
  backends (property test);
* the batched simulator path (``SINRSimulator.run_schedule_table``) is
  equivalent to a round-by-round execution, counters and wake state
  included;
* backend selection threads through ``WirelessNetwork``, the deployment
  generators and the CLI.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import AlgorithmConfig, local_broadcast
from repro.selectors._csr import RoundFamily
from repro.simulation.engine import SINRSimulator
from repro.simulation.messages import Message
from repro.sinr import deployment
from repro.sinr.backends import (
    BACKENDS,
    DenseMatrixBackend,
    LazyBlockBackend,
    PhysicsBackend,
    Reception,
    make_backend,
)
from repro.sinr.model import NUMERIC_TOLERANCE, SINRParameters
from repro.sinr.network import WirelessNetwork


def random_positions(seed: int, n: int, side: float = 3.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, side, size=(n, 2))


def both_backends(positions, **cache_kwargs):
    params = SINRParameters.default()
    dense = DenseMatrixBackend(np.asarray(positions, dtype=float), params)
    lazy = LazyBlockBackend(np.asarray(positions, dtype=float), params, **cache_kwargs)
    return dense, lazy


def assert_receptions_close(a, b):
    """Same receivers, same decoded senders, SINR equal up to rounding.

    Exact float equality is not guaranteed across backends (or cache states):
    vectorized distance computations over different array shapes may differ in
    the last ulp.
    """
    assert set(a) == set(b)
    for receiver, reception in a.items():
        other = b[receiver]
        assert other.sender == reception.sender
        assert other.sinr == pytest.approx(reception.sinr, rel=1e-9)


def assert_table_matches_rounds(backend, schedule, listeners=None):
    """One ``receptions_table`` call over ``schedule`` == per-round ``receptions``."""
    family = RoundFamily.from_sets(schedule)
    table = backend.receptions_table(family.indptr, family.members, listeners)
    assert table.num_rounds == len(schedule)
    for t, tx in enumerate(schedule):
        rows = table.round_ids == t
        outcome = {
            int(r): Reception(receiver=int(r), sender=int(s), sinr=float(q))
            for r, s, q in zip(table.receivers[rows], table.senders[rows], table.sinr[rows])
        }
        assert_receptions_close(outcome, backend.receptions(tx, listeners=listeners))
    return table


def run_rounds(sim, rounds, **kwargs):
    """Run per-round uid lists through ``run_schedule_table``.

    Returns one ``{receiver uid: sender uid}`` dict per round.
    """
    family = RoundFamily.from_sets(rounds)
    out = sim.run_schedule_table(len(family), family.round_ids(), family.members, **kwargs)
    per_round = [{} for _ in rounds]
    for t, r, s in zip(out.round_ids.tolist(), out.receiver_uids.tolist(), out.sender_uids.tolist()):
        per_round[t][r] = s
    return per_round


class TestBackendEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        n=st.integers(min_value=2, max_value=24),
        tx_seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_receptions_identical_on_random_deployments(self, seed, n, tx_seed):
        positions = random_positions(seed, n)
        dense, lazy = both_backends(positions)
        rng = np.random.default_rng(tx_seed)
        transmitters = list(np.flatnonzero(rng.random(n) < 0.4))
        assert_receptions_close(dense.receptions(transmitters), lazy.receptions(transmitters))

    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=2, max_value=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_receptions_identical_with_restricted_listeners(self, seed, n):
        positions = random_positions(seed, n)
        dense, lazy = both_backends(positions)
        transmitters = list(range(0, n, 2))
        listeners = list(range(1, n, 2))
        assert_receptions_close(
            dense.receptions(transmitters, listeners),
            lazy.receptions(transmitters, listeners),
        )

    def test_lazy_equivalent_under_cache_thrash(self):
        # A one-row cache forces constant eviction; results must not change.
        positions = random_positions(7, 20)
        dense, lazy = both_backends(positions, cache_bytes=1)
        assert lazy.cache_info()["capacity_rows"] == 1
        for round_seed in range(5):
            rng = np.random.default_rng(round_seed)
            transmitters = list(np.flatnonzero(rng.random(20) < 0.5))
            assert_receptions_close(dense.receptions(transmitters), lazy.receptions(transmitters))

    def test_lazy_cache_serves_repeated_rows(self):
        positions = random_positions(3, 12)
        _, lazy = both_backends(positions)
        lazy.receptions([0, 1, 2])
        misses_after_first = lazy.cache_info()["misses"]
        lazy.receptions([0, 1, 2])
        info = lazy.cache_info()
        assert info["misses"] == misses_after_first
        assert info["hits"] >= 3

    def test_scalar_helpers_agree(self):
        positions = random_positions(11, 10)
        dense, lazy = both_backends(positions)
        assert lazy.gain(0, 1) == pytest.approx(dense.gain(0, 1))
        assert lazy.distance(2, 3) == pytest.approx(dense.distance(2, 3))
        assert lazy.sinr(0, 1, [0, 2, 3]) == pytest.approx(dense.sinr(0, 1, [0, 2, 3]))
        assert lazy.interference_at(1, [0, 2]) == pytest.approx(
            dense.interference_at(1, [0, 2])
        )
        assert lazy.hears_alone(0, 1) == dense.hears_alone(0, 1)

    def test_co_located_nodes_handled_identically(self):
        positions = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
        dense, lazy = both_backends(positions)
        assert_receptions_close(dense.receptions([0]), lazy.receptions([0]))
        assert_receptions_close(dense.receptions([0, 1]), lazy.receptions([0, 1]))


class TestReceptionsBatch:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        n=st.integers(min_value=2, max_value=20),
        rounds=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_round_by_round(self, seed, n, rounds):
        positions = random_positions(seed, n)
        rng = np.random.default_rng(seed + 1)
        schedule = [list(np.flatnonzero(rng.random(n) < 0.35)) for _ in range(rounds)]
        for backend in both_backends(positions):
            assert_table_matches_rounds(backend, schedule)

    def test_batch_respects_listener_restriction(self):
        positions = random_positions(5, 14)
        listeners = [1, 3, 5, 7]
        schedule = [[0, 2], [4], [], [0, 6, 8]]
        for backend in both_backends(positions):
            table = assert_table_matches_rounds(backend, schedule, listeners)
            assert set(table.receivers.tolist()) <= set(listeners)

    def test_batch_chunking_boundary(self):
        # Force a tiny block budget so the chunking path is exercised.
        positions = random_positions(9, 10)
        for backend in both_backends(positions):
            backend._BATCH_BLOCK_ELEMENTS = 10
            assert_table_matches_rounds(backend, [[0, 1], [2, 3], [4, 5], [0, 5], []])


class TestSimulatorBatchPath:
    def test_run_schedule_matches_run_round_sequence(self):
        network_a = deployment.uniform_random(30, area_side=2.5, seed=4)
        network_b = deployment.uniform_random(30, area_side=2.5, seed=4)
        rng = np.random.default_rng(8)
        uids = network_a.uids
        rounds = [
            [uid for uid in uids if rng.random() < 0.3] for _ in range(20)
        ]
        batch_sim = SINRSimulator(network_a)
        loop_sim = SINRSimulator(network_b)
        batched = run_rounds(batch_sim, rounds, phase="x")
        for tx_uids, batched_round in zip(rounds, batched):
            delivered = loop_sim.run_round(
                {uid: Message(sender=uid, tag="x") for uid in tx_uids}, phase="x"
            )
            assert batched_round == {
                listener: message.sender for listener, message in delivered.items()
            }
        assert batch_sim.current_round == loop_sim.current_round
        assert batch_sim.messages_sent == loop_sim.messages_sent
        assert batch_sim.messages_delivered == loop_sim.messages_delivered

    def test_run_schedule_wakes_on_reception(self):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        source = network.uids[0]
        sim.put_all_to_sleep(except_for=[source])
        deliveries = run_rounds(sim, [[source]], listeners=network.uids, wake_on_reception=True)
        woken = set(deliveries[0])
        assert woken
        for uid in woken:
            assert sim.is_awake(uid)

    def test_run_schedule_drops_sleeping_listeners_without_wake(self):
        network = deployment.line(4)
        sim = SINRSimulator(network)
        source = network.uids[0]
        sim.put_all_to_sleep(except_for=[source])
        deliveries = run_rounds(sim, [[source]], listeners=network.uids)
        assert deliveries == [{}]

    def test_run_schedule_charges_silent_rounds(self):
        network = deployment.line(3)
        sim = SINRSimulator(network, record_trace=True)
        run_rounds(sim, [[], [network.uids[0]], [], []], phase="s")
        assert sim.current_round == 4
        records = sim.trace.records
        assert records[0].skipped == 1
        assert records[1].transmitters == (network.uids[0],)
        assert records[2].skipped == 2


class TestBackendSelection:
    def test_make_backend_by_name(self):
        positions = random_positions(0, 6)
        params = SINRParameters.default()
        assert isinstance(make_backend("dense", positions, params), DenseMatrixBackend)
        assert isinstance(make_backend("lazy", positions, params), LazyBlockBackend)
        with pytest.raises(ValueError):
            make_backend("hologram", positions, params)

    def test_make_backend_passthrough_validates_size(self):
        positions = random_positions(0, 6)
        params = SINRParameters.default()
        backend = LazyBlockBackend(positions, params)
        assert make_backend(backend, positions, params) is backend
        with pytest.raises(ValueError):
            make_backend(backend, positions[:3], params)

    def test_registry_names(self):
        assert set(BACKENDS) == {"dense", "lazy", "spatial"}
        for cls in BACKENDS.values():
            assert issubclass(cls, PhysicsBackend)

    def test_lazy_backend_has_no_distance_matrix(self):
        _, lazy = both_backends(random_positions(2, 5))
        with pytest.raises(ValueError):
            lazy.distances
        with pytest.raises(ValueError):
            lazy.positions[0, 0] = 1.0

    def test_network_accepts_lazy_backend(self):
        positions = random_positions(21, 25)
        dense_net = WirelessNetwork(positions)
        lazy_net = WirelessNetwork(positions, backend="lazy")
        assert isinstance(lazy_net.physics, LazyBlockBackend)
        config = AlgorithmConfig.fast()
        dense_result = local_broadcast(SINRSimulator(dense_net), config=config)
        lazy_result = local_broadcast(SINRSimulator(lazy_net), config=config)
        assert dense_result.delivered == lazy_result.delivered
        assert dense_result.rounds_used == lazy_result.rounds_used

    def test_deployment_threads_backend(self):
        network = deployment.uniform_random(12, seed=3, backend="lazy")
        assert isinstance(network.physics, LazyBlockBackend)

    def test_cli_backend_option(self, capsys):
        code = cli_main(
            ["cluster", "--deployment", "uniform", "--nodes", "20", "--seed", "1", "--backend", "lazy"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "clusters:" in out


class TestToleranceConstant:
    def test_single_source_of_truth(self):
        assert NUMERIC_TOLERANCE == 1e-12
        import repro.sinr.geometry as geometry

        assert geometry.NUMERIC_TOLERANCE is NUMERIC_TOLERANCE
