"""Tests for the bounded-growth metric generalization (repro.sinr.metric)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AlgorithmConfig, build_clustering, local_broadcast
from repro.simulation import SINRSimulator
from repro.sinr import DenseMatrixBackend, MetricNetwork, SINRParameters, doubling_dimension_estimate
from repro.sinr.geometry import pairwise_distances


def line_metric(n: int, spacing: float = 0.7) -> np.ndarray:
    """Distance matrix of n points on a line (a 1-dimensional doubling metric)."""
    coordinates = np.arange(n) * spacing
    return np.abs(coordinates[:, None] - coordinates[None, :])


def planar_metric(n: int, seed: int = 0, side: float = 2.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, side, size=(n, 2))
    return pairwise_distances(points)


class TestPhysicsFromDistances:
    def test_matches_position_based_engine(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 2, size=(8, 2))
        params = SINRParameters.default()
        by_positions = DenseMatrixBackend(points, params)
        by_distances = DenseMatrixBackend.from_distance_matrix(pairwise_distances(points), params)
        transmitters = [0, 3, 5]
        assert by_positions.receptions(transmitters).keys() == by_distances.receptions(transmitters).keys()
        for listener, reception in by_positions.receptions(transmitters).items():
            other = by_distances.receptions(transmitters)[listener]
            assert reception.sender == other.sender
            assert reception.sinr == pytest.approx(other.sinr)

    def test_positions_unavailable_for_metric_engine(self):
        engine = DenseMatrixBackend.from_distance_matrix(line_metric(4), SINRParameters.default())
        with pytest.raises(ValueError):
            _ = engine.positions
        assert engine.distance(0, 1) == pytest.approx(0.7)

    def test_rejects_asymmetric_or_negative_matrices(self):
        params = SINRParameters.default()
        bad = line_metric(3)
        bad[0, 1] = 9.0
        with pytest.raises(ValueError):
            DenseMatrixBackend.from_distance_matrix(bad, params)
        with pytest.raises(ValueError):
            DenseMatrixBackend.from_distance_matrix(-line_metric(3), params)

    def test_requires_positions_or_distances(self):
        with pytest.raises(ValueError):
            DenseMatrixBackend(None, SINRParameters.default())


class TestMetricNetwork:
    def test_line_metric_builds_a_path_graph(self):
        network = MetricNetwork(line_metric(5))
        assert network.size == 5
        assert network.neighbors(1) == [2]
        assert network.neighbors(3) == [2, 4]
        assert network.is_connected()
        assert network.diameter_hops() == 4
        assert network.density() >= 2

    def test_distance_lookup_by_uid(self):
        network = MetricNetwork(line_metric(4), uids=[10, 20, 30, 40])
        assert network.distance(10, 20) == pytest.approx(0.7)
        assert network.distance(10, 40) == pytest.approx(2.1)

    def test_validation_of_inputs(self):
        with pytest.raises(ValueError):
            MetricNetwork(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            MetricNetwork(np.ones((3, 3)))  # non-zero diagonal
        with pytest.raises(ValueError):
            MetricNetwork(line_metric(3), uids=[1, 1, 2])
        with pytest.raises(ValueError):
            MetricNetwork(line_metric(3), uids=[1, 2, 50], id_space=10)

    def test_cluster_bookkeeping(self):
        network = MetricNetwork(line_metric(3))
        network.set_cluster_assignment({1: 5, 2: 5, 3: 6})
        assert network.cluster_assignment() == {1: 5, 2: 5, 3: 6}
        network.reset_protocol_state()
        assert all(c is None for c in network.cluster_assignment().values())

    def test_describe(self):
        assert "MetricNetwork" in MetricNetwork(line_metric(3)).describe()


class TestAlgorithmsOnMetricNetworks:
    def test_clustering_runs_on_a_metric_only_network(self):
        network = MetricNetwork(planar_metric(20, seed=5))
        sim = SINRSimulator(network)
        result = build_clustering(sim, config=AlgorithmConfig.fast())
        assert set(result.cluster_of) == set(network.uids)
        # Clusters only contain nodes within a bounded metric distance of the
        # cluster centre (the 1-clustering guarantee, checked via the metric).
        for uid, cluster in result.cluster_of.items():
            assert network.distance(uid, cluster) <= 2.0 + 1e-9

    def test_local_broadcast_completes_on_a_metric_network(self):
        network = MetricNetwork(line_metric(6))
        sim = SINRSimulator(network)
        result = local_broadcast(sim, config=AlgorithmConfig.fast())
        for uid in network.uids:
            assert set(network.neighbors(uid)) <= result.receivers_of(uid)


class TestDoublingDimension:
    def test_line_metric_has_small_doubling_dimension(self):
        estimate = doubling_dimension_estimate(line_metric(32))
        assert estimate <= 2.0

    def test_planar_metric_has_bounded_doubling_dimension(self):
        estimate = doubling_dimension_estimate(planar_metric(40, seed=2))
        assert estimate <= 4.0

    def test_star_metric_has_large_growth(self):
        # A uniform metric (everything at distance 1) doubles from 1 to n.
        n = 32
        matrix = np.ones((n, n)) - np.eye(n)
        estimate = doubling_dimension_estimate(matrix, radii=[0.5])
        assert estimate >= 4.0

    def test_single_point_metric(self):
        assert doubling_dimension_estimate(np.zeros((1, 1))) == 0.0
