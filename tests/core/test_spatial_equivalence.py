"""Spatial-index equivalence tests.

The uniform-grid index must be a pure accelerator: every construction that
uses it (CBTC, the proximity-graph baselines, the reference graphs) has to
produce *identical* output — same edges, same float lengths, same per-node
radii/powers — as the brute-force definitions in ``tests/oracle.py``.  These
tests run production and the oracle over the same positions and compare
outputs exactly (no tolerances).
"""

import math

import pytest

from repro.baselines import (
    euclidean_mst,
    gabriel_graph,
    relative_neighborhood_graph,
    theta_graph,
    yao_graph,
)
from repro.core.cbtc import run_cbtc
from repro.core.pipeline import OptimizationConfig, build_topology
from repro.geometry import Point
from repro.graphs.builders import unit_disk_graph
from repro.net.network import Network
from repro.net.node import Node
from repro.net.placement import PlacementConfig, random_uniform_placement
from tests import oracle

ALPHA = 5 * math.pi / 6

SEEDS = [0, 1, 2, 13]


def _network(seed, node_count=40):
    return random_uniform_placement(PlacementConfig(node_count=node_count), seed=seed)


def _edge_map(graph):
    return {
        (min(u, v), max(u, v)): data.get("length")
        for u, v, data in graph.edges(data=True)
    }


def _assert_identical_graphs(left, right):
    assert set(left.nodes) == set(right.nodes)
    assert _edge_map(left) == _edge_map(right)  # exact float equality


class TestCBTCEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_outcomes_identical_with_and_without_index(self, seed):
        network = _network(seed)
        with_index = run_cbtc(network, ALPHA)
        without_index = oracle.cbtc_outcome(network, ALPHA)
        assert with_index.node_ids() == without_index.node_ids()
        for node_id in with_index.node_ids():
            a = with_index.state(node_id)
            b = without_index.state(node_id)
            assert a.final_power == b.final_power
            assert a.used_max_power == b.used_max_power
            assert a.rounds == b.rounds
            assert set(a.neighbors) == set(b.neighbors)
            for neighbor, record in a.neighbors.items():
                other = b.neighbors[neighbor]
                assert record.direction == other.direction
                assert record.required_power == other.required_power
                assert record.discovery_power == other.discovery_power
                assert record.distance == other.distance

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_pipeline_topologies_identical(self, seed):
        network = _network(seed)
        config = OptimizationConfig.all()
        a = build_topology(network, ALPHA, config=config)
        b = build_topology(network, ALPHA, config=config, outcome=oracle.cbtc_outcome(network, ALPHA))
        _assert_identical_graphs(a.graph, b.graph)
        assert a.node_radius == b.node_radius
        assert a.node_power == b.node_power

    def test_equivalence_with_dead_nodes(self):
        network = _network(5)
        for node_id in (3, 11, 17):
            network.node(node_id).crash()
        config = OptimizationConfig.all()
        a = build_topology(network, ALPHA, config=config)
        b = build_topology(network, ALPHA, config=config, outcome=oracle.cbtc_outcome(network, ALPHA))
        _assert_identical_graphs(a.graph, b.graph)


class TestBaselineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("respect_max_range", [True, False])
    def test_gabriel(self, seed, respect_max_range):
        network = _network(seed)
        _assert_identical_graphs(
            gabriel_graph(network, respect_max_range=respect_max_range),
            oracle.gabriel_graph(network, respect_max_range=respect_max_range),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("respect_max_range", [True, False])
    def test_rng(self, seed, respect_max_range):
        network = _network(seed)
        _assert_identical_graphs(
            relative_neighborhood_graph(network, respect_max_range=respect_max_range),
            oracle.relative_neighborhood_graph(network, respect_max_range=respect_max_range),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mst_range_limited(self, seed):
        network = _network(seed)
        _assert_identical_graphs(
            euclidean_mst(network, respect_max_range=True),
            oracle.euclidean_mst(network, respect_max_range=True),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mst_complete_via_delaunay_candidates(self, seed):
        # Random placements have distinct pairwise distances, so the
        # Euclidean MST is unique and the Delaunay-restricted Kruskal must
        # return exactly the dense tree.
        network = _network(seed)
        _assert_identical_graphs(
            euclidean_mst(network, respect_max_range=False),
            oracle.euclidean_mst(network, respect_max_range=False),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_yao_and_theta(self, seed):
        network = _network(seed)
        _assert_identical_graphs(yao_graph(network, k=6), oracle.yao_graph(network, k=6))
        _assert_identical_graphs(theta_graph(network, k=6), oracle.theta_graph(network, k=6))

    def test_mst_with_near_coincident_points_stays_connected(self):
        # Qhull classifies points closer than its merge tolerance as
        # "coplanar" and omits them from the triangulation; the Delaunay
        # fast path must fall back to the dense edge set for such inputs.
        points = [Point(0.0, 0.0), Point(1e-14, 0.0), Point(1.0, 0.5), Point(0.5, 1.0), Point(0.3, 0.4)]
        network = Network.from_points(points)
        _assert_identical_graphs(
            euclidean_mst(network, respect_max_range=False),
            oracle.euclidean_mst(network, respect_max_range=False),
        )

    def test_gabriel_on_a_warm_index_matches_oracle(self):
        # The index is built once and reused by later constructions; a
        # graph built from a warm (already queried) index must not differ.
        network = _network(3)
        network.max_power_graph()
        _assert_identical_graphs(gabriel_graph(network), oracle.gabriel_graph(network))


class TestNetworkQueryEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_max_power_graph(self, seed):
        network = _network(seed)
        _assert_identical_graphs(network.max_power_graph(), oracle.max_power_graph(network))

    @pytest.mark.parametrize("radius", [0.0, 120.0, 500.0, 900.0])
    def test_neighbors_within(self, radius):
        network = _network(7)
        for node_id in network.node_ids:
            assert network.neighbors_within(node_id, radius) == oracle.neighbors_within(
                network, node_id, radius
            )

    @pytest.mark.parametrize("radius", [130.0, 750.0])
    def test_unit_disk_graph_custom_radius(self, radius):
        network = _network(9)
        _assert_identical_graphs(
            unit_disk_graph(network, radius), oracle.unit_disk_graph(network, radius)
        )

    def test_receivers_of_broadcast(self):
        network = _network(4)
        max_power = network.power_model.max_power
        for power in (0.0, max_power / 64, max_power / 4, max_power, 2 * max_power):
            for sender in network.node_ids[:10]:
                assert network.receivers_of_broadcast(sender, power) == oracle.receivers_of_broadcast(
                    network, sender, power
                )


class TestIndexInvalidation:
    def test_move_updates_queries(self):
        network = Network.from_points([Point(0.0, 0.0), Point(0.5, 0.0), Point(10.0, 10.0)])
        assert network.neighbors_within(0, 1.0) == [1]
        network.node(1).move_to(Point(20.0, 20.0))
        assert network.neighbors_within(0, 1.0) == []

    def test_crash_and_recover_update_queries(self):
        network = Network.from_points([Point(0.0, 0.0), Point(0.5, 0.0)])
        assert network.neighbors_within(0, 1.0) == [1]
        network.node(1).crash()
        assert network.neighbors_within(0, 1.0) == []
        network.node(1).recover()
        assert network.neighbors_within(0, 1.0) == [1]

    def test_add_and_remove_node_update_queries(self):
        network = Network.from_points([Point(0.0, 0.0)])
        assert network.neighbors_within(0, 1.0) == []
        network.add_node(Node(node_id=5, position=Point(0.25, 0.0)))
        assert network.neighbors_within(0, 1.0) == [5]
        network.remove_node(5)
        assert network.neighbors_within(0, 1.0) == []

    def test_removed_node_no_longer_invalidates(self):
        network = Network.from_points([Point(0.0, 0.0), Point(0.5, 0.0)])
        removed = network.remove_node(1)
        network.spatial_index()
        # Mutating a removed node must not touch (or poison) the network.
        removed.move_to(Point(0.1, 0.1))
        assert network._spatial_index is not None
        assert network.neighbors_within(0, 1.0) == []

    def test_copy_isolates_index(self):
        network = _network(2, node_count=10)
        max_range = network.power_model.max_range
        before = network.neighbors_within(0, max_range)
        duplicate = network.copy()
        duplicate.node(0).move_to(Point(-1e4, -1e4))
        assert duplicate.neighbors_within(0, max_range) == []
        assert network.neighbors_within(0, max_range) == before
        assert network.copy().neighbors_within(0, max_range) == before
