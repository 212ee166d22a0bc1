"""Production versus the brute-force oracle on degenerate point sets.

The fixed-seed equivalence tests draw uniform placements, where distances
are all distinct and no pair sits exactly at the maximum range.  Here
hypothesis draws the placements where an index and a scan are most likely
to part ways:

* duplicated points (zero distances, coincident directions);
* integer grid coordinates with ``R = 5``, so axis-aligned pairs five apart
  and 3-4-5 pairs sit at exactly ``max_range`` (``math.hypot`` is exact on
  them), and many distances tie;
* collinear runs (Delaunay is degenerate, cone winners tie).

Every comparison with ``tests/oracle.py`` is exact.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    euclidean_mst,
    gabriel_graph,
    relative_neighborhood_graph,
    theta_graph,
    yao_graph,
)
from repro.core.cbtc import run_cbtc
from repro.core.reconfiguration import ReconfigurationManager
from repro.geometry import Point
from repro.net.network import Network
from repro.radio import PathLossModel, PowerModel
from tests import oracle

MAX_RANGE = 5.0
ALPHA = 5 * math.pi / 6

_coordinate = st.integers(min_value=0, max_value=12)


@st.composite
def degenerate_point_sets(draw):
    """Grid-snapped points plus an optional collinear run plus duplicates."""
    points = draw(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=9))
    if draw(st.booleans()):
        x, y = draw(_coordinate), draw(_coordinate)
        dx = draw(st.integers(min_value=-3, max_value=3))
        dy = draw(st.integers(min_value=-3, max_value=3))
        length = draw(st.integers(min_value=2, max_value=5))
        points += [(x + i * dx, y + i * dy) for i in range(length)]
    duplicates = draw(st.lists(st.integers(min_value=0, max_value=len(points) - 1), max_size=3))
    points += [points[i] for i in duplicates]
    return draw(st.permutations(points))


DEGENERATE = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _network(points) -> Network:
    power_model = PowerModel(propagation=PathLossModel(), max_range=MAX_RANGE)
    return Network.from_positions([(float(x), float(y)) for x, y in points], power_model=power_model)


def _edges(graph):
    """Nodes and ``(u, v) -> length`` edges; lengths compared exactly."""
    return (
        sorted(graph.nodes),
        {(min(u, v), max(u, v)): data.get("length") for u, v, data in graph.edges(data=True)},
    )


@DEGENERATE
@given(degenerate_point_sets())
def test_cbtc_outcome_matches_oracle(points):
    network = _network(points)
    produced = run_cbtc(network, ALPHA)
    expected = oracle.cbtc_outcome(network, ALPHA)
    assert list(produced.states) == list(expected.states)
    assert produced.states == expected.states


@DEGENERATE
@given(degenerate_point_sets())
def test_max_power_graph_matches_oracle(points):
    network = _network(points)
    assert _edges(network.max_power_graph()) == _edges(oracle.max_power_graph(network))
    for node_id in network.node_ids:
        assert network.neighbors_within(node_id, MAX_RANGE) == oracle.neighbors_within(
            network, node_id, MAX_RANGE
        )


@pytest.mark.parametrize("respect_max_range", [True, False])
@DEGENERATE
@given(points=degenerate_point_sets())
def test_gabriel_and_rng_match_oracle(points, respect_max_range):
    network = _network(points)
    assert _edges(gabriel_graph(network, respect_max_range=respect_max_range)) == _edges(
        oracle.gabriel_graph(network, respect_max_range=respect_max_range)
    )
    assert _edges(relative_neighborhood_graph(network, respect_max_range=respect_max_range)) == _edges(
        oracle.relative_neighborhood_graph(network, respect_max_range=respect_max_range)
    )


@pytest.mark.parametrize("respect_max_range", [True, False])
@DEGENERATE
@given(points=degenerate_point_sets())
def test_mst_matches_oracle(points, respect_max_range):
    network = _network(points)
    assert _edges(euclidean_mst(network, respect_max_range=respect_max_range)) == _edges(
        oracle.euclidean_mst(network, respect_max_range=respect_max_range)
    )


@pytest.mark.parametrize("respect_max_range", [True, False])
@DEGENERATE
@given(points=degenerate_point_sets(), k=st.sampled_from([1, 4, 6]))
def test_yao_and_theta_ties_match_oracle(points, k, respect_max_range):
    network = _network(points)
    assert _edges(yao_graph(network, k=k, respect_max_range=respect_max_range)) == _edges(
        oracle.yao_graph(network, k=k, respect_max_range=respect_max_range)
    )
    assert _edges(theta_graph(network, k=k, respect_max_range=respect_max_range)) == _edges(
        oracle.theta_graph(network, k=k, respect_max_range=respect_max_range)
    )


def _recording(manager):
    """Record, in order, every event ``synchronize`` applies to ``manager``."""
    applied = []
    apply = manager.apply

    def record(event):
        applied.append(event)
        apply(event)

    manager.apply = record
    return applied


@DEGENERATE
@given(
    points=degenerate_point_sets(),
    mover=st.integers(min_value=0),
    target=st.tuples(_coordinate, _coordinate),
)
def test_synchronize_events_after_a_move_match_oracle(points, mover, target):
    network = _network(points)
    produced = ReconfigurationManager(network, ALPHA)
    expected = ReconfigurationManager(network, ALPHA)
    produced_events = _recording(produced)
    expected_events = _recording(expected)
    network.node(mover % len(network)).move_to(Point(float(target[0]), float(target[1])))

    produced_iterations = produced.synchronize()
    with oracle.oracle_event_detection():
        expected_iterations = expected.synchronize()

    assert produced_events == expected_events
    assert produced_iterations == expected_iterations
    assert produced.outcome.states == expected.outcome.states
    assert produced._known == expected._known
