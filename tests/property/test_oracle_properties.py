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

Shrink-back and the ``gap_alpha`` test are also checked on generated node
states, built to sit on the tolerances of the coverage comparison.

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
from repro.core.optimizations import shrink_back_node
from repro.core.reconfiguration import ReconfigurationManager
from repro.core.state import NeighborRecord, NodeState
from repro.geometry import Point
from repro.geometry.angles import TWO_PI
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


# --------------------------------------------------------------------------- #
# Shrink-back and the gap test on generated node states
# --------------------------------------------------------------------------- #
_just_above_alpha = st.floats(min_value=1.5e-12, max_value=2.5e-9)


@st.composite
def direction_lists(draw, alpha):
    """Directions on the tolerances of the full-circle and arc comparisons.

    Seeds are uniform (optionally confined to a half circle, which makes a
    boundary node), ``0.0`` or exactly ``2*pi``, optionally followed by a
    ring around the circle with steps of at most, exactly or just over
    ``alpha``; further directions repeat an earlier one, or sit exactly
    ``alpha``, just over ``alpha`` (inside the 2.5e-9 corner), or a hair
    away from an earlier one.
    """
    span = draw(st.sampled_from([TWO_PI, math.pi]))
    seed = st.one_of(
        st.floats(min_value=0.0, max_value=span, exclude_max=True),
        st.sampled_from([0.0, TWO_PI]),
    )
    directions = [draw(seed)]
    step = draw(st.sampled_from([None, alpha, 0.9 * alpha, alpha + 1e-9]))
    if step is not None:
        for _ in range(math.ceil(TWO_PI / step) - 1):
            value = directions[-1] + step
            directions.append(value - TWO_PI if value > TWO_PI else value)
    for _ in range(draw(st.integers(min_value=0, max_value=11))):
        base = draw(st.sampled_from(directions))
        kind = draw(st.sampled_from(["seed", "duplicate", "alpha", "above", "hair"]))
        if kind == "seed":
            value = draw(seed)
        elif kind == "duplicate":
            value = base
        elif kind == "alpha":
            value = base + alpha
        elif kind == "above":
            value = base + alpha + draw(_just_above_alpha)
        else:
            value = base + draw(st.sampled_from([1e-10, 1e-8, 5e-7, 2e-6]))
        directions.append(value - TWO_PI if value > TWO_PI else value)
    return directions


@st.composite
def node_states(draw):
    # 1.5 and 2.0 make ``base + alpha`` gaps exact; the others are the paper's.
    alpha = draw(st.sampled_from([5 * math.pi / 6, 2 * math.pi / 3, math.pi / 2, 1.5, 2.0]))
    directions = draw(direction_lists(alpha))
    levels = sorted(draw(st.sets(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=6)))
    state = NodeState(
        node_id=0,
        alpha=alpha,
        final_power=levels[-1],
        used_max_power=draw(st.booleans()),
        rounds=len(levels),
    )
    for index, direction in enumerate(directions):
        level = draw(st.sampled_from(levels))
        state.neighbors[index + 1] = NeighborRecord(
            neighbor=index + 1,
            direction=direction,
            required_power=level * draw(st.sampled_from([1.0, 0.5, 0.25])),
            discovery_power=level,
            distance=draw(st.floats(min_value=0.0, max_value=10.0)),
        )
    return state


def _exact(state, result):
    """Everything a shrink-back result carries, floats as ``float.hex()``."""
    return (
        result is state,
        result.node_id,
        result.alpha.hex(),
        result.final_power.hex(),
        result.used_max_power,
        result.rounds,
        [
            (
                key,
                record.neighbor,
                record.direction.hex(),
                record.required_power.hex(),
                record.discovery_power.hex(),
                record.distance.hex(),
            )
            for key, record in result.neighbors.items()
        ],
    )


STATES = settings(max_examples=400, deadline=None)


@STATES
@given(node_states())
def test_shrink_back_matches_oracle(state):
    assert _exact(state, shrink_back_node(state)) == _exact(state, oracle.shrink_back_node(state))


@STATES
@given(node_states())
def test_has_gap_matches_oracle(state):
    assert state.has_gap() == oracle.has_gap(state)
    assert state.has_gap(math.pi / 3) == oracle.has_gap(state, math.pi / 3)
    assert state.is_boundary == (state.used_max_power and oracle.has_gap(state))


def _state(alpha, tagged, used_max_power=True):
    state = NodeState(node_id=0, alpha=alpha, used_max_power=used_max_power)
    for index, (direction, level) in enumerate(tagged):
        state.neighbors[index + 1] = NeighborRecord(index + 1, direction, level, level, 1.0)
    return state


@pytest.mark.parametrize(
    "alpha, tagged",
    [
        # One record; many records on one level.
        (ALPHA, [(1.0, 4.0)]),
        (ALPHA, [(0.0, 4.0), (2.0, 4.0), (4.0, 4.0), (2.0, 4.0)]),
        # Full circle with every gap exactly alpha = 1.5 (the wrap gap is
        # smaller): dropping the last level reopens a gap of exactly 3.0.
        (1.5, [(0.0, 1.0), (1.5, 1.0), (3.0, 1.0), (4.5, 2.0), (6.0, 1.0)]),
        # The higher level only adds a direction 1e-8 beyond a lower one at
        # the edge of a boundary node's coverage: the failing prefix is too
        # close in length to be certified, so the bottom-up fallback runs.
        (math.pi / 2, [(0.0, 1.0), (1.0, 1.0), (1.0 + 1e-8, 2.0)]),
        # A gap 2e-9 over alpha away from angle 0 fails the 2.5e-9 corner ...
        (1.5, [(0.0, 1.0), (1.5, 1.0), (3.0, 1.0), (4.5, 1.0), (6.0 + 2e-9, 2.0), (5.0, 3.0)]),
        # ... but one 1e-9 over alpha and centred on angle 0 passes it, so the
        # lowest level already matches the full circle.
        (1.5, [(0.75 + 5e-10, 1.0), (2.25, 1.0), (3.75, 1.0), (5.25, 1.0), (TWO_PI - 0.75 - 5e-10, 1.0), (0.0, 2.0)]),
        # 0.0 and exactly 2*pi, which sort at opposite ends.
        (ALPHA, [(TWO_PI, 1.0), (0.0, 2.0), (math.pi, 3.0), (2.5, 4.0), (4.0, 4.0)]),
    ],
)
@pytest.mark.parametrize("used_max_power", [True, False])
def test_shrink_back_tolerance_corners_match_oracle(alpha, tagged, used_max_power):
    state = _state(alpha, tagged, used_max_power)
    assert _exact(state, shrink_back_node(state)) == _exact(state, oracle.shrink_back_node(state))
    assert state.has_gap() == oracle.has_gap(state)
