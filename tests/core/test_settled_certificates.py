"""Settled-state certificates versus the per-event rules of Section 4.

``ReconfigurationManager`` skips the shrink-back of a join or an angle
change when a certificate proves that it cannot change the observer's state
(see ``ReconfigurationManager._shrink_back``).  Every test here runs one
script twice: with production, and inside ``oracle_shrink_back()``, which
installs the per-event join and angle-change rules with the bottom-up
shrink-back.  After every step it compares every field: the node states
(floats as ``float.hex()``, records in dict order), the NDP memory, the
touched set, the counters and what the step returned (``synchronize``'s
iteration count).

The constructed cases sit where a wrong certificate would show: a distance
refresh or a leave before a join, a newcomer exactly at the top tag, a
top-tag angle change that opens a gap (below and at maximum power), a
result matched only through the 2.5e-9 corner of the coverage test, a
boundary node, and a node that dies and revives.  A counter wraps
production's ``shrink_back_node`` to show which steps skip it.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import reconfiguration
from repro.core.reconfiguration import (
    AngleChangeEvent,
    JoinEvent,
    LeaveEvent,
    ReconfigurationManager,
)
from repro.core.state import CBTCOutcome, NeighborRecord, NodeState
from repro.geometry import Point
from repro.geometry.angles import TWO_PI
from repro.net.network import Network
from repro.net.node import Node
from repro.radio import PathLossModel, PowerModel
from repro.scenarios.catalogue import get_scenario
from repro.scenarios.runner import ScenarioRunner
from tests import oracle

ALPHA = 5 * math.pi / 6
MAX_RANGE = 5.0


def _power_model() -> PowerModel:
    return PowerModel(propagation=PathLossModel(), max_range=MAX_RANGE)


def _fields(manager, returned):
    return (
        [
            (
                node_id,
                state.node_id,
                state.alpha.hex(),
                state.final_power.hex(),
                state.used_max_power,
                state.rounds,
                [
                    (
                        key,
                        record.neighbor,
                        record.direction.hex(),
                        record.required_power.hex(),
                        record.discovery_power.hex(),
                        record.distance.hex(),
                    )
                    for key, record in state.neighbors.items()
                ],
            )
            for node_id, state in manager.outcome.states.items()
        ],
        sorted((node_id, sorted(known)) for node_id, known in manager._known.items()),
        sorted(manager._touched),
        (manager.events_applied, manager.reruns, manager.memo_hits),
        returned,
    )


@pytest.fixture
def calls(monkeypatch):
    """Observers production's ``shrink_back_node`` ran for, in call order."""
    observed = []
    original = reconfiguration.shrink_back_node

    def counting(state):
        observed.append(state.node_id)
        return original(state)

    monkeypatch.setattr(reconfiguration, "shrink_back_node", counting)
    return observed


def _run(build, steps, calls):
    network, manager = build()
    trail, per_step = [], []
    for step in steps:
        before = len(calls)
        trail.append(_fields(manager, step(network, manager)))
        per_step.append(calls[before:])
    return trail, per_step, manager


def _check(build, steps, calls):
    """Run ``steps`` on production and on the oracle; every field must match
    after every step.  Returns production's per-step shrink-back observers
    and its manager."""
    produced, per_step, manager = _run(build, steps, calls)
    with oracle.oracle_shrink_back():
        expected, _, _ = _run(build, steps, calls)
    assert produced == expected
    return per_step, manager


# --------------------------------------------------------------------- #
# Script steps
# --------------------------------------------------------------------- #
def sync(network, manager):
    return manager.synchronize()


def _top(manager, observer):
    return max(record.discovery_power for record in manager.outcome.states[observer].neighbors.values())


def join(observer, subject, direction, *, above_top):
    """A join whose tag is the observer's current highest tag plus ``above_top``."""

    def step(network, manager):
        tag = _top(manager, observer) + above_top
        manager.apply(
            JoinEvent(observer=observer, subject=subject, direction=direction,
                      required_power=tag, distance=math.sqrt(tag))
        )

    return step


def angle(observer, subject, new_direction, *, distance=None):
    """An angle change of a recorded neighbour, optionally at a new distance."""

    def step(network, manager):
        record = manager.outcome.states[observer].neighbors[subject]
        if distance is None:
            power, length = record.required_power, record.distance
        else:
            power, length = network.power_model.required_power(distance), distance
        manager.apply(
            AngleChangeEvent(observer=observer, subject=subject, new_direction=new_direction,
                             required_power=power, distance=length)
        )

    return step


def leave(observer, subject):
    def step(network, manager):
        manager.apply(LeaveEvent(observer=observer, subject=subject))

    return step


def move(node_id, x, y):
    def step(network, manager):
        network.node(node_id).move_to(Point(x, y))
        return manager.synchronize()

    return step


def crash(node_id):
    def step(network, manager):
        network.node(node_id).crash()
        return manager.synchronize()

    return step


def recover(node_id):
    def step(network, manager):
        network.node(node_id).recover()
        return manager.synchronize()

    return step


# --------------------------------------------------------------------- #
# Constructed networks and states
# --------------------------------------------------------------------- #
def _polar(radius, degrees):
    return (radius * math.cos(math.radians(degrees)), radius * math.sin(math.radians(degrees)))


#: Node 0 at the origin; its CBTC state keeps nodes 1-5 (60 degrees apart,
#: radii 1.0-1.4), so its highest tag is node 5's, at 240 degrees.  Node 6
#: (300 degrees, radius 1.5) is not needed for coverage.
STAR = [(0.0, 0.0)] + [_polar(1.0 + 0.1 * k, 60 * k) for k in range(6)]
TOP = 5


def star():
    network = Network.from_positions(STAR, power_model=_power_model())
    return network, ReconfigurationManager(network, ALPHA)


def star_at_max_power():
    """Like ``star`` but node 0's highest-tag neighbour is at exactly the
    maximum range, so node 0 covers the full circle at maximum power."""
    points = list(STAR[:5]) + [_polar(MAX_RANGE, 240)]
    network = Network.from_positions(points, power_model=_power_model())
    manager = ReconfigurationManager(network, ALPHA)
    assert manager.outcome.states[0].used_max_power and not manager.outcome.states[0].has_gap()
    return network, manager


def _crafted(records, *, used_max_power=False):
    """A manager whose node 0 holds ``records`` = [(direction, tag), ...]."""

    def build():
        network = Network.from_positions([(0.0, 0.0)], power_model=_power_model())
        state = NodeState(node_id=0, alpha=ALPHA, used_max_power=used_max_power)
        for index, (direction, tag) in enumerate(records, start=1):
            state.add_neighbor(
                NeighborRecord(neighbor=index, direction=direction, required_power=tag,
                               discovery_power=tag, distance=math.sqrt(tag))
            )
        state.final_power = max(tag for _, tag in records)
        outcome = CBTCOutcome(alpha=ALPHA, states={0: state})
        return network, ReconfigurationManager(network, ALPHA, outcome=outcome)

    return build


# --------------------------------------------------------------------- #
# The two fast paths
# --------------------------------------------------------------------- #
def test_join_above_a_certified_top_skips_shrink_back(calls):
    per_step, manager = _check(
        star,
        [join(0, 100, 0.5, above_top=1.0), join(0, 101, 5.5, above_top=0.5)],
        calls,
    )
    # The first join certifies node 0; the second is a no-op shrink-back.
    assert per_step == [[0], []]
    assert 100 not in manager.outcome.states[0].neighbors
    assert 101 not in manager.outcome.states[0].neighbors


def test_top_tag_angle_change_without_a_gap_skips_shrink_back(calls):
    top_direction = math.radians(240)
    per_step, manager = _check(
        star,
        [
            join(0, 100, 0.5, above_top=1.0),
            angle(0, TOP, top_direction + 0.03),
            join(0, 101, 5.5, above_top=0.5),  # the certificate carried over
            angle(0, TOP, top_direction - 0.02, distance=1.47),
        ],
        calls,
    )
    assert per_step == [[0], [], [], []]
    # The last event moved the top neighbour farther: final power follows.
    assert manager.outcome.states[0].final_power == _power_model().required_power(1.47)


# --------------------------------------------------------------------- #
# Where a wrong certificate would show
# --------------------------------------------------------------------- #
def test_distance_refresh_then_join_recomputes_final_power(calls):
    farther = _polar(1.45, 240)
    per_step, manager = _check(
        star,
        [join(0, 100, 0.5, above_top=1.0), move(TOP, *farther), join(0, 101, 5.5, above_top=0.5)],
        calls,
    )
    assert 0 not in per_step[1] + per_step[2]
    state = manager.outcome.states[0]
    # The refresh moved node 5's required power, so the skipped shrink-back
    # still owes the new final power.
    assert state.neighbors[TOP].distance == pytest.approx(1.45)
    assert state.final_power == state.neighbors[TOP].required_power


def test_leave_drops_the_certificate(calls):
    per_step, manager = _check(
        star,
        [
            join(0, 100, 0.5, above_top=1.0),
            leave(0, 2),  # no gap opens: no re-run, no shrink-back
            join(0, 101, 5.5, above_top=0.5),
            leave(0, TOP),  # a gap opens: re-run
            join(0, 102, 5.5, above_top=0.5),
        ],
        calls,
    )
    assert per_step == [[0], [], [0], [], [0]]
    assert manager.reruns == 1


def test_rerun_replaces_a_certified_state(calls):
    # Without node 6, moving node 5 from 240 to 130 degrees leaves node 0
    # nothing to grow into: the re-run ends at maximum power with a gap, and
    # a newcomer from the open side must be kept.
    def build():
        network = Network.from_positions(STAR[:6], power_model=_power_model())
        return network, ReconfigurationManager(network, ALPHA)

    per_step, manager = _check(
        build,
        [join(0, 100, 0.5, above_top=1.0), move(TOP, *_polar(1.4, 130)),
         join(0, 101, math.radians(270), above_top=0.5)],
        calls,
    )
    assert manager.reruns == 1 and manager.outcome.states[0].used_max_power
    assert per_step[2] == [0]
    assert 101 in manager.outcome.states[0].neighbors


def test_join_exactly_at_the_top_tag_is_kept(calls):
    per_step, manager = _check(
        star,
        [join(0, 100, 0.5, above_top=1.0), join(0, 101, math.radians(300), above_top=0.0)],
        calls,
    )
    assert per_step == [[0], [0]]
    assert 101 in manager.outcome.states[0].neighbors


def test_top_tag_angle_change_opening_a_gap_below_max_power_reruns(calls):
    per_step, manager = _check(
        star,
        [join(0, 100, 0.5, above_top=1.0), angle(0, TOP, math.radians(130)),
         join(0, 101, 5.5, above_top=0.5)],
        calls,
    )
    assert per_step[1] == [] and manager.reruns == 1


def test_top_tag_angle_change_opening_a_gap_at_max_power_shrinks_back(calls):
    per_step, manager = _check(
        star_at_max_power,
        [angle(0, 1, 0.01), angle(0, TOP, math.radians(130)), join(0, 101, 5.5, above_top=0.5)],
        calls,
    )
    assert per_step == [[0], [0], [0]]
    assert manager.reruns == 0


def test_result_matched_through_the_corner_is_not_certified(calls):
    # One gap of alpha + 5e-10 (directions alpha/2 and 2*pi - alpha/2 - 5e-10)
    # that arcs_equal reads as the full circle; the direction 0.0 at tag 2.0
    # fills it.
    delta = 5e-10
    build = _crafted([(ALPHA / 2, 1.0), (math.pi, 1.0), (TWO_PI - ALPHA / 2 - delta, 1.0), (0.0, 2.0)])
    per_step, manager = _check(
        build,
        [join(0, 10, 1.0, above_top=1.0), join(0, 11, 4.0, above_top=1.0)],
        calls,
    )
    assert per_step == [[0], [0]]
    assert list(manager.outcome.states[0].neighbors) == [1, 2, 3]
    assert manager.outcome.states[0].has_gap()


def test_boundary_node_keeps_a_newcomer_from_an_uncovered_direction(calls):
    # Directions 0.0 and 1.0 at tag 1.0 already cover the cone of 0.5 at
    # tag 2.0; the rest of the circle is open.
    build = _crafted([(0.0, 1.0), (1.0, 1.0), (0.5, 2.0)], used_max_power=True)
    per_step, manager = _check(
        build,
        [join(0, 10, 0.2, above_top=0.5), join(0, 11, math.pi, above_top=1.0)],
        calls,
    )
    assert per_step == [[0], [0]]
    assert list(manager.outcome.states[0].neighbors) == [1, 2, 11]


def test_node_that_dies_and_revives(calls):
    _check(
        star,
        [
            join(0, 100, 0.5, above_top=1.0),
            crash(0),
            recover(0),
            join(0, 101, 5.5, above_top=0.5),
            sync,
        ],
        calls,
    )


# --------------------------------------------------------------------- #
# Hypothesis battery: random histories, compared after every synchronize
# --------------------------------------------------------------------- #
_coordinate = st.integers(min_value=0, max_value=20).map(lambda value: value * 0.5)
_index = st.integers(min_value=0, max_value=63)
_operation = st.one_of(
    st.tuples(st.just("move"), _index, _coordinate, _coordinate),
    st.tuples(st.just("nudge"), _index, st.sampled_from([-0.2, -0.01, 0.01, 0.2]),
              st.sampled_from([-0.2, -0.01, 0.0, 0.01, 0.2])),
    st.tuples(st.just("crash"), _index),
    st.tuples(st.just("recover"), _index),
    st.tuples(st.just("add"), _coordinate, _coordinate),
)


def _apply(operation, network):
    kind = operation[0]
    if kind == "add":
        node_id = max(network.node_ids) + 1
        network.add_node(Node(node_id=node_id, position=Point(operation[1], operation[2])))
        return
    node = network.node(network.node_ids[operation[1] % len(network.node_ids)])
    if kind == "move":
        node.move_to(Point(operation[2], operation[3]))
    elif kind == "nudge":
        node.move_to(Point(node.position.x + operation[2], node.position.y + operation[3]))
    elif kind == "crash":
        node.crash()
    else:
        node.recover()


def _history(points, operations):
    def build():
        network = Network.from_positions(points, power_model=_power_model())
        return network, ReconfigurationManager(network, ALPHA)

    def step_for(operation):
        def step(network, manager):
            _apply(operation, network)
            return manager.synchronize()

        return step

    return build, [sync] + [step_for(operation) for operation in operations]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    points=st.lists(st.tuples(_coordinate, _coordinate), min_size=3, max_size=14),
    operations=st.lists(_operation, min_size=1, max_size=6),
)
def test_random_histories_match_the_per_event_rules(points, operations):
    observed = []
    original = reconfiguration.shrink_back_node

    def counting(state):
        observed.append(state.node_id)
        return original(state)

    reconfiguration.shrink_back_node = counting
    try:
        _check(*_history(points, operations), observed)
    finally:
        reconfiguration.shrink_back_node = original


# --------------------------------------------------------------------- #
# The fast paths fire on a real scenario
# --------------------------------------------------------------------- #
def test_drift_scenario_skips_most_shrink_backs(calls):
    spec = get_scenario("random-waypoint-drift").scaled(node_count=80, epochs=3)
    runner = ScenarioRunner(spec, 0, incremental=True)
    runner.run()
    events = runner._manager.events_applied
    # Without certificates every join and most angle changes shrink back,
    # about one call per event.
    assert events > 1000
    assert len(calls) < events / 2
