"""Brute-force reference definitions: the one oracle production is checked against.

Production answers every "which alive nodes are within distance r / reach
power p of u?" question through a single path, the uniform-grid spatial
index (:mod:`repro.geometry.spatial`).  This module keeps the definitions
that path must reproduce, computed straight from node positions by full
scans over ID-sorted nodes with the repo-wide ``d <= r + 1e-12`` tolerance.
It shares no query code with ``src/``: distances and directions are
recomputed here with the same ``math.hypot``/``math.atan2`` formulas the
geometry primitives use, and only the power model's scalar predicates, the
CBTC growing phase (fed with candidate lists built here), the beacon power
rule and the event/state dataclasses are imported.  Every comparison
against it is exact — same edges, same floats, same order.

Covered: neighbours, broadcast receivers, ``G_R`` and unit-disk graphs,
per-node CBTC candidate lists (and the outcome they produce through
``run_cbtc_for_node(_candidates=...)``), Gabriel, RNG, the dense Euclidean
MST, Yao and theta graphs, the per-pair event detection of
``ReconfigurationManager.synchronize`` with
:func:`oracle_event_detection`, which swaps it in, and the bottom-up
shrink-back of Section 3.1 (one re-sorted prefix per power level) and the
per-event join and angle-change rules of Section 4 (one full shrink-back
per event, no settled-state certificates) with :func:`oracle_shrink_back`,
which swaps both in, plus the ``gap_alpha`` test through the general
normalizing path (:func:`has_gap`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

import networkx as nx

from repro.core import incremental, optimizations, reconfiguration
from repro.core.cbtc import run_cbtc_for_node
from repro.core.reconfiguration import (
    AngleChangeEvent,
    JoinEvent,
    LeaveEvent,
    ReconfigurationManager,
    beacon_power_policy,
)
from repro.core.state import CBTCOutcome, NeighborRecord, NodeState
from repro.geometry.angles import (
    TWO_PI,
    angle_difference,
    angular_gaps_of_sorted,
    arcs_equal,
    cover,
    has_gap_greater_than,
    normalize_angle,
)
from repro.net.network import Network
from repro.net.node import Node, NodeId

TOLERANCE = 1e-12


def distance(a: Node, b: Node) -> float:
    """Euclidean distance between two nodes' positions."""
    return math.hypot(a.position.x - b.position.x, a.position.y - b.position.y)


def direction(a: Node, b: Node) -> float:
    """Direction from ``a`` towards ``b`` in ``[0, 2*pi)``."""
    angle = math.atan2(b.position.y - a.position.y, b.position.x - a.position.x) % (2.0 * math.pi)
    return 0.0 if angle == 2.0 * math.pi else angle


def _alive(network: Network) -> List[Node]:
    return [node for node in network.nodes if node.alive]


def _empty_graph(nodes: List[Node]) -> nx.Graph:
    graph = nx.Graph()
    for node in nodes:
        graph.add_node(node.node_id, pos=node.position.as_tuple())
    return graph


# ---------------------------------------------------------------------- #
# Network queries and reference graphs
# ---------------------------------------------------------------------- #
def neighbors_within(network: Network, node_id: NodeId, radius: float) -> List[NodeId]:
    """Alive node IDs within ``radius`` of ``node_id`` (excluding itself)."""
    center = network.node(node_id)
    return [
        n.node_id
        for n in _alive(network)
        if n.node_id != node_id and distance(center, n) <= radius + TOLERANCE
    ]


def receivers_of_broadcast(network: Network, sender: NodeId, power: float) -> List[NodeId]:
    """Alive node IDs that receive a broadcast from ``sender`` at ``power``."""
    origin = network.node(sender)
    reaches = network.power_model.reaches_with
    return [
        n.node_id
        for n in _alive(network)
        if n.node_id != sender and reaches(power, distance(origin, n))
    ]


def unit_disk_graph(network: Network, radius: Optional[float] = None) -> nx.Graph:
    """Disk graph over alive nodes; ``G_R`` when ``radius`` is omitted."""
    radius = network.power_model.max_range if radius is None else radius
    nodes = _alive(network)
    graph = _empty_graph(nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            d = distance(u, v)
            if d <= radius + TOLERANCE:
                graph.add_edge(u.node_id, v.node_id, length=d)
    return graph


def max_power_graph(network: Network) -> nx.Graph:
    """The paper's ``G_R`` over alive nodes."""
    return unit_disk_graph(network)


# ---------------------------------------------------------------------- #
# CBTC
# ---------------------------------------------------------------------- #
def sorted_candidates(network: Network, node_id: NodeId) -> List[Tuple[float, Node, float]]:
    """``(required_power, node, distance)`` for every alive node in maximum
    range of ``node_id``, sorted by ``(required_power, node_id)``."""
    power_model = network.power_model
    center = network.node(node_id)
    candidates = []
    for other in _alive(network):
        if other.node_id == node_id:
            continue
        d = distance(center, other)
        if d <= power_model.max_range + TOLERANCE:
            candidates.append((power_model.required_power(d), other, d))
    candidates.sort(key=lambda item: (item[0], item[1].node_id))
    return candidates


def cbtc_outcome(network: Network, alpha: float, *, schedule=None) -> CBTCOutcome:
    """CBTC(alpha) at every alive node, each fed its brute-force candidate list."""
    outcome = CBTCOutcome(alpha=alpha)
    for node in _alive(network):
        outcome.states[node.node_id] = run_cbtc_for_node(
            network,
            node.node_id,
            alpha,
            schedule=schedule,
            _candidates=sorted_candidates(network, node.node_id),
        )
    return outcome


# ---------------------------------------------------------------------- #
# Proximity-graph baselines
# ---------------------------------------------------------------------- #
def _pairs(network: Network, respect_max_range: bool) -> Iterator[Tuple[Node, Node, float]]:
    nodes = _alive(network)
    max_range = network.power_model.max_range
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            d = distance(u, v)
            if respect_max_range and d > max_range + TOLERANCE:
                continue
            yield u, v, d


def gabriel_graph(network: Network, *, respect_max_range: bool = True) -> nx.Graph:
    """No node ``w`` with ``d(u, w)^2 + d(v, w)^2 < d(u, v)^2`` (O(n^3) scan)."""
    nodes = _alive(network)
    graph = _empty_graph(nodes)
    for u, v, d_uv in _pairs(network, respect_max_range):
        d_uv_sq = d_uv ** 2
        blocked = any(
            distance(u, w) ** 2 + distance(v, w) ** 2 < d_uv_sq - 1e-9
            for w in nodes
            if w.node_id not in (u.node_id, v.node_id)
        )
        if not blocked:
            graph.add_edge(u.node_id, v.node_id, length=d_uv)
    return graph


def relative_neighborhood_graph(network: Network, *, respect_max_range: bool = True) -> nx.Graph:
    """No node ``w`` with ``max(d(u, w), d(v, w)) < d(u, v)`` (O(n^3) scan)."""
    nodes = _alive(network)
    graph = _empty_graph(nodes)
    for u, v, d_uv in _pairs(network, respect_max_range):
        blocked = any(
            max(distance(u, w), distance(v, w)) < d_uv - TOLERANCE
            for w in nodes
            if w.node_id not in (u.node_id, v.node_id)
        )
        if not blocked:
            graph.add_edge(u.node_id, v.node_id, length=d_uv)
    return graph


def euclidean_mst(network: Network, *, respect_max_range: bool = False) -> nx.Graph:
    """Kruskal over the dense (optionally range-limited) edge set."""
    nodes = _alive(network)
    dense = _empty_graph(nodes)
    for u, v, d in _pairs(network, respect_max_range):
        dense.add_edge(u.node_id, v.node_id, length=d)
    forest = nx.minimum_spanning_tree(dense, weight="length")
    for node in nodes:
        if node.node_id not in forest:
            forest.add_node(node.node_id, pos=node.position.as_tuple())
    return forest


def _cone_winners(network: Network, k: int, respect_max_range: bool, offset: float, key) -> nx.Graph:
    """Per node and cone, the competitor minimizing ``key(d, angle, cone)``
    (ties broken by node ID); the edge carries the winner's distance."""
    if k < 1:
        raise ValueError("the number of cones k must be at least 1")
    nodes = _alive(network)
    graph = _empty_graph(nodes)
    max_range = network.power_model.max_range
    width = 2.0 * math.pi / k
    for u in nodes:
        best: Dict[int, tuple] = {}
        for v in nodes:
            if v.node_id == u.node_id:
                continue
            d = distance(u, v)
            if respect_max_range and d > max_range + TOLERANCE:
                continue
            angle = direction(u, v)
            cone = int(normalize_angle(angle - offset) // width) % k
            candidate = (key(d, angle, offset + (cone + 0.5) * width), d, v.node_id)
            if cone not in best or candidate < best[cone]:
                best[cone] = candidate
        for _, (_, d, v_id) in sorted(best.items()):
            graph.add_edge(u.node_id, v_id, length=d)
    return graph


def yao_graph(network: Network, k: int = 6, *, respect_max_range: bool = True, offset: float = 0.0) -> nx.Graph:
    """Nearest competitor per cone."""
    return _cone_winners(network, k, respect_max_range, offset, lambda d, angle, bisector: d)


def theta_graph(
    network: Network, k: int = 6, *, respect_max_range: bool = True, offset: float = 0.0
) -> nx.Graph:
    """Competitor with the shortest projection on the cone bisector."""
    return _cone_winners(
        network,
        k,
        respect_max_range,
        offset,
        lambda d, angle, bisector: d * math.cos(abs(normalize_angle(angle - bisector))),
    )


# ---------------------------------------------------------------------- #
# Reconfiguration event detection
# ---------------------------------------------------------------------- #
def _joins_by_observer(
    manager: ReconfigurationManager, beacon_powers: Dict[NodeId, float], alive: Set[NodeId]
) -> Dict[NodeId, List[JoinEvent]]:
    """Every beaconing subject against every alive observer, in ID order."""
    network = manager.network
    power_model = network.power_model
    joins: Dict[NodeId, List[JoinEvent]] = {}
    ordered_alive = sorted(alive)
    for subject, beacon_power in beacon_powers.items():
        if subject not in alive:
            continue
        subject_node = network.node(subject)
        for observer in ordered_alive:
            if observer == subject:
                continue
            state = manager.outcome.states.get(observer)
            if state is None:
                continue
            known = manager._known.get(observer)
            if known is None:
                known = manager._known.setdefault(observer, set(state.neighbor_ids))
            if subject in known:
                continue
            observer_node = network.node(observer)
            d = distance(observer_node, subject_node)
            if power_model.can_reach(d) and power_model.reaches_with(beacon_power, d):
                joins.setdefault(observer, []).append(
                    JoinEvent(
                        observer=observer,
                        subject=subject,
                        direction=direction(observer_node, subject_node),
                        required_power=power_model.required_power(d),
                        distance=d,
                    )
                )
    return joins


def detect_events(manager: ReconfigurationManager) -> list:
    """The events a beaconing NDP would deliver, by per-pair recomputation.

    Mirrors the manager's bookkeeping side effects exactly: heard-from nodes
    that are gone or out of range are forgotten, and a silent distance
    refresh rewrites the record and marks the observer touched.
    """
    network = manager.network
    power_model = network.power_model
    beacon_powers = beacon_power_policy(manager.outcome, network)
    alive = {node.node_id for node in network.nodes if node.alive}
    joins_by_observer = _joins_by_observer(manager, beacon_powers, alive)

    def in_range(observer: NodeId, other: NodeId) -> Optional[float]:
        if other not in alive:
            return None
        d = distance(network.node(observer), network.node(other))
        return d if power_model.can_reach(d) else None

    events: list = []
    for state in list(manager.outcome):
        observer = state.node_id
        if observer not in alive:
            continue
        known = manager._known.get(observer)
        if known is None:
            known = manager._known.setdefault(observer, set(state.neighbor_ids))
        for other_id in list(known):
            if other_id not in state.neighbors and in_range(observer, other_id) is None:
                known.discard(other_id)
        for neighbor_id in state.neighbor_ids:
            d = in_range(observer, neighbor_id)
            if d is None:
                events.append(LeaveEvent(observer=observer, subject=neighbor_id))
                continue
            current = direction(network.node(observer), network.node(neighbor_id))
            recorded = state.neighbors[neighbor_id]
            if angle_difference(current, recorded.direction) > manager.angle_threshold:
                events.append(
                    AngleChangeEvent(
                        observer=observer,
                        subject=neighbor_id,
                        new_direction=current,
                        required_power=power_model.required_power(d),
                        distance=d,
                    )
                )
            elif abs(d - recorded.distance) > 1e-9:
                manager._touched.add(observer)
                state.neighbors[neighbor_id] = NeighborRecord(
                    neighbor=neighbor_id,
                    direction=recorded.direction,
                    required_power=power_model.required_power(d),
                    discovery_power=recorded.discovery_power,
                    distance=d,
                )
        events.extend(joins_by_observer.get(observer, ()))
    return events


@contextmanager
def oracle_event_detection() -> Iterator[None]:
    """Make every ``ReconfigurationManager.synchronize`` in the block detect
    events with :func:`detect_events` and skip its shared geometry pass, so
    a synchronize inside the block is the historic per-pair loop."""
    saved = (ReconfigurationManager._detect_events, ReconfigurationManager._build_sync_scratch)
    ReconfigurationManager._detect_events = lambda self, scratch: detect_events(self)
    ReconfigurationManager._build_sync_scratch = lambda self: None
    try:
        yield
    finally:
        ReconfigurationManager._detect_events, ReconfigurationManager._build_sync_scratch = saved


def has_gap(state: NodeState, alpha: Optional[float] = None) -> bool:
    """The ``gap_alpha`` test through the general path: normalize every
    direction, sort, compare the largest gap with ``alpha``."""
    return has_gap_greater_than(state.directions, state.alpha if alpha is None else alpha)


def _coverage_matches(
    kept_directions: List[float],
    original_arcs: List[Tuple[float, float]],
    original_is_full_circle: bool,
    alpha: float,
) -> bool:
    """Whether ``cover(kept_directions)`` equals the original coverage.

    Equivalent to ``arcs_equal(cover(kept_directions, alpha), original_arcs)``
    but with a gap-based fast path for the overwhelmingly common case where
    the original coverage is the full circle (every non-boundary node): the
    prefix covers the full circle iff its largest angular gap is at most
    ``alpha`` (+ the 1e-12 tolerance ``cover`` uses), and it can only *look*
    fully covered to ``arcs_equal``'s 1e-9 arc tolerance when exactly one
    gap exceeds ``alpha`` by less than ~2e-9 — only that rare corner pays
    for a real arc merge.
    """
    if not original_is_full_circle:
        return arcs_equal(cover(kept_directions, alpha, normalized=True), original_arcs)
    gaps = angular_gaps_of_sorted(sorted(kept_directions))
    if max(gaps) <= alpha + 1e-12:
        return True
    oversized = [gap for gap in gaps if gap > alpha]
    if len(oversized) != 1 or oversized[0] - alpha > 2.5e-9:
        # cover() would produce one arc per oversized gap; more than one arc,
        # or a single uncovered span wider than arcs_equal's tolerance, can
        # never compare equal to the full circle.
        return False
    return arcs_equal(cover(kept_directions, alpha, normalized=True), original_arcs)


def shrink_back_node(state: NodeState) -> NodeState:
    """Apply the shrink-back operation to a single node's state.

    Neighbours are grouped by their discovery-power tag; starting from the
    highest tag, whole groups are removed as long as the alpha-coverage of
    the remaining directions equals the original coverage.  The node's final
    power is reduced to the highest surviving tag (or the power needed to
    reach the farthest surviving neighbour, whichever is larger).
    """
    if not state.neighbors:
        return state
    original_directions = state.directions
    # The reference coverage is the same for every candidate prefix; compute
    # its merged arcs once instead of once per keep_count.  Directions stored
    # in neighbour records come from Point.angle_to, hence are normalized.
    original_arcs = cover(original_directions, state.alpha, normalized=True)
    # ``cover`` returns this exact literal for fully covered circles, so the
    # comparison is an exact one (no tolerance games).
    original_is_full_circle = original_arcs == [(0.0, TWO_PI)]
    levels = sorted({record.discovery_power for record in state.neighbors.values()})
    # Try to keep only the neighbours discovered at the first i levels, for the
    # smallest i that preserves coverage.
    for keep_count in range(1, len(levels) + 1):
        # Discovery tags are exactly the level values, so the prefix set
        # membership test reduces to a threshold comparison.
        level_threshold = levels[keep_count - 1]
        kept_records = [
            record for record in state.neighbors.values() if record.discovery_power <= level_threshold
        ]
        kept_directions = [record.direction for record in kept_records]
        if _coverage_matches(kept_directions, original_arcs, original_is_full_circle, state.alpha):
            shrunk = NodeState(
                node_id=state.node_id,
                alpha=state.alpha,
                final_power=max(
                    max(record.required_power for record in kept_records),
                    0.0,
                ),
                used_max_power=state.used_max_power,
                rounds=state.rounds,
            )
            for record in kept_records:
                shrunk.add_neighbor(record)
            return shrunk
    return state


def apply_join(self, event: JoinEvent) -> None:
    """Apply a join event: record the newcomer, then shrink back."""
    self.events_applied += 1
    self._touched.add(event.observer)
    state = self._state(event.observer)
    self._known[event.observer].add(event.subject)
    state.add_neighbor(
        NeighborRecord(
            neighbor=event.subject,
            direction=event.direction,
            required_power=event.required_power,
            discovery_power=event.required_power,
            distance=event.distance,
        )
    )
    self.outcome.states[event.observer] = shrink_back_node(state)


def apply_angle_change(self, event: AngleChangeEvent) -> None:
    """Apply an angle-change event: update the direction, re-run or shrink."""
    self.events_applied += 1
    self._touched.add(event.observer)
    state = self._state(event.observer)
    old = state.neighbors.get(event.subject)
    previous_power = state.power_to_reach_all()
    discovery = old.discovery_power if old is not None else event.required_power
    state.neighbors[event.subject] = NeighborRecord(
        neighbor=event.subject,
        direction=event.new_direction,
        required_power=event.required_power,
        discovery_power=discovery,
        distance=event.distance,
    )
    if state.has_gap() and not state.used_max_power:
        self._rerun(event.observer, from_power=previous_power)
    else:
        self.outcome.states[event.observer] = shrink_back_node(state)


#: Every module that calls ``shrink_back_node`` through a module-level name.
_SHRINK_BACK_CALL_SITES = (optimizations, reconfiguration, incremental)


@contextmanager
def oracle_shrink_back() -> Iterator[None]:
    """Make every shrink-back in the block (batch pipeline, reconfiguration
    events and the incremental splice) the bottom-up :func:`shrink_back_node`
    above, and every join and angle change the per-event rule above, which
    runs it once per event (no settled-state fast paths)."""
    saved = [module.shrink_back_node for module in _SHRINK_BACK_CALL_SITES]
    saved_rules = (ReconfigurationManager.apply_join, ReconfigurationManager.apply_angle_change)
    for module in _SHRINK_BACK_CALL_SITES:
        module.shrink_back_node = shrink_back_node
    ReconfigurationManager.apply_join = apply_join
    ReconfigurationManager.apply_angle_change = apply_angle_change
    try:
        yield
    finally:
        for module, original in zip(_SHRINK_BACK_CALL_SITES, saved):
            module.shrink_back_node = original
        ReconfigurationManager.apply_join, ReconfigurationManager.apply_angle_change = saved_rules
