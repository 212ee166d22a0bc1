"""The three optimizations of Section 3.

* **Shrink-back** (Section 3.1, Theorem 3.1): boundary nodes — those that
  reached maximum power and still have an alpha-gap — walk their discovered
  neighbours back from the highest discovery-power tag, dropping whole power
  levels as long as the cone coverage ``cover_alpha`` is unchanged.  Nodes
  that terminated without a gap are untouched (removing anything would
  shrink their coverage).
* **Asymmetric edge removal** (Section 3.2, Theorem 3.2): for
  ``alpha <= 2*pi/3`` connectivity survives keeping only the edges present
  in *both* directions of ``N_alpha`` (the graph ``G^-_alpha``).
* **Pairwise edge removal** (Section 3.3, Theorem 3.6): an edge ``(u, v)``
  is *redundant* if ``u`` has another neighbour ``w`` with
  ``angle(v, u, w) < pi/3`` and ``eid(u, w) < eid(u, v)``, where edge IDs
  order edges lexicographically by (length, larger endpoint ID, smaller
  endpoint ID).  All redundant edges can be removed while preserving
  connectivity; following the paper, only redundant edges longer than the
  longest non-redundant edge incident to one of their endpoints are actually
  dropped, since shorter ones do not reduce anybody's transmission radius.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.geometry.angles import (
    TWO_PI,
    angular_gaps_of_sorted,
    arcs_equal,
    cover,
    max_angular_gap_of_sorted,
)
from repro.net.network import Network
from repro.net.node import NodeId
from repro.core.constants import (
    ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD,
    PAIRWISE_ANGLE_THRESHOLD,
)
from repro.core.state import CBTCOutcome, NodeState


# --------------------------------------------------------------------------- #
# Shrink-back (op1)
# --------------------------------------------------------------------------- #
#: The literal ``cover`` returns for a fully covered circle.
_FULL_CIRCLE = [(0.0, TWO_PI)]


def _arc_length(arcs: List[Tuple[float, float]]) -> float:
    return sum(end - start for start, end in arcs)


def _prefix_verdict(
    kept_sorted: List[float],
    original_arcs: List[Tuple[float, float]],
    original_length: Optional[float],
    alpha: float,
) -> Tuple[bool, bool]:
    """``(matches, certified)`` for one candidate prefix of shrink-back.

    ``kept_sorted`` holds the prefix's directions, sorted.  ``matches`` is
    ``arcs_equal(cover(kept_sorted, alpha), original_arcs)``, the coverage
    comparison of Section 3.1.  ``original_length`` is ``None`` when the
    original coverage is the full circle (every non-boundary node), else its
    total arc length.  ``certified`` is set only on a failing prefix and
    proves that every *smaller* prefix (a subset of its directions) fails
    too:

    * Full circle: the prefix covers it iff its largest gap is at most
      ``alpha`` (+ the 1e-12 tolerance ``cover`` uses).  Adding directions
      only splits gaps, and float subtraction is monotone, so every subset's
      largest gap is at least ``min(gap, 2*pi)`` (one direction has gap
      ``2*pi``).  When that exceeds ``alpha`` by more than 2.5e-9 every
      subset fails too; only a single gap at most 2.5e-9 over ``alpha`` can
      look full to ``arcs_equal``'s 1e-9 arc tolerance, and only that corner
      pays for a real arc merge.
    * Boundary: covers nest, so a subset's arcs are never longer in total.
      ``arcs_equal`` lets each endpoint move by 1e-9, so a match is at most
      ``2e-9`` per arc shorter than the original; a prefix shorter by more
      than ``1e-6`` plus that allowance certifies every subset fails.
    """
    if original_length is None:
        gap = max_angular_gap_of_sorted(kept_sorted)
        if gap <= alpha + 1e-12:
            return True, False
        if min(gap, TWO_PI) - alpha > 2.5e-9:
            return False, True
        # cover() makes one arc per oversized gap, so two can never match.
        oversized = [g for g in angular_gaps_of_sorted(kept_sorted) if g > alpha]
        matches = (
            len(oversized) == 1
            and oversized[0] - alpha <= 2.5e-9
            and arcs_equal(cover(kept_sorted, alpha, normalized=True), original_arcs)
        )
        return matches, False
    arcs = cover(kept_sorted, alpha, normalized=True)
    if arcs_equal(arcs, original_arcs):
        return True, False
    slack = 1e-6 + 2e-9 * len(original_arcs)
    return False, _arc_length(arcs) < original_length - slack


def shrink_back_node(state: NodeState) -> NodeState:
    """Apply the shrink-back operation (Section 3.1) to a single node's state.

    Neighbours are grouped by their discovery-power tag; the result keeps
    the neighbours of the smallest prefix of tags whose alpha-coverage
    ``cover_alpha`` equals the original coverage (Theorem 3.1: connectivity
    survives).  The node's final power is the power needed to reach the
    farthest surviving neighbour.  Returns ``state`` itself only when it has
    no neighbours; every other result is a new state.

    The prefixes are scanned top-down, from all tags but the highest, and
    the scan stops at the first prefix that fails: every larger prefix
    matched, and :func:`_prefix_verdict` certifies that no smaller one can.
    Without the certificate the prefixes below the failing one are scanned
    bottom-up, as the definition reads.  Either way the answer is the
    smallest matching prefix, the same one a plain bottom-up scan returns.
    """
    if not state.neighbors:
        return state
    alpha = state.alpha
    # Sorted once; each prefix's sorted directions are a filter of this list.
    # Directions stored in neighbour records come from Point.angle_to, hence
    # are normalized.  The sort is stable on the direction alone, so ties
    # keep insertion order exactly as sorting each prefix would.
    tagged = sorted(
        [(record.direction, record.discovery_power) for record in state.neighbors.values()],
        key=itemgetter(0),
    )
    directions = [direction for direction, _ in tagged]
    # The full-circle test cover() runs first.  A set failing it never merges
    # into the full circle: its oversized gap dwarfs every rounding error.
    if max_angular_gap_of_sorted(directions) <= alpha + 1e-12:
        original_arcs, original_length = _FULL_CIRCLE, None
    else:
        original_arcs = cover(directions, alpha, normalized=True)
        original_length = _arc_length(original_arcs)
    levels = sorted({power for _, power in tagged})

    def verdict(index: int) -> Tuple[bool, bool]:
        # Discovery tags are exactly the level values, so the prefix set
        # membership test reduces to a threshold comparison.
        threshold = levels[index]
        kept_sorted = [direction for direction, power in tagged if power <= threshold]
        return _prefix_verdict(kept_sorted, original_arcs, original_length, alpha)

    # The whole neighbour set reproduces its own coverage.
    smallest = len(levels) - 1
    for index in range(smallest - 1, -1, -1):
        matches, certified = verdict(index)
        if matches:
            smallest = index
            continue
        if not certified:
            smallest = next((lower for lower in range(index) if verdict(lower)[0]), smallest)
        break
    threshold = levels[smallest]
    # Each record sits under its own neighbour ID, so this keeps the order
    # (and the records) add_neighbor would, one record at a time.
    kept = {
        record.neighbor: record
        for record in state.neighbors.values()
        if record.discovery_power <= threshold
    }
    return NodeState(
        node_id=state.node_id,
        alpha=alpha,
        neighbors=kept,
        final_power=max(max([record.required_power for record in kept.values()]), 0.0),
        used_max_power=state.used_max_power,
        rounds=state.rounds,
    )


def shrink_back(outcome: CBTCOutcome) -> CBTCOutcome:
    """Apply shrink-back to every node of an outcome (returns a new outcome).

    Non-boundary nodes are left untouched automatically: dropping their
    highest power level would reopen an alpha-gap and change the coverage.
    """
    shrunk = CBTCOutcome(alpha=outcome.alpha)
    for state in outcome:
        shrunk.states[state.node_id] = shrink_back_node(state.copy())
    return shrunk


# --------------------------------------------------------------------------- #
# Asymmetric edge removal (op2)
# --------------------------------------------------------------------------- #
def asymmetric_edge_removal(outcome: CBTCOutcome, *, enforce_threshold: bool = True) -> List[Tuple[NodeId, NodeId]]:
    """The edge set ``E^-_alpha`` (both directions present in ``N_alpha``).

    Raises ``ValueError`` when ``alpha > 2*pi/3`` and ``enforce_threshold``
    is left on, because Theorem 3.2 only guarantees connectivity below that
    threshold (and Example 2.1 shows it genuinely fails above it).
    """
    if enforce_threshold and outcome.alpha > ALPHA_ASYMMETRIC_REMOVAL_THRESHOLD + 1e-12:
        raise ValueError(
            "asymmetric edge removal requires alpha <= 2*pi/3 "
            f"(got alpha = {outcome.alpha:.6f})"
        )
    edges: List[Tuple[NodeId, NodeId]] = []
    for state in outcome:
        for neighbor in state.neighbor_ids:
            if neighbor <= state.node_id:
                continue
            other = outcome.states.get(neighbor)
            if other is not None and state.node_id in other.neighbors:
                edges.append((state.node_id, neighbor))
    return edges


# --------------------------------------------------------------------------- #
# Pairwise edge removal (op3)
# --------------------------------------------------------------------------- #
def edge_id(network: Network, u: NodeId, v: NodeId) -> Tuple[float, NodeId, NodeId]:
    """The paper's edge ID ``eid(u, v) = (d(u, v), max(ID), min(ID))``.

    Edge IDs compare lexicographically and are unique because node IDs are
    unique, giving a strict total order on edges even when distances tie.
    """
    return (network.distance(u, v), max(u, v), min(u, v))


def redundant_edges_from_node(
    graph: nx.Graph,
    network: Network,
    u: NodeId,
    *,
    angle_threshold: float = PAIRWISE_ANGLE_THRESHOLD,
) -> Set[Tuple[NodeId, NodeId]]:
    """Edges witnessed redundant by node ``u``'s scan (Definition 3.5).

    One node's contribution to :func:`redundant_edges`: the edges ``(u, v)``
    for which some other neighbour ``w`` of ``u`` satisfies
    ``angle(v, u, w) < pi/3`` and ``eid(u, w) < eid(u, v)``.  The scan
    depends only on ``u``'s adjacency and the current positions of ``u`` and
    its neighbours, which is the locality the incremental pipeline exploits:
    after a mobility/churn delta it rescans only the nodes whose inputs
    changed.  Returned edges are normalized as ``(min, max)`` pairs.
    """
    node_of = network.node
    redundant: Set[Tuple[NodeId, NodeId]] = set()
    neighbors = list(graph.neighbors(u))
    if len(neighbors) < 2:
        return redundant
    u_node = node_of(u)
    directions = {v: u_node.direction_to(node_of(v)) for v in neighbors}
    ids = {v: (u_node.distance_to(node_of(v)), max(u, v), min(u, v)) for v in neighbors}
    # Visiting neighbours in increasing edge-ID order means only the
    # already-seen ones can witness redundancy (eid(u, w) < eid(u, v)),
    # halving the scan.  Edge IDs are a strict total order, so this is
    # exactly Definition 3.5.
    seen: List[NodeId] = []
    for v in sorted(neighbors, key=ids.__getitem__):
        direction_v = directions[v]
        for w in seen:
            # angle_difference inlined: directions are already in [0, 2*pi).
            diff = abs(direction_v - directions[w])
            if diff > math.pi:
                diff = TWO_PI - diff
            if diff < angle_threshold:
                redundant.add((min(u, v), max(u, v)))
                break
        seen.append(v)
    return redundant


def redundant_edges(
    graph: nx.Graph,
    network: Network,
    *,
    angle_threshold: float = PAIRWISE_ANGLE_THRESHOLD,
) -> Set[Tuple[NodeId, NodeId]]:
    """All redundant edges of ``graph`` per Definition 3.5.

    An edge ``(u, v)`` is redundant if some other neighbour ``w`` of ``u``
    satisfies ``angle(v, u, w) < pi/3`` and ``eid(u, w) < eid(u, v)``.
    Returned edges are normalized as ``(min, max)`` pairs.
    """
    redundant: Set[Tuple[NodeId, NodeId]] = set()
    for u in graph.nodes:
        redundant |= redundant_edges_from_node(
            graph, network, u, angle_threshold=angle_threshold
        )
    return redundant


def pairwise_edge_removal(
    graph: nx.Graph,
    network: Network,
    *,
    remove_all: bool = False,
    angle_threshold: float = PAIRWISE_ANGLE_THRESHOLD,
) -> nx.Graph:
    """Apply pairwise edge removal to ``graph`` (returns a new graph).

    With ``remove_all=False`` (the paper's choice) a redundant edge is only
    dropped when it is longer than the longest non-redundant edge incident to
    at least one of its endpoints, because only then does the removal lower a
    node's transmission radius.  With ``remove_all=True`` every redundant
    edge is dropped (Theorem 3.6 guarantees this still preserves
    connectivity; it minimizes degree rather than power).
    """
    redundant = redundant_edges(graph, network, angle_threshold=angle_threshold)
    result = graph.copy()
    if not redundant:
        return result

    if remove_all:
        result.remove_edges_from(redundant)
        return result

    # Longest non-redundant edge length per node.  Edge lengths are stored on
    # the graph (same floats the network would recompute).
    longest_non_redundant: Dict[NodeId, float] = {node: 0.0 for node in graph.nodes}
    for u, v, data in graph.edges(data=True):
        key = (min(u, v), max(u, v))
        if key in redundant:
            continue
        length = data["length"] if "length" in data else network.distance(u, v)
        longest_non_redundant[u] = max(longest_non_redundant[u], length)
        longest_non_redundant[v] = max(longest_non_redundant[v], length)

    to_remove = []
    for u, v in redundant:
        data = graph[u][v]
        length = data["length"] if "length" in data else network.distance(u, v)
        if length > longest_non_redundant[u] or length > longest_non_redundant[v]:
            to_remove.append((u, v))
    result.remove_edges_from(to_remove)
    return result
