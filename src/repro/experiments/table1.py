"""Reproduction of Table 1.

The paper generates 100 random networks of 100 nodes in a 1500 x 1500 region
with maximum radius 500 and reports, averaged over the networks, the average
node degree and average per-node radius for:

=====================  =====================================================
Column                 Meaning
=====================  =====================================================
Basic                  CBTC(alpha), symmetric closure ``G_alpha``
with op1               plus shrink-back
with op1 and op2       plus asymmetric edge removal (only alpha = 2*pi/3)
with all op            plus pairwise edge removal
Max Power              no topology control, radius fixed at R
=====================  =====================================================

for alpha = 5*pi/6 and alpha = 2*pi/3.  ``run_table1`` regenerates every row
and also reports the intermediate value quoted in the running text (the
average radius 301.2 of the asymmetric-removal-only configuration at
2*pi/3 — our "with op1 and op2" column).  ``TABLE1_PAPER_VALUES`` records
the paper's numbers so the benchmarks and ``cbtc table1`` can show
paper-vs-measured side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.pipeline import OptimizationConfig, build_topology
from repro.core.cbtc import run_cbtc
from repro.graphs.metrics import graph_metrics
from repro.net.placement import PAPER_CONFIG, PlacementConfig, random_uniform_placement

ALPHA_FIVE_SIXTHS = 5.0 * math.pi / 6.0
ALPHA_TWO_THIRDS = 2.0 * math.pi / 3.0

#: The values printed in the paper's Table 1, keyed by (configuration, alpha
#: label).  ``None`` marks combinations the paper does not report.
TABLE1_PAPER_VALUES: Dict[str, Dict[str, Optional[float]]] = {
    "degree": {
        "basic/5pi6": 12.3,
        "basic/2pi3": 15.4,
        "op1/5pi6": 10.3,
        "op1/2pi3": 12.8,
        "op1+op2/2pi3": 7.0,
        "all/5pi6": 3.6,
        "all/2pi3": 3.6,
        "maxpower": 25.6,
    },
    "radius": {
        "basic/5pi6": 436.8,
        "basic/2pi3": 457.4,
        "op1/5pi6": 373.7,
        "op1/2pi3": 398.1,
        "op1+op2/2pi3": 276.8,
        "all/5pi6": 155.9,
        "all/2pi3": 160.6,
        "maxpower": 500.0,
    },
}


@dataclass(frozen=True)
class Table1Row:
    """One (configuration, alpha) cell pair of Table 1: degree and radius."""

    key: str
    label: str
    alpha: Optional[float]
    average_degree: float
    average_radius: float
    paper_degree: Optional[float] = None
    paper_radius: Optional[float] = None


@dataclass
class Table1Result:
    """The whole regenerated table."""

    network_count: int
    node_count: int
    rows: List[Table1Row] = field(default_factory=list)

    def row(self, key: str) -> Table1Row:
        """Look up a row by its key (e.g. ``"basic/5pi6"``)."""
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    def as_table(self) -> str:
        """Format the result as a plain-text table mirroring the paper's layout."""
        header = f"{'configuration':<30}{'avg degree':>12}{'paper':>9}{'avg radius':>13}{'paper':>9}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            paper_degree = f"{row.paper_degree:.1f}" if row.paper_degree is not None else "-"
            paper_radius = f"{row.paper_radius:.1f}" if row.paper_radius is not None else "-"
            lines.append(
                f"{row.label:<30}{row.average_degree:>12.2f}{paper_degree:>9}"
                f"{row.average_radius:>13.1f}{paper_radius:>9}"
            )
        return "\n".join(lines)


_CONFIGURATIONS = [
    ("basic", "Basic", OptimizationConfig.none()),
    ("op1", "with op1", OptimizationConfig.shrink_only()),
    ("op1+op2", "with op1 and op2", OptimizationConfig.shrink_and_asymmetric()),
    ("all", "with all op", OptimizationConfig.all()),
]


def run_table1(
    *,
    network_count: int = 100,
    config: PlacementConfig = PAPER_CONFIG,
    alphas: Sequence[float] = (ALPHA_FIVE_SIXTHS, ALPHA_TWO_THIRDS),
    base_seed: int = 0,
) -> Table1Result:
    """Regenerate Table 1 over ``network_count`` random networks.

    The default parameters match the paper exactly (100 networks, 100 nodes,
    1500 x 1500, R = 500); reduce ``network_count`` for quick runs — the
    averages are already stable to a few percent with 10 networks.
    """
    alpha_labels = {ALPHA_FIVE_SIXTHS: "5pi6", ALPHA_TWO_THIRDS: "2pi3"}
    accumulators: Dict[str, List[float]] = {}
    radius_accumulators: Dict[str, List[float]] = {}

    for index in range(network_count):
        network = random_uniform_placement(config, seed=base_seed + index)
        for alpha in alphas:
            label = alpha_labels.get(alpha, f"{alpha:.3f}")
            outcome = run_cbtc(network, alpha)
            for key, _, optimization in _CONFIGURATIONS:
                if key == "op1+op2" and alpha > ALPHA_TWO_THIRDS + 1e-12:
                    continue
                result = build_topology(network, alpha, config=optimization, outcome=outcome)
                metrics = graph_metrics(result.graph, network)
                row_key = f"{key}/{label}"
                accumulators.setdefault(row_key, []).append(metrics.average_degree)
                radius_accumulators.setdefault(row_key, []).append(metrics.average_radius)
        # The max-power column does not depend on alpha.
        reference = network.max_power_graph()
        metrics = graph_metrics(reference, network, fixed_radius=config.max_range)
        accumulators.setdefault("maxpower", []).append(metrics.average_degree)
        radius_accumulators.setdefault("maxpower", []).append(metrics.average_radius)

    result = Table1Result(network_count=network_count, node_count=config.node_count)
    for key, label, _ in _CONFIGURATIONS:
        for alpha in alphas:
            alpha_label = alpha_labels.get(alpha, f"{alpha:.3f}")
            row_key = f"{key}/{alpha_label}"
            if row_key not in accumulators:
                continue
            degrees = accumulators[row_key]
            radii = radius_accumulators[row_key]
            result.rows.append(
                Table1Row(
                    key=row_key,
                    label=f"{label}, alpha={alpha_label}",
                    alpha=alpha,
                    average_degree=sum(degrees) / len(degrees),
                    average_radius=sum(radii) / len(radii),
                    paper_degree=TABLE1_PAPER_VALUES["degree"].get(row_key),
                    paper_radius=TABLE1_PAPER_VALUES["radius"].get(row_key),
                )
            )
    degrees = accumulators["maxpower"]
    radii = radius_accumulators["maxpower"]
    result.rows.append(
        Table1Row(
            key="maxpower",
            label="Max Power",
            alpha=None,
            average_degree=sum(degrees) / len(degrees),
            average_radius=sum(radii) / len(radii),
            paper_degree=TABLE1_PAPER_VALUES["degree"]["maxpower"],
            paper_radius=TABLE1_PAPER_VALUES["radius"]["maxpower"],
        )
    )
    return result
