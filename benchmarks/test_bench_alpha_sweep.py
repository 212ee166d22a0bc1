"""Ablation benchmark: sweep the cone angle alpha.

The cone angle alpha is CBTC's central design parameter: the
paper proves 5*pi/6 is the largest safe value and discusses the trade-off
against 2*pi/3 (Section 3.2).  The sweep shows degree and radius shrinking as
alpha grows, full connectivity preservation up to 5*pi/6, and (on random
instances) the increasing fraction of boundary nodes.
"""

import math

import pytest

from repro.experiments.sweeps import run_alpha_sweep
from repro.net.placement import PlacementConfig

ALPHAS = [math.pi / 2, 2 * math.pi / 3, 3 * math.pi / 4, 5 * math.pi / 6]


def test_bench_alpha_sweep(benchmark, print_section):
    points = benchmark.pedantic(
        run_alpha_sweep,
        kwargs={
            "alphas": ALPHAS,
            "network_count": 5,
            "config": PlacementConfig(node_count=60),
            "base_seed": 0,
        },
        rounds=1,
        iterations=1,
    )
    header = f"{'alpha/pi':>9}{'avg degree':>12}{'avg radius':>12}{'connected':>11}{'boundary':>10}"
    rows = [header, "-" * len(header)]
    for point in points:
        rows.append(
            f"{point.alpha / math.pi:>9.3f}{point.average_degree:>12.2f}{point.average_radius:>12.1f}"
            f"{point.connectivity_preserved_fraction:>11.2f}{point.boundary_node_fraction:>10.2f}"
        )
    print_section("Alpha sweep (basic CBTC, 60-node networks)", "\n".join(rows))

    degrees = [point.average_degree for point in points]
    radii = [point.average_radius for point in points]
    assert degrees == sorted(degrees, reverse=True)
    assert radii == sorted(radii, reverse=True)
    for point in points:
        assert point.connectivity_preserved_fraction == 1.0
