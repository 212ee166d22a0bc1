"""The two in-process workloads: Table 1 regeneration and drift-300 epochs.

Each workload has a ``setup`` (what a user's fresh process pays before the
first unit of work; the runner times it in child processes) and a
``measure`` that runs units of work in this process until a time budget or
a unit count is reached, checks every output, and returns per-unit
latencies with their host-speed sample marks (and, given a tracer, the spans of
the timed units alone).  Calls go through each module's attribute at call
time, so a traced run's wrappers (see ``layers.py``) see them.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.core import analysis, pipeline
from repro.core.pipeline import OptimizationConfig
from repro.experiments.table1 import ALPHA_FIVE_SIXTHS, ALPHA_TWO_THIRDS, TABLE1_PAPER_VALUES
from repro.graphs import metrics as graph_metrics_module
from repro.net.placement import PAPER_CONFIG, random_uniform_placement
from repro.scenarios.catalogue import get_scenario
from repro.scenarios.runner import ScenarioRunner

perf_counter = time.perf_counter


def timed_units(work, *, seconds: Optional[float], units: Optional[int], speed, tracer) -> Dict[str, Any]:
    """Call ``work(index)`` until ``seconds`` elapse or ``units`` calls are made.

    Each call is timed alone; a host-speed sample is taken before the first
    call and after every call, and ``marks`` holds the indices of the samples
    around each call (see ``calibration.py``).
    """
    latencies: List[float] = []
    marks: List[tuple] = []
    outputs: List[Any] = []
    if tracer is not None:
        tracer.reset()
    before = speed.sample()
    started = perf_counter()
    while (units is None or len(outputs) < units) and (
        seconds is None or perf_counter() - started < seconds
    ):
        begin = perf_counter()
        outputs.append(work(len(outputs)))
        latencies.append(perf_counter() - begin)
        after = speed.sample()
        marks.append((before, after))
        before = after
    return {
        "latencies": latencies,
        "marks": marks,
        "outputs": outputs,
        "trace": tracer.snapshot() if tracer is not None else None,
    }

# --------------------------------------------------------------------- #
# table1-paper
# --------------------------------------------------------------------- #
#: The Table 1 columns: (row key prefix, optimizations).  ``op1+op2`` is
#: only reported at 2*pi/3, as in the paper.
TABLE1_CONFIGURATIONS = (
    ("basic", OptimizationConfig.none()),
    ("op1", OptimizationConfig.shrink_only()),
    ("op1+op2", OptimizationConfig.shrink_and_asymmetric()),
    ("all", OptimizationConfig.all()),
)
TABLE1_ALPHAS = ((ALPHA_FIVE_SIXTHS, "5pi6"), (ALPHA_TWO_THIRDS, "2pi3"))

#: Relative tolerances of ``tests/experiments/test_table1.py`` against the
#: paper's values.
DEGREE_TOLERANCE = 0.30
RADIUS_TOLERANCE = 0.25


def table1_network_seed(seed: int, index: int) -> int:
    """Network ``index`` of run seed ``seed``; seed 0 gives the paper run's networks."""
    return seed * 1_000_000 + index


def table1_network(seed: int, index: int):
    return random_uniform_placement(PAPER_CONFIG, seed=table1_network_seed(seed, index))


def table1_unit(network) -> Dict[str, Any]:
    """Every Table 1 cell of one network, plus the G_alpha connectivity check.

    The same calls ``run_table1`` makes per network: one CBTC run per alpha,
    every configuration built from that outcome and measured, and the
    max-power column.
    """
    rows: Dict[str, tuple] = {}
    connected = True
    reference = network.max_power_graph()
    for alpha, label in TABLE1_ALPHAS:
        outcome = pipeline.run_cbtc(network, alpha)
        for key, config in TABLE1_CONFIGURATIONS:
            if key == "op1+op2" and alpha > ALPHA_TWO_THIRDS + 1e-12:
                continue
            result = pipeline.build_topology(network, alpha, config=config, outcome=outcome)
            measured = graph_metrics_module.graph_metrics(result.graph, network)
            rows[f"{key}/{label}"] = (measured.average_degree, measured.average_radius)
            if key == "basic":
                connected = connected and analysis.preserves_connectivity(reference, result.graph)
    measured = graph_metrics_module.graph_metrics(
        reference, network, fixed_radius=PAPER_CONFIG.max_range
    )
    rows["maxpower"] = (measured.average_degree, measured.average_radius)
    return {"rows": rows, "connected": connected}


def table1_rows_problems(units: List[Dict[str, Any]]) -> List[str]:
    """Table 1 rows (averaged over ``units``) outside the test tolerances."""
    problems = []
    for key in sorted(units[0]["rows"]):
        degree = sum(unit["rows"][key][0] for unit in units) / len(units)
        radius = sum(unit["rows"][key][1] for unit in units) / len(units)
        paper_degree = TABLE1_PAPER_VALUES["degree"][key]
        paper_radius = TABLE1_PAPER_VALUES["radius"][key]
        if abs(degree - paper_degree) > DEGREE_TOLERANCE * paper_degree:
            problems.append(f"{key}: degree {degree:.2f} vs paper {paper_degree}")
        if abs(radius - paper_radius) > RADIUS_TOLERANCE * paper_radius:
            problems.append(f"{key}: radius {radius:.1f} vs paper {paper_radius}")
    return problems


def table1_setup(seed: int) -> None:
    table1_network(seed, 0)


def table1_measure(
    seed: int, *, seconds: Optional[float] = None, units: Optional[int] = None, speed, tracer=None
) -> Dict[str, Any]:
    """Regenerate Table 1 network by network until the budget is spent."""
    data = timed_units(
        lambda index: table1_unit(table1_network(seed, index)),
        seconds=seconds, units=units, speed=speed, tracer=tracer,
    )
    results = data.pop("outputs")
    data["problems"] = [
        f"network {index}: G_alpha loses max-power connectivity"
        for index, unit in enumerate(results)
        if not unit["connected"]
    ]
    data["problems"].extend(table1_rows_problems(results))
    data["attempted"] = len(results)
    data["failed"] = sum(1 for unit in results if not unit["connected"])
    return data


# --------------------------------------------------------------------- #
# drift-300
# --------------------------------------------------------------------- #
DRIFT_NODES = 300
#: Independent deployments per run: the epochs of one deployment differ by
#: seed, and two halve that spread.
DRIFT_DEPLOYMENTS = 2


def drift_spec():
    """``random-waypoint-drift`` at n=300, one epoch per ``run()`` call."""
    return get_scenario("random-waypoint-drift").scaled(node_count=DRIFT_NODES, epochs=1)


def drift_deployment_seed(seed: int, index: int) -> int:
    """Deployment ``index`` of run seed ``seed``; seed 0 starts with scenario seed 0."""
    return seed * 1000 + index


def drift_setup(seed: int) -> ScenarioRunner:
    runner = ScenarioRunner(drift_spec(), seed, incremental=True)
    runner.prime()
    return runner


def drift_measure(seed: int, *, epochs: int, speed, tracer=None) -> Dict[str, Any]:
    """Advance ``DRIFT_DEPLOYMENTS`` primed deployments ``epochs`` epochs each.

    Each ``run()`` call of the one-epoch spec advances the same network by
    one more epoch (mobility, synchronize, incremental topology, measure).
    The deployments are set up before the clock starts and run one after
    the other.  After the timed epochs, each runs one more epoch untimed
    with the runner's own incremental-versus-full-rebuild check switched on.
    """
    runners = [drift_setup(drift_deployment_seed(seed, index)) for index in range(DRIFT_DEPLOYMENTS)]
    data = timed_units(
        lambda index: runners[index // epochs].run().epochs[0],
        seconds=None, units=epochs * DRIFT_DEPLOYMENTS, speed=speed, tracer=tracer,
    )
    measured = data.pop("outputs")
    data["problems"] = [
        f"deployment {index // epochs}, epoch {index % epochs + 1}: connectivity not preserved"
        for index, epoch in enumerate(measured)
        if not epoch.connectivity_preserved
    ]
    for runner in runners:
        runner.verify_incremental = True
        try:
            runner.run()
        except AssertionError as error:
            data["problems"].append(str(error))
    data["attempted"] = len(measured)
    data["failed"] = sum(1 for epoch in measured if not epoch.connectivity_preserved)
    data["events"] = [epoch.events_applied for epoch in measured]
    return data
