"""Production shrink-back versus the bottom-up oracle, end to end.

Every catalogue scenario (scaled small) and the Table 1 builds of a few
paper networks run twice: with production ``shrink_back_node`` and inside
``oracle_shrink_back()``, which swaps in the bottom-up scan at every call
site (batch pipeline, reconfiguration events, incremental splice).  Epoch
records, final CBTC states and built topologies must be identical, floats
compared as ``float.hex()``.
"""

import pytest

from repro.core.cbtc import run_cbtc
from repro.core.pipeline import build_topology
from repro.experiments.table1 import (
    _CONFIGURATIONS,
    ALPHA_FIVE_SIXTHS,
    ALPHA_TWO_THIRDS,
)
from repro.io.results import results_to_json
from repro.net.placement import PAPER_CONFIG, random_uniform_placement
from repro.scenarios.catalogue import SCENARIOS
from repro.scenarios.runner import ScenarioRunner
from tests.oracle import oracle_shrink_back


def _states(outcome):
    return [
        (
            node_id,
            state.final_power.hex(),
            state.used_max_power,
            state.rounds,
            [
                (
                    key,
                    record.direction.hex(),
                    record.required_power.hex(),
                    record.discovery_power.hex(),
                    record.distance.hex(),
                )
                for key, record in state.neighbors.items()
            ],
        )
        for node_id, state in outcome.states.items()
    ]


def _scenario(spec, seed):
    runner = ScenarioRunner(spec, seed, incremental=True)
    epochs = results_to_json(runner.run())
    manager = runner._manager
    return epochs, None if manager is None else _states(manager.outcome)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_catalogue_scenario_is_identical_under_oracle_shrink_back(name):
    spec = SCENARIOS[name].scaled(node_count=40, epochs=3)
    produced = _scenario(spec, seed=3)
    with oracle_shrink_back():
        expected = _scenario(spec, seed=3)
    assert produced == expected


def _table1_builds(network):
    builds = []
    for alpha in (ALPHA_FIVE_SIXTHS, ALPHA_TWO_THIRDS):
        outcome = run_cbtc(network, alpha)
        for key, _, config in _CONFIGURATIONS:
            if key == "op1+op2" and alpha > ALPHA_TWO_THIRDS + 1e-12:
                continue
            result = build_topology(network, alpha, config=config, outcome=outcome)
            builds.append(
                (
                    key,
                    sorted(
                        (min(u, v), max(u, v), data["length"].hex())
                        for u, v, data in result.graph.edges(data=True)
                    ),
                    [(node, power.hex()) for node, power in sorted(result.node_power.items())],
                    _states(result.outcome),
                )
            )
    return builds


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table1_builds_are_identical_under_oracle_shrink_back(seed):
    network = random_uniform_placement(PAPER_CONFIG, seed=seed)
    produced = _table1_builds(network)
    with oracle_shrink_back():
        expected = _table1_builds(network)
    assert produced == expected
