"""Incremental-vs-full-rebuild equivalence at the scenario level.

The acceptance contract of the incremental pipeline: for every scenario, the
incremental epoch loop (shared-geometry synchronization, dirty-set topology
splicing, route caching) produces results **byte-identical** — through
``repro.io.results`` serialization, traffic reports included — to the
historic full-rebuild loop: a full ``build_topology`` every epoch, with
events detected by the per-pair scan of ``tests/oracle.py``.  Enforced here
over the entire scenario catalogue and over hypothesis-generated random
churn/mobility schedules.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io.results import results_to_json
from repro.scenarios.catalogue import SCENARIOS
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.spec import (
    ChurnEvent,
    FailureSpec,
    MobilitySpec,
    PlacementSpec,
    ScenarioSpec,
)
from repro.traffic.spec import TrafficSpec
from tests.oracle import oracle_event_detection

ALPHA = 5 * math.pi / 6


def _serialized_runs(spec, seed):
    incremental = results_to_json(run_scenario(spec, seed, incremental=True))
    with oracle_event_detection():
        full = results_to_json(run_scenario(spec, seed, incremental=False))
    return incremental, full


class TestCatalogueEquivalence:
    """Every catalogue scenario: incremental == full rebuild, per epoch."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_incremental_matches_full_rebuild(self, name):
        spec = SCENARIOS[name].scaled(epochs=min(SCENARIOS[name].epochs, 3))
        incremental, full = _serialized_runs(spec, seed=1)
        assert incremental == full

    def test_traffic_reports_identical_per_epoch(self):
        spec = SCENARIOS["hotspot-traffic"].scaled(epochs=3)
        a = run_scenario(spec, 2, incremental=True)
        with oracle_event_detection():
            b = run_scenario(spec, 2, incremental=False)
        for epoch_a, epoch_b in zip(a.epochs, b.epochs):
            assert results_to_json(epoch_a.traffic) == results_to_json(epoch_b.traffic)


class TestVerifyMode:
    def test_verify_incremental_checks_each_epoch(self):
        spec = SCENARIOS["random-waypoint-drift"].scaled(node_count=40, epochs=3)
        result = ScenarioRunner(spec, 0, verify_incremental=True).run()
        assert len(result.epochs) == 3


churn_events = st.lists(
    st.builds(
        ChurnEvent,
        epoch=st.integers(min_value=1, max_value=3),
        joins=st.integers(min_value=0, max_value=4),
        crashes=st.integers(min_value=0, max_value=2),
        spread=st.floats(min_value=50.0, max_value=300.0),
    ),
    max_size=3,
)

mobility_specs = st.one_of(
    st.builds(
        MobilitySpec,
        kind=st.just("random-waypoint"),
        min_speed=st.floats(min_value=0.0, max_value=10.0),
        max_speed=st.floats(min_value=10.0, max_value=60.0),
        mover_fraction=st.sampled_from([0.1, 0.5, 1.0]),
    ),
    st.builds(
        MobilitySpec,
        kind=st.just("random-walk"),
        max_step=st.floats(min_value=0.0, max_value=60.0),
    ),
    st.builds(MobilitySpec, kind=st.just("stationary")),
)


class TestRandomScheduleEquivalence:
    """Hypothesis battery: random join/leave/move/angle-change schedules.

    Joins come from churn events, leaves from churn crashes and the random
    failure model, moves and angle changes from the mobility models.  Every
    generated schedule must replay byte-identically through both pipeline
    paths — serialized ``ScenarioResult`` (epoch metrics, ``TrafficReport``
    JSON included) compared as strings.
    """

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        mobility=mobility_specs,
        churn=churn_events,
        crash_probability=st.sampled_from([0.0, 0.05]),
        with_traffic=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_schedules_replay_identically(
        self, mobility, churn, crash_probability, with_traffic, seed
    ):
        spec = ScenarioSpec(
            name="hypothesis-incremental",
            placement=PlacementSpec(node_count=24, width=900.0, height=900.0),
            mobility=mobility,
            churn=tuple(churn),
            failures=FailureSpec(kind="crash", crash_probability=crash_probability)
            if crash_probability
            else FailureSpec(),
            traffic=TrafficSpec(kind="cbr", flow_count=3, packets_per_flow=2)
            if with_traffic
            else None,
            epochs=3,
            steps_per_epoch=2,
            alpha=ALPHA,
        )
        incremental, full = _serialized_runs(spec, seed)
        assert incremental == full


class TestProfiling:
    def test_phase_timings_recorded_only_when_profiling(self):
        spec = SCENARIOS["random-waypoint-drift"].scaled(node_count=30, epochs=2)
        plain = run_scenario(spec, 0)
        assert all(epoch.phase_seconds is None for epoch in plain.epochs)
        profiled = run_scenario(spec, 0, profile=True)
        for epoch in profiled.epochs:
            assert epoch.phase_seconds is not None
            assert set(epoch.phase_seconds) == {
                "churn",
                "mobility",
                "failures",
                "battery",
                "rebuild",
                "measure",
                "traffic",
                "total",
            }
            assert epoch.phase_seconds["total"] >= 0.0

    def test_profiling_never_perturbs_the_measured_run(self):
        spec = SCENARIOS["random-waypoint-drift"].scaled(node_count=30, epochs=2)
        plain = run_scenario(spec, 0)
        profiled = run_scenario(spec, 0, profile=True)
        for a, b in zip(plain.epochs, profiled.epochs):
            assert a.edge_count == b.edge_count
            assert a.average_degree == b.average_degree
            assert a.connectivity_preserved == b.connectivity_preserved
