"""World hosting: request execution, snapshot caching, dirty invalidation."""

import pytest

from repro.io.results import results_to_json
from repro.service import protocol
from repro.service.worlds import WorldHost


def _request(op, world="w", **params):
    return {"id": 1, "op": op, "world": world, "params": params}


@pytest.fixture
def host():
    host = WorldHost()
    yield host
    host.close()


def _create(host, world="w", nodes=30, seed=1, **extra):
    params = {"scenario": "random-waypoint-drift", "nodes": nodes, "seed": seed,
              "mover_fraction": 0.2, **extra}
    response = host.execute({"id": 0, "op": protocol.CREATE_WORLD, "world": world,
                             "params": params})
    assert response["ok"], response
    return response["result"]


class TestLifecycle:
    def test_create_reports_population(self, host):
        result = _create(host, nodes=25)
        assert result == {"world": "w", "scenario": "random-waypoint-drift",
                          "seed": 1, "nodes": 25}

    def test_duplicate_create_is_an_error(self, host):
        _create(host)
        response = host.execute(_request(protocol.CREATE_WORLD))
        assert not response["ok"]
        assert "already exists" in response["error"]

    def test_unknown_world_is_an_error(self, host):
        response = host.execute(_request(protocol.QUERY_STATS, world="nope"))
        assert not response["ok"]
        assert "unknown world" in response["error"]

    def test_unknown_scenario_is_an_error(self, host):
        response = host.execute(_request(protocol.CREATE_WORLD, scenario="not-a-scenario"))
        assert not response["ok"]
        assert "unknown scenario" in response["error"]

    def test_distributed_scenario_is_rejected(self, host):
        response = host.execute(_request(protocol.CREATE_WORLD, scenario="lossy-channel-chaos"))
        assert not response["ok"]
        assert "distributed" in response["error"]

    def test_delete_world_frees_the_name(self, host):
        _create(host)
        assert host.execute(_request(protocol.DELETE_WORLD))["ok"]
        assert not host.execute(_request(protocol.QUERY_STATS))["ok"]
        _create(host)  # the name is reusable

    def test_malformed_request_yields_error_response(self, host):
        response = host.execute({"id": 9, "op": "query_stats"})
        assert response == {"id": 9, "ok": False,
                            "error": "op 'query_stats' requires a non-empty 'world'"}


class TestReads:
    def test_stats_shape(self, host):
        _create(host)
        stats = host.execute(_request(protocol.QUERY_STATS))["result"]
        assert stats["alive_nodes"] == 30
        assert stats["edge_count"] > 0
        assert stats["components"] >= 1
        assert isinstance(stats["connectivity_preserved"], bool)

    def test_route_between_connected_nodes(self, host):
        _create(host)
        route = host.execute(_request(protocol.QUERY_ROUTE, source=0, target=5))["result"]
        if route["reachable"]:
            assert route["path"][0] == 0
            assert route["path"][-1] == 5
            assert route["hops"] == len(route["path"]) - 1
            assert route["cost"] > 0
        else:
            assert "path" not in route

    def test_route_to_missing_node_is_unreachable(self, host):
        _create(host)
        route = host.execute(_request(protocol.QUERY_ROUTE, source=0, target=999))["result"]
        assert route["reachable"] is False

    def test_route_requires_integer_endpoints(self, host):
        _create(host)
        response = host.execute(_request(protocol.QUERY_ROUTE, source="a", target=1))
        assert not response["ok"]

    def test_traffic_report_shape(self, host):
        _create(host)
        report = host.execute(_request(protocol.RUN_TRAFFIC, flows=2, packets=2))["result"]
        assert report["world"] == "w"
        assert 0.0 <= report["delivery_ratio"] <= 1.0

    def test_traffic_rejects_bad_spec(self, host):
        _create(host)
        response = host.execute(_request(protocol.RUN_TRAFFIC, flows=-1))
        assert not response["ok"]

    def test_snapshot_is_canonical_and_complete(self, host):
        _create(host, nodes=25)
        snapshot = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert [node["id"] for node in snapshot["nodes"]] == sorted(
            node["id"] for node in snapshot["nodes"]
        )
        assert len(snapshot["nodes"]) == 25
        assert snapshot["topology"]["edges"]
        # Canonical serialization is reproducible byte for byte.
        again = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert results_to_json(snapshot) == results_to_json(again)


class TestWrites:
    def test_advance_counts_writes(self, host):
        _create(host)
        assert host.execute(_request(protocol.ADVANCE, steps=2))["result"]["writes"] == 1
        assert host.execute(_request(protocol.ADVANCE))["result"]["writes"] == 2

    def test_advance_rejects_negative_steps(self, host):
        _create(host)
        assert not host.execute(_request(protocol.ADVANCE, steps=-1))["ok"]

    def test_apply_delta_round_trips_into_snapshot(self, host):
        _create(host, nodes=20)
        result = host.execute(
            _request(
                protocol.APPLY,
                moves=[[0, 10.0, 20.0]],
                joins=[[700.0, 700.0]],
                crashes=[3],
            )
        )["result"]
        assert result["moved"] == 1
        assert result["joined"] == [20]
        assert result["crashed"] == 1
        snapshot = host.execute(_request(protocol.SNAPSHOT))["result"]
        by_id = {node["id"]: node for node in snapshot["nodes"]}
        assert (by_id[0]["x"], by_id[0]["y"]) == (10.0, 20.0)
        assert by_id[20]["alive"] and by_id[20]["x"] == 700.0
        assert not by_id[3]["alive"]
        # Crashed nodes carry no topology edges.
        assert all(3 not in (e["u"], e["v"]) for e in snapshot["topology"]["edges"])

    def test_apply_recover_rejoins(self, host):
        _create(host, nodes=20)
        host.execute(_request(protocol.APPLY, crashes=[4]))
        host.execute(_request(protocol.APPLY, recovers=[4]))
        snapshot = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert {n["id"]: n["alive"] for n in snapshot["nodes"]}[4] is True

    def test_invalid_delta_applies_nothing(self, host):
        _create(host, nodes=20)
        before = host.execute(_request(protocol.SNAPSHOT))["result"]
        response = host.execute(
            _request(protocol.APPLY, moves=[[0, 1.0, 1.0]], crashes=[999])
        )
        assert not response["ok"]
        after = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert results_to_json(before) == results_to_json(after)

    @pytest.mark.parametrize(
        "delta",
        [
            {"moves": [[0, 1.0]]},  # arity-2 move
            {"moves": [[0, 123.0, 456.0], [1, "oops", 9.0]]},  # bad coordinate after a good move
            {"moves": [[0, None, 2.0]]},
            {"joins": [5]},  # join entry is not a pair
            {"crashes": [[1]]},  # unhashable node id
        ],
    )
    def test_malformed_delta_is_an_error_and_atomic(self, host, delta):
        """Shape/type problems anywhere in the delta yield a friendly error
        response and leave the world byte-identical — no partial apply, no
        exception escaping to kill a dispatcher."""
        _create(host, nodes=20)
        before = host.execute(_request(protocol.SNAPSHOT))["result"]
        response = host.execute(_request(protocol.APPLY, **delta))
        assert not response["ok"]
        assert "malformed delta" in response["error"]
        after = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert results_to_json(before) == results_to_json(after)

    def test_unexpected_handler_failure_yields_error_response(self, host):
        """The per-request containment layer: even a non-RequestError must
        come back as an error response, identically on every backend."""
        _create(host)
        response = host.execute(
            _request(protocol.CREATE_WORLD, world="w2", mover_fraction={})
        )
        assert not response["ok"]
        response = host.execute(_request(protocol.ADVANCE, steps=True))
        # bool is an int subclass; either a validation error or a clean
        # success is acceptable — what is not acceptable is an exception.
        assert "ok" in response


class TestSnapshotCache:
    def test_repeated_reads_hit_the_cache(self, host):
        _create(host)
        host.execute(_request(protocol.QUERY_STATS))
        host.execute(_request(protocol.QUERY_STATS))
        host.execute(_request(protocol.QUERY_STATS))
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert stats["snapshot_cache_hits"] == 2
        assert stats["snapshot_cache_misses"] == 1

    def test_distinct_params_are_distinct_entries(self, host):
        _create(host)
        host.execute(_request(protocol.QUERY_ROUTE, source=0, target=1))
        host.execute(_request(protocol.QUERY_ROUTE, source=0, target=2))
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert stats["snapshot_cache_misses"] == 2
        assert stats["snapshot_cache_hits"] == 0

    def test_geometry_change_invalidates(self, host):
        _create(host)
        host.execute(_request(protocol.QUERY_STATS))
        host.execute(_request(protocol.APPLY, moves=[[0, 5.0, 5.0]]))
        host.execute(_request(protocol.QUERY_STATS))
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert stats["snapshot_cache_misses"] == 2
        assert stats["snapshot_cache_hits"] == 0

    def test_no_op_write_keeps_the_cache(self, host):
        """The dirty-listener hook, not the write counter, drives invalidation."""
        _create(host)
        host.execute(_request(protocol.QUERY_STATS))
        host.execute(_request(protocol.ADVANCE, steps=0))  # touches nothing
        host.execute(_request(protocol.QUERY_STATS))
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert stats["writes"] == 1
        assert stats["snapshot_cache_hits"] == 1

    def test_cache_is_bounded(self, host, monkeypatch):
        from repro.service import worlds as worlds_module

        monkeypatch.setattr(worlds_module, "SNAPSHOT_CACHE_MAX_ENTRIES", 3)
        _create(host, nodes=20)
        for target in range(1, 6):
            host.execute(_request(protocol.QUERY_ROUTE, source=0, target=target))
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert stats["snapshot_cache_entries"] == 3
        # Evicted entries recompute correctly (a miss, not a wrong answer).
        route = host.execute(_request(protocol.QUERY_ROUTE, source=0, target=1))["result"]
        assert route["source"] == 0 and route["target"] == 1

    def test_cached_reads_skip_pipeline_work(self, host):
        _create(host)
        host.execute(_request(protocol.QUERY_STATS))
        builds_before = host.execute(_request(protocol.CACHE_STATS))["result"]["topology_builds"]
        for _ in range(5):
            host.execute(_request(protocol.QUERY_STATS))
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert stats["topology_builds"] == builds_before


class TestNaiveBaseline:
    def test_naive_and_cached_agree_byte_for_byte(self):
        cached = WorldHost()
        naive = WorldHost(naive=True)
        try:
            for host in (cached, naive):
                _create(host, nodes=25, seed=7)
                host.execute(_request(protocol.ADVANCE, steps=1))
                host.execute(_request(protocol.APPLY, crashes=[2]))
            for op, params in [
                (protocol.QUERY_STATS, {}),
                (protocol.QUERY_ROUTE, {"source": 0, "target": 9}),
                (protocol.RUN_TRAFFIC, {"flows": 2, "packets": 2}),
                (protocol.SNAPSHOT, {}),
            ]:
                a = cached.execute({"id": 1, "op": op, "world": "w", "params": params})
                b = naive.execute({"id": 1, "op": op, "world": "w", "params": params})
                assert results_to_json(a) == results_to_json(b), op
        finally:
            cached.close()
            naive.close()

    def test_naive_mode_rebuilds_per_request(self):
        host = WorldHost(naive=True)
        try:
            _create(host)
            for _ in range(3):
                host.execute(_request(protocol.QUERY_STATS))
            stats = host.execute(_request(protocol.CACHE_STATS))["result"]
            assert stats["snapshot_cache_hits"] == 0
            assert stats["snapshot_cache_entries"] == 0
        finally:
            host.close()


class TestIntegerValidation:
    """bool subclasses int, so isinstance checks used to accept true/false
    off the wire — 'steps': true quietly advanced one step."""

    @pytest.mark.parametrize("steps", [True, False, "3", 1.0, None])
    def test_advance_rejects_non_integers(self, host, steps):
        _create(host)
        response = host.execute(_request(protocol.ADVANCE, steps=steps))
        assert not response["ok"]
        assert "non-negative integer" in response["error"]

    @pytest.mark.parametrize("endpoint", [True, False, 1.5, "0"])
    def test_route_rejects_non_integer_endpoints(self, host, endpoint):
        _create(host)
        for params in ({"source": endpoint, "target": 1}, {"source": 0, "target": endpoint}):
            response = host.execute(_request(protocol.QUERY_ROUTE, **params))
            assert not response["ok"]
            assert "node IDs" in response["error"]

    @pytest.mark.parametrize("nodes", [True, 2.0, "10"])
    def test_create_rejects_non_integer_nodes(self, host, nodes):
        response = host.execute(_request(protocol.CREATE_WORLD, nodes=nodes))
        assert not response["ok"]
        assert "positive integer" in response["error"]

    @pytest.mark.parametrize("seed", [True, False, 0.5, "7"])
    def test_create_rejects_non_integer_seed(self, host, seed):
        response = host.execute(_request(protocol.CREATE_WORLD, seed=seed))
        assert not response["ok"]
        assert "'seed' must be an integer" in response["error"]


class TestCacheAliasing:
    def test_mutating_a_cached_response_does_not_corrupt_later_hits(self, host):
        """The snapshot cache used to hand out its stored dictionary: a
        caller mutating a hit corrupted every later hit of the same key."""
        _create(host)
        first = host.execute(_request(protocol.QUERY_STATS))["result"]
        pristine = results_to_json(first)
        first["alive_nodes"] = -999
        first.pop("edge_count")
        second = host.execute(_request(protocol.QUERY_STATS))["result"]
        assert results_to_json(second) == pristine
        # And the first response really was a cache hit's copy, not a rebuild.
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert stats["snapshot_cache_hits"] >= 1

    def test_mutating_a_cache_hit_does_not_corrupt_later_hits(self, host):
        _create(host)
        host.execute(_request(protocol.SNAPSHOT))  # the miss fills the entry
        hit = host.execute(_request(protocol.SNAPSHOT))["result"]
        pristine = results_to_json(hit)
        hit["nodes"][0]["x"] = -1.0
        hit["topology"]["edges"].clear()
        hit["seed"] = None
        again = host.execute(_request(protocol.SNAPSHOT))["result"]
        assert results_to_json(again) == pristine
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert (stats["snapshot_cache_hits"], stats["snapshot_cache_misses"]) == (2, 1)

    def test_mutating_a_token_answer_does_not_corrupt_the_retry(self, host):
        _create(host)
        write = {"id": 1, "op": protocol.APPLY, "world": "w", "token": "t-1",
                 "params": {"joins": [[10.0, 20.0]]}}
        applied = host.execute(write)["result"]
        pristine = results_to_json(applied)
        # The applied result and every answer from token_result are the
        # caller's own objects.
        applied["joined"].append(99)
        retried = host.execute(write)["result"]
        assert results_to_json(retried) == pristine
        retried["joined"].clear()
        retried["writes"] = -1
        assert results_to_json(host.execute(write)["result"]) == pristine
        stats = host.execute(_request(protocol.CACHE_STATS))["result"]
        assert stats["writes"] == 1

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_mutating_a_redispatched_batch_does_not_corrupt_the_next(self, backend, tmp_path):
        from repro.service.storage import MemoryStore, SqliteStore

        store = (
            MemoryStore() if backend == "memory" else SqliteStore(str(tmp_path / "shard.sqlite"))
        )
        host = WorldHost(store=store)
        try:
            host.execute_batch([_request(protocol.CREATE_WORLD, nodes=15, seed=3)], batch_seq=1)
            batch = [_request(protocol.ADVANCE, steps=1), _request(protocol.SNAPSHOT)]
            first = host.execute_batch(batch, batch_seq=2)
            pristine = results_to_json(first)
            first[1]["result"]["nodes"].clear()
            for _ in range(2):
                again = host.execute_batch(batch, batch_seq=2)
                assert results_to_json(again) == pristine
                again[0]["result"]["steps"] = 7
                again[1]["result"]["topology"]["edges"].clear()
            # A recovered host answers the re-dispatch from the store's marker.
            recovered = WorldHost(store=store)
            recovered.recover()
            answer = recovered.execute_batch(batch, batch_seq=2)
            assert results_to_json(answer) == pristine
            answer[1]["result"]["nodes"].clear()
            assert results_to_json(recovered.execute_batch(batch, batch_seq=2)) == pristine
            recovered.close(flush=False)
        finally:
            host.close(flush=False)
            store.close()


class TestFailedCreateCleanup:
    def test_failed_prime_unregisters_every_hook(self, monkeypatch):
        """A create_world whose prime raises must leave nothing behind: no
        hosted world, no staged WAL records, no listeners on the network."""
        from repro.core.reconfiguration import ReconfigurationManager
        from repro.scenarios.spec import ScenarioSpec
        from repro.service.storage import MemoryStore

        networks = []
        original_build = ScenarioSpec.build_network

        def capturing_build(self, seed):
            network = original_build(self, seed)
            networks.append(network)
            return network

        monkeypatch.setattr(ScenarioSpec, "build_network", capturing_build)
        original_synchronize = ReconfigurationManager.synchronize

        def failing_synchronize(self, *args, **kwargs):
            raise RuntimeError("mid-prime failure")

        monkeypatch.setattr(ReconfigurationManager, "synchronize", failing_synchronize)
        store = MemoryStore()
        host = WorldHost(store=store)
        response = host.execute(_request(protocol.CREATE_WORLD))
        assert not response["ok"]
        assert "mid-prime failure" in response["error"]
        # No partial state: the world is not hosted, nothing was staged for
        # the WAL, and the doomed network's hooks were all unwound.
        assert host.world_ids() == []
        assert host._staged == []
        assert host._log_seq == {}
        [network] = networks
        assert network._dirty_listeners == []
        # The name is immediately reusable once the failure is gone.
        monkeypatch.setattr(ReconfigurationManager, "synchronize", original_synchronize)
        assert host.execute(_request(protocol.CREATE_WORLD))["ok"]
        host.close()
