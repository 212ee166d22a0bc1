"""Durability battery: write-ahead log, crash recovery, eviction.

Three layers of assurance, mirroring the design's trust chain:

* **store unit tests** — both backends implement the WorldStore contract
  identically (group commit, purge-first semantics, the exactly-once batch
  marker);
* **kill-and-recover battery** — hypothesis interleaves host crashes (the
  abandoned-host model: no flush, only committed state survives) into
  randomly scheduled sharded replays and requires the final snapshots to
  stay byte-identical to :func:`replay_serial`, with and without
  checkpoints, under random checkpoint cadences and eviction bounds;
* **process supervision** — a real SIGKILLed worker: with a durable store
  the dispatcher restarts, recovers and re-dispatches (the client never
  sees the crash); without one it surfaces per-request errors instead of
  hanging forever (the regression that motivated this PR).
"""

import base64
import json
import pickle
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io.results import canonical_json
from repro.service import protocol
from repro.service.replay import ShardedReplayer, collect_snapshots, replay_serial
from repro.service.sharding import HashRing
from repro.service.storage import (
    Checkpoint,
    MemoryStore,
    SqliteStore,
    StoreConfig,
    scan_world_ids,
    shard_db_path,
)
from repro.service.workers import ProcessShardPool
from repro.service.worlds import WorldHost

from tests.service.test_determinism import WORLD_NAMES, build_trace


# --------------------------------------------------------------------- #
# Store contract
# --------------------------------------------------------------------- #
@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = MemoryStore()
    else:
        backend = SqliteStore(str(tmp_path / "shard.sqlite"))
    yield backend
    backend.close()


class TestStoreContract:
    def test_empty_store(self, store):
        assert store.last_batch() == (0, None)
        assert store.world_ids() == []
        assert store.world_counts() == {}
        assert store.latest_checkpoint("w") is None
        assert store.records_after("w", 0) == []

    def test_commit_round_trip(self, store):
        records = [
            ("w", 1, {"kind": "op", "op": "create_world", "params": {"nodes": 5}}),
            ("w", 2, {"kind": "op", "op": "advance", "params": {"steps": 1}}),
            ("w", 3, {"kind": "sync"}),
            ("v", 1, {"kind": "op", "op": "create_world", "params": {}}),
        ]
        responses = [{"id": 1, "ok": True, "result": {"x": 1}}]
        store.commit_batch(1, records, responses, [], [])
        assert store.world_ids() == ["v", "w"]
        assert store.world_counts() == {"v": (1, 1), "w": (3, 2)}
        assert store.last_batch() == (1, responses)
        assert store.records_after("w", 0) == [record for _, _, record in records[:3]]
        assert store.records_after("w", 2) == [{"kind": "sync"}]

    def test_checkpoints(self, store):
        checkpoint = Checkpoint(seq=4, state=b"blob", snapshot_json='{"a": 1}')
        store.commit_batch(1, [], [], [("w", checkpoint)], [])
        loaded = store.latest_checkpoint("w")
        assert (loaded.seq, bytes(loaded.state), loaded.snapshot_json) == (4, b"blob", '{"a": 1}')
        # A checkpoint-only world still shows up with its seq.
        assert store.world_counts() == {"w": (4, 0)}
        # save_checkpoint (the eviction path) replaces it.
        store.save_checkpoint("w", Checkpoint(seq=9, state=b"newer"))
        loaded = store.latest_checkpoint("w")
        assert (loaded.seq, loaded.snapshot_json) == (9, None)

    def test_purges_apply_before_records(self, store):
        store.commit_batch(
            1,
            [("w", 1, {"kind": "op", "op": "create_world", "params": {}})],
            [],
            [("w", Checkpoint(seq=1, state=b"old"))],
            [],
        )
        # Delete-then-recreate in one batch: the purge must erase the old
        # history, the same batch's records must survive it.
        store.commit_batch(
            2,
            [("w", 1, {"kind": "op", "op": "create_world", "params": {"seed": 7}})],
            [],
            [],
            ["w"],
        )
        assert store.records_after("w", 0) == [
            {"kind": "op", "op": "create_world", "params": {"seed": 7}}
        ]
        assert store.latest_checkpoint("w") is None

    def test_last_batch_marker_is_replaced(self, store):
        store.commit_batch(1, [], [{"id": 1, "ok": True, "result": {}}], [], [])
        store.commit_batch(2, [], [{"id": 2, "ok": True, "result": {}}], [], [])
        seq, responses = store.last_batch()
        assert seq == 2
        assert responses == [{"id": 2, "ok": True, "result": {}}]


class TestSqlitePersistence:
    def test_state_survives_reopen(self, tmp_path):
        path = str(tmp_path / "shard.sqlite")
        first = SqliteStore(path)
        first.commit_batch(
            3,
            [("w", 1, {"kind": "op", "op": "create_world", "params": {}})],
            [{"id": 0, "ok": True, "result": {}}],
            [("w", Checkpoint(seq=1, state=b"blob"))],
            [],
        )
        first.close()
        second = SqliteStore(path)
        try:
            assert second.last_batch()[0] == 3
            assert second.world_ids() == ["w"]
            assert bytes(second.latest_checkpoint("w").state) == b"blob"
        finally:
            second.close()

    def test_scan_world_ids(self, tmp_path):
        state_dir = str(tmp_path)
        for shard, world in ((0, "alpha"), (2, "gamma")):
            backend = SqliteStore(shard_db_path(state_dir, shard))
            backend.commit_batch(
                1, [(world, 1, {"kind": "op", "op": "create_world", "params": {}})], [], [], []
            )
            backend.close()
        # Shard 1 has no database file; the scan just skips it.
        assert scan_world_ids(state_dir, 3) == {"alpha": 0, "gamma": 2}


class TestStoreConfig:
    def test_sqlite_requires_path(self):
        with pytest.raises(ValueError, match="state directory"):
            StoreConfig(kind="sqlite", path=None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown store kind"):
            StoreConfig(kind="postgres", path="x")

    def test_bounds(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            StoreConfig(kind="memory", snapshot_every=0)
        with pytest.raises(ValueError, match="max_live_worlds"):
            StoreConfig(kind="memory", max_live_worlds=0)

    def test_durability_flag(self):
        assert StoreConfig(kind="sqlite", path="x").durable
        assert not StoreConfig(kind="memory").durable


# --------------------------------------------------------------------- #
# Kill-and-recover battery
# --------------------------------------------------------------------- #
def _replay_with_crashes(
    trace,
    *,
    shards,
    schedule_seed,
    max_batch,
    cuts,
    snapshot_every,
    max_live_worlds,
    use_checkpoints,
    store_factory,
):
    """Sharded replay with every shard crashed-and-recovered at each cut."""
    replayer = ShardedReplayer(
        shards,
        store_factory=store_factory,
        snapshot_every=snapshot_every,
        max_live_worlds=max_live_worlds,
    )
    try:
        positions = sorted(set(min(cut, len(trace)) for cut in cuts))
        previous = 0
        for position in positions + [len(trace)]:
            replayer.execute(
                trace[previous:position], schedule_seed=schedule_seed, max_batch=max_batch
            )
            previous = position
            if position < len(trace):
                for shard in range(shards):
                    replayer.crash(shard, use_checkpoints=use_checkpoints)
        return replayer.snapshots()
    finally:
        replayer.close()


class TestKillAndRecover:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**20),
        ops_per_world=st.integers(min_value=1, max_value=6),
        shards=st.integers(min_value=1, max_value=3),
        schedule_seed=st.integers(min_value=0, max_value=2**20),
        max_batch=st.integers(min_value=1, max_value=5),
        cuts=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
        snapshot_every=st.integers(min_value=1, max_value=8),
        use_checkpoints=st.booleans(),
    )
    def test_recovered_replay_is_byte_identical(
        self,
        trace_seed,
        ops_per_world,
        shards,
        schedule_seed,
        max_batch,
        cuts,
        snapshot_every,
        use_checkpoints,
    ):
        """Crash every shard at random trace positions; recovery (from a
        random checkpoint cadence, or from the raw log) must reproduce the
        uninterrupted serial execution byte for byte."""
        trace = build_trace(trace_seed, ops_per_world, node_count=15)
        serial = replay_serial(trace)
        recovered = _replay_with_crashes(
            trace,
            shards=shards,
            schedule_seed=schedule_seed,
            max_batch=max_batch,
            cuts=cuts,
            snapshot_every=snapshot_every,
            max_live_worlds=None,
            use_checkpoints=use_checkpoints,
            store_factory=lambda shard: MemoryStore(),
        )
        assert recovered == serial

    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trace_seed=st.integers(min_value=0, max_value=2**20),
        ops_per_world=st.integers(min_value=1, max_value=5),
        snapshot_every=st.integers(min_value=1, max_value=6),
        max_live_worlds=st.integers(min_value=1, max_value=2),
    )
    def test_eviction_is_transparent(
        self, trace_seed, ops_per_world, snapshot_every, max_live_worlds
    ):
        """A host bounded to fewer live worlds than the trace touches must
        serve the exact bytes an unbounded host serves — eviction and
        rehydration are invisible to clients."""
        trace = build_trace(trace_seed, ops_per_world, node_count=15)
        serial = replay_serial(trace)
        replayer = ShardedReplayer(
            1,
            store_factory=lambda shard: MemoryStore(),
            snapshot_every=snapshot_every,
            max_live_worlds=max_live_worlds,
        )
        try:
            replayer.execute(trace, schedule_seed=trace_seed, max_batch=3)
            host = replayer.hosts[0]
            if len(host.world_ids()) > max_live_worlds:
                assert host.evictions > 0
            assert replayer.snapshots() == serial
        finally:
            replayer.close()

    def test_memory_and_sqlite_recover_identically(self, tmp_path):
        trace = build_trace(11, 5, node_count=15)
        serial = replay_serial(trace)
        kwargs = dict(
            shards=2,
            schedule_seed=5,
            max_batch=3,
            cuts=[4, 9],
            snapshot_every=3,
            max_live_worlds=None,
            use_checkpoints=True,
        )
        from_memory = _replay_with_crashes(
            trace, store_factory=lambda shard: MemoryStore(), **kwargs
        )
        from_sqlite = _replay_with_crashes(
            trace,
            store_factory=lambda shard: SqliteStore(str(tmp_path / f"shard-{shard}.sqlite")),
            **kwargs,
        )
        assert from_memory == serial
        assert from_sqlite == serial

    def test_delete_and_recreate_survive_a_crash(self):
        store = MemoryStore()
        host = WorldHost(store=store)
        create = {"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10, "seed": 1}}
        host.execute(create)
        host.execute({"op": protocol.ADVANCE, "world": "w", "params": {"steps": 2}})
        # Delete and recreate (different seed) in ONE batch: the purge and
        # the new create commit together.
        recreate = {"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10, "seed": 2}}
        responses = host.execute_batch(
            [{"op": protocol.DELETE_WORLD, "world": "w", "params": {}}, recreate]
        )
        assert all(response["ok"] for response in responses)
        [snapshot] = host.execute_batch(
            [{"op": protocol.SNAPSHOT, "world": "w", "params": {}}]
        )
        recovered_host = WorldHost(store=store)
        recovered_host.recover()
        [recovered] = recovered_host.execute_batch(
            [{"op": protocol.SNAPSHOT, "world": "w", "params": {}}]
        )
        assert recovered["result"] == snapshot["result"]
        assert recovered["result"]["seed"] == 2

    def test_flush_on_close_makes_recovery_checkpoint_only(self):
        store = MemoryStore()
        host = WorldHost(store=store, snapshot_every=100)
        host.execute({"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10}})
        host.execute({"op": protocol.ADVANCE, "world": "w", "params": {"steps": 3}})
        host.execute({"op": protocol.QUERY_STATS, "world": "w", "params": {}})
        host.close()  # flushes a checkpoint at the current log position
        checkpoint = store.latest_checkpoint("w")
        assert checkpoint is not None
        assert store.records_after("w", checkpoint.seq) == []

    def test_redispatched_batch_is_not_reexecuted(self):
        host = WorldHost(store=MemoryStore())
        host.execute_batch(
            [{"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10}}],
            batch_seq=1,
        )
        batch = [{"op": protocol.ADVANCE, "world": "w", "params": {"steps": 1}}]
        first = host.execute_batch(batch, batch_seq=2)
        executed = host.requests_executed
        again = host.execute_batch(batch, batch_seq=2)
        assert again == first
        assert host.requests_executed == executed  # answered from the store
        with pytest.raises(RuntimeError, match="already committed"):
            host.execute_batch(batch, batch_seq=1)

    def test_failed_write_is_not_logged(self):
        store = MemoryStore()
        host = WorldHost(store=store)
        host.execute({"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 10}})
        response = host.execute(
            {"op": protocol.APPLY, "world": "w", "params": {"moves": [[999, 0.0, 0.0]]}}
        )
        assert not response["ok"]
        # Only the create is durable; the rejected apply staged nothing.
        assert [record["kind"] for record in store.records_after("w", 0)] == ["op"]
        recovered_host = WorldHost(store=store)
        assert recovered_host.recover() == 1


# --------------------------------------------------------------------- #
# Checkpoint snapshots: reconciled worlds only, no throwaway clone
# --------------------------------------------------------------------- #
def _op(op, world="w", **params):
    return {"op": op, "world": world, "params": params}


def _create_op(world="w", seed=1):
    return _op(
        protocol.CREATE_WORLD,
        world,
        scenario="random-waypoint-drift",
        nodes=15,
        seed=seed,
        mover_fraction=0.3,
    )


def _canonical(snapshot_text):
    """``replay_serial``'s snapshot string in the checkpoint's canonical form."""
    return canonical_json(json.loads(snapshot_text))


class TestCheckpointSnapshots:
    def test_tracked_world_checkpoints_its_serial_snapshot(self):
        """Every periodic checkpoint of a tracked (always reconciled) world
        carries the snapshot the uninterrupted serial run has there."""
        trace = [_create_op(), _op(protocol.SUB_TRACK)]
        trace += [_op(protocol.ADVANCE, steps=1) for _ in range(3)]
        trace += [_op(protocol.APPLY, moves=[[2, 700.0, 300.0]], crashes=[4])]
        store = MemoryStore()
        host = WorldHost(store=store, snapshot_every=1)
        try:
            for position, request in enumerate(trace, start=1):
                host.execute(request)
                if request["op"] == protocol.SUB_TRACK:
                    continue  # not a write: no checkpoint is due
                checkpoint = store.latest_checkpoint("w")
                assert checkpoint.seq == host._log_seq["w"]
                assert checkpoint.snapshot_json == _canonical(replay_serial(trace[:position])["w"])
        finally:
            host.close(flush=False)

    def test_pending_write_checkpoints_without_a_snapshot(self):
        """An untracked world checkpointed right after a write has pending
        changes: its checkpoint stores no snapshot, forces no synchronize,
        and recovery from it (or from the raw log) matches the serial run."""
        trace = [
            _create_op(),
            _op(protocol.QUERY_STATS),
            _op(protocol.ADVANCE, steps=2),
            _op(protocol.SNAPSHOT),  # a cached snapshot the write makes stale
            _op(protocol.APPLY, moves=[[1, 100.0, 900.0]]),
        ]
        store = MemoryStore()
        host = WorldHost(store=store, snapshot_every=1)
        try:
            for request in trace[:-1]:
                host.execute(request)
            before = host.worlds["w"].cache_stats()
            host.execute(trace[-1])
            assert host.worlds["w"]._dirty
            assert store.latest_checkpoint("w").seq == host._log_seq["w"]
            assert store.latest_checkpoint("w").snapshot_json is None
            # The write and its checkpoint moved no cache, counter or memo.
            assert host.worlds["w"].cache_stats() == dict(before, writes=before["writes"] + 1)
        finally:
            host.close(flush=False)
        serial = replay_serial(trace)
        for use_checkpoints in (True, False):
            recovered = WorldHost(store=store)
            try:
                recovered.recover(use_checkpoints=use_checkpoints)
                assert collect_snapshots(recovered) == serial
            finally:
                recovered.close(flush=False)

    def test_reconciled_snapshot_moves_no_counter(self):
        """The checkpoint snapshot comes from the cache entry or the memoized
        topology and leaves the cache, its counters and the memo as they were."""
        host = WorldHost()
        try:
            host.execute(_create_op())
            world = host.worlds["w"]
            before = world.cache_stats()
            from_topology = world.reconciled_snapshot_json()
            assert world.cache_stats() == before
            assert world._snapshot_cache == {}
            snapshot = host.execute(_op(protocol.SNAPSHOT))["result"]
            assert from_topology == canonical_json(snapshot)
            before = world.cache_stats()
            assert world.reconciled_snapshot_json() == from_topology
            assert world.cache_stats() == before
        finally:
            host.close()

    def test_eviction_checkpoints_follow_the_same_rule(self):
        """Eviction stores the snapshot of a reconciled world and None for
        one with pending changes, exactly like a periodic checkpoint."""
        store = MemoryStore()
        host = WorldHost(store=store, snapshot_every=100, max_live_worlds=1)
        try:
            host.execute(_create_op("clean", seed=1))
            host.execute(_create_op("dirty", seed=2))  # evicts "clean"
            host.execute(_op(protocol.ADVANCE, "dirty", steps=2))
            host.execute(_op(protocol.QUERY_STATS, "clean"))  # evicts "dirty"
            assert store.latest_checkpoint("dirty").snapshot_json is None
            expected = _canonical(
                replay_serial([_create_op("clean", seed=1)])["clean"]
            )
            assert store.latest_checkpoint("clean").snapshot_json == expected
        finally:
            host.close(flush=False)

    def test_checkpointing_unpickles_nothing(self, monkeypatch):
        loads = []
        real_loads = pickle.loads

        def counting_loads(*args, **kwargs):
            loads.append(1)
            return real_loads(*args, **kwargs)

        store = MemoryStore()
        host = WorldHost(store=store, snapshot_every=1)
        monkeypatch.setattr(pickle, "loads", counting_loads)
        try:
            host.execute(_create_op("tracked", seed=1))
            host.execute(_op(protocol.SUB_TRACK, "tracked"))
            host.execute(_create_op("plain", seed=2))
            for _ in range(3):
                host.execute(_op(protocol.ADVANCE, "tracked", steps=1))
                host.execute(_op(protocol.ADVANCE, "plain", steps=1))
                host.execute(_op(protocol.SNAPSHOT, "plain"))
            checkpoints = host.metrics.histogram("wal.checkpoint_seconds").count
            assert checkpoints == 9  # every logged op: 2 creates, sub_track, 6 advances
            assert loads == []
        finally:
            host.close(flush=False)


# --------------------------------------------------------------------- #
# State dirs written before cache entries became JSON text
# --------------------------------------------------------------------- #
_LEGACY_TRACE = [
    dict(_create_op(), token="t-create"),
    dict(_op(protocol.ADVANCE, steps=1), token="t-advance"),
    _op(protocol.QUERY_STATS),
    _op(protocol.SNAPSHOT),
]


def _legacy_blob(world):
    """Pickle ``world`` the way earlier releases did: snapshot-cache entries
    and idempotency-token results as decoded values, not JSON text."""
    encoded = (world._snapshot_cache, world.applied_tokens)
    world._snapshot_cache = {key: json.loads(text) for key, text in encoded[0].items()}
    world.applied_tokens = type(encoded[1])(
        (token, json.loads(text)) for token, text in encoded[1].items()
    )
    try:
        assert world._snapshot_cache and world.applied_tokens
        return pickle.dumps(world)
    finally:
        world._snapshot_cache, world.applied_tokens = encoded


class TestLegacyBlobs:
    @staticmethod
    def _assert_matches_uninterrupted(host):
        """Same snapshot bytes as a never-interrupted world (read from the
        rehydrated cache), and a retried write still deduplicates."""
        expected = replay_serial(_LEGACY_TRACE)["w"]
        hits = host.worlds["w"].cache_hits
        assert collect_snapshots(host) == {"w": expected}
        assert host.worlds["w"].cache_hits == hits + 1
        retry = host.execute(_LEGACY_TRACE[1])
        assert retry == {"id": None, "ok": True, "result": {"world": "w", "steps": 1, "writes": 1}}
        assert host.execute(_LEGACY_TRACE[0])["ok"]  # the create retry, too
        assert collect_snapshots(host) == {"w": expected}

    def test_legacy_checkpoint_rehydrates(self, store):
        host = WorldHost(store=store)
        for request in _LEGACY_TRACE:
            host.execute(request)
        blob = _legacy_blob(host.worlds["w"])
        store.save_checkpoint("w", Checkpoint(seq=host._log_seq["w"], state=blob))
        host.close(flush=False)
        recovered = WorldHost(store=store)
        try:
            recovered.recover()
            self._assert_matches_uninterrupted(recovered)
        finally:
            recovered.close(flush=False)

    def test_legacy_migration_blob_is_adopted(self):
        source = WorldHost()
        for request in _LEGACY_TRACE:
            source.execute(request)
        state = base64.b64encode(_legacy_blob(source.worlds["w"])).decode("ascii")
        source.close()
        store = MemoryStore()
        target = WorldHost(store=store)
        try:
            assert target.execute(_op(protocol.MIGRATE_IN, state=state))["ok"]
            self._assert_matches_uninterrupted(target)
        finally:
            target.close(flush=False)
        # The logged migrate_in record replays the same legacy blob.
        replayed = WorldHost(store=store)
        try:
            replayed.recover(use_checkpoints=False)
            self._assert_matches_uninterrupted(replayed)
        finally:
            replayed.close(flush=False)


    # Worlds pickled before settled-state certificates existed: the manager
    # has no ``_settled`` attribute.  Certificates are a cache of proofs
    # about live state objects, so a restored world starts with none and
    # must still write byte-identically to an uninterrupted one.
    _CERTIFIED_HEAD = [
        dict(_create_op(), params=dict(_create_op()["params"], nodes=40)),
        _op(protocol.ADVANCE, steps=3),
        _op(protocol.QUERY_STATS),  # reads synchronize
    ]
    _CERTIFIED_TAIL = [_op(protocol.ADVANCE, steps=3), _op(protocol.QUERY_STATS)]

    @staticmethod
    def _parent_manager_blob(world):
        """Pickle ``world`` with a manager that lacks ``_settled``, as the
        parent format has it; the live world keeps its certificates."""
        manager = world.manager
        certificates = manager.__dict__.pop("_settled")
        try:
            assert certificates, "the world should hold certificates to leave out"
            return pickle.dumps(world)
        finally:
            manager._settled = certificates

    def _continue_matches_uninterrupted(self, host):
        assert host.worlds["w"].manager._settled == {}
        for request in self._CERTIFIED_TAIL:
            assert host.execute(request)["ok"]
        assert host.worlds["w"].manager._settled
        expected = replay_serial(self._CERTIFIED_HEAD + self._CERTIFIED_TAIL)
        assert collect_snapshots(host) == expected

    def test_world_pickles_leave_certificates_out(self):
        host = WorldHost()
        try:
            for request in self._CERTIFIED_HEAD:
                host.execute(request)
            world = host.worlds["w"]
            assert world.manager._settled
            blob = pickle.dumps(world)
            assert b"_settled" not in blob
            assert blob == self._parent_manager_blob(world)
            assert pickle.loads(blob).manager._settled == {}
        finally:
            host.close()

    def test_parent_manager_checkpoint_rehydrates(self, store):
        host = WorldHost(store=store)
        for request in self._CERTIFIED_HEAD:
            host.execute(request)
        blob = self._parent_manager_blob(host.worlds["w"])
        store.save_checkpoint("w", Checkpoint(seq=host._log_seq["w"], state=blob))
        host.close(flush=False)
        recovered = WorldHost(store=store)
        try:
            recovered.recover()
            self._continue_matches_uninterrupted(recovered)
        finally:
            recovered.close(flush=False)

    def test_parent_manager_migration_blob_is_adopted_and_replayed(self):
        source = WorldHost()
        for request in self._CERTIFIED_HEAD:
            source.execute(request)
        state = base64.b64encode(self._parent_manager_blob(source.worlds["w"])).decode("ascii")
        source.close()
        store = MemoryStore()
        target = WorldHost(store=store)
        try:
            assert target.execute(_op(protocol.MIGRATE_IN, state=state))["ok"]
            self._continue_matches_uninterrupted(target)
        finally:
            target.close(flush=False)
        # WAL replay from the logged migrate_in record alone (no checkpoint)
        # restores the same blob, then re-applies the logged advances.
        replayed = WorldHost(store=store)
        try:
            replayed.recover(use_checkpoints=False)
            expected = replay_serial(self._CERTIFIED_HEAD + self._CERTIFIED_TAIL)
            assert collect_snapshots(replayed) == expected
        finally:
            replayed.close(flush=False)


# --------------------------------------------------------------------- #
# Process-pool supervision (real SIGKILL)
# --------------------------------------------------------------------- #
class TestProcessPoolSupervision:
    def _bootstrap(self, pool, trace, ring):
        for request in trace:
            [response] = pool.execute(ring.shard_of(request["world"]), [request])
            assert response["ok"], response

    def test_durable_pool_survives_worker_kill(self, tmp_path):
        """SIGKILL a worker, then keep serving: the restarted worker must
        recover from its log and the full run must stay byte-identical to
        an uninterrupted serial execution."""
        trace = build_trace(21, 4, node_count=15)
        serial = replay_serial(trace)
        midpoint = len(trace) // 2
        ring = HashRing(2)
        pool = ProcessShardPool(
            2, store_config=StoreConfig(kind="sqlite", path=str(tmp_path))
        )
        try:
            self._bootstrap(pool, trace[:midpoint], ring)
            for worker in pool._workers:
                worker.kill()
            self._bootstrap(pool, trace[midpoint:], ring)
            # Every shard that received post-kill traffic restarted once.
            assert pool.worker_restarts >= 1
            from repro.io.results import results_to_json

            snapshots = {}
            for world in WORLD_NAMES:
                [response] = pool.execute(
                    ring.shard_of(world),
                    [{"id": None, "op": protocol.SNAPSHOT, "world": world, "params": {}}],
                )
                assert response["ok"], response
                snapshots[world] = results_to_json(response["result"])
            assert snapshots == serial
        finally:
            pool.close()

    def test_nondurable_pool_reports_errors_instead_of_hanging(self):
        """The PR's motivating bug: ``execute`` used to block forever on the
        outbox of a dead worker.  It must return error responses promptly
        and leave the shard serving."""
        pool = ProcessShardPool(1)
        try:
            [response] = pool.execute(
                0, [{"id": 1, "op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 8}}]
            )
            assert response["ok"], response
            pool._workers[0].kill()

            outcome = {}

            def run_batch():
                outcome["responses"] = pool.execute(
                    0, [{"id": 2, "op": protocol.ADVANCE, "world": "w", "params": {}}]
                )

            thread = threading.Thread(target=run_batch, daemon=True)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive(), "dispatcher hung on a dead worker"
            [response] = outcome["responses"]
            assert not response["ok"]
            assert "worker died" in response["error"]
            assert response["id"] == 2
            assert pool.worker_restarts == 1
            # The restarted (empty) worker serves new worlds.
            [response] = pool.execute(
                0, [{"id": 3, "op": protocol.CREATE_WORLD, "world": "w2", "params": {"nodes": 8}}]
            )
            assert response["ok"], response
        finally:
            pool.close()

    def test_mid_batch_kill_recovers_exactly_once(self, tmp_path):
        """Kill the worker *while* a batch executes: the re-dispatched batch
        must apply its writes exactly once."""
        ring = HashRing(1)
        pool = ProcessShardPool(
            1, store_config=StoreConfig(kind="sqlite", path=str(tmp_path))
        )
        try:
            [response] = pool.execute(
                0, [{"op": protocol.CREATE_WORLD, "world": "w", "params": {"nodes": 20, "seed": 3}}]
            )
            assert response["ok"], response
            # A batch slow enough to be killed in flight: many advances.
            batch = [
                {"id": index, "op": protocol.ADVANCE, "world": "w", "params": {"steps": 2}}
                for index in range(30)
            ]
            killer = threading.Timer(0.15, pool._workers[0].kill)
            killer.start()
            try:
                responses = pool.execute(0, batch)
            finally:
                killer.cancel()
            assert all(response["ok"] for response in responses), responses
            # Exactly-once: the final write count equals the trace's writes.
            [stats] = pool.execute(
                0, [{"op": protocol.CACHE_STATS, "world": "w", "params": {}}]
            )
            assert stats["ok"], stats
            assert stats["result"]["writes"] == 30
        finally:
            pool.close()
