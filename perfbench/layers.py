"""Per-layer timing for traced benchmark runs.

A traced run wraps the public entry point of every layer the workloads
cross (the ``SPANS`` table) and records, per span name, the number of calls,
the inclusive wall seconds and the *self* seconds (inclusive time minus the
time of nested wrapped calls).  Spans are aggregated in memory as they
close and written out once, when the run ends.

Wrapping happens from the benchmark's own files: module-level functions are
re-bound in every loaded ``repro`` module that holds a reference to them,
and methods are replaced on their class.  Span names follow the ``<layer>.<op>`` taxonomy the program's
own tracer uses, so an in-program span can later replace a wrapper one for
one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

perf_counter = time.perf_counter


def _sync_before(args: Tuple[Any, ...]) -> Tuple[int, int]:
    manager = args[0]
    return manager.reruns, manager.events_applied


def _sync_after(args, result, before, counters: Dict[str, float]) -> None:
    manager = args[0]
    counters["reconfiguration.reruns"] += manager.reruns - before[0]
    counters["reconfiguration.events"] += manager.events_applied - before[1]
    counters["reconfiguration.iterations"] += result


def _update_before(args: Tuple[Any, ...]) -> int:
    return args[0].fallbacks


def _update_after(args, result, before, counters: Dict[str, float]) -> None:
    counters["incremental.fallbacks"] += args[0].fallbacks - before


def _batch_after(args, result, before, counters: Dict[str, float]) -> None:
    counters["worlds.batch_requests"] += len(args[1])


#: (span name, module, attribute path, before hook, after hook).  Several
#: targets may share one span name; their times then add up under it.
SPANS: List[Tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    ("index.query", "repro.geometry.spatial", "UniformGridIndex.pairs_within", None, None),
    ("cbtc.grow", "repro.core.cbtc", "run_cbtc", None, None),
    ("cbtc.grow_node", "repro.core.cbtc", "run_cbtc_for_node", None, None),
    ("opt.shrink_back", "repro.core.optimizations", "shrink_back_node", None, None),
    # The pipeline applies asymmetric edge removal by building E^-_alpha.
    ("opt.asymmetric", "repro.core.topology", "symmetric_subset_graph", None, None),
    ("opt.pairwise", "repro.core.optimizations", "pairwise_edge_removal", None, None),
    ("topology.from_outcome", "repro.core.topology", "topology_from_outcome", None, None),
    ("sync.detect", "repro.core.reconfiguration", "ReconfigurationManager.synchronize",
     _sync_before, _sync_after),
    ("sync.apply", "repro.core.reconfiguration", "ReconfigurationManager.apply", None, None),
    ("topology.update", "repro.core.incremental", "IncrementalTopologyBuilder.update",
     _update_before, _update_after),
    ("measure.metrics", "repro.graphs.metrics", "graph_metrics", None, None),
    ("measure.connectivity", "repro.core.analysis", "preserves_connectivity", None, None),
    ("measure.connectivity", "repro.core.analysis", "preserves_max_power_connectivity", None, None),
    ("traffic.run", "repro.traffic.runner", "run_traffic", None, None),
    ("host.batch", "repro.service.worlds", "WorldHost.execute_batch", None, _batch_after),
    ("snapshot.encode", "repro.service.worlds", "World.stats", None, None),
    ("snapshot.encode", "repro.service.worlds", "World.route", None, None),
    ("snapshot.encode", "repro.service.worlds", "World.traffic", None, None),
    ("snapshot.encode", "repro.service.worlds", "World.snapshot", None, None),
    ("world.commit", "repro.service.worlds", "World.commit_epoch", None, None),
    ("wal.commit", "repro.service.storage.sqlite", "SqliteStore.commit_batch", None, None),
    ("wal.checkpoint", "repro.service.storage.sqlite", "SqliteStore._write_checkpoint", None, None),
    ("subs.diff", "repro.service.subs.diff", "compute_diff", None, None),
    ("server.codec", "repro.service.protocol", "encode_message", None, None),
    ("server.codec", "repro.service.protocol", "decode_message", None, None),
]

COUNTERS = (
    "reconfiguration.reruns",
    "reconfiguration.events",
    "reconfiguration.iterations",
    "incremental.fallbacks",
    "worlds.batch_requests",
)


class LayerTracer:
    """Aggregated spans: calls, inclusive and self seconds per span name."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_seconds: Dict[str, float] = {}
        self.counters: Dict[str, float] = {name: 0 for name in COUNTERS}
        # One entry per open span: the seconds its wrapped children took.
        self._children: List[float] = []

    def wrap(self, name: str, function: Callable, before=None, after=None) -> Callable:
        children = self._children
        calls = self.calls
        total = self.total
        self_seconds = self.self_seconds
        counters = self.counters
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)
        self_seconds.setdefault(name, 0.0)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            children.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = children.pop()
                if children:
                    children[-1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_seconds[name] += elapsed - nested
            if after is not None:
                after(args, result, state, counters)
            return result

        return traced

    def install(self) -> None:
        """Wrap every ``SPANS`` target in the running process."""
        for _, module_name, _, _, _ in SPANS:
            importlib.import_module(module_name)
        holders = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for span, module_name, path, before, after in SPANS:
            owner: Any = sys.modules[module_name]
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            wrapped = self.wrap(span, original, before, after)
            if outer:
                setattr(owner, attribute, wrapped)
                continue
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def reset(self) -> None:
        """Zero every aggregate (call between, never inside, wrapped calls)."""
        for table in (self.calls, self.total, self.self_seconds, self.counters):
            for key in table:
                table[key] = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_seconds),
            "counters": dict(self.counters),
        }


def merge(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :meth:`LayerTracer.snapshot` payloads."""
    merged: Dict[str, Dict[str, float]] = {"calls": {}, "total": {}, "self": {}, "counters": {}}
    for snap in snapshots:
        for section, values in merged.items():
            for key, value in snap.get(section, {}).items():
                values[key] = values.get(key, 0) + value
    return merged


def _calls(span: str):
    return lambda s, x: s["calls"].get(span, 0)


def _self(span: str):
    return lambda s, x: s["self"].get(span, 0.0)


def _total(span: str):
    return lambda s, x: s["total"].get(span, 0.0)


def _counter(name: str):
    return lambda s, x: s["counters"].get(name, 0)


def _extra(name: str):
    return lambda s, x: x.get(name, 0)


def _ratio(numerator, denominator):
    def value(s, x):
        base = denominator(s, x)
        return numerator(s, x) / base if base else 0.0

    return value


#: Every per-layer metric: (name, unit, better, extractor).  ``.s`` is a
#: span's self seconds, except ``reconfiguration.synchronize.s``, which is
#: inclusive (its self time is ``reconfiguration.detect.s``).  Extractors
#: read a merged tracer snapshot ``s`` and the workload's extras ``x``.
PER_LAYER: List[Tuple[str, str, str, Callable]] = [
    ("spatial.pairs_within.calls", "count", "lower", _calls("index.query")),
    ("spatial.pairs_within.s", "s", "lower", _self("index.query")),
    ("cbtc.run_cbtc.s", "s", "lower", _self("cbtc.grow")),
    ("cbtc.run_cbtc_for_node.calls", "count", "lower", _calls("cbtc.grow_node")),
    ("cbtc.run_cbtc_for_node.s", "s", "lower", _self("cbtc.grow_node")),
    ("optimizations.shrink_back_node.calls", "count", "lower", _calls("opt.shrink_back")),
    ("optimizations.shrink_back_node.s", "s", "lower", _self("opt.shrink_back")),
    ("optimizations.asymmetric_edge_removal.s", "s", "lower", _self("opt.asymmetric")),
    ("optimizations.pairwise_edge_removal.s", "s", "lower", _self("opt.pairwise")),
    ("topology.topology_from_outcome.calls", "count", "lower", _calls("topology.from_outcome")),
    ("topology.topology_from_outcome.s", "s", "lower", _self("topology.from_outcome")),
    ("reconfiguration.synchronize.calls", "count", "lower", _calls("sync.detect")),
    ("reconfiguration.synchronize.s", "s", "lower", _total("sync.detect")),
    ("reconfiguration.detect.s", "s", "lower", _self("sync.detect")),
    ("reconfiguration.apply.calls", "count", "lower", _calls("sync.apply")),
    ("reconfiguration.apply.s", "s", "lower", _self("sync.apply")),
    ("reconfiguration.events", "count", "lower", _counter("reconfiguration.events")),
    ("reconfiguration.reruns", "count", "lower", _counter("reconfiguration.reruns")),
    ("reconfiguration.iterations", "count", "lower", _counter("reconfiguration.iterations")),
    ("incremental.update.calls", "count", "lower", _calls("topology.update")),
    ("incremental.update.s", "s", "lower", _self("topology.update")),
    ("incremental.fallbacks", "count", "lower", _counter("incremental.fallbacks")),
    ("incremental.fallback_ratio", "ratio", "lower",
     _ratio(_counter("incremental.fallbacks"), _calls("topology.update"))),
    ("measure.graph_metrics.s", "s", "lower", _self("measure.metrics")),
    ("measure.preserves_connectivity.s", "s", "lower", _self("measure.connectivity")),
    ("traffic.run_traffic.calls", "count", "lower", _calls("traffic.run")),
    ("traffic.run_traffic.s", "s", "lower", _self("traffic.run")),
    ("worlds.execute_batch.calls", "count", "lower", _calls("host.batch")),
    ("worlds.execute_batch.s", "s", "lower", _self("host.batch")),
    ("worlds.batch_size.mean", "count", "higher",
     _ratio(_counter("worlds.batch_requests"), _calls("host.batch"))),
    ("worlds.read.s", "s", "lower", _self("snapshot.encode")),
    ("worlds.commit_epoch.s", "s", "lower", _self("world.commit")),
    ("worlds.snapshot_cache.hit_ratio", "ratio", "higher", _extra("snapshot_cache_hit_ratio")),
    ("worlds.route_cache.hit_ratio", "ratio", "higher", _extra("route_cache_hit_ratio")),
    ("storage.commit_batch.calls", "count", "lower", _calls("wal.commit")),
    ("storage.commit_batch.s", "s", "lower", _self("wal.commit")),
    ("storage.checkpoint.calls", "count", "lower", _calls("wal.checkpoint")),
    ("storage.checkpoint.s", "s", "lower", _self("wal.checkpoint")),
    ("storage.bytes", "B", "lower", _extra("storage_bytes")),
    ("subs.compute_diff.calls", "count", "lower", _calls("subs.diff")),
    ("subs.compute_diff.s", "s", "lower", _self("subs.diff")),
    ("subs.frames", "count", "lower", _extra("subs_frames")),
    ("subs.resyncs", "count", "lower", _extra("subs_resyncs")),
    ("server.frontend.s", "s", "lower", _extra("frontend_s")),
    ("server.queue_wait_ms.p99", "ms", "lower", _extra("queue_wait_p99_ms")),
    ("protocol.codec.s", "s", "lower", _self("server.codec")),
    ("trace.overhead_ratio", "ratio", "lower", _extra("overhead_ratio")),
    ("trace.unaccounted_share", "ratio", "lower", _extra("unaccounted_share")),
]

#: Counts that are a pure function of the workload's inputs: two traced
#: runs of one seed must report them identically.  Batch counts and pushed
#: frames depend on how requests and commits coalesce in time, so they are
#: left out.
EXACT_COUNTS = (
    "spatial.pairs_within.calls",
    "cbtc.run_cbtc_for_node.calls",
    "optimizations.shrink_back_node.calls",
    "topology.topology_from_outcome.calls",
    "reconfiguration.synchronize.calls",
    "reconfiguration.apply.calls",
    "reconfiguration.events",
    "reconfiguration.reruns",
    "reconfiguration.iterations",
    "incremental.update.calls",
    "incremental.fallbacks",
    "traffic.run_traffic.calls",
    "worlds.snapshot_cache.hit_ratio",
    "worlds.route_cache.hit_ratio",
    "storage.checkpoint.calls",
    "subs.compute_diff.calls",
)


def self_seconds(snapshot: Dict[str, Any]) -> float:
    """Seconds the wrapped layers account for (self times never overlap)."""
    return sum(snapshot["self"].values())


def per_layer_metrics(snapshot: Dict[str, Any], extras: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": extract(snapshot, extras), "unit": unit}
        for name, unit, _, extract in PER_LAYER
    }
