"""The two fleet workloads: a closed loop against ``cbtc serve --inline``.

One *round* starts a fresh server process (two inline shards), creates the
load trace's worlds, drives the rest of the trace in a closed loop (each
connection sends its next request only after the previous reply), checks
the outputs, and shuts the server down.  Each round has its own trace and
its serial reference, computed untimed before the server starts.

Set-up time of a round runs from the server's spawn to the last world
created (and subscribed); the round's requests are timed one by one on the
client, grouped in segments (``SEGMENTS``) with host-speed samples between.
Server CPU seconds and peak RSS are read from ``/proc``.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.io.results import results_to_json
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError, SubscribingClient
from repro.service.loadgen import LoadConfig, build_trace, flatten_trace, serial_reference, world_name

perf_counter = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

#: Ops that change world state; every other traced op is a read.
WRITE_OPS = frozenset({protocol.ADVANCE, protocol.APPLY})
SETUP_OPS = frozenset({protocol.CREATE_WORLD, protocol.SUBSCRIBE})


@dataclass(frozen=True)
class FleetWorkload:
    config: LoadConfig
    durable: bool


def round_seed(seed: int, index: int) -> int:
    """Trace seed of round ``index`` of run seed ``seed``."""
    return seed * 1000 + index


def fleet_workload(name: str, seed: int) -> FleetWorkload:
    """The load trace of a fleet workload.

    The rare writes of ``fleet-read-hot`` cause most of its server time (a
    synchronize and cache refills on the next reads), so its traces are
    long enough to hold dozens of writes.  In ``fleet-write-durable`` every
    world is subscribed, so every write pays the epoch commit (snapshot,
    synchronize, diff) and the write latency has one mode instead of two.
    """
    if name == "fleet-read-hot":
        config = LoadConfig(
            worlds=8, requests_per_world=375, seed=seed, nodes=80, mover_fraction=0.1,
            write_fraction=0.03, connections=2,
        )
        return FleetWorkload(config, durable=False)
    # One request connection plus the subscriber's watcher connection.
    config = LoadConfig(
        worlds=16, requests_per_world=12, seed=seed, nodes=80, mover_fraction=0.1,
        write_fraction=0.6, connections=1, subscribers=16,
    )
    return FleetWorkload(config, durable=True)


# --------------------------------------------------------------------- #
# The server process
# --------------------------------------------------------------------- #
def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """A ``cbtc serve --inline`` process started through ``serve.py``."""

    def __init__(self, work_dir: str, *, durable: bool, trace_out: Optional[str], cpu: int) -> None:
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        self.traced = trace_out is not None
        if self.traced:
            command += ["--trace-out", trace_out]
        command += ["serve", "--inline", "--shards", "2", "--port", "0"]
        if durable:
            self.state_dir: Optional[str] = os.path.join(work_dir, "state")
            # A checkpoint every 4 writes puts checkpoints in every round.
            command += ["--state-dir", self.state_dir, "--snapshot-every", "4"]
        else:
            self.state_dir = None
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        os.sched_setaffinity(self.process.pid, {cpu})
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])

    async def mark(self, signum: int) -> None:
        """Open or close a traced server's measured window (see ``serve.py``)."""
        if self.traced:
            self.process.send_signal(signum)
            # The idle server runs the handler as soon as its poll is
            # interrupted; the pause keeps the next request behind it.
            await asyncio.sleep(0.05)

    def cpu_seconds(self) -> float:
        return _proc_cpu_seconds(self.process.pid)

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.process.pid)

    def storage_bytes(self) -> int:
        if self.state_dir is None:
            return 0
        return sum(
            os.path.getsize(os.path.join(self.state_dir, name)) for name in os.listdir(self.state_dir)
        )

    def wait(self) -> None:
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with code {self.process.returncode}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.communicate()


# --------------------------------------------------------------------- #
# One round
# --------------------------------------------------------------------- #
#: How long, in all, a round waits for the subscriber mirrors to converge.
SETTLE_SECONDS = 5.0


async def _settle(watcher: SubscribingClient, targets: Dict[str, Optional[str]]) -> int:
    """Wait (at most ``SETTLE_SECONDS``) until each watched world's mirror
    equals its served final snapshot; returns how many do."""
    deadline = perf_counter() + SETTLE_SECONDS
    verified = 0
    for world, target in targets.items():
        mirror = watcher.mirrors[world]
        while True:
            if target is not None and mirror.snapshot is not None and results_to_json(mirror.snapshot) == target:
                verified += 1
                break
            if perf_counter() >= deadline:
                break
            if watcher.stale:
                await watcher.heal()
            try:
                await watcher.wait_for(world, timeout=0.2)
            except ServiceError:
                continue
    return verified


#: The timed requests run in this many segments; between segments, with
#: every connection idle, the client takes a host-speed sample.
SEGMENTS = 8


async def _round(
    workload: FleetWorkload, server: Server, spawned: float, client_cpu_spawned: float, spawn_mark: int, speed
) -> Dict[str, Any]:
    config = workload.config
    traces = build_trace(config)
    assigned: List[List[List[Dict[str, Any]]]] = [[] for _ in range(config.connections)]
    for index, trace in enumerate(traces):
        assigned[index % config.connections].append(trace)
    clients = [await ServiceClient.connect("127.0.0.1", server.port) for _ in assigned]
    watched = [world_name(index) for index in range(config.subscribers)]
    watcher = await SubscribingClient.connect("127.0.0.1", server.port) if watched else None
    snapshots: Dict[str, str] = {}
    errors: List[str] = []

    async def create(client: ServiceClient, connection_traces) -> None:
        for trace in connection_traces:
            await client.call(protocol.CREATE_WORLD, world=trace[0]["world"], params=trace[0]["params"])

    async def drive(client: ServiceClient, requests, timings: List[tuple]) -> None:
        for request in requests:
            begin = perf_counter()
            try:
                result = await client.call(request["op"], world=request["world"], params=request["params"])
            except ServiceError as error:
                errors.append(f"{request['op']} {request['world']}: {error}")
                continue
            timings.append((request["op"] in WRITE_OPS, perf_counter() - begin))
            if request["op"] == protocol.SNAPSHOT:
                snapshots[request["world"]] = results_to_json(result)

    try:
        await asyncio.gather(*(create(c, a) for c, a in zip(clients, assigned)))
        # The trace's subscribe ops sit right after each create; the watcher
        # issues them, so it is subscribed before any write.
        for world in watched:
            await watcher.subscribe(world)
        setup_seconds = perf_counter() - spawned
        setup_cpu = (server.cpu_seconds(), time.process_time() - client_cpu_spawned)
        setup_mark = (spawn_mark, speed.sample())
        requests = [
            flatten_trace([[r for r in trace if r["op"] not in SETUP_OPS] for trace in connection_traces])
            for connection_traces in assigned
        ]
        segments: List[Dict[str, Any]] = []
        before = setup_mark[1]
        await server.mark(signal.SIGUSR1)
        cpu_before = server.cpu_seconds()
        for segment in range(SEGMENTS):
            timings: List[tuple] = []
            server_cpu = server.cpu_seconds()
            client_cpu = time.process_time()
            begin = perf_counter()
            await asyncio.gather(*(
                drive(client, own[segment * len(own) // SEGMENTS:(segment + 1) * len(own) // SEGMENTS], timings)
                for client, own in zip(clients, requests)
            ))
            segment_seconds = perf_counter() - begin
            cpu = (server.cpu_seconds() - server_cpu, time.process_time() - client_cpu)
            after = speed.sample()
            segments.append({"seconds": segment_seconds, "timings": timings, "mark": (before, after), "cpu": cpu})
            before = after
        cpu_seconds = server.cpu_seconds() - cpu_before
        await server.mark(signal.SIGUSR2)
        mirrors_verified = await _settle(watcher, {world: snapshots.get(world) for world in watched}) if watched else 0
        metrics = await clients[0].call(protocol.METRICS)
        result = {
            "setup_seconds": setup_seconds,
            "setup_mark": setup_mark,
            "setup_cpu": setup_cpu,
            "elapsed": sum(segment["seconds"] for segment in segments),
            "segments": segments,
            "server_cpu_seconds": cpu_seconds,
            "snapshots": snapshots,
            "errors": errors,
            "watched": len(watched),
            "mirrors_verified": mirrors_verified,
            "frames": watcher.frames_received if watcher else 0,
            "resyncs": sum(mirror.resyncs for mirror in watcher.mirrors.values()) if watcher else 0,
            "metrics": metrics,
            "peak_rss_mb": server.peak_rss_mb(),
            "storage_bytes": server.storage_bytes(),
        }
        await clients[0].call(protocol.SHUTDOWN)
        return result
    finally:
        for client in clients:
            await client.close()
        if watcher is not None:
            await watcher.close()


def run_round(workload: FleetWorkload, work_dir: str, speed, *, trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Compute the trace's serial reference, start a server, run one round
    against it, wait for its exit, and check the outputs (``problems``)."""
    reference = serial_reference(workload.config)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    spawn_mark = speed.sample()
    client_cpu_spawned = time.process_time()
    spawned = perf_counter()
    server = Server(work_dir, durable=workload.durable, trace_out=trace_out, cpu=speed.cpus[-1])
    try:
        result = asyncio.run(_round(workload, server, spawned, client_cpu_spawned, spawn_mark, speed))
        server.wait()
    finally:
        server.kill()
        shutil.rmtree(os.path.join(work_dir, "state"), ignore_errors=True)
    result["problems"] = check_round(result, reference)
    return result


def check_round(result: Dict[str, Any], reference: Dict[str, str]) -> List[str]:
    """Everything wrong with one round's outputs."""
    problems = list(result["errors"])
    for world in sorted(reference):
        if result["snapshots"].get(world) != reference[world]:
            problems.append(f"{world}: final snapshot differs from the serial reference")
    if result["mirrors_verified"] != result["watched"]:
        problems.append(
            f"{result['watched'] - result['mirrors_verified']} subscriber mirrors not byte-identical"
        )
    return problems
