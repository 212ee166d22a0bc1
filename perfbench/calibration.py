"""Host-speed calibration, sampled between units of work.

A 2-vCPU container whose cores other tenants share changes speed by up
to 1.8x within tens of seconds.  A fixed pure-Python kernel
that touches none of the program's code is timed before and after every
unit of work.  The unit's time divided by its ``factor`` (the median of the
samples around it, over ``REFERENCE_MS``) is the time the unit would take
on a host where the kernel takes ``REFERENCE_MS``; the median keeps one
disturbed sample from skewing a unit.  The end-to-end timings are reported
that way; raw timings and the samples are printed beside them.  Each
process is pinned to one CPU and each CPU is sampled on its own, because
the two cores of the hosts slow down independently (see ``HostSpeed``).

The kernel allocates tuples, sorts them and builds a dict from them, then
walks a dict-of-dicts graph: the object churn and pointer chasing the
workloads are made of.  Timed around a repeated Table 1 network for 60 s
(medians of 6 networks), the network time alone spread 37% (interquartile
over median), the ratio to this kernel 8%, and the ratio to a plain
arithmetic loop 14%.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Dict, List, Optional

perf_counter = time.perf_counter

#: The kernel's time on the reference host speed.
REFERENCE_MS = 12.0
SORT_ITEMS = 10_000
WALK_NODES = 8_000
WALK_STEPS = 6_000

_walk_graph: Dict[int, Dict[int, float]] = {}


def _graph() -> Dict[int, Dict[int, float]]:
    """A fixed random 10-regular dict-of-dicts graph (built once)."""
    if not _walk_graph:
        state = 1
        for node in range(WALK_NODES):
            neighbours = {}
            for _ in range(10):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                neighbours[state % WALK_NODES] = (state % 1000) / 7.0
            _walk_graph[node] = neighbours
    return _walk_graph


def kernel_ms() -> float:
    """One timing of the fixed kernel, in milliseconds.

    The garbage collector is paused while it runs, so that the sample does
    not depend on how many objects the workload keeps alive.
    """
    graph = _graph()
    gc.disable()
    try:
        begin = perf_counter()
        items = [((index * 7919) % 10007, index * 0.5, (index, index + 1)) for index in range(SORT_ITEMS)]
        items.sort()
        table = {item[0]: item for item in items}
        total = sum(item[1] for item in table.values())
        node = 0
        for _ in range(WALK_STEPS):
            for node, weight in graph[node].items():
                total += weight
        return (perf_counter() - begin) * 1000.0
    finally:
        gc.enable()


class HostSpeed:
    """The calibration samples of one run, per CPU.

    The cores of one host slow down independently, so the benchmark process
    is pinned to ``cpus[0]`` and a fleet server to ``cpus[-1]``, and every
    sample times the kernel once on each of ``cpus``.
    """

    def __init__(self, cpus: List[int]) -> None:
        self.cpus = cpus
        self.samples: Dict[int, List[float]] = {cpu: [] for cpu in cpus}
        os.sched_setaffinity(0, {cpus[0]})

    def sample(self) -> int:
        """Take a sample on every CPU; returns its index."""
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            self.samples[cpu].append(kernel_ms())
        os.sched_setaffinity(0, {self.cpus[0]})
        return len(self.samples[self.cpus[0]]) - 1

    def factor(self, before: int, after: int, cpu: Optional[int] = None) -> float:
        """How much slower than the reference ``cpu`` (default: this
        process's) ran between samples ``before`` and ``after``: the median
        of those samples and one more on each side.  Call it once the
        samples after ``after`` are taken."""
        series = self.samples[self.cpus[0] if cpu is None else cpu]
        return statistics.median(series[max(0, before - 1):after + 2]) / REFERENCE_MS

    def blended(self, before: int, after: int, server_seconds: float, client_seconds: float) -> float:
        """The factor of a closed loop between this process and a server on
        ``cpus[-1]``, weighting each CPU by the CPU seconds spent on it."""
        total = server_seconds + client_seconds
        weight = server_seconds / total if total > 0 else 0.5
        return weight * self.factor(before, after, self.cpus[-1]) + (1.0 - weight) * self.factor(before, after)

    def summary(self) -> str:
        lines = []
        for cpu, samples in self.samples.items():
            if len(samples) < 2:
                continue
            quartiles = statistics.quantiles(samples, n=4)
            lines.append(
                f"cpu {cpu}: {len(samples)} kernel samples, median {statistics.median(samples):.2f} ms, "
                f"quartiles {quartiles[0]:.2f}-{quartiles[2]:.2f} ms, "
                f"range {min(samples):.2f}-{max(samples):.2f} ms"
            )
        return f"(reference {REFERENCE_MS} ms) " + "; ".join(lines)
