"""Shared pieces: exact percentiles, wire digest, host fingerprint, RSS."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import sys
import time

#: Set-ups made in every run, at least, and until they add up to
#: SETUP_BUDGET_S (at most MAX_SETUPS); ``setup_s`` is their median.
SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 40
#: Speed samples taken on each side of a set-up.
SETUP_SPEED_SAMPLES = 4


#: Thread CPU seconds one :func:`speed_kernel` run takes on the host the
#: benchmark was defined on (2-vCPU Intel Xeon KVM guest, quiet period).
KERNEL_NOMINAL_S = 0.0016


def speed_kernel() -> int:
    """Thread CPU nanoseconds of a fixed pure-Python loop.

    It allocates nothing the collector tracks and touches nothing of the
    program, so its time moves only with the host's momentary speed.
    """
    t0 = time.thread_time_ns()
    x = 0
    table: dict[int, int] = {}
    cells = [0] * 1024
    for i in range(8000):
        x = (x * 31 + i) & 0xFFFF
        table[i & 1023] = x
        cells[x & 1023] += 1
    return time.thread_time_ns() - t0


class HostSpeed:
    """The host's speed, sampled between slices of measured work.

    A shared host runs the same code up to 1.5x slower for minutes at a
    time. The kernel, run many times interleaved with the workload, slows
    down with it, so a CPU time times :attr:`scale` reads as it would at
    the nominal speed of :data:`KERNEL_NOMINAL_S`.
    """

    def __init__(self) -> None:
        self.ns = 0
        self.runs = 0

    def sample(self) -> None:
        self.ns += speed_kernel()
        self.runs += 1

    @property
    def scale(self) -> float:
        return KERNEL_NOMINAL_S * 1e9 * self.runs / self.ns


def more_setups(setups: list[float]) -> bool:
    return len(setups) < SETUPS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS)


def timed_setup(build):
    """Run ``build()``; returns its result and its wall seconds scaled to
    the nominal host speed, sampled just before and just after."""
    speed = HostSpeed()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    t0 = time.perf_counter()
    built = build()
    took = time.perf_counter() - t0
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return built, took * speed.scale


def percentile(samples: list[float], q: float, missing: int = 0) -> float:
    """Exact nearest-rank percentile of raw samples.

    ``missing`` samples (keystrokes never echoed) rank above every
    measured one: they miss any latency limit. A percentile that lands on
    one of them is infinite.
    """
    n = len(samples) + missing
    if n == 0:
        return math.inf
    rank = max(1, math.ceil(q / 100.0 * n))
    if rank > len(samples):
        return math.inf
    return sorted(samples)[rank - 1]


def beyond(samples: list[float], q: float, missing: int = 0) -> int:
    """How many samples lie strictly above the ``q``-th percentile rank."""
    n = len(samples) + missing
    return n - max(1, math.ceil(q / 100.0 * n))


def median(values: list[float]) -> float:
    return statistics.median(values)


def wire_digest(wire: list[tuple]) -> str:
    """Order-insensitive SHA-256 over (time, side, src, dst, bytes) records.

    Sorting first makes the digest independent of the order in which one
    simulated instant's independent datagrams were emitted.
    """
    digest = hashlib.sha256()
    for now, side, src, dst, raw in sorted(wire):
        digest.update(f"{now:.3f}|{side}|{src}|{dst}|{len(raw)}|".encode())
        digest.update(raw)
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _version(dist: str) -> str | None:
    try:
        from importlib.metadata import version

        return version(dist)
    except Exception:  # any failure just means "not installed"
        return None


def host_fingerprint(path: str) -> dict:
    """What the numbers depend on: cores, CPU, interpreter, libraries.

    ``path`` says whether the traffic crossed the simulator or the
    host's loopback interface.
    """
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "cryptography": _version("cryptography"),
        "numpy": _version("numpy"),
        "traffic": path,
    }
