"""Smoke tests of the benchmark itself, at a tiny scale.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import repro.session.inprocess  # noqa: E402,F401  (import order: no cycle)
from common import beyond, percentile, wire_digest  # noqa: E402
from ledger import SpanLedger, closure  # noqa: E402
from simwork import SPECS, DaemonMeter, SimEpisode, make_inputs  # noqa: E402

#: Tiny versions of the simulator workloads: a few sessions, seconds of
#: simulated typing.
TINY = {
    "fleet_typing": dict(sessions=16, typing_every=4, type_ms=3000.0),
    "bulk_scroll": dict(sessions=2, type_ms=3000.0),
    "hostile_flood": dict(sessions=8, typing_every=4, type_ms=3000.0),
}


@pytest.fixture
def meter():
    m = DaemonMeter()
    m.install()
    yield m
    m.uninstall()


def _episode(workload, seed, meter, ledger=None):
    spec = dataclasses.replace(SPECS[workload], **TINY[workload])
    episode = SimEpisode(workload, spec, make_inputs(workload, spec, seed),
                         meter, ledger)
    episode.setup()
    drive = episode.drive()
    return episode, drive


def test_percentiles_are_exact_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert beyond(samples, 99) == 1
    # Unechoed keystrokes rank above every sample.
    assert percentile(samples, 99, missing=5) == math.inf
    assert percentile(samples, 50, missing=5) == 53.0


def test_wire_digest_ignores_order():
    wire = [(1.0, "client", "a", "b", b"x"), (1.0, "server", "b", "a", b"y")]
    assert wire_digest(wire) == wire_digest(wire[::-1])
    assert wire_digest(wire) != wire_digest(wire[:1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_sim_workload_checks_pass_and_digest_follows_seed(workload, meter):
    episode, drive = _episode(workload, 1, meter)
    assert episode.check(drive) == []
    meas = episode.measurements(drive)
    assert meas["echoed"] > 0 and meas["unechoed"] == 0
    assert meas["wire_kb"] > 0
    if workload == "hostile_flood":
        assert meas["attack_sent"] > 0
        assert meas["rejected"] == meas["attack_sent"]
    again, drive2 = _episode(workload, 1, meter)
    assert again.measurements(drive2)["wire_sha256"] == meas["wire_sha256"]
    other, drive3 = _episode(workload, 2, meter)
    assert other.measurements(drive3)["wire_sha256"] != meas["wire_sha256"]


def test_traced_ledger_closes_and_keeps_the_wire(meter):
    import time

    plain, drive = _episode("fleet_typing", 3, meter)
    digest = plain.measurements(drive)["wire_sha256"]
    ledger = SpanLedger()
    ledger.install()
    try:
        spec = dataclasses.replace(SPECS["fleet_typing"],
                                   **TINY["fleet_typing"])
        episode = SimEpisode("fleet_typing", spec,
                             make_inputs("fleet_typing", spec, 3), meter,
                             ledger)
        episode.setup()
        ledger.clear()
        cpu0 = time.process_time_ns()
        drive = episode.drive()
        result = closure(ledger, time.process_time_ns() - cpu0)
    finally:
        ledger.uninstall()
    assert result["ok"], result
    assert episode.measurements(drive)["wire_sha256"] == digest
    layers = {n.split(".", 1)[0] for n, c in zip(ledger.names, ledger.calls)
              if c}
    assert {"crypto", "transport", "terminal", "network", "runtime",
            "daemon", "simnet", "obs", "harness"} <= layers


def test_loopback_workload_runs_and_checks():
    from loopback import run_loopback

    result = run_loopback(seed=1, seconds=1.5, trace=False)
    assert result["errors"] == []
    assert result["typed"] > 0 and result["unechoed"] == 0
    assert result["run"]["daemon_cpu_s"] > 0


def test_runner_fails_without_program_source(tmp_path):
    """In a directory holding only the benchmark, the runner must fail."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_typing",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_runner_prints_every_end_to_end_metric():
    """The loopback run is the quickest full command; check the contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loopback_typing",
         "--seed", "2", "--seconds", "10", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in spec["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
