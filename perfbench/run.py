"""The repository benchmark: one command per workload, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_typing --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs an untraced episode, then a traced one whose span
ledger gives the per-layer metrics and the signed tracing overhead.
Every run checks the program's outputs first: a failed check prints the
reasons to stderr and the result line says ``"correct": false`` with no
metrics. The last stdout line is the result object; the line before it
is the full report (inputs, fingerprint, every measurement, the wire
digest). Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("fleet_typing", "bulk_scroll", "hostile_flood",
             "loopback_typing")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"), ("keys_per_s", "1/s"), ("host_kb_per_s", "KB/s"),
    ("daemon_cpu_us_per_key", "us"), ("echo_p50_ms", "ms"),
    ("echo_p99_ms", "ms"), ("instant_frac", "ratio"), ("wire_kb", "KB"),
    ("peak_rss_mb", "MB"),
)
#: Nominal CPU seconds of one simulator episode.
EPISODE_S = 5.0
#: Samples a reported p99 needs beyond it.
MIN_BEYOND_P99 = 10


def _layer_metrics(by_name: dict, extra: dict) -> dict:
    """The declared per-layer metrics from a span ledger's aggregates."""
    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_ms(name):
        return by_name.get(name, {}).get("self_ms", 0.0)

    def nbytes(name):
        return by_name.get(name, {}).get("bytes", 0)

    out: dict[str, tuple[float, str]] = {}
    # simnet is absent on loopback: its time would read 0 there.
    layers = ("crypto", "transport", "terminal", "prediction", "input",
              "network", "runtime", "session", "daemon", "obs", "harness")
    for layer in layers:
        out[f"{layer}.self_ms"] = (sum(
            v["self_ms"] for n, v in by_name.items()
            if n.split(".", 1)[0] == layer), "ms")
    timed = ("crypto.seal", "crypto.seal_many", "crypto.unseal",
             "crypto.unseal_many", "daemon.dispatch", "daemon.spawn",
             "transport.tick", "transport.recv", "runtime.kick",
             "terminal.act", "terminal.copy", "terminal.diff",
             "terminal.apply", "terminal.new_frame",
             "prediction.new_user_byte", "prediction.report_frame",
             "prediction.apply", "network.send", "network.handle_unsealed",
             "network.tx_flush", "network.rx_flush", "session.type_bytes",
             "session.host_write")
    for name in timed:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    keys = max(1, extra["keys"])
    flushes = (by_name.get("network.tx_flush", {}).get("busy", 0)
               + by_name.get("network.rx_flush", {}).get("busy", 0))
    flushed = nbytes("network.tx_flush") + nbytes("network.rx_flush")
    legacy = calls("daemon.dispatch_legacy")
    made = extra["predictions_made"]
    out.update({
        "crypto.seal.bytes": (nbytes("crypto.seal")
                              + nbytes("crypto.seal_many"), "B"),
        "crypto.probe.calls": (calls("crypto.probe"), "count"),
        "crypto.auth_failures": (extra["auth_failures"], "count"),
        "daemon.rejected": (extra["rejected"], "count"),
        "daemon.probes_per_v1_dgram": (
            calls("crypto.probe") / legacy if legacy else 0.0, "ratio"),
        "transport.wait_time.calls": (calls("transport.wait_time"), "count"),
        "transport.fragments": (nbytes("transport.fragment"), "count"),
        "transport.datagrams_per_key": (calls("network.send") / keys,
                                        "ratio"),
        "runtime.timers_armed": (calls("runtime.call_at")
                                 + calls("runtime.call_at_real"), "count"),
        "runtime.run_once.calls": (calls("runtime.run_once"), "count"),
        "terminal.act.bytes": (nbytes("terminal.act"), "B"),
        "terminal.diff.bytes": (nbytes("terminal.diff"), "B"),
        "prediction.confirmed_ratio": (
            extra["confirmed"] / made if made else 0.0, "ratio"),
        "network.dgrams_per_flush": (flushed / flushes if flushes else 0.0,
                                     "ratio"),
        "network.syscalls_per_pkt": (extra.get("syscalls_per_pkt", 0.0),
                                     "ratio"),
        "input.push_event.calls": (calls("input.push_event"), "count"),
        "input.diff.calls": (calls("input.diff"), "count"),
        "input.apply.calls": (calls("input.apply"), "count"),
        "simnet.link_send.calls": (calls("simnet.link_send"), "count"),
        "simnet.events": (calls("simnet.schedule"), "count"),
        "obs.flight.calls": (sum(calls(n) for n in by_name
                                 if n.startswith("obs.flight.")), "count"),
        "obs.causal.calls": (sum(calls(n) for n in by_name
                                 if n.startswith("obs.causal.")), "count"),
        "obs.hist.calls": (calls("obs.hist"), "count"),
        "trace.overhead_pct": (extra["overhead_pct"], "%"),
        "ledger.closure_gap_pct": (abs(extra["closure_err_pct"]), "%"),
    })
    return out


# -- simulator workloads ----------------------------------------------------


def _sim_episode(workload, spec, inputs, meter, ledger=None):
    from simwork import SimEpisode

    episode = SimEpisode(workload, spec, inputs, meter, ledger)
    setup_s = episode.setup()
    if ledger is not None:
        # The drive is the traced region; set-up spans are kept aside.
        setup_agg = ledger.by_name()
        ledger.clear()
        cpu0 = time.process_time_ns()
    drive = episode.drive()
    region = None
    if ledger is not None:
        region = time.process_time_ns() - cpu0
    errors = episode.check(drive)
    meas = episode.measurements(drive)
    meas["setup_s"] = setup_s
    if ledger is not None:
        meas["setup_agg"] = setup_agg
        meas["region_cpu_ns"] = region
        meas["auth_failures"] = sum(
            r.endpoint.session.stats.auth_failures
            for r in episode.daemon.manager.records())
        meas["predictions_made"] = sum(
            c.predictor.stats.predictions_made
            for c in episode.daemon.clients.values())
        meas["confirmed"] = sum(c.predictor.stats.confirmed
                                for c in episode.daemon.clients.values())
    del episode
    gc.collect()
    return meas, errors


def _sim_setup_only(workload, spec, inputs, meter) -> float:
    from simwork import SimEpisode

    episode = SimEpisode(workload, spec, inputs, meter)
    took = episode.setup()
    del episode
    gc.collect()
    return took


def run_sim(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Episodes of one seed, then (traced run) one episode with the ledger.

    The number of episodes follows from ``seconds`` and the nominal
    episode length, never from measured times, so every run of a given
    length makes the same number of them.
    """
    from common import more_setups
    from simwork import SPECS, DaemonMeter, make_inputs

    spec = SPECS[workload]
    inputs = make_inputs(workload, spec, seed)
    meter = DaemonMeter()
    meter.install()
    episodes, errors = [], []
    reps = 1 if trace else max(2, round(seconds / EPISODE_S))
    for _ in range(reps):
        meas, errs = _sim_episode(workload, spec, inputs, meter)
        episodes.append(meas)
        errors += errs
        if errs:
            break
    setups = [m["setup_s"] for m in episodes]
    while more_setups(setups) and not errors:
        setups.append(_sim_setup_only(workload, spec, inputs, meter))
    digests = {m["wire_sha256"] for m in episodes}
    if len(digests) != 1:
        errors.append("one seed gave different wire digests")
    result = {"episodes": episodes, "setups": setups, "errors": errors,
              "traffic": "simulator", "wire_sha256": episodes[0]["wire_sha256"]}
    if trace and not errors:
        from ledger import SpanLedger, closure

        ledger = SpanLedger()
        ledger.install()
        traced, errs = _sim_episode(workload, spec, inputs, meter, ledger)
        errors += errs
        if traced["wire_sha256"] not in digests:
            errors.append("tracing changed the wire digest")
        close = closure(ledger, traced.pop("region_cpu_ns"))
        if not close["ok"]:
            errors.append(f"ledger does not close: {close}")
        os.makedirs(OUT, exist_ok=True)
        ledger.dump(os.path.join(OUT, f"{workload}-{seed}"))
        by_name = ledger.by_name()
        for name, agg in traced.pop("setup_agg").items():
            if name.startswith("daemon.spawn"):
                by_name[name] = agg
        ledger.uninstall()
        base = episodes[0]["cpu_s"] * episodes[0]["speed_scale"]
        result["layers"] = by_name
        result["closure"] = close
        result["extra"] = {
            "keys": traced["typed"],
            "auth_failures": traced["auth_failures"],
            "rejected": traced["rejected"],
            "predictions_made": traced["predictions_made"],
            "confirmed": traced["confirmed"],
            "overhead_pct": 100.0 * (
                traced["cpu_s"] * traced["speed_scale"] - base) / base,
            "closure_err_pct": close["err_pct"],
        }
    return result


def sim_metrics(result: dict) -> dict:
    """End-to-end metrics of the episodes of one seed.

    CPU times are scaled to the nominal host speed (``HostSpeed``); the
    CPU rates use the median episode.
    """
    from common import median, peak_rss_mb

    eps = result["episodes"]
    first = eps[0]
    cpu_s = median([m["cpu_s"] * m["speed_scale"] for m in eps])
    daemon_s = median([m["daemon_cpu_s"] * m["speed_scale"] for m in eps])
    return {
        "setup_s": median(result["setups"]),
        "keys_per_s": first["echoed"] / cpu_s,
        "host_kb_per_s": first["host_bytes"] / 1000.0 / cpu_s,
        "daemon_cpu_us_per_key": daemon_s * 1e6 / max(1, first["typed"]),
        "echo_p50_ms": first["echo_p50_ms"],
        "echo_p99_ms": first["echo_p99_ms"],
        "instant_frac": first["instant_frac"],
        "wire_kb": first["wire_kb"],
        "peak_rss_mb": peak_rss_mb(),
    }


# -- entry point ------------------------------------------------------------


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return _fail(f"no program source at {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from common import host_fingerprint

    if args.workload == "loopback_typing":
        from loopback import loopback_metrics, run_loopback

        result = run_loopback(args.seed, args.seconds, bool(args.trace))
        metrics = loopback_metrics(result) if not result["errors"] else {}
        attempted, failed = result["typed"], result["unechoed"]
    else:
        result = run_sim(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        metrics = sim_metrics(result) if not result["errors"] else {}
        attempted = sum(m["typed"] - m["silent"] for m in result["episodes"])
        failed = sum(m["unechoed"] for m in result["episodes"])
    errors = result["errors"]
    if not errors and any(not math.isfinite(v) for v in metrics.values()):
        errors.append(f"non-finite metric: {metrics}")
    run = result.get("run") or result["episodes"][0]
    if not errors and run["echo_p99_beyond"] < MIN_BEYOND_P99:
        errors.append(f"only {run['echo_p99_beyond']} echo samples beyond "
                      f"p99; the workload must type more keys")
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_fingerprint(result["traffic"]),
              "metrics": metrics, **result}
    print(json.dumps(report, sort_keys=True, default=str))
    if errors:
        for err in errors:
            print(f"perfbench: check failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        declared = _layer_metrics(result["layers"], result["extra"])
    else:
        units = dict(END_TO_END)
        declared = {name: (metrics[name], units[name]) for name, _ in
                    END_TO_END}
    print(json.dumps({
        "correct": True, "attempted": max(1, attempted), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    # String hashing must not vary between processes: persona traces and
    # the program's own hash-ordered containers feed the wire digest.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.exit(main())
