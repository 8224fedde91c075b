"""Start the session daemon with the span ledger installed.

Usage: ``python3 tracelaunch.py OUT_PREFIX ARGS...`` — the arguments after
``OUT_PREFIX`` go to ``repro.cli``'s ``serve`` command unchanged.
The wrappers go in before ``repro.daemon.DaemonApp`` is built. On SIGTERM
the daemon shuts down as usual; the ledger is then written to
``OUT_PREFIX.spans`` / ``OUT_PREFIX.json``, with the closure check and
the daemon-side counts the per-layer metrics need.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from common import percentile  # noqa: E402
from ledger import SpanLedger, closure  # noqa: E402


def main(out: str, argv: list[str]) -> None:
    ledger = SpanLedger()
    ledger.install()

    from repro.cli import serve_main
    from repro.daemon.app import DaemonApp
    from repro.runtime.reactor import ReactorMetrics

    apps: list[DaemonApp] = []
    startup: dict = {}
    region: dict = {}
    lags: list[float] = []
    counts: dict = {}
    app_init, app_run = DaemonApp.__init__, DaemonApp.run
    app_shutdown = DaemonApp.shutdown
    note_timer = ReactorMetrics.note_timer_fired

    def init(self, *args, **kwargs):
        app_init(self, *args, **kwargs)
        apps.append(self)

    def run(self, *args, **kwargs):
        # Start-up (sessions spawned) is kept aside; the serve loop is
        # the region the ledger must account for.
        startup.update(ledger.by_name())
        ledger.clear()
        region["cpu0"] = time.process_time_ns()
        try:
            return app_run(self, *args, **kwargs)
        finally:
            region["cpu"] = time.process_time_ns() - region["cpu0"]

    def shutdown(self):
        # Shutdown closes every session: read their counters first.
        counts.update(_counts(self))
        return app_shutdown(self)

    def timer_fired(self, lag_ms):
        lags.append(lag_ms)
        return note_timer(self, lag_ms)

    DaemonApp.__init__, DaemonApp.run = init, run
    DaemonApp.shutdown = shutdown
    ReactorMetrics.note_timer_fired = timer_fired

    def terminate(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, terminate)
    try:
        serve_main(argv)
    except SystemExit:
        pass
    close = closure(ledger, region.get("cpu", 0))
    by_name = ledger.by_name()
    for name, agg in startup.items():
        if name.startswith("daemon.spawn"):
            by_name[name] = agg
    ledger.dump(out)
    with open(out + ".json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(counts)
    doc.update({
        "by_name": by_name, "closure": close,
        "timer_lag_p99_ms": percentile(lags, 99) if lags else 0.0,
    })
    with open(out + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def _counts(app) -> dict:
    registry = app.reactor.registry
    records = list(app.manager.records())
    packets = sum(r.endpoint.datagrams_sent + r.endpoint.datagrams_received
                  for r in records)
    auth = sum(r.endpoint.session.stats.auth_failures for r in records)
    rejected = auth + sum(
        r.endpoint.session.stats.replay_drops + r.endpoint.framing_drops
        for r in records) + sum(
        registry.counter(n).value
        for n in ("daemon.bad_packets", "daemon.no_route"))
    return {
        "auth_failures": auth, "rejected": rejected,
        "syscalls_per_pkt": app.connection.syscalls.total / max(1, packets),
    }


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
