"""Per-layer span ledger: wrappers around each layer's public entry points.

The traced run of every workload calls :meth:`SpanLedger.install` before it
builds anything. Each entry point in :data:`ENTRIES` is replaced, at class
or module level, by a wrapper that records one span per call: name, start,
end, parent span and the session id when the receiver object is known.
Spans are timed on the thread CPU clock, so a span's self time (its
duration minus its child spans) is CPU spent in that layer, and a loop
blocked in ``select`` costs nothing.

Spans live in flat in-memory arrays while the run goes and are written
out once, when it ends (:meth:`SpanLedger.dump`). Aggregates (calls, self
time, bytes) accumulate on the fly so the per-layer metrics need no pass
over the spans; :meth:`SpanLedger.recompute_self` does that pass anyway,
as the ledger's own consistency check.

Nothing here changes program behaviour: a wrapper calls the original with
the same arguments and returns its result.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array

#: (entry name, module, attribute path, size function or None).
#: A size function receives (args, result) and returns a byte count that
#: accumulates as ``<entry>.bytes``. Entry names are ``<layer>.<entry>``
#: with the layer a ``repro.<layer>`` package.
ENTRIES: list[tuple[str, str, str, object]] = [
    ("crypto.seal", "repro.crypto.session", "Session.encrypt",
     lambda a, r: len(r)),
    ("crypto.seal_many", "repro.crypto.session", "seal_many",
     lambda a, r: sum(len(x) for x in r)),
    ("crypto.unseal", "repro.crypto.session", "Session.decrypt", None),
    ("crypto.unseal_many", "repro.crypto.session", "unseal_many", None),
    ("crypto.probe", "repro.crypto.session", "Session.probe", None),
    ("daemon.dispatch", "repro.daemon.mux", "SessionMux.dispatch", None),
    ("daemon.dispatch_legacy", "repro.daemon.mux",
     "SessionMux._dispatch_legacy", None),
    ("daemon.spawn", "repro.daemon.manager", "SessionManager.spawn", None),
    ("transport.tick", "repro.transport.transport", "Transport.tick", None),
    ("transport.wait_time", "repro.transport.transport",
     "Transport.wait_time", None),
    ("transport.recv", "repro.transport.receiver",
     "TransportReceiver.process_instruction", None),
    ("transport.fragment", "repro.transport.fragment",
     "Fragmenter.make_fragments", lambda a, r: len(r)),
    ("runtime.kick", "repro.runtime.pump", "TransportPump.kick", None),
    ("runtime.call_at", "repro.runtime.reactor", "SimReactor.call_at", None),
    ("runtime.call_at_real", "repro.runtime.reactor", "RealReactor.call_at",
     None),
    ("runtime.run_once", "repro.runtime.reactor", "RealReactor.run_once",
     None),
    ("terminal.act", "repro.terminal.complete", "Complete.act",
     lambda a, r: len(a[1])),
    ("terminal.copy", "repro.terminal.complete", "Complete.copy", None),
    ("terminal.diff", "repro.terminal.complete", "Complete.diff_from",
     lambda a, r: len(r)),
    ("terminal.apply", "repro.terminal.complete", "Complete.apply_diff",
     None),
    ("terminal.new_frame", "repro.terminal.display", "Display.new_frame",
     None),
    ("prediction.new_user_byte", "repro.prediction.engine",
     "PredictionEngine.new_user_byte", None),
    ("prediction.report_frame", "repro.prediction.engine",
     "PredictionEngine.report_frame", None),
    ("prediction.apply", "repro.prediction.engine", "PredictionEngine.apply",
     None),
    ("network.send", "repro.network.interface", "DatagramEndpoint.send",
     None),
    ("network.handle_unsealed", "repro.network.interface",
     "DatagramEndpoint.handle_unsealed", None),
    ("network.tx_flush", "repro.network.batch", "WireBatcher.flush",
     lambda a, r: r),
    ("network.rx_flush", "repro.network.batch", "RxBatcher.flush",
     lambda a, r: r),
    ("session.type_bytes", "repro.session.core", "ClientCore.type_bytes",
     None),
    ("session.host_write", "repro.session.core", "ServerCore.host_write",
     lambda a, r: len(a[1])),
    ("session.user_events", "repro.session.core",
     "ServerCore.handle_user_events", None),
    ("input.push_event", "repro.input.userstream", "UserStream.push_event",
     None),
    ("input.diff", "repro.input.userstream", "UserStream.diff_from", None),
    ("input.apply", "repro.input.userstream", "UserStream.apply_diff", None),
    ("simnet.link_send", "repro.simnet.link", "Link.send", None),
    ("simnet.schedule", "repro.simnet.eventloop", "EventLoop.schedule_at",
     None),
    ("simnet.loop", "repro.simnet.eventloop", "EventLoop.run_until", None),
    ("obs.flight.send", "repro.obs.flight", "FlightRecorder.note_send", None),
    ("obs.flight.recv", "repro.obs.flight", "FlightRecorder.note_recv", None),
    ("obs.flight.drop", "repro.obs.flight", "FlightRecorder.note_drop", None),
    ("obs.flight.instruction", "repro.obs.flight",
     "FlightRecorder.note_instruction", None),
    ("obs.causal.stamp", "repro.obs.causal", "CausalTracer.on_stamp", None),
    ("obs.causal.send", "repro.obs.causal", "CausalTracer.on_send", None),
    ("obs.causal.recv", "repro.obs.causal", "CausalTracer.on_recv", None),
    ("obs.causal.frame", "repro.obs.causal", "CausalTracer.on_frame", None),
    ("obs.hist", "repro.obs.registry", "Histogram.record", None),
]

#: Marks a wrapped call that raised, so its size function is skipped.
_FAILED = object()


class SpanLedger:
    """In-memory span store plus per-name aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("i")
        self.sid = array("i")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.nbytes: list[int] = []
        #: Calls whose size function returned non-zero.
        self.busy: list[int] = []
        # Open spans: parallel stacks of span index and child time.
        self._open: list[int] = []
        self._child: list[int] = []
        #: id(receiver object) -> session id, filled by the workload.
        self.sessions: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.nbytes.append(0)
            self.busy.append(0)
        return nid

    def tag(self, sid: int, *objs) -> None:
        """Attribute calls on these receiver objects to session ``sid``."""
        for obj in objs:
            self.sessions[id(obj)] = sid

    def wrap(self, fn, name: str, size=None, method: bool = True):
        """A traced version of ``fn``; ``method`` receivers carry the sid."""
        nid = self.name_id(name)
        clock = time.thread_time_ns
        start, end, names, parents, sids = (
            self.start, self.end, self.name, self.parent, self.sid)
        open_, child = self._open, self._child
        calls, self_ns = self.calls, self.self_ns
        nbytes, busy = self.nbytes, self.busy
        sessions = self.sessions

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(clock())
            end.append(0)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            sids.append(sessions.get(id(args[0]), -1)
                        if method and args else -1)
            open_.append(idx)
            child.append(0)
            result = _FAILED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                end[idx] = t1
                dur = t1 - start[idx]
                open_.pop()
                self_ns[nid] += dur - child.pop()
                calls[nid] += 1
                if child:
                    child[-1] += dur
                if size is not None and result is not _FAILED:
                    n = size(args, result)
                    if n:
                        nbytes[nid] += n
                        busy[nid] += 1

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, size, False))
        else:
            new = self.wrap(raw, name, size)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRIES`."""
        for name, modname, path, size in ENTRIES:
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                self.patch(getattr(module, cls_name), attr, name, size)
                continue
            original = getattr(module, path)
            # A module-level function is also bound wherever it was
            # imported by name; rebind every copy to the same wrapper.
            wrapped = self.wrap(original, name, size, method=False)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, path, None) is original):
                    self._patches.append((mod, path, original))
                    setattr(mod, path, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def clear(self) -> None:
        """Forget recorded spans and aggregates (wrappers stay)."""
        for arr in (self.start, self.end, self.name, self.parent, self.sid):
            del arr[:]
        for agg in (self.calls, self.self_ns, self.nbytes, self.busy):
            agg[:] = [0] * len(agg)

    def recompute_self(self) -> list[int]:
        """Per-name self time rebuilt from the stored spans alone."""
        out = [0] * len(self.names)
        child = [0] * len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        # Children are stored after their parent, so a reverse pass has
        # every child's duration in hand before its parent is reached.
        for i in range(len(start) - 1, -1, -1):
            dur = end[i] - start[i]
            out[name[i]] += dur - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
        return out

    def by_name(self) -> dict[str, dict]:
        return {
            n: {"calls": self.calls[i], "self_ms": self.self_ns[i] / 1e6,
                "bytes": self.nbytes[i], "busy": self.busy[i]}
            for i, n in enumerate(self.names)
        }

    def dump(self, path: str) -> None:
        """Write spans (binary columns) and a JSON index next to them."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".spans", "wb") as fh:
            for arr in (self.start, self.end, self.name, self.parent,
                        self.sid):
                arr.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({
                "spans": len(self.start),
                "columns": [["start_ns", "q"], ["end_ns", "q"],
                            ["name", "H"], ["parent", "i"], ["sid", "i"]],
                "clock": "thread_time_ns",
                "names": self.names,
                "by_name": self.by_name(),
            }, fh, indent=1, sort_keys=True)


#: Largest share of the traced region's CPU time the ledger may leave
#: unexplained (or over-explain) before the traced run fails.
CLOSURE_TOLERANCE_PCT = 5.0


def closure(ledger: SpanLedger, region_cpu_ns: int) -> dict:
    """Check the ledger against the process CPU time of the traced region.

    The self times of all spans (layer entry points plus the harness's
    own ``harness.*`` spans) are taken on the thread clock; the region is
    timed on the process clock. Their sums must agree within
    :data:`CLOSURE_TOLERANCE_PCT`, and the online self-time sums must
    equal a recomputation from the stored spans.
    """
    online = sum(ledger.self_ns)
    offline = sum(ledger.recompute_self())
    err = 100.0 * (online - region_cpu_ns) / max(1, region_cpu_ns)
    negative = [n for n, v in zip(ledger.names, ledger.self_ns) if v < 0]
    return {
        "self_ns": online,
        "recomputed_ns": offline,
        "cpu_ns": region_cpu_ns,
        "err_pct": err,
        "tolerance_pct": CLOSURE_TOLERANCE_PCT,
        "ok": (online == offline and not negative
               and abs(err) <= CLOSURE_TOLERANCE_PCT),
    }
