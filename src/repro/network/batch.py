"""Per-tick wire batching: one transmit burst and one pump kick per tick.

With the daemon muxing N sessions onto one port, a reactor tick can send
and receive datagrams for many sessions. Sealing and unsealing stay
inline at the endpoint (:meth:`~repro.network.interface.DatagramEndpoint.
send` / ``_handle_datagram``); this module batches only what still pays:

* :class:`WireBatcher` queues every session's already-sealed outgoing
  datagrams during a tick and hands them to ``transmit_many`` in one
  flush (``sendmmsg`` on Linux via :mod:`repro.network.sysbatch`, a
  per-datagram ``sendmsg``/``sendto`` elsewhere, one link send per
  datagram in the simulator).
* :class:`RxBatcher` counts each endpoint's accepted datagrams during a
  tick and kicks each pump once per flush instead of once per datagram.
* :class:`SyscallCounter` counts actual socket-API invocations so the
  benchmark's syscalls-per-packet figure is measured, not estimated.

Flush ordering and timing are the caller's contract: both batchers must
be flushed before simulated time advances past the tick that queued the
work (the reactor's flush hooks guarantee this). Every wire field and
the destination address are fixed at send, and the datagrams still
reach the link at the instant they were sent, so the wire is
byte-identical to the unbatched path.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs import registry as _obs
from repro.obs.flight import peek_seq
from repro.obs.registry import MetricsRegistry


class SyscallCounter:
    """Counts socket-API invocations by name (``sendmmsg``, ``recvfrom``…).

    One instance per socket owner; the wire benchmark divides the total
    by the datagram count for its syscalls-per-packet gate.
    """

    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}

    def note(self, name: str, n: int = 1) -> None:
        self.calls[name] = self.calls.get(name, 0) + n

    @property
    def total(self) -> int:
        return sum(self.calls.values())

    def snapshot(self) -> dict[str, int]:
        return dict(self.calls)


class _TickBatcher:
    """Flush metering shared by both batchers: ``wire.<tx|rx>_flushes``,
    ``_datagrams`` and the ``_batch`` size histogram."""

    def __init__(self, prefix: str, registry: MetricsRegistry | None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self._flushes = registry.counter(f"wire.{prefix}_flushes")
        self._datagrams = registry.counter(f"wire.{prefix}_datagrams")
        self._batch_hist = registry.histogram(f"wire.{prefix}_batch", unit="datagrams")

    def _metered(self, n: int) -> int:
        self._flushes.value += 1
        self._datagrams.value += n
        self._batch_hist.record(float(n))
        return n


class WireBatcher(_TickBatcher):
    """Queue of sealed datagrams, transmitted once per tick.

    Entries are the ``(header, raw, addr, endpoint, now)`` tuples that
    ``transmit_many`` takes: ``header`` is the mux conn-id header or
    None, ``raw`` the sealed body. It returns the indexes that failed to
    send (flight-recorded here as ``send_err`` fates).
    Entry ordering is preserved end-to-end — a failed entry is skipped,
    never allowed to drop or reorder the rest (the sysbatch senders
    share this contract).
    """

    def __init__(
        self,
        transmit_many: Callable[[list], list[int]],
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__("tx", registry)
        self._pending: list[tuple] = []
        self._transmit_many = transmit_many

    def __len__(self) -> int:
        return len(self._pending)

    def enqueue(self, entry: tuple) -> None:
        self._pending.append(entry)

    def flush(self) -> int:
        """Transmit everything queued; returns the count."""
        pending = self._pending
        if not pending:
            return 0
        self._pending = []
        failed = self._transmit_many(pending)
        if failed and _obs._enabled:
            for idx in failed:
                header, raw, _, endpoint, now = pending[idx]
                if endpoint.flight is not None:
                    endpoint.flight.note_drop(
                        now, endpoint.dir_out, "send_err", seq=peek_seq(raw),
                        wire_len=len(raw) + (len(header) if header else 0),
                    )
        return self._metered(len(pending))


class RxBatcher(_TickBatcher):
    """Pump-kick coalescer: one notification per endpoint per tick.

    Endpoints with this batcher attached (``endpoint.rx_batcher``) report
    each accepted datagram through :meth:`note` instead of calling
    ``on_datagram``; :meth:`flush` then calls ``notify_datagrams`` once
    per endpoint, in first-arrival order, with the count and the latest
    arrival time. Forged, replayed and misrouted datagrams never reach
    it.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        super().__init__("rx", registry)
        # endpoint -> [accepted count, latest arrival time]
        self._pending: dict[Any, list] = {}

    def __len__(self) -> int:
        """Accepted datagrams whose pump kick is still pending."""
        return sum(count for count, _ in self._pending.values())

    def note(self, endpoint: Any, now: float) -> None:
        entry = self._pending.get(endpoint)
        if entry is None:
            self._pending[endpoint] = [1, now]
        else:
            entry[0] += 1
            entry[1] = now

    def flush(self) -> int:
        """Kick every endpoint that accepted datagrams; returns the count."""
        pending = self._pending
        if not pending:
            return 0
        self._pending = {}
        n = 0
        for endpoint, (count, now) in pending.items():
            endpoint.notify_datagrams(now, count)
            n += count
        return self._metered(n)
