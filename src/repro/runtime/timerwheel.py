"""The scheduler core: one timer queue under every reactor.

:class:`TimerQueue` is the only timer store behind both the simulated
:class:`~repro.simnet.eventloop.EventLoop` and the real ``select()``
:class:`~repro.runtime.reactor.RealReactor`, which differ only in their
clock. It owns a precise heap, a coarse :class:`TimerWheel` in front of
it, the lazy-cancel token set, the token counter (ties break by
scheduling order) and the tick-boundary flush hooks.

The wheel exists because the heap pays O(log n) per operation with *n*
counting every pending timer in the process. A muxed daemon holding 10k
mostly-idle sessions keeps ~2 timers per session permanently armed (the
pump's heartbeat re-arm and the reaper's idle deadline), and each
re-arm is a cancel + push against a 20k-entry heap. None of those timers
needs heap precision at scheduling time: a heartbeat due 3000 ms out
only needs to be *findable* once the clock gets near it.

:class:`TimerWheel` is the coarse tier sitting behind the precise heap:

* **Schedule is O(1)** — an entry lands in a bucket keyed by
  ``when // slot_width``; buckets are dict entries, so the wheel never
  wraps and never resizes.
* **Cancel is O(1) and external** — the wheel is deliberately oblivious
  to cancellation. The queue's lazy-deletion ``_live`` token set is the
  only record of it; dead entries ride along until their bucket drains
  and are skimmed off the heap exactly like directly-scheduled dead
  timers.
* **Cascade is lazy and amortized O(1)** — nothing moves until the
  queue asks "what fires next?". :meth:`TimerWheel.drain_into` then
  migrates just enough buckets into the precise heap to make the heap's
  top the true global minimum: far (level-1) buckets re-bucket into fine
  (level-0) buckets, fine buckets feed the heap. Each entry moves at
  most twice over its lifetime.

Because migrated entries enter the heap as the *same* tuples the queue
would have pushed directly, firing order is byte-for-byte identical to a
heap-only queue (``TimerQueue(wheel=False)``) — the wheel is purely an
execution-strategy change, provable by the wire-SHA benches and the
randomized parity tests in ``tests/test_timerwheel.py``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

Callback = Callable[[], None]

#: Timers due sooner than this stay on the precise heap; at or beyond it
#: they take the wheel. One level-0 slot: anything coarser than a slot
#: cannot lose ordering by being bucketed.
WHEEL_THRESHOLD_MS = 100.0

#: Level-0 slot width (ms) and slots-per-level fan-out. Level 0 buckets
#: 100 ms; level 1 buckets 6.4 s and is keyed by an unbounded dict, so
#: two levels cover every delay without an overflow list.
WHEEL_SLOT_MS = 100.0
WHEEL_SPAN = 64


class TimerWheel:
    """Two-level dict-bucket timer wheel feeding a precise heap.

    Entries are :class:`TimerQueue` tuples whose first element is the
    absolute fire time in ms; the wheel only reads ``entry[0]``.
    """

    __slots__ = ("_slot0", "_slot1", "_buckets0", "_buckets1",
                 "_starts0", "_starts1", "_count")

    def __init__(
        self, slot_ms: float = WHEEL_SLOT_MS, span: int = WHEEL_SPAN
    ) -> None:
        self._slot0 = float(slot_ms)
        self._slot1 = float(slot_ms) * span
        #: bucket index -> list of entries, per level. A bucket and its
        #: index-heap entry are created and destroyed together, so the
        #: index heaps never hold stale keys.
        self._buckets0: dict[int, list] = {}
        self._buckets1: dict[int, list] = {}
        self._starts0: list[int] = []
        self._starts1: list[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, entry: Sequence, now_ms: float) -> None:
        """File ``entry`` (fire time ``entry[0]``) in O(1).

        Level is chosen by distance: within one level-1 slot of now the
        entry gets a fine (level-0) bucket, further out a coarse one.
        """
        when = entry[0]
        if when - now_ms < self._slot1:
            index = int(when // self._slot0)
            bucket = self._buckets0.get(index)
            if bucket is None:
                self._buckets0[index] = [entry]
                heapq.heappush(self._starts0, index)
            else:
                bucket.append(entry)
        else:
            index = int(when // self._slot1)
            bucket = self._buckets1.get(index)
            if bucket is None:
                self._buckets1[index] = [entry]
                heapq.heappush(self._starts1, index)
            else:
                bucket.append(entry)
        self._count += 1

    def next_bucket_start(self) -> float | None:
        """Earliest bucket's start time — a lower bound on every entry."""
        best: float | None = None
        if self._starts0:
            best = self._starts0[0] * self._slot0
        if self._starts1:
            start1 = self._starts1[0] * self._slot1
            if best is None or start1 < best:
                best = start1
        return best

    def drain_into(
        self,
        push: Callable[[Sequence], None],
        heap_top: Callable[[], float | None],
    ) -> int:
        """Migrate buckets until the heap's top is the global minimum.

        ``heap_top()`` returns the heap's earliest *live* deadline (None
        when empty) and is re-read after every bucket because pushes can
        lower it. A bucket whose start precedes the heap top may hold
        the next timer to fire, so it drains: level-1 buckets cascade
        into level-0 buckets (one slot of re-bucketing), level-0 buckets
        feed the heap. Buckets at or past the heap top stay untouched —
        this is the lazy cascade, and it is what keeps a 10k-session
        daemon's heap holding only near-term timers.

        Returns the number of entries pushed onto the heap.
        """
        moved = 0
        while self._count:
            start0 = self._starts0[0] * self._slot0 if self._starts0 else None
            start1 = self._starts1[0] * self._slot1 if self._starts1 else None
            if start0 is not None and (start1 is None or start0 <= start1):
                start, fine = start0, True
            elif start1 is not None:
                start, fine = start1, False
            else:  # pragma: no cover - _count and buckets disagree
                break
            top = heap_top()
            if top is not None and start >= top:
                break
            if fine:
                index = heapq.heappop(self._starts0)
                entries = self._buckets0.pop(index)
                self._count -= len(entries)
                for entry in entries:
                    push(entry)
                moved += len(entries)
            else:
                # Cascade: one coarse slot re-buckets finely. Entries
                # keep their original tuples, so ordering is untouched.
                index = heapq.heappop(self._starts1)
                entries = self._buckets1.pop(index)
                buckets0 = self._buckets0
                slot0 = self._slot0
                for entry in entries:
                    sub = int(entry[0] // slot0)
                    bucket = buckets0.get(sub)
                    if bucket is None:
                        buckets0[sub] = [entry]
                        heapq.heappush(self._starts0, sub)
                    else:
                        bucket.append(entry)
        return moved


class TimerQueue:
    """Timers with O(1) cancellation plus tick-boundary flush hooks.

    The queue has no clock: :meth:`push` is told the current time (it
    picks heap or wheel by distance), and the owning loop decides when a
    timer is due by comparing :meth:`peek` with its own clock. ``wheel``
    off keeps every timer on the precise heap; firing order is the same
    either way.
    """

    __slots__ = ("_heap", "_wheel", "_live", "_counter", "_flush_hooks")

    def __init__(self, wheel: bool = True) -> None:
        self._heap: list[tuple[float, int, Callback]] = []
        self._wheel: TimerWheel | None = TimerWheel() if wheel else None
        # Tokens of queued timers that have neither fired nor been
        # cancelled. Cancellation is lazy (entries stay queued until
        # popped), but membership here is the single source of truth, so
        # cancelling an already-fired token is a true no-op and nothing
        # accumulates unboundedly under heavy cancel/re-arm churn.
        self._live: set[int] = set()
        self._counter = 0
        # Flush hooks (wire batchers). Each is called with no arguments
        # and returns how much work it performed.
        self._flush_hooks: list[Callable[[], int]] = []

    def __len__(self) -> int:
        """Number of live (queued, uncancelled, unfired) timers."""
        return len(self._live)

    def push(self, when_ms: float, now_ms: float, callback: Callback) -> int:
        """Queue ``callback`` for ``when_ms``; returns its cancel token.

        Timers one wheel threshold or further out take the O(1) wheel;
        near-term ones go straight onto the precise heap.
        """
        token = self._counter
        self._counter = token + 1
        entry = (when_ms, token, callback)
        if self._wheel is not None and when_ms - now_ms >= WHEEL_THRESHOLD_MS:
            self._wheel.add(entry, now_ms)
        else:
            heapq.heappush(self._heap, entry)
        self._live.add(token)
        return token

    def cancel(self, token: int) -> None:
        """Withdraw a timer (no-op if it already fired or was cancelled)."""
        self._live.discard(token)

    def _heap_top(self) -> float | None:
        """Earliest live heap deadline (dead entries skimmed off)."""
        heap = self._heap
        live = self._live
        while heap and heap[0][1] not in live:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def _heap_push(self, entry: tuple[float, int, Callback]) -> None:
        heapq.heappush(self._heap, entry)

    def peek(self) -> float | None:
        """Fire time of the next live timer, or None when none is queued."""
        wheel = self._wheel
        if wheel:
            # Lazy cascade: pull wheel buckets onto the heap only until
            # the heap's top is provably the global minimum.
            wheel.drain_into(self._heap_push, self._heap_top)
        return self._heap_top()

    def pop(self) -> tuple[float, Callback]:
        """Dequeue the timer :meth:`peek` just reported, as (when, callback).

        Only valid straight after a :meth:`peek` that returned a time:
        that call left the next live timer on top of the heap.
        """
        when, token, callback = heapq.heappop(self._heap)
        self._live.discard(token)
        return when, callback

    def add_flush_hook(self, hook: Callable[[], int]) -> None:
        """Register a tick-boundary flush hook (see :meth:`flush`).

        Hooks run in registration order; register receive-side flushes
        before send-side ones so a burst's replies join the same tick's
        outgoing batch.
        """
        self._flush_hooks.append(hook)

    def flush(self) -> None:
        """Run flush hooks to quiescence (bounded rounds).

        A receive flush can queue sends and vice versa, so hooks loop
        until a full round reports no work. The bound is a safety net —
        two rounds settle every real pipeline.
        """
        hooks = self._flush_hooks
        if not hooks:
            return
        for _ in range(8):
            work = 0
            for hook in hooks:
                work += hook()
            if not work:
                return
