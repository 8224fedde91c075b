"""The metrics registry: named counters, gauges, and latency histograms.

Every instrument is a tiny mutable object designed to stay always-on in
the hot paths: a counter increment is one attribute add (a
:class:`SourcedCounter` costs nothing until read), a histogram
record is one list append (samples are bucketed onto one global 1 %
log grid a sorted batch at a time). A
:class:`MetricsRegistry` names and aggregates instruments so one
``snapshot()`` call renders the whole runtime — reactor, transport,
crypto, prediction, simulated links — as a single JSON document.

Instruments can be created through the registry (``registry.counter``) or
created free-standing (e.g. inside :class:`~repro.crypto.session.
CryptoStats`, which has no registry in scope) and adopted later with
:meth:`MetricsRegistry.register`; both paths return the same object on
repeat lookups, so wiring is idempotent.

A process-wide enable switch (:func:`set_enabled`) turns histogram
recording and span tracing into near-no-ops; the benchmark suite uses it
to measure the instrumentation's own overhead A/B in one process.
Counters and gauges stay on either way — they predate this subsystem and
existing behaviour depends on them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fnmatch import fnmatchcase
from typing import Callable, Iterable

from repro.errors import ObservabilityError

#: Schema tag stamped into every snapshot; bump on breaking layout changes.
SNAPSHOT_SCHEMA = "repro.obs/1"

#: Schema tag for incremental feed documents (see :class:`SnapshotDelta`).
DELTA_SCHEMA = "repro.obs.delta/1"

#: Samples a histogram buffers before bucketing them in one sorted pass
#: (at most ~8 KB per histogram). Batching amortises the fold's fixed
#: cost, which at 64 samples was still a visible share of a ~2 µs
#: native seal.
_FOLD_BATCH = 256

#: The one histogram grid (DDSketch-style; Masson, Rim & Lee, VLDB 2019):
#: bucket ``i`` holds the samples in ``(GAMMA**(i-1), GAMMA**i]``, so its
#: representative ``2*GAMMA**i/(GAMMA+1)`` is within ALPHA of each of them.
ALPHA = 0.01
GAMMA = (1 + ALPHA) / (1 - ALPHA)
_LN_GAMMA = math.log(GAMMA)
_MID = 2.0 / (GAMMA + 1.0)

#: Samples at or below 1e-9 (the simulator's zero timer lags) share the
#: floor bucket, the first whose bound reaches 1e-9.
_FLOOR = math.ceil(math.log(1e-9) / _LN_GAMMA)
_FLOOR_BOUND = GAMMA**_FLOOR

_enabled = True


def set_enabled(flag: bool) -> None:
    """Globally enable/disable histogram recording and span tracing."""
    global _enabled
    _enabled = bool(flag)


def enabled() -> bool:
    """Whether histogram recording and span tracing are active."""
    return _enabled


class Counter:
    """A monotonically growing (by convention) named number."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (one attribute add; safe on any hot path)."""
        self.value += amount


class SourcedCounter(Counter):
    """A counter that reads its source ``fn`` when read; never pushed to.

    :meth:`freeze` pins the value and drops the source, so the registry
    does not keep a closed session alive; a source bound later counts on
    from the pinned value, so the counter never falls.
    """

    __slots__ = ("fn", "_base")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name, self.fn, self._base = name, fn, 0

    @property
    def value(self) -> float:
        return self._base if self.fn is None else self._base + self.fn()

    def freeze(self) -> None:
        self._base, self.fn = self.value, None


class Gauge:
    """A named instantaneous value, optionally backed by a callable.

    A plain gauge holds whatever :meth:`set` stored last; a callable
    gauge (``fn`` given) reads its source at snapshot time, which lets
    live quantities like simulated-link queue depth appear in snapshots
    without per-packet bookkeeping.
    """

    __slots__ = ("name", "_value", "fn")

    def __init__(
        self, name: str, fn: Callable[[], float] | None = None
    ) -> None:
        self.name = name
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        """Store the current value."""
        self._value = value

    @property
    def value(self) -> float:
        return float(self.fn()) if self.fn is not None else self._value

    def freeze(self) -> None:
        self._value, self.fn = self.value, None


class Histogram:
    """Bucket counts on the one global :data:`GAMMA` grid, with quantiles.

    Counts live in a sparse ``{i: count}`` dict, so any two histograms of
    one unit merge. A quantile is the representative of the bucket
    holding the nearest-rank target, clamped into ``[min, max]``: within
    :data:`ALPHA` (1 %) of the true nearest-rank sample. The top rank
    reads the observed maximum, so ``percentile(100)`` is exact.

    Recording appends to a small buffer; every :data:`_FOLD_BATCH`
    samples (and before any read) the buffer is sorted and bucketed with
    one ``bisect`` per occupied bucket, so the histogram can sit directly
    on the seal/unseal and keystroke paths. Counts, min and max are
    exactly those of per-sample recording (the sum up to float rounding).
    """

    __slots__ = ("name", "unit", "_counts", "_count", "_total", "_min",
                 "_max", "_pending")

    def __init__(self, name: str, unit: str = "ms") -> None:
        self.name = name
        self.unit = unit
        self._counts: dict[int, int] = {}
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = 0.0
        self._pending: list[float] = []

    def record(self, value: float) -> None:
        """Add one sample (a no-op while observability is disabled)."""
        if not _enabled:
            return
        pending = self._pending
        pending.append(value)
        if len(pending) >= _FOLD_BATCH:
            self._fold()

    def _fold(self) -> None:
        """Bucket the buffered samples: sort, then bisect per bucket."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        n = len(pending)
        self._count += n
        self._total = sum(pending, self._total)
        pending.sort()
        counts = self._counts
        start = 0
        while start < n:
            i = _bucket(pending[start])
            end = bisect_right(pending, GAMMA**i, start)
            counts[i] = counts.get(i, 0) + end - start
            start = end
        if pending[0] < self._min:
            self._min = pending[0]
        if pending[-1] > self._max:
            self._max = pending[-1]

    # -- accessors ------------------------------------------------------

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total(self) -> float:
        self._fold()
        return self._total

    @property
    def min(self) -> float:
        self._fold()
        return self._min

    @property
    def max(self) -> float:
        self._fold()
        return self._max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The p-th percentile (0 < p <= 100), within 1 % of the sample."""
        if not 0.0 < p <= 100.0:
            raise ObservabilityError(f"percentile {p} outside (0, 100]")
        return self._quantiles(self.nonzero_buckets(), (p,))[0]

    def _quantiles(self, buckets: list, ps: tuple) -> list[float]:
        """Nearest-rank quantiles for ascending ``ps``, one cumulative walk."""
        count = self._count
        if not count:
            return [0.0] * len(ps)
        out = []
        seen = k = 0
        for p in ps:
            target = math.ceil(count * (p / 100.0))
            while seen < target:
                bound, n = buckets[k]
                seen += n
                k += 1
            # The top rank is the observed maximum itself, known exactly.
            if target >= count:
                out.append(self._max)
            else:
                out.append(min(max(bound * _MID, self._min), self._max))
        return out

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> dict:
        """The snapshot form: counts, moments, and standard quantiles."""
        buckets = self.nonzero_buckets()
        count = self._count
        p50, p95, p99 = self._quantiles(buckets, (50.0, 95.0, 99.0))
        return {
            "unit": self.unit,
            "count": count,
            "sum": round(self._total, 3),
            "min": round(self._min, 3) if count else 0.0,
            "max": round(self._max, 3),
            "mean": round(self.mean, 3),
            "p50": round(p50, 3),
            "p95": round(p95, 3),
            "p99": round(p99, 3),
            "buckets": buckets,
        }

    def nonzero_buckets(self) -> list[list[float]]:
        """Sparse ``[upper_bound, count]`` pairs, bounds the exact γ^i."""
        self._fold()
        return [[GAMMA**i, n] for i, n in sorted(self._counts.items())]

    # -- pooling --------------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s samples into this histogram (same unit only).

        The public replacement for reaching into ``_counts``: pooled fleet
        quantiles come from merging the per-session histograms into one
        and asking it for percentiles. Returns ``self`` for chaining.
        """
        if other.unit != self.unit:
            raise ObservabilityError(
                f"cannot merge {other.name!r} ({other.unit}) into "
                f"{self.name!r} ({self.unit}): units differ"
            )
        if other.count == 0:  # folds other's buffer
            return self
        counts = self._counts
        for i, n in other._counts.items():
            counts[i] = counts.get(i, 0) + n
        self._count += other._count
        self._total += other._total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        return self

    @classmethod
    def from_summary(
        cls, summary: dict, name: str = "from_summary"
    ) -> "Histogram":
        """Rebuild a histogram from its :meth:`summary` dict.

        Each emitted bound ``γ^i`` gives back its bucket index. Lets
        snapshot *documents* — not just live instruments — be pooled,
        which is what a remote dashboard attached over the telemetry
        socket works from. Summaries arrive from outside the process, so
        a bound off the grid or bucket counts that disagree with
        ``count`` raise :class:`ObservabilityError`.
        """
        hist = cls(name, unit=summary.get("unit", "ms"))
        counts = hist._counts
        for bound, n in summary.get("buckets", []):
            try:
                value = float(bound)
                i = round(math.log(value) / _LN_GAMMA)
                on_grid = i >= _FLOOR and math.isclose(
                    value, GAMMA**i, rel_tol=1e-9
                )
            except (TypeError, ValueError, OverflowError):
                on_grid = False
            if not on_grid:
                raise ObservabilityError(
                    f"summary bucket bound {bound!r} is not a positive "
                    "bound on the histogram grid"
                )
            counts[i] = counts.get(i, 0) + int(n)
        hist._count = int(summary.get("count", 0))
        if sum(counts.values()) != hist._count:
            raise ObservabilityError(
                f"summary bucket counts sum to {sum(counts.values())}, "
                f"not its count {hist._count}"
            )
        hist._total = float(summary.get("sum", 0.0))
        if hist._count:
            hist._min = float(summary.get("min", 0.0))
            hist._max = float(summary.get("max", 0.0))
        return hist


def _bucket(value: float) -> int:
    """The grid index ``i`` with ``γ^(i-1) < value <= γ^i``, floor-clamped."""
    if value <= _FLOOR_BOUND:
        return _FLOOR
    i = math.ceil(math.log(value) / _LN_GAMMA)
    # The log can land one off right next to a bound; the bounds decide.
    if value > GAMMA**i:
        return i + 1
    if value <= GAMMA ** (i - 1):
        return i - 1
    return i


class MetricsRegistry:
    """Names and aggregates instruments; renders them as one snapshot."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    # -- get-or-create --------------------------------------------------

    def counter(
        self, name: str, fn: Callable[[], float] | None = None
    ) -> Counter:
        """Get or create a counter; ``fn`` makes it a :class:`SourcedCounter`."""
        if fn is None:
            return self._get_or_make(name, Counter, lambda: Counter(name))
        counter = self._get_or_make(name, SourcedCounter, lambda: SourcedCounter(name, fn))
        if counter.fn is not fn:  # rebinding: count on from here
            counter.freeze()
            counter.fn = fn
        return counter

    def gauge(
        self, name: str, fn: Callable[[], float] | None = None
    ) -> Gauge:
        """Get or create a gauge; ``fn`` makes it read live at snapshot."""
        gauge = self._get_or_make(name, Gauge, lambda: Gauge(name, fn))
        if fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str, unit: str = "ms") -> Histogram:
        """Get or create the histogram called ``name``."""
        return self._get_or_make(name, Histogram, lambda: Histogram(name, unit))

    def _get_or_make(self, name, kind, make):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ObservabilityError(
                    f"{name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        instrument = make()
        self._instruments[name] = instrument
        return instrument

    # -- adoption -------------------------------------------------------

    def register(self, instrument, name: str | None = None):
        """Adopt a free-standing instrument under ``name`` (idempotent).

        Components that create their own histograms without a registry in
        scope (e.g. crypto session stats) are attached here by whichever
        runtime shell wires them up.
        """
        key = name or instrument.name
        existing = self._instruments.get(key)
        if existing is instrument:
            return instrument
        if existing is not None:
            raise ObservabilityError(
                f"{key!r} already bound to a different instrument"
            )
        self._instruments[key] = instrument
        return instrument

    def get(self, name: str):
        """The instrument called ``name``, or None."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        """Sorted instrument names (tests and dashboards)."""
        return sorted(self._instruments)

    def match(self, pattern: str) -> list[str]:
        """Sorted instrument names matching a glob ``pattern``."""
        return sorted(
            name for name in self._instruments if fnmatchcase(name, pattern)
        )

    def pool_histograms(
        self, names: str | Iterable[str], name: str = "pooled"
    ) -> Histogram | None:
        """Merge histograms into one (a glob pattern or names).

        Returns a fresh pooled :class:`Histogram` — the registry's own
        instruments are untouched — or ``None`` when nothing matched.
        Zero-sample members cost one attribute check each, so pooling a
        fleet-wide pattern stays cheap when only a few sessions are hot.
        """
        if isinstance(names, str):
            names = self.match(names)
        base: Histogram | None = None
        for key in names:
            inst = self._instruments.get(key)
            if not isinstance(inst, Histogram):
                continue
            if base is None:
                base = Histogram(name, inst.unit)
            if inst.count:
                base.merge(inst)
        return base

    # -- rendering ------------------------------------------------------

    def snapshot(self) -> dict:
        """The whole registry as one JSON-ready document."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = round(instrument.value, 4)
            else:
                histograms[name] = instrument.summary()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


_HIST_REQUIRED_KEYS = {
    "unit", "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
    "buckets",
}


def validate_snapshot(doc: object) -> None:
    """Raise :class:`ObservabilityError` unless ``doc`` is a valid snapshot.

    Hand-rolled (no jsonschema dependency): checks the schema tag, the
    section layout, numeric leaf types, and histogram summary shape. CI
    runs this over the artifact every build.
    """
    if not isinstance(doc, dict):
        raise ObservabilityError("snapshot must be a JSON object")
    if doc.get("schema") != SNAPSHOT_SCHEMA:
        raise ObservabilityError(
            f"snapshot schema {doc.get('schema')!r} != {SNAPSHOT_SCHEMA!r}"
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            raise ObservabilityError(f"snapshot section {section!r} missing")
    for section in ("counters", "gauges"):
        for name, value in doc[section].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ObservabilityError(
                    f"{section}[{name!r}] is {type(value).__name__}, "
                    "expected a number"
                )
    for name, summary in doc["histograms"].items():
        if not isinstance(summary, dict):
            raise ObservabilityError(f"histograms[{name!r}] not an object")
        missing = _HIST_REQUIRED_KEYS - summary.keys()
        if missing:
            raise ObservabilityError(
                f"histograms[{name!r}] missing keys {sorted(missing)}"
            )
        if not isinstance(summary["buckets"], list):
            raise ObservabilityError(f"histograms[{name!r}].buckets not a list")


def merge_summaries(
    summaries: Iterable[dict], name: str = "pooled"
) -> Histogram:
    """Pool histogram *summary dicts* into one Histogram.

    The document-level sibling of :meth:`MetricsRegistry.pool_histograms`:
    dashboards that only hold a snapshot JSON — not live instruments —
    rebuild each summary and merge. An empty iterable yields an empty
    histogram.
    """
    pooled: Histogram | None = None
    for summary in summaries:
        hist = Histogram.from_summary(summary, name=name)
        pooled = hist if pooled is None else pooled.merge(hist)
    return pooled if pooled is not None else Histogram(name)


class SnapshotDelta:
    """Tracks what a feed subscriber has seen; emits only the changes.

    ``prime()`` returns a full snapshot and records its values;
    each subsequent ``collect()`` returns a ``repro.obs.delta/1``
    document holding *absolute* values for just the instruments that
    changed since the previous call — or ``None`` when nothing moved.
    Change detection is per instrument (counters and gauges by value,
    histograms by sample count), so an idle 10k-session fleet costs one
    comparison per instrument per tick and ships nothing.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hist_counts: dict[str, int] = {}
        self.seq = 0

    def prime(self) -> dict:
        """Full snapshot; resets the baseline this delta diffs against."""
        doc = self._registry.snapshot()
        self._counters = dict(doc["counters"])
        self._gauges = dict(doc["gauges"])
        self._hist_counts = {
            name: summary["count"]
            for name, summary in doc["histograms"].items()
        }
        self.seq = 0
        return doc

    def collect(self) -> dict | None:
        """The changed instruments since last time, or None if quiet."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        seen_c, seen_g, seen_h = self._counters, self._gauges, self._hist_counts
        # Insertion-order iteration: registration order is deterministic,
        # and skipping the sort keeps a quiet collect at one dict walk —
        # this runs once per second per subscriber on a live daemon.
        for name, inst in self._registry._instruments.items():
            if isinstance(inst, Counter):
                value = inst.value
                if seen_c.get(name) != value:
                    counters[name] = seen_c[name] = value
            elif isinstance(inst, Gauge):
                # Same rounding as snapshot(), so a reassembled document
                # compares equal to a snapshot taken at the same instant.
                value = round(inst.value, 4)
                if seen_g.get(name) != value:
                    gauges[name] = seen_g[name] = value
            else:
                count = inst.count
                if seen_h.get(name) != count:
                    seen_h[name] = count
                    histograms[name] = inst.summary()
        if not (counters or gauges or histograms):
            return None
        self.seq += 1
        return {
            "schema": DELTA_SCHEMA,
            "seq": self.seq,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def apply_delta(base: dict | None, doc: dict) -> dict:
    """Merge a feed line onto ``base``, returning the updated snapshot.

    Accepts either a full ``repro.obs/1`` snapshot (which replaces the
    base — the first line of a ``watch`` stream) or a ``repro.obs.delta/1``
    document (whose sections overwrite matching names). Non-metric keys
    riding on a delta line (``alerts``, ``at_ms``) are ignored here. The
    result always validates as a plain snapshot.
    """
    if not isinstance(doc, dict):
        raise ObservabilityError("feed line must be a JSON object")
    schema = doc.get("schema")
    if schema == SNAPSHOT_SCHEMA:
        validate_snapshot(doc)
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": dict(doc["counters"]),
            "gauges": dict(doc["gauges"]),
            "histograms": {k: dict(v) for k, v in doc["histograms"].items()},
        }
    if schema != DELTA_SCHEMA:
        raise ObservabilityError(
            f"feed line schema {schema!r} is neither "
            f"{SNAPSHOT_SCHEMA!r} nor {DELTA_SCHEMA!r}"
        )
    merged = {
        "schema": SNAPSHOT_SCHEMA,
        "counters": dict(base["counters"]) if base else {},
        "gauges": dict(base["gauges"]) if base else {},
        "histograms": dict(base["histograms"]) if base else {},
    }
    merged["counters"].update(doc.get("counters", {}))
    merged["gauges"].update(doc.get("gauges", {}))
    merged["histograms"].update(doc.get("histograms", {}))
    return merged
