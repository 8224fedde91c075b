"""The metrics registry: instruments, quantiles, snapshots, validation."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.registry import (
    _FLOOR,
    ALPHA,
    GAMMA,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    enabled,
    set_enabled,
    validate_snapshot,
)


class TestCounter:
    def test_inc_defaults_to_one(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_registry_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_direct_value_writes_visible_in_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("x").value += 3
        assert reg.snapshot()["counters"]["x"] == 3


class TestGauge:
    def test_stored_value(self):
        g = Gauge("g")
        g.set(7.5)
        assert g.value == 7.5

    def test_callable_gauge_reads_live(self):
        box = [1.0]
        reg = MetricsRegistry()
        reg.gauge("live", fn=lambda: box[0])
        assert reg.snapshot()["gauges"]["live"] == 1.0
        box[0] = 9.25
        assert reg.snapshot()["gauges"]["live"] == 9.25


class TestHistogram:
    def test_count_sum_min_max(self):
        h = Histogram("h")
        for v in (2.0, 20.0, 200.0):
            h.record(v)
        assert h.count == 3
        assert h.total == pytest.approx(222.0)
        assert h.min == 2.0 and h.max == 200.0
        assert h.mean == pytest.approx(74.0)

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(min_value=1e-6, max_value=1e7), st.just(0.0)
            ),
            min_size=1,
            max_size=600,
        ),
        ps=st.lists(st.floats(min_value=0.01, max_value=100.0), max_size=4),
    )
    def test_percentiles_within_bucket_resolution(self, values, ps):
        h = Histogram("h")
        for v in values:
            h.record(v)
        ordered = sorted(values)
        # Every quantile is within ALPHA of the exact nearest-rank sample
        # (zeros share the floor bucket, which reads within 1e-9).
        for p in [50.0, 95.0, 99.0, 100.0, *ps]:
            exact = ordered[math.ceil(len(values) * (p / 100.0)) - 1]
            assert h.percentile(p) == pytest.approx(
                exact, rel=ALPHA * (1 + 1e-9), abs=1e-9
            )

    def test_underflow_and_overflow_samples(self):
        h = Histogram("h")
        h.record(0.0)  # the floor bucket
        h.record(1e12)  # far above any latency
        assert h.count == 2
        assert h.percentile(100.0) == h.max == 1e12
        bounds = [b for b, _ in h.nonzero_buckets()]
        assert len(bounds) == 2
        assert all(math.isfinite(b) for b in bounds)

    def test_empty_percentile_is_zero(self):
        assert Histogram("h").p99 == 0.0

    def test_summary_shape(self):
        h = Histogram("h", unit="us")
        h.record(10.0)
        s = h.summary()
        assert s["unit"] == "us"
        assert s["count"] == 1
        assert s["p50"] == 10.0  # a lone sample reads back exactly
        assert isinstance(s["buckets"], list)

    def test_disabled_flag_stops_recording(self):
        h = Histogram("h")
        try:
            set_enabled(False)
            assert not enabled()
            h.record(10.0)
        finally:
            set_enabled(True)
        assert h.count == 0
        h.record(10.0)
        assert h.count == 1

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.lists(st.floats(min_value=0.0, max_value=1e7), max_size=300),
        right=st.lists(st.floats(min_value=0.0, max_value=1e7), max_size=300),
    )
    def test_merge_equals_recording_the_union(self, left, right):
        a, b, union = Histogram("a"), Histogram("b"), Histogram("union")
        for v in left:
            a.record(v)
            union.record(v)
        for v in right:
            b.record(v)
            union.record(v)
        a.merge(b)
        assert a.nonzero_buckets() == union.nonzero_buckets()
        assert (a.count, a.min, a.max) == (union.count, union.min, union.max)
        assert a.total == pytest.approx(union.total)


class TestBufferedFolding:
    """Buffered, sorted-batch bucketing equals bucketing each sample."""

    @staticmethod
    def reference(values):
        """Per-sample bucketing straight from the bounds γ^i."""
        counts = {}
        for v in values:
            i = _FLOOR
            if v > GAMMA**_FLOOR:
                i = math.ceil(math.log(v) / math.log(GAMMA))
                while v > GAMMA**i:
                    i += 1
                while v <= GAMMA ** (i - 1):
                    i -= 1
            counts[i] = counts.get(i, 0) + 1
        return counts

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1e4),
                # Exact bucket bounds: the (γ^(i-1), γ^i] tie-break.
                st.sampled_from([GAMMA**i for i in range(-400, 400, 7)]),
            ),
            max_size=700,
        ),
        reads=st.lists(st.integers(0, 700), max_size=4),
    )
    def test_matches_per_sample_bisect(self, values, reads):
        h = Histogram("h")
        for i, v in enumerate(values):
            if i in reads:
                h.count  # a read mid-stream folds the partial batch
            h.record(v)
        assert h.count == len(values)
        assert h._counts == self.reference(values)
        if values:
            assert h.min == min(values) and h.max == max(values)
            assert h.total == pytest.approx(math.fsum(values))

    def test_merge_folds_both_sides(self):
        a = Histogram("a")
        b = Histogram("b")
        for v in (2.0, 3.0, 50.0):
            a.record(v)
        for v in (0.5, 500.0):
            b.record(v)
        a.merge(b)
        assert a.count == 5
        assert a.min == 0.5 and a.max == 500.0
        assert a._counts == self.reference([2.0, 3.0, 50.0, 0.5, 500.0])


class TestRegistry:
    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")
        with pytest.raises(ObservabilityError):
            reg.histogram("x")

    def test_register_adopts_free_standing_instrument(self):
        reg = MetricsRegistry()
        h = Histogram("crypto.seal_us", unit="us")
        assert reg.register(h, "server.crypto.seal_us") is h
        # Idempotent re-registration of the same object.
        assert reg.register(h, "server.crypto.seal_us") is h
        assert reg.get("server.crypto.seal_us") is h
        other = Histogram("crypto.seal_us", unit="us")
        with pytest.raises(ObservabilityError):
            reg.register(other, "server.crypto.seal_us")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]


class TestSnapshot:
    def make_doc(self):
        reg = MetricsRegistry()
        reg.counter("reactor.ticks").inc(5)
        reg.gauge("net.srtt", fn=lambda: 80.0)
        reg.histogram("lat").record(12.0)
        return reg.snapshot()

    def test_snapshot_is_json_round_trippable(self):
        doc = self.make_doc()
        assert doc["schema"] == SNAPSHOT_SCHEMA
        again = json.loads(json.dumps(doc))
        validate_snapshot(again)

    def test_validate_rejects_wrong_schema(self):
        doc = self.make_doc()
        doc["schema"] = "bogus/9"
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)

    def test_validate_rejects_missing_section(self):
        doc = self.make_doc()
        del doc["gauges"]
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)

    def test_validate_rejects_non_numeric_counter(self):
        doc = self.make_doc()
        doc["counters"]["reactor.ticks"] = "five"
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)
        doc["counters"]["reactor.ticks"] = True
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)

    def test_validate_rejects_malformed_histogram(self):
        doc = self.make_doc()
        del doc["histograms"]["lat"]["p95"]
        with pytest.raises(ObservabilityError):
            validate_snapshot(doc)

    def test_snapshot_has_no_infinities(self):
        doc = self.make_doc()
        # Empty histograms must not leak math.inf into JSON documents.
        reg = MetricsRegistry()
        reg.histogram("empty")
        doc = reg.snapshot()
        assert doc["histograms"]["empty"]["min"] == 0.0
        assert not any(
            isinstance(v, float) and math.isinf(v)
            for v in doc["histograms"]["empty"].values()
            if isinstance(v, (int, float))
        )
