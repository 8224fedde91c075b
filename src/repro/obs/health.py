"""Declarative SLO health rules with hysteresis and burn-rate alerts.

A :class:`HealthMonitor` turns the registry's raw instruments into an
operator-facing ``ok → warn → critical`` state machine. Rules are
declarative (:class:`HealthRule` constructors cover the useful shapes:
pooled-histogram quantile vs a target, counter burn rate, gauge value or
ratio) and evaluated on a reactor timer; hysteresis means a level only
changes after ``for_ticks`` consecutive breaching evaluations and only
clears after ``clear_ticks`` quiet ones, so a single noisy sample cannot
flap an alert.

Every rule surfaces as a callable gauge (``daemon.health.<rule>``, with
``daemon.health.level`` as the fleet roll-up; 0=ok 1=warn 2=critical),
so health itself appears in snapshots, the Prometheus exposition, and
the delta feed. Level *transitions* additionally append alert events to
a bounded ring that ``watch`` subscribers receive inline.

:func:`default_fleet_ruleset` bundles the fleet-bench SLO (pooled echo
p95 ≤ 600 ms) with the wire-integrity burn rates the Terrapin-style
tampering literature says to watch live (auth failures, replay drops,
framing drops), reactor tick-lag, a mass-wake detector (dormant sessions
stampeding back — a reconnect storm), and the parked/active ratio.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from repro.errors import ObservabilityError
from repro.obs.registry import Histogram, MetricsRegistry

#: Health levels, index == severity.
LEVELS = ("ok", "warn", "critical")

#: Schema tag for the ``health`` one-shot response / artifact.
HEALTH_SCHEMA = "repro.obs.health/1"

#: Alert events kept for late-attaching subscribers.
ALERT_RING = 256


class RuleContext:
    """What a rule's value callable may read during one evaluation.

    Burn rates and pooled quantiles are memoized per evaluation, and the
    pattern → names match is cached against the registry's instrument
    count, so a 10k-session fleet does not re-glob 150k names per tick.
    """

    def __init__(self, monitor: "HealthMonitor", now: float, dt_s: float):
        self.registry = monitor.registry
        self.now = now
        self.dt_s = dt_s
        self._monitor = monitor
        self._rates: dict[str, float] = {}
        self._counter_values: dict[str, float] = {}

    def counter(self, name: str) -> float:
        inst = self.registry.get(name)
        return inst.value if inst is not None else 0.0

    def gauge(self, name: str) -> float | None:
        inst = self.registry.get(name)
        return inst.value if inst is not None else None

    def rate(self, name: str) -> float:
        """Counter increase per second since the previous evaluation."""
        if name in self._rates:
            return self._rates[name]
        value = self.counter(name)
        self._counter_values[name] = value
        last = self._monitor._last_counts.get(name)
        if last is None or self.dt_s <= 0:
            rate = 0.0
        else:
            rate = max(0.0, value - last) / self.dt_s
        self._rates[name] = rate
        return rate

    def pooled(self, pattern: str) -> Histogram | None:
        """The merged histogram across every instrument matching pattern."""
        names = self._monitor._cached_match(pattern)
        return self.registry.pool_histograms(names, name=f"pooled:{pattern}")


class HealthRule:
    """One SLO check: a value callable judged against warn/crit targets."""

    def __init__(
        self,
        name: str,
        value: Callable[[RuleContext], float | None],
        warn: float,
        crit: float,
        unit: str = "",
        description: str = "",
        for_ticks: int = 2,
        clear_ticks: int = 3,
    ) -> None:
        if for_ticks < 1 or clear_ticks < 1:
            raise ObservabilityError(
                f"rule {name!r}: for_ticks/clear_ticks must be >= 1"
            )
        self.name = name
        self.value = value
        self.warn = warn
        self.crit = crit
        self.unit = unit
        self.description = description
        self.for_ticks = for_ticks
        self.clear_ticks = clear_ticks
        # hysteresis state
        self.level = 0
        self.last_value: float | None = None
        self._pending_level = 0
        self._pending_ticks = 0

    # -- constructors for the common shapes -----------------------------

    @classmethod
    def histogram_quantile(
        cls, name: str, pattern: str, p: float, warn: float, crit: float, **kw
    ) -> "HealthRule":
        """Pooled p-th percentile across histograms matching ``pattern``."""

        def value(ctx: RuleContext) -> float | None:
            pooled = ctx.pooled(pattern)
            if pooled is None or pooled.count == 0:
                return None
            return pooled.percentile(p)

        kw.setdefault("description", f"p{p:g} of {pattern}")
        return cls(name, value, warn, crit, **kw)

    @classmethod
    def counter_burn(
        cls, name: str, counter: str, warn: float, crit: float, **kw
    ) -> "HealthRule":
        """Counter increase per second between evaluations."""
        kw.setdefault("unit", "/s")
        kw.setdefault("description", f"burn rate of {counter}")
        return cls(name, lambda ctx: ctx.rate(counter), warn, crit, **kw)

    @classmethod
    def gauge_value(
        cls, name: str, gauge: str, warn: float, crit: float, **kw
    ) -> "HealthRule":
        kw.setdefault("description", f"value of {gauge}")
        return cls(name, lambda ctx: ctx.gauge(gauge), warn, crit, **kw)

    @classmethod
    def gauge_ratio(
        cls, name: str, num: str, den: str, warn: float, crit: float, **kw
    ) -> "HealthRule":
        """num/den gauge ratio (None while the denominator is zero)."""

        def value(ctx: RuleContext) -> float | None:
            d = ctx.gauge(den)
            if not d:
                return None
            return (ctx.gauge(num) or 0.0) / d

        kw.setdefault("description", f"{num} / {den}")
        return cls(name, value, warn, crit, **kw)

    # -- evaluation ------------------------------------------------------

    def _target_level(self, value: float | None) -> int:
        if value is None:
            return 0  # no data is healthy, not unknown-bad
        if value >= self.crit:
            return 2
        if value >= self.warn:
            return 1
        return 0

    def evaluate(self, ctx: RuleContext) -> tuple[int, int]:
        """One tick of the hysteresis machine; returns (old, new) levels."""
        value = self.value(ctx)
        self.last_value = value
        target = self._target_level(value)
        old = self.level
        if target == self.level:
            self._pending_ticks = 0
            return old, old
        if target != self._pending_level:
            self._pending_level = target
            self._pending_ticks = 1
        else:
            self._pending_ticks += 1
        needed = self.for_ticks if target > self.level else self.clear_ticks
        if self._pending_ticks >= needed:
            self.level = target
            self._pending_ticks = 0
        return old, self.level


class HealthMonitor:
    """Evaluates a ruleset on a timer; gauges, alerts, and a roll-up."""

    def __init__(
        self,
        registry: MetricsRegistry,
        rules: Sequence[HealthRule],
        clock: Callable[[], float] | None = None,
        gauge_prefix: str = "daemon.health",
    ) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ObservabilityError("health rules must have unique names")
        self.registry = registry
        self.rules = list(rules)
        self._clock = clock
        self._last_eval: float | None = None
        self._last_counts: dict[str, float] = {}
        self._match_cache: dict[str, tuple[int, list[str]]] = {}
        self.alerts: deque[dict] = deque(maxlen=ALERT_RING)
        self.alert_seq = 0
        self.evaluations = 0
        self._timer = None
        registry.gauge(f"{gauge_prefix}.level", fn=lambda: float(self.level_index))
        for rule in self.rules:
            registry.gauge(
                f"{gauge_prefix}.{rule.name}",
                fn=lambda r=rule: float(r.level),
            )

    # -- pattern-match caching ------------------------------------------

    def _cached_match(self, pattern: str) -> list[str]:
        size = len(self.registry._instruments)
        cached = self._match_cache.get(pattern)
        if cached is not None and cached[0] == size:
            return cached[1]
        names = self.registry.match(pattern)
        self._match_cache[pattern] = (size, names)
        return names

    # -- evaluation ------------------------------------------------------

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Run every rule once; returns the alert events this tick raised."""
        if now is None:
            if self._clock is None:
                raise ObservabilityError(
                    "HealthMonitor needs an explicit now= or a clock"
                )
            now = self._clock()
        dt_s = (
            (now - self._last_eval) / 1000.0
            if self._last_eval is not None
            else 0.0
        )
        ctx = RuleContext(self, now, dt_s)
        fresh: list[dict] = []
        for rule in self.rules:
            old, new = rule.evaluate(ctx)
            if new != old:
                self.alert_seq += 1
                event = {
                    "seq": self.alert_seq,
                    "at_ms": round(now, 3),
                    "rule": rule.name,
                    "from": LEVELS[old],
                    "to": LEVELS[new],
                    "value": (
                        round(rule.last_value, 4)
                        if rule.last_value is not None
                        else None
                    ),
                }
                self.alerts.append(event)
                fresh.append(event)
        self._last_counts.update(ctx._counter_values)
        self._last_eval = now
        self.evaluations += 1
        return fresh

    def attach(self, reactor, interval_ms: float = 1000.0) -> None:
        """Evaluate on a recurring reactor timer."""

        def tick() -> None:
            self.evaluate(reactor.now())
            self._timer = reactor.call_later(interval_ms, tick)

        if self._clock is None:
            self._clock = reactor.now
        self._timer = reactor.call_later(interval_ms, tick)

    def detach(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- views -----------------------------------------------------------

    @property
    def level_index(self) -> int:
        return max((rule.level for rule in self.rules), default=0)

    @property
    def level(self) -> str:
        return LEVELS[self.level_index]

    def alerts_since(self, seq: int) -> list[dict]:
        """Alert events with seq greater than ``seq`` (oldest first)."""
        return [event for event in self.alerts if event["seq"] > seq]

    def state(self) -> dict:
        """The one-shot ``health`` response / artifact document."""
        return {
            "schema": HEALTH_SCHEMA,
            "at_ms": round(self._last_eval, 3) if self._last_eval else 0.0,
            "level": self.level,
            "evaluations": self.evaluations,
            "rules": {
                rule.name: {
                    "level": LEVELS[rule.level],
                    "value": (
                        round(rule.last_value, 4)
                        if rule.last_value is not None
                        else None
                    ),
                    "warn": rule.warn,
                    "crit": rule.crit,
                    "unit": rule.unit,
                    "description": rule.description,
                }
                for rule in self.rules
            },
            "alerts": list(self.alerts),
        }


def default_fleet_ruleset(slo_p95_ms: float = 600.0) -> list[HealthRule]:
    """The bundled ruleset for a fleet daemon at the bench SLO.

    * ``echo_p95`` — fleet-pooled keystroke echo p95 against the SLO
      (warn at the SLO itself, critical at 2x; the committed fleet bench
      sits at 424–450 ms, so warn has real headroom).
    * ``auth_burn`` / ``replay_burn`` / ``framing_burn`` — wire-integrity
      counters moving at all is suspicious; sustained movement is an
      active attack or a seriously misbehaving peer.
    * ``tick_lag`` — the reactor missing its own deadlines (overload).
    * ``mass_wake`` — dormant sessions stampeding awake: the signature
      of a mass-reconnect storm, as opposed to a flash crowd of *new*
      sessions (which never parked long enough to count as dormant).
      ``for_ticks=1`` on purpose: a storm is a spike, and waiting two
      ticks to confirm would miss it; ``clear_ticks=5`` keeps the alert
      visible after the spike passes.
    * ``active_ratio`` — most of the fleet busy at once, sustained.
    """
    return [
        HealthRule.histogram_quantile(
            "echo_p95",
            "keystroke.*echo_ms",
            95.0,
            warn=slo_p95_ms,
            crit=2.0 * slo_p95_ms,
            unit="ms",
            for_ticks=2,
            clear_ticks=3,
        ),
        HealthRule.counter_burn(
            "auth_burn", "crypto.auth_failures", warn=1.0, crit=10.0
        ),
        HealthRule.counter_burn(
            "replay_burn", "crypto.replay_drops", warn=1.0, crit=10.0
        ),
        HealthRule.counter_burn(
            "framing_burn", "network.framing_drops", warn=1.0, crit=10.0
        ),
        HealthRule.gauge_value(
            "tick_lag", "reactor.tick_lag_ms", warn=250.0, crit=1000.0,
            unit="ms",
        ),
        HealthRule.counter_burn(
            "mass_wake",
            "pump.dormant_wakes",
            warn=10.0,
            crit=100.0,
            for_ticks=1,
            clear_ticks=5,
        ),
        HealthRule.gauge_ratio(
            "active_ratio",
            "daemon.sessions_active",
            "daemon.sessions_open",
            warn=0.5,
            crit=0.95,
            for_ticks=5,
            clear_ticks=3,
        ),
    ]
