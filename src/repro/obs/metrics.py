"""Unified metrics registry: counters, gauges and latency histograms.

Every subsystem records into one process-global :class:`MetricsRegistry`,
so a slow epoch or a cache stampede can be explained from a single
snapshot instead of by chasing counters scattered across layers.  An
object that reports its own numbers (a storage provider, a cache, a
chunk engine, a tenant, a server, a loader epoch) owns one series per
quantity, chained to the labeled family series (:func:`owned`,
:class:`labeled`): one ``inc`` / ``observe`` updates both, the owner's
attributes (``stats.get_requests``, ``engine.chunk_cache_hits``,
``loader.stats.samples``) read its own series, and ``REGISTRY.value`` /
``snapshot`` read the family.  Each event is counted once.

Design constraints, in order:

- **Hot-path cheap.**  Instrumented code fetches a metric *handle* once
  (``REGISTRY.counter("chunk_engine.decoded_cache_hits", tensor=t)``)
  and calls ``inc()``/``observe()`` per event.  A handle pins its series,
  so the per-event cost is one lock-free flag check plus one small
  locked update per series (two for an owner's) — and in no-op mode
  (``registry.disable()``) the flag check alone: no lock, no allocation,
  and neither the owner's series nor the family moves.
- **Labeled series, bounded cardinality.**  A metric name fans out into
  series keyed by sorted ``(label, value)`` pairs (tenant / dataset /
  tensor / op ...).  Each family holds at most ``max_series`` distinct
  label sets; further label sets collapse into a single overflow series
  (``__overflow__="true"``) rather than growing without bound — runaway
  label values (row ids, chunk names) cannot OOM the registry.
- **Quantiles without unbounded memory.**  Histograms keep exact
  count/sum/min/max plus a fixed-size reservoir of samples; p50/p95/p99
  are computed from the reservoir (exact until it fills, statistically
  representative after).  The family series holds the reservoir; an
  owner's histogram keeps count/sum/min/max only, unless its owner reads
  its own samples (the storage providers' ``storage.op_seconds`` and the
  object store's ``objectstore.request_seconds``, behind
  ``StorageStats.latency_samples``).
"""

from __future__ import annotations

import functools
import random
import threading
from typing import Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Label set families collapse into once ``max_series`` is exceeded.
OVERFLOW_LABELS: LabelKey = (("__overflow__", "true"),)

_DEFAULT_MAX_SERIES = 1024
_RESERVOIR_SIZE = 2048


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Unresolved:
    """An owner's family series, looked up when the owner first records:
    building or reading an owner adds no registry series."""

    __slots__ = ("owner", "name", "labels")

    def __init__(self, owner, name: str, labels: Dict[str, object]):
        self.owner, self.name, self.labels = owner, name, labels

    def _add(self, value) -> None:
        owner = self.owner
        family = owner._family = owner._registry._series(
            self.name, type(owner), self.labels)
        family._add(value)


class Counter:
    """Monotonic counter series.

    An owner's counter (:func:`owned`) adds each increment to its family
    series too; :meth:`reset` zeroes the owner's count only."""

    __slots__ = ("_registry", "_lock", "_value", "_family")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0
        self._family = None

    def inc(self, n: int = 1) -> None:
        if not self._registry._enabled:
            return
        self._add(n)
        if self._family is not None:
            self._family._add(n)

    def _add(self, n: int) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """Point-in-time value series (queue depths, cache residency...)."""

    __slots__ = ("_registry", "_lock", "_value")

    def __init__(self, registry: "MetricsRegistry"):
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not self._registry._enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        if not self._registry._enabled:
            return
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Latency/size distribution with p50/p95/p99 quantiles.

    Exact ``count``/``sum``/``min``/``max``; quantiles come from a
    fixed-size reservoir (exact until ``reservoir_size`` observations,
    uniform random replacement after — seeded, so snapshots are
    reproducible under a fixed workload; the generator is built when the
    reservoir first overflows, so short-lived owners never pay for one).
    An owner's histogram (:func:`owned`) adds each observation to its
    family series too, and keeps no reservoir of its own
    (``reservoir_size=0``) unless the owner asks for one; :meth:`reset`
    clears the owner's only.
    """

    __slots__ = ("_registry", "_lock", "count", "sum", "min", "max",
                 "_samples", "_reservoir_size", "_rng", "_family")

    def __init__(self, registry: "MetricsRegistry",
                 reservoir_size: int = _RESERVOIR_SIZE):
        self._registry = registry
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._reservoir_size = int(reservoir_size)
        self._rng: Optional[random.Random] = None
        self._family = None

    def observe(self, value: float) -> None:
        if not self._registry._enabled:
            return
        value = float(value)
        self._add(value)
        if self._family is not None:
            self._family._add(value)

    def _add(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._samples) < self._reservoir_size:
                self._samples.append(value)
            elif self._reservoir_size:
                # reservoir sampling keeps each observation equally likely
                if self._rng is None:
                    self._rng = random.Random(0x5EED)
                j = self._rng.randrange(self.count)
                if j < self._reservoir_size:
                    self._samples[j] = value

    def observe_many(self, values: Sequence[float]) -> None:
        for v in values:
            self.observe(v)

    def samples(self) -> List[float]:
        """The reservoir's observations, in arrival order until it fills."""
        with self._lock:
            return list(self._samples)

    def percentile(self, q: float) -> float:
        """Quantile ``q`` in [0, 100] over the reservoir (0.0 when empty)."""
        samples = sorted(self.samples())
        if not samples:
            return 0.0
        if len(samples) == 1:
            return samples[0]
        # linear interpolation between closest ranks (numpy's default)
        pos = (q / 100.0) * (len(samples) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(samples) - 1)
        frac = pos - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        with self._lock:
            count, total = self.count, self.sum
            mn, mx = self.min, self.max
        return {
            "count": count,
            "sum": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "min": mn,
            "max": mx,
            "p50": round(self.percentile(50), 6),
            "p95": round(self.percentile(95), 6),
            "p99": round(self.percentile(99), 6),
        }

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None
            self._samples.clear()


class _Family:
    """All series of one metric name (one kind, many label sets)."""

    __slots__ = ("kind", "series", "dropped_label_sets")

    def __init__(self, kind: type):
        self.kind = kind
        self.series: Dict[LabelKey, object] = {}
        self.dropped_label_sets = 0


class MetricsRegistry:
    """Thread-safe named metrics with labels and a global default.

    ``enabled=False`` (or :meth:`disable`) switches every handle the
    registry ever handed out into no-op mode: the per-event cost drops to
    a single attribute check, which is what keeps always-on
    instrumentation viable in the chunk-read hot path.
    """

    def __init__(self, enabled: bool = True,
                 max_series: int = _DEFAULT_MAX_SERIES):
        self._enabled = bool(enabled)
        self._max_series = int(max_series)
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- mode ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        """No-op mode: existing and future handles stop recording."""
        self._enabled = False

    # -- handle creation -------------------------------------------------

    def _series(self, name: str, kind: type, labels: Dict[str, object]):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(kind)
            elif family.kind is not kind:
                raise TypeError(
                    f"metric {name!r} is a {family.kind.__name__}, "
                    f"requested as {kind.__name__}"
                )
            series = family.series.get(key)
            if series is None:
                if (
                    len(family.series) >= self._max_series
                    and key != OVERFLOW_LABELS
                ):
                    # cardinality cap: collapse the surplus label set into
                    # one shared overflow series instead of growing forever
                    family.dropped_label_sets += 1
                    key = OVERFLOW_LABELS
                    series = family.series.get(key)
                    if series is None:
                        series = family.series[key] = kind(self)
                else:
                    series = family.series[key] = kind(self)
            return series

    def counter(self, name: str, **labels) -> Counter:
        return self._series(name, Counter, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._series(name, Gauge, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._series(name, Histogram, labels)

    def owned(self, kind: type, name: str, keep_samples: bool = False,
              **labels):
        """A new series of its own for one owner, chained to the family
        series of *name* / *labels* (looked up on the first record).  An
        owner's histogram keeps a reservoir only with *keep_samples*: the
        family's answers the percentiles."""
        owner = (kind(self, 0 if not keep_samples else _RESERVOIR_SIZE)
                 if kind is Histogram else kind(self))
        owner._family = _Unresolved(owner, name, labels)
        return owner

    # -- introspection ---------------------------------------------------

    def series_count(self, name: str) -> int:
        with self._lock:
            family = self._families.get(name)
            return len(family.series) if family else 0

    def dropped_label_sets(self, name: str) -> int:
        with self._lock:
            family = self._families.get(name)
            return family.dropped_label_sets if family else 0

    def value(self, name: str, **labels) -> float:
        """Aggregate value of *name* across series matching *labels*.

        Counters/gauges sum; histograms sum their counts.  Labels given
        restrict the aggregation (a series matches when it carries every
        given label with the given value).
        """
        want = _label_key(labels)
        total = 0.0
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            entries = list(family.series.items())
        for key, series in entries:
            if want and not set(want).issubset(set(key)):
                continue
            if isinstance(series, Histogram):
                total += series.count
            else:
                total += series.value
        return total

    def snapshot(self) -> dict:
        """``{metric_name: {label_str: value | histogram_dict}}``."""
        with self._lock:
            families = {
                name: list(family.series.items())
                for name, family in self._families.items()
            }
        out: Dict[str, Dict[str, object]] = {}
        for name, entries in sorted(families.items()):
            rendered: Dict[str, object] = {}
            for key, series in entries:
                label_str = ",".join(f"{k}={v}" for k, v in key) or ""
                if isinstance(series, Histogram):
                    rendered[label_str] = series.snapshot()
                else:
                    rendered[label_str] = series.value
            out[name] = rendered
        return out

    def reset(self) -> None:
        """Zero every series (handles stay valid)."""
        with self._lock:
            entries = [
                s for f in self._families.values() for s in f.series.values()
            ]
        for series in entries:
            series.reset()

    def clear(self) -> None:
        """Forget every family (old handles keep working but detach)."""
        with self._lock:
            self._families.clear()


#: Process-global default registry; module-level helpers below bind to it.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY


def counter(name: str, **labels) -> Counter:
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, **labels) -> Histogram:
    return REGISTRY.histogram(name, **labels)


def owned(kind: type, name: str, keep_samples: bool = False, **labels):
    """An owner's own :data:`REGISTRY` series of *name*, for labels known
    only at run time (see :meth:`MetricsRegistry.owned`)."""
    return REGISTRY.owned(kind, name, keep_samples, **labels)


class labeled(functools.cached_property):
    """An owner's own series (:func:`owned`) as an attribute built on
    first use.  In a class body, ``_m_hits = labeled(Counter,
    "chunk_engine.decoded_cache_hits", tensor="tensor")`` gives every
    instance a counter of its own chained to the family series whose
    label ``tensor`` is that instance's ``tensor`` attribute: built the
    first time the attribute is read, then kept on the instance (a
    :class:`functools.cached_property`).  Building an object resolves
    none of its series, and reading one resolves no family: a series
    joins a snapshot when its owner first records into it."""

    def __init__(self, kind: type, name: str, keep_samples: bool = False,
                 **labels: str):
        super().__init__(lambda obj: owned(kind, name, keep_samples, **{
            label: getattr(obj, attr) for label, attr in labels.items()
        }))


def percentiles(samples: Sequence[float]) -> dict:
    """p50/p95/p99 summary of a raw sample list (for perf records)."""
    h = Histogram(MetricsRegistry(enabled=True))
    h.observe_many(samples)
    return {
        "p50": round(h.percentile(50), 6),
        "p95": round(h.percentile(95), 6),
        "p99": round(h.percentile(99), 6),
    }
