"""repro.obs — end-to-end telemetry for the Deep Lake reproduction.

Three pieces, one import:

- :mod:`repro.obs.metrics` — the process-global :data:`REGISTRY` of
  counters / gauges / histograms (p50/p95/p99) every subsystem records
  into; ``obs.disable()`` switches all instrumentation to no-op mode.
- :mod:`repro.obs.tracing` — ``trace()`` / ``span()`` nested spans with
  wall + virtual time, propagated through the serve protocol so a client
  ``read_batch`` stitches into the server-side storage spans.
- :mod:`repro.obs.bench` — ``bench_record()``, the ``BENCH_<name>.json``
  perf-record emitter the benchmark suite uses to leave a per-PR
  performance trajectory behind.
"""

from repro.obs.bench import bench_dir, bench_record, load_bench_records
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    percentiles,
)
from repro.obs.tracing import (
    Span,
    attach_remote,
    current_span,
    flatten,
    remote_child,
    render,
    span,
    trace,
    trace_context,
    use_virtual_clock,
)


def enable() -> None:
    """Turn metric recording on (the default)."""
    REGISTRY.enable()


def disable() -> None:
    """No-op mode: every handle stops recording (one branch per event)."""
    REGISTRY.disable()


def snapshot() -> dict:
    """The default registry's full ``{metric: {labels: value}}`` view."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Zero every family series in the default registry (handles stay
    valid; an owner's own series, which its stats attributes read, keep
    their counts)."""
    REGISTRY.reset()


__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "attach_remote",
    "bench_dir",
    "bench_record",
    "counter",
    "current_span",
    "disable",
    "enable",
    "flatten",
    "gauge",
    "get_registry",
    "histogram",
    "load_bench_records",
    "percentiles",
    "remote_child",
    "render",
    "reset",
    "snapshot",
    "span",
    "trace",
    "trace_context",
    "use_virtual_clock",
]
