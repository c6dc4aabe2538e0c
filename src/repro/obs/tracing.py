"""Span-based request tracing with cross-process (serve protocol) stitching.

A *trace* is a tree of spans.  ``trace(name, **attrs)`` opens a recording
root span; nested ``trace``/``span`` calls on the same thread become
children.  ``span(...)`` — the form instrumentation uses — is a no-op
unless a trace is already active on the calling thread, so always-on
instrumentation in the storage/engine hot paths costs one thread-local
check when nobody is tracing.

Spans record wall time (``time.time`` timestamps + ``perf_counter``
durations) and, when a :class:`~repro.sim.clock.SimClock` has been
registered via :func:`use_virtual_clock`, virtual time as well — so a
trace over simulated S3 shows both the real microseconds spent and the
modelled seconds charged.

Cross-boundary stitching mirrors W3C trace-context: the serve client
stamps its ``(trace_id, span_id)`` onto each :class:`Request`; the server
opens a *detached* span tree under that parent, serializes it onto the
:class:`Response`, and the client grafts it back into its own tree — so
one ``read_batch`` renders as client → server → cache → object store.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.util.ids import new_span_id, new_trace_id

_tls = threading.local()

#: Optional SimClock whose virtual time spans also record.
_virtual_clock = None


def use_virtual_clock(clock) -> None:
    """Record *clock*'s virtual time on every span (``None`` to detach)."""
    global _virtual_clock
    _virtual_clock = clock


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "start_time", "duration_s", "vstart", "vduration",
                 "children", "_t0", "_prev_stack")

    def __init__(self, name: str, trace_id: str, parent_id: str = "",
                 attrs: Optional[dict] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.start_time = 0.0
        self.duration_s = 0.0
        self.vstart: Optional[float] = None
        self.vduration: Optional[float] = None
        self.children: List["Span"] = []
        self._t0 = 0.0
        self._prev_stack: Optional[list] = None

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "Span":
        self.start_time = time.time()
        self._t0 = time.perf_counter()
        if _virtual_clock is not None:
            self.vstart = _virtual_clock.now()
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.duration_s = time.perf_counter() - self._t0
        if _virtual_clock is not None and self.vstart is not None:
            self.vduration = _virtual_clock.now() - self.vstart
        stack = getattr(_tls, "stack", None)
        if stack and stack[-1] is self:
            stack.pop()
        if self._prev_stack is not None:
            # detached root (server side): restore whatever this thread
            # was tracing before the request arrived
            _tls.stack = self._prev_stack
            self._prev_stack = None

    # -- annotations -----------------------------------------------------

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": round(self.start_time, 6),
            "duration_s": round(self.duration_s, 6),
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }
        if self.vstart is not None:
            d["vstart"] = round(self.vstart, 6)
            d["vduration_s"] = round(self.vduration or 0.0, 6)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(d["name"], d.get("trace_id", ""), d.get("parent_id", ""))
        span.span_id = d.get("span_id", span.span_id)
        span.start_time = d.get("start_time", 0.0)
        span.duration_s = d.get("duration_s", 0.0)
        span.vstart = d.get("vstart")
        span.vduration = d.get("vduration_s")
        span.attrs = dict(d.get("attrs", {}))
        span.children = [cls.from_dict(c) for c in d.get("children", ())]
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """Recordless stand-in returned by :func:`span` when not tracing."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def set(self, **attrs):
        return self


_NOOP_SPAN = _NoopSpan()


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #


def trace(name: str, **attrs) -> Span:
    """Open a recording span: a new trace root, or a child when nested."""
    parent = current_span()
    if parent is None:
        span_obj = Span(name, trace_id=new_trace_id(), attrs=attrs)
    else:
        span_obj = Span(name, trace_id=parent.trace_id,
                        parent_id=parent.span_id, attrs=attrs)
        parent.children.append(span_obj)
    return span_obj


def span(name: str, **attrs):
    """Child span if a trace is active on this thread, else a no-op.

    This is the instrumentation primitive: hot paths call it
    unconditionally and pay one thread-local lookup when nobody traces.
    """
    stack = getattr(_tls, "stack", None)
    if not stack:
        return _NOOP_SPAN
    parent = stack[-1]
    child = Span(name, trace_id=parent.trace_id,
                 parent_id=parent.span_id, attrs=attrs)
    parent.children.append(child)
    return child


def current_span() -> Optional[Span]:
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


class _Attached:
    """See :func:`attached`."""

    __slots__ = ("parent", "prev")

    def __init__(self, parent: Span):
        self.parent = parent
        self.prev = None

    def __enter__(self) -> Span:
        self.prev = getattr(_tls, "stack", None)
        _tls.stack = [self.parent]
        return self.parent

    def __exit__(self, *exc_info) -> None:
        _tls.stack = self.prev


def attached(parent: Optional[Span]):
    """``with attached(parent):`` runs its body under *parent*, a span
    captured (:func:`current_span`) on the thread that handed the work
    over: *parent* is the base of this thread's span stack for the body,
    so the body's spans are its children.  A no-op for ``None``."""
    return _NOOP_SPAN if parent is None else _Attached(parent)


def trace_context() -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` of the active span, for propagation."""
    active = current_span()
    if active is None:
        return None
    return active.trace_id, active.span_id


def remote_child(trace_id: str, parent_span_id: str, name: str,
                 **attrs) -> Span:
    """Server-side continuation of a client trace.

    Returns a *detached* recording root: it adopts the caller's
    ``(trace_id, parent_span_id)`` but is not appended to any local
    parent — the handler serializes it onto the response and the client
    grafts it under the span that issued the request.  The handling
    thread's own trace stack (if any) is saved and restored, so a server
    thread serving many tenants never leaks spans across requests.
    """
    span_obj = Span(name, trace_id=trace_id, parent_id=parent_span_id,
                    attrs=attrs)
    span_obj._prev_stack = getattr(_tls, "stack", None) or []
    _tls.stack = []
    return span_obj


def attach_remote(span_dict: Optional[dict]) -> Optional[Span]:
    """Graft a serialized server-side span tree under the current span."""
    if not span_dict:
        return None
    remote = Span.from_dict(span_dict)
    parent = current_span()
    if parent is not None:
        parent.children.append(remote)
    return remote


def render(span_obj: Span, _depth: int = 0) -> str:
    """ASCII tree of a span: name, wall ms, virtual s, key attrs."""
    pad = "  " * _depth
    line = f"{pad}{span_obj.name}  {span_obj.duration_s * 1e3:.3f} ms"
    if span_obj.vduration is not None:
        line += f"  (virtual {span_obj.vduration:.4f} s)"
    if span_obj.attrs:
        rendered = ", ".join(
            f"{k}={v}" for k, v in sorted(span_obj.attrs.items())
        )
        line += f"  [{rendered}]"
    lines = [line]
    for child in span_obj.children:
        lines.append(render(child, _depth + 1))
    return "\n".join(lines)


def flatten(span_obj: Span) -> List[Dict]:
    """Depth-first list of span dicts (without children), for assertions."""
    out: List[Dict] = []

    def walk(s: Span) -> None:
        d = s.to_dict()
        d.pop("children")
        out.append(d)
        for c in s.children:
            walk(c)

    walk(span_obj)
    return out
