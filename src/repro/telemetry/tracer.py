"""Deterministic virtual-time span tracing.

Every layer a request crosses — gateway queueing, scheduler dispatch,
secure-channel crypto, HEVM execution, memory swaps, ORAM accesses —
charges its cost to the shared :class:`~repro.hardware.timing.SimClock`.
This module turns those charges into a *span tree*: each span covers an
exact virtual-time interval, nests under whatever span was active when
it was created, and carries structured attributes (session ids, opcode
counts, fault events).  Because all time is virtual and single-threaded,
spans nest strictly and a span's *exclusive* time (duration minus its
children) attributes every microsecond of a request to exactly one
layer — the substrate for :mod:`repro.telemetry.critical_path`.

Tracers are looked up, not threaded: :func:`install_tracer` registers a
tracer against a clock in a weak registry and instrumented code calls
:func:`tracer_for` at each site.  With no tracer installed the lookup
returns :data:`NULL_TRACER`, whose operations are no-ops, so tracing
adds no state — and in particular never touches the clock — when off.
That invariant is what keeps traced and untraced runs byte-identical in
their results, and it is why instrumentation must always *record* spans
around existing ``advance_us`` calls rather than introduce new ones.

Two clock domains meet in one trace: the gateway keeps its own virtual
arrival clock while the device stack runs on the service's
:class:`SimClock`.  Executors bridge them by entering
:meth:`Tracer.shifted` with the (gateway − device) offset before
descending; each span snapshots the active shift at creation, and the
exporters add it back so device-side spans land inside their gateway
parent on a single timeline.

Determinism: span ids are allocated sequentially, sampling decisions
come from a seeded :class:`~repro.crypto.kdf.Drbg` drawn once per
request in submission order, and no wall-clock source is consulted
anywhere — two identically seeded runs produce byte-identical exports.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.crypto.kdf import Drbg


@dataclass(slots=True)
class SpanEvent:
    """A point-in-time annotation on a span (fault fired, failover, ...)."""

    name: str
    at_us: float
    attributes: dict[str, object] = field(default_factory=dict)


@dataclass(slots=True)
class Span:
    """One timed operation: a half-open virtual-time interval on a layer.

    ``layer`` is the attribution bucket (``execution``, ``oram_storage``,
    ``encryption``, ...) the span's exclusive time is charged to.
    ``shift_us`` maps the span's clock domain onto the root timeline;
    exporters render the span at ``start_us + shift_us``.
    """

    span_id: int
    parent_id: int | None
    name: str
    layer: str
    start_us: float
    end_us: float | None = None
    shift_us: float = 0.0
    attributes: dict[str, object] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        return 0.0 if self.end_us is None else self.end_us - self.start_us

    def set(self, **attributes: object) -> "Span":
        self.attributes.update(attributes)
        return self

    def event(self, name: str, at_us: float, **attributes: object) -> "Span":
        self.events.append(SpanEvent(name, at_us, dict(attributes)))
        return self


class _NullSpan:
    """Inert span handed out while tracing is off or suppressed."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = "null"
    layer = "null"
    start_us = 0.0
    end_us = 0.0
    shift_us = 0.0
    duration_us = 0.0
    attributes: dict[str, object] = {}
    events: tuple = ()

    def set(self, **attributes: object) -> "_NullSpan":
        return self

    def event(self, name: str, at_us: float, **attributes: object) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


@dataclass
class TraceContext:
    """Per-request trace handle threaded through the gateway lifecycle.

    The root spans the whole request; ``queue`` and ``execute`` are its
    direct children for the admission-to-dispatch wait and the service
    call.  A request without a context was not sampled.
    """

    root: Span
    queue: Span | None = None
    execute: Span | None = None


class TraceSampler:
    """Seeded per-request sampling: deterministic across identical runs.

    One decision is drawn per :meth:`should_sample` call from a dedicated
    DRBG stream, so the set of sampled requests depends only on
    ``(seed, rate)`` and submission order — never on what was traced.
    """

    _RESOLUTION = 1_000_000

    def __init__(self, rate: float = 1.0, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = Drbg(seed.to_bytes(8, "big"), personalization=b"trace-sampler")

    def should_sample(self) -> bool:
        # Draw even at rate 1.0 so changing the rate never re-aligns the
        # stream mid-run.
        draw = self._rng.randint(self._RESOLUTION)
        return draw < int(self.rate * self._RESOLUTION)


class Tracer:
    """Collects spans against one clock; the active-span stack gives nesting.

    Three creation styles cover every instrumentation site:

    - ``with tracer.span(...)``: brackets a code block whose clock
      charges happen inside it (bundle execution, sync).
    - :meth:`record`: a known-duration span laid down *before* the
      matching ``clock.advance_us`` — the record-then-advance pattern
      used everywhere a cost is a single number.
    - :meth:`start_span` / :meth:`end_span`: open-ended spans whose end
      arrives later via the event queue (gateway request lifecycle).
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        sampler: TraceSampler | None = None,
    ) -> None:
        self._clock = clock
        self.sampler = sampler
        self.spans: list[Span] = []
        self._next_id = 1
        self._stack: list[Span] = []
        self._shift_us = 0.0
        self._suppressed = 0

    # -- time & context -------------------------------------------------

    def now_us(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    @property
    def shift_us(self) -> float:
        """The currently active clock-domain shift (see :meth:`shifted`).

        Needed when annotating a span from *another* domain (e.g. a
        fault event on the gateway's execute span, timed by the device
        clock): pre-shift the timestamp with this value.
        """
        return self._shift_us

    @property
    def active(self) -> Span | None:
        """The innermost open span, or ``None`` outside any context."""
        if self._suppressed or not self._stack:
            return None
        return self._stack[-1]

    # -- span creation --------------------------------------------------

    def start_span(
        self,
        name: str,
        layer: str,
        *,
        start_us: float | None = None,
        parent: Span | None = None,
        attributes: dict[str, object] | None = None,
    ) -> Span:
        """Open a span; the caller ends it via :meth:`end_span`.

        Without an explicit ``parent`` the span nests under the active
        context (or becomes a root if there is none).
        """
        if self._suppressed:
            return NULL_SPAN  # type: ignore[return-value]
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=None if parent is None or parent is NULL_SPAN else parent.span_id,
            name=name,
            layer=layer,
            start_us=self.now_us() if start_us is None else start_us,
            shift_us=self._shift_us,
            attributes=dict(attributes) if attributes else {},
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end_span(self, span: Span, end_us: float | None = None) -> None:
        if span is NULL_SPAN:
            return
        span.end_us = self.now_us() if end_us is None else end_us

    @contextmanager
    def span(self, name: str, layer: str, **attributes: object) -> Iterator[Span]:
        """Bracket a block: starts now, becomes the active context, ends
        at the clock's position when the block exits (even on error)."""
        if self._suppressed:
            yield NULL_SPAN  # type: ignore[misc]
            return
        opened = self.start_span(name, layer, attributes=attributes)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            self._stack.pop()
            opened.end_us = self.now_us()

    def record(
        self,
        name: str,
        layer: str,
        duration_us: float,
        *,
        start_us: float | None = None,
        **attributes: object,
    ) -> Span:
        """A completed span of known duration starting at the clock's now.

        Call *before* the matching ``clock.advance_us(duration_us)`` so
        the span covers exactly the interval the advance will consume.
        """
        if self._suppressed:
            return NULL_SPAN  # type: ignore[return-value]
        start = self.now_us() if start_us is None else start_us
        span = self.start_span(name, layer, start_us=start, attributes=attributes)
        span.end_us = start + duration_us
        return span

    # -- context plumbing ----------------------------------------------

    @contextmanager
    def attach(self, span: Span) -> Iterator[Span]:
        """Make an already-open span the parent context without owning
        its lifetime (the gateway's execute span around the executor)."""
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()

    @contextmanager
    def suppressed(self) -> Iterator[None]:
        """Drop all spans created inside: the path for unsampled requests
        (device-side spans would otherwise become orphan roots)."""
        self._suppressed += 1
        try:
            yield
        finally:
            self._suppressed -= 1

    @contextmanager
    def shifted(self, delta_us: float) -> Iterator[None]:
        """Offset spans created inside by ``delta_us`` on the exported
        timeline — the bridge between gateway time and device time."""
        previous = self._shift_us
        self._shift_us = previous + delta_us
        try:
            yield
        finally:
            self._shift_us = previous

    # -- sampling ------------------------------------------------------

    def sample(self) -> bool:
        """Draw one per-request sampling decision (True without a sampler)."""
        return True if self.sampler is None else self.sampler.should_sample()


class _NullTracer(Tracer):
    """The tracer handed out when none is installed: every operation is
    a no-op and no state accumulates, so uninstrumented runs behave —
    and cost — exactly as before tracing existed."""

    enabled = False

    def start_span(self, name, layer, *, start_us=None, parent=None, attributes=None):
        return NULL_SPAN

    def end_span(self, span, end_us=None):
        return None

    @contextmanager
    def span(self, name, layer, **attributes):
        yield NULL_SPAN

    def record(self, name, layer, duration_us, *, start_us=None, **attributes):
        return NULL_SPAN

    @contextmanager
    def attach(self, span):
        yield span

    @contextmanager
    def suppressed(self):
        yield

    @contextmanager
    def shifted(self, delta_us):
        yield

    @property
    def active(self):
        return None

    def sample(self):
        return True


NULL_TRACER = _NullTracer()

# Keyed weakly off the clock object: a tracer never outlives the
# simulation it observes, and lookups from hardware layers need no
# constructor plumbing.
_TRACERS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def install_tracer(clock, sampler: TraceSampler | None = None) -> Tracer:
    """Register (and return) a tracer observing ``clock``.

    ``clock`` is a :class:`~repro.hardware.timing.SimClock`; every
    instrumented layer that shares it reports to this tracer.
    """
    tracer = Tracer(clock=lambda: clock.now_us, sampler=sampler)
    _TRACERS[clock] = tracer
    return tracer


def tracer_for(clock) -> Tracer:
    """The tracer installed for ``clock``, or :data:`NULL_TRACER`."""
    if clock is None:
        return NULL_TRACER
    return _TRACERS.get(clock, NULL_TRACER)


def uninstall_tracer(clock) -> None:
    _TRACERS.pop(clock, None)


__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "SpanEvent",
    "TraceContext",
    "TraceSampler",
    "Tracer",
    "install_tracer",
    "tracer_for",
    "uninstall_tracer",
]
