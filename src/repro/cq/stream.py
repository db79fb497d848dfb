"""Push-based streams: the dataflow substrate for continuous queries.

A :class:`Stream` is a named channel of :class:`repro.events.Event`.
Operators are themselves streams that subscribe to an upstream and push
derived events downstream, so arbitrary dataflow graphs compose from
one primitive.
"""

from __future__ import annotations

from typing import Callable

from repro.events import KIND_PUNCTUATION, KIND_RETRACTION, Event, punctuation
from repro.obs.metrics import Counter, MetricsRegistry

EventSink = Callable[[Event], None]


class Stream:
    """A named event channel with fan-out."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._sinks: list[EventSink] = []
        # Private counters until a registry is bound; the hot path
        # always pays the same one-attribute-load-plus-inc either way.
        self._m_in = Counter()
        self._m_out = Counter()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

    @property
    def events_in(self) -> int:
        return self._m_in.value

    @property
    def events_out(self) -> int:
        return self._m_out.value

    def bind_metrics(self, metrics: MetricsRegistry) -> "Stream":
        """Export this stream's in/out counts through a registry,
        labelled by stream name; returns self for chaining."""
        self._m_in = metrics.adopt(self._m_in, "cq.events_in", stream=self.name)
        self._m_out = metrics.adopt(self._m_out, "cq.events_out", stream=self.name)
        return self

    def subscribe(self, sink: EventSink) -> "Stream":
        """Attach a downstream consumer; returns self for chaining."""
        self._sinks.append(sink)
        return self

    def unsubscribe(self, sink: EventSink) -> None:
        self._sinks.remove(sink)

    def push(self, event: Event) -> None:
        """Inject an event; the default stream forwards unchanged."""
        self._m_in.inc()
        self.emit(event)

    def punctuate(self, watermark: float) -> None:
        """Inject a watermark punctuation: a promise that no further
        data events with ``timestamp < watermark`` will be pushed."""
        self.push(punctuation(watermark, source=self.name))

    def emit(self, event: Event) -> None:
        """Deliver an event to every subscriber."""
        self._m_out.inc()
        for sink in self._sinks:
            sink(event)


class Operator(Stream):
    """A stream derived from an upstream stream.

    Subclasses implement :meth:`process`; construction wires the
    subscription so graphs are built by just instantiating operators.

    Message kinds route separately: data events reach :meth:`process`;
    punctuation reaches :meth:`on_punctuation` (default: forward, so
    watermarks traverse stateless operators untouched); retractions
    reach :meth:`on_retraction` (default: forward unprocessed —
    operators that can *compensate*, e.g. filters and views, override
    it).
    """

    def __init__(self, name: str, upstream: Stream) -> None:
        super().__init__(name)
        self.upstream = upstream
        upstream.subscribe(self.push)

    def push(self, event: Event) -> None:
        self._m_in.inc()
        if event.kind == KIND_PUNCTUATION:
            self.on_punctuation(event)
        elif event.kind == KIND_RETRACTION:
            self.on_retraction(event)
        else:
            self.process(event)

    def process(self, event: Event) -> None:
        raise NotImplementedError

    def on_punctuation(self, event: Event) -> None:
        """Handle a watermark punctuation; default forwards it."""
        self.emit(event)

    def on_retraction(self, event: Event) -> None:
        """Handle a retraction; default forwards it unprocessed."""
        self.emit(event)

    def detach(self) -> None:
        """Disconnect from the upstream (stops receiving events)."""
        self.upstream.unsubscribe(self.push)
