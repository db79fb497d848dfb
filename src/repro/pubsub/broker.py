"""The pub/sub broker: topics, subscriptions, application activation.

Local message consumption per §2.2.d.i: durable subscribers' events are
spooled in database-backed queues; when a subscriber attaches a
listener the broker *activates* it — drains its backlog and then
invokes it inline for each new delivery, exactly the "message store may
have to activate applications as needed" behaviour.  Drains and
:meth:`PubSubBroker.fetch` end in the settle body every queue consumer
shares (:mod:`repro.queues.settle`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import PubSubError
from repro.events import KIND_DATA, Event
from repro.faults import PUBSUB_CONSUMER
from repro.obs.metrics import Counter
from repro.obs.trace import record_hop
from repro.pubsub.subscription import Callback, SubscriptionMatcher, TopicSubscription
from repro.pubsub.topic import Topic
from repro.queues.broker import QueueBroker
from repro.queues.message import Message
from repro.queues.settle import Settler
from repro.rules.engine import event_context
from repro.rules.rule import pattern_matches

if TYPE_CHECKING:
    from repro.db.database import Database

#: Spooled messages a durable drain takes per ``consume_batch``.
DRAIN_BATCH = 64


def _event_to_payload(topic: str, event: Event) -> dict[str, Any]:
    return {
        "topic": topic,
        "event_type": event.event_type,
        "timestamp": event.timestamp,
        "payload": {
            key: value
            for key, value in event.payload.items()
            if _jsonable(value)
        },
        "source": event.source,
        "trace_id": event.trace_id,
        "kind": event.kind,
    }


def _jsonable(value: Any) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


def _payload_to_event(data: dict[str, Any]) -> Event:
    return Event(
        event_type=data["event_type"],
        timestamp=data["timestamp"],
        payload=data["payload"],
        source=data.get("source", ""),
        trace_id=data.get("trace_id"),
        kind=data.get("kind", KIND_DATA),
    )


class PubSubBroker:
    """Topics + subscriptions over one database.

    Subscription filters are rules in the predicate index
    (:class:`SubscriptionMatcher`); a publish evaluates only the
    candidates the index admits and delivers in subscription
    registration order, which callbacks can observe.

    Durable subscriptions spool through ``queues``: a ``QueueBroker``
    over ``db`` unless another broker with its surface is given.  The
    sharded form is ``PubSubBroker(fleet.engine,
    queues=ShardedQueueBroker(fleet))``: topics, matching, callbacks and
    counters stay in the coordinator process (``fleet.engine.obs``), and
    each ``sub_<name>`` spool lives on the shard its name hashes to.
    """

    def __init__(
        self, db: Database, *, name: str = "pubsub", queues: Any = None
    ) -> None:
        self.db = db
        self.name = name
        self.queues = (
            queues if queues is not None else QueueBroker(db, name=f"{name}-queues")
        )
        self._matcher = SubscriptionMatcher()
        self._listeners: dict[str, Callback] = {}
        obs = db.obs
        self.stats = obs.view(
            "pubsub", "published", "delivered", "spooled", broker=name
        )
        self._m_published, self._m_delivered, self._m_spooled = (
            self.stats.counters.values()
        )
        self._m_filtered_out = obs.counter("pubsub.filtered_out", broker=name)
        self._m_suppressed = obs.counter("pubsub.suppressed", broker=name)

    # -- topics ---------------------------------------------------------------

    def create_topic(self, name: str, *, retain: bool = False) -> Topic:
        return self._matcher.create_topic(name, retain=retain)

    def topic(self, name: str) -> Topic:
        return self._matcher.topic(name)

    def topic_names(self) -> list[str]:
        return sorted(self._matcher.topics)

    # -- subscriptions ------------------------------------------------------------

    def subscribe(
        self,
        subscriber: str,
        topic_pattern: str,
        *,
        content_filter: str | None = None,
        durable: bool = False,
        callback: Callback | None = None,
    ) -> TopicSubscription:
        """Register a subscription.

        Nondurable subscriptions require a callback.  Durable ones get a
        backing queue named ``sub_<subscriber>``; attach a listener (or
        poll :meth:`fetch`) to consume.  A durable subscriber receives a
        topic's retained event immediately upon subscribing.
        """
        self._matcher.check_vacant(subscriber)
        if not durable and callback is None:
            raise PubSubError(
                "a nondurable subscription needs a callback (it has no queue)"
            )
        subscription = TopicSubscription.build(
            subscriber,
            topic_pattern,
            content_filter=content_filter,
            durable=durable,
            callback=callback,
        )
        if durable:
            subscription.queue_name = f"sub_{subscriber.lower()}"
            self.queues.create_queue_or_attach(subscription.queue_name)
        self._matcher.add(subscription)
        # Retained state for late durable/callback subscribers.
        for topic in self._matcher.topics.values():
            if topic.retained is None or not pattern_matches(
                subscription.topic_pattern, topic.name
            ):
                continue
            if subscription.rule.compiled_condition(event_context(topic.retained)):
                self._deliver(subscription, topic.name, topic.retained)
            else:
                self._m_filtered_out.inc()
        return subscription

    def unsubscribe(self, subscriber: str) -> None:
        self._matcher.remove(subscriber)
        self._listeners.pop(subscriber, None)

    def subscription(self, subscriber: str) -> TopicSubscription:
        return self._matcher.subscription(subscriber)

    # -- publication ----------------------------------------------------------------

    def interested_consumers(self, topic_name: str, event: Event) -> list[str]:
        """Subscribe-to-publish (§2.2.c.i.1): who would receive ``event``
        on this topic, in delivery order?  Delivers nothing."""
        topic = self.topic(topic_name)
        return [s.subscriber for s in self._matcher.match(topic.name, event)]

    def publish_lazy(
        self, topic_name: str, probe: Event, build: Callable[[], Event]
    ) -> int:
        """Probe with the cheap attributes filters read; build and
        publish the full event only if someone is interested.  A skipped
        build counts in ``pubsub.suppressed``.  Returns deliveries."""
        if not self.interested_consumers(topic_name, probe):
            self._m_suppressed.inc()
            return 0
        return self.publish(topic_name, build())

    def publish(self, topic_name: str, event: Event) -> int:
        """Publish to a topic; returns the number of deliveries.

        Subscriptions receive the event in registration order.
        """
        topic = self.topic(topic_name)
        topic.record(event)
        self._m_published.inc()
        record_hop(
            event.trace_id,
            "pubsub.publish",
            self.db.clock.now(),
            broker=self.name,
            topic=topic.name,
        )
        matched = self._matcher.match(topic.name, event)
        self._m_filtered_out.inc(self._matcher.subscribed(topic.name) - len(matched))
        for subscription in matched:
            self._deliver(subscription, topic.name, event)
        return len(matched)

    def _deliver(
        self, subscription: TopicSubscription, topic_name: str, event: Event
    ) -> None:
        subscription.delivered += 1
        if subscription.durable:
            # Carry the event's trace id in the spool message's headers
            # so queue hops and redeliveries stay on the same trace.
            self.queues.publish(
                subscription.queue_name,
                Message(
                    payload=_event_to_payload(topic_name, event),
                    headers=(
                        {"trace_id": event.trace_id}
                        if event.trace_id is not None
                        else {}
                    ),
                ),
            )
            self._m_spooled.inc()
            listener = self._listeners.get(subscription.subscriber)
            if listener is not None:
                self._drain(subscription, listener)
        else:
            subscription.callback(event)
            self._m_delivered.inc()
            record_hop(
                event.trace_id,
                "pubsub.deliver",
                self.db.clock.now(),
                broker=self.name,
                subscriber=subscription.subscriber,
            )

    # -- consumption / application activation ------------------------------------------

    def attach_listener(self, subscriber: str, callback: Callback) -> int:
        """Activate an application for a durable subscription.

        Drains the backlog immediately (returns how many events were
        replayed) and keeps delivering inline as new events arrive,
        until :meth:`detach_listener`.
        """
        subscription = self.subscription(subscriber)
        if not subscription.durable:
            raise PubSubError(
                "attach_listener applies to durable subscriptions only"
            )
        self._listeners[subscriber] = callback
        return self._drain(subscription, callback)

    def detach_listener(self, subscriber: str) -> None:
        self._listeners.pop(subscriber, None)

    def _settler(self, subscription: TopicSubscription) -> Settler:
        """A spool's settle policy: no dead letters, no retry hop."""
        return Settler(
            self.queues,
            subscription.queue_name,
            subscription.subscriber,
            self.db.clock,
            self._m_delivered,
            Counter(),  # a requeue counts as queue.requeued only
            Counter(),
            "pubsub.deliver",
            labels={"broker": self.name, "subscriber": subscription.subscriber},
        )

    def _drain(self, subscription: TopicSubscription, callback: Callback) -> int:
        """Deliver the spool's backlog to ``callback``, ``DRAIN_BATCH``
        messages per consume.  A raising callback is counted, its message
        and the untried rest of the batch are requeued, and the exception
        re-raises (the activation contract)."""
        settler = self._settler(subscription)
        drained = 0
        while True:
            messages = self.queues.consume_batch(
                subscription.queue_name,
                DRAIN_BATCH,
                principal=subscription.subscriber,
            )
            for index, message in enumerate(messages):
                event = _payload_to_event(message.payload)
                try:
                    self._fire_consumer_failpoint(subscription, event)
                    callback(event)
                except Exception as exc:
                    # Accounted for before the requeue, so the failure is
                    # never invisible even if the caller swallows it.
                    self.db.obs.record_error("pubsub.drain", exc)
                    settler.settle(
                        messages,
                        dict.fromkeys(
                            [m.message_id for m in messages[index:]], str(exc)
                        ),
                    )
                    raise
            drained += len(settler.settle(messages))
            if len(messages) < DRAIN_BATCH:
                return drained

    def _fire_consumer_failpoint(
        self, subscription: TopicSubscription, event: Event
    ) -> None:
        """Hit the ``pubsub.consumer`` failpoint (fault-injection tests
        model a crashing activated application here)."""
        faults = self.db.faults
        if faults is not None:
            faults.fire(
                PUBSUB_CONSUMER,
                broker=self,
                subscriber=subscription.subscriber,
                event=event,
            )

    def fetch(self, subscriber: str) -> Event | None:
        """Pull one spooled event for a durable subscription (manual
        consumption instead of listener activation)."""
        subscription = self.subscription(subscriber)
        if not subscription.durable:
            raise PubSubError("fetch applies to durable subscriptions only")
        messages = self.queues.consume_batch(
            subscription.queue_name, 1, principal=subscriber
        )
        self._settler(subscription).settle(messages)
        return _payload_to_event(messages[0].payload) if messages else None

    def backlog(self, subscriber: str) -> int:
        subscription = self.subscription(subscriber)
        if not subscription.durable:
            return 0
        return self.queues.depth(subscription.queue_name)
