"""The pub/sub broker: topics, subscriptions, application activation.

Local message consumption per §2.2.d.i: durable subscribers' events are
spooled in database-backed queues; when a subscriber attaches a
listener the broker *activates* it — drains its backlog and then
invokes it inline for each new delivery, exactly the "message store may
have to activate applications as needed" behaviour.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import PubSubError, TopicNotFoundError
from repro.events import KIND_DATA, Event
from repro.faults import PUBSUB_CONSUMER
from repro.obs.trace import record_hop
from repro.pubsub.subscription import Callback, TopicSubscription
from repro.pubsub.topic import Topic, topic_matches
from repro.queues.broker import QueueBroker
from repro.queues.message import Message

if TYPE_CHECKING:
    from repro.db.database import Database


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
    """Topics + subscriptions over one database."""

    def __init__(self, db: Database, *, name: str = "pubsub") -> None:
        self.db = db
        self.name = name
        self.queues = QueueBroker(db, name=f"{name}-queues")
        self._topics: dict[str, Topic] = {}
        self._subscriptions: dict[str, TopicSubscription] = {}
        self._listeners: dict[str, Callback] = {}
        self.stats = {"published": 0, "delivered": 0, "spooled": 0}
        obs = db.obs
        self._m_published = obs.counter("pubsub.published", broker=name)
        self._m_delivered = obs.counter("pubsub.delivered", broker=name)
        self._m_spooled = obs.counter("pubsub.spooled", broker=name)

    # -- topics ---------------------------------------------------------------

    def create_topic(self, name: str, *, retain: bool = False) -> Topic:
        name = name.lower()
        if name in self._topics:
            raise PubSubError(f"topic {name!r} already exists")
        topic = Topic(name, retain=retain)
        self._topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name.lower()]
        except KeyError:
            raise TopicNotFoundError(f"topic {name!r} does not exist") from None

    def topic_names(self) -> list[str]:
        return sorted(self._topics)

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
        if subscriber in self._subscriptions:
            raise PubSubError(f"subscriber {subscriber!r} already registered")
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
            queue_name = f"sub_{subscriber.lower()}"
            if not self.queues.has_queue(queue_name):
                self.queues.create_queue(queue_name)
            subscription.queue_name = queue_name
        self._subscriptions[subscriber] = subscription
        # Retained state for late durable/callback subscribers.
        for topic in self._topics.values():
            if topic.retained is not None and topic_matches(
                subscription.topic_pattern, topic.name
            ):
                if subscription.accepts(topic.retained):
                    self._deliver(subscription, topic.name, topic.retained)
        return subscription

    def unsubscribe(self, subscriber: str) -> None:
        subscription = self._subscriptions.pop(subscriber, None)
        if subscription is None:
            raise PubSubError(f"subscriber {subscriber!r} is not registered")
        self._listeners.pop(subscriber, None)

    def subscription(self, subscriber: str) -> TopicSubscription:
        try:
            return self._subscriptions[subscriber]
        except KeyError:
            raise PubSubError(
                f"subscriber {subscriber!r} is not registered"
            ) from None

    # -- publication ----------------------------------------------------------------

    def publish(self, topic_name: str, event: Event) -> int:
        """Publish to a topic; returns the number of deliveries."""
        topic = self.topic(topic_name)
        topic.record(event)
        self.stats["published"] += 1
        self._m_published.inc()
        record_hop(
            event.trace_id,
            "pubsub.publish",
            self.db.clock.now(),
            broker=self.name,
            topic=topic.name,
        )
        deliveries = 0
        for subscription in self._subscriptions.values():
            if not topic_matches(subscription.topic_pattern, topic.name):
                continue
            if not subscription.accepts(event):
                continue
            self._deliver(subscription, topic.name, event)
            deliveries += 1
        return deliveries

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
            self.stats["spooled"] += 1
            self._m_spooled.inc()
            listener = self._listeners.get(subscription.subscriber)
            if listener is not None:
                self._drain(subscription, listener)
        else:
            subscription.callback(event)
            self.stats["delivered"] += 1
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

    def _drain(self, subscription: TopicSubscription, callback: Callback) -> int:
        drained = 0
        while True:
            message = self.queues.consume(
                subscription.queue_name, principal=subscription.subscriber
            )
            if message is None:
                return drained
            event = _payload_to_event(message.payload)
            try:
                self._fire_consumer_failpoint(subscription, event)
                callback(event)
            except Exception as exc:
                # The raising callback is accounted for before the
                # message is requeued and the exception re-raised to the
                # caller (the activation contract): the failure is never
                # invisible even if the caller swallows it.
                self.db.obs.record_error("pubsub.drain", exc)
                self.queues.requeue(
                    subscription.queue_name,
                    message.message_id,
                    principal=subscription.subscriber,
                )
                raise
            self.queues.ack(
                subscription.queue_name,
                message.message_id,
                principal=subscription.subscriber,
            )
            self.stats["delivered"] += 1
            self._m_delivered.inc()
            record_hop(
                event.trace_id,
                "pubsub.deliver",
                self.db.clock.now(),
                broker=self.name,
                subscriber=subscription.subscriber,
            )
            drained += 1

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
        message = self.queues.consume(
            subscription.queue_name, principal=subscriber
        )
        if message is None:
            return None
        self.queues.ack(
            subscription.queue_name, message.message_id, principal=subscriber
        )
        self.stats["delivered"] += 1
        self._m_delivered.inc()
        event = _payload_to_event(message.payload)
        record_hop(
            event.trace_id,
            "pubsub.deliver",
            self.db.clock.now(),
            broker=self.name,
            subscriber=subscriber,
        )
        return event

    def backlog(self, subscriber: str) -> int:
        subscription = self.subscription(subscriber)
        if not subscription.durable:
            return 0
        return self.queues.queue(subscription.queue_name).depth()
