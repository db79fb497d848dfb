"""Message consumption and distribution (paper §2.2.d).

* :class:`PubSubBroker` — topics, durable/nondurable subscriptions with
  content filters, and *application activation*: the message store
  invokes registered listeners when messages arrive (§2.2.d.i).  Each
  filter is a rule in the rules' :class:`~repro.rules.PredicateIndex`
  (one per topic), which also answers subscribe-to-publish
  (``interested_consumers``, ``publish_lazy``, §2.2.c.i.1).
* :class:`StagingTopology` / :class:`Router` — multi-hop forwarding
  between staging areas with failure-aware rerouting (§2.2.d.ii.1).
* :class:`DeliveryManager` — at-least-once delivery with ack deadlines,
  redelivery, and a dead-letter queue (§2.2.d.iii.3).
"""

from repro.pubsub.broker import PubSubBroker
from repro.pubsub.delivery import DeliveryManager
from repro.pubsub.routing import Router, StagingTopology
from repro.pubsub.subscription import TopicSubscription
from repro.pubsub.topic import Topic

__all__ = [
    "Topic",
    "TopicSubscription",
    "PubSubBroker",
    "StagingTopology",
    "Router",
    "DeliveryManager",
]
