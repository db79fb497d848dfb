"""Rules technology for evaluating critical conditions (paper §2.2.c).

* :class:`Rule` — a stored condition ("expressions as data",
  §2.2.c.i.2) plus an action.
* :class:`PredicateIndex` — scalable evaluation of *large rule sets*
  (§2.2.c.iv.2.a): each rule is anchored under one of its conjuncts so
  an incoming event only fully evaluates rules whose anchor matches.
* :class:`RuleEngine` — evaluates external data (events presented to
  the service, §2.2.c.ii) and internal data (rows in tables, messages
  in queues, §2.2.c.iii).

Publish/subscribe and subscribe-to-publish (§2.2.c.i.1) are the same
machinery: :class:`repro.pubsub.PubSubBroker` registers each
subscription's filter as a :class:`Rule` in a :class:`PredicateIndex`
and answers ``interested_consumers`` / ``publish_lazy`` from it.
"""

from repro.rules.actions import ActionRegistry, CollectAction, EnqueueAction, NotifyAction
from repro.rules.engine import EventContext, RuleEngine, RuleMatch
from repro.rules.index import IntervalTree, PredicateIndex
from repro.rules.rule import Rule, RuleStore

__all__ = [
    "Rule",
    "RuleStore",
    "RuleEngine",
    "RuleMatch",
    "EventContext",
    "PredicateIndex",
    "IntervalTree",
    "ActionRegistry",
    "CollectAction",
    "EnqueueAction",
    "NotifyAction",
]
