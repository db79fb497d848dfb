"""The settle contract of the queue drivers, under random failures.

``Propagator`` and ``DeliveryManager`` drain one source queue while a
seeded link (or consumer) fails at random, ``max_attempts`` is 1-3, and
the ``broker.publish`` failpoint fails dead-letter publishes at random.
The clock advances past every backoff and ack deadline until the source
queue is empty.  Then every message has ended exactly once — delivered,
or dead-lettered (found by ``origin_message_id``) — none is left READY
or LOCKED, and the driver's counters add up to the number of messages.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.db import Database
from repro.errors import FaultInjectedError
from repro.faults import BROKER_PUBLISH, FaultInjector, raise_fault, with_probability
from repro.pubsub.delivery import DeliveryManager
from repro.queues import PropagationLink, Propagator, QueueBroker

#: Clock step between driver calls: past the longest backoff
#: (``max_backoff`` 30 s) and the ack deadline (``ack_timeout`` 30 s).
STEP = 31.0
#: Driver calls allowed before the run counts as stuck.
ROUNDS = 1000

scenarios = st.fixed_dictionaries(
    {
        "messages": st.integers(min_value=1, max_value=24),
        "batch": st.integers(min_value=1, max_value=8),
        "max_attempts": st.integers(min_value=1, max_value=3),
        "failure_rate": st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        "dlq_fault_rate": st.sampled_from([0.0, 0.3, 0.7]),
        "seed": st.integers(min_value=0, max_value=2**16),
    }
)


class Flaky:
    """A link's service and a consumer in one: fails each attempt with
    probability ``rate`` and records the payloads it accepted."""

    def __init__(self, rate, seed):
        self.rate = rate
        self.rng = random.Random(seed)
        self.accepted = []

    def __call__(self, message):
        if self.rng.random() < self.rate:
            raise RuntimeError("flaky")
        self.accepted.append(message.payload)

    deliver = __call__


def _source(scenario):
    """A broker whose ``src`` queue holds payloads 0..n-1, with the
    dead-letter publishes armed to fail; returns (clock, broker, ids)."""
    injector = FaultInjector(seed=scenario["seed"])
    clock = SimulatedClock(start=0.0)
    broker = QueueBroker(Database(clock=clock, faults=injector))
    broker.create_queue("src")
    ids = broker.publish_batch("src", list(range(scenario["messages"])))
    injector.arm(
        BROKER_PUBLISH,
        raise_fault("dlq down"),
        policy=with_probability(scenario["dlq_fault_rate"]),
    )
    return clock, broker, ids


def _drive(clock, broker, step):
    for _ in range(ROUNDS):
        if not list(broker.queue("src").browse(include_locked=True)):
            return
        try:
            step()
        except FaultInjectedError:
            pass  # a dead-letter publish failed; the next call retries it
        clock.advance(STEP)
    raise AssertionError("messages left READY or LOCKED in the source queue")


def _assert_each_ended_once(broker, ids, accepted, succeeded, dead_lettered):
    payload_of = dict(zip(ids, range(len(ids))))
    dead = [
        payload_of[message.headers["origin_message_id"]]
        for message in broker.queue("dlq").browse()
    ]
    assert sorted(accepted + dead) == list(range(len(ids)))
    assert succeeded + dead_lettered == len(ids)


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios)
def test_propagator_settles_every_message_once(scenario):
    clock, broker, ids = _source(scenario)
    service = Flaky(scenario["failure_rate"], scenario["seed"])
    propagator = Propagator(
        broker,
        "src",
        max_attempts=scenario["max_attempts"],
        dead_letter_queue="dlq",
    ).add_link(PropagationLink("svc", service=service))
    _drive(clock, broker, lambda: propagator.pump(batch=scenario["batch"]))
    stats = propagator.stats
    _assert_each_ended_once(
        broker, ids, service.accepted, stats["forwarded"], stats["dead_lettered"]
    )


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios)
def test_delivery_manager_settles_every_message_once(scenario):
    clock, broker, ids = _source(scenario)
    consumer = Flaky(scenario["failure_rate"], scenario["seed"])
    manager = DeliveryManager(
        broker,
        "src",
        ack_timeout=30.0,
        max_attempts=scenario["max_attempts"],
        dead_letter_queue="dlq",
    )
    _drive(
        clock,
        broker,
        lambda: manager.process_batch(consumer, batch=scenario["batch"]),
    )
    stats = manager.stats
    _assert_each_ended_once(
        broker, ids, consumer.accepted, stats["acked"], stats["dead_lettered"]
    )
