"""Multi-hop routing with failures; at-least-once delivery manager."""

import pytest

from repro.db import Database
from repro.errors import DeliveryError, FaultInjectedError, RoutingError
from repro.events import Event
from repro.faults import BROKER_PUBLISH, FaultInjector, on_hit, raise_fault
from repro.pubsub import DeliveryManager, PubSubBroker, Router, StagingTopology
from repro.queues import QueueBroker


@pytest.fixture
def topology(clock):
    topology = StagingTopology()
    for name in ("field", "region", "plant", "hq"):
        topology.add_area(name, PubSubBroker(Database(clock=clock), name=name))
    topology.add_link("field", "region", latency=1.0)
    topology.add_link("region", "hq", latency=1.0)
    topology.add_link("field", "plant", latency=5.0)
    topology.add_link("plant", "hq", latency=5.0)
    return topology


class TestTopology:
    def test_duplicate_area_rejected(self, topology, clock):
        with pytest.raises(RoutingError):
            topology.add_area("hq", PubSubBroker(Database(clock=clock)))

    def test_link_requires_areas(self, topology):
        with pytest.raises(RoutingError):
            topology.add_link("hq", "mars")

    def test_shortest_path_by_latency(self, topology):
        path, cost = topology.shortest_path("field", "hq")
        assert path == ["field", "region", "hq"]
        assert cost == 2.0

    def test_failed_link_excluded(self, topology):
        topology.fail_link("region", "hq")
        path, cost = topology.shortest_path("field", "hq")
        assert path == ["field", "plant", "hq"]
        assert cost == 10.0

    def test_restore_link(self, topology):
        topology.fail_link("region", "hq")
        topology.restore_link("region", "hq")
        assert topology.shortest_path("field", "hq")[1] == 2.0

    def test_partition_raises(self, topology):
        topology.fail_link("region", "hq")
        topology.fail_link("plant", "hq")
        with pytest.raises(RoutingError):
            topology.shortest_path("field", "hq")

    def test_fail_unknown_link(self, topology):
        with pytest.raises(RoutingError):
            topology.fail_link("hq", "field")  # reverse edge never existed


class TestRouter:
    def test_delivers_to_destination_topic(self, topology):
        router = Router(topology)
        hq = topology.broker("hq")
        hq.create_topic("hazmat")
        inbox = []
        hq.subscribe("ops", "hazmat", callback=inbox.append)
        info = router.route(
            Event("leak", 1.0, {"site": "A"}),
            source="field", dest="hq", topic="hazmat",
        )
        assert info["path"] == ["field", "region", "hq"]
        assert len(inbox) == 1
        assert inbox[0]["route_path"] == ["field", "region", "hq"]

    def test_transit_observable_at_intermediate_hops(self, topology):
        router = Router(topology)
        region = topology.broker("region")
        region.create_topic("hazmat.transit")
        seen = []
        region.subscribe("tap", "hazmat.transit", callback=seen.append)
        router.route(Event("leak", 1.0, {}), source="field", dest="hq", topic="hazmat")
        assert len(seen) == 1

    def test_reroutes_around_failure(self, topology):
        router = Router(topology)
        topology.fail_link("region", "hq")
        info = router.route(
            Event("leak", 1.0, {}), source="field", dest="hq", topic="hazmat"
        )
        assert info["path"] == ["field", "plant", "hq"]

    def test_unroutable_counted_and_raised(self, topology):
        router = Router(topology)
        topology.fail_link("region", "hq")
        topology.fail_link("plant", "hq")
        with pytest.raises(RoutingError):
            router.route(Event("leak", 1.0, {}), source="field", dest="hq", topic="t")
        assert router.stats["failed"] == 1


@pytest.fixture
def work_queue(db):
    broker = QueueBroker(db)
    broker.create_queue("work")
    return broker


class TestDeliveryManager:
    def test_explicit_ack_protocol(self, work_queue):
        manager = DeliveryManager(work_queue, "work")
        work_queue.publish("work", {"job": 1})
        message = manager.deliver()
        manager.ack(message.message_id)
        assert work_queue.queue("work").depth() == 0
        assert manager.deliver() is None

    def test_double_ack_rejected(self, work_queue):
        manager = DeliveryManager(work_queue, "work")
        work_queue.publish("work", "x")
        message = manager.deliver()
        manager.ack(message.message_id)
        with pytest.raises(DeliveryError):
            manager.ack(message.message_id)

    def test_timeout_redelivers(self, work_queue, clock):
        manager = DeliveryManager(work_queue, "work", ack_timeout=10.0)
        work_queue.publish("work", "x")
        manager.deliver()  # never acked
        clock.advance(11.0)
        assert manager.check_timeouts() == 1
        assert manager.deliver() is not None
        assert manager.stats["redelivered"] == 1

    def test_nack_requeues_with_delay(self, work_queue, clock):
        manager = DeliveryManager(work_queue, "work")
        work_queue.publish("work", "x")
        message = manager.deliver()
        manager.nack(message.message_id, delay=5.0)
        assert manager.deliver() is None
        clock.advance(6.0)
        assert manager.deliver() is not None

    def test_poison_message_dead_lettered(self, work_queue):
        manager = DeliveryManager(
            work_queue, "work", max_attempts=3, dead_letter_queue="dead"
        )
        work_queue.publish("work", {"poison": True})
        work_queue.publish("work", {"fine": True})
        consumed = []

        def consumer(message):
            if message.payload.get("poison"):
                raise ValueError("cannot process")
            consumed.append(message.payload)

        total = 0
        for _ in range(5):
            total += manager.process_batch(consumer)
        assert consumed == [{"fine": True}]
        assert manager.stats["dead_lettered"] == 1
        dead = work_queue.consume("dead")
        assert dead.payload == {"poison": True}
        assert work_queue.queue("work").depth() == 0

    def test_no_message_lost_under_failures(self, work_queue):
        """Every message ends consumed-or-dead-lettered, never dropped."""
        manager = DeliveryManager(
            work_queue, "work", max_attempts=2, dead_letter_queue="dead"
        )
        for i in range(20):
            work_queue.publish("work", {"n": i})
        flaky_state = {"count": 0}
        consumed = []

        def flaky(message):
            flaky_state["count"] += 1
            if flaky_state["count"] % 3 == 0:
                raise RuntimeError("intermittent")
            consumed.append(message.payload["n"])

        for _ in range(10):
            manager.process_batch(flaky)
        dead = []
        while True:
            message = work_queue.consume("dead")
            if message is None:
                break
            dead.append(message.payload["n"])
        assert sorted(consumed + dead) == list(range(20))

    def test_dead_letter_carries_origin_message_id(self, work_queue):
        manager = DeliveryManager(
            work_queue, "work", max_attempts=1, dead_letter_queue="dead"
        )
        origin_id = work_queue.publish("work", {"poison": True})

        def consumer(message):
            raise ValueError("cannot process")

        manager.process_batch(consumer)
        dead = work_queue.consume("dead")
        assert dead.headers["origin_message_id"] == origin_id
        assert dead.headers["origin_queue"] == "work"

    def test_unreadable_row_dead_letters_a_tombstone(self, work_queue):
        """Regression: a message whose row vanished out from under the
        delivery manager must leave a tombstone in the DLQ, not vanish
        silently."""
        manager = DeliveryManager(
            work_queue, "work", max_attempts=2, dead_letter_queue="dead"
        )
        message_id = work_queue.publish("work", {"n": 1})
        delivered = manager.deliver()
        assert delivered.message_id == message_id
        # Sabotage: delete the backing row while the delivery is
        # outstanding (models table damage / manual intervention).
        queue = work_queue.queue("work")
        work_queue.db.delete_row(queue.table_name, message_id)

        manager.nack(message_id)
        tombstone = work_queue.consume("dead")
        assert tombstone is not None, "loss was not recorded"
        assert tombstone.payload is None
        assert tombstone.headers["tombstone"] is True
        assert tombstone.headers["origin_message_id"] == message_id
        assert tombstone.headers["origin_queue"] == "work"
        assert tombstone.headers["dead_letter_reason"] == "message row unreadable"
        assert manager.stats["dead_lettered"] == 1
        # The delivery manager is healthy afterwards: nothing pending.
        assert manager.deliver() is None

    def test_failed_dead_letter_publish_settles_the_rest(self, clock):
        """Regression: one failed dead-letter publish left the rest of
        the batch unconsumed, the failed message LOCKED with no pending
        entry, and the deadline sweep dead-lettering the others."""
        injector = FaultInjector()
        broker = QueueBroker(Database(clock=clock, faults=injector))
        broker.create_queue("work")
        manager = DeliveryManager(
            broker, "work", ack_timeout=5, max_attempts=1, dead_letter_queue="dead"
        )
        assert broker.publish_batch("work", [1, 2, 3]) == [1, 2, 3]
        consumed = []

        def consumer(message):
            if message.payload == 2:
                raise ValueError("cannot process")
            consumed.append(message.payload)

        injector.arm(BROKER_PUBLISH, raise_fault("dlq down"), policy=on_hit(1))
        with pytest.raises(FaultInjectedError):
            manager.process_batch(consumer)
        assert consumed == [1, 3]
        # Message 2 is still pending: LOCKED until the deadline sweep
        # settles it again.
        left = list(broker.queue("work").browse(include_locked=True))
        assert [m.message_id for m in left] == [2]
        assert manager.process_batch(consumer) == 0
        assert broker.queue("dead").depth() == 0
        clock.advance(10.0)
        assert manager.process_batch(consumer) == 0
        assert consumed == [1, 3]
        dead = [m.headers["origin_message_id"] for m in broker.queue("dead").browse()]
        assert dead == [2]
        assert list(broker.queue("work").browse(include_locked=True)) == []
        assert manager.stats["dead_lettered"] == 1
