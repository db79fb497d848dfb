"""Small-unit coverage: message contexts, profiles, scorer weights,
labelled streams."""

import pytest

from repro.clock import SimulatedClock
from repro.core import RecipientProfile, VirtScorer
from repro.events import Event
from repro.queues import Message
from repro.workloads import LabeledStream


class TestMessageFilterContext:
    def test_dict_payload_flattened(self):
        message = Message(
            payload={"sev": 3, "site": "A"},
            headers={"region": "west"},
            priority=7,
            correlation_id="c1",
        )
        message.queue = "alerts"
        context = message.filter_context()
        assert context["sev"] == 3
        assert context["region"] == "west"
        assert context["priority"] == 7
        assert context["correlation_id"] == "c1"
        assert context["queue"] == "alerts"

    def test_headers_override_payload(self):
        message = Message(payload={"k": "payload"}, headers={"k": "header"})
        assert message.filter_context()["k"] == "header"

    def test_scalar_payload(self):
        context = Message(payload="just text", priority=1).filter_context()
        assert context["priority"] == 1
        assert "just text" not in context  # scalars are not flattened


class TestVirtScorerWeights:
    def test_weights_normalized(self):
        clock = SimulatedClock()
        scorer = VirtScorer(clock, weights=(5.0, 3.0, 2.0))
        assert scorer.weights == pytest.approx((0.5, 0.3, 0.2))

    def test_score_bounded_by_one_without_timeliness(self):
        clock = SimulatedClock()
        scorer = VirtScorer(clock, include_timeliness=False)
        profile = RecipientProfile("r", interests={"*": 1.0})
        score = scorer.score(Event("e", 0.0, {"score": 1e9}), profile)
        assert 0.0 <= score <= 1.0

    def test_scope_half_relevance_path(self):
        profile = RecipientProfile("r", scope={"zone": "west"})
        event = Event("e", 0.0, {"other_attr": 1})
        assert profile.relevance(event) == 0.5


class TestLabeledStream:
    def test_sorted_copy_preserves_labels(self):
        a = Event("e", 5.0, {})
        b = Event("e", 1.0, {})
        stream = LabeledStream(
            events=[a, b], episodes=[1.0], critical_event_ids={b.event_id}
        )
        ordered = stream.sorted_by_time()
        assert [e.timestamp for e in ordered.events] == [1.0, 5.0]
        assert ordered.is_critical(b)
        assert not ordered.is_critical(a)
        # The copy is independent.
        ordered.critical_event_ids.clear()
        assert stream.is_critical(b)

    def test_len_and_iter(self):
        stream = LabeledStream(events=[Event("e", 0.0, {})])
        assert len(stream) == 1
        assert [e.event_type for e in stream] == ["e"]


class TestDurableSubscriptionFilters:
    def test_filter_applies_before_spooling(self, db):
        from repro.pubsub import PubSubBroker

        broker = PubSubBroker(db)
        broker.create_topic("t")
        broker.subscribe(
            "archive", "t", durable=True, content_filter="sev >= 3"
        )
        broker.publish("t", Event("e", 0.0, {"sev": 1}))
        broker.publish("t", Event("e", 1.0, {"sev": 5}))
        assert broker.backlog("archive") == 1
        assert db.obs.counter("pubsub.filtered_out", broker="pubsub").value == 1


class TestQueueExpirationEdge:
    def test_browse_skips_expired_after_sweep(self, db, clock):
        from repro.queues import QueueTable

        queue = QueueTable(db, "q")
        queue.enqueue(Message(payload="dies", expires_at=clock.now() + 5))
        queue.enqueue("lives")
        clock.advance(10)
        queue.expire_messages()
        assert [m.payload for m in queue.browse()] == ["lives"]
