"""Tests for messages: ordering, hashing, tags."""

import pytest

from repro.model.messages import DUMMY, Message

from kernel_oracle import sort_delivery


class TestMessage:
    def test_tag_of_tuple_payload(self):
        m = Message(sent_round=1, sender=0, receiver=1,
                    payload=("ESTIMATE", 1, 5, frozenset()))
        assert m.tag == "ESTIMATE"

    def test_tag_of_scalar_payload(self):
        m = Message(sent_round=1, sender=0, receiver=1, payload=42)
        assert m.tag == 42

    def test_rejects_unhashable_payload(self):
        with pytest.raises(TypeError):
            Message(sent_round=1, sender=0, receiver=1, payload=["list"])

    def test_ordering_by_round_then_sender(self):
        early = Message(sent_round=1, sender=2, receiver=0, payload=("A",))
        late = Message(sent_round=2, sender=0, receiver=0, payload=("B",))
        peer = Message(sent_round=1, sender=1, receiver=0, payload=("C",))
        assert sort_delivery([late, early, peer]) == (peer, early, late)

    def test_payload_not_compared(self):
        a = Message(sent_round=1, sender=0, receiver=1, payload=("X",))
        b = Message(sent_round=1, sender=0, receiver=1, payload=("Y",))
        assert not a < b and not b < a

    def test_repr_is_compact(self):
        m = Message(sent_round=3, sender=1, receiver=2, payload=("T",))
        assert "r3 1->2" in repr(m)


class TestDummy:
    def test_dummy_is_tagged_tuple(self):
        assert DUMMY == ("DUMMY",)
        hash(DUMMY)


class TestSlotsAndPickling:
    """The slots layout and the fast constructor must not cost us the
    process-pool backends: messages round-trip through pickle exactly."""

    def test_messages_are_slotted(self):
        m = Message(sent_round=1, sender=0, receiver=1, payload=("T",))
        assert not hasattr(m, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            m.extra = 1  # frozen + slots: no new attributes, ever

    def test_pickle_roundtrip_all_protocols(self):
        import pickle

        m = Message(
            sent_round=3, sender=1, receiver=2,
            payload=("ESTIMATE", 3, 5, frozenset({0, 1})),
        )
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(m, protocol))
            assert clone == m
            assert clone.payload == m.payload
            assert hash(clone) == hash(m)

    def test_fast_message_equals_constructed(self):
        from repro.model.messages import fast_message

        built = Message(sent_round=2, sender=0, receiver=1, payload=("A", 7))
        fast = fast_message(2, 0, 1, ("A", 7))
        assert fast == built
        assert fast.payload == built.payload
        assert hash(fast) == hash(built)
        assert not fast < built and not built < fast

    def test_fast_message_pickles_like_constructed(self):
        import pickle

        from repro.model.messages import fast_message

        fast = fast_message(2, 0, 1, ("A", 7))
        clone = pickle.loads(pickle.dumps(fast))
        assert clone == fast
        assert clone.payload == fast.payload

    def test_frozen_rejects_mutation(self):
        import dataclasses

        m = Message(sent_round=1, sender=0, receiver=1, payload=("T",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.sender = 5
