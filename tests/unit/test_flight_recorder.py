"""Unit tests for repro.telemetry.flight: rings, sealing, determinism."""

import json

import pytest

from repro.telemetry.flight import (
    SEAL_CAUSES,
    FlightEntry,
    FlightRecorder,
    SealedDump,
)


def _fill(recorder, session=b"\x01" * 8, n=3):
    for i in range(n):
        recorder.note(session, "event", f"step-{i}", float(i), ordinal=i)
    return session


class TestRing:
    def test_entries_record_in_order(self):
        recorder = FlightRecorder()
        session = _fill(recorder)
        ring = recorder.ring_of(session)
        assert [entry.name for entry in ring] == ["step-0", "step-1", "step-2"]
        assert all(isinstance(entry, FlightEntry) for entry in ring)

    def test_capacity_bounds_the_ring(self):
        recorder = FlightRecorder(capacity=4)
        session = _fill(recorder, n=10)
        ring = recorder.ring_of(session)
        assert len(ring) == 4
        assert ring[0].name == "step-6"  # oldest entries fell off

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_sessions_are_isolated(self):
        recorder = FlightRecorder()
        _fill(recorder, session=b"a" * 8)
        _fill(recorder, session=b"b" * 8, n=1)
        assert len(recorder.ring_of(b"a" * 8)) == 3
        assert len(recorder.ring_of(b"b" * 8)) == 1
        assert recorder.session_count == 2

    def test_attr_keys_may_shadow_header_names(self):
        # The note() header is positional-only precisely so instrumentation
        # can attach attributes called kind/name without a collision.
        recorder = FlightRecorder()
        recorder.note(b"s", "event", "handshake", 0.0, kind="full", name="x")
        entry = recorder.ring_of(b"s")[0]
        assert dict(entry.data) == {"kind": "full", "name": "x"}


class TestSealing:
    def test_seal_causes_are_the_typed_failures(self):
        assert SEAL_CAUSES == {
            "BundleFailedError", "StaleTicketError",
            # Byzantine verdicts from the receipt-audit plane.
            "ReceiptMismatchError", "ReceiptMissingError",
            "QuarantinedDeviceError",
        }
        assert FlightRecorder.should_seal("StaleTicketError")
        assert FlightRecorder.should_seal("ReceiptMismatchError")
        assert not FlightRecorder.should_seal("ValueError")

    def test_seal_freezes_the_ring(self):
        recorder = FlightRecorder()
        session = _fill(recorder)
        dump = recorder.seal(session, "StaleTicketError", "epoch moved", 9.0)
        assert isinstance(dump, SealedDump)
        assert dump.cause_type == "StaleTicketError"
        assert dump.session_id == session.hex()
        assert len(dump.entries) == 3
        # The ring keeps recording after the seal; the dump does not grow.
        recorder.note(session, "event", "post-seal", 10.0)
        assert len(dump.entries) == 3

    def test_seal_if_triggered_filters_untyped_causes(self):
        recorder = FlightRecorder()
        session = _fill(recorder)
        assert recorder.seal_if_triggered(session, "ValueError", "x", 1.0) is None
        assert recorder.dumps == []
        dump = recorder.seal_if_triggered(
            session, "BundleFailedError", "device fault", 2.0
        )
        assert dump is not None and recorder.dumps == [dump]

    def test_sequence_numbers_are_global_seal_order(self):
        recorder = FlightRecorder()
        a = recorder.seal(b"a", "StaleTicketError", "r", 1.0)
        b = recorder.seal(b"b", "StaleTicketError", "r", 2.0)
        assert (a.sequence, b.sequence) == (0, 1)
        assert recorder.dump_digests() == [a.digest, b.digest]

    def test_digest_commits_to_canonical_json(self):
        recorder = FlightRecorder()
        session = _fill(recorder)
        dump = recorder.seal(session, "StaleTicketError", "r", 3.0)
        doc = json.loads(dump.canonical_json())
        assert doc["cause_type"] == "StaleTicketError"
        assert doc["entries"][0]["name"] == "step-0"
        # bytes attrs hex-encode deterministically
        recorder.note(b"t", "event", "x", 0.0, payload=b"\xde\xad")
        other = recorder.seal(b"t", "StaleTicketError", "r", 4.0)
        assert json.loads(other.canonical_json())["entries"][0]["data"][
            "payload"] == "dead"

    def test_identical_histories_produce_identical_digests(self):
        def run():
            recorder = FlightRecorder()
            session = _fill(recorder)
            return recorder.seal(session, "StaleTicketError", "r", 9.0)

        assert run().digest == run().digest

    def test_digest_is_sensitive_to_every_field(self):
        def seal(reason="r", at=9.0, n=3):
            recorder = FlightRecorder()
            session = _fill(recorder, n=n)
            return recorder.seal(session, "StaleTicketError", reason, at)

        base = seal()
        assert seal(reason="other").digest != base.digest
        assert seal(at=10.0).digest != base.digest
        assert seal(n=2).digest != base.digest
