"""Wire codec: framing, canonical round-trips, hostile bytes.

The acceptance bar for the asyncio runtime's wire format:

- every message type round-trips *byte-identically* (encode ->
  decode -> encode is the same frame);
- unknown wire versions, truncated frames, trailing garbage, and
  unknown type tags raise the typed codec errors instead of
  misparsing;
- arbitrary junk bytes (Hypothesis) never raise anything *but*
  :class:`CodecError` -- a hostile peer cannot crash a reader.
"""

import json
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocol.messages import (
    CleanupRun,
    Complete,
    Decision,
    Phase2a,
    Phase2b,
    Prepare,
    RebalanceRequest,
    Rejoin,
    SyncBroadcast,
    Vote,
    VoteReply,
)
from repro.runtime.codec import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    CodecError,
    TruncatedFrame,
    UnknownMessageType,
    UnknownWireVersion,
    decode_message,
    decode_payload,
    encode_message,
    encode_payload,
    value_from_wire,
    value_to_wire,
)


SAMPLE_MESSAGES = [
    SyncBroadcast(src=0, dst=1, updates=(("stock[3]", 17), ("stock[9]", -2))),
    SyncBroadcast(src=2, dst=0),
    Vote(src=0, dst=2, tx_name="Buy@s0", timestamp=14, txn_seq=3),
    VoteReply(src=2, dst=0, winner_site=0, winner_txn=3),
    RebalanceRequest(src=1, dst=2, objects=("stock[1]", "stock[5]")),
    CleanupRun(src=0, dst=1, tx_name="Buy@s0", params=(("item", 4),)),
    Rejoin(src=3, dst=1, wal_round=9),
    Prepare(src=0, dst=1, updates=(("x", 10), ("y", -1))),
    Decision(src=0, dst=1, commit=False),
    Phase2a(
        src=1,
        dst=0,
        round_number=12,
        ballot=0,
        verdicts=((0, True), (1, True), (2, False)),
    ),
    Phase2a(src=2, dst=0, round_number=12, ballot=1, verdicts=()),
    Phase2b(src=0, dst=1, round_number=12, ballot=1, acked=True),
    Complete(src=2, dst=0, round_number=12, committed=True, tx_name="Buy@s1"),
]


class TestMessageRoundTrip:
    @pytest.mark.parametrize(
        "msg", SAMPLE_MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_byte_identical_round_trip(self, msg):
        frame = encode_message(msg)
        decoded = decode_message(frame)
        assert type(decoded) is type(msg)
        assert decoded.src == msg.src and decoded.dst == msg.dst
        # re-encoding the decoded message reproduces the exact frame
        assert encode_message(decoded) == frame

    def test_field_equality_round_trip(self):
        for msg in SAMPLE_MESSAGES:
            assert decode_message(encode_message(msg)) == msg

    def test_treaty_tuple_types_restored(self):
        msg = decode_message(encode_message(SAMPLE_MESSAGES[0]))
        assert isinstance(msg.updates, tuple)
        assert all(isinstance(pair, tuple) for pair in msg.updates)

    def test_unregistered_message_type_refused(self):
        class Rogue(SyncBroadcast):
            pass

        with pytest.raises(UnknownMessageType):
            encode_message(Rogue(src=0, dst=1))


class TestFraming:
    def test_unknown_version_refused(self):
        frame = bytearray(encode_message(SAMPLE_MESSAGES[0]))
        frame[4] = WIRE_VERSION + 1  # version byte sits after the prefix
        with pytest.raises(UnknownWireVersion):
            decode_payload(bytes(frame))

    def test_truncated_frame_raises(self):
        frame = encode_message(SAMPLE_MESSAGES[0])
        for cut in (0, 2, 5, len(frame) - 1):
            with pytest.raises(TruncatedFrame):
                decode_payload(frame[:cut])

    def test_trailing_bytes_raise(self):
        frame = encode_message(SAMPLE_MESSAGES[0])
        with pytest.raises(CodecError):
            decode_payload(frame + b"x")

    def test_oversized_length_prefix_refused(self):
        frame = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"\x01{}"
        with pytest.raises(CodecError):
            decode_payload(frame)

    def test_unknown_type_tag_refused(self):
        frame = encode_payload({"t": "NoSuchMessage", "src": 0, "dst": 1})
        with pytest.raises(UnknownMessageType):
            decode_message(frame)

    def test_malformed_fields_are_codec_errors(self):
        frame = encode_payload({"t": "Vote", "src": 0})  # dst missing
        with pytest.raises(CodecError):
            decode_message(frame)

    def test_non_object_payload_refused(self):
        body = bytes([WIRE_VERSION]) + json.dumps([1, 2]).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(CodecError):
            decode_payload(frame)

    @given(st.binary(max_size=256))
    def test_junk_bytes_never_crash(self, junk):
        try:
            decode_payload(junk)
        except CodecError:
            pass  # the only acceptable failure mode

    @given(st.binary(min_size=1, max_size=64))
    def test_framed_junk_never_crashes(self, junk):
        frame = struct.pack(">I", len(junk)) + junk
        try:
            decode_message(frame)
        except CodecError:
            pass


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -7,
            "ok",
            (),
            (1, 2, 3),
            ((4,), "n", None),
            frozenset({"a", "b"}),
            {"x"},
            ((1, 2), frozenset({"z"})),
        ],
    )
    def test_round_trip(self, value):
        assert value_from_wire(value_to_wire(value)) == value

    def test_types_restored_exactly(self):
        log_written = ((4, 0, 7), {"stock[3]", "stock[5]"})
        back = value_from_wire(value_to_wire(log_written))
        assert isinstance(back, tuple)
        assert isinstance(back[0], tuple)
        assert isinstance(back[1], set) and not isinstance(back[1], frozenset)

    def test_unencodable_value_refused(self):
        with pytest.raises(CodecError):
            value_to_wire(object())

    def test_malformed_tag_refused(self):
        with pytest.raises(CodecError):
            value_from_wire({"__": "nope", "v": []})
