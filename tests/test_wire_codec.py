"""Wire v3: tagged codec round-trips, strict decoding, malformed-frame fuzz."""

from __future__ import annotations

import pathlib
import struct
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.entries import CollectionRef, NamedResourceEntry, ServerEntry, ServerRole
from repro.catalog.intensional import CatalogLevel, IntensionalStatement, Relation, ServerHolding
from repro.namespace import CategoryPath, InterestArea, InterestCell
from repro.network.message import Message
from repro.network.transport.base import TransportError
from repro.network.transport.codec import (
    CodecWriter,
    decode_value,
    encode_value,
    register_extension,
)
from repro.network.transport.wire import (
    HEADER,
    WIRE_VERSION,
    FrameEncoder,
    decode_frame,
    encode_frame,
)
from repro.distributed.coordinator import _SubQuery
from repro.routing.gnutella import GnutellaHit, GnutellaQuery
from repro.routing.napster import _FetchRequest, _IndexRecord
from repro.routing.routing_index import _RIQuery
from repro.xmlmodel import XMLElement, parse_xml, serialize_xml

# Derandomized so property failures reproduce in CI without a seed database.
derandomized = settings(derandomize=True, deadline=None, max_examples=60)


def _body(frame: bytes) -> bytes:
    """Strip the 4-byte length prefix off an encoded frame."""
    (length,) = HEADER.unpack(frame[: HEADER.size])
    assert length == len(frame) - HEADER.size
    return frame[HEADER.size :]


def _roundtrip(message: Message) -> Message:
    return decode_frame(_body(encode_frame(message)))


# --------------------------------------------------------------------------- #
# Value codec round-trips
# --------------------------------------------------------------------------- #

# The closed wire vocabulary, recursively. NaN is excluded (NaN != NaN would
# fail equality, not the codec); every other float round-trips exactly.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # int64 and bigint tags both in range
    st.floats(allow_nan=False),
    st.text(),
    st.binary(),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


class TestValueCodec:
    @derandomized
    @given(_values)
    def test_roundtrip_is_identity(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    @derandomized
    @given(st.lists(_scalars, max_size=4).map(tuple))
    def test_tuples_stay_tuples(self, value):
        # The codec has a first-class tuple tag: protocols that round-trip
        # tuples must not see them decay to lists.
        assert decode_value(encode_value(value)) == value
        assert type(decode_value(encode_value(value))) is tuple

    def test_bigint_roundtrip(self):
        for value in (1 << 64, -(1 << 100), (1 << 63), -(1 << 63) - 1):
            assert decode_value(encode_value(value)) == value

    def test_counter_is_an_extension_not_a_dict(self):
        counter = Counter({"mqp": 3, "result": 1})
        decoded = decode_value(encode_value(counter))
        assert decoded == counter
        assert type(decoded) is Counter

    def test_unregistered_type_fails_at_encode_time(self):
        class Mystery:
            pass

        with pytest.raises(TransportError, match="no wire encoding"):
            encode_value(Mystery())


# One value per tag, and one that nests containers and extensions.  The hex is
# what the parent of the one-call packer wrote for them: wire v3 did not move.
_GOLDEN = {
    "none": (None, "00"),
    "true": (True, "01"),
    "false": (False, "02"),
    "int64": (-1234567890123, "03fffffee08e04fb35"),
    "float64": (2.5, "044004000000000000"),
    "str": ("naïve ✓", "050000000a6e61c3af766520e29c93"),
    "bytes": (b"\x00\xff\x10", "060000000300ff10"),
    "list": ([1, "two"], "0700000002030000000000000001050000000374776f"),
    "tuple": ((1, "two"), "0800000002030000000000000001050000000374776f"),
    "dict": ({"k": 1.5}, "090000000105000000016b043ff8000000000000"),
    "ext": (Counter({"mqp": 3}), "0a0c090000000105000000036d7170030000000000000003"),
    "bigint": (1 << 64, "0b00000009010000000000000000"),
    "nested": (
        {
            "sub": "c:1#sub1",
            "path": CategoryPath(("USA", "OR")),
            "rows": [(1, None, [True, False]), {"x": (b"\x01", 2.0)}],
            "item": XMLElement("cd", {"id": "7"}, []),
        },
        "090000000405000000037375620500000008633a3123737562310500000004706174680a0108000000"
        "02050000000355534105000000024f520500000004726f777307000000020800000003030000000000"
        "00000100070000000201020900000001050000000178080000000206000000010104400000000000"
        "000005000000046974656d0a0a050000000c3c63642069643d2237222f3e",
    ),
}


@pytest.mark.parametrize("name", _GOLDEN)
class TestGoldenEncodings:
    def test_the_bytes_on_the_wire_are_unchanged(self, name):
        value, golden = _GOLDEN[name]
        assert encode_value(value).hex() == golden
        decoded = decode_value(bytes.fromhex(golden))
        assert type(decoded) is type(value) and encode_value(decoded).hex() == golden

    def test_every_strict_prefix_is_refused_as_a_transport_error(self, name):
        encoded = bytes.fromhex(_GOLDEN[name][1])
        for cut in range(len(encoded)):
            with pytest.raises(TransportError):
                decode_value(encoded[:cut])


def test_whole_frames_are_byte_identical_to_the_parents():
    """One frame per payload encoding (text, document + metadata, value), with
    the transfer id absent, present and empty: captured before the encoder's
    three branches became one."""
    def message(kind, payload, transfer):
        built = Message("a:1", "b:2", kind, payload, size_bytes=48, hop=2,
                        transfer=transfer, attempt=1)
        built.message_id, built.sent_at = 7, 1.5
        return built

    head = "030003613a310003623a32"
    tail = "000000000000000700000000000000303ff800000000000000000002000000"
    golden = {
        ("mqp", "<p/>", None): "00000037" + head + "00036d7170" + tail + "01ffff003c702f3e",
        ("delta-chunk", ("document", "<d/>", "seq", 3), "a:1#4"):
            "0000005a" + head + "000b64656c74612d6368756e6b" + tail
            + "010005613a31233402090000000105000000037365710300000000000000033c642f3e",
        ("delivery-ack", ("a:1#4", "s", 3), ""):
            "0000005a" + head + "000c64656c69766572792d61636b" + tail
            + "0100000108000000030500000005613a312334050000000173030000000000000003",
    }
    for (kind, payload, transfer), frame in golden.items():
        if kind == "delta-chunk":
            payload = dict(zip(payload[::2], payload[1::2]))
        assert encode_frame(message(kind, payload, transfer)).hex() == frame
        decoded = decode_frame(bytes.fromhex(frame)[HEADER.size:])
        assert (decoded.payload, decoded.transfer) == (payload, transfer)


class TestDomainExtensions:
    """Every domain payload type that crosses a socket survives the codec."""

    def _assert_roundtrip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)
        return decoded

    def test_namespace_geometry(self):
        path = CategoryPath(("shopping", "electronics", "audio"))
        cell = InterestCell.of("USA/OR/Portland", "Furniture/Chairs")
        area = InterestArea((cell, InterestCell.of("USA/WA", "Tools")))
        for value in (path, cell, area):
            self._assert_roundtrip(value)

    def test_catalog_entries(self):
        ref = CollectionRef(url="x.example/cds.xml", path="//cd", name="cds", cardinality=12)
        entry = ServerEntry(
            address="seller0001:9020",
            role=ServerRole.BASE,
            area=InterestArea((InterestCell.of("USA/OR", "Music"),)),
            authoritative=True,
            collections=(ref,),
            registered_at=42.5,
        )
        self._assert_roundtrip(ServerRole.BASE)
        self._assert_roundtrip(ref)
        self._assert_roundtrip(entry)
        self._assert_roundtrip(
            NamedResourceEntry(
                name="urn:fictitious:cds",
                collections=(ref,),
                resolver_servers=("index-00:9020",),
                area=entry.area,
            )
        )

    def test_intensional_statements(self):
        holding = ServerHolding(
            CatalogLevel.INDEX,
            InterestArea((InterestCell.of("USA", "Music"),)),
            "index-00:9020",
            delay_minutes=5.0,
        )
        self._assert_roundtrip(holding)
        self._assert_roundtrip(
            IntensionalStatement(holding, Relation.SUPERSET, (holding,))
        )

    def test_xml_elements_cross_in_wire_form(self):
        document = "<items><cd price='9'><title>X</title></cd></items>"
        element = parse_xml(document)
        decoded = self._assert_roundtrip(element)
        assert isinstance(decoded, XMLElement)
        assert serialize_xml(decoded) == serialize_xml(element)

    def test_baseline_routing_payloads(self):
        """Each baseline registers its own payloads, under the ids they always had."""
        cell = InterestCell.of("USA/CA", "Books")
        area = InterestArea((cell,))
        payloads = [
            (13, GnutellaQuery("q1", "peer0:9020", area, 5)),
            (14, GnutellaHit("q1", "peer1:9020", 3)),
            (15, _IndexRecord("peer1:9020", cell, 2)),
            (16, _FetchRequest("q1", area)),
            (17, _RIQuery("q1", "peer0:9020", area, 10, 2, ["peer0:9020", "peer3:9020"])),
            (18, _SubQuery("q1", "http://seller:9020", "/cds", "price < 10")),
            (18, _SubQuery("q2", "http://seller:9020", None, None)),
        ]
        for ext_id, payload in payloads:
            assert encode_value(payload)[:2] == bytes((0x0A, ext_id))
            self._assert_roundtrip(payload)

    def test_an_id_or_a_type_registers_once(self):
        class Fresh:
            pass

        with pytest.raises(TransportError, match="duplicate wire extension"):
            register_extension(13, Fresh, vars, lambda v: Fresh())
        with pytest.raises(TransportError, match="duplicate wire extension"):
            register_extension(250, GnutellaQuery, vars, lambda v: v)
        with pytest.raises(TransportError, match="unknown wire extension id 250"):
            decode_value(bytes((0x0A, 250, 0x00)))


# --------------------------------------------------------------------------- #
# Frame round-trips
# --------------------------------------------------------------------------- #


class TestFrameRoundtrip:
    def test_text_payload_is_raw_utf8(self):
        message = Message(sender="a:1", recipient="b:2", kind="mqp", payload="<plan attr='ü'/>")
        frame = encode_frame(message)
        # The document crosses the socket in the paper's own wire form.
        assert "<plan attr='ü'/>".encode() in frame
        decoded = decode_frame(_body(frame))
        assert decoded.payload == message.payload
        assert decoded.message_id == message.message_id

    def test_document_envelope_payload(self):
        message = Message(
            sender="a:1", recipient="b:2", kind="result",
            payload={"query_id": "q7", "document": "<answers count='2'/>", "hop": 3},
        )
        decoded = _roundtrip(message)
        assert decoded.payload == message.payload

    def test_envelope_fields_survive(self):
        message = Message(
            sender="s:1", recipient="r:2", kind="ack", payload=None,
            size_bytes=777, sent_at=12.25, hop=4, transfer="t-99", attempt=2,
        )
        decoded = _roundtrip(message)
        for field in ("sender", "recipient", "kind", "size_bytes", "message_id",
                      "sent_at", "hop", "transfer", "attempt"):
            assert getattr(decoded, field) == getattr(message, field), field

    @derandomized
    @given(_values)
    def test_any_vocabulary_payload_frames(self, payload):
        message = Message(sender="a:1", recipient="b:2", kind="ctl", payload=payload)
        decoded = _roundtrip(message)
        if isinstance(payload, dict) and isinstance(payload.get("document"), str):
            # Document envelopes are a distinct wire form with equal content.
            assert decoded.payload == payload
        else:
            assert decoded.payload == payload
            assert type(decoded.payload) is type(payload)


# --------------------------------------------------------------------------- #
# Strict decoding: versions, tags, truncation, fuzz
# --------------------------------------------------------------------------- #


class TestStrictDecoding:
    def test_wrong_version_is_rejected(self):
        body = bytearray(_body(encode_frame(Message("a", "b", "k", payload=None))))
        body[0] = WIRE_VERSION + 1
        with pytest.raises(TransportError, match="unsupported wire version"):
            decode_frame(bytes(body))

    @pytest.mark.parametrize(
        "stamp", [b"\x00", b"\x01" + struct.pack("!dII", 5.0, 1, 0)], ids=["flag-0", "flag-1"]
    )
    def test_version_2_body_is_rejected_not_half_read(self, stamp):
        # A well-formed v2 body: the v3 layout plus a clock-stamp slot (flag
        # 0, or flag 1 and a 16-byte stamp) between envelope and payload tag.
        current = _body(encode_frame(Message("a", "b", "k", payload="<p/>")))
        payload_at = len(current) - len(b"<p/>") - 1
        body = b"\x02" + current[1:payload_at] + stamp + current[payload_at:]
        with pytest.raises(TransportError, match="unsupported wire version 2"):
            decode_frame(body)

    def test_pickled_v1_frame_is_called_out(self):
        # A v1 body began with pickle's 0x80 opcode; the error says so
        # instead of leaving the operator to guess at stream corruption.
        with pytest.raises(TransportError, match="pickled v1 frame"):
            decode_frame(b"\x80\x04\x95rest-of-a-pickle")

    def test_unknown_value_tag_is_rejected(self):
        with pytest.raises(TransportError, match="unknown wire value tag"):
            decode_value(b"\x7f")

    def test_unknown_extension_id_is_rejected(self):
        with pytest.raises(TransportError, match="unknown wire extension id"):
            decode_value(b"\x0a\xf0\x00")  # _EXT, id 240, None body

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(TransportError, match="trailing bytes"):
            decode_value(encode_value(42) + b"\x00")

    def test_hostile_container_length_is_rejected(self):
        # A list claiming 2**31 elements with 0 bytes left must not
        # pre-allocate anything.
        with pytest.raises(TransportError, match="corrupt container length"):
            decode_value(b"\x07\x80\x00\x00\x00")

    def test_empty_body_is_rejected(self):
        with pytest.raises(TransportError):
            decode_frame(b"")

    @derandomized
    @given(st.data())
    def test_truncated_frames_never_crash(self, data):
        message = Message(
            sender="peer0001:9020", recipient="index-00:9020", kind="register",
            payload={"entries": [1, 2.5, "three", (4, None)], "area": b"\x00\x01"},
        )
        body = _body(encode_frame(message))
        cut = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
        try:
            decode_frame(body[:cut])
        except TransportError:
            pass  # the only acceptable failure mode

    @derandomized
    @given(st.data())
    def test_corrupted_frames_never_crash(self, data):
        message = Message(
            sender="peer0001:9020", recipient="index-00:9020", kind="ctl",
            payload=(1, "two", [3.0, {"four": 4}], Counter({"a": 1})),
        )
        body = bytearray(_body(encode_frame(message)))
        flips = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(body) - 1),
                    st.integers(min_value=0, max_value=255),
                ),
                min_size=1,
                max_size=4,
            )
        )
        for position, value in flips:
            body[position] = value
        try:
            decoded = decode_frame(bytes(body))
        except TransportError:
            return  # strict rejection
        assert isinstance(decoded, Message)  # or a still-well-formed frame


# --------------------------------------------------------------------------- #
# Buffer reuse + the no-pickle property
# --------------------------------------------------------------------------- #


class TestEncoderReuse:
    def test_repeated_encodes_are_identical_and_reuse_the_buffer(self):
        encoder = FrameEncoder()
        message = Message(sender="a:1", recipient="b:2", kind="mqp", payload="<p/>" * 64)
        first = encoder.encode(message)
        backing = encoder._writer.buf
        for _ in range(5):
            assert encoder.encode(message) == first
            # Steady state: the same bytearray is reused frame after frame.
            assert encoder._writer.buf is backing

    def test_growth_then_reuse(self):
        encoder = FrameEncoder()
        small = Message(sender="a:1", recipient="b:2", kind="k", payload="x")
        big = Message(sender="a:1", recipient="b:2", kind="k", payload="y" * (1 << 18))
        reference_small = _roundtrip(small).payload
        assert decode_frame(_body(encoder.encode(big))).payload == big.payload
        # After growing for the big frame, small frames still encode cleanly.
        assert decode_frame(_body(encoder.encode(small))).payload == reference_small

    def test_writer_reserve_then_raw_grows_the_buffer(self):
        writer = CodecWriter(initial=8)
        initial = len(writer.buf)
        payload = b"payload-bytes-beyond-initial-capacity" * 4
        assert writer.reserve(4) == 0
        writer.raw(payload)
        assert len(writer.buf) > initial and writer.pos == 4 + len(payload)
        assert writer.buf[4 : writer.pos] == payload


def test_no_pickle_anywhere_on_the_socket_path():
    """The v1 arbitrary-deserialization hazard must not creep back in.

    Prose may discuss pickle (the codec docstrings do, deliberately); code
    must not touch it: no import, no module reference.
    """
    import re

    usage = re.compile(r"^\s*(import pickle|from pickle)|pickle\s*\.", re.MULTILINE)
    network = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro" / "network"
    offenders = [
        path
        for path in network.rglob("*.py")
        if usage.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == [], f"pickle usage found in {offenders}"
