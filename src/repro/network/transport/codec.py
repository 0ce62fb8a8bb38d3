"""Tagged binary value codec for the wire's control payloads.

Every control payload that crosses a socket — registration envelopes,
catalog reconciliation, subscription bookkeeping, the baseline strategies'
query records — is built from a small closed vocabulary: ``None``, bools,
ints, floats, strings, bytes, lists, tuples, dicts, and a registered set
of domain dataclasses.  This module encodes exactly that vocabulary as
length-delimited tagged values (msgpack-shaped, but with a first-class
tuple tag: several protocols round-trip tuples and would silently change
type under a codec that folds tuples into lists).

Domain objects travel as *extension* values: a one-byte registered id plus
the object's field tuple, itself encoded recursively.  The core vocabulary
is registered lazily on first use — the domain modules import the network
layer, so importing them here at module load would be a cycle; by the time
a frame is encoded the application is fully imported and the lookup is a
dict hit.  A comparison strategy's payloads are its own: its module calls
:func:`register_extension` when it is imported, and this module names none
of them.

A value costs one call each way: the encoder packs a value's head (tag and
length, or tag and scalar) in one ``pack`` and joins the pieces once, the
decoder bounds-checks a head and unpacks it in place — no cursor object per
field, no slice but the one that becomes the value.

A decoded string of at most ``SHARED_TEXT_CHARS`` characters — a dict key,
an address, a kind, a subscription id — comes out of one bounded table
(:func:`shared_text`), so the thousandth frame that says ``"seq"`` hands
back the object the first one built, as a payload passed by reference on
the ``sim`` backend would.  Not ``sys.intern``: interned strings are
immortal on CPython 3.12, and transfer ids are unique.

The decoder is strict: an unknown tag, an unknown extension id, a
truncated buffer, or trailing bytes raise
:class:`~repro.network.transport.base.TransportError` — never a crash and
never a silent fallback to another serializer.  There is deliberately no
pickle anywhere in this module: a frame can only ever rebuild the closed
vocabulary above, which closes the arbitrary-deserialization hazard the v1
wire format carried.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, NamedTuple

from .base import TransportError

__all__ = [
    "CodecWriter",
    "SHARED_TEXT_CHARS",
    "SHARED_TEXT_MEMORY",
    "encode_value",
    "decode_value",
    "read_value",
    "register_extension",
    "shared_text",
]

# Value tags.  One byte each; unknown tags are a decode error.
_NONE = 0x00
_TRUE = 0x01
_FALSE = 0x02
_INT64 = 0x03
_FLOAT64 = 0x04
_STR = 0x05
_BYTES = 0x06
_LIST = 0x07
_TUPLE = 0x08
_DICT = 0x09
_EXT = 0x0A
_BIGINT = 0x0B

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_U32 = struct.Struct("!I")
# A value's head is packed and unpacked in one call: tag + length for the
# length-delimited tags, tag + body for the fixed-width ones.
_TAG_LEN = struct.Struct("!BI")
_TAG_I64 = struct.Struct("!Bq")
_TAG_F64 = struct.Struct("!Bd")


class CodecWriter:
    """A growable byte sink with an explicit write position.

    The backing ``bytearray`` only ever grows, so steady-state encoding
    reuses the same allocation frame after frame.  Writers are cheap but
    not thread-safe — each encoding thread owns its own.
    """

    __slots__ = ("buf", "pos")

    def __init__(self, initial: int = 1 << 16) -> None:
        self.buf = bytearray(max(64, initial))
        self.pos = 0

    def reset(self) -> None:
        self.pos = 0

    def reserve(self, count: int) -> int:
        """Grow the buffer to fit ``count`` more bytes; return the offset."""
        offset = self.pos
        needed = offset + count
        if needed > len(self.buf):
            self.buf.extend(bytes(max(needed - len(self.buf), len(self.buf))))
        self.pos = needed
        return offset

    def raw(self, data: bytes) -> None:
        offset = self.reserve(len(data))
        self.buf[offset : offset + len(data)] = data


class _Ext(NamedTuple):
    """One registered extension type."""

    ext_id: int
    pack: Callable[[Any], Any]
    unpack: Callable[[Any], Any]


_EXT_BY_TYPE: dict[type, _Ext] = {}
_EXT_BY_ID: dict[int, _Ext] = {}
_REGISTRY_BUILT = False


def register_extension(ext_id: int, kind: type, pack: Callable, unpack: Callable) -> None:
    """Let ``kind`` cross the wire as extension ``ext_id``: ``pack`` turns an
    instance into a value of the closed vocabulary, ``unpack`` turns that
    value back.  An id or a type registered twice is a :class:`TransportError`."""
    ext = _Ext(ext_id, pack, unpack)
    if ext_id in _EXT_BY_ID or kind in _EXT_BY_TYPE:
        raise TransportError(f"duplicate wire extension registration ({ext_id}, {kind})")
    _EXT_BY_TYPE[kind] = ext
    _EXT_BY_ID[ext_id] = ext


def _build_registry() -> None:
    """Register the core domain types that may appear in a control payload.

    Imports happen here, not at module load: the domain modules import the
    network layer, and the first encode happens long after import time.
    """
    global _REGISTRY_BUILT
    if _REGISTRY_BUILT:
        return

    from collections import Counter

    from ...catalog.entries import CollectionRef, NamedResourceEntry, ServerEntry, ServerRole
    from ...catalog.intensional import (
        CatalogLevel,
        IntensionalStatement,
        Relation,
        ServerHolding,
    )
    from ...namespace import CategoryPath, InterestArea, InterestCell
    from ...xmlmodel import XMLElement, parse_xml, serialize_xml

    # Namespace geometry ships structurally (segment tuples), not as the
    # human text form: the textual encoding normalizes cell order, and the
    # byte-identity gates need the receiving catalog to see exactly the
    # cells the sender held.
    register_extension(1, CategoryPath, lambda p: p.segments, lambda v: CategoryPath(v))
    register_extension(2, InterestCell, lambda c: c.coordinates, lambda v: InterestCell(v))
    register_extension(3, InterestArea, lambda a: a.cells, lambda v: InterestArea(v))
    register_extension(4, ServerRole, lambda r: r.value, lambda v: ServerRole(v))
    register_extension(
        5,
        CollectionRef,
        lambda c: (c.url, c.path, c.name, c.cardinality),
        lambda v: CollectionRef(url=v[0], path=v[1], name=v[2], cardinality=v[3]),
    )
    register_extension(
        6,
        ServerEntry,
        lambda e: (e.address, e.role, e.area, e.authoritative, e.collections, e.registered_at),
        lambda v: ServerEntry(
            address=v[0], role=v[1], area=v[2], authoritative=v[3],
            collections=v[4], registered_at=v[5],
        ),
    )
    register_extension(
        7,
        NamedResourceEntry,
        lambda e: (e.name, e.collections, e.resolver_servers, e.area),
        lambda v: NamedResourceEntry(
            name=v[0], collections=v[1], resolver_servers=v[2], area=v[3]
        ),
    )
    register_extension(
        8,
        ServerHolding,
        lambda h: (h.level.value, h.area, h.server, h.delay_minutes),
        lambda v: ServerHolding(CatalogLevel(v[0]), v[1], v[2], v[3]),
    )
    register_extension(
        9,
        IntensionalStatement,
        lambda s: (s.lhs, s.relation.value, s.rhs),
        lambda v: IntensionalStatement(v[0], Relation(v[1]), v[2]),
    )

    # XML subtrees cross in the paper's own wire form.
    register_extension(10, XMLElement, serialize_xml, parse_xml)

    # Ids are never reused: 11 and 20 are retired and decode as unknown;
    # 13-18 belong to the comparison baselines, which register their own.
    register_extension(12, Counter, dict, lambda v: Counter(v))

    # RegistrationPayload lives in the peer layer (the deepest import of
    # the set); registered last so a partial registry is never observable.
    from ...peers.peer import RegistrationPayload

    register_extension(
        19,
        RegistrationPayload,
        lambda p: (p.entry, p.statements, p.named_resources),
        lambda v: RegistrationPayload(entry=v[0], statements=v[1], named_resources=v[2]),
    )
    _REGISTRY_BUILT = True


def _emit_value(obj: Any, emit: Callable[[bytes], None]) -> None:
    """Hand ``emit`` the pieces of ``obj``'s encoding, each head packed in one
    call; the caller joins them, once.

    Dispatch is on *exact* type: subclasses do not silently decay to their
    base representation (a ``Counter`` is an extension, not a dict), and an
    unregistered type is a :class:`TransportError` at encode time — the
    sender finds out, not the peer's decoder.
    """
    kind = type(obj)
    if kind is str:
        raw = obj.encode("utf-8")
        emit(_TAG_LEN.pack(_STR, len(raw)))
        emit(raw)
    elif kind is int:
        if _INT64_MIN <= obj <= _INT64_MAX:
            emit(_TAG_I64.pack(_INT64, obj))
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            emit(_TAG_LEN.pack(_BIGINT, len(raw)))
            emit(raw)
    elif obj is None:
        emit(b"\x00")
    elif kind is bool:
        emit(b"\x01" if obj else b"\x02")
    elif kind is float:
        emit(_TAG_F64.pack(_FLOAT64, obj))
    elif kind is bytes:
        emit(_TAG_LEN.pack(_BYTES, len(obj)))
        emit(obj)
    elif kind is list or kind is tuple:
        emit(_TAG_LEN.pack(_LIST if kind is list else _TUPLE, len(obj)))
        for item in obj:
            _emit_value(item, emit)
    elif kind is dict:
        emit(_TAG_LEN.pack(_DICT, len(obj)))
        for key, value in obj.items():
            _emit_value(key, emit)
            _emit_value(value, emit)
    else:
        if not _REGISTRY_BUILT:
            _build_registry()
        ext = _EXT_BY_TYPE.get(kind)
        if ext is None:
            raise TransportError(
                f"no wire encoding for payload type {kind.__module__}.{kind.__qualname__}"
            )
        emit(bytes((_EXT, ext.ext_id)))
        _emit_value(ext.pack(obj), emit)


SHARED_TEXT_CHARS = 64
"""Decoded strings up to this many characters are shared through the table."""

SHARED_TEXT_MEMORY = 4096
"""Strings the table keeps; dropped whole when full."""

_SHARED_TEXT: dict[str, str] = {}


def shared_text(text: str) -> str:
    """The one copy of a short decoded string; a long one passes through."""
    if len(text) > SHARED_TEXT_CHARS:
        return text
    shared = _SHARED_TEXT.get(text)
    if shared is None:
        if len(_SHARED_TEXT) >= SHARED_TEXT_MEMORY:
            _SHARED_TEXT.clear()
        shared = _SHARED_TEXT[text] = text
    return shared


def _truncated(wanted: int, pos: int, end: int) -> TransportError:
    return TransportError(
        f"truncated frame: wanted {wanted} bytes at offset {pos}, have {end - pos}"
    )


def read_value(data: bytes, pos: int, end: int) -> tuple[Any, int]:
    """Decode the tagged value that starts at ``pos``; return it and where the
    next one starts.  Strict about tags, ids and bounds: a head is checked
    whole, then unpacked in place — no slice, no cursor object."""
    if pos >= end:
        raise _truncated(1, pos, end)
    tag = data[pos]
    if tag == _STR or tag == _BYTES or tag == _BIGINT:
        start = pos + 5
        if start > end:
            raise _truncated(5, pos, end)
        stop = start + _U32.unpack_from(data, pos + 1)[0]
        if stop > end:
            raise _truncated(stop - start, start, end)
        if tag == _STR:
            try:
                return shared_text(data[start:stop].decode("utf-8")), stop
            except UnicodeDecodeError as error:
                raise TransportError(f"malformed UTF-8 in string value: {error}") from None
        if tag == _BYTES:
            return data[start:stop], stop
        return int.from_bytes(data[start:stop], "big", signed=True), stop
    if tag == _INT64 or tag == _FLOAT64:
        if pos + 9 > end:
            raise _truncated(9, pos, end)
        return (_TAG_I64 if tag == _INT64 else _TAG_F64).unpack_from(data, pos)[1], pos + 9
    if tag <= _FALSE:
        return (None if tag == _NONE else tag == _TRUE), pos + 1
    if _LIST <= tag <= _DICT:
        # A container length claim cannot exceed the bytes left in the frame:
        # every element costs at least one tag byte, so a larger claim is
        # corruption — rejecting it here keeps a hostile length prefix from
        # pre-allocating gigabytes.
        if pos + 5 > end:
            raise _truncated(5, pos, end)
        count = _U32.unpack_from(data, pos + 1)[0]
        pos += 5
        if count > end - pos:
            raise TransportError(
                f"corrupt container length {count} with {end - pos} bytes left"
            )
        if tag == _DICT:
            result = {}
            for _ in range(count):
                key, pos = read_value(data, pos, end)
                result[key], pos = read_value(data, pos, end)
            return result, pos
        items = []
        for _ in range(count):
            item, pos = read_value(data, pos, end)
            items.append(item)
        return (items if tag == _LIST else tuple(items)), pos
    if tag == _EXT:
        if pos + 2 > end:
            raise _truncated(2, pos, end)
        ext_id = data[pos + 1]
        if not _REGISTRY_BUILT:
            _build_registry()
        ext = _EXT_BY_ID.get(ext_id)
        if ext is None:
            raise TransportError(f"unknown wire extension id {ext_id}")
        body, pos = read_value(data, pos + 2, end)
        try:
            return ext.unpack(body), pos
        except TransportError:
            raise
        except Exception as error:
            raise TransportError(
                f"malformed extension value (id {ext_id}): {error}"
            ) from None
    raise TransportError(f"unknown wire value tag 0x{tag:02x}")


def encode_value(obj: Any) -> bytes:
    """Encode one value standalone (tests and benchmarks)."""
    pieces: list[bytes] = []
    _emit_value(obj, pieces.append)
    return b"".join(pieces)


def decode_value(data: bytes) -> Any:
    """Decode one standalone value, rejecting trailing bytes and converting
    low-level decode faults to :class:`TransportError`."""
    data = bytes(data)
    try:
        value, pos = read_value(data, 0, len(data))
    except (struct.error, ValueError, OverflowError, RecursionError) as error:
        raise TransportError(f"malformed frame: {error}") from None
    if pos != len(data):
        raise TransportError(f"{len(data) - pos} trailing bytes after value")
    return value
