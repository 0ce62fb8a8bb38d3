"""Tagged binary value codec for the wire's control payloads.

Every control payload that crosses a socket — registration envelopes,
catalog reconciliation, subscription bookkeeping, the baseline strategies'
query records — is built from a small closed vocabulary: ``None``, bools,
ints, floats, strings, bytes, lists, tuples, dicts, and a fixed set of
domain dataclasses.  This module encodes exactly that vocabulary as
length-delimited tagged values (msgpack-shaped, but with a first-class
tuple tag: several protocols round-trip tuples and would silently change
type under a codec that folds tuples into lists).

Domain objects travel as *extension* values: a one-byte registered id plus
the object's field tuple, itself encoded recursively.  The registry is
built lazily on first use — the domain modules import the network layer, so
importing them here at module load would be a cycle; by the time a frame is
encoded the application is fully imported and the lookup is a dict hit.

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
    "encode_value",
    "decode_value",
    "read_value",
    "write_value",
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

_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")


class CodecWriter:
    """A growable byte sink with an explicit write position.

    The backing ``bytearray`` only ever grows, so steady-state encoding
    reuses the same allocation frame after frame; fixed-width fields are
    packed in place with ``struct.pack_into`` instead of materializing
    per-frame ``bytes`` garbage.  Writers are cheap but not thread-safe —
    each encoding thread owns its own.
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

    def u8(self, value: int) -> None:
        _U8.pack_into(self.buf, self.reserve(1), value)

    def u32(self, value: int) -> None:
        _U32.pack_into(self.buf, self.reserve(4), value)

    def i64(self, value: int) -> None:
        _I64.pack_into(self.buf, self.reserve(8), value)

    def f64(self, value: float) -> None:
        _F64.pack_into(self.buf, self.reserve(8), value)

    def raw(self, data: bytes) -> None:
        offset = self.reserve(len(data))
        self.buf[offset : offset + len(data)] = data

    def u32_at(self, offset: int, value: int) -> None:
        """Backfill a length slot reserved earlier."""
        _U32.pack_into(self.buf, offset, value)

    def getvalue(self) -> bytes:
        """One copy out; the backing buffer stays allocated for reuse."""
        return bytes(memoryview(self.buf)[: self.pos])


class _Reader:
    """Bounds-checked cursor over one frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: "bytes | memoryview") -> None:
        self.data = memoryview(data)
        self.pos = 0

    def take(self, count: int) -> memoryview:
        end = self.pos + count
        if end > len(self.data):
            raise TransportError(
                f"truncated frame: wanted {count} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def remaining(self) -> int:
        return len(self.data) - self.pos


class _Ext(NamedTuple):
    """One registered extension type."""

    ext_id: int
    pack: Callable[[Any], Any]
    unpack: Callable[[Any], Any]


_EXT_BY_TYPE: dict[type, _Ext] = {}
_EXT_BY_ID: dict[int, _Ext] = {}
_REGISTRY_BUILT = False


def _register(ext_id: int, kind: type, pack: Callable, unpack: Callable) -> None:
    ext = _Ext(ext_id, pack, unpack)
    if ext_id in _EXT_BY_ID or kind in _EXT_BY_TYPE:  # pragma: no cover - registry bug
        raise TransportError(f"duplicate wire extension registration ({ext_id}, {kind})")
    _EXT_BY_TYPE[kind] = ext
    _EXT_BY_ID[ext_id] = ext


def _build_registry() -> None:
    """Register every domain type that may appear in a control payload.

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
    from ...distributed.coordinator import _SubQuery
    from ...namespace import CategoryPath, InterestArea, InterestCell
    from ...routing.gnutella import GnutellaHit, GnutellaQuery
    from ...routing.napster import _FetchRequest, _IndexRecord
    from ...routing.routing_index import _RIQuery
    from ...xmlmodel import XMLElement, parse_xml, serialize_xml

    # Namespace geometry ships structurally (segment tuples), not as the
    # human text form: the textual encoding normalizes cell order, and the
    # byte-identity gates need the receiving catalog to see exactly the
    # cells the sender held.
    _register(1, CategoryPath, lambda p: p.segments, lambda v: CategoryPath(v))
    _register(2, InterestCell, lambda c: c.coordinates, lambda v: InterestCell(v))
    _register(3, InterestArea, lambda a: a.cells, lambda v: InterestArea(v))
    _register(4, ServerRole, lambda r: r.value, lambda v: ServerRole(v))
    _register(
        5,
        CollectionRef,
        lambda c: (c.url, c.path, c.name, c.cardinality),
        lambda v: CollectionRef(url=v[0], path=v[1], name=v[2], cardinality=v[3]),
    )
    _register(
        6,
        ServerEntry,
        lambda e: (e.address, e.role, e.area, e.authoritative, e.collections, e.registered_at),
        lambda v: ServerEntry(
            address=v[0], role=v[1], area=v[2], authoritative=v[3],
            collections=v[4], registered_at=v[5],
        ),
    )
    _register(
        7,
        NamedResourceEntry,
        lambda e: (e.name, e.collections, e.resolver_servers, e.area),
        lambda v: NamedResourceEntry(
            name=v[0], collections=v[1], resolver_servers=v[2], area=v[3]
        ),
    )
    _register(
        8,
        ServerHolding,
        lambda h: (h.level.value, h.area, h.server, h.delay_minutes),
        lambda v: ServerHolding(CatalogLevel(v[0]), v[1], v[2], v[3]),
    )
    _register(
        9,
        IntensionalStatement,
        lambda s: (s.lhs, s.relation.value, s.rhs),
        lambda v: IntensionalStatement(v[0], Relation(v[1]), v[2]),
    )

    # XML subtrees cross in the paper's own wire form.
    _register(10, XMLElement, serialize_xml, parse_xml)

    # Ids are never reused: 11 and 20 are retired and decode as unknown.
    _register(12, Counter, dict, lambda v: Counter(v))

    # Baseline routing strategies.
    _register(
        13,
        GnutellaQuery,
        lambda q: (q.query_id, q.origin, q.area, q.ttl),
        lambda v: GnutellaQuery(*v),
    )
    _register(
        14,
        GnutellaHit,
        lambda h: (h.query_id, h.server, h.items),
        lambda v: GnutellaHit(v[0], v[1], v[2]),
    )
    _register(
        15, _IndexRecord, lambda r: (r.owner, r.cell, r.count), lambda v: _IndexRecord(*v)
    )
    _register(
        16, _FetchRequest, lambda r: (r.query_id, r.area), lambda v: _FetchRequest(*v)
    )
    _register(
        17,
        _RIQuery,
        lambda q: (q.query_id, q.origin, q.area, q.wanted, q.found, q.path),
        lambda v: _RIQuery(v[0], v[1], v[2], v[3], v[4], v[5]),
    )
    _register(
        18,
        _SubQuery,
        lambda q: (q.query_id, q.url, q.path, q.predicate_text),
        lambda v: _SubQuery(*v),
    )

    # RegistrationPayload lives in the peer layer (the deepest import of
    # the set); registered last so a partial registry is never observable.
    from ...peers.peer import RegistrationPayload

    _register(
        19,
        RegistrationPayload,
        lambda p: (p.entry, p.statements, p.named_resources),
        lambda v: RegistrationPayload(entry=v[0], statements=v[1], named_resources=v[2]),
    )
    _REGISTRY_BUILT = True


def write_value(writer: CodecWriter, obj: Any) -> None:
    """Append one tagged value to ``writer``.

    Dispatch is on *exact* type: subclasses do not silently decay to their
    base representation (a ``Counter`` is an extension, not a dict), and an
    unregistered type is a :class:`TransportError` at encode time — the
    sender finds out, not the peer's decoder.
    """
    kind = type(obj)
    if obj is None:
        writer.u8(_NONE)
    elif kind is bool:
        writer.u8(_TRUE if obj else _FALSE)
    elif kind is int:
        if _INT64_MIN <= obj <= _INT64_MAX:
            writer.u8(_INT64)
            writer.i64(obj)
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            writer.u8(_BIGINT)
            writer.u32(len(raw))
            writer.raw(raw)
    elif kind is float:
        writer.u8(_FLOAT64)
        writer.f64(obj)
    elif kind is str:
        raw = obj.encode("utf-8")
        writer.u8(_STR)
        writer.u32(len(raw))
        writer.raw(raw)
    elif kind is bytes:
        writer.u8(_BYTES)
        writer.u32(len(obj))
        writer.raw(obj)
    elif kind is list:
        writer.u8(_LIST)
        writer.u32(len(obj))
        for item in obj:
            write_value(writer, item)
    elif kind is tuple:
        writer.u8(_TUPLE)
        writer.u32(len(obj))
        for item in obj:
            write_value(writer, item)
    elif kind is dict:
        writer.u8(_DICT)
        writer.u32(len(obj))
        for key, value in obj.items():
            write_value(writer, key)
            write_value(writer, value)
    else:
        if not _REGISTRY_BUILT:
            _build_registry()
        ext = _EXT_BY_TYPE.get(kind)
        if ext is None:
            raise TransportError(
                f"no wire encoding for payload type {kind.__module__}.{kind.__qualname__}"
            )
        writer.u8(_EXT)
        writer.u8(ext.ext_id)
        write_value(writer, ext.pack(obj))


def read_value(reader: _Reader) -> Any:
    """Decode one tagged value; strict about tags, ids and bounds."""
    tag = reader.u8()
    if tag == _NONE:
        return None
    if tag == _TRUE:
        return True
    if tag == _FALSE:
        return False
    if tag == _INT64:
        return reader.i64()
    if tag == _FLOAT64:
        return reader.f64()
    if tag == _STR:
        raw = reader.take(reader.u32())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as error:
            raise TransportError(f"malformed UTF-8 in string value: {error}") from None
    if tag == _BYTES:
        return bytes(reader.take(reader.u32()))
    if tag == _LIST:
        return [read_value(reader) for _ in range(_sane_count(reader))]
    if tag == _TUPLE:
        return tuple(read_value(reader) for _ in range(_sane_count(reader)))
    if tag == _DICT:
        count = _sane_count(reader)
        result = {}
        for _ in range(count):
            key = read_value(reader)
            result[key] = read_value(reader)
        return result
    if tag == _EXT:
        ext_id = reader.u8()
        if not _REGISTRY_BUILT:
            _build_registry()
        ext = _EXT_BY_ID.get(ext_id)
        if ext is None:
            raise TransportError(f"unknown wire extension id {ext_id}")
        body = read_value(reader)
        try:
            return ext.unpack(body)
        except TransportError:
            raise
        except Exception as error:
            raise TransportError(
                f"malformed extension value (id {ext_id}): {error}"
            ) from None
    if tag == _BIGINT:
        return int.from_bytes(reader.take(reader.u32()), "big", signed=True)
    raise TransportError(f"unknown wire value tag 0x{tag:02x}")


def _sane_count(reader: _Reader) -> int:
    """A container length claim cannot exceed the bytes left in the frame.

    Every element costs at least one tag byte, so a larger claim is
    corruption — rejecting it here keeps a hostile length prefix from
    pre-allocating gigabytes.
    """
    count = reader.u32()
    if count > reader.remaining():
        raise TransportError(
            f"corrupt container length {count} with {reader.remaining()} bytes left"
        )
    return count


def encode_value(obj: Any) -> bytes:
    """Encode one value standalone (tests and benchmarks)."""
    writer = CodecWriter()
    write_value(writer, obj)
    return writer.getvalue()


def decode_value(data: bytes) -> Any:
    """Decode one standalone value, rejecting trailing bytes."""
    reader = _Reader(data)
    value = _guarded_read(reader)
    if reader.remaining():
        raise TransportError(f"{reader.remaining()} trailing bytes after value")
    return value


def _guarded_read(reader: _Reader) -> Any:
    """Read one value, converting low-level decode faults to TransportError."""
    try:
        return read_value(reader)
    except TransportError:
        raise
    except (struct.error, ValueError, OverflowError, RecursionError) as error:
        raise TransportError(f"malformed frame: {error}") from None
