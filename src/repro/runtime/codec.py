"""Length-prefixed JSON wire codec for the asyncio runtime.

One frame on the wire is::

    +----------------+---------+------------------------------+
    | length (4B BE) | version | canonical JSON payload (UTF-8) |
    +----------------+---------+------------------------------+

``length`` counts the version byte plus the payload, so a reader can
consume frames from a stream without parsing JSON; the version byte
lets the wire format evolve without ambiguity (a reader refuses
frames from a future protocol with :class:`UnknownWireVersion`
instead of misparsing them).

The JSON payload is *canonical* -- sorted keys, no whitespace -- so
encode -> decode -> encode is byte-identical, which is what the codec
round-trip tests pin down.  Two payload families share the framing:

- **protocol messages** (``{"t": "<MessageType>", ...}``): the typed
  vocabulary of :mod:`repro.protocol.messages`, one tag per dataclass,
  with tuples/treaties lowered to JSON and reconstructed exactly on
  decode (:func:`encode_message` / :func:`decode_message`);
- **reply / client payloads**: handler replies are plain values
  (``None``, ``True``, ``(log, written)``) carried through the tagged
  value codec (:func:`value_to_wire` / :func:`value_from_wire`), and
  the serve layer's client dicts ride :func:`encode_payload` /
  :func:`decode_payload` directly.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Mapping

from repro.protocol.messages import (
    CleanupRun,
    Complete,
    Decision,
    Message,
    Phase2a,
    Phase2b,
    Prepare,
    RebalanceRequest,
    Rejoin,
    SyncBroadcast,
    Vote,
    VoteReply,
)

#: Current wire protocol version (the byte after the length prefix).
WIRE_VERSION = 1

#: 4-byte big-endian unsigned frame length.
_HEADER = struct.Struct(">I")

#: Frames above this are refused outright (a corrupt length prefix
#: must not make a reader try to allocate gigabytes).
MAX_FRAME_BYTES = 8 * 1024 * 1024


class CodecError(Exception):
    """The bytes on the wire are not a well-formed frame."""


class TruncatedFrame(CodecError):
    """The stream ended (or the buffer ran out) mid-frame."""


class UnknownWireVersion(CodecError):
    """The frame's version byte names a protocol this codec does not
    speak."""


class UnknownMessageType(CodecError):
    """The payload's type tag names no known message."""


_MESSAGE_TYPES: dict[str, type[Message]] = {
    cls.__name__: cls
    for cls in (
        SyncBroadcast,
        Vote,
        VoteReply,
        RebalanceRequest,
        CleanupRun,
        Rejoin,
        Phase2a,
        Phase2b,
        Complete,
        Prepare,
        Decision,
    )
}

#: Message fields carrying ``tuple[tuple[str, int], ...]`` payloads
#: (JSON lowers them to nested lists; decode restores the tuples).
_PAIR_TUPLE_FIELDS = {"updates", "params"}
#: Message fields carrying flat ``tuple[str, ...]`` payloads.
_FLAT_TUPLE_FIELDS = {"objects"}
#: Message fields carrying ``tuple[tuple[int, bool], ...]`` payloads
#: (Paxos Commit per-participant verdicts).
_VERDICT_TUPLE_FIELDS = {"verdicts"}


# -- framing -------------------------------------------------------------------


def encode_payload(obj: Mapping[str, Any]) -> bytes:
    """Frame one JSON-able payload dict: length + version + canonical
    JSON."""
    body = bytes([WIRE_VERSION]) + json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds the wire maximum")
    return _HEADER.pack(len(body)) + body


def decode_payload(data: bytes) -> dict[str, Any]:
    """Parse one complete frame back into its payload dict.

    Raises :class:`TruncatedFrame` when ``data`` is shorter than its
    length prefix promises (or too short to hold a prefix at all),
    :class:`CodecError` when trailing bytes follow the frame, and
    :class:`UnknownWireVersion` on a version byte this codec does not
    speak.
    """
    if len(data) < _HEADER.size:
        raise TruncatedFrame(
            f"{len(data)} bytes cannot hold a {_HEADER.size}-byte length prefix"
        )
    (length,) = _HEADER.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds the wire maximum")
    body = data[_HEADER.size :]
    if len(body) < length:
        raise TruncatedFrame(f"frame promises {length} bytes, got {len(body)}")
    if len(body) > length:
        raise CodecError(f"{len(body) - length} trailing bytes after the frame")
    if length == 0:
        raise TruncatedFrame("empty frame (no version byte)")
    version = body[0]
    if version != WIRE_VERSION:
        raise UnknownWireVersion(
            f"wire version {version} (this codec speaks {WIRE_VERSION})"
        )
    try:
        payload = json.loads(body[1:length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"frame payload is not canonical JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CodecError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    return payload


# -- protocol messages ---------------------------------------------------------


def message_to_wire(msg: Message) -> dict[str, Any]:
    """Lower one typed message to its JSON payload dict."""
    name = type(msg).__name__
    if name not in _MESSAGE_TYPES:
        raise UnknownMessageType(f"cannot encode message type {name}")
    payload: dict[str, Any] = {"t": name, "src": msg.src, "dst": msg.dst}
    for field_name in _message_fields(type(msg)):
        value = getattr(msg, field_name)
        if field_name in _PAIR_TUPLE_FIELDS:
            value = [[k, v] for k, v in value]
        elif field_name in _FLAT_TUPLE_FIELDS:
            value = list(value)
        elif field_name in _VERDICT_TUPLE_FIELDS:
            value = [[p, ok] for p, ok in value]
        payload[field_name] = value
    return payload


def message_from_wire(payload: Mapping[str, Any]) -> Message:
    """Rebuild the typed message a payload dict encodes (exact field
    types restored, so the dataclass equality round-trips)."""
    tag = payload.get("t")
    cls = _MESSAGE_TYPES.get(tag)  # type: ignore[arg-type]
    if cls is None:
        raise UnknownMessageType(f"unknown message type tag {tag!r}")
    kwargs: dict[str, Any] = {}
    try:
        kwargs["src"] = int(payload["src"])
        kwargs["dst"] = int(payload["dst"])
        for field_name in _message_fields(cls):
            value = payload[field_name]
            if field_name in _PAIR_TUPLE_FIELDS:
                value = tuple((str(k), int(v)) for k, v in value)
            elif field_name in _FLAT_TUPLE_FIELDS:
                value = tuple(str(v) for v in value)
            elif field_name in _VERDICT_TUPLE_FIELDS:
                value = tuple((int(p), bool(ok)) for p, ok in value)
            kwargs[field_name] = value
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed {tag} payload: {exc!r}") from exc
    return cls(**kwargs)


def _message_fields(cls: type[Message]) -> tuple[str, ...]:
    """Payload fields of a message class, beyond src/dst."""
    return tuple(
        name for name in cls.__dataclass_fields__ if name not in ("src", "dst")
    )


def encode_message(msg: Message) -> bytes:
    """One typed message as a complete wire frame."""
    return encode_payload(message_to_wire(msg))


def decode_message(data: bytes) -> Message:
    """Parse one complete frame as a typed protocol message."""
    return message_from_wire(decode_payload(data))


# -- reply values --------------------------------------------------------------

_VALUE_TAGS = {"tuple": tuple, "set": set, "frozenset": frozenset}


def value_to_wire(value: Any) -> Any:
    """Lower a handler reply value to JSON, tagging the container
    types JSON cannot represent (tuples, sets, frozensets)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, tuple):
        return {"__": "tuple", "v": [value_to_wire(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        tag = "set" if isinstance(value, set) else "frozenset"
        return {"__": tag, "v": sorted(value_to_wire(v) for v in value)}
    raise CodecError(f"cannot encode reply value of type {type(value).__name__}")


def value_from_wire(value: Any) -> Any:
    """Rebuild a tagged reply value (exact container types restored)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        tag = value.get("__")
        build = _VALUE_TAGS.get(tag)
        if build is None or "v" not in value:
            raise CodecError(f"malformed tagged value {value!r}")
        return build(value_from_wire(v) for v in value["v"])
    raise CodecError(f"cannot decode reply value {value!r}")


# -- stream helpers ------------------------------------------------------------


async def read_frame(reader: Any) -> bytes | None:
    """Read one complete frame from an asyncio stream reader.

    Returns the frame bytes (prefix included, ready for
    :func:`decode_payload`), or ``None`` on a clean EOF at a frame
    boundary.  EOF mid-frame raises :class:`TruncatedFrame`.
    """
    header = await reader.read(_HEADER.size)
    if not header:
        return None
    while len(header) < _HEADER.size:
        chunk = await reader.read(_HEADER.size - len(header))
        if not chunk:
            raise TruncatedFrame("stream ended inside a frame length prefix")
        header += chunk
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds the wire maximum")
    body = b""
    while len(body) < length:
        chunk = await reader.read(length - len(body))
        if not chunk:
            raise TruncatedFrame(
                f"stream ended inside a frame ({len(body)}/{length} bytes)"
            )
        body += chunk
    return header + body


def read_frame_from_socket(sock: Any) -> bytes | None:
    """Blocking-socket twin of :func:`read_frame` (the sync client)."""
    header = _recv_exact(sock, _HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds the wire maximum")
    body = _recv_exact(sock, length, allow_eof=False)
    assert body is not None
    return header + body


def _recv_exact(sock: Any, count: int, allow_eof: bool) -> bytes | None:
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            if allow_eof and not data:
                return None
            raise TruncatedFrame(
                f"connection closed inside a frame ({len(data)}/{count} bytes)"
            )
        data += chunk
    return data
