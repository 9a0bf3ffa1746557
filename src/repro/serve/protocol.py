"""Wire protocol for the streaming clustering service.

The service speaks length-prefixed messages (``u32 length | u8 opcode |
payload`` — see :func:`repro.streams.codec.pack_wire_message`) over a
TCP or unix-domain socket. Event payloads are codec version-2 delta
frames or version-3 columnar frames, exactly the bytes the multiprocess
pipeline ships over its pipes, so a client streams with the same
:class:`~repro.streams.codec.FrameEncoder` the pipeline producer uses.

Both message readers return the payload as a **memoryview** over the
receive buffer: the frame decoders (and ``np.frombuffer`` on the
columnar path) consume it without re-slicing the body into a fresh
``bytes`` first.

Conversation shape (client side)::

    HELLO(tenant)  ──►            ◄── OK(limits)        handshake
    EVENTS(frame)  ──►                                  pipelined, no ack
    SNAPSHOT       ──►            ◄── SNAPSHOT(labels)  barrier query
    MEMBERSHIP(v)  ──►            ◄── MEMBERSHIP(set)   barrier query
    METRICS        ──►            ◄── METRICS(json)     barrier query
    BYE            ──►            ◄── BYE               graceful close

Every query is a **barrier**: it is enqueued on the tenant's FIFO
ingest queue behind all previously accepted events, so its answer
reflects every event any connection of that tenant sent before it —
the socket-level twin of the pipeline's control-message barriers.

Anything structurally wrong — an oversized length prefix, a truncated
message, an undecodable frame, a bad handshake — draws an ``ERROR``
reply and closes *that connection only*; the daemon and all other
tenants keep running (:class:`~repro.errors.ProtocolError` client-side).

This module holds the opcode vocabulary, the asyncio and blocking
message readers, and the deterministic rendering of snapshot/membership
replies. Low-level byte packing lives in :mod:`repro.streams.codec`;
the server and client libraries live beside this module.
"""

from __future__ import annotations

import asyncio
import socket
from typing import List, Tuple

from repro.errors import ProtocolError
from repro.quality.partition import render_snapshot
from repro.streams.codec import (
    DEFAULT_MAX_WIRE_BYTES,
    pack_wire_message,
    split_wire_message,
    wire_message_parts,
)

__all__ = [
    "DEFAULT_MAX_WIRE_BYTES",
    "MAX_TENANT_ID_BYTES",
    "OP_BYE",
    "OP_ERROR",
    "OP_EVENTS",
    "OP_HELLO",
    "OP_MEMBERSHIP",
    "OP_METRICS",
    "OP_OK",
    "OP_SNAPSHOT",
    "read_message",
    "recv_message",
    "render_membership",
    "render_snapshot",
    "send_message",
    "valid_tenant_id",
    "wire_message_parts",
]

# Client → server opcodes.
OP_HELLO = b"H"
OP_EVENTS = b"E"
OP_SNAPSHOT = b"P"
OP_MEMBERSHIP = b"B"
OP_METRICS = b"T"
OP_BYE = b"Q"

# Server → client opcodes (queries echo their request opcode).
OP_OK = b"O"
OP_ERROR = b"!"

#: Tenant ids double as checkpoint file names, so the accepted alphabet
#: is the filesystem-safe subset (no separators, no dots-only names).
MAX_TENANT_ID_BYTES = 128
_TENANT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def valid_tenant_id(tenant_id: str) -> bool:
    """True when ``tenant_id`` is acceptable at admission.

    1..128 bytes from ``[A-Za-z0-9._-]``, not starting with a dot (a
    tenant names its own checkpoint file, so it must be a safe, visible
    file name on every platform).
    """
    if not tenant_id or len(tenant_id.encode("utf-8")) > MAX_TENANT_ID_BYTES:
        return False
    if tenant_id.startswith("."):
        return False
    return all(ch in _TENANT_CHARS for ch in tenant_id)


async def read_message(
    reader: asyncio.StreamReader, *, max_bytes: int = DEFAULT_MAX_WIRE_BYTES
) -> Tuple[bytes, memoryview]:
    """Read one wire message; returns ``(opcode, payload)``.

    The payload is a memoryview over the message body (see the module
    docstring). Raises :class:`ProtocolError` for an oversized declared
    length or a stream that ends mid-message, and ``EOFError`` for a
    clean EOF on a message boundary (a normal way for a client to
    leave).
    """
    try:
        prefix = await reader.readexactly(4)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise EOFError("connection closed") from None
        raise ProtocolError(
            f"truncated wire message: {len(error.partial)} of 4 length "
            "bytes before EOF"
        ) from None
    length = int.from_bytes(prefix, "little")
    if length == 0:
        raise ProtocolError("corrupt wire message: zero-length body")
    if length > max_bytes:
        raise ProtocolError(
            f"oversized wire message: {length} bytes declared, "
            f"limit is {max_bytes}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"truncated wire message: {len(error.partial)} of {length} "
            "body bytes before EOF"
        ) from None
    try:
        return split_wire_message(body)
    except ValueError as error:
        raise ProtocolError(str(error)) from None


def send_message(sock: socket.socket, op: bytes, payload: bytes = b"") -> None:
    """Blocking send of one wire message (client side)."""
    sock.sendall(pack_wire_message(op, payload))


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(
    sock: socket.socket, *, max_bytes: int = DEFAULT_MAX_WIRE_BYTES
) -> Tuple[bytes, memoryview]:
    """Blocking read of one wire message (client side).

    Mirrors :func:`read_message`: ``EOFError`` on a clean boundary,
    :class:`ProtocolError` on truncation or an oversized length.
    """
    prefix = _recv_exactly(sock, 4)
    if not prefix:
        raise EOFError("connection closed")
    if len(prefix) < 4:
        raise ProtocolError(
            f"truncated wire message: {len(prefix)} of 4 length bytes "
            "before EOF"
        )
    length = int.from_bytes(prefix, "little")
    if length == 0:
        raise ProtocolError("corrupt wire message: zero-length body")
    if length > max_bytes:
        raise ProtocolError(
            f"oversized wire message: {length} bytes declared, "
            f"limit is {max_bytes}"
        )
    body = _recv_exactly(sock, length)
    if len(body) < length:
        raise ProtocolError(
            f"truncated wire message: {len(body)} of {length} body bytes "
            "before EOF"
        )
    try:
        return split_wire_message(body)
    except ValueError as error:
        raise ProtocolError(str(error)) from None


def render_membership(members) -> str:
    """One member per line, ``repr``-sorted — deterministic like
    :func:`~repro.quality.partition.render_snapshot`, which this module
    re-exports for the service's SNAPSHOT replies."""
    return "".join(f"{vertex}\n" for vertex in sorted(members, key=repr))
