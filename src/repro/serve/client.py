"""Blocking client library for the streaming clustering service.

:class:`ServiceClient` is the reference client for the wire protocol in
:mod:`repro.serve.protocol`: it handshakes as one tenant (optionally
pinning the session's batch kernel), streams raw ``(kind, u, v)``
events as codec-v2 delta frames — or column batches as codec-v3
columnar frames via :meth:`ServiceClient.send_columns` — and runs the
barrier queries. It is deliberately synchronous — producers are usually simple
loops (log shippers, ETL taps, the ``repro send`` CLI), and blocking
``sendall`` is exactly how the server's TCP backpressure is meant to be
felt.

>>> from repro.serve import ServiceClient          # doctest: +SKIP
>>> with ServiceClient(("127.0.0.1", 7227), tenant="orders") as client:
...     client.send_events(events)                 # doctest: +SKIP
...     print(client.metrics()["events_per_second"])  # doctest: +SKIP

One client = one socket = one tenant. Open several clients (in several
threads or processes) to stream several tenants concurrently; events
from multiple clients of the *same* tenant interleave at the server in
arrival order.
"""

from __future__ import annotations

import json
import socket
from typing import FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.errors import ProtocolError, ServiceError
from repro.quality.partition import Partition
from repro.serve.protocol import (
    OP_BYE,
    OP_ERROR,
    OP_EVENTS,
    OP_HELLO,
    OP_MEMBERSHIP,
    OP_METRICS,
    OP_OK,
    OP_SNAPSHOT,
    recv_message,
    send_message,
)
from repro.streams.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameEncoder,
    encode_hello,
    wire_message_parts,
)
from repro.streams.events import EventColumns
from repro.streams.io import _parse_vertex

__all__ = ["ServiceClient"]

Endpoint = Union[Tuple[str, int], str]

#: Event frames accumulate in a local buffer list until this many bytes
#: are pending, then flush as one ``sendmsg`` (writev) call — dozens of
#: small frames per syscall instead of one syscall per frame.
_SEND_FLUSH_BYTES = 64 * 1024

#: sendmsg buffer-count ceiling per flush, comfortably under any OS
#: IOV_MAX (two buffers per frame: length/opcode prefix + payload).
_SEND_FLUSH_BUFFERS = 64


class ServiceClient:
    """One tenant's blocking connection to a :class:`ClusterService`.

    ``endpoint`` is a ``(host, port)`` tuple for TCP or a filesystem
    path (str) for a unix-domain socket. The constructor connects and
    handshakes; any server refusal (admission control, bad tenant id,
    kernel conflict) raises :class:`~repro.errors.ServiceError`
    immediately.

    ``kernel`` (``"scalar"``/``"numpy"``) declares which batch kernel
    the tenant's session must run; ``None`` accepts the server default.
    ``batch_size`` sets the chunk the streaming methods encode per
    frame — align it with the server's ``--batch-size`` so frame
    boundaries and the session's coalescing cap agree (that alignment
    is what makes served ``numpy`` partitions deterministic).
    """

    def __init__(
        self,
        endpoint: Endpoint,
        tenant: str,
        *,
        timeout: Optional[float] = 60.0,
        kernel: Optional[str] = None,
        batch_size: int = 1024,
    ) -> None:
        if kernel not in (None, "scalar", "numpy"):
            raise ValueError(
                f"kernel must be None, 'scalar' or 'numpy', got {kernel!r}"
            )
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.endpoint = endpoint
        self.tenant = tenant
        self.kernel = kernel
        self.batch_size = int(batch_size)
        self.events_sent = 0
        self.frames_sent = 0
        self._encoder = FrameEncoder()
        try:
            if isinstance(endpoint, (tuple, list)):
                self._sock = socket.create_connection(
                    (endpoint[0], int(endpoint[1])), timeout=timeout
                )
            else:
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout)
                self._sock.connect(str(endpoint))
        except OSError as error:
            raise ServiceError(
                f"cannot connect to clustering service at {endpoint!r}: {error}"
            ) from None
        try:
            send_message(self._sock, OP_HELLO, encode_hello(tenant, kernel))
            payload = self._expect(OP_OK)
        except Exception:
            self._sock.close()
            raise
        self.server_max_frame_bytes = int.from_bytes(payload[:4], "little")
        # Frames must fit the server's message ceiling (minus the opcode
        # byte); stay at the pipeline default when the server allows more.
        self._max_frame_bytes = max(
            1, min(DEFAULT_MAX_FRAME_BYTES, self.server_max_frame_bytes - 1)
        )
        # Columnar frames use the full server ceiling instead: splitting
        # a column batch into several frames would move the server-side
        # apply boundaries, and an 8-byte-per-event v3 frame at the
        # pipeline default would cap batches around 32k events anyway.
        self._max_columns_bytes = max(1, self.server_max_frame_bytes - 1)

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _recv(self) -> Tuple[bytes, bytes]:
        try:
            return recv_message(self._sock)
        except socket.timeout:
            raise ServiceError(
                f"timed out waiting for a reply from {self.endpoint!r}"
            ) from None
        except EOFError:
            raise ServiceError(
                f"connection to {self.endpoint!r} closed by the server"
            ) from None

    def _expect(self, want: bytes) -> bytes:
        op, payload = self._recv()
        if op == want:
            return bytes(payload)
        if op == OP_ERROR:
            raise ServiceError(
                f"server refused: {bytes(payload).decode('utf-8', 'replace')}"
            )
        raise ProtocolError(f"unexpected reply opcode {op!r} (wanted {want!r})")

    def _send(self, op: bytes, payload: bytes = b"") -> None:
        try:
            send_message(self._sock, op, payload)
        except OSError as error:
            raise ServiceError(
                f"send to {self.endpoint!r} failed: {error} (the server may "
                "have closed the connection; check its log for the reason)"
            ) from None

    def _send_buffers(self, buffers: List[bytes]) -> None:
        """Flush several wire-message parts in one writev-style call.

        ``sendmsg`` takes the buffer list directly (gathered by the
        kernel, no user-space join); platforms without it fall back to
        one joined ``sendall``. Partial sends are resumed buffer-by-
        buffer.
        """
        sock = self._sock
        try:
            if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX
                sock.sendall(b"".join(buffers))
                return
            views = [memoryview(buffer) for buffer in buffers]
            while views:
                sent = sock.sendmsg(views)
                while views and sent >= len(views[0]):
                    sent -= len(views[0])
                    views.pop(0)
                if sent and views:
                    views[0] = views[0][sent:]
        except OSError as error:
            raise ServiceError(
                f"send to {self.endpoint!r} failed: {error} (the server may "
                "have closed the connection; check its log for the reason)"
            ) from None

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def send_events(self, events: Iterable) -> int:
        """Stream events (raw tuples or ``EdgeEvent``); returns how many.

        Events are packed into delta frames against this connection's
        cumulative vertex table and pipelined without per-frame acks —
        a blocking send is the server's backpressure reaching you.
        Frames accumulate locally and flush in writev-sized bursts (one
        syscall for many frames). Delivery of everything sent is
        confirmed by any later barrier query (:meth:`snapshot`,
        :meth:`metrics`, :meth:`membership`).
        """
        count = 0
        pending: List[bytes] = []
        pending_bytes = 0
        for batch_events, frame in self._frames(events):
            prefix, payload = wire_message_parts(OP_EVENTS, frame)
            pending.append(prefix)
            pending.append(payload)
            pending_bytes += len(prefix) + len(payload)
            self.frames_sent += 1
            count += batch_events
            if (
                pending_bytes >= _SEND_FLUSH_BYTES
                or len(pending) >= _SEND_FLUSH_BUFFERS
            ):
                self._send_buffers(pending)
                pending = []
                pending_bytes = 0
        if pending:
            self._send_buffers(pending)
        self.events_sent += count
        return count

    def send_columns(self, batches: Iterable[EventColumns]) -> int:
        """Stream :class:`EventColumns` batches; returns the event count.

        All-``ADD_EDGE`` batches (``kinds is None`` — what the columnar
        stream readers emit) travel as codec-v3 columnar frames: one
        frame per batch, decoded server-side into arrays that feed the
        numpy kernel with zero per-event Python on either side. Batches
        carrying other kinds fall back to v2 tuple frames on the same
        connection. Frame flushing and backpressure behave exactly like
        :meth:`send_events`.
        """
        count = 0
        pending: List[bytes] = []
        pending_bytes = 0
        for columns in batches:
            n = len(columns)
            if not n:
                continue
            if columns.kinds is None:
                frames = self._encoder.encode_columns(
                    columns.us, columns.vs, max_bytes=self._max_columns_bytes
                )
            else:
                frames = self._encoder.encode_batches(
                    columns.to_events(), max_bytes=self._max_frame_bytes
                )
            for frame in frames:
                prefix, payload = wire_message_parts(OP_EVENTS, frame)
                pending.append(prefix)
                pending.append(payload)
                pending_bytes += len(prefix) + len(payload)
                self.frames_sent += 1
                if (
                    pending_bytes >= _SEND_FLUSH_BYTES
                    or len(pending) >= _SEND_FLUSH_BUFFERS
                ):
                    self._send_buffers(pending)
                    pending = []
                    pending_bytes = 0
            count += n
        if pending:
            self._send_buffers(pending)
        self.events_sent += count
        return count

    def send_frames(self, frames: Iterable[bytes]) -> int:
        """Stream pre-encoded event frames verbatim; returns the frame
        count.

        The replay path: frames already produced by a
        :class:`~repro.streams.codec.FrameEncoder` (captured wire
        traffic, or a stream encoded once and fanned out to many
        tenants) are shipped without re-encoding. The frames must carry
        their own vertex-table deltas starting from a fresh encoder —
        exactly what this connection's server-side decoder expects — so
        do not interleave with :meth:`send_events` or
        :meth:`send_columns`, whose shared encoder state would desync
        the table. Flushing and backpressure behave exactly like
        :meth:`send_events`.
        """
        sent = 0
        pending: List[bytes] = []
        pending_bytes = 0
        for frame in frames:
            prefix, payload = wire_message_parts(OP_EVENTS, frame)
            pending.append(prefix)
            pending.append(payload)
            pending_bytes += len(prefix) + len(payload)
            self.frames_sent += 1
            sent += 1
            if (
                pending_bytes >= _SEND_FLUSH_BYTES
                or len(pending) >= _SEND_FLUSH_BUFFERS
            ):
                self._send_buffers(pending)
                pending = []
                pending_bytes = 0
        if pending:
            self._send_buffers(pending)
        return sent

    def _frames(self, events: Iterable):
        """(event count, frame bytes) pairs under the server's ceiling."""
        # encode_batches sizes frames; counting events per frame needs
        # the batch boundaries, so chunk manually via the encoder.
        batch: List = []
        for event in events:
            batch.append(event)
            if len(batch) >= self.batch_size:
                yield from self._encode_chunk(batch)
                batch = []
        if batch:
            yield from self._encode_chunk(batch)

    def _encode_chunk(self, batch: List):
        remaining = len(batch)
        for frame in self._encoder.encode_batches(
            batch, max_bytes=self._max_frame_bytes
        ):
            # encode_batches may split the chunk; events-per-frame is
            # only needed for reporting, so attribute the whole chunk
            # to its final frame.
            count, remaining = (remaining, 0)
            yield count, frame

    # ------------------------------------------------------------------
    # Barrier queries
    # ------------------------------------------------------------------
    def snapshot(self) -> str:
        """The tenant's current clustering as ``vertex<TAB>cluster``
        lines — byte-identical to ``repro cluster`` output for the same
        stream (a barrier: reflects everything sent before the call)."""
        self._send(OP_SNAPSHOT)
        return self._expect(OP_SNAPSHOT).decode("utf-8")

    def snapshot_partition(self) -> Partition:
        """:meth:`snapshot`, parsed back into a :class:`Partition`."""
        labels = {}
        for line in self.snapshot().splitlines():
            vertex, _, label = line.partition("\t")
            labels[_parse_vertex(vertex)] = label
        return Partition(labels)

    def membership(self, vertex) -> FrozenSet:
        """All vertices currently clustered with ``vertex`` (a barrier)."""
        self._send(OP_MEMBERSHIP, str(vertex).encode("utf-8"))
        payload = self._expect(OP_MEMBERSHIP).decode("utf-8")
        return frozenset(_parse_vertex(line) for line in payload.splitlines())

    def metrics(self) -> dict:
        """The tenant's SLO metrics (events/s, p99 ingest latency,
        queue lag, drops — see ``docs/service.md``; a barrier)."""
        self._send(OP_METRICS)
        return json.loads(self._expect(OP_METRICS).decode("utf-8"))

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Polite goodbye (BYE/ack), then close the socket (idempotent)."""
        if self._sock is None:
            return
        try:
            self._send(OP_BYE)
            self._expect(OP_BYE)
        except (ServiceError, ProtocolError):
            pass  # the socket is going away either way
        finally:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._sock is None else "connected"
        return (
            f"ServiceClient(endpoint={self.endpoint!r}, "
            f"tenant={self.tenant!r}, {state})"
        )
