"""Stream event model.

A streaming graph is a (possibly infinite) sequence of :class:`EdgeEvent`
values. Following the paper, the stream may contain **vertex or edge
additions and deletions**; the clusterer consumes them one at a time in an
online, incremental fashion.

Vertices are arbitrary hashable identifiers (ints in all our generators).
Edges are undirected and are canonicalized so that ``(u, v)`` and
``(v, u)`` denote the same edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Optional, Tuple

__all__ = [
    "Vertex",
    "Edge",
    "EventKind",
    "EdgeEvent",
    "EventColumns",
    "RawEvent",
    "canonical_edge",
    "add_edge",
    "delete_edge",
    "add_vertex",
    "delete_vertex",
    "events_from_edges",
    "count_kinds",
    "concat_event_batches",
]

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]

#: Lightweight event representation for the batched fast path: a plain
#: ``(kind, u, v)`` tuple (``v=None`` for vertex events). Unlike
#: :class:`EdgeEvent` it is *not* validated or canonicalized at
#: construction — ``StreamingGraphClusterer.apply_many`` does both in
#: bulk, raising the same errors an :class:`EdgeEvent` would.
RawEvent = Tuple["EventKind", Vertex, Optional[Vertex]]


class EventKind(enum.Enum):
    """The four update kinds the paper's stream model supports."""

    ADD_EDGE = "add_edge"
    DELETE_EDGE = "delete_edge"
    ADD_VERTEX = "add_vertex"
    DELETE_VERTEX = "delete_vertex"


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (sorted) form of the undirected edge ``{u, v}``.

    Self-loops are rejected: the clustering model has no use for them and
    allowing them would complicate connectivity bookkeeping silently.
    """
    if u == v:
        raise ValueError(f"self-loop edges are not allowed: ({u!r}, {v!r})")
    # Sort by repr as a total order over heterogeneous hashables; for the
    # homogeneous int/str vertices used in practice this is the natural order.
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One update in a streaming graph.

    For edge events both ``u`` and ``v`` are set; for vertex events only
    ``u`` is meaningful and ``v`` is ``None``.
    """

    kind: EventKind
    u: Vertex
    v: Vertex | None = None

    def __post_init__(self) -> None:
        if self.kind in (EventKind.ADD_EDGE, EventKind.DELETE_EDGE):
            if self.v is None:
                raise ValueError(f"{self.kind.value} event requires two endpoints")
            cu, cv = canonical_edge(self.u, self.v)
            object.__setattr__(self, "u", cu)
            object.__setattr__(self, "v", cv)
        else:
            if self.v is not None:
                raise ValueError(f"{self.kind.value} event takes a single vertex")

    @property
    def edge(self) -> Edge:
        """The canonical edge for edge events; raises for vertex events."""
        if self.v is None:
            raise ValueError(f"{self.kind.value} event has no edge")
        return (self.u, self.v)

    @property
    def is_edge_event(self) -> bool:
        """True for ADD_EDGE / DELETE_EDGE events."""
        return self.v is not None


@dataclass(slots=True)
class EventColumns:
    """A batch of raw events in column (struct-of-arrays) form.

    The column readers (:func:`repro.streams.io.read_edge_columns`,
    :func:`repro.streams.io.read_event_columns`,
    :func:`repro.streams.order.insert_only_columns`) emit these so the
    numpy batch kernel can consume a whole batch without building a
    tuple per event. ``kinds`` is ``None`` when *every* event in the
    batch is an ``ADD_EDGE`` — the overwhelmingly common case, which
    the kernel then vectorizes in a single run. Like :data:`RawEvent`
    tuples, columns are neither validated nor canonicalized here;
    ``apply_many`` does both in bulk.

    Columns are numpy int64 arrays when every label is an int that fits
    (the edge-list readers, :meth:`of_labels`, and the columnar wire
    decode of :mod:`repro.streams.codec`) and lists otherwise; every
    consumer of ``us``/``vs`` must handle both.
    """

    us: list
    vs: list
    kinds: Optional[list] = None

    @classmethod
    def of_labels(cls, us: list, vs: list) -> "EventColumns":
        """ADD_EDGE columns for two label lists: int64 arrays when every
        label is exactly ``int`` (not ``bool``) and fits, else the
        lists themselves."""
        if us and set(map(type, us)) == {int} == set(map(type, vs)):
            import numpy as np

            try:
                return cls(us=np.array(us, dtype=np.int64),
                           vs=np.array(vs, dtype=np.int64))
            except OverflowError:
                pass
        return cls(us=us, vs=vs)

    def __len__(self) -> int:
        return len(self.us)

    def to_events(self) -> list:
        """The same batch as a list of raw ``(kind, u, v)`` tuples.

        Array-backed columns convert through ``tolist()`` so the tuples
        carry plain Python ints — scalar-path consumers (and checkpoint
        byte-identity) never see numpy scalar types.
        """
        us = self.us if type(self.us) is list else self.us.tolist()
        vs = self.vs if type(self.vs) is list else self.vs.tolist()
        if self.kinds is None:
            add = EventKind.ADD_EDGE
            return [(add, u, v) for u, v in zip(us, vs)]
        return list(zip(self.kinds, us, vs))

    def slice(self, start: int, stop: int) -> "EventColumns":
        """The sub-batch ``[start:stop)`` (zero-copy for array columns)."""
        if start == 0 and stop >= len(self.us):
            return self
        kinds = None if self.kinds is None else self.kinds[start:stop]
        return EventColumns(
            us=self.us[start:stop], vs=self.vs[start:stop], kinds=kinds
        )

    def chunks(self, size: int) -> Iterator["EventColumns"]:
        """Consecutive sub-batches of ``size`` events (the last may be
        shorter), the way ``process(..., batch_size=size)`` cuts a
        stream."""
        for start in range(0, len(self.us), size):
            yield self.slice(start, start + size)

    def take(self, index) -> "EventColumns":
        """The events at positions ``index`` (an int array), in order."""

        def pick(column):
            if type(column) is list:
                return [column[i] for i in index.tolist()]
            return None if column is None else column[index]

        return EventColumns(
            us=pick(self.us), vs=pick(self.vs), kinds=pick(self.kinds)
        )


def concat_event_batches(batches: list):
    """Merge decoded event batches into one apply-ready batch.

    Input items are raw-tuple lists and/or :class:`EventColumns` (the
    two shapes a frame decode produces); the service drain loop uses
    this to coalesce adjacent small client frames into one kernel-sized
    ``apply_many``. All-``ADD_EDGE`` columns concatenate column-wise
    (staying vectorizable); any mix falls back to one flat tuple list,
    which preserves event order exactly.
    """
    if len(batches) == 1:
        return batches[0]
    if all(type(b) is EventColumns and b.kinds is None for b in batches):
        us_parts = [b.us for b in batches]
        vs_parts = [b.vs for b in batches]
        if all(type(p) is list for p in us_parts) and all(
            type(p) is list for p in vs_parts
        ):
            us: list = []
            vs: list = []
            for up, vp in zip(us_parts, vs_parts):
                us.extend(up)
                vs.extend(vp)
            return EventColumns(us=us, vs=vs)
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - arrays imply numpy exists
            np = None
        if np is not None and all(
            isinstance(p, np.ndarray) for p in us_parts + vs_parts
        ):
            return EventColumns(
                us=np.concatenate(us_parts), vs=np.concatenate(vs_parts)
            )
    merged: list = []
    for batch in batches:
        merged.extend(
            batch.to_events() if type(batch) is EventColumns else batch
        )
    return merged


def add_edge(u: Vertex, v: Vertex) -> EdgeEvent:
    """Shorthand constructor for an ADD_EDGE event."""
    return EdgeEvent(EventKind.ADD_EDGE, u, v)


def delete_edge(u: Vertex, v: Vertex) -> EdgeEvent:
    """Shorthand constructor for a DELETE_EDGE event."""
    return EdgeEvent(EventKind.DELETE_EDGE, u, v)


def add_vertex(u: Vertex) -> EdgeEvent:
    """Shorthand constructor for an ADD_VERTEX event."""
    return EdgeEvent(EventKind.ADD_VERTEX, u)


def delete_vertex(u: Vertex) -> EdgeEvent:
    """Shorthand constructor for a DELETE_VERTEX event.

    Deleting a vertex implicitly deletes all its incident edges; the
    clusterer expands this internally.
    """
    return EdgeEvent(EventKind.DELETE_VERTEX, u)


def events_from_edges(edges: Iterable[Edge]) -> Iterator[EdgeEvent]:
    """Turn a plain edge list into an insert-only event stream."""
    for u, v in edges:
        yield add_edge(u, v)


def count_kinds(events: Iterable[EdgeEvent]) -> dict:
    """Count events per kind (consumes the iterable); useful in tests."""
    counts: dict = {kind: 0 for kind in EventKind}
    for event in events:
        counts[event.kind] += 1
    return counts
