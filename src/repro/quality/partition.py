"""Immutable vertex partitions (clusterings).

:class:`Partition` is the common currency between the streaming
clusterer, the offline baselines, and the quality metrics: a frozen
assignment of vertices to cluster labels with convenient views.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Set

from repro.streams.events import Vertex

__all__ = ["Partition", "render_snapshot"]


class Partition:
    """An immutable clustering of a vertex set.

    Construct from a label mapping or via :meth:`from_clusters`. Labels
    are arbitrary hashables; :meth:`normalized` renames them to dense
    integers ordered by decreasing cluster size (deterministic).

    >>> p = Partition.from_clusters([{1, 2, 3}, {4}])
    >>> p.num_clusters
    2
    >>> p.same_cluster(1, 3)
    True
    """

    __slots__ = ("_label", "_clusters", "_sizes", "_ordered")

    def __init__(self, labels: Mapping[Vertex, object]) -> None:
        self._label: Dict[Vertex, object] = dict(labels)
        clusters: Dict[object, Set[Vertex]] = {}
        for vertex, label in self._label.items():
            clusters.setdefault(label, set()).add(vertex)
        self._clusters: Dict[object, FrozenSet[Vertex]] = {
            label: frozenset(members) for label, members in clusters.items()
        }
        self._sizes: Dict[object, int] = {
            label: len(members) for label, members in self._clusters.items()
        }
        self._ordered: List[FrozenSet[Vertex]] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_clusters(cls, clusters: Iterable[Iterable[Vertex]]) -> "Partition":
        """Build a partition from disjoint vertex groups.

        Raises ``ValueError`` if a vertex appears in two groups.
        """
        labels: Dict[Vertex, object] = {}
        for index, members in enumerate(clusters):
            for vertex in members:
                if vertex in labels:
                    raise ValueError(f"vertex {vertex!r} appears in multiple clusters")
                labels[vertex] = index
        return cls(labels)

    @classmethod
    def singletons(cls, vertices: Iterable[Vertex]) -> "Partition":
        """Every vertex in its own cluster."""
        return cls({v: i for i, v in enumerate(vertices)})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def label_of(self, v: Vertex) -> object:
        """Cluster label of ``v``; raises ``KeyError`` for unknown vertices."""
        return self._label[v]

    def get(self, v: Vertex, default: object = None) -> object:
        """Cluster label of ``v`` or ``default``."""
        return self._label.get(v, default)

    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` carry the same label."""
        return self._label[u] == self._label[v]

    def members(self, label: object) -> FrozenSet[Vertex]:
        """Vertices carrying ``label``."""
        return self._clusters[label]

    def clusters(self) -> List[FrozenSet[Vertex]]:
        """All clusters, largest first (ties broken deterministically).

        The ordering is memoized — the partition is immutable and both
        metrics and output writers call this repeatedly; a fresh list is
        returned each time so callers may mutate it.
        """
        if self._ordered is None:
            self._ordered = sorted(
                self._clusters.values(),
                key=lambda members: (-len(members), sorted(map(repr, members))),
            )
        return list(self._ordered)

    def labels(self) -> Dict[Vertex, object]:
        """Vertex → label mapping (copy)."""
        return dict(self._label)

    def sizes(self) -> List[int]:
        """Cluster sizes, descending."""
        return sorted(self._sizes.values(), reverse=True)

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self._clusters)

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the partition."""
        return len(self._label)

    @property
    def max_cluster_size(self) -> int:
        """Size of the largest cluster (0 for an empty partition)."""
        return max(self._sizes.values(), default=0)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate covered vertices."""
        return iter(self._label)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._label

    def __len__(self) -> int:
        return len(self._label)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same grouping regardless of label names."""
        if not isinstance(other, Partition):
            return NotImplemented
        if self._label.keys() != other._label.keys():
            return False
        return self.cluster_sets() == other.cluster_sets()

    def __hash__(self) -> int:
        return hash(self.cluster_sets())

    def cluster_sets(self) -> FrozenSet[FrozenSet[Vertex]]:
        """The partition as a frozen set of frozen vertex sets."""
        return frozenset(self._clusters.values())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def normalized(self) -> "Partition":
        """Relabel clusters 0..k-1 by decreasing size (deterministic)."""
        ordered = self.clusters()
        labels: Dict[Vertex, object] = {}
        for index, members in enumerate(ordered):
            for vertex in members:
                labels[vertex] = index
        return Partition(labels)

    def restricted_to(self, vertices: Iterable[Vertex]) -> "Partition":
        """The partition induced on ``vertices`` (unknown ones ignored)."""
        keep = set(vertices)
        return Partition({v: l for v, l in self._label.items() if v in keep})

    def merged_small_clusters(self, min_size: int, into_label: object = "_rest") -> "Partition":
        """Coalesce all clusters smaller than ``min_size`` into one.

        Useful when comparing against baselines that do not emit
        singleton clusters.
        """
        labels: Dict[Vertex, object] = {}
        for label, members in self._clusters.items():
            target = label if len(members) >= min_size else into_label
            for vertex in members:
                labels[vertex] = target
        return Partition(labels)

    def __repr__(self) -> str:
        return (
            f"Partition(num_vertices={self.num_vertices}, "
            f"num_clusters={self.num_clusters})"
        )


def render_snapshot(partition: Partition) -> str:
    """Deterministic ``vertex<TAB>cluster`` rendering of a partition.

    The one labels format: ``repro cluster`` and ``repro generate
    --truth-out`` write it, and the service answers SNAPSHOT queries
    with it (:mod:`repro.serve.protocol` re-exports it), so a served
    snapshot can be diffed against an inline run's labels file
    directly. Clusters come in :meth:`Partition.clusters` order with
    ``repr``-sorted members.
    """
    lines: List[str] = []
    for index, members in enumerate(partition.clusters()):
        for vertex in sorted(members, key=repr):
            lines.append(f"{vertex}\t{index}\n")
    return "".join(lines)
