"""Immutable vertex partitions (clusterings).

:class:`Partition` is the common currency between the streaming
clusterer, the offline baselines, and the quality metrics: a frozen
assignment of vertices to cluster labels with convenient views.

A partition is built either from a label mapping or, by the streaming
clusterer, from arrays (:meth:`Partition.from_codes`). Either way the
cluster order of :meth:`Partition.clusters` and :func:`render_snapshot`
comes from one routine over the group arrays, and the dict views
(labels, member sets) materialize only when a caller asks for them.
"""

from __future__ import annotations

from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.streams.events import Vertex

__all__ = ["Partition", "render_snapshot"]

#: The ``repr`` strings sort as one fixed-width numpy array (4 bytes per
#: character of the longest, in every row) while that array is at most
#: this many times their own UTF-32 size; past it, a few long labels
#: pad every row and the strings sort as Python objects instead
#: (measurements in docs/performance.md).
_MAX_PADDING = 4


class Partition:
    """An immutable clustering of a vertex set.

    Construct from a label mapping, via :meth:`from_clusters`, or from
    arrays via :meth:`from_codes`. Labels are arbitrary hashables;
    :meth:`normalized` renames them to dense integers ordered by
    decreasing cluster size (deterministic).

    >>> p = Partition.from_clusters([{1, 2, 3}, {4}])
    >>> p.num_clusters
    2
    >>> p.same_cluster(1, 3)
    True
    """

    __slots__ = ("_label", "_clusters", "_vertices", "_codes", "_groups", "_layout", "_ordered")

    def __init__(self, labels: Mapping[Vertex, object]) -> None:
        self._label: Optional[Dict[Vertex, object]] = dict(labels)
        self._vertices: Optional[List[Vertex]] = None
        self._codes: Optional[np.ndarray] = None
        self._reset_views()

    def _reset_views(self) -> None:
        self._clusters: Optional[Dict[object, FrozenSet[Vertex]]] = None
        self._groups: Optional[Tuple[List[Vertex], np.ndarray, np.ndarray]] = None
        self._layout: Optional[
            Tuple[List[Vertex], np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._ordered: Optional[List[FrozenSet[Vertex]]] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_codes(cls, vertices: Sequence[Vertex], codes: np.ndarray) -> "Partition":
        """Array-backed partition: ``vertices[i]`` carries label ``int(codes[i])``.

        ``vertices`` must be distinct. Counts, sizes, :meth:`clusters`
        and :func:`render_snapshot` read the arrays directly; the label
        dict and the member sets are built on first use.

        >>> p = Partition.from_codes(["a", "b", "c"], np.array([7, 3, 7]))
        >>> p.sizes(), p.label_of("c")
        ([2, 1], 7)
        """
        partition = cls.__new__(cls)
        partition._label = None
        partition._vertices = list(vertices)
        partition._codes = np.asarray(codes, dtype=np.int64)
        partition._reset_views()
        return partition

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
    # Lazily built views
    # ------------------------------------------------------------------
    def _labelmap(self) -> Dict[Vertex, object]:
        label = self._label
        if label is None:
            label = self._label = dict(zip(self._vertices, self._codes.tolist()))
        return label

    def _cluster_map(self) -> Dict[object, FrozenSet[Vertex]]:
        """Label → member set, in first-appearance order of the labels."""
        if self._clusters is None:
            clusters: Dict[object, Set[Vertex]] = {}
            for vertex, label in self._labelmap().items():
                clusters.setdefault(label, set()).add(vertex)
            self._clusters = {
                label: frozenset(members) for label, members in clusters.items()
            }
        return self._clusters

    def _group_arrays(self) -> Tuple[List[Vertex], np.ndarray, np.ndarray]:
        """``(vertices, group, sizes)``: ``group[i]`` numbers the cluster
        of ``vertices[i]`` densely, in order of first appearance, and
        ``sizes[g]`` counts group ``g``'s members."""
        if self._groups is None:
            if self._vertices is None:
                index: Dict[object, int] = {}
                number = index.setdefault
                vertices = list(self._label)
                group = np.fromiter(
                    (number(label, len(index)) for label in self._label.values()),
                    dtype=np.int64,
                    count=len(vertices),
                )
            else:
                vertices = self._vertices
                _, first, inverse = np.unique(
                    self._codes, return_index=True, return_inverse=True
                )
                renumber = np.empty(first.size, dtype=np.int64)
                renumber[np.argsort(first)] = np.arange(first.size)
                group = renumber[inverse.reshape(-1)]
            self._groups = (vertices, group, np.bincount(group))
        return self._groups

    def _cluster_layout(
        self,
    ) -> Tuple[List[Vertex], np.ndarray, np.ndarray, np.ndarray]:
        """``(vertices, order, sizes, reprs)``: ``order`` lists vertex
        positions cluster by cluster in :meth:`clusters` order, members
        sorted by ``repr``; ``sizes`` gives each cluster's length in that
        order and ``reprs`` each vertex's ``repr`` string, as an array."""
        if self._layout is None:
            vertices, group, sizes = self._group_arrays()
            self._layout = (vertices, *_order_clusters(vertices, group, sizes))
        return self._layout

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def label_of(self, v: Vertex) -> object:
        """Cluster label of ``v``; raises ``KeyError`` for unknown vertices."""
        return self._labelmap()[v]

    def get(self, v: Vertex, default: object = None) -> object:
        """Cluster label of ``v`` or ``default``."""
        return self._labelmap().get(v, default)

    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` carry the same label."""
        label = self._labelmap()
        return label[u] == label[v]

    def members(self, label: object) -> FrozenSet[Vertex]:
        """Vertices carrying ``label``."""
        return self._cluster_map()[label]

    def clusters(self) -> List[FrozenSet[Vertex]]:
        """All clusters, largest first (ties broken deterministically).

        Equal-size clusters come in order of their ``repr``-sorted
        member lists. The ordering is memoized — the partition is
        immutable and both metrics and output writers call this
        repeatedly; a fresh list is returned each time so callers may
        mutate it.
        """
        if self._ordered is None:
            vertices, order, sizes, _ = self._cluster_layout()
            ordered = [vertices[i] for i in order.tolist()]
            clusters: List[FrozenSet[Vertex]] = []
            start = 0
            for end in np.cumsum(sizes).tolist():
                clusters.append(frozenset(ordered[start:end]))
                start = end
            self._ordered = clusters
        return list(self._ordered)

    def labels(self) -> Dict[Vertex, object]:
        """Vertex → label mapping (copy)."""
        return dict(self._labelmap())

    def sizes(self) -> List[int]:
        """Cluster sizes, descending."""
        return sorted(self._group_arrays()[2].tolist(), reverse=True)

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return int(self._group_arrays()[2].size)

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the partition."""
        return len(self)

    @property
    def max_cluster_size(self) -> int:
        """Size of the largest cluster (0 for an empty partition)."""
        sizes = self._group_arrays()[2]
        return int(sizes.max()) if sizes.size else 0

    def vertices(self) -> Iterator[Vertex]:
        """Iterate covered vertices."""
        if self._label is None:
            return iter(self._vertices)
        return iter(self._label)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._labelmap()

    def __len__(self) -> int:
        if self._label is None:
            return len(self._vertices)
        return len(self._label)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same grouping regardless of label names."""
        if not isinstance(other, Partition):
            return NotImplemented
        if self._labelmap().keys() != other._labelmap().keys():
            return False
        return self.cluster_sets() == other.cluster_sets()

    def __hash__(self) -> int:
        return hash(self.cluster_sets())

    def cluster_sets(self) -> FrozenSet[FrozenSet[Vertex]]:
        """The partition as a frozen set of frozen vertex sets."""
        return frozenset(self._cluster_map().values())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def normalized(self) -> "Partition":
        """Relabel clusters 0..k-1 by decreasing size (deterministic)."""
        vertices, order, sizes, _ = self._cluster_layout()
        return Partition.from_codes(
            [vertices[i] for i in order.tolist()],
            np.repeat(np.arange(sizes.size, dtype=np.int64), sizes),
        )

    def restricted_to(self, vertices: Iterable[Vertex]) -> "Partition":
        """The partition induced on ``vertices`` (unknown ones ignored)."""
        keep = set(vertices)
        return Partition({v: l for v, l in self._labelmap().items() if v in keep})

    def merged_small_clusters(self, min_size: int, into_label: object = "_rest") -> "Partition":
        """Coalesce all clusters smaller than ``min_size`` into one.

        Useful when comparing against baselines that do not emit
        singleton clusters.
        """
        labels: Dict[Vertex, object] = {}
        for label, members in self._cluster_map().items():
            target = label if len(members) >= min_size else into_label
            for vertex in members:
                labels[vertex] = target
        return Partition(labels)

    def __repr__(self) -> str:
        return (
            f"Partition(num_vertices={self.num_vertices}, "
            f"num_clusters={self.num_clusters})"
        )


def _order_clusters(
    vertices: Sequence[Vertex], group: np.ndarray, sizes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one cluster ordering: largest first, then by ``repr`` lists.

    Returns ``(order, ordered_sizes, reprs)`` where ``order`` lists
    vertex positions cluster by cluster, ``ordered_sizes`` each
    cluster's length and ``reprs`` the vertices' ``repr`` strings.

    The order is Python's ``sorted(clusters, key=lambda c: (-len(c),
    sorted(map(repr, c))))`` with ``repr``-sorted members, computed on
    arrays: one stable argsort of the ``repr`` strings ranks
    every vertex, and within one size class a lexsort over the members'
    ranks compares the sorted ``repr`` lists element by element. When
    all ``repr`` strings differ, disjoint clusters already differ in
    their first member, so one column decides. Clusters whose ``repr``
    lists are equal keep their group order (first appearance), as a
    stable sort would. Numpy string arrays order by code point, as
    Python does, for any string without trailing NUL characters, which
    no ``repr`` of an int or str has.
    """
    n = len(vertices)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=object)
    reprs = list(map(repr, vertices))
    lengths = list(map(len, reprs))
    fixed_width = max(lengths) * n <= _MAX_PADDING * sum(lengths)
    reprs = np.array(reprs, dtype=None if fixed_width else object)
    by_repr = np.argsort(reprs, kind="stable")
    keys = reprs[by_repr]
    new_key = np.empty(n, dtype=bool)
    new_key[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_key[1:])
    rank = np.empty(n, dtype=np.int64)
    rank[by_repr] = np.cumsum(new_key) - 1  # equal reprs share a rank
    width_one = bool(new_key.all())
    # Members grouped by cluster, in repr order within each cluster.
    members = by_repr[np.argsort(group[by_repr], kind="stable")]
    starts = np.cumsum(sizes) - sizes
    clusters = np.argsort(-sizes, kind="stable")
    ordered_sizes = sizes[clusters]
    bounds = (np.flatnonzero(ordered_sizes[1:] != ordered_sizes[:-1]) + 1).tolist()
    for lo, hi in zip([0] + bounds, bounds + [clusters.size]):
        if hi - lo > 1:  # one size class at a time
            same = clusters[lo:hi]
            width = 1 if width_one else int(ordered_sizes[lo])
            cells = rank[members[starts[same][:, None] + np.arange(width)]]
            clusters[lo:hi] = same[np.lexsort(cells.T[::-1])]
    offsets = np.cumsum(ordered_sizes) - ordered_sizes
    order = members[
        np.repeat(starts[clusters] - offsets, ordered_sizes) + np.arange(n)
    ]
    return order, ordered_sizes, reprs


def render_snapshot(partition: Partition) -> str:
    """Deterministic ``vertex<TAB>cluster`` rendering of a partition.

    The one labels format: ``repro cluster`` and ``repro generate
    --truth-out`` write it, and the service answers SNAPSHOT queries
    with it (:mod:`repro.serve.protocol` re-exports it), so a served
    snapshot can be diffed against an inline run's labels file
    directly. Clusters come in :meth:`Partition.clusters` order with
    ``repr``-sorted members, numbered from 0.
    """
    vertices, order, sizes, reprs = partition._cluster_layout()
    if not sizes.size:
        return ""
    lines: List[object] = [None] * (2 * len(vertices))
    if set(map(type, vertices)) == {int}:
        lines[0::2] = reprs[order].tolist()  # f"{v}" is repr(v) for an int
    else:
        lines[0::2] = [f"{vertices[i]}" for i in order.tolist()]
    tags = np.array([f"\t{index}\n" for index in range(sizes.size)], dtype=object)
    lines[1::2] = np.repeat(tags, sizes).tolist()
    return "".join(lines)
