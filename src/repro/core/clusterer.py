"""The streaming graph clusterer — the paper's primary contribution.

:class:`StreamingGraphClusterer` consumes a stream of vertex/edge
additions and deletions and maintains, at all times, a clustering of the
current graph defined as the **connected components of a reservoir
sample of the edges**:

1. A :class:`~repro.sampling.random_pairing.RandomPairingReservoir`
   keeps a bounded uniform sample of the live edge set under additions
   and deletions.
2. Admissions that would merge components may be vetoed by a
   :class:`~repro.core.constraints.ConstraintPolicy` (bounding cluster
   sizes or the number of clusters — the paper's "desired properties").
3. A fully-dynamic connectivity structure
   (:class:`~repro.connectivity.hdt.HDTConnectivity` by default) keeps
   the components of the sampled sub-graph current as sampled edges come
   and go.

Every update is processed online and incrementally in amortized
poly-logarithmic time; no pass over the full graph is ever required
(unless the optional RESAMPLE deletion policy is selected).

Dense-integer hot path
----------------------
Vertex labels are interned once at the ingestion boundary
(:class:`~repro.graph.intern.VertexInterner`): every structure past that
point — reservoir, adjacency, connectivity, caches — works on dense
``u32`` ids, and an edge is a single packed ``(min_id << 32) | max_id``
int. Labels reappear only at the query/persistence boundary
(:meth:`snapshot`, :meth:`cluster_members`, :meth:`get_state`). Interning
order is first-appearance order of the canonicalized event stream, so
all ingestion paths (per-event, batched, pipeline workers decoding
interned frames) build the identical table and make RNG-identical
sampling decisions.

Batched ingestion
-----------------
:meth:`StreamingGraphClusterer.apply_many` is the high-throughput entry
point. For the random-pairing sampler it amortizes the per-event Python
overhead across a whole batch: events are consumed as plain
``(kind, u, v)`` tuples or :class:`EdgeEvent` objects, stats are
accumulated in local counters, and — crucially — the fully-dynamic
connectivity structure is **deferred**: the batch records the sample
mutations it performs and resolves their exact merge/split outcomes
afterwards with offline divide-and-conquer connectivity
(:func:`~repro.connectivity.offline.resolve_sample_timeline`); the live
structure receives only the *net* edge diff, and only when something
actually needs it (a per-event :meth:`apply` or a vertex deletion).
Admission constraints are decided on exact component labels the batch
loop keeps over the sample, never on the deferred structure. Clustering
queries between batches are answered from the reservoir directly via a
cached array of component roots, one per vertex id
(:func:`~repro.sampling.vectorized.component_roots`), so the end-to-end
result — partition, statistics, reservoir content, and RNG state — is identical
to the per-event path (property-tested in
``tests/test_apply_many_property.py``). See ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from sys import getsizeof, maxsize
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.connectivity import make_connectivity
from repro.connectivity.offline import resolve_sample_timeline
from repro.obs import metrics as _obs
from repro.connectivity.union_find import UnionFind
from repro.core.config import ClustererConfig, DeletionPolicy, normalize_config
from repro.core.constraints import (
    CompositeConstraint,
    ConstraintPolicy,
    MaxClusterSize,
    MinClusterCount,
    Unconstrained,
)
from repro.errors import StreamError, UnsupportedOperationError
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.intern import VertexInterner
from repro.quality.partition import Partition
from repro.sampling.random_pairing import NOT_ADMITTED, PackedEdgeReservoir
from repro.sampling.vectorized import component_roots
from repro.streams.events import (
    Edge,
    EdgeEvent,
    EventColumns,
    EventKind,
    RawEvent,
    Vertex,
    canonical_edge,
)
from repro.util.rng import child_seed, make_rng

__all__ = ["STATE_FORMAT", "ClustererStats", "StreamingGraphClusterer"]

AnyEvent = Union[EdgeEvent, RawEvent]

#: Checkpoint format emitted by :meth:`StreamingGraphClusterer.get_state`.
#: Format 2 added the intern table and packed reservoir keys; format-1
#: states (no ``"format"`` key) still load via a compatibility path.
#: Format 3 (emitted only by ``kernel="numpy"`` configurations, so the
#: scalar default stays byte-identical) additionally carries the numpy
#: kernel's PCG64 bitstream state inside the reservoir state; the loader
#: accepts all three.
STATE_FORMAT = 2
STATE_FORMAT_NUMPY = 3

_MASK32 = 0xFFFFFFFF


@dataclass
class ClustererStats:
    """Counters describing the work a clusterer has performed."""

    events: int = 0
    edge_adds: int = 0
    edge_deletes: int = 0
    vertex_adds: int = 0
    vertex_deletes: int = 0
    admissions: int = 0
    vetoes: int = 0
    evictions: int = 0
    sample_deletions: int = 0
    component_merges: int = 0
    component_splits: int = 0
    malformed_events: int = 0
    resamples: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (for logging / result records)."""
        return dict(self.__dict__)


def _decides_on_sample(constraint: ConstraintPolicy) -> bool:
    """Can the batch loop decide ``constraint`` on its sample labels?

    True for the built-in policies, which query only what
    :class:`_SampleComponents` offers. A user-defined policy may query
    anything on the connectivity backend, so it stays per-event.
    """
    if type(constraint) is CompositeConstraint:
        return all(_decides_on_sample(policy) for policy in constraint.policies)
    return type(constraint) in (Unconstrained, MaxClusterSize, MinClusterCount)


def _through_roots(roots: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``ends`` mapped through the cached component ``roots``; ids the
    roots do not cover (fresh, or not live) stand for themselves."""
    size = roots.size
    if not size:
        return ends
    mapped = roots[np.minimum(ends, size - 1)]
    return np.where((ends < size) & (mapped >= 0), mapped, ends)


class _SampleComponents:
    """Read-only view of the batch loop's exact sample component labels,
    offering the part of the DynamicConnectivity interface constraint
    policies query. Vertices without a sampled edge are singletons."""

    __slots__ = ("_comp", "_sizes", "_vertices")

    def __init__(
        self, comp: Dict[int, int], sizes: Dict[int, int], vertices: Set[int]
    ) -> None:
        self._comp = comp
        self._sizes = sizes
        self._vertices = vertices

    def connected(self, u: int, v: int) -> bool:
        cu = self._comp.get(u)
        return u == v or (cu is not None and cu == self._comp.get(v))

    def component_size(self, v: int) -> int:
        cid = self._comp.get(v)
        return 1 if cid is None else self._sizes[cid]

    @property
    def num_components(self) -> int:
        return len(self._vertices) - len(self._comp) + len(self._sizes)


class StreamingGraphClusterer:
    """Online, incremental clustering by graph reservoir sampling.

    >>> from repro.core.config import ClustererConfig
    >>> from repro.streams.events import add_edge
    >>> clusterer = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=100))
    >>> for u, v in [(1, 2), (2, 3), (7, 8)]:
    ...     clusterer.apply(add_edge(u, v))
    >>> clusterer.same_cluster(1, 3)
    True
    >>> clusterer.same_cluster(1, 7)
    False
    """

    def __init__(self, config: ClustererConfig) -> None:
        self.config = config = normalize_config(config)
        # The vectorized batch kernel (bound below for kernel="numpy")
        # settles its lazily-maintained pieces through the ``stats``
        # property and the ``apply`` sync hook; scalar configurations
        # never pay more than this None check.
        self._kernel = None
        self._stats = ClustererStats()
        # Label ↔ dense-id table shared by every structure below. Edge
        # keys pack the two endpoint ids into one int, canonical by *id*
        # order internally; label-canonical orientation is recomputed
        # only when edges are externalized.
        self._intern = VertexInterner()
        self._reservoir: PackedEdgeReservoir = self._make_reservoir(
            child_seed(config.seed, "reservoir")
        )
        self._conn = make_connectivity(
            config.connectivity_backend, seed=child_seed(config.seed, "connectivity")
        )
        # Ids registered with the connectivity structure. Membership here
        # replaces a method call per endpoint per event on the hot path;
        # invariant: ``_conn_ids == set(_conn.vertices()) | set(_conn_fresh)``
        # (the second term is the batch loop's deferred registrations).
        self._conn_ids: Set[int] = set()
        self._graph: Optional[AdjacencyGraph] = (
            AdjacencyGraph(interner=self._intern) if config.track_graph else None
        )
        self._rebuild_rng = make_rng(child_seed(config.seed, "rebuild"))
        # Batched-ingestion state: while `_conn_stale` the connectivity
        # structure lags the reservoir by the net edge diff in
        # `_conn_diff` (packed key -> +1 pending insert / -1 pending
        # delete).
        self._conn_stale = False
        self._conn_diff: Dict[int, int] = {}
        # Vertices first seen by a batch, awaiting registration with the
        # connectivity structure (flushed, in first-touch order, before
        # the edge diff). `_conn_ids` is updated immediately, so
        # membership checks never see the deferral.
        self._conn_fresh: List[int] = []
        # Simulates the lazy backend's dirty flag while deferred (other
        # backends ignore it).
        self._lazy_dirty = bool(getattr(self._conn, "dirty", False))
        # Adjacency view of the *sampled* sub-graph (by id), kept in
        # lockstep with the reservoir. The batch loop resolves most
        # merge/split booleans with a budgeted BFS over it, skipping both
        # the live connectivity structure and the offline resolver.
        self._sample_adj: Dict[int, Set[int]] = {}
        # Exact component labels over `_sample_adj` (vertex id -> opaque
        # component id, only for vertices with >= 1 sampled edge), plus
        # component sizes keyed by those ids. Maintained incrementally by
        # the batch loop (merge checks become two dict lookups instead of
        # a BFS; splits relabel the smaller side found by the split BFS);
        # any sample mutation outside that loop just marks them dirty and
        # the next batch rebuilds in one O(sample) pass.
        self._comp: Dict[int, int] = {}
        self._comp_size: Dict[int, int] = {}
        self._comp_next = 0
        self._comp_dirty = False
        # Cached cluster extraction, invalidated by structural changes:
        # the component root of every interned id (-1 for ids that are
        # not live vertices), the members index over it, and the
        # partition built from it.
        self._labels_cache: Optional[np.ndarray] = None
        self._members_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._partition_cache: Optional[Partition] = None
        #: Number of :class:`Partition` objects :meth:`snapshot` built —
        #: a probe counter for cache-effectiveness tests and benchmarks
        #: (cluster queries answer from the root array and never build
        #: one); not part of the persisted state.
        self.partition_builds = 0
        #: Probe counters for the batched fast path's degradation modes
        #: (like ``partition_builds``, not persisted): how often a batch
        #: connectivity probe exhausted its BFS budget, and how often a
        #: batch fell back to the offline divide-and-conquer resolver.
        self.probe_budget_hits = 0
        self.offline_resolves = 0
        #: Probe counters for the numpy batch kernel (not persisted):
        #: vectorized runs executed, events they consumed, and events
        #: that fell back to the per-event path while the kernel was
        #: configured (deletions, vertex events, non-int labels).
        self.kernel_batches = 0
        self.kernel_events = 0
        self.kernel_fallback_events = 0
        # Bumped whenever the connectivity vertex universe changes
        # outside the batch kernel, invalidating its registration
        # bitmap (see batchkernel._registration_bitmap).
        self._conn_epoch = 0
        #: Monotone counter of structural invalidations (sampled edge
        #: set or vertex universe changed since the last extraction
        #: cache build). Ensemble drivers compare version vectors to
        #: skip merged-partition rebuilds when no shard moved; like the
        #: probe counters it is not part of the persisted state.
        self.structure_version = 0
        # Last counter values published to the metrics registry, so
        # sync_metrics() emits exact deltas (see repro.obs).
        self._metrics_last: Dict[str, int] = {}
        if config.kernel == "numpy":
            from repro.core.batchkernel import NumpyBatchKernel

            self._kernel = NumpyBatchKernel(self)

    def _make_reservoir(self, seed: int) -> PackedEdgeReservoir:
        """Reservoir matching the configured kernel (scalar MT / numpy PCG64)."""
        if self.config.kernel == "numpy":
            from repro.sampling.vectorized import NumpyPackedEdgeReservoir

            return NumpyPackedEdgeReservoir(
                self.config.reservoir_capacity, seed=seed
            )
        return PackedEdgeReservoir(self.config.reservoir_capacity, seed=seed)

    @property
    def stats(self) -> ClustererStats:
        """Work counters; reading settles any pending kernel estimates."""
        kernel = self._kernel
        if kernel is not None and kernel.stats_pending:
            kernel.settle_stats()
        return self._stats

    @stats.setter
    def stats(self, value: ClustererStats) -> None:
        self._stats = value

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def apply(self, event: EdgeEvent) -> None:
        """Process one stream event."""
        if self._conn_stale:
            self._flush_conn()
        if self._kernel is not None:
            self._kernel.sync()
        self.stats.events += 1
        kind = event.kind
        if kind is EventKind.ADD_EDGE:
            self._on_add_edge(event.u, event.v)
        elif kind is EventKind.DELETE_EDGE:
            self._on_delete_edge(event.u, event.v)
        elif kind is EventKind.ADD_VERTEX:
            self._on_add_vertex(event.u)
        elif kind is EventKind.DELETE_VERTEX:
            self._on_delete_vertex(event.u)
        else:  # pragma: no cover - enum is closed
            raise AssertionError(f"unknown event kind {kind!r}")

    def _batches(self) -> bool:
        """Do :meth:`apply_many` and :meth:`apply_interned_many` take a
        batch path (the scalar loop or the numpy kernel)?"""
        config = self.config
        constraint = config.constraint
        return (
            config.deletion_policy is DeletionPolicy.RANDOM_PAIRING
            and getattr(config, "batch_fast_path", True)
            and (
                type(constraint) is Unconstrained
                or (self._kernel is None and _decides_on_sample(constraint))
            )
        )

    def apply_many(self, events: Iterable[AnyEvent]) -> "StreamingGraphClusterer":
        """Process a stream of events through the batched fast path.

        Accepts :class:`EdgeEvent` objects and plain ``(kind, u, v)``
        tuples (``v=None`` for vertex events) interchangeably; the tuple
        form skips per-event object construction entirely. The final
        state — reservoir content and RNG state, statistics, tracked
        graph, and clustering — is identical to calling :meth:`apply`
        per event, for any split of the stream into batches.

        The fast path engages for the random-pairing sampler, with or
        without a built-in constraint: the constraint decides each
        admission on the exact sample component labels the batch loop
        maintains, seeing the same sample the per-event path shows it.
        RESAMPLE configurations, user-defined constraint policies (which
        may query the whole connectivity interface), and the numpy
        kernel with a constraint fall back to per-event processing
        transparently. Vertex deletions act
        as batch barriers (they need live connectivity), so streams
        where they are rare still batch well. Returns self for chaining.
        """
        columns = type(events) is EventColumns
        if not self._batches():
            if columns:
                events = events.to_events()
            for event in events:
                if type(event) is tuple:
                    event = EdgeEvent(event[0], event[1], event[2])
                self.apply(event)
            if _obs._ENABLED:
                self.sync_metrics()
            return self
        kernel = self._kernel
        if kernel is not None:
            if columns:
                kernel.apply_columns(events.kinds, events.us, events.vs)
            else:
                kernel.apply_stream(events)
            if _obs._ENABLED:
                self.sync_metrics()
            return self
        if columns:
            events = events.to_events()
        iterator = iter(events)
        while True:
            barrier = self._apply_edge_batch(iterator)
            if barrier is None:
                return self
            self.apply(barrier)

    def apply_interned_many(
        self, events: Iterable[Tuple[EventKind, int, int]]
    ) -> "StreamingGraphClusterer":
        """Apply pre-interned **edge** events: ``(kind, uid, vid)`` tuples
        whose endpoints are ids in this clusterer's :attr:`interner`, in
        label-canonical orientation.

        This is the pipeline worker's zero-rehydration entry point: the
        frame decoder interns straight into the worker clusterer's table
        and the ids flow through untouched. The result is identical to
        applying the equivalent label events through :meth:`apply_many`.
        Vertex events are not accepted (their application is conditional
        on label-space state; the pipeline handles them per-event).
        """
        if not self._batches():
            label_of = self._intern.label_of
            for kind, uid, vid in events:
                self.apply(EdgeEvent(kind, label_of(uid), label_of(vid)))
            if _obs._ENABLED:
                self.sync_metrics()
            return self
        kernel = self._kernel
        if kernel is not None:
            kernel.apply_interned(events)
            if _obs._ENABLED:
                self.sync_metrics()
            return self
        self._apply_edge_batch(iter(events), interned=True)
        return self

    def process(
        self, events: Iterable[AnyEvent], batch_size: Optional[int] = None
    ) -> "StreamingGraphClusterer":
        """Process a whole stream; returns self for chaining.

        With ``batch_size`` (``None``/``0`` disables batching) the
        stream is consumed in chunks through :meth:`apply_many`; larger
        chunks amortize more per-event overhead at the cost of a longer
        deferred-resolution horizon per chunk. A whole stream given as
        :class:`EventColumns` is chunked by slicing.
        """
        if type(events) is EventColumns:
            if batch_size:
                for chunk in events.chunks(batch_size):
                    self.apply_many(chunk)
                return self
            events = events.to_events()
        if not batch_size:
            for event in events:
                if type(event) is tuple:
                    event = EdgeEvent(event[0], event[1], event[2])
                self.apply(event)
            if _obs._ENABLED:
                self.sync_metrics()
            return self
        iterator = iter(events)
        while True:
            chunk = list(islice(iterator, batch_size))
            if not chunk:
                return self
            self.apply_many(chunk)

    # ------------------------------------------------------------------
    # Batched fast path
    # ------------------------------------------------------------------
    def _apply_edge_batch(
        self, iterator: Iterator[AnyEvent], interned: bool = False
    ) -> Optional[EdgeEvent]:
        """Consume edge/vertex-add events until exhaustion or a barrier.

        Returns the barrier event (vertex deletion) still to be applied,
        or None when the iterator ran dry. All state the loop defers —
        stat counters, the sample-mutation timeline, cache invalidation —
        is settled in the ``finally`` block, so an exception (strict-mode
        stream error, malformed input) leaves the clusterer exactly as
        the per-event path would.

        With ``interned=True`` the events are ``(kind, uid, vid)`` edge
        tuples over already-interned ids (pipeline workers); labels are
        then never touched, and non-edge kinds are rejected.
        """
        if not self._conn_stale:
            # Entering deferred mode: snapshot what the per-event path
            # would currently report for the lazy backend's dirty flag.
            self._lazy_dirty = bool(getattr(self._conn, "dirty", False))
        reservoir = self._reservoir
        reservoir_delete = reservoir.delete
        # The admission step is inlined below (the loop manipulates the
        # reservoir's slot array and counters directly). The RNG draws
        # replicate random.Random.randrange's accept-reject loop over
        # getrandbits bit-for-bit, so the sampler consumes entropy — and
        # decides — exactly as insert_fast/propose_insert would
        # (property-tested against the per-event path).
        slots = reservoir._slots
        slot_of = reservoir._slot_of
        getrandbits = reservoir._rng.getrandbits
        capacity = reservoir._capacity
        graph = self._graph
        gadj = None if graph is None else graph._adj
        g_vertices = g_edges = 0  # deferred graph counter deltas
        intern = self._intern
        iget = intern._ids.get
        iadd = intern.intern
        label_of = intern.label_of
        conn_ids = self._conn_ids
        fresh_append = self._conn_fresh.append
        strict = self.config.strict
        kind_add = EventKind.ADD_EDGE
        kind_del = EventKind.DELETE_EDGE
        kind_addv = EventKind.ADD_VERTEX
        not_admitted = NOT_ADMITTED
        diff = self._conn_diff
        adj = self._sample_adj
        # Merge/split booleans come from the maintained component labels
        # over the sample adjacency: an insert's merge check is two dict
        # lookups, a deletion's split check is a budgeted bidirectional
        # BFS (`_split_components`) whose exhausted side doubles as the
        # relabel set. The first split check to exceed its budget turns
        # the maintenance off for the rest of the batch; the recorded
        # timeline is then resolved offline in the finally block and the
        # labels are rebuilt at the next batch. The lazy backend never
        # probes (its counters are simulated exactly in _resolve_ops).
        #
        # A constraint decides each admission on these labels, so they
        # must stay exact throughout: every backend probes, and split
        # checks run without a budget.
        constraint = self.config.constraint
        allows = None if type(constraint) is Unconstrained else constraint.allows
        probing = allows is not None or self.config.connectivity_backend != "lazy"
        budget = 1024 if allows is None else maxsize
        if probing and self._comp_dirty:
            self._rebuild_components()
        comp = self._comp
        comp_get = comp.get
        comp_size = self._comp_size
        comp_next = self._comp_next
        split_check = self._split_components
        view = _SampleComponents(comp, comp_size, conn_ids)
        n_merges = n_splits = n_vetoes = 0
        base_labels = self._labels_cache  # pre-batch component roots, if current
        ops: List[Tuple[bool, int, int]] = []
        n_events = n_adds = n_deletes = n_vadds = 0
        n_admitted = n_evicted = n_sample_del = n_malformed = 0
        structural = False
        barrier: Optional[EdgeEvent] = None
        try:
            for event in iterator:
                if type(event) is tuple:
                    kind, u, v = event
                else:
                    kind, u, v = event.kind, event.u, event.v
                if kind is kind_add:
                    if interned:
                        uid = u
                        vid = v
                    else:
                        if u == v:
                            raise ValueError(
                                f"self-loop edges are not allowed: ({u!r}, {v!r})"
                            )
                        try:
                            if v < u:
                                u, v = v, u
                        except TypeError:
                            if repr(v) < repr(u):
                                u, v = v, u
                        # Intern in label-canonical order *before* any
                        # validity checks — the pipeline decoder interns
                        # at decode time, so the inline paths must assign
                        # ids for malformed edge events too.
                        uid = iget(u)
                        if uid is None:
                            uid = iadd(u)
                        vid = iget(v)
                        if vid is None:
                            vid = iadd(v)
                    n_events += 1
                    n_adds += 1
                    if gadj is not None:
                        # Inline graph.add_edge_ids; the _id_count /
                        # _num_edges deltas are settled in finally.
                        n = len(gadj)
                        if uid >= n or vid >= n:
                            gadj.extend(
                                [None] * ((uid if uid > vid else vid) + 1 - n)
                            )
                        nu = gadj[uid]
                        if nu is None:
                            gadj[uid] = {vid: None}
                            g_vertices += 1
                        elif vid in nu:
                            if strict:
                                raise StreamError(
                                    f"duplicate ADD_EDGE "
                                    f"({label_of(uid)!r}, {label_of(vid)!r})"
                                )
                            n_malformed += 1
                            continue
                        else:
                            nu[vid] = None
                        nv = gadj[vid]
                        if nv is None:
                            gadj[vid] = {uid: None}
                            g_vertices += 1
                        else:
                            nv[uid] = None
                        g_edges += 1
                    if uid not in conn_ids:
                        conn_ids.add(uid)
                        fresh_append(uid)
                        structural = True
                    if vid not in conn_ids:
                        conn_ids.add(vid)
                        fresh_append(vid)
                        structural = True
                    if uid < vid:
                        ku = uid
                        kv = vid
                    else:
                        ku = vid
                        kv = uid
                    key = (ku << 32) | kv
                    # --- inline insert_fast(key) ---
                    population = reservoir._population + 1
                    reservoir._population = population
                    c_bad = reservoir._c_bad
                    pending = c_bad + reservoir._c_good
                    if pending:
                        bits = pending.bit_length()
                        r = getrandbits(bits)
                        while r >= pending:
                            r = getrandbits(bits)
                        if r < c_bad:
                            reservoir._c_bad = c_bad - 1
                            evicted = None
                        else:
                            reservoir._c_good -= 1
                            continue
                    elif len(slots) < capacity:
                        evicted = None
                    else:
                        bits = population.bit_length()
                        r = getrandbits(bits)
                        while r >= population:
                            r = getrandbits(bits)
                        if r >= capacity:
                            continue
                        size = len(slots)
                        bits = size.bit_length()
                        r = getrandbits(bits)
                        while r >= size:
                            r = getrandbits(bits)
                        evicted = slots[r]
                    # The constraint sees the sample the per-event path
                    # shows it: after the draws, before the eviction.
                    if allows is not None and not allows(view, uid, vid):
                        n_vetoes += 1
                        continue
                    if evicted is not None:
                        pos = slot_of.pop(evicted)
                        last = slots.pop()
                        if pos < len(slots):
                            slots[pos] = last
                            slot_of[last] = pos
                    if key in slot_of:
                        raise ValueError(f"duplicate sample item {key!r}")
                    slot_of[key] = len(slots)
                    slots.append(key)
                    # --- end inline insert ---
                    n_admitted += 1
                    structural = True
                    if evicted is not None:
                        n_evicted += 1
                        ev_u = evicted >> 32
                        ev_v = evicted & _MASK32
                        adj[ev_u].discard(ev_v)
                        adj[ev_v].discard(ev_u)
                        if probing:
                            cid = comp[ev_u]
                            if not adj[ev_u]:
                                n_splits += 1
                                del comp[ev_u]
                                if not adj[ev_v]:
                                    del comp[ev_v]
                                    del comp_size[cid]
                                else:
                                    comp_size[cid] -= 1
                            elif not adj[ev_v]:
                                n_splits += 1
                                del comp[ev_v]
                                comp_size[cid] -= 1
                            else:
                                side = split_check(ev_u, ev_v, budget)
                                if side is None:
                                    probing = False
                                    self.probe_budget_hits += 1
                                elif side is not True:
                                    n_splits += 1
                                    comp_size[cid] -= len(side)
                                    comp_size[comp_next] = len(side)
                                    for x in side:
                                        comp[x] = comp_next
                                    comp_next += 1
                        ops.append((False, ev_u, ev_v))
                        delta = diff.get(evicted, 0) - 1
                        if delta:
                            diff[evicted] = delta
                        else:
                            del diff[evicted]
                    if probing:
                        cu = comp_get(ku)
                        cv = comp_get(kv)
                        if cu is None:
                            n_merges += 1
                            if cv is None:
                                comp[ku] = comp[kv] = comp_next
                                comp_size[comp_next] = 2
                                comp_next += 1
                            else:
                                comp[ku] = cv
                                comp_size[cv] += 1
                        elif cv is None:
                            n_merges += 1
                            comp[kv] = cu
                            comp_size[cu] += 1
                        elif cu != cv:
                            n_merges += 1
                            # Relabel the smaller component into the
                            # larger before the new edge joins them.
                            if comp_size[cu] < comp_size[cv]:
                                small, into, start = cu, cv, ku
                            else:
                                small, into, start = cv, cu, kv
                            comp[start] = into
                            stack = [start]
                            while stack:
                                x = stack.pop()
                                for y in adj[x]:
                                    if comp[y] != into:
                                        comp[y] = into
                                        stack.append(y)
                            comp_size[into] += comp_size.pop(small)
                    neighbours = adj.get(ku)
                    if neighbours is None:
                        adj[ku] = {kv}
                    else:
                        neighbours.add(kv)
                    neighbours = adj.get(kv)
                    if neighbours is None:
                        adj[kv] = {ku}
                    else:
                        neighbours.add(ku)
                    ops.append((True, ku, kv))
                    delta = diff.get(key, 0) + 1
                    if delta:
                        diff[key] = delta
                    else:
                        del diff[key]
                elif kind is kind_del:
                    if interned:
                        uid = u
                        vid = v
                    else:
                        if u == v:
                            raise ValueError(
                                f"self-loop edges are not allowed: ({u!r}, {v!r})"
                            )
                        try:
                            if v < u:
                                u, v = v, u
                        except TypeError:
                            if repr(v) < repr(u):
                                u, v = v, u
                        uid = iget(u)
                        if uid is None:
                            uid = iadd(u)
                        vid = iget(v)
                        if vid is None:
                            vid = iadd(v)
                    n_events += 1
                    n_deletes += 1
                    if graph is not None and not graph.remove_edge_ids(uid, vid):
                        if strict:
                            raise StreamError(
                                f"DELETE_EDGE of absent edge "
                                f"({label_of(uid)!r}, {label_of(vid)!r})"
                            )
                        n_malformed += 1
                        continue
                    if uid < vid:
                        ku = uid
                        kv = vid
                    else:
                        ku = vid
                        kv = uid
                    key = (ku << 32) | kv
                    if reservoir_delete(key):
                        n_sample_del += 1
                        structural = True
                        adj[ku].discard(kv)
                        adj[kv].discard(ku)
                        if probing:
                            cid = comp[ku]
                            if not adj[ku]:
                                n_splits += 1
                                del comp[ku]
                                if not adj[kv]:
                                    del comp[kv]
                                    del comp_size[cid]
                                else:
                                    comp_size[cid] -= 1
                            elif not adj[kv]:
                                n_splits += 1
                                del comp[kv]
                                comp_size[cid] -= 1
                            else:
                                side = split_check(ku, kv, budget)
                                if side is None:
                                    probing = False
                                    self.probe_budget_hits += 1
                                elif side is not True:
                                    n_splits += 1
                                    comp_size[cid] -= len(side)
                                    comp_size[comp_next] = len(side)
                                    for x in side:
                                        comp[x] = comp_next
                                    comp_next += 1
                        ops.append((False, ku, kv))
                        delta = diff.get(key, 0) - 1
                        if delta:
                            diff[key] = delta
                        else:
                            del diff[key]
                elif kind is kind_addv:
                    if interned:
                        raise ValueError(
                            "interned batches may contain only edge events"
                        )
                    if v is not None:
                        raise ValueError(f"{kind.value} event takes a single vertex")
                    n_events += 1
                    n_vadds += 1
                    uid = iget(u)
                    if uid is None:
                        uid = iadd(u)
                    if graph is not None:
                        graph.add_vertex_id(uid)
                    if uid not in conn_ids:
                        conn_ids.add(uid)
                        fresh_append(uid)
                        structural = True
                else:
                    # DELETE_VERTEX (or an unknown kind, which apply()
                    # rejects): a barrier needing live connectivity.
                    if interned:
                        raise ValueError(
                            "interned batches may contain only edge events"
                        )
                    if type(event) is tuple:
                        event = EdgeEvent(kind, u, v)
                    barrier = event
                    break
        finally:
            if graph is not None:
                graph._id_count += g_vertices
                graph._num_edges += g_edges
            stats = self.stats
            stats.events += n_events
            stats.edge_adds += n_adds
            stats.edge_deletes += n_deletes
            stats.vertex_adds += n_vadds
            stats.admissions += n_admitted
            stats.evictions += n_evicted
            stats.sample_deletions += n_sample_del
            stats.malformed_events += n_malformed
            stats.vetoes += n_vetoes
            self._comp_next = comp_next
            if ops and not probing:
                # The labels stopped being maintained (budget hit) or
                # never were (lazy backend): rebuild before next use.
                self._comp_dirty = True
            if ops:
                if probing:
                    merges, splits = n_merges, n_splits
                    if n_evicted or n_sample_del:
                        # What a flush would do to the lazy backend
                        # (the only backend that reads this flag).
                        self._lazy_dirty = True
                else:
                    merges, splits = self._resolve_ops(base_labels, ops)
                stats.component_merges += merges
                stats.component_splits += splits
            self._conn_stale = bool(diff) or bool(self._conn_fresh)
            if (
                not self._conn_stale
                and self._lazy_dirty
                and hasattr(self._conn, "mark_dirty")
            ):
                # The net diff cancelled out, so no flush will run — but a
                # deletion still happened, and the per-event path would
                # have dirtied the lazy backend's cache.
                self._conn.mark_dirty()
            if structural:
                self._invalidate()
            if _obs._ENABLED:
                self.sync_metrics()
        return barrier

    def _split_components(
        self, u: int, v: int, budget: int = 1024
    ) -> Union[None, bool, Set[int]]:
        """Did deleting sampled edge ``(u, v)`` split their component?

        Bidirectional BFS over the (already updated) sample adjacency,
        always expanding the smaller frontier. Returns ``True`` if the
        endpoints are still connected, ``None`` once the search has
        visited ``budget`` vertices (the batch loop then falls back to
        offline resolution and rebuilds the component labels), and on a
        split the full vertex set of the side whose frontier exhausted —
        exactly the set the caller must relabel, discovered for free by
        the search that proved the split.
        """
        adj = self._sample_adj
        frontier_a = adj[u]
        frontier_b = adj[v]
        if not frontier_a.isdisjoint(frontier_b):
            # Common neighbour: the endpoints sat on a triangle, so the
            # deletion cannot have split them. Catches most "still
            # connected" answers on clustered graphs for one C-level
            # set intersection test.
            return True
        seen_a = {u}
        seen_b = {v}
        visited = 2
        while frontier_a and frontier_b:
            if visited > budget:
                return None
            if len(frontier_a) > len(frontier_b):
                frontier_a, frontier_b = frontier_b, frontier_a
                seen_a, seen_b = seen_b, seen_a
            if not frontier_a.isdisjoint(seen_b):
                return True
            frontier_a = frontier_a - seen_a
            seen_a |= frontier_a
            visited += len(frontier_a)
            layer: Set[int] = set()
            for x in frontier_a:
                layer |= adj[x]
            frontier_a = layer
        if not frontier_a.isdisjoint(seen_b) or not frontier_b.isdisjoint(
            seen_a
        ):
            return True
        return seen_a if not frontier_a else seen_b

    def _rebuild_components(self) -> None:
        """Recompute the sample component labels in one O(sample) pass.

        Runs at the top of a batch when anything outside the batch loop
        mutated the sample (per-event ingestion, a resample, a restore)
        or a split check ran out of budget mid-batch.
        """
        adj = self._sample_adj
        comp: Dict[int, int] = {}
        sizes: Dict[int, int] = {}
        cid = 0
        for start, neighbours in adj.items():
            if start in comp or not neighbours:
                continue
            members = [start]
            comp[start] = cid
            for x in members:
                for y in adj[x]:
                    if y not in comp:
                        comp[y] = cid
                        members.append(y)
            sizes[cid] = len(members)
            cid += 1
        self._comp = comp
        self._comp_size = sizes
        self._comp_next = cid
        self._comp_dirty = False

    def _pre_batch_sample(self, ops: List[Tuple[bool, int, int]]) -> Set[int]:
        """Reconstruct the pre-batch sample by reversing the op timeline.

        The batch loop never snapshots the reservoir (most batches
        resolve every boolean by probing and never need the base), so
        the rare offline paths rebuild it here: walk the recorded
        mutations backwards from the current (post-batch) sample.
        """
        sample = set(self._reservoir)
        for is_insert, u, v in reversed(ops):
            key = (u << 32) | v
            if is_insert:
                sample.discard(key)
            else:
                sample.add(key)
        return sample

    def _resolve_ops(
        self,
        base_labels: Optional[np.ndarray],
        ops: List[Tuple[bool, int, int]],
    ) -> Tuple[int, int]:
        """Exact merge/split counts for a batch's sample mutations.

        For the hdt/naive backends this reproduces the online structure's
        exact booleans via offline divide-and-conquer connectivity (with
        an O(ops) union-find shortcut for deletion-free timelines). For
        the lazy backend it reproduces that backend's documented
        conservative semantics: exact while its cache would be clean,
        "always True" once a deletion would have dirtied it.
        """
        if self.config.connectivity_backend == "lazy":
            merges = splits = 0
            dirty = self._lazy_dirty
            rest = ops
            if not dirty:
                first_delete = len(ops)
                for t, op in enumerate(ops):
                    if not op[0]:
                        first_delete = t
                        break
                if first_delete:
                    merges += self._count_insert_merges(
                        base_labels, ops[:first_delete], ops
                    )
                rest = ops[first_delete:]
            for op in rest:
                if op[0]:
                    merges += 1
                else:
                    splits += 1
                    dirty = True
            self._lazy_dirty = dirty
            return merges, splits
        for op in ops:
            if not op[0]:
                break
        else:
            return self._count_insert_merges(base_labels, ops, ops), 0
        self.offline_resolves += 1
        # The resolver consults the base edge set only when it cannot use
        # the cached component labels — no labels available, or the
        # timeline deletes a base edge (one the batch did not insert).
        need_base = base_labels is None
        if not need_base:
            open_keys: Set[int] = set()
            for is_insert, u, v in ops:
                key = (u << 32) | v
                if is_insert:
                    open_keys.add(key)
                elif key in open_keys:
                    open_keys.discard(key)
                else:
                    need_base = True
                    break
        base_edges: Iterable[Tuple[int, int]] = ()
        label_map: Optional[Dict[int, int]] = None
        if need_base:
            base_edges = [
                (key >> 32, key & _MASK32) for key in self._pre_batch_sample(ops)
            ]
        else:
            # The resolver looks up only the ops' endpoints.
            ends = np.array([op[1:] for op in ops], dtype=np.int64).ravel()
            label_map = dict(
                zip(ends.tolist(), _through_roots(base_labels, ends).tolist())
            )
        flags = resolve_sample_timeline(base_edges, ops, base_labels=label_map)
        merges = splits = 0
        for op, flag in zip(ops, flags):
            if flag:
                if op[0]:
                    merges += 1
                else:
                    splits += 1
        return merges, splits

    def _count_insert_merges(
        self,
        base_labels: Optional[np.ndarray],
        inserts: List[Tuple[bool, int, int]],
        all_ops: List[Tuple[bool, int, int]],
    ) -> int:
        """Merge count for a deletion-free insert timeline (plain DSU).

        ``inserts`` may be a prefix of ``all_ops`` (the lazy backend
        counts only up to the first deletion); the full timeline is what
        reconstructs the pre-batch sample when no labels are cached.
        """
        uf = UnionFind()
        union = uf.union
        merges = 0
        if base_labels is None:
            for key in self._pre_batch_sample(all_ops):
                union(key >> 32, key & _MASK32)
            for _, u, v in inserts:
                if union(u, v):
                    merges += 1
        elif inserts:
            ends = np.array([op[1:] for op in inserts], dtype=np.int64)
            for u, v in _through_roots(base_labels, ends).tolist():
                if union(u, v):
                    merges += 1
        return merges

    def _flush_conn(self) -> None:
        """Apply the deferred net edge diff to the connectivity structure.

        Return values are discarded — the exact merge/split outcomes were
        already resolved offline per batch. Deletes go first so an edge
        slot freed by one net change can be refilled by another.
        """
        conn = self._conn
        fresh = self._conn_fresh
        if fresh:
            add = conn.add_vertex
            for vid in fresh:
                add(vid)
            fresh.clear()
        diff = self._conn_diff
        inserts: List[int] = []
        for key, delta in diff.items():
            if delta < 0:
                conn.delete_edge(key >> 32, key & _MASK32)
            else:
                inserts.append(key)
        for key in inserts:
            conn.insert_edge(key >> 32, key & _MASK32)
        diff.clear()
        self._conn_stale = False
        if self._lazy_dirty and hasattr(conn, "mark_dirty"):
            conn.mark_dirty()

    def _invalidate(self) -> None:
        self._labels_cache = None
        self._members_cache = None
        self._partition_cache = None
        self.structure_version += 1

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_add_edge(self, u: Vertex, v: Vertex) -> None:
        # u, v arrive in label-canonical order (EdgeEvent canonicalizes);
        # interning u-then-v here matches the batched and pipeline paths.
        self.stats.edge_adds += 1
        intern = self._intern
        uid = intern.intern(u)
        vid = intern.intern(v)
        if self._graph is not None:
            if not self._graph.add_edge_ids(uid, vid):
                self._malformed(f"duplicate ADD_EDGE ({u!r}, {v!r})")
                return
        conn_ids = self._conn_ids
        fresh = False
        if uid not in conn_ids:
            self._conn.add_vertex(uid)
            conn_ids.add(uid)
            fresh = True
        if vid not in conn_ids:
            self._conn.add_vertex(vid)
            conn_ids.add(vid)
            fresh = True
        if fresh:
            self._conn_epoch += 1
            self._invalidate()
        key = (uid << 32) | vid if uid < vid else (vid << 32) | uid
        proposal = self._reservoir.propose_insert(key)
        if not proposal.admit:
            return
        if not self.config.constraint.allows(self._conn, uid, vid):
            self._reservoir.abort(proposal)
            self.stats.vetoes += 1
            return
        self._reservoir.commit(proposal)
        self._invalidate()
        self._comp_dirty = True
        self.stats.admissions += 1
        adj = self._sample_adj
        evicted = proposal.evicted
        if evicted is not None:
            self.stats.evictions += 1
            ev_u = evicted >> 32
            ev_v = evicted & _MASK32
            adj[ev_u].discard(ev_v)
            adj[ev_v].discard(ev_u)
            if self._conn.delete_edge(ev_u, ev_v):
                self.stats.component_splits += 1
        ku = key >> 32
        kv = key & _MASK32
        adj.setdefault(ku, set()).add(kv)
        adj.setdefault(kv, set()).add(ku)
        if self._conn.insert_edge(uid, vid):
            self.stats.component_merges += 1

    def _on_delete_edge(self, u: Vertex, v: Vertex) -> None:
        self.stats.edge_deletes += 1
        intern = self._intern
        uid = intern.intern(u)
        vid = intern.intern(v)
        if self._graph is not None:
            if not self._graph.remove_edge_ids(uid, vid):
                self._malformed(f"DELETE_EDGE of absent edge ({u!r}, {v!r})")
                return
        key = (uid << 32) | vid if uid < vid else (vid << 32) | uid
        if self._reservoir.delete(key):
            self.stats.sample_deletions += 1
            self._invalidate()
            self._comp_dirty = True
            ku = key >> 32
            kv = key & _MASK32
            self._sample_adj[ku].discard(kv)
            self._sample_adj[kv].discard(ku)
            if self._conn.delete_edge(ku, kv):
                self.stats.component_splits += 1
        self._maybe_resample()

    def _on_add_vertex(self, v: Vertex) -> None:
        self.stats.vertex_adds += 1
        uid = self._intern.intern(v)
        if self._graph is not None:
            self._graph.add_vertex_id(uid)
        if uid not in self._conn_ids:
            self._conn.add_vertex(uid)
            self._conn_ids.add(uid)
            self._conn_epoch += 1
            self._invalidate()

    def _on_delete_vertex(self, v: Vertex) -> None:
        self.stats.vertex_deletes += 1
        if self._graph is None:
            raise UnsupportedOperationError(
                "DELETE_VERTEX requires track_graph=True: a pure edge "
                "reservoir cannot enumerate the incident edges to remove"
            )
        # A vertex deletion never interns: the pipeline decoder leaves
        # vertex events in label space for exactly this reason (a
        # DELETE_VERTEX of an unknown vertex must not allocate an id, or
        # inline and pipeline intern tables would diverge).
        uid = self._intern.id_of(v)
        if uid is None or not self._graph.has_vertex_id(uid):
            self._malformed(f"DELETE_VERTEX of absent vertex {v!r}")
            return
        self._invalidate()
        adj = self._sample_adj
        for key in self._graph.remove_vertex_id(uid):
            if self._reservoir.delete(key):
                self.stats.sample_deletions += 1
                self._comp_dirty = True
                ku = key >> 32
                kv = key & _MASK32
                adj[ku].discard(kv)
                adj[kv].discard(ku)
                if self._conn.delete_edge(ku, kv):
                    self.stats.component_splits += 1
        if self._conn.remove_vertex_if_isolated(uid):
            self._conn_ids.discard(uid)
            self._conn_epoch += 1
        self._maybe_resample()

    def _malformed(self, message: str) -> None:
        if self.config.strict:
            raise StreamError(message)
        self.stats.malformed_events += 1

    # ------------------------------------------------------------------
    # Resample policy (ablation comparator)
    # ------------------------------------------------------------------
    def _maybe_resample(self) -> None:
        if self.config.deletion_policy is not DeletionPolicy.RESAMPLE:
            return
        assert self._graph is not None  # enforced by ClustererConfig
        capacity = self.config.reservoir_capacity
        target = min(capacity, self._graph.num_edges)
        if len(self._reservoir) >= self.config.resample_threshold * target:
            return
        self._rebuild_sample()

    def _rebuild_sample(self) -> None:
        """Rebuild reservoir + connectivity from the tracked graph (O(m))."""
        assert self._graph is not None
        self.stats.resamples += 1
        self._invalidate()
        self._conn_stale = False
        self._conn_diff.clear()
        self._conn_fresh.clear()
        self._reservoir = self._make_reservoir(
            child_seed(self.config.seed, "reservoir", self.stats.resamples)
        )
        self._conn = make_connectivity(
            self.config.connectivity_backend,
            seed=child_seed(self.config.seed, "connectivity", self.stats.resamples),
        )
        self._lazy_dirty = bool(getattr(self._conn, "dirty", False))
        self._conn_epoch += 1
        conn_ids = self._conn_ids
        conn_ids.clear()
        for vid in self._graph.vertex_ids():
            self._conn.add_vertex(vid)
            conn_ids.add(vid)
        # Sort before shuffling: edge_list() order reflects adjacency
        # layout, which is not reproducible across processes (string
        # hashing) or checkpoint restores; sorting makes the shuffled
        # order a pure function of the edge set and the rebuild RNG.
        id_of = self._intern.id_of
        edges = sorted(self._graph.edge_list(), key=repr)
        self._rebuild_rng.shuffle(edges)
        for u, v in edges:
            uid = id_of(u)
            vid = id_of(v)
            key = (uid << 32) | vid if uid < vid else (vid << 32) | uid
            proposal = self._reservoir.propose_insert(key)
            if not proposal.admit:
                continue
            if not self.config.constraint.allows(self._conn, uid, vid):
                self._reservoir.abort(proposal)
                self.stats.vetoes += 1
                continue
            self._reservoir.commit(proposal)
            evicted = proposal.evicted
            if evicted is not None:
                self._conn.delete_edge(evicted >> 32, evicted & _MASK32)
            self._conn.insert_edge(uid, vid)
        adj = self._sample_adj
        adj.clear()
        for key in self._reservoir:
            ku = key >> 32
            kv = key & _MASK32
            adj.setdefault(ku, set()).add(kv)
            adj.setdefault(kv, set()).add(ku)
        self._comp_dirty = True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _extern_key(self, key: int) -> Edge:
        """Packed id key → label-canonical edge tuple."""
        label_of = self._intern.label_of
        return canonical_edge(label_of(key >> 32), label_of(key & _MASK32))

    def get_state(self) -> dict:
        """Complete serializable state for checkpointing (format 2).

        The connectivity structure is *not* serialized: it holds exactly
        the sampled edges, so it is rebuilt from the reservoir and the
        vertex set on restore. Component structure (the clustering) is
        an exact function of those, so the rebuilt structure answers
        every query identically; only its internal balancing randomness
        differs, which is unobservable. A deferred batch diff is left
        deferred: the state records what flushing it would leave (the
        backend's vertices, then the batch's fresh ones, and the lazy
        backend's dirty flag), so batched and per-event runs checkpoint
        identically without replaying the diff into the backend.

        Everything label-facing is externalized: the intern table as a
        label list in id order, the reservoir sample as label-canonical
        edge tuples in slot order, the connectivity vertex set as labels
        in registration order.
        """
        conn = self._conn
        conn_dirty = bool(getattr(conn, "dirty", False))
        if self._conn_stale and self._lazy_dirty and hasattr(conn, "mark_dirty"):
            conn_dirty = True
        if self._kernel is not None:
            self._kernel.settle_stats()
        extern_key = self._extern_key
        reservoir_state = self._reservoir.get_state()
        reservoir_state["items"] = [
            extern_key(key) for key in reservoir_state["items"]
        ]
        return {
            "format": STATE_FORMAT
            if self.config.kernel == "scalar"
            else STATE_FORMAT_NUMPY,
            "config": self.config,
            "stats": self.stats.as_dict(),
            "intern": self._intern.labels(),
            "reservoir": reservoir_state,
            "conn_vertices": self.vertices(),
            "conn_dirty": conn_dirty,
            "rebuild_rng_state": self._rebuild_rng.getstate(),
            "graph": self._graph.get_state() if self._graph is not None else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingGraphClusterer":
        """Reconstruct a clusterer from :meth:`get_state` output.

        The restored clusterer replays any stream tail to the *identical*
        partition, stats, and reservoir as an uninterrupted run: the
        intern table, reservoir RNG state and slot order, the rebuild
        RNG, and the tracked graph are exact, and connectivity answers
        are exact by construction.

        Format-1 states (pre-interning; no ``"format"`` key) still load:
        the intern table is derived from the persisted label-space
        structures. The restored clusterer is functionally identical —
        ids are internal and unobservable — though its future
        checkpoints are emitted in format 2.
        """
        config: ClustererConfig = normalize_config(state["config"])
        if state.get("format", 1) >= 3 and config.kernel != "numpy":
            raise ValueError(
                "corrupt clusterer state: format-3 checkpoints are only "
                "written by the numpy kernel, but the embedded config "
                f"says kernel={config.kernel!r}"
            )
        clusterer = cls(config)
        clusterer.stats = ClustererStats(**state["stats"])
        intern = clusterer._intern
        if state.get("format", 1) >= 2:
            for label in state["intern"]:
                intern.intern(label)
            if len(intern) != len(state["intern"]):
                raise ValueError("corrupt intern table: duplicate label")
        else:
            # Format 1 carried no table; rebuild one from every persisted
            # label-space structure. Order is arbitrary-but-deterministic
            # (ids are not observable), coverage is what matters.
            for label in state["conn_vertices"]:
                intern.intern(label)
            for u, v in state["reservoir"]["items"]:
                intern.intern(u)
                intern.intern(v)
            graph_state = state["graph"]
            if graph_state is not None:
                for label in graph_state["vertices"]:
                    intern.intern(label)
        id_of = intern.id_of
        reservoir_state = dict(state["reservoir"])
        packed_items: List[int] = []
        for u, v in reservoir_state["items"]:
            uid = id_of(u)
            vid = id_of(v)
            if uid is None or vid is None:
                raise ValueError(
                    f"corrupt clusterer state: sampled edge ({u!r}, {v!r}) "
                    f"is missing from the intern table"
                )
            packed_items.append(
                (uid << 32) | vid if uid < vid else (vid << 32) | uid
            )
        reservoir_state["items"] = packed_items
        if config.kernel == "numpy":
            from repro.sampling.vectorized import NumpyPackedEdgeReservoir

            clusterer._reservoir = NumpyPackedEdgeReservoir.from_state(
                reservoir_state, id_limit=len(intern)
            )
        else:
            clusterer._reservoir = PackedEdgeReservoir.from_state(
                reservoir_state, id_limit=len(intern)
            )
        adj = clusterer._sample_adj
        for key in clusterer._reservoir:
            ku = key >> 32
            kv = key & _MASK32
            adj.setdefault(ku, set()).add(kv)
            adj.setdefault(kv, set()).add(ku)
        clusterer._comp_dirty = True
        resamples = clusterer.stats.resamples
        conn_seed = (
            child_seed(config.seed, "connectivity")
            if resamples == 0
            else child_seed(config.seed, "connectivity", resamples)
        )
        conn = make_connectivity(config.connectivity_backend, seed=conn_seed)
        conn_ids = clusterer._conn_ids
        for label in state["conn_vertices"]:
            vid = id_of(label)
            if vid is None:
                raise ValueError(
                    f"corrupt clusterer state: connectivity vertex {label!r} "
                    f"is missing from the intern table"
                )
            conn.add_vertex(vid)
            conn_ids.add(vid)
        for key in clusterer._reservoir:
            conn.insert_edge(key >> 32, key & _MASK32)
        if state.get("conn_dirty") and hasattr(conn, "mark_dirty"):
            conn.mark_dirty()
        clusterer._conn = conn
        clusterer._conn_epoch += 1
        clusterer._lazy_dirty = bool(getattr(conn, "dirty", False))
        clusterer._rebuild_rng = make_rng(0)
        clusterer._rebuild_rng.setstate(state["rebuild_rng_state"])
        graph_state = state["graph"]
        clusterer._graph = (
            AdjacencyGraph.from_state(graph_state, interner=intern)
            if graph_state is not None
            else None
        )
        return clusterer

    # ------------------------------------------------------------------
    # Clustering queries
    # ------------------------------------------------------------------
    def _labels(self) -> np.ndarray:
        """Component root of every interned id over the current sample.

        Entry ``i`` is the smallest id in ``i``'s component, or -1 when
        ``i`` is not a live vertex (deleted, or interned by a malformed
        event). Built from the reservoir and the vertex universe (both
        always current, even while connectivity updates are deferred) in
        one :func:`component_roots` pass, and cached until the next
        structural change.
        """
        roots = self._labels_cache
        if roots is None:
            keys = np.frombuffer(self._reservoir._slots, dtype=np.uint64)
            roots = component_roots(len(self._intern), keys)
            live = self._conn_ids
            if len(live) < roots.size:
                dead = np.ones(roots.size, dtype=bool)
                dead[np.fromiter(live, dtype=np.int64, count=len(live))] = False
                roots[dead] = -1
            self._labels_cache = roots
        return roots

    def _root_of(self, uid: int) -> int:
        """``uid``'s component root, or -1 if the cached roots do not
        hold it as a live vertex."""
        roots = self._labels()
        return int(roots[uid]) if uid < roots.size else -1

    def _member_ids(self, root: int) -> np.ndarray:
        """Ids whose component root is ``root`` (one argsort of the
        roots, cached with them; callers do not depend on member order)."""
        index = self._members_cache
        if index is None:
            roots = self._labels()
            by_root = np.argsort(roots)
            index = self._members_cache = (by_root, roots[by_root])
        by_root, sorted_roots = index
        lo, hi = np.searchsorted(sorted_roots, [root, root + 1]).tolist()
        return by_root[lo:hi]

    def cluster_id(self, v: Vertex) -> object:
        """Opaque id of ``v``'s cluster, valid until the next update."""
        uid = self._intern.id_of(v)
        if uid is None:
            return frozenset({v})
        if self._conn_stale:
            root = self._root_of(uid)
            if root >= 0:
                return root
        members = getattr(self._conn, "component_id", None)
        if members is not None:
            return members(uid)
        return frozenset(self._conn.component_members(uid))

    def cluster_members(self, v: Vertex) -> FrozenSet[Vertex]:
        """All vertices clustered with ``v`` (including ``v``)."""
        uid = self._intern.id_of(v)
        if uid is None:
            return frozenset({v})
        label_of = self._intern.label_of
        if self._conn_stale:
            root = self._root_of(uid)
            if root >= 0:
                return frozenset(map(label_of, self._member_ids(root).tolist()))
        return frozenset(
            label_of(member) for member in self._conn.component_members(uid)
        )

    def cluster_size(self, v: Vertex) -> int:
        """Size of ``v``'s cluster (1 for unseen vertices)."""
        uid = self._intern.id_of(v)
        if uid is None:
            return 1
        if self._conn_stale:
            root = self._root_of(uid)
            if root >= 0:
                return int(self._member_ids(root).size)
        return self._conn.component_size(uid)

    def same_cluster(self, u: Vertex, v: Vertex) -> bool:
        """True if ``u`` and ``v`` are currently in the same cluster."""
        id_of = self._intern.id_of
        uid = id_of(u)
        vid = id_of(v)
        if uid is None or vid is None:
            # Never-seen labels are singletons (the connectivity
            # structures' documented unknown-vertex contract).
            return u == v
        if self._conn_stale:
            root_u = self._root_of(uid)
            root_v = self._root_of(vid)
            if root_u >= 0 and root_v >= 0:
                return root_u == root_v
        return self._conn.connected(uid, vid)

    @property
    def num_clusters(self) -> int:
        """Number of clusters (components of the sampled sub-graph)."""
        if self._conn_stale:
            roots = self._labels()
            return int(np.count_nonzero(roots == np.arange(roots.size)))
        return self._conn.num_components

    @property
    def num_vertices(self) -> int:
        """Number of vertices the clusterer has seen and not deleted."""
        # `_conn_ids` mirrors the connectivity universe and, unlike the
        # structure itself, already includes batch-deferred vertices.
        return len(self._conn_ids)

    def snapshot(self) -> Partition:
        """The current clustering as an immutable :class:`Partition`.

        Array-backed (:meth:`Partition.from_codes`): live vertices in id
        order, each labelled with its component root id. Cached until
        the next structural change (admission, sample deletion, or
        vertex-set change), so repeated quality probes between updates
        cost a dict lookup, not a re-extraction.
        """
        partition = self._partition_cache
        if partition is None:
            roots = self._labels()
            names = self._intern._labels
            if roots.size and roots.min() < 0:
                live = np.flatnonzero(roots >= 0)
                partition = Partition.from_codes(
                    [names[vid] for vid in live.tolist()], roots[live]
                )
            else:
                partition = Partition.from_codes(names[: roots.size], roots)
            self._partition_cache = partition
            self.partition_builds += 1
            if _obs._ENABLED:
                self.sync_metrics()
        return partition

    def vertices(self) -> Iterable[Vertex]:
        """Iterate over all vertices the clusterer currently knows."""
        label_of = self._intern.label_of
        ids = list(self._conn.vertices())
        ids.extend(self._conn_fresh)
        return [label_of(vid) for vid in ids]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    _METRIC_STAT_FIELDS = (
        "events",
        "edge_adds",
        "edge_deletes",
        "vertex_adds",
        "vertex_deletes",
        "admissions",
        "vetoes",
        "evictions",
        "sample_deletions",
        "component_merges",
        "component_splits",
        "malformed_events",
        "resamples",
    )
    _METRIC_PROBE_FIELDS = (
        "partition_builds",
        "probe_budget_hits",
        "offline_resolves",
        "kernel_batches",
        "kernel_events",
        "kernel_fallback_events",
    )

    def sync_metrics(self) -> None:
        """Publish this clusterer's counters and gauges to the default
        metrics registry (``clusterer.*`` — see docs/observability.md).

        Counter deltas since the previous sync are added, so several
        clusterers (e.g. shards) aggregate into the same series; gauges
        (reservoir occupancy/fill, vertex count) are overwritten. Called
        automatically at batch and stream boundaries when
        :mod:`repro.obs` is enabled; per-event hot paths never pay more
        than the single enabling branch.
        """
        registry = _obs.default_registry()
        counter = registry.counter
        last = self._metrics_last
        # Read the raw stats, NOT the settling ``stats`` property: forcing
        # the numpy kernel to settle its merge/split estimates on every
        # batch-boundary sync would defeat the deferred-settlement design.
        # The kernel's interval-granular deltas flow into the counters at
        # the next sync after a true settlement point instead.
        stats = self._stats
        for name in self._METRIC_STAT_FIELDS:
            value = getattr(stats, name)
            prev = last.get(name, 0)
            if value > prev:
                counter("clusterer." + name).inc(value - prev)
                last[name] = value
        for name in self._METRIC_PROBE_FIELDS:
            value = getattr(self, name)
            prev = last.get(name, 0)
            if value > prev:
                counter("clusterer." + name).inc(value - prev)
                last[name] = value
        size = len(self._reservoir)
        registry.gauge("clusterer.reservoir_size").set(size)
        registry.gauge("clusterer.reservoir_fill").set(
            size / self.config.reservoir_capacity
        )
        registry.gauge("clusterer.num_vertices").set(len(self._conn_ids))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def interner(self) -> VertexInterner:
        """The label ↔ id table shared by every internal structure."""
        return self._intern

    @property
    def reservoir_size(self) -> int:
        """Number of edges currently sampled."""
        return len(self._reservoir)

    def sample_structure_bytes(self) -> int:
        """Resident bytes of the sample structures (``sys.getsizeof``).

        Counts the reservoir slot storage (an ``array('Q')`` of packed
        edge keys), the item→slot index with its key objects, the
        deferred-batch sample adjacency, and the incremental component
        labels over it — the per-sampled-edge state the dense-id
        refactor shrank. An accounting estimate for E10-style
        comparisons, not an allocator-exact figure.
        """
        if self._kernel is not None:
            self._kernel.sync()
        reservoir = self._reservoir
        size = getsizeof(reservoir._slots) + getsizeof(reservoir._slot_of)
        for key in reservoir._slot_of:
            size += getsizeof(key)
        adj = self._sample_adj
        size += getsizeof(adj)
        for neighbours in adj.values():
            size += getsizeof(neighbours)
        return size + getsizeof(self._comp) + getsizeof(self._comp_size)

    def reservoir_edges(self) -> List[Edge]:
        """The sampled edges as label-canonical tuples (copy)."""
        extern_key = self._extern_key
        return [extern_key(key) for key in self._reservoir]

    @property
    def graph(self) -> Optional[AdjacencyGraph]:
        """The tracked full graph, or None in the lean memory mode."""
        return self._graph

    def __repr__(self) -> str:
        return (
            f"StreamingGraphClusterer(vertices={self.num_vertices}, "
            f"clusters={self.num_clusters}, reservoir={self.reservoir_size}/"
            f"{self.config.reservoir_capacity})"
        )
