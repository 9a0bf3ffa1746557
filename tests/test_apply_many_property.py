"""Equivalence properties of the batched ingestion fast path.

The contract under test: for *any* split of a stream into batches,
``apply_many`` leaves the clusterer in a state identical to applying the
events one at a time — same reservoir contents and RNG state, same
statistics, same tracked graph, same clustering. The tests drive both
paths over random add/delete streams (with vertex events as batch
barriers) across all three connectivity backends.
"""

from __future__ import annotations

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.lazy import LazyRebuildConnectivity
from repro.core import ClustererConfig, StreamingGraphClusterer
from repro.core.constraints import CompositeConstraint, MaxClusterSize, MinClusterCount
from repro.core.sharded import ShardedClusterer
from repro.errors import StreamError
from repro.persist import load_checkpoint, save_checkpoint
from repro.persist.canonical import canonicalize
from repro.streams import (
    EdgeEvent,
    EventKind,
    insert_delete_stream,
    planted_partition,
)

BACKENDS = ("hdt", "naive", "lazy")

# Operation stream over a small vertex universe: (u, v) toggles the
# edge, so the stream is always well-formed under strict semantics.
_ops = st.lists(
    st.tuples(st.integers(0, 13), st.integers(0, 13)).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=120,
)


def _raw_events(ops, barrier_every=0):
    """Toggle ops into a well-formed raw event stream.

    With ``barrier_every`` > 0, a DELETE_VERTEX barrier is interleaved
    periodically (of a vertex currently present), exercising the
    flush-and-barrier path inside ``apply_many``.
    """
    live: set = set()
    events = []
    for index, (a, b) in enumerate(ops):
        edge = (min(a, b), max(a, b))
        if edge in live:
            events.append((EventKind.DELETE_EDGE, edge[0], edge[1]))
            live.discard(edge)
        else:
            events.append((EventKind.ADD_EDGE, a, b))
            live.add(edge)
        if barrier_every and index % barrier_every == barrier_every - 1:
            victim = edge[0]
            events.append((EventKind.DELETE_VERTEX, victim, None))
            live = {e for e in live if victim not in e}
    return events


def _strip_config(state: dict) -> dict:
    """Drop the config for comparison: constraint instances have no
    ``__eq__``, so two structurally identical configs never compare
    equal. Configs are compared by repr where they matter."""
    state.pop("config")
    return state


def _run_per_event(events, **config_kwargs) -> StreamingGraphClusterer:
    clusterer = StreamingGraphClusterer(ClustererConfig(**config_kwargs))
    for event in events:
        clusterer.apply(EdgeEvent(*event))
    return clusterer


def _run_batched(events, rng, **config_kwargs) -> StreamingGraphClusterer:
    """Apply ``events`` through apply_many over a random split."""
    clusterer = StreamingGraphClusterer(ClustererConfig(**config_kwargs))
    index = 0
    while index < len(events):
        step = rng.randrange(1, len(events) - index + 1)
        clusterer.apply_many(events[index : index + step])
        index += step
    return clusterer


@settings(max_examples=60, deadline=None)
@given(
    ops=_ops,
    seed=st.integers(0, 2**20),
    capacity=st.integers(1, 25),
    backend=st.sampled_from(BACKENDS),
    split_seed=st.integers(0, 2**10),
)
def test_apply_many_matches_per_event_for_any_split(
    ops, seed, capacity, backend, split_seed
):
    events = _raw_events(ops)
    kwargs = dict(
        reservoir_capacity=capacity,
        seed=seed,
        connectivity_backend=backend,
    )
    reference = _run_per_event(events, **kwargs)
    batched = _run_batched(events, random.Random(split_seed), **kwargs)
    assert _strip_config(batched.get_state()) == _strip_config(reference.get_state())
    assert batched.snapshot() == reference.snapshot()
    assert batched.num_clusters == reference.num_clusters


@settings(max_examples=25, deadline=None)
@given(
    ops=_ops,
    seed=st.integers(0, 2**20),
    split_seed=st.integers(0, 2**10),
)
def test_apply_many_with_vertex_delete_barriers(ops, seed, split_seed):
    events = _raw_events(ops, barrier_every=7)
    kwargs = dict(reservoir_capacity=8, seed=seed, strict=False)
    reference = _run_per_event(events, **kwargs)
    batched = _run_batched(events, random.Random(split_seed), **kwargs)
    assert _strip_config(batched.get_state()) == _strip_config(reference.get_state())


@settings(max_examples=25, deadline=None)
@given(ops=_ops, seed=st.integers(0, 2**20))
def test_one_big_batch_matches_per_event_queries(ops, seed):
    """A single apply_many call answers live queries identically even
    while its connectivity flush is still deferred."""
    events = _raw_events(ops)
    kwargs = dict(reservoir_capacity=10, seed=seed)
    reference = _run_per_event(events, **kwargs)
    batched = StreamingGraphClusterer(ClustererConfig(**kwargs))
    batched.apply_many(events)
    vertices = sorted(reference.vertices())
    for v in vertices:
        assert batched.cluster_size(v) == reference.cluster_size(v)
        assert batched.cluster_members(v) == reference.cluster_members(v)
    for u, v in zip(vertices, vertices[1:]):
        assert batched.same_cluster(u, v) == reference.same_cluster(u, v)
    assert batched.snapshot() == reference.snapshot()


@settings(max_examples=30, deadline=None)
@given(
    ops=_ops,
    seed=st.integers(0, 2**20),
    cut=st.integers(0, 120),
    backend=st.sampled_from(BACKENDS),
)
def test_checkpoint_roundtrip_mid_stream(tmp_path_factory, ops, seed, cut, backend):
    """Checkpoint a batched run mid-stream, restore, finish the tail —
    identical end state to an uninterrupted per-event run. Exercises the
    slot-array reservoir's state round-trip (slot order and RNG state
    must survive exactly for the remaining stream to replay bit-equal).
    """
    events = _raw_events(ops)
    cut = min(cut, len(events))
    kwargs = dict(
        reservoir_capacity=7, seed=seed, connectivity_backend=backend
    )
    reference = _run_per_event(events, **kwargs)

    head = StreamingGraphClusterer(ClustererConfig(**kwargs))
    head.apply_many(events[:cut])
    path = tmp_path_factory.mktemp("ckpt") / "mid.ckpt"
    save_checkpoint(head, path, position=cut)
    checkpoint = load_checkpoint(path)
    assert checkpoint.position == cut
    restored = checkpoint.clusterer
    restored.apply_many(events[cut:])
    assert _strip_config(restored.get_state()) == _strip_config(reference.get_state())
    assert restored.snapshot() == reference.snapshot()


def test_sharded_apply_many_matches_per_event():
    rng = random.Random(11)
    ops = [(rng.randrange(40), rng.randrange(40)) for _ in range(600)]
    events = _raw_events([op for op in ops if op[0] != op[1]])
    config = ClustererConfig(reservoir_capacity=50, seed=4, strict=False)
    reference = ShardedClusterer(config, 3)
    for event in events:
        reference.apply(EdgeEvent(*event))
    batched = ShardedClusterer(config, 3).process(events, batch_size=128)
    state_a, state_b = reference.get_state(), batched.get_state()
    state_a.pop("config")
    state_b.pop("config")
    for shard_a, shard_b in zip(state_a.pop("shards"), state_b.pop("shards")):
        assert _strip_config(shard_a) == _strip_config(shard_b)
    assert state_a == state_b
    assert reference.snapshot() == batched.snapshot()


class TestNoReextractionWithoutStructuralChange:
    """Regression: repeated snapshots between updates must reuse the
    cached partition, and events that change nothing structural must not
    invalidate it (``partition_builds`` counts actual extractions)."""

    def _seeded(self) -> StreamingGraphClusterer:
        clusterer = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=100, seed=0, strict=False)
        )
        clusterer.apply_many(
            [
                (EventKind.ADD_EDGE, 1, 2),
                (EventKind.ADD_EDGE, 2, 3),
                (EventKind.ADD_EDGE, 4, 5),
            ]
        )
        return clusterer

    def test_repeated_queries_build_once(self):
        clusterer = self._seeded()
        assert clusterer.partition_builds == 0
        first = clusterer.snapshot()
        assert clusterer.partition_builds == 1
        assert clusterer.snapshot() is not None
        assert clusterer.num_clusters == first.num_clusters
        assert clusterer.cluster_size(1) == 3
        assert clusterer.partition_builds == 1

    def test_non_structural_events_keep_cache(self):
        clusterer = self._seeded()
        clusterer.snapshot()
        # A duplicate add and a delete of an unknown edge are counted as
        # malformed (strict=False) and change no structure.
        clusterer.apply_many(
            [(EventKind.ADD_EDGE, 1, 2), (EventKind.DELETE_EDGE, 8, 9)]
        )
        clusterer.snapshot()
        assert clusterer.partition_builds == 1
        assert clusterer.stats.malformed_events == 2

    def test_structural_change_rebuilds_once(self):
        clusterer = self._seeded()
        clusterer.snapshot()
        clusterer.apply_many([(EventKind.ADD_EDGE, 5, 6)])
        clusterer.snapshot()
        clusterer.snapshot()
        assert clusterer.partition_builds == 2


# ----------------------------------------------------------------------
# Constrained batching: the batch loop decides admissions on its exact
# sample component labels instead of the connectivity backend.
# ----------------------------------------------------------------------

EXACT_BACKENDS = ("hdt", "naive")

_constraints = st.one_of(
    st.builds(MaxClusterSize, st.integers(2, 6)),
    st.builds(MinClusterCount, st.integers(1, 12)),
    st.builds(
        lambda limit, minimum: CompositeConstraint(
            [MaxClusterSize(limit), MinClusterCount(minimum)]
        ),
        st.integers(2, 8),
        st.integers(1, 10),
    ),
)

# (op, a, b) over a small universe. "toggle" adds or deletes the edge, so
# repeated delete/re-add cycles are common; "addv"/"delv" are vertex
# events (delv is a batch barrier, malformed when the vertex is absent);
# "dup" re-adds a live edge and "ghost" deletes an absent one, both
# malformed.
_mixed_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ("toggle",) * 10 + ("addv", "delv", "dup", "ghost")
        ),
        st.integers(0, 11),
        st.integers(0, 11),
    ).filter(lambda op: op[1] != op[2]),
    min_size=1,
    max_size=150,
)


def _mixed_events(ops):
    live: set = set()
    events = []
    for op, a, b in ops:
        edge = (min(a, b), max(a, b))
        if op == "toggle":
            if edge in live:
                events.append((EventKind.DELETE_EDGE, a, b))
                live.discard(edge)
            else:
                events.append((EventKind.ADD_EDGE, a, b))
                live.add(edge)
        elif op == "addv":
            events.append((EventKind.ADD_VERTEX, a, None))
        elif op == "delv":
            events.append((EventKind.DELETE_VERTEX, a, None))
            live = {e for e in live if a not in e}
        elif op == "dup" and edge in live:
            events.append((EventKind.ADD_EDGE, b, a))
        elif op == "ghost" and edge not in live:
            events.append((EventKind.DELETE_EDGE, a, b))
    return events


def _state_bytes(clusterer) -> bytes:
    return pickle.dumps(canonicalize(clusterer.get_state()))


def _assert_identical(batched, reference) -> None:
    assert batched.snapshot() == reference.snapshot()
    assert list(batched._reservoir) == list(reference._reservoir)
    assert batched._reservoir._rng.getstate() == reference._reservoir._rng.getstate()
    assert batched.stats == reference.stats
    assert _state_bytes(batched) == _state_bytes(reference)


def _drive(clusterer, events, step_of) -> None:
    """Feed ``events`` (per-event when ``step_of`` is None, else in
    batches of ``step_of()`` events) until the stream ends or a strict
    stream error stops it, as the CLI would."""
    index = 0
    try:
        while index < len(events):
            if step_of is None:
                clusterer.apply(EdgeEvent(*events[index]))
                index += 1
            else:
                step = step_of()
                clusterer.apply_many(events[index : index + step])
                index += step
    except StreamError:
        pass


@settings(max_examples=80, deadline=None)
@given(
    ops=_mixed_ops,
    seed=st.integers(0, 2**20),
    capacity=st.integers(1, 20),
    backend=st.sampled_from(EXACT_BACKENDS),
    constraint=_constraints,
    strict=st.booleans(),
    split_seed=st.integers(0, 2**10),
)
def test_constrained_apply_many_matches_per_event(
    ops, seed, capacity, backend, constraint, strict, split_seed
):
    events = _mixed_events(ops)
    config = ClustererConfig(
        reservoir_capacity=capacity,
        seed=seed,
        connectivity_backend=backend,
        constraint=constraint,
        strict=strict,
    )
    reference = StreamingGraphClusterer(config)
    _drive(reference, events, None)
    batched = StreamingGraphClusterer(config)
    rng = random.Random(split_seed)
    _drive(batched, events, lambda: rng.randrange(1, 40))
    _assert_identical(batched, reference)


@settings(max_examples=30, deadline=None)
@given(
    ops=_mixed_ops,
    seed=st.integers(0, 2**20),
    cut=st.integers(0, 150),
    backend=st.sampled_from(EXACT_BACKENDS),
    constraint=_constraints,
)
def test_constrained_checkpoint_resume_mid_stream(
    tmp_path_factory, ops, seed, cut, backend, constraint
):
    events = _mixed_events(ops)
    cut = min(cut, len(events))
    config = ClustererConfig(
        reservoir_capacity=6,
        seed=seed,
        connectivity_backend=backend,
        constraint=constraint,
        strict=False,
    )
    reference = StreamingGraphClusterer(config)
    _drive(reference, events, None)
    head = StreamingGraphClusterer(config)
    head.apply_many(events[:cut])
    path = tmp_path_factory.mktemp("ckpt") / "mid.ckpt"
    save_checkpoint(head, path, position=cut)
    restored = load_checkpoint(path).clusterer
    restored.apply_many(events[cut:])
    # The restored config is an unpickled copy; compare it by repr.
    assert repr(restored.config) == repr(reference.config)
    restored.config = reference.config
    _assert_identical(restored, reference)


@settings(max_examples=30, deadline=None)
@given(
    ops=_ops,
    seed=st.integers(0, 2**20),
    backend=st.sampled_from(EXACT_BACKENDS),
    constraint=_constraints,
    split_seed=st.integers(0, 2**10),
)
def test_constrained_apply_interned_many_matches_per_event(
    ops, seed, backend, constraint, split_seed
):
    """The pipeline worker's entry point: ids interned ahead of the
    batch (as the frame decoder does), label-canonical orientation."""
    events = _raw_events(ops)
    config = ClustererConfig(
        reservoir_capacity=8,
        seed=seed,
        connectivity_backend=backend,
        constraint=constraint,
    )
    reference = StreamingGraphClusterer(config)
    _drive(reference, events, None)
    batched = StreamingGraphClusterer(config)
    intern = batched.interner.intern
    rng = random.Random(split_seed)
    index = 0
    while index < len(events):
        chunk = events[index : index + rng.randrange(1, 30)]
        index += len(chunk)
        interned = []
        for kind, u, v in chunk:
            u, v = min(u, v), max(u, v)
            interned.append((kind, intern(u), intern(v)))
        batched.apply_interned_many(interned)
    _assert_identical(batched, reference)


def test_constrained_sharded_apply_many_matches_per_event():
    rng = random.Random(12)
    ops = [(rng.randrange(40), rng.randrange(40)) for _ in range(600)]
    events = _raw_events([op for op in ops if op[0] != op[1]], barrier_every=97)
    config = ClustererConfig(
        reservoir_capacity=50,
        seed=4,
        strict=False,
        constraint=CompositeConstraint([MaxClusterSize(6), MinClusterCount(3)]),
    )
    reference = ShardedClusterer(config, 3)
    for event in events:
        reference.apply(EdgeEvent(*event))
    batched = ShardedClusterer(config, 3).process(events, batch_size=128)
    assert pickle.dumps(canonicalize(batched.get_state())) == pickle.dumps(
        canonicalize(reference.get_state())
    )
    assert reference.snapshot() == batched.snapshot()
    assert sum(shard.stats.vetoes for shard in batched.shards) > 0


class _UntouchableLazy(LazyRebuildConnectivity):
    """A lazy backend on which any connectivity work fails the test.

    The registration list (``vertices``) and the dirty flag stay
    readable, and ``mark_dirty`` stays callable: they are O(1)
    bookkeeping, not connectivity work. A batch whose net diff cancels
    out marks the cache dirty, as a per-event deletion would (see
    test_constrained_lazy_cancelled_diff_marks_backend_dirty).
    """

    def _refuse(self, *args):
        raise AssertionError("the constrained batch path touched the backend")

    add_vertex = insert_edge = delete_edge = _refuse
    connected = component_size = component_members = components = _refuse
    remove_vertex_if_isolated = _refuse
    num_components = property(_refuse)


def test_constrained_lazy_batch_never_touches_backend():
    """Regression: lazy + a constraint used to rebuild the lazy cache on
    every admission after an eviction (minutes on dblp_like-sized churn).
    The batched path must neither query nor update the backend, in
    apply_many or in get_state, and it reports exact merge/split counts
    (those of an exact backend's per-event run)."""
    graph = planted_partition(300, 10, 0.2, 0.004, seed=3)
    events = [
        (event.kind, event.u, event.v)
        for event in insert_delete_stream(graph.edges, churn=0.3, seed=3)
    ]
    common = dict(reservoir_capacity=600, seed=9, constraint=MaxClusterSize(25))
    batched = StreamingGraphClusterer(
        ClustererConfig(connectivity_backend="lazy", **common)
    )
    batched._conn = _UntouchableLazy()
    batched.process(events, batch_size=256)
    state = batched.get_state()
    reference = StreamingGraphClusterer(
        ClustererConfig(connectivity_backend="hdt", **common)
    )
    _drive(reference, events, None)
    assert batched.stats.vetoes > 0 and batched.stats.component_splits > 0
    assert batched.stats == reference.stats
    assert batched.snapshot() == reference.snapshot()
    expected = reference.get_state()
    for key in ("config", "conn_dirty"):
        state.pop(key)
        expected.pop(key)
    assert state == expected


def test_constrained_lazy_cancelled_diff_marks_backend_dirty():
    """A constrained batch that deletes and re-adds a sampled edge leaves
    a net diff that cancels, so nothing is flushed, yet the lazy
    backend's cache ends dirty: the batch marks it whenever it deleted
    from the sample. Per-event, the constraint's own query before the
    re-add rebuilt the cache, so it ends clean. Only the lazy backend's
    conservative counters read the flag (docs/algorithms.md); the
    partition and every statistic agree."""
    config = ClustererConfig(
        reservoir_capacity=10,
        seed=1,
        connectivity_backend="lazy",
        constraint=MaxClusterSize(5),
    )
    add, delete = EventKind.ADD_EDGE, EventKind.DELETE_EDGE
    runs = []
    for batched in (False, True):
        clusterer = StreamingGraphClusterer(config)
        clusterer.apply(EdgeEvent(add, 1, 2))
        clusterer.apply(EdgeEvent(EventKind.ADD_VERTEX, 3))  # settles the backend
        conn = clusterer._conn
        id_of = clusterer.interner.id_of
        assert conn.connected(id_of(1), id_of(2)) and not conn.dirty
        churn = [(delete, 1, 2), (add, 1, 2)]
        if batched:
            clusterer.apply_many(churn)
            assert not clusterer._conn_stale  # the diff cancelled out
        else:
            for event in churn:
                clusterer.apply(EdgeEvent(*event))
        assert conn.dirty is batched
        assert conn.connected(id_of(1), id_of(2))
        runs.append(clusterer)
    per_event, batched = runs
    assert batched.stats == per_event.stats
    assert batched.snapshot() == per_event.snapshot()
