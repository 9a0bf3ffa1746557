"""Unit tests for stream-order transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import graph_from_events
from repro.streams import (
    EventKind,
    adversarial_bridge_first,
    count_kinds,
    insert_delete_stream,
    insert_only_columns,
    insert_only_stream,
    insert_only_stream_raw,
    insert_order,
    shuffled,
    add_edge,
)
from repro.util.rng import child_seed, make_rng


class TestShuffled:
    def test_preserves_multiset(self):
        events = [add_edge(i, i + 1) for i in range(50)]
        result = shuffled(events, seed=1)
        assert sorted(e.edge for e in result) == sorted(e.edge for e in events)
        assert result != events  # overwhelmingly likely with 50 events

    def test_deterministic(self):
        events = [add_edge(i, i + 1) for i in range(20)]
        assert shuffled(events, seed=3) == shuffled(events, seed=3)
        assert shuffled(events, seed=3) != shuffled(events, seed=4)


class TestInsertOnly:
    def test_all_adds(self):
        events = insert_only_stream([(1, 2), (3, 4)], seed=0)
        assert count_kinds(events)[EventKind.ADD_EDGE] == 2

    def test_unshuffled_when_seed_none(self):
        events = insert_only_stream([(1, 2), (3, 4), (5, 6)], seed=None)
        assert [e.edge for e in events] == [(1, 2), (3, 4), (5, 6)]


def _stdlib_order(n, seed):
    order = list(range(n))
    make_rng(child_seed(seed, "insert_only")).shuffle(order)
    return order


#: Bit-length edges, where the draw blocks of insert_order begin and end.
_EDGE_SIZES = st.integers(min_value=1, max_value=20).flatmap(
    lambda k: st.sampled_from([(1 << k) - 1, 1 << k, (1 << k) + 1])
)
_SEEDS = st.integers(min_value=-(1 << 70), max_value=1 << 70)


class TestInsertOrder:
    """``insert_order`` is the stdlib shuffle's permutation, bit for bit:
    the order contract every ``insert_only_*`` spelling keeps."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tiny_streams(self, n):
        for seed in range(20):
            assert insert_order(n, seed).tolist() == _stdlib_order(n, seed)

    @settings(max_examples=40, deadline=None)
    @given(n=_EDGE_SIZES, seed=_SEEDS)
    def test_bit_length_edges(self, n, seed):
        assert insert_order(n, seed).tolist() == _stdlib_order(n, seed)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.one_of(st.integers(0, 10**6), st.integers(10**5, 10**6)),
        seed=_SEEDS,
    )
    def test_random_sizes(self, n, seed):
        assert insert_order(n, seed).tolist() == _stdlib_order(n, seed)

    def test_result_is_int64_array(self):
        order = insert_order(5, 0)
        assert isinstance(order, np.ndarray) and order.dtype == np.int64

    @settings(max_examples=30, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 50), st.integers(51, 100)), max_size=300
        ),
        seed=_SEEDS,
        batch=st.integers(min_value=1, max_value=64),
    )
    def test_three_spellings_describe_one_stream(self, edges, seed, batch):
        events = insert_only_stream(edges, seed=seed)
        raw = insert_only_stream_raw(edges, seed=seed)
        columns = [
            event
            for chunk in insert_only_columns(edges, batch, seed=seed)
            for event in chunk.to_events()
        ]
        assert [(e.kind, e.u, e.v) for e in events] == raw == columns
        assert [(u, v) for _, u, v in raw] == [
            edges[i] for i in _stdlib_order(len(edges), seed)
        ]

    def test_columns_keep_non_int_labels(self):
        edges = [("a", "b"), (1, 2), (3, "c")]
        chunks = list(insert_only_columns(edges, 2, seed=4))
        assert all(type(chunk.us) is list for chunk in chunks)
        merged = [e for chunk in chunks for e in chunk.to_events()]
        assert merged == insert_only_stream_raw(edges, seed=4)


class TestInsertDelete:
    def test_final_state_is_full_edge_set(self):
        edges = [(i, i + 1) for i in range(40)]
        events = insert_delete_stream(edges, churn=0.5, seed=2)
        graph = graph_from_events(events)
        assert sorted(graph.edges()) == sorted(edges)

    def test_event_count(self):
        edges = [(i, i + 1) for i in range(40)]
        events = insert_delete_stream(edges, churn=0.5, seed=2)
        assert len(events) == 40 + 2 * 20

    def test_stream_is_well_formed(self):
        # Strict replay must not raise: adds before deletes per edge.
        from repro.core import ClustererConfig, StreamingGraphClusterer

        edges = [(i, (i + 7) % 30) for i in range(30) if i != (i + 7) % 30]
        events = insert_delete_stream(edges, churn=1.0, seed=3)
        clusterer = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=10, strict=True)
        )
        clusterer.process(events)  # raises StreamError if malformed
        assert clusterer.stats.malformed_events == 0

    def test_zero_churn_is_insert_only(self):
        events = insert_delete_stream([(1, 2), (3, 4)], churn=0.0, seed=4)
        assert count_kinds(events)[EventKind.DELETE_EDGE] == 0

    def test_churn_validation(self):
        with pytest.raises(ValueError):
            insert_delete_stream([(1, 2)], churn=2.0)


class TestAdversarial:
    def test_bridges_come_first(self):
        intra = [(0, 1), (1, 2), (10, 11), (11, 12)]
        bridges = [(2, 10)]
        events = adversarial_bridge_first(intra, bridges, seed=5)
        assert events[0].edge == (2, 10)
        assert len(events) == 5
