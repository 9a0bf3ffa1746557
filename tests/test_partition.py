"""Unit tests for the Partition type, and a differential test of the
array-based cluster ordering and renderer against the dict-and-sort
implementation they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quality import Partition
from repro.quality.partition import render_snapshot


class TestConstruction:
    def test_from_labels(self):
        p = Partition({1: "a", 2: "a", 3: "b"})
        assert p.num_clusters == 2
        assert p.same_cluster(1, 2)
        assert not p.same_cluster(1, 3)

    def test_from_clusters(self):
        p = Partition.from_clusters([{1, 2}, {3}])
        assert p.num_vertices == 3
        assert p.members(p.label_of(1)) == {1, 2}

    def test_from_clusters_rejects_overlap(self):
        with pytest.raises(ValueError, match="multiple clusters"):
            Partition.from_clusters([{1, 2}, {2, 3}])

    def test_singletons(self):
        p = Partition.singletons([1, 2, 3])
        assert p.num_clusters == 3

    def test_empty(self):
        p = Partition({})
        assert p.num_clusters == 0
        assert p.max_cluster_size == 0
        assert p.sizes() == []


class TestQueries:
    def test_label_of_unknown_raises(self):
        with pytest.raises(KeyError):
            Partition({1: 0}).label_of(2)

    def test_get_with_default(self):
        p = Partition({1: 0})
        assert p.get(2, "missing") == "missing"

    def test_clusters_sorted_by_size(self):
        p = Partition.from_clusters([{1}, {2, 3, 4}, {5, 6}])
        sizes = [len(c) for c in p.clusters()]
        assert sizes == [3, 2, 1]

    def test_sizes_descending(self):
        p = Partition.from_clusters([{1}, {2, 3, 4}, {5, 6}])
        assert p.sizes() == [3, 2, 1]

    def test_contains_and_len(self):
        p = Partition({1: 0, 2: 0})
        assert 1 in p and 3 not in p
        assert len(p) == 2

    def test_structural_equality_ignores_label_names(self):
        a = Partition({1: "x", 2: "x", 3: "y"})
        b = Partition({1: 7, 2: 7, 3: 9})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_different_grouping(self):
        assert Partition({1: 0, 2: 0}) != Partition({1: 0, 2: 1})

    def test_inequality_on_different_vertex_sets(self):
        assert Partition({1: 0}) != Partition({2: 0})


class TestTransformations:
    def test_normalized_labels_dense_by_size(self):
        p = Partition.from_clusters([{9}, {1, 2, 3}, {4, 5}]).normalized()
        assert p.label_of(1) == 0  # biggest cluster gets label 0
        assert p.label_of(4) == 1
        assert p.label_of(9) == 2

    def test_restricted_to(self):
        p = Partition({1: 0, 2: 0, 3: 1})
        r = p.restricted_to([1, 3, 99])
        assert set(r.vertices()) == {1, 3}

    def test_merged_small_clusters(self):
        p = Partition.from_clusters([{1, 2, 3}, {4}, {5}])
        merged = p.merged_small_clusters(min_size=2)
        assert merged.num_clusters == 2
        assert merged.same_cluster(4, 5)

    def test_repr(self):
        assert "num_clusters=1" in repr(Partition({1: 0}))


# ----------------------------------------------------------------------
# Differential: the array routine against the dict-and-sort reference
# ----------------------------------------------------------------------
def reference_clusters(labels):
    """``Partition.clusters()`` as the dict-and-sort implementation
    computed it: member sets in first-appearance order of the labels,
    sorted by size, then by the sorted ``repr`` lists."""
    clusters = {}
    for vertex, label in labels.items():
        clusters.setdefault(label, set()).add(vertex)
    return sorted(
        (frozenset(members) for members in clusters.values()),
        key=lambda members: (-len(members), sorted(map(repr, members))),
    )


def reference_render(labels):
    """``render_snapshot`` as the dict-and-sort implementation wrote it."""
    lines = []
    for index, members in enumerate(reference_clusters(labels)):
        for vertex in sorted(members, key=repr):
            lines.append(f"{vertex}\t{index}\n")
    return "".join(lines)


_vertices = st.one_of(
    st.integers(-(2**70), 2**70),  # negative, zero, beyond int64
    st.integers(-3, 12),
    st.text(max_size=6),  # unicode, quotes, backslashes, control chars
    st.sampled_from(["'", '"', "a'b\"", "\\", "é", "日本", "_rest", "0", "-1"]),
    # long labels beside short ones pad the fixed-width array past its
    # bound, so these sets take the object-array sort
    st.text(min_size=40, max_size=80),
)
_labellings = st.lists(_vertices, unique=True, max_size=40).flatmap(
    lambda vertices: st.tuples(
        st.just(vertices),
        st.lists(
            st.integers(0, max(len(vertices) // 3, 1)),  # many equal sizes
            min_size=len(vertices),
            max_size=len(vertices),
        ),
    )
)


def _assert_matches_reference(partition, labels):
    expected = reference_clusters(labels)
    assert partition.clusters() == expected
    assert render_snapshot(partition) == reference_render(labels)
    assert partition.num_clusters == len(expected)
    assert partition.sizes() == [len(members) for members in expected]
    assert partition.max_cluster_size == max(map(len, expected), default=0)


class TestRendererDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_labellings)
    def test_dict_built(self, case):
        vertices, codes = case
        labels = dict(zip(vertices, codes))
        _assert_matches_reference(Partition(labels), labels)

    @settings(max_examples=300, deadline=None)
    @given(_labellings)
    def test_array_built(self, case):
        vertices, codes = case
        partition = Partition.from_codes(vertices, np.array(codes, dtype=np.int64))
        _assert_matches_reference(partition, dict(zip(vertices, codes)))

    @settings(max_examples=200, deadline=None)
    @given(_labellings, st.integers(1, 5))
    def test_merged_small_clusters(self, case, min_size):
        vertices, codes = case
        labels = dict(zip(vertices, codes))
        for partition in (
            Partition(labels),
            Partition.from_codes(vertices, np.array(codes, dtype=np.int64)),
        ):
            merged = partition.merged_small_clusters(min_size)
            merged_labels = merged.labels()
            assert set(merged_labels.values()) <= set(codes) | {"_rest"}
            _assert_matches_reference(merged, merged_labels)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_vertices, unique=True, max_size=40))
    def test_all_singletons(self, vertices):
        labels = {vertex: index for index, vertex in enumerate(vertices)}
        _assert_matches_reference(Partition.singletons(vertices), labels)

    def test_empty(self):
        for partition in (Partition({}), Partition.from_codes([], np.empty(0))):
            assert render_snapshot(partition) == ""
            assert partition.clusters() == []
            assert partition.num_clusters == 0

    def test_one_long_label_takes_the_object_sort(self):
        # 41 reprs of 1-2 chars beside one of 102: padding far past the bound.
        labels = {vertex: vertex % 4 for vertex in range(40)}
        labels["x" * 100] = 1
        labels[-5] = 3
        for partition in (
            Partition(labels),
            Partition.from_codes(list(labels), np.array(list(labels.values()))),
        ):
            _assert_matches_reference(partition, labels)

    def test_equal_size_ties_order_by_repr_lists(self):
        labels = {10: "x", 9: "x", "b": "y", "a": "y", -1: "z", 100: "z"}
        partition = Partition(labels)
        assert render_snapshot(partition) == reference_render(labels)
        # "'a'" < "-1" < "10" by code point, whatever the numeric order.
        assert partition.clusters() == [
            frozenset({"a", "b"}),
            frozenset({-1, 100}),
            frozenset({9, 10}),
        ]

    @settings(max_examples=200, deadline=None)
    @given(_labellings)
    def test_dict_and_array_partitions_agree(self, case):
        vertices, codes = case
        from_dict = Partition(dict(zip(vertices, codes)))
        from_arrays = Partition.from_codes(vertices, np.array(codes, dtype=np.int64))
        assert from_dict == from_arrays
        assert from_arrays == from_dict
        assert hash(from_dict) == hash(from_arrays)
        assert from_dict.labels() == from_arrays.labels()
        assert from_dict.cluster_sets() == from_arrays.cluster_sets()
        assert from_dict.normalized() == from_arrays.normalized()
        assert from_dict.normalized().labels() == from_arrays.normalized().labels()
        assert list(from_dict.vertices()) == list(from_arrays.vertices())
        assert len(from_dict) == len(from_arrays)
