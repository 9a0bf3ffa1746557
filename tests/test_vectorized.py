"""Tests for the numpy batch kernel and its vectorized primitives.

Covers the three contracts ``--kernel numpy`` makes:

* the vectorized shard routing is *bit-for-bit* the scalar routing;
* the kernel is deterministic and checkpoint-exact (byte-identical
  round trips, including a mid-stream save/restore);
* the sample it draws is *distribution-equivalent* to the scalar
  kernel's (identical under an injected RNG, chi-square-indistinguishable
  under real RNGs) — the kernel trades bitstream compatibility for
  throughput, never correctness.
"""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clusterer import StreamingGraphClusterer
from repro.core.config import ClustererConfig
from repro.core.sharded import ShardedClusterer, _shard_of
from repro.sampling.random_pairing import PackedEdgeReservoir
from repro.connectivity.union_find import UnionFind
from repro.sampling.vectorized import (
    NumpyPackedEdgeReservoir,
    component_roots,
    edge_components,
    shard_ids,
)
from repro.streams.events import EventKind

ADD = EventKind.ADD_EDGE
DEL = EventKind.DELETE_EDGE


def _mixed_events(n, num_vertices, seed, delete_rate=0.2):
    """A valid add/delete tuple stream (deletes only hit live edges)."""
    rng = random.Random(seed)
    events, live = [], set()
    while len(events) < n:
        if live and rng.random() < delete_rate:
            edge = rng.choice(sorted(live))
            live.discard(edge)
            events.append((DEL, edge[0], edge[1]))
            continue
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        edge = (min(u, v), max(u, v))
        if edge in live:
            continue
        live.add(edge)
        events.append((ADD, u, v))
    return events


# ----------------------------------------------------------------------
# shard_ids: bit-for-bit scalar routing
# ----------------------------------------------------------------------
class TestShardIds:
    def test_matches_scalar(self):
        rng = random.Random(11)
        lo = [rng.randrange(-(2**62), 2**62) for _ in range(500)]
        hi = [x + rng.randrange(1, 1000) for x in lo]
        for num_shards in (1, 2, 3, 7, 16):
            vec = shard_ids(np.array(lo), np.array(hi), num_shards)
            for u, v, got in zip(lo, hi, vec.tolist()):
                assert got == _shard_of((u, v), num_shards)

    def test_small_dense_ids(self):
        # The interned hot path feeds small non-negative ids.
        lo = np.arange(0, 300, dtype=np.int64)
        hi = lo + 1
        vec = shard_ids(lo, hi, 5)
        expect = [_shard_of((int(u), int(v)), 5) for u, v in zip(lo, hi)]
        assert vec.tolist() == expect


# ----------------------------------------------------------------------
# edge_components: matches a union-find ground truth
# ----------------------------------------------------------------------
class TestEdgeComponents:
    def test_matches_union_find(self):
        from repro.connectivity.union_find import UnionFind

        rng = random.Random(3)
        for trial in range(20):
            edges = set()
            while len(edges) < rng.randrange(1, 60):
                u = rng.randrange(40)
                v = rng.randrange(40)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            keys = np.array(
                [(u << 32) | v for u, v in sorted(edges)], dtype=np.uint64
            )
            count, vertices, labels = edge_components(keys)
            union = UnionFind()
            for u, v in edges:
                union.add(u)
                union.add(v)
                union.union(u, v)
            assert count == union.num_sets
            groups = {}
            for vertex, label in zip(vertices.tolist(), labels.tolist()):
                groups.setdefault(label, set()).add(vertex)
            expect = {frozenset(g) for g in union.groups()}
            assert {frozenset(g) for g in groups.values()} == expect

    def test_empty(self):
        assert edge_components(np.array([], dtype=np.uint64)) == (0, None, None)


# ----------------------------------------------------------------------
# component_roots: one root per id, the smallest id of its component
# ----------------------------------------------------------------------
def _pack(edges):
    return np.array(
        [(min(u, v) << 32) | max(u, v) for u, v in edges], dtype=np.uint64
    )


def _union_find_roots(num_ids, edges):
    union = UnionFind()
    for vid in range(num_ids):
        union.add(vid)
    for u, v in edges:
        union.union(u, v)
    smallest = {}
    for vid in range(num_ids):
        rep = union.find(vid)
        smallest[rep] = min(smallest.get(rep, vid), vid)
    return [smallest[union.find(vid)] for vid in range(num_ids)]


class TestComponentRoots:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                        lambda e: e[0] != e[1]
                    ),
                    max_size=120,
                ),
            )
        )
    )
    def test_matches_union_find(self, case):
        num_ids, edges = case
        roots = component_roots(num_ids, _pack(edges))
        assert roots.dtype == np.int64
        assert roots.tolist() == _union_find_roots(num_ids, edges)

    def test_empty_input(self):
        assert component_roots(0, np.empty(0, dtype=np.uint64)).tolist() == []
        assert component_roots(4, np.empty(0, dtype=np.uint64)).tolist() == [
            0, 1, 2, 3,
        ]

    def test_isolated_ids_are_their_own_roots(self):
        roots = component_roots(10, _pack([(7, 3), (8, 3)]))
        assert roots.tolist() == [0, 1, 2, 3, 4, 5, 6, 3, 3, 9]

    @pytest.mark.parametrize("center", [0, 499, 999])
    def test_star(self, center):
        edges = [(center, leaf) for leaf in range(1000) if leaf != center]
        assert (component_roots(1000, _pack(edges)) == 0).all()

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_long_paths(self, order):
        n = 20000
        labels = list(range(n))
        edges = list(zip(labels, labels[1:]))
        if order == "reversed":
            edges.reverse()
        elif order == "shuffled":
            random.Random(5).shuffle(edges)
        roots = component_roots(n, _pack(edges))
        assert (roots == 0).all()
        # The same path over shuffled ids, split in two at its midpoint.
        ids = list(range(n))
        random.Random(6).shuffle(ids)
        half = n // 2
        edges = [
            (ids[i], ids[i + 1]) for i in range(n - 1) if i + 1 != half
        ]
        if order == "reversed":
            edges.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(edges)
        roots = component_roots(n, _pack(edges))
        assert roots.tolist() == _union_find_roots(n, edges)
        assert len(set(roots.tolist())) == 2


class TestSettleStatsUnchanged:
    """The numpy kernel's merge/split estimates, settled on
    component_roots, equal the counts the min-label propagation
    settlement reported on the equivalence streams."""

    # (events, vertices, seed, batch, delete rate, capacity) ->
    # (component_merges, component_splits)
    CASES = [
        ((3000, 300, 29, 512, 0.2, 100), (510, 198)),
        ((3000, 300, 29, 512, 0.0, 100), (283, 52)),
        ((3000, 300, 31, 512, 0.2, 100), (499, 172)),
        ((3000, 300, 31, 512, 0.0, 100), (283, 58)),
        ((1500, 200, 37, 1500, 0.2, 100), (416, 186)),
        ((1500, 200, 37, 1500, 0.0, 100), (193, 21)),
        ((20000, 2000, 41, 4096, 0.2, 800), (3898, 1602)),
        ((20000, 2000, 41, 4096, 0.0, 800), (1941, 303)),
    ]

    @pytest.mark.parametrize("case,expected", CASES)
    def test_counts(self, case, expected):
        n, num_vertices, seed, batch, rate, capacity = case
        events = _mixed_events(n, num_vertices, seed=seed, delete_rate=rate)
        clusterer = StreamingGraphClusterer(
            ClustererConfig(
                reservoir_capacity=capacity, seed=23, kernel="numpy", strict=False
            )
        )
        for start in range(0, len(events), batch):
            clusterer.apply_many(events[start : start + batch])
        stats = clusterer.stats
        assert (stats.component_merges, stats.component_splits) == expected


# ----------------------------------------------------------------------
# Sharded / pipeline vectorized routing
# ----------------------------------------------------------------------
class TestVectorizedRouting:
    def _run_sharded(self, events, *, disable_vectorized):
        config = ClustererConfig(
            reservoir_capacity=120, seed=7, kernel="numpy", strict=False
        )
        sharded = ShardedClusterer(config, 4)
        if disable_vectorized:
            sharded._route_vectorized = lambda events: False
        for start in range(0, len(events), 512):
            sharded.apply_many(events[start : start + 512])
        return sharded

    def test_sharded_routing_matches_scalar_loop(self):
        events = _mixed_events(4000, 400, seed=5)
        fast = self._run_sharded(events, disable_vectorized=False)
        slow = self._run_sharded(events, disable_vectorized=True)
        assert fast.shard_events == slow.shard_events
        assert fast.snapshot() == slow.snapshot()
        fast_states = fast.get_state()["shards"]
        slow_states = slow.get_state()["shards"]
        assert pickle.dumps(fast_states) == pickle.dumps(slow_states)

    def test_sharded_self_loop_raises_like_scalar(self):
        events = [(ADD, 1, 2), (ADD, 5, 5)]
        outcomes = []
        for kernel in ("scalar", "numpy"):
            config = ClustererConfig(reservoir_capacity=50, seed=1, kernel=kernel)
            sharded = ShardedClusterer(config, 3)
            with pytest.raises(ValueError) as err:
                sharded.apply_many(events)
            outcomes.append((str(err.value), sharded.shard_events[:]))
        assert outcomes[0] == outcomes[1]

    def test_sharded_falls_back_on_barriers_and_odd_types(self):
        # Vertex barriers, bools, and huge ints must take the scalar
        # loop; routing (shard_events) must agree with a scalar-kernel
        # run, which shares the routing code for every event.
        events = _mixed_events(800, 100, seed=9)
        events.insert(200, (EventKind.ADD_VERTEX, 5000, None))
        events.insert(500, (ADD, True, 2**70))
        counts = []
        for kernel in ("scalar", "numpy"):
            config = ClustererConfig(
                reservoir_capacity=60, seed=3, kernel=kernel, strict=False
            )
            sharded = ShardedClusterer(config, 4)
            sharded.apply_many(events)
            counts.append(sharded.shard_events[:])
        assert counts[0] == counts[1]

    def test_pipeline_routing_matches_scalar_loop(self):
        from repro.core.pipeline import PipelineClusterer

        events = _mixed_events(1500, 200, seed=13)
        config = ClustererConfig(
            reservoir_capacity=90, seed=9, kernel="numpy", strict=False
        )
        results = []
        for disable in (False, True):
            pipeline = PipelineClusterer(config, 3, batch_events=256)
            if disable:
                pipeline._route_vectorized = lambda events: False
            try:
                for start in range(0, len(events), 256):
                    pipeline.apply_many(events[start : start + 256])
                results.append(
                    (pipeline.shard_events[:], pipeline.snapshot())
                )
            finally:
                pipeline.close()
        assert results[0] == results[1]


# ----------------------------------------------------------------------
# Scalar / numpy equivalence under an injected RNG
# ----------------------------------------------------------------------
def _det_draw(bound):
    """A deterministic 'draw' in [0, bound): pure function of the bound."""
    mixed = (bound ^ (bound >> 7)) * 2654435761 & 0xFFFFFFFFFFFFFFFF
    return mixed % bound if bound > 1 else 0


class _InjectedRandom:
    """Stands in for the scalar reservoir's Mersenne Twister."""

    def randrange(self, bound):
        return _det_draw(bound)


class _InjectedGenerator:
    """Stands in for the numpy reservoir's PCG64 Generator, answering
    the three call shapes ``insert_many``/``insert_fast`` use."""

    def integers(self, low, high=None, size=None):
        if high is None:
            return _det_draw(int(low))
        if size is not None:
            return np.full(size, _det_draw(int(high)), dtype=np.int64)
        bounds = np.asarray(high).tolist()
        return np.array([_det_draw(int(b)) for b in bounds], dtype=np.int64)


class TestInjectedRngEquivalence:
    def test_identical_partitions_capacity_one(self):
        # With every random decision forced to the same pure function of
        # its bound, the two kernels make identical admission choices.
        # Capacity 1 makes the victim choice trivial too (slot orders —
        # an internal artifact that differs between swap-remove-append
        # and in-place overwrite — cannot diverge), so the *entire*
        # sample history, and hence every partition, must coincide.
        events = _mixed_events(600, 80, seed=21, delete_rate=0.15)

        def run(kernel):
            # batch_fast_path off for the scalar run: the injected RNG
            # answers randrange(), which the per-event path draws from
            # (the batched path replays getrandbits bit-for-bit, an
            # equivalence tests/test_apply_many_property.py covers).
            config = ClustererConfig(
                reservoir_capacity=1,
                seed=17,
                kernel=kernel,
                strict=False,
                batch_fast_path=(kernel == "numpy"),
            )
            clusterer = StreamingGraphClusterer(config)
            if kernel == "numpy":
                clusterer._reservoir._gen = _InjectedGenerator()
            else:
                clusterer._reservoir._rng = _InjectedRandom()
            samples = []
            for start in range(0, len(events), 128):
                clusterer.apply_many(events[start : start + 128])
                samples.append(sorted(clusterer.reservoir_edges()))
            return clusterer, samples

        scalar, scalar_samples = run("scalar")
        vectorized, numpy_samples = run("numpy")
        assert scalar_samples == numpy_samples
        assert scalar.snapshot() == vectorized.snapshot()

    def test_identical_admission_decisions(self):
        # At full capacity the two reservoirs must *admit* the same
        # stream positions under the injected draws. Evicted keys are
        # excluded on purpose: a victim draw picks a slot index, and
        # slot order is internal state the two implementations arrange
        # differently (uniform either way; the chi-square test below
        # covers the resulting distribution).
        keys = [np.uint64((u << 32) | (u + 1000)) for u in range(500)]

        scalar = PackedEdgeReservoir(40, seed=3)
        scalar._rng = _InjectedRandom()
        from repro.sampling.random_pairing import NOT_ADMITTED

        scalar_admitted = [
            i
            for i, key in enumerate(keys)
            if scalar.insert_fast(int(key)) is not NOT_ADMITTED
        ]

        vectorized = NumpyPackedEdgeReservoir(40, seed=3)
        vectorized._gen = _InjectedGenerator()
        admitted, _evicted = vectorized.insert_many(np.array(keys))
        position_of = {int(key): i for i, key in enumerate(keys)}
        numpy_admitted = sorted(position_of[key] for key in admitted)
        assert scalar_admitted == numpy_admitted


# ----------------------------------------------------------------------
# Distribution equivalence (chi-square) under real RNGs
# ----------------------------------------------------------------------
def _chi2_critical(dof, z=3.09):
    """Wilson-Hilferty upper quantile (z=3.09 ~ the 0.999 point)."""
    term = 2.0 / (9.0 * dof)
    return dof * (1.0 - term + z * math.sqrt(term)) ** 3


class TestDistributionEquivalence:
    def test_inclusion_chi_square(self):
        # 40 distinct edges, capacity 10: every edge should be sampled
        # with probability 1/4 by both kernels. Homogeneity chi-square
        # between the kernels' inclusion counts, plus goodness-of-fit
        # for the numpy kernel alone, both at the 0.999 point — loose
        # enough to be stable, tight enough to catch a biased batch
        # draw (e.g. an off-by-one in the steady-state populations).
        edges = [(i, i + 100) for i in range(40)]
        events = [(ADD, u, v) for u, v in edges]
        runs = 200
        counts = {"scalar": dict.fromkeys(edges, 0), "numpy": dict.fromkeys(edges, 0)}
        for kernel in ("scalar", "numpy"):
            for seed in range(runs):
                config = ClustererConfig(
                    reservoir_capacity=10, seed=seed, kernel=kernel
                )
                clusterer = StreamingGraphClusterer(config)
                clusterer.apply_many(events)
                sampled = clusterer.reservoir_edges()
                assert len(sampled) == 10
                for edge in sampled:
                    counts[kernel][edge] += 1

        expected = runs * 10 / 40
        gof = sum(
            (count - expected) ** 2 / expected
            for count in counts["numpy"].values()
        )
        assert gof < _chi2_critical(len(edges) - 1), (
            f"numpy inclusion counts non-uniform: chi2={gof:.1f}"
        )

        homogeneity = 0.0
        for edge in edges:
            a, b = counts["scalar"][edge], counts["numpy"][edge]
            column = a + b
            # Row totals are equal (runs * capacity each), so the
            # expected cell count is simply column/2.
            expect = column / 2
            if expect:
                homogeneity += (a - expect) ** 2 / expect
                homogeneity += (b - expect) ** 2 / expect
        assert homogeneity < _chi2_critical(len(edges) - 1), (
            f"scalar/numpy inclusion counts differ: chi2={homogeneity:.1f}"
        )


# ----------------------------------------------------------------------
# Determinism and persistence
# ----------------------------------------------------------------------
class TestNumpyPersistence:
    def _config(self, **overrides):
        settings = dict(
            reservoir_capacity=100, seed=23, kernel="numpy", strict=False
        )
        settings.update(overrides)
        return ClustererConfig(**settings)

    def test_two_runs_identical(self):
        events = _mixed_events(3000, 300, seed=29)

        def run():
            clusterer = StreamingGraphClusterer(self._config())
            for start in range(0, len(events), 512):
                clusterer.apply_many(events[start : start + 512])
            return clusterer

        first, second = run(), run()
        assert first.snapshot() == second.snapshot()
        assert pickle.dumps(first.get_state()) == pickle.dumps(second.get_state())

    def test_mid_stream_checkpoint_resume_byte_identical(self, tmp_path):
        from repro.persist.checkpoint import load_checkpoint, save_checkpoint

        events = _mixed_events(3000, 300, seed=31)
        straight = StreamingGraphClusterer(self._config())
        for start in range(0, len(events), 512):
            straight.apply_many(events[start : start + 512])

        resumed = StreamingGraphClusterer(self._config())
        for start in range(0, 1536, 512):
            resumed.apply_many(events[start : start + 512])
        path = tmp_path / "mid.ckpt"
        save_checkpoint(resumed, path, position=1536)
        checkpoint = load_checkpoint(path)
        assert checkpoint.position == 1536
        restored = checkpoint.clusterer
        assert isinstance(restored._reservoir, NumpyPackedEdgeReservoir)
        for start in range(1536, len(events), 512):
            restored.apply_many(events[start : start + 512])

        assert restored.snapshot() == straight.snapshot()
        assert pickle.dumps(restored.get_state()) == pickle.dumps(
            straight.get_state()
        )

    def test_checkpoint_file_roundtrip_byte_identical(self, tmp_path):
        from repro.persist.checkpoint import load_checkpoint, save_checkpoint

        events = _mixed_events(1500, 200, seed=37)
        clusterer = StreamingGraphClusterer(self._config())
        clusterer.apply_many(events)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(clusterer, first, position=len(events))
        restored = load_checkpoint(first).clusterer
        save_checkpoint(restored, second, position=len(events))
        assert first.read_bytes() == second.read_bytes()

    def test_scalar_state_refused_by_numpy_reservoir(self):
        scalar = PackedEdgeReservoir(8, seed=1)
        for key in range(20):
            scalar.insert_fast(key)
        with pytest.raises(ValueError, match="np_rng_state"):
            NumpyPackedEdgeReservoir.from_state(scalar.get_state())


# ----------------------------------------------------------------------
# from_state id-range validation (interner table bound)
# ----------------------------------------------------------------------
class TestFromStateIdLimit:
    def _state_with_keys(self, keys, capacity=8):
        reservoir = PackedEdgeReservoir(capacity, seed=5)
        for key in keys:
            reservoir.insert_fast(key)
        return reservoir.get_state()

    def test_accepts_in_range(self):
        keys = [(1 << 32) | 2, (3 << 32) | 4]
        state = self._state_with_keys(keys)
        restored = PackedEdgeReservoir.from_state(state, id_limit=5)
        assert sorted(restored) == sorted(keys)

    def test_rejects_endpoint_beyond_interner(self):
        state = self._state_with_keys([(1 << 32) | 7])
        with pytest.raises(ValueError, match="intern table"):
            PackedEdgeReservoir.from_state(state, id_limit=7)

    def test_numpy_subclass_inherits_validation(self):
        reservoir = NumpyPackedEdgeReservoir(8, seed=5)
        reservoir.insert_fast((9 << 32) | 1)
        with pytest.raises(ValueError, match="intern table"):
            NumpyPackedEdgeReservoir.from_state(
                reservoir.get_state(), id_limit=9
            )
