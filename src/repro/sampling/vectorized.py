"""Vectorized (numpy) primitives for the packed-int sampling hot path.

PR 5 put the reservoir into an ``array('Q')`` of packed ``(u32, u32)``
edge keys — a numpy-shaped representation that was still driven one
event at a time. This module supplies the array-at-a-time pieces the
``--kernel numpy`` batch kernel (:mod:`repro.core.batchkernel`) is built
from:

* :class:`NumpyPackedEdgeReservoir` — a :class:`PackedEdgeReservoir`
  whose random draws come from a ``numpy.random.Generator`` (PCG64) so
  that :meth:`~NumpyPackedEdgeReservoir.insert_many` can draw a whole
  batch of admission and eviction decisions in two vectorized calls.
* :func:`shard_ids` — splitmix64 shard routing over id arrays,
  bit-for-bit equal to ``repro.core.sharded._shard_of`` for int
  vertices (property-tested).
* :func:`component_roots` — connected components of a packed-key edge
  array as one root id per vertex id, by hooking and pointer jumping.
  The clusterer's cluster extraction and queries read it, and
  :func:`edge_components` (batch-granular merge/split statistics) is
  built on it.

Determinism contract
--------------------
The scalar kernel replays the Mersenne-Twister stream draw for draw, so
any batch split of a stream is *bit-identical* to per-event processing.
The numpy kernel deliberately trades that for throughput: a batched
``integers(0, pops)`` call consumes the PCG64 bitstream differently
than the same decisions drawn one at a time, so two numpy runs agree
bit-for-bit only when fed the same stream in the same batch sizes
(which the CLI and checkpoint resume guarantee), and agree with the
scalar kernel *in distribution* (chi-square-tested in
``tests/test_vectorized.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sampling.random_pairing import PackedEdgeReservoir

__all__ = [
    "NumpyPackedEdgeReservoir",
    "component_roots",
    "edge_components",
    "shard_ids",
]

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# splitmix64 constants, shared with repro.core.sharded._combine_keys.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def shard_ids(key_u: np.ndarray, key_v: np.ndarray, num_shards: int) -> np.ndarray:
    """Vectorized ``sharded._shard_of`` for integer vertex keys.

    ``key_u``/``key_v`` are the *canonical-order* endpoint keys (ints
    key as themselves, exactly like ``_stable_vertex_key``); values are
    taken mod 2**64, which is what the scalar code's ``& _MASK64``
    does. Bit-for-bit equality with the scalar routing is asserted by
    ``tests/test_vectorized.py::test_shard_ids_matches_scalar``.
    """
    with np.errstate(over="ignore"):
        ku = np.asarray(key_u, dtype=np.int64).view(np.uint64)
        kv = np.asarray(key_v, dtype=np.int64).view(np.uint64)
        x = ku * _SM64_GAMMA + kv * _SM64_MIX1
        x = (x ^ (x >> np.uint64(30))) * _SM64_MIX1
        x = (x ^ (x >> np.uint64(27))) * _SM64_MIX2
        x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(num_shards)).astype(np.int64)


def component_roots(num_ids: int, packed_keys: np.ndarray) -> np.ndarray:
    """Component root of every vertex id ``0..num_ids-1`` under an edge set.

    ``packed_keys`` holds ``(u << 32) | v`` edge keys with both ids below
    ``num_ids``. Returns an int64 array whose entry ``i`` is the smallest
    id in ``i``'s connected component, so ids without an edge are their
    own roots and two ids share a component iff their roots are equal.

    Each round hooks the larger root of every edge that still crosses
    two trees onto the smaller one (``np.minimum.at``), then pointer
    jumping flattens the touched ids onto their roots. Parents only
    ever decrease, so the forest stays acyclic, and the minimum id of
    a component is never hooked, which makes the result independent of
    edge order. Edges whose endpoints already share a root drop out of
    later rounds.
    """
    roots = np.arange(num_ids, dtype=np.int64)
    if packed_keys.size == 0:
        return roots
    u = (packed_keys >> _SHIFT32).astype(np.int64)
    v = (packed_keys & _MASK32).astype(np.int64)
    touched = np.zeros(num_ids, dtype=bool)
    touched[u] = True
    touched[v] = True
    ids = np.flatnonzero(touched)
    while True:
        ru = roots[u]
        rv = roots[v]
        crossing = ru != rv
        if not crossing.any():
            return roots
        u = u[crossing]
        v = v[crossing]
        ru = ru[crossing]
        rv = rv[crossing]
        np.minimum.at(roots, np.maximum(ru, rv), np.minimum(ru, rv))
        parents = roots[ids]
        while True:
            grand = roots[parents]
            if np.array_equal(grand, parents):
                break
            roots[ids] = parents = grand


def edge_components(
    keys: np.ndarray,
) -> Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]:
    """Connected components of a packed-key edge set.

    Returns ``(num_components, vertices, labels)`` where ``vertices``
    is the sorted array of distinct endpoint ids and ``labels[i]`` is a
    component label for ``vertices[i]`` (the minimum compressed index
    reachable — stable for a given edge set). Empty input returns
    ``(0, None, None)``.

    :func:`component_roots` over the compressed indices.
    """
    if keys.size == 0:
        return 0, None, None
    endpoints = np.empty(keys.size * 2, dtype=np.uint64)
    endpoints[0::2] = keys >> _SHIFT32
    endpoints[1::2] = keys & _MASK32
    vertices, inverse = np.unique(endpoints, return_inverse=True)
    compressed = inverse.astype(np.uint64)
    labels = component_roots(
        vertices.size, (compressed[0::2] << _SHIFT32) | compressed[1::2]
    )
    num_components = int(np.count_nonzero(labels == np.arange(vertices.size)))
    return num_components, vertices, labels


class NumpyPackedEdgeReservoir(PackedEdgeReservoir):
    """Packed-edge random-pairing reservoir driven by a PCG64 generator.

    Storage, counters, and the random-pairing *logic* are exactly the
    base class's; every random draw instead comes from
    ``numpy.random.Generator`` so :meth:`insert_many` can vectorize the
    steady-state Algorithm R accept/evict decisions for a whole run of
    insertions. The per-item methods (``propose_insert``,
    ``insert_fast``) draw scalars from the *same* generator, so batched
    and per-event processing interleave on one coherent bitstream.

    ``get_state`` additionally records the PCG64 bitstream state under
    ``"np_rng_state"``; the inherited MT state is carried along unused
    so a state dict stays loadable by the scalar class.
    """

    __slots__ = ("_gen",)

    def __init__(self, capacity: int, seed: int | None = 0) -> None:
        super().__init__(capacity, seed=seed)
        self._gen = np.random.default_rng(seed)

    # -- scalar fallback draws (per-event path between batches) --------
    def propose_insert(self, item):  # type: ignore[override]
        from repro.sampling.random_pairing import InsertProposal

        self._population += 1
        pending = self._c_bad + self._c_good
        if pending > 0:
            if int(self._gen.integers(pending)) < self._c_bad:
                self._c_bad -= 1
                return InsertProposal(item, admit=True)
            self._c_good -= 1
            return InsertProposal(item, admit=False)
        if len(self._slots) < self._capacity:
            return InsertProposal(item, admit=True)
        if int(self._gen.integers(self._population)) < self._capacity:
            evicted = self._slots[int(self._gen.integers(len(self._slots)))]
            return InsertProposal(item, admit=True, evicted=evicted)
        return InsertProposal(item, admit=False)

    def insert_fast(self, item):  # type: ignore[override]
        from repro.sampling.random_pairing import NOT_ADMITTED

        self._population += 1
        pending = self._c_bad + self._c_good
        gen = self._gen
        if pending > 0:
            if int(gen.integers(pending)) < self._c_bad:
                self._c_bad -= 1
                self._add(item)
                return None
            self._c_good -= 1
            return NOT_ADMITTED
        slots = self._slots
        size = len(slots)
        if size < self._capacity:
            self._add(item)
            return None
        if int(gen.integers(self._population)) < self._capacity:
            evicted = slots[int(gen.integers(size))]
            self._discard(evicted)
            self._add(item)
            return evicted
        return NOT_ADMITTED

    # -- vectorized batch insertion ------------------------------------
    def insert_many(
        self,
        keys: np.ndarray,
        admitted: Optional[list] = None,
        evicted: Optional[list] = None,
    ) -> Tuple[list, list]:
        """Account for a run of insertions; returns (admitted, evicted).

        ``keys`` is a uint64 array of packed edge keys, in stream
        order. The random-pairing phases are walked exactly as the
        scalar code would — pairing drains pending deletions item by
        item, free slots fill, and only the steady-state stretch (the
        hot case: an insert-heavy stream with a full reservoir) draws
        its accept/reject and victim decisions as whole arrays.

        Results are appended to the ``admitted``/``evicted`` lists (or
        fresh ones) as plain ints, so a caller that passes its own
        lists still sees the partial outcome if a duplicate sample key
        raises mid-run (mirroring the scalar loop's finally-block
        settlement). An admitted key that is itself evicted later in
        the same run appears in both; the caller's net-diff reduction
        cancels the pair.
        """
        gen = self._gen
        capacity = self._capacity
        slots = self._slots
        slot_of = self._slot_of
        n = int(keys.size)
        if admitted is None:
            admitted = []
        if evicted is None:
            evicted = []
        i = 0
        # Phase 1: pairing — drain uncompensated deletions one draw at a
        # time (rare after a deletion burst; bounded by pending count).
        while i < n and (self._c_bad + self._c_good) > 0:
            self._population += 1
            key = int(keys[i])
            if int(gen.integers(self._c_bad + self._c_good)) < self._c_bad:
                self._c_bad -= 1
                self._add(key)
                admitted.append(key)
            else:
                self._c_good -= 1
            i += 1
        # Phase 2: free slots fill unconditionally.
        while i < n and len(slots) < capacity:
            self._population += 1
            key = int(keys[i])
            self._add(key)
            admitted.append(key)
            i += 1
        # Phase 3: steady state — vectorized Algorithm R. The k-th
        # remaining insert sees population p+k+1; accept with prob
        # capacity/(p+k+1), exactly the scalar acceptance probability.
        m = n - i
        if m > 0:
            pops = self._population + 1 + np.arange(m, dtype=np.int64)
            self._population += m
            draws = gen.integers(0, pops)
            accepted = np.nonzero(draws < capacity)[0]
            if accepted.size:
                victims = gen.integers(0, capacity, size=accepted.size)
                slot_view = np.frombuffer(slots, dtype=np.uint64)
                keys_tail = keys[i:]
                for pos, victim in zip(accepted.tolist(), victims.tolist()):
                    key = int(keys_tail[pos])
                    old = int(slot_view[victim])
                    # Overwrite the victim's slot in place. The scalar
                    # code swap-removes then appends; overwrite reaches
                    # the same uniform victim choice with one move (slot
                    # order is an internal detail that round-trips via
                    # get_state either way).
                    if key in slot_of:
                        raise ValueError(f"duplicate sample item {key!r}")
                    del slot_of[old]
                    slot_view[victim] = key
                    slot_of[key] = victim
                    evicted.append(old)
                    admitted.append(key)
        return admitted, evicted

    # -- persistence ---------------------------------------------------
    def get_state(self) -> dict:
        state = super().get_state()
        state["np_rng_state"] = self._gen.bit_generator.state
        return state

    @classmethod
    def from_state(cls, state: dict, *, id_limit: int | None = None):
        if "np_rng_state" not in state:
            raise ValueError(
                "corrupt sampler state: missing np_rng_state (this "
                "checkpoint was not written by the numpy kernel)"
            )
        sampler = super().from_state(state, id_limit=id_limit)
        sampler._gen.bit_generator.state = state["np_rng_state"]
        return sampler
