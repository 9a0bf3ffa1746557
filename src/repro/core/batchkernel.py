"""Array-at-a-time batch kernel (``--kernel numpy``).

The scalar batch loop in :meth:`StreamingGraphClusterer._apply_edge_batch`
already defers connectivity, but still canonicalizes, interns, packs,
and draws every reservoir decision one event at a time in Python.
:class:`NumpyBatchKernel` replaces that per-event work for maximal runs
of ``ADD_EDGE`` events with whole-array phases:

1. **Intern** — labels are canonicalized with ``np.minimum/maximum``
   and deduplicated with ``np.unique``; the interner's dict is touched
   once per batch-unique label, in exactly the scalar path's
   first-touch order (lo-then-hi per event, event order), so both
   kernels build the identical label table for the same stream.
2. **Graph + duplicate filter** — the tracked adjacency is updated in a
   tight Python loop (dict-of-dict updates do not vectorize); duplicate
   adds are dropped (or raise under ``strict``) with the scalar path's
   exact error and partial-batch semantics.
3. **Register** — endpoints not yet known to connectivity are found by
   one boolean gather against a registration bitmap and appended to the
   deferred first-touch registration list.
4. **Pack + sample** — ``(min_id << 32) | max_id`` keys feed
   :meth:`NumpyPackedEdgeReservoir.insert_many`, which draws the whole
   steady-state accept/evict run from a PCG64 generator in two
   vectorized calls.
5. **Net diff** — admissions and evictions fold into the existing
   deferred-connectivity diff (``_conn_diff``); the live structure is
   only reconciled when something actually needs it, exactly as on the
   scalar batch path.

Statistics granularity
----------------------
The scalar kernel resolves every merge/split exactly (incremental
labels + budgeted BFS probes). Per-admission component maintenance is
the dominant cost of that loop, and the partition itself never depends
on it — clusters are extracted from the reservoir directly. The numpy
kernel therefore reports ``component_merges``/``component_splits`` as
**interval-granular estimates**: pending batches are settled lazily (on
stats access, metrics sync, checkpoint, or any per-event fallback) by
three :func:`~repro.sampling.vectorized.edge_components` passes over the
sampled edge set (before / before+admitted / after). Merges are exact for the interval
treated as one bulk update; splits are a lower bound (a component that
splits and re-merges within one interval is not observed). This mirrors
the documented conservative statistics of the lazy backend. All other
counters (events, admissions, evictions, malformed, ...) are exact.

Error-path caveat: on a strict-mode :class:`StreamError` the kernel has
already interned labels from later events in the same run (interning is
phase 1, validation phase 2). Ids are internal, and a run aborted by a
stream error is corrupt input anyway; partitions and equivalence are
unaffected.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import StreamError
from repro.sampling.vectorized import edge_components
from repro.streams.events import EdgeEvent, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.clusterer import StreamingGraphClusterer

__all__ = ["NumpyBatchKernel"]

_MASK32 = 0xFFFFFFFF
_U32 = np.uint64(32)

_GET_KIND = itemgetter(0)
_GET_U = itemgetter(1)
_GET_V = itemgetter(2)


class NumpyBatchKernel:
    """Vectorized ADD_EDGE executor bound to one clusterer.

    Everything it touches is the clusterer's own state — reservoir,
    interner, tracked graph, deferred-connectivity bookkeeping — so
    per-event processing (deletions, vertex events, ``apply``) can
    interleave freely: :meth:`sync` reconciles the two lazily-maintained
    pieces (sample adjacency, pending merge/split estimates) before any
    scalar code that needs them runs.
    """

    __slots__ = (
        "_c",
        "_registered",
        "_reg_epoch",
        "_label_map",
        "adj_stale",
        "stats_pending",
        "_pending_before",
        "_pending_admitted",
    )

    #: Dense label→id cache ceiling: int labels in [0, 2**22) gather their
    #: ids straight out of a numpy array instead of the interner's dict
    #: (≤32 MiB of int64 at full size, grown geometrically on demand).
    _LABEL_MAP_LIMIT = 1 << 22

    def __init__(self, clusterer: "StreamingGraphClusterer") -> None:
        self._c = clusterer
        self._registered = np.zeros(256, dtype=bool)
        self._reg_epoch = -1  # force a rebuild on first use
        self._label_map = np.full(256, -1, dtype=np.int64)
        self.adj_stale = False
        self.stats_pending = False
        self._pending_before: Optional[np.ndarray] = None
        self._pending_admitted: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # Reconciliation with the per-event path
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Bring lazily-maintained state current (cheap when it already is)."""
        if self.stats_pending:
            self.settle_stats()
        if self.adj_stale:
            self._rebuild_sample_adj()

    def settle_stats(self) -> None:
        """Fold pending batches into ``component_merges``/``component_splits``.

        One settlement covers every kernel run since the last one; see
        the module docstring for the estimate's semantics.
        """
        if not self.stats_pending:
            return
        self.stats_pending = False
        before = self._pending_before
        admitted_runs = self._pending_admitted
        self._pending_before = None
        self._pending_admitted = []
        admitted = (
            np.concatenate(admitted_runs)
            if admitted_runs
            else np.empty(0, dtype=np.uint64)
        )
        stats = self._c._stats
        if admitted.size == 0:
            # No admissions: nothing merged, and nothing left the sample
            # (evictions only happen on admission; deletions run on the
            # per-event path, which settles first).
            return
        assert before is not None
        c_before, verts_before, _ = edge_components(before)
        mid = np.concatenate([before, admitted])
        c_mid, verts_mid, labels_mid = edge_components(mid)
        n_vb = 0 if verts_before is None else verts_before.size
        merges = c_before + (verts_mid.size - n_vb) - c_mid
        if merges > 0:
            stats.component_merges += int(merges)
        after = np.frombuffer(self._c._reservoir._slots, dtype=np.uint64)
        c_after, verts_after, _ = edge_components(after)
        if c_after:
            # Every edge in `after` is in `mid`, so its endpoints are too.
            pos = np.searchsorted(verts_mid, verts_after)
            survivors = int(np.unique(labels_mid[pos]).size)
            splits = c_after - survivors
            if splits > 0:
                stats.component_splits += splits

    def _rebuild_sample_adj(self) -> None:
        """Rebuild ``_sample_adj`` from the reservoir slots (O(sample))."""
        self.adj_stale = False
        c = self._c
        adj = c._sample_adj
        adj.clear()
        for key in c._reservoir._slots:
            ku = key >> 32
            kv = key & _MASK32
            adj.setdefault(ku, set()).add(kv)
            adj.setdefault(kv, set()).add(ku)
        c._comp_dirty = True

    def _registration_bitmap(self) -> np.ndarray:
        """Bitmap of ids registered with connectivity, epoch-validated."""
        c = self._c
        size = max(256, len(c._intern) + 1024)
        if self._reg_epoch != c._conn_epoch:
            self._reg_epoch = c._conn_epoch
            self._registered = np.zeros(size, dtype=bool)
            if c._conn_ids:
                self._registered[np.fromiter(c._conn_ids, dtype=np.int64)] = True
        elif self._registered.size < len(c._intern):
            grown = np.zeros(size, dtype=bool)
            grown[: self._registered.size] = self._registered
            self._registered = grown
        return self._registered

    # ------------------------------------------------------------------
    # Stream entry points
    # ------------------------------------------------------------------
    def apply_stream(self, events: Iterable) -> None:
        """Apply a mixed batch: vectorize ADD_EDGE runs, fall back per
        event for everything else (deletions, vertex events)."""
        c = self._c
        add_edge = EventKind.ADD_EDGE
        if type(events) is not list:
            events = list(events)
        # Fast path for the dominant shape: a batch of raw tuples that is
        # ADD_EDGE throughout. itemgetter gathers columns at C speed
        # (cheaper than a zip(*...) transpose); list.count compares
        # identity-first, so checking "all ADD_EDGE" never routes through
        # Enum.__hash__. EdgeEvent objects are not subscriptable, so a
        # mixed batch falls through to the segmenting loop below.
        if events and type(events[0]) is tuple:
            try:
                kinds = list(map(_GET_KIND, events))
            except TypeError:
                kinds = None
            if kinds is not None and kinds.count(add_edge) == len(kinds):
                self.run_add(list(map(_GET_U, events)), list(map(_GET_V, events)))
                return
        run_u: list = []
        run_v: list = []
        for event in events:
            if type(event) is tuple:
                kind, u, v = event
                obj = None
            else:
                kind, u, v = event.kind, event.u, event.v
                obj = event
            if kind is add_edge:
                run_u.append(u)
                run_v.append(v)
                continue
            if run_u:
                self.run_add(run_u, run_v)
                run_u = []
                run_v = []
            c.kernel_fallback_events += 1
            c.apply(obj if obj is not None else EdgeEvent(kind, u, v))
        if run_u:
            self.run_add(run_u, run_v)

    def apply_columns(self, kinds, us, vs) -> None:
        """Column-form entry (``EventColumns``); ``kinds`` may be None
        when every event is an ADD_EDGE. Columns arrive as lists from
        the stream readers or as int64 arrays off the columnar wire
        decode — array columns skip the per-label type gate entirely."""
        if kinds is None:
            if isinstance(us, np.ndarray):
                self.run_add_arrays(us, vs)
            elif us:
                self.run_add(us, vs)
            return
        if type(us) is not list:
            us = us.tolist()
        if type(vs) is not list:
            vs = vs.tolist()
        self.apply_stream(list(zip(kinds, us, vs)))

    def apply_interned(self, events: Iterable[Tuple[EventKind, int, int]]) -> None:
        """Pre-interned ``(kind, uid, vid)`` edge tuples (pipeline workers)."""
        c = self._c
        add_edge = EventKind.ADD_EDGE
        label_of = c._intern.label_of
        run_u: list = []
        run_v: list = []
        for kind, uid, vid in events:
            if kind is add_edge:
                run_u.append(uid)
                run_v.append(vid)
                continue
            if run_u:
                self._run(
                    np.asarray(run_u, dtype=np.int64),
                    np.asarray(run_v, dtype=np.int64),
                )
                run_u = []
                run_v = []
            c.apply(EdgeEvent(kind, label_of(uid), label_of(vid)))
        if run_u:
            self._run(
                np.asarray(run_u, dtype=np.int64),
                np.asarray(run_v, dtype=np.int64),
            )

    # ------------------------------------------------------------------
    # ADD_EDGE runs
    # ------------------------------------------------------------------
    def run_add(self, us: list, vs: list) -> None:
        """Intern a run of label pairs and execute it.

        The int fast path requires every label to be exactly ``int``
        (bools are excluded, like the routing layers, because ``True``
        and ``1`` are distinct labels to a dict but not to an array);
        anything else falls back to per-event interning with identical
        semantics.
        """
        if set(map(type, us)) == {int} == set(map(type, vs)):
            try:
                au = np.asarray(us, dtype=np.int64)
                av = np.asarray(vs, dtype=np.int64)
            except OverflowError:
                self._run_add_generic(us, vs)
                return
            pending_error: Optional[BaseException] = None
            loops = au == av
            if loops.any():
                p = int(np.argmax(loops))
                pending_error = ValueError(
                    f"self-loop edges are not allowed: ({us[p]!r}, {vs[p]!r})"
                )
                au = au[:p]
                av = av[:p]
            if au.size:
                lo, hi = self._intern_int_pairs(au, av)
                self._run(lo, hi)
            if pending_error is not None:
                raise pending_error
        else:
            self._run_add_generic(us, vs)

    def run_add_arrays(self, au, av) -> None:
        """Array-native ADD_EDGE run: endpoint columns already int64.

        The wire decode hands label columns straight from the frame's
        gather — no per-label type gate, no list round-trip. Semantics
        match :meth:`run_add` exactly, including the truncate-at-first-
        self-loop error contract.
        """
        au = np.asarray(au, dtype=np.int64)
        av = np.asarray(av, dtype=np.int64)
        if not au.size:
            return
        pending_error: Optional[BaseException] = None
        loops = au == av
        if loops.any():
            p = int(np.argmax(loops))
            pending_error = ValueError(
                f"self-loop edges are not allowed: "
                f"({int(au[p])!r}, {int(av[p])!r})"
            )
            au = au[:p]
            av = av[:p]
        if au.size:
            lo, hi = self._intern_int_pairs(au, av)
            self._run(lo, hi)
        if pending_error is not None:
            raise pending_error

    def _intern_int_pairs(
        self, au: np.ndarray, av: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk label→id interning for int labels, first-touch ordered.

        Labels in ``[0, _LABEL_MAP_LIMIT)`` resolve through a dense numpy
        label→id cache — one gather for a fully warmed-up batch, a small
        first-touch-ordered intern loop for the stragglers. The cache is
        only ever *missing* an entry, never wrong: labels interned by the
        scalar path leave a ``-1`` that falls through to the interner's
        get-or-add. Out-of-range labels take the per-unique dict path.
        """
        intern = self._c._intern
        flat = np.empty(au.size * 2, dtype=np.int64)
        flat[0::2] = np.minimum(au, av)
        flat[1::2] = np.maximum(au, av)
        mn = int(flat.min())
        mx = int(flat.max())
        if 0 <= mn and mx < self._LABEL_MAP_LIMIT:
            lmap = self._label_map
            if lmap.size <= mx:
                size = lmap.size
                while size <= mx:
                    size *= 2
                grown = np.full(min(size, self._LABEL_MAP_LIMIT), -1, np.int64)
                grown[: lmap.size] = lmap
                self._label_map = lmap = grown
            ids_flat = lmap[flat]
            unknown = ids_flat < 0
            if unknown.any():
                # Assign new ids in the order the scalar loop would: by
                # the label's first appearance in the lo/hi-interleaved
                # stream (np.unique's return_index preserves that order
                # within the unknown subset).
                fresh, first_idx = np.unique(flat[unknown], return_index=True)
                order = np.argsort(first_idx, kind="stable")
                iadd = intern.intern
                for label in fresh[order].tolist():
                    lmap[label] = iadd(label)
                ids_flat[unknown] = lmap[flat[unknown]]
            return ids_flat[0::2], ids_flat[1::2]
        ids_map = intern._ids
        uniq, first_idx, inverse = np.unique(
            flat, return_index=True, return_inverse=True
        )
        uniq_ids = np.empty(uniq.size, dtype=np.int64)
        missing: list = []
        for pos, label in enumerate(uniq.tolist()):
            vid = ids_map.get(label)
            if vid is None:
                missing.append(pos)
            else:
                uniq_ids[pos] = vid
        if missing:
            # Same first-appearance ordering as above.
            iadd = intern.intern
            missing.sort(key=first_idx.__getitem__)
            labels = uniq.tolist()
            for pos in missing:
                uniq_ids[pos] = iadd(labels[pos])
        ids_flat = uniq_ids[inverse]
        return ids_flat[0::2], ids_flat[1::2]

    def _run_add_generic(self, us: list, vs: list) -> None:
        """Per-event interning fallback for non-int / mixed / big labels."""
        intern = self._c._intern
        iget = intern._ids.get
        iadd = intern.intern
        lo: List[int] = []
        hi: List[int] = []
        pending_error: Optional[BaseException] = None
        for u, v in zip(us, vs):
            if u == v:
                pending_error = ValueError(
                    f"self-loop edges are not allowed: ({u!r}, {v!r})"
                )
                break
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
            lo.append(uid)
            hi.append(vid)
        if lo:
            self._run(
                np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
            )
        if pending_error is not None:
            raise pending_error

    def _run(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Execute one run of interned, label-canonical id pairs."""
        c = self._c
        n = int(lo.size)
        if n == 0:
            return
        if not c._conn_stale:
            # Entering deferred mode: mirror the scalar batch loop's
            # snapshot of the lazy backend's dirty flag.
            c._lazy_dirty = bool(getattr(c._conn, "dirty", False))
        stats = c._stats
        pending_error: Optional[BaseException] = None
        n_malformed = 0
        # --- tracked graph + duplicate filter -------------------------
        if c._graph is not None:
            lo, hi, n_events, n_malformed, pending_error = self._graph_pass(lo, hi)
        else:
            n_events = n
        stats.events += n_events
        stats.edge_adds += n_events
        stats.malformed_events += n_malformed
        admitted: List[int] = []
        evicted: List[int] = []
        structural = False
        try:
            if lo.size:
                # --- deferred connectivity registration ---------------
                flat = np.empty(lo.size * 2, dtype=np.int64)
                flat[0::2] = lo
                flat[1::2] = hi
                registered = self._registration_bitmap()
                known = registered[flat]
                if not known.all():
                    new_flat = flat[~known]
                    uniq, first_idx = np.unique(new_flat, return_index=True)
                    order = np.argsort(first_idx, kind="stable")
                    fresh_ids = uniq[order]
                    conn_ids = c._conn_ids
                    fresh_append = c._conn_fresh.append
                    for vid in fresh_ids.tolist():
                        conn_ids.add(vid)
                        fresh_append(vid)
                    registered[fresh_ids] = True
                    structural = True
                # --- pack + vectorized reservoir admission ------------
                keys = (
                    np.minimum(lo, hi).astype(np.uint64) << _U32
                ) | np.maximum(lo, hi).astype(np.uint64)
                reservoir = c._reservoir
                if not self.stats_pending:
                    self._pending_before = np.frombuffer(
                        reservoir._slots, dtype=np.uint64
                    ).copy()
                reservoir.insert_many(keys, admitted=admitted, evicted=evicted)
        finally:
            if admitted:
                stats.admissions += len(admitted)
                structural = True
                self.adj_stale = True
                c._comp_dirty = True
                self.stats_pending = True
                self._pending_admitted.append(
                    np.asarray(admitted, dtype=np.uint64)
                )
            if evicted:
                stats.evictions += len(evicted)
            # --- net edge diff into deferred connectivity -------------
            diff = c._conn_diff
            diff_get = diff.get
            for key in admitted:
                delta = diff_get(key, 0) + 1
                if delta:
                    diff[key] = delta
                else:
                    del diff[key]
            for key in evicted:
                delta = diff_get(key, 0) - 1
                if delta:
                    diff[key] = delta
                else:
                    del diff[key]
            c._conn_stale = bool(diff) or bool(c._conn_fresh)
            if (
                not c._conn_stale
                and c._lazy_dirty
                and hasattr(c._conn, "mark_dirty")
            ):
                c._conn.mark_dirty()
            if structural:
                c._invalidate()
            c.kernel_batches += 1
            c.kernel_events += n_events
        if pending_error is not None:
            raise pending_error

    def _graph_pass(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int, int, Optional[BaseException]]:
        """Update the tracked adjacency; drop (or fail on) duplicates.

        Returns the possibly-filtered id arrays, the number of events
        actually consumed (a strict-mode error truncates the run to the
        scalar path's partial-batch semantics), the malformed count, and
        the pending StreamError (raised by the caller after the
        surviving prefix is fully applied).
        """
        c = self._c
        graph = c._graph
        gadj = graph._adj
        strict = c.config.strict
        g_vertices = g_edges = 0
        dropped: List[int] = []
        pending_error: Optional[BaseException] = None
        n_events = int(lo.size)
        # Grow the id-indexed adjacency once for the whole run; ids are
        # dense, so the largest endpoint bounds every access below.
        max_id = max(int(lo.max()), int(hi.max()))
        if max_id >= len(gadj):
            gadj.extend([None] * (max_id + 1 - len(gadj)))
        try:
            for i, (uid, vid) in enumerate(zip(lo.tolist(), hi.tolist())):
                nu = gadj[uid]
                if nu is None:
                    gadj[uid] = {vid: None}
                    g_vertices += 1
                elif vid in nu:
                    if strict:
                        label_of = c._intern.label_of
                        pending_error = StreamError(
                            f"duplicate ADD_EDGE "
                            f"({label_of(uid)!r}, {label_of(vid)!r})"
                        )
                        n_events = i + 1
                        dropped.append(i)
                        break
                    dropped.append(i)
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
        finally:
            graph._id_count += g_vertices
            graph._num_edges += g_edges
        if pending_error is not None:
            # Strict mode: the raising event is counted (the scalar loop
            # increments its counters before the duplicate check) but
            # not applied further, and later events are never consumed.
            return lo[: n_events - 1], hi[: n_events - 1], n_events, 0, pending_error
        if dropped:
            lo = np.delete(lo, dropped)
            hi = np.delete(hi, dropped)
        return lo, hi, n_events, len(dropped), None
