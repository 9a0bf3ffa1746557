"""Stream-order transforms.

The same final graph can arrive in many orders; these helpers build the
orders the experiments (and adversarial tests) need.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.streams.events import (
    Edge,
    EdgeEvent,
    EventColumns,
    EventKind,
    RawEvent,
    add_edge,
    delete_edge,
)
from repro.util.rng import child_seed, make_rng
from repro.util.validation import check_probability

__all__ = [
    "shuffled",
    "insert_order",
    "insert_only_ordered",
    "insert_only_stream",
    "insert_only_stream_raw",
    "insert_only_columns",
    "insert_delete_stream",
    "adversarial_bridge_first",
]


def shuffled(events: Sequence[EdgeEvent], seed: int = 0) -> List[EdgeEvent]:
    """A uniformly shuffled copy of ``events``."""
    result = list(events)
    make_rng(child_seed(seed, "shuffle")).shuffle(result)
    return result


def insert_order(n: int, seed: int) -> np.ndarray:
    """The insert order of ``n`` edges for ``seed``, as an index array.

    ``order[i]`` is the file position of the ``i``-th event every
    ``insert_only_*`` spelling emits. It is, bit for bit, the
    permutation ``make_rng(child_seed(seed, "insert_only")).shuffle``
    draws on ``list(range(n))`` — the order contract the checkpoints,
    served snapshots and benchmark labels depend on — computed with
    whole-array numpy phases instead of ``n`` Python-level swaps:

    1. :func:`_bounded_draws` replays the Mersenne Twister words the
       shuffle consumes and solves its rejection sampling per bit
       length;
    2. :func:`_apply_swaps` executes the resulting Fisher–Yates swaps in
       conflict-free rounds (Shun et al., "Sequential Random
       Permutation, List Contraction and Tree Contraction are Highly
       Parallel", SODA 2015).

    From ``n = 2**32`` on, ``random`` draws more than one 32-bit word
    per swap; such streams keep the stdlib shuffle.
    """
    rng = make_rng(child_seed(seed, "insert_only"))
    if n >= 1 << 32:
        order = list(range(n))
        rng.shuffle(order)
        return np.array(order, dtype=np.int64)
    if n < 2:
        return np.arange(n, dtype=np.int64)
    return _apply_swaps(_bounded_draws(rng, n))


def _bounded_draws(rng: random.Random, n: int) -> np.ndarray:
    """The ``randbelow(i + 1)`` results of ``rng.shuffle`` on ``n`` items.

    Entry ``t`` is the swap partner drawn for ``i = n - 1 - t``. The
    shuffle draws each one as ``getrandbits(k) = word >> (32 - k)``,
    ``k`` the bit length of the bound ``m = i + 1``, redrawing while
    the result is ``>= m``. Within one bit length (one *block*) word
    ``p`` then serves draw ``t(p) = p - d[p]``, ``d[p]`` being the
    rejections before it, and is rejected exactly when
    ``d[p] <= p + r[p] - top`` (``top`` the block's first bound). That
    causal recurrence is solved by iterating ``d = cumsum(rejected(d))``
    to its fixed point: every pass settles at least one more position,
    and in practice a pass halves the remaining error, so a block needs
    about ``k`` passes over its words.
    """
    words = np.random.MT19937()
    key = rng.getstate()[1]
    words.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(key[:624], dtype=np.uint32), "pos": key[624]},
    }
    draws = np.empty(n - 1, dtype=np.int64)
    pending = np.empty(0, dtype=np.int64)  # drawn, not yet consumed words
    done = 0
    top = n
    while top >= 2:
        k = top.bit_length()
        low = 1 << (k - 1)
        length = top - low + 1
        # Words per draw are geometric with mean 2**k / m: size the
        # window at the mean plus six standard deviations.
        per_draw = float(1 << k) / np.arange(low, top + 1, dtype=np.float64)
        window = int(per_draw.sum() + 6 * np.sqrt((per_draw * (per_draw - 1)).sum())) + 8
        while True:
            if pending.size < window:
                fresh = words.random_raw(window - pending.size).astype(np.int64)
                pending = np.concatenate((pending, fresh))
            solved = _solve_block(pending[:window], k, top, length)
            if solved is not None:
                break
            window *= 2
        accepted, used = solved
        draws[done : done + length] = accepted
        done += length
        pending = pending[used:]
        top = low - 1
    return draws


def _solve_block(words: np.ndarray, k: int, top: int, length: int):
    """The ``length`` accepted draws of one bit-length block and the
    number of words they consume, or ``None`` if ``words`` runs out."""
    r = words >> (32 - k)
    position = np.arange(r.size, dtype=np.int64)
    threshold = position + r - top
    d = np.zeros(r.size, dtype=np.int64)
    settled = 0  # d[: settled + 1] is final
    while True:
        rejected = d[settled:] <= threshold[settled:]
        following = np.cumsum(rejected)
        following += d[settled]
        changed = np.flatnonzero(following[:-1] != d[settled + 1 :])
        d[settled + 1 :] = following[:-1]
        if not changed.size:
            break
        settled += 1 + int(changed[0])
        if settled - d[settled] >= length:  # every draw already accepted
            break
    accepted = np.flatnonzero(d > threshold)[:length]
    if accepted.size < length:
        return None
    return r[accepted], int(accepted[-1]) + 1


def _apply_swaps(draws: np.ndarray) -> np.ndarray:
    """``range(n)`` after the Fisher–Yates swaps ``(i, draws[n-1-i])``
    for ``i = n - 1, ..., 1``, applied in that order.

    Each round every pending swap reserves its two positions; a
    position goes to the earliest pending swap (the largest ``i``) that
    touches it. Swaps holding both reservations commute with everything
    still pending, so they run together; the rest wait. About
    ``2 log2 n`` rounds clear the lot.
    """
    n = draws.size + 1
    order = np.arange(n, dtype=np.int64)
    i = np.arange(n - 1, 0, -1, dtype=np.int64)
    j = draws
    owner = np.full(n, -1, dtype=np.int64)
    while i.size:
        owner[i] = i
        np.maximum.at(owner, j, i)
        ready = (owner[i] == i) & (owner[j] == i)
        ri, rj = i[ready], j[ready]
        order[ri], order[rj] = order[rj], order[ri]
        owner[i] = -1
        owner[j] = -1
        waiting = ~ready
        i, j = i[waiting], j[waiting]
    return order


def insert_only_stream(edges: Iterable[Edge], seed: int | None = 0) -> List[EdgeEvent]:
    """ADD_EDGE events for ``edges``, in :func:`insert_order` when
    ``seed`` is not None."""
    return _in_insert_order([add_edge(u, v) for u, v in edges], seed)


def insert_only_stream_raw(
    edges: Iterable[Edge], seed: int | None = 0
) -> List[RawEvent]:
    """:func:`insert_only_stream` as raw ``(kind, u, v)`` tuples.

    Skips per-event :class:`EdgeEvent` construction for the batched
    ingestion fast path. Both variants take the same
    :func:`insert_order`, so they describe the *same* stream and drive
    the clusterer to the same state.
    """
    kind = EventKind.ADD_EDGE
    return _in_insert_order([(kind, u, v) for u, v in edges], seed)


def _in_insert_order(events: list, seed: int | None) -> list:
    if seed is None:
        return events
    return [events[i] for i in insert_order(len(events), seed).tolist()]


def insert_only_ordered(columns: EventColumns, seed: int | None = 0) -> EventColumns:
    """A whole edge list's columns (file order) in :func:`insert_order`.

    The columnar twin of :func:`insert_only_stream_raw`: the same
    stream, with no tuple built. ``repro cluster`` and ``repro send``
    feed its :meth:`~EventColumns.chunks` to ``apply_many`` and the
    frame encoder.
    """
    if seed is None:
        return columns
    return columns.take(insert_order(len(columns), seed))


def insert_only_columns(
    edges: Iterable[Edge], batch_size: int, seed: int | None = 0
) -> Iterator[EventColumns]:
    """:func:`insert_only_stream_raw` grouped into :class:`EventColumns`.

    Yields column batches with ``kinds=None`` (the stream is ADD_EDGE by
    construction), the shape the numpy batch kernel consumes without
    per-event inspection; all-int edge lists come out as int64 arrays.
    Takes the same :func:`insert_order`, so all three spellings describe
    the same stream.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    edges = list(edges)
    columns = EventColumns.of_labels([u for u, _ in edges], [v for _, v in edges])
    yield from insert_only_ordered(columns, seed).chunks(batch_size)


def insert_delete_stream(
    edges: Sequence[Edge],
    churn: float = 0.3,
    seed: int = 0,
) -> List[EdgeEvent]:
    """An add/delete stream whose final graph is exactly ``edges``.

    Every edge is added; additionally a ``churn`` fraction of the edges
    is deleted and re-added once, with the three occurrences interleaved
    randomly but kept in relative order (add < delete < re-add), so the
    stream is always well-formed and the final state is the full edge
    set. Useful for exercising the deletion path while keeping ground
    truth comparable to the insert-only stream.
    """
    check_probability("churn", churn)
    rng = make_rng(child_seed(seed, "churn"))
    num_churned = int(len(edges) * churn)
    churned = set(rng.sample(range(len(edges)), num_churned)) if num_churned else set()
    # Assign each event a random timestamp, forcing order within an edge.
    keyed: List[tuple] = []
    for index, edge in enumerate(edges):
        if index in churned:
            t1, t2, t3 = sorted(rng.random() for _ in range(3))
            keyed.append((t1, add_edge(*edge)))
            keyed.append((t2, delete_edge(*edge)))
            keyed.append((t3, add_edge(*edge)))
        else:
            keyed.append((rng.random(), add_edge(*edge)))
    keyed.sort(key=lambda pair: pair[0])
    return [event for _, event in keyed]


def adversarial_bridge_first(
    intra_edges: Sequence[Edge],
    bridge_edges: Sequence[Edge],
    seed: int = 0,
) -> List[EdgeEvent]:
    """All inter-community bridges first, then intra edges (worst case).

    Early bridges enter an under-full reservoir with probability 1, so
    this order maximally tempts the clusterer into merging communities —
    used to probe robustness, not as a realistic workload.
    """
    rng = make_rng(child_seed(seed, "adversarial"))
    bridges = [add_edge(u, v) for u, v in bridge_edges]
    rng.shuffle(bridges)
    intra = [add_edge(u, v) for u, v in intra_edges]
    rng.shuffle(intra)
    return bridges + intra
