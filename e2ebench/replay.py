"""In-process replays of the CLI's public calls.

``run_cluster`` repeats what ``repro cluster`` does and ``run_send``
what ``repro send`` does, call for call, so the traced run can put a
span around each call into a layer. ``run_query_load`` is the
``serve-query`` load generator. Each takes a tracer; with
``NullTracer`` it is the untraced run of the same code.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from stats import lateness
from workloads import QUERY_TIMEOUT_S, Workload


def clusterer_config(workload: Workload, seed: int):
    """The ``ClustererConfig`` the CLI builds from the workload's flags."""
    from repro.core import ClustererConfig, MaxClusterSize, Unconstrained

    cap = workload.value("--max-cluster-size")
    return ClustererConfig(
        reservoir_capacity=int(workload.value("--capacity")),
        constraint=MaxClusterSize(int(cap)) if cap else Unconstrained(),
        connectivity_backend="hdt",
        track_graph="--lean" not in workload.config_flags,
        strict=False,
        seed=seed,
        kernel=workload.value("--kernel") or "scalar",
    )


@dataclass
class ClusterRun:
    wall_s: float
    labels: str
    counts: Dict[str, float]
    save_bytes: List[int]


def run_cluster(tracer, workload: Workload, path: str, seed: int,
                checkpoint: Optional[str], out: str) -> ClusterRun:
    """``repro cluster`` as a sequence of traced public calls."""
    from repro.core import StreamingGraphClusterer
    from repro.persist import PeriodicCheckpointer
    from repro.serve.protocol import render_snapshot
    from repro.streams import insert_only_stream_raw, read_edge_list, read_event_stream_raw

    save_bytes: List[int] = []
    started = time.perf_counter()
    with tracer.span("core.clusterer.init"):
        clusterer = StreamingGraphClusterer(clusterer_config(workload, seed))
    clusterer.apply_many = tracer.wrap("core.clusterer.apply_many", clusterer.apply_many)
    # The CLI reads lazily; the replay drains the reader first so its
    # time is one span and not smeared across the apply calls.
    events = workload.churn is not None
    with tracer.span("streams.io.read"):
        if events:
            stream = list(read_event_stream_raw(path, strict=True, errors=[]))
        else:
            edges = read_edge_list(path, strict=True, errors=[])
    if not events:
        with tracer.span("streams.order.shuffle"):
            stream = insert_only_stream_raw(edges, seed=seed)
    target = clusterer
    if checkpoint:
        target = PeriodicCheckpointer(clusterer, checkpoint,
                                      every=workload.checkpoint_every,
                                      save_initial=False)
        plain_save = target.save

        def save() -> int:
            with tracer.span("persist.save"):
                size = plain_save()
            save_bytes.append(size)
            return size

        target.save = save
        target.save()  # the CLI's checkpointer saves once on creation
    with tracer.span("core.clusterer.process"):
        target.process(stream, batch_size=workload.batch_size)
    if checkpoint:
        target.save()
    with tracer.span("core.clusterer.snapshot"):
        snapshot = clusterer.snapshot()
    with tracer.span("cli.render"):
        labels = render_snapshot(snapshot)
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(labels)
    wall = time.perf_counter() - started
    stats = clusterer.stats
    counts = {name: getattr(stats, name) for name in (
        "edge_adds", "admissions", "vetoes", "evictions", "sample_deletions")}
    for name in ("partition_builds", "probe_budget_hits", "offline_resolves",
                 "kernel_events", "kernel_fallback_events"):
        counts[name] = getattr(clusterer, name)
    return ClusterRun(wall, labels, counts, save_bytes)


def _send_batches(tracer, workload: Workload, path: str, seed: int) -> list:
    """``repro send``'s input side: read, then shuffle into columns."""
    from repro.streams import insert_only_columns, read_edge_list

    with tracer.span("streams.io.read"):
        edges = read_edge_list(path, strict=True, errors=[])
    with tracer.span("streams.order.shuffle"):
        return list(insert_only_columns(edges, workload.batch_size, seed=seed))


class _TracedEncoder:
    """Stands in for a client's ``FrameEncoder``: times each
    ``encode_columns`` call and records every frame's size. The call is
    a generator, so it is drained inside the span; the client consumes
    the same frames in the same order."""

    def __init__(self, tracer, encoder) -> None:
        self._tracer = tracer
        self._encoder = encoder
        self.sizes: List[int] = []

    def encode_columns(self, *args, **kwargs) -> List[bytes]:
        with self._tracer.span("streams.codec.encode_columns"):
            frames = list(self._encoder.encode_columns(*args, **kwargs))
        self.sizes.extend(len(frame) for frame in frames)
        return frames

    def __getattr__(self, name: str):
        return getattr(self._encoder, name)


def _client(tracer, endpoint, workload: Workload, timeout: float = 60.0):
    """A connected ``ServiceClient`` plus the list of its frame sizes."""
    from repro.serve import ServiceClient

    with tracer.span("serve.client.connect"):
        client = ServiceClient(endpoint, tenant="bench", timeout=timeout,
                               kernel=workload.value("--kernel"),
                               batch_size=workload.batch_size)
    # ServiceClient keeps its FrameEncoder private; standing a proxy in
    # its place is the only way to time encoding apart from the socket.
    client._encoder = _TracedEncoder(tracer, client._encoder)
    return client, client._encoder.sizes


@dataclass
class SendRun:
    wall_s: float
    events: int
    labels: str
    frames: int
    wire_bytes: int


def run_send(tracer, workload: Workload, endpoint, path: str, seed: int,
             out: str) -> SendRun:
    """``repro send`` as a sequence of traced public calls."""
    started = time.perf_counter()
    batches = _send_batches(tracer, workload, path, seed)
    client, sizes = _client(tracer, endpoint, workload)
    try:
        with tracer.span("serve.client.send_columns"):
            count = client.send_columns(batches)
        with tracer.span("serve.client.snapshot"):
            labels = client.snapshot()
        with tracer.span("cli.render"):
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(labels)
    finally:
        client.close()
    return SendRun(time.perf_counter() - started, count, labels,
                   client.frames_sent, sum(sizes))


def open_loop(tracer, count: int, interval: float, send: Callable[[int], None],
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep):
    """Call ``send(i)`` for ``i < count`` on a fixed schedule: call ``i``
    is due at ``t0 + i * interval`` whether or not earlier calls ran
    late. Returns ``t0`` and each call's due and completion times."""
    due: List[float] = []
    done: List[float] = []
    t0 = clock()
    for index in range(count):
        at = t0 + index * interval
        with tracer.span("loadgen.wait"):
            pause = at - clock()
            if pause > 0:
                sleep(pause)
        send(index)
        due.append(at)
        done.append(clock())
    return t0, due, done


@dataclass
class QueryRun:
    stream_s: float
    events: int
    labels: str
    query_ms: List[float]
    query_errors: int
    late_ms: List[float]
    batches: int
    wall_s: float
    metrics: dict
    metric_samples: List[dict]
    wire_bytes: int


def run_query_load(tracer, workload: Workload, endpoint, path: str, seed: int,
                   vertices: List[int], rate: float, seconds: float,
                   out: str, sample_every: float = 0.0) -> QueryRun:
    """Open-loop writer plus closed-loop MEMBERSHIP reader on one tenant.

    The writer's batch ``i`` is due at ``t0 + i * batch / rate``; it
    sleeps until then, sends, and records lateness from the due time.
    The reader issues one query at a time for seeded random vertices
    until the writer finishes. ``sample_every`` > 0 also samples the
    tenant's METRICS reply on the reader connection that often.
    """
    from repro.errors import ProtocolError, ServiceError

    started = time.perf_counter()
    batches = _send_batches(tracer, workload, path, seed)
    total = min(sum(len(b) for b in batches), int(rate * seconds))
    keep, kept = [], 0
    for batch in batches:
        if kept >= total:
            break
        keep.append(batch)
        kept += len(batch)
    writer, sizes = _client(tracer, endpoint, workload)
    reader, _ = _client(tracer, endpoint, workload, timeout=QUERY_TIMEOUT_S)
    done = threading.Event()
    query_ms: List[float] = []
    samples: List[dict] = []
    failures = [0]
    rng = random.Random(seed)

    def read_loop() -> None:
        next_sample = time.perf_counter() + sample_every
        while not done.is_set():
            vertex = rng.choice(vertices)
            t = time.perf_counter()
            try:
                with tracer.span("serve.client.membership"):
                    reader.membership(vertex)
                query_ms.append((time.perf_counter() - t) * 1e3)
                if sample_every and time.perf_counter() >= next_sample:
                    with tracer.span("serve.client.metrics"):
                        samples.append(reader.metrics())
                    next_sample = time.perf_counter() + sample_every
            except (ServiceError, ProtocolError):
                failures[0] += 1  # the connection is unusable after this
                return

    def send(index: int) -> None:
        with tracer.span("serve.client.send_columns"):
            writer.send_columns([keep[index]])

    thread = threading.Thread(target=read_loop, name="reader", daemon=True)
    try:
        thread.start()
        t0, due, sent = open_loop(tracer, len(keep), workload.batch_size / rate, send)
        with tracer.span("serve.client.snapshot"):
            labels = writer.snapshot()
        stream_s = time.perf_counter() - t0
        done.set()
        thread.join(timeout=QUERY_TIMEOUT_S + 5.0)
        with tracer.span("cli.render"):
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(labels)
        metrics = writer.metrics()
    finally:
        done.set()
        writer.close()
        reader.close()
    if thread.is_alive():
        failures[0] += 1
    late = [x * 1e3 for x in lateness(due, sent)]
    return QueryRun(stream_s, kept, labels, query_ms, failures[0], late,
                    len(keep), time.perf_counter() - started, metrics, samples,
                    sum(sizes))
