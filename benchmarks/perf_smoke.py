"""CI throughput smoke: fail on large ingestion-speed regressions.

Runs a pinned-seed mini version of experiment E4 (a prefix of the
dblp_like insert-only stream) through the per-event, batched (scalar
and numpy kernels), multiprocess-pipeline and served (columnar frames
over a unix socket) ingestion paths and compares events/sec against
the committed baseline in ``bench_results/perf_smoke_baseline.json``:

* a drop of more than ``TOLERANCE`` (30%) on any path fails the job;
* the batched path must also keep a healthy machine-independent margin
  over the per-event path (ratio check, immune to runner speed), and
  the numpy kernel a margin over the scalar batched path (the two are
  measured as order-balanced back-to-back pairs);
* a constrained case (``MaxClusterSize`` over a prefix of the dblp_like
  insert/delete stream) must keep batched >= 2x per-event, measured as
  paired order-balanced rounds, so constrained configs cannot silently
  drop back to per-event ingestion;
* the pipeline run (2 workers, spawn excluded from the clock) must end
  in exactly the partition sequential sharded execution reaches;
* a file-to-labels case runs ``repro cluster FILE --lean`` on a prefix
  of the lj_like edge list with each kernel (paired, order-balanced):
  both get end-to-end floors, and numpy end to end must be at least as
  fast as scalar end to end — parse, order and render included, so a
  kernel win cannot hide behind a slow front end;
* tracemalloc peak during a batched ingest must stay within
  ``MEMORY_TOLERANCE`` (20%) of the baseline — allocation volume is
  machine-independent, so this check is much tighter than the clocks.

CI runners are slower and noisier than dev machines, so the baseline
stores *this repo's* committed reference numbers and the tolerance is
deliberately loose — the gate catches algorithmic regressions (an
accidentally quadratic loop, a disabled fast path), not 5% jitter.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py             # check
    PYTHONPATH=src python benchmarks/perf_smoke.py --update    # rebaseline
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_common import dataset_events, environment_record  # noqa: E402

from repro import obs  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.core import (  # noqa: E402
    ClustererConfig,
    MaxClusterSize,
    PipelineClusterer,
    ShardedClusterer,
    StreamingGraphClusterer,
    Unconstrained,
)
from repro.datasets import load_dataset  # noqa: E402
from repro.serve import ClusterService, ServiceClient  # noqa: E402
from repro.streams import insert_delete_stream, write_edge_list  # noqa: E402
from repro.streams.events import EventColumns  # noqa: E402

# bench_common enables metric emission for the experiment benchmarks;
# the smoke's baseline numbers are defined with emission *off* (the
# library default), so switch it back before measuring.
obs.disable()

BASELINE_PATH = Path(__file__).resolve().parent.parent / (
    "bench_results/perf_smoke_baseline.json"
)
SEED = 2
PREFIX_EVENTS = 40000
BATCH_SIZE = 1024
ROUNDS = 3  # best-of, to shed warmup and scheduler noise
TOLERANCE = 0.30  # maximum allowed events/sec regression
MEMORY_TOLERANCE = 0.20  # maximum allowed peak-ingest-memory growth
MIN_BATCH_RATIO = 2.0  # batched must stay >= 2x per-event on any machine
MIN_KERNEL_RATIO = 1.5  # numpy kernel must stay >= 1.5x the scalar batch
PIPELINE_WORKERS = 2  # small pool: the smoke gates routing/framing cost
METRICS_TOLERANCE = 0.03  # max throughput cost of the metrics layer
OVERHEAD_EVENTS = 10000  # shorter prefix: relative sync cost is length-free
OVERHEAD_ROUNDS = 20  # interleaved off/on round pairs for the overhead check
CONSTRAINED_EVENTS = 20000  # prefix of the dblp_like 30%-churn stream
CONSTRAINED_LIMIT = 400  # MaxClusterSize bound, as the churn workload sets it
MIN_CONSTRAINED_RATIO = 2.0  # constrained batched >= 2x constrained per-event
E2E_EVENTS = 100000  # lj_like edge-list prefix for the file-to-labels case
E2E_CAPACITY = 5000
E2E_BATCH_SIZE = 8192
MIN_E2E_KERNEL_RATIO = 1.0  # numpy end to end >= scalar end to end


def _ingest(
    events,
    capacity: int,
    batch_size: int | None,
    kernel: str = "scalar",
    constraint=None,
) -> float:
    clusterer = StreamingGraphClusterer(
        ClustererConfig(
            reservoir_capacity=capacity,
            strict=False,
            seed=SEED,
            kernel=kernel,
            constraint=constraint or Unconstrained(),
        )
    )
    start = time.perf_counter()
    clusterer.process(events, batch_size=batch_size)
    return time.perf_counter() - start


def _ingest_pipeline(raw, capacity: int) -> float:
    """Pipeline wall time with worker spawn excluded from the clock.

    Process startup is a fixed fee paid once per run, not an ingestion
    cost, so the pool is up before the timer starts; the trailing
    ``worker_metrics`` round-trip is a barrier that guarantees every
    frame has been decoded and applied before the timer stops.
    """
    config = ClustererConfig(reservoir_capacity=capacity, strict=False, seed=SEED)
    with PipelineClusterer(
        config, PIPELINE_WORKERS, batch_events=BATCH_SIZE
    ) as pipe:
        start = time.perf_counter()
        pipe.process(raw)
        pipe.worker_metrics()
        return time.perf_counter() - start


def _ingest_served(columns, capacity: int) -> float:
    """Served columnar ingest over a unix socket, service spawn excluded.

    The client streams codec-v3 columnar frames (``send_columns``) into
    one tenant of a fresh service and the trailing metrics query is the
    barrier that guarantees every frame has been decoded and applied
    before the timer stops — the smoke's gate on the whole wire path
    (client encode, socket, frame decode, queue, batched apply).
    """
    config = ClustererConfig(reservoir_capacity=capacity, strict=False, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        sock = os.path.join(tmp, "smoke.sock")
        service = ClusterService(config, path=sock, batch_size=BATCH_SIZE)
        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        if not service.started.wait(timeout=30.0):
            raise AssertionError("perf-smoke service failed to start")
        try:
            start = time.perf_counter()
            with ServiceClient(
                sock, tenant="smoke", batch_size=BATCH_SIZE
            ) as client:
                client.send_columns(columns)
                client.metrics()  # barrier: every frame is applied
            return time.perf_counter() - start
        finally:
            service.request_shutdown(0)
            thread.join(timeout=30.0)


def _check_pipeline_partition(raw, capacity: int) -> None:
    """The smoke's pipeline numbers only count if the answer is right."""
    config = ClustererConfig(reservoir_capacity=capacity, strict=False, seed=SEED)
    with PipelineClusterer(
        config, PIPELINE_WORKERS, batch_events=BATCH_SIZE
    ) as pipe:
        pipe.process(raw)
        got = pipe.snapshot()
    reference = ShardedClusterer(config, num_shards=PIPELINE_WORKERS).process(
        list(raw), batch_size=BATCH_SIZE
    )
    if got != reference.snapshot():
        raise AssertionError(
            "pipeline partition diverged from sequential sharded execution"
        )


def measure() -> dict:
    """Best-of-``ROUNDS`` events/sec for the three ingestion paths."""
    _, events = dataset_events("dblp_like", seed=SEED)
    events = events[:PREFIX_EVENTS]
    raw = [(event.kind, event.u, event.v) for event in events]
    capacity = max(1, len(events) // 10)
    per_event = min(_ingest(events, capacity, None) for _ in range(ROUNDS))
    # Paired, order-balanced scalar/numpy batched rounds: each round
    # times both kernels back to back and alternates which goes first,
    # so the reported ratio survives machine-level drift.
    _ingest(raw, capacity, BATCH_SIZE, kernel="numpy")  # numpy warmup
    batched_times, numpy_times = [], []
    for i in range(ROUNDS):
        order = ("scalar", "numpy") if i % 2 == 0 else ("numpy", "scalar")
        for kernel in order:
            seconds = _ingest(raw, capacity, BATCH_SIZE, kernel=kernel)
            (batched_times if kernel == "scalar" else numpy_times).append(seconds)
    batched = min(batched_times)
    numpy_kernel = min(numpy_times)
    _check_pipeline_partition(raw, capacity)
    pipeline = min(_ingest_pipeline(raw, capacity) for _ in range(ROUNDS))
    columns = [
        EventColumns(
            us=[e[1] for e in raw[i : i + BATCH_SIZE]],
            vs=[e[2] for e in raw[i : i + BATCH_SIZE]],
        )
        for i in range(0, len(raw), BATCH_SIZE)
    ]
    served = min(_ingest_served(columns, capacity) for _ in range(ROUNDS))
    return {
        "events": len(events),
        "capacity": capacity,
        "seed": SEED,
        "batch_size": BATCH_SIZE,
        "pipeline_workers": PIPELINE_WORKERS,
        "per_event_events_per_sec": round(len(events) / per_event),
        "batched_events_per_sec": round(len(events) / batched),
        "numpy_kernel_events_per_sec": round(len(events) / numpy_kernel),
        "pipeline_events_per_sec": round(len(events) / pipeline),
        "served_events_per_sec": round(len(events) / served),
    }


def measure_constrained() -> dict:
    """Constrained per-event vs batched ingest of a churned prefix.

    Paired and order-balanced like the kernel comparison: each round
    times both paths back to back, alternating which goes first, and
    the gate compares best-of-rounds.
    """
    dataset = load_dataset("dblp_like", seed=SEED)
    events = insert_delete_stream(dataset.edges, churn=0.3, seed=SEED)
    events = events[:CONSTRAINED_EVENTS]
    raw = [(event.kind, event.u, event.v) for event in events]
    capacity = max(1, len(events) // 10)
    times = {None: [], BATCH_SIZE: []}
    for i in range(ROUNDS):
        order = (None, BATCH_SIZE) if i % 2 == 0 else (BATCH_SIZE, None)
        for batch_size in order:
            times[batch_size].append(
                _ingest(
                    events if batch_size is None else raw,
                    capacity,
                    batch_size,
                    constraint=MaxClusterSize(CONSTRAINED_LIMIT),
                )
            )
    return {
        "constrained_per_event_events_per_sec": round(len(events) / min(times[None])),
        "constrained_batched_events_per_sec": round(
            len(events) / min(times[BATCH_SIZE])
        ),
    }


def _cluster_file(path: str, kernel: str, out: str) -> float:
    """Wall time of one in-process ``repro cluster FILE --lean`` run."""
    argv = [
        "cluster", path, "--lean", "--kernel", kernel,
        "--capacity", str(E2E_CAPACITY), "--seed", str(SEED),
        "--batch-size", str(E2E_BATCH_SIZE), "--out", out,
    ]
    start = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise AssertionError(f"repro cluster exited {code}: {err.getvalue()}")
    return elapsed


def measure_end_to_end() -> dict:
    """File-to-labels events/sec for each kernel, paired and
    order-balanced like the kernel comparison (best of rounds)."""
    dataset = load_dataset("lj_like", seed=SEED)
    edges = dataset.edges[:E2E_EVENTS]
    times = {"scalar": [], "numpy": []}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prefix.edges")
        write_edge_list(edges, path)
        out = os.path.join(tmp, "found.labels")
        for i in range(ROUNDS):
            order = ("scalar", "numpy") if i % 2 == 0 else ("numpy", "scalar")
            for kernel in order:
                times[kernel].append(_cluster_file(path, kernel, out))
    return {
        "e2e_scalar_events_per_sec": round(len(edges) / min(times["scalar"])),
        "e2e_numpy_events_per_sec": round(len(edges) / min(times["numpy"])),
    }


def peak_memory() -> dict:
    """tracemalloc peak during one batched ingest of the smoke prefix.

    Unlike the throughput numbers this is nearly machine-independent —
    allocation sizes don't drift with CPU speed — so the gate catches
    structural memory regressions (a lost ``__slots__``, labels leaking
    back into a hot dict, an accidental O(m) retained structure) with a
    tolerance far tighter than the timing checks could afford.
    """
    _, events = dataset_events("dblp_like", seed=SEED)
    events = events[:PREFIX_EVENTS]
    raw = [(event.kind, event.u, event.v) for event in events]
    capacity = max(1, len(events) // 10)
    tracemalloc.start()
    try:
        _ingest(raw, capacity, BATCH_SIZE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"peak_ingest_bytes": peak}


def metrics_overhead() -> dict:
    """Throughput cost of the observability layer on the batched path.

    Measures the same pinned-seed ingest with metric emission disabled
    (the library default: one branch per batch) and fully enabled
    (batch-granular counter/gauge sync into the default registry).
    Disabled mode does strictly less work than enabled mode, so showing
    the *enabled* cost stays under ``METRICS_TOLERANCE`` bounds the
    no-op mode's cost a fortiori.

    The measurement is paired and order-balanced: each round runs both
    modes back to back, alternating which goes first, and the gate
    compares best-of-rounds. Interleaving spreads machine-level drift
    (thermal throttling, a background task) over both sides, and
    alternating the within-pair order cancels allocator/cache carryover
    from the preceding run — without it the second position measures a
    systematic several-percent advantage that dwarfs the real cost.
    """
    _, events = dataset_events("dblp_like", seed=SEED)
    events = events[:OVERHEAD_EVENTS]
    raw = [(event.kind, event.u, event.v) for event in events]
    capacity = max(1, len(events) // 10)
    disabled_times, enabled_times = [], []
    try:
        for i in range(OVERHEAD_ROUNDS):
            order = (False, True) if i % 2 else (True, False)
            for run_disabled in order:
                if run_disabled:
                    obs.disable()
                    disabled_times.append(_ingest(raw, capacity, BATCH_SIZE))
                else:
                    obs.enable()
                    enabled_times.append(_ingest(raw, capacity, BATCH_SIZE))
    finally:
        obs.disable()
        obs.default_registry().reset()
    disabled = min(disabled_times)
    enabled = min(enabled_times)
    return {
        "metrics_disabled_events_per_sec": round(len(events) / disabled),
        "metrics_enabled_events_per_sec": round(len(events) / enabled),
        "metrics_overhead_fraction": round(1.0 - disabled / enabled, 4)
        if enabled
        else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline JSON"
    )
    args = parser.parse_args(argv)

    current = measure()
    current.update(measure_constrained())
    current.update(measure_end_to_end())
    current.update(peak_memory())
    print(f"per-event: {current['per_event_events_per_sec']:,} ev/s")
    print(f"batched (batch={BATCH_SIZE}): {current['batched_events_per_sec']:,} ev/s")
    print(
        f"numpy kernel (batch={BATCH_SIZE}): "
        f"{current['numpy_kernel_events_per_sec']:,} ev/s"
    )
    print(
        f"pipeline ({PIPELINE_WORKERS} workers): "
        f"{current['pipeline_events_per_sec']:,} ev/s"
    )
    print(
        f"served (columnar, batch={BATCH_SIZE}): "
        f"{current['served_events_per_sec']:,} ev/s"
    )
    print(
        f"constrained per-event (MaxClusterSize({CONSTRAINED_LIMIT}), churn): "
        f"{current['constrained_per_event_events_per_sec']:,} ev/s"
    )
    print(
        f"constrained batched (batch={BATCH_SIZE}): "
        f"{current['constrained_batched_events_per_sec']:,} ev/s"
    )
    print(
        f"end to end, lean (lj_like prefix, batch={E2E_BATCH_SIZE}): "
        f"scalar {current['e2e_scalar_events_per_sec']:,} ev/s, "
        f"numpy {current['e2e_numpy_events_per_sec']:,} ev/s"
    )
    print(f"peak ingest memory: {current['peak_ingest_bytes'] / 2**20:.1f} MiB")

    if args.update:
        payload = dict(current)
        payload["environment"] = environment_record()
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for key in (
        "per_event_events_per_sec",
        "batched_events_per_sec",
        "numpy_kernel_events_per_sec",
        "pipeline_events_per_sec",
        "served_events_per_sec",
        "constrained_batched_events_per_sec",
        "e2e_scalar_events_per_sec",
        "e2e_numpy_events_per_sec",
    ):
        floor = baseline[key] * (1.0 - TOLERANCE)
        status = "ok" if current[key] >= floor else "REGRESSION"
        print(
            f"{key}: {current[key]:,} vs baseline {baseline[key]:,} "
            f"(floor {floor:,.0f}) {status}"
        )
        if current[key] < floor:
            failures.append(key)

    ratio = current["batched_events_per_sec"] / current["per_event_events_per_sec"]
    print(f"batched/per-event ratio: {ratio:.2f}x (floor {MIN_BATCH_RATIO}x)")
    if ratio < MIN_BATCH_RATIO:
        failures.append("batched/per-event ratio")

    kernel_ratio = (
        current["numpy_kernel_events_per_sec"] / current["batched_events_per_sec"]
    )
    print(
        f"numpy/scalar kernel ratio: {kernel_ratio:.2f}x "
        f"(floor {MIN_KERNEL_RATIO}x)"
    )
    if kernel_ratio < MIN_KERNEL_RATIO:
        failures.append("numpy/scalar kernel ratio")

    constrained_ratio = (
        current["constrained_batched_events_per_sec"]
        / current["constrained_per_event_events_per_sec"]
    )
    print(
        f"constrained batched/per-event ratio: {constrained_ratio:.2f}x "
        f"(floor {MIN_CONSTRAINED_RATIO}x)"
    )
    if constrained_ratio < MIN_CONSTRAINED_RATIO:
        failures.append("constrained batched/per-event ratio")

    e2e_ratio = (
        current["e2e_numpy_events_per_sec"] / current["e2e_scalar_events_per_sec"]
    )
    print(
        f"numpy/scalar end-to-end ratio: {e2e_ratio:.2f}x "
        f"(floor {MIN_E2E_KERNEL_RATIO}x)"
    )
    if e2e_ratio < MIN_E2E_KERNEL_RATIO:
        failures.append("numpy/scalar end-to-end ratio")

    ceiling = baseline["peak_ingest_bytes"] * (1.0 + MEMORY_TOLERANCE)
    status = "ok" if current["peak_ingest_bytes"] <= ceiling else "REGRESSION"
    print(
        f"peak_ingest_bytes: {current['peak_ingest_bytes']:,} vs baseline "
        f"{baseline['peak_ingest_bytes']:,} (ceiling {ceiling:,.0f}) {status}"
    )
    if current["peak_ingest_bytes"] > ceiling:
        failures.append("peak ingest memory")

    overhead = metrics_overhead()
    print(
        f"metrics overhead: {overhead['metrics_overhead_fraction']:+.1%} "
        f"({overhead['metrics_disabled_events_per_sec']:,} ev/s off, "
        f"{overhead['metrics_enabled_events_per_sec']:,} ev/s on, "
        f"ceiling {METRICS_TOLERANCE:.0%})"
    )
    if overhead["metrics_overhead_fraction"] > METRICS_TOLERANCE:
        failures.append("metrics overhead")

    if failures:
        print(f"perf smoke FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
