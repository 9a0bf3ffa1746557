"""End-to-end benchmark of the repro programs, from input bytes to labels.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload cluster-lean --seed 1 --seconds 25 --trace 0

``--trace 0`` launches the real ``repro cluster`` / ``repro serve`` /
``repro send`` programs on inputs generated from ``--seed`` and reports
the end-to-end metrics; ``--trace 1`` replays the CLI's public
calls in-process (``replay.py``) with a span around each, and
reports the per-layer metrics. Either way every output is checked, the
metrics are printed by name with their unit, and the last line of
stdout is one JSON object. The exit code is 0 only when every operation
attempted succeeded and every check passed. CATALOG.md defines each
metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import catalog
from hostspeed import HostSpeed, calibrate, scale_of
from replay import clusterer_config, run_cluster, run_query_load, run_send
from programs import Daemon, repro_command, program_env, run_program
from stats import ErrorTally, median, percentile, tail_percentile
from tracing import NullTracer, Tracer, coverage, self_time_by_name
from workloads import QUERY_OFFERED_RATE, WORKLOADS, make_inputs, write_one_event_input

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-up is timed at least this many times per run; the median is
#: reported.
SETUP_REPEATS = 5
#: The daemon's unix socket, relative to the run's work directory, which
#: is the working directory of the daemon and of the benchmark alike: the
#: checkout may sit deeper than the 108-byte limit on socket addresses.
SOCKET = "serve.sock"


class Run:
    """One benchmark invocation: its work directory, tallies and checks."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.base = os.path.join(ROOT, ".e2ebench")
        os.makedirs(self.base, exist_ok=True)
        self.work = os.path.join(
            self.base, f"work-{workload.name}-{seed}-{os.getpid()}")
        os.makedirs(self.work)
        os.chdir(self.work)
        self.env = program_env(ROOT, os.path.join(self.work, "cache"))
        os.environ["REPRO_CACHE"] = self.env["REPRO_CACHE"]
        self.tally = ErrorTally()
        self.problems: List[str] = []
        self.notes: Dict[str, object] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        """Count ``count`` operations, all failed unless ``ok``; a failed
        check on operations counted before (``count=0``) fails one."""
        self.tally.record(count, 0 if ok else max(count, 1))
        if not ok:
            self.problems.append(what)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.tally.record(attempted, failed)
        if failed:
            self.problems.append(f"{failed} of {attempted} {what}")

    def cleanup(self) -> None:
        os.chdir(ROOT)
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# Output checks (never timed)
# ----------------------------------------------------------------------
def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _partition(labels: str):
    from repro.quality import Partition

    mapping = {}
    for line in labels.splitlines():
        vertex, _, label = line.partition("\t")
        mapping[int(vertex)] = label
    return Partition(mapping)


def _score(run: Run, labels: str, truth, vertices: List[int]) -> float:
    """NMI against the planted truth (over the vertices both label);
    also checks every vertex of ``vertices`` is labelled exactly once."""
    from repro.quality import nmi

    partition = _partition(labels)
    run.check(partition.num_vertices == len(labels.splitlines())
              and sorted(partition.labels()) == vertices,
              "labels do not cover every input vertex exactly once", 0)
    return nmi(partition, truth)


def _per_event_oracle(run: Run, inputs) -> str:
    """The per-event ``StreamingGraphClusterer.apply`` partition."""
    from repro.core import StreamingGraphClusterer
    from repro.serve.protocol import render_snapshot

    clusterer = StreamingGraphClusterer(clusterer_config(run.workload, run.seed))
    for event in inputs.stream:
        clusterer.apply(event)
    return render_snapshot(clusterer.snapshot())


def _cluster_argv(run: Run, path: str, out: str, checkpoint: Optional[str],
                  events: Optional[bool] = None):
    w = run.workload
    argv = ["cluster", path, *w.config_flags, "--seed", str(run.seed),
            "--batch-size", str(w.batch_size), "--out", out]
    if w.churn if events is None else events:
        argv.append("--events")
    if checkpoint:
        argv += ["--checkpoint", checkpoint,
                 "--checkpoint-every", str(w.checkpoint_every)]
    return repro_command(*argv)


def _reference_labels(run: Run, inputs, path: Optional[str] = None,
                      events: Optional[bool] = None) -> Optional[str]:
    """``repro cluster`` labels for the workload's input (untimed)."""
    out = run.path("reference.labels")
    checkpoint = run.path("reference.rpk") if run.workload.checkpoint_every else None
    done = run_program(
        _cluster_argv(run, path or inputs.path, out, checkpoint, events=events),
        cwd=run.work, env=run.env)
    if not run.check(done.code == 0, f"reference repro cluster exited {done.code}: "
                     + done.stderr[-300:]):
        return None
    return _read(out)


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
class Setup:
    """Set-up time samples, each scaled to the reference host speed.
    The untraced closed-loop runs take one per measured repetition, so
    set-up sees the same host conditions as the work."""

    def __init__(self, run: Run, once: Callable[[Run], Optional[float]]) -> None:
        self.run = run
        self.once = once
        self.walls: List[float] = []

    def add(self, wall: Optional[float], scale: float) -> None:
        if wall is not None:
            self.walls.append(wall * scale)

    def sample(self) -> None:
        with HostSpeed() as speed:
            wall = self.once(self.run)
        self.add(wall, speed.scale)

    def fill(self, count: int = SETUP_REPEATS) -> "Setup":
        while len(self.walls) < count:
            self.sample()
        return self


def _setup_cluster(run: Run) -> Optional[float]:
    """One cluster command on a one-event input: its wall time."""
    one = write_one_event_input(run.workload, run.work)
    checkpoint = run.path("setup.rpk") if run.workload.checkpoint_every else None
    done = run_program(_cluster_argv(run, one, run.path("setup.labels"), checkpoint),
                       cwd=run.work, env=run.env)
    if run.check(done.code == 0, f"set-up run exited {done.code}"):
        return done.wall_s
    return None


def _daemon_args(run: Run, sock: str, extra=()) -> List[str]:
    w = run.workload
    return [*w.config_flags, "--seed", str(run.seed), "--batch-size",
            str(w.batch_size), "--unix", sock, *extra]


def _start_daemon(run: Run, extra=()):
    return Daemon.start(_daemon_args(run, SOCKET, extra), cwd=run.work,
                        env=run.env)


def _setup_serve(run: Run) -> Optional[float]:
    """One idle daemon launch to its 'serving on' line."""
    from repro.serve import ServiceClient

    daemon = _start_daemon(run)
    # The daemon prints 'serving on' a moment before it installs its
    # SIGTERM handler; one handshake first, so the stop below is the
    # graceful one every real client would see.
    ServiceClient(SOCKET, tenant="setup").close()
    done = daemon.stop()
    if run.check(done.code == 0, f"idle daemon exited {done.code}"):
        return daemon.ready_s
    return None


# ----------------------------------------------------------------------
# Untraced runs: the real programs, end-to-end metrics
# ----------------------------------------------------------------------
def _repeat(run: Run, once: Callable[[int], None]) -> int:
    """Call ``once(rep)`` while the next call is expected to end within
    ``run.seconds`` (always at least once); returns the call count."""
    started = time.perf_counter()
    rep = 0
    while True:
        once(rep)
        rep += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rep > run.seconds:
            return rep


def _end_to_end(run: Run, walls, rss, cpus, setup: Setup, nmi_value,
                events: int, scales=()) -> Dict[str, float]:
    setup.fill()
    run.notes["walls_s"] = [round(x, 4) for x in walls]
    run.notes["cpus_s"] = [round(x, 4) for x in cpus]
    run.notes["setup_s"] = [round(x, 4) for x in setup.walls]
    run.notes["host_scale"] = [round(x, 4) for x in scales]
    return {
        "setup_s": median(setup.walls) if setup.walls else 0.0,
        "events_per_s": events / median(walls) if walls else 0.0,
        "peak_rss_mib": median(rss) if rss else 0.0,
        "nmi": nmi_value,
        "server_cpu_s_per_mevent":
            median(cpus) / events * 1e6 if cpus else 0.0,
    }


def untraced_cluster(run: Run, inputs) -> Dict[str, float]:

    setup = Setup(run, _setup_cluster)
    walls, rss, cpus, outputs, scales = [], [], [], [], []

    def once(rep: int) -> None:
        setup.sample()
        out = run.path(f"labels{rep}")
        checkpoint = run.path(f"run{rep}.rpk") if run.workload.checkpoint_every else None
        with HostSpeed() as speed:
            done = run_program(_cluster_argv(run, inputs.path, out, checkpoint),
                               cwd=run.work, env=run.env)
        scale = speed.scale
        scales.append(scale)
        if run.check(done.code == 0, f"repro cluster exited {done.code}: "
                     + done.stderr[-300:]):
            walls.append(done.wall_s * scale)
            rss.append(done.peak_rss_mib)
            cpus.append(done.cpu_s * scale)
            outputs.append(_read(out))
            os.remove(out)

    run.notes["reps"] = _repeat(run, once)
    nmi_value = 0.0
    if outputs:
        run.check(len(set(outputs)) == 1, "repeated runs disagree", 0)
        if run.workload.churn:
            expected, source = _per_event_oracle(run, inputs), "per-event apply oracle"
        else:
            expected = run_cluster(NullTracer(), run.workload, inputs.path, run.seed,
                                   None, run.path("library.labels")).labels
            source = "library's apply_many run"
        run.check(outputs[0] == expected, f"labels differ from the {source}", 0)
        nmi_value = _score(run, outputs[0], inputs.truth, inputs.vertices)
    return _end_to_end(run, walls, rss, cpus, setup, nmi_value, inputs.count, scales)


def _served_ok(run: Run, metrics: dict, events: int, batches: int) -> None:
    """Count the batches sent, failing those the session could not
    apply; a drop or a lost event fails the run."""
    run.count(batches, int(metrics.get("apply_errors", 1)), "batches failed to apply")
    run.check(metrics.get("drops") == 0 and metrics.get("events") == events,
              f"served drops or lost events: {metrics}", 0)


def _tenant_metrics(run: Run, workload) -> dict:
    from repro.serve import ServiceClient

    with ServiceClient(SOCKET, tenant="bench",
                       kernel=workload.value("--kernel"),
                       batch_size=workload.batch_size) as client:
        return client.metrics()


def untraced_serve_ingest(run: Run, inputs) -> Dict[str, float]:

    w = run.workload
    setup = Setup(run, _setup_serve)
    walls, rss, cpus, outputs, scales = [], [], [], [], []
    # Sender and daemon keep both CPUs busy, so the host speed is taken
    # on the idle host before and after each repetition.
    bracket = [calibrate()]

    def once(rep: int) -> None:
        out = run.path(f"served{rep}")
        daemon = _start_daemon(run)
        try:
            sent = run_program(repro_command(
                "send", inputs.path, "--tenant", "bench", "--unix", SOCKET,
                "--kernel", w.value("--kernel"), "--batch-size", str(w.batch_size),
                "--seed", str(run.seed), "--out", out), cwd=run.work, env=run.env)
            ok = run.check(sent.code == 0, f"repro send exited {sent.code}: "
                           + sent.stderr[-300:])
            if ok:
                _served_ok(run, _tenant_metrics(run, w), inputs.count,
                           -(-inputs.count // w.batch_size))
        finally:
            done = daemon.stop()
        bracket.append(calibrate())
        scale = scale_of(bracket[-2] + bracket[-1])
        scales.append(scale)
        # The measured daemon's own launch is this repetition's set-up.
        setup.add(daemon.ready_s, scale)
        if run.check(done.code == 0, f"daemon exited {done.code}") and ok:
            walls.append(sent.wall_s * scale)
            rss.append(done.peak_rss_mib)
            cpus.append(done.cpu_s * scale)
            outputs.append(_read(out))
            os.remove(out)

    run.notes["reps"] = _repeat(run, once)
    nmi_value = 0.0
    if outputs:
        run.check(len(set(outputs)) == 1, "repeated served runs disagree", 0)
        reference = _reference_labels(run, inputs)
        run.check(reference is not None and outputs[0] == reference,
                  "served snapshot differs from repro cluster", 0)
        nmi_value = _score(run, outputs[0], inputs.truth, inputs.vertices)
    return _end_to_end(run, walls, rss, cpus, setup, nmi_value, inputs.count, scales)


def _query_figures(run: Run, result) -> Dict[str, float]:

    queries = result.query_ms
    tail = tail_percentile(queries)
    run.notes["queries"] = len(queries)
    run.notes["query_tail"] = {"pct": tail[0], "ms": tail[1]} if tail else None
    run.notes["send_batches"] = len(result.late_ms)
    return {
        "query_p50_ms": percentile(queries, 50) if queries else 0.0,
        "query_p90_ms": percentile(queries, 90) if queries else 0.0,
        "queries_per_s": len(queries) / result.stream_s,
        "send_late_p90_ms": percentile(result.late_ms, 90) if result.late_ms else 0.0,
    }


def _query_reference(run: Run, inputs, result) -> Tuple[Optional[str], List[int]]:
    """``repro cluster`` on exactly the events the writer sent, in the
    order it sent them, at the same batch size; and the vertices they
    touch."""
    from repro.streams import insert_only_stream_raw

    events = insert_only_stream_raw(inputs.stream, seed=run.seed)[: result.events]
    path = run.path("sent.events")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"+ {u} {v}\n" for _, u, v in events)
    vertices = sorted({x for _, u, v in events for x in (u, v)})
    return _reference_labels(run, inputs, path=path, events=True), vertices


def _query_checks(run: Run, result) -> None:
    run.count(len(result.query_ms) + result.query_errors, result.query_errors,
              "queries failed or timed out")
    _served_ok(run, result.metrics, result.events, result.batches)


def _run_query(run: Run, inputs, tracer, seconds: float, extra=(),
               sample_every: float = 0.0):
    daemon = _start_daemon(run, extra)
    try:
        result = run_query_load(tracer, run.workload, SOCKET,
                                inputs.path, run.seed, inputs.vertices,
                                QUERY_OFFERED_RATE, seconds, run.path("query.labels"),
                                sample_every=sample_every)
    finally:
        done = daemon.stop()
    run.check(done.code == 0, f"daemon exited {done.code}")
    return result, done


def untraced_serve_query(run: Run, inputs) -> Dict[str, float]:

    setup = Setup(run, _setup_serve).fill()
    result, done = _run_query(run, inputs, NullTracer(), run.seconds)
    _query_checks(run, result)
    run.notes.update(_query_figures(run, result))
    reference, vertices = _query_reference(run, inputs, result)
    run.check(reference is not None and result.labels == reference,
              "served snapshot differs from repro cluster", 0)
    # The writer sends the prefix of the stream its schedule reaches.
    nmi_value = _score(run, result.labels, inputs.truth, vertices)
    # The paced writer and the reader, which keeps the daemon busy, set
    # this run's times rather than the host speed: they stay unscaled.
    return _end_to_end(run, [result.stream_s], [done.peak_rss_mib],
                       [done.cpu_s], setup, nmi_value, result.events)


# ----------------------------------------------------------------------
# Traced runs: in-process replays, per-layer metrics
# ----------------------------------------------------------------------
def _alternate(run: Run, plain: Callable[[], float], traced: Callable[[], float]):
    """Untraced and traced runs of one replay, in alternating order, in
    pairs as ``_repeat`` schedules them; returns both lists of walls."""
    walls = {False: [], True: []}

    def pair(index: int) -> None:
        for with_spans in ((True, False) if index % 2 else (False, True)):
            walls[with_spans].append((traced if with_spans else plain)())

    run.notes["pairs"] = _repeat(run, pair)
    return walls[False], walls[True]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_figures(tracer, runs: List[str]) -> Dict[str, float]:
    """Per-layer times from the spans, median over the traced runs."""
    per_run = []
    for run_id in runs:
        spans = [s for s in tracer.spans if s.run_id == run_id]
        per_run.append(self_time_by_name(spans))

    def med(name: str) -> float:
        return median([times.get(name, 0.0) for times in per_run])

    batches = [s.duration * 1e3 for s in tracer.spans
               if s.name == "core.clusterer.apply_many"]
    return {
        "streams.io.read_s": med("streams.io.read"),
        "streams.order.shuffle_s": med("streams.order.shuffle"),
        "core.clusterer.apply_s": med("core.clusterer.apply_many"),
        "core.clusterer.batch_p50_ms": percentile(batches, 50) if batches else 0.0,
        "core.clusterer.batch_p90_ms": percentile(batches, 90) if batches else 0.0,
        "core.clusterer.snapshot_s":
            med("core.clusterer.snapshot") + med("serve.client.snapshot"),
        "cli.render_s": med("cli.render"),
        "persist.save_s": med("persist.save"),
        "streams.codec.encode_s": med("streams.codec.encode_columns"),
        "serve.client.send_s": med("serve.client.send_columns"),
    }


def _count_figures(counts: Dict[str, float]) -> Dict[str, float]:
    """Clusterer counts and the ratios built from them."""
    get = lambda name: float(counts.get(name, 0))  # noqa: E731
    return {
        "core.clusterer.admissions": get("admissions"),
        "core.clusterer.evictions": get("evictions"),
        "core.clusterer.sample_deletions": get("sample_deletions"),
        "core.clusterer.partition_builds": get("partition_builds"),
        "connectivity.probe_budget_hits": get("probe_budget_hits"),
        "connectivity.offline_resolves": get("offline_resolves"),
        "sampling.admit_ratio": _ratio(get("admissions"), get("edge_adds")),
        "core.constraints.veto_ratio":
            _ratio(get("vetoes"), get("admissions") + get("vetoes")),
        "core.batchkernel.fallback_ratio":
            _ratio(get("kernel_fallback_events"), get("kernel_events")),
    }


def _coverage(tracer, runs: List[str], walls: List[float]) -> float:

    return median([
        coverage([s for s in tracer.spans if s.run_id == run_id], wall, "MainThread")
        for run_id, wall in zip(runs, walls)
    ])


def traced_cluster(run: Run, inputs) -> Dict[str, float]:

    w = run.workload
    reference = _reference_labels(run, inputs)
    tracer = Tracer(f"{w.name}-{run.seed}")
    runs: List[str] = []
    results = []

    def drive(traced: bool) -> float:
        active = tracer if traced else NullTracer()
        if traced:
            runs.append(f"{tracer.run_id}.{len(runs)}")
            tracer.run_id = runs[-1]
        checkpoint = run.path("replay.rpk") if w.checkpoint_every else None
        result = run_cluster(active, w, inputs.path, run.seed, checkpoint,
                             run.path("replay.labels"))
        run.check(reference is not None and result.labels == reference,
                  "replayed labels differ from repro cluster")
        if traced:
            results.append(result)
        return result.wall_s

    plain, traced = _alternate(run, lambda: drive(False), lambda: drive(True))
    figures = _span_figures(tracer, runs)
    figures.update(_count_figures(results[-1].counts))
    saves = results[-1].save_bytes
    figures["persist.saves"] = float(len(saves))
    figures["persist.bytes_per_save"] = _ratio(sum(saves), len(saves))
    figures["trace.coverage"] = _coverage(tracer, runs, traced)
    figures["trace.overhead"] = median(traced) / median(plain) - 1.0
    tracer.write(os.path.join(run.base, f"spans-{w.name}-{run.seed}.json"))
    return figures


def _daemon_counts(path: str) -> Dict[str, float]:
    """``clusterer.*`` counters and frame counts from ``--metrics-out``."""
    with open(path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    counts = {name.split(".", 1)[1]: entry["value"]
              for name, entry in snapshot.items()
              if name.startswith("clusterer.") and entry["kind"] == "counter"}
    frames = snapshot.get("serve.frames_received", {}).get("value", 0)
    columnar = snapshot.get("serve.codec_columnar_frames", {}).get("value", 0)
    counts["columnar_ratio"] = _ratio(columnar, frames)
    return counts


def _session_figures(metrics: dict, samples: List[dict]) -> Dict[str, float]:
    from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS

    p99 = metrics.get("p99_ingest_seconds")
    if p99 is None:  # past the last bucket edge: report that edge
        p99 = DEFAULT_LATENCY_BUCKETS[-1]
    return {
        "serve.session.ingest_mean_ms": metrics.get("mean_ingest_seconds", 0.0) * 1e3,
        "serve.session.ingest_p99_ms": p99 * 1e3,
        "serve.session.coalesced_batches": float(metrics.get("coalesced_batches", 0)),
        "serve.session.queue_lag_events":
            float(max([s.get("queue_lag_events", 0) for s in samples] or [0])),
    }


def _served_layers(run: Run, tracer, runs, traced_walls, counts, metrics,
                   samples, wire_bytes, events) -> Dict[str, float]:
    figures = _span_figures(tracer, runs)
    figures.update(_count_figures(counts))
    figures["persist.saves"] = 0.0
    figures["persist.bytes_per_save"] = 0.0
    figures["streams.codec.bytes_per_event"] = _ratio(wire_bytes, events)
    figures["streams.codec.columnar_ratio"] = counts.get("columnar_ratio", 0.0)
    figures.update(_session_figures(metrics, samples))
    figures["trace.coverage"] = _coverage(tracer, runs, traced_walls)
    return figures


def _metrics_sampler(run: Run, stop, samples: List[dict], every: float):
    """Thread body: sample the tenant's METRICS reply every ``every`` s."""
    from repro.errors import ServiceError
    from repro.serve import ServiceClient

    def loop() -> None:
        try:
            with ServiceClient(SOCKET, tenant="bench",
                               kernel=run.workload.value("--kernel"),
                               batch_size=run.workload.batch_size) as client:
                while not stop.wait(every):
                    samples.append(client.metrics())
        except ServiceError:
            pass  # the tenant's final METRICS reply is checked instead
    return loop


def traced_serve_ingest(run: Run, inputs) -> Dict[str, float]:
    import threading


    w = run.workload
    reference = _reference_labels(run, inputs)
    tracer = Tracer(f"{w.name}-{run.seed}")
    runs: List[str] = []
    kept = {}

    def drive(traced: bool) -> float:
        extra = ("--metrics-out", "daemon-metrics.json") if traced else ()
        daemon = _start_daemon(run, extra)
        stop, samples = threading.Event(), []
        sampler = None
        try:
            if traced:
                runs.append(f"{tracer.run_id}.{len(runs)}")
                tracer.run_id = runs[-1]
                sampler = threading.Thread(
                    target=_metrics_sampler(run, stop, samples, 0.5), daemon=True)
                sampler.start()
            result = run_send(tracer if traced else NullTracer(), w,
                              SOCKET, inputs.path, run.seed,
                              run.path("replay.labels"))
            stop.set()
            if sampler is not None:
                sampler.join(timeout=30.0)
            metrics = _tenant_metrics(run, w)
            _served_ok(run, metrics, inputs.count, result.frames)
        finally:
            stop.set()
            done = daemon.stop()
        run.check(done.code == 0 and result.labels == reference,
                  "replayed snapshot differs from repro cluster")
        if traced:
            kept.update(result=result, metrics=metrics, samples=samples,
                        counts=_daemon_counts(run.path("daemon-metrics.json")))
        return result.wall_s

    plain, traced = _alternate(run, lambda: drive(False), lambda: drive(True))
    result = kept["result"]
    figures = _served_layers(run, tracer, runs, traced, kept["counts"],
                             kept["metrics"], kept["samples"], result.wire_bytes,
                             result.events)
    figures["trace.overhead"] = median(traced) / median(plain) - 1.0
    tracer.write(os.path.join(run.base, f"spans-{w.name}-{run.seed}.json"))
    return figures


def traced_serve_query(run: Run, inputs) -> Dict[str, float]:

    w = run.workload
    half = run.seconds / 2
    tracer = Tracer(f"{w.name}-{run.seed}.0")
    plain, _ = _run_query(run, inputs, NullTracer(), half)
    _query_checks(run, plain)
    traced, _ = _run_query(run, inputs, tracer, half,
                           extra=("--metrics-out", "daemon-metrics.json"),
                           sample_every=0.5)
    _query_checks(run, traced)
    reference, _ = _query_reference(run, inputs, traced)
    run.check(reference is not None and traced.labels == reference,
              "served snapshot differs from repro cluster", 0)
    figures = _served_layers(run, tracer, [tracer.run_id], [traced.wall_s],
                             _daemon_counts(run.path("daemon-metrics.json")),
                             traced.metrics, traced.metric_samples,
                             traced.wire_bytes, traced.events)
    figures.update(_query_figures(run, traced))
    figures["trace.overhead"] = traced.wall_s / plain.wall_s - 1.0
    tracer.write(os.path.join(run.base, f"spans-{w.name}-{run.seed}.json"))
    return figures


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
MEASURE = {
    ("cluster-lean", False): untraced_cluster,
    ("cluster-churn", False): untraced_cluster,
    ("serve-ingest", False): untraced_serve_ingest,
    ("serve-query", False): untraced_serve_query,
    ("cluster-lean", True): traced_cluster,
    ("cluster-churn", True): traced_cluster,
    ("serve-ingest", True): traced_serve_ingest,
    ("serve-query", True): traced_serve_query,
}


def environment() -> Dict[str, object]:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def report(run: Run, inputs, figures: Dict[str, float], wall: float) -> dict:
    """Print every metric with its unit; return the result object."""
    w = run.workload
    print(f"workload {w.name}  seed {run.seed}  {'traced' if run.trace else 'untraced'}"
          f"  {wall:.1f} s")
    print(f"  shape: {w.shape}")
    print(f"  input: {json.dumps(inputs.stats, sort_keys=True)}")
    print(f"  environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"  runs: {json.dumps(run.notes, sort_keys=True)}")
    metrics = {}
    for metric in catalog.PER_LAYER if run.trace else catalog.END_TO_END:
        value = float(figures.get(metric.name, 0.0))
        metrics[metric.name] = {"value": value, "unit": metric.unit}
        print(f"  {metric.name:36s} {value:14.6g} {metric.unit}")
    print(f"  {'error_rate':36s} {run.tally.error_rate:14.6g} ratio"
          f"  ({run.tally.failed} of {run.tally.attempted} operations failed)")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    return {"correct": not run.problems, "attempted": run.tally.attempted,
            "failed": run.tally.failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--benchmark-json", action="store_true",
                        help="print the BENCHMARK.json document and exit")
    args = parser.parse_args(argv)
    if not args.benchmark_json and not args.workload:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.benchmark_json:
        print(json.dumps(catalog.benchmark_json(), indent=2))
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    run = Run(WORKLOADS[args.workload], args.seed,
              args.seconds or catalog.RUN_SECONDS, bool(args.trace))
    started = time.perf_counter()
    try:
        inputs = make_inputs(run.workload, run.seed, run.work)
        figures = MEASURE[(run.workload.name, run.trace)](run, inputs)
        result = report(run, inputs, figures, time.perf_counter() - started)
    finally:
        run.cleanup()
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
