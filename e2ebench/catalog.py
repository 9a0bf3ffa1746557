"""Every metric the benchmark reports: name, unit, direction and bound.

``BENCHMARK.json`` is generated from these lists (``python3
e2ebench/run.py --benchmark-json``) and CATALOG.md defines each metric;
the self-tests keep the three in step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from workloads import WORKLOADS


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float]


#: Reported by every untraced run (``--trace 0``), on every workload.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("events_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.20),
    Metric("nmi", "ratio", "higher", 0.10),
    Metric("server_cpu_s_per_mevent", "s", "lower", 0.25),
]

#: Reported by the traced run (``--trace 1``), on every workload; a
#: layer a workload does not use reads 0.
PER_LAYER: List[Metric] = [
    Metric(name, unit, better, None) for name, unit, better in (
        ("streams.io.read_s", "s", "lower"),
        ("streams.order.shuffle_s", "s", "lower"),
        ("core.clusterer.apply_s", "s", "lower"),
        ("core.clusterer.batch_p50_ms", "ms", "lower"),
        ("core.clusterer.batch_p90_ms", "ms", "lower"),
        ("core.clusterer.snapshot_s", "s", "lower"),
        ("cli.render_s", "s", "lower"),
        ("persist.save_s", "s", "lower"),
        ("persist.saves", "count", "lower"),
        ("persist.bytes_per_save", "B", "lower"),
        ("core.clusterer.admissions", "count", "lower"),
        ("core.clusterer.evictions", "count", "lower"),
        ("core.clusterer.sample_deletions", "count", "lower"),
        ("core.clusterer.partition_builds", "count", "lower"),
        ("connectivity.probe_budget_hits", "count", "lower"),
        ("connectivity.offline_resolves", "count", "lower"),
        ("sampling.admit_ratio", "ratio", "lower"),
        ("core.constraints.veto_ratio", "ratio", "lower"),
        ("core.batchkernel.fallback_ratio", "ratio", "lower"),
        ("streams.codec.encode_s", "s", "lower"),
        ("streams.codec.bytes_per_event", "B", "lower"),
        ("streams.codec.columnar_ratio", "ratio", "higher"),
        ("serve.client.send_s", "s", "lower"),
        ("serve.session.ingest_mean_ms", "ms", "lower"),
        ("serve.session.ingest_p99_ms", "ms", "lower"),
        ("serve.session.coalesced_batches", "count", "higher"),
        ("serve.session.queue_lag_events", "count", "lower"),
        ("query_p50_ms", "ms", "lower"),
        ("query_p90_ms", "ms", "lower"),
        ("queries_per_s", "1/s", "higher"),
        ("send_late_p90_ms", "ms", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    )
]


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


#: How long one run measures, in seconds.
RUN_SECONDS = 25
