"""Shared helpers for the experiment benchmarks (E1–E10).

Each ``bench_eN_*.py`` regenerates one of the paper's tables/figures
(reconstructed — see DESIGN.md): it measures the core operation with
pytest-benchmark and writes the full experiment rows to
``bench_results/eN.json`` plus a rendered table on stdout (run pytest
with ``-s`` to see it inline; the JSON is always written).
"""

from __future__ import annotations

import platform
import random
import sys
import time
from typing import Dict, Optional

from repro import obs
from repro.bench import ExperimentResult, render_table, save_results
from repro.core import ClustererConfig, StreamingGraphClusterer
from repro.datasets import Dataset, load_dataset
from repro.graph import AdjacencyGraph
from repro.quality import (
    Partition,
    average_conductance,
    modularity,
    nmi,
    pairwise_f1,
)
from repro.streams import insert_only_stream

RESULTS_DIR = "bench_results"

#: Every benchmark's randomness is either seeded explicitly (dataset and
#: clusterer seeds) or drawn from the global RNG, which is pinned here
#: at import so two runs of the same benchmark see the same stream.
GLOBAL_RNG_SEED = 0
random.seed(GLOBAL_RNG_SEED)

#: Benchmarks run with metric emission on so every saved record carries
#: the internal counters (events by kind, admissions/evictions, probe
#: budget hits, checkpoint bytes) alongside its wall-clock numbers —
#: emission is batch-granular, so throughput rows are not perturbed.
#: perf_smoke.py disables this explicitly around its measurements.
obs.enable()


def environment_record() -> Dict[str, object]:
    """The reproducibility stamp attached to every saved result record:
    the pinned global RNG seed plus the interpreter and platform that
    produced the numbers (throughput rows are meaningless without
    knowing what ran them)."""
    return {
        "global_rng_seed": GLOBAL_RNG_SEED,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def dataset_events(name: str, seed: int = 0):
    """A dataset plus its shuffled insert-only event stream."""
    dataset = load_dataset(name, seed=seed)
    return dataset, insert_only_stream(dataset.edges, seed=seed)


def run_streaming(
    events,
    capacity: int,
    constraint=None,
    seed: int = 0,
    batch_size: Optional[int] = None,
    **kwargs,
) -> StreamingGraphClusterer:
    """Run the streaming clusterer over a finite stream (per-event, or
    through ``apply_many`` in chunks of ``batch_size``)."""
    config_kwargs: Dict = dict(
        reservoir_capacity=max(1, capacity), strict=False, seed=seed
    )
    if constraint is not None:
        config_kwargs["constraint"] = constraint
    config_kwargs.update(kwargs)
    clusterer = StreamingGraphClusterer(ClustererConfig(**config_kwargs))
    clusterer.process(events, batch_size=batch_size)
    return clusterer


def score_partition(
    partition: Partition,
    dataset: Dataset,
    graph: Optional[AdjacencyGraph] = None,
    min_cluster: int = 3,
) -> Dict[str, float]:
    """Standard quality row: NMI, pairwise F1, modularity, conductance."""
    if graph is None:
        graph = AdjacencyGraph(dataset.edges)
    merged = partition.merged_small_clusters(min_size=min_cluster)
    row: Dict[str, float] = {
        "clusters": partition.num_clusters,
        "max_size": partition.max_cluster_size,
        "modularity": round(modularity(graph, partition), 3),
        "avg_conductance": round(average_conductance(graph, partition, min_size=10), 3),
    }
    if dataset.truth is not None:
        row["nmi"] = round(nmi(merged, dataset.truth), 3)
        row["f1"] = round(pairwise_f1(merged, dataset.truth), 3)
    return row


def timed(fn):
    """Run ``fn()``; returns (result, elapsed_seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def finish(result: ExperimentResult) -> None:
    """Persist and print an experiment record (environment-stamped).

    Every record also embeds a snapshot of the default metrics registry,
    so benchmark trajectories (E4 throughput, E13 checkpointing, …)
    carry the internal counters that produced the wall-clock numbers,
    not just the wall-clock numbers themselves.
    """
    result.metadata.setdefault("environment", environment_record())
    result.metadata.setdefault("metrics", obs.default_registry().snapshot())
    save_results(result, RESULTS_DIR)
    print()
    print(render_table(result.rows, title=f"{result.experiment}: {result.description}"))
