"""The four workloads: what runs, on which generated input, and why.

Every input comes from ``repro.datasets`` and ``repro.streams`` with the
workload seed and is written to the run's work directory before any
clock starts; the programs receive only those files. Inputs are never
filtered, resized or re-seeded after generation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Open-loop writer rate of ``serve-query``, events per second. The
#: seed tree keeps up with it alongside the closed-loop reader.
QUERY_OFFERED_RATE = 20_000
#: Events per frame on ``serve-query`` (client and daemon agree).
QUERY_BATCH = 1024
#: Reply deadline for one query; a slower reply counts as failed.
QUERY_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: str
    dataset: str
    #: Clusterer flags shared by ``repro cluster`` and ``repro serve``.
    config_flags: Tuple[str, ...]
    batch_size: int
    churn: Optional[float] = None
    checkpoint_every: int = 0

    def value(self, flag: str) -> Optional[str]:
        flags = self.config_flags
        return flags[flags.index(flag) + 1] if flag in flags else None


_LEAN = ("--lean", "--kernel", "numpy", "--capacity", "20000")

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "cluster-lean",
            "Documented firehose config: repro cluster --lean --kernel numpy "
            "on lj_like; parse, order, snapshot and render show here, "
            "connectivity and constraints do not.",
            "one batch job at a time, input file to labels file",
            "lj_like", _LEAN, 8192,
        ),
        Workload(
            "cluster-churn",
            "Paper claims 1 and 3: dblp_like with 30% delete/re-add churn, "
            "clusters capped at 400, checkpoint every 25k events; apply "
            "and persist dominate, parsing barely shows.",
            "one batch job at a time, event file to labels file",
            "dblp_like", ("--capacity", "10000", "--max-cluster-size", "400"),
            1024, churn=0.3, checkpoint_every=25_000,
        ),
        Workload(
            "serve-ingest",
            "cluster-lean's data, config and kernel through repro send to "
            "repro serve over a unix socket, closed loop; the pair "
            "isolates the wire, codec and session tax.",
            "closed loop, 1 writer connection, as fast as backpressure allows",
            "lj_like", _LEAN, 8192,
        ),
        Workload(
            "serve-query",
            f"Reads beside writes: open-loop writer at {QUERY_OFFERED_RATE} "
            "ev/s in 1024-event frames plus a closed-loop MEMBERSHIP reader "
            "on the same tenant; query latency and writer lateness.",
            f"open loop writer at {QUERY_OFFERED_RATE} ev/s + "
            "1 closed-loop reader (2 threads, 2 connections)",
            "lj_like", _LEAN, QUERY_BATCH,
        ),
    )
}


@dataclass
class Inputs:
    """Generated input files and the ground truth to score against."""

    path: str
    count: int
    truth: object  # repro.quality.Partition
    vertices: List[int]
    stats: dict
    #: The in-memory stream the program will read from ``path``.
    stream: list


def make_inputs(workload: Workload, seed: int, work: str) -> Inputs:
    """Generate ``workload``'s input for ``seed`` into ``work``."""
    from repro.datasets import dataset_statistics, load_dataset
    from repro.streams import (
        EventKind, insert_delete_stream, write_edge_list, write_event_stream,
    )

    dataset = load_dataset(workload.dataset, seed=seed, use_cache=False)
    stats = dataset_statistics(dataset)
    vertices = sorted({v for edge in dataset.edges for v in edge})
    if workload.churn is not None:
        stream = insert_delete_stream(dataset.edges, churn=workload.churn, seed=seed)
        path = os.path.join(work, "input.events")
        write_event_stream(stream, path)
        stats["events"] = len(stream)
        stats["deletes"] = sum(1 for e in stream if e.kind is EventKind.DELETE_EDGE)
        return Inputs(path, len(stream), dataset.truth, vertices, stats, stream)
    path = os.path.join(work, "input.edges")
    write_edge_list(dataset.edges, path)
    stats["events"] = len(dataset.edges)
    return Inputs(path, len(dataset.edges), dataset.truth, vertices, stats,
                  dataset.edges)


def write_one_event_input(workload: Workload, work: str) -> str:
    """The one-event input the set-up time is measured on."""
    path = os.path.join(work, "one.events" if workload.churn else "one.edges")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("+ 1 2\n" if workload.churn else "1 2\n")
    return path
