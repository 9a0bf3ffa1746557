"""E8 — effect of the admission constraints (figure reconstruction).

The paper's reservoir maintains "desired properties like bounding number
of clusters or cluster-sizes". This experiment varies the constraint on
a fixed workload and reports cluster-shape and quality consequences:

* ``MaxClusterSize`` sweep — the bound caps the largest cluster (hard
  invariant) and, set near the true community size, *improves* quality
  by rejecting the bridge edges that cause giant merges;
* ``MinClusterCount`` — keeps at least k clusters alive;
* unconstrained — the baseline showing the giant-merge failure.

Expected shape: unconstrained has a giant cluster and poor NMI; the
size bound trades a hair of coverage for large NMI gains, best when the
bound ≈ the true maximum community size (97 for amazon_like).

Each row also records ingestion throughput twice: per-event ``apply``
(admissions decided on the connectivity backend) and batched
``apply_many`` (admissions decided on the batch loop's exact sample
component labels). The two runs must end in the same partition.

A second record (``e8_min_count_50k``) takes ``MinClusterCount``, which
does not bound component size, to a sample that percolates: dblp_like
with 30% delete/re-add churn at capacity 50k. There the batched split
checks walk a giant component with no budget, so this is where batching
such a constraint could lose to per-event ingestion.
"""

import time

from bench_common import dataset_events, finish, run_streaming, score_partition
from repro.bench import ExperimentResult
from repro.core import MaxClusterSize, MinClusterCount
from repro.datasets import load_dataset
from repro.graph import AdjacencyGraph
from repro.streams import insert_delete_stream

BOUNDS = (30, 60, 120, 240, 480)
BATCH_SIZE = 1024


def _run_both(events, capacity, constraint):
    """Per-event and batched runs of one row: (clusterer, throughputs)."""
    raw = [(event.kind, event.u, event.v) for event in events]
    runs, rates = [], {}
    for name, stream, batch_size in (
        ("per_event_eps", events, None),
        ("batched_eps", raw, BATCH_SIZE),
    ):
        start = time.perf_counter()
        runs.append(
            run_streaming(
                stream, capacity, constraint=constraint, seed=6, batch_size=batch_size
            )
        )
        rates[name] = round(len(events) / (time.perf_counter() - start))
    per_event, batched = runs
    assert batched.snapshot() == per_event.snapshot()
    return per_event, rates


def test_e8_constraints(benchmark):
    dataset, events = dataset_events("amazon_like")
    graph = AdjacencyGraph(dataset.edges)
    capacity = len(events) // 3

    benchmark.pedantic(
        lambda: run_streaming(events, capacity, constraint=MaxClusterSize(120), seed=6),
        rounds=3,
        iterations=1,
    )

    result = ExperimentResult(
        "e8_constraints",
        "constraint policies on amazon_like (33% reservoir)",
        metadata={"true_max_community": dataset.truth.sizes()[0]},
    )

    rows = [("unconstrained", None)]
    rows += [(f"MaxClusterSize({bound})", MaxClusterSize(bound)) for bound in BOUNDS]
    rows.append(("MinClusterCount(500)", MinClusterCount(500)))
    for name, constraint in rows:
        clusterer, rates = _run_both(events, capacity, constraint)
        row = score_partition(clusterer.snapshot(), dataset, graph)
        result.add_row(
            constraint=name, vetoes=clusterer.stats.vetoes, **row, **rates
        )
        if isinstance(constraint, MaxClusterSize):
            assert row["max_size"] <= constraint.limit  # the hard invariant
        elif constraint is not None:
            assert row["clusters"] >= constraint.minimum
    finish(result)

    rows = {r["constraint"]: r for r in result.rows}
    # The well-chosen bound beats unconstrained by a wide margin.
    assert rows["MaxClusterSize(120)"]["nmi"] > rows["unconstrained"]["nmi"] + 0.2
    # Too-tight bounds shred communities: quality drops again.
    assert rows["MaxClusterSize(120)"]["f1"] > rows["MaxClusterSize(30)"]["f1"]


def test_e8_min_count_at_capacity_50k():
    dataset = load_dataset("dblp_like", seed=0)
    events = insert_delete_stream(dataset.edges, churn=0.3, seed=0)
    result = ExperimentResult(
        "e8_min_count_50k",
        "MinClusterCount on dblp_like with 30% churn, capacity 50k",
        metadata={"events": len(events)},
    )
    for minimum in (1, 500):
        clusterer, rates = _run_both(events, 50000, MinClusterCount(minimum))
        partition = clusterer.snapshot()
        result.add_row(
            constraint=f"MinClusterCount({minimum})",
            vetoes=clusterer.stats.vetoes,
            clusters=partition.num_clusters,
            max_size=partition.sizes()[0],
            **rates,
        )
    finish(result)
    for row in result.rows:
        assert row["max_size"] > 10000  # the sample percolates
        assert row["batched_eps"] > row["per_event_eps"]
