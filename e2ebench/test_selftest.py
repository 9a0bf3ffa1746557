"""Self-tests for the benchmark's own code, on tiny inputs.

Run from the root of a checkout: ``python3 -m pytest e2ebench``.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from types import SimpleNamespace

import pytest

import catalog
import hostspeed
import run as bench
from replay import open_loop
from stats import ErrorTally, lateness, percentile, tail_percentile
from tracing import NullTracer, Span, Tracer, coverage, self_time_by_name, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------- percentiles
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 99) == 3.0


def test_tail_percentile_needs_ten_samples_beyond():
    # 100 samples: p90 leaves exactly 10 beyond it, p95 only 5.
    assert tail_percentile(list(range(1, 101))) == (90.0, 90.0)
    # 99 samples: p90 leaves 9 beyond, so p75 is the highest allowed.
    assert tail_percentile(list(range(1, 100))) == (75.0, 75.0)
    # 1000 samples reach p99 (10 beyond) but not p99.9 (1 beyond).
    assert tail_percentile(list(range(1, 1001)))[0] == 99.0


def test_tail_percentile_none_when_sample_too_small_or_flat():
    assert tail_percentile(list(range(15))) is None  # median leaves 7
    assert tail_percentile([]) is None
    assert tail_percentile([5.0] * 200) is None  # nothing strictly beyond


# ------------------------------------------------------------------ self time
def _span(name, start, end, parent=None, thread="MainThread"):
    return Span(name, start, end, parent, "r", thread)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: union 1..5
        _span("c", 6.0, 7.0, parent=0),
        _span("grandchild", 6.2, 6.7, parent=3),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.5, 0.5])
    assert self_time_by_name(spans + [_span("c", 20.0, 21.0)])["c"] == pytest.approx(1.5)


def test_coverage_counts_root_spans_of_one_thread_once():
    spans = [
        _span("read", 0.0, 4.0),
        _span("apply", 4.0, 9.0),
        _span("inner", 5.0, 6.0, parent=1),
        _span("reader", 0.0, 10.0, thread="reader"),
    ]
    assert coverage(spans, 10.0, "MainThread") == pytest.approx(0.9)


def test_tracer_records_nesting_and_run_id():
    tracer = Tracer("run-1")
    with tracer.span("outer"):
        tracer.wrap("inner", lambda: None)()
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.run_id == "run-1" and outer.end >= inner.end
    assert NullTracer().wrap("x", len) is len


# ------------------------------------------------------------ error accounting
def test_error_tally_counts_failures_against_attempts():
    tally = ErrorTally()
    assert tally.error_rate == 0.0
    tally.record(8)
    tally.record(2, 1)
    assert (tally.attempted, tally.failed) == (10, 1)
    assert tally.error_rate == pytest.approx(0.1)


def test_failed_checks_fail_the_result():
    run = SimpleNamespace(tally=ErrorTally(), problems=[])
    assert bench.Run.check(run, True, "fine", 3)
    # A failed check on operations already counted fails one of them.
    assert not bench.Run.check(run, False, "labels differ", 0)
    assert (run.tally.attempted, run.tally.failed) == (3, 1)
    # A failed operation counts as attempted and failed.
    assert not bench.Run.check(run, False, "exit 1")
    bench.Run.count(run, 100, 2, "queries timed out")
    bench.Run.count(run, 50, 0, "batches failed to apply")
    assert (run.tally.attempted, run.tally.failed) == (154, 4)
    assert run.problems == ["labels differ", "exit 1", "2 of 100 queries timed out"]


# -------------------------------------------------------------- open loop
def test_open_loop_lateness_is_measured_from_the_due_time():
    now = [0.0]

    def sleep(seconds):
        now[0] += seconds

    def send(index):
        now[0] += 3.5 if index == 1 else 0.1  # call 1 stalls

    t0, due, done = open_loop(NullTracer(), 5, 1.0, send, clock=lambda: now[0],
                              sleep=sleep)
    assert t0 == 0.0 and due == [0.0, 1.0, 2.0, 3.0, 4.0]
    late = lateness(due, done)
    # The stall charges call 1 and every call queued behind it; the
    # schedule does not slip, so call 4 (due at 4.0, done at 4.8)
    # shows what is left of it.
    assert late == pytest.approx([0.1, 3.5, 2.6, 1.7, 0.8])


def test_lateness_rejects_unpaired_times():
    with pytest.raises(ValueError):
        lateness([0.0], [])


# ------------------------------------------------------------- host speed
def test_host_speed_scales_by_the_mean_probe(monkeypatch):
    ref = hostspeed.RUN_REFERENCE_S
    probes = itertools.cycle([ref, 3 * ref])
    monkeypatch.setattr(hostspeed, "probe_once", lambda: next(probes))
    monkeypatch.setattr(hostspeed, "PROBE_EVERY_S", 0.001)
    with hostspeed.HostSpeed() as speed:
        time.sleep(0.05)
    taken = len(speed.samples)
    time.sleep(0.01)
    assert taken == len(speed.samples) >= 2  # probing stopped with the block
    mean = sum(speed.samples) / taken
    assert speed.scale == pytest.approx(ref / mean)
    # Twice as slow on average over an even count: times are halved.
    assert hostspeed.HostSpeed.scale.fget(
        SimpleNamespace(samples=[ref, 3 * ref])) == pytest.approx(0.5)


def test_setup_samples_are_scaled_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(hostspeed, "probe_once", lambda: 2 * hostspeed.RUN_REFERENCE_S)
    setup = bench.Setup(SimpleNamespace(), lambda run: 0.4)
    setup.add(None, 1.0)  # a failed set-up adds nothing
    setup.fill(count=2)
    assert setup.walls == pytest.approx([0.2, 0.2])


# --------------------------------------------------------------- catalog
def test_benchmark_json_is_generated_from_the_catalog():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        assert json.load(handle) == catalog.benchmark_json()


def test_catalog_names_unique_and_documented():
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in catalog.END_TO_END)
    assert max(m.bound for m in catalog.END_TO_END) == next(
        m.bound for m in catalog.END_TO_END if m.name == "setup_s")
    with open(os.path.join(HERE, "CATALOG.md"), encoding="utf-8") as handle:
        text = handle.read()
    for name in names + [w["name"] for w in catalog.benchmark_json()["workloads"]]:
        assert f"`{name}`" in text, name
