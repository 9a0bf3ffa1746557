"""Unit tests for the observability layer (metrics + progress)."""

import io
import json

import pytest

from repro import obs
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ProgressReporter,
)
from repro.obs.progress import format_rate


class TestCounter:
    def test_increments(self):
        c = Counter("demo.events")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_negative_increment_raises(self):
        c = Counter("demo.events")
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1)

    def test_as_dict(self):
        c = Counter("demo.events")
        c.inc(3)
        assert c.as_dict() == {"kind": "counter", "value": 3}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("demo.fill")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_can_go_negative(self):
        g = Gauge("demo.delta")
        g.dec(3)
        assert g.value == -3


class TestHistogram:
    def test_bucketing_with_overflow(self):
        h = Histogram("demo.latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 3.0):
            h.observe(value)
        assert h.bucket_counts == [1, 1, 1]
        assert h.count == 3
        assert h.sum == pytest.approx(3.55)
        assert h.mean == pytest.approx(3.55 / 3)

    def test_boundary_is_upper_inclusive(self):
        h = Histogram("demo.latency", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 0, 0]

    def test_mean_of_empty_is_zero(self):
        assert Histogram("demo.latency").mean == 0.0

    @pytest.mark.parametrize("bad", [(), (1.0, 1.0), (2.0, 1.0)])
    def test_invalid_buckets_raise(self, bad):
        with pytest.raises(ValueError, match="strictly"):
            Histogram("demo.latency", buckets=bad)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a")

    def test_timer_surfaces_in_snapshot(self):
        registry = MetricsRegistry()
        with registry.timer("ingest"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["timer.ingest"]["kind"] == "timer"
        assert snapshot["timer.ingest"]["value"] >= 0
        assert "timer.ingest" in registry.names()

    def test_snapshot_is_json_able(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(0.5)
        registry.histogram("c", buckets=(1.0,)).observe(0.3)
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert parsed["a"] == {"kind": "counter", "value": 2}
        assert parsed["b"]["value"] == 0.5
        assert parsed["c"]["bucket_counts"] == [1, 0]

    def test_to_lines_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.gauge("z.fill").set(0.25)
        registry.counter("a.events").inc(7)
        registry.histogram("m.lat", buckets=(1.0, 2.0)).observe(1.5)
        lines = registry.to_lines()
        assert lines[0] == 'a.events kind="counter",value=7i'
        assert lines[1].startswith('m.lat kind="histogram",le_1=0i,le_2=1i')
        assert lines[2] == 'z.fill kind="gauge",value=0.25'

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        assert json.loads(path.read_text())["a"]["value"] == 1

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with registry.timer("t"):
            pass
        registry.reset()
        assert len(registry) == 0
        assert registry.names() == []


class TestEnableFlag:
    def test_default_is_disabled(self):
        assert not obs.is_enabled()

    def test_enable_disable_roundtrip(self):
        obs.enable()
        try:
            assert obs.is_enabled()
        finally:
            obs.disable()
        assert not obs.is_enabled()

    def test_set_enabled(self):
        obs.set_enabled(True)
        try:
            assert obs.is_enabled()
        finally:
            obs.set_enabled(False)

    def test_disabled_clusterer_emits_nothing(self):
        from repro.core import ClustererConfig, StreamingGraphClusterer
        from repro.streams import add_edge

        registry = obs.default_registry()
        before = registry.names()
        clusterer = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=8, seed=0)
        )
        clusterer.process([add_edge(1, 2), add_edge(2, 3)], batch_size=2)
        assert registry.names() == before


class TestFormatRate:
    def test_scales(self):
        assert format_rate(950) == "950"
        assert format_rate(83_400) == "83.4k"
        assert format_rate(1_200_000) == "1.2M"


class _FakeClusterer:
    reservoir_size = 30
    num_clusters = 4

    class config:
        reservoir_capacity = 40


class TestProgressReporter:
    def test_reports_every_n_events(self):
        out = io.StringIO()
        ticks = iter(range(100))
        reporter = ProgressReporter(
            2, _FakeClusterer(), out=out, clock=lambda: next(ticks)
        )
        consumed = list(reporter.wrap(["a", "b", "c", "d", "e"]))
        assert consumed == ["a", "b", "c", "d", "e"]
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("progress: 2 events (")
        assert "reservoir 30/40 (75%)" in lines[0]
        assert "clusters 4" in lines[0]
        assert reporter.events == 5 and reporter.reports == 2

    def test_rate_uses_window_not_total(self):
        out = io.StringIO()
        clock_values = iter([0.0, 1.0, 2.0])  # start, report 1, report 2
        reporter = ProgressReporter(
            10, _FakeClusterer(), out=out, clock=lambda: next(clock_values)
        )
        list(reporter.wrap(range(20)))
        lines = out.getvalue().splitlines()
        assert "(10 ev/s)" in lines[0]
        assert "(10 ev/s)" in lines[1]  # window rate, not 20/2 cumulative

    def test_checkpoint_lag(self):
        class FakeCheckpointer:
            position = 500
            last_saved_position = 300

        out = io.StringIO()
        reporter = ProgressReporter(
            1, _FakeClusterer(), checkpointer=FakeCheckpointer(), out=out
        )
        list(reporter.wrap(["x"]))
        assert "ckpt lag 200" in out.getvalue()

    def test_degrades_without_clusterer_attributes(self):
        out = io.StringIO()
        reporter = ProgressReporter(1, object(), out=out)
        list(reporter.wrap(["x"]))
        line = out.getvalue()
        assert line.startswith("progress: 1 events")
        assert "reservoir" not in line and "clusters" not in line

    def test_non_positive_every_raises(self):
        with pytest.raises(ValueError, match="positive"):
            ProgressReporter(0, _FakeClusterer())

    def test_progress_snapshot_hook_bypasses_barrier_attributes(self):
        class BarrierClusterer:
            """Queries are expensive barriers; only the hook is cheap."""

            probed = False

            @property
            def num_clusters(self):
                type(self).probed = True
                return 99

            total_reservoir_size = reservoir_size = property(num_clusters.fget)

            def progress_snapshot(self):
                return {"clusters": 7}

        out = io.StringIO()
        reporter = ProgressReporter(1, BarrierClusterer(), out=out)
        list(reporter.wrap(["x"]))
        line = out.getvalue()
        assert "clusters 7" in line and "99" not in line
        assert not BarrierClusterer.probed

    def test_progress_snapshot_hook_may_omit_fields(self):
        class Hooked:
            def progress_snapshot(self):
                return {}

        out = io.StringIO()
        reporter = ProgressReporter(1, Hooked(), out=out)
        list(reporter.wrap(["x"]))
        line = out.getvalue()
        assert line.startswith("progress: 1 events")
        assert "clusters" not in line and "reservoir" not in line


    @pytest.mark.parametrize("kernel", ["scalar", "numpy"])
    def test_progress_lines_build_no_partition(self, kernel):
        from repro.core import ClustererConfig, StreamingGraphClusterer
        from repro.streams import insert_only_stream_raw, planted_partition

        graph = planted_partition(200, 5, 0.3, 0.003, seed=3)
        events = insert_only_stream_raw(graph.edges, seed=3)
        clusterer = StreamingGraphClusterer(
            ClustererConfig(
                reservoir_capacity=300, seed=3, kernel=kernel, strict=False
            )
        )
        out = io.StringIO()
        reporter = ProgressReporter(100, clusterer, out=out)
        clusterer.process(reporter.wrap(events), batch_size=256)
        lines = out.getvalue().splitlines()
        assert len(lines) == len(events) // 100 > 5
        assert all("clusters " in line for line in lines)
        # Cluster counts come from the cached component roots.
        assert clusterer.partition_builds == 0
        assert clusterer.num_clusters == clusterer.snapshot().num_clusters
        assert clusterer.partition_builds == 1


class TestInstrumentation:
    """Enabled-mode emission from the library layers."""

    @pytest.fixture(autouse=True)
    def metrics_epoch(self):
        obs.default_registry().reset()
        obs.enable()
        yield
        obs.disable()
        obs.default_registry().reset()

    def test_clusterer_counters_match_stats(self):
        from repro.core import ClustererConfig, StreamingGraphClusterer
        from repro.streams import add_edge, delete_edge

        clusterer = StreamingGraphClusterer(
            ClustererConfig(reservoir_capacity=8, seed=0)
        )
        events = [add_edge(i, i + 1) for i in range(20)]
        events.append(delete_edge(0, 1))
        clusterer.process(events, batch_size=7)
        registry = obs.default_registry()
        assert registry.counter("clusterer.events").value == clusterer.stats.events
        assert (
            registry.counter("clusterer.edge_adds").value
            == clusterer.stats.edge_adds
        )
        assert registry.gauge("clusterer.reservoir_size").value == len(
            clusterer.reservoir_edges()
        )

    def test_sync_is_delta_based_across_shards(self):
        # Two clusterers sharing the default registry must aggregate,
        # not overwrite, counter values.
        from repro.core import ClustererConfig, StreamingGraphClusterer
        from repro.streams import add_edge

        a = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=8, seed=0))
        b = StreamingGraphClusterer(ClustererConfig(reservoir_capacity=8, seed=1))
        a.process([add_edge(1, 2), add_edge(2, 3)], batch_size=2)
        b.process([add_edge(4, 5)], batch_size=2)
        a.process([add_edge(3, 4)], batch_size=2)
        registry = obs.default_registry()
        assert registry.counter("clusterer.events").value == 4

    def test_checkpointer_emits_save_metrics(self, tmp_path):
        from repro.core import ClustererConfig, StreamingGraphClusterer
        from repro.persist import PeriodicCheckpointer
        from repro.streams import add_edge

        checkpointer = PeriodicCheckpointer(
            StreamingGraphClusterer(ClustererConfig(reservoir_capacity=8)),
            tmp_path / "ck.rpk",
            every=2,
        )
        checkpointer.process([add_edge(1, 2), add_edge(2, 3), add_edge(3, 4)])
        registry = obs.default_registry()
        saves = registry.counter("checkpoint.saves").value
        assert saves == checkpointer.saves >= 2
        assert registry.histogram("checkpoint.save_seconds").count == saves
        assert registry.counter("checkpoint.bytes_written").value > 0

    def test_sharded_gauges(self):
        from repro.core import ClustererConfig, ShardedClusterer
        from repro.streams import add_edge

        sharded = ShardedClusterer(
            ClustererConfig(reservoir_capacity=8, seed=0), num_shards=2
        )
        sharded.apply_many([add_edge(i, i + 1) for i in range(10)])
        registry = obs.default_registry()
        assert registry.gauge("sharded.shard_skew").value >= 1.0
        total = sum(
            registry.gauge(f"sharded.shard_events.{i}").value for i in range(2)
        )
        assert total == 10


class TestHistogramQuantile:
    def test_quantile_walks_the_bucket_grid(self):
        h = Histogram("demo.quantile", buckets=(0.1, 1.0, 5.0))
        for value in [0.05] * 50 + [0.5] * 40 + [2.0] * 9:
            h.observe(value)
        h.observe(10.0)  # overflow
        assert h.quantile(0.5) == 0.1
        assert h.quantile(0.9) == 1.0
        assert h.quantile(0.99) == 5.0
        # The p100 falls in the overflow bucket: the grid has no upper
        # bound for it.
        assert h.quantile(1.0) == float("inf")

    def test_quantile_of_empty_is_zero(self):
        assert Histogram("demo.quantile").quantile(0.99) == 0.0

    def test_quantile_rejects_out_of_range(self):
        h = Histogram("demo.quantile")
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(-0.1)
