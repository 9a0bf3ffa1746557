"""Tests for the supervised parallel driver and deterministic faults."""

import time
from queue import Empty

import pytest

from repro.core import ClustererConfig, SupervisorConfig, cluster_stream_parallel
from repro.core import sharded
from repro.core.sharded import _shard_of, _stable_vertex_key
from repro.streams import insert_delete_stream, planted_partition
from repro.util.faults import CrashShard, HangShard, SimulatedCrash, kill_at_event


@pytest.fixture(scope="module")
def events():
    graph = planted_partition(60, 3, p_in=0.3, p_out=0.02, seed=21)
    return insert_delete_stream(graph.edges, churn=0.3, seed=21)


CONFIG = ClustererConfig(reservoir_capacity=60, seed=9, strict=False)
FAST = SupervisorConfig(timeout=20.0, max_attempts=3, backoff=0.01)


def baseline(events):
    partition, results = cluster_stream_parallel(events, CONFIG, 3)
    assert all(not r.failed for r in results)
    return partition


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(timeout=0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorConfig(backoff_factor=0.5)

    def test_backoff_schedule(self):
        sup = SupervisorConfig(backoff=0.1, backoff_factor=2.0)
        assert sup.delay_before(1) == 0.0
        assert sup.delay_before(2) == pytest.approx(0.1)
        assert sup.delay_before(3) == pytest.approx(0.2)
        assert sup.delay_before(4) == pytest.approx(0.4)


class TestSupervisedPool:
    def test_unfaulted_supervised_matches_plain_parallel(self, events):
        partition, results = cluster_stream_parallel(
            events, CONFIG, 3, supervisor=FAST
        )
        assert partition == baseline(events)
        assert [r.attempts for r in results] == [1, 1, 1]

    def test_crash_is_retried_and_result_is_unaffected(self, events):
        partition, results = cluster_stream_parallel(
            events, CONFIG, 3, fault=CrashShard(shard=1, fail_attempts=1),
            supervisor=FAST,
        )
        assert partition == baseline(events)
        assert results[1].attempts == 2 and not results[1].failed
        assert results[0].attempts == 1 and results[2].attempts == 1

    def test_hard_crash_is_detected_and_retried(self, events):
        """os._exit leaves no exception and no queue entry; the supervisor
        must notice the dead process and reschedule."""
        partition, results = cluster_stream_parallel(
            events, CONFIG, 3,
            fault=CrashShard(shard=0, fail_attempts=1, hard=True),
            supervisor=FAST,
        )
        assert partition == baseline(events)
        assert results[0].attempts == 2 and not results[0].failed

    def test_hang_is_terminated_and_retried(self, events):
        start = time.monotonic()
        partition, results = cluster_stream_parallel(
            events, CONFIG, 3,
            fault=HangShard(shard=2, seconds=30.0, fail_attempts=1),
            supervisor=SupervisorConfig(timeout=0.5, max_attempts=2, backoff=0.01),
        )
        elapsed = time.monotonic() - start
        assert elapsed < 15.0  # nowhere near the 30s hang
        assert partition == baseline(events)
        assert results[2].attempts == 2 and not results[2].failed
        assert "timeout" not in (results[2].error or "")

    def test_startup_overrun_fails_the_attempt(self, events, monkeypatch):
        monkeypatch.setattr(sharded, "STARTUP_TIMEOUT", 0.001)
        with pytest.warns(RuntimeWarning, match="failed permanently"):
            _, results = cluster_stream_parallel(
                events, CONFIG, 3,
                supervisor=SupervisorConfig(timeout=20.0, max_attempts=1),
            )
        assert all(r.failed for r in results)
        assert all("waiting for worker startup" in r.error for r in results)

    def test_permanent_failure_degrades_gracefully(self, events):
        with pytest.warns(RuntimeWarning, match="shard 1 failed permanently"):
            partition, results = cluster_stream_parallel(
                events, CONFIG, 3,
                fault=CrashShard(shard=1, fail_attempts=99),
                supervisor=SupervisorConfig(timeout=20.0, max_attempts=2,
                                            backoff=0.01),
            )
        tombstone = results[1]
        assert tombstone.failed and tombstone.attempts == 2
        assert tombstone.sampled_edges == [] and "SimulatedCrash" in tombstone.error
        # The other shards still contribute a usable partition.
        assert results[0].attempts == 1 and results[2].attempts == 1
        assert partition.num_vertices > 0
        # Losing shard 1's sample can only remove merges: the degraded
        # partition is strictly more fragmented (deterministic seeds).
        assert partition.num_clusters > baseline(events).num_clusters

    def test_failed_shard_vertices_absent_from_merge(self, events):
        with pytest.warns(RuntimeWarning):
            partition, results = cluster_stream_parallel(
                events, CONFIG, 3,
                fault=CrashShard(shard=0, fail_attempts=99),
                supervisor=SupervisorConfig(timeout=20.0, max_attempts=1),
            )
        _, healthy = cluster_stream_parallel(events, CONFIG, 3)
        surviving = set(partition.vertices())
        for result in healthy:
            if result.shard == 0:
                continue
            assert surviving >= set(result.vertices)


class TestSupervisedInline:
    def test_crash_is_retried_inline(self, events):
        partition, results = cluster_stream_parallel(
            events, CONFIG, 3, pool_processes=1,
            fault=CrashShard(shard=1, fail_attempts=1), supervisor=FAST,
        )
        assert partition == baseline(events)
        assert results[1].attempts == 2 and not results[1].failed

    def test_permanent_failure_degrades_inline(self, events):
        with pytest.warns(RuntimeWarning, match="failed permanently"):
            _, results = cluster_stream_parallel(
                events, CONFIG, 3, pool_processes=1,
                fault=CrashShard(shard=2, fail_attempts=99),
                supervisor=SupervisorConfig(max_attempts=2, backoff=0.0),
            )
        assert results[2].failed and results[2].attempts == 2

    def test_fault_implies_supervision(self, events):
        # No explicit SupervisorConfig: passing a fault turns it on.
        partition, results = cluster_stream_parallel(
            events, CONFIG, 3, pool_processes=1,
            fault=CrashShard(shard=0, fail_attempts=1),
        )
        assert partition == baseline(events)
        assert results[0].attempts == 2


class TestStableSharding:
    def test_int_keys_are_identity(self):
        assert _stable_vertex_key(42) == 42
        assert _stable_vertex_key(-7) == -7

    def test_bool_is_not_treated_as_int_surrogate(self):
        # bool subclasses int; routing must still be deterministic and
        # distinct from the strings "True"/"False".
        assert _stable_vertex_key(True) == _stable_vertex_key(True)

    def test_string_keys_stable_across_processes(self):
        """Shard routing for non-int ids must not depend on
        PYTHONHASHSEED (i.e. never falls back to builtin hash)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "from repro.core.sharded import _shard_of;"
            "print([_shard_of((f'u{i}', f'v{i}'), 8) for i in range(64)])"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")

        def run(hashseed):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            ).stdout

        assert run("1") == run("2")

    def test_mixed_types_spread_over_shards(self):
        shards = {
            _shard_of((f"user-{i}", i * 31), 8) for i in range(200)
        }
        assert len(shards) == 8


class TestKillAtEvent:
    def test_yields_prefix_then_raises(self):
        it = kill_at_event(range(10), 3)
        assert [next(it) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(SimulatedCrash, match="event 3"):
            next(it)

    def test_short_stream_never_faults(self):
        assert list(kill_at_event(range(3), 10)) == [0, 1, 2]

    def test_custom_action_runs_instead(self):
        fired = []
        it = kill_at_event(range(5), 2, action=lambda: fired.append(True))
        with pytest.raises(SimulatedCrash):
            list(it)
        assert fired == [True]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            list(kill_at_event(range(3), -1))


class _FakeQueue:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)

    def get_nowait(self):
        if not self.items:
            raise Empty
        return self.items.pop(0)

    def close(self):
        pass


class _FakeProcess:
    """Shard 0's first attempt dies silently; asking whether it is alive
    lets shard 1's report arrive, so the supervisor reads that report as
    the late one while shard 1 is still ahead in its deadline scan."""

    def __init__(self, target, args, daemon):
        task, _fault, self.attempt, self.queue = args
        self.shard = task[0]
        self.exitcode = None

    def start(self):
        if not (self.shard == 0 and self.attempt == 1):
            if self.shard == 0:
                self.queue.put((0, "ok", "result-0"))

    def is_alive(self):
        if self.shard == 0 and self.attempt == 1:
            if self.exitcode is None:
                self.exitcode = -9
                self.queue.put((1, "ok", "result-1"))
            return False
        return True

    def join(self, timeout=None):
        pass

    def terminate(self):
        pass


class _FakeContext:
    def __init__(self):
        self.queue = _FakeQueue()

    def Queue(self):
        return self.queue

    def Process(self, target, args, daemon):
        return _FakeProcess(target, args, daemon)


def test_late_report_of_a_shard_not_yet_scanned(monkeypatch):
    """Regression: a late report settling a shard that the deadline scan
    has still to visit must not fail the scan with a KeyError."""
    monkeypatch.setattr(sharded, "_mp_context", _FakeContext)
    tasks = [(0, None, None, []), (1, None, None, [])]
    supervisor = SupervisorConfig(timeout=None, backoff=0.0, poll_interval=0.001)
    results = sharded._run_supervised_pool(tasks, supervisor, None, processes=2)
    assert results == ["result-0", "result-1"]
