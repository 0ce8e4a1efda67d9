"""Unit tests for the provisioning service's building blocks.

Covers the resilience primitives (deadlines, admission control,
circuit breakers, deterministic backoff), query validation and the
content-address cache key (including the Hypothesis property that the
key is insensitive to dict ordering and stable across processes), and the
checksummed result cache with its in-memory LRU (rebuilt from the
artifacts at boot).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    AdmissionController,
    BadRequest,
    CircuitBreaker,
    ConnectionGovernor,
    ConnectionRefused,
    Deadline,
    DeadlineExceeded,
    ProvisionQuery,
    ResultCache,
    Shedding,
    backoff_delay,
    execute_query,
    topology_sha,
)

REPO = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------------
class TestDeadline:
    def test_remaining_counts_down(self):
        clock = FakeClock()
        d = Deadline.after(5.0, clock=clock)
        assert d.remaining() == pytest.approx(5.0)
        clock.now += 3.0
        assert d.remaining() == pytest.approx(2.0)
        assert not d.expired

    def test_check_raises_after_expiry(self):
        clock = FakeClock()
        d = Deadline.after(1.0, clock=clock)
        assert d.check("waiting") == pytest.approx(1.0)
        clock.now += 1.5
        assert d.expired
        with pytest.raises(DeadlineExceeded, match="while executing"):
            d.check("executing")

    def test_non_positive_budget_rejected(self):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            Deadline.after(0.0)


class TestAdmissionController:
    def test_admits_until_full_then_sheds(self):
        ac = AdmissionController(2, est_service_s=0.5)
        ac.admit()
        ac.admit()
        with pytest.raises(Shedding) as exc:
            ac.admit()
        assert exc.value.retry_after_s >= 1.0
        assert ac.shed_total == 1
        assert ac.admitted_total == 2

    def test_release_reopens_a_slot(self):
        ac = AdmissionController(1)
        ac.admit()
        with pytest.raises(Shedding):
            ac.admit()
        ac.release()
        ac.admit()  # does not raise
        assert ac.pending == 1

    def test_retry_after_scales_with_depth(self):
        ac = AdmissionController(100, est_service_s=2.0)
        for _ in range(10):
            ac.admit()
        assert ac.retry_after_s() == pytest.approx(20.0)

    def test_bad_bound_rejected(self):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            AdmissionController(0)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        cb = CircuitBreaker(failure_threshold=3, reset_after_s=5.0,
                            clock=clock)
        cb.record_failure()
        cb.record_failure()
        assert cb.state == CircuitBreaker.CLOSED and cb.allow()
        cb.record_failure()
        assert cb.state == CircuitBreaker.OPEN
        assert not cb.allow()

    def test_success_resets_the_failure_streak(self):
        cb = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        cb.record_failure()
        cb.record_success()
        cb.record_failure()
        assert cb.state == CircuitBreaker.CLOSED

    def test_half_open_allows_exactly_one_probe(self):
        clock = FakeClock()
        cb = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                            clock=clock)
        cb.record_failure()
        assert not cb.allow()
        clock.now += 5.1
        assert cb.allow()  # the probe
        assert cb.state == CircuitBreaker.HALF_OPEN
        assert not cb.allow()  # second caller must wait for the probe

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = FakeClock()
        cb = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                            clock=clock)
        cb.record_failure()
        clock.now += 5.1
        assert cb.allow()
        cb.record_success()
        assert cb.state == CircuitBreaker.CLOSED
        # fail again, probe again, and this time the probe fails
        cb.record_failure()
        clock.now += 5.1
        assert cb.allow()
        cb.record_failure()
        assert cb.state == CircuitBreaker.OPEN
        # threshold=1: each failure opened the circuit (incl. the probe)
        assert cb.opened_total == 3
        assert not cb.allow()  # a fresh full window applies



class TestConnectionGovernor:
    def test_register_release_and_peak(self):
        gov = ConnectionGovernor(4, clock=FakeClock())
        slots = [gov.register(f"peer-{i}") for i in range(3)]
        assert gov.open == 3
        assert gov.peak == 3
        assert gov.accepted_total == 3
        for slot in slots:
            gov.release(slot)
        assert gov.open == 0
        assert gov.peak == 3  # peak is a high-water mark

    def test_max_connections_refusal_carries_retry_after(self):
        gov = ConnectionGovernor(2, retry_after_s=2.5, clock=FakeClock())
        gov.register("a")
        gov.register("b")
        with pytest.raises(ConnectionRefused) as exc:
            gov.register("c")
        assert exc.value.cause == "max-connections"
        assert exc.value.retry_after_s == 2.5
        assert gov.rejects_by_cause["max-connections"] == 1
        assert gov.accepted_total == 2  # refusals are not accepts

    def test_per_peer_cap_only_hits_the_greedy_peer(self):
        gov = ConnectionGovernor(10, max_per_peer=2, clock=FakeClock())
        gov.register("hog")
        gov.register("hog")
        with pytest.raises(ConnectionRefused) as exc:
            gov.register("hog")
        assert exc.value.cause == "per-peer"
        gov.register("polite")  # other peers are unaffected
        assert gov.rejects_by_cause == {"per-peer": 1}

    def test_release_frees_the_per_peer_budget(self):
        gov = ConnectionGovernor(10, max_per_peer=1, clock=FakeClock())
        slot = gov.register("peer")
        with pytest.raises(ConnectionRefused):
            gov.register("peer")
        gov.release(slot)
        gov.register("peer")  # budget returned

    def test_double_release_is_safe(self):
        gov = ConnectionGovernor(4, clock=FakeClock())
        a = gov.register("peer")
        b = gov.register("peer")
        gov.release(a)
        gov.release(a)  # reap + handler finally may both fire
        assert gov.open == 1
        gov.release(b)
        assert gov.open == 0

    def test_overdue_respects_touch_and_grace(self):
        clock = FakeClock()
        gov = ConnectionGovernor(
            4, io_timeout_s=5.0, reap_grace_s=1.0, clock=clock
        )
        slot = gov.register("peer")
        clock.now += 5.5  # past the deadline but inside the grace
        assert gov.overdue() == []
        clock.now += 1.0  # past deadline + grace
        assert gov.overdue() == [slot]
        gov.touch(slot)  # an I/O phase made progress: re-armed
        assert gov.overdue() == []

    def test_reaped_accounting(self):
        clock = FakeClock()
        gov = ConnectionGovernor(4, io_timeout_s=1.0, clock=clock)
        slot = gov.register("peer")
        gov.reaped(slot)
        assert gov.open == 0
        assert gov.reaped_total == 1
        gov.reaped(slot)  # idempotent: a dead slot is not re-counted
        assert gov.reaped_total == 1
        gov.note_reaped()  # in-band 408 kills count too
        assert gov.reaped_total == 2

    def test_register_stays_open_while_draining(self):
        # probes must still reach /readyz during the drain window;
        # the request layer, not admission, refuses new work.
        gov = ConnectionGovernor(4, clock=FakeClock())
        gov.draining = True
        slot = gov.register("probe")
        assert slot is not None
        stats = gov.stats()
        assert stats["draining"] is True
        assert stats["open"] == 1

    def test_stats_shape(self):
        gov = ConnectionGovernor(
            8, max_per_peer=4, clock=FakeClock()
        )
        gov.register("peer", handle="h1")
        gov.count_reject("draining")
        stats = gov.stats()
        assert stats == {
            "open": 1,
            "peak": 1,
            "accepted_total": 1,
            "max_connections": 8,
            "max_per_peer": 4,
            "rejects_by_cause": {"draining": 1},
            "reaped": 0,
            "draining": False,
            "drain_cancelled": 0,
        }
        assert gov.handles() == ["h1"]

    def test_rejects_bad_limits(self):
        with pytest.raises(Exception):
            ConnectionGovernor(0)
        with pytest.raises(Exception):
            ConnectionGovernor(4, max_per_peer=0)

class TestBackoff:
    def test_deterministic_per_key(self):
        assert backoff_delay("k", 1, 0.5) == backoff_delay("k", 1, 0.5)
        assert backoff_delay("k", 1, 0.5) != backoff_delay("other", 1, 0.5)

    def test_exponential_growth(self):
        d1 = backoff_delay("key", 1, 0.5)
        d2 = backoff_delay("key", 2, 0.5)
        d3 = backoff_delay("key", 3, 0.5)
        assert 0.5 <= d1 < 0.625  # base * (1 + jitter<0.25)
        assert d2 > d1 and d3 > d2


# ---------------------------------------------------------------------------
class TestProvisionQueryValidation:
    def test_defaults(self):
        q = ProvisionQuery.from_dict({})
        assert q.kind == "provision"
        assert q.n == 64 and q.is_path
        assert q.topology_sha

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequest, match="unknown field"):
            ProvisionQuery.from_dict({"topolgy": "path:64"})

    def test_non_object_rejected(self):
        with pytest.raises(BadRequest):
            ProvisionQuery.from_dict([1, 2])

    @pytest.mark.parametrize("raw", [
        {"kind": "nope"},
        {"topology": "ring:9"},
        {"topology": "path:1"},
        {"policy": "no-such-policy"},
        {"adversary": "no-such-adversary"},
        {"steps": 0},
        {"steps": 10**9},
        {"seed": "zero"},
        {"buffer_capacity": 0},
        {"overflow": "explode"},
        {"faults": "not-a-plan"},
        {"deadline_s": -1},
        {"kind": "experiment"},  # missing the experiment id
        {"kind": "experiment", "experiment": "E1", "preset": "huge"},
        {"topology": "path:8", "policy": "tree-odd-even"},
        {"topology": "binary:3", "policy": "odd-even"},
    ])
    def test_bad_requests_rejected(self, raw):
        with pytest.raises(BadRequest):
            ProvisionQuery.from_dict(raw)

    def test_tree_topology_defaults_to_tree_policy(self):
        q = ProvisionQuery.from_dict({"topology": "binary:3"})
        assert q.policy == "tree-odd-even"
        assert not q.is_path

    def test_bad_fault_plan_rejected_up_front(self):
        with pytest.raises(BadRequest, match="bad fault plan"):
            ProvisionQuery.from_dict(
                {"faults": {"events": [{"kind": "implode"}]}}
            )

    def test_topology_sha_is_on_the_resolved_graph(self):
        assert topology_sha("path:8") == topology_sha("path:8")
        assert topology_sha("path:8") != topology_sha("path:9")
        assert topology_sha("binary:2") != topology_sha("path:7")

    def test_deadline_excluded_from_cache_key(self):
        a = ProvisionQuery.from_dict({"topology": "path:16"})
        b = ProvisionQuery.from_dict(
            {"topology": "path:16", "deadline_s": 2.5}
        )
        assert a.cache_key() == b.cache_key()


_QUERY_FIELDS = st.fixed_dictionaries({
    "topology": st.sampled_from(["path:8", "path:16", "binary:2"]),
    "adversary": st.sampled_from(["far-end", "pre-sink", "uniform"]),
    "steps": st.integers(min_value=1, max_value=500),
    "seed": st.integers(min_value=0, max_value=2**31),
})


class TestCacheKeyProperties:
    @settings(max_examples=30, deadline=None)
    @given(raw=_QUERY_FIELDS, order=st.randoms(use_true_random=False))
    def test_key_insensitive_to_dict_ordering(self, raw, order):
        if raw["topology"] == "binary:2":
            raw = dict(raw, policy="tree-odd-even")
        else:
            raw = dict(raw, policy="odd-even")
        items = list(raw.items())
        order.shuffle(items)
        shuffled = dict(items)
        assert (
            ProvisionQuery.from_dict(raw).cache_key()
            == ProvisionQuery.from_dict(shuffled).cache_key()
        )

    @settings(max_examples=30, deadline=None)
    @given(raw=_QUERY_FIELDS)
    def test_distinct_params_get_distinct_keys(self, raw):
        if raw["topology"] == "binary:2":
            raw = dict(raw, policy="tree-odd-even")
        q = ProvisionQuery.from_dict(raw)
        bumped = ProvisionQuery.from_dict(
            dict(raw, steps=raw["steps"] + 1)
        )
        assert q.cache_key() != bumped.cache_key()

    def test_key_deterministic_across_processes(self):
        """PYTHONHASHSEED must not leak into the content address."""
        raw = {"topology": "path:32", "policy": "odd-even",
               "adversary": "far-end", "steps": 100, "seed": 3}
        local = ProvisionQuery.from_dict(raw).cache_key()
        code = (
            "import json, sys\n"
            "from repro.service import ProvisionQuery\n"
            "raw = json.loads(sys.argv[1])\n"
            "print(ProvisionQuery.from_dict(raw).cache_key())\n"
        )
        for hashseed in ("0", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", code, json.dumps(raw)],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": str(REPO / "src"),
                     "PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
            )
            assert out.stdout.strip() == local


# ---------------------------------------------------------------------------
class TestResultCache:
    def _query(self, **over):
        return ProvisionQuery.from_dict(
            {"topology": "path:16", "steps": 50, **over}
        )

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        q = self._query()
        cache.put(q.cache_key(), {"max_height": 3}, query=q)
        assert cache.get(q.cache_key()) == {"max_height": 3}
        assert cache.hits == 1 and cache.misses == 0
        assert cache.hit_rate == 1.0

    def test_absent_key_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss_not_a_wrong_answer(self, tmp_path):
        cache = ResultCache(tmp_path)
        q = self._query()
        path = cache.put(q.cache_key(), {"max_height": 3}, query=q)
        text = path.read_text()
        path.write_text(text.replace('"max_height": 3', '"max_height": 9'))
        assert cache.get(q.cache_key()) is None

    def test_eviction_keeps_store_under_entry_bound(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        keys = []
        for steps in range(1, 7):
            q = self._query(steps=steps)
            keys.append(q.cache_key())
            cache.put(keys[-1], {"max_height": steps}, query=q)
        assert cache.stats()["entries"] == 3
        assert len(list(tmp_path.glob("q*.json"))) == 3
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[-1]) == {"max_height": 6}

    def test_eviction_keeps_store_under_byte_bound(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=2048, max_entries=None)
        for steps in range(1, 20):
            q = self._query(steps=steps)
            cache.put(q.cache_key(), {"blob": "x" * 300}, query=q)
        on_disk = sum(p.stat().st_size for p in tmp_path.glob("q*.json"))
        assert cache.stats()["bytes"] == on_disk <= 2048

    def test_nearest_matches_query_shape_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        q = self._query(steps=50)
        cache.put(q.cache_key(), {"max_height": 3}, query=q)
        # same shape, different steps: nearest() should find the entry
        assert self._query(steps=60).cache_key() != q.cache_key()
        assert cache.nearest(self._query(steps=60)) == {"max_height": 3}
        # different adversary: no match
        assert cache.nearest(
            self._query(steps=60, adversary="pre-sink")
        ) is None

    def test_stats_shape(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=123, max_entries=7)
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["max_bytes"] == 123 and stats["max_entries"] == 7


class TestResultCacheLru:
    """The in-memory LRU: boot rebuild, bounds, and the cost of a put."""

    def _query(self, **over):
        return ProvisionQuery.from_dict(
            {"topology": "path:16", "steps": 50, **over}
        )

    def _put(self, cache, **over):
        q = self._query(**over)
        response = {"query": q.canonical(), "max_height": q.steps}
        path = cache.put(q.cache_key(), response, query=q)
        return q.cache_key(), path

    def test_restart_rebuilds_entries_bytes_and_nearest(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [self._put(cache, steps=s)[0] for s in (10, 20, 30)]
        self._put(cache, steps=40, adversary="pre-sink")
        before = cache.stats()
        assert not (tmp_path / "index.json").exists()

        again = ResultCache(tmp_path)
        after = again.stats()
        assert after["entries"] == before["entries"] == 4
        assert after["bytes"] == before["bytes"] == sum(
            p.stat().st_size for p in tmp_path.glob("q*.json")
        )
        assert again.hits == again.misses == 0
        near = again.nearest(self._query(steps=999))
        assert near is not None
        assert near["query"]["adversary"] == "far-end"
        assert again.nearest(
            self._query(steps=999, adversary="pre-sink")
        )["max_height"] == 40
        assert again.nearest(self._query(adversary="seesaw")) is None
        assert again.get(keys[0]) == {
            "query": self._query(steps=10).canonical(), "max_height": 10,
        }

    def test_corrupt_or_foreign_artifact_at_boot_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        good, _ = self._put(cache, steps=10)
        bad, bad_path = self._put(cache, steps=20)
        bad_path.write_text(
            bad_path.read_text().replace(
                '"max_height": 20', '"max_height": 21'
            )
        )
        # foreign format, and a verifying artifact filed under a name
        # that is not its key's
        (tmp_path / "qforeign.json").write_text(
            json.dumps({"format": "other", "body": {}})
        )
        _, src = self._put(cache, steps=30)
        (tmp_path / "q0000.json").write_text(src.read_text())
        src.unlink()

        again = ResultCache(tmp_path)
        assert again.stats()["entries"] == 1
        assert again.stats()["bytes"] == (
            tmp_path / f"q{good[:40]}.json"
        ).stat().st_size
        assert again.get(bad) is None
        assert again.misses == 1
        assert again.get(good) is not None
        assert again.nearest(self._query(steps=999))["max_height"] == 10

    def test_legacy_index_json_is_ignored(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, _ = self._put(cache, steps=10)
        legacy = json.dumps({
            "format": "repro-store-index-v1",
            "clock": 9,
            "entries": {"qgone": {"bytes": 10**9, "last_used": 9}},
            "buckets": {},
        })
        (tmp_path / "index.json").write_text(legacy)

        again = ResultCache(tmp_path, max_bytes=10**6)
        assert again.stats()["entries"] == 1
        assert again.get(key) is not None
        self._put(again, steps=20)
        assert (tmp_path / "index.json").read_text() == legacy

    def test_evicts_by_count_and_a_hit_refreshes(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        a, a_path = self._put(cache, steps=10)
        b, b_path = self._put(cache, steps=20)
        assert cache.get(a) is not None  # refresh a: b is now the oldest
        c, c_path = self._put(cache, steps=30)
        assert not b_path.exists()
        assert a_path.exists() and c_path.exists()
        assert cache.stats()["entries"] == 2
        assert cache.get(b) is None
        self._put(cache, steps=40)  # a is now the oldest
        assert not a_path.exists() and c_path.exists()

    def test_evicts_by_bytes_oldest_first(self, tmp_path):
        probe = ResultCache(tmp_path / "probe")
        size = self._put(probe, steps=10)[1].stat().st_size
        cache = ResultCache(tmp_path / "c", max_bytes=2 * size + size // 2,
                            max_entries=None)
        a, a_path = self._put(cache, steps=10)
        b, b_path = self._put(cache, steps=20)
        assert cache.get(a) is not None  # b is now the oldest
        self._put(cache, steps=30)
        assert a_path.exists() and not b_path.exists()
        on_disk = sum(p.stat().st_size for p in cache.store.directory.glob(
            "q*.json"))
        assert cache.stats()["bytes"] == on_disk == 2 * size

    def test_boot_orders_by_mtime_and_applies_bounds(self, tmp_path):
        cache = ResultCache(tmp_path)
        paths = [self._put(cache, steps=s)[1] for s in (10, 20, 30)]
        # write order 10, 20, 30 but mtimes say 20 is the newest
        for i, path in zip((1, 3, 2), paths):
            os.utime(path, ns=(i * 10**9, i * 10**9))
        again = ResultCache(tmp_path, max_entries=2)
        assert not paths[0].exists()
        assert paths[1].exists() and paths[2].exists()
        assert again.nearest(self._query(steps=999))["max_height"] == 20

    def test_vanished_artifact_is_a_miss_and_forgotten(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, path = self._put(cache, steps=10)
        path.unlink()
        assert cache.get(key) is None
        assert cache.stats()["entries"] == 0
        assert cache.stats()["bytes"] == 0

    def test_put_is_one_write_and_no_directory_scan(
        self, tmp_path, monkeypatch
    ):
        import repro.service.cache as cache_mod

        cache = ResultCache(tmp_path, max_entries=3)
        key, _ = self._put(cache, steps=1)

        writes = []
        write = cache_mod.atomic_write_bytes

        def counting_write(path, data):
            writes.append(path)
            return write(path, data)

        def no_scan(*args, **kwargs):
            raise AssertionError("directory scanned")

        monkeypatch.setattr(cache_mod, "atomic_write_bytes", counting_write)
        monkeypatch.setattr(Path, "glob", no_scan)
        monkeypatch.setattr(Path, "iterdir", no_scan)
        monkeypatch.setattr(os, "scandir", no_scan)
        monkeypatch.setattr(os, "listdir", no_scan)
        for steps in range(2, 9):  # evicts from the fourth put on
            self._put(cache, steps=steps)
            assert len(writes) == steps - 1
        assert cache.get(key) is None  # evicted
        assert cache.stats()["entries"] == 3
        hit = self._query(steps=8).cache_key()
        assert cache.get(hit) is not None
        assert len(writes) == 7  # a hit writes nothing


# ---------------------------------------------------------------------------
class TestWorker:
    def test_path_provision_is_deterministic(self):
        wd = self._wd()
        a, b = execute_query(wd), execute_query(wd)
        a.pop("compute_s"), b.pop("compute_s")
        assert a == b
        assert a["degraded"] is False
        assert a["max_height"] >= 1
        assert a["bound"] == pytest.approx(7.0)  # log2(16) + 3

    def test_finite_buffers_account_losses(self):
        out = execute_query(self._wd(buffer_capacity=1))
        assert out["injected"] == (
            out["delivered"] + out["in_flight"] + out["dropped"]
        )

    def test_pressure_on_a_tree_is_answered(self):
        out = execute_query(self._wd(topology="binary:10",
                                     adversary="pressure", steps=400))
        assert "error" not in out
        assert out["kind"] == "provision" and out["degraded"] is False
        assert out["n"] == 2047 and out["steps"] == 400
        assert 1 <= out["max_height"] <= out["bound"]
        assert out["injected"] == 400

    def test_deterministic_error_is_reported_not_raised(self):
        out = execute_query({"kind": "experiment", "experiment": "NOPE",
                             "preset": "quick"})
        assert "error" in out

    @staticmethod
    def _wd(**over):
        q = ProvisionQuery.from_dict(
            {"topology": "path:16", "steps": 200, **over}
        )
        return q.to_worker_dict()
