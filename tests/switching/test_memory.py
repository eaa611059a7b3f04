"""Tests for the speculative GPU memory manager."""

import pytest

from repro.core.errors import MemoryModelError
from repro.switching import GpuMemoryManager

GB = 1e9


@pytest.fixture
def mgr():
    return GpuMemoryManager(capacity_bytes=10 * GB)


class TestBasicLifecycle:
    def test_first_task_misses(self, mgr):
        d = mgr.begin_task("resnet", 3 * GB)
        assert not d.retained_hit
        assert mgr.used_bytes == 3 * GB
        mgr.end_task(retain_bytes=1 * GB)
        assert mgr.retained_bytes == 1 * GB

    def test_rerun_hits_retention(self, mgr):
        mgr.begin_task("resnet", 3 * GB)
        mgr.end_task(retain_bytes=1 * GB)
        d = mgr.begin_task("resnet", 3 * GB)
        assert d.retained_hit
        assert mgr.hits == 1

    def test_different_model_misses(self, mgr):
        mgr.begin_task("resnet", 3 * GB)
        mgr.end_task(retain_bytes=1 * GB)
        d = mgr.begin_task("bert", 3 * GB)
        assert not d.retained_hit
        assert mgr.is_resident("resnet")  # still fits alongside

    def test_double_begin_rejected(self, mgr):
        mgr.begin_task("a", 1 * GB)
        with pytest.raises(MemoryModelError):
            mgr.begin_task("b", 1 * GB)

    def test_end_without_begin_rejected(self, mgr):
        with pytest.raises(MemoryModelError):
            mgr.end_task()

    def test_oversized_task_rejected(self, mgr):
        with pytest.raises(MemoryModelError):
            mgr.begin_task("huge", 11 * GB)


class TestEviction:
    def test_oldest_evicted_first(self, mgr):
        for name in ("a", "b", "c"):
            mgr.begin_task(name, 3 * GB)
            mgr.end_task(retain_bytes=3 * GB)
        # 9 GB retained; a 4 GB task forces evicting "a" (oldest).
        d = mgr.begin_task("d", 4 * GB)
        assert "a" in d.evicted
        assert not mgr.is_resident("a")
        assert mgr.is_resident("c")

    def test_next_task_outranks_retained(self, mgr):
        for name in ("a", "b", "c"):
            mgr.begin_task(name, 3 * GB)
            mgr.end_task(retain_bytes=3 * GB)
        d = mgr.begin_task("big", 9.5 * GB)
        assert set(d.evicted) == {"a", "b", "c"}
        assert mgr.used_bytes == pytest.approx(9.5 * GB)

    def test_capacity_never_exceeded(self, mgr):
        import itertools
        names = itertools.cycle(["a", "b", "c", "d", "e"])
        for _ in range(40):
            mgr.begin_task(next(names), 4 * GB)
            assert mgr.used_bytes <= mgr.capacity_bytes + 1e-6
            mgr.end_task(retain_bytes=2.5 * GB)
            assert mgr.retained_bytes <= mgr.capacity_bytes + 1e-6

    def test_retain_larger_than_capacity_skipped(self):
        m = GpuMemoryManager(capacity_bytes=2 * GB)
        m.begin_task("a", 2 * GB)
        m.end_task(retain_bytes=3 * GB)  # silently not retained
        assert not m.is_resident("a")


class TestRetentionDisabled:
    def test_never_hits(self):
        m = GpuMemoryManager(capacity_bytes=10 * GB, retention_enabled=False)
        for _ in range(3):
            d = m.begin_task("a", 1 * GB)
            assert not d.retained_hit
            m.end_task(retain_bytes=1 * GB)
        assert m.retained_bytes == 0.0
        assert m.hit_rate == 0.0


class TestFlush:
    def test_flush_clears(self, mgr):
        mgr.begin_task("a", 1 * GB)
        mgr.end_task(retain_bytes=1 * GB)
        mgr.flush()
        assert mgr.retained_bytes == 0.0

    def test_flush_while_active_rejected(self, mgr):
        mgr.begin_task("a", 1 * GB)
        with pytest.raises(MemoryModelError):
            mgr.flush()
