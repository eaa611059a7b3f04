"""Tests for the HDFS-stand-in blob store and checkpoint manager."""

import pytest

from repro.control import BlobStore, CheckpointManager
from repro.core.errors import ConfigurationError


class TestBlobStore:
    def test_put_get(self):
        store = BlobStore()
        store.put("x", 100.0, at=1.0)
        meta = store.get("x")
        assert meta.version == 1 and meta.size_bytes == 100.0

    def test_versions_increment(self):
        store = BlobStore()
        store.put("x", 1.0)
        store.put("x", 2.0)
        assert store.latest_version("x") == 2
        assert store.get("x").size_bytes == 2.0
        assert store.get("x", version=1).size_bytes == 1.0

    def test_missing_key(self):
        with pytest.raises(KeyError):
            BlobStore().get("nope")

    @pytest.mark.parametrize("version", [0, -1, 3])
    def test_version_outside_index_rejected(self, version):
        store = BlobStore()
        store.put("x", 1.0)
        store.put("x", 2.0)
        with pytest.raises(KeyError, match=f"x has no version {version}"):
            store.get("x", version)
        assert store.reads == 0 and store.bytes_read == 0.0

    def test_traffic_accounting(self):
        store = BlobStore()
        store.put("x", 10.0)
        store.put("y", 5.0)
        store.get("x")
        assert store.bytes_written == 15.0
        assert store.bytes_read == 10.0
        assert store.writes == 2 and store.reads == 1

    def test_read_time(self):
        store = BlobStore(read_bandwidth=100.0)
        assert store.read_time(50.0) == pytest.approx(0.5)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            BlobStore().put("x", -1.0)

    def test_contains(self):
        store = BlobStore()
        assert "x" not in store
        store.put("x", 1.0)
        assert "x" in store


class TestCheckpointManager:
    def test_interval_policy(self):
        store = BlobStore()
        mgr = CheckpointManager(store, job_id=0, model_bytes=100.0, interval=3)
        saved = [
            r for r in range(9) if mgr.maybe_checkpoint(r) is not None
        ]
        assert saved == [2, 5, 8]  # after rounds 3, 6, 9
        assert store.latest_version(mgr.path) == 3

    def test_final_checkpoint_always_saves(self):
        store = BlobStore()
        mgr = CheckpointManager(store, job_id=1, model_bytes=50.0, interval=100)
        mgr.final_checkpoint(at=9.0)
        assert store.latest_version(mgr.path) == 1

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            CheckpointManager(BlobStore(), job_id=0, model_bytes=1.0,
                              interval=0)

    def test_paths_namespaced_by_job(self):
        store = BlobStore()
        a = CheckpointManager(store, job_id=0, model_bytes=1.0)
        b = CheckpointManager(store, job_id=1, model_bytes=1.0)
        assert a.path != b.path
