"""ArtifactStore: the session cache's memory LRU over a sharded disk tier."""

from __future__ import annotations

import errno
import os
from pathlib import Path

import pytest

from repro import compile_source
from repro.difftest.incremental import canonical_rtl
from repro.driver.session import CompilationSession, SessionStats
from repro.driver.store import ArtifactStore
from tests.conftest import FIG2_SOURCE

KEYS = [f"{i:02x}" + "ab" * 31 for i in range(4)]


def _store(cache_dir, max_disk_bytes=None, max_memory_entries=16) -> ArtifactStore:
    return ArtifactStore(cache_dir, max_memory_entries, max_disk_bytes, SessionStats())


def _file(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / f"{key[2:]}.hlic"


def _age(cache_dir: Path, keys) -> None:
    """Give ``keys``' files strictly increasing mtimes in the past, oldest
    first, so recency never hangs on the file system's clock."""
    for i, key in enumerate(keys):
        os.utime(_file(cache_dir, key), (1_000_000 + i, 1_000_000 + i))


@pytest.fixture
def full_disk(monkeypatch):
    """Every disk write writes half its bytes, then fails with ENOSPC
    (a read-only ``chmod`` would not stop root)."""

    def write_half(self, data):
        with open(self, "wb") as f:
            f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    monkeypatch.setattr(Path, "write_bytes", write_half)


class TestFailedDiskWrite:
    def test_put_leaves_no_temp_file_and_keeps_the_blob_in_memory(
        self, tmp_path, full_disk
    ):
        store = _store(tmp_path)
        store.put(KEYS[0], b"blob")
        assert not list(tmp_path.rglob("*.tmp*"))
        assert not _file(tmp_path, KEYS[0]).exists()
        assert store.get(KEYS[0]) == (b"blob", "memory")

    def test_session_compile_over_a_full_disk_is_correct(self, tmp_path, full_disk):
        sess = CompilationSession(cache_dir=tmp_path)
        cold = sess.compile(FIG2_SOURCE, "fig2.c")
        warm = sess.compile(FIG2_SOURCE, "fig2.c")
        assert not list(tmp_path.rglob("*.tmp*"))
        assert not list(tmp_path.rglob("*.hlic"))
        assert (cold.cache_state, warm.cache_state) == ("cold", "memory")
        want = canonical_rtl(compile_source(FIG2_SOURCE, "fig2.c").rtl)
        assert canonical_rtl(cold.rtl) == canonical_rtl(warm.rtl) == want


class TestDiskRecency:
    def test_disk_hit_lands_in_memory_and_counts_as_recent(self, tmp_path):
        blob = b"x" * 100
        filler = _store(tmp_path)
        for key in KEYS[:3]:
            filler.put(key, blob)
        _age(tmp_path, KEYS[:3])
        store = _store(tmp_path, max_disk_bytes=3 * len(blob))
        assert store.get(KEYS[0]) == (blob, "disk")
        assert store.get(KEYS[0]) == (blob, "memory")
        # KEYS[0] was written first but read last: KEYS[1] is the LRU entry
        store.put(KEYS[3], blob)
        left = sorted(k for k in KEYS if _file(tmp_path, k).exists())
        assert left == [KEYS[0], KEYS[2], KEYS[3]]
        assert store.stats.disk_evictions == 1


class TestContains:
    def test_contains_reads_no_blob(self, tmp_path, monkeypatch):
        _store(tmp_path).put(KEYS[0], b"blob")
        memory_only = _store(None)
        memory_only.put(KEYS[1], b"blob")

        def no_reads(self):
            raise AssertionError(f"read {self}")

        monkeypatch.setattr(Path, "read_bytes", no_reads)
        store = _store(tmp_path)
        assert store.contains(KEYS[0])
        assert not store.contains(KEYS[1])
        assert memory_only.contains(KEYS[1])
        assert not memory_only.contains(KEYS[0])


class TestSweep:
    def test_sweep_keeps_the_entry_just_written(self, tmp_path):
        store = _store(tmp_path, max_disk_bytes=1)
        store.put(KEYS[0], b"first")
        assert _file(tmp_path, KEYS[0]).exists()
        store.put(KEYS[1], b"second")
        assert not _file(tmp_path, KEYS[0]).exists()
        assert _file(tmp_path, KEYS[1]).exists()
        store.sweep(keep=KEYS[1])
        assert _file(tmp_path, KEYS[1]).exists()
        assert store.stats.disk_evictions == 1
