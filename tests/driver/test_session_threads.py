"""Concurrent use of one CompilationSession from many threads.

A session is safe to share between threads, so its cache tiers and
stats counters must survive concurrent mutation.  These tests hammer
one session from many threads and assert the invariants a shared
session promises: stats add up exactly, results are alpha-equivalent
to a serial compile, and nothing raises :class:`CacheCorruption`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.difftest.incremental import canonical_rtl
from repro.driver.session import CompilationSession
from tests.conftest import FIG2_SOURCE, SIMPLE_MAIN

THIRD_SOURCE = """\
int acc;
int step(int x) { acc = acc + x; return acc; }
int main() {
  int i;
  for (i = 0; i < 5; i = i + 1) step(i);
  return acc;
}
"""

SOURCES = [
    (FIG2_SOURCE, "fig2.c"),
    (SIMPLE_MAIN, "simple.c"),
    (THIRD_SOURCE, "third.c"),
]


def _hammer(sess, rounds, threads):
    """Compile every source ``rounds`` times from ``threads`` threads."""
    jobs = [(src, name) for _ in range(rounds) for (src, name) in SOURCES]
    errors = []
    digests = {name: set() for _, name in SOURCES}
    barrier = threading.Barrier(threads)
    it = iter(jobs)
    lock = threading.Lock()

    def worker():
        barrier.wait()  # maximize overlap on the cold path
        while True:
            with lock:
                job = next(it, None)
            if job is None:
                return
            src, name = job
            try:
                comp = sess.compile(src, name)
                canon = tuple(
                    (fn, tuple(lines))
                    for fn, lines in sorted(canonical_rtl(comp.rtl).items())
                )
                with lock:
                    digests[name].add(canon)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                with lock:
                    errors.append(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _ in range(threads):
            pool.submit(worker)
    return errors, digests, len(jobs)


class TestConcurrentSession:
    def test_stats_add_up_and_results_agree(self, tmp_path):
        sess = CompilationSession(cache_dir=tmp_path / "cache")
        errors, digests, total = _hammer(sess, rounds=8, threads=8)

        assert not errors, errors[:3]
        s = sess.stats
        # Every compile is exactly one hit or one miss — no lost updates.
        assert s.hits_memory + s.hits_disk + s.misses == total
        # The cold path may be computed by more than one thread (the lock
        # is not held across pipeline work), but at least once per source.
        assert s.misses >= len(SOURCES)
        assert s.hits_memory + s.hits_disk > 0

        # Alpha-equivalent RTL regardless of which thread compiled it:
        # concurrent register allocation must not leak across functions.
        for name, seen in digests.items():
            assert len(seen) == 1, f"{name}: {len(seen)} distinct RTL shapes"

    def test_serial_and_threaded_rtl_match(self, tmp_path):
        serial = CompilationSession(cache_dir=tmp_path / "serial")
        want = {
            name: sorted(canonical_rtl(serial.compile(src, name).rtl).items())
            for src, name in SOURCES
        }

        sess = CompilationSession(cache_dir=tmp_path / "threaded")
        errors, digests, _ = _hammer(sess, rounds=4, threads=6)
        assert not errors, errors[:3]
        for src, name in SOURCES:
            (canon,) = digests[name]
            assert [(fn, list(lines)) for fn, lines in canon] == want[name]

    def test_memory_eviction_under_contention(self, tmp_path):
        # A one-entry memory LRU forces constant eviction + disk refills
        # while threads race; the OrderedDict must never corrupt.
        sess = CompilationSession(
            cache_dir=tmp_path / "cache", max_memory_entries=1
        )
        errors, digests, total = _hammer(sess, rounds=6, threads=8)
        assert not errors, errors[:3]
        s = sess.stats
        assert s.hits_memory + s.hits_disk + s.misses == total
        assert s.corrupt == 0
        for name, seen in digests.items():
            assert len(seen) == 1

    def test_blobs_reach_disk_before_memory(self, tmp_path, monkeypatch):
        # The race behind the test above, made deterministic: a blob
        # visible in the memory tier before its disk write can be
        # evicted from a small LRU first, and a thread restoring a
        # manifest then finds neither copy (counted as corrupt).
        sess = CompilationSession(cache_dir=tmp_path / "cache")
        in_store = []
        replace = os.replace

        def checked(tmp, path):
            # the store renames each entry into place (``ab/cdef….hlic``,
            # shard dir + stem = key): until then no tier may hold it
            in_store.append(sess.store.contains(Path(path).parent.name + Path(path).stem))
            replace(tmp, path)

        monkeypatch.setattr(os, "replace", checked)
        sess.compile(FIG2_SOURCE, "fig2.c")
        assert in_store and not any(in_store)
        assert len(in_store) == len(list((tmp_path / "cache").rglob("*.hlic")))

    def test_disk_budget_enforced_under_contention(self, tmp_path):
        # Tight disk budget: concurrent stores race with LRU eviction.
        sess = CompilationSession(
            cache_dir=tmp_path / "cache", max_disk_bytes=16 * 1024
        )
        errors, _, total = _hammer(sess, rounds=4, threads=6)
        assert not errors, errors[:3]
        s = sess.stats
        assert s.hits_memory + s.hits_disk + s.misses == total
        assert s.corrupt == 0
