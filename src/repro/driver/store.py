"""The session cache's artifact store: a memory LRU over a sharded disk tier.

:class:`ArtifactStore` keeps opaque blobs by hex key.  The memory tier
is an LRU of at most ``max_memory_entries`` blobs.  The disk tier, under
``cache_dir`` when one is set, is sharded git-object style
(``ab/cdef….hlic``: the key's first two hex digits name the directory),
written atomically (a temp file renamed into place) and bounded by
``max_disk_bytes``: the least recently used entries go first, and a
read refreshes its file's mtime.

The store never looks inside a blob; the session verifies what it reads
and evicts what fails.  One reentrant lock, ``lock``, guards the memory
LRU, the disk sweep and the :class:`~repro.driver.session.SessionStats`
the store counts its evictions into; the session takes it for its own
counters.  Single-entry disk reads and writes run outside the lock, so
two threads may store one key at once: wasteful but correct, since
stores are idempotent.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .session import SessionStats

__all__ = ["ArtifactStore"]

#: Distinguishes concurrent same-key temp files within one process (the
#: pid alone is not enough once threads share a store).
_tmp_ids = itertools.count(1)


class ArtifactStore:
    """Blobs by key in a memory LRU and an optional sharded disk tier."""

    def __init__(
        self,
        cache_dir: Optional[str | os.PathLike],
        max_memory_entries: int,
        max_disk_bytes: Optional[int],
        stats: "SessionStats",
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.max_memory_entries = max(0, max_memory_entries)
        self.max_disk_bytes = max_disk_bytes
        self.stats = stats
        #: guards ``_memory``, ``stats`` and the disk sweep
        self.lock = threading.RLock()
        self._memory: OrderedDict[str, bytes] = OrderedDict()

    def get(self, key: str) -> tuple[Optional[bytes], str]:
        """``(blob, tier)``, tier ``"memory"`` or ``"disk"``; ``(None, "")``
        on a miss.  A disk hit refreshes its file's mtime (its recency
        for :meth:`sweep`) and is copied into memory."""
        with self.lock:
            blob = self._memory.get(key)
            if blob is not None:
                self._memory.move_to_end(key)
                return blob, "memory"
        path = self._path(key)
        if path is None:
            return None, ""
        try:
            blob = path.read_bytes()
        except OSError:
            return None, ""
        try:
            os.utime(path)
        except OSError:
            pass
        self._remember(key, blob)
        return blob, "disk"

    def put(self, key: str, blob: bytes) -> None:
        """Store ``blob`` on disk, then in memory, then sweep the disk
        tier down to budget, keeping ``key``.  A failed disk write (a
        full or read-only cache dir) leaves no temp file behind and
        never fails the caller: the blob stays in memory only."""
        path = self._path(key)
        if path is not None:
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}.{next(_tmp_ids)}")
            try:
                path.parent.mkdir(exist_ok=True)
                tmp.write_bytes(blob)
                os.replace(tmp, path)
            except OSError:
                tmp.unlink(missing_ok=True)
                path = None
        # Into memory only after the disk write: a thread that finds a
        # manifest in memory looks up its function blobs next, and any
        # the LRU has dropped by then must already be on disk.
        self._remember(key, blob)
        if path is not None:
            self.sweep(keep=key)

    def contains(self, key: str) -> bool:
        """Whether either tier holds ``key``; reads no blob."""
        with self.lock:
            if key in self._memory:
                return True
        path = self._path(key)
        return path is not None and path.is_file()

    def evict(self, key: str) -> None:
        """Drop ``key`` from both tiers."""
        with self.lock:
            self._memory.pop(key, None)
        path = self._path(key)
        if path is not None:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def sweep(self, keep: Optional[str] = None) -> None:
        """Evict least-recently-used disk entries, never ``keep``'s, until
        the tier fits ``max_disk_bytes``.

        Serialized under the lock so two threads finishing stores at
        once do not race the scan and double-evict.
        """
        if self.cache_dir is None or self.max_disk_bytes is None:
            return
        kept = str(self._path(keep)) if keep is not None else None
        with self.lock:
            entries = []
            total = 0
            for p in self.cache_dir.rglob("*.hlic"):
                try:
                    st = p.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime, str(p), st.st_size))
                total += st.st_size
            if total <= self.max_disk_bytes:
                return
            for _, name, size in sorted(entries):
                if name == kept:
                    continue
                try:
                    os.unlink(name)
                except OSError:
                    continue
                total -= size
                self.stats.count("disk_evict")
                if total <= self.max_disk_bytes:
                    return

    def _path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / key[:2] / f"{key[2:]}.hlic"

    def _remember(self, key: str, blob: bytes) -> None:
        if self.max_memory_entries == 0:
            return
        with self.lock:
            self._memory[key] = blob
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                self.stats.count("evict")
