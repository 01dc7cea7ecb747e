"""HLI file I/O: save/load the binary format, load-on-demand per unit.

The paper's back-end reads the HLI "on demand as GCC compiles a program
function by function" (Section 3.2.1).  :class:`HLIFileReader` mirrors
that: it indexes entry offsets up front and decodes one unit's entry only
when asked, so a back-end never holds the whole HLI in memory.
"""

from __future__ import annotations

import os

from .binio import MAGIC, HLIFormatError, _Reader, _decode_entry, encode_hli
from .tables import HLIEntry, HLIFile


def save_hli(hli: HLIFile, path: str | os.PathLike) -> int:
    """Write the binary HLI file; returns the byte count."""
    data = encode_hli(hli)
    with open(path, "wb") as f:
        f.write(data)
    return len(data)


def load_hli(path: str | os.PathLike) -> HLIFile:
    """Read a complete binary HLI file."""
    with open(path, "rb") as f:
        data = f.read()
    from .binio import decode_hli

    return decode_hli(data)


class HLIFileReader:
    """Load-on-demand reader over one binary HLI file."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        r = _Reader(data)
        if r.take(4) != MAGIC:
            raise HLIFormatError("bad magic")
        self.source_filename = r.string()
        n_entries = r.u16()
        #: unit name -> byte offset of its entry
        self._offsets: dict[str, int] = {}
        self._cache: dict[str, HLIEntry] = {}
        for _ in range(n_entries):
            start = r.pos
            name = r.string()
            self._offsets[name] = start
            # Skip the remainder of the entry by decoding it cheaply once;
            # positions are what we keep, entries are dropped.
            r.pos = start
            _decode_entry(r)

    @classmethod
    def open(cls, path: str | os.PathLike) -> "HLIFileReader":
        with open(path, "rb") as f:
            return cls(f.read())

    def unit_names(self) -> list[str]:
        return list(self._offsets)

    def entry(self, unit_name: str) -> HLIEntry:
        """Decode (and cache) one unit's HLI entry on demand."""
        cached = self._cache.get(unit_name)
        if cached is not None:
            return cached
        offset = self._offsets.get(unit_name)
        if offset is None:
            raise KeyError(unit_name)
        r = _Reader(self.data)
        r.pos = offset
        entry = _decode_entry(r)
        self._cache[unit_name] = entry
        return entry
