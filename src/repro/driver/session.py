"""Compilation sessions: per-function artifact caching + parallel fan-out.

The paper's whole premise is *separate compilation*: the front end
writes each source file's HLI once and the back end re-uses it across
builds (Section 3.2.1).  A :class:`CompilationSession` exercises that
story end-to-end — and, since the HLI is a *per-unit* format (one entry
per function), the cache is keyed **per function**:

* a **manifest** blob per (source, filename, front-end fingerprint) —
  a fixed-layout key table (function name, front-end key, frame layout)
  plus the file-level leftovers (globals layout, init data).  The
  manifest holds **no function bodies**: a warm compile restores every
  function straight from its per-function blob, so the manifest decode
  is a few key-table reads, not a whole-program deserialization;
* a **front-end blob** per function, keyed by the chained dependency
  fingerprint of :mod:`repro.driver.incremental` (own span + referenced
  symbol facts + transitive callee REF/MOD), holding the function's HLI
  entry (via :mod:`repro.hli.binio`) and its pristine RTL;
* a **back-end blob** per function, keyed by the front-end key plus the
  back-end pass fingerprint and scheduling knobs, holding the
  optimized+scheduled RTL, the maintained HLI entry and the mapping /
  scheduling statistics — so a warm function skips the back end
  *without ever touching the front-end tier*.

Blobs carry what the back end reads — HLI entries and RTL — and none of
the front end's analysis objects (AST, symbols, regions, items): the
paper's back end reads the HLI file and nothing else (Figure 3).
Session results do not hold them either: ``Compilation.frontend``
re-runs parse and HLI construction from the compilation's own source
(and linked ``external_effects``) the first time it is read.

Every persisted payload beyond the raw binio tables (RTL functions,
their statistics records, the manifest's file-level chunk) rides the
:mod:`repro.binfmt` codec, never pickle.  It constructs only the records
its schema declares (:mod:`repro.binfmt.types`), so a corrupted or
malicious blob can only ever produce those or a clean
:class:`CacheCorruption`.  The schema's fingerprint is stamped into
every frame header *and* folded into every cache key, so a schema
change retires stale blobs by eviction instead of decode errors.  (The
:class:`Compilation` results this process's own forked children hand
back are pickled; they never reach the disk tier.)

On a manifest miss the session parses (or, in whole-program mode, takes
over the link phase's parse), fingerprints every function, and
splices cached functions around the edited ones — probing the back-end
tier *first* (a function whose fingerprint and knobs both match needs
no front-end restore at all), then the front-end tier, rebuilding only
the invalidated rest.  ``Compilation.cache_state`` reports
``"incremental"`` for such mixed compiles and
``Compilation.fn_cache_states`` breaks the story down per function.

Cache entries are **verified, not trusted**: a checksum guards every
blob, HLI payloads must decode through the real binio reader, and any
failure (truncation, bit-flips, version skew, codec-fingerprint skew)
degrades to a cold build — never a crash, never wrong code.  Every
read goes through one verified fetch, which evicts what fails.  The
tiers themselves — the memory LRU, the sharded disk tier with its
``max_disk_bytes`` budget, and the one lock that guards them and the
counters — live in :mod:`repro.driver.store`.

``compile_partitions`` splits partitions of jobs between this process
and :func:`parallel_map`, the driver's one process fan-out: jobs whose
manifest is already cached compile here, and so does one cold partition
in every ``max_workers`` (the first, which callers make the heaviest);
the rest go to ``max_workers - 1`` forked children, which share the
on-disk tier.  Every compile, here or in a child, reuses the analyses
this process already holds: children inherit them at the fork.  If a
child dies the batch's pooled jobs recompile here.  ``compile_many`` is
the same dispatcher over one-job partitions.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
import sys
import threading
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

from .. import binfmt as _binfmt
from ..analysis.builder import FrontEndInfo
from ..backend.ddg import DepStats
from ..backend.lowering import lower_program
from ..backend.mapping import MapStats
from ..backend.rtl import RTLFunction, RTLProgram
from ..hli.binio import decode_entry, encode_entry
from ..hli.query import HLIQuery
from ..hli.tables import HLIEntry, HLIFile
from ..obs import enabled_scope
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .compile import Compilation, CompileOptions
from .passes import (
    FRONTEND_FINGERPRINT,
    FRONTEND_PASSES,
    PassContext,
    PipelineStats,
    backend_fingerprint,
    run_backend,
)
from .store import ArtifactStore

if TYPE_CHECKING:
    from ..linker.unit import UnitAnalysis

__all__ = [
    "CacheCorruption",
    "CompilationSession",
    "CompileJob",
    "SessionStats",
    "cache_key",
    "compile_many",
    "default_session",
    "parallel_map",
    "resolve_workers",
]


@dataclass(frozen=True)
class CompileJob:
    """One ``compile_many`` / ``compile_partitions`` work item: the
    arguments of one :meth:`CompilationSession.compile`.

    ``analysis`` is the unit's link-phase
    :class:`~repro.linker.unit.UnitAnalysis`: a manifest miss compiles
    on its checked AST, symbols and points-to result instead of parsing
    again (see :meth:`CompilationSession.compile`).  Jobs reach
    :meth:`CompilationSession.compile_partitions`' forked children
    through memory inherited at the fork, never by pickle, so the
    analysis goes along.
    """

    source: str
    filename: str = "<input>"
    options: Optional[CompileOptions] = None
    external_effects: Optional[dict] = None
    extra_salt: str = ""
    analysis: Optional["UnitAnalysis"] = field(
        default=None, compare=False, repr=False
    )

#: Bumped whenever the blob layout or any serialized artifact changes.
CACHE_MAGIC = b"HLIC"
CACHE_VERSION = 6  # 6: binfmt carries only its declared schema

#: First 8 bytes of the binfmt schema fingerprint, stamped into every
#: frame header: a schema change (new field, reordered record) makes every
#: existing blob *evict* instead of mis-decoding.  The full fingerprint
#: is also folded into the cache keys, so skew normally shows up as a
#: clean miss; the header check catches key-less probes and hand-edited
#: stores.
_CODEC_FP = bytes.fromhex(_binfmt.fingerprint()[:16])

#: Blob kind tags (part of the frame, so a key collision across kinds
#: can never deserialize through the wrong decoder).
_TAG_MANIFEST = b"MF"
_TAG_FE = b"FE"
_TAG_BE = b"BE"


class CacheCorruption(Exception):
    """A cache entry failed verification (checksum, decode, or shape)."""


@dataclass
class SessionStats:
    """Cache effectiveness counters for one session.

    The first six counters are **file-level** (manifest tier), keeping
    PR-4 semantics: one compile is one hit or one miss.  The ``fn_*``
    and ``be_*`` counters are **function-level**: ``fn_*`` counts
    front-end entries (HLI + pristine RTL), ``be_*`` counts back-end
    entries (optimized + scheduled RTL).  Function-level counters move
    on *every* compile — a manifest hit restores each function from the
    back-end tier first, so a fully warm compile shows one manifest hit
    plus one ``be_hits_*`` per function (and no ``fn_*`` traffic at
    all).  ``fe_decodes``/``be_decodes`` count successful blob decodes,
    read-only aliases of ``fn_hits``/``be_hits`` since every hit is
    one; ``frontend_decodes`` counts front-end re-runs — a session's
    compilation re-parses and rebuilds its HLI only when a consumer
    actually reads ``Compilation.frontend``, so it stays **zero** on
    the warm path.
    """

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    corrupt: int = 0
    evictions: int = 0
    stores: int = 0
    # -- function-level (front-end entries) --
    fn_hits_memory: int = 0
    fn_hits_disk: int = 0
    fn_misses: int = 0
    fn_stores: int = 0
    # -- function-level (back-end entries) --
    be_hits_memory: int = 0
    be_hits_disk: int = 0
    be_misses: int = 0
    be_stores: int = 0
    #: disk-tier entries removed by the ``max_disk_bytes`` LRU budget
    disk_evictions: int = 0
    #: lazy front ends re-run on first ``Compilation.frontend`` access
    frontend_decodes: int = 0

    def count(self, event: str, tier: Optional[str] = None) -> None:
        """Count one cache event: its counter (``<counter>_<tier>`` for
        hits) and its ``session.cache.<event>[.<tier>]`` metric.  Callers
        hold the store's lock."""
        name = _COUNTERS[event] + (f"_{tier}" if tier else "")
        setattr(self, name, getattr(self, name) + 1)
        _metrics.inc("session.cache." + event, tier)

    def to_dict(self) -> dict:
        return {**asdict(self), "fe_decodes": self.fe_decodes, "be_decodes": self.be_decodes}

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    @property
    def fn_hits(self) -> int:
        return self.fn_hits_memory + self.fn_hits_disk

    @property
    def be_hits(self) -> int:
        return self.be_hits_memory + self.be_hits_disk

    fe_decodes = fn_hits
    be_decodes = be_hits


#: cache event (its ``session.cache.*`` metric) -> the counter it bumps
_COUNTERS = {
    "hit": "hits",
    "miss": "misses",
    "corrupt": "corrupt",
    "evict": "evictions",
    "disk_evict": "disk_evictions",
    "fn_hit": "fn_hits",
    "fn_miss": "fn_misses",
    "be_hit": "be_hits",
    "be_miss": "be_misses",
}


# -- content-addressed keys ----------------------------------------------------


def cache_key(source: str, filename: str, salt: str = "") -> str:
    """Manifest key = hash of source + filename + front-end fingerprint.

    Back-end knobs (dependence mode, latency table, optimization flags)
    are deliberately absent: the front-end artifacts do not depend on
    them, which is exactly what lets ``timing``'s gcc-vs-hli double
    compile share one parse.  Bumping :data:`CACHE_VERSION` retires
    stale entries — and so does any change to the binfmt schema, whose
    fingerprint is folded in here.

    ``salt`` folds external state the source cannot express into the
    key — the whole-program driver passes a fingerprint of the linked
    cross-module summaries, so per-file and whole-program artifacts for
    the same source never collide (and relinking retires stale entries).
    """
    return _digest(b"repro-hli-cache", FRONTEND_FINGERPRINT, salt, filename, source)


def _digest(tag: bytes, *parts: str) -> str:
    """SHA-256 over ``tag``, ``CACHE_VERSION``, the binfmt schema
    fingerprint and ``parts``, each part after a NUL."""
    h = hashlib.sha256()
    h.update(tag + b"\x00")
    h.update(struct.pack("<H", CACHE_VERSION))
    h.update(_binfmt.fingerprint().encode("ascii"))
    for part in parts:
        h.update(b"\x00")
        h.update(part.encode("utf-8", "surrogatepass"))
    return h.hexdigest()


def _fe_salt(filename: str, salt: str = "") -> str:
    """Function-independent part of every per-function front-end key."""
    return (
        f"{CACHE_VERSION}:{_binfmt.fingerprint()}:"
        f"{FRONTEND_FINGERPRINT}:{filename}:{salt}"
    )


def _be_key(fe_key: str, opts: CompileOptions) -> str:
    """Back-end key: front-end key + every knob the back end reads.

    The per-function passes the options turn on are folded in; ``lint``
    is not (it produces no per-function artifact, so toggling it must
    not duplicate entries).
    """
    return _digest(
        b"repro-fn-be",
        fe_key,
        backend_fingerprint(opts),
        opts.mode.value,
        str(opts.unroll),
        getattr(opts.latency, "__name__", repr(opts.latency)),
    )


# -- blob framing / verified decode -------------------------------------------
#
# Frame layout (48-byte header, everything little-endian):
#
#   offset  size  field
#        0     4  magic ``HLIC``
#        4     2  CACHE_VERSION (``<H``)
#        6     8  binfmt schema fingerprint (first 8 raw bytes)
#       14     2  kind tag (``MF`` / ``FE`` / ``BE``)
#       16    32  SHA-256 of the payload
#       48     …  payload
#
# The fingerprint sits *outside* the checksum-covered payload: a codec
# mismatch is detected before any payload bytes are interpreted.


def _frame(tag: bytes, payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).digest()
    return (
        CACHE_MAGIC
        + struct.pack("<H", CACHE_VERSION)
        + _CODEC_FP
        + tag
        + digest
        + payload
    )


def _unframe(tag: bytes, data: bytes) -> bytes:
    if data[:4] != CACHE_MAGIC:
        raise CacheCorruption("bad magic")
    (version,) = struct.unpack("<H", data[4:6])
    if version != CACHE_VERSION:
        raise CacheCorruption(f"cache version {version} != {CACHE_VERSION}")
    if data[6:14] != _CODEC_FP:
        raise CacheCorruption("codec fingerprint mismatch")
    if data[14:16] != tag:
        raise CacheCorruption(f"blob kind {data[14:16]!r} != {tag!r}")
    digest, payload = data[16:48], data[48:]
    if hashlib.sha256(payload).digest() != digest:
        raise CacheCorruption("checksum mismatch")
    return payload


def _w_chunk(out: io.BytesIO, chunk: bytes) -> None:
    out.write(struct.pack("<I", len(chunk)))
    out.write(chunk)


def _r_chunk(payload: bytes, pos: int) -> tuple[bytes, int]:
    (n,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    chunk = payload[pos : pos + n]
    if len(chunk) != n:
        raise CacheCorruption("truncated chunk")
    return chunk, pos + n


class _LazyFrontEnd(FrontEndInfo):
    """A :class:`FrontEndInfo` that re-runs the front end on first field access.

    No cache blob carries front-end analysis state, and nothing after
    the pipeline reads it, so a session's compilation (cold, restored
    or spliced) defers parse + :func:`~repro.analysis.builder.build_hli`
    until a consumer (tests, reports) actually touches ``program`` /
    ``table`` / ``units`` / ….  The re-run sees the compilation's own source,
    filename and linked ``external_effects``, so it yields the same
    units, item ids and REF/MOD as a cold ``compile_source``.
    """

    def __getstate__(self):
        # Forked children hand compilations back pickled; the stats
        # callback must not travel — the inputs do, so the receiver
        # stays lazy.
        state = dict(self.__dict__)
        state.pop("_lazy_notify", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        inputs = self.__dict__.pop("_lazy_inputs", None)
        if inputs is None:
            raise AttributeError(name)
        notify = self.__dict__.pop("_lazy_notify", None)
        from ..analysis.builder import build_hli
        from ..frontend import parse_and_check

        source, filename, external_effects = inputs
        program, table = parse_and_check(source, filename)
        _hli, real = build_hli(program, table, external_effects=external_effects)
        self.__dict__.update(real.__dict__)
        if notify is not None:
            notify()
        try:
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(name) from None


def _lazy_frontend(comp: Compilation, notify) -> FrontEndInfo:
    fe = FrontEndInfo.__new__(_LazyFrontEnd)
    fe.__dict__["_lazy_inputs"] = (comp.source, comp.filename, comp.external_effects)
    fe.__dict__["_lazy_notify"] = notify
    return fe


@dataclass
class _Manifest:
    """Decoded file-level cache entry: the per-function key table.

    No function bodies live here — every function restores from its own
    per-function blob.  The manifest contributes what those blobs cannot
    know: the file-level globals layout / init data and each function's
    frame layout *in this file* (per-function blobs are shared across
    files, so their recorded frames may belong to a different program
    order).
    """

    source_filename: str
    #: function name -> its per-function front-end key (hex)
    fe_keys: dict[str, str]
    #: function name -> frame slot name -> (address, raw size)
    frames: dict[str, dict[str, tuple[int, int]]]
    frame_sizes: dict[str, int]
    globals_layout: dict[str, tuple[int, int]]
    init_data: dict[int, object]


def _encode_manifest(comp: Compilation, fe_keys: dict[str, str]) -> bytes:
    """Serialize the file-level manifest for ``comp``.

    Must be called right after the front end ran, *before* any back-end
    pass mutates the RTL frames.
    """
    kt = io.BytesIO()
    fns = comp.rtl.functions
    kt.write(struct.pack("<I", len(fns)))
    for name, fn in fns.items():
        nb = name.encode("utf-8")
        kt.write(struct.pack("<H", len(nb)))
        kt.write(nb)
        kt.write(bytes.fromhex(fe_keys[name]))
        kt.write(struct.pack("<IH", fn.frame_size, len(fn.frame)))
        for slot, (addr, size) in fn.frame.items():
            sb = slot.encode("utf-8")
            kt.write(struct.pack("<H", len(sb)))
            kt.write(sb)
            kt.write(struct.pack("<qI", addr, size))
    body = io.BytesIO()
    _w_chunk(body, kt.getvalue())
    _w_chunk(
        body,
        _binfmt.encode(
            (comp.hli.source_filename, comp.rtl.globals_layout, comp.rtl.init_data)
        ),
    )
    return _frame(_TAG_MANIFEST, body.getvalue())


def _decode_manifest(data: bytes) -> _Manifest:
    """Verified decode of :func:`_encode_manifest` output.

    Parses the fixed-layout key table and the small file-level chunk.
    Raises :class:`CacheCorruption` on any defect.
    """
    try:
        payload = _unframe(_TAG_MANIFEST, data)
        kt, pos = _r_chunk(payload, 0)
        file_chunk, pos = _r_chunk(payload, pos)
        if pos != len(payload):
            raise CacheCorruption("trailing bytes after manifest chunks")
        fe_keys: dict[str, str] = {}
        frames: dict[str, dict[str, tuple[int, int]]] = {}
        frame_sizes: dict[str, int] = {}
        kpos = 0
        (count,) = struct.unpack_from("<I", kt, kpos)
        kpos += 4
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", kt, kpos)
            kpos += 2
            name = kt[kpos : kpos + nlen].decode("utf-8")
            kpos += nlen
            raw_key = kt[kpos : kpos + 32]
            if len(raw_key) != 32:
                raise CacheCorruption("truncated key table")
            kpos += 32
            frame_size, nslots = struct.unpack_from("<IH", kt, kpos)
            kpos += 6
            frame: dict[str, tuple[int, int]] = {}
            for _ in range(nslots):
                (slen,) = struct.unpack_from("<H", kt, kpos)
                kpos += 2
                slot = kt[kpos : kpos + slen].decode("utf-8")
                kpos += slen
                addr, size = struct.unpack_from("<qI", kt, kpos)
                kpos += 12
                frame[slot] = (addr, size)
            fe_keys[name] = raw_key.hex()
            frames[name] = frame
            frame_sizes[name] = frame_size
        if kpos != len(kt):
            raise CacheCorruption("trailing bytes after key table")
        source_filename, globals_layout, init_data = _binfmt.decode(bytes(file_chunk))
        if not isinstance(source_filename, str) or not isinstance(
            globals_layout, dict
        ) or not isinstance(init_data, dict):
            raise CacheCorruption("manifest file chunk has the wrong shape")
        return _Manifest(
            source_filename=source_filename,
            fe_keys=fe_keys,
            frames=frames,
            frame_sizes=frame_sizes,
            globals_layout=globals_layout,
            init_data=init_data,
        )
    except CacheCorruption:
        raise
    except Exception as exc:  # struct errors, binfmt errors, unicode errors, ...
        raise CacheCorruption(f"{type(exc).__name__}: {exc}") from exc


def _encode_fn(tag: bytes, entry: HLIEntry, rest) -> bytes:
    """Frame a per-function blob: the HLI entry's binio chunk, then ``rest``."""
    body = io.BytesIO()
    _w_chunk(body, encode_entry(entry))
    _w_chunk(body, _binfmt.encode(rest))
    return _frame(tag, body.getvalue())


def _decode_fn(tag: bytes, data: bytes) -> tuple[HLIEntry, object]:
    """Verified decode of :func:`_encode_fn` output: ``(entry, rest)``.

    Raises :class:`CacheCorruption` on any defect.
    """
    try:
        payload = _unframe(tag, data)
        entry_bytes, pos = _r_chunk(payload, 0)
        rest, pos = _r_chunk(payload, pos)
        if pos != len(payload):
            raise CacheCorruption("trailing bytes after function chunks")
        return decode_entry(bytes(entry_bytes)), _binfmt.decode(bytes(rest))
    except CacheCorruption:
        raise
    except Exception as exc:
        raise CacheCorruption(f"{type(exc).__name__}: {exc}") from exc


def _check_rtl(fn_rtl, entry: HLIEntry) -> None:
    if not isinstance(fn_rtl, RTLFunction) or entry.unit_name != fn_rtl.name:
        raise CacheCorruption("decoded RTL does not match its HLI entry")


def _encode_fn_fe(entry: HLIEntry, fn_rtl: RTLFunction) -> bytes:
    """Serialize one function's pristine front-end artifacts."""
    return _encode_fn(_TAG_FE, entry, fn_rtl)


def _decode_fn_fe(data: bytes) -> tuple[RTLFunction, HLIEntry]:
    """Verified decode of :func:`_encode_fn_fe` output: ``(fn_rtl, entry)``."""
    entry, fn_rtl = _decode_fn(_TAG_FE, data)
    _check_rtl(fn_rtl, entry)
    return fn_rtl, entry


def _encode_fn_be(
    fn_rtl: RTLFunction,
    entry: HLIEntry,
    map_stats: Optional[MapStats],
    dep_stats: Optional[DepStats],
    opt_frag,
) -> bytes:
    """Serialize one function's finished back-end artifacts.

    The entry is the *maintained* one (post unroll/cse/licm table
    updates); its generation counter rides alongside so a restored query
    sees exactly the state an in-process compile would have left.
    """
    rest = (fn_rtl, entry.generation, map_stats, dep_stats, opt_frag)
    return _encode_fn(_TAG_BE, entry, rest)


def _decode_fn_be(data: bytes):
    """Verified decode of :func:`_encode_fn_be` output.

    Returns ``(fn_rtl, entry, map_stats, dep_stats, opt_frag)``.
    """
    from ..backend.passes import OptStats

    entry, rest = _decode_fn(_TAG_BE, data)
    if not isinstance(rest, tuple) or len(rest) != 5:
        raise CacheCorruption("back-end chunk has the wrong shape")
    fn_rtl, generation, map_stats, dep_stats, opt_frag = rest
    _check_rtl(fn_rtl, entry)
    if not isinstance(generation, int) or generation < 0:
        raise CacheCorruption("bad entry generation")
    for value, cls in ((map_stats, MapStats), (dep_stats, DepStats), (opt_frag, OptStats)):
        if value is not None and not isinstance(value, cls):
            raise CacheCorruption(f"decoded {cls.__name__} has the wrong type")
    entry.generation = generation
    return fn_rtl, entry, map_stats, dep_stats, opt_frag


# -- the session ---------------------------------------------------------------


class CompilationSession:
    """Cached, optionally parallel compilation over a shared artifact store.

    Safe for concurrent use from multiple threads: the store's one
    reentrant lock guards its memory LRU, its disk-budget sweep and the
    :class:`SessionStats` counters.  The lock is *not* held across
    pipeline work — two threads cold-compiling the same key may both
    compute and both store, which is wasteful but correct (stores are
    idempotent).
    """

    def __init__(
        self,
        cache_dir: Optional[str | os.PathLike] = None,
        max_memory_entries: int = 1024,
        max_disk_bytes: Optional[int] = None,
    ) -> None:
        self.stats = SessionStats()
        self.store = ArtifactStore(cache_dir, max_memory_entries, max_disk_bytes, self.stats)

    @property
    def cache_dir(self) -> Optional[Path]:
        return self.store.cache_dir

    @property
    def max_disk_bytes(self) -> Optional[int]:
        return self.store.max_disk_bytes

    def _bump(self, counter: str) -> None:
        """Thread-safe increment of one :class:`SessionStats` counter."""
        with self.store.lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _count(self, event: str, tier: Optional[str] = None) -> None:
        """Thread-safe :meth:`SessionStats.count`."""
        with self.store.lock:
            self.stats.count(event, tier)

    def _fetch(self, key: str, decode):
        """Verified read: ``(decode(blob), tier)``, or ``(None, "")`` when
        no tier holds ``key`` or its blob fails verification (then it is
        evicted and counted as ``corrupt``)."""
        blob, tier = self.store.get(key)
        if blob is not None:
            try:
                return decode(blob), tier
            except CacheCorruption:
                self.store.evict(key)
                self._count("corrupt")
        return None, ""

    def _fetch_function(self, fe_key: str, opts: CompileOptions):
        """Verified read of one function's be blob, else of its fe blob.

        Returns ``(fn_cache_states entry, decoded)``, ``decoded`` starting
        ``(fn_rtl, entry)``, or ``None``.  Counts hits and be misses; an
        fe miss is the caller's to count.
        """
        decoded, tier = self._fetch(_be_key(fe_key, opts), _decode_fn_be)
        if decoded is not None:
            self._count("be_hit", tier)
            return f"be:{tier}", decoded
        self._count("be_miss")
        decoded, tier = self._fetch(fe_key, _decode_fn_fe)
        if decoded is None:
            return None
        self._count("fn_hit", tier)
        return f"fe:{tier}", decoded

    # -- compilation -----------------------------------------------------------

    def compile(
        self,
        source: str,
        filename: str = "<input>",
        options: Optional[CompileOptions] = None,
        external_effects: Optional[dict] = None,
        extra_salt: str = "",
        analysis: Optional["UnitAnalysis"] = None,
    ) -> Compilation:
        """Compile through the cache.

        A manifest hit skips the whole front end; per-function back-end
        hits then skip mapping/optimization/scheduling for every
        unchanged function, so an edit recompiles only the invalidated
        set (the edited functions plus their transitive callers).

        ``external_effects``/``extra_salt`` support whole-program mode:
        the effects feed the HLI builder and the salt keys the cached
        artifacts to the link state they were built under (callers must
        derive the salt from the effects — the session only hashes it).
        ``analysis`` is the source's link-phase
        :class:`~repro.linker.unit.UnitAnalysis`; a manifest miss reuses
        its checked AST and points-to result instead of parsing again
        (keys stay source-text based, so a hit never looks at it).
        """
        opts = options or CompileOptions()
        key = cache_key(source, filename, salt=extra_salt)
        with enabled_scope(opts.trace):
            with _trace.span(
                "session.compile", file=filename, mode=opts.mode.value
            ) as span:
                man, tier = self._fetch(key, _decode_manifest)
                restored = None
                if man is not None:
                    restored = self._restore_manifest(
                        man,
                        key,
                        tier,
                        source,
                        filename,
                        opts,
                        external_effects,
                    )
                if restored is None:
                    self._count("miss")
                    restored = self._frontend_incremental(
                        key,
                        source,
                        filename,
                        opts,
                        external_effects=external_effects,
                        extra_salt=extra_salt,
                        analysis=analysis,
                    )
                comp, stats, fe_keys, fn_states = restored
                comp.frontend = _lazy_frontend(
                    comp, lambda: self._bump("frontend_decodes")
                )
                comp.fn_cache_states = fn_states
                # the back end runs on every function not restored from a be blob
                active = [n for n, state in fn_states.items() if not state.startswith("be:")]
                ctx = PassContext(comp=comp, opts=opts, active_units=active)
                run_backend(ctx, stats)
                comp.pipeline_stats = stats
                self._store_backend(ctx, fe_keys)
                span.set(cache=comp.cache_state)
                return comp

    def _restore_manifest(
        self,
        man: _Manifest,
        key: str,
        tier: str,
        source,
        filename,
        opts,
        external_effects,
    ):
        """Rebuild a compilation purely from cached blobs, or ``None``.

        Every function restores from its back-end blob when the knobs
        match (zero front-end traffic), else from its front-end blob.
        A function with *neither* blob (LRU-evicted, corrupted) fails
        the whole restore: the manifest is evicted (counted under
        ``corrupt``) and the caller falls back to the incremental path,
        which re-stores everything.  ``be_*``/``fn_*`` counters bumped
        before such a failure stand — the partial restores did happen.
        """
        comp = Compilation(
            source=source,
            filename=filename,
            hli=HLIFile(source_filename=man.source_filename),
            rtl=RTLProgram(
                globals_layout=man.globals_layout, init_data=man.init_data
            ),
            options=opts,
            cache_state=tier,
            external_effects=external_effects,
        )
        fn_states: dict[str, str] = {}
        for name, fe_key in man.fe_keys.items():
            got = self._fetch_function(fe_key, opts)
            if got is None:
                self.store.evict(key)
                self._count("corrupt")
                return None
            fn_states[name], decoded = got
            fn_rtl, entry = decoded[:2]
            # Per-function blobs are shared across files, so their frames
            # may follow another program order: use this file's.
            fn_rtl.frame = dict(man.frames[name])
            fn_rtl.frame_size = man.frame_sizes[name]
            entry.filename = man.source_filename or filename
            comp.rtl.functions[name] = fn_rtl
            comp.hli.add(entry)
            if fn_states[name].startswith("be:"):
                self._install_be(comp, name, decoded)
        self._count("hit", tier)
        stats = PipelineStats(cached_prefix=FRONTEND_PASSES)
        return comp, stats, dict(man.fe_keys), fn_states

    def _frontend_incremental(
        self,
        key,
        source,
        filename,
        opts,
        external_effects=None,
        extra_salt="",
        analysis: Optional["UnitAnalysis"] = None,
    ):
        """Manifest miss: rebuild only the functions whose keys changed.

        Parses (fingerprints need the checked AST; ``analysis`` hands
        over the link phase's AST and points-to result instead), then
        serves each function from the *back-end* tier first (fingerprint
        and knobs both unchanged: splice the finished RTL, done), else
        from the front-end tier (HLI entry + pristine RTL, back end
        re-runs), building only the invalidated rest.  Pristine
        artifacts are stored *before* the back end runs, so later edits
        can splice around this compile's functions.
        """
        from ..analysis.builder import HLIBuilder
        from ..frontend import parse_and_check
        from .incremental import function_keys

        comp = Compilation(
            source=source,
            filename=filename,
            options=opts,
            external_effects=external_effects,
        )
        stats = PipelineStats()
        if analysis is not None:
            program, table, pts = analysis.program, analysis.table, analysis.pts
        else:
            program, table = parse_and_check(source, filename)
            stats.passes_run.append("parse")
            pts = None
        builder = HLIBuilder(
            program, table, external_effects=external_effects, pts=pts
        )
        keys = function_keys(
            source,
            program,
            table,
            builder.pts,
            builder.refmod,
            salt=_fe_salt(filename, extra_salt),
        )
        hli = HLIFile(source_filename=program.filename)
        cached_rtl: dict[str, RTLFunction] = {}
        be_installs: dict[str, tuple] = {}
        fn_states: dict[str, str] = {}
        fresh: list[str] = []
        with _trace.span("analysis.build_hli", file=filename):
            for fn in program.functions:
                got = self._fetch_function(keys.fe[fn.name], opts)
                if got is None:
                    self._count("fn_miss")
                    entry, _unit = builder.build_unit(fn)
                    fn_states[fn.name] = "cold"
                    fresh.append(fn.name)
                else:
                    fn_states[fn.name], decoded = got
                    # A be-final RTL splices like a pristine one: frames
                    # re-lay in program order either way.
                    cached_rtl[fn.name], entry = decoded[:2]
                    entry.filename = program.filename
                    if fn_states[fn.name].startswith("be:"):
                        be_installs[fn.name] = decoded
                hli.add(entry)
        stats.passes_run.append("hli-build")
        rtl = lower_program(program, table, cached=cached_rtl)
        stats.passes_run.append("lower")
        comp.hli, comp.rtl = hli, rtl
        for name, decoded in be_installs.items():
            self._install_be(comp, name, decoded)
        comp.cache_state = "incremental" if cached_rtl else "cold"
        # Store pristine artifacts before any back-end pass mutates them.
        with _trace.span("session.cache.store", fresh=len(fresh)):
            for name in fresh:
                self._bump("fn_stores")
                blob = _encode_fn_fe(hli.entries[name], rtl.functions[name])
                self.store.put(keys.fe[name], blob)
            self._bump("stores")
            self.store.put(key, _encode_manifest(comp, keys.fe))
        return comp, stats, dict(keys.fe), fn_states

    def _install_be(self, comp: Compilation, name: str, decoded) -> None:
        """Add one restored function's back-end results to ``comp``: its
        query and its mapping, scheduling and optimization statistics
        (the caller has placed its RTL and HLI entry)."""
        _fn_rtl, entry, map_stats, dep_stats, opt_frag = decoded
        comp.queries[name] = HLIQuery(entry)
        if map_stats is not None:
            comp.map_stats[name] = map_stats
        if dep_stats is not None:
            comp.dep_stats[name] = dep_stats
        if opt_frag is not None:
            if comp.opt_stats is None:
                from ..backend.passes import OptStats

                comp.opt_stats = OptStats()
            comp.opt_stats.cse.merge(opt_frag.cse)
            comp.opt_stats.licm.merge(opt_frag.licm)
            comp.opt_stats.unroll.merge(opt_frag.unroll)

    def _store_backend(self, ctx: PassContext, fe_keys: dict[str, str]) -> None:
        """Store the finished back-end artifacts of every active unit."""
        if not ctx.active_units:
            return
        comp = ctx.comp
        with _trace.span("session.cache.store_backend") as span:
            stored = 0
            for name in ctx.active_units:
                entry = comp.hli.entries.get(name)
                fn = comp.rtl.functions.get(name)
                fe_key = fe_keys.get(name)
                if entry is None or fn is None or fe_key is None:
                    continue
                blob = _encode_fn_be(
                    fn,
                    entry,
                    comp.map_stats.get(name),
                    comp.dep_stats.get(name),
                    ctx.fn_opt_stats.get(name),
                )
                self._bump("be_stores")
                self.store.put(_be_key(fe_key, ctx.opts), blob)
                stored += 1
            span.set(stored=stored)

    # -- batch / parallel ------------------------------------------------------

    def compile_many(
        self,
        jobs: Sequence,
        max_workers: Optional[int] = None,
    ) -> list[Compilation]:
        """Compile a batch of :class:`CompileJob` items.

        Each job is its own partition of :meth:`compile_partitions`, so
        warm jobs compile in this process, which also compiles every
        ``max_workers``-th cold job while ``max_workers - 1`` forked
        children compile the rest, and a dead child's jobs recompile
        here.  Results come back in job order.
        ``max_workers=None`` uses :func:`resolve_workers` (the
        ``REPRO_JOBS`` environment variable, else one worker per core).
        """
        parts = self.compile_partitions([[job] for job in jobs], max_workers)
        return [comp for part in parts for comp in part]

    def _compile_job(self, job: CompileJob) -> Compilation:
        """Compile one job through this session's cache."""
        return self.compile(**vars(job))

    def _absorb_remote(self, comp: Compilation) -> None:
        """Fold a forked child's compilation into this session's counters."""
        if comp.cache_state == "memory":
            self._bump("hits_memory")
        elif comp.cache_state == "disk":
            self._bump("hits_disk")
        else:
            self._bump("misses")
        _metrics.inc("session.cache.fanout", comp.cache_state or "cold")

    def _probe_warm(self, job: CompileJob) -> bool:
        """True if ``job``'s manifest is already in this session's cache.

        A presence check that reads no blob: used by
        :meth:`compile_partitions` to keep warm jobs in this process,
        whose :meth:`compile` then reads the manifest once.  A corrupt
        manifest counts as present; :meth:`compile` evicts and rebuilds
        it.
        """
        return self.store.contains(
            cache_key(job.source, job.filename, salt=job.extra_salt)
        )

    def compile_partitions(
        self,
        partitions: Sequence[Sequence],
        max_workers: Optional[int] = None,
    ) -> list[list[Compilation]]:
        """Compile partitions of jobs in this process plus forked children.

        Each partition's jobs compile serially in one process (they
        share that process's in-memory tier and the session-wide disk
        tier), while distinct partitions run concurrently — the LTO
        "ltrans" shape.  ``max_workers`` counts this process: of the
        cold partitions it keeps every ``max_workers``-th one, starting
        with the first (so exactly one when there are no more cold
        partitions than workers; callers put the heaviest first), and
        :func:`parallel_map` forks ``max_workers - 1`` children for the
        rest, each with a fresh session over this one's disk tier.
        Every child is forked before this process starts any compile.
        Children read their jobs from memory inherited at the fork, so
        every job keeps its ``analysis`` wherever it compiles: no unit
        is parsed twice.  Each child pickles its compilations back.
        Results come back in partition order, job order within each
        partition; an exception a compile raises in a child re-raises
        here with its type.

        Two resilience properties:

        * **warm short-circuit** — jobs whose manifest already sits in
          this session's cache compile in this process, so a warm run
          decodes shared artifacts once instead of once per child;
        * **in-process fallback** — if a child dies (OOM kill, crash,
          signal), every job the batch gave the children recompiles
          here; the batch always completes.

        When at most one cold partition is left, it compiles here too
        and nothing forks.
        """
        norm = [[_check_job(j) for j in part] for part in partitions]
        results: list[list[Optional[Compilation]]] = [
            [None] * len(part) for part in norm
        ]
        workers = resolve_workers(max_workers, sum(1 for part in norm if part))
        here: list[tuple[int, int, CompileJob]] = []
        cold: list[list[tuple[int, int, CompileJob]]] = []
        for pi, part in enumerate(norm):
            batch: list[tuple[int, int, CompileJob]] = []
            for ji, job in enumerate(part):
                if workers > 1 and not self._probe_warm(job):
                    batch.append((pi, ji, job))
                else:
                    here.append((pi, ji, job))
            if batch:
                cold.append(batch)
        here += [t for batch in cold[::workers] for t in batch]
        pooled = [batch for i, batch in enumerate(cold) if i % workers]

        def compile_here() -> None:
            for pi, ji, job in here:
                results[pi][ji] = self._compile_job(job)

        if not pooled:
            compile_here()
            return results
        from concurrent.futures.process import BrokenProcessPool

        task = partial(_compile_partition_worker, self.cache_dir, self.max_disk_bytes)
        procs = min(workers - 1, len(pooled))
        out: Optional[list[list[Compilation]]] = None
        try:
            with _trace.span(
                "session.compile_partitions", partitions=len(cold), workers=procs
            ):
                out = parallel_map(
                    task,
                    [[job for *_, job in b] for b in pooled],
                    max_workers=procs,
                    meanwhile=compile_here,
                )
        except (BrokenProcessPool, OSError):
            _metrics.inc("session.partition.fallback", n=len(pooled))
        if out is None:
            # A failed fork stops the batch before this process's own
            # share starts, so compile whatever is still missing.
            for pi, ji, job in here + [t for b in pooled for t in b]:
                if results[pi][ji] is None:
                    results[pi][ji] = self._compile_job(job)
        else:
            for batch, comps in zip(pooled, out):
                for (pi, ji, _job), comp in zip(batch, comps):
                    results[pi][ji] = comp
                    self._absorb_remote(comp)
        self.store.sweep()
        return results


def _check_job(job) -> CompileJob:
    if not isinstance(job, CompileJob):
        raise ValueError(
            "a compile_many job must be a CompileJob(source, filename, ...), "
            f"got {type(job).__name__}"
        )
    return job


def _compile_partition_worker(
    cache_dir: Optional[Path],
    max_disk_bytes: Optional[int],
    jobs: Sequence[CompileJob],
) -> list[Compilation]:
    """Compile one partition's jobs serially inside a forked child,
    through a fresh session over the parent's disk tier and budget."""
    sess = CompilationSession(cache_dir=cache_dir, max_disk_bytes=max_disk_bytes)
    return [sess._compile_job(job) for job in jobs]


# -- generic fan-out -----------------------------------------------------------


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the host
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def resolve_workers(requested: Optional[int], n_items: int) -> int:
    """Worker-count policy shared by every fan-out entry point.

    ``requested`` semantics: ``None`` → the ``REPRO_JOBS`` environment
    variable if set, else one per usable CPU; ``0`` → one per usable
    CPU (:func:`_usable_cpus`); anything else is taken literally.
    Always capped by ``n_items``.
    """
    if requested is None:
        env = os.environ.get("REPRO_JOBS", "")
        requested = int(env) if env.isdigit() and env != "" else 0
    if requested <= 0:
        requested = _usable_cpus()
    return max(1, min(requested, n_items))


#: POSIX's smallest ``PIPE_BUF``: a pipe write of at most this many
#: bytes is atomic, and one into an empty pipe never blocks.
_PIPE_BUF = 512


def parallel_map(
    fn, items: Sequence, max_workers: Optional[int] = None, meanwhile=None
) -> list:
    """Order-preserving fork-based map with a serial single-worker path.

    The driver's one process fan-out.  Children are forked with
    ``os.fork`` and read ``items`` from the memory they inherited, so
    neither ``fn`` nor the items are pickled: a child can run on
    objects that cannot cross a pipe, such as a unit's AST.  Items are
    handed out one at a time as children come free: every child reads
    the next item's index from one shared pipe, so a child stuck on a
    slow item does not hold up the rest.  Each child sends back one
    pickle over its own pipe: its results, or the exception ``fn``
    raised, which re-raises here with its type.  A child that dies
    without a reply surfaces as ``BrokenProcessPool``.  Every child is
    reaped before this returns or raises; on an error the ones still
    running are killed first.

    ``meanwhile`` is the caller's own share of the work: a no-argument
    callable run in this process after every child is forked and before
    any result is read.  With it, even one item goes to a forked child,
    since the caller is the other half of the parallelism; without it,
    one worker (or one item) runs inline.  While it runs, the children
    keep off the CPU this process is on, where the host lets affinity
    be set: a kernel may leave a fresh child on its parent's CPU for
    hundreds of milliseconds, and then the two shares time-slice one
    CPU.  They get every CPU back as soon as ``meanwhile`` returns.

    Everything runs inline without ``os.fork`` (not a POSIX host), and
    while another thread is alive: a child gets only the forking
    thread, so a lock another thread held at the fork (an id allocator
    in :mod:`repro.backend.rtl`, the metrics lock) would never be
    released in it.
    """
    items = list(items)
    workers = resolve_workers(max_workers, len(items))
    if (
        not hasattr(os, "fork")
        or threading.active_count() > 1
        or not items
        or (workers <= 1 and meanwhile is None)
    ):
        if meanwhile is not None:
            meanwhile()
        return [fn(item) for item in items]
    import pickle  # before the fork, so children inherit it
    import signal

    # Item indices as 4-byte tokens, written in atomic chunks so that a
    # child's 4-byte read always takes one whole token.  The first chunk
    # goes in before any fork, so the first child starts at once.
    tokens = struct.pack(f"<{len(items)}I", *range(len(items)))
    away = _other_cpus() if meanwhile is not None else None
    # Unflushed output would be written once more by every child.
    sys.stdout.flush()
    sys.stderr.flush()
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        feed_r, feed_w = os.pipe()
        try:
            try:
                _feed(feed_w, tokens[:_PIPE_BUF])
                for _ in range(workers):
                    rfd, wfd = os.pipe()
                    try:
                        pid = os.fork()
                    except BaseException:
                        os.close(rfd)
                        os.close(wfd)
                        raise
                    if pid == 0:
                        _fork_child(fn, items, feed_r, feed_w, wfd)
                    os.close(wfd)
                    children.append((pid, rfd))
                    if away:
                        _set_affinity(pid, away)
            finally:
                # only children read the feed, so a feed no child can
                # read any more fails the writes below instead of
                # blocking them
                os.close(feed_r)
            _feed(feed_w, tokens[_PIPE_BUF:])
        finally:
            os.close(feed_w)  # children see the end of the feed
        if meanwhile is not None:
            meanwhile()
            if away:
                for pid, _ in children:
                    _set_affinity(pid, os.sched_getaffinity(0))
        out: list = [None] * len(items)
        while children:
            pid, rfd = children[0]
            with open(rfd, "rb", closefd=False) as pipe:
                reply = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(rfd)
            del children[0]
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not reply:
                from concurrent.futures.process import BrokenProcessPool

                raise BrokenProcessPool(
                    f"parallel_map child {pid} exited with status {code} "
                    "and no result"
                )
            ok, value, tb = pickle.loads(reply)
            if not ok:
                raise value from _ChildTraceback(tb)
            for i, result in value:
                out[i] = result
        return out
    finally:
        for pid, rfd in children:
            os.close(rfd)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped by someone else's wait


def _other_cpus() -> Optional[set[int]]:
    """The CPUs this process may use except the one it runs on; ``None``
    where Linux's ``/proc`` or the affinity API cannot tell, or no other
    CPU is allowed."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat", "rb") as stat:
            # field 39, "processor"; the command name before it may
            # contain spaces, so count from its closing parenthesis
            cpu = int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None
    return (os.sched_getaffinity(0) - {cpu}) or None


def _set_affinity(pid: int, cpus: set[int]) -> None:
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass  # the child has exited, or the host forbids it


def _feed(fd: int, tokens: bytes) -> None:
    """Write ``tokens`` to a :func:`parallel_map` feed in atomic chunks,
    blocking while the pipe is full; stop once no child is left to read."""
    try:
        for at in range(0, len(tokens), _PIPE_BUF):
            os.write(fd, tokens[at : at + _PIPE_BUF])
    except BrokenPipeError:
        pass  # every child is gone; reading the replies reports it


def _fork_child(fn, items: list, feed_r: int, feed_w: int, wfd: int) -> NoReturn:
    """A :func:`parallel_map` child: map ``fn`` over the items whose
    indices it reads from the feed until the feed ends, pipe one pickle
    of ``(index, result)`` pairs, exit.

    Never returns: the child leaves through ``os._exit``, so no caller
    frame, ``atexit`` hook or inherited buffer runs a second time.
    Exit status 0 means a reply was written.
    """
    code = 1
    try:
        import pickle

        os.close(feed_w)  # else no child would ever see the feed end
        done: list = []
        try:
            while token := os.read(feed_r, 4):
                (i,) = struct.unpack("<I", token)
                done.append((i, fn(items[i])))
            reply = (True, done, None)
        except Exception as exc:
            import traceback

            reply = (False, exc, traceback.format_exc())
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with open(wfd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a child."""

    def __str__(self) -> str:
        return self.args[0]


def compile_many(
    jobs: Sequence,
    max_workers: Optional[int] = None,
    session: Optional[CompilationSession] = None,
) -> list[Compilation]:
    """Module-level convenience: batch compile via ``session`` (or the default)."""
    sess = session if session is not None else default_session()
    return sess.compile_many(jobs, max_workers=max_workers)


# -- the default session -------------------------------------------------------

_DEFAULT: Optional[CompilationSession] = None


def default_session() -> CompilationSession:
    """Process-wide session (in-memory tier; ``REPRO_CACHE_DIR`` adds disk,
    ``REPRO_CACHE_MAX_BYTES`` bounds it)."""
    global _DEFAULT
    if _DEFAULT is None:
        env_max = os.environ.get("REPRO_CACHE_MAX_BYTES", "")
        _DEFAULT = CompilationSession(
            cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
            max_memory_entries=512,
            max_disk_bytes=int(env_max) if env_max.isdigit() else None,
        )
    return _DEFAULT


def reset_default_session() -> None:
    """Drop the process-wide session (tests use this for isolation)."""
    global _DEFAULT
    _DEFAULT = None
