"""Self-describing binary codec for the session cache's blobs.

``repro.binfmt`` replaces :mod:`pickle` for the values a session cache
blob carries beyond its HLI tables (:mod:`repro.driver.session`): RTL
functions, their statistics records and the manifest's file-level
chunk.  (Results a session's own forked children return are still
pickled; they are never persisted.)  Unlike pickle it can only
construct the records declared in :mod:`repro.binfmt.types`, so
decoding untrusted bytes can never execute arbitrary code — the worst
a hostile payload can do is raise :class:`BinFormatError`.

Design (à la the ASDL paper in PAPERS.md):

* a tagged, length-checked tree encoding of ``None``, ``int``,
  ``float``, ``str``, ``tuple``, ``list`` and ``dict`` (all
  little-endian; ints are zigzag varints);
* a per-message *string table*: the first occurrence of a string is
  inline, later occurrences are a varint back-reference;
* declared records: a record's id is its position in
  :data:`~repro.binfmt.types.SCHEMA`.  A plain record is encoded field
  by field and rebuilt through its constructor; a hand-packed one
  (``RTLFunction``, see :mod:`repro.binfmt.rtlcodec`) is one
  length-prefixed blob;
* :func:`fingerprint` hashes the declared schema (record names, field
  lists and the RTL blob's :data:`~repro.binfmt.rtlcodec.LAYOUT`) and
  :data:`FORMAT_VERSION`.  The cache folds it into every key and frame
  header, so a schema change evicts stale blobs instead of misdecoding
  them.

Any other type — including ``bool``, subclasses of the containers and
undeclared classes — raises :class:`BinFormatError` on encode.
"""

from __future__ import annotations

import struct
from hashlib import sha256
from typing import Any

from .errors import BinFormatError
from .types import SCHEMA, Record

__all__ = ["BinFormatError", "FORMAT_VERSION", "decode", "encode", "fingerprint"]

#: Bumped on any wire-format change that :func:`fingerprint` cannot see
#: (tag semantics, varint encoding, table layout, the RTL blob's structs).
FORMAT_VERSION = 2


# -- wire tags ---------------------------------------------------------------

_T_NONE = 0
_T_INT = 1  # zigzag varint
_T_FLOAT = 2  # <d
_T_STR = 3  # varint byte length + utf-8; appended to the string table
_T_STRREF = 4  # varint index into the string table
_T_TUPLE = 5  # varint count + values
_T_LIST = 6  # varint count + values
_T_DICT = 7  # varint count + key/value pairs
_T_RECORD = 8  # varint record id + fields (or varint-length packed blob)


# -- the declared schema -----------------------------------------------------

_RECORD_IDS: dict[type, int] = {rec.cls: rid for rid, rec in enumerate(SCHEMA)}


def _schema_fingerprint(schema: tuple[Record, ...]) -> str:
    h = sha256()
    h.update(f"repro-binfmt:{FORMAT_VERSION}\n".encode())
    for rid, rec in enumerate(schema):
        h.update(f"{rid}:{rec.cls.__qualname__}:{','.join(rec.fields)}:{rec.layout}\n".encode())
    return h.hexdigest()


_FINGERPRINT = _schema_fingerprint(SCHEMA)


def fingerprint() -> str:
    """Hex digest over the declared schema and :data:`FORMAT_VERSION`.

    Changes whenever a record is added, removed or reordered, a plain
    record's field list changes, or the RTL blob's layout does (an
    opcode inserted or reordered, an RTL class's fields edited).  Wire
    changes it cannot see bump :data:`FORMAT_VERSION` instead.
    """
    return _FINGERPRINT


# -- varints -----------------------------------------------------------------


def _w_varint(out: bytearray, v: int) -> None:
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


# -- encoder -----------------------------------------------------------------


class _Encoder:
    __slots__ = ("out", "strings")

    def __init__(self) -> None:
        self.out = bytearray()
        self.strings: dict[str, int] = {}

    def enc(self, obj: Any) -> None:
        out = self.out
        t = type(obj)
        if obj is None:
            out.append(_T_NONE)
        elif t is int:
            out.append(_T_INT)
            if obj < 0:
                _w_varint(out, ((-obj) << 1) - 1)
            else:
                _w_varint(out, obj << 1)
        elif t is float:
            out.append(_T_FLOAT)
            out += struct.pack("<d", obj)
        elif t is str:
            idx = self.strings.get(obj)
            if idx is not None:
                out.append(_T_STRREF)
                _w_varint(out, idx)
            else:
                self.strings[obj] = len(self.strings)
                data = obj.encode("utf-8", "surrogatepass")
                out.append(_T_STR)
                _w_varint(out, len(data))
                out += data
        elif t is tuple or t is list:
            out.append(_T_TUPLE if t is tuple else _T_LIST)
            _w_varint(out, len(obj))
            for v in obj:
                self.enc(v)
        elif t is dict:
            out.append(_T_DICT)
            _w_varint(out, len(obj))
            for k, v in obj.items():
                self.enc(k)
                self.enc(v)
        else:
            self._record(obj, t)

    def _record(self, obj: Any, t: type) -> None:
        rid = _RECORD_IDS.get(t)
        if rid is None:
            raise BinFormatError(
                f"cannot encode {t.__module__}.{t.__qualname__}: not a declared record"
            )
        rec = SCHEMA[rid]
        self.out.append(_T_RECORD)
        _w_varint(self.out, rid)
        if rec.encode is not None:
            blob = rec.encode(obj)
            _w_varint(self.out, len(blob))
            self.out += blob
        else:
            for name in rec.fields:
                self.enc(getattr(obj, name))


def encode(obj: object) -> bytes:
    """Encode ``obj`` into a self-contained byte string."""
    enc = _Encoder()
    enc.enc(obj)
    return bytes(enc.out)


# -- decoder -----------------------------------------------------------------


class _Decoder:
    __slots__ = ("data", "pos", "strings")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.strings: list[str] = []

    def _take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise BinFormatError("truncated binfmt data")
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def _varint(self) -> int:
        v = 0
        shift = 0
        data = self.data
        pos = self.pos
        n = len(data)
        while True:
            if pos >= n:
                raise BinFormatError("truncated varint")
            b = data[pos]
            pos += 1
            v |= (b & 0x7F) << shift
            if not b & 0x80:
                self.pos = pos
                return v
            shift += 7
            if shift > 640:
                raise BinFormatError("varint too long")

    def dec(self) -> Any:
        tag = self.data[self.pos] if self.pos < len(self.data) else None
        if tag is None:
            raise BinFormatError("truncated binfmt data")
        self.pos += 1
        if tag == _T_NONE:
            return None
        if tag == _T_INT:
            z = self._varint()
            return -((z + 1) >> 1) if z & 1 else z >> 1
        if tag == _T_FLOAT:
            return struct.unpack("<d", self._take(8))[0]
        if tag == _T_STR:
            n = self._varint()
            try:
                s = self._take(n).decode("utf-8", "surrogatepass")
            except UnicodeDecodeError as exc:
                raise BinFormatError(f"bad utf-8 in string: {exc}") from exc
            self.strings.append(s)
            return s
        if tag == _T_STRREF:
            idx = self._varint()
            if idx >= len(self.strings):
                raise BinFormatError(f"string ref {idx} out of range")
            return self.strings[idx]
        if tag == _T_TUPLE:
            return tuple(self.dec() for _ in range(self._check_count()))
        if tag == _T_LIST:
            return [self.dec() for _ in range(self._check_count())]
        if tag == _T_DICT:
            d: dict[Any, Any] = {}
            for _ in range(self._check_count()):
                k = self.dec()
                d[k] = self.dec()
            return d
        if tag == _T_RECORD:
            return self._record()
        raise BinFormatError(f"unknown tag {tag}")

    def _check_count(self) -> int:
        n = self._varint()
        # Every element takes >= 1 byte, so a count beyond the remaining
        # bytes is corrupt — reject before allocating.
        if n > len(self.data) - self.pos:
            raise BinFormatError(f"container count {n} exceeds payload")
        return n

    def _record(self) -> Any:
        rid = self._varint()
        if rid >= len(SCHEMA):
            raise BinFormatError(f"record id {rid} out of range")
        rec = SCHEMA[rid]
        if rec.decode is not None:
            return rec.decode(self._take(self._varint()))
        return rec.cls(**{name: self.dec() for name in rec.fields})


def decode(data: bytes) -> object:
    """Decode bytes produced by :func:`encode`.

    Raises :class:`BinFormatError` on any defect — truncation, stray
    bytes, unknown tags or record ids, malformed varints or utf-8,
    nesting deeper than the interpreter's recursion limit.  Only
    declared records are ever constructed.
    """
    dec = _Decoder(data)
    try:
        obj = dec.dec()
    except BinFormatError:
        raise
    except (struct.error, IndexError, ValueError, TypeError, RecursionError) as exc:
        raise BinFormatError(f"malformed binfmt data: {exc!r}") from exc
    if dec.pos != len(data):
        raise BinFormatError(f"{len(data) - dec.pos} trailing bytes after object")
    return obj
