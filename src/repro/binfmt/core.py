"""Self-describing binary object codec for every persisted object graph.

``repro.binfmt`` replaces :mod:`pickle` everywhere the pipeline persists
Python object graphs: cache blobs (:mod:`repro.driver.session`) and
linker REF/MOD summaries (:mod:`repro.linker.persist`).  (Results a
session's own forked children return are still pickled; they are never
persisted.)  Unlike
pickle it can only construct types that were explicitly registered at
import time, so decoding untrusted bytes can never execute arbitrary
code — the worst a hostile payload can do is raise
:class:`BinFormatError`.

Design (à la the ASDL paper in PAPERS.md):

* a tagged, length-checked tree encoding of primitives and containers
  (all little-endian; ints are zigzag varints);
* a per-message *string table*: the first occurrence of a string is
  inline, later occurrences are a varint back-reference.  Decoded
  strings are ``sys.intern``-ed so identity-based sentinel checks
  (``ref is TOP``) survive a round trip;
* a *memo table* for mutable containers and registered objects, so
  shared references and cycles (e.g. the analysis ``Region`` tree)
  reconstruct with their aliasing intact;
* a type registry (:func:`register` / :func:`register_enum` /
  :func:`register_callable`) mapping classes to stable numeric ids.
  Registered dataclasses are encoded field-by-field and rebuilt via
  ``cls.__new__`` + ``object.__setattr__`` (works for frozen
  dataclasses); types with constructor invariants supply a ``factory``;
  hot types supply custom ``encode``/``decode`` byte-blob hooks (see
  :mod:`repro.binfmt.rtlcodec`);
* :func:`fingerprint` hashes the whole registry shape (type names,
  field lists, enum members, callable names).  The cache folds it into
  every key and frame header, so a codec change evicts stale blobs
  instead of misdecoding them.

Subclasses of ``dict``/``list``/``set`` (``defaultdict`` and friends)
are encoded as their plain base container — the decoded graph is
structurally equal but loses the subclass behaviour.
"""

from __future__ import annotations

import enum
import struct
import sys
from dataclasses import fields as _dc_fields, is_dataclass
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "BinFormatError",
    "FORMAT_VERSION",
    "decode",
    "encode",
    "fingerprint",
    "register",
    "register_callable",
    "register_enum",
]

#: Bumped on any wire-format change that :func:`fingerprint` cannot see
#: (tag semantics, varint encoding, table layout).
FORMAT_VERSION = 1


class BinFormatError(Exception):
    """Raised on any malformed, truncated, or unregistered input."""


# -- wire tags ---------------------------------------------------------------

_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3  # zigzag varint
_T_FLOAT = 4  # <d
_T_STR = 5  # varint byte length + utf-8; appended to the string table
_T_STRREF = 6  # varint index into the string table
_T_BYTES = 7  # varint length + raw bytes
_T_LIST = 8  # varint count + values            (memoized)
_T_TUPLE = 9  # varint count + values
_T_SET = 10  # varint count + values            (memoized)
_T_FROZENSET = 11  # varint count + values
_T_DICT = 12  # varint count + key/value pairs  (memoized)
_T_REF = 13  # varint index into the memo table
_T_OBJ = 14  # varint type id + fields (or varint-length custom blob)
_T_ENUM = 15  # varint enum id + varint member index
_T_CALLABLE = 16  # varint callable id

_RECURSION_LIMIT = 20000


# -- type registry -----------------------------------------------------------


class _Spec:
    __slots__ = ("tid", "cls", "field_names", "factory", "encode_fn", "decode_fn")

    def __init__(
        self,
        tid: int,
        cls: type,
        field_names: tuple[str, ...],
        factory: Optional[Callable[..., Any]],
        encode_fn: Optional[Callable[[Any], bytes]],
        decode_fn: Optional[Callable[[bytes], Any]],
    ) -> None:
        self.tid = tid
        self.cls = cls
        self.field_names = field_names
        self.factory = factory
        self.encode_fn = encode_fn
        self.decode_fn = decode_fn


_SPECS: list[_Spec] = []
_BY_TYPE: dict[type, _Spec] = {}
_ENUMS: list[type] = []
_BY_ENUM: dict[type, int] = {}
_ENUM_MEMBERS: list[list[Any]] = []
_CALLABLES: list[tuple[str, Callable[..., Any]]] = []
_BY_CALLABLE: dict[Any, int] = {}
_FINGERPRINT: Optional[str] = None


def _auto_fields(cls: type) -> tuple[str, ...]:
    if not is_dataclass(cls):
        raise BinFormatError(
            f"{cls.__qualname__}: non-dataclass registration needs explicit field_names"
        )
    # Include non-init fields (e.g. ast.Expr.ty / .item_id carry analysis
    # results) — everything that lives on the instance must round-trip.
    return tuple(f.name for f in _dc_fields(cls))


def register(
    cls: type,
    field_names: Optional[Iterable[str]] = None,
    *,
    factory: Optional[Callable[..., Any]] = None,
    encode: Optional[Callable[[Any], bytes]] = None,
    decode: Optional[Callable[[bytes], Any]] = None,
) -> None:
    """Register ``cls`` for encoding under the next free type id.

    Registration order is part of the wire format: it must be
    deterministic at import time (see :mod:`repro.binfmt.types`), and
    any change shifts :func:`fingerprint`, evicting old cache blobs.
    """
    global _FINGERPRINT
    if cls in _BY_TYPE:
        raise BinFormatError(f"{cls.__qualname__} registered twice")
    if encode is not None or decode is not None:
        if encode is None or decode is None:
            raise BinFormatError(f"{cls.__qualname__}: encode and decode come together")
        names: tuple[str, ...] = ()
    elif field_names is not None:
        names = tuple(field_names)
    else:
        names = _auto_fields(cls)
    spec = _Spec(len(_SPECS), cls, names, factory, encode, decode)
    _SPECS.append(spec)
    _BY_TYPE[cls] = spec
    _FINGERPRINT = None


def register_enum(cls: type) -> None:
    """Register an :class:`enum.Enum` subclass (member order is the wire id)."""
    global _FINGERPRINT
    if cls in _BY_ENUM:
        raise BinFormatError(f"enum {cls.__qualname__} registered twice")
    _BY_ENUM[cls] = len(_ENUMS)
    _ENUMS.append(cls)
    _ENUM_MEMBERS.append(list(cls))
    _FINGERPRINT = None


def register_callable(name: str, fn: Callable[..., Any]) -> None:
    """Register a module-level callable shipped by reference (never by code)."""
    global _FINGERPRINT
    if fn in _BY_CALLABLE:
        raise BinFormatError(f"callable {name} registered twice")
    _BY_CALLABLE[fn] = len(_CALLABLES)
    _CALLABLES.append((name, fn))
    _FINGERPRINT = None


def fingerprint() -> str:
    """Hex digest over the registry shape and format version.

    Changes whenever a registered type gains/loses/reorders fields, an
    enum changes members, or the registration order moves — exactly the
    situations where old blobs would misdecode.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        from hashlib import sha256

        h = sha256()
        h.update(f"repro-binfmt:{FORMAT_VERSION}\n".encode())
        for spec in _SPECS:
            kind = "custom" if spec.encode_fn else ("factory" if spec.factory else "fields")
            h.update(
                f"{spec.tid}:{spec.cls.__module__}.{spec.cls.__qualname__}"
                f":{kind}:{','.join(spec.field_names)}\n".encode()
            )
        for eid, cls in enumerate(_ENUMS):
            members = ",".join(m.name for m in _ENUM_MEMBERS[eid])
            h.update(f"enum{eid}:{cls.__module__}.{cls.__qualname__}:{members}\n".encode())
        for cid, (name, _fn) in enumerate(_CALLABLES):
            h.update(f"call{cid}:{name}\n".encode())
        _FINGERPRINT = h.hexdigest()
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
    __slots__ = ("out", "memo", "keep", "strings")

    def __init__(self) -> None:
        self.out = bytearray()
        self.memo: dict[int, int] = {}
        self.keep: list[Any] = []  # pins ids alive for the memo dict
        self.strings: dict[str, int] = {}

    def enc(self, obj: Any) -> None:
        out = self.out
        t = type(obj)
        if obj is None:
            out.append(_T_NONE)
        elif t is bool:
            out.append(_T_TRUE if obj else _T_FALSE)
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
        elif t is bytes:
            out.append(_T_BYTES)
            _w_varint(out, len(obj))
            out += obj
        elif t is list:
            self._container(obj, _T_LIST, obj)
        elif t is tuple:
            out.append(_T_TUPLE)
            _w_varint(out, len(obj))
            for v in obj:
                self.enc(v)
        elif t is dict:
            self._dict(obj)
        elif t is set:
            self._container(obj, _T_SET, sorted(obj, key=_set_key))
        elif t is frozenset:
            out.append(_T_FROZENSET)
            _w_varint(out, len(obj))
            for v in sorted(obj, key=_set_key):
                self.enc(v)
        else:
            self._object(obj, t)

    def _memoize(self, obj: Any) -> bool:
        """Record ``obj`` in the memo; True when already seen (REF emitted)."""
        idx = self.memo.get(id(obj))
        if idx is not None:
            self.out.append(_T_REF)
            _w_varint(self.out, idx)
            return True
        self.memo[id(obj)] = len(self.memo)
        self.keep.append(obj)
        return False

    def _container(self, obj: Any, tag: int, items: Any) -> None:
        if self._memoize(obj):
            return
        self.out.append(tag)
        _w_varint(self.out, len(obj))
        for v in items:
            self.enc(v)

    def _dict(self, obj: dict) -> None:
        if self._memoize(obj):
            return
        self.out.append(_T_DICT)
        _w_varint(self.out, len(obj))
        for k, v in obj.items():
            self.enc(k)
            self.enc(v)

    def _object(self, obj: Any, t: type) -> None:
        spec = _BY_TYPE.get(t)
        if spec is None:
            # Subclass fallback: lazily-decoded proxies (the session's
            # _LazyFrontEnd) and plain container subclasses encode as
            # their registered/base shape.
            for base in t.__mro__[1:]:
                spec = _BY_TYPE.get(base)
                if spec is not None:
                    break
            else:
                if isinstance(obj, enum.Enum):
                    eid = _BY_ENUM.get(t)
                    if eid is None:
                        raise BinFormatError(f"unregistered enum {t.__qualname__}")
                    self.out.append(_T_ENUM)
                    _w_varint(self.out, eid)
                    _w_varint(self.out, _ENUM_MEMBERS[eid].index(obj))
                    return
                if isinstance(obj, dict):
                    self._dict(dict(obj))
                    return
                if isinstance(obj, list):
                    self._container(obj, _T_LIST, obj)
                    return
                if isinstance(obj, (set, frozenset)):
                    self._container(obj, _T_SET, sorted(obj, key=_set_key))
                    return
                cid = _BY_CALLABLE.get(obj)
                if cid is not None:
                    self.out.append(_T_CALLABLE)
                    _w_varint(self.out, cid)
                    return
                raise BinFormatError(
                    f"cannot encode unregistered type {t.__module__}.{t.__qualname__}"
                )
        if self._memoize(obj):
            return
        self.out.append(_T_OBJ)
        _w_varint(self.out, spec.tid)
        if spec.encode_fn is not None:
            blob = spec.encode_fn(obj)
            _w_varint(self.out, len(blob))
            self.out += blob
        else:
            for name in spec.field_names:
                self.enc(getattr(obj, name))


def _set_key(v: Any) -> tuple:
    """Deterministic ordering for set elements (mixed-type safe)."""
    return (type(v).__qualname__, repr(v))


def encode(obj: object) -> bytes:
    """Encode ``obj`` into a self-contained byte string."""
    enc = _Encoder()
    old = sys.getrecursionlimit()
    if old < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        enc.enc(obj)
    finally:
        if old < _RECURSION_LIMIT:
            sys.setrecursionlimit(old)
    return bytes(enc.out)


# -- decoder -----------------------------------------------------------------

_PLACEHOLDER = object()


class _Decoder:
    __slots__ = ("data", "pos", "memo", "strings")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0
        self.memo: list[Any] = []
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
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
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
            try:
                s = sys.intern(s)
            except TypeError:  # pragma: no cover - surrogate strings
                pass
            self.strings.append(s)
            return s
        if tag == _T_STRREF:
            idx = self._varint()
            if idx >= len(self.strings):
                raise BinFormatError(f"string ref {idx} out of range")
            return self.strings[idx]
        if tag == _T_BYTES:
            return self._take(self._varint())
        if tag == _T_TUPLE:
            return tuple(self.dec() for _ in range(self._check_count()))
        if tag == _T_FROZENSET:
            return frozenset(self.dec() for _ in range(self._check_count()))
        if tag == _T_LIST:
            out: list[Any] = []
            self.memo.append(out)
            for _ in range(self._check_count()):
                out.append(self.dec())
            return out
        if tag == _T_SET:
            slot = len(self.memo)
            self.memo.append(_PLACEHOLDER)
            s_out = {self.dec() for _ in range(self._check_count())}
            self.memo[slot] = s_out
            return s_out
        if tag == _T_DICT:
            d: dict[Any, Any] = {}
            self.memo.append(d)
            for _ in range(self._check_count()):
                k = self.dec()
                d[k] = self.dec()
            return d
        if tag == _T_REF:
            idx = self._varint()
            if idx >= len(self.memo):
                raise BinFormatError(f"memo ref {idx} out of range")
            obj = self.memo[idx]
            if obj is _PLACEHOLDER:
                raise BinFormatError(f"memo ref {idx} resolved before construction")
            return obj
        if tag == _T_OBJ:
            return self._obj()
        if tag == _T_ENUM:
            eid = self._varint()
            if eid >= len(_ENUMS):
                raise BinFormatError(f"enum id {eid} out of range")
            members = _ENUM_MEMBERS[eid]
            midx = self._varint()
            if midx >= len(members):
                raise BinFormatError(f"enum member {midx} out of range")
            return members[midx]
        if tag == _T_CALLABLE:
            cid = self._varint()
            if cid >= len(_CALLABLES):
                raise BinFormatError(f"callable id {cid} out of range")
            return _CALLABLES[cid][1]
        raise BinFormatError(f"unknown tag {tag}")

    def _check_count(self) -> int:
        n = self._varint()
        # Every element takes >= 1 byte, so a count beyond the remaining
        # bytes is corrupt — reject before allocating.
        if n > len(self.data) - self.pos:
            raise BinFormatError(f"container count {n} exceeds payload")
        return n

    def _obj(self) -> Any:
        tid = self._varint()
        if tid >= len(_SPECS):
            raise BinFormatError(f"type id {tid} out of range")
        spec = _SPECS[tid]
        if spec.decode_fn is not None:
            blob = self._take(self._varint())
            slot = len(self.memo)
            self.memo.append(_PLACEHOLDER)
            obj = spec.decode_fn(blob)
            self.memo[slot] = obj
            return obj
        if spec.factory is not None:
            slot = len(self.memo)
            self.memo.append(_PLACEHOLDER)
            vals = [self.dec() for _ in spec.field_names]
            obj = spec.factory(*vals)
            self.memo[slot] = obj
            return obj
        obj = spec.cls.__new__(spec.cls)
        self.memo.append(obj)
        setattr_ = object.__setattr__
        for name in spec.field_names:
            setattr_(obj, name, self.dec())
        return obj


def decode(data: bytes) -> object:
    """Decode bytes produced by :func:`encode`.

    Raises :class:`BinFormatError` on any defect — truncation, stray
    bytes, unknown tags/ids, malformed varints or utf-8.  Only
    registered types are ever constructed.
    """
    dec = _Decoder(data)
    old = sys.getrecursionlimit()
    if old < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        try:
            obj = dec.dec()
        except BinFormatError:
            raise
        except (struct.error, IndexError, ValueError, TypeError, KeyError) as exc:
            raise BinFormatError(f"malformed binfmt data: {exc!r}") from exc
    finally:
        if old < _RECURSION_LIMIT:
            sys.setrecursionlimit(old)
    if dec.pos != len(data):
        raise BinFormatError(f"{len(data) - dec.pos} trailing bytes after object")
    return obj
