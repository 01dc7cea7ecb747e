"""Per-function dependency fingerprints for incremental recompilation.

The per-function artifact cache (:mod:`repro.driver.session`) must answer
one question soundly: *is this function's cached HLI entry / RTL still
valid for the current source?*  Hashing the function's own text is not
enough — its HLI observables also depend on facts *outside* its span:

* the **program shape**: global/struct/function declarations (a struct
  field reorder changes offsets in every function that uses it);
* the **facts of referenced symbols**: storage class, type, whether the
  address is taken (register-promotion flips), and — for pointers — the
  whole-program points-to set (the alias table is built from it);
* the **REF/MOD summaries of callees**: the call REF/MOD table embeds
  each callee's transitive effect set (paper Section 2.2.4);
* the function's **start line**: HLI line tables and region spans use
  absolute source lines, so a function that moved cannot reuse its entry
  (an edit that shifts lines invalidates everything below it — the
  price of the paper's line-number join key).

The fingerprint therefore *chains*: each function gets a ``local`` hash
over its span + referenced-symbol facts + direct-callee effect sets, and
its cache key folds in the local hashes of every function reachable
through calls.  Editing one function changes its local hash and with it
the key of the function itself **and every transitive caller** — exactly
the invalidation set the back end needs, with no global generation
counter and no false sharing between unrelated functions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..analysis.alias import TOP, PointsToResult
from ..analysis.refmod import EffectSet
from ..frontend import ast_nodes as ast
from ..frontend.symbols import Symbol, SymbolTable

__all__ = [
    "FunctionKeys",
    "function_keys",
    "function_spans",
    "transitive_callers",
]


@dataclass
class FunctionKeys:
    """Fingerprints + call-graph structure for one translation unit."""

    #: function names in program order
    order: list[str] = field(default_factory=list)
    #: name -> front-end cache key (hex)
    fe: dict[str, str] = field(default_factory=dict)
    #: name -> hash of the function's own span + direct dependencies
    local: dict[str, str] = field(default_factory=dict)
    #: name -> defined functions it calls directly
    callees: dict[str, set[str]] = field(default_factory=dict)
    #: reverse edges of ``callees``
    callers: dict[str, set[str]] = field(default_factory=dict)
    #: name -> (start_line, end_line) of the source span
    spans: dict[str, tuple[int, int]] = field(default_factory=dict)


def function_spans(source: str, program: ast.Program) -> dict[str, tuple[int, int]]:
    """Partition the source's lines among its top-level definitions.

    A function's span runs from its declaration line to the line before
    the next top-level declaration (or EOF).  Trailing comments between
    functions land in the preceding span — a spurious invalidation at
    worst, never a stale hit.
    """
    starts: list[tuple[int, str]] = []
    for fn in program.functions:
        starts.append((fn.line, fn.name))
    for decl in program.globals:
        starts.append((decl.line, ""))
    for st in program.structs:
        starts.append((st.line, ""))
    starts.sort(key=lambda t: t[0])
    n_lines = source.count("\n") + 1
    spans: dict[str, tuple[int, int]] = {}
    for i, (line, name) in enumerate(starts):
        if not name:
            continue
        end = starts[i + 1][0] - 1 if i + 1 < len(starts) else n_lines
        spans[name] = (line, max(line, end))
    return spans


# -- serialization of facts ----------------------------------------------------


def _obj_name(obj) -> str:
    """Stable name for an abstract memory object (Symbol/HeapObject/TOP)."""
    if obj is TOP:
        return "<top>"
    if isinstance(obj, Symbol):
        return f"{obj.name}/{obj.storage.value}/{obj.ty}/{obj.line}"
    return getattr(obj, "name", repr(obj))


def _effects_text(eff: EffectSet) -> str:
    ref = ",".join(sorted(_obj_name(o) for o in eff.ref))
    mod = ",".join(sorted(_obj_name(o) for o in eff.mod))
    return f"ref[{ref}]mod[{mod}]"


def _symbol_facts(sym: Symbol, pts: PointsToResult) -> str:
    parts = [
        sym.name,
        sym.storage.value,
        str(sym.ty),
        "addr" if sym.address_taken else "reg",
        "mem" if sym.in_memory else "promoted",
    ]
    if sym.ty.is_pointer:
        targets = ",".join(sorted(_obj_name(o) for o in pts.targets(sym)))
        parts.append(f"pts[{targets}]")
    return "/".join(parts)


def _function_refs(fn: ast.FuncDef) -> tuple[set[Symbol], set[str]]:
    """Symbols referenced and functions called directly by ``fn``."""
    syms: set[Symbol] = set()
    callees: set[str] = set()
    for p in fn.params:
        if isinstance(p.symbol, Symbol):
            syms.add(p.symbol)
    assert fn.body is not None
    for stmt in ast.walk_own_stmts(fn.body):
        if isinstance(stmt, ast.VarDecl) and isinstance(stmt.symbol, Symbol):
            syms.add(stmt.symbol)
        for e in ast.stmt_exprs(stmt):
            for x in ast.walk_exprs(e):
                if isinstance(x, ast.Name) and isinstance(x.symbol, Symbol):
                    syms.add(x.symbol)
                elif isinstance(x, ast.Call):
                    callees.add(x.callee)
    return syms, callees


def _shape_hash(program: ast.Program, table: SymbolTable) -> str:
    """Hash of every top-level declaration *signature* (not bodies).

    Changing any global's type, any struct layout, or any function
    prototype retires every per-function entry in the file — these facts
    feed size/offset/ABI decisions that the per-symbol slices cannot
    always localize (a struct's field offsets, for one).
    """
    h = hashlib.sha256()
    h.update(b"shape\x00")
    for decl in program.globals:
        sym = decl.symbol
        if isinstance(sym, Symbol):
            h.update(f"g:{sym.name}:{sym.ty}:{sym.storage.value}\n".encode())
    for st in program.structs:
        fields = ",".join(f"{n}:{t}" for n, t in st.fields)
        h.update(f"s:{st.name}:{fields}\n".encode())
    for name, fsym in sorted(table.functions.items()):
        params = ",".join(str(t) for t in fsym.ty.params)
        h.update(
            f"f:{name}:{fsym.ty.ret}({params}):"
            f"{int(fsym.defined)}{int(fsym.external)}\n".encode()
        )
    return h.hexdigest()


# -- key construction ----------------------------------------------------------


def function_keys(
    source: str,
    program: ast.Program,
    table: SymbolTable,
    pts: PointsToResult,
    refmod: dict[str, EffectSet],
    salt: str = "",
) -> FunctionKeys:
    """Compute chained per-function cache keys for a checked program.

    ``salt`` folds in everything function-independent that the caller
    wants in the key (cache format version, front-end pass fingerprints,
    filename).  ``refmod`` must be the solved transitive effect map —
    direct callees' entries then carry their whole downstream story.
    """
    keys = FunctionKeys(order=[fn.name for fn in program.functions])
    keys.spans = function_spans(source, program)
    lines = source.split("\n")
    shape = _shape_hash(program, table)
    defined = set(keys.order)

    top_effects = _effects_text(EffectSet(ref={TOP}, mod={TOP}))
    for fn in program.functions:
        start, end = keys.spans[fn.name]
        span_text = "\n".join(lines[start - 1 : end])
        syms, called = _function_refs(fn)
        h = hashlib.sha256()
        h.update(b"fn-local\x00")
        h.update(f"{fn.name}@{start}\n".encode())
        h.update(span_text.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
        for fact in sorted(_symbol_facts(s, pts) for s in syms):
            h.update(fact.encode())
            h.update(b"\n")
        for callee in sorted(called):
            eff = refmod.get(callee)
            h.update(f"call:{callee}:".encode())
            h.update((_effects_text(eff) if eff is not None else top_effects).encode())
            h.update(b"\n")
        keys.local[fn.name] = h.hexdigest()
        keys.callees[fn.name] = {c for c in called if c in defined}

    for name in keys.order:
        keys.callers.setdefault(name, set())
    for name, called in keys.callees.items():
        for c in called:
            keys.callers.setdefault(c, set()).add(name)

    # Chain: fold the local hash of every function reachable through
    # calls into the key.  Reachability (not SCC topological order)
    # handles recursion cycles with no special casing.
    for name in keys.order:
        reachable = _reachable(keys.callees, name)
        h = hashlib.sha256()
        h.update(b"fn-key\x00")
        h.update(salt.encode())
        h.update(b"\x00")
        h.update(shape.encode())
        h.update(b"\x00")
        h.update(keys.local[name].encode())
        for dep in sorted(reachable - {name}):
            h.update(f"\x00{dep}={keys.local[dep]}".encode())
        keys.fe[name] = h.hexdigest()
    return keys


def _reachable(edges: dict[str, set[str]], root: str) -> set[str]:
    seen = {root}
    work = [root]
    while work:
        for nxt in edges.get(work.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def transitive_callers(keys: FunctionKeys, names: set[str]) -> set[str]:
    """Every function whose key depends on any of ``names`` (excl. them).

    This is the invalidation set an edit to ``names`` adds on top of the
    edited functions themselves: all transitive callers, because their
    chained fingerprints fold in the editees' local hashes.
    """
    out: set[str] = set()
    work = list(names)
    while work:
        for caller in keys.callers.get(work.pop(), ()):
            if caller not in out and caller not in names:
                out.add(caller)
                work.append(caller)
    return out
