"""Hierarchical tracing spans (the ``trace`` half of :mod:`repro.obs`).

A *span* is one timed region of the pipeline — ``driver.compile``,
``frontend.parse``, ``backend.schedule`` — with wall time measured via
:func:`time.perf_counter`, arbitrary key/value attributes, and proper
nesting: spans opened while another span is active become its children,
so one compilation yields a tree mirroring the paper's Figure 3
pipeline.

Overhead contract
-----------------
Tracing is **off by default** and the disabled path is a no-op fast
path: :func:`span` checks one module-level boolean and returns a shared
singleton whose ``__enter__``/``__exit__`` do nothing — no ``Span``
object is ever allocated, no clock is read, nothing is appended.  Tests
in ``tests/obs/test_noop_fastpath.py`` pin this down.

Usage::

    from repro.obs import trace

    trace.enable()
    with trace.span("frontend.parse", file=name):
        ...
    trace.disable()

Enable globally with the ``REPRO_TRACE=1`` environment variable, per
compilation with ``CompileOptions(trace=True)``, or programmatically
with :func:`enable` / :func:`enabled_scope`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

__all__ = [
    "Span",
    "span",
    "enable",
    "disable",
    "is_enabled",
    "enabled_scope",
    "reset",
    "roots",
    "iter_spans",
    "allocated_spans",
    "epoch",
]

#: Module-level fast-path switch.  Checked by :func:`span` before doing
#: any work; everything else in this module is off that path.
_enabled: bool = False

#: perf_counter value when tracing was last enabled/reset; Chrome export
#: timestamps are relative to this.
_epoch: float = 0.0

#: Completed + in-flight top-level spans, in start order.  Appends are
#: atomic under the GIL, so threads may share this list; their root
#: spans interleave in global start order.
_roots: list["Span"] = []

#: Currently open spans, innermost last — **per thread**, so concurrent
#: compiles (threads sharing one session) nest their own spans correctly
#: instead of parenting under whichever span another thread has open.
_tls = threading.local()


def _span_stack() -> list["Span"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack

#: Total Span objects ever allocated (diagnostic for the no-op tests).
_allocations: int = 0


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class Span:
    """One timed, attributed, nestable region."""

    __slots__ = ("name", "attrs", "ts", "dur", "children")

    def __init__(self, name: str, attrs: dict) -> None:
        global _allocations
        _allocations += 1
        self.name = name
        self.attrs = attrs
        self.ts: float = 0.0  # perf_counter at __enter__
        self.dur: Optional[float] = None  # seconds; None while open
        self.children: list["Span"] = []

    def set(self, **attrs: object) -> "Span":
        """Attach attributes after the span was opened."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _span_stack()
        if stack:
            stack[-1].children.append(self)
        else:
            _roots.append(self)
        stack.append(self)
        self.ts = perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.dur = perf_counter() - self.ts
        # Tolerate mispaired exits (e.g. disabled mid-span): unwind to self.
        stack = _span_stack()
        while stack:
            if stack.pop() is self:
                break
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.dur * 1e3:.3f}ms" if self.dur is not None else "open"
        return f"Span({self.name!r}, {state}, {len(self.children)} children)"


def span(name: str, **attrs: object):
    """Open a span (context manager).  No-op singleton while disabled."""
    if not _enabled:
        return _NOOP
    return Span(name, attrs)


# -- switches -----------------------------------------------------------------


def enable() -> None:
    """Turn tracing on (idempotent; keeps already-recorded spans)."""
    global _enabled, _epoch
    if not _enabled:
        _enabled = True
        if not _roots:
            _epoch = perf_counter()


def disable() -> None:
    """Turn tracing off; recorded spans stay readable until :func:`reset`."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


@contextmanager
def enabled_scope(on: bool = True) -> Iterator[None]:
    """Enable tracing inside the ``with`` body, restoring the prior state.

    Already-enabled tracing is left untouched (so a ``validate`` run that
    enabled tracing globally is not turned off by a nested compile).
    """
    if not on or _enabled:
        yield
        return
    enable()
    try:
        yield
    finally:
        disable()


def reset() -> None:
    """Drop all recorded spans and re-zero the epoch (keeps the switch).

    Clears the *calling* thread's open-span stack; a span still open on
    another thread simply unwinds into its own (cleared) stack on exit.
    """
    global _epoch
    _roots.clear()
    _span_stack().clear()
    _epoch = perf_counter()


# -- introspection ------------------------------------------------------------


def roots() -> list[Span]:
    """Top-level spans recorded so far, in start order."""
    return list(_roots)


def iter_spans() -> Iterator[Span]:
    """Every recorded span, depth-first in start order."""

    def rec(s: Span) -> Iterator[Span]:
        yield s
        for c in s.children:
            yield from rec(c)

    for r in _roots:
        yield from rec(r)


def allocated_spans() -> int:
    """Total :class:`Span` objects ever constructed in this process."""
    return _allocations


def epoch() -> float:
    """perf_counter origin for exported timestamps."""
    return _epoch
