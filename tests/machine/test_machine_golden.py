"""Exact machine-layer results for three Table-2 rows.

Each row is compiled in ``gcc`` and ``combined`` mode, scheduled for
both latency tables, executed, and its trace timed on three model
configurations.  Everything observable is pinned: the return value,
output, step count, trace length, a digest of the whole trace, and
the cycle counts.  A change to the executor or a timing model must
leave these values alone; a change to the compiler that moves them on
purpose (103.su2cor is the row a scheduler fix would move) updates
them in the same change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import CompileOptions
from repro.backend.ddg import DDGMode
from repro.driver.session import CompilationSession
from repro.machine.executor import execute
from repro.machine.latencies import r4600_latency, r10000_latency
from repro.machine.memory import r4600_hierarchy, r10000_hierarchy
from repro.machine.pipeline import R4600Model
from repro.machine.superscalar import R10000Config, R10000Model
from repro.workloads.suite import by_name

LATENCIES = {"r4600": r4600_latency, "r10000": r10000_latency}

#: (row, mode, schedule latency) -> (ret, output, steps, trace length,
#: trace digest, cycles on R4600Model(), R10000Model() and R10000Model
#: without its store queue)
GOLDEN = {
    ("wc", "gcc", "r4600"): (
        436782, [], 134577, 114869,
        "bc47939838de24063b9ad4de755ce706e925e4e1d059f355e30dda7ce947eba0",
        (147013, 36268, 36268),
    ),
    ("wc", "gcc", "r10000"): (
        436782, [], 134577, 114869,
        "633d97c5241bac3ee683cc0ff2facd60243c89fe4ce0618c47e8d187a54f7bc0",
        (148792, 36268, 36268),
    ),
    ("wc", "combined", "r4600"): (
        436782, [], 134577, 114869,
        "e91f095ab4bd2a0d7b8f3be1e583b6d2483afd15686719d271bcdb2dbc03f2c9",
        (141676, 36020, 36020),
    ),
    ("wc", "combined", "r10000"): (
        436782, [], 134577, 114869,
        "e1ad28eff9039d0adcd16d7b5699954ffa5fa1cfeb86be0a3df7e5743bb1a384",
        (145234, 36260, 36259),
    ),
    ("129.compress", "gcc", "r4600"): (
        628, [], 111966, 100582,
        "45b6af04f28f410a034f3c43d6fe17d440a3ada62f32591777a6de303b0985d5",
        (161740, 50606, 50606),
    ),
    ("129.compress", "gcc", "r10000"): (
        628, [], 111966, 100582,
        "05893da77d22e30c262f581d1b1bd718662d25413140206f7044c36ca70f83d2",
        (163218, 50606, 50606),
    ),
    ("129.compress", "combined", "r4600"): (
        628, [], 111966, 100582,
        "0be2ced678253d1355b4c24eeb7db3d31d78cdc4e300e110e62ade4855d03c65",
        (161926, 50606, 50606),
    ),
    ("129.compress", "combined", "r10000"): (
        628, [], 111966, 100582,
        "a4570910ec81d6e4a29d73b6bb19613db449a7db74cd44f99c118b5384bff0d0",
        (162248, 50606, 50606),
    ),
    ("103.su2cor", "gcc", "r4600"): (
        1, [], 241888, 227466,
        "f69f22196cd9174368f1f8459c10f410de0c30e978cb59bd564efecf0ea7fbf8",
        (366303, 102059, 100030),
    ),
    ("103.su2cor", "gcc", "r10000"): (
        1, [], 241888, 227466,
        "9e434c995e14c032fab8ab5078c4805635d89f80dc8b38c4517c7c15cfa6b2ea",
        (384447, 99535, 99030),
    ),
    ("103.su2cor", "combined", "r4600"): (
        1, [], 241888, 227466,
        "88f56c7a78b565017e313d9efba023549046834272e7362cc4e6dce5cb379039",
        (366303, 100035, 100030),
    ),
    ("103.su2cor", "combined", "r10000"): (
        1, [], 241888, 227466,
        "587186f746b72c59e89f365cd58bc4d097276944edd7447f0c579e2da4a8b5fa",
        (386463, 101546, 101541),
    ),
}

#: row -> cycles of its combined, R10000-scheduled trace on
#: R4600Model(cache=r4600_hierarchy()) and R10000Model(cache=r10000_hierarchy())
HIERARCHY = {
    "wc": (145690, 37947),
    "129.compress": (165440, 60039),
    "103.su2cor": (388107, 108352),
}


@pytest.fixture(scope="module")
def sessions() -> dict[str, CompilationSession]:
    """One session per row, so a row's four compiles share its front end."""
    return {}


def _execute(sessions, row: str, mode: str, latency: str):
    spec = by_name(row)
    session = sessions.setdefault(row, CompilationSession())
    opts = CompileOptions(mode=DDGMode(mode), latency=LATENCIES[latency])
    comp = session.compile(spec.source, spec.name, opts)
    return execute(comp.rtl, spec.entry, input_text=spec.input_text)


def trace_digest(events) -> str:
    """sha256 over every event's ``(opcode, source line, address)``."""
    h = hashlib.sha256()
    for ev in events:
        h.update(f"{ev.insn.op.value},{ev.insn.line},{ev.addr};".encode())
    return h.hexdigest()


@pytest.mark.parametrize("key", list(GOLDEN), ids="/".join)
def test_execution_and_cycles_pinned(sessions, key):
    ret, output, steps, length, digest, cycles = GOLDEN[key]
    res = _execute(sessions, *key)
    assert res.ret == ret
    assert res.output == output
    assert res.steps == steps
    assert len(res.trace) == length
    assert trace_digest(res.trace) == digest
    models = (R4600Model(), R10000Model(), R10000Model(R10000Config(store_queue=False)))
    assert tuple(m.time(res.trace).cycles for m in models) == cycles


@pytest.mark.parametrize("row", list(HIERARCHY))
def test_cycles_with_cache_hierarchy_pinned(sessions, row):
    res = _execute(sessions, row, "combined", "r10000")
    models = (R4600Model(cache=r4600_hierarchy()), R10000Model(cache=r10000_hierarchy()))
    assert tuple(m.time(res.trace).cycles for m in models) == HIERARCHY[row]
