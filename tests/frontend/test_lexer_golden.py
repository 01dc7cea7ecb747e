"""Golden token streams and lexer diagnostics.

The HLI line table joins front-end items to back-end memory references
by source line, so a lexer change must not move a single token.  These
digests pin every token's ``(kind, text, line, col, repr(value))`` over
each registry set and over the difftest generator's seeds 0-299, and the
table pins the exact message and position of each malformed input.
The digests were recorded with the per-character scanner that the
master-pattern lexer replaced.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.registry import materialize, set_names
from repro.difftest.gen import generate
from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize

SET_DIGESTS = {
    "corpus-v1": "ac9efe0175bd3e4ff6ad14ceed0aeeb3942b0b64591a72096c135be350303b0a",
    "gen-branchy-v1": "a2a39f71263a289f4e7e543ed2c2278d50db8b969f851d9871428d7500b1487f",
    "gen-deepcall-v1": "b69f2dd4e71cf82cb05b257b1c63aac84e757b6c64ac16f696de8bf342318225",
    "gen-float-v1": "d5de9f304dc937fc57e5efeab4ff7ad53886c5ffef238926ae4f747a9cb4f1d9",
    "gen-multiunit-v1": "b30f654f56f98641a767f0d94d2e5d03221726d9deaa584c5f8a933c5ff52d36",
    "gen-pointer-v1": "b3825b2f606f554ec1d1885a694d91c7ea37c0463e5760bf79a018cf79258cb9",
    "kernels-v1": "2c5a957f2c03a5c806108b56682f3754025fd27a6d9766b8238a92f6e47a1a29",
    "quick-v1": "2df996e54af707f3af3c4d0b714cb8728c3abc7ada0e0ad3f635cfe3db2f1e97",
    "suite-v1": "474bea9718b4a1e116141b3c56ac0d49acb2cc1a226bee7a15da2c111b356dc7",
}

DIFFTEST_SEEDS = range(300)
DIFFTEST_DIGEST = "19d5d5de5c3c22f6e5a802a94c043cb62c7cc68d7cd685936bd9185b1b8068fd"


def stream_digest(units) -> str:
    """sha256 over every token of ``(filename, source)`` units, in order."""
    h = hashlib.sha256()
    for filename, source in units:
        h.update(f"== {filename}\n".encode())
        for tok in tokenize(source, filename):
            row = (tok.kind.name, tok.text, tok.pos.line, tok.pos.col, repr(tok.value))
            h.update(f"{row!r}\n".encode())
    return h.hexdigest()


def test_every_registry_set_is_pinned():
    assert sorted(SET_DIGESTS) == sorted(set_names())


@pytest.mark.parametrize("name", sorted(SET_DIGESTS))
def test_registry_set_token_streams(name):
    units = (unit for prog in materialize(name) for unit in prog.units)
    assert stream_digest(units) == SET_DIGESTS[name]


def test_difftest_token_streams():
    units = ((f"seed-{seed}.c", generate(seed)) for seed in DIFFTEST_SEEDS)
    assert stream_digest(units) == DIFFTEST_DIGEST


MALFORMED = [
    # (source, filename, exact str(LexError))
    ("int x;\n  /* never\nends", "t.c", "t.c:2:3: unterminated block comment"),
    ('x = "abc', "t.c", "t.c:1:5: unterminated string literal"),
    ('s = "ab\ncd";', "t.c", "t.c:1:5: unterminated string literal"),
    ('p("ab\\qc");', "t.c", "t.c:1:6: unknown escape '\\q'"),
    ("c = '\\q';", "t.c", "t.c:1:6: unknown escape '\\q'"),
    ("y = 0x;", "t.c", "t.c:1:5: malformed hex literal"),
    ("c = 'a;", "t.c", "t.c:1:5: unterminated char literal"),
    ("c = '';", "t.c", "t.c:1:5: unterminated char literal"),
    # C has no unescaped quote or raw newline inside a char literal.
    ("c = ''';", "t.c", "t.c:1:5: unterminated char literal"),
    ("c = '\n';", "t.c", "t.c:1:5: unterminated char literal"),
    ("int main() {\n    return 2 @ 3;\n}\n", "at.c", "at.c:2:14: unexpected character '@'"),
    # A non-decimal digit starts no token (int() rejected it once).
    ("int main() {\n    return 2²;\n}\n", "sq.c", "sq.c:2:13: unexpected character '²'"),
]


@pytest.mark.parametrize(
    "source,filename,message", MALFORMED, ids=[repr(row[0]) for row in MALFORMED]
)
def test_malformed_input_diagnostic(source, filename, message):
    with pytest.raises(LexError) as exc:
        tokenize(source, filename)
    assert str(exc.value) == message
