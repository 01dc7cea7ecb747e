"""Lexer unit tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frontend.errors import LexError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


class TestBasicTokens:
    def test_empty_input_gives_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.kind is TokenKind.IDENT
        assert tok.text == "hello"

    def test_identifier_with_underscore_and_digits(self):
        (tok,) = tokenize("_foo_42")[:-1]
        assert tok.kind is TokenKind.IDENT

    def test_keywords_are_not_identifiers(self):
        assert kinds("int") == [TokenKind.KW_INT]
        assert kinds("while") == [TokenKind.KW_WHILE]
        assert kinds("return") == [TokenKind.KW_RETURN]

    def test_keyword_prefix_is_identifier(self):
        (tok,) = tokenize("integer")[:-1]
        assert tok.kind is TokenKind.IDENT

    def test_int_literal(self):
        (tok,) = tokenize("1234")[:-1]
        assert tok.kind is TokenKind.INT_LIT
        assert tok.value == 1234

    def test_hex_literal(self):
        (tok,) = tokenize("0x1F")[:-1]
        assert tok.value == 31

    def test_float_literal(self):
        (tok,) = tokenize("3.25")[:-1]
        assert tok.kind is TokenKind.FLOAT_LIT
        assert tok.value == 3.25

    def test_float_with_exponent(self):
        (tok,) = tokenize("1e3")[:-1]
        assert tok.kind is TokenKind.FLOAT_LIT
        assert tok.value == 1000.0

    def test_float_negative_exponent(self):
        (tok,) = tokenize("2.5e-2")[:-1]
        assert tok.value == 0.025

    def test_float_f_suffix(self):
        (tok,) = tokenize("1.5f")[:-1]
        assert tok.kind is TokenKind.FLOAT_LIT
        assert tok.value == 1.5

    def test_char_literal(self):
        (tok,) = tokenize("'a'")[:-1]
        assert tok.kind is TokenKind.CHAR_LIT
        assert tok.value == ord("a")

    def test_char_escape(self):
        (tok,) = tokenize(r"'\n'")[:-1]
        assert tok.value == 10

    def test_string_literal(self):
        (tok,) = tokenize('"hi there"')[:-1]
        assert tok.kind is TokenKind.STRING_LIT
        assert tok.value == "hi there"

    def test_string_with_escapes(self):
        (tok,) = tokenize(r'"a\tb\n"')[:-1]
        assert tok.value == "a\tb\n"


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("==", TokenKind.EQ),
            ("!=", TokenKind.NE),
            ("&&", TokenKind.ANDAND),
            ("||", TokenKind.OROR),
            ("<<", TokenKind.LSHIFT),
            (">>", TokenKind.RSHIFT),
            ("+=", TokenKind.PLUS_ASSIGN),
            ("++", TokenKind.PLUSPLUS),
            ("--", TokenKind.MINUSMINUS),
            ("->", TokenKind.ARROW),
        ],
    )
    def test_multichar_operator(self, text, kind):
        assert kinds(text) == [kind]

    def test_maximal_munch(self):
        # "a+++b" lexes as a ++ + b in C
        assert kinds("a+++b") == [
            TokenKind.IDENT,
            TokenKind.PLUSPLUS,
            TokenKind.PLUS,
            TokenKind.IDENT,
        ]

    def test_less_then_assign(self):
        assert kinds("a < = b") == [
            TokenKind.IDENT,
            TokenKind.LT,
            TokenKind.ASSIGN,
            TokenKind.IDENT,
        ]


class TestTriviaAndPositions:
    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert [t.pos.line for t in toks[:-1]] == [1, 2, 3]

    def test_column_numbers(self):
        toks = tokenize("ab cd")
        assert toks[0].pos.col == 1
        assert toks[1].pos.col == 4

    def test_line_comment_skipped(self):
        assert kinds("a // comment\nb") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\ny */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comment_tracks_lines(self):
        toks = tokenize("/* one\ntwo */ x")
        assert toks[0].pos.line == 2

    def test_preprocessor_line_skipped(self):
        assert kinds("#include <stdio.h>\nint") == [TokenKind.KW_INT]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"no end')

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestLexerProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_int_literal_roundtrip(self, n):
        (tok,) = tokenize(str(n))[:-1]
        assert tok.value == n

    @given(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Lu")),
            min_size=1,
            max_size=12,
        )
    )
    def test_alpha_text_lexes_to_words(self, s):
        from repro.frontend.tokens import KEYWORDS

        toks = tokenize(s)[:-1]
        assert len(toks) == 1
        expected = KEYWORDS.get(s, TokenKind.IDENT)
        assert toks[0].kind is expected

    @given(st.lists(st.sampled_from(["a", "+", "1", "(", ")", "*", ";"]), max_size=30))
    def test_token_concatenation_never_crashes(self, parts):
        text = " ".join(parts)
        toks = tokenize(text)
        assert toks[-1].kind is TokenKind.EOF
        assert len(toks) == len(parts) + 1


class TestNonDecimalDigits:
    """Numeric literals are ASCII; a character that starts no token is a
    LexError at its own position, never an uncaught ``int()`` failure."""

    def test_superscript_digit_after_a_number(self):
        with pytest.raises(LexError) as exc:
            tokenize("return 2²;", "sq.c")
        assert str(exc.value) == "sq.c:1:9: unexpected character '²'"

    @pytest.mark.parametrize("text", ["²", "²x", "½", "Ⅻ", "١٢٣"])
    def test_non_letter_numerics_start_no_token(self, text):
        with pytest.raises(LexError) as exc:
            tokenize(text, "n.c")
        assert str(exc.value) == f"n.c:1:1: unexpected character {text[0]!r}"

    def test_non_ascii_decimal_digit_ends_a_number(self):
        with pytest.raises(LexError) as exc:
            tokenize("x = 1٣;", "n.c")
        assert str(exc.value) == "n.c:1:6: unexpected character '٣'"

    def test_letters_and_numerics_continue_identifiers(self):
        assert [(t.kind, t.text) for t in tokenize("é a² x١ _½")[:-1]] == [
            (TokenKind.IDENT, "é"),
            (TokenKind.IDENT, "a²"),
            (TokenKind.IDENT, "x١"),
            (TokenKind.IDENT, "_½"),
        ]


class TestTokenContract:
    def test_token_fields_are_read_only(self):
        tok = tokenize("x")[0]
        with pytest.raises(AttributeError):
            tok.text = "y"
        with pytest.raises(AttributeError):
            tok.kind = TokenKind.KW_INT

    def test_pos_fields_are_read_only(self):
        pos = tokenize("x")[0].pos
        with pytest.raises(AttributeError):
            pos.line = 2
        with pytest.raises(AttributeError):
            pos.col = 2

    def test_equal_tokens_compare_and_hash_equal(self):
        first = tokenize("x = 1.5; // c\n'a'", "f.c")
        second = tokenize("x = 1.5; // c\n'a'", "f.c")
        assert first == second
        assert [hash(t) for t in first] == [hash(t) for t in second]
        assert len(set(first) | set(second)) == len(first)
        assert tokenize("x", "f.c")[0] != tokenize("x", "g.c")[0]

    def test_str_of_pos_is_file_line_col(self):
        tok = tokenize("\n  /* a\n b */ int", "f.c")[0]
        assert str(tok.pos) == "f.c:3:7"

    def test_every_punctuator_lexes_to_its_own_kind(self):
        from repro.frontend.tokens import KEYWORDS

        named = {
            TokenKind.IDENT,
            TokenKind.INT_LIT,
            TokenKind.FLOAT_LIT,
            TokenKind.STRING_LIT,
            TokenKind.CHAR_LIT,
            TokenKind.EOF,
        }
        punctuators = set(TokenKind) - named - set(KEYWORDS.values())
        assert len(punctuators) == 39
        for kind in punctuators:
            assert kinds(kind.value) == [kind], kind


class TestLexerCost:
    def test_at_most_one_python_call_per_source_character(self):
        """Counted, not timed: the scan loop must not call back into
        Python per character (the per-character scanner made ~5.9)."""
        import sys

        from repro.bench.registry import materialize

        (prog,) = [p for p in materialize("quick-v1") if p.name == "deepcall-000"]
        ((filename, source),) = prog.units
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            toks = tokenize(source, filename)
        finally:
            sys.setprofile(previous)
        assert (len(source), len(toks)) == (3459, 1497)
        assert calls / len(source) <= 1.0
