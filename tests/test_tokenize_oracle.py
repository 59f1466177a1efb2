"""The one-regex tokenizer against the character loop it replaced, on
random strings of every kind of character the syntax knows or refuses."""

import random
from dataclasses import dataclass

import pytest

from addlam.parser import _SYMBOLS, ParseError, Token, tokenize


# The character-loop tokenizer of the commit before the regex, kept here
# so the oracle does not run the code it checks.


@dataclass(frozen=True)
class RefToken:
    kind: str
    text: str
    line: int
    col: int


def ref_tokenize(src: str) -> list[RefToken]:
    toks = []
    line, col, i = 1, 1, 0
    while i < len(src):
        c = src[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c.isspace():
            col, i = col + 1, i + 1
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            toks.append(RefToken("ident", src[i:j], line, col))
            col, i = col + (j - i), j
            continue
        for s in _SYMBOLS:
            if src.startswith(s, i):
                toks.append(RefToken("sym", s, line, col))
                col, i = col + len(s), i + len(s)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(RefToken("eof", "", line, col))
    return toks


PIECES = (
    list("abcxyzXYZ019_'")
    + list(_SYMBOLS) + ["-"]
    + [" ", "  ", "\t", "\n", "\n\n", "\r", "\u00a0", "\u2003"]
    + ["é", "ß", "Ω", "٣", "²", "ⅷ"]
    + ["#", "$", "@", "!", "?", "~"]
)


def _outcome(tok, src):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tok(src)]
    except ParseError as e:
        return ("error", str(e), e.line, e.col)


def test_random_strings_tokenize_as_with_the_character_loop():
    rng = random.Random(11)
    errors = 0
    for _ in range(20000):
        src = "".join(rng.choice(PIECES) for _ in range(rng.randrange(0, 16)))
        want = _outcome(ref_tokenize, src)
        assert _outcome(tokenize, src) == want, repr(src)
        errors += want[0] == "error"
    assert 0 < errors < 20000  # both outcomes were exercised


@pytest.mark.parametrize("src", ["x'y' -> \\z.z", "a\n  $", "٣x é", "->-"])
def test_known_inputs_tokenize_as_with_the_character_loop(src):
    assert _outcome(tokenize, src) == _outcome(ref_tokenize, src)


def test_a_token_is_a_tuple_with_the_old_repr():
    t = Token("ident", "x", 1, 2)
    assert repr(t) == "Token(kind='ident', text='x', line=1, col=2)"
    assert t == Token("ident", "x", 1, 2) and t != Token("sym", "x", 1, 2)
    assert (t.kind, t.text, t.line, t.col) == ("ident", "x", 1, 2)
