"""Text syntax for terms, types, annotated terms, and target-calculus
terms and types. Rigid sum trees have no syntax of their own: a rigid
type is written as a type. Application binds tighter than +, arrows are
right-associative and bind tighter than +, and binders extend to the
right as far as possible."""

from __future__ import annotations

import re
from typing import NamedTuple

from .binders import free_name
from .derivation import AAbs, AApp, AGen, AInst, ASum, ATerm, AVar, AZero, AppWitness
from .syntax import Abs, App, Sum, Term, Var, Zero
from .sysf import (
    FAbs,
    FApp,
    FArrow,
    FForall,
    FPair,
    FProd,
    FProjL,
    FProjR,
    FTVar,
    FTerm,
    FType,
    FUnit,
    FVar,
    Star,
)
from .typesys import TArrow, TForall, TSum, TVar, TZero, Type


class ParseError(Exception):
    """A syntax error with its position in the input."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # "ident", "sym", "eof"
    text: str
    line: int
    col: int


_SYMBOLS = ("->", "\\", ".", "(", ")", "+", "*", "<", ">", ",", "{", "}",
            "[", "]", "|", ";", ":")

# One token or one run of blanks, by group: newlines, other whitespace, an
# identifier, a symbol.  ``\w`` is ``str.isalnum()`` or ``_``; symbols are
# tried in the order of _SYMBOLS, so ``->`` wins over any shorter one.
_TOKEN = re.compile(r"(\n+)|([^\S\n]+)|(\w[\w']*)|(" + "|".join(map(re.escape, _SYMBOLS)) + ")")


def tokenize(src: str) -> list[Token]:
    toks = []
    line, col, i = 1, 1, 0
    match = _TOKEN.match
    while i < len(src):
        m = match(src, i)
        if m is None:
            raise ParseError(f"unexpected character {src[i]!r}", line, col)
        j = m.end()
        group = m.lastindex
        if group == 1:
            line, col = line + (j - i), 1
        else:
            if group > 2:
                toks.append(Token("ident" if group == 3 else "sym", m.group(), line, col))
            col += j - i
        i = j
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind != "eof"

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.fail(f"expected {text!r}")
        return self.next()

    def ident(self, what: str = "a name") -> str:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}")
        try:
            free_name(t.text)
        except ValueError:
            self.fail(f"{t.text!r} is reserved for positional binder names")
        return self.next().text

    def done(self):
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")

    # --- source terms ---

    def term(self) -> Term:
        parts = [self.term_app()]
        while self.eat("+"):
            parts.append(self.term_app())
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def term_app(self) -> Term:
        t = self.term_atom()
        while self._at_term_atom():
            t = App(t, self.term_atom())
        return t

    def _at_term_atom(self) -> bool:
        p = self.peek()
        return p.kind == "ident" or p.text in ("\\", "(")

    def term_atom(self) -> Term:
        if self.eat("\\"):
            x = self.ident("a variable")
            self.expect(".")
            return Abs(x, self.term())
        if self.eat("("):
            t = self.term()
            self.expect(")")
            return t
        name = self.ident("a term")
        return Zero if name == "zero" else Var(name)

    # --- source types ---

    def type_(self) -> Type:
        parts = [self.type_arrow()]
        while self.eat("+"):
            parts.append(self.type_arrow())
        return parts[0] if len(parts) == 1 else TSum(tuple(parts))

    def type_arrow(self) -> Type:
        t = self.type_atom()
        if self.eat("->"):
            return TArrow(t, self.type_arrow())
        return t

    def type_atom(self) -> Type:
        if self.eat("("):
            t = self.type_()
            self.expect(")")
            return t
        name = self.ident("a type")
        if name == "void":
            return TZero
        if name == "forall":
            x = self.ident("a type variable")
            self.expect(".")
            return TForall(x, self.type_())
        return TVar(name)

    # --- annotated terms ---

    def aterm(self) -> ATerm:
        parts = [self.aterm_app()]
        while self.eat("+"):
            parts.append(self.aterm_app())
        return parts[0] if len(parts) == 1 else ASum(tuple(parts))

    def aterm_app(self) -> ATerm:
        t = self.aterm_atom()
        while self._at_aterm_atom():
            arg = self.aterm_atom()
            wit = self.witness() if self.at("{") else None
            t = AApp(t, arg, wit)
        return t

    def _at_aterm_atom(self) -> bool:
        p = self.peek()
        return p.kind == "ident" or p.text in ("\\", "(")

    def aterm_atom(self) -> ATerm:
        if self.eat("\\"):
            x = self.ident("a variable")
            self.expect(":")
            ann = self.type_arrow()
            self.expect(".")
            return AAbs(x, ann, self.aterm())
        if self.eat("("):
            t = self.aterm()
            self.expect(")")
            return t
        name = self.ident("a term")
        if name == "zero":
            return AZero()
        if name == "gen":
            x = self.ident("a type variable")
            self.expect(".")
            return AGen(x, self.aterm())
        if name == "inst":
            body = self.aterm_atom()
            self.expect("[")
            ty = self.type_()
            self.expect("]")
            return AInst(body, ty)
        return AVar(name)

    def witness(self) -> AppWitness:
        """{ U | T1, T2 | [V11, V12], [V21] | X, Y }"""
        self.expect("{")
        u = self.type_()
        self.expect("|")
        ts = [self.type_()]
        while self.eat(","):
            ts.append(self.type_())
        self.expect("|")
        vs = [self._type_vec()]
        while self.eat(","):
            vs.append(self._type_vec())
        self.expect("|")
        xs: list[str] = []
        if self.peek().kind == "ident":
            xs.append(self.ident())
            while self.eat(","):
                xs.append(self.ident())
        self.expect("}")
        return AppWitness(u, tuple(ts), tuple(vs), tuple(xs))

    def _type_vec(self) -> tuple[Type, ...]:
        self.expect("[")
        vec: list[Type] = []
        if not self.at("]"):
            vec.append(self.type_())
            while self.eat(","):
                vec.append(self.type_())
        self.expect("]")
        return tuple(vec)

    # --- target-calculus terms ---

    def fterm(self) -> FTerm:
        t = self.fterm_atom()
        while self._at_fterm_atom():
            t = FApp(t, self.fterm_atom())
        return t

    def _at_fterm_atom(self) -> bool:
        p = self.peek()
        return p.kind == "ident" or p.text in ("\\", "(", "<")

    def fterm_atom(self) -> FTerm:
        if self.eat("\\"):
            x = self.ident("a variable")
            self.expect(".")
            return FAbs(x, self.fterm())
        if self.eat("("):
            t = self.fterm()
            self.expect(")")
            return t
        if self.eat("<"):
            a = self.fterm()
            self.expect(",")
            b = self.fterm()
            self.expect(">")
            return FPair(a, b)
        name = self.ident("a term")
        if name == "star":
            return Star
        if name == "proj_l":
            return FProjL(self.fterm_atom())
        if name == "proj_r":
            return FProjR(self.fterm_atom())
        return FVar(name)

    # --- target-calculus types ---

    def ftype(self) -> FType:
        t = self.ftype_prod()
        if self.eat("->"):
            return FArrow(t, self.ftype())
        return t

    def ftype_prod(self) -> FType:
        t = self.ftype_atom()
        while self.eat("*"):
            t = FProd(t, self.ftype_atom())
        return t

    def ftype_atom(self) -> FType:
        if self.eat("("):
            t = self.ftype()
            self.expect(")")
            return t
        name = self.ident("a type")
        if name == "1":
            return FUnit
        if name == "forall":
            x = self.ident("a type variable")
            self.expect(".")
            return FForall(x, self.ftype())
        return FTVar(name)


def _run(src: str, method: str):
    p = _Parser(src)
    out = getattr(p, method)()
    p.done()
    return out


def parse_term(src: str) -> Term:
    return _run(src, "term")


def parse_type(src: str) -> Type:
    return _run(src, "type_")


def parse_aterm(src: str) -> ATerm:
    """An annotation-carrying term, elaborated elsewhere to a derivation."""
    return _run(src, "aterm")


def parse_fterm(src: str) -> FTerm:
    return _run(src, "fterm")


def parse_ftype(src: str) -> FType:
    return _run(src, "ftype")


def parse_context(src: str) -> list[tuple[str, Type]]:
    """Comma-separated hypotheses: `x: X, f: X -> X`.  A variable named
    twice is refused at its second occurrence."""
    p = _Parser(src)
    out: list[tuple[str, Type]] = []
    seen: set[str] = set()
    if p.peek().kind != "eof":
        while True:
            t = p.peek()
            x = p.ident("a variable")
            if x in seen:
                raise ParseError(f"variable {x} is already in the context", t.line, t.col)
            seen.add(x)
            p.expect(":")
            out.append((x, p.type_()))
            if not p.eat(","):
                break
    p.done()
    return out
