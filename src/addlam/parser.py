"""Text syntax for terms, types, annotated terms, and target-calculus
terms and types. Rigid sum trees have no syntax of their own: a rigid
type is written as a type. Application binds tighter than +, arrows are
right-associative and bind tighter than +, and binders extend to the
right as far as possible.

Terms, types, F-terms and F-types are read by one reader, ``_Parser.node``,
by precedence climbing (Pratt's method) over each language's table of
forms, the table its printer reads, so each syntax is declared once.
Annotated terms and contexts keep a grammar of their own, which reads its
types through that reader."""

from __future__ import annotations

import re
from typing import NamedTuple

from . import syntax, sysf, typesys
from .binders import _BINDER, _CONST, _SUM, _VAR
from .derivation import AAbs, AApp, AGen, AInst, ASum, ATerm, AVar, AZero, AppWitness
from .syntax import Term, Zero
from .sysf import FTerm, FType, FUnit, Star
from .typesys import TZero, Type


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


# the one instance of each constant node class
_CONSTANTS = {c.__class__: c for c in (Zero, TZero, Star, FUnit)}


class _Grammar:
    """A language's syntax for ``_Parser.node``, compiled from its table of
    forms, the one ``binders.show`` prints by, and the nouns its errors
    name a node and a bound name by.  ``heads`` maps the first token of a
    node to its constructor and the steps that read its children (see
    ``_Parser.read``): ``(``, a constant's text, a binder's keyword (then
    ``name . body``, the body at level 0) and a template's leading
    literal.  ``infix`` maps the token after a node's first child to
    (level, class, steps): a sum's separator, whose step is its parts'
    level, or the literal after a template's leading ``{}``.  ``juxt`` is
    the template ``{} {}``, whose second child follows with no token
    between; it is taken when the next token starts a node."""

    def __init__(self, forms: dict, noun: str, var_noun: str):
        self.noun, self.var_noun = noun, var_noun
        self.heads = {"(": (lambda t: t, (0, ")"))}
        self.infix, self.juxt = {}, None
        for cls, form in forms.items():
            role = cls._role
            if role == _VAR:
                self.var = cls
            elif role == _CONST:
                self.heads[form] = (lambda one=_CONSTANTS[cls]: one, ())
            elif role == _BINDER:
                self.heads[form.strip()] = (cls, (None, ".", 0))
            elif role == _SUM:
                own, sep, inner = form
                self.infix[sep.strip()] = (own, cls, inner)
            else:
                own, template, inner = form
                lits = [f.split() for f in template.split("{}")]
                steps = [*lits[0]]
                for lv, lit in zip(inner, lits[1:]):
                    steps += [lv, *lit]
                if steps[0].__class__ is str:
                    self.heads[steps[0]] = (cls, steps[1:])
                elif steps[1:] and steps[1].__class__ is str:
                    self.infix[steps[1]] = (own, cls, steps[2:])
                else:
                    self.juxt = (own, cls, steps[1:])


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
        return self.next().text

    def done(self):
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")

    # --- the four languages ---

    def node(self, g: _Grammar, level: int):
        """A node of g's language read from here: a head (a variable, a
        parenthesised node or a form its first token starts), then each
        infix form, sum or juxtaposition whose own level is at least
        ``level``, with what is read so far as its first child.  Neither
        the head nor that first child is checked against a level, so
        binders and prefix forms stand wherever an atom can and
        ``A * B * C`` is read left-associated."""
        head = g.heads.get(self.peek().text)
        if head is None:
            left = g.var(self.ident(g.noun))
        else:
            self.next()
            make, steps = head
            left = make(*self.read(g, steps))
        while True:
            t = self.peek()
            op = g.infix.get(t.text)
            if op is None and g.juxt and (t.kind == "ident" or t.text in g.heads):
                op = g.juxt
            if op is None or op[0] < level:
                return left
            _, cls, steps = op
            if cls._role == _SUM:
                parts = [left]
                while self.eat(t.text):
                    parts.append(self.node(g, steps))
                left = cls(tuple(parts))
            else:
                if op is not g.juxt:
                    self.next()
                left = cls(left, *self.read(g, steps))

    def read(self, g: _Grammar, steps) -> list:
        """The children a form's steps read: an int is a child read at that
        level, None a bound name, and a string a token to expect."""
        kids = []
        for s in steps:
            if s is None:
                kids.append(self.ident(g.var_noun))
            elif s.__class__ is int:
                kids.append(self.node(g, s))
            else:
                self.expect(s)
        return kids

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
            ann = self.node(_TYPES, 2)  # at the arrow's level: a sum needs parentheses
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
            ty = self.node(_TYPES, 0)
            self.expect("]")
            return AInst(body, ty)
        return AVar(name)

    def witness(self) -> AppWitness:
        """{ U | T1, T2 | [V11, V12], [V21] | X, Y }"""
        self.expect("{")
        u = self.node(_TYPES, 0)
        self.expect("|")
        ts = [self.node(_TYPES, 0)]
        while self.eat(","):
            ts.append(self.node(_TYPES, 0))
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
            vec.append(self.node(_TYPES, 0))
            while self.eat(","):
                vec.append(self.node(_TYPES, 0))
        self.expect("]")
        return tuple(vec)


_TERMS = _Grammar(syntax._FORMS, "a term", "a variable")
_TYPES = _Grammar(typesys._FORMS, "a type", "a type variable")
_FTERMS = _Grammar(sysf._FORMS, "a term", "a variable")
_FTYPES = _Grammar(sysf._TFORMS, "a type", "a type variable")


def _run(src: str, read, *args):
    p = _Parser(src)
    out = read(p, *args)
    p.done()
    return out


def parse_term(src: str) -> Term:
    return _run(src, _Parser.node, _TERMS, 0)


def parse_type(src: str) -> Type:
    return _run(src, _Parser.node, _TYPES, 0)


def parse_aterm(src: str) -> ATerm:
    """An annotation-carrying term, elaborated elsewhere to a derivation."""
    return _run(src, _Parser.aterm)


def parse_fterm(src: str) -> FTerm:
    return _run(src, _Parser.node, _FTERMS, 0)


def parse_ftype(src: str) -> FType:
    return _run(src, _Parser.node, _FTYPES, 0)


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
            out.append((x, p.node(_TYPES, 0)))
            if not p.eat(","):
                break
    p.done()
    return out
