"""The one reader of the four languages against the four grammars it replaced.

``_Parser.node`` reads terms, types, F-terms and F-types from each
language's table of forms, the one ``binders.show`` prints by.
Reference: the four hand-written grammars before it, frozen below under
new names so that the oracle does not run the code it checks (they share
the tokenizer and ``_Parser``'s token helpers with it, which this change
leaves as they were).  The annotated-term and context grammars stay
hand-written and read their types through the reader; the frozen parser
routes those reads to the frozen type grammar.

Every input is read by all four languages, so most of them are errors
in three.  The reader must give the same tree (``==`` and ``repr``), or
the same ``ParseError`` message, line and col, on every input: the prints
of every term and type of the seed-1 corpus's derivations and of the
seed-1 translations, raw and canonical; 1000 random terms and types, raw
and canonical; hand-written inputs; and every truncation and one-token
deletion of a sample of those."""

import random
import re
from functools import lru_cache

import pytest

from addlam.binders import canonical, show
from addlam.corpus import generate_corpus, random_term, random_type
from addlam.parser import (
    ParseError,
    _Parser,
    _TYPES,
    parse_aterm,
    parse_context,
    parse_fterm,
    parse_ftype,
    parse_term,
    parse_type,
    tokenize,
)
from addlam import syntax, sysf, typesys
from addlam.syntax import Abs, App, Sum, Var, Zero
from addlam.sysf import (
    FAbs,
    FApp,
    FArrow,
    FForall,
    FPair,
    FProd,
    FProjL,
    FProjR,
    FTVar,
    FUnit,
    FVar,
    Star,
    f_canonicalize,
)
from addlam.translation import trans_term
from addlam.typesys import TArrow, TForall, TSum, TVar, TZero, type_canonicalize

# --- the frozen grammars -----------------------------------------------------


class _Frozen(_Parser):
    def node(self, g, level):
        # the inherited annotated-term grammar reads its types here
        assert g is _TYPES
        return self.type_() if level == 0 else self.type_arrow()

    def term(self):
        parts = [self.term_app()]
        while self.eat("+"):
            parts.append(self.term_app())
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def term_app(self):
        t = self.term_atom()
        while self._at_term_atom():
            t = App(t, self.term_atom())
        return t

    def _at_term_atom(self):
        p = self.peek()
        return p.kind == "ident" or p.text in ("\\", "(")

    def term_atom(self):
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

    def type_(self):
        parts = [self.type_arrow()]
        while self.eat("+"):
            parts.append(self.type_arrow())
        return parts[0] if len(parts) == 1 else TSum(tuple(parts))

    def type_arrow(self):
        t = self.type_atom()
        if self.eat("->"):
            return TArrow(t, self.type_arrow())
        return t

    def type_atom(self):
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

    def fterm(self):
        t = self.fterm_atom()
        while self._at_fterm_atom():
            t = FApp(t, self.fterm_atom())
        return t

    def _at_fterm_atom(self):
        p = self.peek()
        return p.kind == "ident" or p.text in ("\\", "(", "<")

    def fterm_atom(self):
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

    def ftype(self):
        t = self.ftype_prod()
        if self.eat("->"):
            return FArrow(t, self.ftype())
        return t

    def ftype_prod(self):
        t = self.ftype_atom()
        while self.eat("*"):
            t = FProd(t, self.ftype_atom())
        return t

    def ftype_atom(self):
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


def _frozen(method):
    def parse(src):
        p = _Frozen(src)
        out = getattr(p, method)()
        p.done()
        return out
    return parse


def reference_parse_context(src):
    p = _Frozen(src)
    out, seen = [], set()
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


PAIRS = [
    (parse_term, _frozen("term")),
    (parse_type, _frozen("type_")),
    (parse_fterm, _frozen("fterm")),
    (parse_ftype, _frozen("ftype")),
]

# --- inputs ------------------------------------------------------------------


def _nodes(d):
    yield d
    for p in d.premises:
        yield from _nodes(p)


def _raw(t):
    # a term as it is, where str prints its canonical form
    return show(t, syntax._FORMS, "xyzwuvst")


@lru_cache(maxsize=None)
def _printed():
    corpus = generate_corpus(1, 20, 500)
    out = set()
    for d in corpus.derivations + corpus.structured:
        for n in _nodes(d):
            out |= {str(n.term), _raw(n.term),
                    typesys.show_type(n.ty), typesys.show_type(type_canonicalize(n.ty))}
    for sd in corpus.structured:
        for n in _nodes(trans_term(sd).fderivation):
            out |= {sysf.show_fterm(n.term), sysf.show_fterm(f_canonicalize(n.term))}
            for ty in (n.ty, n.inst_ty):
                if ty is not None:
                    out |= {sysf.show_ftype(ty), sysf.show_ftype(canonical(ty))}
    rng = random.Random(25)
    for _ in range(1000):
        t, ty = random_term(rng), random_type(rng)
        out |= {str(t), _raw(t),
                typesys.show_type(ty), typesys.show_type(type_canonicalize(ty))}
    return tuple(sorted(out))


HAND = [
    "", "(", ")", "()", "x y z", "x + y + z", "(x + y) + z", r"\x. x + y", r"f \x. x y",
    r"\x. \y. x", r"\. x", r"\x x", r"\_0. _0", "_12", "_1x", "zero zero", "f (g x",
    "x)", "x ->", "X -> Y -> Z", "X -> Y + Z -> W", "(X + Y) -> Z", "forall X. X -> X",
    "forall . X", "forall X X", "forall X. forall Y. X + Y", "void -> void", "X + void",
    "<a, b>", "<a, b", "<a b>", "<>", "<a, b> c", "f <a, b>", "proj_l x y", "f proj_l x",
    "proj_r proj_l x", "proj_l", "proj_l (x y)", r"proj_l \x. x", r"f proj_r \x. x y",
    "star star", r"\x. <x, star>", "1 * 1", "A * B * C", "A * B -> C", "A -> B * C",
    "A * (B -> C)", "A -> B -> C * D", "forall X. X * 1 -> X", "1 -> 1", "A * ", "* A",
    "x + ", "+", "x ++ y", "x , y", "x . y", "x -> y", r"\x: X. x", "{ X }", "[x]",
    "(((x)))", "((x y) z)", "x (y z)", "proj_l <a, b> c", "<proj_l a, proj_r b>",
    r"\proj_l. proj_l", "forall forall. forall", r"\zero. zero", "x'y' z''",
]

ATERMS = [
    r"(\x: X. x) (u + v) { X | X | [], [] | }",
    r"(gen Z. \x: Z. x) a { Z | Z | [X] | Z }",
    r"\f: X -> X -> Y. inst (gen Y. \x: Y. x) [X + Y] zero",
    r"(\x: X. x) ((\y: X. y) (a + b) { X | X | [], [] | }) { X | X | [], [] | }",
    r"((\h: X -> X. h) (f + g) { X -> X | X -> X | [], [] | }) a { X | X, X | [] | }",
    r"\q: X. (\h: X -> X. h) ((\x: X. x) + (\x: X. q) + zero) { X -> X | X -> X | [], [] | } q"
    r" { X | X, X | [] | }",
    r"\x: X + Y. x", r"\x: (X + Y). x", r"\x: forall A. A -> A. x", r"\x X. x",
]

CONTEXTS = [
    "", "a: X", "a: X, f: X -> X", "a: X, a: Y", "a: X + Y -> Z, b: void", "a X",
    "a: forall A. A + B", "a: X,", "_0: X", "a: (X", "a: X b: Y",
]


def _mutants(src):
    """src cut after each token, and src less each token."""
    starts = [0]
    for line in src.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    for t in tokenize(src)[:-1]:
        i = starts[t.line - 1] + t.col - 1
        j = i + len(t.text)
        yield src[:j]
        yield src[:i] + src[j:]


def _outcome(parse, src):
    try:
        out = parse(src)
    except ParseError as e:
        return ("error", e.message, e.line, e.col)
    return ("tree", out, repr(out))


def _agree(pairs, inputs):
    for src in inputs:
        for new, old in pairs:
            assert _outcome(new, src) == _outcome(old, src), (new.__name__, src)


# --- the checks --------------------------------------------------------------


def test_printed_inputs_read_as_the_frozen_grammars_read_them():
    inputs = _printed()
    assert len(inputs) > 3000
    _agree(PAIRS, inputs)
    # each language reads a good share of them
    for new, _ in PAIRS:
        assert sum(_outcome(new, s)[0] == "tree" for s in inputs) > 100, new.__name__


def test_hand_written_and_mutated_inputs_read_as_the_frozen_grammars_read_them():
    sample = random.Random(25).sample(_printed(), 150)
    inputs = [m for s in HAND + sample for m in (s, *_mutants(s))]
    assert len(inputs) > 2000
    _agree(PAIRS, inputs)


@pytest.mark.parametrize("new, old, inputs", [
    (parse_aterm, _frozen("aterm"), ATERMS),
    (parse_context, reference_parse_context, CONTEXTS),
])
def test_annotated_terms_and_contexts_read_their_types_as_before(new, old, inputs):
    rng = random.Random(25)
    if new is parse_aterm:
        # random terms with each binder annotated by a random type
        def annotate(m):
            return f"\\{m[1]}: {typesys.show_type(random_type(rng, 2))}. "
        inputs = inputs + [re.sub(r"\\(\w+)\. ", annotate, str(random_term(rng))) for _ in range(300)]
    inputs = [m for s in inputs for m in (s, *_mutants(s))]
    _agree([(new, old)], inputs)

