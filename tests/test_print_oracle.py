"""The one printer of the four languages against the four it replaced.

``binders.show`` prints a node by its language's table of forms, and
``show_term``, ``show_type``, ``show_fterm`` and ``show_ftype`` each call
it with their language's table and letters.  Reference: the four printers
before it, each a match on the node with its own levels, frozen below
under new names so that the oracle does not run the code it checks (they
share ``free_vars`` and ``fresh_name`` with it, which this change leaves
as they were).  The new printer must give the same string on every term
and type of every node of the seed-1 corpus's derivations, additive and
structured; on 1000 random terms and types, raw and canonical; and on
every term and type of every node of the seed-1 F-derivations that
``trans_term`` builds.

Canonical nodes held level names then (``_d`` for the binder at depth
d) and hold indices now, so the frozen term and type printers read the
level-named form of their input (``level_names.levels``), which they print as they
did; the new printer must print the canonical node the same.

The old F printers printed every name as written, so a canonical F-term
printed positional names (``\\_0. _0``) that the parser refused.  The new
one names a nameless binder as the term and type printers do, so it
agrees with the frozen F printers on nodes without one, and every F-term
and F-type prints as text that parses back alpha-equal; the canonical
form of every seed-1 translation, term and type, parses back to itself.
A nameless binder's display name keeps away from the names of the named
binders below it as well as from the free names, so a node that mixes
the two prints as text that parses back alpha-equal."""

import random

import pytest
from level_names import levels

from addlam.binders import alpha_eq, canonical, fresh_name, free_vars
from addlam.corpus import generate_corpus, random_term, random_type
from addlam.parser import parse_fterm, parse_ftype, parse_term, parse_type
from addlam.syntax import Abs, App, Sum, Term, Var, Zero, canonicalize, show_term
from addlam.sysf import (
    FAbs,
    FApp,
    FArrow,
    FForall,
    FPair,
    FProd,
    FProjL,
    FProjR,
    FTerm,
    FTVar,
    FType,
    FUnit,
    FVar,
    Star,
    f_canonicalize,
    show_fterm,
    show_ftype,
)
from addlam.translation import trans_term
from addlam.typesys import TArrow, TForall, TSum, TVar, TZero, Type, show_type, type_canonicalize

# --- the frozen printers -----------------------------------------------------


_NICE = "xyzwuvst"


def _display_names(t: Term) -> dict[int, str]:
    taken = set(free_vars(t))
    names: dict[int, str] = {}

    def depth_of(u: Term, d: int, maxd: list[int]):
        match u:
            case Abs(_, b):
                maxd[0] = max(maxd[0], d + 1)
                depth_of(b, d + 1, maxd)
            case App(f, a):
                depth_of(f, d, maxd)
                depth_of(a, d, maxd)
            case Sum(ps):
                for p in ps:
                    depth_of(p, d, maxd)

    maxd = [0]
    depth_of(t, 0, maxd)
    for d in range(maxd[0]):
        base = _NICE[d % len(_NICE)]
        nm = fresh_name(base, taken)
        taken.add(nm)
        names[d] = nm
    return names


def reference_show_term(t: Term) -> str:
    t = levels(canonicalize(t))
    names = _display_names(t)

    def go(u: Term, level: int, env: dict[str, str], d: int) -> str:
        match u:
            case Var(x):
                return env.get(x, x)
            case u if u is Zero:
                return "zero"
            case Abs(x, b):
                nm = names.get(d, x)
                s = f"\\{nm}. {go(b, 0, {**env, x: nm}, d + 1)}"
                return f"({s})" if level > 0 else s
            case Sum(ps):
                s = " + ".join(go(p, 2, env, d) for p in ps)
                return f"({s})" if level > 1 else s
            case App(f, a):
                s = f"{go(f, 2, env, d)} {go(a, 3, env, d)}"
                return f"({s})" if level > 2 else s
        raise TypeError(f"not a term: {u!r}")

    return go(t, 0, {}, 0)


_TNICE = "XYZWVU"


def reference_show_type(t: Type) -> str:
    t = levels(t)
    used = set(free_vars(t))
    fresh: dict[str, str] = {}

    def disp(x: str, d: int) -> str:
        if not x.startswith("_"):
            return x
        if x not in fresh:
            base = _TNICE[d % len(_TNICE)]
            nm = fresh_name(base, used)
            used.add(nm)
            fresh[x] = nm
        return fresh[x]

    def go(u: Type, level: int, env: dict[str, str], d: int) -> str:
        match u:
            case TVar(x):
                return env.get(x, x)
            case u if u is TZero:
                return "void"
            case TForall(x, b):
                nm = disp(x, d)
                s = f"forall {nm}. {go(b, 0, {**env, x: nm}, d + 1)}"
                return f"({s})" if level > 0 else s
            case TSum(ps):
                s = " + ".join(go(p, 2, env, d) for p in ps)
                return f"({s})" if level > 1 else s
            case TArrow(dom, cod):
                s = f"{go(dom, 3, env, d)} -> {go(cod, 2, env, d)}"
                return f"({s})" if level > 2 else s
        raise TypeError(f"not a type: {u!r}")

    return go(t, 0, {}, 0)


def reference_show_fterm(t: FTerm) -> str:
    def go(t: FTerm, level: int) -> str:
        match t:
            case FVar(x):
                return x
            case t if t is Star:
                return "star"
            case FPair(f, s):
                return f"<{go(f, 0)}, {go(s, 0)}>"
            case FAbs(x, b):
                s = f"\\{x}. {go(b, 0)}"
                return f"({s})" if level > 0 else s
            case FApp(f, a):
                s = f"{go(f, 1)} {go(a, 2)}"
                return f"({s})" if level > 1 else s
            case FProjL(b):
                s = f"proj_l {go(b, 2)}"
                return f"({s})" if level > 1 else s
            case FProjR(b):
                s = f"proj_r {go(b, 2)}"
                return f"({s})" if level > 1 else s
        raise TypeError(f"not a term: {t!r}")

    return go(t, 0)


def reference_show_ftype(t: FType) -> str:
    def go(t: FType, level: int) -> str:
        match t:
            case FTVar(x):
                return x
            case t if t is FUnit:
                return "1"
            case FForall(x, b):
                s = f"forall {x}. {go(b, 0)}"
                return f"({s})" if level > 0 else s
            case FArrow(a, b):
                s = f"{go(a, 2)} -> {go(b, 1)}"
                return f"({s})" if level > 1 else s
            case FProd(a, b):
                s = f"{go(a, 2)} * {go(b, 2)}"
                return f"({s})" if level > 1 else s
        raise TypeError(f"not a type: {t!r}")

    return go(t, 0)


# --- inputs ------------------------------------------------------------------


def _nodes(d):
    yield d
    for p in d.premises:
        yield from _nodes(p)


def _corpus():
    return generate_corpus(1, 20, 500)


def _source_terms_and_types():
    corpus = _corpus()
    terms, types = [], []
    for d in corpus.derivations + corpus.structured:
        for n in _nodes(d):
            terms.append(n.term)
            types.append(n.ty)
    rng = random.Random(24)
    for _ in range(1000):
        t, ty = random_term(rng), random_type(rng)
        terms += [t, canonicalize(t)]
        types += [ty, type_canonicalize(ty)]
    return terms, types


def _translations():
    return [trans_term(sd) for sd in _corpus().structured]


# --- the checks --------------------------------------------------------------


def test_terms_and_types_print_as_the_frozen_printers_print_them():
    terms, types = _source_terms_and_types()
    assert len({canonicalize(t) for t in terms}) > 1000
    for t in terms:
        assert show_term(t) == reference_show_term(t), repr(t)
    for ty in types:
        assert show_type(ty) == reference_show_type(ty), repr(ty)


def test_f_terms_and_types_print_as_the_frozen_printers_print_them():
    fterms, ftypes = [], []
    for res in _translations():
        for n in _nodes(res.fderivation):
            fterms += [n.term, f_canonicalize(n.term)]
            ftypes += [n.ty, canonical(n.ty)] + ([n.inst_ty] if n.inst_ty is not None else [])
    assert len(set(fterms)) > 100
    nameless = 0
    for t, show, ref, parse in [(t, show_fterm, reference_show_fterm, parse_fterm)
                                for t in fterms] + [
                               (ty, show_ftype, reference_show_ftype, parse_ftype)
                               for ty in ftypes]:
        shown = show(t)
        if t == levels(t):
            assert shown == ref(t), repr(t)
        else:
            nameless += 1
        assert alpha_eq(parse(shown), t), repr(t)
    assert nameless > len(fterms) // 4


def test_canonical_f_terms_and_types_parse_back():
    results = _translations()
    positional = 0
    for res in results:
        c = f_canonicalize(res.fterm)
        shown = show_fterm(c)
        positional += reference_show_fterm(levels(c)) != shown
        back = parse_fterm(shown)
        assert f_canonicalize(back) == c, shown
        assert show_fterm(f_canonicalize(back)) == shown
        cty = canonical(res.ftype)
        shown = show_ftype(cty)
        back = parse_ftype(shown)
        assert canonical(back) == cty, shown
        assert show_ftype(canonical(back)) == shown
    # most of them have a binder, which the frozen printer printed by its
    # level name
    assert positional > len(results) // 2


def test_positional_binders_take_the_language_letters():
    t = f_canonicalize(parse_fterm(r"\f. \a. <f a, \a. a>"))
    assert show_fterm(t) == r"\x. \y. <x y, \z. z>"
    assert show_fterm(f_canonicalize(parse_fterm(r"\a. x a"))) == r"\x1. x x1"
    ty = canonical(parse_ftype("forall A. forall B. A -> B * 1"))
    assert show_ftype(ty) == "forall X. forall Y. X -> Y * 1"
    # names a parser produces print as written
    assert show_fterm(parse_fterm(r"\a. a")) == r"\a. a"
    assert show_term(parse_term(r"\a. x a")) == show_term(parse_term(r"\b. x b")) == r"\x1. x x1"
    assert show_type(parse_type("forall A. A")) == "forall A. A"


@pytest.mark.parametrize("show, node", [
    (show_term, TVar("X")),
    (show_type, Var("x")),
    (show_fterm, FTVar("X")),
    (show_ftype, FVar("x")),
    (show_type, TArrow(TVar("X"), FTVar("Y"))),
])
def test_a_node_of_another_language_is_a_type_error(show, node):
    with pytest.raises(TypeError):
        show(node)


def test_positional_names_keep_away_from_named_binders_below():
    # a nameless binder above a named one of its display name
    t = FAbs("", FAbs("x", FVar(1)))
    assert show_fterm(t) == r"\x1. \x. x1"
    assert f_canonicalize(parse_fterm(show_fterm(t))) == f_canonicalize(t)
    ty = TForall("", TForall("X", TVar(1)))
    assert show_type(ty) == "forall X1. forall X. X1"
    assert type_canonicalize(parse_type(show_type(ty))) == type_canonicalize(ty)
