"""The marking canonicalisers of terms, types and F-terms against
whole-walk references, the alpha tests of raw types and F-types against
the pairwise walks they replaced, and the F-term repr that ``f_reaches``
orders reducts by."""

import random
from dataclasses import make_dataclass

import pytest

from addlam.binders import canonical, free_vars
from addlam.corpus import generate_corpus, random_term, random_type
from addlam.syntax import Abs, App, Sum, Term, Var, Zero, _Zero, canonicalize
from addlam.sysf import (
    FAbs,
    FApp,
    FPair,
    FProjL,
    FProjR,
    FTerm,
    FVar,
    Star,
    _Star,
    FArrow,
    FForall,
    FProd,
    FTVar,
    _FUnit,
    f_canonicalize,
    f_type_alpha_eq,
)
from addlam.translation import trans_term, trans_type
from addlam.typesys import (
    TArrow,
    TForall,
    TSum,
    TVar,
    TZero,
    Type,
    _TZero,
    is_unit,
    raw_alpha_eq,
    to_raw,
    type_canonicalize,
)


def ref_sort_key(t: Term):
    match t:
        case Var(x):
            return (0, x)
        case Abs(_, b):
            return (1, ref_sort_key(b))
        case App(f, a):
            return (2, ref_sort_key(f), ref_sort_key(a))
        case Sum(ps):
            return (3, len(ps), tuple(ref_sort_key(p) for p in ps))
        case _Zero():
            return (4,)
    raise TypeError(f"not a term: {t!r}")


def ref_canon(t: Term, env: dict[str, str], depth: int) -> Term:
    """Walks the whole term every time, with an uncached sort key."""
    match t:
        case Var(x):
            return Var(env.get(x, x))
        case Abs(x, b):
            nx = f"_{depth}"
            return Abs(nx, ref_canon(b, {**env, x: nx}, depth + 1))
        case App(f, a):
            return App(ref_canon(f, env, depth), ref_canon(a, env, depth))
        case Sum(ps):
            flat: list[Term] = []
            for p in ps:
                cp = ref_canon(p, env, depth)
                flat.extend(cp.parts if isinstance(cp, Sum) else (cp,))
            flat.sort(key=ref_sort_key)
            return Sum(tuple(flat))
        case _Zero():
            return Zero
    raise TypeError(f"not a term: {t!r}")


def ref_type_sort_key(t: Type):
    match t:
        case TVar(x):
            return (0, x)
        case TArrow(d, c):
            return (1, ref_type_sort_key(d), ref_type_sort_key(c))
        case TForall(_, b):
            return (2, ref_type_sort_key(b))
        case TSum(ps):
            return (3, len(ps), tuple(ref_type_sort_key(p) for p in ps))
        case _TZero():
            return (4,)
    raise TypeError(f"not a type: {t!r}")


def ref_tcanon(t: Type, env: dict[str, str], depth: int) -> Type:
    """Walks the whole type every time, with an uncached sort key."""
    match t:
        case TVar(x):
            return TVar(env.get(x, x))
        case TArrow(d, c):
            return TArrow(ref_tcanon(d, env, depth), ref_tcanon(c, env, depth))
        case TForall(x, b):
            nx = f"_{depth}"
            return TForall(nx, ref_tcanon(b, {**env, x: nx}, depth + 1))
        case TSum(ps):
            flat: list[Type] = []
            for p in ps:
                cp = ref_tcanon(p, env, depth)
                if isinstance(cp, TSum):
                    flat.extend(cp.parts)
                elif not isinstance(cp, _TZero):
                    flat.append(cp)
            if not flat:
                return TZero
            flat.sort(key=ref_type_sort_key)
            return flat[0] if len(flat) == 1 else TSum(tuple(flat))
        case _TZero():
            return TZero
    raise TypeError(f"not a type: {t!r}")


def ref_fcanon(t: FTerm, env: dict[str, str], d: int) -> FTerm:
    """Walks the whole F-term every time."""
    match t:
        case FVar(x):
            return FVar(env.get(x, x))
        case FAbs(x, b):
            nm = f"_{d}"
            return FAbs(nm, ref_fcanon(b, {**env, x: nm}, d + 1))
        case FApp(f, a):
            return FApp(ref_fcanon(f, env, d), ref_fcanon(a, env, d))
        case FPair(f, a):
            return FPair(ref_fcanon(f, env, d), ref_fcanon(a, env, d))
        case FProjL(b):
            return FProjL(ref_fcanon(b, env, d))
        case FProjR(b):
            return FProjR(ref_fcanon(b, env, d))
        case _Star():
            return t
    raise TypeError(f"not a term: {t!r}")


def _agree_term(t: Term):
    c = canonicalize(t)
    assert c == ref_canon(t, {}, 0), repr(t)
    assert canonicalize(c) is c


def test_random_terms_agree_with_the_whole_walk():
    rng = random.Random(10)
    for _ in range(500):
        _agree_term(random_term(rng))


def test_corpus_terms_agree_with_the_whole_walk():
    corpus = generate_corpus(seed=1, count=500)
    for d in corpus.derivations:
        _agree_term(d.term)


def test_terms_built_from_canonical_parts_agree_with_the_whole_walk():
    # as for types below: a canonical part is kept as it is outside all
    # binders, and walked again under a lambda
    rng = random.Random(13)
    for _ in range(300):
        a, b = canonicalize(random_term(rng)), canonicalize(random_term(rng))
        app = App(a, b)
        c = canonicalize(app)
        assert c.fun is a and c.arg is b
        if not isinstance(a, Sum):
            assert any(p is a for p in canonicalize(Sum((b, a))).parts)
        for t in (
            app,
            Sum((a, b)),
            Sum((a, Zero, Sum((b, a)))),
            App(Abs("x", a), Sum((b, Var("x")))),
            Abs("x", App(a, b)),
            Abs("y", Abs("x", Sum((App(a, Var("y")), b)))),
        ):
            _agree_term(t)


def _agree_type(t: Type):
    c = type_canonicalize(t)
    assert c == ref_tcanon(t, {}, 0), repr(t)
    assert type_canonicalize(c) is c


def _agree_fterm(t: FTerm):
    c = f_canonicalize(t)
    assert c == ref_fcanon(t, {}, 0), repr(t)
    assert f_canonicalize(c) is c


def test_random_types_agree_with_the_whole_walk():
    rng = random.Random(11)
    for _ in range(500):
        _agree_type(random_type(rng))


def test_types_built_from_canonical_parts_agree_with_the_whole_walk():
    # the short-cut returns a canonical part at depth 0 as it is; under a
    # forall the part is walked again, since its binders move down a level
    rng = random.Random(12)
    for _ in range(300):
        a, b = type_canonicalize(random_type(rng)), type_canonicalize(random_type(rng))
        u = a if is_unit(a) else TVar("X")
        arrow = TArrow(u, b)
        assert type_canonicalize(arrow).cod is b
        for t in (
            arrow,
            TSum((a, b)),
            TSum((a, TZero, TSum((b, a)))),
            TArrow(TForall("Z", u), TSum((b, a))),
            TForall("X", TArrow(u, b)),
            TForall("Y", TForall("X", TSum((TArrow(u, TVar("Y")), b)))),
        ):
            _agree_type(t)


@pytest.fixture(scope="module")
def corpus_fterms():
    corpus = generate_corpus(seed=1, count=500)
    return [trans_term(sd).fterm for sd in corpus.structured]


def test_corpus_fterms_agree_with_the_whole_walk(corpus_fterms):
    fterms = corpus_fterms
    assert len(fterms) == 100
    for ft, other in zip(fterms, fterms[1:] + fterms[:1]):
        cf, co = f_canonicalize(ft), f_canonicalize(other)
        wrapped = [ft, FPair(cf, co), FPair(ft, cf), FAbs("q", cf), FAbs("q", FPair(cf, ft))]
        # binding a free variable of a canonical part renames it
        wrapped += [FAbs(x, FApp(cf, FVar(x))) for x in sorted(free_vars(ft))]
        for t in wrapped:
            _agree_fterm(t)


# the dataclasses F-terms were before they cached their repr; f_reaches
# sorts reducts by repr, so the format must not change
_DATACLASS = {
    cls: make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    for cls in (FVar, FAbs, FApp, FPair, FProjL, FProjR)
}


def _as_dataclass(t: FTerm):
    if t is Star:
        return t
    args = [getattr(t, f) for f in t.__match_args__]
    return _DATACLASS[type(t)](*(a if isinstance(a, str) else _as_dataclass(a) for a in args))


def test_fterm_repr_keeps_the_dataclass_format(corpus_fterms):
    assert repr(FAbs("x", FVar("x"))) == "FAbs(var='x', body=FVar(name='x'))"
    assert repr(Star) == "Star"
    t = FPair(FProjL(FApp(FVar("f"), Star)), FProjR(FVar("p")))
    assert repr(t) == (
        "FPair(fst=FProjL(body=FApp(fun=FVar(name='f'), arg=Star)), "
        "snd=FProjR(body=FVar(name='p')))"
    )
    for ft in corpus_fterms:
        for u in (ft, f_canonicalize(ft)):
            assert repr(u) == repr(_as_dataclass(u))


def ref_raw_alpha_eq(a: Type, b: Type) -> bool:
    """The pairwise walk ``raw_alpha_eq`` was before the shared core."""

    def go(a, b, ea, eb, d):
        match a, b:
            case TVar(x), TVar(y):
                return ea.get(x, x) == eb.get(y, y)
            case TArrow(d1, c1), TArrow(d2, c2):
                return go(d1, d2, ea, eb, d) and go(c1, c2, ea, eb, d)
            case TForall(x, b1), TForall(y, b2):
                m = f"#{d}"
                return go(b1, b2, {**ea, x: m}, {**eb, y: m}, d + 1)
            case TSum(p1), TSum(p2):
                return len(p1) == len(p2) and all(go(u, v, ea, eb, d) for u, v in zip(p1, p2))
            case _TZero(), _TZero():
                return True
        return False

    return go(a, b, {}, {}, 0)


def ref_f_type_alpha_eq(a, b) -> bool:
    """The pairwise walk ``f_type_alpha_eq`` was before F-types joined the
    shared core."""

    def go(a, b, ea, eb, d):
        match a, b:
            case FTVar(x), FTVar(y):
                return ea.get(x, x) == eb.get(y, y)
            case FArrow(d1, c1), FArrow(d2, c2):
                return go(d1, d2, ea, eb, d) and go(c1, c2, ea, eb, d)
            case FProd(l1, r1), FProd(l2, r2):
                return go(l1, l2, ea, eb, d) and go(r1, r2, ea, eb, d)
            case FForall(x, b1), FForall(y, b2):
                m = f"#{d}"
                return go(b1, b2, {**ea, x: m}, {**eb, y: m}, d + 1)
            case _FUnit(), _FUnit():
                return True
        return False

    return go(a, b, {}, {}, 0)


def _renamed(t: Type, env=None) -> Type:
    """t with every binder renamed to a name no input uses."""
    env = env or {}
    match t:
        case TVar(x):
            return TVar(env.get(x, x))
        case TArrow(d, c):
            return TArrow(_renamed(d, env), _renamed(c, env))
        case TForall(x, b):
            nx = f"R{len(env)}"
            return TForall(nx, _renamed(b, {**env, x: nx}))
        case TSum(ps):
            return TSum(tuple(_renamed(p, env) for p in ps))
    return t


def _agree_alpha(a: Type, b: Type):
    """a and b are raw types with binary sums."""
    assert raw_alpha_eq(a, b) == ref_raw_alpha_eq(a, b), (a, b)
    fa, fb = trans_type(a), trans_type(b)
    want = ref_f_type_alpha_eq(fa, fb)
    assert f_type_alpha_eq(fa, fb) == want, (fa, fb)
    assert (canonical(fa) == canonical(fb)) == want, (fa, fb)
    return want


def test_alpha_tests_agree_with_the_pairwise_walks():
    corpus = generate_corpus(seed=1, count=500)
    types = [sd.ty for sd in corpus.structured]
    rng = random.Random(14)
    types += [to_raw(random_type(rng)) for _ in range(300)]
    equal = 0
    for a, b in zip(types, types[1:] + types[:1]):
        assert _agree_alpha(a, _renamed(a))
        assert _agree_alpha(_renamed(a), a)
        equal += _agree_alpha(a, b)
        _agree_alpha(a, _renamed(b))
    assert 0 < equal < len(types)
