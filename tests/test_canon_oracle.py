"""The marking type and F-term canonicalisers against whole-walk
references, and the F-term repr that ``f_reaches`` orders reducts by."""

import random
from dataclasses import make_dataclass

import pytest

from addlam.corpus import generate_corpus, random_type
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
    f_canonicalize,
    f_free_vars,
)
from addlam.translation import trans_term
from addlam.typesys import TArrow, TForall, TSum, TVar, TZero, Type, _TZero, is_unit, type_canonicalize


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
        wrapped += [FAbs(x, FApp(cf, FVar(x))) for x in sorted(f_free_vars(ft))]
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
