"""The spine-only ``step`` against a reference that rebuilds and
canonicalises the whole term."""

import random

import pytest

from addlam.corpus import generate_corpus, random_term
from addlam.binders import Redex, subterm_at
from addlam.reduction import enumerate_redexes, step
from addlam.syntax import Abs, App, Sum, Term, Var, Zero, _Zero, canonicalize


# The named substitution of the commit before the shared binder core, kept
# here so the oracle does not run the code it checks.


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(x):
            return frozenset((x,))
        case Abs(x, b):
            return free_vars(b) - {x}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case Sum(ps):
            out = frozenset()
            for p in ps:
                out |= free_vars(p)
            return out
        case _Zero():
            return frozenset()
    raise TypeError(f"not a term: {t!r}")


def fresh_name(base: str, avoid) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def _subst(t: Term, x: str, v: Term, fv_v: frozenset[str]) -> Term:
    match t:
        case Var(y):
            return v if y == x else t
        case Abs(y, b):
            if y == x:
                return t
            if y in fv_v:
                ny = fresh_name(y, fv_v | free_vars(b))
                b = _subst(b, y, Var(ny), frozenset((ny,)))
                y = ny
            return Abs(y, _subst(b, x, v, fv_v))
        case App(f, a):
            return App(_subst(f, x, v, fv_v), _subst(a, x, v, fv_v))
        case Sum(ps):
            return Sum(tuple(_subst(p, x, v, fv_v) for p in ps))
        case _Zero():
            return t
    raise TypeError(f"not a term: {t!r}")


def _replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    i, rest = path[0], path[1:]
    match t:
        case App(f, a):
            return App(_replace_at(f, rest, new), a) if i == 0 else App(f, _replace_at(a, rest, new))
        case Abs(x, b):
            return Abs(x, _replace_at(b, rest, new))
        case Sum(ps):
            return Sum(ps[:i] + (_replace_at(ps[i], rest, new),) + ps[i + 1 :])
    raise AssertionError(f"path leaves the term at {t!r}")


def _split(ps: tuple[Term, ...], i: int) -> tuple[Term, Term]:
    rest = ps[:i] + ps[i + 1 :]
    return ps[i], rest[0] if len(rest) == 1 else Sum(rest)


def _contract(u: Term, r: Redex) -> Term:
    match r.rule, u:
        case "beta", App(Abs(x, b), v):
            return _subst(b, x, v, free_vars(v))
        case "dist-right", App(Sum(ps), a):
            one, rest = _split(ps, r.part)
            return Sum((App(one, a), App(rest, a)))
        case "dist-left", App(f, Sum(ps)):
            one, rest = _split(ps, r.part)
            return Sum((App(f, one), App(f, rest)))
        case "zero-fun" | "zero-arg", App():
            return Zero
        case "sum-zero", Sum(ps):
            return _split(ps, r.part)[1]
    raise AssertionError(f"{r} does not match {u!r}")


def reference_step(t: Term, r: Redex) -> Term:
    """Contract with the raw capture-avoiding substitution, then
    canonicalise the whole rebuilt term once."""
    t = canonicalize(t)
    return canonicalize(_replace_at(t, r.path, _contract(subterm_at(t, r.path), r)))


def _agree(t: Term) -> int:
    t = canonicalize(t)
    rs = enumerate_redexes(t)
    for r in rs:
        assert step(t, r) == reference_step(t, r), f"{t!r} via {r}"
    return len(rs)


@pytest.mark.parametrize("seed", (1, 2))
def test_step_matches_the_reference_on_the_corpus(seed):
    terms = {d.term for d in generate_corpus(seed).derivations}
    assert sum(_agree(t) for t in terms) > 0


# Places for a random term: function and argument position, a summand, and
# the body of a beta redex whose argument is a variable or an abstraction,
# each under 1-3 lambdas whose binders are the generator's variable names,
# so the term's variables are bound above its redexes.
_PLACES = (
    lambda t: t,
    lambda t: App(t, Abs("w", Var("w"))),
    lambda t: App(Var("x"), t),
    lambda t: Sum((t, Var("y"))),
    lambda t: App(Abs("y", t), Var("x")),
    lambda t: App(Abs("z", t), Abs("v", App(Var("v"), Var("x")))),
)


def _contexts(t: Term, r: Redex) -> set[tuple[str, str]]:
    """(rule, kind of ancestor) for every node on the redex's spine."""
    out = set()
    for j, i in enumerate(r.path):
        u = subterm_at(t, r.path[:j])
        kind = type(u).__name__
        out.add((r.rule, f"{kind}.{i}" if kind == "App" else kind))
    return out


def test_step_matches_the_reference_in_every_context():
    rng = random.Random(17)
    seen = set()
    for _ in range(150):
        body = random_term(rng, 3)
        for place in _PLACES:
            t = place(body)
            for name in ("x", "y", "z")[: rng.randint(1, 3)][::-1]:
                t = Abs(name, t)
            c = canonicalize(t)
            for r in enumerate_redexes(c):
                seen |= _contexts(c, r)
            _agree(c)
    # every rule is contracted under a lambda, in both premises of an
    # application and inside a sum, so every ancestor kind is rebuilt
    for rule in ("beta", "dist-left", "dist-right", "sum-zero", "zero-fun", "zero-arg"):
        for kind in ("Abs", "App.0", "App.1", "Sum"):
            assert (rule, kind) in seen, (rule, kind)
