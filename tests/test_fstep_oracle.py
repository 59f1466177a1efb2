"""Named F-steps against the reduct walk they replaced.

``f_reducts`` lists the redexes of a canonical F-term with the reduction
engine's walk and contracts each with its ``step``, rebuilding only the
spine.  Reference: the walk of the commit before, which rebuilt every
reduct raw and canonicalised it whole, frozen below as ``reference_reducts``
so that the oracle does not run the code it checks.  It substitutes by
name, so it reads the level-named form of the canonical term, in which
two subterms at one depth are alpha-equivalent iff they are equal.  Both must give the
same reducts on every F-term that ``f_reaches`` visits in the ``trans-red``
and ``epsilon`` suites on seeds 1-5, and on hand-written redexes under
binders, where a contractum canonicalised on its own would capture.  The
reducts a term keeps are in the order ``f_reaches`` visits them: by repr.
"""

from functools import lru_cache

import pytest
from level_names import levels

import addlam.sysf as sysf
from addlam.binders import free_vars, rebuild, redexes, step, subst
from addlam.corpus import generate_corpus
from addlam.suites import run_suite
from addlam.sysf import (
    FAbs,
    FApp,
    FPair,
    FProjL,
    FProjR,
    FTerm,
    FVar,
    Star,
    f_canonicalize,
    f_reducts,
)


def _immediate_freducts(t: FTerm) -> list[FTerm]:
    out = []
    match t:
        case FApp(FAbs(x, b), a):
            out.append(subst(b, x, a))
        case FProjL(FPair(f, _)):
            out.append(f)
        case FProjR(FPair(_, s)):
            out.append(s)
    match t:
        case FAbs(x, FApp(f, FVar(y))) if y == x and x not in free_vars(f):
            out.append(f)
        case FPair(FProjL(p), FProjR(q)) if p == q:
            out.append(p)
    return out


def _raw_freducts(t: FTerm) -> list[FTerm]:
    out = list(_immediate_freducts(t))

    def inside(build, sub):
        out.extend(build(u) for u in _raw_freducts(sub))

    match t:
        case FAbs(x, b):
            inside(lambda u: FAbs(x, u), b)
        case FApp(f, a):
            inside(lambda u: FApp(u, a), f)
            inside(lambda u: FApp(f, u), a)
        case FPair(f, s):
            inside(lambda u: FPair(u, s), f)
            inside(lambda u: FPair(f, u), s)
        case FProjL(b):
            inside(FProjL, b)
        case FProjR(b):
            inside(FProjR, b)
    return out


def reference_reducts(t: FTerm) -> frozenset[FTerm]:
    return frozenset(f_canonicalize(u) for u in _raw_freducts(levels(f_canonicalize(t))))


@lru_cache(maxsize=None)
def corpus(seed):
    return generate_corpus(seed, 20, 500 if seed == 1 else 200)


def visited(monkeypatch, seed) -> dict[int, tuple[FTerm, tuple[FTerm, ...]]]:
    """Each canonical F-term whose reducts the two searching suites asked
    for on the corpus of seed, with the reducts it keeps, by identity."""
    real = sysf._freducts
    seen = {}

    def recording(t):
        out = real(t)
        seen[id(t)] = (t, out)
        return out

    monkeypatch.setattr(sysf, "_freducts", recording)
    for name in ("trans-red", "epsilon"):
        report = run_suite(name, corpus(seed))
        assert report.passed
    return seen


def assert_named_steps_agree(t: FTerm, kept: tuple[FTerm, ...]):
    want = reference_reducts(t)
    assert len(set(kept)) == len(kept)
    assert list(kept) == sorted(want, key=repr)
    for r in redexes(t, sysf._TESTS):
        u = step(t, r, sysf._TESTS, sysf._RULES)
        assert u._canonical and u == f_canonicalize(rebuild(u)) and u in want


@pytest.mark.parametrize("seed", (1, 2, 3, 4, 5))
def test_reducts_agree_on_every_term_the_searches_visit(monkeypatch, seed):
    seen = visited(monkeypatch, seed)
    assert len(seen) > 150
    count = 0
    for t, kept in seen.values():
        assert_named_steps_agree(t, kept)
        assert f_reducts(t) == reference_reducts(t)
        count += len(redexes(t, sysf._TESTS))
    assert count > 300


I, K = FAbs("x", FVar("x")), FAbs("x", FAbs("y", FVar("x")))
HAND_WRITTEN = {
    # beta under a binder, the argument landing under another
    "beta under lambda": FAbs("a", FApp(FAbs("x", FAbs("y", FVar("a"))), FVar("b"))),
    "argument moved deeper": FAbs("a", FApp(FAbs("x", FAbs("y", FPair(FVar("x"), FVar("y")))),
                                            FAbs("z", FApp(FVar("z"), FVar("a"))))),
    "argument copied": FAbs("a", FApp(FAbs("x", FPair(FVar("x"), FAbs("y", FVar("x")))),
                                      FAbs("w", FApp(FVar("w"), FVar("a"))))),
    "function position": FApp(FApp(K, FVar("a")), FVar("b")),
    "argument position": FApp(I, FApp(I, FVar("a"))),
    "both pair components": FPair(FApp(I, FVar("a")), FApp(K, FAbs("z", FVar("z")))),
    "under projections": FProjL(FApp(FAbs("x", FPair(FVar("x"), FVar("x"))), FVar("a"))),
    "projections under lambda": FAbs("q", FPair(FProjL(FPair(FVar("q"), Star)),
                                                 FProjR(FPair(FVar("q"), FApp(I, FVar("q")))))),
    # eta: f moves up one binder; f must not use the bound variable
    "eta under lambda": FAbs("a", FAbs("x", FApp(FVar("a"), FVar("x")))),
    "eta of a binder": FAbs("a", FAbs("x", FApp(FAbs("y", FApp(FVar("a"), FVar("y"))),
                                                FVar("x")))),
    "eta blocked": FAbs("x", FApp(FVar("x"), FVar("x"))),
    "eta blocked under lambda": FAbs("a", FAbs("x", FApp(FApp(FVar("a"), FVar("x")),
                                                         FVar("x")))),
    # surjective pairing: the projected terms are compared at one depth
    "surjective pairing under lambda": FAbs("x", FPair(FProjL(FVar("x")), FProjR(FVar("x")))),
    "surjective pairing of a binder": FAbs("a", FPair(
        FProjL(FAbs("z", FApp(FVar("z"), FVar("a")))),
        FProjR(FAbs("w", FApp(FVar("w"), FVar("a")))))),
    "different projected terms": FAbs("x", FAbs("y", FPair(
        FProjL(FAbs("z", FVar("x"))), FProjR(FAbs("z", FVar("z")))))),
    "no redex": FPair(Star, FAbs("x", FVar("x"))),
}


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_reducts_agree_on_hand_written_redexes(name):
    raw = HAND_WRITTEN[name]
    t = f_canonicalize(raw)
    assert f_reducts(raw) == f_reducts(t) == reference_reducts(raw)
    assert_named_steps_agree(t, sysf._freducts(t))
    assert sysf._freducts(t) is sysf._freducts(t)  # kept on the node


def test_the_hand_written_terms_reach_every_rule_in_every_context():
    rules = set()
    for raw in HAND_WRITTEN.values():
        t = f_canonicalize(raw)
        rules |= {(r.rule, len(r.path) > 0) for r in redexes(t, sysf._TESTS)}
    assert rules >= {(r, True) for r in ("beta", "proj-l", "proj-r", "eta", "surj")}
