"""The one redex walk of both calculi against the two walks it replaced.

``binders.redexes`` lists a term's redexes in one left-to-right walk,
which passes over every subterm it found redex-free before and asks
each calculus's table for the test of each node's class.  Reference: the
two walks before it, ``reduction._redexes`` and ``sysf._fredexes``, each
a match on the node with its own recursion, frozen below under new names
so that the oracle does not run the code it checks; the old F-walk gave
(path, rule) pairs.

The new walk must return the same redexes as a tuple, in the same order:
``check_sn`` explores the reducts of an atom in the order of its redexes,
so a budget-bound search visits its states in that order.  Inputs:
every atom that ``check_sn`` visits on ``chain(2..5)``, ``wide(2..5)``,
the seed-1 corpus and random terms, and every F-term that the
``trans-red`` and ``epsilon`` searches expand on seed 1, with the
hand-written F-terms of ``test_fstep_oracle``, which reach eta and
surjective pairing."""

import random

import addlam.reduction as reduction
import addlam.sysf as sysf
from addlam.binders import Redex, free_vars
from addlam.corpus import generate_corpus, random_term
from addlam.syntax import Abs, App, Sum, Term, Zero, is_value
from addlam.sysf import FAbs, FApp, FPair, FProjL, FProjR, FTerm, FVar
from test_fstep_oracle import HAND_WRITTEN, visited
from test_sn_oracle import chain, wide


def reference_redexes(u: Term) -> list[Redex]:
    out: list[Redex] = []

    def walk(u: Term, path: tuple[int, ...]):
        match u:
            case App(f, a):
                if f is Zero:
                    out.append(Redex(path, "zero-fun"))
                if a is Zero:
                    out.append(Redex(path, "zero-arg"))
                if isinstance(f, Sum):
                    for i in range(len(f.parts)):
                        out.append(Redex(path, "dist-right", i))
                if isinstance(a, Sum):
                    for i in range(len(a.parts)):
                        out.append(Redex(path, "dist-left", i))
                if isinstance(f, Abs) and is_value(a):
                    out.append(Redex(path, "beta"))
                walk(f, path + (0,))
                walk(a, path + (1,))
            case Abs(_, b):
                walk(b, path + (0,))
            case Sum(ps):
                for i, p in enumerate(ps):
                    if p is Zero:
                        out.append(Redex(path, "sum-zero", i))
                        break  # removing any zero gives the same reduct
                for i, p in enumerate(ps):
                    walk(p, path + (i,))

    walk(u, ())
    return out


def _eta_body(u: FAbs) -> FTerm | None:
    b = u.body
    if b.__class__ is FApp and b.arg.__class__ is FVar and b.arg.name == u.var \
            and u.var not in free_vars(b.fun):
        return b.fun
    return None


def reference_fredexes(t: FTerm) -> list[tuple[tuple[int, ...], str]]:
    out = []

    def walk(u: FTerm, path: tuple[int, ...]):
        match u:
            case FApp(f, a):
                if f.__class__ is FAbs:
                    out.append((path, "beta"))
                walk(f, path + (0,))
                walk(a, path + (1,))
            case FAbs(_, b):
                if _eta_body(u) is not None:
                    out.append((path, "eta"))
                walk(b, path + (0,))
            case FPair(f, s):
                if f.__class__ is FProjL and s.__class__ is FProjR and f.body == s.body:
                    out.append((path, "surj"))
                walk(f, path + (0,))
                walk(s, path + (1,))
            case FProjL(b) | FProjR(b):
                if b.__class__ is FPair:
                    out.append((path, "proj-l" if u.__class__ is FProjL else "proj-r"))
                walk(b, path + (0,))

    walk(t, ())
    return out


def test_the_walk_keeps_the_order_on_every_atom_the_explorer_visits(monkeypatch):
    real = reduction.redexes
    atoms, found = [], []

    def compared(p, tests):
        out = real(p, tests)
        assert out == tuple(reference_redexes(p)), p
        atoms.append(p)
        found.extend(out)
        return out

    monkeypatch.setattr(reduction, "redexes", compared)
    for n in range(2, 6):
        assert reduction.check_sn(chain(n)).terminates
        assert reduction.check_sn(wide(n)).terminates
    for d in generate_corpus(1, 20, 300).derivations:
        reduction.check_sn(d.term, 500)
    rng = random.Random(3)
    for _ in range(300):
        reduction.check_sn(random_term(rng), 200)
    assert len(atoms) > 5000
    # atoms with several redexes, so the order is tested, and every rule
    assert sum(len(real(p, reduction._TESTS)) > 1 for p in atoms) > 3000
    assert {r.rule for r in found} == set(reduction._RULES)


def test_the_walk_keeps_the_order_on_every_f_term_the_searches_expand(monkeypatch):
    terms = [t for t, _ in visited(monkeypatch, 1).values()]
    assert len(terms) >= 300
    terms += map(sysf.f_canonicalize, HAND_WRITTEN.values())
    found = []
    for t in terms:
        out = sysf.redexes(t, sysf._TESTS)
        assert out == tuple(Redex(path, rule) for path, rule in reference_fredexes(t)), t
        found.extend(out)
    assert sum(len(sysf.redexes(t, sysf._TESTS)) > 1 for t in terms) > 250
    assert {r.rule for r in found} == set(sysf._RULES)
