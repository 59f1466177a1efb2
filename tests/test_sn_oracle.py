"""The compositional SN explorer against the exhaustive search it
replaced, which walks the reduction graph of whole terms.

``check_sn`` and ``reducts`` below are those of the commit before the
compositional explorer, kept here so the oracle does not run the code it
checks.  The oracle reports a cycle as ``budget-exhausted`` with
``cycle=True``; ``_verdict`` reads that as ``"cycle"``.
"""

import random

import pytest

from addlam.corpus import OMEGA, generate_corpus, random_term
from addlam.reduction import SnResult, check_sn as explore, enumerate_redexes, step
from addlam.syntax import Abs, App, Sum, Term, Var, canonicalize


def reducts(t: Term) -> frozenset[Term]:
    """One-step reduct set up to AC."""
    return frozenset(step(t, r) for r in enumerate_redexes(t))


class _Abort(Exception):
    def __init__(self, cycle: bool):
        self.cycle = cycle


def check_sn(t: Term, budget: int = 100000) -> SnResult:
    """Exhaustive search of the reduction graph.

    Reports the longest reduction path when the graph is finite and
    acyclic within the budget; a cycle counts as exhaustion (it is a
    witness of an infinite reduction)."""
    memo: dict[Term, int] = {}
    onstack: set[Term] = set()
    seen = 0

    def depth(u: Term) -> int:
        nonlocal seen
        if u in memo:
            return memo[u]
        if u in onstack:
            raise _Abort(cycle=True)
        seen += 1
        if seen > budget:
            raise _Abort(cycle=False)
        onstack.add(u)
        best = 0
        for v in reducts(u):
            best = max(best, 1 + depth(v))
        onstack.discard(u)
        memo[u] = best
        return best

    try:
        d = depth(canonicalize(t))
    except _Abort as a:
        return SnResult("budget-exhausted", 0, seen, a.cycle)
    except RecursionError:
        return SnResult("recursion-limit", 0, seen, False)
    return SnResult("terminates", d, seen, False)


def _verdict(res: SnResult) -> tuple[str, int]:
    return ("cycle" if res.cycle else res.status), res.max_depth


I = Abs("x", Var("x"))
K = Abs("y", Abs("z", Var("y")))
IK = Sum((I, K))
AB = Sum((Var("a"), Var("b")))


def wide(n: int) -> Term:
    """(I+K)(a1+...+an): every path makes 2n-1 splits and 2n betas."""
    return App(IK, Sum(tuple(Var(f"a{i}") for i in range(1, n + 1))))


def under(t: Term, k: int) -> Term:
    for i in range(k):
        t = Abs(f"v{i}", t)
    return t


@pytest.mark.parametrize("seed,count", [(1, 500), (2, 200), (3, 200), (4, 200), (5, 200)])
def test_every_corpus_term_gets_the_oracles_verdict(seed, count):
    seen = set()
    for d in generate_corpus(seed, count=count).derivations:
        if d.term not in seen:
            seen.add(d.term)
            want = check_sn(d.term)
            assert want.terminates
            assert _verdict(explore(d.term)) == _verdict(want), d.term


def test_random_terms_the_oracle_decides_get_its_verdict():
    # the time goes to the draws the oracle cannot decide, about one in ten
    draws, decided = 100, 0
    rng = random.Random(7)
    for _ in range(draws):
        t = random_term(rng)
        want = check_sn(t, 3000)
        if want.terminates or want.cycle:
            decided += 1
            assert _verdict(explore(t)) == _verdict(want), t
    assert decided > draws // 2


@pytest.mark.parametrize("n", range(2, 9))
def test_wide_is_decided_at_its_known_depth(n):
    res = explore(wide(n), 500)
    assert (res.status, res.max_depth) == ("terminates", 4 * n - 1)


@pytest.mark.parametrize("k", [0, 5, 20])
def test_chain_1_bare_and_under_lambdas(k):
    t = under(App(IK, AB), k)
    res = explore(t, 500)
    assert _verdict(res) == _verdict(check_sn(t)) == ("terminates", 7)


def test_chain_2_is_decided():
    # dist-right first, then wide(2) in each copy (7 steps), then 3 splits
    # and 4 betas in each: 1 + 2*7 + 2*7
    res = explore(App(IK, App(IK, AB)), 500)
    assert (res.status, res.max_depth) == ("terminates", 29)


def test_omega_is_reported_as_a_cycle():
    res = explore(OMEGA, 500)
    assert res.status == "cycle" and res.cycle and not res.terminates
    assert _verdict(check_sn(OMEGA, 500)) == ("cycle", 0)
