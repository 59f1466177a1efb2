"""The compositional SN explorer against the exhaustive search it
replaced, which walks the reduction graph of whole terms.

``check_sn`` and ``reducts`` below are those of the commit before the
compositional explorer, kept here so the oracle does not run the code it
checks.  The oracle reports a cycle as ``budget-exhausted`` with
``cycle=True``; ``_verdict`` reads that as ``"cycle"``.
"""

import random

import pytest

from addlam import reduction
from addlam.corpus import OMEGA, generate_corpus, random_term
from addlam.reduction import SnResult, check_sn as explore, enumerate_redexes, normalize, step
from addlam.syntax import Abs, App, Sum, Term, Var, Zero, canonicalize


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
KI = Abs("u", Abs("v", Var("v")))
W = Abs("w", App(Var("w"), Var("w")))
IK = Sum((I, K))
A, B = Var("a"), Var("b")
AB = Sum((A, B))


def wide(n: int) -> Term:
    """(I+K)(a1+...+an): every path makes 2n-1 splits and 2n betas."""
    return App(IK, Sum(tuple(Var(f"a{i}") for i in range(1, n + 1))))


def chain(n: int) -> Term:
    """(I+K)(...((I+K)(a+b))...) with n copies of I+K."""
    t = AB
    for _ in range(n):
        t = App(IK, t)
    return t


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


# L(1) = 7 and L(n+1) = 2·L(n) + 2^(n+3) − 1: split the outer I+K (1
# step), let each of the 2 copies normalise chain(n) to its 2^(n+1)
# summands (L(n) steps each), then split over those summands
# (2^(n+1) − 1 steps per copy) and beta each pair (2^(n+1) per copy).
@pytest.mark.parametrize("n,depth", [(2, 29), (3, 89), (4, 241), (5, 609)])
def test_chain_is_decided_at_its_closed_form_depth(n, depth):
    res = explore(chain(n), 100000)
    assert (res.status, res.max_depth) == ("terminates", depth)
    norm = normalize(chain(n))
    assert not norm.exhausted and res.max_depth >= len(norm.steps)
    if n <= 3:
        assert len(norm.steps) == {2: 26, 3: 73}[n]


# Draws aimed at the two rules that split a sum factor first: normal sums
# applied to reducing arguments, normal or variable-headed functions
# applied to sums, both under up to three waiting functions (now and then
# across a λ, where the rules must not look), alone or as a summand, with
# λw.w w for copies and cycles.  They are kept small, so that the oracle
# decides most of them.
def _normal_sum(rng):
    return Sum(tuple(rng.sample([I, K, KI], 2 if rng.random() < 0.8 else 3)))


def _function(rng):
    return rng.choice([I, K, KI, W, A, App(A, B)])


def _reducing(rng):
    match rng.randrange(6):
        case 0:
            return App(_normal_sum(rng), rng.choice([A, A, AB]))
        case 1:
            return App(I, rng.choice([A, B, AB]))
        case 2:
            return App(W, rng.choice([I, K, I, K, W]))
        case 3:
            return Sum((App(rng.choice([I, K]), A), rng.choice([A, I, Zero])))
        case 4:
            return App(App(K, A), rng.choice([A, App(I, B)]))
    return App(rng.choice([I, K, A]), Zero)


def _split_first_term(rng) -> Term:
    if rng.random() < 0.5:
        t = App(_normal_sum(rng), _reducing(rng))
    else:
        parts = (rng.choice([A, B, I, K, Zero]) if rng.random() < 0.4 else _reducing(rng)
                 for _ in range(2))
        t = App(_function(rng), Sum(tuple(parts)))
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        if rng.random() < 0.2:
            # λw.w w copies the λ whole, before anything inside it splits
            t = App(rng.choice([W, _function(rng)]), Abs("z", t))
        else:
            t = App(_function(rng), t)
    if rng.random() < 0.25:
        t = Sum((t, rng.choice([A, App(I, B), Zero])))
    return t


def test_split_first_terms_the_oracle_decides_get_its_verdict(monkeypatch):
    fired = {"_root_split": 0, "_waiting_split": 0}

    def counting(name):
        real = getattr(reduction, name)

        def rule(p, rs):
            out = real(p, rs)
            fired[name] += out is not None
            return out
        return rule

    for name in fired:
        monkeypatch.setattr(reduction, name, counting(name))
    # λw.w w copies the λ with its sum unsplit, so no split may go first
    copied = App(W, Abs("z", App(IK, App(I, A))))
    for t in (copied, App(I, copied)):
        assert _verdict(explore(t)) == _verdict(check_sn(t, 300)), t
    draws, decided = 150, 0
    rng = random.Random(11)
    for _ in range(draws):
        t = _split_first_term(rng)
        want = check_sn(t, 300)
        if want.terminates or want.cycle:
            decided += 1
            assert _verdict(explore(t)) == _verdict(want), t
    assert decided > draws // 2
    assert all(fired.values()), fired


def test_omega_is_reported_as_a_cycle():
    res = explore(OMEGA, 500)
    assert res.status == "cycle" and res.cycle and not res.terminates
    assert _verdict(check_sn(OMEGA, 500)) == ("cycle", 0)
