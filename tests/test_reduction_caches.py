"""The reduction work kept on canonical nodes: the entries that
``binders.redexes`` keeps for its walk, and the pick of ``normalize``.

Each cache is checked against a computation that cannot read it: the
same call on ``rebuild(t)``, a fresh copy of t with nothing kept on it,
and, for the pick, the strategy frozen below as ``normalize`` chose
before it kept a pick on each node."""

import sys

import addlam.reduction as reduction
import addlam.sysf as sysf
from addlam.binders import Redex, rebuild, redexes, step_at
from addlam.corpus import OMEGA, generate_corpus
from addlam.reduction import check_sn, enumerate_redexes, normalize
from addlam.syntax import Abs, App, Sum, Var, canonicalize
from addlam.sysf import FAbs, FApp, FPair, FProjL, FVar, Star, f_canonicalize
from test_sn_oracle import chain, under, wide


def strategy_key(r: Redex):
    # distributivity and zero rules before beta; then innermost-leftmost
    return (1 if r.rule == "beta" else 0, -len(r.path), r.path, r.rule, r.part or 0)


def reference_pick(t) -> Redex | None:
    return min(enumerate_redexes(t), key=strategy_key, default=None)


def _corpus_terms() -> list:
    return list(dict.fromkeys(d.term for d in generate_corpus(1).derivations))


def _fresh(t, budget: int):
    return check_sn(rebuild(t), budget)


# --- the walk's entries ---------------------------------------------------------


def test_one_calculus_never_reads_the_others_redexes():
    source = canonicalize(Abs("a", App(Abs("x", Var("x")), Sum((Var("a"), Var("b"))))))
    assert redexes(source, reduction._TESTS)
    assert redexes(source, sysf._TESTS) == ()
    assert redexes(source, reduction._TESTS) == redexes(rebuild(source), reduction._TESTS)
    f = f_canonicalize(FAbs("a", FPair(FApp(FAbs("x", FVar("x")), FVar("a")),
                                       FProjL(FPair(FVar("a"), Star)))))
    assert redexes(f, sysf._TESTS)
    assert redexes(f, reduction._TESTS) == ()
    assert redexes(f, sysf._TESTS) == redexes(rebuild(f), sysf._TESTS)


def _nodes(t):
    yield t
    for c in t._kids():
        yield from _nodes(c)


def test_the_walk_returns_and_keeps_only_tuples():
    t = canonicalize(App(Abs("x", Var("x")), Sum((Var("a"), Var("b")))))
    rs = redexes(t, reduction._TESTS)
    assert isinstance(rs, tuple) and rs == redexes(t, reduction._TESTS)
    for u in _nodes(t):
        entry = u._redexes  # the table alone, or the table and a tuple
        if entry is not reduction._TESTS:
            table, own = entry
            assert table is reduction._TESTS and isinstance(own, tuple)


def _deep_spine(depth: int, width: int):
    # (\y.y) (f (f (... f (a0 + ... + a(width-1))))): the only redexes are
    # the splits of the sum at the bottom
    t = Sum(tuple(Var(f"a{i}") for i in range(width)))
    for _ in range(depth):
        t = App(Var("f"), t)
    return canonicalize(App(Abs("y", Var("y")), t))


def test_a_walk_after_each_step_matches_a_fresh_walk():
    t = _deep_spine(40, 6)
    steps = 0
    while True:
        rs = redexes(t, reduction._TESTS)
        assert rs == redexes(rebuild(t), reduction._TESTS), t
        if not rs:
            break
        t = reduction.step(t, min(rs, key=strategy_key))
        steps += 1
    assert steps == 5 * 41  # five splits at each of the 41 applications


def test_the_walk_passes_over_a_redex_free_subterm():
    t = _deep_spine(3, 3)
    redexes(t, reduction._TESTS)
    f = t.fun
    assert all(v._redexes is reduction._TESTS for v in _nodes(f))  # \y.y has no redex
    u = step_at(t, Redex((1, 1, 1), "dist-left", 0), 0, reduction._RULES)
    assert u.fun is f  # the step shares \y.y, which the walk does not enter
    assert redexes(u, reduction._TESTS) == redexes(rebuild(u), reduction._TESTS)
    assert u._redexes[0] is reduction._TESTS


# --- check_sn over nodes that keep entries ------------------------------------------


def _sn_inputs() -> list:
    return [*_corpus_terms(), *map(chain, range(2, 6)), *map(wide, range(2, 6)), OMEGA]


def test_check_sn_on_a_walked_term_is_what_a_fresh_search_finds():
    for t in _sn_inputs():
        full = _fresh(t, 100000)
        assert full.terminates or full.cycle, t
        budgets = (full.states - 1, full.states, 100000)
        for order in (budgets, budgets[::-1]):
            walked = canonicalize(rebuild(t))  # a new node, so nothing is kept yet
            for b in order:
                assert check_sn(walked, b) == _fresh(t, b), (t, b)


def test_an_exhausted_search_leaves_nothing_wrong_behind():
    t = canonicalize(chain(2))
    assert check_sn(t, 10).status == "budget-exhausted"
    res = check_sn(t, 500)
    assert (res.status, res.max_depth) == ("terminates", 29)
    assert res == _fresh(t, 500)


def _spine(depth: int):
    # a (a (... ((\x.x) b))): one redex at the bottom of a deep spine, so
    # the redex walk recurses as deep as the term
    t = App(Abs("x", Var("x")), Var("b"))
    for _ in range(depth):
        t = App(Var("a"), t)
    return t


def _stack_depth() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def test_a_walk_cut_by_the_recursion_limit_leaves_nothing_wrong_behind():
    t = canonicalize(_spine(300))  # at the usual limit, so t is marked
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        hit = check_sn(t)
    finally:
        sys.setrecursionlimit(limit)
    assert hit.status == "recursion-limit"
    res = check_sn(t)
    assert (res.status, res.max_depth) == ("terminates", 1)
    assert res == _fresh(t, 100000)


# --- the pick of normalize ----------------------------------------------------------


def _normalize_inputs() -> list:
    family = [*map(wide, range(2, 6)), chain(2),
              under(App(Sum((Abs("x", Var("x")), Abs("y", Abs("z", Var("y"))))),
                        Sum((Var("a"), Var("b")))), 5),
              under(wide(2), 20)]
    n = 50
    long_sum = App(Abs("x", Var("x")), Sum(tuple(Var(f"a{i}") for i in range(n))))
    return [*_corpus_terms(), *family, long_sum]


def test_the_kept_pick_is_the_strategys_choice_on_every_trace():
    steps = 0
    for t in _normalize_inputs():
        res = normalize(t)
        assert not res.exhausted
        for s in res.steps:
            want = reference_pick(s.before)
            assert (want.rule, want.path) == (s.rule, s.path), s
            assert reduction._pick(s.before) == want, s  # kept during the run
            assert reduction._pick(canonicalize(rebuild(s.before))) == want, s
            steps += 1
        assert reduction._pick(res.term) is None and not enumerate_redexes(res.term)
    assert steps > 500
