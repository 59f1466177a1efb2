"""Corpus generation: determinism, validity, and rule coverage."""

from dataclasses import replace

from addlam.corpus import (
    example_identity_app,
    example_two_funs,
    generate_corpus,
)
from addlam.derivation import check_add
from addlam.structured import check_sadd
from addlam.typesys import TSum, TVar, TArrow, type_equiv


def test_same_seed_same_corpus():
    c1 = generate_corpus(1, 20, 80)
    c2 = generate_corpus(1, 20, 80)
    assert [d.term for d in c1.derivations] == [d.term for d in c2.derivations]
    assert [d.term for d in c1.structured] == [d.term for d in c2.structured]


def test_different_seeds_differ():
    c1 = generate_corpus(1, 20, 80)
    c2 = generate_corpus(2, 20, 80)
    assert [d.term for d in c1.derivations] != [d.term for d in c2.derivations]


def unmarked(d):
    """An equal copy of a derivation built from fresh nodes, which the
    checker has not marked, so checking it visits every node."""
    return replace(d, premises=tuple(map(unmarked, d.premises)))


def test_every_derivation_is_checked():
    c = generate_corpus(3, 20, 80)
    # generate_corpus has checked (and marked) its own nodes; check copies
    for d in c.derivations:
        copy = unmarked(d)
        assert copy == d and not copy._checked
        check_add(copy)
        assert copy._checked
    for sd in c.structured:
        check_sadd(unmarked(sd))


def test_every_rule_is_exercised():
    c = generate_corpus(1, 20, 200)
    seen = set()

    def walk(d):
        seen.add(d.rule)
        for p in d.premises:
            walk(p)

    for d in c.derivations:
        walk(d)
    # the equivalence rule is implicit: types are kept canonical, so it
    # never appears as an explicit node
    assert seen >= {"ax", "ax0", "arrI", "arrE", "plusI", "forallI", "forallE"}


def test_corpus_contains_zero_summand_sums():
    c = generate_corpus(1, 20, 200)
    flagged = [
        sd for sd in c.structured
        if sd.rule == "plusI" and sd.premises[1].rule == "ax0"
    ]
    assert flagged


def test_pinned_two_function_example():
    d = example_two_funs()
    check_add(d)
    a, b = TVar("A"), TVar("B")
    expected = TSum((a, b, TArrow(a, a), TArrow(b, b)))
    assert type_equiv(d.ty, expected)


def test_pinned_identity_example():
    d = example_identity_app()
    check_add(d)
    assert type_equiv(d.ty, TSum((TVar("A"), TVar("B"))))
