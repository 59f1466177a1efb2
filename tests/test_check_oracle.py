"""The derivation checker marks a node once it and all its premises have
passed, and skips marked nodes.  Reference: the full walk it replaced,
which checks every node every time.  On every subject-reduction step of
the corpora of seeds 1 and 2 (additive and structured), and on forged
variants of those steps, both must give the same verdict at the same
path."""

from dataclasses import replace
from functools import lru_cache

import pytest

from addlam.corpus import generate_corpus
from addlam.derivation import (
    RuleViolation,
    UnsupportedDerivationShape,
    _check_node,
    check_add,
    step_derivation,
)
from addlam.reduction import StaleRedex, enumerate_redexes
from addlam.structured import ExcludedRule, check_sadd, step_sadd_derivation
from addlam.syntax import canonicalize
from addlam.typesys import TVar

WRONG = TVar("Forged")


def reference_check(d, path=()):
    """The full-walk checker: every node, premises first."""
    for i, p in enumerate(d.premises):
        reference_check(p, path + (i,))
    _check_node(d, path)


def verdict(check, d):
    """None when d checks, else the path of the first violation."""
    try:
        check(d)
    except RuleViolation as e:
        return e.path
    return None


def nodes(d, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from nodes(p, path + (i,))


def replace_at(d, path, new):
    """d with the node at path replaced by new; the nodes above it are
    rebuilt, every other node is kept as it is."""
    if not path:
        return new
    ps = list(d.premises)
    ps[path[0]] = replace_at(ps[path[0]], path[1:], new)
    return replace(d, premises=tuple(ps))


@lru_cache(maxsize=None)
def corpus(seed):
    return generate_corpus(seed, 20, 500 if seed == 1 else 200)


def stepped(seed, structured):
    """(source, target) for every redex of every corpus derivation that
    the derivation stepper accepts; both checkers meet the target unseen."""
    c = corpus(seed)
    if structured:
        ds, step = c.structured, step_sadd_derivation
    else:
        ds, step = c.derivations, step_derivation
    for d in ds:
        for r in sorted(enumerate_redexes(canonicalize(d.term)), key=repr):
            try:
                yield d, step(d, r)
            except (ExcludedRule, UnsupportedDerivationShape, StaleRedex):
                continue


CASES = [(seed, structured) for seed in (1, 2) for structured in (False, True)]


@pytest.mark.parametrize("seed,structured", CASES)
def test_marked_checker_agrees_with_the_full_walk_on_every_step(seed, structured):
    check = check_sadd if structured else check_add
    steps = 0
    for d, d2 in stepped(seed, structured):
        # generate_corpus checked the source; the nodes the step built are
        # unmarked, the ones it kept from the source (premises, or a
        # substituted argument that became the root) are marked
        old = {id(n) for _, n in nodes(d)}
        assert all(n._checked == (id(n) in old) for _, n in nodes(d2))
        want = verdict(reference_check, d2)
        assert verdict(check, d2) == want
        assert all(n._checked for _, n in nodes(d2)) == (want is None)
        steps += 1
    assert steps > 100


@pytest.mark.parametrize("seed,structured", CASES)
def test_forged_nodes_fail_at_the_same_path_every_time(seed, structured):
    """Forge one node at a time of each stepped derivation (of the first
    redex of every source): a wrong type over the same, already checked,
    premises."""
    check = check_sadd if structured else check_add
    forged = 0
    seen = set()
    for d, d2 in stepped(seed, structured):
        if id(d) in seen:
            continue
        seen.add(id(d))
        check(d2)
        for path, n in nodes(d2):
            bad = replace_at(d2, path, replace(n, ty=WRONG))
            assert all(p._checked for p in n.premises)
            want = verdict(reference_check, bad)
            assert want == path
            assert verdict(check, bad) == want
            # a failing check marks nothing on the failing spine
            assert verdict(check, bad) == want
            forged += 1
    assert forged > 500
