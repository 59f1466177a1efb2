"""The derivation checker marks a node once it and all its premises have
passed, and skips marked nodes.  Reference: the full walk it replaced,
which checks every node every time.  On every subject-reduction step of
the corpora of seeds 1 and 2 (additive and structured), and on forged
variants of those steps, both must give the same verdict at the same
path.

The application rule's witness is memoised per system (``System.witness``).
Reference: a fresh call of the unmemoised ``app_witness``, which must give
the same result on every ``arrE`` node of those derivations, and the same
``RuleViolation`` on forged witnesses, every time."""

from dataclasses import replace
from functools import lru_cache

import pytest

from addlam.corpus import generate_corpus
from addlam.derivation import (
    ADD,
    RuleViolation,
    UnsupportedDerivationShape,
    _check_node,
    check_add,
    step_derivation,
)
from addlam.reduction import StaleRedex, enumerate_redexes
from addlam.structured import (
    SADD,
    ExcludedRule,
    _struct_result,
    check_sadd,
    step_sadd_derivation,
)
from addlam.syntax import canonicalize
from addlam.typesys import TArrow, TForall, TSum, TVar

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


def witness_args(n):
    p1, p2 = n.premises
    return p1.ty, p2.ty, n.arr_u, n.arr_ts, n.arr_vs, n.arr_xs


def violation(fn, *args):
    with pytest.raises(RuleViolation) as e:
        fn(*args)
    return e.value.path, e.value.message


def forgeries(system, args):
    """The witnesses of one node made wrong in three ways: a non-unit
    domain, every vector one type too long, and one function label (or,
    additive, one T) too few, so the labels do not cover the tree."""
    fun_ty, arg_ty, u, ts, vs, xs = args
    yield "domain", (fun_ty, arg_ty, TSum((u, u)), ts, vs, xs)
    if vs:
        yield "length", (fun_ty, arg_ty, u, ts, system.wit_map(lambda v: v + (WRONG,), vs), xs)
    if ts:
        yield "cover", (fun_ty, arg_ty, u, ts[1:], vs, xs)


@pytest.mark.parametrize("seed,structured", CASES)
def test_memoised_witness_agrees_with_a_fresh_call_on_every_application(seed, structured):
    system = SADD if structured else ADD
    seen, kinds = set(), set()
    for d, d2 in stepped(seed, structured):
        # the constructors computed every witness of the new nodes, so
        # checking them is a lookup that adds no entry
        size = len(system._witnesses)
        reference_check(d2)
        assert len(system._witnesses) == size
        for _, n in (*nodes(d), *nodes(d2)):
            if n.rule != "arrE" or id(n) in seen:
                continue
            seen.add(id(n))
            args = witness_args(n)
            want = system.app_witness(*args)
            assert system.witness(*args) == want
            assert want[1:3] == (n.arr_ts, n.arr_vs) and system.eq(n.ty, want[3])
            if structured:
                fun_ty, arg_ty, u, ts, vs, xs = args
                assert _struct_result(fun_ty, arg_ty, u, dict(ts), dict(vs), xs) == want[3]
            for kind, bad in forgeries(system, args):
                size = len(system._witnesses)
                want = violation(system.app_witness, *bad)
                assert violation(system.witness, *bad) == want
                assert violation(system.witness, *bad) == want
                assert len(system._witnesses) == size
                kinds.add(kind)
    assert len(seen) > 200
    assert kinds == {"domain", "length", "cover"}


def test_each_kind_of_forged_witness_fails_with_its_message_every_time():
    a, x = TVar("A"), TVar("X")
    fun_ty = TForall("X", TArrow(a, x))
    for system, ts, vs, longer, uncovered in (
        (ADD, (x,), ((a,),), ((a, a),), "function premise has type forall X. A -> X, expected void"),
        (SADD, (("", x),), (("", (a,)),), (("", (a, a)),), "function labels do not cover the tree"),
    ):
        assert system.witness(fun_ty, a, a, ts, vs, ("X",))[3] == a
        for u, ts_, vs_, message in (
            (TSum((a, a)), ts, vs, "arrow domain A + A is not a unit type"),
            (a, ts, longer, "instantiation vector length mismatch"),
            (a, (), vs, uncovered),
        ):
            for _ in range(2):
                assert violation(system.witness, fun_ty, a, u, ts_, vs_, ("X",)) == ((), message)


def test_a_structured_witness_is_keyed_by_the_types_of_its_maps():
    """Two calls whose maps have the same addresses but other types do
    not share an entry; a dict and its sorted items share one."""
    a, x, y, z = TVar("A"), TVar("X"), TVar("KeyY"), TVar("KeyZ")
    fun_ty = TForall("X", TArrow(a, x))
    arg_ty = TSum((a, a))
    size = len(SADD._witnesses)
    ry = SADD.witness(fun_ty, arg_ty, a, {"": x}, {"r": (y,), "l": (y,)}, ("X",))
    rz = SADD.witness(fun_ty, arg_ty, a, {"": x}, {"r": (z,), "l": (y,)}, ("X",))
    assert ry[3] == TSum((y, y)) and rz[3] == TSum((y, z))
    assert len(SADD._witnesses) == size + 2
    assert SADD.witness(fun_ty, arg_ty, a, (("", x),), (("l", (y,)), ("r", (z,))), ("X",)) is rz
    assert len(SADD._witnesses) == size + 2
