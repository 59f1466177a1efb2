"""Two references for the derivation checkers, kept here so that no
oracle runs the code it checks.

The checkers accept a node when its rule's constructor rebuilds it from
its premises.  Reference: the hand-written checkers they replaced, one
clause per rule, frozen below as ``reference_check_node`` (both source
systems) and ``reference_f_check_node`` (System F), verbatim but for
``instantiate``, a ``System`` method that ``forall_e`` has absorbed, and
the F checker's exception, now the one ``RuleViolation`` of all three
systems.  On every
subject-reduction step of the corpora of seeds 1 and 2 (additive and
structured), on every F-derivation that the translation, the epsilon
terms and the identity coercions build from those corpora, and on forged
variants of all of them, both must give the same verdict at the same
path.  The source checker also marks a node once it and all its premises
have passed, and skips marked nodes; the frozen reference walks every
node every time.

The application rule's witness is memoised per system (``System.witness``).
Reference: a fresh call of the unmemoised ``app_witness``, which must give
the same result on every ``arrE`` node of those derivations, and the same
``RuleViolation`` on forged witnesses, every time."""

from dataclasses import replace
from functools import lru_cache

import pytest

from addlam.binders import StaleRedex, subst
from addlam.corpus import generate_corpus
from addlam.derivation import (
    ADD,
    RuleViolation,
    UnsupportedDerivationShape,
    check_add,
    step_derivation,
)
from addlam.reduction import enumerate_redexes
from addlam.structured import (
    SADD,
    ExcludedRule,
    _struct_result,
    check_sadd,
    step_sadd_derivation,
)
from addlam.syntax import Abs, App, Var, Zero, canonicalize, mk_sum
from addlam.sysf import (
    FAbs,
    FApp,
    FArrow,
    FForall,
    FPair,
    FProd,
    FProjL,
    FProjR,
    FTVar,
    FUnit,
    FVar,
    Star,
    f_alpha_eq,
    f_check,
    f_type_alpha_eq,
)
from addlam.translation import epsilon_derivations, equiv_coercion, trans_term
from addlam.typesys import TArrow, TForall, TSum, TVar, TZero, is_unit

WRONG = TVar("Forged")
F_WRONG = FTVar("Forged")


# --- the frozen hand-written checkers ---------------------------------------------


def instantiate(system, ty, v):
    """The ``System`` method that reference_check_node calls."""
    c = system.norm(ty)
    return system.subst(c.body, c.var, v)


def reference_check_node(d, path):
    def bad(msg):
        raise RuleViolation(path, msg)

    system = d.system
    ps = d.premises
    if d.rule not in system.rules:
        bad(f"unknown rule {d.rule!r}")
    if d.rule == "ax":
        u = d.ctx.get(d.term.name) if isinstance(d.term, Var) else None
        if u is None:
            bad("axiom subject is not a context variable")
        if not system.eq(d.ty, u):
            bad("axiom type differs from the hypothesis")
    elif d.rule == "ax0":
        if d.term is not Zero or not system.eq(d.ty, TZero):
            bad("zero axiom must type zero with the zero type")
    elif d.rule == "equiv":
        (p,) = ps
        if p.ctx != d.ctx or canonicalize(p.term) != canonicalize(d.term):
            bad("equivalence changes the judgement subject")
        if not system.eq(p.ty, d.ty):
            bad("equivalence between inequivalent types")
    elif d.rule == "arrI":
        (p,) = ps
        u = p.ctx.get(d.binder or "")
        if u is None:
            bad("binder missing from the premise context")
        if p.ctx.remove(d.binder) != d.ctx:
            bad("abstraction context mismatch")
        if canonicalize(d.term) != canonicalize(Abs(d.binder, p.term)):
            bad("abstraction subject mismatch")
        if not system.eq(d.ty, TArrow(u, p.ty)):
            bad("abstraction type is not the expected arrow")
    elif d.rule == "plusI":
        p1, p2 = ps
        if p1.ctx != d.ctx or p2.ctx != d.ctx:
            bad("sum context mismatch")
        if canonicalize(d.term) != mk_sum((p1.term, p2.term)):
            bad("sum subject mismatch")
        if not system.eq(d.ty, TSum((p1.ty, p2.ty))):
            bad("sum type is not the sum of the premise types")
    elif d.rule == "forallI":
        (p,) = ps
        if p.ctx != d.ctx or canonicalize(p.term) != canonicalize(d.term):
            bad("generalisation changes the judgement subject")
        if not is_unit(system.norm(p.ty)):
            bad("generalisation over a non-unit type")
        if d.binder in d.ctx.free_tvars():
            bad(f"{d.binder} occurs free in the context")
        if not system.eq(d.ty, TForall(d.binder, p.ty)):
            bad("generalised type mismatch")
    elif d.rule == "forallE":
        (p,) = ps
        if p.ctx != d.ctx or canonicalize(p.term) != canonicalize(d.term):
            bad("instantiation changes the judgement subject")
        if not isinstance(system.norm(p.ty), TForall):
            bad("instantiating a non-quantified type")
        if d.inst_ty is None or not is_unit(system.norm(d.inst_ty)):
            bad("instantiation witness must be a unit type")
        if not system.eq(d.ty, instantiate(system, p.ty, d.inst_ty)):
            bad("instantiated type mismatch")
    elif d.rule == "arrE":
        p1, p2 = ps
        if d.arr_ts is None or d.arr_vs is None or d.arr_u is None or d.arr_xs is None:
            bad("application node lacks its witnesses")
        if p1.ctx != d.ctx or p2.ctx != d.ctx:
            bad("application context mismatch")
        try:
            res = system.witness(p1.ty, p2.ty, d.arr_u, d.arr_ts, d.arr_vs, d.arr_xs)[3]
        except RuleViolation as e:
            bad(e.message)
        except ValueError as e:
            bad(str(e))
        if canonicalize(d.term) != canonicalize(App(p1.term, p2.term)):
            bad("application subject mismatch")
        if not system.eq(d.ty, res):
            bad("application result type mismatch")


def reference_f_check_node(d, path):
    def bad(msg):
        raise RuleViolation(path, msg)

    ps = d.premises
    if d.rule == "Ax":
        ty = d.ctx.get(d.term.name) if isinstance(d.term, FVar) else None
        if ty is None or not f_type_alpha_eq(ty, d.ty):
            bad("axiom does not read its type off the context")
    elif d.rule == "UnitI":
        if d.term is not Star or d.ty is not FUnit:
            bad("the unit axiom must type star with 1")
    elif d.rule == "ArrI":
        (p,) = ps
        dom = p.ctx.get(d.binder or "")
        if dom is None or p.ctx.remove(d.binder) != d.ctx:
            bad("abstraction context mismatch")
        if not f_alpha_eq(d.term, FAbs(d.binder, p.term)):
            bad("abstraction subject mismatch")
        if not f_type_alpha_eq(d.ty, FArrow(dom, p.ty)):
            bad("abstraction type mismatch")
    elif d.rule == "ArrE":
        p1, p2 = ps
        if p1.ctx != d.ctx or p2.ctx != d.ctx:
            bad("application context mismatch")
        if not isinstance(p1.ty, FArrow) or not f_type_alpha_eq(p1.ty.dom, p2.ty):
            bad("application premises do not compose")
        if not f_alpha_eq(d.term, FApp(p1.term, p2.term)):
            bad("application subject mismatch")
        if not f_type_alpha_eq(d.ty, p1.ty.cod):
            bad("application result type mismatch")
    elif d.rule == "ProdI":
        p1, p2 = ps
        if p1.ctx != d.ctx or p2.ctx != d.ctx:
            bad("pair context mismatch")
        if not f_alpha_eq(d.term, FPair(p1.term, p2.term)):
            bad("pair subject mismatch")
        if not f_type_alpha_eq(d.ty, FProd(p1.ty, p2.ty)):
            bad("pair type mismatch")
    elif d.rule in ("ProdEl", "ProdEr"):
        (p,) = ps
        if p.ctx != d.ctx or not isinstance(p.ty, FProd):
            bad("projection premise is not a product")
        want_tm = FProjL(p.term) if d.rule == "ProdEl" else FProjR(p.term)
        want_ty = p.ty.left if d.rule == "ProdEl" else p.ty.right
        if not f_alpha_eq(d.term, want_tm) or not f_type_alpha_eq(d.ty, want_ty):
            bad("projection conclusion mismatch")
    elif d.rule == "ForallI":
        (p,) = ps
        if p.ctx != d.ctx or not f_alpha_eq(p.term, d.term):
            bad("generalisation changes the subject")
        if d.binder in d.ctx.free_tvars():
            bad(f"{d.binder} occurs free in the context")
        if not f_type_alpha_eq(d.ty, FForall(d.binder, p.ty)):
            bad("generalised type mismatch")
    elif d.rule == "ForallE":
        (p,) = ps
        if p.ctx != d.ctx or not f_alpha_eq(p.term, d.term):
            bad("instantiation changes the subject")
        if not isinstance(p.ty, FForall) or d.inst_ty is None:
            bad("instantiation premise is not quantified")
        if not f_type_alpha_eq(d.ty, subst(p.ty.body, p.ty.var, d.inst_ty)):
            bad("instantiated type mismatch")
    else:
        bad(f"unknown rule {d.rule!r}")


def full_walk(check_node):
    """The checker that runs check_node on every node, premises first."""

    def check(d, path=()):
        for i, p in enumerate(d.premises):
            check(p, path + (i,))
        check_node(d, path)

    return check


reference_check = full_walk(reference_check_node)
reference_f_check = full_walk(reference_f_check_node)


# --- the oracles ------------------------------------------------------------------


def verdict(check, d, error=RuleViolation):
    """None when d checks, else the path of the first violation."""
    try:
        check(d)
    except error as e:
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


# per rule of the source systems and of F, the fields whose loss makes a
# node malformed: an axiom's subject must be a variable
MISSING = {
    "ax": {"term": Zero},
    "arrI": {"binder": None},
    "forallI": {"binder": None},
    "forallE": {"inst_ty": None},
    "arrE": {"arr_u": None, "arr_ts": None, "arr_vs": None, "arr_xs": None},
    "Ax": {"term": Star},
    "ArrI": {"binder": None},
    "ForallI": {"binder": None},
    "ForallE": {"inst_ty": None},
}


def malformed(n):
    """n made malformed in each way a checker must refuse: an unknown rule,
    one premise too few or too many, and each field of its rule lost."""
    yield replace(n, rule="cut")
    if n.premises:
        yield replace(n, premises=n.premises[1:])
    yield replace(n, premises=n.premises + (n.premises[:1] or (n,)))
    for f, v in MISSING.get(n.rule, {}).items():
        yield replace(n, **{f: v})


def malformed_nodes_fail_at_their_paths(d, check, error) -> int:
    """Put each malformed variant of each node of d in its place, check
    that check raises error at that node, and count the variants."""
    count = 0
    for path, n in nodes(d):
        for bad in malformed(n):
            with pytest.raises(error) as e:
                check(replace_at(d, path, bad))
            assert e.value.path == path, (n.rule, bad)
            count += 1
    return count


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


def f_derivations(seed):
    """Every F-derivation the translation builds from the corpus of seed:
    of each structured derivation and of each of its steps, the two
    epsilon terms of its type and the coercion of its type to itself."""
    for sd in corpus(seed).structured:
        yield trans_term(sd).fderivation
        yield from epsilon_derivations(sd.ty)
        yield equiv_coercion(sd.ty, sd.ty)
    for _, sd2 in stepped(seed, True):
        yield trans_term(sd2).fderivation


@pytest.mark.parametrize("seed", (1, 2))
def test_f_checker_agrees_with_the_hand_written_one_on_every_translation(seed):
    """Every F-derivation checks under both, and forging any one node with
    a wrong type fails under both at that node."""
    built = forged = 0
    for fd in f_derivations(seed):
        assert verdict(reference_f_check, fd, RuleViolation) is None
        assert verdict(f_check, fd, RuleViolation) is None
        built += 1
        for path, n in nodes(fd):
            bad = replace_at(fd, path, replace(n, ty=F_WRONG))
            assert verdict(reference_f_check, bad, RuleViolation) == path
            assert verdict(f_check, bad, RuleViolation) == path
            forged += 1
    assert built > 300 and forged > 3000


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
    # by id, holding each node so that no later node reuses a freed one's id
    seen, kinds = {}, set()
    for d, d2 in stepped(seed, structured):
        # the constructors computed every witness of the new nodes, so
        # checking them is a lookup that adds no entry
        size = len(system._witnesses)
        reference_check(d2)
        assert len(system._witnesses) == size
        for _, n in (*nodes(d), *nodes(d2)):
            if n.rule != "arrE" or id(n) in seen:
                continue
            seen[id(n)] = n
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
