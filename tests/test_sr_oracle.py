"""The one-walk derivation stepper against the stepper it replaced.

``reduce_derivation`` steps the term once, at the root, rebuilds the
derivation along the redex path without stepping or comparing again, and
maps the path through an abstraction with the binder core
(``binders.body_path``).  Reference: the stepper before it, which stepped
and compared the term at every node of the path and mapped the path
through an abstraction with a multiset-matching alpha test of its own.
It is frozen below with its ``_descend``, ``transfer_path`` and
``alpha_eq_ren``, verbatim but for its name, ``reference_reduce_derivation``,
and for the level-named form of the terms that ``transfer_path`` reads,
which canonical terms had before they held indices; it shares ``_focus``
and the systems' methods with the stepper it checks.

On every redex of the corpus derivations of seeds 1-3, additive and
structured, taken bare and under one and two abstractions, and of
hand-written terms with redexes in function and argument position, both
must build the same derivation or raise the same exception class."""

from functools import lru_cache

import pytest
from level_names import levels

from addlam.binders import Context, Redex, StaleRedex
from addlam.corpus import generate_corpus
from addlam.derivation import (
    UnsupportedDerivationShape,
    _focus,
    arr_i,
    check_add,
    elaborate,
    reapply_wrappers,
    reduce_derivation,
    strip_wrappers,
)
from addlam.parser import parse_aterm, parse_context
from addlam.reduction import enumerate_redexes, step
from addlam.structured import ConversionFailure, add_to_sadd, sarr_i
from addlam.suites import _context
from addlam.syntax import Abs, App, Sum, Term, Var, _Zero, canonicalize, show_term


# --- the frozen stepper -----------------------------------------------------------


def alpha_eq_ren(a: Term, b: Term, ren: dict[str, str]) -> bool:
    """Alpha equivalence where free variables of a are read through ren."""
    match (a, b):
        case (Var(x), Var(y)):
            return ren.get(x, x) == y
        case (_Zero(), _Zero()):
            return True
        case (Abs(x, s), Abs(y, u)):
            return alpha_eq_ren(s, u, {**ren, x: y})
        case (App(f, s), App(g, u)):
            return alpha_eq_ren(f, g, ren) and alpha_eq_ren(s, u, ren)
        case (Sum(ps), Sum(qs)) if len(ps) == len(qs):
            used = [False] * len(qs)
            for p in ps:
                for j, q in enumerate(qs):
                    if not used[j] and alpha_eq_ren(p, q, ren):
                        used[j] = True
                        break
                else:
                    return False
            return True
    return False


def transfer_path(a: Term, b: Term, path: tuple[int, ...], ren: dict[str, str]) -> tuple[int, ...]:
    """Translate a subterm path in a to the corresponding path in b,
    where b is alpha-equal to a through the free-variable renaming ren.
    Alpha-variants may order sum components differently, so indices
    into sums are re-matched rather than copied."""
    out: list[int] = []
    for i in path:
        match (a, b):
            case (App(f, s), App(g, u)):
                out.append(i)
                a, b = (f, g) if i == 0 else (s, u)
            case (Abs(x, s), Abs(y, u)):
                out.append(0)
                ren = {**ren, x: y}
                a, b = s, u
            case (Sum(ps), Sum(qs)):
                part = ps[i]
                for j, q in enumerate(qs):
                    if alpha_eq_ren(part, q, ren):
                        out.append(j)
                        a, b = part, q
                        break
                else:
                    raise ValueError("terms are not alpha-correspondent")
            case _:
                raise ValueError("path leaves the term")
    return tuple(out)


def _descend(core, r: Redex):
    system = core.system
    head, rest = r.path[0], r.path[1:]
    if core.rule == "arrE":
        if head not in (0, 1):
            raise StaleRedex("path leaves the application")
        ps = list(core.premises)
        ps[head] = reference_reduce_derivation(ps[head], Redex(rest, r.rule, r.part))
        return system.arr_e(ps[0], ps[1], core.arr_u, core.arr_ts, core.arr_vs, core.arr_xs)
    if core.rule == "arrI":
        if head != 0:
            raise StaleRedex("path leaves the abstraction")
        p = core.premises[0]
        tail = {
            "dist-right": (0, r.part),
            "dist-left": (1, r.part),
            "sum-zero": (r.part,),
        }.get(r.rule, ())
        named = levels(core.term)
        full = transfer_path(
            named.body, levels(p.term), rest + tail, {named.var: core.binder}
        )
        if tail:
            new_path, new_part = full[: len(full) - len(tail)], full[-1]
        else:
            new_path, new_part = full, None
        sub = reference_reduce_derivation(p, Redex(new_path, r.rule, new_part))
        return system.arr_i(sub, core.binder)
    if core.rule == "plusI":
        return system.descend_sum(
            core, head, lambda piece: reference_reduce_derivation(piece, Redex(rest, r.rule, r.part))
        )
    raise UnsupportedDerivationShape(f"cannot follow the redex through {core.rule}")


def reference_reduce_derivation(d, r: Redex):
    """Subject reduction, constructively, in the system of d: from a
    derivation of t and a redex t -> u, a derivation of u with the same
    context and type."""
    new_term = step(d.term, r)
    core, wrappers = strip_wrappers(d)
    new_core = _focus(core, r) if r.path == () else _descend(core, r)
    out = d.system.retype(reapply_wrappers(new_core, wrappers), d.ty)
    if canonicalize(out.term) != new_term:
        raise UnsupportedDerivationShape(
            f"derivation stepped to {show_term(out.term)}, term to {show_term(new_term)}"
        )
    return out


# --- the cases ----------------------------------------------------------------------


def outcome(stepper, d, r):
    """The derivation stepper builds, or the class of what it raises."""
    try:
        return stepper(d, r)
    except Exception as e:  # the oracle compares whatever either raises
        return type(e)


def agree(d, redexes, contexts: dict):
    """Assert that both steppers give the same outcome on every redex;
    count the context of each redex that was stepped."""
    for r in redexes:
        got = outcome(reduce_derivation, d, r)
        want = outcome(reference_reduce_derivation, d, r)
        assert got == want, (show_term(d.term), r, got, want)
        if not isinstance(got, type):
            where = _context(d.term, r.path)
            contexts[where] = contexts.get(where, 0) + 1


def wrapped(d, lam):
    """d, and d under one and two abstractions that bind names of its
    context, in every order; binding a name reorders the sums it occurs
    in."""
    yield d
    for x in d.ctx.names():
        yield (inner := lam(d, x))
        for y in inner.ctx.names():
            yield lam(inner, y)


@lru_cache(maxsize=None)
def corpus(seed):
    return generate_corpus(seed, 20, 200)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("structured", [False, True])
def test_both_steppers_agree_on_every_corpus_redex_bare_and_under_binders(seed, structured):
    c = corpus(seed)
    ds, lam = (c.structured, sarr_i) if structured else (c.derivations, arr_i)
    contexts = {}
    for d in ds:
        for w in wrapped(d, lam):
            agree(w, sorted(enumerate_redexes(w.term), key=repr), contexts)
    assert contexts["root"] and contexts["lambda"] and contexts["summand"]


CTX = Context(parse_context("a: X, b: X, f: X -> X, g: X -> X"))
HAND = [
    r"(\x: X. x) ((\y: X. y) a)",
    r"((\h: X -> X. h) (\y: X. y)) a",
    r"\z: X. (\x: X. x) ((\y: X. y) z)",
    r"(\x: X. x) ((\y: X. y) (a + b) { X | X | [], [] | }) { X | X | [], [] | }",
    r"((\h: X -> X. h) (f + g) { X -> X | X -> X | [], [] | }) a { X | X, X | [] | }",
    r"\q: X. \p: X. (\x: X. x) (q + p + zero) { X | X | [], [] | }",
    r"\q: X. \p: X. (\x: X. x + q) (p + a + zero) { X | X + X | [], [] | }",
    r"\q: X. (\h: X -> X. h) ((\x: X. x) + (\x: X. q) + zero) { X -> X | X -> X | [], [] | } q"
    r" { X | X, X | [] | }",
    r"\z: X. f ((\y: X. y) (b + z + a) { X | X | [], [], [] | }) { X | X | [], [], [] | }",
]


def test_both_steppers_agree_in_function_and_argument_position():
    contexts = {}
    for src in HAND:
        d = elaborate(parse_aterm(src), CTX)
        check_add(d)
        try:
            sd = add_to_sadd(d)
        except ConversionFailure:
            sd = None
        for w in (d, sd) if sd is not None else (d,):
            rs = sorted(enumerate_redexes(w.term), key=repr)
            # and redexes the term lacks: a path that leaves it, a rule
            # that does not match, an unknown rule
            depth = len(rs[0].path) if rs else 0
            stale = [Redex(rs[0].path + (5,), "beta"), Redex(rs[0].path, "zero-fun"),
                     Redex((0,) * depth, "no-such-rule")]
            agree(w, rs + stale, contexts)
    for where in ("lambda", "function", "argument"):
        assert contexts.get(where), (where, contexts)
