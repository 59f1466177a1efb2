"""Seeded generators: random raw terms and types for the algebra suites,
and checked derivation corpora for the preservation, normalisation,
translation and round-trip suites. Everything is deterministic per seed."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .binders import Context
from .derivation import (
    ADD,
    AddDerivation,
    arr_e,
    arr_i,
    ax,
    ax0,
    check_add,
    forall_e,
    forall_i,
    plus_i,
)
from .structured import (
    SaddDerivation,
    add_to_sadd,
    check_sadd,
    sarr_i,
    sax,
    sax0,
    sforall_i,
    splus_i,
    struct_arr_e,
)
from .syntax import Abs, App, Sum, Term, Var, Zero
from .typesys import (
    TArrow,
    TForall,
    TSum,
    TVar,
    TZero,
    Type,
    is_unit,
    type_canonicalize,
    type_equiv,
    type_subst_vec,
)

TX, TY = TVar("X"), TVar("Y")
BASE_CTX = Context((("a", TX), ("b", TX), ("c", TY)))
UNIT_POOL = (TX, TY, TArrow(TX, TX), TArrow(TY, TY))

# the classic divergent control: untypable, never normalises
OMEGA = App(Abs("w", App(Var("w"), Var("w"))), Abs("w", App(Var("w"), Var("w"))))


# --- raw generators for the algebra suites ---------------------------------------


def random_term(rng: random.Random, depth: int = 4, vars=("x", "y", "z")) -> Term:
    if depth <= 0:
        return rng.choice([Var(rng.choice(vars)), Zero])
    match rng.randrange(6):
        case 0:
            return Var(rng.choice(vars))
        case 1:
            return Zero
        case 2:
            return Abs(rng.choice(vars), random_term(rng, depth - 1, vars))
        case 3:
            return App(random_term(rng, depth - 1, vars), random_term(rng, depth - 1, vars))
        case _:
            width = rng.randint(2, 3)
            return Sum(tuple(random_term(rng, depth - 1, vars) for _ in range(width)))


def random_type(rng: random.Random, depth: int = 4, tvars=("X", "Y", "Z")) -> Type:
    if depth <= 0:
        return rng.choice([TVar(rng.choice(tvars)), TZero])
    match rng.randrange(6):
        case 0:
            return TVar(rng.choice(tvars))
        case 1:
            return TZero
        case 2:
            dom = random_type(rng, depth - 1, tvars)
            # arrow domains are unit types
            if not is_unit(type_canonicalize(dom)):
                dom = TVar(rng.choice(tvars))
            return TArrow(dom, random_type(rng, depth - 1, tvars))
        case 3:
            return TForall(rng.choice(tvars), random_type(rng, depth - 1, tvars))
        case _:
            width = rng.randint(2, 3)
            return TSum(tuple(random_type(rng, depth - 1, tvars) for _ in range(width)))


# --- typed derivation generators ---------------------------------------------------


def _hyps_of(ctx: Context, u: Type) -> list[str]:
    return [x for x, t in ctx.items() if type_equiv(t, u)]


def _value_deriv(ctx: Context, u: Type, rng: random.Random) -> AddDerivation:
    """A derivation of a value of the given unit type."""
    xs = _hyps_of(ctx, u)
    if xs and rng.random() < 0.7:
        return ax(ctx, rng.choice(xs))
    match u:
        case TArrow(dom, cod):
            x = f"x{rng.randrange(1000)}"
            while x in ctx.names():
                x = f"x{rng.randrange(1000)}"
            inner = ctx.extend(x, dom)
            if type_equiv(dom, cod):
                return arr_i(ax(inner, x), x)
            return arr_i(_typed_deriv(inner, cod, rng), x)
        case TForall(z, body):
            if z in ctx.free_tvars():
                raise ValueError(f"type variable {z} is free in the context")
            return forall_i(_value_deriv(ctx, body, rng), z)
        case TVar(_):
            if not xs:
                raise ValueError("no hypothesis of that type")
            return ax(ctx, rng.choice(xs))
    raise ValueError("not a value type")


def _typed_deriv(ctx: Context, t: Type, rng: random.Random) -> AddDerivation:
    """A derivation of some term of the given type (exactly)."""
    if t is TZero:
        return ax0(ctx)
    match t:
        case TSum(parts):
            out = _typed_deriv(ctx, parts[0], rng)
            for p in parts[1:]:
                out = plus_i(out, _typed_deriv(ctx, p, rng))
            return out
        case _:
            return _value_deriv(ctx, t, rng)


def _result_pool(u: Type, xs: tuple[str, ...]) -> tuple[Type, ...]:
    # every candidate must be inhabited under a context holding x : u
    return (u, TX, TY, TArrow(u, u))


def _app_deriv(
    ctx: Context,
    rng: random.Random,
    max_width: int = 3,
    structured_safe: bool = False,
) -> AddDerivation:
    """An application node: a (possibly polymorphic) sum of abstractions
    applied to a sum of values, with synthesized witnesses."""
    xs = ("Z",) if rng.random() < 0.5 else ()
    u = TVar("Z") if xs and rng.random() < 0.6 else rng.choice(UNIT_POOL)
    alpha = rng.randint(1, max_width)
    beta = rng.randint(1, max_width)
    if structured_safe:
        # the simulation stepper needs root-aligned binary splits, and a
        # sum-typed argument only under a unit-typed function
        alpha = min(alpha, 2)
        beta = min(beta, 2)
        if beta == 2:
            alpha = 1

    ts = []
    funs = []
    for i in range(alpha):
        target = rng.choice(_result_pool(u, xs))
        if rng.random() < 0.25:
            target = TSum((target, rng.choice((TX, TY))))
        x = f"x{rng.randrange(1000)}"
        body = _typed_deriv(ctx.extend(x, u), target, rng)
        piece = arr_i(body, x)
        for z in reversed(xs):
            piece = forall_i(piece, z)
        ts.append(target)
        funs.append(piece)
    fun = funs[0]
    for piece in funs[1:]:
        fun = plus_i(fun, piece)

    vs = []
    args = []
    for _ in range(beta):
        vec = tuple(rng.choice(UNIT_POOL) for _ in xs)
        arg_ty = type_subst_vec(u, xs, vec) if xs else u
        args.append(_value_deriv(ctx, arg_ty, rng))
        vs.append(vec)
    arg = args[0]
    for piece in args[1:]:
        arg = plus_i(arg, piece)

    return arr_e(fun, arg, u=u, ts=tuple(ts), vs=tuple(vs), xs=xs)


def _zero_app_deriv(ctx: Context, rng: random.Random) -> AddDerivation:
    """Applications involving the impossible computation: 0 t, t 0, 0 0."""
    u = rng.choice((TX, TY))
    match rng.randrange(3):
        case 0:
            return arr_e(ax0(ctx), _value_deriv(ctx, u, rng), u=u, ts=(), vs=((),))
        case 1:
            x = f"x{rng.randrange(1000)}"
            fun = arr_i(_typed_deriv(ctx.extend(x, u), u, rng), x)
            return arr_e(fun, ax0(ctx), u=u, ts=(u,), vs=())
        case _:
            return arr_e(ax0(ctx), ax0(ctx), u=u, ts=(), vs=())


# --- pinned fixtures -----------------------------------------------------------


def example_two_funs(ctx: Context = Context((("v1", TVar("A")), ("v2", TVar("B"))))) -> AddDerivation:
    """A sum of two polymorphic abstractions applied to a sum of two
    values, typed with a four-summand result."""
    a, b = ctx.items()[0][1], ctx.items()[1][1]
    x_id = forall_i(arr_i(ax(ctx.extend("x", TX), "x"), "x"), "X")
    inner = ctx.extend("y", TX)
    const = forall_i(
        arr_i(arr_i(ax(inner.extend("z", TX), "y"), "z"), "y"), "X"
    )
    fun = plus_i(x_id, const)
    arg = plus_i(ax(ctx, ctx.items()[0][0]), ax(ctx, ctx.items()[1][0]))
    return arr_e(
        fun,
        arg,
        u=TX,
        ts=(TX, TArrow(TX, TX)),
        vs=((a,), (b,)),
        xs=("X",),
    )


def example_identity_app(ctx: Context = Context((("v1", TVar("A")), ("v2", TVar("B"))))) -> AddDerivation:
    """The polymorphic identity applied to a sum of two values."""
    (n1, a), (n2, b) = ctx.items()
    ident = forall_i(arr_i(ax(ctx.extend("x", TX), "x"), "x"), "X")
    arg = plus_i(ax(ctx, n1), ax(ctx, n2))
    return arr_e(ident, arg, u=TX, ts=(TX,), vs=((a,), (b,)), xs=("X",))


def example_pair_tree() -> SaddDerivation:
    """A two-summand function applied to an argument whose type carries a
    zero summand; its translation is the nested pair-of-projections tree."""
    ctx = BASE_CTX
    f1 = sarr_i(sax(ctx.extend("x", TX), "x"), "x")  # X -> X
    f2 = sarr_i(sax(ctx.extend("x", TX), "c"), "x")  # X -> Y
    fun = splus_i(f1, f2)
    arg = splus_i(splus_i(sax(ctx, "a"), sax0(ctx)), sax(ctx, "b"))
    return struct_arr_e(
        fun,
        arg,
        u=TX,
        ts={"l": TX, "r": TY},
        vs={"ll": (), "r": ()},
    )


def example_struct_elim() -> SaddDerivation:
    """The appendix elimination: a zero-padded polymorphic function sum
    applied to a zero-padded argument."""
    ctx = BASE_CTX
    z = TVar("Z")
    g1 = sforall_i(sarr_i(sax(ctx.extend("x", z), "x"), "x"), "Z")
    inner = ctx.extend("x", z).extend("y", z)
    g2 = sforall_i(sarr_i(sarr_i(sax(inner, "x"), "y"), "x"), "Z")
    fun = splus_i(splus_i(g1, g2), sax0(ctx))
    arg = splus_i(sax(ctx, "a"), sax0(ctx))
    return struct_arr_e(
        fun,
        arg,
        u=z,
        ts={"ll": z, "lr": TArrow(z, z)},
        vs={"l": (TX,)},
        xs=("Z",),
    )


def _simple_fixtures(ctx: Context) -> list[AddDerivation]:
    """Small derivations pinning down every rule at least once."""
    d_a, d_b = ax(ctx, "a"), ax(ctx, "b")
    ident = arr_i(ax(ctx.extend("x", TX), "x"), "x")
    poly = forall_i(arr_i(ax(ctx.extend("x", TVar("Z")), "x"), "x"), "Z")
    return [
        d_a,
        ax0(ctx),
        plus_i(d_a, d_b),
        plus_i(d_a, ax0(ctx)),  # a summand that vanishes under equivalence
        ADD.retype(plus_i(d_a, ax0(ctx)), TX),  # the same derivation at X
        ident,
        poly,
        forall_e(poly, TY),
        example_two_funs(),
        example_identity_app(),
    ]


# --- the corpus ------------------------------------------------------------------


@dataclass(frozen=True)
class Corpus:
    seed: int
    budget: int
    derivations: tuple[AddDerivation, ...]
    structured: tuple[SaddDerivation, ...]


def generate_corpus(seed: int, budget: int = 20, count: int = 500) -> Corpus:
    """A reproducible corpus of checked derivations: max(count, 10)
    additive derivations, the 10 fixed ones of ``_simple_fixtures``
    first, and max(60, count // 5) structured ones, the two fixed
    examples first.  budget only caps the width of the random
    applications, at min(3, max(1, budget // 7)), which is 2 at the
    default 20; it bounds nothing else of a derivation's size."""
    rng = random.Random(seed)
    ctx = BASE_CTX
    out = _simple_fixtures(ctx)

    while len(out) < count:
        roll = rng.random()
        if roll < 0.55:
            d = _app_deriv(ctx, rng, max_width=min(3, max(1, budget // 7)))
        elif roll < 0.70:
            d = _zero_app_deriv(ctx, rng)
        elif roll < 0.80:
            d = plus_i(_app_deriv(ctx, rng, max_width=2), ax0(ctx))
        elif roll < 0.90:
            d = plus_i(_app_deriv(ctx, rng, max_width=2), _typed_deriv(ctx, rng.choice(UNIT_POOL), rng))
        else:
            width = rng.randint(2, 4)
            parts = tuple(rng.choice(UNIT_POOL + (TZero,)) for _ in range(width))
            d = _typed_deriv(ctx, TSum(parts), rng)
        out.append(d)

    structured = [example_pair_tree(), example_struct_elim()]
    srng = random.Random(seed + 1)
    while len(structured) < max(60, count // 5):
        roll = srng.random()
        if roll < 0.6:
            d = _app_deriv(ctx, srng, structured_safe=True)
        elif roll < 0.8:
            d = _zero_app_deriv(ctx, srng)
        else:
            d = plus_i(_app_deriv(ctx, srng, structured_safe=True, max_width=2), ax0(ctx))
        structured.append(add_to_sadd(d))

    for d in out:
        check_add(d)
    for sd in structured:
        check_sadd(sd)
    return Corpus(seed, budget, tuple(out), tuple(structured))
