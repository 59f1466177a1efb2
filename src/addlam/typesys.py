"""The additive type grammar, its equivalence, substitution and the
witnessed subtype-like relation used by subject reduction.

Types are sums of *unit types* (variables, arrows, foralls) plus the
zero type.  Two layers coexist:

* canonical types: sums flattened, sorted and zero-free, bound
  variables renamed positionally -- the unique representative of an
  equivalence class;
* raw types: binary, order-preserving sums, used by the structured
  system where no equivalence is available.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import free_name, fresh_name


class Type:
    """Nothing changes a node once it is built, apart from its caches: its
    hash is computed once from its children's cached hashes, its sort key
    is cached on first use, and ``type_canonicalize`` marks the nodes it
    returns."""

    __slots__ = ("_hash", "_key", "_canonical")

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return show_type(self)


class TVar(Type):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash((0, name))
        self._key = None
        self._canonical = False

    def __eq__(self, other):
        return self is other or (other.__class__ is TVar and self.name == other.name)

    __hash__ = Type.__hash__

    def __repr__(self):
        return f"TVar({self.name!r})"


class TArrow(Type):
    __slots__ = ("dom", "cod")
    __match_args__ = ("dom", "cod")

    def __init__(self, dom: Type, cod: Type):
        self.dom = dom  # always a unit type
        self.cod = cod
        self._hash = hash((1, dom._hash, cod._hash))
        self._key = None
        self._canonical = False

    def __eq__(self, other):
        return self is other or (
            other.__class__ is TArrow
            and self._hash == other._hash
            and self.dom == other.dom
            and self.cod == other.cod
        )

    __hash__ = Type.__hash__

    def __repr__(self):
        return f"TArrow({self.dom!r}, {self.cod!r})"


class TForall(Type):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Type):
        self.var = var
        self.body = body  # always a unit type
        self._hash = hash((2, var, body._hash))
        self._key = None
        self._canonical = False

    def __eq__(self, other):
        return self is other or (
            other.__class__ is TForall
            and self._hash == other._hash
            and self.var == other.var
            and self.body == other.body
        )

    __hash__ = Type.__hash__

    def __repr__(self):
        return f"TForall({self.var!r}, {self.body!r})"


class TSum(Type):
    __slots__ = ("parts",)
    __match_args__ = ("parts",)

    def __init__(self, parts: tuple[Type, ...]):
        self.parts = parts
        self._hash = hash((3, *[p._hash for p in parts]))
        self._key = None
        self._canonical = False

    def __eq__(self, other):
        return self is other or (
            other.__class__ is TSum and self._hash == other._hash and self.parts == other.parts
        )

    __hash__ = Type.__hash__

    def __repr__(self):
        return f"TSum({list(self.parts)!r})"


class _TZero(Type):
    __slots__ = ()

    def __init__(self):
        self._hash = hash((4,))
        self._key = (4,)
        self._canonical = True

    def __eq__(self, other):
        return other.__class__ is _TZero

    __hash__ = Type.__hash__

    def __repr__(self):
        return "TZero"


TZero = _TZero()


def is_unit(t: Type) -> bool:
    return isinstance(t, (TVar, TArrow, TForall))


def _tbinder(depth: int) -> str:
    return f"_{depth}"


def type_sort_key(t: Type):
    """Structural key; total order TVar < TArrow < TForall < TSum < zero.
    Cached on the node, so only nodes built since the last sort compute
    theirs."""
    k = t._key
    if k is None:
        match t:
            case TVar(x):
                k = (0, x)
            case TArrow(d, c):
                k = (1, type_sort_key(d), type_sort_key(c))
            case TForall(_, b):
                k = (2, type_sort_key(b))
            case TSum(ps):
                k = (3, len(ps), tuple(map(type_sort_key, ps)))
        t._key = k
    return k


def _tcanon(t: Type, env: dict[str, str], depth: int) -> Type:
    if t._canonical and not depth:
        return t
    match t:
        case TVar(x):
            nx = env.get(x)
            out = TVar(free_name(x) if nx is None else nx)
        case TArrow(d, c):
            out = TArrow(_tcanon(d, env, depth), _tcanon(c, env, depth))
        case TForall(x, b):
            nx = _tbinder(depth)
            out = TForall(nx, _tcanon(b, {**env, x: nx}, depth + 1))
        case TSum(ps):
            flat: list[Type] = []
            for p in ps:
                cp = _tcanon(p, env, depth)
                if cp.__class__ is TSum:
                    flat.extend(cp.parts)
                elif cp is not TZero:  # zero is neutral for + under the equivalence
                    flat.append(cp)
            if not flat:
                return TZero
            if len(flat) == 1:
                out = flat[0]
            else:
                flat.sort(key=type_sort_key)
                out = TSum(tuple(flat))
        case _TZero():
            return TZero
        case _:
            raise TypeError(f"not a type: {t!r}")
    if not depth:
        out._canonical = True  # no binder above it, so canonical on its own
    return out


def type_canonicalize(t: Type) -> Type:
    """Unique representative of the equivalence class of t.  Idempotent,
    and O(1) on a type it returned before; a type built from such types
    walks nothing below them."""
    return t if t._canonical else _tcanon(t, {}, 0)


def type_equiv(a: Type, b: Type) -> bool:
    return type_canonicalize(a) == type_canonicalize(b)


def type_summands(t: Type) -> tuple[Type, ...]:
    """Unit summands of a canonical type; () for the zero type."""
    if isinstance(t, _TZero):
        return ()
    if isinstance(t, TSum):
        return t.parts
    return (t,)


def sum_of_units(parts) -> Type:
    """Canonical sum of the given types (empty -> zero type)."""
    parts = tuple(parts)
    if not parts:
        return TZero
    return type_canonicalize(TSum(parts)) if len(parts) > 1 else type_canonicalize(parts[0])


def ftv(t: Type) -> frozenset[str]:
    match t:
        case TVar(x):
            return frozenset((x,))
        case TArrow(d, c):
            return ftv(d) | ftv(c)
        case TForall(x, b):
            return ftv(b) - {x}
        case TSum(ps):
            out = frozenset()
            for p in ps:
                out |= ftv(p)
            return out
        case _TZero():
            return frozenset()
    raise TypeError(f"not a type: {t!r}")


def _rsubst(t: Type, x: str, u: Type, fv_u: frozenset[str]) -> Type:
    match t:
        case TVar(y):
            return u if y == x else t
        case TArrow(d, c):
            return TArrow(_rsubst(d, x, u, fv_u), _rsubst(c, x, u, fv_u))
        case TForall(y, b):
            if y == x:
                return t
            if y in fv_u:
                ny = fresh_name(y, fv_u | ftv(b))
                b = _rsubst(b, y, TVar(ny), frozenset((ny,)))
                y = ny
            return TForall(y, _rsubst(b, x, u, fv_u))
        case TSum(ps):
            return TSum(tuple(_rsubst(p, x, u, fv_u) for p in ps))
        case _TZero():
            return t
    raise TypeError(f"not a type: {t!r}")


def raw_subst(t: Type, x: str, u: Type) -> Type:
    """Capture-avoiding substitution preserving sum structure."""
    if not is_unit(u):
        raise ValueError(f"only unit types substitute for type variables: {u}")
    return _rsubst(t, x, u, ftv(u))


def raw_subst_vec(t: Type, xs, us) -> Type:
    """Simultaneous substitution: later variables occurring inside
    earlier replacements are not re-substituted."""
    if len(xs) != len(us):
        raise ValueError("substitution vectors differ in length")
    # detour through placeholder names no surface type can mention
    holes = [f"#{i}" for i in range(len(xs))]
    for x, h in zip(xs, holes):
        t = raw_subst(t, x, TVar(h))
    for h, u in zip(holes, us):
        t = raw_subst(t, h, u)
    return t


def type_subst(t: Type, x: str, u: Type) -> Type:
    """Substitution on canonical types; result canonical."""
    return type_canonicalize(raw_subst(t, x, u))


def type_subst_vec(t: Type, xs, us) -> Type:
    """Sequential (left-to-right) vector substitution; result canonical."""
    return type_canonicalize(raw_subst_vec(t, xs, us))


def raw_alpha_eq(a: Type, b: Type) -> bool:
    """Structural equality up to renaming of bound type variables."""

    def go(a, b, ea, eb, d):
        match a, b:
            case TVar(x), TVar(y):
                return ea.get(x, x) == eb.get(y, y)
            case TArrow(d1, c1), TArrow(d2, c2):
                return go(d1, d2, ea, eb, d) and go(c1, c2, ea, eb, d)
            case TForall(x, b1), TForall(y, b2):
                m = f"#{d}"
                return go(b1, b2, {**ea, x: m}, {**eb, y: m}, d + 1)
            case TSum(p1), TSum(p2):
                return len(p1) == len(p2) and all(
                    go(u, v, ea, eb, d) for u, v in zip(p1, p2)
                )
            case _TZero(), _TZero():
                return True
        return False

    return go(a, b, {}, {}, 0)


def peel_forall(t: Type) -> tuple[str, Type]:
    """Binder and standalone-canonical body of a canonical forall type."""
    c = type_canonicalize(t)
    if not isinstance(c, TForall):
        raise ValueError(f"not a universally quantified type: {t}")
    return c.var, c.body


def instantiate(t: Type, v: Type) -> Type:
    """Body of the canonical forall t with its binder replaced by v."""
    x, body = peel_forall(t)
    return type_subst(body, x, v)


def to_raw(t: Type) -> Type:
    """Left-associated binary view of a canonical type, applied at
    every level (for the structured system, which has rigid binary
    sums)."""

    def go(u: Type) -> Type:
        match u:
            case TSum(ps):
                out = go(ps[0])
                for p in ps[1:]:
                    out = TSum((out, go(p)))
                return out
            case TArrow(a, b):
                return TArrow(go(a), go(b))
            case TForall(x, b):
                return TForall(x, go(b))
            case _:
                return u

    return go(type_canonicalize(t))


# --- witnessed checking of the Appendix relation ---------------------------


class WitnessError(Exception):
    """A witness does not have the shape its step requires."""


@dataclass(frozen=True)
class SsubWitness:
    """Certificate for one generalisation/instantiation step."""

    kind: str  # "gen" | "inst"
    binder: str
    ty: Type | None = None  # instantiating unit type, inst only

    @staticmethod
    def gen(binder: str) -> "SsubWitness":
        return SsubWitness("gen", binder)

    @staticmethod
    def inst(binder: str, ty: Type) -> "SsubWitness":
        return SsubWitness("inst", binder, ty)


def ssub_step(u1: Type, w: SsubWitness) -> Type:
    """The unique type one witnessed step above u1 (canonical)."""
    if w.kind == "gen":
        if not is_unit(type_canonicalize(u1)):
            raise WitnessError(f"gen step on a non-unit type: {u1}")
        return type_canonicalize(TForall(w.binder, u1))
    if w.kind == "inst":
        c = type_canonicalize(u1)
        if not isinstance(c, TForall):
            raise WitnessError(f"inst step on a non-forall type: {u1}")
        if w.ty is None or not is_unit(type_canonicalize(w.ty)):
            raise WitnessError("inst step needs a unit instantiating type")
        return instantiate(c, w.ty)
    raise WitnessError(f"unknown witness kind {w.kind!r}")


def ssub_check(u1: Type, u2: Type, w: SsubWitness) -> bool:
    """Does the single witnessed step lead from u1 to u2?"""
    return type_equiv(ssub_step(u1, w), u2)


def ssub_chain_check(u1: Type, u2: Type, witnesses) -> bool:
    """Fold a witness list; the empty chain is equivalence."""
    cur = type_canonicalize(u1)
    for w in witnesses:
        cur = ssub_step(cur, w)
    return type_equiv(cur, u2)


# --- contexts --------------------------------------------------------------


class Context:
    """Immutable map from term variables to unit types."""

    __slots__ = ("_items",)

    def __init__(self, entries=()):
        d = dict(entries)
        self._items = tuple(sorted(d.items()))

    def get(self, name: str) -> Type | None:
        for k, v in self._items:
            if k == name:
                return v
        return None

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def extend(self, name: str, ty: Type) -> "Context":
        d = dict(self._items)
        d[name] = ty
        return Context(d.items())

    def remove(self, name: str) -> "Context":
        return Context((k, v) for k, v in self._items if k != name)

    def items(self):
        return self._items

    def names(self):
        return tuple(k for k, _ in self._items)

    def free_tvars(self) -> frozenset[str]:
        out = frozenset()
        for _, v in self._items:
            out |= ftv(v)
        return out

    def map_types(self, fn) -> "Context":
        return Context((k, fn(v)) for k, v in self._items)

    def __eq__(self, other):
        return isinstance(other, Context) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._items)
        return f"Context({{{inner}}})"

    def __str__(self):
        return ", ".join(f"{k}: {v}" for k, v in self._items) or "-"


# --- printing ---------------------------------------------------------------

_TNICE = "XYZWVU"


def show_type(t: Type) -> str:
    used = set(ftv(t))
    fresh: dict[str, str] = {}

    def disp(x: str, d: int) -> str:
        if not x.startswith("_"):
            return x
        if x not in fresh:
            base = _TNICE[d % len(_TNICE)]
            nm = fresh_name(base, used)
            used.add(nm)
            fresh[x] = nm
        return fresh[x]

    def go(u: Type, level: int, env: dict[str, str], d: int) -> str:
        match u:
            case TVar(x):
                return env.get(x, x)
            case _TZero():
                return "void"
            case TForall(x, b):
                nm = disp(x, d)
                s = f"forall {nm}. {go(b, 0, {**env, x: nm}, d + 1)}"
                return f"({s})" if level > 0 else s
            case TSum(ps):
                s = " + ".join(go(p, 2, env, d) for p in ps)
                return f"({s})" if level > 1 else s
            case TArrow(dom, cod):
                s = f"{go(dom, 3, env, d)} -> {go(cod, 2, env, d)}"
                return f"({s})" if level > 2 else s
        raise TypeError(f"not a type: {u!r}")

    return go(t, 0, {}, 0)
