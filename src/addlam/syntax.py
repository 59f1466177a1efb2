"""Terms of the source calculus, kept in AC-canonical form.

A term is a variable, an abstraction, an application, an n-ary sum, or
the impossible computation ``zero``.  Sums are flattened multisets held
in a deterministic, alpha-invariant order, so alpha-AC-equivalent terms
have one representation and can be compared with ``==``.

Nothing changes a node once it is built, apart from its caches: each
node computes its hash once, from the cached hashes of its children, and
caches its sort key on first use.
``canonicalize`` marks the nodes it returns, so canonicalising a term it
has already produced costs O(1).
"""

from __future__ import annotations


class Term:
    __slots__ = ("_hash", "_key", "_canonical")

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return show_term(self)


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash((0, name))
        self._key = None
        self._canonical = False

    def __eq__(self, other):
        return self is other or (other.__class__ is Var and self.name == other.name)

    __hash__ = Term.__hash__

    def __repr__(self):
        return f"Var({self.name!r})"


class Abs(Term):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")

    def __init__(self, var: str, body: Term):
        self.var = var
        self.body = body
        self._hash = hash((1, var, body._hash))
        self._key = None
        self._canonical = False

    def __eq__(self, other):
        return self is other or (
            other.__class__ is Abs
            and self._hash == other._hash
            and self.var == other.var
            and self.body == other.body
        )

    __hash__ = Term.__hash__

    def __repr__(self):
        return f"Abs({self.var!r}, {self.body!r})"


class App(Term):
    __slots__ = ("fun", "arg")
    __match_args__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        self.fun = fun
        self.arg = arg
        self._hash = hash((2, fun._hash, arg._hash))
        self._key = None
        self._canonical = False

    def __eq__(self, other):
        return self is other or (
            other.__class__ is App
            and self._hash == other._hash
            and self.fun == other.fun
            and self.arg == other.arg
        )

    __hash__ = Term.__hash__

    def __repr__(self):
        return f"App({self.fun!r}, {self.arg!r})"


class Sum(Term):
    __slots__ = ("parts",)
    __match_args__ = ("parts",)

    def __init__(self, parts: tuple[Term, ...]):
        self.parts = parts  # length >= 2, no nested Sum once canonical
        self._hash = hash((3, *[p._hash for p in parts]))
        self._key = None
        self._canonical = False

    def __eq__(self, other):
        return self is other or (
            other.__class__ is Sum and self._hash == other._hash and self.parts == other.parts
        )

    __hash__ = Term.__hash__

    def __repr__(self):
        return f"Sum({list(self.parts)!r})"


class _Zero(Term):
    __slots__ = ()

    def __init__(self):
        self._hash = hash((4,))
        self._key = (4,)
        self._canonical = True

    def __eq__(self, other):
        return other.__class__ is _Zero

    __hash__ = Term.__hash__

    def __repr__(self):
        return "Zero"


Zero = _Zero()


# Canonical binder names are positional (lambda-nesting depth), which the
# surface grammar cannot produce.  The type and F-term canonicalisers use
# the same names and the same guard against free variables that mimic them.


def _binder(depth: int) -> str:
    return f"_{depth}"


def free_name(x: str) -> str:
    """x, the name of a variable that no enclosing binder maps.  A free
    name of the positional form ``_<digits>`` would be captured by the
    binder of that depth, so it is refused with ValueError."""
    if x[:1] == "_" and x[1:].isdigit() and x[1:].isascii():
        raise ValueError(f"free variable {x!r} has the form of a positional binder name")
    return x


def sort_key(t: Term):
    """Structural key; total order Var < Abs < App < Sum < Zero.  Cached
    on the node, so only nodes built since the last sort compute theirs."""
    k = t._key
    if k is None:
        match t:
            case Var(x):
                k = (0, x)
            case Abs(_, b):
                k = (1, sort_key(b))
            case App(f, a):
                k = (2, sort_key(f), sort_key(a))
            case Sum(ps):
                k = (3, len(ps), tuple(map(sort_key, ps)))
        t._key = k
    return k


def merge_sum(parts) -> Term:
    """Canonical sum of terms that are canonical at one binder depth:
    flattens nested sums and sorts by the cached keys, without
    re-canonicalising the parts, so it is safe on open subterms.  A unary
    sum collapses."""
    flat: list[Term] = []
    for p in parts:
        if p.__class__ is Sum:
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=sort_key)
    return Sum(tuple(flat))


def _canon(t: Term, env: dict[str, str], depth: int) -> Term:
    if t._canonical and not depth:
        return t
    match t:
        case Var(x):
            nx = env.get(x)
            out = Var(free_name(x) if nx is None else nx)
        case Abs(x, b):
            nx = _binder(depth)
            out = Abs(nx, _canon(b, {**env, x: nx}, depth + 1))
        case App(f, a):
            out = App(_canon(f, env, depth), _canon(a, env, depth))
        case Sum(ps):
            out = merge_sum([_canon(p, env, depth) for p in ps])
        case _Zero():
            return Zero
        case _:
            raise TypeError(f"not a term: {t!r}")
    if not depth:
        out._canonical = True  # no binder above it, so canonical on its own
    return out


def canonicalize(t: Term) -> Term:
    """Unique representative modulo alpha and AC of +.  Idempotent, and
    O(1) on a term it returned before.

    Zero summands are kept: ``t + 0 -> t`` is a reduction step, not a
    term equivalence.
    """
    return _canon(t, {}, 0)


def mark_canonical(t: Term) -> Term:
    """Record that t, built from canonical parts at binder depth 0, is
    canonical, so ``canonicalize`` returns it as it is."""
    t._canonical = True
    return t


def _relevel(t: Term, old: int, new: int) -> Term:
    """t, canonical at binder depth old, moved to binder depth new."""
    return t if old == new else _move(t, {}, new)


def instantiate(body: Term, x: str, v: Term, depth: int) -> Term:
    """The canonical contractum of the beta redex (\\x. body) v sitting at
    binder depth ``depth`` of a canonical term: body's binders move up one
    level and each x becomes v, re-levelled to where it lands.  Neither
    part is canonicalised on its own, so variables bound above the redex
    are never captured."""
    return _move(body, {}, depth, x, v, depth)


def _move(t: Term, ren: dict[str, Term], depth: int, x=None, v=None, vdepth=0) -> Term:
    """Copy of the canonical subterm t landing at binder depth ``depth``:
    its binders take their new positional names, the sums they reach are
    re-sorted, and each variable x becomes v, moved from depth vdepth.
    ren maps the old names of the binders met so far to their new
    variables; a name stands for one level, so the map is never undone.
    Variables bound above t keep their names."""
    match t:
        case Var(y):
            if y == x:
                return _relevel(v, vdepth, depth)
            return ren.get(y, t)
        case Abs(y, b):
            nx = _binder(depth)
            ren[y] = Var(nx)
            return Abs(nx, _move(b, ren, depth + 1, x, v, vdepth))
        case App(f, a):
            return App(_move(f, ren, depth, x, v, vdepth), _move(a, ren, depth, x, v, vdepth))
        case Sum(ps):
            return merge_sum([_move(p, ren, depth, x, v, vdepth) for p in ps])
    return t


def mk_sum(parts) -> Term:
    """Canonical sum of the given terms (flattens; unary collapses)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty sum")
    if len(parts) == 1:
        return canonicalize(parts[0])
    return canonicalize(Sum(parts))


def summands(t: Term) -> tuple[Term, ...]:
    """The summand multiset of a canonical term (singleton if not a sum)."""
    return t.parts if isinstance(t, Sum) else (t,)


def alpha_eq(t: Term, u: Term) -> bool:
    return canonicalize(t) == canonicalize(u)


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(x):
            return frozenset((x,))
        case Abs(x, b):
            return free_vars(b) - {x}
        case App(f, a):
            return free_vars(f) | free_vars(a)
        case Sum(ps):
            out = frozenset()
            for p in ps:
                out |= free_vars(p)
            return out
        case _Zero():
            return frozenset()
    raise TypeError(f"not a term: {t!r}")


def fresh_name(base: str, avoid) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def _subst(t: Term, x: str, v: Term, fv_v: frozenset[str]) -> Term:
    match t:
        case Var(y):
            return v if y == x else t
        case Abs(y, b):
            if y == x:
                return t
            if y in fv_v:
                ny = fresh_name(y, fv_v | free_vars(b))
                b = _subst(b, y, Var(ny), frozenset((ny,)))
                y = ny
            return Abs(y, _subst(b, x, v, fv_v))
        case App(f, a):
            return App(_subst(f, x, v, fv_v), _subst(a, x, v, fv_v))
        case Sum(ps):
            return Sum(tuple(_subst(p, x, v, fv_v) for p in ps))
        case _Zero():
            return t
    raise TypeError(f"not a term: {t!r}")


def substitute(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution of v for x; result canonical."""
    return canonicalize(_subst(t, x, v, free_vars(v)))


def is_value(t: Term) -> bool:
    """Values are variables and abstractions."""
    return isinstance(t, (Var, Abs))


# --- printing ------------------------------------------------------------

_NICE = "xyzwuvst"


def _display_names(t: Term) -> dict[int, str]:
    """Readable names for positional binders, avoiding free variables."""
    taken = set(free_vars(t))
    names: dict[int, str] = {}

    def depth_of(u: Term, d: int, maxd: list[int]):
        match u:
            case Abs(_, b):
                maxd[0] = max(maxd[0], d + 1)
                depth_of(b, d + 1, maxd)
            case App(f, a):
                depth_of(f, d, maxd)
                depth_of(a, d, maxd)
            case Sum(ps):
                for p in ps:
                    depth_of(p, d, maxd)

    maxd = [0]
    depth_of(t, 0, maxd)
    for d in range(maxd[0]):
        base = _NICE[d % len(_NICE)]
        nm = fresh_name(base, taken)
        taken.add(nm)
        names[d] = nm
    return names


def show_term(t: Term) -> str:
    names = _display_names(canonicalize(t))

    def go(u: Term, level: int, env: dict[str, str], d: int) -> str:
        match u:
            case Var(x):
                return env.get(x, x)
            case _Zero():
                return "zero"
            case Abs(x, b):
                nm = names.get(d, x)
                s = f"\\{nm}. {go(b, 0, {**env, x: nm}, d + 1)}"
                return f"({s})" if level > 0 else s
            case Sum(ps):
                s = " + ".join(go(p, 2, env, d) for p in ps)
                return f"({s})" if level > 1 else s
            case App(f, a):
                s = f"{go(f, 2, env, d)} {go(a, 3, env, d)}"
                return f"({s})" if level > 2 else s
        raise TypeError(f"not a term: {u!r}")

    return go(canonicalize(t), 0, {}, 0)


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
