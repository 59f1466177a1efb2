"""Small-step reduction: two distributivity rules, three zero rules and
call-by-value beta, applied at any position modulo AC of sums."""

from __future__ import annotations

from dataclasses import dataclass

from .binders import mark_canonical
from .syntax import (
    Abs,
    App,
    Sum,
    Term,
    Zero,
    canonicalize,
    instantiate,
    is_value,
    merge_sum,
    show_term,
    summands,
)


class StaleRedex(Exception):
    """The redex does not address a matching subterm of the given term."""


@dataclass(frozen=True)
class Redex:
    path: tuple[int, ...]
    rule: str
    part: int | None = None  # summand split off by a dist/sum-zero rule

    def __hash__(self) -> int:
        # hash(None) is the object's address on CPython before 3.12, so a
        # redex without a part would hash, and a set of redexes iterate,
        # differently in every process
        return hash((self.path, self.rule, -1 if self.part is None else self.part))


def _kind(u: Term) -> str:
    # messages name the node, not the subterm: an open subterm of a
    # canonical term would print with its free binders captured
    return f"a {type(u).__name__.lstrip('_')} node"


def _child(u: Term, i: int) -> Term:
    match u:
        case App(f, a) if i in (0, 1):
            return a if i else f
        case Abs(_, b) if i == 0:
            return b
        case Sum(ps) if 0 <= i < len(ps):
            return ps[i]
    raise StaleRedex(f"no child {i} in {_kind(u)}")


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        t = _child(t, i)
    return t


def enumerate_redexes(t: Term) -> frozenset[Redex]:
    """All rule occurrences in the canonical term, with distributivity
    splits of the form {one summand} vs {rest}."""
    t = canonicalize(t)
    out: list[Redex] = []

    def walk(u: Term, path: tuple[int, ...]):
        match u:
            case App(f, a):
                if f is Zero:
                    out.append(Redex(path, "zero-fun"))
                if a is Zero:
                    out.append(Redex(path, "zero-arg"))
                if isinstance(f, Sum):
                    for i in range(len(f.parts)):
                        out.append(Redex(path, "dist-right", i))
                if isinstance(a, Sum):
                    for i in range(len(a.parts)):
                        out.append(Redex(path, "dist-left", i))
                if isinstance(f, Abs) and is_value(a):
                    out.append(Redex(path, "beta"))
                walk(f, path + (0,))
                walk(a, path + (1,))
            case Abs(_, b):
                walk(b, path + (0,))
            case Sum(ps):
                for i, p in enumerate(ps):
                    if p is Zero:
                        out.append(Redex(path, "sum-zero", i))
                        break  # removing any zero gives the same reduct
                for i, p in enumerate(ps):
                    walk(p, path + (i,))

    walk(t, ())
    return frozenset(out)


def _split(parts: tuple[Term, ...], i: int | None) -> tuple[Term, Term]:
    if not isinstance(i, int) or not 0 <= i < len(parts):
        raise StaleRedex(f"no summand {i} in a {len(parts)}-ary sum")
    rest = parts[:i] + parts[i + 1 :]
    return parts[i], rest[0] if len(rest) == 1 else Sum(rest)


def _contract(u: Term, r: Redex, depth: int) -> Term:
    """Canonical contractum of the redex u, which sits at binder depth
    ``depth`` of a canonical term."""
    match r.rule, u:
        case "beta", App(Abs(x, b), v) if is_value(v):
            return instantiate(b, x, v, depth)
        case "dist-right", App(Sum(ps), a):
            one, rest = _split(ps, r.part)
            return merge_sum((App(one, a), App(rest, a)))
        case "dist-left", App(f, Sum(ps)):
            one, rest = _split(ps, r.part)
            return merge_sum((App(f, one), App(f, rest)))
        case "zero-fun", App(f, _) if f is Zero:
            return Zero
        case "zero-arg", App(_, a) if a is Zero:
            return Zero
        case "sum-zero", Sum(ps):
            zero, rest = _split(ps, r.part)
            if zero is not Zero:
                raise StaleRedex("sum-zero split is not a zero summand")
            return rest
    raise StaleRedex(f"rule {r.rule} does not match the {_kind(u)} at {r.path}")


def step(t: Term, r: Redex) -> Term:
    """Canonical contractum of one redex.  Only the path from the redex
    to the root is rebuilt: a sum on it is re-flattened and re-sorted by
    its parts' cached keys, and every other subterm is shared with t."""
    t = canonicalize(t)
    spine = []
    u, depth = t, 0
    for i in r.path:
        spine.append(u)
        if isinstance(u, Abs):
            depth += 1
        u = _child(u, i)
    new = _contract(u, r, depth)
    for node, i in zip(reversed(spine), reversed(r.path)):
        match node:
            case App(f, a):
                new = App(f, new) if i else App(new, a)
            case Abs(x, _):
                new = Abs(x, new)
            case Sum(ps):
                new = merge_sum(ps[:i] + ps[i + 1 :] + summands(new))
    return mark_canonical(new)


def reducts(t: Term) -> frozenset[Term]:
    """One-step reduct set up to AC."""
    return frozenset(step(t, r) for r in enumerate_redexes(t))


@dataclass(frozen=True)
class TraceStep:
    rule: str
    path: tuple[int, ...]
    before: Term
    after: Term

    def __str__(self):
        at = ".".join(map(str, self.path)) or "e"
        return f"{self.rule} @ {at} : {show_term(self.before)} ==> {show_term(self.after)}"


@dataclass(frozen=True)
class NormalizeResult:
    term: Term
    steps: tuple[TraceStep, ...]
    exhausted: bool


def _strategy_key(r: Redex):
    # distributivity and zero rules before beta; then innermost-leftmost
    return (1 if r.rule == "beta" else 0, -len(r.path), r.path, r.rule, r.part or 0)


def normalize(t: Term, fuel: int = 10000) -> NormalizeResult:
    """Deterministic normalisation (innermost, non-beta rules first)."""
    t = canonicalize(t)
    trace: list[TraceStep] = []
    while fuel > 0:
        rs = enumerate_redexes(t)
        if not rs:
            return NormalizeResult(t, tuple(trace), False)
        r = min(rs, key=_strategy_key)
        u = step(t, r)
        trace.append(TraceStep(r.rule, r.path, t, u))
        t = u
        fuel -= 1
    return NormalizeResult(t, tuple(trace), True)


@dataclass(frozen=True)
class SnResult:
    # "terminates"; "budget-exhausted" (also when a cycle is found);
    # "recursion-limit": the term or a path of its reduction graph is
    # too deep for the recursive search, so nothing was decided
    status: str
    max_depth: int = 0
    states: int = 0
    cycle: bool = False

    @property
    def terminates(self) -> bool:
        return self.status == "terminates"


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
