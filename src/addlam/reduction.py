"""Small-step reduction: two distributivity rules, three zero rules and
call-by-value beta, applied at any position modulo AC of sums.

The calculus is two tables for the one reduction engine in ``binders``:
``_TESTS`` finds the redexes at an application or a sum, and
``_RULES`` contracts each rule by name."""

from __future__ import annotations

from dataclasses import dataclass

from .binders import Redex, instantiate, mark_canonical, redexes, step_at
from .binders import step as _checked_step  # by name, which the reachability test follows
from .syntax import (
    Abs,
    App,
    Sum,
    Term,
    Zero,
    canonicalize,
    is_value,
    merge_sum,
    show_term,
)


# Redex((), rule, i) for i = 0, 1, … of each split rule, built once and
# shared: the test of an application over a sum of n parts lists n
# splits, and it runs on every such application that a step builds, as
# each step of normalize on (\x.x)(a0+…+a(n−1)) builds one
_SPLITS: dict[str, list[Redex]] = {"dist-right": [], "dist-left": []}


def _splits(rule: str, n: int) -> list[Redex]:
    have = _SPLITS[rule]
    while len(have) < n:
        have.append(Redex((), rule, len(have)))
    return have[:n]


def _app_redexes(u: App, out: list[Redex]):
    f, a = u.fun, u.arg
    if f is Zero:
        out.append(Redex((), "zero-fun"))
    if a is Zero:
        out.append(Redex((), "zero-arg"))
    if f.__class__ is Sum:
        out.extend(_splits("dist-right", len(f.parts)))
    if a.__class__ is Sum:
        out.extend(_splits("dist-left", len(a.parts)))
    if f.__class__ is Abs and is_value(a):
        out.append(Redex((), "beta"))


def _sum_redexes(u: Sum, out: list[Redex]):
    for i, p in enumerate(u.parts):
        if p is Zero:
            out.append(Redex((), "sum-zero", i))
            break  # removing any zero gives the same reduct


_TESTS = {App: _app_redexes, Sum: _sum_redexes}


def enumerate_redexes(t: Term) -> frozenset[Redex]:
    """All rule occurrences in the canonical term, with distributivity
    splits of the form {one summand} vs {rest}."""
    return frozenset(redexes(canonicalize(t), _TESTS))


def _split(parts: tuple[Term, ...], i: int) -> tuple[Term, Term]:
    rest = parts[:i] + parts[i + 1 :]
    return parts[i], rest[0] if len(rest) == 1 else Sum(rest)


# The contraction of each rule: the canonical contractum of the redex r at
# u, which sits at binder depth ``depth`` of a canonical term.
_RULES = {
    "beta": lambda u, r, depth: instantiate(u.fun.body, u.fun.var, u.arg, depth),
    "dist-right": lambda u, r, depth: merge_sum(
        [App(x, u.arg) for x in _split(u.fun.parts, r.part)]),
    "dist-left": lambda u, r, depth: merge_sum(
        [App(u.fun, x) for x in _split(u.arg.parts, r.part)]),
    "zero-fun": lambda u, r, depth: Zero,
    "zero-arg": lambda u, r, depth: Zero,
    "sum-zero": lambda u, r, depth: _split(u.parts, r.part)[1],
}


def step(t: Term, r: Redex) -> Term:
    """Canonical contractum of one redex.  Only the path from the redex
    to the root is rebuilt: a sum on it is re-flattened and re-sorted by
    its parts' cached keys, and every other subterm is shared with t."""
    return _checked_step(t, r, _TESTS, _RULES)


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


_UNSET = object()  # no pick kept yet; None is the pick of a normal form


def _pick(t: Term) -> Redex | None:
    """The redex of t, a subterm of a canonical term, that ``normalize``
    contracts next, or None when t has none: a rule other than beta before
    beta, then the deepest, then the leftmost, then by rule and part.

    Kept on t.  t picks from its own redexes and its children's picks:
    a child's pick is deeper than t's own redexes, so it loses to one of
    them only when it is a beta and t's is not.  So after a step only the
    new nodes on the step's path pick again."""
    best = getattr(t, "_pick", _UNSET)
    return _choose(t) if best is _UNSET else best


def _choose(t: Term) -> Redex | None:
    """The pick of t, which has none kept yet, kept on t."""
    best = None
    i = 0
    for c in t._kids():
        r = getattr(c, "_pick", _UNSET)
        if r is _UNSET:
            r = _choose(c)
        if r is not None:
            key = (r.rule == "beta", -len(r.path))
            # the leftmost child wins a tie, so only a strictly earlier
            # pick replaces the best so far
            if best is None or key < best_key:
                best, best_key, at = r, key, i
        i += 1
    if best is not None:
        best = Redex((at, *best.path), best.rule, best.part)
    test = _TESTS.get(t.__class__)
    if test is not None and (best is None or best.rule == "beta"):
        own: list[Redex] = []
        test(t, own)
        if own:
            first = min(own, key=lambda r: (r.rule == "beta", r.rule, r.part or 0))
            if best is None or first.rule != "beta":
                best = first
    t._pick = best
    return best


def normalize(t: Term, fuel: int = 10000) -> NormalizeResult:
    """Deterministic normalisation (innermost, non-beta rules first), at
    most fuel steps; exhausted when the term it stops at still has a
    redex.  Each step contracts the pick kept on the term (``_pick``), so
    a step computes only on the nodes it builds."""
    t = canonicalize(t)
    trace: list[TraceStep] = []
    while True:
        r = _pick(t)
        if r is None or len(trace) >= fuel:
            return NormalizeResult(t, tuple(trace), r is not None)
        u = mark_canonical(step_at(t, r, 0, _RULES))
        trace.append(TraceStep(r.rule, r.path, t, u))
        t = u


@dataclass(frozen=True)
class SnResult:
    # "terminates": max_depth is the longest reduction path;
    # "budget-exhausted": more than the budget of atoms was explored;
    # "cycle": an atom is met again among the summands of its own
    # reducts, a witness of an infinite reduction (cycle is then True);
    # "recursion-limit": the term or a path of its reduction graph is
    # too deep for the recursive search, so nothing was decided.
    # states counts the distinct atoms (summands that are not sums, each
    # at its binder depth, λs peeled off) that were explored
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


# The score of an atom p is the pair (z, n): the most steps of a reduction
# of p to normal form that leaves only zero summands, and of one that
# leaves some other summand.  Each counts one step per zero summand it
# leaves, the sum-zero step that removes it later; _NONE marks a kind of
# normal form p has no path to.  Keeping both kinds makes the rules exact
# without assuming that a term has one normal form.
_NONE = float("-inf")


def _combine(scores) -> tuple[float, float]:
    """The score of a sum from those of its summands, which reduce
    independently: all of them end as zeros, or at least one does not."""
    best = sum(max(s) for s in scores)
    return sum(s[0] for s in scores), best - min(max(s) - s[1] for s in scores)


def _longest(score) -> float:
    """The longest path of a term with this score: when only zeros are
    left, the last one stays."""
    z, n = score
    return max(z - 1, n)


def _root_split(p: Term, rs: list[Redex]) -> list[Term] | None:
    """The atoms x_i Y when the application p = F S, with redexes rs,
    has a factor X whose split may go first, Y being the other factor and
    neither being zero; else None.  Every path of p is then matched by
    one at least as long that first makes the |X| − 1 splits of X and
    ends in a normal form of the same kind, so p scores as the atoms
    x_i Y (each x_i in X's position) combined, plus those splits.

    * X is a redex-free sum: no step of p happens inside X.  A step that
      Y takes before X is split is taken once per copy of Y after it, and
      so is a zero-arg or zero-fun step once Y is zero; a split of a sum
      Y is matched too, since splitting both sums apart takes
      |X|·|Y| − 1 steps in either order.  So moving the splits of X to
      the front makes no path shorter.
    * X is a sum with no zero summand and Y is redex-free (and, as the
      first case did not apply, not a sum): the split copies no work,
      and each summand of X lands in exactly one copy.  A zero that X
      makes later costs one sum-zero step before the split, and a
      zero-arg or zero-fun step plus the sum-zero step after it."""
    if p.__class__ is not App:
        return None
    f, s = p.fun, p.arg
    if f is Zero or s is Zero:
        return None
    fsum, ssum = f.__class__ is Sum, s.__class__ is Sum
    if not (fsum or ssum):
        return None
    busy = {r.path[0] for r in rs if r.path}  # the factors with a redex
    if fsum and 0 not in busy:
        return [App(x, s) for x in f.parts]
    if ssum and 1 not in busy:
        return [App(f, x) for x in s.parts]
    if fsum and 1 not in busy and Zero not in f.parts:
        return [App(x, s) for x in f.parts]
    if ssum and 0 not in busy and Zero not in s.parts:
        return [App(f, x) for x in s.parts]
    return None


def _waiting_split(p: Term, rs: list[Redex]) -> Redex | None:
    """The one redex to step in p = f1 (f2 (… u)), with redexes rs,
    where every f_j is redex-free, not a sum and not zero and u is the
    first node down that argument spine that is not an f_j applied to an
    application: the split of G when u = G T with G a redex-free sum and
    T not zero, or of S when u = g S with g one more such function and S
    a sum with no zero summand; else None.

    No rule applies at a spine node above u (its function is no sum and
    no zero, its argument no value, sum or zero), nor inside an f_j, so a
    path of p is a path of u in a context that waits, until u changes at
    its root, and ``_root_split``'s argument at u puts the split first.
    The split leaves a sum with no zero summand as the argument of the
    f_j above u, which ``_root_split`` splits first in turn, up the
    spine, and each copy waits as p did.  Every order of these splits
    ends in the same atoms f1 (… (x_i Y)) after the same number of
    steps, so taking summand 0 first loses nothing, and p scores one
    more than that reduct.  The walk stops at a λ, since a function
    above it may copy the λ with its sum unsplit."""
    if p.__class__ is not App or p.arg.__class__ is not App:
        return None
    k, u = 0, p
    while u.fun.__class__ is not Sum and u.fun is not Zero and u.arg.__class__ is App:
        k, u = k + 1, u.arg
    g, a = u.fun, u.arg
    if g.__class__ is Sum and a is not Zero:
        rule = "dist-right"
    elif g is not Zero and a.__class__ is Sum and Zero not in a.parts:
        rule = "dist-left"
    else:
        return None
    if any(0 in r.path[:k + 1] for r in rs):
        return None  # a function down the spine, or u's, has a redex
    return Redex((1,) * k, rule, 0)


def check_sn(t: Term, budget: int = 100000) -> SnResult:
    """The longest reduction path of t, found one summand at a time.

    The summands of a sum reduce independently, so a sum's longest path
    combines theirs (``_combine``); λx.b is scored as b one binder deeper;
    an application with a factor whose split may go first is scored from
    the split parts (``_root_split``), and one that waits for such a split
    further down its argument spine from that one reduct
    (``_waiting_split``); any other atom is scored from its reducts, each
    stepped at the atom's own binder depth.  Scores are memoised per
    atom and depth, and at most ``budget`` atoms are explored.  An atom's
    redexes come from ``binders.redexes``, whose entries kept on the nodes
    let it test only the nodes that the step to the atom built."""
    memo: dict[tuple[Term, int], tuple[float, float]] = {}
    onstack: set[tuple[Term, int]] = set()
    seen = 0

    def term(u: Term, depth: int) -> tuple[float, float]:
        if u.__class__ is not Sum:
            return atom(u, depth)  # what _combine gives for one summand
        return _combine([atom(p, depth) for p in u.parts])

    def atom(p: Term, depth: int) -> tuple[float, float]:
        nonlocal seen
        if p is Zero:
            return 1, _NONE
        if p.__class__ is Abs:
            while p.__class__ is Abs:
                p, depth = p.body, depth + 1
            return _NONE, _longest(term(p, depth))
        key = (p, depth)
        score = memo.get(key)
        if score is not None:
            return score
        if key in onstack:
            raise _Abort(cycle=True)
        seen += 1
        if seen > budget:
            raise _Abort(cycle=False)
        onstack.add(key)
        rs = redexes(p, _TESTS)
        parts = _root_split(p, rs)
        if parts is not None:
            z, n = _combine([atom(q, depth) for q in parts])
            score = z + len(parts) - 1, n + len(parts) - 1
        elif (first := _waiting_split(p, rs)) is not None:
            z, n = atom(step_at(p, first, depth, _RULES), depth)
            score = z + 1, n + 1
        else:
            reducts = dict.fromkeys(step_at(p, r, depth, _RULES) for r in rs)
            scores = [term(u, depth) for u in reducts]
            if scores:
                score = max(s[0] for s in scores) + 1, max(s[1] for s in scores) + 1
            else:
                score = _NONE, 0  # a normal form other than zero
        onstack.discard(key)
        memo[key] = score
        return score

    try:
        d = _longest(term(canonicalize(t), 0))
    except _Abort as a:
        return SnResult("cycle" if a.cycle else "budget-exhausted", 0, seen, a.cycle)
    except RecursionError:
        return SnResult("recursion-limit", 0, seen, False)
    return SnResult("terminates", int(d), seen, False)
