"""One core for the four binder languages: source terms, additive types,
and the terms and types of System F.

A language declares its node classes on a base class of its own that
derives from ``Node``.  Each node class lists its fields in ``__slots__``
and says what it is with one class keyword:

* ``var=True``: a variable, whose one field ``name`` is a string, or an
  int index in a canonical node;
* ``binds=V``: a binder of a variable of class ``V``, with the fields
  ``var`` (the bound name) and ``body`` (its scope);
* ``merge=f``: an AC sum, whose one field ``parts`` is a tuple of nodes;
  ``f`` merges canonical parts into the canonical sum, which is the
  language's own rule;
* none: a constructor whose fields are all nodes.  A class without fields
  is a constant; its one instance prints as the class name without the
  leading underscore.

From that declaration the base writes ``__init__``, ``__eq__``, ``__repr__``
and ``__match_args__`` once, when the class is created.  Nothing changes a
node once it is built, apart from its caches: its hash is computed once
from its children's cached hashes, and its sort key and repr are cached on
first use.  The hash and the sort key start with the class's position
among its language's classes, so a language fixes their order by the
order of its declarations.

In a canonical node a bound variable is an index, the number of binders
between it and its own counted from the inside (de Bruijn), a binder is
nameless (its ``var`` is ``""``) and free variables keep their names, so
a canonical subterm is canonical wherever it sits.  ``canonical`` marks
every node it returns and returns a marked node at once; a raw node where
its walk started keeps the form it found.  A node's free variables are
cached on it, so a walk that closes or opens a body passes over each
subterm that does not mention the binder.

The one printer, ``show``, walks a node of any language and reads the
concrete syntax from the language's table of forms.  It names an index by
the depth of its binder, with a fresh name from the language's letters, so
a canonical node prints as text its parser reads back.

The one reduction engine of both calculi is here too.  A calculus gives
two tables: ``tests`` maps a node class to the test that lists the
redexes at the root of a node of that class, and ``rules`` maps each rule
name to its contraction.  A redex is a ``Redex(path, rule, part)``;
``redexes`` lists them in the order of one left-to-right walk, ``step_at``
contracts one and rebuilds only the nodes above it, and ``step`` checks a
redex against its node's test first, raising ``StaleRedex`` for one the
term lacks.  The walk keeps on each node the redexes at its root, beside
the table they were found for, and on each node whose subterm has none
the table alone, and it never enters such a node again; so a walk after
a step tests only the nodes the step built, and one table never reads
another's entries.  A contraction builds only canonical nodes:
``instantiate`` opens a binder's body with an argument, shifting only a
subterm that has an index past its own root; ``body_path`` follows a path
under a binder back into the term its body was closed from.

``Context``, the typing context of every language, is defined here too,
and so is the one derivation kernel of the three type systems (additive,
structured and System F): a ``System`` maps each of its rules to the
rule's constructor, a ``DerivationNode`` holds one sequent with its
premises, and ``check_derivation`` accepts a node when its constructor
rebuilds it, raising ``RuleViolation`` at the node's path otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_ as _is
from typing import ClassVar

_VAR, _BINDER, _SUM, _NODE, _CONST = range(5)


def _define(cls, src: str):
    """Compile methods from source and attach them to cls."""
    scope = {}
    exec(src, {"cls": cls}, scope)
    for name, fn in scope.items():
        setattr(cls, name, fn)


class Node:
    __slots__ = ("_hash", "_key", "_repr", "_canonical", "_free")

    def __init_subclass__(cls, var=False, binds=None, merge=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if Node in cls.__bases__:
            cls._classes = 0  # a language's base: its node classes count from 0
            return
        fields = cls.__dict__.get("__slots__", ())
        tag = cls._classes
        cls.__base__._classes = tag + 1
        cls._tag = tag
        cls._var = binds
        cls._merge = staticmethod(merge) if merge else None
        cls.__match_args__ = fields
        if var:
            role, shape = _VAR, ("name",)
        elif binds is not None:
            role, shape = _BINDER, ("var", "body")
        elif merge is not None:
            role, shape = _SUM, ("parts",)
        else:
            role, shape = (_NODE if fields else _CONST), fields
        if fields != shape:
            raise TypeError(f"{cls.__name__} must have the fields {shape}, not {fields}")
        cls._role = role
        strings = ("name", "var") if role in (_VAR, _BINDER) else ()
        hashed = [f if f in strings else f"*[p._hash for p in {f}]" if role == _SUM
                  else f"{f}._hash" for f in fields]
        same = "".join(f" and self.{f} == other.{f}" for f in fields)
        shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
        shown = f"{cls.__name__}({shown})" if fields else cls.__name__.lstrip("_")
        kids = {_VAR: "()", _BINDER: "(self.body,)", _SUM: "self.parts"}.get(
            role, "(" + "".join(f"self.{f}, " for f in fields) + ")")
        _define(cls, f"def __init__(self, {', '.join(fields)}):\n"
                     + "".join(f"    self.{f} = {f}\n" for f in fields)
                     + f"    self._hash = hash(({tag}, {', '.join(hashed)}))\n"
                     f"    self._key = None\n"
                     f"    self._canonical = False\n"
                     f"    self._free = None\n"
                     f"def __eq__(self, other):\n"
                     f"    return self is other or (other.__class__ is cls\n"
                     f"        and self._hash == other._hash{same})\n"
                     f"def __repr__(self):\n"
                     f"    try:\n"
                     f"        return self._repr\n"
                     f"    except AttributeError:\n"
                     f"        r = self._repr = f\"{shown}\"\n"
                     f"        return r\n"
                     f"def _kids(self):\n"
                     f"    return {kids}\n")

    def __hash__(self) -> int:
        return self._hash


# --- names -------------------------------------------------------------------


def fresh_name(base: str, avoid) -> str:
    """base, or base followed by the least number that avoid lacks."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def free_vars(t: Node) -> frozenset:
    """The free variables of t: its free names and, when t is an open
    subterm of a canonical node, the indices that point past its root,
    counted from it.  Computed once and kept on t (one shared empty set
    for a closed node).  A binder binds its name and the index 0 of its
    body, named or not."""
    s = t._free
    if s is None:
        role = t._role
        if role == _VAR:
            s = frozenset((t.name,))
        elif role == _BINDER:
            s, x = free_vars(t.body), t.var
            if x in s or any(i.__class__ is int for i in s):
                s = frozenset([i - 1 if i.__class__ is int else i for i in s
                               if i != 0 and i != x])
        else:
            s = frozenset()
            for c in t._kids():
                f = free_vars(c)
                if not f <= s:
                    s = s | f if s else f
        t._free = s
    return s


# --- printing ------------------------------------------------------------------


def show(t: Node, forms: dict, letters: str) -> str:
    """t as text in its language's concrete syntax.  ``forms`` maps each
    node class of the language to its form, read by the class's role:

    * a variable: None; it prints as its name;
    * a constant: its text;
    * a binder: its keyword, printed before ``name. body``;
    * a sum: (level, separator, the parts' level);
    * any other node: (level, template, the children's levels), where the
      template has one ``{}`` for each child.

    A binder's level is 0.  A node is put in parentheses when the level
    of its context is above its own; a variable or a constant never is.
    A nameless binder prints as the first fresh name from ``letters`` at
    its binder depth: the letter for that depth, numbered when a name
    written in t (a free name or a named binder's) or an earlier display
    name holds it, so that neither captures the other; an index prints as
    its binder's name.  Each depth gets one display name, and every name
    prints as written.  A node of another language raises TypeError, and
    an index past the root of t raises ValueError."""
    used, todo = set(), [t]
    while todo:
        u = todo.pop()
        if u._role in (_VAR, _BINDER):
            used.add(u.var if u._role == _BINDER else u.name)
        todo.extend(u._kids())
    shown: dict[int, str] = {}

    def go(u: Node, level: int, names: tuple[str, ...]) -> str:
        # names: the display names of the binders above u, outermost first
        try:
            form = forms[u.__class__]
        except KeyError:
            raise TypeError(f"{kind(u)} is not a node of this language") from None
        role = u._role
        if role == _VAR:
            x = u.name
            if x.__class__ is not int:
                return x
            if x >= len(names):
                raise ValueError(f"index {x} points past the root of the printed node")
            return names[-1 - x]
        if role == _CONST:
            return form
        if role == _BINDER:
            nm = u.var
            if not nm:
                d = len(names)
                nm = shown.get(d)
                if nm is None:
                    nm = shown[d] = fresh_name(letters[d % len(letters)], used)
                    used.add(nm)
            s = f"{form}{nm}. {go(u.body, 0, (*names, nm))}"
            return f"({s})" if level > 0 else s
        if role == _SUM:
            own, sep, inner = form
            s = sep.join([go(p, inner, names) for p in u.parts])
        else:
            own, template, inner = form
            s = template.format(*[go(c, lv, names) for c, lv in zip(u._kids(), inner)])
        return f"({s})" if level > own else s

    return go(t, 0, ())


# --- typing contexts ----------------------------------------------------------


class Context:
    """Immutable map from term variables to types, sorted by name, for the
    source systems and System F alike; equal when the same names map to
    equal types."""

    __slots__ = ("_items",)

    def __init__(self, entries=()):
        d = dict(entries)
        self._items = tuple(sorted(d.items()))

    def get(self, name: str) -> Node | None:
        for k, v in self._items:
            if k == name:
                return v
        return None

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def extend(self, name: str, ty: Node) -> "Context":
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
            out |= free_vars(v)
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


# --- derivations -----------------------------------------------------------------


class RuleViolation(Exception):
    """A derivation node does not instantiate its rule schema."""

    def __init__(self, path: tuple[int, ...], message: str):
        self.path = path
        self.message = message
        at = ".".join(map(str, path)) or "root"
        super().__init__(f"at {at}: {message}")


def refuse(msg: str):
    """Reject the premises of a rule; the checker reports it at the node."""
    raise RuleViolation((), msg)


def var_name(t: Node) -> str:
    """The name of the variable t, the subject of an axiom."""
    if t._role != _VAR:
        raise ValueError(f"the axiom's subject, {kind(t)}, is not a variable")
    return t.name


class System:
    """A type system given as sequent rules ``ctx |- term : ty`` over the
    derivation nodes of one class.  A subclass supplies ``eq``, the
    equality of its types, and ``rules``, which maps each rule to (premise
    count, fields, build): the fields a node of that rule must carry
    besides its premises, and ``build(n, ctx, *premises)``, the rule's
    constructor applied to n's fields, the premises and, for an axiom, ctx.
    Each typing rule is defined once, by its constructor: a node is valid
    when its constructor rebuilds it (``check_derivation``)."""

    def __init__(self, cls: type):
        self.cls = cls
        cls.system = self  # so the kernel finds the system from a node

    def rebuild(self, n, premises, ctx: Context | None = None):
        """n built by its rule's constructor over premises, with ctx in
        place of n's context where the rule reads one (an axiom)."""
        return self.rules[n.rule][2](n, n.ctx if ctx is None else ctx, *premises)


@dataclass(frozen=True)
class DerivationNode:
    """One node of a typing derivation of the subclass's system: the
    conclusion ``ctx |- term : ty``, its premises and its rule's fields."""

    system: ClassVar[System]
    rule: str
    ctx: Context
    term: Node
    ty: Node
    premises: tuple = ()
    binder: str | None = None  # arrow introduction: term binder; generalisation: type binder
    inst_ty: Node | None = None  # instantiation
    # check_derivation sets _checked after the node and all its premises
    # passed (a constructor never does)
    _checked: bool = field(default=False, init=False, repr=False, compare=False)

    def describe(self) -> str:
        return f"{self.rule}: {self.ctx} |- {self.term} : {self.ty}"


def _check_node(d: DerivationNode, path: tuple[int, ...]):
    """d is valid when its rule's constructor rebuilds its conclusion
    from its premises and fields: the same context, the same term up to
    the renaming of bound variables (and the language's sum rule), and a
    type equal in d's system."""

    def bad(msg):
        raise RuleViolation(path, msg)

    system = d.system
    if d.rule not in system.rules:
        bad(f"unknown rule {d.rule!r}")
    arity, fields, _ = system.rules[d.rule]
    if len(d.premises) != arity:
        bad(f"{d.rule} takes {arity} premises, not {len(d.premises)}")
    for f in fields:
        if getattr(d, f) is None:
            bad(f"{d.rule} node lacks its {f}")
    try:
        want = system.rebuild(d, d.premises)
    except RuleViolation as e:
        bad(e.message)
    except ValueError as e:
        bad(str(e))
    if want.ctx != d.ctx:
        bad(f"context {d.ctx} is not the rule's {want.ctx}")
    # == costs O(1) when the terms share their children, as a rebuilt
    # conclusion does
    if not (want.term == d.term or canonical(want.term) == canonical(d.term)):
        bad(f"subject {d.term} is not the rule's {want.term}")
    if not system.eq(want.ty, d.ty):
        bad(f"type {d.ty} is not the rule's {want.ty}")


def check_derivation(d: DerivationNode, path: tuple[int, ...] = ()):
    """Validate every node of a derivation of any system; raises
    RuleViolation at the offending node.  A node that passed, premises
    included, is marked and not checked again, so a derivation that shares
    premises with a checked one costs only its new nodes."""
    if d._checked:
        return
    for i, p in enumerate(d.premises):
        check_derivation(p, path + (i,))
    _check_node(d, path)
    object.__setattr__(d, "_checked", True)


# --- order and canonical forms -----------------------------------------------


def sort_key(t: Node):
    """Structural key, ordered first by node class, then by the children's
    keys; binder names are left out.  An index sorts as the name ``_``
    and then outside-in, the order that the names of its binder's level
    would give.  Cached on the node, so only nodes built since the last
    sort compute theirs."""
    k = t._key
    if k is None:
        role = t._role
        if role == _VAR:
            x = t.name
            k = (t._tag, "_", -x) if x.__class__ is int else (t._tag, x)
        elif role == _BINDER:
            k = (t._tag, sort_key(t.body))
        elif role == _SUM:
            k = (t._tag, len(t.parts), tuple(map(sort_key, t.parts)))
        else:
            k = (t._tag, *map(sort_key, t._kids()))
        t._key = k
    return k


def _canon(t: Node, bound: tuple[str, ...]) -> Node:
    """The canonical form of t under binders named by bound, innermost
    first (``""`` for a nameless one): each name bound there becomes the
    index of its binder.  bound is () when no named binder is above t,
    since then no name in t is bound.  A node whose canonical form is
    itself comes back as it is, so only the nodes that change are built
    again, and every node returned is marked."""
    c = t._canonical
    if c is True:
        if not bound or free_vars(t).isdisjoint(bound):
            return t
    elif c and not bound:
        return c
    role = t._role
    if role == _VAR:
        x = t.name
        out = t.__class__(bound.index(x)) if x in bound else t
    elif role == _BINDER:
        x = t.var
        body = _canon(t.body, (x, *bound) if x or bound else ())
        out = t if not x and body is t.body else t.__class__("", body)
    elif role == _SUM:
        out = t._merge([_canon(p, bound) for p in t.parts])
    else:
        kids = t._kids()
        new = [_canon(c, bound) for c in kids]
        out = t if all(map(_is, new, kids)) else t.__class__(*new)
    out._canonical = True
    return out


def canonical(t: Node) -> Node:
    """The unique representative of t up to the renaming of bound
    variables and the language's sum rule.  Idempotent, and O(1) on a node
    it returned before, wherever that node sits, and on a raw node it was
    given before, which keeps its form; a node built from canonical nodes
    walks only what mentions a name that a binder of its own binds."""
    out = _canon(t, ())
    if not t._canonical:
        t._canonical = out  # a raw node keeps the form its walk produced
    return out


def alpha_eq(a: Node, b: Node) -> bool:
    """Equality up to the renaming of bound variables, names and indices
    alike.  Sums are compared part by part in order, so this is structural
    on raw sums."""
    if a == b:  # O(1) when they share their children
        return True

    def go(a, b, ea, eb):
        # ea, eb: the names of the binders above, innermost first, so a
        # name bound there stands for its position, as an index does
        if a.__class__ is not b.__class__:
            return False
        role = a._role
        if role == _VAR:
            x, y = a.name, b.name
            return (ea.index(x) if x in ea else x) == (eb.index(y) if y in eb else y)
        if role == _BINDER:
            return go(a.body, b.body, (a.var, *ea), (b.var, *eb))
        ka, kb = a._kids(), b._kids()
        return len(ka) == len(kb) and all(go(p, q, ea, eb) for p, q in zip(ka, kb))

    return go(a, b, (), ())


# --- reduction: rules at paths ------------------------------------------------


class StaleRedex(Exception):
    """The redex does not address a matching subterm of the given term."""


@dataclass(frozen=True, slots=True)
class Redex:
    """The rule named ``rule`` at ``path``; a rule that splits a sum names
    the summand it splits off as ``part``."""

    path: tuple[int, ...]
    rule: str
    part: int | None = None

    def __hash__(self) -> int:
        # hash(None) is the object's address on CPython before 3.12, so a
        # redex without a part would hash, and a set of redexes iterate,
        # differently in every process
        return hash((self.path, self.rule, -1 if self.part is None else self.part))


def kind(u: Node) -> str:
    """What u is, for a message; it names the node, not the subterm: an
    open subterm of a canonical node has indices that no binder of its
    own names, so it does not print."""
    return f"a {type(u).__name__.lstrip('_')} node"


def subterm_at(t: Node, path) -> Node:
    """The subterm of t at path, where i names the child i of a node as
    ``_kids`` lists them; raises StaleRedex when the path leaves t."""
    for i in path:
        kids = t._kids()
        if not (isinstance(i, int) and 0 <= i < len(kids)):
            raise StaleRedex(f"no child {i!r} in {kind(t)}")
        t = kids[i]
    return t


def redexes(t: Node, tests: dict) -> tuple[Redex, ...]:
    """The redexes of t, a subterm of a canonical term, in the order of
    one left-to-right walk; paths start at t.  ``tests`` is a calculus's
    table of where its rules fire: it maps a node class to the test
    ``test(u, out)`` that appends the redexes at the root of a node u of
    that class, each with the path ``()``, to out.  A class without a
    test has no redex at its root.

    The walk keeps on each node it tests an entry for the table: the
    table itself when the node's whole subterm has no redex, which the
    walk then passes over without going in, and else the pair of the
    table and the redexes at the node's root.  So a walk after a step
    tests only the nodes the step built and enters only subterms that
    hold a redex, and a table never reads what another table found: a
    node met with another table is tested again."""
    out: list[Redex] = []
    entry = getattr(t, "_redexes", None)
    if entry is not tests:
        _walk(t, entry, (), tests, out)
    return tuple(out)


def _walk(u: Node, entry, path: tuple[int, ...], tests: dict, out: list[Redex]):
    # entry, u's, is not the table alone, so u's subterm may hold a redex
    if entry.__class__ is tuple and entry[0] is tests:
        own = entry[1]
    else:
        test = tests.get(u.__class__)
        if test is None:
            own = ()
        else:
            found: list[Redex] = []
            test(u, found)
            own = tuple(found)
        entry = None
    start = len(out)
    if own:
        out.extend([Redex(path, r.rule, r.part) for r in own] if path else own)
    i = 0  # a counter: this loop is hot, and enumerate was no faster
    for c in u._kids():
        e = getattr(c, "_redexes", None)
        if e is not tests:
            _walk(c, e, path + (i,), tests, out)
        i += 1
    if entry is None:
        u._redexes = (tests, own) if len(out) > start else tests


def step_at(t: Node, r: Redex, rules: dict) -> Node:
    """t, canonical, with its redex r contracted by ``rules[r.rule](u, r)``,
    where u is the subterm at r's path: canonical, and marked so.  r must
    be a redex the walk finds in t, which ``step`` checks.  Only the nodes
    on the path are rebuilt: a sum there is merged again by its language's
    rule, and every other subterm is shared with t."""
    spine = []
    u = t
    for i in r.path:
        spine.append(u)
        u = u._kids()[i]
    new = rules[r.rule](u, r)
    for node, i in zip(reversed(spine), reversed(r.path)):
        role = node._role
        if role == _BINDER:
            new = node.__class__(node.var, new)
        elif role == _SUM:
            new = node._merge(node.parts[:i] + node.parts[i + 1:] + (new,))
        else:
            kids = list(node._kids())
            kids[i] = new
            new = node.__class__(*kids)
    new._canonical = True
    return new


def step(t: Node, r: Redex, tests: dict, rules: dict) -> Node:
    """The canonical contractum of the redex r of t, which is
    canonicalised first (O(1) when it already is), in the calculus with
    the tables ``tests`` and ``rules`` (see ``redexes`` and ``step_at``).
    Raises StaleRedex unless the test of the node at r's path finds r
    there: a path that leaves t, a rule of another calculus or no rule."""
    t = canonical(t)
    u = subterm_at(t, r.path)
    found: list[Redex] = []
    test = tests.get(u.__class__)
    if test is not None:
        test(u, found)
    if Redex((), r.rule, r.part) not in found:
        raise StaleRedex(f"{r!r} does not match {kind(u)}")
    return step_at(t, r, rules)


def instantiate(body: Node, v: Node) -> Node:
    """The canonical contractum of the redex (binder. body) v of a
    canonical node: body opened with v, canonical, for the index of its
    binder, and the sums that change merged again."""
    return _open(body, v, True)


def open_binder(t: Node, v: Node) -> Node:
    """The body of the binder node t with the closed v for the variable t
    binds: by name for a named binder, by index for a nameless one.  Sums
    keep their parts in order, as in ``subst``."""
    return subst(t.body, t.var, v) if t.var else _open(t.body, v, False)


def _open(body: Node, v: Node, merge: bool) -> Node:
    """body with v for the index of its binder and the indices past that
    binder lowered by one, as it is gone.  Under k binders of body, v's
    own indices past its root are raised by k; that keeps the order of
    every sum in v, since those indices stay above the ones bound inside."""
    def at(x, k):
        if x.name > k:
            return x.__class__(x.name - 1)
        return _reindex(v, 0, lambda y, c: y.__class__(y.name + k), False)

    return _reindex(body, 0, at, merge)


def _reindex(t: Node, k: int, at, merge: bool) -> Node:
    """t with ``at(x, k)`` for each variable x whose index is k or above,
    k counting the binders of t above x: x points past t's root.  Every
    subterm without such a variable is shared, and a sum with one is
    merged again when ``merge`` is set (a part's key changes where a
    variable becomes another term), else rebuilt in order."""
    if not any(i.__class__ is int and i >= k for i in free_vars(t)):
        return t
    role = t._role
    cls = t.__class__
    if role == _VAR:
        return at(t, k)
    if role == _BINDER:
        return cls(t.var, _reindex(t.body, k + 1, at, merge))
    kids = [_reindex(c, k, at, merge) for c in t._kids()]
    if role == _SUM:
        return t._merge(kids) if merge else cls(tuple(kids))
    return cls(*kids)


def body_path(t: Node, u: Node, x: str, path) -> tuple[int, ...]:
    """The path in u of the subterm at ``path`` in the body of t, where t
    is the canonical binder node built over u: u is canonical on its own,
    with the bound variable free under the name x.  t's body is u with x
    closed, and only a sum may order its parts differently under that, so
    at a sum the first part of u that closes to the path's part is taken.
    Closing shares every subterm of u that does not mention x, so below
    such a subterm no part is closed again."""
    a, bound, out = t.body, (x,), []
    for i in path:
        j = i
        if a._role == _SUM:
            parts = u.parts if a == u else [_canon(q, bound) for q in u.parts]
            j = parts.index(a.parts[i])
        elif a._role == _BINDER:
            bound = ("", *bound)
        out.append(j)
        a, u = a._kids()[i], u._kids()[j]
    return tuple(out)


# --- rebuilding ----------------------------------------------------------------


def rebuild(t: Node) -> Node:
    """An equal copy of t built from fresh nodes, which ``canonical`` has
    not marked, so canonicalising it runs the full walk."""
    role = t._role
    cls = t.__class__
    if role == _VAR:
        return cls(t.name)
    if role == _BINDER:
        return cls(t.var, rebuild(t.body))
    if role == _SUM:
        return cls(tuple(map(rebuild, t.parts)))
    if role == _NODE:
        return cls(*map(rebuild, t._kids()))
    return t


def subst(t: Node, x: str, v: Node) -> Node:
    """Capture-avoiding substitution of v for the free variable x.  Sums
    keep their parts in order; a binder is renamed, to the first fresh
    variant of its name, only when it would capture a free variable of v
    in a scope where x occurs."""
    return _subst(t, x, v, free_vars(v))


def _subst(t: Node, x: str, v: Node, fv: frozenset[str]) -> Node:
    role = t._role
    cls = t.__class__
    if role == _VAR:
        return v if t.name == x else t
    if role == _BINDER:
        y, b = t.var, t.body
        if y == x:
            return t
        if y in fv:
            fb = free_vars(b)
            if x not in fb:
                return t
            ny = fresh_name(y, fv | fb)
            b = _subst(b, y, cls._var(ny), frozenset((ny,)))
            y = ny
        return cls(y, _subst(b, x, v, fv))
    if role == _SUM:
        return cls(tuple(_subst(p, x, v, fv) for p in t.parts))
    if role == _NODE:
        return cls(*[_subst(c, x, v, fv) for c in t._kids()])
    return t
