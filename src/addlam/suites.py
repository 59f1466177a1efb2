"""Property suites over a generated corpus: algebra of canonical forms,
type preservation, normalisation, translation typing, simulation of
reduction, round trips, and the zero-summand isomorphism."""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from .binders import Redex, free_vars, fresh_name, rebuild, subst, subterm_at
from .corpus import OMEGA, Corpus, random_term, random_type
from .derivation import UnsupportedDerivationShape, check_add, step_derivation
from .reduction import check_sn, enumerate_redexes
from .structured import ExcludedRule, check_sadd, fold_tree
from .syntax import Abs, App, Sum, Term, Var, canonicalize, show_term
from .sysf import (
    FApp,
    FProd,
    FUnit,
    f_canonicalize,
    f_check,
    f_reaches,
    f_reducts,
    f_type_alpha_eq,
    show_fterm,
)
from .translation import (
    epsilon_derivations,
    round_trip,
    simulate_step,
    trans_ctx,
    trans_term,
    trans_type,
)
from .typesys import (
    TArrow,
    TForall,
    TSum,
    TVar,
    TZero,
    raw_alpha_eq,
    show_type,
    type_canonicalize,
    type_equiv,
)

SUITES = ("ac", "equiv", "sr", "sn", "trans-type", "trans-red", "roundtrip", "epsilon")


def _context(t: Term, path: tuple[int, ...]) -> str:
    """Where the subterm of t at path sits: at the root, under a lambda,
    as the function or the argument of an application, or as a summand."""
    if not path:
        return "root"
    match subterm_at(t, path[:-1]):
        case Abs():
            return "lambda"
        case App():
            return "argument" if path[-1] else "function"
    return "summand"


@dataclass(frozen=True)
class Failure:
    id: str
    stage: str
    detail: str


@dataclass
class Report:
    suite: str
    seed: int
    cases: int = 0
    failures: list[Failure] = field(default_factory=list)
    millis: int = 0
    budget: dict | None = None  # what a suite that searches used of its budget
    skipped: dict[str, int] = field(default_factory=dict)  # cases left out, by reason
    coverage: dict[str, int] = field(default_factory=dict)  # redexes attempted, by rule@context

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, case_id: str, stage: str, ok: bool,
              detail: str | Callable[[], str] = ""):
        """Count one check, and record a failure when ok is false.  A
        detail that costs work to write (printing a term or a type) is
        given as a function of no arguments, called only on failure."""
        self.cases += 1
        if not ok:
            self.failures.append(Failure(case_id, stage, detail() if callable(detail) else detail))

    def skip(self, reason: str):
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    def cover(self, term: Term, r: Redex):
        """Count the redex r of the canonical term as attempted, under its
        rule and the context its path ends in."""
        key = f"{r.rule}@{_context(term, r.path)}"
        self.coverage[key] = self.coverage.get(key, 0) + 1

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "failures": [vars(f) for f in self.failures],
            "millis": self.millis,
        }
        if self.budget is not None:
            out["budget"] = self.budget
        if self.skipped:
            out["skipped"] = dict(self.skipped)
        if self.coverage:
            out["coverage"] = dict(self.coverage)
        return out

    def render(self) -> str:
        lines = [f"suite {self.suite}: {self.cases} cases, {len(self.failures)} failures, {self.millis} ms"]
        for f in self.failures[:20]:
            lines.append(f"  FAIL {f.id} [{f.stage}]: {f.detail}")
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


def _shuffle_sums(t, rng: random.Random):
    """t, a term or a type, with the parts of every sum shuffled, inner
    sums first."""
    match t:
        case Sum(ps) | TSum(ps):
            parts = [_shuffle_sums(p, rng) for p in ps]
            rng.shuffle(parts)
            return type(t)(tuple(parts))
        case Abs(x, b) | TForall(x, b):
            return type(t)(x, _shuffle_sums(b, rng))
        case App(f, a) | TArrow(f, a):
            return type(t)(_shuffle_sums(f, rng), _shuffle_sums(a, rng))
        case _:
            return t


def _rename_binders(t: Term, rng: random.Random) -> Term:
    match t:
        case Abs(x, b):
            nx = fresh_name(f"v{rng.randrange(10000)}", free_vars(b) | {x})
            return Abs(nx, _rename_binders(subst(b, x, Var(nx)), rng))
        case App(f, a):
            return App(_rename_binders(f, rng), _rename_binders(a, rng))
        case Sum(ps):
            return Sum(tuple(_rename_binders(p, rng) for p in ps))
        case _:
            return t


def _suite_ac(corpus: Corpus, report: Report, cases: int, **_):
    rng = random.Random(f"{corpus.seed}-ac")
    for i in range(cases):
        t = random_term(rng)
        c = canonicalize(t)
        shown = partial(show_term, t)
        report.check(f"ac-{i}", "idempotence", canonicalize(rebuild(c)) == c, shown)
        report.check(f"ac-{i}", "permutation", canonicalize(_shuffle_sums(t, rng)) == c, shown)
        report.check(f"ac-{i}", "alpha", canonicalize(_rename_binders(t, rng)) == c, shown)
        # congruence: equal canonical forms stay equal in any surrounding term
        u = random_term(rng, 2)
        wrapped1 = canonicalize(App(Abs("q", u), Sum((t, u))))
        wrapped2 = canonicalize(App(Abs("q", u), Sum((_shuffle_sums(t, rng), u))))
        report.check(f"ac-{i}", "congruence", wrapped1 == wrapped2, shown)


def _suite_equiv(corpus: Corpus, report: Report, cases: int, **_):
    rng = random.Random(f"{corpus.seed}-equiv")
    for i in range(cases):
        t = random_type(rng)
        c = type_canonicalize(t)
        shown = partial(show_type, t)
        report.check(f"equiv-{i}", "idempotence", type_canonicalize(rebuild(c)) == c, shown)
        report.check(
            f"equiv-{i}", "permutation", type_canonicalize(_shuffle_sums(t, rng)) == c, shown)
        report.check(f"equiv-{i}", "zero-unit", type_equiv(TSum((t, TZero)), t), shown)
        af, bf = TForall("A", TArrow(TVar("A"), t)), TForall("B", TArrow(TVar("B"), t))
        report.check(f"equiv-{i}", "alpha", type_equiv(af, bf), shown)
        # congruence: equivalence is preserved under arrow and sum contexts
        shuffled = _shuffle_sums(t, rng)
        report.check(
            f"equiv-{i}", "congruence",
            type_equiv(TArrow(TVar("X"), TSum((t, TVar("Y")))),
                       TArrow(TVar("X"), TSum((TVar("Y"), shuffled)))),
            shown,
        )


def _suite_sr(corpus: Corpus, report: Report, cases: int, **_):
    for i, d in enumerate(corpus.derivations):
        term = canonicalize(d.term)
        for r in sorted(enumerate_redexes(term), key=repr):
            report.cover(term, r)
            cid = f"sr-{i}-{r.rule}{r.path}-{r.part}"
            try:
                d2 = step_derivation(d, r)
            except Exception as e:  # noqa: BLE001 - reported, not raised
                report.check(cid, "step", False, f"{type(e).__name__}: {e}")
                continue
            try:
                check_add(d2)
            except Exception as e:  # noqa: BLE001
                report.check(cid, "recheck", False, f"{type(e).__name__}: {e}")
                continue
            report.check(
                cid, "type-preserved", type_equiv(d2.ty, d.ty),
                lambda: f"{show_type(d2.ty)} vs {show_type(d.ty)}",
            )


def _suite_sn(corpus: Corpus, report: Report, cases: int, budget: int = 100000, **_):
    seen = set()
    results = []
    for i, d in enumerate(corpus.derivations):
        if d.term in seen:
            continue
        seen.add(d.term)
        res = check_sn(d.term, budget)
        results.append(res)
        report.check(
            f"sn-{i}", "finite", res.terminates,
            lambda: f"{show_term(d.term)}: {res.status}",
        )
    omega = check_sn(OMEGA, budget)
    results.append(omega)
    report.check("sn-omega", "divergent-control", omega.cycle,
                 f"the untyped self-application control should reduce to itself: {omega.status}")
    report.budget = {
        "states": sum(r.states for r in results),
        "states_max": max(r.states for r in results),
        "depth_max": max(r.max_depth for r in results),
    }


def _search_budget(log: list[tuple[int, bool]]) -> dict:
    """What the F-searches of a suite used of their budget, from the log
    ``f_reaches`` keeps: terms expanded in all and at most in one search,
    and the searches that stopped at the budget without a path."""
    return {
        "expansions": sum(n for n, _ in log),
        "expansions_max": max((n for n, _ in log), default=0),
        "exhausted": sum(hit for _, hit in log),
    }


def _suite_trans_type(corpus: Corpus, report: Report, cases: int, **_):
    for i, sd in enumerate(corpus.structured):
        cid = f"tt-{i}"
        try:
            res = trans_term(sd)
            f_check(res.fderivation)
        except Exception as e:  # noqa: BLE001
            report.check(cid, "translate", False, f"{type(e).__name__}: {e}")
            continue
        report.check(cid, "type", f_type_alpha_eq(res.ftype, trans_type(sd.ty)),
                     lambda: show_type(sd.ty))
        report.check(cid, "context", res.fderivation.ctx == trans_ctx(sd.ctx),
                     lambda: show_term(sd.term))
        # translation commutes with reading the type as a tree of products
        relabelled = fold_tree(sd.ty, lambda _, u: trans_type(u), FUnit, FProd)
        report.check(cid, "tree-label", f_type_alpha_eq(relabelled, trans_type(sd.ty)),
                     lambda: show_type(sd.ty))


def _suite_trans_red(corpus: Corpus, report: Report, cases: int, budget: int = 10000, **_):
    log = []
    for i, sd in enumerate(corpus.structured):
        term = canonicalize(sd.term)
        for r in sorted(enumerate_redexes(term), key=repr):
            if r.rule == "sum-zero":
                report.skip("sum-zero")
                continue
            report.cover(term, r)
            cid = f"tr-{i}-{r.rule}{r.path}-{r.part}"
            try:
                sim = simulate_step(sd, r, budget, log)
                check_sadd(sim.derivation)
            except ExcludedRule:
                report.skip("excluded-rule")
                continue
            except UnsupportedDerivationShape:
                # the reduct cannot be typed at the same rigid type; these
                # steps are the ones mediated by the isomorphism terms
                report.skip("rigid-type-change")
                continue
            except Exception as e:  # noqa: BLE001
                report.check(cid, "step", False, f"{type(e).__name__}: {e}")
                continue
            if not sim.found:
                report.check(cid, "path", False,
                             lambda: f"no path {show_fterm(sim.source.fterm)} ->* "
                                     f"{show_fterm(sim.target.fterm)}")
                continue
            ok = sim.path[0] == f_canonicalize(sim.source.fterm)
            ok = ok and sim.path[-1] == f_canonicalize(sim.target.fterm)
            for a, b in zip(sim.path, sim.path[1:]):
                ok = ok and b in f_reducts(a)
            report.check(cid, "path", ok, lambda: show_term(sd.term))
            report.check(cid, "type-preserved", raw_alpha_eq(sim.derivation.ty, sd.ty),
                         lambda: show_type(sd.ty))
    report.check("tr-corpus", "has-cases", report.cases > 0,
                 "no redex of the corpus could be simulated")
    report.budget = _search_budget(log)


def _has_empty_elim(sd) -> bool:
    """An elimination over an empty sum: the translation of such an
    application collapses to the unit and cannot be read back."""
    if sd.rule == "arrE" and (not sd.arr_ts or not sd.arr_vs):
        return True
    return any(_has_empty_elim(p) for p in sd.premises)


def _suite_roundtrip(corpus: Corpus, report: Report, cases: int, **_):
    for i, sd in enumerate(corpus.structured):
        if _has_empty_elim(sd):
            report.skip("empty-elimination")
            continue
        rt = round_trip(sd)
        report.check(f"rt-{i}", "roundtrip", rt.ok, lambda: rt.detail or show_term(sd.term))
    report.check("rt-corpus", "has-cases", report.cases > 0,
                 "no derivation of the corpus was reversible")


def _suite_epsilon(corpus: Corpus, report: Report, cases: int, budget: int = 10000, **_):
    n = 0
    log = []
    for i, sd in enumerate(corpus.structured):
        if sd.rule != "plusI" or sd.premises[1].rule != "ax0":
            continue
        n += 1
        cid = f"eps-{i}"
        try:
            whole = trans_term(sd)
            inner = trans_term(sd.premises[0])
            down, _up = epsilon_derivations(sd.premises[0].ty, trans_ctx(sd.ctx))
            f_check(down)
        except Exception as e:  # noqa: BLE001
            report.check(cid, "translate", False, f"{type(e).__name__}: {e}")
            continue
        path = f_reaches(FApp(down.term, whole.fterm), inner.fterm, budget, log)
        report.check(cid, "reduces", path is not None and len(path) >= 2,
                     lambda: show_term(sd.term))
    report.check("eps-corpus", "has-cases", n > 0,
                 "the corpus should contain zero-summand sums")
    report.budget = _search_budget(log)


_RUNNERS = {
    "ac": _suite_ac,
    "equiv": _suite_equiv,
    "sr": _suite_sr,
    "sn": _suite_sn,
    "trans-type": _suite_trans_type,
    "trans-red": _suite_trans_red,
    "roundtrip": _suite_roundtrip,
    "epsilon": _suite_epsilon,
}


def run_suite(name: str, corpus: Corpus, cases: int = 10000, budget: int | None = None) -> Report:
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    report = Report(name, corpus.seed)
    start = time.monotonic()
    kwargs = {} if budget is None else {"budget": budget}
    _RUNNERS[name](corpus, report, cases, **kwargs)
    report.millis = int((time.monotonic() - start) * 1000)
    return report
