"""One pass of one benchmark workload, run in a fresh process.

    python3 perfbench/workloads.py --workload corpus-typing --seed 7 --scale full --trace 0

``--seed`` is a corpus seed from ``expected.json``'s pool (``run.py`` picks
it from the workload seed). The pass imports ``addlam`` from the checkout's
``src`` directory, builds its inputs, runs the workload, checks every
verdict against a known answer, and prints one JSON object on stdout.

Why each workload:

* ``corpus-typing``: the workbench's main use, checking the paper's
  theorems (subject reduction, translation typing, simulation, round trip,
  zero-summand isomorphism) over a seeded corpus. Its time goes to
  ``derivation``, ``structured``, ``translation`` and ``sysf`` and to the
  type canonicalisation they call on the same types again and again, so a
  canonical-form cache would hit here.
* ``sn-explore``: the strong-normalisation explorer on the corpus and on a
  scaling family where it blows up. Its time is in ``reduction`` and
  ``syntax``, every state is a new term, so caches miss; it calls nothing
  in ``derivation``, ``structured``, ``sysf`` or ``translation``.
* ``canon-algebra``: the algebra suites and print/parse round trips on
  random terms and types that never repeat: ``parser``, ``syntax`` and
  ``typesys`` with a cold cache, where a memo table pays insert cost and
  memory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pkgutil  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("corpus-typing", "sn-explore", "canon-algebra")
CORPUS_SUITES = ("sr", "trans-type", "trans-red", "roundtrip", "epsilon")

# Input sizes. "full" is what the benchmark measures; "tiny" is for the
# benchmark's self-test.
SIZES = {
    "full": {"corpus_count": 500, "sn_count": 300, "sn_budget": 500, "algebra_cases": 1000},
    "tiny": {"corpus_count": 40, "sn_count": 40, "sn_budget": 150, "algebra_cases": 40},
}

# Per-layer targets of a traced pass, as module.function inside addlam.
TRACED = (
    "corpus.generate_corpus",
    "structured.add_to_sadd", "structured.check_sadd", "structured.step_sadd_derivation",
    "derivation.check_add", "derivation.step_derivation",
    "reduction.enumerate_redexes", "reduction.check_sn", "reduction.normalize",
    "typesys.type_equiv", "typesys.type_canonicalize",
    "syntax.canonicalize",
    "parser.parse_term", "parser.parse_type",
    "translation.trans_term", "translation.simulate_step", "translation.round_trip",
    "translation.epsilon_derivations",
    "sysf.f_check", "sysf.f_reaches", "sysf.f_reducts", "sysf.f_canonicalize",
    "suites.run_suite",
)


def import_addlam():
    """Import every module of the package, ``cli`` included, from this
    checkout's source tree and never from an installed copy, so that a
    checkout without ``src`` fails."""
    sys.path.insert(0, str(SRC))
    import addlam

    for mod in pkgutil.iter_modules(addlam.__path__):
        importlib.import_module(f"addlam.{mod.name}")
    where = Path(addlam.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"addlam was imported from {where}, not from {SRC}")
    return addlam


@dataclass
class Outcome:
    checks: int = 0  # verdicts produced by the program and checked here
    inputs: int = 0  # inputs the program was asked to decide
    decided: int = 0  # inputs decided within the budget
    errors: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str):
        self.checks += 1
        if not ok:
            self.errors.append(what)


def load_expected(scale: str, workload: str, seed: int) -> dict:
    """Suite case counts recorded for this corpus seed."""
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    try:
        return table["cases"][scale][workload][str(seed)]
    except KeyError:
        raise SystemExit(f"no recorded answer for {workload} seed {seed} at scale {scale}")


def check_reports(out: Outcome, reports, expected: dict):
    """Every suite check passes, and each suite ran its recorded number of cases."""
    for rep in reports:
        out.checks += rep.cases
        out.inputs += rep.cases
        out.decided += rep.cases
        for f in rep.failures:
            out.errors.append(f"{rep.suite} {f.id} [{f.stage}]: {f.detail}")
        want = expected.get(rep.suite)
        out.expect(rep.cases == want, f"{rep.suite}: {rep.cases} cases, expected {want}")


# --- corpus-typing ------------------------------------------------------------------


def setup_corpus_typing(seed: int, size: dict):
    from addlam.corpus import generate_corpus

    return generate_corpus(seed, count=size["corpus_count"])


def run_corpus_typing(corpus, size: dict, expected: dict) -> Outcome:
    from addlam.suites import run_suite

    out = Outcome()
    check_reports(out, [run_suite(s, corpus) for s in CORPUS_SUITES], expected)
    return out


# --- sn-explore ---------------------------------------------------------------------

# The scaling family, with answers that follow from the rules and not from
# the explorer. I = \x.x, K = \y.\z.y and wide(n) = (I+K)(a1+...+an). Every
# reduction path of wide(n) makes 2n-1 distributivity splits and 2n betas,
# so its longest path and its normalisation both take 4n-1 steps, and its
# normal form is a1+...+an + \z.a1+...+\z.an. Nesting under lambdas changes
# neither number. chain(2) = (I+K)(wide(2)) has the normal form of (I+K)
# applied to each summand of wide(2)'s.
WIDE_SIZES = (2, 3, 4, 5)
NESTINGS = (5, 20)


def wide_steps(n: int) -> int:
    return 4 * n - 1


def _family():
    from addlam.syntax import Abs, App, Sum, Var

    ident = Abs("x", Var("x"))
    konst = Abs("y", Abs("z", Var("y")))
    ik = Sum((ident, konst))

    def wide(atoms):
        return App(ik, Sum(tuple(atoms)))

    def wide_nf(atoms):
        return Sum(tuple(atoms) + tuple(Abs("z", a) for a in atoms))

    def under(t, k):
        for i in range(k, 0, -1):
            t = Abs(f"x{i}", t)
        return t

    out = []  # (name, term, steps or None, normal form)
    for n in WIDE_SIZES:
        atoms = [Var(f"a{i}") for i in range(1, n + 1)]
        out.append((f"wide({n})", wide(atoms), wide_steps(n), wide_nf(atoms)))
    ab = [Var("a"), Var("b")]
    out.append(("chain(2)", App(ik, wide(ab)), None, wide_nf(wide_nf(ab).parts)))
    for k in NESTINGS:
        out.append((f"chain(1) under {k} lambdas", under(wide(ab), k), wide_steps(2),
                    under(wide_nf(ab), k)))
    return out


def setup_sn_explore(seed: int, size: dict):
    from addlam.corpus import generate_corpus

    return generate_corpus(seed, count=size["sn_count"]), _family()


def run_sn_explore(state, size: dict, expected: dict) -> Outcome:
    from addlam.corpus import OMEGA
    from addlam.reduction import check_sn, enumerate_redexes, normalize
    from addlam.suites import run_suite
    from addlam.syntax import canonicalize

    corpus, family = state
    budget = size["sn_budget"]
    out = Outcome()
    check_reports(out, [run_suite("sn", corpus)], expected)

    def explore(name, term, steps, nf):
        res = check_sn(term, budget)
        norm = normalize(term)
        out.inputs += 1
        decided = res.terminates or res.cycle
        out.decided += decided
        out.expect(not norm.exhausted and not enumerate_redexes(norm.term),
                   f"{name}: normalize did not reach a redex-free normal form")
        if res.terminates:
            out.expect(res.max_depth >= len(norm.steps),
                       f"{name}: longest path {res.max_depth} < normalisation {len(norm.steps)}")
        if steps is not None:
            out.expect(len(norm.steps) == steps, f"{name}: normalize took {len(norm.steps)} steps, not {steps}")
            if res.terminates:
                out.expect(res.max_depth == steps, f"{name}: longest path {res.max_depth}, not {steps}")
        if nf is not None:
            out.expect(norm.term == canonicalize(nf), f"{name}: wrong normal form")

    seen = set()
    for i, d in enumerate(corpus.derivations):
        if d.term not in seen:
            seen.add(d.term)
            explore(f"corpus term {i}", d.term, None, None)
    omega = check_sn(OMEGA, budget)
    out.inputs += 1
    out.decided += omega.cycle
    out.expect(omega.cycle and not omega.terminates, "OMEGA: no cycle reported")
    for name, term, steps, nf in family:
        explore(name, term, steps, nf)
    return out


# --- canon-algebra ------------------------------------------------------------------


def setup_canon_algebra(seed: int, size: dict):
    from addlam.corpus import Corpus, random_term, random_type

    rng = random.Random(f"{seed}-roundtrip")
    n = size["algebra_cases"]
    terms = [random_term(rng) for _ in range(n)]
    types = [random_type(rng) for _ in range(n)]
    return Corpus(seed, 20, (), ()), terms, types


def run_canon_algebra(state, size: dict, expected: dict) -> Outcome:
    from addlam.parser import parse_term, parse_type
    from addlam.suites import run_suite
    from addlam.syntax import canonicalize, show_term
    from addlam.typesys import show_type, type_equiv

    corpus, terms, types = state
    cases = size["algebra_cases"]
    out = Outcome()
    check_reports(out, [run_suite("ac", corpus, cases), run_suite("equiv", corpus, cases)], expected)
    for i, t in enumerate(terms):
        out.inputs += 1
        out.decided += 1
        out.expect(canonicalize(parse_term(show_term(t))) == canonicalize(t), f"term round trip {i}")
    for i, ty in enumerate(types):
        out.inputs += 1
        out.decided += 1
        out.expect(type_equiv(parse_type(show_type(ty)), ty), f"type round trip {i}")
    return out


SETUP = {"corpus-typing": setup_corpus_typing, "sn-explore": setup_sn_explore,
         "canon-algebra": setup_canon_algebra}
RUN = {"corpus-typing": run_corpus_typing, "sn-explore": run_sn_explore,
       "canon-algebra": run_canon_algebra}


# --- one pass ----------------------------------------------------------------------


def _tracer():
    from spans import Tracer

    counts = {"check_sn.states": 0, "normalize.steps": 0, "f_reaches.found": 0}

    def sn(res):
        counts["check_sn.states"] += res.states

    def norm(res):
        counts["normalize.steps"] += len(res.steps)

    def reach(path):
        counts["f_reaches.found"] += path is not None

    tracer = Tracer(TRACED, {"reduction.check_sn": sn, "reduction.normalize": norm,
                             "sysf.f_reaches": reach})
    return tracer, counts


def traced_metrics(tracer, counts) -> dict:
    """Per-layer metrics of a traced pass."""
    calls, self_s, total_s = tracer.summary()
    out = {}
    for name in TRACED:
        if name != "suites.run_suite":
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total_s[name]
        out[f"{name}.self_s"] = self_s[name]
    states = counts["check_sn.states"]
    out["reduction.check_sn.states"] = states
    out["reduction.check_sn.us_per_state"] = 1e6 * total_s["reduction.check_sn"] / states if states else 0.0
    out["reduction.normalize.steps"] = counts["normalize.steps"]
    reaches = calls["sysf.f_reaches"]
    out["sysf.f_reaches.found_ratio"] = counts["f_reaches.found"] / reaches if reaches else 0.0
    out["trace.wall_s"] = total_s["bench.run"]
    out["trace.bench_self_s"] = self_s["bench.run"] + self_s["bench.setup"]
    out["trace.spans"] = tracer.span_count
    return out


def run_pass(workload: str, seed: int, scale: str, trace: bool, spans_out: str | None = None) -> dict:
    """Set up and run one workload pass in this process. ``setup_s`` counts
    from this module's import, so it means import plus set-up only in a
    fresh process."""
    size = SIZES[scale]
    expected = load_expected(scale, workload, seed)
    import_addlam()
    tracer = counts = None
    if trace:
        tracer, counts = _tracer()
        tracer.install("addlam")

    def span(name):
        return nullcontext() if tracer is None else tracer.span(name)

    try:
        with span("bench.setup"):
            state = SETUP[workload](seed, size)
        t_setup = time.perf_counter()
        with span("bench.run"):
            outcome = RUN[workload](state, size, expected)
        t_end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    trace = None
    if tracer is not None:
        problems = tracer.problems()
        outcome.expect(not problems, f"trace: {'; '.join(problems)}")
        trace = traced_metrics(tracer, counts)
        if spans_out:
            tracer.write(spans_out)
    return {
        "workload": workload,
        "seed": seed,
        "python_hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "setup_s": t_setup - _T0,
        "wall_s": t_end - t_setup,
        "checks": outcome.checks,
        "inputs": outcome.inputs,
        "decided": outcome.decided,
        "errors": len(outcome.errors),
        "error_samples": outcome.errors[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": trace,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans-out", help="file for the traced pass's spans, one JSON line each")
    args = ap.parse_args(argv)
    print(json.dumps(run_pass(args.workload, args.seed, args.scale, bool(args.trace), args.spans_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
