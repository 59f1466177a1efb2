"""A suite writes the detail of a check only when the check fails, and a
failure's detail is the text the suites have always recorded."""

import random

import addlam.suites as suites
from addlam.corpus import Corpus, generate_corpus, random_term, random_type
from addlam.derivation import step_derivation
from addlam.reduction import enumerate_redexes
from addlam.suites import Report, run_suite
from addlam.syntax import Zero, show_term
from addlam.typesys import show_type


def test_a_callable_detail_is_called_only_on_failure():
    calls = []

    def detail():
        calls.append(1)
        return "the detail"

    report = Report("ac", 1)
    report.check("c-0", "stage", True, detail)
    assert calls == [] and report.failures == []
    report.check("c-1", "stage", False, detail)
    report.check("c-2", "stage", False, "plain text")
    assert calls == [1] and report.cases == 3
    assert [f.detail for f in report.failures] == ["the detail", "plain text"]


def test_a_failed_ac_case_records_the_term(monkeypatch):
    real = suites.canonicalize
    seen = []

    def second_call_fails(t):
        seen.append(t)
        return Zero if len(seen) == 2 else real(t)  # the idempotence check of case 0

    monkeypatch.setattr(suites, "canonicalize", second_call_fails)
    report = run_suite("ac", Corpus(1, 20, (), ()), cases=1)
    t = random_term(random.Random("1-ac"))
    assert [(f.id, f.stage) for f in report.failures] == [("ac-0", "idempotence")]
    assert report.failures[0].detail == show_term(t)


def test_a_failed_equiv_case_records_the_type(monkeypatch):
    monkeypatch.setattr(suites, "type_equiv", lambda a, b: False)
    report = run_suite("equiv", Corpus(1, 20, (), ()), cases=1)
    t = random_type(random.Random("1-equiv"))
    assert [f.stage for f in report.failures] == ["zero-unit", "alpha", "congruence"]
    assert {f.detail for f in report.failures} == {show_type(t)}


def test_a_failed_sr_case_records_both_types(monkeypatch):
    real = suites.type_equiv
    calls = []

    def first_call_fails(a, b):
        calls.append(1)
        return len(calls) > 1 and real(a, b)

    monkeypatch.setattr(suites, "type_equiv", first_call_fails)
    corpus = generate_corpus(1, count=20)
    report = run_suite("sr", corpus)
    i, d = next((i, d) for i, d in enumerate(corpus.derivations) if enumerate_redexes(d.term))
    r = sorted(enumerate_redexes(d.term), key=repr)[0]
    d2 = step_derivation(d, r)
    assert [(f.id, f.stage) for f in report.failures] == [
        (f"sr-{i}-{r.rule}{r.path}-{r.part}", "type-preserved")]
    assert report.failures[0].detail == f"{show_type(d2.ty)} vs {show_type(d.ty)}"
