"""Command-line interface: commands, formats, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

import addlam
from addlam.binders import canonical
from addlam.cli import main
from addlam.corpus import generate_corpus
from addlam.parser import parse_fterm, parse_ftype, parse_term, parse_type
from addlam.reduction import enumerate_redexes
from addlam.sysf import f_canonicalize
from addlam.syntax import canonicalize
from addlam.typesys import type_canonicalize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_pretty_prints(capsys):
    code, out, _ = run(capsys, "parse", r"(\x. x) (a+b)")
    assert code == 0
    assert out.strip() == r"(\x. x) (a + b)"


@pytest.mark.parametrize("kind, src, want", [
    ("term", r"(\b. b) (b + a) + zero", r"(\x. x) (a + b) + zero"),
    ("type", "Y + X + void", "X + Y"),
    ("type", "(forall A. A -> A) + B", "B + (forall X. X -> X)"),
    ("fterm", r"\f. \a. <f a, proj_l f>", r"\x. \y. <x y, proj_l x>"),
    ("ftype", "forall A. A -> A * 1", "forall X. X -> X * 1"),
])
def test_parse_prints_the_canonical_form_which_parses_back(capsys, kind, src, want):
    parse, canon = {"term": (parse_term, canonicalize), "type": (parse_type, type_canonicalize),
                    "fterm": (parse_fterm, f_canonicalize), "ftype": (parse_ftype, canonical)}[kind]
    code, out, _ = run(capsys, "parse", "--kind", kind, "--format", "json", src)
    assert code == 0 and json.loads(out) == {"kind": kind, "canonical": want}
    assert canon(parse(want)) == canon(parse(src))
    code, out, _ = run(capsys, "parse", "--kind", kind, want)
    assert code == 0 and out.strip() == want


def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "parse", "(a +")
    assert code == 2
    assert "parse error" in err


def test_reduce_prints_a_trace(capsys):
    code, out, _ = run(capsys, "reduce", r"(\x. x) y + zero")
    assert code == 0
    assert out.strip().splitlines()[-1] == "y"


def test_check_uses_the_context(capsys):
    code, out, _ = run(capsys, "check", "--ctx", "a: X", r"(\x: X. x) a")
    assert code == 0
    assert ": X" in out
    code, _, err = run(capsys, "check", r"(\x: X. x) a")
    assert code == 1


def test_check_reads_a_witness_over_two_generalised_variables(capsys):
    code, out, _ = run(
        capsys, "check", "--ctx", "a: X, b: Y",
        r"(gen Z. gen W. \x: Z. \y: W. x) a {Z | W -> Z | [X, Y] | Z, W}",
    )
    assert code == 0
    assert out.strip() == r"ok: (\x. \y. x) a : Y -> X"


def test_translate_emits_the_pair_calculus(capsys):
    code, out, _ = run(
        capsys, "translate", "--ctx", "a: X, b: X",
        r"(gen Z. \x: Z. x) (a + b) { Z | Z | [X], [X] | Z }",
    )
    assert code == 0
    assert "proj_l" in out and "X * X" in out


def test_fcheck_says_the_translation_checked(capsys):
    code, out, _ = run(capsys, "fcheck", "--ctx", "a: X, f: X -> X", "f a")
    assert code == 0 and out.strip() == "ok: f a : X"
    code, out, _ = run(capsys, "fcheck", "--ctx", "a: X, b: X", "--format", "json", "a + b")
    assert code == 0
    assert json.loads(out) == {"ok": True, "fterm": "<a, b>", "ftype": "X * X"}


def test_to_sadd_prints_the_rigid_sequent(capsys):
    code, out, _ = run(
        capsys, "to-sadd", "--ctx", "a: X, b: X",
        r"(gen Z. \x: Z. x) (a + b) { Z | Z | [X], [X] | Z }",
    )
    assert code == 0 and out.strip() == r"(\x. x) (a + b) : X + X"
    code, out, _ = run(capsys, "to-sadd", "--ctx", "a: X, b: X", "--format", "json", "a + b + zero")
    assert code == 0
    assert json.loads(out) == {"term": "a + b + zero", "type": "(X + X) + void"}


@pytest.mark.parametrize("ctx,src,message", [
    # the additive type X + void of the premise is the unit X; the rigid
    # one is a sum, which the structured rules refuse to quantify over
    ("a: X", r"gen Y. (\x: X. x) (a + zero) { X | X | [] | }",
     "generalisation over a non-unit type X + void"),
    ("f: forall Y. Y -> Y", "inst (f + zero) [X]",
     "instantiating a non-quantified type (forall X. X -> X) + void"),
])
def test_to_sadd_reports_the_structured_rule_that_refuses(capsys, ctx, src, message):
    code, out, err = run(capsys, "to-sadd", "--ctx", ctx, src)
    assert code == 1 and out == ""
    assert err.strip() == f"error: {message}"


def test_elaborate_prints_every_node_of_the_derivation(capsys):
    want = [
        "arrE: a: X, f: X -> X |- f a : X",
        "  ax: a: X, f: X -> X |- f : X -> X",
        "  ax: a: X, f: X -> X |- a : X",
    ]
    code, out, _ = run(capsys, "elaborate", "--ctx", "a: X, f: X -> X", "f a")
    assert code == 0 and out.splitlines() == want
    code, out, _ = run(capsys, "elaborate", "--ctx", "a: X, f: X -> X", "--format", "json", "f a")
    assert code == 0
    assert json.loads(out) == {"term": "f a", "type": "X", "derivation": "\n".join(want)}


def test_reverse_term_and_undefined(capsys):
    code, out, _ = run(capsys, "reverse", "<proj_l f u, proj_r f u>")
    assert code == 0 and out.strip() == "f u"
    code, out, _ = run(capsys, "reverse", "proj_l x")
    assert code == 0 and out.strip() == "undefined"


def test_reverse_a_type(capsys):
    code, out, _ = run(capsys, "reverse", "--kind", "type", "forall X. X -> X * 1")
    assert code == 0 and out.strip() == "forall X. X -> (X + void)"


def test_a_closed_output_pipe_exits_as_sigpipe_without_a_traceback():
    src = os.path.dirname(os.path.dirname(addlam.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    r, w = os.pipe()
    os.close(r)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "addlam.cli", "suite", "sn", "--count", "20"],
            stdout=w, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_suite_json_schema(capsys):
    code, out, _ = run(capsys, "suite", "ac", "--cases", "50", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"suite", "seed", "cases", "failures", "millis"}
    assert payload["suite"] == "ac" and payload["failures"] == []


def test_sn_suite_json_reports_its_budget(capsys):
    code, out, _ = run(capsys, "suite", "sn", "--count", "40", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    budget = payload["budget"]
    assert set(budget) == {"states", "states_max", "depth_max"}
    assert 0 < budget["states_max"] <= budget["states"]
    assert budget["depth_max"] > 0


@pytest.mark.parametrize("name", ["trans-red", "epsilon"])
def test_searching_suites_json_report_their_budget(capsys, name):
    code, out, _ = run(capsys, "suite", name, "--count", "100", "--format", "json")
    assert code == 0
    budget = json.loads(out)["budget"]
    assert set(budget) == {"expansions", "expansions_max", "exhausted"}
    assert 0 < budget["expansions_max"] <= budget["expansions"]
    assert budget["exhausted"] == 0
    code, out, _ = run(capsys, "suite", name, "--count", "100", "--budget", "1", "--format", "json")
    budget = json.loads(out)["budget"]
    assert code == 1 and budget["expansions_max"] == 1 and budget["exhausted"] > 0


def test_suite_json_counts_skipped_cases_by_reason(capsys):
    code, out, _ = run(capsys, "suite", "trans-red", "--count", "500", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cases"] == 349
    assert payload["skipped"] == {"sum-zero": 21, "rigid-type-change": 7}
    code, out, _ = run(capsys, "suite", "roundtrip", "--count", "500", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cases"] == 76 and payload["skipped"] == {"empty-elimination": 25}


def test_suite_json_counts_attempted_redexes_by_rule_and_context(capsys):
    code, out, _ = run(capsys, "suite", "sr", "--count", "500", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coverage"] == {
        "beta@root": 66, "beta@summand": 26, "dist-left@root": 280, "dist-left@summand": 88,
        "dist-right@root": 262, "dist-right@summand": 96, "sum-zero@root": 78,
        "zero-arg@root": 47, "zero-fun@root": 44,
    }
    # every redex of the corpus is attempted once, and checked once
    assert sum(payload["coverage"].values()) == payload["cases"] == 987
    code, out, _ = run(capsys, "suite", "trans-red", "--count", "500", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    structured = generate_corpus(1, count=500).structured
    attempted = sum(r.rule != "sum-zero" for sd in structured for r in enumerate_redexes(sd.term))
    assert sum(payload["coverage"].values()) == attempted == 181
    assert {k.split("@")[1] for k in payload["coverage"]} == {"root", "summand"}


def test_suite_respects_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("ADDLAM_SEED", "7")
    code, out, _ = run(capsys, "suite", "ac", "--cases", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_a_bad_seed_env_is_a_bad_argument_of_suite_alone(capsys, monkeypatch):
    monkeypatch.setenv("ADDLAM_SEED", "abc")
    code, out, _ = run(capsys, "parse", "x")
    assert code == 0 and out.strip() == "x"
    with pytest.raises(SystemExit) as e:
        main(["suite", "ac", "--cases", "10"])
    assert e.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err
    code, _, _ = run(capsys, "suite", "ac", "--cases", "10", "--seed", "3")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("check", "--fuel", "5", "--ctx", "a: X", r"(\x: X. x) a"),
    ("parse", "--seed", "2", "x"),
    ("translate", "--budget", "10", r"(\x: X. x) a"),
    ("suite", "ac", "--fuel", "5"),
])
def test_flags_nothing_reads_are_rejected(argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2


def test_suite_help_says_which_suites_read_budget_and_cases(capsys):
    with pytest.raises(SystemExit) as e:
        main(["suite", "--help"])
    assert e.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--budget BUDGET search bound of sn, trans-red and epsilon" in out
    assert "--cases CASES random cases drawn by ac and equiv" in out


def test_fuel_budget_and_seed_where_they_are_read(capsys):
    code, out, _ = run(capsys, "reduce", "--fuel", "3", r"(\x. x) y")
    assert code == 0 and out.strip().splitlines()[-1] == "y"
    code, _, _ = run(capsys, "suite", "ac", "--cases", "5", "--budget", "10", "--seed", "2")
    assert code == 0


def test_reduce_with_just_enough_fuel_reaches_the_normal_form(capsys):
    code, out, _ = run(capsys, "reduce", "--fuel", "1", r"(\x. x) a")
    assert code == 0
    assert out.strip().splitlines()[-1] == "a"
    code, out, _ = run(capsys, "reduce", "--fuel", "0", "a")
    assert code == 0 and out.strip() == "a"
    code, out, _ = run(capsys, "reduce", "--fuel", "0", r"(\x. x) a")
    assert code == 1 and out.strip().splitlines()[-1] == "(fuel exhausted)"


@pytest.mark.parametrize("fuel", ["-5", "x"])
def test_reduce_rejects_a_fuel_that_is_not_a_step_count(capsys, fuel):
    with pytest.raises(SystemExit) as e:
        main(["reduce", "--fuel", fuel, "a"])
    assert e.value.code == 2
    assert "fuel must be a number of steps" in capsys.readouterr().err


@pytest.mark.parametrize("argv, want", [
    (("parse", "_0"), "_0"),
    (("reduce", r"(\x.x) _1"), "_1"),
    (("check", "--ctx", "_0: X", "_0"), "ok: _0 : X"),
    (("reverse", r"\x. _0"), r"\x. _0"),
    (("parse", "--kind", "type", "forall X. _0 -> X"), "forall X. _0 -> X"),
], ids=["parse", "reduce", "check", "reverse", "parse-type"])
def test_a_name_of_the_old_positional_form_is_an_ordinary_name(capsys, argv, want):
    # canonical binders were once named _0, _1, ... and such names were
    # refused; bound variables are indices now, so no binder captures them
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.strip().splitlines()[-1] == want


@pytest.mark.parametrize("command", ["check", "elaborate", "to-sadd", "translate", "fcheck"])
def test_a_context_naming_a_variable_twice_is_a_parse_error(capsys, command):
    code, out, err = run(capsys, command, "--ctx", "a: X, b: X, a: Y", "a")
    assert code == 2 and out == ""
    assert err.strip() == "parse error: 1:13: variable a is already in the context"
    code, out, _ = run(capsys, command, "--ctx", "a: X, b: Y", "a")
    assert code == 0 and out


@pytest.mark.parametrize("flag", ["--cases", "--count", "--budget"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_suite_counts_must_be_positive(capsys, flag, value):
    with pytest.raises(SystemExit) as e:
        main(["suite", "sn", flag, value])
    assert e.value.code == 2
    assert f"argument {flag}: must be a positive number" in capsys.readouterr().err


def test_deep_input_ends_in_a_documented_error(capsys):
    code, out, err = run(capsys, "parse", "(" * 1000 + "x" + ")" * 1000)
    assert code == 3
    assert out == "" and err.strip() == "error: input nested too deeply"
