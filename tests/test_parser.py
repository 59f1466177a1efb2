"""Concrete syntax: precedence, round trips, and error positions."""

import random

import pytest

from addlam.corpus import random_term, random_type
from addlam.parser import (
    ParseError,
    parse_aterm,
    parse_context,
    parse_fterm,
    parse_ftype,
    parse_term,
    parse_type,
)
from addlam.syntax import Abs, App, Sum, Var, Zero, canonicalize, show_term
from addlam.sysf import FPair, FProjL, FVar, Star, show_fterm, show_ftype
from addlam.typesys import TArrow, TForall, TSum, TVar, show_type, type_canonicalize


def test_application_binds_tighter_than_sum():
    t = parse_term(r"\x. x + zero")
    assert t == Abs("x", Sum((Var("x"), Zero)))
    u = parse_term("f x + g y")
    assert u == Sum((App(Var("f"), Var("x")), App(Var("g"), Var("y"))))


def test_parenthesised_sum_as_function():
    t = parse_term("(t + u) s")
    assert t == App(Sum((Var("t"), Var("u"))), Var("s"))


def test_lambda_extends_to_the_right():
    t = parse_term(r"\x. f x x")
    assert t == Abs("x", App(App(Var("f"), Var("x")), Var("x")))


def test_quantifier_parses_over_the_whole_arrow():
    t = parse_type("forall X. X -> X")
    assert t == TForall("X", TArrow(TVar("X"), TVar("X")))


def test_arrow_binds_tighter_than_sum_and_associates_right():
    t = parse_type("X -> Y + Z")
    assert t == TSum((TArrow(TVar("X"), TVar("Y")), TVar("Z")))
    u = parse_type("X -> Y -> Z")
    assert u == TArrow(TVar("X"), TArrow(TVar("Y"), TVar("Z")))


def test_term_round_trip_on_random_terms():
    rng = random.Random(21)
    for _ in range(300):
        t = canonicalize(random_term(rng))
        assert canonicalize(parse_term(show_term(t))) == t


def test_type_round_trip_on_random_types():
    rng = random.Random(22)
    for _ in range(300):
        t = type_canonicalize(random_type(rng))
        assert type_canonicalize(parse_type(show_type(t))) == t


def test_annotated_terms_carry_witness_blocks():
    a = parse_aterm(r"(\x: X. x) (u + v) { X | X | [], [] | }")
    wit = a.wit
    assert wit is not None
    assert wit.u == TVar("X")
    assert wit.ts == (TVar("X"),)
    assert wit.vs == ((), ())
    b = parse_aterm(r"(gen Z. \x: Z. x) a { Z | Z | [X] | Z }")
    assert b.wit.xs == ("Z",)


def test_target_terms_with_pairs_and_projections():
    t = parse_fterm("<proj_l p, star>")
    assert t == FPair(FProjL(FVar("p")), Star)
    rt = parse_fterm(show_fterm(t))
    assert rt == t


def test_target_type_round_trip():
    for src in ("forall X. X * 1 -> X", "(A -> B) * C", "1"):
        t = parse_ftype(src)
        assert parse_ftype(show_ftype(t)) == t


def test_context_lists():
    ctx = parse_context("a: X, f: X -> X")
    assert ctx == [("a", TVar("X")), ("f", TArrow(TVar("X"), TVar("X")))]
    assert parse_context("") == []


def test_a_context_names_each_variable_once():
    with pytest.raises(ParseError) as e:
        parse_context("a: X,\n  f: X -> X, a: Y")
    assert (e.value.line, e.value.col) == (2, 14)
    assert e.value.message == "variable a is already in the context"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_term("(a +")
    assert e.value.line == 1 and e.value.col == 5
    with pytest.raises(ParseError) as e:
        parse_type("X ->\n-> Y")
    assert e.value.line == 2


def test_trailing_input_is_rejected():
    with pytest.raises(ParseError):
        parse_type("X ) Y")
