"""Command-line front end: parsing, reduction, checking, elaboration,
conversion to the rigid system, translation, reversal, and the property
suites."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .binders import Context, canonical
from .corpus import generate_corpus
from .derivation import ElaborationError, RuleViolation, check_add, elaborate
from .parser import (
    ParseError,
    parse_aterm,
    parse_context,
    parse_fterm,
    parse_ftype,
    parse_term,
    parse_type,
)
from .reduction import normalize
from .structured import ConversionFailure, add_to_sadd, check_sadd
from .suites import SUITES, run_suite
from .sysf import f_canonicalize, f_check, show_fterm, show_ftype
from .syntax import show_term
from .translation import rev_term, rev_type, trans_term
from .typesys import show_type, type_canonicalize


def _read_input(args) -> str:
    if args.input is not None:
        return args.input
    return sys.stdin.read()


def _ctx(args) -> Context:
    return Context(tuple(parse_context(args.ctx or "")))


def _emit(args, text_lines: list[str], payload: dict):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


def _cmd_parse(args) -> int:
    src = _read_input(args)
    match args.kind:
        case "term":
            shown = show_term(parse_term(src))
        case "type":
            shown = show_type(type_canonicalize(parse_type(src)))
        case "fterm":
            shown = show_fterm(f_canonicalize(parse_fterm(src)))
        case _:
            shown = show_ftype(canonical(parse_ftype(src)))
    _emit(args, [shown], {"kind": args.kind, "canonical": shown})
    return 0


def _cmd_reduce(args) -> int:
    t = parse_term(_read_input(args))
    res = normalize(t, fuel=args.fuel)
    lines = [f"{str(s)}" for s in res.steps] + [show_term(res.term)]
    if res.exhausted:
        lines.append("(fuel exhausted)")
    _emit(args, lines, {
        "normal": not res.exhausted,
        "steps": len(res.steps),
        "result": show_term(res.term),
        "trace": [str(s) for s in res.steps],
    })
    return 1 if res.exhausted else 0


def _elaborated(args):
    a = parse_aterm(_read_input(args))
    d = elaborate(a, _ctx(args))
    check_add(d)
    return d


def _cmd_check(args) -> int:
    d = _elaborated(args)
    line = f"{show_term(d.term)} : {show_type(d.ty)}"
    _emit(args, ["ok: " + line], {"ok": True, "term": show_term(d.term), "type": show_type(d.ty)})
    return 0


def _derivation_lines(d, indent: str = ""):
    """One line per node, root first, premises indented under their
    conclusion."""
    yield indent + d.describe()
    for p in d.premises:
        yield from _derivation_lines(p, indent + "  ")


def _cmd_elaborate(args) -> int:
    d = _elaborated(args)
    lines = list(_derivation_lines(d))
    _emit(args, lines, {"term": show_term(d.term), "type": show_type(d.ty),
                        "derivation": "\n".join(lines)})
    return 0


def _cmd_to_sadd(args) -> int:
    sd = add_to_sadd(_elaborated(args))
    check_sadd(sd)
    line = f"{show_term(sd.term)} : {show_type(sd.ty)}"
    _emit(args, [line], {"term": show_term(sd.term), "type": show_type(sd.ty)})
    return 0


def _cmd_translate(args) -> int:
    """``translate``, and ``fcheck``, which also says that the check passed."""
    res = trans_term(add_to_sadd(_elaborated(args)))
    f_check(res.fderivation)
    payload = {"fterm": show_fterm(res.fterm), "ftype": show_ftype(res.ftype)}
    line = f"{payload['fterm']} : {payload['ftype']}"
    if args.command == "fcheck":
        line, payload["ok"] = "ok: " + line, True
    _emit(args, [line], payload)
    return 0


def _cmd_reverse(args) -> int:
    if args.kind == "type":
        rt = rev_type(parse_ftype(_read_input(args)))
        shown = None if rt is None else show_type(rt)
    else:
        r = rev_term(parse_fterm(_read_input(args)))
        shown = None if r is None else show_term(r)
    _emit(args, [shown if shown is not None else "undefined"],
          {"defined": shown is not None, "result": shown})
    return 0


def _cmd_suite(args) -> int:
    corpus = generate_corpus(args.seed, count=args.count)
    report = run_suite(args.name, corpus, cases=args.cases, budget=args.budget)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _count(least: int, what: str):
    """argparse type: a decimal number no less than least; what is the
    error's text."""

    def convert(text: str) -> int:
        if not (text.isascii() and text.isdigit() and int(text) >= least):
            raise argparse.ArgumentTypeError(f"{what}, not {text!r}")
        return int(text)

    return convert


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="addlam",
                                  description="workbench for a non-deterministic "
                                              "call-by-value calculus with sums")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, ctx=False, kind=None):
        p.add_argument("input", nargs="?", help="input text (defaults to stdin)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if ctx:
            p.add_argument("--ctx", default="", help="hypotheses, e.g. 'a: X, f: X -> X'")
        if kind:
            p.add_argument("--kind", choices=kind[0], default=kind[1])

    common(sub.add_parser("parse", help="parse and pretty-print"),
           kind=(("term", "type", "fterm", "ftype"), "term"))
    pr = sub.add_parser("reduce", help="normalize a term, printing the trace")
    common(pr)
    pr.add_argument("--fuel", type=_count(0, "fuel must be a number of steps"), default=10000)
    for name, help_ in (("check", "type-check an annotated term"),
                        ("elaborate", "print the full typing derivation"),
                        ("to-sadd", "convert the derivation to the rigid system"),
                        ("translate", "translate into the polymorphic pair calculus"),
                        ("fcheck", "re-check the translated derivation")):
        common(sub.add_parser(name, help=help_), ctx=True)
    common(sub.add_parser("reverse", help="reverse-translate a target term or type"),
           kind=(("term", "type"), "term"))

    ps = sub.add_parser("suite", help="run a property suite")
    ps.add_argument("name", choices=SUITES)
    ps.add_argument("--format", choices=("text", "json"), default="text")
    positive = _count(1, "must be a positive number")
    ps.add_argument("--budget", type=positive, default=None,
                    help="search bound of sn, trans-red and epsilon; the other suites ignore it")
    # a string default is converted like an argument, and only when suite
    # runs, so a bad ADDLAM_SEED is a bad argument of suite alone
    ps.add_argument("--seed", type=int, default=os.environ.get("ADDLAM_SEED", "1"))
    ps.add_argument("--cases", type=positive, default=10000,
                    help="random cases drawn by ac and equiv; the other suites ignore it")
    ps.add_argument("--count", type=positive, default=500,
                    help="additive derivations in the corpus, its 10 fixed ones included "
                         "(so at least 10); the structured part has max(60, COUNT // 5)")
    return top


_COMMANDS = {
    "parse": _cmd_parse,
    "reduce": _cmd_reduce,
    "check": _cmd_check,
    "elaborate": _cmd_elaborate,
    "to-sadd": _cmd_to_sadd,
    "translate": _cmd_translate,
    "fcheck": _cmd_translate,
    "reverse": _cmd_reverse,
    "suite": _cmd_suite,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: send what is left to nowhere, so the final
        # flush at exit cannot raise again, and exit as a shell reports a
        # process that SIGPIPE ended
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (RuleViolation, ConversionFailure, ElaborationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
