"""Print what the workbench computes on a range of corpus seeds, one fact
a line, so that two checkouts can be compared with ``diff``.

    python tests/behaviour_dump.py --seeds 1-5 > before.txt

For each seed it prints:

* the JSON of all eight suites, without ``millis``;
* ``check_sn`` (status, depth) and ``normalize`` (normal form, steps) of
  every distinct corpus term;
* the type of every structured derivation and of every ``add_to_sadd``
  result (or the reason it fails);
* every node of every ``trans_term`` F-derivation, ``rev_term`` of its
  term, ``round_trip`` and ``equiv_coercion(T, T)``.

The first seed's corpus has 500 derivations and every other seed's 200;
the ``ac`` and ``equiv`` suites run 1000 cases.  This file is not a test:
pytest collects only ``test_*.py``.

Each line's first word names its section (``suite``, ``term``,
``add_to_sadd``, ``structured``, ``trans``, ``rev``, ``round_trip``,
``coercion``). ``--section NAME`` prints the ``# seed`` headers and the
lines of that section only, for diffing one section:

    python tests/behaviour_dump.py --seeds 1 --section trans | sha256sum

``tests/golden/behaviour.json`` holds the sha256 of that output for every
section of each seed of ``--seeds 1-5``, as ``digests`` computes it;
``test_behaviour_golden.py`` recomputes them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from addlam.corpus import generate_corpus  # noqa: E402
from addlam.reduction import check_sn, normalize  # noqa: E402
from addlam.structured import ConversionFailure, add_to_sadd  # noqa: E402
from addlam.suites import SUITES, run_suite  # noqa: E402
from addlam.sysf import show_ftype  # noqa: E402
from addlam.syntax import show_term  # noqa: E402
from addlam.translation import equiv_coercion, rev_term, round_trip, trans_term  # noqa: E402
from addlam.typesys import show_type  # noqa: E402


FIRST_COUNT, COUNT, CASES = 500, 200, 1000
SECTIONS = ("suite", "term", "add_to_sadd", "structured", "trans", "rev", "round_trip",
            "coercion")


def seed_list(spec: str) -> list[int]:
    """``1-5`` (or a single seed ``3``) as a list of seeds."""
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def f_nodes(d, path=()):
    """Every node of an F-derivation, premises after their conclusion."""
    inst = "" if d.inst_ty is None else f" inst {show_ftype(d.inst_ty)}"
    binder = "" if d.binder is None else f" binder {d.binder}"
    yield f"{'.'.join(map(str, path)) or 'e'} {d.describe()}{binder}{inst}"
    for i, p in enumerate(d.premises):
        yield from f_nodes(p, path + (i,))


def dump(seed: int, count: int):
    corpus = generate_corpus(seed, 20, count)
    yield f"# seed {seed} count {count}"
    for name in SUITES:
        rep = run_suite(name, corpus, cases=CASES).to_json()
        del rep["millis"]
        yield f"suite {json.dumps(rep, sort_keys=True)}"
    seen = set()
    for i, d in enumerate(corpus.derivations):
        if d.term not in seen:
            seen.add(d.term)
            sn = check_sn(d.term)
            nf = normalize(d.term)
            yield (f"term {show_term(d.term)}: sn {sn.status} {sn.max_depth}; "
                   f"normal {show_term(nf.term)} in {len(nf.steps)} exhausted {nf.exhausted}")
        try:
            shown = show_type(add_to_sadd(d).ty)
        except ConversionFailure as e:
            shown = f"ConversionFailure: {e}"
        yield f"add_to_sadd {i}: {shown}"
    for i, sd in enumerate(corpus.structured):
        yield f"structured {i}: {show_term(sd.term)} : {show_type(sd.ty)}"
        res = trans_term(sd)
        yield from (f"  trans {line}" for line in f_nodes(res.fderivation))
        back = rev_term(res.fterm)
        yield f"  rev {'undefined' if back is None else show_term(back)}"
        rt = round_trip(sd)
        yield f"  round_trip {rt.ok} {rt.detail}"
        yield from (f"  coercion {line}" for line in f_nodes(equiv_coercion(sd.ty, sd.ty)))


def section(line: str) -> str | None:
    """The section a dump line belongs to; None for a ``# seed`` header."""
    return None if line.startswith("#") else line.split(None, 1)[0]


def digests(seed: int, count: int) -> dict[str, str]:
    """The sha256 of each section's output, as ``--seeds <seed> --section
    NAME`` prints it for a first seed of the given count."""
    out = {name: [] for name in SECTIONS}
    header = None
    for line in dump(seed, count):
        kind = section(line)
        if kind is None:
            header = line
        else:
            out[kind].append(line)
    return {name: hashlib.sha256("".join(f"{x}\n" for x in [header, *lines]).encode()).hexdigest()
            for name, lines in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-5", help="seed range, e.g. 1-5")
    ap.add_argument("--section", choices=SECTIONS, help="print only this section's lines")
    args = ap.parse_args(argv)
    for k, seed in enumerate(seed_list(args.seeds)):
        for line in dump(seed, FIRST_COUNT if k == 0 else COUNT):
            if args.section is None or section(line) in (None, args.section):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
