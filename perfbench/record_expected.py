"""Record the suite case counts that the benchmark checks its runs against.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json``: for each scale, workload and corpus seed
of the pool, the number of cases each suite runs. Run it only on the commit
whose answers are the reference, never to make a failing run pass. It
refuses to record unless every suite passes and seed 1 at count 500 gives
the counts that commit published (sr 987, trans-red 349, roundtrip 76,
epsilon 19).
"""

from __future__ import annotations

import json
import sys

from workloads import CORPUS_SUITES, EXPECTED, SIZES, import_addlam

POOL = list(range(1, 33))
PUBLISHED = {"sr": 987, "trans-red": 349, "roundtrip": 76, "epsilon": 19}


def cases(reports) -> dict:
    out = {}
    for rep in reports:
        if rep.failures:
            raise SystemExit(f"suite {rep.suite} seed {rep.seed} fails; nothing recorded")
        out[rep.suite] = rep.cases
    return out


def main() -> int:
    import_addlam()
    from addlam.corpus import Corpus, generate_corpus
    from addlam.suites import run_suite

    published = cases(run_suite(s, generate_corpus(1, count=500)) for s in PUBLISHED)
    if published != PUBLISHED:
        raise SystemExit(f"seed 1 at count 500 gives {published}, not {PUBLISHED}")

    table = {}
    for scale, size in SIZES.items():
        table[scale] = {"corpus-typing": {}, "sn-explore": {}, "canon-algebra": {}}
        for seed in POOL:
            corpus = generate_corpus(seed, count=size["corpus_count"])
            table[scale]["corpus-typing"][str(seed)] = cases(
                run_suite(s, corpus) for s in CORPUS_SUITES)
            corpus = generate_corpus(seed, count=size["sn_count"])
            table[scale]["sn-explore"][str(seed)] = cases([run_suite("sn", corpus)])
            corpus = Corpus(seed, 20, (), ())
            n = size["algebra_cases"]
            table[scale]["canon-algebra"][str(seed)] = cases(
                [run_suite("ac", corpus, n), run_suite("equiv", corpus, n)])
            print(scale, seed, file=sys.stderr, flush=True)
    EXPECTED.write_text(json.dumps({"pool": POOL, "cases": table}, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
