"""The suites run exactly the number of cases the benchmark records for
small corpora (``perfbench/expected.json``, scale ``tiny``), and pass."""

import json
from pathlib import Path

import pytest

from addlam.corpus import generate_corpus
from addlam.suites import run_suite

TINY = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)["cases"]["tiny"]


@pytest.mark.parametrize("seed", range(1, 6))
def test_suites_run_the_recorded_number_of_cases(seed):
    want = {**TINY["corpus-typing"][str(seed)], **TINY["sn-explore"][str(seed)]}
    assert set(want) == {"sr", "trans-type", "trans-red", "roundtrip", "epsilon", "sn"}
    corpus = generate_corpus(seed, count=40)
    got = {}
    for name in want:
        report = run_suite(name, corpus)
        assert report.passed, report.render()
        got[name] = report.cases
    assert got == want
