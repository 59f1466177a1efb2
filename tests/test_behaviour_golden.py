"""Same behaviour as a check: the behaviour dump of seeds 1 to 5, seed by
seed and section by section, against the sha256 digests in
``golden/behaviour.json``.  Seed 1 is dumped with a corpus of 500
derivations and every other seed with 200, as ``--seeds 1-5`` dumps them.

A change that means to move an output recomputes the golden in the same
commit (``behaviour_dump.digests``) and says which sections moved and why.
To see what moved, diff ``python tests/behaviour_dump.py --seeds N
--section NAME`` at the two commits (for a seed N other than 1, diff the
seed's part of ``--seeds 1-N``)."""

import json
from pathlib import Path

import pytest

import behaviour_dump

GOLDEN = Path(__file__).resolve().parent / "golden" / "behaviour.json"


def _moved(seed: int, count: int) -> list[str]:
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[str(seed)]
    got = behaviour_dump.digests(seed, count)
    return [name for name in behaviour_dump.SECTIONS if got[name] != want[name]]


def test_seed_1_dump_matches_the_golden():
    moved = _moved(1, behaviour_dump.FIRST_COUNT)
    assert not moved, f"seed 1: section {moved[0]!r} differs from the golden (all moved: {moved})"


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_seeds_2_to_5_dump_matches_the_golden(seed):
    moved = _moved(seed, behaviour_dump.COUNT)
    assert not moved, f"seed {seed}: section {moved[0]!r} differs from the golden (all moved: {moved})"
