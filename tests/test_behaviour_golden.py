"""Same behaviour as a check: the seed-1 behaviour dump, section by
section, against the sha256 digests in ``golden/behaviour.json``.

A change that means to move an output recomputes the golden in the same
commit (``behaviour_dump.digests``) and says which sections moved and why.
To see what moved, diff ``python tests/behaviour_dump.py --seeds 1
--section NAME`` at the two commits."""

import json
from pathlib import Path

import behaviour_dump

GOLDEN = Path(__file__).resolve().parent / "golden" / "behaviour.json"


def test_seed_1_dump_matches_the_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))["1"]
    got = behaviour_dump.digests(1, behaviour_dump.FIRST_COUNT)
    moved = [name for name in behaviour_dump.SECTIONS if got[name] != want[name]]
    assert not moved, f"seed 1: section {moved[0]!r} differs from the golden (all moved: {moved})"
