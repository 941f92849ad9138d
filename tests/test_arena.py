"""``tools/arena.py``: the committed arena scorecard is the one the solver
writes today, so a change to any arena count reads as a failing diff."""

import runpy
from collections import Counter
from pathlib import Path

ARENA = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "arena.py"))


def test_the_committed_scorecard_is_current():
    lines = ARENA["scorecard"](Counter())
    assert lines == ARENA["SCORECARD"].read_text().splitlines()
    # No report reads ok while it misses or adds a zero.
    assert lines[-1].endswith(": 0")
