"""Score the solver on the arena against its oracle, and write ``arena.txt``.

    python tools/arena.py

The arena is the family of ``tests/support.multi_equilibrium_economy``,
two consumers with three known equilibria, at l = 3 and 4 with seeds 0-71
and at l = 5 and 6 with seeds 0-11 (``tests/support.ARENA``).  Each
economy is solved by ``find_equilibria`` with its default configuration,
and its zeros are matched against those of ``scale_path_equilibria``, an
oracle that shares no code with the solver: a zero found and an oracle
zero match when no price differs by more than ``MATCH`` (1e-6).

``arena.txt``, beside this script, gets one line per economy: l, seed, the
oracle's zero count, the zeros found, the oracle zeros missed, the zeros
found that the oracle lacks (extra), the zeros labelled ``critical`` and
the report's ``index_check``.  An economy that a solve refuses
(``tests/support.arena_economies`` leaves it out) gives its refusal
message instead, and any other economy whose solve raises gives its error.
Then come the totals per l, and the count of plausible wrong answers:
reports whose ``index_check`` reads ``ok`` while they miss or add a zero.
The file holds no times, so a run on any machine writes the same file; the
solve and oracle times go to stderr.  A tier-1 test writes the file again
and compares it with the committed one, so a change to any count shows as
a diff of it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT / "tests")) if p not in sys.path]

from support import ARENA, arena_economies, multi_equilibrium_economy, scale_path_equilibria  # noqa: E402
from walraskit import find_equilibria  # noqa: E402

SCORECARD = Path(__file__).resolve().parent / "arena.txt"
MATCH = 1e-6
TOTALS = ("solved", "refused", "errors", "oracle zeros", "missed", "extra", "critical", "ok", "n/a", "MISMATCH")


def score(economy, seconds: Counter) -> tuple[str, Counter]:
    """The line of one economy that a solve accepts and its counts; the
    solve and oracle times are added to ``seconds``."""
    t0 = time.perf_counter()
    report = find_equilibria(economy)
    t1 = time.perf_counter()
    exact = scale_path_equilibria(economy)
    seconds["solve"] += t1 - t0
    seconds["oracle"] += time.perf_counter() - t1
    found = np.array([eq.price.coords for eq in report.equilibria]).reshape(-1, economy.goods)
    near = np.abs(found[:, None, :] - exact[None, :, :]).max(axis=2) <= MATCH
    counts = Counter({
        "solved": 1,
        "oracle zeros": len(exact),
        "missed": int((~near.any(axis=0)).sum()),
        "extra": int((~near.any(axis=1)).sum()),
        "critical": sum(eq.regularity == "critical" for eq in report.equilibria),
        report.index_check: 1,
    })
    line = (
        f"oracle {len(exact)}, found {len(found)}, missed {counts['missed']}, extra {counts['extra']}, "
        f"critical {counts['critical']}, index_check {report.index_check}"
    )
    return line, counts


def scorecard(seconds: Counter) -> list[str]:
    """The lines of ``arena.txt``; the solve and oracle times go to ``seconds``."""
    accepted = {(goods, seed): economy for goods, seed, economy in arena_economies()}
    lines, totals, wrong = [], {goods: Counter() for goods in ARENA}, 0
    for goods, seeds in ARENA.items():
        for seed in seeds:
            refused = (goods, seed) not in accepted
            try:
                economy = multi_equilibrium_economy(goods, seed) if refused else accepted[goods, seed]
                line, counts = score(economy, seconds)
            except ValueError as exc:
                line, counts = f"{'refused' if refused else 'error'}: {exc}", Counter()
                counts["refused" if refused else "errors"] = 1
            lines.append(f"l={goods} seed={seed}: {line}")
            totals[goods] += counts
            wrong += counts["ok"] == 1 and counts["missed"] + counts["extra"] > 0
    for goods, counts in totals.items():
        lines.append(f"totals l={goods}: " + ", ".join(f"{key} {counts[key]}" for key in TOTALS))
    lines.append(f"plausible wrong answers (index_check ok while a zero is missed or extra): {wrong}")
    return lines


def main() -> int:
    seconds = Counter()
    SCORECARD.write_text("\n".join(scorecard(seconds)) + "\n")
    print(f"wrote {SCORECARD}: solves {seconds['solve']:.1f} s, oracle {seconds['oracle']:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
