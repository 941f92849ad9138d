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
Then come the totals per l, one line per fixture (``FIXTURES``), and the
count of plausible wrong answers: reports whose ``index_check`` reads
``ok`` while they miss or add a zero, or while a fixture's answer is wrong.

A fixture is a chart field whose answer a closed form gives: its zeros,
which a found zero matches within the fixture's radius in chart
coordinates, or a continuum, given by the distance of a point to its zero
set, off which a found zero lies by more than that radius.  Its line gives the expected answer, the zeros found, the expected zeros missed
(for a finite answer), the zeros found off the expected set (extra), the
zeros labelled ``critical``, the report's finite flag and its
``index_check``.
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
from walraskit import chart_field, find_equilibria  # noqa: E402

SCORECARD = Path(__file__).resolve().parent / "arena.txt"
MATCH = 1e-6
TOTALS = ("solved", "refused", "errors", "oracle zeros", "missed", "extra", "critical", "ok", "n/a", "MISMATCH")
CUBIC = [-1.0, 0.0, 0.03, 0.002 - 1e-9]
# name: (goods, chart map, the chart rows of its zeros or, for a continuum,
# the distance of chart rows to its zero set, match radius).
FIXTURES = {
    # Two of its three zeros, 0.39994 and 0.40006, lie next to a fold.
    "near-fold": (2, lambda C: np.polyval(CUBIC, C - 0.5), np.sort(np.roots(CUBIC).real)[:, None] + 0.5, MATCH),
    # One zero of orders 5 and 3.  Every point within about (1e-11 sigma)^(1/5),
    # 5.8e-3, of it along c0 meets the Newton tolerance, so it is matched
    # within 6e-3.
    "quintic": (
        3,
        lambda C: np.column_stack([-((C[:, 0] - 0.2) ** 5), -((C[:, 1] - 0.2) ** 3)]),
        np.array([[0.2, 0.2]]),
        6e-3,
    ),
    # (f, 2 f): a curve of zeros that passes between the scan-grid points.
    "slanted-line": (
        3,
        lambda C: (0.4 - C[:, :1] - 0.7 * C[:, 1:]) * [1.0, 2.0],
        lambda C: np.abs(C @ [1.0, 0.7] - 0.4) / np.hypot(1.0, 0.7),
        MATCH,
    ),
    "circle": (
        3,
        lambda C: (0.15**2 - ((C - 0.3) ** 2).sum(axis=1, keepdims=True)) * [1.0, 2.0],
        lambda C: np.abs(np.linalg.norm(C - 0.3, axis=1) - 0.15),
        MATCH,
    ),
}


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


def fixture(name: str, seconds: Counter) -> tuple[str, bool]:
    """The line of fixture ``name`` and whether its report is a plausible
    wrong answer; the solve time is added to ``seconds``."""
    goods, chart_map, expected, radius = FIXTURES[name]
    t0 = time.perf_counter()
    report = find_equilibria(chart_field(chart_map, goods=goods))
    seconds["solve"] += time.perf_counter() - t0
    found = np.array([eq.chart for eq in report.equilibria]).reshape(-1, goods - 1)
    critical = sum(eq.regularity == "critical" for eq in report.equilibria)
    if callable(expected):
        answer, missed = "a continuum", ""
        extra = int((expected(found) > radius).sum())
        wrong = report.finite_flag or extra > 0
    else:
        near = np.abs(found[:, None, :] - expected[None, :, :]).max(axis=2) <= radius
        lost, extra = int((~near.any(axis=0)).sum()), int((~near.any(axis=1)).sum())
        answer, missed = f"{len(expected)} zero{'s' * (len(expected) > 1)}", f", missed {lost}"
        wrong = not report.finite_flag or len(found) != len(expected) or lost + extra > 0
    line = (
        f"fixture {name} l={goods}: expected {answer}, found {len(found)}{missed}, extra {extra}, "
        f"critical {critical}, finite {'yes' if report.finite_flag else 'NO'}, index_check {report.index_check}"
    )
    return line, report.index_check == "ok" and wrong


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
    for name in FIXTURES:
        line, plausible = fixture(name, seconds)
        lines.append(line)
        wrong += plausible
    lines.append(
        f"plausible wrong answers (index_check ok while a zero is missed or extra, or a fixture's answer is wrong): {wrong}"
    )
    return lines


def main() -> int:
    seconds = Counter()
    SCORECARD.write_text("\n".join(scorecard(seconds)) + "\n")
    print(f"wrote {SCORECARD}: solves {seconds['solve']:.1f} s, oracle {seconds['oracle']:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
