"""``tools/ab.py`` times two trees in one process, at smoke size."""

import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = runpy.run_path(str(ROOT / "tools" / "ab.py"))


@pytest.mark.parametrize("pool", ["solve", "arena"])
def test_a_tree_against_itself(pool):
    src = ROOT / "src"
    result = AB["run"](src, src, pool, seed=1, rounds=2, smoke=True)
    assert (result["ops"], result["rounds"]) == (4, 2)
    assert result["base_ms_per_op"] > 0 and result["change_ms_per_op"] > 0
    q1, q3 = result["ratio_iqr"]
    assert 0 < q1 <= result["ratio_median"] <= q3
    lo, hi = result["ratio_ci95"]
    assert 0 < lo <= result["ratio_median"] <= hi
    assert 0 <= result["change_wins"] <= 2
    # One tree on both sides does the same work, op by op.
    for name in ("field_calls", "field_rows", "newton_iterations"):
        work = result[f"{name}_per_op"]
        assert work["base"] == work["change"]
        # The smoke solve pool has constant scales: the closed form calls no
        # field and takes no Newton step.
        assert (work["change"]["mean"] > 0) == (pool == "arena")


def test_the_two_trees_are_two_packages():
    clis = [AB["load"](ROOT / "src", name) for name in ("walraskit_ab_one", "walraskit_ab_two")]
    assert [cli.__name__ for cli in clis] == ["walraskit_ab_one.cli", "walraskit_ab_two.cli"]
    assert clis[0].find_equilibria is not clis[1].find_equilibria
    for name in ("walraskit_ab_one", "walraskit_ab_two"):
        for key in [k for k in sys.modules if k.split(".")[0] == name]:
            del sys.modules[key]


def test_a_commit_is_exported(tmp_path):
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True)
    if done.returncode != 0:
        pytest.skip("not a git checkout")
    src = AB["export"]("HEAD", tmp_path)
    assert (src / "walraskit" / "__init__.py").is_file()
    assert not (tmp_path / "tests").exists()


def test_base_and_aa_exclude_each_other(capsys):
    for argv in (["--pool", "solve"], ["--pool", "solve", "--aa", "--base", "HEAD"]):
        with pytest.raises(SystemExit) as exited:
            AB["main"](argv)
        assert exited.value.code == 2
    assert "give exactly one of --base and --aa" in capsys.readouterr().err


def test_the_interval_holds_the_median_and_repeats_for_a_seed():
    # 12 ops x 5 rounds of times (base, change), a change about 10% faster.
    rng = random.Random(3)
    times = [[(1e-3, rng.uniform(0.8e-3, 1.0e-3)) for _ in range(12)] for _ in range(5)]
    counts = ({kind: [0] * 12 for kind in ("calls", "rows", "iterations")},) * 2
    result = AB["summary"](times, counts, seed=7)
    lo, hi = result["ratio_ci95"]
    assert lo < result["ratio_median"] < hi
    assert 0.8 < lo and hi < 1.0
    assert AB["summary"](times, counts, seed=7)["ratio_ci95"] == [lo, hi]
    assert AB["interval"](times, 7) == [lo, hi]
    assert AB["interval"](times, 8) != [lo, hi]
