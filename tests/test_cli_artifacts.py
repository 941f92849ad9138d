"""``tools/cli_artifacts.py --compare`` tells numeric drift from changed answers."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_artifacts.py"

CSV = "p1,p2,residual,regularity,index,multiplicity\n0.5,0.5,{res},{reg},{index},\n"
REPORT = (
    "solve: solve/economy0.yaml\n"
    "equilibria found: 1\n"
    "  p = ({p}, 0.5)  residual = {res}  {reg}  index = {index}  multiplicity = -\n"
    "finite equilibrium set: yes\n"
    "solver: 50 starts, 50 converged, 0 stalled, 0 exhausted, {its} Newton iterations, 49 dedup merges\n"
)


def write_tree(root: Path, p="0.5", res="1e-16", reg="regular", index="1", its=120, trial="0,ok"):
    out = root / "solve" / "out0"
    out.mkdir(parents=True)
    (out / "equilibria.csv").write_text(CSV.format(res=res, reg=reg, index=index))
    (out / "report.txt").write_text(REPORT.format(p=p, res=res, reg=reg, index=f"+{index}", its=its))
    experiment = root / "experiment" / "out0"
    experiment.mkdir(parents=True)
    (experiment / "experiment.csv").write_text(f"trial,index_check\n{trial}\n")
    audit = root / "extra" / "economy0" / "audit"
    audit.mkdir(parents=True)
    (audit / "report.txt").write_text("audit result: PASS\n")


def compare(old, new):
    return subprocess.run(
        [sys.executable, str(TOOL), "--compare", str(old), str(new)], capture_output=True, text=True
    )


def test_numeric_drift_is_measured_and_passes(tmp_path):
    write_tree(tmp_path / "old")
    write_tree(tmp_path / "new", p="0.50000000000000011", res="3e-16", its=51)
    (tmp_path / "new/extra/economy0/audit/report.txt").write_text("audit result: FAIL\n")
    done = compare(tmp_path / "old", tmp_path / "new")
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    assert lines[0] == "files: 4, differing: 3"
    assert "largest price change: 1.11022e-16 (solve/out0/report.txt)" in lines
    assert "largest residual change: 2e-16 (solve/out0/equilibria.csv)" in lines
    assert "largest Newton-iteration total change: 69 (solve/out0/report.txt)" in lines


@pytest.mark.parametrize(
    "changed, named",
    [
        ({"reg": "critical", "index": "0"}, "solve/out0/equilibria.csv"),
        ({"trial": "0,MISMATCH"}, "experiment/out0/experiment.csv"),
    ],
    ids=["regularity", "experiment"],
)
def test_a_changed_answer_fails(tmp_path, changed, named):
    write_tree(tmp_path / "old")
    write_tree(tmp_path / "new", **changed)
    done = compare(tmp_path / "old", tmp_path / "new")
    assert done.returncode == 1
    assert any(line.startswith(f"CHANGED {named}: changed") for line in done.stdout.splitlines())
