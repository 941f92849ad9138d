"""``tools/cli_artifacts.py --compare`` tells numeric drift from changed answers."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walraskit as wk
from walraskit.revealed import ROW_BLOCK

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_artifacts.py"

CSV = "p1,p2,residual,regularity,index,multiplicity\n0.5,0.5,{res},{reg},{index},\n"
REPORT = (
    "solve: solve/economy0.yaml\n"
    "equilibria found: 1\n"
    "  p = ({p}, 0.5)  residual = {res}  {reg}  index = {index}  multiplicity = -\n"
    "finite equilibrium set: yes\n"
    "solver: {starts} starts{deflated}, {starts} converged, 0 stalled, 0 exhausted, "
    "{its} Newton iterations, {merges} dedup merges\n"
)
AUDIT = (
    "audit: solve/economy0.yaml\n"
    "consumer 0: scale=polynomial max |p.z| = {walras}, lower-bound violations = {low}, "
    "nonpositive-scale samples = [], {verdict}\n"
    "audit result: {verdict}\n"
)


def write_tree(
    root: Path,
    p="0.5",
    res="1e-16",
    reg="regular",
    index="1",
    its=120,
    starts=50,
    deflated="",
    trial="0,ok",
    finite="4",
    walras="1e-17",
    low="0",
    verdict="PASS",
):
    out = root / "solve" / "out0"
    out.mkdir(parents=True)
    (out / "equilibria.csv").write_text(CSV.format(res=res, reg=reg, index=index))
    (out / "report.txt").write_text(
        REPORT.format(
            p=p, res=res, reg=reg, index=f"+{index}", its=its, starts=starts, deflated=deflated, merges=starts - 1
        )
    )
    experiment = root / "experiment" / "out0"
    experiment.mkdir(parents=True)
    (experiment / "experiment.csv").write_text(f"trial,index_check\n{trial}\n")
    (experiment / "report.txt").write_text(f"experiment: e.yaml\nfinite_count: {finite}\n")
    audit = root / "extra" / "economy0" / "audit"
    audit.mkdir(parents=True)
    (audit / "report.txt").write_text(AUDIT.format(walras=walras, low=low, verdict=verdict))


def compare(old, new):
    return subprocess.run(
        [sys.executable, str(TOOL), "--compare", str(old), str(new)], capture_output=True, text=True
    )


def test_a_report_without_the_deflated_count_has_none(tmp_path):
    # Reports written before the count existed lack it.
    write_tree(tmp_path / "old")
    write_tree(tmp_path / "new", deflated=" (24 deflated)")
    done = compare(tmp_path / "old", tmp_path / "new")
    assert done.returncode == 0, done.stdout
    assert "largest deflated count change: 24 (solve/out0/report.txt)" in done.stdout.splitlines()


def test_numeric_drift_is_measured_and_passes(tmp_path):
    write_tree(tmp_path / "old")
    write_tree(
        tmp_path / "new", p="0.50000000000000011", res="3e-16", its=51, starts=3, walras="4e-17"
    )
    done = compare(tmp_path / "old", tmp_path / "new")
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    assert lines[0] == "files: 5, differing: 3"
    assert "largest price change: 1.11022e-16 (solve/out0/report.txt)" in lines
    # Residuals compare by their ratio: 1e-16 → 3e-16 moves log10 by log10(3).
    assert "largest log10 residual change: 0.477121 (solve/out0/equilibria.csv)" in lines
    assert "residuals from or to 0: 0" in lines
    assert "largest Newton-iteration total change: 69 (solve/out0/report.txt)" in lines
    # The solver's counts are measured like the Newton-iteration total.
    for count in ("start", "converged", "dedup-merge"):
        assert f"largest {count} count change: 47 (solve/out0/report.txt)" in lines
    assert "largest stalled count change: 0" in lines
    assert "largest audit max |p.z| change: 3e-17 (extra/economy0/audit/report.txt)" in lines
    assert "Newton iterations of solve and perturb reports: 120 → 51" in lines
    assert not any(line.startswith("CHANGED") for line in lines)


def test_a_rescaled_residual_does_not_hide_a_small_one_and_zeros_are_listed(tmp_path):
    # A rescaled economy's residual that moves 1e-7 absolute but 1% relative,
    # beside an unscaled one that moves 1e-16 absolute but 10x, and one that
    # leaves an exact 0.
    def report(root, out, res):
        path = root / "solve" / out
        path.mkdir(parents=True)
        (path / "equilibria.csv").write_text(CSV.format(res=res, reg="regular", index="1"))

    for root, residuals in (("old", ("1e-5", "1e-17", "0")), ("new", ("1.01e-5", "1e-16", "2e-17"))):
        write_tree(tmp_path / root)
        for k, res in enumerate(residuals, 1):
            report(tmp_path / root, f"out{k}", res)
    done = compare(tmp_path / "old", tmp_path / "new")
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    assert "largest log10 residual change: 1 (solve/out2/equilibria.csv)" in lines
    assert lines[lines.index("residuals from or to 0: 1") + 1] == "  solve/out3/equilibria.csv: 0 → 2e-17"


def test_newton_iterations_are_summed_over_every_report(tmp_path):
    def report(path, its):
        path.mkdir()
        fields = dict(p="0.5", res="1e-16", reg="regular", index="+1", starts=2, deflated="", merges=1)
        (path / "report.txt").write_text(REPORT.format(its=its, **fields))

    # A report that is the same on both sides counts on both.
    for root, its in (("old", 120), ("new", 51)):
        write_tree(tmp_path / root, its=its)
        report(tmp_path / root / "solve" / "out1", 7)
    report(tmp_path / "new" / "extra" / "economy0" / "perturb-tilt", 30)
    done = compare(tmp_path / "old", tmp_path / "new")
    lines = done.stdout.splitlines()
    assert "Newton iterations of solve and perturb reports: 127 → 88" in lines
    # A report on one side only is still a changed output.
    assert f"CHANGED extra/economy0/perturb-tilt/report.txt: only in {tmp_path / 'new'}" in lines


def test_a_method_change_is_counted_and_passes(tmp_path):
    # The parent's reports have no method: line, and count as grid.
    write_tree(tmp_path / "old")
    write_tree(tmp_path / "new", p="0.50000000000000011", its=0, starts=1)
    report = tmp_path / "new" / "solve" / "out0" / "report.txt"
    lines = report.read_text().splitlines()
    report.write_text("\n".join(lines[:-1] + ["method: closed form", lines[-1]]) + "\n")
    perturb = tmp_path / "new" / "extra" / "economy0" / "perturb-tilt"
    perturb.mkdir()
    fields = dict(p="0.5", res="1e-16", reg="regular", index="+1", starts=2, deflated="", merges=1, its=4)
    declined = "method: grid (closed form declined: the input is a field, not an economy)\n"
    (perturb / "report.txt").write_text(REPORT.format(**fields) + declined)
    done = compare(tmp_path / "old", tmp_path / "new")
    lines = done.stdout.splitlines()
    assert "solve and perturb reports by method: closed form: 0 → 1, grid: 1 → 1" in lines
    assert "Newton iterations of solve and perturb reports: 120 → 4" in lines
    # Only the report that is new on one side is a changed output.
    changed = [line for line in lines if line.startswith("CHANGED")]
    assert changed == [f"CHANGED extra/economy0/perturb-tilt/report.txt: only in {tmp_path / 'new'}"]


@pytest.mark.parametrize(
    "changed, named",
    [
        ({"reg": "critical", "index": "0"}, "solve/out0/equilibria.csv"),
        ({"index": "-1"}, "solve/out0/report.txt"),
        ({"trial": "0,MISMATCH"}, "experiment/out0/experiment.csv"),
        ({"finite": "3"}, "experiment/out0/report.txt"),
        ({"verdict": "FAIL"}, "extra/economy0/audit/report.txt"),
        ({"low": "2"}, "extra/economy0/audit/report.txt"),
    ],
    ids=["regularity", "index", "experiment", "experiment-report", "audit-verdict", "audit-count"],
)
def test_a_changed_answer_fails(tmp_path, changed, named):
    write_tree(tmp_path / "old")
    write_tree(tmp_path / "new", **changed)
    done = compare(tmp_path / "old", tmp_path / "new")
    assert done.returncode == 1
    assert any(line.startswith(f"CHANGED {named}: changed") for line in done.stdout.splitlines())


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The working directory of ``invocations(301)``, which writes the
    inputs there, and the invocations it lists."""
    root = tmp_path_factory.mktemp("artifacts")
    code = (
        "import runpy\n"
        f"ns = runpy.run_path({str(TOOL)!r})\n"
        "print('\\n'.join(' '.join(argv) for argv in ns['invocations'](301)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return root, done.stdout.splitlines()


def test_rescaled_economies_are_written_and_solved(written):
    tmp_path, listed = written
    sources = {"economy0": "solve/economy0.yaml", "continuum": "experiment/continuum/realized_economy.yaml"}
    for name, source in sources.items():
        base = wk.load_economy(tmp_path / source)
        for factor in ("1e-8", "1e8"):
            stem = f"rescaled/{name}-x{factor}"
            assert f"solve --input {stem}.yaml --out {stem}" in listed
            copy = wk.load_economy(tmp_path / f"{stem}.yaml")
            for a, b in zip(base.consumers, copy.consumers):
                np.testing.assert_allclose(b.endowment, a.endowment * float(factor), rtol=1e-15)
                assert (b.alpha.tolist(), b.scale.to_dict()) == (a.alpha.tolist(), a.scale.to_dict())


def test_extra_sarp_datasets_are_written_and_checked(written):
    root, listed = written
    extra = root / "sarp" / "extra"
    names = ("three-cycle", "repeated", "dataset1-x1e-11", "dataset1-x1e8", "dataset1-unpaired-first", "band-edge-repeated")
    for name in names:
        assert f"sarp --input sarp/extra/{name}.csv --out sarp/extra/{name}" in listed
    base = wk.load_dataset(root / "sarp" / "dataset1.csv")
    for factor in ("1e-11", "1e8"):
        copy = wk.load_dataset(extra / f"dataset1-x{factor}.csv")
        assert np.array_equal(copy.prices, base.prices)
        np.testing.assert_allclose(copy.bundles, base.bundles * float(factor), rtol=1e-15)
    repeated = wk.load_dataset(extra / "repeated.csv").bundles
    assert np.array_equal(repeated[1::3], repeated[:-1:3])
    # The three unit bundles form the only cycle, and no pair is mutual.
    three = wk.load_dataset(extra / "three-cycle.csv")
    adj = wk.revealed.preference_matrix(three)[0]
    assert not (adj & adj.T).any()
    assert wk.sarp_check(three).cycle == (0, 1, 2)
    # The rows of dataset 1, reordered: the first mutual pair's lower
    # observation lies past the first band.
    moved = wk.load_dataset(extra / "dataset1-unpaired-first.csv")
    rows = [np.unique(np.hstack([d.prices, d.bundles]), axis=0) for d in (moved, base)]
    assert np.array_equal(*rows)
    lower = wk.sarp_check(moved).cycle[0]
    assert lower > ROW_BLOCK
    # Whole rows copied before that observation: its first mutual pair is of
    # groups ROW_BLOCK - 1 and one past the band edge.
    edge = wk.load_dataset(extra / "band-edge-repeated.csv")
    assert np.array_equal(edge.prices[lower:], moved.prices[lower:])
    assert np.array_equal(edge.bundles[:lower], moved.bundles[np.arange(lower) % (ROW_BLOCK - 1)])
    cycle = wk.sarp_check(edge).cycle
    assert cycle == wk.sarp_check(moved).cycle
    a, b = wk.revealed.preference_matrix(edge)[1][list(cycle)]
    assert a == ROW_BLOCK - 1 and b >= ROW_BLOCK
