import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walraskit as wk
from walraskit import equilibrium
from walraskit.cli import _decomposition_grid, _perturbation_spec, _report_equilibria, build_parser, main
from walraskit.econfile import _fmt
from walraskit.consumers import demand_rows
from support import constant_scale_economy, edgeworth_symmetric, multi_equilibrium_economy, observed_demand

ECONOMY = "goods: 2\nconsumers:\n- alpha: %s\n  endowment: %s\n"


@pytest.fixture
def sym_file(tmp_path):
    path = tmp_path / "sym.yaml"
    wk.save_economy(path, edgeworth_symmetric())
    return path


class TestSolve:
    def test_reports_unique_equilibrium(self, sym_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--input", str(sym_file), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "equilibria found: 1" in report
        assert "p = (0.5, 0.5)" in report
        assert "index sum: +1" in report
        assert "finite equilibrium set: yes" in report
        csv_text = (out / "equilibria.csv").read_text()
        assert csv_text.splitlines()[1].startswith("0.5,0.5,")

    def test_the_report_names_its_method(self, sym_file, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--input", str(sym_file), "--out", str(out)]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        at = lines.index("method: closed form")
        assert lines[at + 1] == (
            "solver: 0 starts (0 deflated), 0 converged, 0 stalled, 0 exhausted, 0 Newton iterations, 0 dedup merges"
        )
        multi = tmp_path / "multi.yaml"
        wk.save_economy(multi, multi_equilibrium_economy(2, 0))
        argvs = {
            "solve": ["solve", "--input", str(multi)],
            "perturb": ["perturb", "--input", str(sym_file), "--epsilon", "1e-3"],
        }
        declined = {
            "solve": "the scale of consumer 0 is not constant",
            "perturb": "the input is a field, not an economy",
        }
        for command, argv in argvs.items():
            out = tmp_path / command
            assert main(argv + ["--out", str(out)]) == 0
            lines = (out / "report.txt").read_text().splitlines()
            assert f"method: grid (closed form declined: {declined[command]})" in lines

    def test_index_sum_check_follows_the_index_sum(self, sym_file, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--input", str(sym_file), "--out", str(out)]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        at = lines.index("index sum: +1")
        assert lines[at + 1] == "index-sum check: ok"

    def test_missing_input_exits_1(self, tmp_path, capsys):
        rc = main(["solve", "--input", str(tmp_path / "no.yaml"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "input error" in capsys.readouterr().err

    def test_malformed_economy_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("goods: 2\nconsumers:\n- alpha: [0.9, 0.9]\n  endowment: [1, 1]\n")
        rc = main(["solve", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "consumer 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "audit"])
    def test_scale_reading_past_the_goods_exits_1(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "goods: 2\nconsumers:\n- alpha: [0.3, 0.7]\n  endowment: [1, 1]\n"
            "  scale: {type: kernel_sampled, grid: [[0.1], [0.9]], values: [1, 1], good: 5,"
            " share: 0.5, level: 1}\n"
        )
        out = tmp_path / "o"
        assert main([command, "--input", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "input error: consumer 0: invalid scale: "
            "kernel_sampled good must be an integer from 0 to 1, not 5"
        ]
        assert not (out / "report.txt").exists()

    def test_non_finite_bump_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "goods: 2\nconsumers:\n- alpha: [0.3, 0.7]\n  endowment: [1, 1]\n"
            "  scale: {type: bump, center: [0.5], radius: .nan, height: 5.0, floor: 1.0}\n"
        )
        assert main(["solve", "--input", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "input error: consumer 0: invalid scale: "
            "bump center, radius, height and floor must be finite"
        ]

    @pytest.mark.parametrize(
        "scale, message",
        [
            ("{type: polynomial, terms: [[1.0, [1.5]]]}", "polynomial powers must be non-negative integers, not 1.5"),
            ("{type: constant, value: true}", "constant scale value must be a number, not True"),
        ],
        ids=["power-1.5", "value-true"],
    )
    def test_scale_field_that_is_not_its_number_exits_1(self, tmp_path, capsys, scale, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(ECONOMY % ("[0.3, 0.7]", "[1, 1]") + f"  scale: {scale}\n")
        out = tmp_path / "o"
        assert main(["solve", "--input", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"input error: consumer 0: invalid scale: {message}"]
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize(
        "alpha, endowment, message",
        [
            ("[0.3, 0.7]", "[true, 1]", "endowment must be a number, not True"),
            ("[false, 1.0]", "[1, 1]", "alpha must be a number, not False"),
        ],
        ids=["endowment-true", "alpha-false"],
    )
    def test_consumer_field_that_is_not_a_number_exits_1(self, tmp_path, capsys, alpha, endowment, message):
        # A bool used to read as 1.0 or 0.0, and the solve exited 0.
        bad = tmp_path / "bad.yaml"
        bad.write_text(ECONOMY % (alpha, endowment))
        out = tmp_path / "o"
        assert main(["solve", "--input", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"input error: consumer 0: {message}"]
        assert not (out / "report.txt").exists()

    def test_invalid_yaml_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("goods: [2\nconsumers: {\n")
        rc = main(["solve", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "not valid YAML" in capsys.readouterr().err


class TestDecomposeAndRealize:
    def test_decompose_writes_witness(self, sym_file, tmp_path):
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(sym_file), "--out", str(out), "--grid", "21"]) == 0
        lines = (out / "witness.csv").read_text().strip().splitlines()
        assert lines[0] == "p1,p2,mu1,mu2,residual"
        assert len(lines) == 22
        mus = np.array([[float(v) for v in row.split(",")[2:4]] for row in lines[1:]])
        assert mus.min() >= 1.0

    def test_decompose_large_endowments(self, tmp_path):
        # the residual grows with the target (here about 3e-8); it is judged
        # relative to the target's norm
        big = wk.Economy(
            (
                wk.Consumer([0.6, 0.2, 0.2], np.array([1, 2, 0]) * 1e6),
                wk.Consumer([0.1, 0.3, 0.6], np.array([0, 1, 3]) * 1e6),
                wk.Consumer([1 / 3, 1 / 3, 1 / 3], np.array([1, 1, 1]) * 1e6),
            )
        )
        path = tmp_path / "big.yaml"
        wk.save_economy(path, big)
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(path), "--out", str(out)]) == 0
        assert "max reconstruction residual" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("goods", [2, 3, 4, 5])
    def test_decompose_rows_are_the_per_point_witnesses(self, goods, tmp_path):
        # One decomposition of the whole grid writes, bit for bit, what a
        # witness built at each grid point on its own gives.
        path = tmp_path / "eco.yaml"
        wk.save_economy(path, constant_scale_economy(np.random.default_rng(goods), goods, 3))
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(path), "--grid", "401", "--seed", "11", "--out", str(out)]) == 0
        rows = (out / "witness.csv").read_text().splitlines()[1:]
        economy, family = wk.load_economy(path), wk.CanonicalFamily.symmetric(goods)
        grid = _decomposition_grid(goods, 401, 11)
        assert len(rows) == len(grid)
        for row, s in zip(rows, grid):
            w = wk.decompose_at(family, wk.aed(economy, wk.simplex_point(s)))
            assert row == ",".join(_fmt(v) for v in (*w.price.simplex_coords(), *w.mu, w.residual))

    def test_realize_continuum_and_reload(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["realize", "--continuum", "0.4", "0.6", "--grid", "101", "--out", str(out)])
        assert rc == 0
        econ = wk.load_economy(out / "realized_economy.yaml")
        assert wk.continuum_detector(econ).fired

    def test_realize_from_economy_reports_mismatch(self, sym_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["realize", "--input", str(sym_file), "--grid", "51", "--out", str(out)])
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "max grid-point mismatch" in report
        mismatch = float(report.split("max grid-point mismatch: ")[1].splitlines()[0])
        assert mismatch <= 1e-6
        # endowments x1e6: the absolute mismatch grows with the field, the
        # relative one stays at rounding level
        big = tmp_path / "big.yaml"
        consumers = edgeworth_symmetric().consumers
        wk.save_economy(
            big, wk.Economy(tuple(wk.Consumer(c.alpha, 1e6 * np.asarray(c.endowment)) for c in consumers))
        )
        out = tmp_path / "big"
        assert main(["realize", "--input", str(big), "--grid", "51", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        relative = report.split("relative to the largest |target chart value|: ")[1]
        assert float(relative.splitlines()[0]) <= 1e-12

    def test_realize_evaluates_its_target_once(self, sym_file, tmp_path, monkeypatch):
        # One call on the grid rows serves the realisation and the mismatch.
        import walraskit.cli as cli_mod

        calls = []

        def counted_field(economy):
            field = wk.economy_field(economy)

            def counted(C):
                calls.append(len(C))
                return field.chart_values(C)

            return wk.chart_field(counted, goods=field.goods)

        monkeypatch.setattr(cli_mod, "economy_field", counted_field)
        assert main(["realize", "--input", str(sym_file), "--grid", "51", "--out", str(tmp_path / "o")]) == 0
        assert calls == [51]

    @pytest.mark.parametrize("goods", [2, 3])
    def test_realize_mismatch_is_the_node_value_mismatch(self, goods, tmp_path, rng):
        # The benchmark oracle's rule, written out: read the realised file
        # with plain YAML, take each scale at its nodes as its node value
        # times share / (p_good * level), and compare the canonical
        # consumers' aggregate excess demand with the source's there.
        yaml = pytest.importorskip("yaml")
        path, out = tmp_path / "economy.yaml", tmp_path / "out"
        source = constant_scale_economy(rng, goods, 3)
        wk.save_economy(path, source)
        assert main(["realize", "--input", str(path), "--grid", "41", "--seed", "5", "--out", str(out)]) == 0
        data = yaml.safe_load((out / "realized_economy.yaml").read_text())
        C = np.asarray(data["consumers"][0]["scale"]["grid"], dtype=float)
        P = np.hstack([C, 1.0 - C.sum(axis=1, keepdims=True)])
        realized = np.zeros_like(P)
        for c in data["consumers"]:
            sc = c["scale"]
            alpha, omega = np.asarray(c["alpha"], dtype=float), np.asarray(c["endowment"], dtype=float)
            scale = np.asarray(sc["values"], dtype=float) * sc["share"] / (P[:, sc["good"]] * sc["level"])
            realized += scale[:, None] * (alpha * (P @ omega)[:, None] / P - omega)
        target = sum(
            s * (c.alpha * (P @ c.endowment)[:, None] / P - c.endowment)
            for c, s in zip(source.consumers, source.constant_scales)
        )
        expected = np.abs(realized - target)[:, :-1].max()
        largest = np.abs(target[:, :-1]).max()
        report = (out / "report.txt").read_text().splitlines()
        mismatch = float(report[2].removeprefix("max grid-point mismatch: "))
        relative = float(report[3].removeprefix("relative to the largest |target chart value|: "))
        # Both are rounding: they agree to a few units of it.
        assert abs(mismatch - expected) <= 16 * np.finfo(float).eps * largest
        assert abs(relative - expected / largest) <= 16 * np.finfo(float).eps

    def test_realize_without_source_exits_1(self, tmp_path):
        assert main(["realize", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("goods", [2, 3, 4])
    def test_realize_grid_needs_one_point_per_good(self, goods, tmp_path, capsys):
        path = tmp_path / "economy.yaml"
        alpha = np.full(goods, 1.0 / goods)
        consumers = (wk.Consumer(alpha, np.ones(goods)), wk.Consumer(alpha, np.arange(1.0, goods + 1)))
        wk.save_economy(path, wk.Economy(consumers))
        for grid in range(1, goods):
            out = tmp_path / f"out{grid}"
            argv = ["realize", "--input", str(path), "--out", str(out), "--grid", str(grid)]
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [
                f"input error: realisation needs a grid of at least {goods} points "
                f"for {goods} goods, not {grid}"
            ]
            assert not (out / "report.txt").exists()
        out = tmp_path / "enough"
        assert main(["realize", "--input", str(path), "--out", str(out), "--grid", str(goods)]) == 0
        assert (out / "realized_economy.yaml").exists()

    def test_collinear_sampled_grid_exits_1(self, tmp_path, capsys):
        # three goods: a two-dimensional chart grid on one line has no triangulation
        path = tmp_path / "collinear.yaml"
        path.write_text(
            "goods: 3\n"
            "consumers:\n"
            "- alpha: [0.2, 0.3, 0.5]\n"
            "  endowment: [1, 1, 1]\n"
            "  scale: {type: sampled, grid: [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4]],"
            " values: [1, 2, 3, 4]}\n"
        )
        out = tmp_path / "out"
        assert main(["solve", "--input", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: ")
        assert "sampled grid of 4 points in 2 chart dimensions cannot be triangulated" in err[0]
        assert not (out / "report.txt").exists()


class TestPerturbAndExperiment:
    def test_perturb_solves_perturbed_field(self, tmp_path):
        cont = tmp_path / "cont"
        main(["realize", "--continuum", "0.4", "0.6", "--grid", "201", "--out", str(cont)])
        out = tmp_path / "out"
        rc = main(
            [
                "perturb",
                "--input", str(cont / "realized_economy.yaml"),
                "--epsilon", "1e-3",
                "--basis", "tilt",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = (out / "report.txt").read_text()
        assert "equilibria found: 1" in report
        assert "finite equilibrium set: yes" in report

    def test_experiment_csv_and_determinism(self, tmp_path):
        cont = tmp_path / "cont"
        main(["realize", "--continuum", "0.4", "0.6", "--grid", "201", "--out", str(cont)])
        args = [
            "experiment",
            "--input", str(cont / "realized_economy.yaml"),
            "--trials", "6",
            "--epsilon", "1e-3",
            "--seed", "42",
        ]
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        b1 = (out1 / "experiment.csv").read_bytes()
        assert b1 == (out2 / "experiment.csv").read_bytes()
        lines = b1.decode().strip().splitlines()
        assert lines[0] == (
            "trial,seed,epsilon,n_equilibria,all_regular,index_sum,finite,error,index_check"
        )
        assert len(lines) == 7
        assert all(line.endswith(",true,,ok") for line in lines[1:])
        report = (out1 / "report.txt").read_text()
        assert "finite_count: 6" in report
        assert "continuum detector fired" in report

    def test_experiment_scans_the_base_once(self, sym_file, tmp_path, monkeypatch):
        # The base line comes from the scan the trials share.
        import walraskit.cli as cli

        def refuse(economy):
            raise AssertionError("the base was scanned again")

        monkeypatch.setattr(cli, "continuum_detector", refuse)
        out = tmp_path / "out"
        args = ["experiment", "--input", str(sym_file), "--trials", "2", "--epsilon", "1e-3"]
        assert main(args + ["--out", str(out)]) == 0
        assert (out / "report.txt").read_text().splitlines()[-1] == "unperturbed base: finite"

    def test_experiment_beyond_the_scan_grid_exits_1(self, tmp_path, capsys):
        path = tmp_path / "seven.yaml"
        alpha = np.full(7, 1.0 / 7.0)
        wk.save_economy(path, wk.Economy((wk.Consumer(alpha, np.ones(7)), wk.Consumer(alpha, np.arange(1.0, 8.0)))))
        out = tmp_path / "out"
        args = ["experiment", "--input", str(path), "--trials", "2", "--epsilon", "1e-3", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            "input error: continuum scan grid of 11^6 points is too large (limit 250000 points)"
        ]
        lines = (out / "experiment.csv").read_text().splitlines()
        assert len(lines) == 3
        assert all("continuum scan grid of 11^6 points is too large" in line for line in lines[1:])

    @pytest.mark.parametrize(
        "basis, kind, degree, terms",
        [
            ("tilt", "linear_tilt", 3, 5),
            ("poly", "polynomial", 3, 5),
            ("poly:2", "polynomial", 2, 5),
            ("fourier:7", "random_fourier", 3, 7),
        ],
    )
    def test_basis_spellings(self, basis, kind, degree, terms):
        argv = ["perturb", "--input", "e.yaml", "--out", "out", "--epsilon", "1e-3", "--basis", basis]
        spec = _perturbation_spec(build_parser().parse_args(argv))
        assert (spec.basis, spec.degree, spec.terms) == (kind, degree, terms)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            (["perturb"], "--epsilon"),
            (["experiment", "--trials", "2"], "--epsilon"),
        ],
        ids=["perturb-epsilon", "experiment-epsilon"],
    )
    def test_non_finite_numbers_exit_1(self, sym_file, tmp_path, capsys, command, flag, value):
        message = "epsilon must be finite and non-negative"
        out = tmp_path / "out"
        argv = command + ["--input", str(sym_file), "--out", str(out), flag, value]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize(
        "command",
        [["solve"], ["perturb", "--epsilon", "1e-3"], ["experiment", "--epsilon", "1e-3", "--trials", "2"]],
        ids=["solve", "perturb", "experiment"],
    )
    def test_there_is_no_tolerance_flag(self, sym_file, tmp_path, capsys, command):
        # Every residual threshold is relative to the field's own scale.
        out = tmp_path / "out"
        argv = command + ["--input", str(sym_file), "--out", str(out), "--tol", "1e-10"]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "basis", ["poly:x", "fourier:", "poly:2:3", "tilt:7", "poly:0", "fourier:-3", "foo"]
    )
    def test_malformed_basis_names_the_flag(self, sym_file, tmp_path, capsys, basis):
        out = tmp_path / "out"
        argv = ["perturb", "--input", str(sym_file), "--out", str(out), "--epsilon", "1e-3", "--basis", basis]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"input error: --basis '{basis}': expected tilt, poly:DEG or fourier:TERMS "
            "with a positive integer DEG or TERMS"
        ]
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["audit", "--samples", "0"], "--samples"),
            (["decompose", "--grid", "0"], "--grid"),
            (["realize", "--grid", "0"], "--grid"),
        ],
        ids=["audit-samples", "decompose-grid", "realize-grid"],
    )
    def test_counts_below_one_name_the_flag(self, sym_file, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main(argv + ["--input", str(sym_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"input error: {flag} must be at least 1, not 0"
        ]
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["perturb", "--epsilon", "1e-3"], ["experiment", "--epsilon", "1e-3", "--trials", "2"]],
        ids=["solve", "perturb", "experiment"],
    )
    def test_the_solver_commands_take_no_grid(self, sym_file, tmp_path, capsys, argv):
        # The solver's lattice follows from the number of goods alone.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--input", str(sym_file), "--out", str(out), "--grid", "50"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --grid 50" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["perturb", "--epsilon", "1e-3"],
            ["experiment", "--epsilon", "1e-3", "--trials", "2"],
            ["audit"],
            ["decompose"],
            ["realize"],
        ],
        ids=["perturb", "experiment", "audit", "decompose", "realize"],
    )
    @pytest.mark.parametrize("goods", [2, 3])
    def test_a_negative_seed_names_the_flag(self, tmp_path, capsys, argv, goods):
        # It failed inside numpy ("expected non-negative integer"), and at
        # two goods decompose and realize ignored it.
        economy = tmp_path / "economy.yaml"
        wk.save_economy(economy, wk.Economy((wk.Consumer([1.0 / goods] * goods, [1.0] * goods),) * 2))
        out = tmp_path / "out"
        assert main(argv + ["--input", str(economy), "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "input error: --seed must be a non-negative integer, not -1"
        ]
        assert not out.exists()


class TestSarpAndAudit:
    def test_sarp_violation_report(self, tmp_path, capsys):
        ds = wk.ObservationDataset([[1, 1], [1, 2]], [[2, 0], [0, 2]])
        path = tmp_path / "obs.csv"
        wk.save_dataset(path, ds)
        out = tmp_path / "out"
        assert main(["sarp", "--input", str(path), "--out", str(out)]) == 0
        assert "violation: cycle (1, 2)" in (out / "report.txt").read_text()

    def test_sarp_pass_report(self, tmp_path, rng):
        c = wk.Consumer([0.4, 0.6], [1, 1])
        prices = [wk.simplex_point(rng.dirichlet([2, 2])) for _ in range(20)]
        path = tmp_path / "obs.csv"
        wk.save_dataset(path, observed_demand(c, prices))
        out = tmp_path / "out"
        assert main(["sarp", "--input", str(path), "--out", str(out)]) == 0
        assert "SARP: pass" in (out / "report.txt").read_text()

    @pytest.mark.parametrize(
        "command,text,message",
        [
            pytest.param("sarp", "p1,p2,x1,x2\n1,nan,2,0\n1,2,0,2\n", "finite", id="1,nan,2,0"),
            pytest.param("sarp", "p1,p2,x1,x2\n1,2,inf,0\n1,2,0,2\n", "finite", id="1,2,inf,0"),
            pytest.param("solve", ECONOMY % ("[.nan, 0.5]", "[1, 1]"), "consumer 0", id="alpha-nan"),
            pytest.param("solve", ECONOMY % ("[0.5, 0.5]", "[.inf, 1]"), "consumer 0", id="endowment-inf"),
        ],
    )
    def test_sarp_non_finite_input_exits_1(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "input"
        path.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--input", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty dataset file"),
            ("p1,p2,x1,x2\n", "dataset has a header but no rows"),
            ("p1,p2,x1,x2\n\n\n", "dataset has a header but no rows"),
        ],
        ids=["empty", "header-only", "header-then-blank-lines"],
    )
    def test_sarp_without_rows_exits_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        assert main(["sarp", "--input", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"input error: {path}: {message}"]

    def test_audit_reports_scaled_consumers(self, tmp_path):
        econ = wk.Economy(
            (
                wk.Consumer([0.5, 0.5], [1, 0]),
                wk.Consumer(
                    [0.5, 0.5], [0, 1], scale=wk.PolynomialScale(((1.0, (0,)), (1.0, (1,))))
                ),
            )
        )
        path = tmp_path / "eco.yaml"
        wk.save_economy(path, econ)
        out = tmp_path / "out"
        assert main(["audit", "--input", str(path), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "consumer 0: constant scale, skipped" in report
        assert "consumer 1: scale=polynomial" in report
        assert "audit result: PASS" in report

    def test_audit_of_constant_scales_audits_nothing(self, sym_file, tmp_path):
        out = tmp_path / "out"
        assert main(["audit", "--input", str(sym_file), "--out", str(out)]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert lines[-3:] == [
            "consumer 0: constant scale, skipped",
            "consumer 1: constant scale, skipped",
            "audit result: NOTHING AUDITED (every consumer has a constant scale)",
        ]


class TestContinuumWitness:
    def test_interval_of_the_realised_continuum(self, tmp_path):
        # The realised field is the target's zero between nodes once no
        # interpolation slope reaches past the interval's ends, about a node
        # spacing in: at 2001 nodes that is less than a scan spacing.
        argv = ["realize", "--continuum", "0.4", "0.6", "--grid", "2001", "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        assert main(["solve", "--input", str(tmp_path / "r" / "realized_economy.yaml"), "--out", str(tmp_path / "s")]) == 0
        lines = (tmp_path / "s" / "report.txt").read_text().splitlines()
        assert "finite equilibrium set: NO (continuum suspected)" in lines
        (line,) = [x for x in lines if x.startswith("continuum witness interval: ")]
        lo, hi = (float(v) for v in line.split(": ")[1].strip("[]").split(", "))
        spacing = equilibrium._spacing(equilibrium._scan_grid(1)[1])
        assert abs(lo - 0.4) <= spacing and abs(hi - 0.6) <= spacing

    def test_box_of_a_three_good_zero_line(self):
        # Both components vanish on the chart line c0 = c1, which runs through
        # scan-grid points from the margin to the face sum(c) = 1.
        field = wk.chart_field(lambda C: np.column_stack([C[:, 1] - C[:, 0], C[:, 0] - C[:, 1]]), goods=3)
        lines = []
        _report_equilibria(wk.find_equilibria(field), lines)
        (line,) = [x for x in lines if x.startswith("continuum witness box: ")]
        lo, hi = ([float(v) for v in part.strip("[]").split(", ")] for part in line.split(": ")[1].split(" .. "))
        spacing = equilibrium._spacing(equilibrium._scan_grid(2)[1])
        assert lo == [equilibrium.BOUNDARY_MARGIN] * 2
        assert hi[0] == hi[1] and 0.5 - spacing <= hi[0] < 0.5


def test_one_parser_serves_many_calls(sym_file, tmp_path):
    # build_parser is cached: nothing parsed by one call may reach the next.
    argvs = [
        ["realize", "--continuum", "0.4", "0.6", "--grid", "21", "--seed", "5"],
        ["realize", "--input", str(sym_file)],
        ["solve", "--input", str(sym_file)],
    ]
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    reports = {}
    for run, argv in enumerate(argvs + argvs[::-1]):
        out = tmp_path / f"out{run}"
        assert main(argv + ["--out", str(out)]) == 0
        reports.setdefault(tuple(argv), set()).add((out / "report.txt").read_text())
        args = vars(build_parser().parse_args(argv + ["--out", "o"]))
        assert args == vars(fresh.parse_args(argv + ["--out", "o"]))
    assert all(len(texts) == 1 for texts in reports.values())
    realize_input = vars(build_parser().parse_args(argvs[1] + ["--out", "o"]))
    assert realize_input["continuum"] is None
    assert (realize_input["grid"], realize_input["seed"]) == (201, 1729)
    assert "grid" not in vars(build_parser().parse_args(argvs[2] + ["--out", "o"]))
    assert "grid points: 201" in reports[tuple(argvs[1])].pop()


def test_internal_assertion_exits_2(sym_file, tmp_path, monkeypatch, capsys):
    import walraskit.cli as cli_mod
    from walraskit.decomposition import PositiveSpanningError

    def broken(*args, **kwargs):
        raise PositiveSpanningError("synthetic spanning failure")

    monkeypatch.setattr(cli_mod, "_decompose_grid", broken)
    rc = main(["decompose", "--input", str(sym_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "internal assertion failed" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    path = tmp_path / "eco.yaml"
    wk.save_economy(path, edgeworth_symmetric())
    proc = subprocess.run(
        [sys.executable, "-m", "walraskit.cli", "solve", "--input", str(path), "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


NO_SCIPY = """
import json, sys
from walraskit.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, *(sorted(m for m in sys.modules if m.split(".")[0] == top) for top in ("scipy", "yaml"))]))
"""


def test_solve_perturb_and_audit_load_no_scipy(tmp_path, rng):
    # Closed-form scales need no interpolation and no graph search from scipy.
    bump = wk.BumpScale((0.3, 0.3), 0.2, height=2.0)
    poly = wk.PolynomialScale(((1.0, (0, 0, 0)), (0.5, (1, 0, 0))))
    economies = {
        "constant": constant_scale_economy(rng, 4, 3),
        "polynomial": multi_equilibrium_economy(3, 0),
        "bump": wk.Economy((wk.Consumer([0.3, 0.3, 0.4], [1, 2, 1], bump), wk.Consumer([0.5, 0.2, 0.3], [1, 1, 1]))),
        # A constant, a polynomial and a bump scale in one four-good economy.
        "closed": wk.Economy(
            (
                wk.Consumer([0.1, 0.2, 0.3, 0.4], [1, 1, 1, 1], wk.ConstantScale(2.0)),
                wk.Consumer([0.4, 0.3, 0.2, 0.1], [2, 0, 1, 1], poly),
                wk.Consumer([0.3, 0.3, 0.2, 0.2], [1, 2, 1, 0], wk.BumpScale((0.2, 0.2, 0.2), 0.2, 2.0)),
            )
        ),
    }
    for name, economy in economies.items():
        wk.save_economy(tmp_path / f"{name}.yaml", economy)
    runs = [
        ["solve", "--input", "constant.yaml"],
        ["solve", "--input", "polynomial.yaml"],
        ["solve", "--input", "bump.yaml"],
        ["perturb", "--input", "polynomial.yaml", "--epsilon", "0.01", "--basis", "poly:3"],
        ["audit", "--input", "polynomial.yaml"],
        ["audit", "--input", "bump.yaml"],
        ["decompose", "--input", "polynomial.yaml"],
        ["solve", "--input", "closed.yaml"],
        ["perturb", "--input", "closed.yaml", "--epsilon", "0.01", "--basis", "poly:3"],
        ["audit", "--input", "closed.yaml"],
        ["decompose", "--input", "closed.yaml", "--grid", "2001"],
    ]
    argv = [[*run[:2], str(tmp_path / run[2]), *run[3:], "--out", str(tmp_path / f"out{k}")] for k, run in enumerate(runs)]
    codes, loaded = _run_loading_no_scipy(argv)
    assert codes == [0] * len(runs)
    assert loaded == []
    assert len((tmp_path / f"out{len(runs) - 1}" / "witness.csv").read_text().splitlines()) == 2001 + 1


def test_sarp_loads_no_scipy(tmp_path, rng):
    # A passing dataset peels to nothing and a two-cycle is a mutual pair;
    # a three-cycle without a mutual pair takes the strong-component search,
    # a numpy BFS.
    P = rng.dirichlet(np.ones(3), 500)
    X = demand_rows(wk.Consumer([0.6, 0.3, 0.1], [1.0, 0.5, 2.0]), P)
    wk.save_dataset(tmp_path / "pass.csv", wk.ObservationDataset(P, X))
    X[1::2] = demand_rows(wk.Consumer([0.1, 0.3, 0.6], [2.0, 0.5, 1.0]), P[1::2])
    wk.save_dataset(tmp_path / "two-cycle.csv", wk.ObservationDataset(P, X))
    P = [[1.0, 0.9, 2.0], [2.0, 1.0, 0.9], [0.9, 2.0, 1.0]]
    wk.save_dataset(tmp_path / "three-cycle.csv", wk.ObservationDataset(P, np.eye(3)))
    # The two-cycle as edited by hand: CRLF endings, every field of row 3
    # quoted, two blank lines after the header.
    lines = (tmp_path / "two-cycle.csv").read_text().splitlines()
    lines[3] = ",".join(f'"{field}"' for field in lines[3].split(","))
    (tmp_path / "edited.csv").write_bytes(("\r\n".join([lines[0], "", "", *lines[1:]]) + "\r\n").encode())
    names = ("pass", "two-cycle", "three-cycle", "edited")
    argv = [["sarp", "--input", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)] for name in names]
    codes, loaded = _run_loading_no_scipy(argv)
    assert codes == [0, 0, 0, 0]
    assert loaded == []
    assert (tmp_path / "pass" / "report.txt").read_text().splitlines()[-1] == "SARP: pass"
    verdict = (tmp_path / "two-cycle" / "report.txt").read_text().splitlines()[-1]
    assert verdict.startswith("SARP: violation: cycle (") and verdict.count(",") == 1
    assert (tmp_path / "edited" / "report.txt").read_text().splitlines()[-1] == verdict
    verdict = (tmp_path / "three-cycle" / "report.txt").read_text().splitlines()[-1]
    assert verdict == "SARP: violation: cycle (1, 2, 3)"


def test_one_dimensional_sampled_scales_load_no_scipy(tmp_path, rng):
    # A two-good realised economy interpolates its kernel_sampled ratios by
    # the numpy PCHIP.  A three-good realize writes its scales and reads
    # them only at their nodes; only evaluating a multi-dimensional grid
    # elsewhere, as solve does, needs scipy.
    realized = str(tmp_path / "cont" / "realized_economy.yaml")
    argv = [
        ["realize", "--continuum", "0.4", "0.6", "--out", str(tmp_path / "cont")],
        ["experiment", "--input", realized, "--epsilon", "1e-3", "--trials", "4", "--out", str(tmp_path / "exp")],
        ["solve", "--input", realized, "--out", str(tmp_path / "solve")],
        ["perturb", "--input", realized, "--epsilon", "1e-3", "--out", str(tmp_path / "perturb")],
    ]
    codes, loaded = _run_loading_no_scipy(argv)
    assert codes == [0] * len(argv)
    assert loaded == []
    wk.save_economy(tmp_path / "three.yaml", constant_scale_economy(rng, 3, 2))
    argv = [["realize", "--input", str(tmp_path / "three.yaml"), "--grid", "30", "--out", str(tmp_path / "three")]]
    codes, loaded = _run_loading_no_scipy(argv)
    assert codes == [0]
    assert loaded == []
    argv = [["solve", "--input", str(tmp_path / "three" / "realized_economy.yaml"), "--out", str(tmp_path / "s3")]]
    codes, loaded = _run_loading_no_scipy(argv)
    assert codes == [0]
    assert "scipy.spatial" in loaded


def _run_loading_no_scipy(argv) -> tuple:
    """Exit codes of ``main`` on each of ``argv`` in one fresh interpreter,
    and the scipy modules loaded by then.  Every input was written by
    walraskit, so none may load a ``yaml`` module either: PyYAML reads only
    files outside the emitter's layout."""
    src = str(Path(wk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, json.dumps(argv)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    codes, scipy, yaml = json.loads(proc.stdout.splitlines()[-1])
    assert yaml == [], yaml
    return codes, scipy
