import subprocess
import sys

import numpy as np
import pytest

import walraskit as wk
from walraskit.cli import _perturbation_spec, build_parser, main
from support import edgeworth_symmetric, observed_demand

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
    assert vars(build_parser().parse_args(argvs[2] + ["--out", "o"]))["grid"] == 50
    assert "grid points: 201" in reports[tuple(argvs[1])].pop()


def test_internal_assertion_exits_2(sym_file, tmp_path, monkeypatch, capsys):
    import walraskit.cli as cli_mod
    from walraskit.decomposition import PositiveSpanningError

    def broken(*args, **kwargs):
        raise PositiveSpanningError("synthetic spanning failure")

    monkeypatch.setattr(cli_mod, "decompose_at", broken)
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
